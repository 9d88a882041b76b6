//! `sql_analyst`: an analyst's read-only SQL over a warm, durable store.
//! One op is a batch of queries in fixed class proportions, shuffled by
//! the seed, covering both the live-index path (`Ppdb::query_live`) and
//! the snapshot path (`Ppdb::query_violations`). Batching keeps the op's
//! latency one-peaked, so its median moves when any class does; a single
//! query's latency has one peak per class. No query writes, so after
//! set-up neither the live index nor the snapshot is ever rebuilt, and
//! storage decode, the kernels and the write path stay out of the loop.

use std::time::Instant;

use qpv_reldb::exec::ResultSet;
use qpv_reldb::{DbResult, Value};
use qpv_synth::Scenario;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use super::{audit_rows, load_store, setup_repeated, sorted, Outcome, RunConfig, Store};
use crate::trace::Tracer;

const N: usize = 20_000;
const SMOKE_N: usize = 2_000;
const WARMUP: usize = 3;
const MIX_SALT: u64 = 0x5A1_A7A1_7575;

#[derive(Clone, Copy)]
enum Kind {
    /// `_qpv_violations` over a provider range of this share of the ids.
    Range(f64),
    /// `VIOLATES('patients', attr)` over the data table, on a range of
    /// this share of the ids.
    Violates(f64),
    /// Every `_qpv_violations` row witnessed on one attribute.
    Attr,
}

struct Class {
    span: &'static str,
    /// Queries of this class in every op.
    per_op: usize,
    /// Answered by `query_live` (else by `query_violations`).
    live: bool,
    kind: Kind,
    /// What `Ppdb::explain` must show for this class.
    plan: &'static [&'static str],
}

const CLASSES: [Class; 5] = [
    Class {
        span: "core.liveindex.query_range_0p1",
        per_op: 6,
        live: true,
        kind: Kind::Range(0.001),
        plan: &["LiveIndexScan"],
    },
    Class {
        span: "core.liveindex.query_range_1",
        per_op: 6,
        live: true,
        kind: Kind::Range(0.01),
        plan: &["LiveIndexScan"],
    },
    Class {
        span: "core.selective.query_range_10",
        per_op: 3,
        live: false,
        kind: Kind::Range(0.10),
        plan: &["ViolationScan", "strategy=candidates"],
    },
    Class {
        span: "core.selective.query_violates_1",
        per_op: 4,
        live: false,
        kind: Kind::Violates(0.01),
        plan: &["IndexScan patients via _qpv_data_provider"],
    },
    Class {
        span: "core.liveindex.query_attr",
        per_op: 1,
        live: true,
        kind: Kind::Attr,
        plan: &["LiveIndexScan", "attr="],
    },
];

struct Query {
    class: usize,
    sql: String,
    lo: usize,
    hi: usize,
    attr: usize,
}

/// Answers by the reference audit, indexed by provider id (ids are the
/// dense `0..n` the scenario generates).
struct Oracle {
    rows: Vec<Vec<Vec<Value>>>,
    attrs: Vec<String>,
    /// `range_rows[i]`: rows of providers with id `< i`.
    range_rows: Vec<usize>,
    /// `violators[a][i]`: providers with id `< i` witnessed on attr `a`.
    violators: Vec<Vec<usize>>,
    /// Rows witnessed on each attribute.
    attr_rows: Vec<usize>,
}

impl Oracle {
    fn new(s: &Scenario) -> Oracle {
        let report = s.engine().run_reference(&s.population.profiles);
        let attrs = s.spec.attribute_names();
        let rows: Vec<Vec<Vec<Value>>> = report
            .providers
            .iter()
            .enumerate()
            .map(|(i, a)| {
                assert_eq!(a.provider.0, i as u64, "scenario ids are dense");
                audit_rows(a)
                    .into_iter()
                    .map(|(p, attr, purpose, sev)| {
                        vec![
                            Value::Int(p),
                            Value::Text(attr),
                            Value::Text(purpose),
                            Value::Int(sev),
                        ]
                    })
                    .collect()
            })
            .collect();
        let on =
            |r: &[Vec<Value>], a: &str| r.iter().filter(|w| w[1] == Value::Text(a.into())).count();
        let prefix = |f: &dyn Fn(&[Vec<Value>]) -> usize| {
            let mut acc = vec![0usize];
            for r in &rows {
                acc.push(acc.last().unwrap() + f(r));
            }
            acc
        };
        let range_rows = prefix(&|r| r.len());
        let violators = attrs
            .iter()
            .map(|a| prefix(&|r| usize::from(on(r, a) > 0)))
            .collect();
        let attr_rows = attrs
            .iter()
            .map(|a| rows.iter().map(|r| on(r, a)).sum())
            .collect();
        Oracle {
            rows,
            attrs,
            range_rows,
            violators,
            attr_rows,
        }
    }

    fn count(&self, q: &Query) -> usize {
        match CLASSES[q.class].kind {
            Kind::Range(_) => self.range_rows[q.hi] - self.range_rows[q.lo],
            Kind::Violates(_) => self.violators[q.attr][q.hi] - self.violators[q.attr][q.lo],
            Kind::Attr => self.attr_rows[q.attr],
        }
    }

    /// The full answer, sorted.
    fn rows(&self, q: &Query) -> Vec<Vec<Value>> {
        let attr = Value::Text(self.attrs[q.attr].clone());
        sorted(match CLASSES[q.class].kind {
            Kind::Range(_) => self.rows[q.lo..q.hi].iter().flatten().cloned().collect(),
            Kind::Violates(_) => (q.lo..q.hi)
                .filter(|&i| self.rows[i].iter().any(|w| w[1] == attr))
                .map(|i| vec![Value::Int(i as i64)])
                .collect(),
            Kind::Attr => self
                .rows
                .iter()
                .flatten()
                .filter(|w| w[1] == attr)
                .cloned()
                .collect(),
        })
    }
}

fn draw(rng: &mut SmallRng, n: usize, attrs: &[String], class: usize) -> Query {
    let attr = rng.gen_range(0..attrs.len());
    let a = &attrs[attr];
    let mut span = |share: f64| {
        let width = ((share * n as f64).round() as usize).clamp(1, n);
        let lo = rng.gen_range(0..=n - width);
        (lo, lo + width)
    };
    let (lo, hi, sql) = match CLASSES[class].kind {
        Kind::Range(share) => {
            let (lo, hi) = span(share);
            let sql =
                format!("SELECT * FROM _qpv_violations WHERE provider >= {lo} AND provider < {hi}");
            (lo, hi, sql)
        }
        Kind::Violates(share) => {
            let (lo, hi) = span(share);
            let sql = format!(
                "SELECT provider_id FROM patients WHERE VIOLATES('patients', '{a}') \
                 AND provider_id >= {lo} AND provider_id < {hi}"
            );
            (lo, hi, sql)
        }
        Kind::Attr => (
            0,
            n,
            format!("SELECT * FROM _qpv_violations WHERE attr = '{a}'"),
        ),
    };
    Query {
        class,
        sql,
        lo,
        hi,
        attr,
    }
}

/// One op's queries: every class `per_op` times, in seeded order.
fn batch(rng: &mut SmallRng, n: usize, attrs: &[String]) -> Vec<Query> {
    let mut classes: Vec<usize> = CLASSES
        .iter()
        .enumerate()
        .flat_map(|(c, class)| std::iter::repeat_n(c, class.per_op))
        .collect();
    for i in (1..classes.len()).rev() {
        classes.swap(i, rng.gen_range(0..=i));
    }
    classes
        .into_iter()
        .map(|c| draw(rng, n, attrs, c))
        .collect()
}

fn query(store: &mut Store, q: &Query) -> DbResult<ResultSet> {
    if CLASSES[q.class].live {
        store.ppdb.query_live(&q.sql)
    } else {
        store.ppdb.query_violations(&q.sql)
    }
}

/// Load the store and warm both query paths: the live index and the
/// snapshot are built here, once.
fn warm_store(s: &Scenario) -> Store {
    let mut store = load_store("sql_analyst", s);
    store.ppdb.live_index().expect("build live index");
    store
        .ppdb
        .query_violations("SELECT COUNT(*) FROM _qpv_violations WHERE provider < 0")
        .expect("build snapshot");
    store
}

pub fn run(cfg: &RunConfig, tr: &mut Tracer) -> Outcome {
    let n = cfg.size(N, SMOKE_N);
    let scenario = Scenario::healthcare(n, cfg.seed);
    let oracle = Oracle::new(&scenario);
    let mut out = Outcome::default();
    let mut store = setup_repeated(&mut out, || warm_store(&scenario));
    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ MIX_SALT);

    // Each class once: the full answer, and the access path the planner
    // chose for it. A planner regression fails the run here.
    for (c, class) in CLASSES.iter().enumerate() {
        let q = draw(&mut rng, n, &oracle.attrs, c);
        let rs = query(&mut store, &q).expect("first query of a class");
        let got = sorted(rs.rows.into_iter().map(|r| r.values).collect::<Vec<_>>());
        assert!(
            got == oracle.rows(&q),
            "sql_analyst: first {} result differs from the reference audit ({} vs {} rows): {}",
            class.span,
            got.len(),
            oracle.count(&q),
            q.sql
        );
        let plan = store.ppdb.explain(&q.sql).expect("explain");
        for want in class.plan {
            assert!(
                plan.contains(want),
                "sql_analyst: {} planned without {want:?}:\n{plan}",
                class.span
            );
        }
    }
    for _ in 0..WARMUP {
        for q in batch(&mut rng, n, &oracle.attrs) {
            query(&mut store, &q).expect("warm-up query");
        }
    }

    let (live_builds, snapshot_builds) = (store.ppdb.live_builds(), store.ppdb.snapshot_builds());
    let mut rows_returned = 0usize;
    let deadline = cfg.deadline();
    loop {
        let queries = batch(&mut rng, n, &oracle.attrs);
        let (result, ms) = tr.op(|tr| {
            queries
                .iter()
                .map(|q| tr.span(CLASSES[q.class].span, || query(&mut store, q)))
                .collect::<DbResult<Vec<ResultSet>>>()
        });
        out.op_ms.push(ms);
        match result {
            Ok(answers) => {
                for (q, rs) in queries.iter().zip(&answers) {
                    assert_eq!(
                        rs.rows.len(),
                        oracle.count(q),
                        "sql_analyst: row count of {}",
                        q.sql
                    );
                    rows_returned += rs.rows.len();
                    if tr.enabled() {
                        tr.probe("reldb.sql.plan", || store.ppdb.explain(&q.sql))
                            .expect("explain");
                    }
                }
            }
            Err(e) => {
                eprintln!("sql_analyst: query failed: {e}");
                out.failed += 1;
            }
        }
        if Instant::now() >= deadline {
            break;
        }
    }

    // Rebuilds during read-only queries are wasted work, counted here.
    let ops = out.op_ms.len() as f64;
    out.layer = vec![
        ("reldb.sql.rows_returned", rows_returned as f64 / ops),
        (
            "core.liveindex.cold_builds",
            (store.ppdb.live_builds() - live_builds) as f64,
        ),
        (
            "core.ppdb.snapshot_builds",
            (store.ppdb.snapshot_builds() - snapshot_builds) as f64,
        ),
    ];
    out.meta("providers", n as f64);
    out.meta(
        "queries_per_op",
        CLASSES.iter().map(|c| c.per_op).sum::<usize>() as f64,
    );
    out.meta("warmup_ops", WARMUP as f64);
    out.meta(
        "store_bytes",
        crate::env::dir_bytes(store.dir.path()) as f64,
    );
    out
}
