//! P15: the live violation index vs PR 9's selective snapshot path.
//!
//! The [`qpv_core::LiveViolationIndex`] keeps the violation set as
//! standing state: build once, absorb each [`PopulationDelta`] in
//! O(changed), answer queries from maintained postings in
//! O(log n + answer) — no snapshot compile on the query path, ever.
//! This bench prices all three legs on the 1-CPU host:
//!
//! * `live_index/cold_build_ns` — one full scoring pass over N
//!   providers (paid once, then amortised forever);
//! * `live_index/maintain_k{1,100,10000}_ns` — applying a k-op churn
//!   delta (all five `DeltaOp` kinds, `qpv_synth::churn`) to the live
//!   index, vs `live_index/rebuild_ns` (a from-scratch cold build of
//!   the same population) — the O(changed)-vs-O(N) claim, acceptance
//!   bar: k=100 maintenance ≥ 20× cheaper than a rebuild;
//! * query latency through the full SQL stack: `Ppdb::query_live` at 1%
//!   selectivity vs the pre-PR-10 compile-and-sweep shape (fresh
//!   `SelectiveAuditor` per query), acceptance bar ≥ 50× with
//!   `Ppdb::live_builds() == 1` across every timed query (zero snapshot
//!   rebuilds on the query path); and the 10%-selectivity planner
//!   fallback — `query_violations` must price the wide range at sweep
//!   cost (explain shows `strategy=sweep`) and run no slower than ~the
//!   unbounded sweep, retiring the old `population/2` 2.1× regression.
//!
//! Correctness: every timed path is asserted byte-identical (or
//! set-identical where SQL promises no order) to the selective
//! auditor's sweep before timing — a wrong access path fails the
//! bench rather than mistiming it.
//!
//! Emit JSON with: `QPV_BENCH_JSON=BENCH_live_index.json \
//!     cargo bench -p qpv-bench --bench live_index`

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use qpv_core::sensitivity::DatumSensitivity;
use qpv_core::{CompiledPopulation, LiveViolationIndex, Ppdb, PpdbConfig, ProviderProfile};
use qpv_policy::{HousePolicy, ProviderId};
use qpv_reldb::exec::ResultSet;
use qpv_reldb::schema::SchemaBuilder;
use qpv_reldb::{DataType, Database, Row, Value};
use qpv_synth::population::AttributeSpec;
use qpv_synth::workload::{churn_batches, selectivity_ranges};
use qpv_synth::{generate_stable, PopulationSpec, SegmentMix};
use qpv_taxonomy::{PrivacyPoint, PrivacyTuple};
use std::hint::black_box;

const N: usize = 100_000;
const SEED: u64 = 42;
const SPEEDUP_ITERS: usize = 9;

fn smoke() -> bool {
    std::env::var("QPV_BENCH_SMOKE").is_ok_and(|v| v == "1")
}

fn pt(v: u32, g: u32, r: u32) -> PrivacyPoint {
    PrivacyPoint::from_raw(v, g, r)
}

/// Same fixture as `selective_audit.rs`: every third provider states a
/// strict `weight` preference and violates the house policy.
fn seeded_ppdb(n: usize) -> Ppdb {
    let schema = SchemaBuilder::new()
        .column("provider_id", DataType::Int)
        .nullable_column("weight", DataType::Int)
        .build()
        .expect("schema");
    let mut ppdb = Ppdb::create(
        Database::in_memory(),
        PpdbConfig::new("people", "provider_id"),
        schema,
    )
    .expect("create ppdb");
    let policy = HousePolicy::builder("house")
        .tuple("weight", PrivacyTuple::from_point("pr", pt(7, 4, 7)))
        .build();
    ppdb.set_policy(&policy).expect("set policy");
    ppdb.set_attribute_weight("weight", 3).expect("set weight");
    for id in 0..n as u64 {
        let mut p = ProviderProfile::new(ProviderId(id), 0);
        let pref = if id % 3 == 0 {
            pt(1, 1, 1)
        } else {
            pt(7, 4, 7)
        };
        p.preferences
            .add("weight", PrivacyTuple::from_point("pr", pref));
        p.sensitivities
            .insert("weight".into(), DatumSensitivity::new(3, 1, 5, 2));
        let row = Row::from_values([Value::Int(id as i64), Value::Int(70)]);
        ppdb.register_provider(&p, row).expect("register provider");
    }
    ppdb
}

/// Churn workload spec for the maintenance leg.
fn churn_spec() -> PopulationSpec {
    PopulationSpec {
        attributes: vec![
            AttributeSpec::new("weight", 4, pt(2, 2, 90), (40, 180)),
            AttributeSpec::new("age", 2, pt(2, 3, 365), (18, 95)),
        ],
        purposes: vec!["service".into(), "research".into()],
        mix: SegmentMix::WESTIN_2001,
    }
}

fn tuples(rs: &ResultSet) -> Vec<(i64, String, String, i64)> {
    rs.rows
        .iter()
        .map(|r| {
            (
                r.values[0].as_int().unwrap(),
                r.values[1].as_text().unwrap().to_string(),
                r.values[2].as_text().unwrap().to_string(),
                r.values[3].as_int().unwrap(),
            )
        })
        .collect()
}

/// Median wall time of `f` over [`SPEEDUP_ITERS`] runs, in ns.
fn median_ns(mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<u128> = (0..SPEEDUP_ITERS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos()
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2] as f64
}

fn bench_live_index(c: &mut Criterion) {
    let n = qpv_bench::bench_n(N);

    // ==== Maintenance: O(changed) per delta vs O(N) rebuild ==============
    let spec = churn_spec();
    let engine = qpv_core::AuditEngine::new(
        spec.baseline_policy("house"),
        spec.attribute_names(),
        spec.attribute_weights(),
    );
    let profiles = generate_stable(&spec, n, SEED).profiles;
    let pop = CompiledPopulation::from_profiles(&profiles);

    let start = Instant::now();
    let mut index = LiveViolationIndex::new(engine.clone(), pop);
    let cold_build_ns = start.elapsed().as_nanos() as f64;
    c.record_metric("live_index/providers", n as f64, "providers");
    c.record_metric("live_index/cold_build_ns", cold_build_ns, "ns");
    assert!(index.outcome().violated > 0, "fixture must violate");

    // A prefix-stable churn stream chopped so each timed iteration gets a
    // fresh k-op delta (state evolves — that is the workload).
    let mut maint_ns = Vec::new();
    for &k in &[1usize, 100, 10_000] {
        let k_eff = k.min(n); // smoke shrinks the population
        let deltas = churn_batches(&spec, n, k_eff * SPEEDUP_ITERS, k_eff, SEED + k as u64);
        let mut iter = deltas.iter();
        let t = median_ns(|| {
            let d = iter.next().expect("enough churn batches");
            index.apply_delta(d).expect("maintain");
        });
        c.record_metric(format!("live_index/maintain_k{k}_ns"), t, "ns");
        maint_ns.push((k, t));
    }

    // Rebuild price of the *churned* population, and the oracle check:
    // the maintained index is byte-identical to a from-scratch build.
    let churned = index.compiled_population().clone();
    let rebuilt = LiveViolationIndex::new(engine.clone(), churned.clone());
    use qpv_reldb::audit_bridge::AuditBridge;
    assert_eq!(
        index.violations_all(None).expect("maintained"),
        rebuilt.violations_all(None).expect("rebuilt"),
        "maintained index diverged from a cold rebuild"
    );
    let t_rebuild = median_ns(|| {
        black_box(LiveViolationIndex::new(engine.clone(), churned.clone()));
    });
    c.record_metric("live_index/rebuild_ns", t_rebuild, "ns");
    let (_, t_k100) = maint_ns[1];
    let maint_vs_rebuild = t_rebuild / t_k100.max(1.0);
    c.record_metric(
        "live_index/k100_maintain_vs_rebuild_x",
        maint_vs_rebuild,
        "x",
    );

    // ==== Query latency through the SQL stack ============================
    let mut ppdb = seeded_ppdb(n);
    let ranges = selectivity_ranges(n, &[0.01, 0.1, 1.0], SEED);
    let sql_for = |lo: u64, hi: u64| {
        format!("SELECT * FROM _qpv_violations WHERE provider >= {lo} AND provider < {hi}")
    };

    // Oracle: the full sweep through a fresh snapshot auditor.
    let auditor = ppdb.selective_auditor().expect("snapshot");
    let all = ppdb
        .db_mut()
        .query_with("SELECT * FROM _qpv_violations", &auditor)
        .expect("sweep");
    let all_tuples = tuples(&all);
    assert_eq!(all_tuples.len(), n.div_ceil(3), "every third violates");

    // Correctness + plan shape before timing anything.
    let (lbl_1pct, r_1pct) = ranges[0].clone();
    assert_eq!(lbl_1pct, "sel_10pm");
    let sql_1pct = sql_for(r_1pct.start, r_1pct.end);
    let want_1pct: Vec<_> = all_tuples
        .iter()
        .filter(|r| (r_1pct.start as i64..r_1pct.end as i64).contains(&r.0))
        .cloned()
        .collect();
    let live_rows = ppdb.query_live(&sql_1pct).expect("live query");
    assert_eq!(tuples(&live_rows), want_1pct, "live path diverges");
    let plan = ppdb.explain(&sql_1pct).expect("explain");
    assert!(plan.contains("LiveIndexScan"), "{plan}");

    // 1%-selectivity latency: live index vs compile-and-sweep.
    let builds_before = ppdb.live_builds();
    let want_len = want_1pct.len();
    let t_live = median_ns(|| {
        let rs = ppdb.query_live(&sql_1pct).expect("live query");
        assert_eq!(rs.rows.len(), want_len);
        black_box(rs);
    });
    assert_eq!(
        ppdb.live_builds(),
        builds_before,
        "a timed query rebuilt the snapshot — the live path must not"
    );
    let t_compile_sweep = median_ns(|| {
        let fresh = ppdb.selective_auditor().expect("snapshot");
        black_box(
            ppdb.db_mut()
                .query_with("SELECT * FROM _qpv_violations", &fresh)
                .expect("compile and sweep"),
        );
    });
    let vs_compile_sweep = t_compile_sweep / t_live.max(1.0);
    c.record_metric("live_index/sel_10pm_live_ns", t_live, "ns");
    c.record_metric("live_index/compile_and_sweep_ns", t_compile_sweep, "ns");
    c.record_metric(
        "live_index/speedup_vs_compile_and_sweep_x",
        vs_compile_sweep,
        "x",
    );

    // Planner crossover (the retired `population/2` regression). Without
    // live stats the binder now prices ranges against the snapshot
    // statistics' ~40% crossover:
    //   * the 100% range (`sel_1000pm`, the old 2.1×-slower case) must
    //     price as a *sweep* — no candidate walk over the whole index;
    //   * the 10% range (`sel_100pm`) stays on candidates and must run
    //     no slower than the full sweep (acceptance bar).
    let t_sweep = median_ns(|| {
        let rs = ppdb
            .query_violations("SELECT * FROM _qpv_violations")
            .expect("sweep");
        assert_eq!(rs.rows.len(), all_tuples.len());
        black_box(rs);
    });
    c.record_metric("live_index/full_sweep_ns", t_sweep, "ns");
    let mut timed = Vec::new();
    for (idx, expect_strategy) in [(1, "strategy=candidates"), (2, "strategy=sweep")] {
        let (label, range) = ranges[idx].clone();
        let sql = sql_for(range.start, range.end);
        let want: Vec<_> = all_tuples
            .iter()
            .filter(|r| (range.start as i64..range.end as i64).contains(&r.0))
            .cloned()
            .collect();
        let snap_rows = ppdb.query_violations(&sql).expect("snapshot query");
        assert_eq!(tuples(&snap_rows), want, "{label}: snapshot path diverges");
        let plan = ppdb.explain(&sql).expect("explain");
        assert!(
            plan.contains(expect_strategy),
            "{label} must price as {expect_strategy}: {plan}"
        );
        let want_len = want.len();
        let t = median_ns(|| {
            let rs = ppdb.query_violations(&sql).expect("snapshot query");
            assert_eq!(rs.rows.len(), want_len);
            black_box(rs);
        });
        c.record_metric(format!("live_index/{label}_snapshot_ns"), t, "ns");
        c.record_metric(
            format!("live_index/{label}_vs_sweep_x"),
            t / t_sweep.max(1.0),
            "x",
        );
        timed.push((label, t));
    }
    let sel_100pm_vs_sweep = timed[0].1 / t_sweep.max(1.0);
    let sel_1000pm_vs_sweep = timed[1].1 / t_sweep.max(1.0);

    if !smoke() {
        assert!(
            vs_compile_sweep >= 50.0,
            "1% live query only {vs_compile_sweep:.1}x over compile-and-sweep"
        );
        assert!(
            maint_vs_rebuild >= 20.0,
            "k=100 maintenance only {maint_vs_rebuild:.1}x cheaper than rebuild"
        );
        assert!(
            sel_100pm_vs_sweep <= 1.0,
            "10% query {sel_100pm_vs_sweep:.2}x the sweep — must be no slower"
        );
        // The bounded-but-full range plans straight to the sweep; the
        // remaining gap over the bare sweep is the residual filter
        // re-checking the pushed-down predicate on every emitted row
        // (~1.35x measured), nowhere near the old capped-walk-then-sweep
        // regression (~2.1x).
        assert!(
            sel_1000pm_vs_sweep <= 1.5,
            "100% query {sel_1000pm_vs_sweep:.2}x the sweep — the planner regression is back"
        );
    }
}

criterion_group!(benches, bench_live_index);
criterion_main!(benches);
