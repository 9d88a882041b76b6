//! The workloads. Each builds its state through the public APIs, checks
//! the program's answers against an oracle outside the timed region, and
//! runs one closed loop — one client, the next op issued when the last
//! returns — for the configured number of seconds.

mod audit_cold;
mod churn_monitor;
mod policy_whatif;
mod recovery;
mod sql_analyst;

use std::time::{Duration, Instant};

use qpv_core::{AuditReport, Ppdb, PpdbConfig, ProviderAudit};
use qpv_reldb::exec::ResultSet;
use qpv_reldb::{Row, Value};
use qpv_synth::{PopulationSpec, Scenario};
use rand::rngs::SmallRng;
use rand::Rng;

use crate::env::ScratchDir;
use crate::trace::Tracer;

/// Each run builds its state at least [`MIN_SETUPS`] times, and cheap
/// set-ups repeat until [`SETUP_BUDGET`] has passed (at most
/// [`MAX_SETUPS`] times); `setup_s` is the median.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 50;
const SETUP_BUDGET: Duration = Duration::from_secs(2);

/// The data table and its provider column in every store.
const DATA_TABLE: &str = "patients";
const PROVIDER_COLUMN: &str = "provider_id";

pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
}

impl RunConfig {
    /// `full` normally, `smoke` under `--smoke`.
    fn size(&self, full: usize, smoke: usize) -> usize {
        if self.smoke {
            smoke
        } else {
            full
        }
    }

    /// When the measured window closes, counted from now.
    fn deadline(&self) -> Instant {
        Instant::now() + Duration::from_secs_f64(self.seconds)
    }
}

/// What one run measured.
#[derive(Default)]
pub struct Outcome {
    /// Seconds each set-up took.
    pub setup_s: Vec<f64>,
    /// Latency of each timed op, failed ones included.
    pub op_ms: Vec<f64>,
    /// Timed ops that returned a typed error.
    pub failed: u64,
    /// Per-layer values a workload derives itself (traced runs).
    pub layer: Vec<(&'static str, f64)>,
    /// Sizes and counts that describe the run.
    pub meta: Vec<(String, serde_json::Value)>,
}

impl Outcome {
    fn meta(&mut self, key: &str, value: f64) {
        let v = if value.fract() == 0.0 && value.abs() < 9e15 {
            serde_json::Value::Int(value as i128)
        } else {
            serde_json::Value::Float(value)
        };
        self.meta.push((key.to_string(), v));
    }
}

/// Run workload `name`, one of those `BENCHMARK.json` lists. Panics when
/// an oracle disagrees with the program.
pub fn run(name: &str, cfg: &RunConfig, tr: &mut Tracer) -> Outcome {
    match name {
        "audit_cold" => audit_cold::run(cfg, tr),
        "policy_whatif" => policy_whatif::run(cfg, tr),
        "churn_monitor" => churn_monitor::run(cfg, tr),
        "recovery" => recovery::run(cfg, tr),
        "sql_analyst" => sql_analyst::run(cfg, tr),
        other => panic!("BENCHMARK.json lists {other:?}, which this binary does not run"),
    }
}

/// Build with `build` repeatedly, timing each; keep the last. The
/// previous state is dropped before the next build starts.
fn setup_repeated<T>(out: &mut Outcome, mut build: impl FnMut() -> T) -> T {
    let first = Instant::now();
    let mut kept = None;
    while out.setup_s.len() < MIN_SETUPS
        || (first.elapsed() < SETUP_BUDGET && out.setup_s.len() < MAX_SETUPS)
    {
        drop(kept.take());
        let start = Instant::now();
        kept = Some(build());
        out.setup_s.push(start.elapsed().as_secs_f64());
    }
    kept.expect("MIN_SETUPS > 0")
}

/// A durable PPDB and the directory it lives in (dropped in that order).
struct Store {
    ppdb: Ppdb,
    dir: ScratchDir,
}

fn ppdb_config() -> PpdbConfig {
    PpdbConfig::new(DATA_TABLE, PROVIDER_COLUMN)
}

/// Create a durable PPDB under `dir` and load the scenario's policy,
/// attribute weights and providers through the public write API: one
/// committed, fsynced transaction per provider.
fn load_ppdb(dir: &std::path::Path, s: &Scenario) -> Ppdb {
    let db = qpv_reldb::Database::open(dir).expect("open store");
    let mut ppdb = Ppdb::create(db, ppdb_config(), s.data_schema()).expect("create PPDB");
    ppdb.set_policy(&s.baseline_policy).expect("store policy");
    for attr in &s.spec.attributes {
        ppdb.set_attribute_weight(&attr.name, attr.weight)
            .expect("store weight");
    }
    for (profile, row) in s.population.profiles.iter().zip(&s.population.data_rows) {
        ppdb.register_provider(profile, row.clone())
            .expect("register provider");
    }
    ppdb
}

fn load_store(tag: &str, s: &Scenario) -> Store {
    let dir = ScratchDir::new(tag);
    let ppdb = load_ppdb(dir.path(), s);
    Store { ppdb, dir }
}

/// Panic, naming the first provider that differs, unless the program's
/// report equals the oracle's.
fn check_report(what: &str, report: &AuditReport, reference: &AuditReport) {
    if report == reference {
        return;
    }
    let first = report
        .providers
        .iter()
        .zip(&reference.providers)
        .find(|(a, b)| a != b);
    panic!(
        "{what}: reports differ ({} vs {} providers, totals {} vs {}); first difference:\n{first:#?}",
        report.population(),
        reference.population(),
        report.total_violations,
        reference.total_violations
    );
}

/// One `_qpv_violations` row: provider, attribute, purpose, severity.
type Witness = (i64, String, String, i64);

/// The `_qpv_violations` rows the oracle's audit implies for a provider.
fn audit_rows(a: &ProviderAudit) -> Vec<Witness> {
    if !a.violated {
        return Vec::new();
    }
    let severity = i64::try_from(a.score).expect("severity fits a SQL INT");
    a.witnesses
        .iter()
        .map(|w| {
            (
                a.provider.0 as i64,
                w.attribute.as_str().to_string(),
                w.purpose.name().to_string(),
                severity,
            )
        })
        .collect()
}

/// The rows of a `SELECT * FROM _qpv_violations ...` result.
fn result_rows(rs: &ResultSet) -> Vec<Witness> {
    rs.rows
        .iter()
        .map(|r| {
            let int = |i: usize| r.values[i].as_int().expect("INT column");
            let text = |i: usize| r.values[i].as_text().expect("TEXT column").to_string();
            (int(0), text(1), text(2), int(3))
        })
        .collect()
}

fn sorted<T: Ord>(mut v: Vec<T>) -> Vec<T> {
    v.sort();
    v
}

/// A data row for a provider joining mid-run: the id, then one value per
/// attribute drawn from its range.
fn data_row(spec: &PopulationSpec, id: u64, rng: &mut SmallRng) -> Row {
    let mut values = vec![Value::Int(id as i64)];
    for attr in &spec.attributes {
        values.push(Value::Int(
            rng.gen_range(attr.value_range.0..=attr.value_range.1),
        ));
    }
    Row::new(values)
}
