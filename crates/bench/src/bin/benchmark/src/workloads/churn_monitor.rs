//! `churn_monitor`: the write-to-queryable path of §10's continuously
//! monitored registry. One op is a batch of `qpv_synth::churn` ops
//! applied through the `Ppdb` write API, the batch's deltas made durable
//! by a `Monitor` (one group commit per batch), and a `query_live` point
//! query that must see the last provider written. The store fits in the
//! buffer pool; every commit and every delta batch is fsynced.

use std::collections::HashSet;
use std::time::Instant;

use qpv_core::{
    AuditEngine, DeltaOp, LiveViolationIndex, Monitor, MonitorConfig, PopulationDelta, Ppdb,
    ProviderProfile,
};
use qpv_policy::ProviderId;
use qpv_reldb::audit_bridge::{AuditBridge, ViolationRow};
use qpv_reldb::exec::ResultSet;
use qpv_reldb::{DbResult, Row};
use qpv_synth::{PopulationSpec, Scenario};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use super::{
    audit_rows, check_report, data_row, load_ppdb, result_rows, setup_repeated, sorted, Outcome,
    RunConfig, Witness,
};
use crate::env::{bytes_written, dir_bytes, wal_bytes, ScratchDir};
use crate::trace::Tracer;

pub(super) const N: usize = 5_000;
pub(super) const SMOKE_N: usize = 500;
/// Churn ops per op: one group commit's worth of writes.
pub(super) const BATCH: usize = 4;
const WARMUP_BATCHES: usize = 3;
/// Salt for the data rows of providers that join mid-run.
const ROW_SALT: u64 = 0xDA7A_0FC4_A2B3_C5D7;

/// A durable PPDB, the monitor following it, and their directory
/// (dropped in that order).
pub(super) struct Pipeline {
    pub ppdb: Ppdb,
    pub monitor: Monitor,
    pub dir: ScratchDir,
}

/// Every commit fsyncs (reldb), and every delta batch is one fsynced
/// group commit (delta log): the same flush policy on both sides of any
/// comparison.
pub(super) fn monitor_config() -> MonitorConfig {
    MonitorConfig {
        group_commit: 1,
        snapshot_every: 1024,
        ..MonitorConfig::default()
    }
}

/// Load the scenario into a durable PPDB under `<dir>/db`, start a monitor
/// on the same population under `<dir>/monitor`, and build the live index.
pub(super) fn start(tag: &str, s: &Scenario) -> Pipeline {
    let dir = ScratchDir::new(tag);
    let mut ppdb = load_ppdb(&dir.path().join("db"), s);
    let monitor = Monitor::start(
        dir.path().join("monitor"),
        s.population.profiles.clone(),
        s.spec.attribute_names(),
        &s.spec.attribute_weights(),
        s.baseline_policy.clone(),
        monitor_config(),
    )
    .expect("start monitor");
    ppdb.live_index().expect("build live index");
    // The monitor starts from the loaded population, so the load's own
    // deltas are already reflected there.
    let loaded = ppdb.delta_queue().next_seq();
    ppdb.ack_delta_through(loaded);
    Pipeline { ppdb, monitor, dir }
}

/// The seeded churn stream, regenerated at twice the length whenever a
/// run outgrows it (the stream is prefix-stable, so nothing changes).
pub(super) struct Churn {
    spec: PopulationSpec,
    n: usize,
    seed: u64,
    ops: PopulationDelta,
    next: usize,
    rows: SmallRng,
    /// Ids alive after every op handed out so far.
    pub alive: HashSet<u64>,
}

impl Churn {
    pub fn new(s: &Scenario, seed: u64) -> Churn {
        let n = s.population.len();
        Churn {
            spec: s.spec.clone(),
            n,
            seed,
            ops: PopulationDelta::new(),
            next: 0,
            rows: SmallRng::seed_from_u64(seed ^ ROW_SALT),
            alive: (0..n as u64).collect(),
        }
    }

    /// The next `k` writes. Whether a provider already exists is decided
    /// here, op by op: a batch may insert a provider and then re-state it.
    pub fn next_batch(&mut self, k: usize) -> Vec<Write> {
        if self.next + k > self.ops.len() {
            let len = (2 * self.ops.len()).max(self.next + k).max(1024);
            self.ops = qpv_synth::churn(&self.spec, self.n, len, self.seed);
        }
        let ops = self.ops.ops()[self.next..self.next + k].to_vec();
        self.next += k;
        ops.into_iter()
            .map(|op| {
                let id = target(&op).0;
                let known = self.alive.contains(&id);
                let row = match &op {
                    DeltaOp::Upsert(_) => {
                        self.alive.insert(id);
                        Some(data_row(&self.spec, id, &mut self.rows))
                    }
                    DeltaOp::Remove(_) => {
                        self.alive.remove(&id);
                        None
                    }
                    _ => None,
                };
                Write { op, row, known }
            })
            .collect()
    }
}

/// One churn op as the PPDB receives it.
pub(super) struct Write {
    op: DeltaOp,
    /// The data row an upsert stores.
    row: Option<Row>,
    /// Whether the provider exists when this op runs.
    known: bool,
}

/// What one batch did besides its answer.
#[derive(Default)]
pub(super) struct BatchStats {
    /// Delta ops pending when the monitor peeked.
    pub backlog: usize,
    /// `set_*` calls, each of which scans every provider id.
    pub set_calls: usize,
    /// Bytes the PPDB writes appended to the store's write-ahead log
    /// (traced runs only).
    pub wal_bytes: u64,
    /// Bytes the monitor's ingest wrote (traced runs only).
    pub log_bytes: u64,
}

pub(super) fn point_query(id: ProviderId) -> String {
    format!("SELECT * FROM _qpv_violations WHERE provider = {}", id.0)
}

fn write(p: &mut Ppdb, tr: &mut Tracer, w: &Write) -> DbResult<()> {
    match &w.op {
        DeltaOp::Upsert(profile) => {
            let row = w.row.clone().expect("upserts carry a data row");
            if w.known {
                // A provider re-stating their posture: remove, then insert.
                tr.span("core.ppdb.write.upsert", || {
                    p.remove_provider(profile.id())?;
                    p.insert_provider(profile, row)
                })
            } else {
                tr.span("core.ppdb.write.insert", || p.insert_provider(profile, row))
            }
        }
        DeltaOp::Remove(id) => tr.span("core.ppdb.write.remove", || p.remove_provider(*id)),
        DeltaOp::SetAttributePrefs {
            id,
            attribute,
            tuples,
        } => tr.span("core.ppdb.write.prefs", || {
            p.set_preferences(*id, attribute, tuples.clone())
        }),
        DeltaOp::SetSensitivity {
            id,
            attribute,
            sensitivity,
        } => tr.span("core.ppdb.write.sens", || {
            p.set_sensitivity(*id, attribute, *sensitivity)
        }),
        DeltaOp::SetThreshold { id, threshold } => tr.span("core.ppdb.write.threshold", || {
            p.set_threshold(*id, *threshold)
        }),
    }
}

fn target(op: &DeltaOp) -> ProviderId {
    match op {
        DeltaOp::Upsert(p) => p.id(),
        DeltaOp::Remove(id)
        | DeltaOp::SetAttributePrefs { id, .. }
        | DeltaOp::SetSensitivity { id, .. }
        | DeltaOp::SetThreshold { id, .. } => *id,
    }
}

/// One op: write the batch, make its deltas durable in the monitor, ack
/// them, refresh the live index, and query the last provider written.
pub(super) fn run_batch(
    pipe: &mut Pipeline,
    tr: &mut Tracer,
    batch: &[Write],
) -> DbResult<(ProviderId, ResultSet, BatchStats)> {
    let mut stats = BatchStats::default();
    let counting = tr.enabled();
    let wrote = |on: bool| if on { bytes_written() } else { 0 };
    let db = pipe.dir.path().join("db");
    let wal = |on: bool| if on { wal_bytes(&db) } else { 0 };
    let last = target(&batch.last().expect("non-empty batch").op);
    let wal_start = wal(counting);
    for w in batch {
        stats.set_calls += matches!(
            w.op,
            DeltaOp::SetAttributePrefs { .. }
                | DeltaOp::SetSensitivity { .. }
                | DeltaOp::SetThreshold { .. }
        ) as usize;
        write(&mut pipe.ppdb, tr, w)?;
    }
    // The store never checkpoints here, so its log only grows.
    stats.wal_bytes = wal(counting)
        .checked_sub(wal_start)
        .expect("the write-ahead log shrank during a batch");
    let written = wrote(counting);
    let (first, delta) = tr.span("core.ppdb.peek_delta", || pipe.ppdb.peek_delta_seq());
    stats.backlog = delta.len();
    tr.span("core.deltalog.ingest", || pipe.monitor.ingest(delta))?;
    stats.log_bytes = wrote(counting) - written;
    // The live index follows the queue without acking; it must replay
    // the batch before the ack drains it, or it can only rebuild.
    tr.span("core.liveindex.refresh", || {
        pipe.ppdb.live_index().map(|_| ())
    })?;
    tr.span("core.ppdb.ack_delta", || {
        pipe.ppdb.ack_delta_through(first + stats.backlog as u64)
    });
    let rs = tr.span("core.liveindex.point_query", || {
        pipe.ppdb.query_live(&point_query(last))
    })?;
    Ok((last, rs, stats))
}

/// Mirror `batch` onto the oracle's profiles.
pub(super) fn mirror(profiles: &mut Vec<ProviderProfile>, batch: &[Write]) {
    let mut delta = PopulationDelta::new();
    for w in batch {
        delta.push(w.op.clone());
    }
    delta.apply_to_profiles(profiles);
}

/// The rows a point query for `id` must return, by the reference audit.
pub(super) fn expected_point(
    engine: &AuditEngine,
    profiles: &[ProviderProfile],
    id: ProviderId,
) -> Vec<Witness> {
    profiles
        .iter()
        .find(|p| p.id() == id)
        .map(|p| {
            let r = engine.run_reference(std::slice::from_ref(p));
            sorted(audit_rows(&r.providers[0]))
        })
        .unwrap_or_default()
}

fn bridge_rows(rows: Vec<ViolationRow>) -> Vec<Witness> {
    sorted(
        rows.into_iter()
            .map(|r| (r.provider, r.attribute, r.purpose, r.severity))
            .collect(),
    )
}

/// End-of-run oracles over the whole pipeline.
fn check_final(pipe: &mut Pipeline, engine: &AuditEngine, profiles: &[ProviderProfile]) {
    let ppdb = &mut pipe.ppdb;
    let mut report = ppdb.audit().expect("final audit");
    let mut reference = engine.run_reference(profiles);
    report.providers.sort_by_key(|a| a.provider.0);
    reference.providers.sort_by_key(|a| a.provider.0);
    check_report(
        "churn_monitor: Ppdb::audit after churn vs run_reference on the mirrored profiles",
        &report,
        &reference,
    );
    let live = bridge_rows(
        ppdb.live_index()
            .expect("live index")
            .violations_all(None)
            .expect("live rows"),
    );
    let fresh = LiveViolationIndex::new(
        ppdb.audit_engine().expect("engine"),
        ppdb.compiled_population().expect("population"),
    );
    assert!(
        live == bridge_rows(fresh.violations_all(None).expect("fresh rows")),
        "churn_monitor: maintained live index differs from a fresh build"
    );
    assert_eq!(
        (pipe.monitor.p_violation(), pipe.monitor.p_default()),
        (report.p_violation(), report.p_default()),
        "churn_monitor: monitor disagrees with the audit"
    );
}

pub fn run(cfg: &RunConfig, tr: &mut Tracer) -> Outcome {
    let n = cfg.size(N, SMOKE_N);
    let scenario = Scenario::healthcare(n, cfg.seed);
    let mut out = Outcome::default();
    let mut pipe = setup_repeated(&mut out, || start("churn_monitor", &scenario));
    let db_bytes = dir_bytes(&pipe.dir.path().join("db"));
    let mut profiles = scenario.population.profiles.clone();
    let mut churn = Churn::new(&scenario, cfg.seed);
    let engine = scenario.engine();

    let mut quiet = Tracer::new(false);
    let mut batches = 0usize;
    let mut step = |pipe: &mut Pipeline, tr: &mut Tracer, out: &mut Outcome, timed: bool| {
        let batch = churn.next_batch(BATCH);
        let (result, ms) = tr.op(|tr| run_batch(pipe, tr, &batch));
        batches += 1;
        if timed {
            out.op_ms.push(ms);
        }
        match result {
            Ok((id, rs, stats)) => {
                mirror(&mut profiles, &batch);
                assert_eq!(
                    sorted(result_rows(&rs)),
                    expected_point(&engine, &profiles, id),
                    "churn_monitor: live query for provider {} after batch {batches}",
                    id.0
                );
                if tr.enabled() {
                    for _ in 0..stats.set_calls {
                        tr.probe("core.ppdb.provider_ids", || pipe.ppdb.provider_ids())
                            .expect("probe provider ids");
                    }
                }
                Some(stats)
            }
            Err(e) => {
                eprintln!("churn_monitor: batch {batches} failed: {e}");
                out.failed += 1;
                None
            }
        }
    };
    for _ in 0..WARMUP_BATCHES {
        step(&mut pipe, &mut quiet, &mut out, false).expect("warm-up batch");
    }
    let builds = pipe.ppdb.live_builds();
    let (mut backlog, mut wal, mut log) = (0u64, 0u64, 0u64);
    let deadline = cfg.deadline();
    // A failed batch ends the loop: past it, the store no longer matches
    // the oracle's mirror.
    while let Some(stats) = step(&mut pipe, tr, &mut out, true) {
        backlog += stats.backlog as u64;
        wal += stats.wal_bytes;
        log += stats.log_bytes;
        if Instant::now() >= deadline {
            break;
        }
    }
    let cold_builds = pipe.ppdb.live_builds() - builds;
    assert_eq!(
        cold_builds, 0,
        "churn_monitor: the live index was rebuilt during the loop"
    );
    if out.failed == 0 {
        check_final(&mut pipe, &engine, &profiles);
    }

    let ops = out.op_ms.len() as f64;
    out.layer = vec![
        ("core.ppdb.delta_backlog", backlog as f64 / ops),
        ("core.liveindex.cold_builds", cold_builds as f64),
        ("reldb.wal.bytes_per_op", wal as f64 / ops),
        ("core.deltalog.bytes_per_op", log as f64 / ops),
    ];
    out.meta("providers", n as f64);
    out.meta("churn_ops_per_op", BATCH as f64);
    out.meta("warmup_ops", WARMUP_BATCHES as f64);
    out.meta("store_bytes", db_bytes as f64);
    out.meta(
        "store_bytes_end",
        dir_bytes(&pipe.dir.path().join("db")) as f64,
    );
    out.meta(
        "monitor_bytes_end",
        dir_bytes(&pipe.dir.path().join("monitor")) as f64,
    );
    out
}
