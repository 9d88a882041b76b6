//! Crash-torture suite for the delta log: crash at *every* delta-log I/O
//! op index and prove recovery, mirroring `qpv-reldb`'s `torture.rs`
//! methodology.
//!
//! 1. Build the model: `model[d]` = the profile population after `d`
//!    deltas, computed through [`PopulationDelta::apply_to_profiles`]
//!    (the pinned delta oracle).
//! 2. Dry-run the scripted workload — create, appends, group commits of
//!    varying batch sizes, two snapshot rotations — under a
//!    never-faulting injector to count the total delta-log I/O ops `N`.
//! 3. For every op index `i < N`, run the workload in a fresh directory
//!    under a plan that crash-stops (even `i`) or tears (odd `i`, seeded
//!    by `i`) at op `i`, then recover and assert:
//!
//!    * **committed-prefix durability** — auditing the recovered
//!      population is byte-identical (serialized JSON) to a fresh
//!      compile + audit of `model[d]` for some `d` between the deltas
//!      acknowledged durable (synced `Ok`) and the deltas appended when
//!      the crash hit: a torn group commit may persist any frame prefix
//!      of the batch, but never a partial frame and never reordered
//!      frames;
//!    * **idempotent recovery** — a second recover observes the identical
//!      population and generation, because recovery writes nothing;
//!    * **no panics** — torn tails and lost batches surface as shorter
//!      prefixes or `Err`, never a panic.
//!
//!    A crash inside the initial [`DeltaLog::create`] (before `CURRENT`
//!    is first published) must leave the directory recoverable by
//!    re-running `create` — and [`DeltaLog::recover`] must refuse it
//!    with an error, not invent an empty population.
//!
//! 4. Flip any single bit or byte of a recorded delta log (the properties
//!    mirror `qpv-reldb`'s `wal_corruption.rs`): recovery must land on
//!    exactly the deltas whose frames end before the flip, or refuse with
//!    `DbError::Corruption`, and never panic or apply a frame past it.

use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use proptest::prelude::*;
use qpv_core::deltalog::{log_path, snapshot_path, DeltaLog};
use qpv_core::sensitivity::{AttributeSensitivities, DatumSensitivity};
use qpv_core::{AuditEngine, CompiledPopulation, PopulationDelta, ProviderProfile};
use qpv_policy::{HousePolicy, ProviderId};
use qpv_reldb::disk::current_path;
use qpv_reldb::fault::{FaultInjector, FaultKind, FaultPlan};
use qpv_reldb::DbError;
use qpv_taxonomy::{PrivacyPoint, PrivacyTuple};

fn pt(v: u32, g: u32, r: u32) -> PrivacyPoint {
    PrivacyPoint::from_raw(v, g, r)
}

fn profile_for(id: u64, x: u64) -> ProviderProfile {
    let mut p = ProviderProfile::new(ProviderId(id), 10 + (x % 90));
    p.preferences.add(
        "weight",
        PrivacyTuple::from_point("pr", pt(1 + (x % 5) as u32, 2, 20 + (x % 30) as u32)),
    );
    if !x.is_multiple_of(3) {
        p.preferences.add(
            "age",
            PrivacyTuple::from_point("research", pt(2 + (x % 3) as u32, 1, 45)),
        );
    }
    p.sensitivities.insert(
        "weight".into(),
        DatumSensitivity::new(1 + (x % 6) as u32, 1, 1 + (x % 3) as u32, 2),
    );
    p
}

fn initial() -> Vec<ProviderProfile> {
    (0..8).map(|i| profile_for(i, 7 * i + 3)).collect()
}

/// The delta stream: every op kind, including unknown-id ops that count
/// into `DeltaOutcome::skipped` and bind to nothing.
fn deltas() -> Vec<PopulationDelta> {
    vec![
        PopulationDelta::new().upsert(profile_for(100, 11)),
        PopulationDelta::new().set_threshold(ProviderId(0), 5),
        PopulationDelta::new().remove(ProviderId(3)),
        PopulationDelta::new().set_attribute_prefs(
            ProviderId(1),
            "weight",
            vec![PrivacyTuple::from_point("pr", pt(1, 1, 5))],
        ),
        PopulationDelta::new().set_sensitivity(
            ProviderId(2),
            "weight",
            DatumSensitivity::new(6, 3, 3, 3),
        ),
        // Unknown ids: counted skips, no state change.
        PopulationDelta::new()
            .remove(ProviderId(999))
            .set_threshold(ProviderId(998), 1),
        PopulationDelta::new().upsert(profile_for(101, 23)),
        PopulationDelta::new()
            .upsert(profile_for(4, 51))
            .remove(ProviderId(5)),
        PopulationDelta::new().set_threshold(ProviderId(100), 200),
        PopulationDelta::new().set_attribute_prefs(ProviderId(6), "age", vec![]),
        PopulationDelta::new().upsert(profile_for(102, 37)),
        PopulationDelta::new().remove(ProviderId(0)),
    ]
}

/// `model[d]` = population after the first `d` deltas, via the oracle.
fn model_states() -> Vec<Vec<ProviderProfile>> {
    let mut profiles = initial();
    let mut states = vec![profiles.clone()];
    for delta in deltas() {
        delta.apply_to_profiles(&mut profiles);
        states.push(profiles.clone());
    }
    states
}

#[derive(Debug, Clone, Copy)]
enum Action {
    /// Frame delta `i` into the pending group-commit batch (no I/O).
    Append(usize),
    /// Group commit everything pending (one fsync, one failpoint).
    Sync,
    /// Rotate: snapshot of the durable population + fresh log + publish.
    /// Only scripted when the batch is drained, so the mirror is exactly
    /// `model[acked]`.
    Snapshot,
}

/// Mixed batch sizes (1, 2, and 3 frames per commit) around two snapshot
/// rotations, so crash points cover mid-batch tears, empty-tail
/// generations, and a tail spanning a rotation.
fn script() -> Vec<Action> {
    use Action::*;
    vec![
        Append(0),
        Sync,
        Append(1),
        Append(2),
        Sync,
        Append(3),
        Append(4),
        Append(5),
        Sync,
        Snapshot,
        Append(6),
        Sync,
        Append(7),
        Append(8),
        Sync,
        Snapshot,
        Append(9),
        Append(10),
        Sync,
        Append(11),
        Sync,
    ]
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "qpv-dltorture-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

struct RunResult {
    /// Did `create` publish generation 0? If not, nothing is recoverable.
    created: bool,
    /// Deltas acknowledged durable (their group commit returned `Ok`).
    acked: usize,
    /// Deltas appended to the log when the run stopped — an upper bound
    /// on what a torn commit can have persisted.
    appended: usize,
}

fn run_until_crash(dir: &Path, injector: FaultInjector) -> RunResult {
    let model = model_states();
    let all = deltas();
    let mut log = match DeltaLog::create_with(
        dir,
        &CompiledPopulation::from_profiles(&initial()),
        Some(injector),
    ) {
        Ok(log) => log,
        Err(_) => {
            return RunResult {
                created: false,
                acked: 0,
                appended: 0,
            }
        }
    };
    let mut acked = 0usize;
    let mut appended = 0usize;
    for action in script() {
        let result = match action {
            Action::Append(i) => {
                log.append(&all[i]);
                appended += 1;
                Ok(())
            }
            Action::Sync => log.sync().map(|()| acked = appended),
            Action::Snapshot => {
                assert_eq!(acked, appended, "script bug: snapshot of a dirty batch");
                log.snapshot(&CompiledPopulation::from_profiles(&model[acked]))
            }
        };
        if result.is_err() {
            break;
        }
    }
    RunResult {
        created: true,
        acked,
        appended,
    }
}

fn engine() -> AuditEngine {
    let mut w = AttributeSensitivities::new();
    w.set("weight", 4);
    w.set("age", 2);
    let policy = HousePolicy::builder("torture")
        .tuple("weight", PrivacyTuple::from_point("pr", pt(4, 3, 40)))
        .tuple("age", PrivacyTuple::from_point("research", pt(3, 2, 60)))
        .build();
    AuditEngine::new(policy, ["weight", "age"], w)
}

fn report_pop(pop: &CompiledPopulation) -> String {
    serde_json::to_string(&engine().audit_compiled(pop)).unwrap()
}

fn report_json(profiles: &[ProviderProfile]) -> String {
    report_pop(&CompiledPopulation::from_profiles(profiles))
}

#[test]
fn crash_at_every_delta_log_op_recovers_committed_prefix() {
    let model = model_states();

    // Dry run: count the workload's delta-log I/O ops.
    let dry_dir = temp_dir("dry");
    let dry = FaultInjector::new(FaultPlan::none());
    let result = run_until_crash(&dry_dir, dry.clone());
    assert!(result.created);
    assert_eq!(result.acked, deltas().len(), "dry run must not fail");
    let total_ops = dry.ops_seen();
    std::fs::remove_dir_all(&dry_dir).unwrap();
    assert!(
        total_ops >= 15,
        "workload too small: only {total_ops} crash points"
    );
    eprintln!("deltalog torture: enumerating {total_ops} crash points");

    for i in 0..total_ops {
        let kind = if i % 2 == 0 {
            FaultKind::CrashStop
        } else {
            FaultKind::TornWrite
        };
        let dir = temp_dir(&format!("crash-{i}"));
        let injector = FaultInjector::new(FaultPlan::fail_at(i, kind).with_seed(i));
        let result = run_until_crash(&dir, injector);

        if !result.created {
            // Crashed before the first CURRENT publish: recovery must
            // refuse (there is nothing durable to recover), and re-running
            // create must initialise cleanly over the debris.
            assert!(
                DeltaLog::recover(&dir).is_err(),
                "crash at op {i}: recovered a never-published log"
            );
            let _ = DeltaLog::create(&dir, &CompiledPopulation::from_profiles(&initial()))
                .unwrap_or_else(|e| panic!("crash at op {i}: re-create failed: {e}"));
            let (_, rec) = DeltaLog::recover(&dir)
                .unwrap_or_else(|e| panic!("crash at op {i}: recovery after re-create: {e}"));
            assert_eq!(
                report_pop(&rec.population),
                report_json(&model[0]),
                "crash at op {i}: re-created state"
            );
            std::fs::remove_dir_all(&dir).unwrap();
            continue;
        }

        let (_, rec) = DeltaLog::recover(&dir)
            .unwrap_or_else(|e| panic!("crash at op {i} ({kind:?}): recovery failed: {e}"));
        // Committed-prefix durability + audit identity in one check: the
        // recovered population must audit byte-identically to a fresh
        // compile + audit of some model state between the acknowledged
        // prefix and the appended frames — a torn group commit may
        // persist any frame prefix of the batch, but never a torn frame
        // and never reordered frames.
        let recovered_report = report_pop(&rec.population);
        assert!(
            (result.acked..=result.appended).any(|d| recovered_report == report_json(&model[d])),
            "crash at op {i} ({kind:?}): recovered audit matches no model state in {}..={}",
            result.acked,
            result.appended
        );

        // Idempotency: recovery writes nothing, so a second recover lands
        // on the identical state.
        let (_, rec2) = DeltaLog::recover(&dir)
            .unwrap_or_else(|e| panic!("crash at op {i}: second recovery failed: {e}"));
        assert_eq!(
            report_pop(&rec2.population),
            recovered_report,
            "crash at op {i}: recovery is not idempotent"
        );
        assert_eq!(rec2.generation, rec.generation);
        assert_eq!(rec2.deltas_replayed, rec.deltas_replayed);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// A flaky medium — periodic transient faults that the caller retries —
/// eventually crash-stopping. Retries shift the op indices the whole run,
/// yet the committed-prefix invariant must still hold at every crash
/// point sampled across the stream.
#[test]
fn transient_retries_then_crash_preserve_the_prefix() {
    let model = model_states();
    let all = deltas();

    /// Retry a fallible step across transient faults, like a caller with
    /// `RetryPolicy::standard()` would. Non-transient errors (the crash)
    /// surface immediately.
    fn with_retries(
        mut f: impl FnMut() -> qpv_reldb::error::DbResult<()>,
    ) -> qpv_reldb::error::DbResult<()> {
        let mut r = f();
        for _ in 0..3 {
            match &r {
                Err(e) if e.is_transient() => r = f(),
                _ => break,
            }
        }
        r
    }

    fn run_flaky(dir: &Path, injector: FaultInjector) -> Option<RunResult> {
        let model = model_states();
        let all = deltas();
        let mut log = None;
        // `create` is idempotent until the first CURRENT publish, so a
        // transient inside it is retried by re-running it whole.
        if with_retries(|| {
            DeltaLog::create_with(
                dir,
                &CompiledPopulation::from_profiles(&initial()),
                Some(injector.clone()),
            )
            .map(|l| log = Some(l))
        })
        .is_err()
        {
            return None;
        }
        let mut log = log.expect("create retried to success");
        let mut acked = 0usize;
        let mut appended = 0usize;
        for action in script() {
            let result = match action {
                Action::Append(i) => {
                    log.append(&all[i]);
                    appended += 1;
                    Ok(())
                }
                Action::Sync => with_retries(|| log.sync()).map(|()| acked = appended),
                Action::Snapshot => {
                    with_retries(|| log.snapshot(&CompiledPopulation::from_profiles(&model[acked])))
                }
            };
            if result.is_err() {
                break;
            }
        }
        Some(RunResult {
            created: true,
            acked,
            appended,
        })
    }

    // Dry run under transients-only to size the retried op stream.
    let dry_dir = temp_dir("flaky-dry");
    let dry = FaultInjector::new(FaultPlan::every_kth(4, FaultKind::Transient));
    let result = run_flaky(&dry_dir, dry.clone()).expect("create must survive transients");
    assert_eq!(result.acked, all.len(), "retries must absorb transients");
    let total_ops = dry.ops_seen();
    std::fs::remove_dir_all(&dry_dir).unwrap();

    for c in [
        total_ops / 4,
        total_ops / 2,
        3 * total_ops / 4,
        total_ops - 1,
    ] {
        let dir = temp_dir(&format!("flaky-{c}"));
        let plan =
            FaultPlan::every_kth(4, FaultKind::Transient).and_fail_at(c, FaultKind::CrashStop);
        let Some(result) = run_flaky(&dir, FaultInjector::new(plan)) else {
            // Crashed inside create: same contract as the main suite.
            assert!(DeltaLog::recover(&dir).is_err());
            std::fs::remove_dir_all(&dir).unwrap();
            continue;
        };
        let (_, rec) = DeltaLog::recover(&dir)
            .unwrap_or_else(|e| panic!("flaky crash at op {c}: recovery failed: {e}"));
        let recovered_report = report_pop(&rec.population);
        assert!(
            (result.acked..=result.appended).any(|d| recovered_report == report_json(&model[d])),
            "flaky crash at op {c}: recovered audit matches no model state in {}..={}",
            result.acked,
            result.appended
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// A clean delta log, recorded once for the corruption properties, with
/// one delta per group commit.
struct RecordedLog {
    current: Vec<u8>,
    snapshot: Vec<u8>,
    log: Vec<u8>,
    /// `ends[d]` = log length (bytes) once delta `d` was acknowledged.
    ends: Vec<u64>,
}

fn recorded_log() -> &'static RecordedLog {
    static RECORDED: OnceLock<RecordedLog> = OnceLock::new();
    RECORDED.get_or_init(|| {
        let dir = temp_dir("flip-record");
        let mut log =
            DeltaLog::create(&dir, &CompiledPopulation::from_profiles(&initial())).unwrap();
        let mut ends = Vec::new();
        for delta in deltas() {
            log.append(&delta);
            log.sync().unwrap();
            ends.push(std::fs::metadata(log_path(&dir, 0)).unwrap().len());
        }
        drop(log);
        let recorded = RecordedLog {
            current: std::fs::read(current_path(&dir)).unwrap(),
            snapshot: std::fs::read(snapshot_path(&dir, 0)).unwrap(),
            log: std::fs::read(log_path(&dir, 0)).unwrap(),
            ends,
        };
        assert_eq!(
            recorded.ends.last().copied(),
            Some(recorded.log.len() as u64)
        );
        std::fs::remove_dir_all(&dir).unwrap();
        recorded
    })
}

/// Recover from the recorded log with `mask` XORed into the byte at
/// `offset % len`, and check the prefix contract.
fn check_flip(tag: &str, case: usize, offset: usize, mask: u8) {
    let recorded = recorded_log();
    let flip_at = offset % recorded.log.len();
    // The first delta whose frame extends past the flip: it and every
    // later delta must be gone, every earlier one recovered exactly.
    let broken = recorded
        .ends
        .iter()
        .position(|&end| end > flip_at as u64)
        .expect("flip offset is inside the log");
    let mut corrupted = recorded.log.clone();
    corrupted[flip_at] ^= mask;

    let dir = temp_dir(&format!("flip-{tag}-{case}"));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(current_path(&dir), &recorded.current).unwrap();
    std::fs::write(snapshot_path(&dir, 0), &recorded.snapshot).unwrap();
    std::fs::write(log_path(&dir, 0), &corrupted).unwrap();
    match DeltaLog::recover(&dir) {
        Err(e) => assert!(
            matches!(e, DbError::Corruption(_)),
            "flip at {flip_at}: refusal must be Corruption, got {e}"
        ),
        Ok((_, rec)) => {
            assert_eq!(
                rec.deltas_replayed, broken as u64,
                "flip at {flip_at}: replayed a frame past the flip or lost one before it"
            );
            assert_eq!(
                report_pop(&rec.population),
                report_json(&model_states()[broken]),
                "flip at {flip_at} (delta {broken}): recovered population is not the prefix"
            );
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

proptest! {
    /// Flip one whole byte (XOR 0xff) anywhere in the delta log.
    #[test]
    fn delta_log_byte_flip_recovers_prefix_or_refuses(
        offset in 0usize..1_000_000,
        case in 0usize..1_000_000,
    ) {
        check_flip("byte", case, offset, 0xff);
    }

    /// Flip one single bit anywhere in the delta log.
    #[test]
    fn delta_log_bit_flip_recovers_prefix_or_refuses(
        offset in 0usize..1_000_000,
        bit in 0u32..8,
        case in 0usize..1_000_000,
    ) {
        check_flip("bit", case, offset, 1u8 << bit);
    }
}
