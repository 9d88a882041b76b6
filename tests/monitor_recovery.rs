//! Kill-and-recover: the §10 continuous monitor, crashed mid-stream under
//! churn, must restart from its delta log onto exactly the durable prefix
//! — the recovered population's JSON report must be **byte-identical** to
//! a fresh compile + audit of that state, and the recovered monitor's
//! maintained aggregates must equal `run_reference` over the durable
//! profiles. After recovery, re-feeding the
//! unacknowledged churn must land the monitor on the same final state a
//! never-crashed run reaches: the log loses nothing it acknowledged and
//! invents nothing it didn't.

use qpv_core::deltalog::{DeltaLog, Monitor, MonitorAlert, MonitorConfig};
use qpv_core::{AuditEngine, CompiledPopulation, PolicyOutcome, ProviderProfile};
use qpv_reldb::fault::{FaultInjector, FaultKind, FaultPlan};
use qpv_synth::{churn_batches, generate_stable, Scenario};
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "qpv-monrec-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn report_pop(engine: &AuditEngine, pop: &CompiledPopulation) -> String {
    serde_json::to_string(&engine.audit_compiled(pop)).unwrap()
}

fn report_json(engine: &AuditEngine, profiles: &[ProviderProfile]) -> String {
    report_pop(engine, &CompiledPopulation::from_profiles(profiles))
}

/// The aggregates of the string-path oracle over `profiles`.
fn reference_outcome(engine: &AuditEngine, profiles: &[ProviderProfile]) -> PolicyOutcome {
    let report = engine.run_reference(profiles);
    PolicyOutcome {
        total_violations: report.total_violations,
        violated: report.providers.iter().filter(|p| p.violated).count(),
        defaulted: report.providers.iter().filter(|p| p.defaulted).count(),
        population: report.population(),
    }
}

#[test]
fn killed_monitor_recovers_byte_identical_and_loses_nothing() {
    const N: usize = 200;
    let scenario = Scenario::healthcare(N, 42);
    let spec = &scenario.spec;
    let engine = scenario.engine();
    let initial = generate_stable(spec, N, 42).profiles;
    let batches = churn_batches(spec, N, 150, 5, 7);
    let config = MonitorConfig {
        alpha: 0.5,
        hysteresis: 0.1,
        group_commit: 1, // every ingest is one group commit: acked == applied
        snapshot_every: 8,
    };

    // Dry run: count the delta-log I/O ops the full stream produces, and
    // capture the never-crashed final report as the ground truth.
    let dry_dir = temp_dir("dry");
    let dry = FaultInjector::new(FaultPlan::none());
    let mut m = Monitor::start_with(
        &dry_dir,
        initial.clone(),
        spec.attribute_names(),
        &spec.attribute_weights(),
        spec.baseline_policy("base"),
        config.clone(),
        Some(dry.clone()),
    )
    .unwrap();
    let mut final_profiles = initial.clone();
    for batch in &batches {
        m.ingest(batch.clone()).unwrap();
        batch.apply_to_profiles(&mut final_profiles);
    }
    m.flush().unwrap();
    let final_report = report_pop(&engine, m.index().compiled_population());
    assert_eq!(m.outcome(), reference_outcome(&engine, &final_profiles));
    let total_ops = dry.ops_seen();
    drop(m);
    std::fs::remove_dir_all(&dry_dir).unwrap();
    assert!(total_ops > 20, "stream too small: {total_ops} ops");

    // Crash runs at several points of the op stream, including just after
    // create and just before the end.
    for c in [
        4,
        total_ops / 3,
        total_ops / 2,
        4 * total_ops / 5,
        total_ops - 1,
    ] {
        let dir = temp_dir(&format!("crash-{c}"));
        let injector = FaultInjector::new(FaultPlan::fail_at(c, FaultKind::CrashStop));
        let Ok(mut m) = Monitor::start_with(
            &dir,
            initial.clone(),
            spec.attribute_names(),
            &spec.attribute_weights(),
            spec.baseline_policy("base"),
            config.clone(),
            Some(injector),
        ) else {
            // Crashed inside create: nothing published, nothing to
            // recover — the caller starts fresh.
            assert!(DeltaLog::recover(&dir).is_err());
            let _ = std::fs::remove_dir_all(&dir);
            continue;
        };
        // Mirror of the *acknowledged* population: with group_commit = 1
        // every Ok ingest is durable. The batch whose ingest errored may
        // still have reached the medium when the crash hit the snapshot
        // rotation *after* its group commit — so the durable state is the
        // acked prefix or that plus one batch, never more.
        let mut acked_profiles = initial.clone();
        let mut acked = 0usize;
        for batch in &batches {
            if m.ingest(batch.clone()).is_err() {
                break;
            }
            batch.apply_to_profiles(&mut acked_profiles);
            acked += 1;
        }
        assert!(acked < batches.len(), "crash at op {c} never fired");
        drop(m); // the "kill": staged/unacked state dies with the process

        // Recover (no faults) and check byte-identity against a fresh
        // compile + audit of the durable prefix.
        let mut m2 = Monitor::recover(
            &dir,
            spec.attribute_names(),
            &spec.attribute_weights(),
            spec.baseline_policy("base"),
            config.clone(),
        )
        .unwrap_or_else(|e| panic!("crash at op {c}: recovery failed: {e}"));
        let rec_report = report_pop(&engine, m2.index().compiled_population());
        let mut next_profiles = acked_profiles.clone();
        batches[acked].apply_to_profiles(&mut next_profiles);
        let durable = if rec_report == report_json(&engine, &acked_profiles) {
            acked
        } else if rec_report == report_json(&engine, &next_profiles) {
            acked_profiles = next_profiles;
            acked + 1
        } else {
            panic!("crash at op {c}: recovered population is neither the acked prefix nor +1");
        };
        // The branch above *is* the byte-identity check: the recovered
        // auditor's report equals a fresh compile + audit of the durable
        // prefix. (Re-feeding from `durable` is safe even on a report
        // collision — every churn op is idempotent under re-apply.)
        assert_eq!(rec_report, report_json(&engine, &acked_profiles));
        assert_eq!(
            m2.outcome(),
            reference_outcome(&engine, &acked_profiles),
            "crash at op {c}: recovered aggregates diverged from run_reference"
        );
        assert_eq!(m2.p_violation(), m2.outcome().p_violation());

        // Re-feed everything the crash swallowed: the monitor must land
        // on the never-crashed final state, reports byte-identical.
        for batch in &batches[durable..] {
            m2.ingest(batch.clone()).unwrap();
        }
        m2.flush().unwrap();
        let resumed = report_pop(&engine, m2.index().compiled_population());
        assert_eq!(
            resumed, final_report,
            "crash at op {c}: resumed stream diverged from the never-crashed run"
        );
        drop(m2);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Alerts survive the restart protocol: a monitor that recovers into a
/// population already in breach re-raises the breach immediately (alert
/// state is derived from the durable population, not from volatile
/// memory).
#[test]
fn recovered_monitor_rederives_breach_state() {
    const N: usize = 60;
    let scenario = Scenario::healthcare(N, 9);
    let spec = &scenario.spec;
    let initial = generate_stable(spec, N, 9).profiles;
    let dir = temp_dir("breach");
    // healthcare's baseline policy violates a chunk of the population;
    // alpha = 0 means any violation at all is a breach.
    let config = MonitorConfig {
        alpha: 0.0,
        hysteresis: 0.0,
        group_commit: 1,
        snapshot_every: 0,
    };
    let m = Monitor::start(
        &dir,
        initial,
        spec.attribute_names(),
        &spec.attribute_weights(),
        spec.baseline_policy("base"),
        config.clone(),
    )
    .unwrap();
    assert!(m.in_breach(), "healthcare baseline must breach alpha = 0");
    assert!(matches!(m.alerts(), [MonitorAlert::Breach { seq: 0, .. }]));
    let p_before = m.p_violation();
    drop(m);

    let m2 = Monitor::recover(
        &dir,
        spec.attribute_names(),
        &spec.attribute_weights(),
        spec.baseline_policy("base"),
        config,
    )
    .unwrap();
    assert!(
        m2.in_breach(),
        "breach state must be re-derived on recovery"
    );
    assert_eq!(m2.p_violation(), p_before);
    assert!(matches!(m2.alerts(), [MonitorAlert::Breach { .. }]));
    drop(m2);
    std::fs::remove_dir_all(&dir).unwrap();
}
