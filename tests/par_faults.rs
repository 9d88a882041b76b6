//! Graceful degradation of the parallel audit under worker faults.
//!
//! The contract, exercised end-to-end through the public
//! [`Ppdb::par_audit`] entry point: a panicking audit worker never takes
//! the process down — the poisoned chunk is retried once in place, and a
//! persistent failure surfaces as a structured
//! [`AuditError::WorkerPanicked`] naming the chunk, while the engine and
//! the database both stay usable afterwards.

use std::num::NonZeroUsize;

use quantifying_privacy_violations::core::par::failpoint;
use quantifying_privacy_violations::core::AuditError;
use quantifying_privacy_violations::prelude::*;

/// A PPDB large enough that `par_audit` actually shards (population above
/// the sequential fall-back threshold).
fn seeded_ppdb() -> Ppdb {
    let scenario = Scenario::healthcare(400, 7);
    assert!(
        scenario.population.profiles.len() >= quantifying_privacy_violations::core::PAR_THRESHOLD,
        "population must be large enough to exercise the parallel path"
    );
    let db = Database::in_memory();
    let mut ppdb = Ppdb::create(
        db,
        PpdbConfig::new("patients", "provider_id"),
        scenario.data_schema(),
    )
    .unwrap();
    ppdb.set_policy(&scenario.baseline_policy).unwrap();
    for attr in &scenario.spec.attributes {
        ppdb.set_attribute_weight(&attr.name, attr.weight).unwrap();
    }
    for (profile, row) in scenario
        .population
        .profiles
        .iter()
        .zip(&scenario.population.data_rows)
    {
        ppdb.register_provider(profile, row.clone()).unwrap();
    }
    ppdb
}

#[test]
fn transient_worker_panic_is_retried_and_the_report_is_unchanged() {
    let mut ppdb = seeded_ppdb();
    let sequential = ppdb.audit().unwrap();

    // Chunk 1 panics exactly once: the in-place retry must absorb it and
    // the report must come out as if nothing happened.
    failpoint::arm(1, 1);
    let report = ppdb.par_audit(NonZeroUsize::new(4).unwrap());
    failpoint::disarm();
    assert_eq!(report.unwrap(), sequential);
}

#[test]
fn poisoned_chunk_surfaces_as_a_structured_error_naming_the_chunk() {
    let mut ppdb = seeded_ppdb();
    let sequential = ppdb.audit().unwrap();

    // Chunk 1 panics on every attempt, including the retry.
    failpoint::arm(1, i64::MAX);
    let err = ppdb
        .par_audit(NonZeroUsize::new(4).unwrap())
        .expect_err("a permanently poisoned chunk must not yield a report");
    failpoint::disarm();
    match &err {
        AuditError::WorkerPanicked {
            chunk, start, end, ..
        } => {
            assert_eq!(*chunk, 1, "the poisoned chunk must be identified");
            assert!(start < end, "the chunk's provider range must be real");
        }
        other => panic!("expected WorkerPanicked, got {other:?}"),
    }
    assert!(err.to_string().contains("chunk 1"), "{err}");

    // The failure is contained: the same PPDB audits cleanly afterwards,
    // both sequentially and in parallel.
    assert_eq!(ppdb.audit().unwrap(), sequential);
    let parallel = ppdb.par_audit(NonZeroUsize::new(4).unwrap()).unwrap();
    assert_eq!(parallel, sequential);
}
