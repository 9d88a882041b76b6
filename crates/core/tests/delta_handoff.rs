//! Property test for the [`Ppdb`] delta-handoff protocol under consumer
//! crashes and interleaved writes: **no delta is ever lost, none is ever
//! applied twice**, and the consumer's final audit is byte-identical to
//! a serial oracle that saw every op exactly once.
//!
//! The consumer protocol under test (see `qpv_core::ppdb::DeltaQueue`):
//! `peek_delta_seq()` → apply ops one at a time → `ack_delta_through()`.
//! A crash can land *between any two of those steps* — after applying
//! `j` of the peeked ops but before the ack, for every `j`. Two consumer
//! recovery models cover both real-world shapes:
//!
//! * **Durable consumer** (`crash_everywhere_durable_consumer`): each
//!   apply is durable (the DeltaLog model — a frame is fsynced before
//!   the ack moves). Recovery keeps the applied state and its seq
//!   cursor, re-peeks, and *skips* `applied_through - first_seq` ops.
//!   The skip is what prevents double-apply.
//! * **Amnesiac consumer** (`crash_everywhere_amnesiac_consumer`): state
//!   since the last ack is lost (an in-memory mirror). Recovery rolls
//!   back to the acked checkpoint and replays everything still pending.
//!   Un-acked ops staying in the queue is what prevents loss.
//!
//! In both schedules the writer keeps writing between the crash and the
//! recovery, so the re-peeked batch is never the crashed batch — the
//! seq tags, not batch shapes, must carry the protocol.

use qpv_core::sensitivity::{AttributeSensitivities, DatumSensitivity};
use qpv_core::{
    AuditEngine, CompiledPopulation, DeltaOp, PopulationDelta, Ppdb, PpdbConfig, ProviderProfile,
};
use qpv_policy::{HousePolicy, ProviderId};
use qpv_reldb::db::Database;
use qpv_reldb::row::Row;
use qpv_reldb::schema::{Schema, SchemaBuilder};
use qpv_reldb::types::DataType;
use qpv_reldb::value::Value;
use qpv_taxonomy::{PrivacyPoint, PrivacyTuple};

fn pt(v: u32, g: u32, r: u32) -> PrivacyPoint {
    PrivacyPoint::from_raw(v, g, r)
}

fn data_schema() -> Schema {
    SchemaBuilder::new()
        .column("provider_id", DataType::Int)
        .nullable_column("weight", DataType::Int)
        .build()
        .unwrap()
}

fn profile(id: u64, threshold: u64) -> ProviderProfile {
    let mut p = ProviderProfile::new(ProviderId(id), threshold);
    p.preferences
        .add("weight", PrivacyTuple::from_point("pr", pt(3, 2, 30)));
    p.sensitivities
        .insert("weight".into(), DatumSensitivity::new(3, 1, 5, 2));
    p
}

fn data_row(id: u64) -> Row {
    Row::from_values([Value::Int(id as i64), Value::Int(70)])
}

fn fresh_ppdb() -> Ppdb {
    Ppdb::create(
        Database::in_memory(),
        PpdbConfig::new("people", "provider_id"),
        data_schema(),
    )
    .unwrap()
}

/// One writer op == exactly one [`DeltaOp`] pushed, so seq `i` is the
/// i-th script entry and the oracle is the script itself.
#[derive(Clone, Copy, Debug)]
enum WriterOp {
    Register(u64, u64),
    SetThreshold(u64, u64),
    SetSensitivity(u64),
    SetPreferences(u64),
    Remove(u64),
}

fn script() -> Vec<WriterOp> {
    use WriterOp::*;
    vec![
        Register(1, 40),
        Register(2, 500),
        Register(3, 40),
        SetThreshold(1, 10),
        Register(4, 999),
        SetSensitivity(2),
        SetPreferences(3),
        Remove(2),
        Register(5, 25),
        SetThreshold(5, 80),
        SetPreferences(1),
        Register(6, 60),
        SetSensitivity(4),
        Remove(3),
        SetThreshold(6, 5),
        Register(7, 70),
    ]
}

/// Perform one script op; every op of the script succeeds.
fn perform(ppdb: &mut Ppdb, op: WriterOp) {
    let result = match op {
        WriterOp::Register(id, thr) => ppdb.register_provider(&profile(id, thr), data_row(id)),
        WriterOp::SetThreshold(id, thr) => ppdb.set_threshold(ProviderId(id), thr),
        WriterOp::SetSensitivity(id) => {
            ppdb.set_sensitivity(ProviderId(id), "weight", DatumSensitivity::new(9, 1, 1, 1))
        }
        WriterOp::SetPreferences(id) => ppdb.set_preferences(
            ProviderId(id),
            "weight",
            vec![PrivacyTuple::from_point("pr", pt(1, 1, 1))],
        ),
        WriterOp::Remove(id) => ppdb.remove_provider(ProviderId(id)),
    };
    if let Err(e) = result {
        panic!("writer op {op:?} failed: {e}");
    }
}

fn engine() -> AuditEngine {
    let mut w = AttributeSensitivities::new();
    w.set("weight", 4);
    let policy = HousePolicy::builder("people")
        .tuple("weight", PrivacyTuple::from_point("pr", pt(5, 5, 5)))
        .build();
    AuditEngine::new(policy, ["weight"], w)
}

fn report(pop: &CompiledPopulation) -> String {
    serde_json::to_string(&engine().audit_compiled(pop)).unwrap()
}

/// The serial oracle: one consumer that saw every op exactly once, in
/// order, with no crashes.
fn oracle_report() -> (usize, String) {
    let mut ppdb = fresh_ppdb();
    for op in script() {
        perform(&mut ppdb, op);
    }
    let (base, ops) = ppdb.peek_delta_seq();
    assert_eq!(base, 0);
    let mut pop = CompiledPopulation::from_profiles(&[]);
    pop.apply_delta(&ops).unwrap();
    (ops.len(), report(&pop))
}

fn apply_one(pop: &mut CompiledPopulation, op: &DeltaOp) {
    let mut d = PopulationDelta::new();
    d.push(op.clone());
    pop.apply_delta(&d).unwrap();
}

/// Deterministic crash schedule: the consumer activates after every
/// writer op and crashes once its total apply count hits `crash_after`
/// — i.e. after applying `crash_after` ops overall, before the next
/// apply or ack. `durable` picks the recovery model.
///
/// Returns `(applied_seqs, final_report)` where `applied_seqs` is every
/// seq whose apply *survived* into the final state, in apply order.
fn run_with_crash(crash_after: usize, durable: bool) -> (Vec<u64>, String) {
    let mut ppdb = fresh_ppdb();
    let mut pop = CompiledPopulation::from_profiles(&[]);
    let mut applied_through = 0u64;
    let mut applied_seqs: Vec<u64> = Vec::new();
    // The amnesiac consumer's durable checkpoint: state at last ack.
    let mut checkpoint = (pop.clone(), 0u64, Vec::new());
    let mut budget = Some(crash_after);
    let mut crashed = false;

    let consume = |ppdb: &mut Ppdb,
                   pop: &mut CompiledPopulation,
                   applied_through: &mut u64,
                   applied_seqs: &mut Vec<u64>,
                   checkpoint: &mut (CompiledPopulation, u64, Vec<u64>),
                   budget: &mut Option<usize>|
     -> bool {
        let (base, ops) = ppdb.peek_delta_seq();
        assert!(
            base <= *applied_through,
            "queue acked past the consumer's cursor"
        );
        let skip = (*applied_through - base) as usize;
        for (i, op) in ops.ops().iter().enumerate().skip(skip) {
            if *budget == Some(0) {
                return true; // crash before this apply
            }
            apply_one(pop, op);
            applied_seqs.push(base + i as u64);
            *applied_through += 1;
            if let Some(b) = budget.as_mut() {
                *b -= 1;
            }
        }
        if *budget == Some(0) {
            *budget = None; // the crash point: between last apply and ack
            return true;
        }
        ppdb.ack_delta_through(*applied_through);
        *checkpoint = (pop.clone(), *applied_through, applied_seqs.clone());
        false
    };

    for (step, op) in script().into_iter().enumerate() {
        perform(&mut ppdb, op);
        if crashed {
            // Writer keeps going while the consumer is down. Recover the
            // consumer two ops after the crash so re-peeked batches never
            // match the crashed batch shape.
            if step % 2 == 0 {
                if !durable {
                    // Everything since the last ack is lost.
                    pop = checkpoint.0.clone();
                    applied_through = checkpoint.1;
                    applied_seqs = checkpoint.2.clone();
                }
                budget = None;
                // `crashed` is refreshed by the consume below.
            } else {
                continue;
            }
        }
        crashed = consume(
            &mut ppdb,
            &mut pop,
            &mut applied_through,
            &mut applied_seqs,
            &mut checkpoint,
            &mut budget,
        );
    }
    // Final recovery + drain.
    if crashed && !durable {
        pop = checkpoint.0.clone();
        applied_through = checkpoint.1;
        applied_seqs = checkpoint.2.clone();
    }
    budget = None;
    let crashed_again = consume(
        &mut ppdb,
        &mut pop,
        &mut applied_through,
        &mut applied_seqs,
        &mut checkpoint,
        &mut budget,
    );
    assert!(!crashed_again);
    assert_eq!(ppdb.delta_backlog_len(), 0, "drain must empty the queue");
    (applied_seqs, report(&pop))
}

fn assert_exactly_once(applied_seqs: &[u64], total: usize, report: &str, oracle: &str, tag: &str) {
    assert_eq!(
        applied_seqs,
        (0..total as u64).collect::<Vec<_>>().as_slice(),
        "{tag}: surviving applies must be every seq exactly once, in order"
    );
    assert_eq!(report, oracle, "{tag}: audit must match the serial oracle");
}

/// Durable consumer: crash between peek and ack at *every* apply count.
#[test]
fn crash_everywhere_durable_consumer() {
    let (total, oracle) = oracle_report();
    for crash_after in 0..=total {
        let (applied, report) = run_with_crash(crash_after, true);
        assert_exactly_once(
            &applied,
            total,
            &report,
            &oracle,
            &format!("durable, crash after {crash_after} applies"),
        );
    }
}

/// Amnesiac consumer: same crash points; replay-from-ack must converge
/// to the identical exactly-once history.
#[test]
fn crash_everywhere_amnesiac_consumer() {
    let (total, oracle) = oracle_report();
    for crash_after in 0..=total {
        let (applied, report) = run_with_crash(crash_after, false);
        assert_exactly_once(
            &applied,
            total,
            &report,
            &oracle,
            &format!("amnesiac, crash after {crash_after} applies"),
        );
    }
}

/// The handoff on one thread, at every drain interval: the consumer
/// peeks, applies and acks after every `every` writer ops (1 = after each
/// op, `total` = one drain of the whole un-acked backlog). Every schedule
/// must hand over each op exactly once, in seq order, and
/// `delta_queue().next_seq()` must count every op pushed.
#[test]
fn interleaved_handoff_is_exactly_once_at_every_drain_interval() {
    let (total, oracle) = oracle_report();
    for every in 1..=total {
        let mut ppdb = fresh_ppdb();
        let mut pop = CompiledPopulation::from_profiles(&[]);
        let mut applied_seqs = Vec::new();
        for (i, op) in script().into_iter().enumerate() {
            perform(&mut ppdb, op);
            if (i + 1) % every == 0 || i + 1 == total {
                let (base, ops) = ppdb.peek_delta_seq();
                assert_eq!(base, applied_seqs.len() as u64, "acked up to the cursor");
                for (j, op) in ops.ops().iter().enumerate() {
                    apply_one(&mut pop, op);
                    applied_seqs.push(base + j as u64);
                }
                ppdb.ack_delta_through(base + ops.len() as u64);
            }
        }
        assert_eq!(ppdb.delta_queue().next_seq(), total as u64);
        assert!(ppdb.delta_queue().is_empty());
        assert_exactly_once(
            &applied_seqs,
            total,
            &report(&pop),
            &oracle,
            &format!("drain every {every} ops"),
        );
    }
}
