//! Equivalence suite for the live violation index: under arbitrary
//! churn, crashes, and thread races, [`LiveViolationIndex`] must stay
//! **byte-identical** to what a fresh compile + reference audit of the
//! same profiles would produce.
//!
//! Four layers, mirroring the delta pipeline's existing guarantees:
//!
//! * **Sequential churn** — a seeded [`qpv_synth::churn`] stream (all 5
//!   [`DeltaOp`] kinds) is applied batch by batch, flat and lattice;
//!   after *every* batch the maintained index equals the
//!   `run_reference`-derived witness rows, per-provider scores and
//!   aggregates of the profile-replay oracle (and a counts pass over a
//!   fresh compile), on the full sweep and on the indexed range/attr
//!   paths — plus a saturating-magnitudes case for the exact `u128`
//!   total.
//! * **Two-thread handoff race** — a real writer thread pushes model
//!   edits through a capacity-squeezed [`qpv_core::DeltaQueue`] while a
//!   consumer thread maintains the index via peek/ack; the seq tags
//!   must deliver every op exactly once and the final index must match
//!   the serial oracle.
//! * **Crash-at-every-delta rebuild torture** — the [`DeltaLog`]
//!   recovery model: for every prefix of a logged delta stream, rebuild
//!   via [`LiveViolationIndex::recover`] and check byte-identity at the
//!   crash point *and* after resuming maintenance on the recovered
//!   index (including across a snapshot rotation).
//! * **Snapshot/live caching regression** — two back-to-back
//!   [`Ppdb::query_violations`] calls compile the population exactly
//!   once, and the live path never rebuilds on writes (maintenance, not
//!   recompilation).

use std::sync::{Arc, Mutex};

use qpv_core::deltalog::DeltaLog;
use qpv_core::sensitivity::{AttributeSensitivities, DatumSensitivity};
use qpv_core::{
    AuditEngine, CompiledPopulation, LiveViolationIndex, PolicyOutcome, PopulationDelta, Ppdb,
    PpdbConfig, ProviderProfile,
};
use qpv_policy::{HousePolicy, ProviderId};
use qpv_reldb::audit_bridge::{AuditBridge, ViolationRow};
use qpv_reldb::db::Database;
use qpv_reldb::error::DbError;
use qpv_reldb::row::Row;
use qpv_reldb::schema::{Schema, SchemaBuilder};
use qpv_reldb::types::DataType;
use qpv_reldb::value::Value;
use qpv_synth::population::AttributeSpec;
use qpv_synth::{churn_batches, generate_stable, PopulationSpec, SegmentMix};
use qpv_taxonomy::{PrivacyPoint, PrivacyTuple, PurposeLattice};
use std::ops::Bound;

fn pt(v: u32, g: u32, r: u32) -> PrivacyPoint {
    PrivacyPoint::from_raw(v, g, r)
}

/// The reference oracle: witness rows derived from
/// [`AuditEngine::run_reference`] over plain profiles, in profile order
/// — the same emission contract as the compiled paths
/// (`push_witness_rows`), rebuilt here from first principles.
fn reference_rows(engine: &AuditEngine, profiles: &[ProviderProfile]) -> Vec<ViolationRow> {
    let report = engine.run_reference(profiles);
    let mut rows = Vec::new();
    for audit in &report.providers {
        if !audit.violated {
            continue;
        }
        let severity = i64::try_from(audit.score).unwrap_or(i64::MAX);
        for w in &audit.witnesses {
            rows.push(ViolationRow {
                provider: audit.provider.0 as i64,
                attribute: w.attribute.as_str().to_string(),
                purpose: w.purpose.name().to_string(),
                severity,
            });
        }
    }
    rows
}

/// The maintained aggregates and per-provider state against both
/// oracles: a counts pass over a fresh compile, and `run_reference`.
fn assert_maintained_state(
    index: &LiveViolationIndex,
    engine: &AuditEngine,
    profiles: &[ProviderProfile],
    ctx: &str,
) {
    let outcome = index.outcome();
    assert_eq!(
        outcome,
        engine.counts(&CompiledPopulation::from_profiles(profiles)),
        "{ctx}: outcome vs counts"
    );
    let report = engine.run_reference(profiles);
    let reference = PolicyOutcome {
        total_violations: report.total_violations,
        violated: report.providers.iter().filter(|p| p.violated).count(),
        defaulted: report.providers.iter().filter(|p| p.defaulted).count(),
        population: report.population(),
    };
    assert_eq!(outcome, reference, "{ctx}: outcome vs run_reference");
    for audited in &report.providers {
        let i = index
            .compiled_population()
            .occurrence_of(audited.provider)
            .unwrap();
        assert_eq!(
            index.score(i),
            audited.score,
            "{ctx}: {:?}",
            audited.provider
        );
        assert_eq!(index.defaulted(i), audited.defaulted, "{ctx}");
        assert_eq!(index.violated(i), audited.violated, "{ctx}");
    }
}

/// Churn workload spec: two weighted attributes, two purposes, the
/// Westin segment mix — enough structural variety that upserts flip
/// violation status both ways.
fn spec() -> PopulationSpec {
    PopulationSpec {
        attributes: vec![
            AttributeSpec::new("weight", 4, pt(2, 2, 90), (40, 180)),
            AttributeSpec::new("age", 2, pt(2, 3, 365), (18, 95)),
        ],
        purposes: vec!["service".into(), "research".into()],
        mix: SegmentMix::WESTIN_2001,
    }
}

fn spec_engine(s: &PopulationSpec) -> AuditEngine {
    AuditEngine::new(
        s.baseline_policy("house"),
        s.attribute_names(),
        s.attribute_weights(),
    )
}

/// research ⊑ service: a consent for service covers research use.
fn lattice() -> PurposeLattice {
    let mut l = PurposeLattice::new();
    l.add_edge("research", "service").unwrap();
    l
}

/// Sequential churn, flat and lattice: after every ingested batch the
/// maintained index is byte-identical to the reference audit of the
/// profile-replay oracle — full sweep, bounded range, attr posting,
/// candidate list, per-provider scores and aggregates alike.
#[test]
fn churned_index_matches_reference_audit_after_every_batch() {
    let s = spec();
    for (seed, with_lattice) in [3u64, 17, 52]
        .into_iter()
        .flat_map(|seed| [(seed, false), (seed, true)])
    {
        let n = 120;
        let mut profiles = generate_stable(&s, n, seed).profiles;
        let mut engine = spec_engine(&s);
        if with_lattice {
            engine = engine.with_lattice(lattice());
        }
        let mut index =
            LiveViolationIndex::new(engine.clone(), CompiledPopulation::from_profiles(&profiles));

        for (b, batch) in churn_batches(&s, n, 200, 7, seed).into_iter().enumerate() {
            index.apply_delta(&batch).unwrap();
            batch.apply_to_profiles(&mut profiles);
            let ctx = format!("seed {seed} lattice {with_lattice} batch {b}");

            let oracle = reference_rows(&engine, &profiles);
            assert_eq!(
                index.violations_all(None).unwrap(),
                oracle,
                "{ctx}: full sweep diverged"
            );
            assert_eq!(index.row_count(), oracle.len(), "{ctx}");
            assert_maintained_state(&index, &engine, &profiles, &ctx);

            // Indexed range lookup == oracle restricted to the bounds.
            let (lo, hi) = (n as i64 / 4, n as i64 / 2);
            let ranged = index
                .violations_indexed(Bound::Included(lo), Bound::Excluded(hi), None, None)
                .unwrap();
            let expect: Vec<ViolationRow> = oracle
                .iter()
                .filter(|r| (lo..hi).contains(&r.provider))
                .cloned()
                .collect();
            assert_eq!(ranged, expect, "{ctx}: range lookup");

            // Attr posting: exactly the oracle rows witnessed on the attr.
            for attr in ["weight", "age"] {
                let posted = index
                    .violations_indexed(Bound::Unbounded, Bound::Unbounded, Some(attr), None)
                    .unwrap();
                let expect: Vec<ViolationRow> = oracle
                    .iter()
                    .filter(|r| r.attribute == attr)
                    .cloned()
                    .collect();
                assert_eq!(posted, expect, "{ctx}: posting {attr}");
            }

            // Candidate-list path agrees with the restriction semantics.
            let candidates: Vec<i64> = (0..n as i64).filter(|i| i % 5 == 0).collect();
            let keep: std::collections::HashSet<i64> = candidates.iter().copied().collect();
            let selected = index.violations_for(&candidates, None).unwrap();
            let expect: Vec<ViolationRow> = oracle
                .iter()
                .filter(|r| keep.contains(&r.provider))
                .cloned()
                .collect();
            assert_eq!(selected, expect, "{ctx}: candidates");
        }

        // The maintained state is indistinguishable from a cold build of
        // the final population — structures, counters, and stats.
        let fresh = LiveViolationIndex::new(engine, index.compiled_population().clone());
        assert_eq!(
            index.violations_all(None).unwrap(),
            fresh.violations_all(None).unwrap()
        );
        assert_eq!(index.stats(), fresh.stats(), "seed {seed}: stats");
        assert_eq!(index.outcome(), fresh.outcome(), "seed {seed}: outcome");
    }
}

/// Saturating magnitudes: providers whose Eq. 15 score pins at
/// `u64::MAX` push the Eq. 16 total past `u64`, and a `SetSensitivity`
/// delta that lowers one of them must leave the maintained `u128` total
/// exact — equal to a counts pass and to `run_reference` — with no
/// clamping or retraction error on the way down.
#[test]
fn saturated_scores_keep_the_u128_total_exact() {
    let max = DatumSensitivity::new(u32::MAX, u32::MAX, u32::MAX, u32::MAX);
    let mut w = AttributeSensitivities::new();
    w.set("a", u32::MAX);
    w.set("b", 2);
    let policy = HousePolicy::builder("h")
        .tuple("a", PrivacyTuple::from_point("pr", pt(9, 9, 9)))
        .tuple("b", PrivacyTuple::from_point("pr", pt(9, 9, 9)))
        .build();
    let engine = AuditEngine::new(policy, ["a", "b"], w);
    let mut profiles: Vec<ProviderProfile> = (0..4u64)
        .map(|id| {
            let mut p = ProviderProfile::new(ProviderId(id), u64::MAX - 1);
            for attr in ["a", "b"] {
                p.preferences
                    .add(attr, PrivacyTuple::from_point("pr", pt(1, 1, 1)));
            }
            if id < 3 {
                p.sensitivities.insert("a".into(), max);
            }
            p
        })
        .collect();
    let mut index =
        LiveViolationIndex::new(engine.clone(), CompiledPopulation::from_profiles(&profiles));
    let pinned = index
        .compiled_population()
        .occurrence_of(ProviderId(0))
        .unwrap();
    assert_eq!(index.score(pinned), u64::MAX, "score pins at u64::MAX");
    assert!(index.defaulted(pinned));
    assert!(
        index.outcome().total_violations > u128::from(u64::MAX),
        "the total needs u128"
    );
    assert_maintained_state(&index, &engine, &profiles, "saturated build");

    // Lower provider 0 from the clamp to an exactly-known score.
    let lower = PopulationDelta::new().set_sensitivity(
        ProviderId(0),
        "a",
        DatumSensitivity::new(1, 1, 1, 1),
    );
    index.apply_delta(&lower).unwrap();
    lower.apply_to_profiles(&mut profiles);
    assert!(index.score(pinned) < u64::MAX, "provider 0 left the clamp");
    assert!(!index.defaulted(pinned));
    assert_maintained_state(&index, &engine, &profiles, "after lowering");
}

// ---- two-thread handoff race ------------------------------------------

fn data_schema() -> Schema {
    SchemaBuilder::new()
        .column("provider_id", DataType::Int)
        .nullable_column("weight", DataType::Int)
        .build()
        .unwrap()
}

fn race_profile(id: u64, threshold: u64) -> ProviderProfile {
    let mut p = ProviderProfile::new(ProviderId(id), threshold);
    p.preferences
        .add("weight", PrivacyTuple::from_point("pr", pt(3, 2, 30)));
    p.sensitivities
        .insert("weight".into(), DatumSensitivity::new(3, 1, 5, 2));
    p
}

fn race_engine() -> AuditEngine {
    let mut w = AttributeSensitivities::new();
    w.set("weight", 4);
    let policy = HousePolicy::builder("people")
        .tuple("weight", PrivacyTuple::from_point("pr", pt(5, 5, 5)))
        .build();
    AuditEngine::new(policy, ["weight"], w)
}

/// One writer op == one pushed [`qpv_core::DeltaOp`], so the script
/// itself is the seq-numbered oracle.
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

fn perform(ppdb: &mut Ppdb, op: WriterOp) {
    loop {
        let result = match op {
            WriterOp::Register(id, thr) => ppdb.register_provider(
                &race_profile(id, thr),
                Row::from_values([Value::Int(id as i64), Value::Int(70)]),
            ),
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
        match result {
            Ok(()) => return,
            Err(DbError::Backpressure { .. }) => std::thread::yield_now(),
            Err(e) => panic!("writer op {op:?} failed: {e}"),
        }
    }
}

/// A writer thread races a consumer thread maintaining a
/// [`LiveViolationIndex`] through the shared delta queue (capacity 4,
/// so the writer also exercises backpressure). The seq-tagged peek/ack
/// protocol must hand every op to the index exactly once, in order, and
/// the final index must equal the serial reference oracle.
#[test]
fn threaded_handoff_keeps_index_exactly_once() {
    let total = script().len();
    let ppdb = Ppdb::create(
        Database::in_memory(),
        PpdbConfig::new("people", "provider_id").with_delta_capacity(4),
        data_schema(),
    )
    .unwrap();
    let queue = ppdb.delta_queue();
    let ppdb = Arc::new(Mutex::new(ppdb));

    let writer = {
        let ppdb = Arc::clone(&ppdb);
        std::thread::spawn(move || {
            for op in script() {
                perform(&mut ppdb.lock().unwrap(), op);
            }
        })
    };

    // Consumer: maintain the index from an empty population via the
    // shared handle, skipping the already-applied prefix on every peek.
    let mut index = LiveViolationIndex::new(race_engine(), CompiledPopulation::from_profiles(&[]));
    let mut applied_through = 0u64;
    let mut applied_seqs = Vec::new();
    while (applied_through as usize) < total {
        let (base, ops) = queue.peek();
        assert!(base <= applied_through, "queue acked past the consumer");
        let skip = (applied_through - base) as usize;
        for (i, op) in ops.ops().iter().enumerate().skip(skip) {
            let mut one = PopulationDelta::new();
            one.push(op.clone());
            index.apply_delta(&one).unwrap();
            applied_seqs.push(base + i as u64);
            applied_through += 1;
        }
        queue.ack_through(applied_through);
        std::thread::yield_now();
    }
    writer.join().unwrap();
    assert!(queue.is_empty());
    assert_eq!(
        applied_seqs,
        (0..total as u64).collect::<Vec<_>>(),
        "every op exactly once, in seq order"
    );

    // Serial oracle: the same script replayed onto plain profiles.
    let mut profiles: Vec<ProviderProfile> = Vec::new();
    let mut serial = PopulationDelta::new();
    {
        let mut oracle_ppdb = Ppdb::create(
            Database::in_memory(),
            PpdbConfig::new("people", "provider_id").with_delta_capacity(1024),
            data_schema(),
        )
        .unwrap();
        for op in script() {
            perform(&mut oracle_ppdb, op);
        }
        let (base, ops) = oracle_ppdb.peek_delta_seq();
        assert_eq!(base, 0);
        serial.merge(ops);
    }
    serial.apply_to_profiles(&mut profiles);
    assert_eq!(
        index.violations_all(None).unwrap(),
        reference_rows(&race_engine(), &profiles),
        "racing consumer converged on the serial oracle"
    );
    assert_eq!(index.deltas_applied(), total as u64);
}

// ---- crash-at-every-delta rebuild torture ------------------------------

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "qpv-liveidx-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The logged delta stream: every op kind, unknown-id no-ops included.
fn logged_deltas(s: &PopulationSpec, n: usize) -> Vec<PopulationDelta> {
    churn_batches(s, n, 36, 3, 41)
        .into_iter()
        .chain(std::iter::once(
            PopulationDelta::new()
                .remove(ProviderId(9_999))
                .set_threshold(ProviderId(9_998), 1),
        ))
        .collect()
}

/// Crash after every logged delta and rebuild: recovery (durable
/// snapshot ⊕ tail replay, then one cold build) must land byte-for-byte
/// on the reference audit of the synced prefix, and the recovered index
/// must keep accepting live maintenance for the rest of the stream —
/// including when a snapshot rotation happened before the crash.
#[test]
fn recovery_at_every_crash_point_matches_reference() {
    let s = spec();
    let n = 40;
    let initial = generate_stable(&s, n, 23).profiles;
    let engine = spec_engine(&s);
    let deltas = logged_deltas(&s, n);

    // model[d] = profiles after the first d deltas (the pinned oracle).
    let mut model = vec![initial.clone()];
    {
        let mut profiles = initial.clone();
        for d in &deltas {
            d.apply_to_profiles(&mut profiles);
            model.push(profiles.clone());
        }
    }

    for crash_after in 0..=deltas.len() {
        let dir = temp_dir(&format!("crash-{crash_after}"));
        let mut pop = CompiledPopulation::from_profiles(&initial);
        let mut log = DeltaLog::create(&dir, &pop).unwrap();
        for (i, d) in deltas[..crash_after].iter().enumerate() {
            log.append(d);
            log.sync().unwrap();
            pop.apply_delta(d).unwrap();
            // Rotate mid-stream once: recovery must come from the newer
            // snapshot generation, not the original.
            if crash_after == deltas.len() && i == deltas.len() / 2 {
                log.snapshot(&pop).unwrap();
            }
        }
        drop(log); // the crash: everything synced survives, nothing else

        let (_log, mut index) = LiveViolationIndex::recover(&dir, engine.clone()).unwrap();
        assert_eq!(
            index.violations_all(None).unwrap(),
            reference_rows(&engine, &model[crash_after]),
            "crash after {crash_after} deltas: rebuilt state"
        );

        // The recovered index resumes live maintenance seamlessly.
        for (extra, d) in deltas[crash_after..].iter().enumerate() {
            index.apply_delta(d).unwrap();
            assert_eq!(
                index.violations_all(None).unwrap(),
                reference_rows(&engine, &model[crash_after + extra + 1]),
                "crash after {crash_after}, resumed delta {extra}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ---- snapshot / live caching regression --------------------------------

fn seeded_ppdb(n: u64) -> Ppdb {
    let schema = SchemaBuilder::new()
        .column("provider_id", DataType::Int)
        .nullable_column("weight", DataType::Int)
        .build()
        .unwrap();
    let mut ppdb = Ppdb::create(
        Database::in_memory(),
        PpdbConfig::new("people", "provider_id"),
        schema,
    )
    .unwrap();
    let policy = HousePolicy::builder("house")
        .tuple("weight", PrivacyTuple::from_point("pr", pt(7, 4, 7)))
        .build();
    ppdb.set_policy(&policy).unwrap();
    ppdb.set_attribute_weight("weight", 3).unwrap();
    for id in 0..n {
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
        ppdb.register_provider(
            &p,
            Row::from_values([Value::Int(id as i64), Value::Int(70)]),
        )
        .unwrap();
    }
    ppdb
}

/// Back-to-back queries reuse one compiled snapshot; writes invalidate
/// it; policy edits (which bypass the delta stream) invalidate it too.
#[test]
fn back_to_back_queries_compile_the_snapshot_once() {
    let mut ppdb = seeded_ppdb(30);
    let q = "SELECT * FROM _qpv_violations";
    let first = ppdb.query_violations(q).unwrap();
    let second = ppdb.query_violations(q).unwrap();
    assert_eq!(first.rows, second.rows);
    assert_eq!(ppdb.snapshot_builds(), 1, "cache hit must not recompile");

    // A model-changing write lands in the delta stream and invalidates.
    ppdb.set_threshold(ProviderId(1), 99).unwrap();
    ppdb.query_violations(q).unwrap();
    assert_eq!(ppdb.snapshot_builds(), 2);
    ppdb.query_violations(q).unwrap();
    assert_eq!(ppdb.snapshot_builds(), 2);

    // Policy edits don't flow through deltas; the epoch key catches them.
    let policy = HousePolicy::builder("house")
        .tuple("weight", PrivacyTuple::from_point("pr", pt(9, 9, 9)))
        .build();
    ppdb.set_policy(&policy).unwrap();
    ppdb.query_violations(q).unwrap();
    assert_eq!(ppdb.snapshot_builds(), 3);
}

fn sorted_tuples(rs: &qpv_reldb::exec::ResultSet) -> Vec<(i64, String, String, i64)> {
    let mut out: Vec<(i64, String, String, i64)> = rs
        .rows
        .iter()
        .map(|r| {
            (
                r.values[0].as_int().unwrap(),
                r.values[1].as_text().unwrap().to_string(),
                r.values[2].as_text().unwrap().to_string(),
                r.values[3].as_int().unwrap(),
            )
        })
        .collect();
    out.sort();
    out
}

/// The live path builds once and then *maintains*: writes between
/// queries are absorbed as deltas, never as rebuilds, and results stay
/// identical to the snapshot path. (Identical as row *sets*: removals
/// reorder the maintained population via swap_remove while a fresh
/// store compile keeps heap order, and SQL without ORDER BY promises no
/// order — an explicit ORDER BY pins it below.)
#[test]
fn live_path_maintains_instead_of_rebuilding() {
    let mut ppdb = seeded_ppdb(30);
    let q = "SELECT * FROM _qpv_violations";
    let live = ppdb.query_live(q).unwrap();
    // The planner routes through the maintained index — `explain` prices
    // with the most recently registered stats, so ask right after the
    // live query (a snapshot query would re-register non-indexed stats).
    let plan = ppdb.explain(q).unwrap();
    assert!(plan.contains("LiveIndexScan"), "{plan}");
    let snap = ppdb.query_violations(q).unwrap();
    assert_eq!(live.rows, snap.rows, "live and snapshot paths agree");
    assert_eq!(ppdb.live_builds(), 1);

    let ordered = "SELECT * FROM _qpv_violations ORDER BY provider";
    for round in 0..3u64 {
        ppdb.set_threshold(ProviderId(round), 50).unwrap();
        ppdb.remove_provider(ProviderId(20 + round)).unwrap();
        let live = ppdb.query_live(q).unwrap();
        let snap = ppdb.query_violations(q).unwrap();
        assert_eq!(sorted_tuples(&live), sorted_tuples(&snap), "round {round}");
        // With an explicit order the paths agree row for row.
        let live = ppdb.query_live(ordered).unwrap();
        let snap = ppdb.query_violations(ordered).unwrap();
        assert_eq!(live.rows, snap.rows, "round {round} ordered");
    }
    assert_eq!(
        ppdb.live_builds(),
        1,
        "writes must be maintained, not rebuilt"
    );
    assert!(ppdb.live_index().unwrap().deltas_applied() > 0);
}
