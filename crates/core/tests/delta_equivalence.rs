//! Property suite for the delta pipeline: applying a random
//! [`PopulationDelta`] sequence to a compiled population (and to a
//! [`LiveViolationIndex`]) lands **byte-identically** — serialized-JSON
//! equal — on the state a fresh compile + audit of the mutated profile
//! list produces, flat and lattice.
//!
//! Ops are generated as plain integer tuples and decoded deterministically
//! here, so failing cases shrink along integers and vector length — the
//! dimensions the vendored `proptest` knows how to minimize. The decoded
//! mix covers every [`DeltaOp`] variant, including upserts of brand-new
//! ids, repeated edits of the same provider, removals, retractions
//! (empty preference replacement), and ops naming unknown providers
//! (which must no-op on both sides).

use proptest::prelude::*;

use qpv_core::sensitivity::{AttributeSensitivities, DatumSensitivity};
use qpv_core::{
    AuditEngine, CompiledPopulation, DeltaOp, LiveViolationIndex, PopulationDelta, ProviderProfile,
};
use qpv_policy::{HousePolicy, ProviderId};
use qpv_taxonomy::{PrivacyPoint, PrivacyTuple, PurposeLattice};

fn pt(v: u32, g: u32, r: u32) -> PrivacyPoint {
    PrivacyPoint::from_raw(v, g, r)
}

/// Same structural-variety generator as `pop_equivalence.rs`, minus the
/// duplicate-id case: deltas refuse populations with duplicate
/// occurrences, so every id here is unique.
fn population(n: usize, seed: u64) -> Vec<ProviderProfile> {
    (0..n as u64).map(|i| profile_for(i, seed)).collect()
}

/// Deterministic profile for `id`: structure varies with the mixed seed,
/// covering multiple tuples per attribute, unknown purposes, and
/// attributes the data table does not store.
fn profile_for(id: u64, seed: u64) -> ProviderProfile {
    let x = id.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(seed);
    let mut p = ProviderProfile::new(ProviderId(id), 10 + (x % 140));
    p.preferences.add(
        "weight",
        PrivacyTuple::from_point("pr", pt(1 + (x % 5) as u32, 2, 20 + (x % 30) as u32)),
    );
    if x.is_multiple_of(4) {
        p.preferences.add(
            "weight",
            PrivacyTuple::from_point("pr", pt(4, 1 + (x % 4) as u32, 10)),
        );
    }
    if !x.is_multiple_of(3) {
        p.preferences.add(
            "age",
            PrivacyTuple::from_point("research", pt(2 + (x % 3) as u32, 1 + (x % 4) as u32, 45)),
        );
    }
    if x.is_multiple_of(5) {
        p.preferences
            .add("weight", PrivacyTuple::from_point("ops", pt(5, 5, 90)));
    }
    if x.is_multiple_of(7) {
        p.preferences
            .add("weight", PrivacyTuple::from_point("mystery", pt(9, 9, 9)));
        p.preferences
            .add("shoe_size", PrivacyTuple::from_point("pr", pt(9, 9, 9)));
    }
    p.sensitivities.insert(
        "weight".into(),
        DatumSensitivity::new(1 + (x % 6) as u32, 1, 1 + (x % 3) as u32, 2),
    );
    if x.is_multiple_of(2) {
        p.sensitivities
            .insert("age".into(), DatumSensitivity::new(2, 1, 1, 1));
    }
    p
}

const ATTRS: [&str; 3] = ["weight", "age", "shoe_size"];
const PURPOSES: [&str; 4] = ["pr", "research", "ops", "mystery"];

/// Decode one `(kind, id_sel, x)` integer tuple into a [`DeltaOp`] against
/// a population of `n` original ids. `id_sel` deliberately overshoots `n`
/// sometimes, producing upserts of new ids and edits/removals of unknown
/// ids (silent no-ops on both the compiled and the profile-replay side).
fn decode_op(n: usize, kind: u32, id_sel: u64, x: u64) -> DeltaOp {
    let id = id_sel % (n as u64 + n as u64 / 2 + 4);
    match kind % 6 {
        0 | 1 => DeltaOp::Upsert(profile_for(id, x)),
        2 => DeltaOp::Remove(ProviderId(id)),
        3 => {
            let attribute = ATTRS[(x % ATTRS.len() as u64) as usize].to_string();
            let tuples = (0..x % 3)
                .map(|t| {
                    PrivacyTuple::from_point(
                        PURPOSES[((x + t) % PURPOSES.len() as u64) as usize],
                        pt(
                            1 + ((x + t) % 6) as u32,
                            1 + (x % 4) as u32,
                            10 + (x % 50) as u32,
                        ),
                    )
                })
                .collect();
            DeltaOp::SetAttributePrefs {
                id: ProviderId(id),
                attribute,
                tuples,
            }
        }
        4 => DeltaOp::SetSensitivity {
            id: ProviderId(id),
            attribute: ATTRS[(x % ATTRS.len() as u64) as usize].to_string(),
            sensitivity: DatumSensitivity::new(
                (x % 7) as u32,
                (x % 3) as u32,
                ((x / 3) % 4) as u32,
                (x % 5) as u32,
            ),
        },
        _ => DeltaOp::SetThreshold {
            id: ProviderId(id),
            threshold: x % 300,
        },
    }
}

fn decode_delta(n: usize, ops: &[(u32, u64, u64)]) -> PopulationDelta {
    let mut delta = PopulationDelta::new();
    for &(kind, id_sel, x) in ops {
        delta.push(decode_op(n, kind, id_sel, x));
    }
    delta
}

fn weights() -> AttributeSensitivities {
    let mut w = AttributeSensitivities::new();
    w.set("weight", 4);
    w.set("age", 2);
    w
}

fn policy(level: u32) -> HousePolicy {
    let mut b = HousePolicy::builder("h").tuple(
        "weight",
        PrivacyTuple::from_point("pr", pt(level, 3, 30 + level)),
    );
    if level.is_multiple_of(2) {
        b = b.tuple(
            "age",
            PrivacyTuple::from_point("research", pt(2 + level / 3, 2, 60)),
        );
    }
    if level >= 5 {
        b = b.tuple("weight", PrivacyTuple::from_point("billing", pt(3, 3, 40)));
    }
    if level >= 7 {
        b = b.tuple("weight", PrivacyTuple::from_point("ads", pt(3, 3, 365)));
    }
    b.build()
}

/// billing ⊑ pr ⊑ ops; research ⊑ ops.
fn lattice() -> PurposeLattice {
    let mut l = PurposeLattice::new();
    l.add_edge("billing", "pr").unwrap();
    l.add_edge("pr", "ops").unwrap();
    l.add_edge("research", "ops").unwrap();
    l
}

fn engine(hp: &HousePolicy) -> AuditEngine {
    AuditEngine::new(hp.clone(), ["weight", "age"], weights())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Delta-applied compiled population == fresh compile of the mutated
    /// profiles, as serialized JSON reports, flat and lattice.
    #[test]
    fn delta_applied_population_equals_fresh_compile(
        seed in 0u64..1_000_000,
        n in 1usize..80,
        level in 0u32..10,
        ops in proptest::collection::vec((0u32..6, 0u64..200, 0u64..1_000), 1..40),
    ) {
        let profiles = population(n, seed);
        let delta = decode_delta(n, &ops);

        let mut pop = CompiledPopulation::from_profiles(&profiles);
        let outcome = pop.apply_delta(&delta).unwrap();
        prop_assert_eq!(pop.epoch(), 1);
        prop_assert_eq!(outcome.epoch, 1);

        let mut mutated = profiles;
        delta.apply_to_profiles(&mut mutated);
        let fresh = CompiledPopulation::from_profiles(&mutated);
        prop_assert_eq!(pop.len(), fresh.len());

        for with_lattice in [false, true] {
            let mut eng = engine(&policy(level));
            if with_lattice {
                eng = eng.with_lattice(lattice());
            }
            let via_delta = serde_json::to_string(&eng.audit_compiled(&pop)).unwrap();
            let via_fresh = serde_json::to_string(&eng.audit_compiled(&fresh)).unwrap();
            prop_assert_eq!(&via_delta, &via_fresh, "lattice={}", with_lattice);
        }
    }

    /// Delta-fed live index == fresh build over the mutated profiles, and
    /// both equal the reference audit: per-provider scores and flags, and
    /// the maintained aggregates, flat and lattice.
    #[test]
    fn delta_fed_index_equals_fresh_build_and_reference(
        seed in 0u64..1_000_000,
        n in 1usize..80,
        level in 0u32..10,
        with_lattice in 0u32..2,
        ops in proptest::collection::vec((0u32..6, 0u64..200, 0u64..1_000), 1..40),
    ) {
        let profiles = population(n, seed);
        let delta = decode_delta(n, &ops);
        let mut eng = engine(&policy(level));
        if with_lattice == 1 {
            eng = eng.with_lattice(lattice());
        }

        let mut live =
            LiveViolationIndex::new(eng.clone(), CompiledPopulation::from_profiles(&profiles));
        live.apply_delta(&delta).unwrap();

        let mut mutated = profiles;
        delta.apply_to_profiles(&mut mutated);
        let fresh = LiveViolationIndex::new(eng.clone(), CompiledPopulation::from_profiles(&mutated));
        prop_assert_eq!(live.outcome(), fresh.outcome());

        // Occurrence order may differ (swap-remove vs rebuild), so compare
        // per provider id.
        let reference = eng.run_reference(&mutated);
        prop_assert_eq!(live.compiled_population().len(), mutated.len());
        for audited in &reference.providers {
            let i = live.compiled_population().occurrence_of(audited.provider).unwrap();
            prop_assert_eq!(live.score(i), audited.score, "id {:?}", audited.provider);
            prop_assert_eq!(live.violated(i), audited.violated, "id {:?}", audited.provider);
            prop_assert_eq!(live.defaulted(i), audited.defaulted, "id {:?}", audited.provider);
        }
        prop_assert_eq!(live.outcome().total_violations, reference.total_violations);
        prop_assert_eq!(live.p_violation(), reference.p_violation());
        prop_assert_eq!(live.p_default(), reference.p_default());
    }

    /// The compiled path's [`DeltaOutcome::skipped`] counter agrees with
    /// an id-set walk of the same op sequence: exactly the ops that named
    /// an id absent *at their point in the sequence* are counted, and the
    /// profile-replay oracle treats those same ops as no-ops (the states
    /// still converge). Guards the silent-skip fix: unknown-id ops are
    /// counted, never silently dropped.
    #[test]
    fn skipped_counter_matches_oracle_membership(
        seed in 0u64..1_000_000,
        n in 1usize..60,
        ops in proptest::collection::vec((0u32..6, 0u64..200, 0u64..1_000), 1..40),
    ) {
        let profiles = population(n, seed);
        let delta = decode_delta(n, &ops);

        // Walk the ops against the evolving id set, exactly as the
        // profile oracle binds them.
        let mut present: std::collections::HashSet<u64> =
            profiles.iter().map(|p| p.id().0).collect();
        let mut expected_skips = 0u64;
        for op in delta.ops() {
            match op {
                DeltaOp::Upsert(p) => {
                    present.insert(p.id().0);
                }
                DeltaOp::Remove(id) => {
                    if !present.remove(&id.0) {
                        expected_skips += 1;
                    }
                }
                DeltaOp::SetAttributePrefs { id, .. }
                | DeltaOp::SetSensitivity { id, .. }
                | DeltaOp::SetThreshold { id, .. } => {
                    if !present.contains(&id.0) {
                        expected_skips += 1;
                    }
                }
            }
        }

        let mut pop = CompiledPopulation::from_profiles(&profiles);
        let outcome = pop.apply_delta(&delta).unwrap();
        prop_assert_eq!(outcome.skipped, expected_skips);

        // And the skipped ops bound to nothing on the oracle side either:
        // both paths land on the same population.
        let mut mutated = profiles;
        delta.apply_to_profiles(&mut mutated);
        let fresh = CompiledPopulation::from_profiles(&mutated);
        prop_assert_eq!(pop.len(), fresh.len());
        let eng = engine(&policy(4));
        prop_assert_eq!(
            serde_json::to_string(&eng.audit_compiled(&pop)).unwrap(),
            serde_json::to_string(&eng.audit_compiled(&fresh)).unwrap()
        );
    }

    /// After a random delta the packed counts pass — now running over a
    /// row table carrying dead (refcount-zero) slots and freelists — still
    /// equals the reference audit of the mutated profiles on every exact
    /// aggregate, flat and lattice.
    #[test]
    fn delta_churned_counts_equal_reference(
        seed in 0u64..1_000_000,
        n in 1usize..80,
        level in 0u32..10,
        with_lattice in 0u32..2,
        ops in proptest::collection::vec((0u32..6, 0u64..200, 0u64..1_000), 1..40),
    ) {
        let profiles = population(n, seed);
        let delta = decode_delta(n, &ops);
        let mut pop = CompiledPopulation::from_profiles(&profiles);
        pop.apply_delta(&delta).unwrap();
        pop.debug_validate();

        let mut mutated = profiles;
        delta.apply_to_profiles(&mut mutated);
        let mut eng = engine(&policy(level));
        if with_lattice == 1 {
            eng = eng.with_lattice(lattice());
        }
        let reference = eng.run_reference(&mutated);
        let counts = eng.counts(&pop);
        prop_assert_eq!(counts.population, mutated.len());
        prop_assert_eq!(counts.total_violations, reference.total_violations);
        prop_assert_eq!(
            counts.violated,
            reference.providers.iter().filter(|p| p.violated).count()
        );
        prop_assert_eq!(
            counts.defaulted,
            reference.providers.iter().filter(|p| p.defaulted).count()
        );
    }

    /// Splitting one delta into two sequential batches lands on the same
    /// state as applying it whole (epochs aside) — deltas compose.
    #[test]
    fn split_deltas_compose(
        seed in 0u64..1_000_000,
        n in 1usize..60,
        split in 0usize..40,
        ops in proptest::collection::vec((0u32..6, 0u64..200, 0u64..1_000), 2..40),
    ) {
        let profiles = population(n, seed);
        let delta = decode_delta(n, &ops);
        let cut = split % (ops.len() + 1);
        let first = decode_delta(n, &ops[..cut]);
        let second = decode_delta(n, &ops[cut..]);

        let mut whole = CompiledPopulation::from_profiles(&profiles);
        whole.apply_delta(&delta).unwrap();
        let mut batched = CompiledPopulation::from_profiles(&profiles);
        batched.apply_delta(&first).unwrap();
        batched.apply_delta(&second).unwrap();
        prop_assert_eq!(batched.epoch(), 2);

        let eng = engine(&policy(6));
        prop_assert_eq!(
            serde_json::to_string(&eng.audit_compiled(&whole)).unwrap(),
            serde_json::to_string(&eng.audit_compiled(&batched)).unwrap()
        );
    }
}

/// Drive every intern-table refcount to zero and back: remove the whole
/// population, re-upsert identical content, then flap one provider's
/// preferences between two shapes for several rounds. The freed slots
/// must be recycled (resident footprint returns to baseline after the
/// refill and stays flat once both flap shapes have existed), the table
/// invariants must hold after every epoch, and the packed counts pass
/// must agree with a fresh compile even while dead slots are present.
#[test]
fn refcounts_drain_to_zero_and_slots_recycle() {
    let profiles = population(12, 99);
    let mut pop = CompiledPopulation::from_profiles(&profiles);
    // An empty delta forces the lazy provider index into existence so the
    // baseline footprint is comparable with the post-churn one.
    pop.apply_delta(&PopulationDelta::new()).unwrap();
    let baseline_rows = pop.unique_row_count();
    let baseline_bytes = pop.resident_bytes();
    assert!(baseline_rows > 0);

    // Drain: removing every provider takes every refcount to zero.
    let mut drain = PopulationDelta::new();
    for p in &profiles {
        drain.push(DeltaOp::Remove(p.id()));
    }
    pop.apply_delta(&drain).unwrap();
    pop.debug_validate();
    assert_eq!(pop.len(), 0);
    assert_eq!(pop.unique_row_count(), 0);

    // Refill with identical content: the rows re-intern into the freed
    // slots, so the footprint lands exactly back on the baseline.
    let mut refill = PopulationDelta::new();
    for p in &profiles {
        refill.push(DeltaOp::Upsert(p.clone()));
    }
    pop.apply_delta(&refill).unwrap();
    pop.debug_validate();
    assert_eq!(pop.unique_row_count(), baseline_rows);
    assert_eq!(pop.resident_bytes(), baseline_bytes);

    // Flap one provider between two preference shapes. The first two
    // rounds may grow the table (each shape interned once); after that
    // every flap frees a slot of exactly the shape the next flap needs,
    // so the footprint must be flat.
    let victim = profiles[4].id();
    let eng = engine(&policy(4));
    let mut mutated = profiles.clone();
    let mut sizes = Vec::new();
    for round in 0..8u32 {
        let tuples = if round.is_multiple_of(2) {
            vec![PrivacyTuple::from_point("ops", pt(7, 7, 70))]
        } else {
            vec![
                PrivacyTuple::from_point("pr", pt(2, 2, 20)),
                PrivacyTuple::from_point("research", pt(3, 1, 45)),
            ]
        };
        let mut flap = PopulationDelta::new();
        flap.push(DeltaOp::SetAttributePrefs {
            id: victim,
            attribute: "weight".into(),
            tuples,
        });
        pop.apply_delta(&flap).unwrap();
        pop.debug_validate();
        flap.apply_to_profiles(&mut mutated);
        sizes.push(pop.resident_bytes());

        let fresh = CompiledPopulation::from_profiles(&mutated);
        assert_eq!(
            serde_json::to_string(&eng.audit_compiled(&pop)).unwrap(),
            serde_json::to_string(&eng.audit_compiled(&fresh)).unwrap(),
            "round {round}"
        );
        assert_eq!(eng.counts(&pop), eng.counts(&fresh), "round {round}");
    }
    assert!(
        sizes[2..].windows(2).all(|w| w[0] == w[1]),
        "footprint flat after both shapes exist: {sizes:?}"
    );
}
