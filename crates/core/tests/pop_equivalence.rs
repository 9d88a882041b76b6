//! Property suite for the compiled-population contract: every path that
//! routes through [`qpv_core::CompiledPopulation`] — the one-pass
//! audit, the counts-only fast path and the batched multi-policy sweep —
//! produces results
//! **bitwise identical** to the string-resolving reference path
//! ([`qpv_core::AuditEngine::run_reference`]), flat and lattice, on
//! arbitrary populations.
//!
//! The generators are shared in shape with `plan_equivalence.rs`:
//! duplicate `(attribute, purpose)` preference tuples, purposes only the
//! lattice knows, purposes nobody stated, attributes the table doesn't
//! store, duplicate provider ids, and one ~100×-skewed provider.

use proptest::prelude::*;

use qpv_core::sensitivity::{AttributeSensitivities, DatumSensitivity};
use qpv_core::{AuditEngine, CompiledPopulation, ProviderProfile};
use qpv_policy::{HousePolicy, ProviderId};
use qpv_taxonomy::{Level, PrivacyPoint, PrivacyTuple, PurposeLattice};

fn pt(v: u32, g: u32, r: u32) -> PrivacyPoint {
    PrivacyPoint::from_raw(v, g, r)
}

/// A structurally varied population derived from a single seed, stressing
/// every resolution rule the population compiles away.
fn population(n: usize, seed: u64) -> Vec<ProviderProfile> {
    (0..n as u64)
        .map(|i| {
            let x = i.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(seed);
            let mut p = ProviderProfile::new(ProviderId(i), 10 + (x % 140));
            p.preferences.add(
                "weight",
                PrivacyTuple::from_point("pr", pt(1 + (x % 5) as u32, 2, 20 + (x % 30) as u32)),
            );
            if x % 4 == 0 {
                p.preferences.add(
                    "weight",
                    PrivacyTuple::from_point("pr", pt(4, 1 + (x % 4) as u32, 10)),
                );
            }
            if x % 3 != 0 {
                p.preferences.add(
                    "age",
                    PrivacyTuple::from_point(
                        "research",
                        pt(2 + (x % 3) as u32, 1 + (x % 4) as u32, 45),
                    ),
                );
            }
            if x % 5 == 0 {
                p.preferences
                    .add("weight", PrivacyTuple::from_point("ops", pt(5, 5, 90)));
            }
            if x % 7 == 0 {
                p.preferences
                    .add("weight", PrivacyTuple::from_point("mystery", pt(9, 9, 9)));
                p.preferences
                    .add("shoe_size", PrivacyTuple::from_point("pr", pt(9, 9, 9)));
            }
            p.sensitivities.insert(
                "weight".into(),
                DatumSensitivity::new(1 + (x % 6) as u32, 1, 1 + (x % 3) as u32, 2),
            );
            if x % 2 == 0 {
                p.sensitivities
                    .insert("age".into(), DatumSensitivity::new(2, 1, 1, 1));
            }
            p
        })
        .collect()
}

/// Blow up one provider's preference list to ~100× the average.
fn skew(profiles: &mut [ProviderProfile], victim: usize) {
    for i in 0..600u32 {
        profiles[victim].preferences.add(
            "weight",
            PrivacyTuple::from_point("pr", pt(1 + (i % 5), 2, 20 + (i % 30))),
        );
    }
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

    /// One compiled pass == reference, flat and lattice, with the counts
    /// fast path agreeing on every aggregate.
    #[test]
    fn compiled_population_equals_reference(
        seed in 0u64..1_000_000,
        n in 1usize..120,
        level in 0u32..10,
        with_lattice in 0u32..2,
    ) {
        let profiles = population(n, seed);
        let mut eng = engine(&policy(level));
        if with_lattice == 1 {
            eng = eng.with_lattice(lattice());
        }
        let pop = CompiledPopulation::from_profiles(&profiles);
        let reference = eng.run_reference(&profiles);
        prop_assert_eq!(&eng.audit_compiled(&pop), &reference);
        let counts = eng.counts(&pop);
        prop_assert_eq!(counts.total_violations, reference.total_violations);
        prop_assert_eq!(counts.p_violation(), reference.p_violation());
        prop_assert_eq!(counts.p_default(), reference.p_default());
        prop_assert_eq!(counts.remaining(), reference.remaining());
    }

    /// One compile + one fused K-policy pass == K independent reference
    /// audits.
    #[test]
    fn audit_many_policies_equals_reference_per_policy(
        seed in 0u64..1_000_000,
        n in 1usize..80,
        levels in proptest::collection::vec(0u32..10, 1..5),
        with_lattice in 0u32..2,
    ) {
        let profiles = population(n, seed);
        let mut eng = engine(&policy(0));
        if with_lattice == 1 {
            eng = eng.with_lattice(lattice());
        }
        let pop = CompiledPopulation::from_profiles(&profiles);
        let policies: Vec<HousePolicy> = levels.iter().map(|&l| policy(l)).collect();
        let outcomes = eng.audit_many_policies(&pop, &policies);
        prop_assert_eq!(outcomes.len(), policies.len());
        for (outcome, hp) in outcomes.iter().zip(&policies) {
            let mut one = engine(hp);
            if with_lattice == 1 {
                one = one.with_lattice(lattice());
            }
            let reference = one.run_reference(&profiles);
            prop_assert_eq!(outcome.total_violations, reference.total_violations);
            prop_assert_eq!(outcome.p_violation(), reference.p_violation());
            prop_assert_eq!(outcome.p_default(), reference.p_default());
            prop_assert_eq!(outcome.population, profiles.len());
        }
    }

    /// Larger compiled populations with one skewed provider equal the
    /// reference, flat and lattice.
    #[test]
    fn skewed_compiled_population_equals_reference(
        seed in 0u64..1_000_000,
        n in 300usize..600,
        level in 0u32..10,
        with_lattice in 0u32..2,
    ) {
        let mut profiles = population(n, seed);
        skew(&mut profiles, n / 2);
        let mut eng = engine(&policy(level));
        if with_lattice == 1 {
            eng = eng.with_lattice(lattice());
        }
        let pop = CompiledPopulation::from_profiles(&profiles);
        prop_assert_eq!(eng.audit_compiled(&pop), eng.run_reference(&profiles));
    }
}

/// A segment-clustered population: preference/sensitivity content drawn
/// from a pool of `k` templates (the [`population`] generator doubles as
/// the template mint), thresholds individual per provider — the shape
/// the packed unique-row dedup is built for.
fn clustered_population(n: usize, k: usize, seed: u64) -> Vec<ProviderProfile> {
    let templates = population(k, seed);
    (0..n as u64)
        .map(|i| {
            let x = i.wrapping_mul(0xD1B5_4A32_D192_ED03).wrapping_add(seed);
            let mut p = templates[(x % k as u64) as usize].clone();
            p.preferences.provider = ProviderId(i);
            p.threshold = 5 + (x % 200);
            p
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random segment-clustered mixes: the packed counts pass (which
    /// scores each unique row once and aggregates by multiplicity) equals
    /// the reference on every aggregate — including the exact violated /
    /// defaulted counts — flat and lattice, and the dedup actually bites.
    #[test]
    fn clustered_mixes_packed_counts_equal_reference(
        seed in 0u64..1_000_000,
        n in 50usize..300,
        k in 1usize..8,
        level in 0u32..10,
        with_lattice in 0u32..2,
    ) {
        let profiles = clustered_population(n, k, seed);
        let mut eng = engine(&policy(level));
        if with_lattice == 1 {
            eng = eng.with_lattice(lattice());
        }
        let pop = CompiledPopulation::from_profiles(&profiles);
        pop.debug_validate();
        prop_assert!(pop.unique_row_count() <= k, "≤ k unique rows");
        prop_assert!(
            pop.dedup_ratio() >= n as f64 / k as f64 - 1e-9,
            "dedup ratio {} at n={} k={}", pop.dedup_ratio(), n, k
        );
        let reference = eng.run_reference(&profiles);
        prop_assert_eq!(&eng.audit_compiled(&pop), &reference);
        let counts = eng.counts(&pop);
        prop_assert_eq!(counts.total_violations, reference.total_violations);
        prop_assert_eq!(
            counts.violated,
            reference.providers.iter().filter(|p| p.violated).count()
        );
        prop_assert_eq!(
            counts.defaulted,
            reference.providers.iter().filter(|p| p.defaulted).count()
        );
        prop_assert_eq!(counts.population, n);
    }

    /// The fused K-policy sweep over a clustered population (one fill per
    /// unique row, one sweep per policy) equals per-policy reference
    /// audits.
    #[test]
    fn clustered_mixes_policy_sweep_equals_reference(
        seed in 0u64..1_000_000,
        n in 50usize..200,
        k in 1usize..6,
        levels in proptest::collection::vec(0u32..10, 1..5),
        with_lattice in 0u32..2,
    ) {
        let profiles = clustered_population(n, k, seed);
        let mut eng = engine(&policy(0));
        if with_lattice == 1 {
            eng = eng.with_lattice(lattice());
        }
        let pop = CompiledPopulation::from_profiles(&profiles);
        let policies: Vec<HousePolicy> = levels.iter().map(|&l| policy(l)).collect();
        let outcomes = eng.audit_many_policies(&pop, &policies);
        for (outcome, hp) in outcomes.iter().zip(&policies) {
            let mut one = engine(hp);
            if with_lattice == 1 {
                one = one.with_lattice(lattice());
            }
            let reference = one.run_reference(&profiles);
            prop_assert_eq!(outcome.total_violations, reference.total_violations);
            prop_assert_eq!(
                outcome.violated,
                reference.providers.iter().filter(|p| p.violated).count()
            );
            prop_assert_eq!(
                outcome.defaulted,
                reference.providers.iter().filter(|p| p.defaulted).count()
            );
        }
    }
}

// ---------------------------------------------------------------------------
// The fused K-plan kernel: one fill per unique row, one sweep per plan.
// ---------------------------------------------------------------------------

/// The table attributes of the fused-kernel cases: `height` is one the
/// population never states or carries a datum for.
const FUSED_ATTRS: [&str; 3] = ["weight", "age", "height"];

fn fused_engine(
    hp: &HousePolicy,
    weights: &AttributeSensitivities,
    lattice_mode: bool,
) -> AuditEngine {
    let eng = AuditEngine::new(hp.clone(), FUSED_ATTRS, weights.clone());
    if lattice_mode {
        eng.with_lattice(lattice())
    } else {
        eng
    }
}

/// Every fused outcome equals the per-policy `run_reference`, field by
/// field.
fn assert_outcomes_match_reference(
    profiles: &[ProviderProfile],
    policies: &[HousePolicy],
    weights: &AttributeSensitivities,
    lattice_mode: bool,
    outcomes: &[qpv_core::PolicyOutcome],
    ctx: &str,
) {
    assert_eq!(
        outcomes.len(),
        policies.len(),
        "{ctx}: one outcome per policy"
    );
    for (k, (outcome, hp)) in outcomes.iter().zip(policies).enumerate() {
        let reference = fused_engine(hp, weights, lattice_mode).run_reference(profiles);
        let violated = reference.providers.iter().filter(|p| p.violated).count();
        let defaulted = reference.providers.iter().filter(|p| p.defaulted).count();
        assert_eq!(
            outcome.total_violations, reference.total_violations,
            "{ctx}: policy {k} total"
        );
        assert_eq!(outcome.violated, violated, "{ctx}: policy {k} violated");
        assert_eq!(outcome.defaulted, defaulted, "{ctx}: policy {k} defaulted");
        assert_eq!(
            outcome.population,
            profiles.len(),
            "{ctx}: policy {k} population"
        );
    }
}

/// A heterogeneous sweep for one call: uniform widening steps, a step that
/// adds a purpose on every attribute, duplicate policy tuples on one cell
/// (under the lattice, `pr` and `billing` also share covering cells, so
/// the fill routes one preference cell into several lanes), a tuple on an
/// attribute the population lacks, and an empty policy.
fn heterogeneous_policies(base_level: u32) -> Vec<HousePolicy> {
    let base = policy(base_level);
    let mut set: Vec<HousePolicy> = (0..3).map(|s| base.widened_uniform(s)).collect();
    set.push(base.with_new_purpose("resale", pt(2, 2, 30)));
    set.push(
        HousePolicy::builder("dup")
            .tuple("weight", PrivacyTuple::from_point("pr", pt(2, 3, 25)))
            .tuple("weight", PrivacyTuple::from_point("pr", pt(5, 1, 40)))
            .tuple("weight", PrivacyTuple::from_point("billing", pt(3, 2, 35)))
            .tuple("age", PrivacyTuple::from_point("research", pt(3, 2, 50)))
            .build(),
    );
    set.push(
        HousePolicy::builder("absent")
            .tuple("height", PrivacyTuple::from_point("pr", pt(1, 1, 1)))
            .tuple("weight", PrivacyTuple::from_point("ops", pt(4, 4, 60)))
            .build(),
    );
    set.push(HousePolicy::new("empty"));
    set.push(base.clone()); // the base again: a whole duplicate plan
    set
}

/// The two population shapes every fused case runs on.
fn fused_populations(n: usize, seed: u64) -> [(&'static str, Vec<ProviderProfile>); 2] {
    [
        ("unique", population(n, seed)),
        ("clustered", clustered_population(n, 5, seed)),
    ]
}

#[test]
fn fused_kernel_handles_zero_and_one_plan() {
    for (shape, profiles) in fused_populations(150, 31) {
        let pop = CompiledPopulation::from_profiles(&profiles);
        for lattice_mode in [false, true] {
            let ctx = format!("{shape} lattice={lattice_mode}");
            let eng = fused_engine(&policy(4), &weights(), lattice_mode);
            assert!(eng.audit_many_policies(&pop, &[]).is_empty(), "{ctx}");
            let one = [policy(6)];
            let outcomes = eng.audit_many_policies(&pop, &one);
            assert_outcomes_match_reference(
                &profiles,
                &one,
                &weights(),
                lattice_mode,
                &outcomes,
                &ctx,
            );
            assert_eq!(eng.counts_with_policy(&pop, &one[0]), outcomes[0], "{ctx}");
            assert_eq!(
                eng.counts(&pop),
                eng.audit_many_policies(&pop, &[policy(4)])[0],
                "{ctx}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// One fused call over a heterogeneous set equals one reference audit
    /// per policy, flat and lattice, on all-unique and clustered
    /// populations.
    #[test]
    fn fused_heterogeneous_sweep_equals_reference_per_policy(
        seed in 0u64..1_000_000,
        n in 1usize..300,
        base_level in 0u32..10,
    ) {
        let policies = heterogeneous_policies(base_level);
        for (shape, profiles) in fused_populations(n, seed) {
            let pop = CompiledPopulation::from_profiles(&profiles);
            for lattice_mode in [false, true] {
                let eng = fused_engine(&policy(0), &weights(), lattice_mode);
                let outcomes = eng.audit_many_policies(&pop, &policies);
                assert_outcomes_match_reference(
                    &profiles,
                    &policies,
                    &weights(),
                    lattice_mode,
                    &outcomes,
                    &format!("{shape} n={n} lattice={lattice_mode}"),
                );
            }
        }
    }
}

/// One plan of the call saturates (its points near `u32::MAX` against
/// large datum products), so it takes the fallback sweep, while the
/// others in the same call stay on the factored sweep — and every
/// outcome still equals its reference.
#[test]
fn fused_call_mixes_fallback_and_exact_plans() {
    let big = u32::MAX - 3;
    let large = 1u32 << 20;
    let hot = HousePolicy::builder("hot")
        .tuple("weight", PrivacyTuple::from_point("pr", pt(big, big, big)))
        .tuple("age", PrivacyTuple::from_point("research", pt(7, big, 60)))
        .build();
    let mut policies = heterogeneous_policies(3);
    policies.insert(2, hot.clone());
    for (shape, mut profiles) in fused_populations(200, 4242) {
        for (i, p) in profiles.iter_mut().enumerate() {
            if i % 3 == 0 {
                p.sensitivities.insert(
                    "weight".into(),
                    DatumSensitivity::new(large, large, 1 + (i as u32 % 7), large),
                );
            }
        }
        let pop = CompiledPopulation::from_profiles(&profiles);
        for lattice_mode in [false, true] {
            let ctx = format!("{shape} lattice={lattice_mode}");
            // The hot plan genuinely saturates; the base plan cannot.
            let hot_ref = fused_engine(&hot, &weights(), lattice_mode).run_reference(&profiles);
            assert!(
                hot_ref.providers.iter().any(|p| p.score == u64::MAX),
                "{ctx}"
            );
            let eng = fused_engine(&policy(0), &weights(), lattice_mode);
            let outcomes = eng.audit_many_policies(&pop, &policies);
            assert_outcomes_match_reference(
                &profiles,
                &policies,
                &weights(),
                lattice_mode,
                &outcomes,
                &ctx,
            );
        }
    }
}

/// `WhatIf::evaluate_all` over a heterogeneous set (one fused call) agrees
/// with the reference audit of every scenario.
#[test]
fn whatif_over_a_heterogeneous_set_equals_reference() {
    use qpv_core::whatif::WhatIf;
    let scenarios: Vec<(String, HousePolicy)> = heterogeneous_policies(5)
        .into_iter()
        .enumerate()
        .map(|(i, p)| (format!("s{i}"), p))
        .collect();
    for (shape, profiles) in fused_populations(180, 913) {
        for lattice_mode in [false, true] {
            let ctx = format!("{shape} lattice={lattice_mode}");
            let eng = fused_engine(&policy(0), &weights(), lattice_mode);
            let outcomes = WhatIf::new(&eng, &profiles).evaluate_all(&scenarios);
            assert_eq!(outcomes.len(), scenarios.len(), "{ctx}");
            for (outcome, (label, hp)) in outcomes.iter().zip(&scenarios) {
                let reference = fused_engine(hp, &weights(), lattice_mode).run_reference(&profiles);
                assert_eq!(&outcome.label, label, "{ctx}");
                assert_eq!(
                    outcome.total_violations, reference.total_violations,
                    "{ctx} {label}"
                );
                assert_eq!(
                    outcome.p_violation,
                    reference.p_violation(),
                    "{ctx} {label}"
                );
                assert_eq!(outcome.p_default, reference.p_default(), "{ctx} {label}");
                assert_eq!(outcome.remaining, reference.remaining(), "{ctx} {label}");
            }
        }
    }
}

/// `n` providers, each stating one tuple no other provider states, so
/// every provider is its own unique row.
fn distinct_population(n: usize, seed: u64) -> Vec<ProviderProfile> {
    let mut profiles = population(n, seed);
    for (i, p) in profiles.iter_mut().enumerate() {
        p.preferences.add(
            "age",
            PrivacyTuple::from_point("research", pt(3, 2, 100 + i as u32)),
        );
    }
    profiles
}

/// `n` distinct providers followed by `shared` providers that reuse
/// earlier providers' rows, so occurrences are out of slot order.
fn out_of_order_population(n: usize, shared: usize, seed: u64) -> Vec<ProviderProfile> {
    let mut profiles = distinct_population(n, seed);
    for j in 0..shared {
        let mut p = profiles[(j * 7919) % n].clone();
        p.preferences.provider = ProviderId((n + j) as u64);
        p.threshold = 5 + (j as u64 * 37) % 300;
        profiles.push(p);
    }
    profiles
}

/// The kernel counts defaults block by block over thresholds grouped by
/// unique row, lent in place when the occurrences are stored in slot
/// order each on its own id-row, or else from a table of every plan's
/// score per unique row. Every such layout gives the reference's counts:
/// a clustered population spanning several occurrence chunks, all-unique
/// rows in slot order, shared rows out of slot order, and repeated ids
/// whose later occurrences keep slot order but share an earlier id-row.
#[test]
fn fused_defaults_match_reference_on_every_occurrence_layout() {
    let policies = heterogeneous_policies(4);
    let mut repeated_ids = distinct_population(1_000, 74);
    for (j, mut p) in distinct_population(1_200, 75)
        .into_iter()
        .skip(1_000)
        .enumerate()
    {
        // No sensitivities: the earlier occurrence keeps its unique row.
        p.preferences.provider = ProviderId(3 * j as u64);
        p.sensitivities.clear();
        repeated_ids.push(p);
    }
    for (shape, profiles) in [
        ("clustered", clustered_population(2_500, 5, 71)),
        ("in slot order", distinct_population(1_000, 72)),
        ("out of slot order", out_of_order_population(1_000, 500, 73)),
        ("repeated ids", repeated_ids),
    ] {
        let pop = CompiledPopulation::from_profiles(&profiles);
        pop.debug_validate();
        for lattice_mode in [false, true] {
            let eng = fused_engine(&policy(0), &weights(), lattice_mode);
            let outcomes = eng.audit_many_policies(&pop, &policies);
            assert_outcomes_match_reference(
                &profiles,
                &policies,
                &weights(),
                lattice_mode,
                &outcomes,
                &format!("{shape} lattice={lattice_mode}"),
            );
        }
    }
}

/// A sweep too wide for the score table (64 plans × 17k unique rows out of
/// slot order, past its 2^20 entries) groups the thresholds by unique row
/// once per call. Every outcome equals its own K = 1 call, which keeps a
/// score table, and the first and last equal the reference.
#[test]
fn fused_wide_sweep_groups_thresholds_and_matches_single_calls() {
    let policies: Vec<HousePolicy> = (0..8).flat_map(heterogeneous_policies).collect();
    assert_eq!(policies.len(), 64);
    let profiles = out_of_order_population(17_000, 1_500, 76);
    let pop = CompiledPopulation::from_profiles(&profiles);
    assert_eq!(pop.unique_row_count(), 17_000);
    for lattice_mode in [false, true] {
        let eng = fused_engine(&policy(0), &weights(), lattice_mode);
        let outcomes = eng.audit_many_policies(&pop, &policies);
        for (k, (outcome, hp)) in outcomes.iter().zip(&policies).enumerate() {
            assert_eq!(
                outcome,
                &eng.counts_with_policy(&pop, hp),
                "lattice={lattice_mode} policy {k}"
            );
        }
        let ends = [0, policies.len() - 1];
        assert_outcomes_match_reference(
            &profiles,
            &ends.map(|k| policies[k].clone()),
            &weights(),
            lattice_mode,
            &ends.map(|k| outcomes[k].clone()),
            &format!("wide lattice={lattice_mode}"),
        );
    }
}

/// Duplicate provider ids: preferences stay per-occurrence while datums and
/// thresholds resolve through the merged, last-wins view — exactly like the
/// assembled reference structures.
#[test]
fn duplicate_provider_ids_match_reference() {
    let mut profiles = population(40, 77);
    let mut dup = ProviderProfile::new(ProviderId(3), 9999);
    dup.preferences
        .add("weight", PrivacyTuple::from_point("pr", pt(1, 1, 1)));
    dup.sensitivities
        .insert("weight".into(), DatumSensitivity::new(6, 2, 3, 1));
    dup.sensitivities
        .insert("age".into(), DatumSensitivity::new(5, 1, 1, 4));
    profiles.push(dup);
    for with_lattice in [false, true] {
        let mut eng = engine(&policy(6));
        if with_lattice {
            eng = eng.with_lattice(lattice());
        }
        let pop = CompiledPopulation::from_profiles(&profiles);
        let reference = eng.run_reference(&profiles);
        assert_eq!(
            eng.audit_compiled(&pop),
            reference,
            "lattice={with_lattice}"
        );
        let counts = eng.counts(&pop);
        assert_eq!(counts.total_violations, reference.total_violations);
        assert_eq!(counts.p_default(), reference.p_default());
    }
}

/// Deterministic skew-stress: the compiled-population report must be
/// **byte-identical** (serialized JSON) to the reference one.
#[test]
fn skewed_report_is_byte_identical() {
    let mut profiles = population(500, 1234);
    skew(&mut profiles, 250);
    for with_lattice in [false, true] {
        let mut eng = engine(&policy(6));
        if with_lattice {
            eng = eng.with_lattice(lattice());
        }
        let pop = CompiledPopulation::from_profiles(&profiles);
        let sequential = eng.audit_compiled(&pop);
        let reference = eng.run_reference(&profiles);
        assert_eq!(sequential, reference, "lattice={with_lattice}");
        assert_eq!(
            serde_json::to_string(&sequential).unwrap(),
            serde_json::to_string(&reference).unwrap(),
            "lattice={with_lattice}"
        );
    }
}

/// Saturating magnitudes: policy points, attribute weights, and datum
/// sensitivities near `u32::MAX` push the Eq. 14 severity terms past
/// `u64::MAX`, so the packed sweep's saturation precheck must reject the
/// factored fast path and the exact fallback must replay the reference's
/// `saturating_mul`/`saturating_add` chain — flat and lattice, full
/// audits and counts.
#[test]
fn saturating_magnitudes_force_fallback_and_match_reference() {
    let big = u32::MAX - 3;
    let mut profiles = population(60, 4242);
    // Maximal datum sensitivities on some providers so the per-term
    // product `(diff·w)·(value·along)` genuinely clips at `u64::MAX`,
    // rather than merely tripping the pessimistic precheck.
    for (i, p) in profiles.iter_mut().enumerate() {
        if i % 3 == 0 {
            p.sensitivities.insert(
                "weight".into(),
                DatumSensitivity::new(big, big, 1 + (i as u32 % 7), big),
            );
        }
    }
    let hp = HousePolicy::builder("h")
        .tuple("weight", PrivacyTuple::from_point("pr", pt(big, big, big)))
        .tuple("age", PrivacyTuple::from_point("research", pt(7, big, 60)))
        .build();
    let mut w = AttributeSensitivities::new();
    w.set("weight", big);
    w.set("age", 3);
    for with_lattice in [false, true] {
        let mut eng = AuditEngine::new(hp.clone(), ["weight", "age"], w.clone());
        if with_lattice {
            eng = eng.with_lattice(lattice());
        }
        let pop = CompiledPopulation::from_profiles(&profiles);
        pop.debug_validate();
        let reference = eng.run_reference(&profiles);
        assert!(
            reference.providers.iter().any(|p| p.score == u64::MAX),
            "expected genuine chain saturation, lattice={with_lattice}"
        );
        assert_eq!(
            eng.audit_compiled(&pop),
            reference,
            "lattice={with_lattice}"
        );
        let counts = eng.counts(&pop);
        assert_eq!(counts.total_violations, reference.total_violations);
        assert_eq!(
            counts.violated,
            reference.providers.iter().filter(|p| p.violated).count()
        );
        assert_eq!(
            counts.defaulted,
            reference.providers.iter().filter(|p| p.defaulted).count()
        );
        assert_eq!(counts.population, profiles.len());
    }
}

/// A population scanned straight out of a `Ppdb` audits byte-identically
/// to one compiled from materialized profiles, and both to the reference,
/// flat and lattice — on a clean store and on adversarial store shapes the
/// write API never produces but a raw table can hold:
/// duplicate data-table ids, companion rows for ids missing from the data
/// table, interleaved (non-clustered) provider rows, overwritten
/// sensitivity and threshold rows (last-wins), and providers with no
/// threshold row.
#[test]
fn ppdb_scan_population_matches_profile_compilation() {
    for adversarial in [false, true] {
        let mut ppdb = stored_population(adversarial);
        let profiles = ppdb.all_profiles().unwrap();
        let scanned = ppdb.compiled_population().unwrap();
        scanned.debug_validate();
        assert_eq!(scanned.len(), profiles.len(), "adversarial={adversarial}");
        let materialized = CompiledPopulation::from_profiles(&profiles);
        for with_lattice in [false, true] {
            let mut eng = engine(&policy(6));
            if with_lattice {
                eng = eng.with_lattice(lattice());
            }
            let ctx = format!("adversarial={adversarial} lattice={with_lattice}");
            let report = serde_json::to_string(&eng.audit_compiled(&scanned)).unwrap();
            assert_eq!(
                report,
                serde_json::to_string(&eng.audit_compiled(&materialized)).unwrap(),
                "{ctx}"
            );
            assert_eq!(
                report,
                serde_json::to_string(&eng.run_reference(&profiles)).unwrap(),
                "{ctx}"
            );
            assert_eq!(eng.counts(&scanned), eng.counts(&materialized), "{ctx}");
        }
        if adversarial {
            // The shapes really are there: repeated ids, and a provider
            // audited at the default threshold of 0.
            let ids: std::collections::HashSet<_> = profiles.iter().map(|p| p.id()).collect();
            assert!(ids.len() < profiles.len());
            assert!(profiles.iter().any(|p| p.threshold == 0));
        }
    }
}

/// A `Ppdb` over [`population`]. The clean store goes through
/// `register_provider`; the adversarial one writes raw rows into the
/// companion tables in a shuffled order, with the shapes listed on
/// [`ppdb_scan_population_matches_profile_compilation`].
fn stored_population(adversarial: bool) -> qpv_core::Ppdb {
    use qpv_core::{Ppdb, PpdbConfig};
    use qpv_reldb::db::Database;
    use qpv_reldb::row::Row;
    use qpv_reldb::schema::SchemaBuilder;
    use qpv_reldb::types::DataType;
    use qpv_reldb::value::Value;

    let schema = SchemaBuilder::new()
        .column("provider_id", DataType::Int)
        .nullable_column("weight", DataType::Int)
        .nullable_column("age", DataType::Int)
        .build()
        .unwrap();
    let mut ppdb = Ppdb::create(
        Database::in_memory(),
        PpdbConfig::new("people", "provider_id"),
        schema,
    )
    .unwrap();
    let profiles = population(30, 99);
    let data = |id: u64| Row::from_values([Value::Int(id as i64), Value::Int(70), Value::Int(30)]);
    if !adversarial {
        for profile in &profiles {
            ppdb.register_provider(profile, data(profile.id().0))
                .unwrap();
        }
        return ppdb;
    }
    let int = |v: u64| Value::Int(v as i64);
    let text = |s: &str| Value::Text(s.to_string());
    let mut rows: Vec<(&str, Row)> = Vec::new();
    for p in &profiles {
        let id = p.id().0;
        rows.push(("people", data(id)));
        for t in p.preferences.tuples() {
            let point = t.tuple.point;
            rows.push((
                "_qpv_prefs",
                Row::from_values([
                    int(id),
                    text(&t.attribute),
                    text(t.tuple.purpose.name()),
                    int(point.visibility.raw() as u64),
                    int(point.granularity.raw() as u64),
                    int(point.retention.raw() as u64),
                ]),
            ));
        }
        for (attr, s) in &p.sensitivities {
            rows.push((
                "_qpv_sens",
                Row::from_values([
                    int(id),
                    text(attr),
                    int(s.value as u64),
                    int(s.visibility as u64),
                    int(s.granularity as u64),
                    int(s.retention as u64),
                ]),
            ));
        }
        // Every fifth provider has no threshold row at all.
        if id % 5 != 0 {
            rows.push((
                "_qpv_thresholds",
                Row::from_values([int(id), int(p.threshold)]),
            ));
        }
    }
    // Interleave: a deterministic shuffle, so consecutive rows rarely name
    // the same provider.
    let mut keyed: Vec<(u64, (&str, Row))> = rows
        .into_iter()
        .enumerate()
        .map(|(i, r)| {
            (
                (i as u64)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .rotate_left(17),
                r,
            )
        })
        .collect();
    keyed.sort_by_key(|(k, _)| *k);
    let mut rows: Vec<(&str, Row)> = keyed.into_iter().map(|(_, r)| r).collect();
    // Appended after the shuffle, so they land last in scan order:
    // repeated data-table ids…
    for id in [3u64, 3, 17] {
        rows.push(("people", data(id)));
    }
    // …companion rows for ids the data table never mentions, one naming
    // an attribute nobody else uses…
    rows.push((
        "_qpv_prefs",
        Row::from_values([int(900), text("orphan"), text("pr"), int(1), int(1), int(1)]),
    ));
    rows.push((
        "_qpv_sens",
        Row::from_values([int(901), text("weight"), int(9), int(9), int(9), int(9)]),
    ));
    rows.push(("_qpv_thresholds", Row::from_values([int(902), int(1)])));
    // …and later rows overwriting earlier ones (a repeated id included).
    for id in [3u64, 4, 8] {
        rows.push((
            "_qpv_sens",
            Row::from_values([int(id), text("weight"), int(6), int(2), int(3), int(1)]),
        ));
        rows.push(("_qpv_thresholds", Row::from_values([int(id), int(7 + id)])));
    }
    for (table, row) in rows {
        ppdb.db_mut().insert(table, row).unwrap();
    }
    ppdb
}
