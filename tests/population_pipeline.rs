//! The population-scale pipeline: synth → storage → audit → economics.
//!
//! Cross-checks every pathway that computes the same quantity: the pure
//! audit engine, the storage-backed PPDB audit, the maintained live
//! index, and the what-if evaluator must all agree on a generated
//! population.

use quantifying_privacy_violations::core::whatif::WhatIf;
use quantifying_privacy_violations::core::{CompiledPopulation, LiveViolationIndex};
use quantifying_privacy_violations::economics::EmpiricalDefaultCdf;
use quantifying_privacy_violations::prelude::*;

fn loaded_ppdb(scenario: &Scenario) -> Ppdb {
    let mut ppdb = Ppdb::create(
        Database::in_memory(),
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
fn storage_backed_audit_equals_pure_audit() {
    let scenario = Scenario::healthcare(300, 17);
    let pure = scenario.engine().run(&scenario.population.profiles);
    let mut ppdb = loaded_ppdb(&scenario);
    let stored = ppdb.audit().unwrap();

    assert_eq!(stored.population(), pure.population());
    assert_eq!(stored.total_violations, pure.total_violations);
    assert_eq!(stored.p_violation(), pure.p_violation());
    assert_eq!(stored.p_default(), pure.p_default());
    // Per-provider too (order may differ only if storage reordered rows —
    // it does not: heap order is insert order).
    for (a, b) in stored.providers.iter().zip(pure.providers.iter()) {
        assert_eq!(a.provider, b.provider);
        assert_eq!(a.score, b.score);
        assert_eq!(a.defaulted, b.defaulted);
    }
}

#[test]
fn incremental_and_whatif_agree_across_a_sweep() {
    let scenario = Scenario::social_network(400, 23);
    let engine = scenario.engine();
    let whatif = WhatIf::new(&engine, &scenario.population.profiles);
    let pop = CompiledPopulation::from_profiles(&scenario.population.profiles);
    for step in [0u32, 2, 5, 1, 4] {
        let policy = scenario.baseline_policy.widened_uniform(step);
        let outcome = whatif.evaluate(format!("s{step}"), &policy);
        // A policy edit rebuilds the maintained index under the new policy.
        let mut edited = engine.clone();
        edited.policy = policy;
        let index = LiveViolationIndex::new(edited.clone(), pop.clone());
        let reference = edited.run_reference(&scenario.population.profiles);
        assert_eq!(
            index.outcome().total_violations,
            outcome.total_violations,
            "step {step}"
        );
        assert_eq!(
            index.outcome().total_violations,
            reference.total_violations,
            "step {step}"
        );
        assert_eq!(index.p_violation(), outcome.p_violation, "step {step}");
        assert_eq!(index.p_violation(), reference.p_violation(), "step {step}");
        assert_eq!(index.p_default(), outcome.p_default, "step {step}");
        assert_eq!(index.p_default(), reference.p_default(), "step {step}");
    }
}

#[test]
fn empirical_cdf_matches_direct_simulation() {
    // Build the default CDF from a widening sweep, then verify its
    // projections reproduce the sweep's N_future exactly.
    let scenario = Scenario::healthcare(250, 31);
    let engine = scenario.engine();
    let max_steps = 8u32;

    // First defaulting width per provider.
    let mut first_default: Vec<Option<u32>> = vec![None; scenario.population.len()];
    for step in 0..=max_steps {
        let policy = scenario.baseline_policy.widened_uniform(step);
        let report = engine.run_with_policy(&scenario.population.profiles, &policy);
        for (i, audit) in report.providers.iter().enumerate() {
            if audit.defaulted && first_default[i].is_none() {
                first_default[i] = Some(step);
            }
        }
    }
    let cdf = EmpiricalDefaultCdf::from_observations(&first_default);

    for step in 0..=max_steps {
        let policy = scenario.baseline_policy.widened_uniform(step);
        let report = engine.run_with_policy(&scenario.population.profiles, &policy);
        assert_eq!(
            cdf.projected_remaining(step, scenario.population.len()),
            report.remaining(),
            "step {step}"
        );
    }
}

#[test]
fn segment_stratification_is_ordered() {
    use quantifying_privacy_violations::synth::Segment;
    // At every widening step, fundamentalists violate at least as often as
    // pragmatists, who violate at least as often as the unconcerned.
    let scenario = Scenario::healthcare(600, 5);
    let engine = scenario.engine();
    for step in 0..5u32 {
        let policy = scenario.baseline_policy.widened_uniform(step);
        let report = engine.run_with_policy(&scenario.population.profiles, &policy);
        let outcomes = report.violation_outcomes();
        let rate = |segment| {
            let members = scenario.population.segment_members(segment);
            if members.is_empty() {
                return 0.0;
            }
            members.iter().filter(|&&i| outcomes[i]).count() as f64 / members.len() as f64
        };
        let f = rate(Segment::Fundamentalist);
        let u = rate(Segment::Unconcerned);
        assert!(f >= u, "step {step}: fundamentalist {f} < unconcerned {u}");
    }
}

#[test]
fn bulk_registration_round_trips_every_profile() {
    let scenario = Scenario::social_network(150, 9);
    let mut ppdb = loaded_ppdb(&scenario);
    // Spot-check a handful of profiles read back from storage.
    for idx in [0usize, 7, 77, 149] {
        let expected = &scenario.population.profiles[idx];
        let got = ppdb.provider_profile(expected.id()).unwrap();
        assert_eq!(&got, expected, "profile {idx}");
    }
    assert_eq!(ppdb.provider_ids().unwrap().len(), 150);
}
