//! Experiment E4: `P(W)`, `P(Default)`, and the α-PPDB at population scale.
//!
//! Definitions 2 and 5 define both probabilities as limits of
//! relative-frequency trials; Definition 3 defines the α-PPDB as
//! `P(W) ≤ α`. The paper evaluates these only on the three-person example.
//! This experiment runs them at population scale:
//!
//! 1. `P(W)` / `P(Default)` versus policy widening, stratified by Westin
//!    segment (the paper's heterogeneity argument made visible);
//! 2. the Monte-Carlo estimator of Definitions 2/5 versus the census value
//!    (convergence as trial count grows);
//! 3. the α-PPDB compliance frontier: the widest policy passing each α;
//! 4. the compiled census audit against the string-path oracle on 50k
//!    providers.
//!
//! Run with: `cargo run -p qpv-bench --bin exp_alpha_ppdb`

use qpv_bench::{check, write_result};
use qpv_core::whatif::WhatIf;
use qpv_core::{census_probability, estimate_probability};
use qpv_synth::{Scenario, Segment};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::Serialize;

#[derive(Serialize)]
struct AlphaRow {
    step: u32,
    p_violation: f64,
    p_default: f64,
    p_w_by_segment: Vec<(String, f64)>,
}

fn main() {
    println!("== E4: P(W), P(Default), alpha-PPDB (Defs. 2, 3, 5) ==\n");
    let scenario = Scenario::healthcare(2_000, 42);
    let engine = scenario.engine();

    // 1. Probabilities vs widening, stratified by segment.
    println!(
        "{:>5} {:>8} {:>10}   {:>14} {:>12} {:>12}",
        "step", "P(W)", "P(Default)", "fundamentalist", "pragmatist", "unconcerned"
    );
    let mut rows = Vec::new();
    for step in 0..=6u32 {
        let policy = scenario.baseline_policy.widened_uniform(step);
        let report = engine.run_with_policy(&scenario.population.profiles, &policy);
        let outcomes = report.violation_outcomes();
        let mut by_segment = Vec::new();
        for segment in Segment::ALL {
            let members = scenario.population.segment_members(segment);
            let seg_outcomes: Vec<bool> = members.iter().map(|&i| outcomes[i]).collect();
            by_segment.push((
                segment.name().to_string(),
                census_probability(&seg_outcomes),
            ));
        }
        println!(
            "{:>5} {:>8.3} {:>10.3}   {:>14.3} {:>12.3} {:>12.3}",
            step,
            report.p_violation(),
            report.p_default(),
            by_segment[0].1,
            by_segment[1].1,
            by_segment[2].1,
        );
        rows.push(AlphaRow {
            step,
            p_violation: report.p_violation(),
            p_default: report.p_default(),
            p_w_by_segment: by_segment,
        });
    }
    // Heterogeneity claim: fundamentalists are always violated at least as
    // often as the unconcerned.
    let ordered = rows
        .iter()
        .all(|r| r.p_w_by_segment[0].1 >= r.p_w_by_segment[2].1);
    check(
        "P(W|fundamentalist) ≥ P(W|unconcerned) ∀ steps",
        true,
        ordered,
    );

    // 2. Definition 2's estimator converges to the census value.
    println!("\nMonte-Carlo estimator of Definition 2 (baseline policy):");
    let report = engine.run(&scenario.population.profiles);
    let outcomes = report.violation_outcomes();
    let census = census_probability(&outcomes);
    let mut rng = SmallRng::seed_from_u64(7);
    let mut last_err = f64::INFINITY;
    for trials in [100u32, 1_000, 10_000, 100_000] {
        let est = estimate_probability(&outcomes, trials, &mut rng);
        let err = (est - census).abs();
        println!("  τ = {trials:>7}: P(W) ≈ {est:.4}  (census {census:.4}, |err| {err:.4})");
        if trials == 100_000 {
            check(
                "estimator within 0.01 of census at τ=100k",
                true,
                err < 0.01,
            );
        }
        last_err = err;
    }
    let _ = last_err;

    // 3. The alpha-PPDB frontier.
    println!("\nalpha-PPDB frontier (widest uniform widening with P(W) ≤ α):");
    let whatif = WhatIf::new(&engine, &scenario.population.profiles);
    for alpha in [0.1, 0.25, 0.5, 0.9] {
        match whatif.max_compliant_widening(&scenario.baseline_policy, alpha, 12) {
            Some((steps, o)) => println!(
                "  α = {alpha:>4}: widen ≤ +{steps} (P(W) = {:.3}, N_future = {})",
                o.p_violation, o.remaining
            ),
            None => println!("  α = {alpha:>4}: baseline already exceeds α"),
        }
    }
    // Frontier monotonicity: a larger α can never allow less widening.
    let frontier: Vec<Option<u32>> = [0.1, 0.25, 0.5, 0.9]
        .iter()
        .map(|&a| {
            whatif
                .max_compliant_widening(&scenario.baseline_policy, a, 12)
                .map(|(s, _)| s)
        })
        .collect();
    let mono = frontier
        .windows(2)
        .all(|w| w[1].unwrap_or(0) >= w[0].unwrap_or(0));
    check("frontier monotone in α", true, mono);

    // 4. The census audit at scale: the compiled path against the string
    // oracle on a 50k-provider population.
    let big = qpv_synth::generate_stable(&scenario.spec, 50_000, 42);
    check(
        "run == run_reference (50k providers)",
        true,
        engine.run(&big.profiles) == engine.run_reference(&big.profiles),
    );

    let path = write_result("exp_alpha_ppdb", &rows);
    println!("\nresult JSON: {}", path.display());
}
