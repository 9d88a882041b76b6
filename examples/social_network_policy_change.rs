//! A social network changes its privacy policy — what happens?
//!
//! The paper's §10 points at "frequently changing privacy policies on
//! social networking sites" as the canonical frustration its model can
//! quantify. This example evaluates two kinds of change over a 2,000-user
//! network as *what-if scenarios* (no stored state is modified):
//!
//! 1. uniform widening of every tuple (more visibility, finer granularity,
//!    longer retention), and
//! 2. purpose creep — granting brand-new, unconsented purposes, which
//!    Definition 1's implicit-preference rule makes maximally violating.
//!
//! It then finds the widest change that keeps the network an α-PPDB.
//!
//! Run with: `cargo run --example social_network_policy_change`

use quantifying_privacy_violations::core::whatif::WhatIf;
use quantifying_privacy_violations::prelude::*;
use quantifying_privacy_violations::synth::workload::PolicySweep;

fn main() {
    let scenario = Scenario::social_network(2_000, 7);
    let engine = scenario.engine();
    let whatif = WhatIf::new(&engine, &scenario.population.profiles);

    println!("== Uniform widening ==");
    println!(
        "{:<12} {:>12} {:>8} {:>10} {:>10}",
        "scenario", "Violations", "P(W)", "P(Default)", "N_future"
    );
    let sweep = PolicySweep::uniform(&scenario.baseline_policy, 6);
    for (label, policy) in &sweep.steps {
        let o = whatif.evaluate(policy);
        println!(
            "{:<12} {:>12} {:>8.3} {:>10.3} {:>10}",
            label,
            o.total_violations,
            o.p_violation(),
            o.p_default(),
            o.remaining()
        );
    }

    println!("\n== Purpose creep (new unconsented purposes) ==");
    // New purposes arrive at third-party visibility, exact granularity,
    // and multi-year retention (bucket 5 on the scenario's ordinal scale).
    let creep = PolicySweep::purpose_creep(
        &scenario.baseline_policy,
        PrivacyPoint::new(
            VisibilityLevel::THIRD_PARTY,
            GranularityLevel::SPECIFIC,
            RetentionLevel::from_raw(5),
        ),
        4,
    );
    for (label, policy) in &creep.steps {
        let o = whatif.evaluate(policy);
        println!(
            "{:<12} {:>12} {:>8.3} {:>10.3} {:>10}",
            label,
            o.total_violations,
            o.p_violation(),
            o.p_default(),
            o.remaining()
        );
    }

    // The α-PPDB frontier: how far can the network widen and still claim
    // P(W) ≤ α?
    println!("\n== α-PPDB frontier (uniform widening) ==");
    for alpha in [0.3, 0.5, 0.7] {
        match whatif.max_compliant_widening(&scenario.baseline_policy, alpha, 20) {
            Some((steps, outcome)) => println!(
                "  α = {alpha}: widest compliant widening = +{steps} (P(W) = {:.3})",
                outcome.p_violation()
            ),
            None => println!("  α = {alpha}: baseline already non-compliant"),
        }
    }
}
