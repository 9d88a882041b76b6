//! Policy-change transparency: diff two policy versions, then quantify.
//!
//! The paper's §10 names "frequently changing privacy policies on social
//! networking sites" as the canonical frustration, and argues the first
//! step toward trust is making changes *quantifiable*. This example walks
//! the full transparency loop:
//!
//! 1. both policy versions live as DSL text (what users could actually
//!    read);
//! 2. a structural diff says *what* changed and in which direction;
//! 3. the cheap screen (`may_increase_exposure`) says whether an audit is
//!    even needed;
//! 4. the audit quantifies the damage: ΔViolations, ΔP(W), ΔP(Default).
//!
//! Run with: `cargo run --example policy_transparency_diff`

use quantifying_privacy_violations::core::whatif::WhatIf;
use quantifying_privacy_violations::policy::{diff, dsl, ChangeKind};
use quantifying_privacy_violations::prelude::*;

const POLICY_V1: &str = r#"
policy "connectly-v1" {
  attribute age {
    purpose "service" { vis house; gran partial; ret 1y; }
  }
  attribute location {
    purpose "service" { vis house; gran partial; ret 90d; }
  }
  attribute interests {
    purpose "service" { vis house; gran specific; ret 1y; }
  }
}
"#;

const POLICY_V2: &str = r#"
// The quarterly "we updated our privacy policy" email.
policy "connectly-v2" {
  attribute age {
    purpose "service" { vis house; gran partial; ret 1y; }
    purpose "ads"     { vis third-party; gran partial; ret 2y; }   // NEW
  }
  attribute location {
    purpose "service" { vis house; gran specific; ret 1y; }        // finer + longer
    purpose "ads"     { vis third-party; gran partial; ret 2y; }   // NEW
  }
  attribute interests {
    purpose "service" { vis house; gran partial; ret 1y; }         // coarser (narrowed!)
    purpose "ads"     { vis third-party; gran specific; ret 2y; }  // NEW
  }
}
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let v1 = dsl::parse(POLICY_V1)?.policies.remove(0);
    let v2 = dsl::parse(POLICY_V2)?.policies.remove(0);

    // 2. The structural diff.
    let d = diff::diff(&v1, &v2);
    println!("== What changed (v1 → v2) ==\n");
    println!("{d}\n");
    println!(
        "{} added, {} widened, {} narrowed, {} removed",
        d.of_kind(ChangeKind::Added).count(),
        d.of_kind(ChangeKind::Widened).count(),
        d.of_kind(ChangeKind::Narrowed).count(),
        d.of_kind(ChangeKind::Removed).count(),
    );

    // 3. The cheap screen.
    assert!(d.may_increase_exposure());
    println!("\nscreen: this change CAN increase exposure — auditing...\n");

    // 4. Quantify against a population whose stated preferences match v1
    //    (they joined under v1, so v1 violates no one).
    let mut population = Vec::new();
    for i in 0..1_000u64 {
        let mut p = ProviderProfile::new(ProviderId(i), 1_000 + (i % 8) * 1_000);
        for t in v1.tuples() {
            // Consent exactly to v1, with a small personal margin.
            let margin = (i % 3) as u32;
            let pt = PrivacyPoint::from_raw(
                t.tuple.point.get(Dim::Visibility) + margin,
                t.tuple.point.get(Dim::Granularity) + margin,
                t.tuple.point.get(Dim::Retention) + margin,
            );
            p.preferences.add(
                &t.attribute,
                PrivacyTuple::from_point(t.tuple.purpose.clone(), pt),
            );
            p.sensitivities
                .insert(t.attribute.clone(), DatumSensitivity::new(1, 1, 2, 1));
        }
        population.push(p);
    }
    let mut weights =
        quantifying_privacy_violations::core::sensitivity::AttributeSensitivities::new();
    weights.set("age", 2);
    weights.set("location", 3);
    weights.set("interests", 1);
    let engine = AuditEngine::new(v1.clone(), ["age", "location", "interests"], weights);
    let whatif = WhatIf::new(&engine, &population);

    let before = whatif.evaluate(&v1);
    let after = whatif.evaluate(&v2);
    println!(
        "            {:>14} {:>8} {:>10} {:>9}",
        "Violations", "P(W)", "P(Default)", "N_future"
    );
    for (label, o) in [("v1", &before), ("v2", &after)] {
        println!(
            "{:<10} {:>14} {:>8.3} {:>10.3} {:>9}",
            label,
            o.total_violations,
            o.p_violation(),
            o.p_default(),
            o.remaining()
        );
    }
    println!(
        "\nΔViolations = +{}, ΔP(W) = +{:.3}, providers lost = {}",
        after.total_violations - before.total_violations,
        after.p_violation() - before.p_violation(),
        before.remaining() - after.remaining(),
    );
    assert_eq!(before.p_violation(), 0.0, "v1 is the consented baseline");
    assert!(
        after.p_violation() > 0.9,
        "the ads purposes violate nearly everyone"
    );
    assert!(
        after.p_default() > 0.0 && after.p_default() < 1.0,
        "defaults split the population"
    );
    Ok(())
}
