//! What-if scenario analysis (paper §10).
//!
//! "It is also possible to develop 'what if' scenarios that modify a house's
//! privacy policies with respect to data provider default. Thus, if a
//! particular default level is explicitly adopted, the database can be
//! demonstrably shown to be an α-PPDB." — this module is that capability:
//! evaluate candidate policies against the live population *without*
//! changing the stored policy, and search for the widest policy that keeps a
//! compliance target.
//!
//! Scenario sweeps are where [`crate::pop::CompiledPopulation`] pays off:
//! the population is compiled once at construction, and a batch of
//! candidate policies is priced in one counts-only pass over the packed
//! preference lanes — filled once per unique row, swept once per policy,
//! with no profile re-indexing and no witness allocation.

use serde::{Deserialize, Serialize};

use qpv_policy::HousePolicy;

use crate::audit::AuditEngine;
use crate::pop::{CompiledPopulation, DeltaError, PolicyOutcome, PopulationDelta};
use crate::profile::ProviderProfile;

/// The summary of one evaluated scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioOutcome {
    /// Caller-supplied scenario label.
    pub label: String,
    /// Equation 16's `Violations`.
    pub total_violations: u128,
    /// `P(W)`.
    pub p_violation: f64,
    /// `P(Default)`.
    pub p_default: f64,
    /// Providers that would remain (`N_future`).
    pub remaining: usize,
}

impl ScenarioOutcome {
    fn from_counts(label: String, counts: &PolicyOutcome) -> ScenarioOutcome {
        ScenarioOutcome {
            label,
            total_violations: counts.total_violations,
            p_violation: counts.p_violation(),
            p_default: counts.p_default(),
            remaining: counts.remaining(),
        }
    }
}

/// Evaluates candidate policies against a fixed population, compiled once.
#[derive(Debug)]
pub struct WhatIf<'a> {
    engine: &'a AuditEngine,
    pop: CompiledPopulation,
}

impl<'a> WhatIf<'a> {
    /// Bind an engine (for its attributes and weights) and a population,
    /// compiling the population into flat storage once up front.
    pub fn new(engine: &'a AuditEngine, profiles: &[ProviderProfile]) -> WhatIf<'a> {
        WhatIf::from_population(engine, CompiledPopulation::from_profiles(profiles))
    }

    /// [`WhatIf::new`], reusing an already-compiled population (e.g. one
    /// scanned straight out of a `Ppdb`).
    pub fn from_population(engine: &'a AuditEngine, pop: CompiledPopulation) -> WhatIf<'a> {
        WhatIf { engine, pop }
    }

    /// [`WhatIf::from_population`], starting from a base population plus a
    /// delta — clone-and-apply instead of recompiling from profiles, so
    /// pricing a scenario against a slightly mutated population costs
    /// `O(N + changed)` (the clone) rather than a full rebuild.
    pub fn with_delta(
        engine: &'a AuditEngine,
        base: &CompiledPopulation,
        delta: &PopulationDelta,
    ) -> Result<WhatIf<'a>, DeltaError> {
        let mut pop = base.clone();
        pop.apply_delta(delta)?;
        Ok(WhatIf::from_population(engine, pop))
    }

    /// Evaluate one candidate policy: a single counts-only pass.
    pub fn evaluate(&self, label: impl Into<String>, policy: &HousePolicy) -> ScenarioOutcome {
        let counts = self.engine.counts_with_policy(&self.pop, policy);
        ScenarioOutcome::from_counts(label.into(), &counts)
    }

    /// Evaluate a batch of labelled candidates, in order — one compiled
    /// population, one fused pass for all K candidates
    /// ([`AuditEngine::audit_many_policies`]).
    pub fn evaluate_all(&self, scenarios: &[(String, HousePolicy)]) -> Vec<ScenarioOutcome> {
        let policies: Vec<HousePolicy> = scenarios.iter().map(|(_, p)| p.clone()).collect();
        self.engine
            .audit_many_policies(&self.pop, &policies)
            .iter()
            .zip(scenarios)
            .map(|(counts, (label, _))| ScenarioOutcome::from_counts(label.clone(), counts))
            .collect()
    }

    /// The largest uniform widening (in raw steps applied to every tuple on
    /// every ordered dimension) of `base` that still satisfies
    /// `P(W) ≤ alpha`, searched up to `max_steps`. Returns
    /// `(steps, outcome)` for the widest compliant policy, or `None` if even
    /// the unwidened base is non-compliant.
    ///
    /// `P(W)` is monotone in uniform widening (wider policies only add
    /// exceedance), so a linear scan with early exit is exact.
    pub fn max_compliant_widening(
        &self,
        base: &HousePolicy,
        alpha: f64,
        max_steps: u32,
    ) -> Option<(u32, ScenarioOutcome)> {
        let mut best = None;
        for steps in 0..=max_steps {
            let candidate = base.widened_uniform(steps);
            let outcome = self.evaluate(format!("widen+{steps}"), &candidate);
            if outcome.p_violation <= alpha {
                best = Some((steps, outcome));
            } else {
                break;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sensitivity::{AttributeSensitivities, DatumSensitivity};
    use qpv_policy::{ProviderId, ProviderPreferences};
    use qpv_taxonomy::{PrivacyPoint, PrivacyTuple};

    fn pt(v: u32, g: u32, r: u32) -> PrivacyPoint {
        PrivacyPoint::from_raw(v, g, r)
    }

    fn setup() -> (AuditEngine, Vec<ProviderProfile>) {
        let policy = HousePolicy::builder("h")
            .tuple("weight", PrivacyTuple::from_point("pr", pt(2, 2, 30)))
            .build();
        let mut weights = AttributeSensitivities::new();
        weights.set("weight", 4);
        let engine = AuditEngine::new(policy, ["weight"], weights);
        // Staggered tolerance: preference headroom i on every dimension.
        let profiles: Vec<ProviderProfile> = (0..10u64)
            .map(|i| {
                let mut p = ProviderProfile::new(ProviderId(i), 30);
                let mut prefs = ProviderPreferences::new(ProviderId(i));
                prefs.add(
                    "weight",
                    PrivacyTuple::from_point("pr", pt(2 + i as u32, 2 + i as u32, 30 + i as u32)),
                );
                p.preferences = prefs;
                p.sensitivities
                    .insert("weight".into(), DatumSensitivity::new(1, 1, 1, 1));
                p
            })
            .collect();
        (engine, profiles)
    }

    #[test]
    fn base_policy_violates_no_one() {
        let (engine, profiles) = setup();
        let whatif = WhatIf::new(&engine, &profiles);
        let outcome = whatif.evaluate("base", &engine.policy);
        assert_eq!(outcome.p_violation, 0.0);
        assert_eq!(outcome.remaining, 10);
    }

    #[test]
    fn widening_monotonically_increases_violations() {
        let (engine, profiles) = setup();
        let whatif = WhatIf::new(&engine, &profiles);
        let mut last = 0u128;
        let mut last_p = 0.0;
        for steps in 0..8 {
            let outcome =
                whatif.evaluate(format!("w{steps}"), &engine.policy.widened_uniform(steps));
            assert!(outcome.total_violations >= last);
            assert!(outcome.p_violation >= last_p);
            last = outcome.total_violations;
            last_p = outcome.p_violation;
        }
        assert!(last > 0);
    }

    #[test]
    fn max_compliant_widening_finds_the_boundary() {
        let (engine, profiles) = setup();
        let whatif = WhatIf::new(&engine, &profiles);
        // Provider i tolerates widening ≤ i without violation, so widening
        // by s violates providers 0..s, giving P(W) = s/10.
        let (steps, outcome) = whatif
            .max_compliant_widening(&engine.policy, 0.35, 20)
            .expect("base is compliant");
        assert_eq!(steps, 3, "P(W)={}", outcome.p_violation);
        assert!(outcome.p_violation <= 0.35);
        // One more step must break the bound.
        let next = whatif.evaluate("next", &engine.policy.widened_uniform(steps + 1));
        assert!(next.p_violation > 0.35);
    }

    #[test]
    fn non_compliant_base_returns_none() {
        let (engine, profiles) = setup();
        let whatif = WhatIf::new(&engine, &profiles);
        let wide = engine.policy.widened_uniform(10); // violates everyone but 9
        assert!(whatif.max_compliant_widening(&wide, 0.05, 5).is_none());
    }

    /// The counts-only fast path must report exactly what a full
    /// report-building audit would.
    #[test]
    fn counts_path_matches_the_full_report() {
        let (engine, profiles) = setup();
        let whatif = WhatIf::new(&engine, &profiles);
        for steps in [0u32, 3, 7] {
            let policy = engine.policy.widened_uniform(steps);
            let outcome = whatif.evaluate("x", &policy);
            let report = engine.run_with_policy(&profiles, &policy);
            assert_eq!(outcome.total_violations, report.total_violations);
            assert_eq!(outcome.p_violation, report.p_violation());
            assert_eq!(outcome.p_default, report.p_default());
            assert_eq!(outcome.remaining, report.remaining());
        }
    }

    /// A what-if built from base + delta prices scenarios identically to
    /// one built from the mutated profiles — and the base stays pristine.
    #[test]
    fn with_delta_matches_recompiled_population() {
        use crate::pop::PopulationDelta;

        let (engine, mut profiles) = setup();
        let base = CompiledPopulation::from_profiles(&profiles);
        let base_epoch = base.epoch();

        let mut newcomer = ProviderProfile::new(ProviderId(50), 30);
        newcomer
            .preferences
            .add("weight", PrivacyTuple::from_point("pr", pt(2, 2, 30)));
        let delta = PopulationDelta::new()
            .upsert(newcomer)
            .remove(ProviderId(4))
            .set_threshold(ProviderId(7), 1);
        let whatif = WhatIf::with_delta(&engine, &base, &delta).unwrap();

        delta.apply_to_profiles(&mut profiles);
        let fresh = WhatIf::new(&engine, &profiles);
        for steps in [0u32, 3, 7] {
            let policy = engine.policy.widened_uniform(steps);
            let a = whatif.evaluate("d", &policy);
            let b = fresh.evaluate("d", &policy);
            assert_eq!(a.total_violations, b.total_violations);
            assert_eq!(a.p_violation, b.p_violation);
            assert_eq!(a.p_default, b.p_default);
            assert_eq!(a.remaining, b.remaining);
        }
        assert_eq!(base.epoch(), base_epoch, "base must not be mutated");
        assert_eq!(base.len(), 10);
    }

    #[test]
    fn evaluate_all_preserves_order_and_labels() {
        let (engine, profiles) = setup();
        let whatif = WhatIf::new(&engine, &profiles);
        let scenarios = vec![
            ("narrow".to_string(), engine.policy.clone()),
            ("wide".to_string(), engine.policy.widened_uniform(5)),
        ];
        let outcomes = whatif.evaluate_all(&scenarios);
        assert_eq!(outcomes[0].label, "narrow");
        assert_eq!(outcomes[1].label, "wide");
        assert!(outcomes[1].total_violations > outcomes[0].total_violations);
    }
}
