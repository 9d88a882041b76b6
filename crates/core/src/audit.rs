//! The audit engine: run the whole model over a population.
//!
//! An [`AuditEngine`] fixes the house side (policy, the attributes the data
//! table stores, the social attribute weights `Σ`) and audits populations of
//! [`ProviderProfile`]s against it, producing [`AuditReport`]s with every
//! quantity the paper defines: per-provider `w_i` and `Violation_i`,
//! `Violations`, `P(W)`, `P(Default)`, and the α-PPDB check (Definition 3).
//!
//! The compiled entry points ([`AuditEngine::audit_compiled`] and the
//! counts-only paths, defined alongside [`crate::pop::CompiledPopulation`])
//! read providers through the population's per-provider row *ranges*, never
//! the raw row array — so they audit delta-mutated populations (which may
//! carry freelist holes between live ranges) byte-identically to a fresh
//! compile of the same logical population.

use serde::{Deserialize, Serialize};

use qpv_policy::{HousePolicy, ProviderId};

use crate::plan::CompiledAuditPlan;
use crate::probability::census_fraction;
use crate::profile::{assemble, ProviderProfile};
use crate::sensitivity::{AttributeSensitivities, SensitivityModel};
use crate::violation::{witnesses, ViolationWitness};

/// The audit outcome for one provider.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProviderAudit {
    /// Who was audited.
    pub provider: ProviderId,
    /// Definition 1's `w_i`.
    pub violated: bool,
    /// Equation 15's `Violation_i`.
    pub score: u64,
    /// The provider's threshold `v_i`.
    pub threshold: u64,
    /// Definition 4's `default_i`.
    pub defaulted: bool,
    /// The comparable pairs that witnessed the violation.
    pub witnesses: Vec<ViolationWitness>,
}

/// The audit outcome for a whole population.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AuditReport {
    /// Per-provider results, in input order.
    pub providers: Vec<ProviderAudit>,
    /// Equation 16's `Violations`.
    pub total_violations: u128,
}

impl AuditReport {
    /// Population size `N`.
    pub fn population(&self) -> usize {
        self.providers.len()
    }

    /// Definition 2's `P(W)` (census form). Counts in one pass; no
    /// intermediate outcome vector is allocated.
    pub fn p_violation(&self) -> f64 {
        census_fraction(
            self.providers.iter().filter(|p| p.violated).count(),
            self.providers.len(),
        )
    }

    /// Definition 5's `P(Default)` (census form). Counts in one pass; no
    /// intermediate outcome vector is allocated.
    pub fn p_default(&self) -> f64 {
        census_fraction(
            self.providers.iter().filter(|p| p.defaulted).count(),
            self.providers.len(),
        )
    }

    /// Definition 3: is this an α-PPDB, i.e. `P(W) ≤ α`?
    pub fn is_alpha_ppdb(&self, alpha: f64) -> bool {
        self.p_violation() <= alpha
    }

    /// `w_i` per provider, for the probability estimators.
    pub fn violation_outcomes(&self) -> Vec<bool> {
        self.providers.iter().map(|p| p.violated).collect()
    }

    /// `default_i` per provider.
    pub fn default_outcomes(&self) -> Vec<bool> {
        self.providers.iter().map(|p| p.defaulted).collect()
    }

    /// Providers who defaulted.
    pub fn defaulters(&self) -> impl Iterator<Item = &ProviderAudit> {
        self.providers.iter().filter(|p| p.defaulted)
    }

    /// `N_future`: providers remaining after defaults (§9, Equation 26).
    pub fn remaining(&self) -> usize {
        self.providers.iter().filter(|p| !p.defaulted).count()
    }
}

/// Audits populations against a fixed house configuration.
#[derive(Debug, Clone)]
pub struct AuditEngine {
    /// The house policy under audit.
    pub policy: HousePolicy,
    /// The attributes the data table stores (what providers supply).
    pub attributes: Vec<String>,
    /// Social attribute weights `Σ`.
    pub attribute_weights: AttributeSensitivities,
    /// Optional purpose lattice: when set, a consent for a broad purpose
    /// covers narrower policy purposes (the §3 extension). `None` = the
    /// base model's flat purpose matching.
    pub lattice: Option<qpv_taxonomy::PurposeLattice>,
}

impl AuditEngine {
    /// Create an engine for a policy over the given stored attributes
    /// (flat purpose matching, as in the base model).
    pub fn new(
        policy: HousePolicy,
        attributes: impl IntoIterator<Item = impl Into<String>>,
        attribute_weights: AttributeSensitivities,
    ) -> AuditEngine {
        AuditEngine {
            policy,
            attributes: attributes.into_iter().map(Into::into).collect(),
            attribute_weights,
            lattice: None,
        }
    }

    /// Switch the engine to lattice purpose semantics.
    pub fn with_lattice(mut self, lattice: qpv_taxonomy::PurposeLattice) -> AuditEngine {
        self.lattice = Some(lattice);
        self
    }

    /// Audit a population. Interns the whole population into a
    /// [`crate::pop::CompiledPopulation`] (SoA preference rows, dense
    /// datum/threshold tables) and audits it against the compiled plan —
    /// the hot loop touches no strings and no per-provider hash maps.
    /// Results are bitwise-identical to [`Self::run_reference`], pinned by
    /// the property suites in `tests/plan_equivalence.rs` and
    /// `tests/pop_equivalence.rs`.
    pub fn run(&self, profiles: &[ProviderProfile]) -> AuditReport {
        self.audit_compiled(&crate::pop::CompiledPopulation::from_profiles(profiles))
    }

    /// Audit a population through the original string-resolving path —
    /// the direct transcription of the paper's definitions. Kept as the
    /// oracle the compiled plan is property-tested against, and as the
    /// baseline leg of `benches/audit_plan.rs`.
    pub fn run_reference(&self, profiles: &[ProviderProfile]) -> AuditReport {
        let (sensitivity, thresholds) = assemble(profiles, &self.attribute_weights);
        let attrs: Vec<&str> = self.attributes.iter().map(String::as_str).collect();
        let mut providers = Vec::with_capacity(profiles.len());
        let mut total: u128 = 0;
        for profile in profiles {
            let audit = self.audit_profile(profile, &attrs, &sensitivity, &thresholds);
            total += audit.score as u128;
            providers.push(audit);
        }
        AuditReport {
            providers,
            total_violations: total,
        }
    }

    /// Compile the house policy against the engine's own attribute
    /// weights — plan compilation only reads `Σ^a`, so no per-provider
    /// assembly is needed to build the plan.
    pub(crate) fn compile_house(&self) -> CompiledAuditPlan {
        self.compile_policy(&self.policy)
    }

    /// Compile an arbitrary candidate policy against this engine's
    /// attributes, weights, and lattice — the per-policy half of the
    /// what-if fast path ([`crate::pop`]).
    pub(crate) fn compile_policy(&self, policy: &HousePolicy) -> CompiledAuditPlan {
        CompiledAuditPlan::compile(
            policy,
            &self.attributes,
            &SensitivityModel::from_attribute_weights(&self.attribute_weights),
            self.lattice.as_ref(),
        )
    }

    /// Audit one provider by resolving strings directly (the reference
    /// path). The production paths go through the compiled plan over a
    /// [`crate::pop::CompiledPopulation`]; this stays as the oracle.
    pub(crate) fn audit_profile(
        &self,
        profile: &ProviderProfile,
        attrs: &[&str],
        sensitivity: &crate::sensitivity::SensitivityModel,
        thresholds: &crate::default_model::DefaultThresholds,
    ) -> ProviderAudit {
        let (wit, score) = match &self.lattice {
            None => (
                witnesses(&profile.preferences, &self.policy, attrs),
                crate::severity::violation_score(
                    &profile.preferences,
                    &self.policy,
                    attrs,
                    sensitivity,
                ),
            ),
            Some(lattice) => (
                crate::violation::witnesses_lattice(
                    &profile.preferences,
                    &self.policy,
                    attrs,
                    lattice,
                ),
                crate::severity::violation_score_lattice(
                    &profile.preferences,
                    &self.policy,
                    attrs,
                    sensitivity,
                    lattice,
                ),
            ),
        };
        let threshold = thresholds.get(profile.id());
        ProviderAudit {
            provider: profile.id(),
            violated: !wit.is_empty(),
            score,
            threshold,
            defaulted: crate::default_model::defaults(score, threshold),
            witnesses: wit,
        }
    }

    /// Audit the same population under a *different* policy (the what-if
    /// primitive).
    pub fn run_with_policy(
        &self,
        profiles: &[ProviderProfile],
        policy: &HousePolicy,
    ) -> AuditReport {
        self.with_policy(policy).run(profiles)
    }

    /// This engine's attributes, weights and lattice over a different
    /// policy: the engine the what-if paths audit with.
    pub(crate) fn with_policy(&self, policy: &HousePolicy) -> AuditEngine {
        AuditEngine {
            policy: policy.clone(),
            attributes: self.attributes.clone(),
            attribute_weights: self.attribute_weights.clone(),
            lattice: self.lattice.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sensitivity::DatumSensitivity;
    use qpv_taxonomy::{PrivacyPoint, PrivacyTuple};

    fn pt(v: u32, g: u32, r: u32) -> PrivacyPoint {
        PrivacyPoint::from_raw(v, g, r)
    }

    /// The paper's §8 example as a full audit.
    fn worked_example() -> (AuditEngine, Vec<ProviderProfile>) {
        let (v, g, r) = (5u32, 5u32, 5u32);
        let policy = HousePolicy::builder("house")
            .tuple("weight", PrivacyTuple::from_point("pr", pt(v, g, r)))
            .build();
        let mut weights = AttributeSensitivities::new();
        weights.set("weight", 4);
        let engine = AuditEngine::new(policy, ["weight"], weights);

        let mk = |id: u64, pref: PrivacyPoint, sens: DatumSensitivity, threshold: u64| {
            let mut profile = ProviderProfile::new(ProviderId(id), threshold);
            profile
                .preferences
                .add("weight", PrivacyTuple::from_point("pr", pref));
            profile.sensitivities.insert("weight".into(), sens);
            profile
        };
        let profiles = vec![
            mk(
                0,
                pt(v + 2, g + 1, r + 3),
                DatumSensitivity::new(1, 1, 2, 1),
                10,
            ), // Alice
            mk(
                1,
                pt(v + 2, g - 1, r + 2),
                DatumSensitivity::new(3, 1, 5, 2),
                50,
            ), // Ted
            mk(
                2,
                pt(v, g - 1, r - 1),
                DatumSensitivity::new(4, 1, 3, 2),
                100,
            ), // Bob
        ];
        (engine, profiles)
    }

    #[test]
    fn reproduces_table_1_exactly() {
        let (engine, profiles) = worked_example();
        let report = engine.run(&profiles);
        assert_eq!(report.population(), 3);
        let [alice, ted, bob] = &report.providers[..] else {
            panic!("expected three providers");
        };
        // Table 1 w_i column.
        assert!(!alice.violated);
        assert!(ted.violated);
        assert!(bob.violated);
        // Equation 20 conf values.
        assert_eq!(alice.score, 0);
        assert_eq!(ted.score, 60);
        assert_eq!(bob.score, 80);
        // Equations 21–23 defaults.
        assert!(!alice.defaulted);
        assert!(ted.defaulted);
        assert!(!bob.defaulted);
        // Equation 24: P(Default) = 1/3.
        assert!((report.p_default() - 1.0 / 3.0).abs() < 1e-12);
        // P(W) = 2/3.
        assert!((report.p_violation() - 2.0 / 3.0).abs() < 1e-12);
        // Violations total.
        assert_eq!(report.total_violations, 140);
        // N_future.
        assert_eq!(report.remaining(), 2);
        assert_eq!(report.defaulters().count(), 1);
    }

    #[test]
    fn alpha_ppdb_check() {
        let (engine, profiles) = worked_example();
        let report = engine.run(&profiles);
        // P(W) = 2/3 ≈ 0.667.
        assert!(report.is_alpha_ppdb(0.7));
        assert!(report.is_alpha_ppdb(2.0 / 3.0));
        assert!(!report.is_alpha_ppdb(0.5));
    }

    #[test]
    fn empty_population() {
        let (engine, _) = worked_example();
        let report = engine.run(&[]);
        assert_eq!(report.population(), 0);
        assert_eq!(report.p_violation(), 0.0);
        assert_eq!(report.total_violations, 0);
        assert!(report.is_alpha_ppdb(0.0));
    }

    #[test]
    fn ted_violation_is_on_granularity() {
        let (engine, profiles) = worked_example();
        let report = engine.run(&profiles);
        let ted = &report.providers[1];
        assert_eq!(ted.witnesses.len(), 1);
        assert_eq!(
            ted.witnesses[0]
                .geometry
                .along(qpv_taxonomy::Dim::Granularity),
            1
        );
        // Bob violated on granularity and retention (Figure-1c-style).
        let bob = &report.providers[2];
        assert_eq!(bob.witnesses[0].geometry.escaped_dims().count(), 2);
    }

    #[test]
    fn what_if_does_not_mutate_engine() {
        let (engine, profiles) = worked_example();
        let wider = engine.policy.widened_uniform(3);
        let base = engine.run(&profiles);
        let what_if = engine.run_with_policy(&profiles, &wider);
        assert!(what_if.total_violations > base.total_violations);
        // Engine still audits with the original policy.
        let again = engine.run(&profiles);
        assert_eq!(again.total_violations, base.total_violations);
    }

    #[test]
    fn lattice_engine_reduces_violations_for_broad_consent() {
        use qpv_taxonomy::PurposeLattice;
        // Policy uses the narrow purpose "billing"; provider consented to
        // the broader "operations".
        let policy = HousePolicy::builder("h")
            .tuple("weight", PrivacyTuple::from_point("billing", pt(2, 2, 2)))
            .build();
        let mut profile = ProviderProfile::new(ProviderId(0), 100);
        profile.preferences.add(
            "weight",
            PrivacyTuple::from_point("operations", pt(3, 3, 3)),
        );
        let flat = AuditEngine::new(policy.clone(), ["weight"], AttributeSensitivities::new());
        let flat_report = flat.run(std::slice::from_ref(&profile));
        assert!(flat_report.providers[0].violated, "flat: implicit deny-all");
        assert!(flat_report.providers[0].score > 0);

        let mut lattice = PurposeLattice::new();
        lattice.add_edge("billing", "operations").unwrap();
        let latticed = flat.clone().with_lattice(lattice);
        let lattice_report = latticed.run(std::slice::from_ref(&profile));
        assert!(!lattice_report.providers[0].violated, "lattice: covered");
        assert_eq!(lattice_report.providers[0].score, 0);
        // run_with_policy keeps the lattice.
        let wider = policy.widened_uniform(5);
        let wide_report = latticed.run_with_policy(std::slice::from_ref(&profile), &wider);
        assert!(
            wide_report.providers[0].violated,
            "exceeding consent still violates"
        );
    }

    /// `n` providers with two attributes and varied points, weights and
    /// thresholds.
    fn population(n: u64) -> Vec<ProviderProfile> {
        (0..n)
            .map(|i| {
                let mut p = ProviderProfile::new(ProviderId(i), 20 + (i % 9) * 10);
                p.preferences.add(
                    "weight",
                    PrivacyTuple::from_point("pr", pt(2 + (i % 4) as u32, 2, 30)),
                );
                p.preferences.add(
                    "age",
                    PrivacyTuple::from_point("research", pt(3, 1 + (i % 3) as u32, 45)),
                );
                p.sensitivities.insert(
                    "weight".into(),
                    DatumSensitivity::new(1 + (i % 5) as u32, 1, 2, 1),
                );
                p
            })
            .collect()
    }

    #[test]
    fn run_equals_reference_on_uneven_skewed_and_lattice_populations() {
        use qpv_taxonomy::PurposeLattice;
        let policy = HousePolicy::builder("h")
            .tuple("weight", PrivacyTuple::from_point("pr", pt(4, 3, 40)))
            .tuple("age", PrivacyTuple::from_point("research", pt(4, 2, 60)))
            .build();
        let mut weights = AttributeSensitivities::new();
        weights.set("weight", 4);
        weights.set("age", 2);
        let engine = AuditEngine::new(policy, ["weight", "age"], weights);

        let uneven = population(997);
        assert_eq!(engine.run(&uneven), engine.run_reference(&uneven));

        // One provider with ~100× the average preference tuples.
        let mut skewed = population(600);
        for i in 0..600 {
            skewed[300].preferences.add(
                "weight",
                PrivacyTuple::from_point("pr", pt(2 + (i % 3), 2, 30)),
            );
        }
        assert_eq!(
            serde_json::to_string(&engine.run(&skewed)).unwrap(),
            serde_json::to_string(&engine.run_reference(&skewed)).unwrap()
        );

        let mut lattice = PurposeLattice::new();
        lattice.add_edge("pr", "research").unwrap();
        let latticed = engine.clone().with_lattice(lattice);
        let profiles = population(600);
        assert_eq!(latticed.run(&profiles), latticed.run_reference(&profiles));

        let wider = engine.policy.widened_uniform(2);
        let profiles = population(500);
        assert_eq!(
            engine.run_with_policy(&profiles, &wider),
            engine.with_policy(&wider).run_reference(&profiles)
        );
    }

    #[test]
    fn report_serde_round_trip() {
        let (engine, profiles) = worked_example();
        let report = engine.run(&profiles);
        let json = serde_json::to_string(&report).unwrap();
        let back: AuditReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }
}
