//! The policy-expansion sweep (experiment E3).
//!
//! Starting from a baseline where no provider has defaulted (§9's premise),
//! widen the policy step by step and tabulate, per step: the total
//! violations, who defaults, `N_future`, the break-even extra utility
//! `T_min` (Eq. 31), and the realised utilities for a given per-step extra
//! utility. The resulting table is the quantitative form of the abstract's
//! claim: utility first rises with widening, then the accumulated
//! violations push providers out faster than the extra utility accrues, and
//! net utility falls — the house is "strictly limited in how much it can
//! expand its privacy policies and economically benefit".

use serde::{Deserialize, Serialize};

use qpv_core::{
    AuditEngine, CompiledPopulation, DeltaError, PolicyOutcome, PopulationDelta, ProviderProfile,
};
use qpv_policy::HousePolicy;

use crate::utility::UtilityModel;

/// One row of the expansion table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExpansionRow {
    /// Widening step (0 = baseline).
    pub step: u32,
    /// Scenario label.
    pub label: String,
    /// Equation 16's `Violations`.
    pub total_violations: u128,
    /// `P(W)`.
    pub p_violation: f64,
    /// `P(Default)`.
    pub p_default: f64,
    /// Providers who default at this width.
    pub defaults: usize,
    /// `N_future`.
    pub n_future: usize,
    /// Equation 31's break-even `T` for this width.
    pub t_min: f64,
    /// The extra utility per provider actually on offer at this width.
    pub t_offered: f64,
    /// `Utility_future = N_future × (U + T_offered)` (Eq. 27).
    pub utility_future: f64,
    /// `Utility_future − Utility_current`: positive while widening pays.
    pub net_gain: f64,
    /// Whether Equation 28 holds at this width.
    pub justified: bool,
}

/// Sweep runner.
///
/// The population is compiled once into flat structure-of-arrays form at
/// construction ([`CompiledPopulation`]); a K-step sweep after that is one
/// counts-only pass that fills each unique row's preference lanes once and
/// sweeps all K policies over them, instead of K full audits.
#[derive(Debug)]
pub struct ExpansionSweep<'a> {
    engine: &'a AuditEngine,
    pop: CompiledPopulation,
    utility: UtilityModel,
    /// Extra utility per provider unlocked per widening step (linear offer
    /// curve `T(s) = t_per_step · s` — the simplest §9-consistent choice;
    /// callers can post-process rows for other curves).
    t_per_step: f64,
}

impl<'a> ExpansionSweep<'a> {
    /// Create a sweep over a population with utility parameters.
    pub fn new(
        engine: &'a AuditEngine,
        profiles: &[ProviderProfile],
        utility: UtilityModel,
        t_per_step: f64,
    ) -> ExpansionSweep<'a> {
        ExpansionSweep::from_population(
            engine,
            CompiledPopulation::from_profiles(profiles),
            utility,
            t_per_step,
        )
    }

    /// [`ExpansionSweep::new`], reusing an already-compiled population.
    pub fn from_population(
        engine: &'a AuditEngine,
        pop: CompiledPopulation,
        utility: UtilityModel,
        t_per_step: f64,
    ) -> ExpansionSweep<'a> {
        ExpansionSweep {
            engine,
            pop,
            utility,
            t_per_step,
        }
    }

    /// [`ExpansionSweep::from_population`], pricing an expansion against a
    /// base population plus a [`PopulationDelta`] (Eq. 31's marginal
    /// question under churn): clone-and-apply instead of recompiling from
    /// profiles, leaving the base untouched for other sweeps.
    pub fn with_delta(
        engine: &'a AuditEngine,
        base: &CompiledPopulation,
        delta: &PopulationDelta,
        utility: UtilityModel,
        t_per_step: f64,
    ) -> Result<ExpansionSweep<'a>, DeltaError> {
        let mut pop = base.clone();
        pop.apply_delta(delta)?;
        Ok(ExpansionSweep::from_population(
            engine, pop, utility, t_per_step,
        ))
    }

    /// Tabulate one evaluated step from its audit counts.
    fn row(&self, step: u32, label: &str, counts: &PolicyOutcome) -> ExpansionRow {
        let n_current = self.pop.len();
        let n_future = counts.remaining();
        let t_offered = self.t_per_step * step as f64;
        let utility_future = self.utility.utility_future(n_future, t_offered);
        let utility_current = self.utility.utility_current(n_current);
        ExpansionRow {
            step,
            label: label.to_string(),
            total_violations: counts.total_violations,
            p_violation: counts.p_violation(),
            p_default: counts.p_default(),
            defaults: n_current - n_future,
            n_future,
            t_min: self.utility.break_even_extra(n_current, n_future),
            t_offered,
            utility_future,
            net_gain: utility_future - utility_current,
            justified: self.utility.is_justified(n_current, n_future, t_offered),
        }
    }

    /// Evaluate one candidate policy at a given step.
    pub fn evaluate(&self, step: u32, label: &str, policy: &HousePolicy) -> ExpansionRow {
        let counts = self.engine.counts_with_policy(&self.pop, policy);
        self.row(step, label, &counts)
    }

    /// Run a uniform-widening sweep of `max_steps` steps: one fused
    /// multi-policy pass over the compiled population (Eq. 31's sweep).
    pub fn run_uniform(&self, base: &HousePolicy, max_steps: u32) -> Vec<ExpansionRow> {
        let policies: Vec<HousePolicy> = (0..=max_steps).map(|s| base.widened_uniform(s)).collect();
        self.engine
            .audit_many_policies(&self.pop, &policies)
            .iter()
            .enumerate()
            .map(|(s, counts)| self.row(s as u32, &format!("widen+{s}"), counts))
            .collect()
    }

    /// Run over an explicit labelled sweep (e.g. from
    /// `qpv_synth::workload::PolicySweep`), batched the same way.
    pub fn run_labelled(&self, steps: &[(String, HousePolicy)]) -> Vec<ExpansionRow> {
        let policies: Vec<HousePolicy> = steps.iter().map(|(_, p)| p.clone()).collect();
        self.engine
            .audit_many_policies(&self.pop, &policies)
            .iter()
            .zip(steps)
            .enumerate()
            .map(|(i, (counts, (label, _)))| self.row(i as u32, label, counts))
            .collect()
    }

    /// The widening step with the highest net gain (the house's §9 optimum).
    pub fn optimal_step(rows: &[ExpansionRow]) -> Option<&ExpansionRow> {
        rows.iter()
            .max_by(|a, b| a.net_gain.partial_cmp(&b.net_gain).expect("finite gains"))
    }
}

/// Render rows as an aligned text table (used by the experiment binaries).
pub fn render_table(rows: &[ExpansionRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>4} {:>12} {:>8} {:>10} {:>8} {:>8} {:>10} {:>10} {:>12} {:>10}",
        "step",
        "Violations",
        "P(W)",
        "P(Def)",
        "defaults",
        "N_fut",
        "T_min",
        "T_offer",
        "Utility_fut",
        "net_gain"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:>4} {:>12} {:>8.3} {:>10.3} {:>8} {:>8} {:>10.2} {:>10.2} {:>12.1} {:>10.1}",
            r.step,
            r.total_violations,
            r.p_violation,
            r.p_default,
            r.defaults,
            r.n_future,
            r.t_min,
            r.t_offered,
            r.utility_future,
            r.net_gain
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpv_core::sensitivity::AttributeSensitivities;
    use qpv_core::DatumSensitivity;
    use qpv_policy::{ProviderId, ProviderPreferences};
    use qpv_taxonomy::{PrivacyPoint, PrivacyTuple};

    fn pt(v: u32, g: u32, r: u32) -> PrivacyPoint {
        PrivacyPoint::from_raw(v, g, r)
    }

    /// Staggered population: provider `i` tolerates `i` widening steps
    /// before violation, and has threshold 0 (violation ⇒ default).
    fn setup(n: u64) -> (AuditEngine, Vec<ProviderProfile>) {
        let policy = HousePolicy::builder("h")
            .tuple("x", PrivacyTuple::from_point("pr", pt(2, 2, 2)))
            .build();
        let engine = AuditEngine::new(policy, ["x"], AttributeSensitivities::new());
        let profiles = (0..n)
            .map(|i| {
                let mut p = ProviderProfile::new(ProviderId(i), 0);
                let mut prefs = ProviderPreferences::new(ProviderId(i));
                prefs.add(
                    "x",
                    PrivacyTuple::from_point("pr", pt(2 + i as u32, 2 + i as u32, 2 + i as u32)),
                );
                p.preferences = prefs;
                p.sensitivities
                    .insert("x".into(), DatumSensitivity::neutral());
                p
            })
            .collect();
        (engine, profiles)
    }

    #[test]
    fn baseline_has_no_defaults() {
        let (engine, profiles) = setup(10);
        let sweep = ExpansionSweep::new(&engine, &profiles, UtilityModel::new(10.0), 3.0);
        let rows = sweep.run_uniform(&engine.policy, 0);
        assert_eq!(rows[0].defaults, 0);
        assert_eq!(rows[0].n_future, 10);
        assert_eq!(rows[0].net_gain, 0.0);
        assert!(!rows[0].justified); // strict inequality at T = 0
    }

    #[test]
    fn defaults_accumulate_with_widening() {
        let (engine, profiles) = setup(10);
        let sweep = ExpansionSweep::new(&engine, &profiles, UtilityModel::new(10.0), 3.0);
        let rows = sweep.run_uniform(&engine.policy, 9);
        // Provider i defaults once widening exceeds i: at step s providers
        // 0..s have defaulted.
        for (s, row) in rows.iter().enumerate() {
            assert_eq!(row.defaults, s, "step {s}");
            assert_eq!(row.n_future, 10 - s);
        }
        // Violations and P(Default) are monotone.
        for pair in rows.windows(2) {
            assert!(pair[1].total_violations >= pair[0].total_violations);
            assert!(pair[1].p_default >= pair[0].p_default);
        }
    }

    #[test]
    fn net_gain_rises_then_falls_the_headline_shape() {
        let (engine, profiles) = setup(10);
        // Generous extra utility per step, so early widening pays.
        let sweep = ExpansionSweep::new(&engine, &profiles, UtilityModel::new(10.0), 5.0);
        let rows = sweep.run_uniform(&engine.policy, 9);
        let gains: Vec<f64> = rows.iter().map(|r| r.net_gain).collect();
        let best = ExpansionSweep::optimal_step(&rows).unwrap();
        // The optimum is interior: better than both no-widening and maximal
        // widening — the "strictly limited" claim.
        assert!(best.step > 0, "gains: {gains:?}");
        assert!(best.step < 9, "gains: {gains:?}");
        assert!(best.net_gain > rows[0].net_gain);
        assert!(best.net_gain > rows[9].net_gain);
        // The tail is detrimental in absolute terms.
        assert!(rows[9].net_gain < 0.0, "gains: {gains:?}");
    }

    #[test]
    fn t_min_matches_equation_31_per_row() {
        let (engine, profiles) = setup(10);
        let u = UtilityModel::new(10.0);
        let sweep = ExpansionSweep::new(&engine, &profiles, u, 3.0);
        let rows = sweep.run_uniform(&engine.policy, 5);
        for row in &rows {
            let expected = u.break_even_extra(10, row.n_future);
            assert_eq!(row.t_min, expected);
            assert_eq!(
                row.justified,
                u.is_justified(10, row.n_future, row.t_offered)
            );
        }
    }

    /// Pricing an expansion on base + delta gives the same table as
    /// sweeping the mutated profiles, without touching the base.
    #[test]
    fn with_delta_matches_sweeping_mutated_profiles() {
        let (engine, mut profiles) = setup(10);
        let base = CompiledPopulation::from_profiles(&profiles);

        let mut newcomer = ProviderProfile::new(ProviderId(40), 0);
        let mut prefs = ProviderPreferences::new(ProviderId(40));
        prefs.add("x", PrivacyTuple::from_point("pr", pt(6, 6, 6)));
        newcomer.preferences = prefs;
        newcomer
            .sensitivities
            .insert("x".into(), DatumSensitivity::neutral());
        let delta = PopulationDelta::new()
            .upsert(newcomer)
            .remove(ProviderId(1))
            .set_threshold(ProviderId(8), 5);

        let u = UtilityModel::new(10.0);
        let sweep = ExpansionSweep::with_delta(&engine, &base, &delta, u, 3.0).unwrap();
        delta.apply_to_profiles(&mut profiles);
        let fresh = ExpansionSweep::new(&engine, &profiles, u, 3.0);

        let a = sweep.run_uniform(&engine.policy, 6);
        let b = fresh.run_uniform(&engine.policy, 6);
        assert_eq!(a, b);
        assert_eq!(base.len(), 10, "base must not be mutated");
    }

    #[test]
    fn labelled_runs_preserve_labels() {
        let (engine, profiles) = setup(5);
        let sweep = ExpansionSweep::new(&engine, &profiles, UtilityModel::new(1.0), 1.0);
        let steps = vec![
            ("base".to_string(), engine.policy.clone()),
            ("wide".to_string(), engine.policy.widened_uniform(3)),
        ];
        let rows = sweep.run_labelled(&steps);
        assert_eq!(rows[0].label, "base");
        assert_eq!(rows[1].label, "wide");
    }

    #[test]
    fn table_rendering_includes_key_columns() {
        let (engine, profiles) = setup(5);
        let sweep = ExpansionSweep::new(&engine, &profiles, UtilityModel::new(10.0), 3.0);
        let rows = sweep.run_uniform(&engine.policy, 3);
        let table = render_table(&rows);
        assert!(table.contains("T_min"));
        assert!(table.contains("net_gain"));
        assert_eq!(table.lines().count(), 5);
    }
}
