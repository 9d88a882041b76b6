//! Compiled audit plans: the house side of the audit, string-free.
//!
//! The reference implementation re-resolves attribute and purpose strings
//! for every `(provider, policy tuple)` pair: `attributes.contains(..)` per
//! tuple, linear `effective_point` scans over the provider's stated
//! preferences, a `dominated_by` DFS per lattice comparison, and two hash
//! lookups per pair for the sensitivity weights. All of that is invariant
//! across providers, so a [`CompiledAuditPlan`] hoists it out:
//!
//! * attributes and purposes are interned to dense `u32` ids once
//!   ([`crate::intern::SymbolTable`]);
//! * every policy tuple becomes a `PlanRow` `(attr_id, purpose_id,
//!   point, weight)` with the attribute filter applied and the per-purpose
//!   `Σ^a` weight pre-resolved;
//! * under lattice semantics, each policy purpose's *coverage set* (every
//!   purpose whose stated consent dominates it — the ancestor closure) is
//!   precomputed to a list of purpose ids, so `effective_point_lattice`
//!   becomes a few array probes instead of repeated DFS walks.
//!
//! A plan is evaluated by one compiled kernel, `crate::packed`: it
//! resolves the plan's rows to lanes of a [`crate::pop::CompiledPopulation`]
//! once, then scores blocks of unique rows branch-free, producing counts
//! or, for a single plan, each row's score and witnesses. Witnesses resolve
//! their names through the plan's symbol tables (reference-count bumps, no
//! string copies). The property suites (`crates/core/tests/plan_equivalence.rs`,
//! `pop_equivalence.rs`) pin the compiled results bitwise-equal to the
//! reference path — same witnesses in the same order, same saturating
//! score accumulation, same totals.
//!
//! Plans stay valid across population deltas: a
//! [`crate::pop::CompiledPopulation`] interns symbols append-only, so
//! `apply_delta` never renumbers an id a plan already references. Only a
//! *policy* change requires recompiling the plan; a population delta only
//! needs the kernel re-prepared against the new symbols (see
//! [`crate::LiveViolationIndex::apply_delta`]).

use qpv_policy::HousePolicy;
use qpv_taxonomy::{PrivacyPoint, PurposeLattice};

use crate::intern::SymbolTable;
use crate::sensitivity::SensitivityModel;

/// One pre-resolved policy tuple. Rows keep the policy's insertion order
/// (filtered to stored attributes), which is what makes compiled witness
/// lists and saturating score sums identical to the reference path.
///
/// Rows carry only symbol ids — witness construction resolves names back
/// through the plan's `SymbolTable`s (a reference-count bump per witness,
/// no string copies).
#[derive(Debug, Clone)]
pub(crate) struct PlanRow {
    /// Dense attribute id.
    pub(crate) attr: u32,
    /// Dense purpose id (flat matching key).
    pub(crate) purpose: u32,
    /// The policy point.
    pub(crate) point: PrivacyPoint,
    /// Pre-resolved `Σ^a` honouring any per-purpose override.
    pub(crate) weight: u32,
    /// Index into [`CompiledAuditPlan::covers`] (lattice mode only).
    pub(crate) covers: u32,
}

/// A [`HousePolicy`] × attribute list × [`SensitivityModel`] × optional
/// [`PurposeLattice`], compiled once and then applied to any number of
/// providers. See the module docs for what is pre-resolved.
#[derive(Debug, Clone)]
pub struct CompiledAuditPlan {
    pub(crate) attrs: SymbolTable,
    pub(crate) purposes: SymbolTable,
    pub(crate) rows: Vec<PlanRow>,
    /// Per-distinct-policy-purpose coverage sets: the purpose ids whose
    /// stated consent covers that policy purpose (ancestor closure,
    /// including the purpose itself). Empty in flat mode.
    pub(crate) covers: Vec<Vec<u32>>,
    pub(crate) lattice_mode: bool,
}

impl CompiledAuditPlan {
    /// Compile a plan. `attributes` is the data table's attribute list
    /// (what providers supply); policy tuples outside it are dropped at
    /// compile time instead of being re-filtered per provider. Pass the
    /// lattice to compile for lattice purpose semantics.
    pub fn compile(
        policy: &HousePolicy,
        attributes: &[String],
        sensitivity: &SensitivityModel,
        lattice: Option<&PurposeLattice>,
    ) -> CompiledAuditPlan {
        let mut attrs = SymbolTable::new();
        let mut purposes = SymbolTable::new();
        let mut rows = Vec::new();
        let mut covers: Vec<Vec<u32>> = Vec::new();
        let mut cover_of: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
        for pt in policy.tuples() {
            if !attributes.contains(&pt.attribute) {
                continue;
            }
            let attr = attrs.intern(&pt.attribute);
            let purpose = purposes.intern(pt.tuple.purpose.name());
            let covers_idx = match lattice {
                None => 0,
                Some(l) => *cover_of.entry(purpose).or_insert_with(|| {
                    let mut ids: Vec<u32> = l
                        .covering_set(&pt.tuple.purpose)
                        .iter()
                        .map(|p| purposes.intern(p.name()))
                        .collect();
                    ids.sort_unstable();
                    ids.dedup();
                    covers.push(ids);
                    (covers.len() - 1) as u32
                }),
            };
            rows.push(PlanRow {
                attr,
                purpose,
                point: pt.tuple.point,
                weight: sensitivity.attribute_weight(&pt.attribute, pt.tuple.purpose.name()),
                covers: covers_idx,
            });
        }
        CompiledAuditPlan {
            attrs,
            purposes,
            rows,
            covers,
            lattice_mode: lattice.is_some(),
        }
    }

    /// Number of compiled policy rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Number of interned attributes / purposes.
    pub fn symbol_counts(&self) -> (usize, usize) {
        (self.attrs.len(), self.purposes.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::AuditEngine;
    use crate::pop::CompiledPopulation;
    use crate::profile::{assemble, ProviderProfile};
    use crate::sensitivity::{AttributeSensitivities, DatumSensitivity};
    use qpv_policy::ProviderId;
    use qpv_taxonomy::PrivacyTuple;

    fn pt(v: u32, g: u32, r: u32) -> PrivacyPoint {
        PrivacyPoint::from_raw(v, g, r)
    }

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
            ),
            mk(
                1,
                pt(v + 2, g - 1, r + 2),
                DatumSensitivity::new(3, 1, 5, 2),
                50,
            ),
            mk(
                2,
                pt(v, g - 1, r - 1),
                DatumSensitivity::new(4, 1, 3, 2),
                100,
            ),
        ];
        (engine, profiles)
    }

    #[test]
    fn compiled_plan_reproduces_table_1() {
        let (engine, profiles) = worked_example();
        let (sensitivity, _) = assemble(&profiles, &engine.attribute_weights);
        let plan =
            CompiledAuditPlan::compile(&engine.policy, &engine.attributes, &sensitivity, None);
        assert_eq!(plan.row_count(), 1);
        assert_eq!(plan.symbol_counts(), (1, 1));
        let pop = CompiledPopulation::from_profiles(&profiles);
        let report = engine.audit_compiled(&pop);
        let scores: Vec<u64> = report.providers.iter().map(|p| p.score).collect();
        assert_eq!(scores, vec![0, 60, 80]);
        let violated: Vec<bool> = report.providers.iter().map(|p| p.violated).collect();
        assert_eq!(violated, vec![false, true, true]);
        assert_eq!(report.total_violations, 140);
    }

    #[test]
    fn compiled_equals_reference_per_provider() {
        let (engine, profiles) = worked_example();
        let compiled = engine.run(&profiles);
        let reference = engine.run_reference(&profiles);
        assert_eq!(compiled, reference);
    }

    #[test]
    fn flat_duplicate_preferences_keep_first_stated_tuple() {
        // `effective_point` is find-first; the dense table must not let a
        // later duplicate overwrite the first stated point.
        let policy = HousePolicy::builder("h")
            .tuple("weight", PrivacyTuple::from_point("pr", pt(3, 3, 3)))
            .build();
        let mut profile = ProviderProfile::new(ProviderId(0), 100);
        profile
            .preferences
            .add("weight", PrivacyTuple::from_point("pr", pt(1, 1, 1)));
        profile
            .preferences
            .add("weight", PrivacyTuple::from_point("pr", pt(9, 9, 9)));
        let engine = AuditEngine::new(policy, ["weight"], AttributeSensitivities::new());
        let compiled = engine.run(std::slice::from_ref(&profile));
        let reference = engine.run_reference(std::slice::from_ref(&profile));
        assert_eq!(compiled, reference);
        assert_eq!(compiled.providers[0].witnesses[0].preference, pt(1, 1, 1));
    }

    #[test]
    fn lattice_duplicate_preferences_join_all_stated_points() {
        // Under the lattice, *all* stated tuples for a covering purpose
        // join — including duplicates of the same purpose.
        let mut lattice = PurposeLattice::new();
        lattice.add_edge("billing", "operations").unwrap();
        let policy = HousePolicy::builder("h")
            .tuple("weight", PrivacyTuple::from_point("billing", pt(3, 3, 3)))
            .build();
        let mut profile = ProviderProfile::new(ProviderId(0), 100);
        profile.preferences.add(
            "weight",
            PrivacyTuple::from_point("operations", pt(3, 1, 1)),
        );
        profile.preferences.add(
            "weight",
            PrivacyTuple::from_point("operations", pt(1, 3, 3)),
        );
        let engine = AuditEngine::new(policy, ["weight"], AttributeSensitivities::new())
            .with_lattice(lattice);
        let compiled = engine.run(std::slice::from_ref(&profile));
        let reference = engine.run_reference(std::slice::from_ref(&profile));
        assert_eq!(compiled, reference);
        assert!(
            !compiled.providers[0].violated,
            "joined point (3,3,3) bounds"
        );
    }

    #[test]
    fn unknown_purposes_and_attributes_are_skipped() {
        let policy = HousePolicy::builder("h")
            .tuple("weight", PrivacyTuple::from_point("pr", pt(2, 2, 2)))
            .tuple("ghost", PrivacyTuple::from_point("pr", pt(9, 9, 9)))
            .build();
        let mut profile = ProviderProfile::new(ProviderId(0), 100);
        profile
            .preferences
            .add("weight", PrivacyTuple::from_point("mystery", pt(9, 9, 9)));
        profile
            .preferences
            .add("other", PrivacyTuple::from_point("pr", pt(9, 9, 9)));
        let engine = AuditEngine::new(policy, ["weight"], AttributeSensitivities::new());
        let compiled = engine.run(std::slice::from_ref(&profile));
        let reference = engine.run_reference(std::slice::from_ref(&profile));
        assert_eq!(compiled, reference);
        // The ghost policy row was dropped at compile time; "mystery" and
        // "other" never matched anything: implicit deny-all violation.
        assert!(compiled.providers[0].witnesses[0].implicit_preference);
    }
}
