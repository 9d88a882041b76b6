//! Selective audits: the [`AuditBridge`] the SQL layer scores providers
//! through.
//!
//! A [`SelectiveAuditor`] snapshots one `(policy, population)` pair —
//! house plan compiled and the scoring kernel (`crate::packed`) prepared
//! once — and answers the three bridge questions the executor asks:
//!
//! * [`AuditBridge::violates`] — point probe for `VIOLATES(...)`
//!   predicates: true if any occurrence of the id violates, memoised per
//!   unique row (a filter re-asks for every row of a multi-row provider);
//! * [`AuditBridge::violations_for`] — the *selective* path: candidate
//!   provider ids (from a secondary-index range scan) are mapped to
//!   occurrences, and their unique rows are scored in one kernel call,
//!   `O(candidates · cost(score))` instead of `O(N · cost(score))`;
//! * [`AuditBridge::violations_all`] — the full sweep, the oracle the
//!   selective path must match byte for byte.
//!
//! Byte-identity holds by construction: both paths score unique rows with
//! the same kernel and emit rows in ascending occurrence (population)
//! order, so the selective output is exactly the full output restricted to
//! the candidate set — the access-path choice can never change query
//! results. The helpers both bridges share (policy check, id index,
//! planner statistics, row emission) live here too.

use std::cell::RefCell;
use std::collections::HashMap;

use qpv_reldb::audit_bridge::{AuditBridge, ViolationRow, ViolationStats};
use qpv_reldb::error::{DbError, DbResult};

use crate::audit::AuditEngine;
use crate::packed::{Buffers, Kernel, RowAudit};
use crate::pop::CompiledPopulation;
use crate::violation::ViolationWitness;

/// An owned audit snapshot implementing [`AuditBridge`].
///
/// Built by [`crate::Ppdb::selective_auditor`] (or directly from an
/// engine + compiled population). Later writes to the source database do
/// not affect it; take a fresh one per query batch.
pub struct SelectiveAuditor {
    engine: AuditEngine,
    kernel: Kernel,
    pop: CompiledPopulation,
    /// `(provider id, occurrence)` sorted ascending (duplicate data-table
    /// ids audit once per occurrence, like the full sweep).
    by_id: Vec<(i64, u32)>,
    /// Unique-row-keyed witness memo for [`AuditBridge::violates`] probes.
    memo: RefCell<HashMap<u32, Vec<ViolationWitness>>>,
    /// The kernel's block buffers, kept across calls.
    bufs: RefCell<Buffers>,
}

impl SelectiveAuditor {
    /// Compile `engine`'s house policy and prepare the kernel for `pop`.
    pub fn new(engine: AuditEngine, pop: CompiledPopulation) -> SelectiveAuditor {
        let kernel = Kernel::new(&pop, vec![engine.compile_house()]);
        let mut by_id: Vec<(i64, u32)> = (0..pop.len())
            .map(|i| (pop.id(i).0 as i64, i as u32))
            .collect();
        by_id.sort_unstable();
        SelectiveAuditor {
            engine,
            kernel,
            pop,
            by_id,
            memo: RefCell::new(HashMap::new()),
            bufs: RefCell::new(Buffers::default()),
        }
    }

    /// The snapshot's population.
    pub fn compiled_population(&self) -> &CompiledPopulation {
        &self.pop
    }

    /// Planner statistics for this snapshot: population shape only
    /// (`violations: None` — counting them would cost a full sweep), not
    /// index-backed.
    pub fn stats(&self) -> ViolationStats {
        id_stats(&self.by_id, None, false)
    }

    /// Score the listed unique rows with their witnesses, in list order.
    fn audit_rows(&self, rows: &[u32]) -> Vec<RowAudit> {
        self.kernel
            .audit_rows(&self.pop, rows, &mut self.bufs.borrow_mut())
    }
}

/// Reject policy names other than `engine`'s house policy. A bridge
/// carries one compiled plan; auditing a different policy is a different
/// snapshot, not a different argument.
pub(crate) fn check_policy(engine: &AuditEngine, policy: Option<&str>) -> DbResult<()> {
    match policy {
        None => Ok(()),
        Some(name) if name == engine.policy.name => Ok(()),
        Some(name) => Err(DbError::Eval(format!(
            "unknown policy {name:?} (this audit snapshot holds {:?})",
            engine.policy.name
        ))),
    }
}

/// Occurrences whose provider id is `id`, ascending, from a sorted
/// `(provider id, occurrence)` index.
pub(crate) fn occurrences_of(by_id: &[(i64, u32)], id: i64) -> impl Iterator<Item = usize> + '_ {
    let start = by_id.partition_point(|&(pid, _)| pid < id);
    by_id[start..]
        .iter()
        .take_while(move |&&(pid, _)| pid == id)
        .map(|&(_, occ)| occ as usize)
}

/// Planner statistics from a sorted `(provider id, occurrence)` index.
/// Shared by the snapshot auditor (`indexed: false`, unknown violation
/// count) and the live index (`indexed: true`, maintained count).
pub(crate) fn id_stats(
    by_id: &[(i64, u32)],
    violations: Option<usize>,
    indexed: bool,
) -> ViolationStats {
    ViolationStats {
        population: by_id.len(),
        distinct_providers: by_id.chunk_by(|a, b| a.0 == b.0).count(),
        min_provider: by_id.first().map_or(0, |&(id, _)| id),
        max_provider: by_id.last().map_or(0, |&(id, _)| id),
        violations,
        indexed,
    }
}

/// Append one occurrence's witness rows (one per witness, severity = its
/// total `Violation_i` score) to `out`. This is THE row emission for
/// every `_qpv_violations` access path — the selective auditor and the
/// live index both call it, so byte-identity across paths holds by
/// construction.
pub(crate) fn push_witness_rows(provider: i64, row: &RowAudit, out: &mut Vec<ViolationRow>) {
    let severity = i64::try_from(row.score).unwrap_or(i64::MAX);
    for w in &row.witnesses {
        out.push(ViolationRow {
            provider,
            attribute: w.attribute.as_str().to_string(),
            purpose: w.purpose.name().to_string(),
            severity,
        });
    }
}

impl AuditBridge for SelectiveAuditor {
    fn population(&self) -> usize {
        self.pop.len()
    }

    fn violates(
        &self,
        provider: i64,
        policy: Option<&str>,
        attribute: Option<&str>,
    ) -> DbResult<bool> {
        check_policy(&self.engine, policy)?;
        // Occurrences of one id may state different preferences: the id
        // violates if any of them does. Absent providers do not violate.
        let mut memo = self.memo.borrow_mut();
        Ok(occurrences_of(&self.by_id, provider).any(|i| {
            let u = self.pop.urows()[i];
            let witnesses = memo
                .entry(u)
                .or_insert_with(|| self.audit_rows(&[u]).swap_remove(0).witnesses);
            match attribute {
                None => !witnesses.is_empty(),
                Some(attr) => witnesses.iter().any(|w| w.attribute.as_str() == attr),
            }
        }))
    }

    fn violations_for(
        &self,
        providers: &[i64],
        policy: Option<&str>,
    ) -> DbResult<Vec<ViolationRow>> {
        check_policy(&self.engine, policy)?;
        let mut occs: Vec<usize> = providers
            .iter()
            .flat_map(|&p| occurrences_of(&self.by_id, p))
            .collect();
        // Ascending occurrence order *is* population order, so this emits
        // exactly `violations_all`'s rows restricted to the candidates.
        occs.sort_unstable();
        occs.dedup();
        // One kernel call scores each candidate unique row once.
        let urows = self.pop.urows();
        let mut rows: Vec<u32> = occs.iter().map(|&i| urows[i]).collect();
        rows.sort_unstable();
        rows.dedup();
        let audits = self.audit_rows(&rows);
        let mut out = Vec::new();
        for i in occs {
            let at = rows.binary_search(&urows[i]).expect("row scored");
            push_witness_rows(self.pop.id(i).0 as i64, &audits[at], &mut out);
        }
        Ok(out)
    }

    fn violations_all(&self, policy: Option<&str>) -> DbResult<Vec<ViolationRow>> {
        check_policy(&self.engine, policy)?;
        let audits = self
            .kernel
            .audit_all(&self.pop, &mut self.bufs.borrow_mut());
        let mut out = Vec::new();
        for (i, &u) in self.pop.urows().iter().enumerate() {
            push_witness_rows(self.pop.id(i).0 as i64, &audits[u as usize], &mut out);
        }
        Ok(out)
    }

    fn stats(&self) -> Option<ViolationStats> {
        Some(SelectiveAuditor::stats(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pop::PopulationDelta;
    use crate::profile::ProviderProfile;
    use crate::sensitivity::{AttributeSensitivities, DatumSensitivity};
    use qpv_policy::{HousePolicy, ProviderId};
    use qpv_taxonomy::{PrivacyPoint, PrivacyTuple};

    fn pt(v: u32, g: u32, r: u32) -> PrivacyPoint {
        PrivacyPoint::from_raw(v, g, r)
    }

    /// A policy exposing `weight` widely; providers with strict `weight`
    /// preferences violate, permissive ones don't.
    fn engine() -> AuditEngine {
        let mut policy = HousePolicy::new("house");
        policy.add("weight", PrivacyTuple::from_point("pr", pt(7, 4, 7)));
        let mut weights = AttributeSensitivities::new();
        weights.set("weight", 3);
        AuditEngine::new(policy, ["age", "weight"], weights)
    }

    fn population(n: u64) -> CompiledPopulation {
        let profiles: Vec<ProviderProfile> = (0..n)
            .map(|i| {
                let mut p = ProviderProfile::new(ProviderId(i), 0);
                // Every third provider is strict (violated); others allow
                // exactly the policy point (not violated).
                let pref = if i % 3 == 0 { pt(1, 1, 1) } else { pt(7, 4, 7) };
                p.preferences
                    .add("weight", PrivacyTuple::from_point("pr", pref));
                p.sensitivities
                    .insert("weight".into(), DatumSensitivity::new(3, 1, 5, 2));
                p
            })
            .collect();
        CompiledPopulation::from_profiles(&profiles)
    }

    /// `population(50)` plus a provider with a unique row, then two
    /// removals: the unique row's slot dies, and a swap-remove moves the
    /// last occurrence, so occurrences no longer follow slot order.
    fn clustered_with_dead_slot() -> CompiledPopulation {
        let mut pop = population(50);
        let mut odd = ProviderProfile::new(ProviderId(50), 0);
        odd.preferences
            .add("weight", PrivacyTuple::from_point("pr", pt(2, 2, 2)));
        odd.sensitivities
            .insert("weight".into(), DatumSensitivity::new(9, 9, 9, 9));
        let delta = PopulationDelta::new()
            .upsert(odd)
            .remove(ProviderId(50))
            .remove(ProviderId(12));
        pop.apply_delta(&delta).unwrap();
        assert!(
            pop.unique_row_count() < pop.table().slot_count(),
            "a dead slot"
        );
        assert!(pop.dedup_ratio() > 1.0, "shared rows");
        pop
    }

    #[test]
    fn selective_restriction_is_byte_identical_to_full_sweep() {
        for pop in [population(50), clustered_with_dead_slot()] {
            let auditor = SelectiveAuditor::new(engine(), pop);
            let all = auditor.violations_all(None).unwrap();
            assert!(!all.is_empty());
            // Every-other-provider candidate set, deliberately unsorted and
            // with repeats and absentees.
            let mut candidates: Vec<i64> = (0..50).rev().filter(|i| i % 2 == 0).collect();
            candidates.push(4);
            candidates.push(9999);
            let selected = auditor.violations_for(&candidates, None).unwrap();
            let expected: Vec<ViolationRow> = all
                .iter()
                .filter(|r| r.provider % 2 == 0)
                .cloned()
                .collect();
            assert_eq!(selected, expected);
            // Full candidate set reproduces the sweep exactly.
            let everyone: Vec<i64> = (0..50).collect();
            assert_eq!(auditor.violations_for(&everyone, None).unwrap(), all);
        }
    }

    #[test]
    fn violates_probes_and_policy_names() {
        let auditor = SelectiveAuditor::new(engine(), population(10));
        assert!(auditor.violates(0, None, None).unwrap());
        assert!(!auditor.violates(1, None, None).unwrap());
        assert!(!auditor.violates(-5, None, None).unwrap(), "absent id");
        assert!(!auditor.violates(10, None, None).unwrap(), "absent id");
        // Attribute restriction: witnesses are on `weight`, not `age`.
        assert!(auditor.violates(0, None, Some("weight")).unwrap());
        assert!(!auditor.violates(0, None, Some("age")).unwrap());
        // Policy names: the snapshot's house policy or nothing.
        assert!(auditor.violates(0, Some("house"), None).unwrap());
        let err = auditor.violates(0, Some("other"), None).unwrap_err();
        assert!(matches!(err, DbError::Eval(_)), "{err}");
    }

    #[test]
    fn population_order_survives_duplicate_occurrences() {
        // Same id registered twice: the sweep emits both occurrences, and
        // so must the selective path.
        let mut profiles = Vec::new();
        for _ in 0..2 {
            let mut p = ProviderProfile::new(ProviderId(7), 0);
            p.preferences
                .add("weight", PrivacyTuple::from_point("pr", pt(1, 1, 1)));
            profiles.push(p);
        }
        let auditor = SelectiveAuditor::new(engine(), CompiledPopulation::from_profiles(&profiles));
        let all = auditor.violations_all(None).unwrap();
        assert_eq!(all.len(), 2);
        assert_eq!(auditor.violations_for(&[7, 7], None).unwrap(), all);
    }
}
