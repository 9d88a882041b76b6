//! The live violation index: the audit's answer set as *standing state*.
//!
//! A [`LiveViolationIndex`] materializes the full `(provider, attr,
//! purpose, severity)` violation set once from a [`CompiledPopulation`],
//! then maintains it incrementally off the [`PopulationDelta`] stream —
//! the materialized-view shape the paper's continuous-monitoring setting
//! (§10) calls for: pay `O(changed)` per delta, answer queries in
//! `O(log n + answer)`, never recompile a snapshot on the query path.
//!
//! Four structures are kept in lockstep with the population:
//!
//! * `rows[i]` — occurrence `i`'s witness rows, exactly what the full
//!   sweep would emit for it (empty = not in violation). Emission goes
//!   through the same helper as [`crate::SelectiveAuditor`], so
//!   byte-identity across access paths holds by construction;
//! * `scores[i]` / `defaults[i]` — occurrence `i`'s `Violation_i`
//!   (Eq. 15) and `default_i` (Definition 4), with the population-wide
//!   counts and the exact `u128` `Violations` total (Eq. 16) adjusted on
//!   every install, replace and removal — so [`LiveViolationIndex::outcome`]
//!   answers Definitions 2, 3 and 5 in `O(1)`;
//! * `by_id` — `(provider id, occurrence)` pairs sorted by id: point and
//!   range lookups over provider ids in `O(log n + answer)`;
//! * `attr_postings` — witness attribute → sorted occurrence list:
//!   point restrictions like `VIOLATES('p', 'attr')` or
//!   `attr = '...'` prune to the posting instead of sweeping.
//!
//! Maintenance replays the per-occurrence event log of
//! [`CompiledPopulation::apply_delta`]: touched and appended occurrences
//! are marked dirty and re-scored in one call of the scoring kernel
//! (`crate::packed`); removals mirror the population's `swap_remove` on
//! every parallel structure. The kernel is re-prepared after any delta
//! that interns a symbol — its lanes would not route it.
//! The same index serves SQL ([`AuditBridge`]) and the §10 monitor
//! ([`crate::Monitor`]), flat or lattice, whichever the engine compiles.
//!
//! Crash recovery composes with [`crate::deltalog`]: rebuild from the
//! durable snapshot ⊕ tail replay ([`LiveViolationIndex::recover`]), and
//! the result is identical to an index that lived through every delta —
//! the equivalence suite pins this at every crash point.

use std::collections::HashMap;
use std::path::Path;

use qpv_reldb::audit_bridge::{provider_in_bounds, AuditBridge, ViolationRow, ViolationStats};
use qpv_reldb::error::DbResult;
use std::ops::Bound;

use crate::audit::AuditEngine;
use crate::default_model::defaults;
use crate::deltalog::DeltaLog;
use crate::packed::{Buffers, Kernel, RowAudit};
use crate::pop::{CompiledPopulation, DeltaError, DeltaEvent, PolicyOutcome, PopulationDelta};
use crate::selective::{check_policy, id_stats, occurrences_of, push_witness_rows};

/// An incrementally-maintained materialization of the violation set.
///
/// Build once with [`LiveViolationIndex::new`] (full audit pass), then
/// keep current with [`LiveViolationIndex::apply_delta`]. Implements
/// [`AuditBridge`], so it plugs into the SQL layer anywhere a
/// [`crate::SelectiveAuditor`] does — with
/// [`AuditBridge::violations_indexed`] answered from the maintained
/// postings and [`AuditBridge::stats`] reporting `indexed: true`, which
/// is what makes the planner choose `LiveIndexScan`.
pub struct LiveViolationIndex {
    engine: AuditEngine,
    /// The house plan's kernel, re-prepared when a delta interns a symbol.
    kernel: Kernel,
    /// The kernel's block buffers, kept across deltas.
    bufs: Buffers,
    pop: CompiledPopulation,
    /// Occurrence `i`'s materialized witness rows (empty = no violation),
    /// parallel to the population.
    rows: Vec<Vec<ViolationRow>>,
    /// Occurrence `i`'s `Violation_i`, clamped to `u64` like the batch
    /// engine's per-provider score.
    scores: Vec<u64>,
    /// Occurrence `i`'s `default_i`.
    defaults: Vec<bool>,
    /// Occurrence `i`'s provider id — a mirror of the population's id
    /// column so removals can fix `by_id` without re-asking the (already
    /// mutated) population.
    ids: Vec<i64>,
    /// `(provider id, occurrence)` sorted ascending: the provider-id
    /// index. Duplicate-id populations are representable (build-time
    /// only; such populations refuse deltas upstream).
    by_id: Vec<(i64, u32)>,
    /// Witness attribute → occurrences with at least one witness on it,
    /// sorted ascending. Entries are dropped when their list empties.
    attr_postings: HashMap<String, Vec<u32>>,
    /// Occurrences currently in violation (`rows[i]` non-empty).
    violated: usize,
    /// Occurrences currently defaulting (`defaults[i]`).
    defaulted: usize,
    /// Equation 16's `Violations`: the exact sum of `scores`.
    total_violations: u128,
    /// Total materialized witness rows.
    total_rows: usize,
    /// Deltas applied since the build.
    deltas_applied: u64,
}

impl LiveViolationIndex {
    /// Compile `engine`'s house policy, prepare the kernel for `pop`, and
    /// score every unique row once — the cold build, `O(unique rows ·
    /// cost(score) + N)`.
    pub fn new(engine: AuditEngine, pop: CompiledPopulation) -> LiveViolationIndex {
        let kernel = Kernel::new(&pop, vec![engine.compile_house()]);
        let mut bufs = Buffers::default();
        let audits = kernel.audit_all(&pop, &mut bufs);
        let n = pop.len();
        let ids: Vec<i64> = (0..n).map(|i| pop.id(i).0 as i64).collect();
        let mut by_id: Vec<(i64, u32)> = ids.iter().zip(0..).map(|(&id, i)| (id, i)).collect();
        by_id.sort_unstable();
        // Every occurrence starts out clean and takes its audit like a
        // delta-touched one.
        let mut index = LiveViolationIndex {
            engine,
            kernel,
            bufs,
            pop,
            rows: vec![Vec::new(); n],
            scores: vec![0; n],
            defaults: vec![false; n],
            ids,
            by_id,
            attr_postings: HashMap::new(),
            violated: 0,
            defaulted: 0,
            total_violations: 0,
            total_rows: 0,
            deltas_applied: 0,
        };
        for i in 0..n {
            let u = index.pop.urows()[i] as usize;
            index.replace(i, &audits[u]);
        }
        index
    }

    /// Rebuild from a [`DeltaLog`] directory: durable snapshot ⊕ tail
    /// replay, then one cold build over the recovered population. The
    /// result is identical to an index that applied every logged delta
    /// live — re-scoring from the recovered population and replaying
    /// per-delta converge on the same state because both go through
    /// [`CompiledPopulation::apply_delta`]'s mutation semantics.
    pub fn recover(
        dir: impl AsRef<Path>,
        engine: AuditEngine,
    ) -> DbResult<(DeltaLog, LiveViolationIndex)> {
        let (log, recovery) = DeltaLog::recover(dir)?;
        Ok((log, LiveViolationIndex::new(engine, recovery.population)))
    }

    /// Occurrence `i`'s witness rows and `default_i` from its unique
    /// row's kernel output.
    fn occurrence_state(&self, i: usize, audit: &RowAudit) -> (Vec<ViolationRow>, bool) {
        let mut rows = Vec::new();
        push_witness_rows(self.pop.id(i).0 as i64, audit, &mut rows);
        (rows, defaults(audit.score, self.pop.threshold_of(i)))
    }

    /// Replace occurrence `i`'s state with a fresh audit result, diffing
    /// postings and aggregates.
    fn replace(&mut self, i: usize, audit: &RowAudit) {
        let (new_rows, defaulted) = self.occurrence_state(i, audit);
        let old_rows = &self.rows[i];
        for attr in distinct_attrs(old_rows) {
            if !new_rows.iter().any(|r| r.attribute == *attr) {
                posting_remove_attr(&mut self.attr_postings, attr, i);
            }
        }
        for attr in distinct_attrs(&new_rows) {
            if !old_rows.iter().any(|r| r.attribute == *attr) {
                posting_insert(self.attr_postings.entry(attr.to_string()).or_default(), i);
            }
        }
        self.violated =
            self.violated + usize::from(!new_rows.is_empty()) - usize::from(!old_rows.is_empty());
        self.defaulted = self.defaulted + usize::from(defaulted) - usize::from(self.defaults[i]);
        self.total_violations =
            self.total_violations + u128::from(audit.score) - u128::from(self.scores[i]);
        self.total_rows = self.total_rows - old_rows.len() + new_rows.len();
        self.rows[i] = new_rows;
        self.scores[i] = audit.score;
        self.defaults[i] = defaulted;
    }

    /// Apply one delta: mutate the population, replay its event log onto
    /// the parallel structures, re-score exactly the touched occurrences.
    /// `O(changed · cost(score) + changed · log n)`. Errs (before any
    /// mutation) on duplicate-occurrence populations, exactly like
    /// [`CompiledPopulation::apply_delta`].
    pub fn apply_delta(&mut self, delta: &PopulationDelta) -> Result<(), DeltaError> {
        let outcome = self.pop.apply_delta(delta)?;
        // The delta may have interned attribute or purpose symbols the
        // kernel's lanes do not route.
        self.kernel.reprepare(&self.pop);
        let mut dirty: Vec<usize> = Vec::new();
        for event in outcome.events() {
            match *event {
                DeltaEvent::Touched(i) => dirty.push(i as usize),
                DeltaEvent::Appended(i, id) => {
                    let i = i as usize;
                    debug_assert_eq!(i, self.ids.len());
                    // The event carries the id: slot `i` of the (fully
                    // mutated) population may already hold a different
                    // occurrence if a later op in this delta removed one.
                    let id = id.0 as i64;
                    self.ids.push(id);
                    self.rows.push(Vec::new());
                    self.scores.push(0);
                    self.defaults.push(false);
                    by_id_insert(&mut self.by_id, id, i);
                    dirty.push(i);
                }
                DeltaEvent::Removed(i) => {
                    let i = i as usize;
                    let removed_id = self.ids[i];
                    // Mirror the population's swap_remove on every
                    // parallel structure.
                    let old_rows = self.rows.swap_remove(i);
                    let old_score = self.scores.swap_remove(i);
                    let old_default = self.defaults.swap_remove(i);
                    self.ids.swap_remove(i);
                    by_id_remove(&mut self.by_id, removed_id, i);
                    for attr in distinct_attrs(&old_rows) {
                        posting_remove_attr(&mut self.attr_postings, attr, i);
                    }
                    self.violated -= usize::from(!old_rows.is_empty());
                    self.defaulted -= usize::from(old_default);
                    self.total_violations -= u128::from(old_score);
                    self.total_rows -= old_rows.len();
                    let moved = self.ids.len();
                    if i < moved {
                        // The then-last occurrence moved into slot `i`:
                        // repoint its id-index pair and posting entries.
                        by_id_remove(&mut self.by_id, self.ids[i], moved);
                        by_id_insert(&mut self.by_id, self.ids[i], i);
                        for attr in distinct_attrs(&self.rows[i]) {
                            posting_replace(&mut self.attr_postings, attr, moved, i);
                        }
                    }
                    // Pending dirty marks: the removed slot is gone; the
                    // mover keeps its mark at its new index.
                    dirty.retain(|&d| d != i);
                    for d in &mut dirty {
                        if *d == moved {
                            *d = i;
                        }
                    }
                }
            }
        }
        dirty.sort_unstable();
        dirty.dedup();
        let urows = self.pop.urows();
        let rows: Vec<u32> = dirty.iter().map(|&i| urows[i]).collect();
        let audits = self.kernel.audit_rows(&self.pop, &rows, &mut self.bufs);
        for (i, audit) in dirty.into_iter().zip(&audits) {
            self.replace(i, audit);
        }
        self.deltas_applied += 1;
        debug_assert_eq!(self.rows.len(), self.pop.len());
        debug_assert_eq!(self.by_id.len(), self.pop.len());
        Ok(())
    }

    /// The indexed population.
    pub fn compiled_population(&self) -> &CompiledPopulation {
        &self.pop
    }

    /// `Violation_i` (Eq. 15) of occurrence `i`.
    pub fn score(&self, i: usize) -> u64 {
        self.scores[i]
    }

    /// `w_i` (Definition 1) of occurrence `i`.
    pub fn violated(&self, i: usize) -> bool {
        !self.rows[i].is_empty()
    }

    /// `default_i` (Definition 4) of occurrence `i`.
    pub fn defaulted(&self, i: usize) -> bool {
        self.defaults[i]
    }

    /// The maintained aggregates — equal to [`AuditEngine::counts`] over
    /// the same population, in `O(1)`.
    pub fn outcome(&self) -> PolicyOutcome {
        PolicyOutcome {
            total_violations: self.total_violations,
            violated: self.violated,
            defaulted: self.defaulted,
            population: self.pop.len(),
        }
    }

    /// `P(W)` (Definition 2, census form).
    pub fn p_violation(&self) -> f64 {
        self.outcome().p_violation()
    }

    /// `P(Default)` (Definition 5, census form).
    pub fn p_default(&self) -> f64 {
        self.outcome().p_default()
    }

    /// Total materialized witness rows.
    pub fn row_count(&self) -> usize {
        self.total_rows
    }

    /// Deltas applied since the cold build.
    pub fn deltas_applied(&self) -> u64 {
        self.deltas_applied
    }

    /// Planner statistics: maintained violation count, `indexed: true`.
    /// `O(n)` for the distinct-id scan — callers cache the result per
    /// delta batch (see `Ppdb`), queries never pay it.
    pub fn stats(&self) -> ViolationStats {
        id_stats(&self.by_id, Some(self.violated), true)
    }

    /// Emit the materialized rows of `occs` in ascending occurrence
    /// (population) order. `occs` may arrive unsorted / with duplicates.
    fn emit(&self, mut occs: Vec<u32>) -> Vec<ViolationRow> {
        occs.sort_unstable();
        occs.dedup();
        let mut out = Vec::new();
        for &i in &occs {
            out.extend_from_slice(&self.rows[i as usize]);
        }
        out
    }
}

impl AuditBridge for LiveViolationIndex {
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
        // violates if any of them does.
        Ok(
            occurrences_of(&self.by_id, provider).any(|i| match attribute {
                None => !self.rows[i].is_empty(),
                Some(attr) => self.rows[i].iter().any(|r| r.attribute == attr),
            }),
        )
    }

    fn violations_for(
        &self,
        providers: &[i64],
        policy: Option<&str>,
    ) -> DbResult<Vec<ViolationRow>> {
        check_policy(&self.engine, policy)?;
        let occs: Vec<u32> = providers
            .iter()
            .flat_map(|&p| occurrences_of(&self.by_id, p))
            .map(|i| i as u32)
            .collect();
        Ok(self.emit(occs))
    }

    fn violations_all(&self, policy: Option<&str>) -> DbResult<Vec<ViolationRow>> {
        check_policy(&self.engine, policy)?;
        let mut out = Vec::with_capacity(self.total_rows);
        for rows in &self.rows {
            out.extend_from_slice(rows);
        }
        Ok(out)
    }

    fn violations_indexed(
        &self,
        lo: Bound<i64>,
        hi: Bound<i64>,
        attribute: Option<&str>,
        policy: Option<&str>,
    ) -> DbResult<Vec<ViolationRow>> {
        check_policy(&self.engine, policy)?;
        if let Some(attr) = attribute {
            // Attribute posting: O(posting). The posting is ascending
            // occurrence (population) order, and only the rows witnessed
            // on `attr` are copied; provider bounds are enforced exactly.
            let mut out = Vec::new();
            for &i in self.attr_postings.get(attr).into_iter().flatten() {
                let i = i as usize;
                if provider_in_bounds(&lo, &hi, self.ids[i]) {
                    out.extend(self.rows[i].iter().filter(|r| r.attribute == attr).cloned());
                }
            }
            return Ok(out);
        }
        // Provider-id range through `by_id`: O(log n + answer).
        let start = self.by_id.partition_point(|&(id, _)| match lo {
            Bound::Unbounded => false,
            Bound::Included(v) => id < v,
            Bound::Excluded(v) => id <= v,
        });
        let occs = self.by_id[start..]
            .iter()
            .take_while(|&&(id, _)| match hi {
                Bound::Unbounded => true,
                Bound::Included(v) => id <= v,
                Bound::Excluded(v) => id < v,
            })
            .map(|&(_, occ)| occ)
            .collect();
        Ok(self.emit(occs))
    }

    fn stats(&self) -> Option<ViolationStats> {
        Some(LiveViolationIndex::stats(self))
    }
}

/// Distinct witness attributes of one occurrence's rows, first-seen order
/// (row counts per occurrence are tiny — linear scans beat allocation).
fn distinct_attrs(rows: &[ViolationRow]) -> Vec<&str> {
    let mut out: Vec<&str> = Vec::new();
    for r in rows {
        if !out.contains(&r.attribute.as_str()) {
            out.push(&r.attribute);
        }
    }
    out
}

/// Insert `occ` into a sorted posting (no-op if present).
fn posting_insert(posting: &mut Vec<u32>, occ: usize) {
    let occ = occ as u32;
    if let Err(pos) = posting.binary_search(&occ) {
        posting.insert(pos, occ);
    }
}

/// Remove `occ` from `attr`'s posting, dropping the entry when emptied.
/// The pair must be present — postings and rows move in lockstep.
fn posting_remove_attr(postings: &mut HashMap<String, Vec<u32>>, attr: &str, occ: usize) {
    let posting = postings.get_mut(attr).expect("posting exists for attr");
    let pos = posting
        .binary_search(&(occ as u32))
        .expect("occurrence posted");
    posting.remove(pos);
    if posting.is_empty() {
        postings.remove(attr);
    }
}

/// Repoint `attr`'s posting entry `from` → `to` (a swap_remove mover).
fn posting_replace(postings: &mut HashMap<String, Vec<u32>>, attr: &str, from: usize, to: usize) {
    let posting = postings.get_mut(attr).expect("posting exists for attr");
    let pos = posting
        .binary_search(&(from as u32))
        .expect("occurrence posted");
    posting.remove(pos);
    posting_insert(posting, to);
}

/// Insert a `(id, occ)` pair into the sorted id index.
fn by_id_insert(by_id: &mut Vec<(i64, u32)>, id: i64, occ: usize) {
    let pair = (id, occ as u32);
    let pos = by_id.partition_point(|&p| p < pair);
    by_id.insert(pos, pair);
}

/// Remove a `(id, occ)` pair from the sorted id index (must be present).
fn by_id_remove(by_id: &mut Vec<(i64, u32)>, id: i64, occ: usize) {
    let pair = (id, occ as u32);
    let pos = by_id.binary_search(&pair).expect("pair indexed");
    by_id.remove(pos);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::ProviderProfile;
    use crate::selective::SelectiveAuditor;
    use crate::sensitivity::{AttributeSensitivities, DatumSensitivity};
    use qpv_policy::{HousePolicy, ProviderId};
    use qpv_taxonomy::{PrivacyPoint, PrivacyTuple};

    fn pt(v: u32, g: u32, r: u32) -> PrivacyPoint {
        PrivacyPoint::from_raw(v, g, r)
    }

    fn engine() -> AuditEngine {
        let mut policy = HousePolicy::new("house");
        policy.add("weight", PrivacyTuple::from_point("pr", pt(7, 4, 7)));
        let mut weights = AttributeSensitivities::new();
        weights.set("weight", 3);
        AuditEngine::new(policy, ["age", "weight"], weights)
    }

    fn profile(i: u64, strict: bool) -> ProviderProfile {
        let mut p = ProviderProfile::new(ProviderId(i), 0);
        let pref = if strict { pt(1, 1, 1) } else { pt(7, 4, 7) };
        p.preferences
            .add("weight", PrivacyTuple::from_point("pr", pref));
        p.sensitivities
            .insert("weight".into(), DatumSensitivity::new(3, 1, 5, 2));
        p
    }

    fn population(n: u64) -> CompiledPopulation {
        let profiles: Vec<ProviderProfile> = (0..n).map(|i| profile(i, i % 3 == 0)).collect();
        CompiledPopulation::from_profiles(&profiles)
    }

    #[test]
    fn cold_build_matches_selective_sweep() {
        let index = LiveViolationIndex::new(engine(), population(50));
        let auditor = SelectiveAuditor::new(engine(), population(50));
        assert_eq!(
            index.violations_all(None).unwrap(),
            auditor.violations_all(None).unwrap()
        );
        assert!(index.outcome().violated > 0);
        assert_eq!(index.row_count(), index.violations_all(None).unwrap().len());
    }

    /// A policy exposing both `age` and `weight`: every third provider is
    /// strict on `weight`, every second on `age`, so multiples of six
    /// hold witnesses on both attributes.
    fn two_attr_population(n: u64) -> (AuditEngine, CompiledPopulation) {
        let mut policy = HousePolicy::new("house");
        let mut weights = AttributeSensitivities::new();
        for (attr, w) in [("age", 2), ("weight", 3)] {
            policy.add(attr, PrivacyTuple::from_point("pr", pt(7, 4, 7)));
            weights.set(attr, w);
        }
        let engine = AuditEngine::new(policy, ["age", "weight"], weights);
        let profiles: Vec<ProviderProfile> = (0..n)
            .map(|i| {
                let mut p = ProviderProfile::new(ProviderId(i), 0);
                for (attr, strict) in [("age", i % 2 == 0), ("weight", i % 3 == 0)] {
                    let pref = if strict { pt(1, 1, 1) } else { pt(7, 4, 7) };
                    p.preferences
                        .add(attr, PrivacyTuple::from_point("pr", pref));
                    p.sensitivities
                        .insert(attr.into(), DatumSensitivity::new(3, 1, 5, 2));
                }
                p
            })
            .collect();
        (engine, CompiledPopulation::from_profiles(&profiles))
    }

    #[test]
    fn indexed_range_and_attr_lookups() {
        let (engine, pop) = two_attr_population(60);
        let index = LiveViolationIndex::new(engine, pop);
        let all = index.violations_all(None).unwrap();
        let expect = |keep: &dyn Fn(&ViolationRow) -> bool| -> Vec<ViolationRow> {
            all.iter().filter(|r| keep(r)).cloned().collect()
        };
        // Range restriction.
        let ranged = index
            .violations_indexed(Bound::Included(10), Bound::Excluded(30), None, None)
            .unwrap();
        assert_eq!(ranged, expect(&|r| (10..30).contains(&r.provider)));
        // Provider 0 witnesses both attributes, so a whole-provider answer
        // would differ from the exact one.
        assert!(index.violates(0, None, Some("age")).unwrap());
        assert!(index.violates(0, None, Some("weight")).unwrap());
        // Attribute posting: exactly the rows witnessed on the attribute.
        for attr in ["age", "weight"] {
            let posted = index
                .violations_indexed(Bound::Unbounded, Bound::Unbounded, Some(attr), None)
                .unwrap();
            assert_eq!(posted, expect(&|r| r.attribute == attr), "{attr}");
            let both = index
                .violations_indexed(Bound::Included(10), Bound::Excluded(30), Some(attr), None)
                .unwrap();
            assert_eq!(
                both,
                expect(&|r| r.attribute == attr && (10..30).contains(&r.provider)),
                "{attr} in [10, 30)"
            );
        }
        let none = index
            .violations_indexed(Bound::Unbounded, Bound::Unbounded, Some("height"), None)
            .unwrap();
        assert!(none.is_empty());
        // Point probes.
        assert!(!index.violates(1, None, None).unwrap());
        assert!(index.violates(3, None, Some("weight")).unwrap());
        assert!(!index.violates(3, None, Some("age")).unwrap());
        assert!(!index.violates(999, None, None).unwrap());
    }

    #[test]
    fn maintenance_tracks_upserts_and_removals() {
        let mut index = LiveViolationIndex::new(engine(), population(30));

        // Flip a non-violator strict: it must appear.
        let delta = PopulationDelta::new().upsert(profile(1, true));
        index.apply_delta(&delta).unwrap();
        assert!(index.violates(1, None, None).unwrap());

        // Remove a violator: it must vanish (swap_remove path).
        let delta = PopulationDelta::new().remove(ProviderId(0));
        index.apply_delta(&delta).unwrap();
        assert!(!index.violates(0, None, None).unwrap());

        // Append a new violator.
        let delta = PopulationDelta::new().upsert(profile(100, true));
        index.apply_delta(&delta).unwrap();
        assert!(index.violates(100, None, None).unwrap());

        // The maintained state equals a fresh build of the same
        // population, row for row.
        let fresh = LiveViolationIndex::new(engine(), index.compiled_population().clone());
        assert_eq!(
            index.violations_all(None).unwrap(),
            fresh.violations_all(None).unwrap()
        );
        assert_eq!(index.outcome(), fresh.outcome());
        assert_eq!(
            index.outcome(),
            engine().counts(index.compiled_population()),
            "maintained aggregates equal a counts pass"
        );
        assert_eq!(index.stats(), fresh.stats());
        assert_eq!(index.deltas_applied(), 3);
    }

    #[test]
    fn stats_report_indexed_and_counts() {
        let index = LiveViolationIndex::new(engine(), population(30));
        let stats = LiveViolationIndex::stats(&index);
        assert!(stats.indexed);
        assert_eq!(stats.population, 30);
        assert_eq!(stats.distinct_providers, 30);
        assert_eq!(stats.min_provider, 0);
        assert_eq!(stats.max_provider, 29);
        assert_eq!(stats.violations, Some(index.outcome().violated));
    }

    #[test]
    fn violates_answers_for_any_occurrence_of_a_duplicate_id() {
        // Two occurrences of id 7 with different preferences: a permissive
        // one first, a strict one second. The strict one violates.
        let profiles = vec![profile(7, false), profile(7, true)];
        let live = LiveViolationIndex::new(engine(), CompiledPopulation::from_profiles(&profiles));
        let snapshot =
            SelectiveAuditor::new(engine(), CompiledPopulation::from_profiles(&profiles));
        for bridge in [&live as &dyn AuditBridge, &snapshot] {
            assert_eq!(bridge.violations_all(None).unwrap().len(), 1);
            assert!(bridge.violates(7, None, None).unwrap());
            assert!(bridge.violates(7, None, Some("weight")).unwrap());
            assert!(!bridge.violates(7, None, Some("age")).unwrap());
            assert!(!bridge.violates(8, None, None).unwrap());
        }
    }

    #[test]
    fn policy_names_are_checked() {
        let index = LiveViolationIndex::new(engine(), population(6));
        assert!(index.violations_all(Some("house")).is_ok());
        let err = index.violations_all(Some("other")).unwrap_err();
        assert!(err.to_string().contains("unknown policy"), "{err}");
    }
}
