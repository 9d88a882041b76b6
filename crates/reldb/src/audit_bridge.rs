//! The audit bridge: how the SQL layer reaches the violation model.
//!
//! `qpv-reldb` knows nothing about privacy policies — the audit model
//! lives a crate *above* it (`qpv-core` depends on `qpv-reldb`, not the
//! other way round). The SQL layer still needs to evaluate
//! `VIOLATES(...)` predicates and scan the virtual `_qpv_violations`
//! relation, so the dependency is inverted through this trait: the
//! executor holds an optional `&dyn AuditBridge`, and the audit crate
//! implements it (see `qpv_core`'s `LiveViolationIndex`, the maintained
//! violation set both of `Ppdb`'s query paths read).
//!
//! The bridge's contract is *order stability*: [`AuditBridge::violations_for`]
//! must emit rows in the same population order as
//! [`AuditBridge::violations_all`], restricted to the candidate set — so
//! the executor's access-path choice (index-selected candidates vs full
//! sweep) can never change query results, only how many providers get
//! scored.

use std::ops::Bound;

use crate::error::DbResult;
use crate::schema::{Column, Schema};
use crate::types::DataType;

/// The virtual relation name the binder recognises.
pub const VIOLATIONS_TABLE: &str = "_qpv_violations";

/// The secondary index over the data table's provider column that the
/// executor uses to select candidate providers for a bounded
/// `_qpv_violations` scan. Created by `Ppdb::create`; when absent the
/// executor falls back to the full sweep.
pub const VIOLATIONS_PROVIDER_INDEX: &str = "_qpv_data_provider";

/// One row of the virtual `_qpv_violations(provider, attr, purpose,
/// severity)` relation: a violation witness annotated with the owning
/// provider's total Equation-15 violation score.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViolationRow {
    /// The violating provider's id.
    pub provider: i64,
    /// The attribute the witnessing policy tuple stores.
    pub attribute: String,
    /// The purpose of the witnessing policy tuple.
    pub purpose: String,
    /// The provider's total `Violation_i` score (same value on every
    /// witness row of one provider).
    pub severity: i64,
}

/// The schema of the virtual `_qpv_violations` relation.
pub fn violations_schema() -> Schema {
    Schema::new(vec![
        Column::new("provider", DataType::Int),
        Column::new("attr", DataType::Text),
        Column::new("purpose", DataType::Text),
        Column::new("severity", DataType::Int),
    ])
    .expect("static schema is valid")
}

/// Planner-facing statistics about the violation model behind a bridge.
///
/// Registered on the database by the audit layer (see
/// `Database::set_violation_stats`) whenever it builds or refreshes a
/// bridge, and consulted by the binder to choose a `_qpv_violations`
/// access path — candidate-walk vs full sweep vs live-index — *before*
/// execution, so `EXPLAIN` shows the decision and a mispriced walk is
/// never even started. All fields describe the population the bridge
/// audits; deltas applied to a live index refresh them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ViolationStats {
    /// Occurrences in the population (the audit's `N`).
    pub population: usize,
    /// Distinct provider ids.
    pub distinct_providers: usize,
    /// Smallest provider id (meaningless when `distinct_providers == 0`).
    pub min_provider: i64,
    /// Largest provider id (meaningless when `distinct_providers == 0`).
    pub max_provider: i64,
    /// Whether the attached bridge answers
    /// [`AuditBridge::violations_indexed`] from maintained postings
    /// (`O(log n + answer)`) rather than by re-scoring candidates.
    pub indexed: bool,
}

impl ViolationStats {
    /// Estimate how many distinct providers an inclusive id range
    /// selects, assuming ids are uniformly spread over
    /// `[min_provider, max_provider]`. `None` bounds are unbounded on
    /// that side. Never returns 0 for a non-empty intersection (the
    /// executor still has to look).
    pub fn estimate_candidates(&self, lo: Option<i64>, hi: Option<i64>) -> usize {
        if self.distinct_providers == 0 {
            return 0;
        }
        let lo = lo.unwrap_or(self.min_provider).max(self.min_provider);
        let hi = hi.unwrap_or(self.max_provider).min(self.max_provider);
        if lo > hi {
            return 0;
        }
        let width = (hi as i128 - lo as i128 + 1) as u128;
        let span = (self.max_provider as i128 - self.min_provider as i128 + 1) as u128;
        let est = (width.saturating_mul(self.distinct_providers as u128) / span) as usize;
        est.clamp(1, self.distinct_providers)
    }

    /// Whether an estimated candidate count is small enough for the
    /// index-selected walk to beat the full sweep. Scoring a candidate
    /// through the B+tree walk cost roughly 2.5× the sweep's
    /// per-provider work when each candidate was re-scored through the
    /// kernel (measured in EXPERIMENTS.md, P14), so the crossover sits
    /// near 40% of the population — far below the old fixed
    /// `population/2` cap, which let near-full ranges pay an `O(N/2)`
    /// index walk *and then* sweep anyway. Over a bridge whose rows are
    /// already computed (the live index) the walk only copies rows, and
    /// where the crossover then lies is unmeasured; the constant stays
    /// because the end-to-end benchmark asserts the plan it picks.
    pub fn prefer_candidates(&self, estimated: usize) -> bool {
        estimated.saturating_mul(5) <= self.distinct_providers.saturating_mul(2)
    }

    /// The walk-abandon cap for a chosen candidate path: twice the
    /// estimate (slack for non-uniform ids), never below a small floor.
    pub fn candidate_cap(&self, estimated: usize) -> usize {
        estimated.saturating_mul(2).max(16)
    }
}

/// Does an inclusive/exclusive provider-id bound pair contain `id`?
pub fn provider_in_bounds(lo: &Bound<i64>, hi: &Bound<i64>, id: i64) -> bool {
    let above_lo = match lo {
        Bound::Unbounded => true,
        Bound::Included(v) => id >= *v,
        Bound::Excluded(v) => id > *v,
    };
    let below_hi = match hi {
        Bound::Unbounded => true,
        Bound::Included(v) => id <= *v,
        Bound::Excluded(v) => id < *v,
    };
    above_lo && below_hi
}

/// What the executor needs from the audit model.
///
/// An implementation answers for one population as it stands while the
/// query runs (the executor holds it by shared reference for the whole
/// query); the executor may call [`AuditBridge::violates`] once per row
/// of a scan, so a point probe should be cheap.
pub trait AuditBridge {
    /// Population size `N` — the executor's cost model compares the
    /// candidate count against this to decide selective vs full sweep.
    fn population(&self) -> usize;

    /// Does `provider` violate the policy (`None` = the house policy),
    /// optionally restricted to violations witnessed on `attribute`?
    /// Providers absent from the population do not violate.
    fn violates(
        &self,
        provider: i64,
        policy: Option<&str>,
        attribute: Option<&str>,
    ) -> DbResult<bool>;

    /// Violation rows for the candidate providers only, in *population
    /// order* (not candidate order) — byte-identical to what
    /// [`AuditBridge::violations_all`] emits for those providers.
    fn violations_for(
        &self,
        providers: &[i64],
        policy: Option<&str>,
    ) -> DbResult<Vec<ViolationRow>>;

    /// Violation rows for the whole population, in population order.
    fn violations_all(&self, policy: Option<&str>) -> DbResult<Vec<ViolationRow>>;

    /// Violation rows selected by provider-id range and/or witness
    /// attribute, in population order — the live-index access path.
    ///
    /// Same order-stability contract as [`AuditBridge::violations_for`]:
    /// the result must equal [`AuditBridge::violations_all`] restricted
    /// to the bounds, and every emitted row's provider must satisfy
    /// `lo..hi`. An index-backed bridge (one whose registered
    /// [`ViolationStats`] report `indexed: true`) returns exactly the rows
    /// witnessed on `attribute` when one is given. The default implementation filters
    /// the full sweep by the bounds and ignores `attribute`, returning a
    /// superset of its rows; that stays correct because the planner
    /// always re-applies the full predicate as a filter on top.
    fn violations_indexed(
        &self,
        lo: Bound<i64>,
        hi: Bound<i64>,
        attribute: Option<&str>,
        policy: Option<&str>,
    ) -> DbResult<Vec<ViolationRow>> {
        let _ = attribute;
        let mut rows = self.violations_all(policy)?;
        rows.retain(|r| provider_in_bounds(&lo, &hi, r.provider));
        Ok(rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn violations_schema_shape() {
        let s = violations_schema();
        assert_eq!(s.arity(), 4);
        assert_eq!(s.index_of("provider"), Some(0));
        assert_eq!(s.index_of("attr"), Some(1));
        assert_eq!(s.index_of("purpose"), Some(2));
        assert_eq!(s.index_of("severity"), Some(3));
        assert!(s.columns().iter().all(|c| !c.nullable));
    }
}
