//! Query execution: a small tree of relational operators.
//!
//! A bound [`Plan`] is executed against an [`ExecContext`] (catalog + buffer
//! pool + live indexes). Scans stream from the storage layer; the operators
//! above them (filter, project, aggregate, sort, limit) are applied as the
//! rows flow upward. Results are materialised into a [`ResultSet`] — the
//! engine's workloads (privacy audits, experiment harnesses) consume whole
//! results, so there is no need for a suspended-iterator API across the
//! buffer pool's `&mut` boundary.

use std::collections::HashMap;
use std::fmt;
use std::ops::Bound;

use crate::audit_bridge::{violations_schema, AuditBridge, VIOLATIONS_PROVIDER_INDEX};
use crate::btree::BTreeIndex;
use crate::buffer::BufferPool;
use crate::catalog::{Catalog, IndexId, TableId};
use crate::encoding::decode_row;
use crate::error::{DbError, DbResult};
use crate::expr::Expr;
use crate::row::Row;
use crate::value::Value;

/// Everything execution needs from the database.
pub struct ExecContext<'a> {
    /// Schema objects.
    pub catalog: &'a Catalog,
    /// Page access.
    pub pool: &'a mut BufferPool,
    /// Live index structures by id.
    pub indexes: &'a HashMap<IndexId, BTreeIndex>,
    /// The audit model, when the caller supplied one (`VIOLATES` and
    /// `_qpv_violations` scans need it; plain relational queries don't).
    pub audit: Option<&'a dyn AuditBridge>,
}

/// Sort key: an expression and a direction.
#[derive(Debug, Clone)]
pub struct SortKey {
    /// Evaluated per row to produce the key.
    pub expr: Expr,
    /// `true` for `DESC`.
    pub descending: bool,
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `COUNT(*)` / `COUNT(expr)` (non-null count).
    Count,
    /// `SUM(expr)`.
    Sum,
    /// `MIN(expr)`.
    Min,
    /// `MAX(expr)`.
    Max,
    /// `AVG(expr)` (always a float).
    Avg,
}

/// One aggregate in an [`Plan::Aggregate`] node.
#[derive(Debug, Clone)]
pub struct AggExpr {
    /// The function.
    pub func: AggFunc,
    /// The argument; `None` means `COUNT(*)`.
    pub arg: Option<Expr>,
}

/// A bound, executable query plan.
#[derive(Debug, Clone)]
pub enum Plan {
    /// Full scan of a table heap.
    SeqScan {
        /// The scanned table.
        table: TableId,
    },
    /// Ordered scan of a key range through a B+tree index. Bounds are
    /// composite-key prefixes: a bound shorter than the index key
    /// constrains only its leading columns (see
    /// [`crate::btree::BTreeIndex::range`]).
    IndexScan {
        /// The scanned table.
        table: TableId,
        /// The index providing the row ids.
        index: IndexId,
        /// Lower key-prefix bound.
        lo: Bound<Vec<Value>>,
        /// Upper key-prefix bound.
        hi: Bound<Vec<Value>>,
    },
    /// Scan of the virtual `_qpv_violations` relation through the
    /// [`AuditBridge`]. `lo`/`hi` bound the *provider id*: when at least
    /// one bound is present and the data table's provider index
    /// ([`VIOLATIONS_PROVIDER_INDEX`]) is live, the executor selects the
    /// candidate provider set through the index and scores only those —
    /// O(candidates) instead of O(N) — unless the candidate set is so
    /// large a full sweep is cheaper. `strategy` records the planner's
    /// choice; output rows are identical either way (the bridge contract
    /// pins population order).
    ViolationScan {
        /// Policy name, or `None` for the house default policy.
        policy: Option<String>,
        /// Lower provider-id bound.
        lo: Bound<Value>,
        /// Upper provider-id bound.
        hi: Bound<Value>,
        /// Access-path decision, made at bind time when statistics are
        /// available, deferred to the executor's static heuristic
        /// otherwise.
        strategy: ViolationStrategy,
    },
    /// Scan of `_qpv_violations` answered from the bridge's maintained
    /// live index ([`AuditBridge::violations_indexed`]): `O(log n +
    /// answer)` posting lookups instead of re-scoring candidates. Chosen
    /// by the binder only when the registered
    /// [`ViolationStats`](crate::audit_bridge::ViolationStats) say the
    /// bridge is index-backed. An index-backed bridge returns exactly
    /// the rows within the provider bounds and, with `attr`, exactly
    /// those witnessed on it. The full predicate is still re-applied by
    /// the filter above, so a bridge that answers with a superset of the
    /// `attr` restriction stays correct.
    LiveIndexScan {
        /// Policy name, or `None` for the house default policy.
        policy: Option<String>,
        /// Lower provider-id bound.
        lo: Bound<Value>,
        /// Upper provider-id bound.
        hi: Bound<Value>,
        /// Witness-attribute point restriction (`attr = '...'`).
        attr: Option<String>,
    },
    /// Keep rows matching a predicate.
    Filter {
        /// Upstream operator.
        input: Box<Plan>,
        /// Must evaluate to `TRUE` for a row to pass.
        predicate: Expr,
    },
    /// Compute output expressions per row.
    Project {
        /// Upstream operator.
        input: Box<Plan>,
        /// Output expressions.
        exprs: Vec<Expr>,
        /// Output column names (same length as `exprs`).
        names: Vec<String>,
    },
    /// Group and aggregate.
    Aggregate {
        /// Upstream operator.
        input: Box<Plan>,
        /// Grouping expressions (empty = one global group).
        group_by: Vec<Expr>,
        /// Aggregates computed per group.
        aggregates: Vec<AggExpr>,
        /// Output names: group columns then aggregate columns.
        names: Vec<String>,
    },
    /// Order rows.
    Sort {
        /// Upstream operator.
        input: Box<Plan>,
        /// Ordering keys, most significant first.
        keys: Vec<SortKey>,
    },
    /// Skip `offset` rows, emit at most `limit`.
    Limit {
        /// Upstream operator.
        input: Box<Plan>,
        /// Rows to skip.
        offset: usize,
        /// Max rows to emit (`None` = unlimited).
        limit: Option<usize>,
    },
    /// Remove duplicate rows, keeping first occurrences in order
    /// (`SELECT DISTINCT`).
    Distinct {
        /// Upstream operator.
        input: Box<Plan>,
    },
    /// Inner equi-join: build a hash table on the right side's key, probe
    /// with the left. Output rows are `left ++ right`.
    HashJoin {
        /// Left (probe) input.
        left: Box<Plan>,
        /// Right (build) input.
        right: Box<Plan>,
        /// Key expression over left rows.
        left_key: Expr,
        /// Key expression over right rows.
        right_key: Expr,
    },
    /// Inner join with an arbitrary condition, evaluated over the
    /// concatenated `left ++ right` row.
    NestedLoopJoin {
        /// Left input.
        left: Box<Plan>,
        /// Right input.
        right: Box<Plan>,
        /// Join condition over the combined row.
        on: Expr,
    },
}

/// How a [`Plan::ViolationScan`] picks between the candidate walk and
/// the full sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationStrategy {
    /// No statistics were registered at bind time: the executor applies
    /// its static heuristic (walk the provider index up to
    /// `population/2` distinct ids, sweep past that).
    Auto,
    /// Statistics priced the range as wide: sweep immediately, never
    /// touch the provider index. This is what fixes the 10%+-selectivity
    /// regression — the old fixed cap let a near-full range pay an
    /// `O(N/2)` index walk and then sweep anyway.
    Sweep,
    /// Statistics priced the range as narrow: walk the provider index
    /// with a cap derived from the estimate (the sweep fallback remains
    /// if the estimate was badly wrong).
    Candidates {
        /// Abandon the walk and sweep past this many distinct ids.
        cap: usize,
    },
}

impl fmt::Display for ViolationStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ViolationStrategy::Auto => write!(f, "auto"),
            ViolationStrategy::Sweep => write!(f, "sweep"),
            ViolationStrategy::Candidates { cap } => write!(f, "candidates(cap={cap})"),
        }
    }
}

/// A materialised query result.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    /// Output column names.
    pub columns: Vec<String>,
    /// The rows.
    pub rows: Vec<Row>,
}

impl ResultSet {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the result is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The single value of a single-row, single-column result (the common
    /// shape for `SELECT COUNT(*) ...`).
    pub fn scalar(&self) -> DbResult<&Value> {
        if self.rows.len() == 1 && self.rows[0].arity() == 1 {
            Ok(&self.rows[0].values[0])
        } else {
            Err(DbError::Eval(format!(
                "expected a 1x1 result, got {}x{}",
                self.rows.len(),
                self.rows.first().map(Row::arity).unwrap_or(0)
            )))
        }
    }
}

/// Execute a plan to completion.
pub fn execute(plan: &Plan, ctx: &mut ExecContext<'_>) -> DbResult<ResultSet> {
    match plan {
        Plan::SeqScan { table } => {
            let meta = ctx
                .catalog
                .table_by_id(*table)
                .ok_or_else(|| DbError::Catalog(format!("no table with id {}", table.0)))?;
            let columns = column_names(ctx.catalog, *table)?;
            let mut rows = Vec::new();
            meta.heap.for_each(ctx.pool, |_, bytes| {
                rows.push(decode_row(bytes)?);
                Ok(())
            })?;
            Ok(ResultSet { columns, rows })
        }
        Plan::IndexScan {
            table,
            index,
            lo,
            hi,
        } => {
            let meta = ctx
                .catalog
                .table_by_id(*table)
                .ok_or_else(|| DbError::Catalog(format!("no table with id {}", table.0)))?;
            let columns = column_names(ctx.catalog, *table)?;
            let btree = ctx.indexes.get(index).ok_or_else(|| {
                DbError::Catalog(format!("no index structure for id {}", index.0))
            })?;
            let rids: Vec<_> = btree
                .range(bound_slice(lo), bound_slice(hi))
                .map(|(_, rid)| rid)
                .collect();
            let mut rows = Vec::with_capacity(rids.len());
            for rid in rids {
                let bytes = meta.heap.get(ctx.pool, rid)?;
                rows.push(decode_row(&bytes)?);
            }
            Ok(ResultSet { columns, rows })
        }
        Plan::ViolationScan {
            policy,
            lo,
            hi,
            strategy,
        } => {
            let bridge = require_bridge(ctx)?;
            // Candidate path only when the candidate set is genuinely
            // small: scoring a candidate costs more than the sweep's
            // per-provider work, so wide ranges sweep. With statistics
            // the binder priced the range and fixed the strategy; the
            // `Auto` fallback keeps the old static heuristic (walk up
            // to population/2 ids, sweep past that). Either way the
            // walk is capped, so a mispredicted range abandons
            // selection instead of collecting every provider id.
            let cap = match strategy {
                ViolationStrategy::Sweep => 0,
                ViolationStrategy::Candidates { cap } => *cap,
                ViolationStrategy::Auto => bridge.population() / 2,
            };
            let candidates = if cap == 0 {
                None
            } else {
                violation_candidates(ctx, lo, hi, cap)
            };
            let vrows = match candidates {
                Some(ids) => bridge.violations_for(&ids, policy.as_deref())?,
                None => bridge.violations_all(policy.as_deref())?,
            };
            Ok(violation_result(vrows))
        }
        Plan::LiveIndexScan {
            policy,
            lo,
            hi,
            attr,
        } => {
            let bridge = require_bridge(ctx)?;
            // Bounds reach the bridge as plain i64s; a non-integer bound
            // (impossible through the binder, which only pushes down
            // integer comparisons on the provider column) widens to
            // unbounded — safe, because the full predicate is always
            // re-applied by the Filter above this scan.
            let int_bound = |b: &Bound<Value>| match b {
                Bound::Included(Value::Int(v)) => Bound::Included(*v),
                Bound::Excluded(Value::Int(v)) => Bound::Excluded(*v),
                _ => Bound::Unbounded,
            };
            let vrows = bridge.violations_indexed(
                int_bound(lo),
                int_bound(hi),
                attr.as_deref(),
                policy.as_deref(),
            )?;
            Ok(violation_result(vrows))
        }
        Plan::Filter { input, predicate } => {
            let mut upstream = execute(input, ctx)?;
            // In place: kept rows never move to a second buffer. The first
            // evaluation error stops the filter and is returned.
            let mut failed = None;
            upstream.rows.retain(|row| {
                failed.is_none()
                    && predicate.matches_with(row, ctx.audit).unwrap_or_else(|e| {
                        failed = Some(e);
                        false
                    })
            });
            match failed {
                Some(e) => Err(e),
                None => Ok(upstream),
            }
        }
        Plan::Project {
            input,
            exprs,
            names,
        } => {
            let upstream = execute(input, ctx)?;
            let mut rows = Vec::with_capacity(upstream.rows.len());
            for row in &upstream.rows {
                let values = exprs
                    .iter()
                    .map(|e| e.eval_with(row, ctx.audit))
                    .collect::<DbResult<Vec<Value>>>()?;
                rows.push(Row::new(values));
            }
            Ok(ResultSet {
                columns: names.clone(),
                rows,
            })
        }
        Plan::Aggregate {
            input,
            group_by,
            aggregates,
            names,
        } => {
            let upstream = execute(input, ctx)?;
            aggregate(&upstream.rows, group_by, aggregates, names, ctx.audit)
        }
        Plan::Sort { input, keys } => {
            let mut upstream = execute(input, ctx)?;
            // Precompute sort keys so evaluation errors surface before
            // sorting (and each key is computed once).
            let mut keyed: Vec<(Vec<Value>, Row)> = Vec::with_capacity(upstream.rows.len());
            for row in upstream.rows.drain(..) {
                let k = keys
                    .iter()
                    .map(|sk| sk.expr.eval_with(&row, ctx.audit))
                    .collect::<DbResult<Vec<Value>>>()?;
                keyed.push((k, row));
            }
            keyed.sort_by(|(ka, _), (kb, _)| {
                for (i, sk) in keys.iter().enumerate() {
                    let ord = ka[i].cmp(&kb[i]);
                    let ord = if sk.descending { ord.reverse() } else { ord };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
            upstream.rows = keyed.into_iter().map(|(_, row)| row).collect();
            Ok(upstream)
        }
        Plan::Limit {
            input,
            offset,
            limit,
        } => {
            let mut upstream = execute(input, ctx)?;
            let end = limit
                .map(|l| (*offset + l).min(upstream.rows.len()))
                .unwrap_or(upstream.rows.len());
            let start = (*offset).min(upstream.rows.len());
            upstream.rows = upstream.rows.drain(start..end.max(start)).collect();
            Ok(upstream)
        }
        Plan::Distinct { input } => {
            let mut upstream = execute(input, ctx)?;
            let mut seen = std::collections::HashSet::with_capacity(upstream.rows.len());
            upstream.rows.retain(|row| seen.insert(row.clone()));
            Ok(upstream)
        }
        Plan::HashJoin {
            left,
            right,
            left_key,
            right_key,
        } => {
            let left_rs = execute(left, ctx)?;
            let right_rs = execute(right, ctx)?;
            // Build on the right side. NULL keys never join (SQL equality).
            let mut table: HashMap<Value, Vec<&Row>> = HashMap::new();
            for row in &right_rs.rows {
                let key = right_key.eval_with(row, ctx.audit)?;
                if !key.is_null() {
                    table.entry(key).or_default().push(row);
                }
            }
            let mut rows = Vec::new();
            for lrow in &left_rs.rows {
                let key = left_key.eval_with(lrow, ctx.audit)?;
                if key.is_null() {
                    continue;
                }
                if let Some(matches) = table.get(&key) {
                    for rrow in matches {
                        let mut values = lrow.values.clone();
                        values.extend(rrow.values.iter().cloned());
                        rows.push(Row::new(values));
                    }
                }
            }
            Ok(ResultSet {
                columns: joined_columns(&left_rs, &right_rs),
                rows,
            })
        }
        Plan::NestedLoopJoin { left, right, on } => {
            let left_rs = execute(left, ctx)?;
            let right_rs = execute(right, ctx)?;
            let mut rows = Vec::new();
            for lrow in &left_rs.rows {
                for rrow in &right_rs.rows {
                    let mut values = lrow.values.clone();
                    values.extend(rrow.values.iter().cloned());
                    let combined = Row::new(values);
                    if on.matches_with(&combined, ctx.audit)? {
                        rows.push(combined);
                    }
                }
            }
            Ok(ResultSet {
                columns: joined_columns(&left_rs, &right_rs),
                rows,
            })
        }
    }
}

fn joined_columns(left: &ResultSet, right: &ResultSet) -> Vec<String> {
    left.columns
        .iter()
        .chain(right.columns.iter())
        .cloned()
        .collect()
}

fn column_names(catalog: &Catalog, table: TableId) -> DbResult<Vec<String>> {
    let meta = catalog
        .table_by_id(table)
        .ok_or_else(|| DbError::Catalog(format!("no table with id {}", table.0)))?;
    Ok(meta
        .schema
        .columns()
        .iter()
        .map(|c| c.name.clone())
        .collect())
}

fn bound_slice(b: &Bound<Vec<Value>>) -> Bound<&[Value]> {
    match b {
        Bound::Unbounded => Bound::Unbounded,
        Bound::Included(v) => Bound::Included(v.as_slice()),
        Bound::Excluded(v) => Bound::Excluded(v.as_slice()),
    }
}

/// The audit bridge, or the standard error explaining how to supply one.
fn require_bridge<'a>(ctx: &ExecContext<'a>) -> DbResult<&'a dyn AuditBridge> {
    ctx.audit.ok_or_else(|| {
        DbError::Eval(
            "scanning _qpv_violations requires an audit bridge (query through \
             Ppdb::query_violations or Database::query_with)"
                .into(),
        )
    })
}

/// Materialise bridge violation rows as a `_qpv_violations` result set.
fn violation_result(vrows: Vec<crate::audit_bridge::ViolationRow>) -> ResultSet {
    let columns: Vec<String> = violations_schema()
        .columns()
        .iter()
        .map(|c| c.name.clone())
        .collect();
    let rows = vrows
        .into_iter()
        .map(|v| {
            Row::from_values([
                Value::Int(v.provider),
                Value::Text(v.attribute),
                Value::Text(v.purpose),
                Value::Int(v.severity),
            ])
        })
        .collect();
    ResultSet { columns, rows }
}

/// Select the candidate provider ids for a bounded `_qpv_violations` scan
/// through the data table's provider index. `None` means "no selection
/// possible or worthwhile" (unbounded scan, the index isn't live, or more
/// than `cap` distinct candidates) — the caller falls back to the full
/// sweep. Ids come out sorted and deduplicated (index key order,
/// consecutive duplicates collapsed), and the walk stops the moment the
/// cap is exceeded, so a near-full-population range costs O(cap), not
/// O(N), before the sweep takes over.
fn violation_candidates(
    ctx: &ExecContext<'_>,
    lo: &Bound<Value>,
    hi: &Bound<Value>,
    cap: usize,
) -> Option<Vec<i64>> {
    if matches!((lo, hi), (Bound::Unbounded, Bound::Unbounded)) {
        return None;
    }
    let meta = ctx.catalog.index(VIOLATIONS_PROVIDER_INDEX)?;
    let btree = ctx.indexes.get(&meta.id)?;
    let wrap = |b: &Bound<Value>| match b {
        Bound::Unbounded => Bound::Unbounded,
        Bound::Included(v) => Bound::Included(vec![v.clone()]),
        Bound::Excluded(v) => Bound::Excluded(vec![v.clone()]),
    };
    let (lo_key, hi_key) = (wrap(lo), wrap(hi));
    let mut ids: Vec<i64> = Vec::new();
    for (key, _) in btree.range(bound_slice(&lo_key), bound_slice(&hi_key)) {
        if let Some(Value::Int(id)) = key.first() {
            if ids.last() != Some(id) {
                if ids.len() >= cap {
                    return None;
                }
                ids.push(*id);
            }
        }
    }
    Some(ids)
}

/// Running state for one aggregate within one group.
#[derive(Debug, Clone)]
struct AggState {
    count: u64,
    sum_int: Option<i64>,
    sum_float: f64,
    saw_float: bool,
    min: Option<Value>,
    max: Option<Value>,
}

impl AggState {
    fn new() -> AggState {
        AggState {
            count: 0,
            sum_int: Some(0),
            sum_float: 0.0,
            saw_float: false,
            min: None,
            max: None,
        }
    }

    fn accumulate(&mut self, v: &Value) -> DbResult<()> {
        if v.is_null() {
            return Ok(()); // SQL aggregates skip NULLs
        }
        self.count += 1;
        match v {
            Value::Int(i) => {
                self.sum_int = self.sum_int.and_then(|s| s.checked_add(*i));
                self.sum_float += *i as f64;
            }
            Value::Float(f) => {
                self.saw_float = true;
                self.sum_float += f;
            }
            _ => {
                // Non-numeric: only MIN/MAX/COUNT are meaningful; SUM/AVG
                // will error at finalisation if requested.
                self.sum_int = None;
            }
        }
        match &self.min {
            Some(m) if v >= m => {}
            _ => self.min = Some(v.clone()),
        }
        match &self.max {
            Some(m) if v <= m => {}
            _ => self.max = Some(v.clone()),
        }
        Ok(())
    }

    fn finalise(&self, func: AggFunc, starred: bool, group_size: u64) -> DbResult<Value> {
        match func {
            AggFunc::Count => Ok(Value::Int(if starred {
                group_size as i64
            } else {
                self.count as i64
            })),
            AggFunc::Sum => {
                if self.count == 0 {
                    return Ok(Value::Null);
                }
                if self.saw_float {
                    Ok(Value::Float(self.sum_float))
                } else {
                    self.sum_int.map(Value::Int).ok_or_else(|| {
                        DbError::Eval("SUM over non-numeric or overflowing values".into())
                    })
                }
            }
            AggFunc::Avg => {
                if self.count == 0 {
                    return Ok(Value::Null);
                }
                if !self.saw_float && self.sum_int.is_none() {
                    return Err(DbError::Eval("AVG over non-numeric values".into()));
                }
                Ok(Value::Float(self.sum_float / self.count as f64))
            }
            AggFunc::Min => Ok(self.min.clone().unwrap_or(Value::Null)),
            AggFunc::Max => Ok(self.max.clone().unwrap_or(Value::Null)),
        }
    }
}

fn aggregate(
    rows: &[Row],
    group_by: &[Expr],
    aggregates: &[AggExpr],
    names: &[String],
    audit: Option<&dyn AuditBridge>,
) -> DbResult<ResultSet> {
    // Group key → (group values, per-aggregate state, group row count).
    // Keys are ordered so output order is deterministic.
    let mut groups: std::collections::BTreeMap<Vec<Value>, (Vec<AggState>, u64)> =
        std::collections::BTreeMap::new();
    for row in rows {
        let key = group_by
            .iter()
            .map(|e| e.eval_with(row, audit))
            .collect::<DbResult<Vec<Value>>>()?;
        let entry = groups
            .entry(key)
            .or_insert_with(|| (vec![AggState::new(); aggregates.len()], 0));
        entry.1 += 1;
        for (agg, state) in aggregates.iter().zip(entry.0.iter_mut()) {
            if let Some(arg) = &agg.arg {
                state.accumulate(&arg.eval_with(row, audit)?)?;
            }
        }
    }
    // A global aggregate over zero rows still yields one row.
    if groups.is_empty() && group_by.is_empty() {
        groups.insert(Vec::new(), (vec![AggState::new(); aggregates.len()], 0));
    }
    let mut out = Vec::with_capacity(groups.len());
    for (key, (states, group_size)) in groups {
        let mut values = key;
        for (agg, state) in aggregates.iter().zip(states.iter()) {
            values.push(state.finalise(agg.func, agg.arg.is_none(), group_size)?);
        }
        out.push(Row::new(values));
    }
    Ok(ResultSet {
        columns: names.to_vec(),
        rows: out,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemStore;
    use crate::encoding::encode_row;
    use crate::heap::TableHeap;
    use crate::schema::SchemaBuilder;
    use crate::types::DataType;

    /// Build a catalog+pool+index holding one `people(id, name, age)` table
    /// with an index on `age`.
    struct Fixture {
        catalog: Catalog,
        pool: BufferPool,
        indexes: HashMap<IndexId, BTreeIndex>,
        table: TableId,
        index: IndexId,
    }

    fn fixture(rows: &[(i64, &str, Option<i64>)]) -> Fixture {
        let mut pool = BufferPool::new(Box::new(MemStore::new()), 16);
        let schema = SchemaBuilder::new()
            .column("id", DataType::Int)
            .column("name", DataType::Text)
            .nullable_column("age", DataType::Int)
            .build()
            .unwrap();
        let mut heap = TableHeap::create(&mut pool).unwrap();
        let mut btree = BTreeIndex::new();
        for (id, name, age) in rows {
            let row = Row::from_values([
                Value::Int(*id),
                Value::Text(name.to_string()),
                age.map(Value::Int).unwrap_or(Value::Null),
            ]);
            let rid = heap.insert(&mut pool, &encode_row(&row)).unwrap();
            btree.insert(vec![row.values[2].clone()], rid);
        }
        let mut catalog = Catalog::new();
        let table = catalog.create_table("people", schema, heap).unwrap();
        let index = catalog.create_index("people_age", table, vec![2]).unwrap();
        let mut indexes = HashMap::new();
        indexes.insert(index, btree);
        Fixture {
            catalog,
            pool,
            indexes,
            table,
            index,
        }
    }

    fn run(fx: &mut Fixture, plan: &Plan) -> ResultSet {
        let mut ctx = ExecContext {
            catalog: &fx.catalog,
            pool: &mut fx.pool,
            indexes: &fx.indexes,
            audit: None,
        };
        execute(plan, &mut ctx).unwrap()
    }

    fn people() -> Vec<(i64, &'static str, Option<i64>)> {
        vec![
            (1, "alice", Some(34)),
            (2, "bob", Some(28)),
            (3, "carol", Some(41)),
            (4, "dan", None),
            (5, "erin", Some(28)),
        ]
    }

    #[test]
    fn seq_scan_returns_all_rows_with_names() {
        let mut fx = fixture(&people());
        let table = fx.table;
        let rs = run(&mut fx, &Plan::SeqScan { table });
        assert_eq!(rs.columns, vec!["id", "name", "age"]);
        assert_eq!(rs.len(), 5);
    }

    #[test]
    fn filter_applies_predicate() {
        let mut fx = fixture(&people());
        let plan = Plan::Filter {
            input: Box::new(Plan::SeqScan { table: fx.table }),
            predicate: Expr::col(2).eq(Expr::lit(28)),
        };
        let rs = run(&mut fx, &plan);
        assert_eq!(rs.len(), 2);
        // NULL age row is filtered out, not errored.
        let plan = Plan::Filter {
            input: Box::new(Plan::SeqScan { table: fx.table }),
            predicate: Expr::col(2).gt(Expr::lit(0)),
        };
        assert_eq!(run(&mut fx, &plan).len(), 4);
    }

    #[test]
    fn project_computes_expressions() {
        let mut fx = fixture(&people());
        let plan = Plan::Project {
            input: Box::new(Plan::SeqScan { table: fx.table }),
            exprs: vec![
                Expr::col(1),
                Expr::Binary(
                    crate::expr::BinOp::Add,
                    Box::new(Expr::col(0)),
                    Box::new(Expr::lit(100)),
                ),
            ],
            names: vec!["name".into(), "id_plus".into()],
        };
        let rs = run(&mut fx, &plan);
        assert_eq!(rs.columns, vec!["name", "id_plus"]);
        assert_eq!(rs.rows[0].values[1], Value::Int(101));
    }

    #[test]
    fn index_scan_ranges() {
        let mut fx = fixture(&people());
        let plan = Plan::IndexScan {
            table: fx.table,
            index: fx.index,
            lo: Bound::Included(vec![Value::Int(28)]),
            hi: Bound::Included(vec![Value::Int(34)]),
        };
        let rs = run(&mut fx, &plan);
        // ages 28, 28, 34 — in key order.
        assert_eq!(rs.len(), 3);
        let ages: Vec<i64> = rs
            .rows
            .iter()
            .map(|r| r.values[2].as_int().unwrap())
            .collect();
        assert_eq!(ages, vec![28, 28, 34]);
    }

    #[test]
    fn sort_orders_rows_with_nulls_first() {
        let mut fx = fixture(&people());
        let plan = Plan::Sort {
            input: Box::new(Plan::SeqScan { table: fx.table }),
            keys: vec![SortKey {
                expr: Expr::col(2),
                descending: false,
            }],
        };
        let rs = run(&mut fx, &plan);
        let first = &rs.rows[0].values[2];
        assert!(first.is_null(), "NULL sorts first ascending");
        let plan = Plan::Sort {
            input: Box::new(Plan::SeqScan { table: fx.table }),
            keys: vec![SortKey {
                expr: Expr::col(2),
                descending: true,
            }],
        };
        let rs = run(&mut fx, &plan);
        assert_eq!(rs.rows[0].values[2], Value::Int(41));
    }

    #[test]
    fn limit_and_offset() {
        let mut fx = fixture(&people());
        let table = fx.table;
        let base = move || Box::new(Plan::SeqScan { table });
        let rs = run(
            &mut fx,
            &Plan::Limit {
                input: base(),
                offset: 1,
                limit: Some(2),
            },
        );
        assert_eq!(rs.len(), 2);
        assert_eq!(rs.rows[0].values[0], Value::Int(2));
        // Offset beyond the end.
        let rs = run(
            &mut fx,
            &Plan::Limit {
                input: base(),
                offset: 99,
                limit: Some(2),
            },
        );
        assert!(rs.is_empty());
        // Limit beyond the end.
        let rs = run(
            &mut fx,
            &Plan::Limit {
                input: base(),
                offset: 0,
                limit: Some(99),
            },
        );
        assert_eq!(rs.len(), 5);
    }

    #[test]
    fn global_aggregates() {
        let mut fx = fixture(&people());
        let plan = Plan::Aggregate {
            input: Box::new(Plan::SeqScan { table: fx.table }),
            group_by: vec![],
            aggregates: vec![
                AggExpr {
                    func: AggFunc::Count,
                    arg: None,
                },
                AggExpr {
                    func: AggFunc::Count,
                    arg: Some(Expr::col(2)),
                },
                AggExpr {
                    func: AggFunc::Sum,
                    arg: Some(Expr::col(2)),
                },
                AggExpr {
                    func: AggFunc::Min,
                    arg: Some(Expr::col(2)),
                },
                AggExpr {
                    func: AggFunc::Max,
                    arg: Some(Expr::col(2)),
                },
                AggExpr {
                    func: AggFunc::Avg,
                    arg: Some(Expr::col(2)),
                },
            ],
            names: vec![
                "n".into(),
                "n_age".into(),
                "sum".into(),
                "min".into(),
                "max".into(),
                "avg".into(),
            ],
        };
        let rs = run(&mut fx, &plan);
        assert_eq!(rs.len(), 1);
        let v = &rs.rows[0].values;
        assert_eq!(v[0], Value::Int(5)); // COUNT(*) counts the NULL row
        assert_eq!(v[1], Value::Int(4)); // COUNT(age) does not
        assert_eq!(v[2], Value::Int(34 + 28 + 41 + 28));
        assert_eq!(v[3], Value::Int(28));
        assert_eq!(v[4], Value::Int(41));
        assert_eq!(v[5], Value::Float((34 + 28 + 41 + 28) as f64 / 4.0));
    }

    #[test]
    fn aggregate_over_empty_input_yields_one_row() {
        let mut fx = fixture(&[]);
        let plan = Plan::Aggregate {
            input: Box::new(Plan::SeqScan { table: fx.table }),
            group_by: vec![],
            aggregates: vec![
                AggExpr {
                    func: AggFunc::Count,
                    arg: None,
                },
                AggExpr {
                    func: AggFunc::Sum,
                    arg: Some(Expr::col(2)),
                },
            ],
            names: vec!["n".into(), "s".into()],
        };
        let rs = run(&mut fx, &plan);
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.rows[0].values[0], Value::Int(0));
        assert_eq!(rs.rows[0].values[1], Value::Null);
        assert!(rs.scalar().is_err());
    }

    #[test]
    fn group_by_partitions() {
        let mut fx = fixture(&people());
        let plan = Plan::Aggregate {
            input: Box::new(Plan::SeqScan { table: fx.table }),
            group_by: vec![Expr::col(2)],
            aggregates: vec![AggExpr {
                func: AggFunc::Count,
                arg: None,
            }],
            names: vec!["age".into(), "n".into()],
        };
        let rs = run(&mut fx, &plan);
        // Groups: NULL, 28, 34, 41 (BTreeMap order: Null first).
        assert_eq!(rs.len(), 4);
        assert_eq!(rs.rows[0].values, vec![Value::Null, Value::Int(1)]);
        assert_eq!(rs.rows[1].values, vec![Value::Int(28), Value::Int(2)]);
    }

    #[test]
    fn scalar_helper() {
        let mut fx = fixture(&people());
        let plan = Plan::Aggregate {
            input: Box::new(Plan::SeqScan { table: fx.table }),
            group_by: vec![],
            aggregates: vec![AggExpr {
                func: AggFunc::Count,
                arg: None,
            }],
            names: vec!["n".into()],
        };
        let rs = run(&mut fx, &plan);
        assert_eq!(rs.scalar().unwrap(), &Value::Int(5));
    }

    #[test]
    fn sum_over_text_errors() {
        let mut fx = fixture(&people());
        let plan = Plan::Aggregate {
            input: Box::new(Plan::SeqScan { table: fx.table }),
            group_by: vec![],
            aggregates: vec![AggExpr {
                func: AggFunc::Sum,
                arg: Some(Expr::col(1)),
            }],
            names: vec!["s".into()],
        };
        let mut ctx = ExecContext {
            catalog: &fx.catalog,
            pool: &mut fx.pool,
            indexes: &fx.indexes,
            audit: None,
        };
        assert!(execute(&plan, &mut ctx).is_err());
    }
}
