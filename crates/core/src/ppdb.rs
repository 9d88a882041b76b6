//! The privacy-preserving database (α-PPDB prototype, paper §10).
//!
//! A [`Ppdb`] binds a `qpv-reldb` database to the violation model: provider
//! data lives in an ordinary relational table, and the model's metadata —
//! house policy, stated preferences, sensitivities, thresholds — lives in
//! companion tables *in the same database*, so the whole privacy posture is
//! stored, recovered, and queryable exactly like the data it governs. This
//! is what makes violations auditable: the audit engine reads both sides
//! from storage rather than trusting in-memory state.
//!
//! ## Companion tables
//!
//! | table | contents |
//! |---|---|
//! | `_qpv_policy` | one row per house-policy tuple |
//! | `_qpv_prefs` | one row per stated preference tuple |
//! | `_qpv_sens` | one row per (provider, attribute) sensitivity tuple |
//! | `_qpv_attr_sens` | one row per attribute weight `Σ^a` |
//! | `_qpv_thresholds` | one row per provider threshold `v_i` |

use std::collections::HashMap;

use qpv_policy::{HousePolicy, ProviderId, ProviderPreferences};
use qpv_reldb::audit_bridge::{ViolationStats, VIOLATIONS_PROVIDER_INDEX};
use qpv_reldb::db::Database;
use qpv_reldb::error::{DbError, DbResult};
use qpv_reldb::exec::ResultSet;
use qpv_reldb::row::Row;
use qpv_reldb::schema::{Schema, SchemaBuilder};
use qpv_reldb::types::DataType;
use qpv_reldb::value::Value;
use qpv_reldb::ValueRef;
use qpv_taxonomy::{Level, PrivacyPoint, PrivacyTuple};

use qpv_reldb::fault::RetryPolicy;

use crate::audit::{AuditEngine, AuditReport};
use crate::intern::ScanMap;
use crate::liveindex::LiveViolationIndex;
use crate::pop::{CompiledPopulation, DeltaOp, PopulationBuilder, PopulationDelta, PrefRow};
use crate::profile::ProviderProfile;
use crate::sensitivity::{AttributeSensitivities, DatumSensitivity};

/// How the data table maps to the model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PpdbConfig {
    /// The table holding provider data (one row per provider,
    /// Assumption 5).
    pub data_table: String,
    /// The INT column identifying the provider in that table.
    pub provider_column: String,
}

impl PpdbConfig {
    /// Convenience constructor.
    pub fn new(data_table: impl Into<String>, provider_column: impl Into<String>) -> PpdbConfig {
        PpdbConfig {
            data_table: data_table.into(),
            provider_column: provider_column.into(),
        }
    }
}

/// A relational database with the privacy-violation model stored alongside
/// the data it protects.
///
/// Every write op that changes the audited population
/// ([`Ppdb::register_provider`] / [`Ppdb::insert_provider`],
/// [`Ppdb::remove_provider`], [`Ppdb::set_preferences`],
/// [`Ppdb::set_sensitivity`], [`Ppdb::set_threshold`]) also appends the
/// equivalent [`DeltaOp`] to a pending, sequence-tagged [`DeltaQueue`] —
/// *after* the storage transaction commits, so the delta never gets ahead
/// of durable state. Consumers follow a peek/ack protocol:
/// [`Ppdb::peek_delta_seq`] exposes the pending ops without consuming
/// them; once they are safely applied (to a [`crate::LiveViolationIndex`],
/// a [`crate::deltalog::DeltaLog`], …) the consumer calls
/// [`Ppdb::ack_delta_through`] with the seq it handled through. A failed
/// apply simply never acks, so the ops stay pending and replayable — the
/// older drain-then-apply `take_delta()` lost them on any apply error.
///
/// **Exactly-once consumption.** Every op carries a dense sequence
/// number assigned at push time. A consumer that crashes *between*
/// applying and acking re-peeks the same ops under the same seqs
/// ([`Ppdb::peek_delta_seq`]) and skips the prefix it already applied,
/// then acks with [`Ppdb::ack_delta_through`]: no op is lost (un-acked
/// ops stay queued) and none is applied twice (seqs never repeat).
///
/// The queue is a plain value this `Ppdb` owns ([`Ppdb::delta_queue`]
/// reads it); writer and consumers run on one thread, in turn.
pub struct Ppdb {
    db: Database,
    config: PpdbConfig,
    deltas: DeltaQueue,
    /// The live index both SQL paths ([`Ppdb::query_live`],
    /// [`Ppdb::query_violations`]) read: built once, then kept current by
    /// replaying the seq-tagged delta tail (exactly-once via the
    /// high-water mark; never acks, so it coexists with other
    /// consumers) for as long as this `Ppdb` accounts for every commit.
    live: Option<LiveHandle>,
    /// Live-index cold builds performed (maintenance must not rebuild).
    live_builds: u64,
}

/// The live index plus its subscription state.
struct LiveHandle {
    index: LiveViolationIndex,
    stats: ViolationStats,
    /// [`Database::end_lsn`] through which every commit is accounted for:
    /// its delta was pushed, or it left the population as it was (a
    /// rolled-back write, an audit-log entry). Any other commit leaves
    /// this behind the store's clock, and the next refresh rebuilds.
    lsn: u64,
    /// Every delta op with seq `< applied_seq` is reflected in `index`.
    /// If the queue's `first_seq` ever exceeds this, another consumer
    /// drained ops this index never saw — rebuild from the store.
    applied_seq: u64,
}

const T_POLICY: &str = "_qpv_policy";
const T_PREFS: &str = "_qpv_prefs";
const T_SENS: &str = "_qpv_sens";
const T_ATTR_SENS: &str = "_qpv_attr_sens";
const T_THRESHOLDS: &str = "_qpv_thresholds";
const T_AUDIT_LOG: &str = "_qpv_audit_log";

/// One recorded audit in the PPDB's history (§10's "continuously monitor
/// the state of their privacy").
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct AuditLogEntry {
    /// Monotone sequence number.
    pub seq: i64,
    /// Caller-supplied label (e.g. a policy version).
    pub label: String,
    /// Population size at audit time.
    pub population: i64,
    /// Providers with `w_i = 1`.
    pub violated: i64,
    /// Providers with `default_i = 1`.
    pub defaulted: i64,
    /// Equation 16's `Violations` (saturated to `i64::MAX` for storage).
    pub total_violations: i64,
    /// `P(W)`.
    pub p_violation: f64,
    /// `P(Default)`.
    pub p_default: f64,
}

/// A sequence-tagged queue of pending [`DeltaOp`]s, owned by the
/// [`Ppdb`] that pushes them.
///
/// Sequence numbers are assigned at push time, start at 0 for the first
/// op pushed after open, and never repeat; acking is expressed *in seqs*
/// ([`Ppdb::ack_delta_through`]) so it is idempotent: a consumer that
/// crashed after applying ops `[a, b)` but before acking simply acks
/// through `b` again after recovery and re-applies nothing.
///
/// The queue is in-memory: on process restart it is rebuilt empty and
/// seqs restart at 0, which is sound because consumers that need
/// durability (the [`crate::deltalog::DeltaLog`]) persist acked state
/// themselves, and un-acked in-memory ops are re-derivable from the
/// store (the storage transaction committed first).
pub struct DeltaQueue {
    /// Pending ops; `ops.ops()[0]` carries seq `first_seq`.
    ops: PopulationDelta,
    /// Seq of the oldest pending op (== next seq to assign when empty).
    first_seq: u64,
}

impl DeltaQueue {
    fn new() -> DeltaQueue {
        DeltaQueue {
            ops: PopulationDelta::new(),
            first_seq: 0,
        }
    }

    /// Pending (un-acked) ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Seq of the oldest pending op (the next seq to assign if empty).
    pub fn first_seq(&self) -> u64 {
        self.first_seq
    }

    /// Seq the *next* pushed op will receive; `next_seq() - first_seq()`
    /// equals [`DeltaQueue::len`].
    pub fn next_seq(&self) -> u64 {
        self.first_seq + self.ops.len() as u64
    }

    /// Copy the pending ops: `(first_seq, ops)` where `ops.ops()[i]`
    /// carries seq `first_seq + i`. Later pushes and acks don't mutate
    /// the copy.
    pub fn peek(&self) -> (u64, PopulationDelta) {
        (self.first_seq, self.ops.clone())
    }

    /// Like [`DeltaQueue::peek`], but clone only the ops with seq `>=
    /// seq`: returns `(tail_first_seq, tail)` where `tail_first_seq` is
    /// `seq` clamped into the pending window. A consumer that recorded
    /// the seq it applied through pays `O(unseen)` here — `peek` clones
    /// the *whole* backlog, which is sized by whatever the slowest other
    /// consumer hasn't acked yet, not by this consumer's lag.
    pub fn peek_from(&self, seq: u64) -> (u64, PopulationDelta) {
        let skip = seq
            .saturating_sub(self.first_seq)
            .min(self.ops.len() as u64) as usize;
        (self.first_seq + skip as u64, self.ops.clone_tail(skip))
    }

    /// Drop every pending op with seq `< end_seq`; see
    /// [`Ppdb::ack_delta_through`].
    fn ack_through(&mut self, end_seq: u64) {
        let n = end_seq
            .saturating_sub(self.first_seq)
            .min(self.ops.len() as u64) as usize;
        self.ops.drain_front(n);
        self.first_seq += n as u64;
    }

    /// Append an op, assigning it the next seq. Only the `Ppdb` writer
    /// pushes, and only after the storage txn committed.
    fn push(&mut self, op: DeltaOp) {
        self.ops.push(op);
    }
}

impl Ppdb {
    /// Create the data table (from `data_schema`) and all companion tables
    /// in `db`. The schema must contain the configured provider column with
    /// type `INT`.
    pub fn create(mut db: Database, config: PpdbConfig, data_schema: Schema) -> DbResult<Ppdb> {
        // The privacy layer's write path absorbs transient storage faults
        // with a bounded retry rather than surfacing every blip.
        db.set_retry_policy(RetryPolicy::standard());
        let pc = data_schema.require(&config.provider_column)?;
        let col = data_schema.column(pc).expect("require returned index");
        if col.dtype != DataType::Int {
            return Err(DbError::Schema(format!(
                "provider column {:?} must be INT, is {}",
                config.provider_column, col.dtype
            )));
        }
        db.create_table(&config.data_table, data_schema)?;
        // The provider index over the data table is what lets bounded
        // `_qpv_violations` queries select candidate providers instead of
        // sweeping the whole population (see `Ppdb::query_violations`).
        db.create_index(
            VIOLATIONS_PROVIDER_INDEX,
            &config.data_table,
            &[config.provider_column.as_str()],
        )?;
        db.create_table(
            T_POLICY,
            SchemaBuilder::new()
                .column("attribute", DataType::Text)
                .column("purpose", DataType::Text)
                .column("vis", DataType::Int)
                .column("gran", DataType::Int)
                .column("ret", DataType::Int)
                .build()?,
        )?;
        db.create_table(
            T_PREFS,
            SchemaBuilder::new()
                .column("provider", DataType::Int)
                .column("attribute", DataType::Text)
                .column("purpose", DataType::Text)
                .column("vis", DataType::Int)
                .column("gran", DataType::Int)
                .column("ret", DataType::Int)
                .build()?,
        )?;
        db.create_index(
            "_qpv_prefs_provider_attr",
            T_PREFS,
            &["provider", "attribute"],
        )?;
        db.create_table(
            T_SENS,
            SchemaBuilder::new()
                .column("provider", DataType::Int)
                .column("attribute", DataType::Text)
                .column("value_s", DataType::Int)
                .column("vis_s", DataType::Int)
                .column("gran_s", DataType::Int)
                .column("ret_s", DataType::Int)
                .build()?,
        )?;
        db.create_index(
            "_qpv_sens_provider_attr",
            T_SENS,
            &["provider", "attribute"],
        )?;
        db.create_table(
            T_ATTR_SENS,
            SchemaBuilder::new()
                .column("attribute", DataType::Text)
                .column("weight", DataType::Int)
                .build()?,
        )?;
        db.create_table(
            T_THRESHOLDS,
            SchemaBuilder::new()
                .column("provider", DataType::Int)
                .column("threshold", DataType::Int)
                .build()?,
        )?;
        db.create_table(
            T_AUDIT_LOG,
            SchemaBuilder::new()
                .column("seq", DataType::Int)
                .column("label", DataType::Text)
                .column("population", DataType::Int)
                .column("violated", DataType::Int)
                .column("defaulted", DataType::Int)
                .column("total_violations", DataType::Int)
                .column("p_w", DataType::Float)
                .column("p_def", DataType::Float)
                .build()?,
        )?;
        Ok(Ppdb::assemble(db, config))
    }

    fn assemble(db: Database, config: PpdbConfig) -> Ppdb {
        Ppdb {
            db,
            config,
            deltas: DeltaQueue::new(),
            live: None,
            live_builds: 0,
        }
    }

    /// Attach to a database where [`Ppdb::create`] already ran (e.g. after
    /// reopening a durable database).
    pub fn open(mut db: Database, config: PpdbConfig) -> DbResult<Ppdb> {
        db.set_retry_policy(RetryPolicy::standard());
        for t in [
            config.data_table.as_str(),
            T_POLICY,
            T_PREFS,
            T_SENS,
            T_ATTR_SENS,
            T_THRESHOLDS,
            T_AUDIT_LOG,
        ] {
            if db.catalog().table(t).is_none() {
                return Err(DbError::Catalog(format!("not a PPDB: missing table {t:?}")));
            }
        }
        Ok(Ppdb::assemble(db, config))
    }

    /// The underlying database (e.g. for ad-hoc SQL over the data or the
    /// privacy metadata). Reads through it keep the cached audit state;
    /// a write commits, moves the store's commit clock, and so makes the
    /// next query rebuild from the store.
    pub fn db_mut(&mut self) -> &mut Database {
        &mut self.db
    }

    /// The configuration.
    pub fn config(&self) -> &PpdbConfig {
        &self.config
    }

    /// The data attributes the model audits: every column of the data table
    /// except the provider id column.
    pub fn attributes(&self) -> DbResult<Vec<String>> {
        let schema = self.db.schema(&self.config.data_table)?;
        Ok(schema
            .columns()
            .iter()
            .map(|c| c.name.clone())
            .filter(|n| *n != self.config.provider_column)
            .collect())
    }

    /// Replace the stored house policy. Invalidates cached audit state
    /// (the policy does not flow through the delta stream, so its commits
    /// are not accounted for).
    pub fn set_policy(&mut self, policy: &HousePolicy) -> DbResult<()> {
        self.db
            .execute(&format!("DELETE FROM {T_POLICY}"))
            .map(|_| ())?;
        for t in policy.tuples() {
            self.db.insert(
                T_POLICY,
                Row::from_values([
                    Value::Text(t.attribute.clone()),
                    Value::Text(t.tuple.purpose.name().to_string()),
                    Value::Int(t.tuple.point.visibility.raw() as i64),
                    Value::Int(t.tuple.point.granularity.raw() as i64),
                    Value::Int(t.tuple.point.retention.raw() as i64),
                ]),
            )?;
        }
        Ok(())
    }

    /// Read the stored house policy back.
    pub fn house_policy(&mut self) -> DbResult<HousePolicy> {
        let rows = self.db.scan(T_POLICY)?;
        let mut policy = HousePolicy::new(&*self.config.data_table);
        for (_, row) in rows {
            let (attr, tuple) = decode_tuple_row(&row, 0)?;
            policy.add(attr, tuple);
        }
        Ok(policy)
    }

    /// Set the social weight `Σ^a` of an attribute. Invalidates cached
    /// audit state (weights do not flow through the delta stream, so its
    /// commits are not accounted for).
    pub fn set_attribute_weight(&mut self, attribute: &str, weight: u32) -> DbResult<()> {
        // The name is a SQL string literal here: double its quotes so a
        // name like `o'brien` neither breaks the parse nor widens the
        // predicate to other attributes' rows.
        let literal = attribute.replace('\'', "''");
        self.db.execute(&format!(
            "DELETE FROM {T_ATTR_SENS} WHERE attribute = '{literal}'"
        ))?;
        self.db.insert(
            T_ATTR_SENS,
            Row::from_values([
                Value::Text(attribute.to_string()),
                Value::Int(weight as i64),
            ]),
        )?;
        Ok(())
    }

    /// Read all attribute weights.
    pub fn attribute_weights(&mut self) -> DbResult<AttributeSensitivities> {
        let mut weights = AttributeSensitivities::new();
        for (_, row) in self.db.scan(T_ATTR_SENS)? {
            let attr = text(&row, 0)?;
            let w = int(&row, 1)? as u32;
            weights.set(attr, w);
        }
        Ok(weights)
    }

    /// Register a provider: store their data row, stated preferences,
    /// sensitivities, and threshold, atomically.
    pub fn register_provider(&mut self, profile: &ProviderProfile, data: Row) -> DbResult<()> {
        let id = profile.id().0 as i64;
        // Validate the data row carries the right provider id.
        let schema = self.db.schema(&self.config.data_table)?;
        let pc = schema.require(&self.config.provider_column)?;
        match data.get(pc) {
            Some(Value::Int(v)) if *v == id => {}
            other => {
                return Err(DbError::Schema(format!(
                    "data row provider column is {other:?}, expected {id}"
                )));
            }
        }
        self.write_then_push(|p| {
            p.db.insert(&p.config.data_table, data)?;
            for t in profile.preferences.tuples() {
                p.db.insert(
                    T_PREFS,
                    Row::from_values([
                        Value::Int(id),
                        Value::Text(t.attribute.clone()),
                        Value::Text(t.tuple.purpose.name().to_string()),
                        Value::Int(t.tuple.point.visibility.raw() as i64),
                        Value::Int(t.tuple.point.granularity.raw() as i64),
                        Value::Int(t.tuple.point.retention.raw() as i64),
                    ]),
                )?;
            }
            for (attr, s) in &profile.sensitivities {
                p.db.insert(
                    T_SENS,
                    Row::from_values([
                        Value::Int(id),
                        Value::Text(attr.clone()),
                        Value::Int(s.value as i64),
                        Value::Int(s.visibility as i64),
                        Value::Int(s.granularity as i64),
                        Value::Int(s.retention as i64),
                    ]),
                )?;
            }
            p.db.insert(
                T_THRESHOLDS,
                Row::from_values([Value::Int(id), Value::Int(profile.threshold as i64)]),
            )?;
            Ok(|| DeltaOp::Upsert(profile.clone()))
        })
    }

    /// [`Ppdb::register_provider`] under the name the delta pipeline uses:
    /// insert a provider and emit the corresponding upsert delta.
    pub fn insert_provider(&mut self, profile: &ProviderProfile, data: Row) -> DbResult<()> {
        self.register_provider(profile, data)
    }

    /// Remove a provider entirely (their data and all model metadata) —
    /// what physically happens when a provider defaults.
    pub fn remove_provider(&mut self, id: ProviderId) -> DbResult<()> {
        let n = id.0 as i64;
        self.write_then_push(|p| {
            p.db.execute(&format!(
                "DELETE FROM {} WHERE {} = {n}",
                p.config.data_table, p.config.provider_column
            ))?;
            for t in [T_PREFS, T_SENS, T_THRESHOLDS] {
                p.db.execute(&format!("DELETE FROM {t} WHERE provider = {n}"))?;
            }
            Ok(move || DeltaOp::Remove(id))
        })
    }

    /// Replace a provider's stated preferences for one attribute.
    ///
    /// Mirrors [`crate::DeltaOp::SetAttributePrefs`]: the provider's tuples
    /// for other attributes keep their stored order, and the new tuples for
    /// `attribute` come after them. Unknown providers are a silent no-op,
    /// matching the delta semantics.
    pub fn set_preferences(
        &mut self,
        id: ProviderId,
        attribute: &str,
        tuples: Vec<PrivacyTuple>,
    ) -> DbResult<()> {
        let n = id.0 as i64;
        if !self.provider_ids()?.contains(&id) {
            return Ok(());
        }
        // Rewrite the provider's whole preference set: the other
        // attributes' rows must keep their stored order, with the
        // replacements after them, so that the stored rows mirror
        // `DeltaOp::SetAttributePrefs` on the compiled population.
        let mut keep: Vec<(String, PrivacyTuple)> = Vec::new();
        for (_, row) in self.db.scan(T_PREFS)? {
            if int(&row, 0)? == n {
                let (attr, tuple) = decode_tuple_row(&row, 1)?;
                if attr != attribute {
                    keep.push((attr, tuple));
                }
            }
        }
        self.write_then_push(move |p| {
            p.db.execute(&format!("DELETE FROM {T_PREFS} WHERE provider = {n}"))?;
            for (attr, tuple) in keep
                .iter()
                .map(|(a, t)| (a.as_str(), t))
                .chain(tuples.iter().map(|t| (attribute, t)))
            {
                p.db.insert(
                    T_PREFS,
                    Row::from_values([
                        Value::Int(n),
                        Value::Text(attr.to_string()),
                        Value::Text(tuple.purpose.name().to_string()),
                        Value::Int(tuple.point.visibility.raw() as i64),
                        Value::Int(tuple.point.granularity.raw() as i64),
                        Value::Int(tuple.point.retention.raw() as i64),
                    ]),
                )?;
            }
            Ok(move || DeltaOp::SetAttributePrefs {
                id,
                attribute: attribute.to_string(),
                tuples,
            })
        })
    }

    /// Set a provider's datum sensitivity for one attribute.
    ///
    /// Unknown providers are a silent no-op, matching
    /// [`crate::DeltaOp::SetSensitivity`].
    pub fn set_sensitivity(
        &mut self,
        id: ProviderId,
        attribute: &str,
        sensitivity: DatumSensitivity,
    ) -> DbResult<()> {
        let n = id.0 as i64;
        if !self.provider_ids()?.contains(&id) {
            return Ok(());
        }
        let mut keep: Vec<(String, DatumSensitivity)> = Vec::new();
        for (_, row) in self.db.scan(T_SENS)? {
            if int(&row, 0)? == n {
                let attr = text(&row, 1)?;
                if attr != attribute {
                    keep.push((
                        attr,
                        DatumSensitivity::new(
                            int(&row, 2)? as u32,
                            int(&row, 3)? as u32,
                            int(&row, 4)? as u32,
                            int(&row, 5)? as u32,
                        ),
                    ));
                }
            }
        }
        self.write_then_push(|p| {
            p.db.execute(&format!("DELETE FROM {T_SENS} WHERE provider = {n}"))?;
            for (attr, s) in keep
                .iter()
                .map(|(a, s)| (a.as_str(), *s))
                .chain(std::iter::once((attribute, sensitivity)))
            {
                p.db.insert(
                    T_SENS,
                    Row::from_values([
                        Value::Int(n),
                        Value::Text(attr.to_string()),
                        Value::Int(s.value as i64),
                        Value::Int(s.visibility as i64),
                        Value::Int(s.granularity as i64),
                        Value::Int(s.retention as i64),
                    ]),
                )?;
            }
            Ok(move || DeltaOp::SetSensitivity {
                id,
                attribute: attribute.to_string(),
                sensitivity,
            })
        })
    }

    /// Set a provider's violation threshold `v_i`.
    ///
    /// Unknown providers are a silent no-op, matching
    /// [`crate::DeltaOp::SetThreshold`].
    pub fn set_threshold(&mut self, id: ProviderId, threshold: u64) -> DbResult<()> {
        let n = id.0 as i64;
        if !self.provider_ids()?.contains(&id) {
            return Ok(());
        }
        self.write_then_push(|p| {
            p.db.execute(&format!("DELETE FROM {T_THRESHOLDS} WHERE provider = {n}"))?;
            p.db.insert(
                T_THRESHOLDS,
                Row::from_values([Value::Int(n), Value::Int(threshold as i64)]),
            )?;
            Ok(move || DeltaOp::SetThreshold { id, threshold })
        })
    }

    /// The write path every model-changing op shares: run `write` inside
    /// one storage transaction and, only once that transaction commits,
    /// build the [`DeltaOp`] with the closure `write` returned and push
    /// it. A write that fails rolls back and pushes nothing, so the delta
    /// stream never gets ahead of the store and seqs stay dense. Building
    /// the op after the commit also keeps its allocations (a whole
    /// profile, for an upsert) out of the transaction's. Either way the
    /// commit is accounted for (its delta is pushed, or it rolled back).
    fn write_then_push<F: FnOnce() -> DeltaOp>(
        &mut self,
        write: impl FnOnce(&mut Ppdb) -> DbResult<F>,
    ) -> DbResult<()> {
        let before = self.db.end_lsn();
        self.db.begin()?;
        let result = match write(self) {
            Ok(make_op) => {
                self.db.commit()?;
                self.deltas.push(make_op());
                Ok(())
            }
            Err(e) => {
                self.db.rollback()?;
                Err(e)
            }
        };
        self.account_commits_since(before);
        result
    }

    /// Mark the commits since `before` as this `Ppdb`'s own, leaving the
    /// population as the delta stream says, so the live index may keep
    /// replaying instead of rebuilding. Only a handle current at `before`
    /// moves: once a commit went unaccounted, it stays behind.
    fn account_commits_since(&mut self, before: u64) {
        if let Some(h) = self.live.as_mut().filter(|h| h.lsn == before) {
            h.lsn = self.db.end_lsn();
        }
    }

    /// The delta accumulated by write ops since the last acknowledged
    /// seq (or since open), without consuming it: `(first_seq, ops)`
    /// where `ops.ops()[i]` carries seq `first_seq + i`. Apply it (e.g.
    /// via [`crate::LiveViolationIndex::apply_delta`] or append it to a
    /// [`crate::deltalog::DeltaLog`]), then acknowledge the ops you
    /// handled with [`Ppdb::ack_delta_through`]. If the apply fails,
    /// don't ack — the ops stay pending and the next peek returns them
    /// again. A consumer that records the seq it applied through
    /// (durably or in its own state) can crash at any point, re-peek,
    /// skip `applied_through - first_seq` ops, and ack — exactly-once
    /// apply with no coordination beyond the queue.
    pub fn peek_delta_seq(&self) -> (u64, PopulationDelta) {
        self.deltas.peek()
    }

    /// Acknowledge every pending op with seq `< end_seq`. Clamped at both
    /// ends (acking an already-acked or not-yet-pushed seq is a no-op /
    /// full drain), so recovery code can always re-ack its high-water
    /// mark without tracking what the crash interrupted.
    pub fn ack_delta_through(&mut self, end_seq: u64) {
        self.deltas.ack_through(end_seq);
    }

    /// Pending (un-acked) delta ops.
    pub fn delta_backlog_len(&self) -> usize {
        self.deltas.len()
    }

    /// The pending-delta queue, for reading its seq counters and tail.
    pub fn delta_queue(&self) -> &DeltaQueue {
        &self.deltas
    }

    /// All provider ids with data stored, in storage order (one borrowed
    /// pass over the data table).
    pub fn provider_ids(&mut self) -> DbResult<Vec<ProviderId>> {
        let pc = self
            .db
            .schema(&self.config.data_table)?
            .require(&self.config.provider_column)?;
        let mut ids = Vec::new();
        self.db.scan_each(&self.config.data_table, |row| {
            let id = row
                .get(pc)
                .and_then(ValueRef::as_int)
                .ok_or_else(|| DbError::Schema("non-integer provider id".into()))?;
            ids.push(ProviderId(id as u64));
            Ok(())
        })?;
        Ok(ids)
    }

    /// Reconstruct one provider's profile from storage.
    pub fn provider_profile(&mut self, id: ProviderId) -> DbResult<ProviderProfile> {
        let n = id.0 as i64;
        let mut profile = ProviderProfile::new(id, 0);
        let mut prefs = ProviderPreferences::new(id);
        for (_, row) in self.db.scan(T_PREFS)? {
            if int(&row, 0)? == n {
                let (attr, tuple) = decode_tuple_row(&row, 1)?;
                prefs.add(attr, tuple);
            }
        }
        profile.preferences = prefs;
        for (_, row) in self.db.scan(T_SENS)? {
            if int(&row, 0)? == n {
                let attr = text(&row, 1)?;
                profile.sensitivities.insert(
                    attr,
                    DatumSensitivity::new(
                        int(&row, 2)? as u32,
                        int(&row, 3)? as u32,
                        int(&row, 4)? as u32,
                        int(&row, 5)? as u32,
                    ),
                );
            }
        }
        for (_, row) in self.db.scan(T_THRESHOLDS)? {
            if int(&row, 0)? == n {
                profile.threshold = int(&row, 1)? as u64;
            }
        }
        Ok(profile)
    }

    /// All profiles, in data-table order.
    ///
    /// Batched: one scan over each of the preference, sensitivity, and
    /// threshold tables, bucketed by provider id — `O(rows)` instead of
    /// the per-provider [`Ppdb::provider_profile`] rescans (`O(providers ×
    /// rows)`). Accumulation mirrors the point-lookup path exactly:
    /// preference tuples append in scan order, and later sensitivity /
    /// threshold rows for the same provider overwrite earlier ones. A
    /// provider id occurring more than once in the data table yields one
    /// (identical) profile per occurrence, as before.
    pub fn all_profiles(&mut self) -> DbResult<Vec<ProviderProfile>> {
        let ids = self.provider_ids()?;
        let mut by_id: HashMap<i64, ProviderProfile> = HashMap::with_capacity(ids.len());
        for &id in &ids {
            by_id
                .entry(id.0 as i64)
                .or_insert_with(|| ProviderProfile::new(id, 0));
        }
        for (_, row) in self.db.scan(T_PREFS)? {
            if let Some(profile) = by_id.get_mut(&int(&row, 0)?) {
                let (attr, tuple) = decode_tuple_row(&row, 1)?;
                profile.preferences.add(attr, tuple);
            }
        }
        for (_, row) in self.db.scan(T_SENS)? {
            if let Some(profile) = by_id.get_mut(&int(&row, 0)?) {
                let attr = text(&row, 1)?;
                profile.sensitivities.insert(
                    attr,
                    DatumSensitivity::new(
                        int(&row, 2)? as u32,
                        int(&row, 3)? as u32,
                        int(&row, 4)? as u32,
                        int(&row, 5)? as u32,
                    ),
                );
            }
        }
        for (_, row) in self.db.scan(T_THRESHOLDS)? {
            if let Some(profile) = by_id.get_mut(&int(&row, 0)?) {
                profile.threshold = int(&row, 1)? as u64;
            }
        }
        Ok(ids
            .into_iter()
            .map(|id| by_id[&(id.0 as i64)].clone())
            .collect())
    }

    /// Compile the stored population straight into flat structure-of-arrays
    /// form, without ever materializing [`ProviderProfile`]s.
    ///
    /// One borrowed pass per table ([`Database::scan_each`]): rows are
    /// decoded in place off their pages and attribute/purpose names are
    /// interned from the borrowed `&str`s, in preference-then-sensitivity
    /// scan order. Preference and sensitivity rows are grouped per
    /// provider by a stable counting sort, then every occurrence is pushed
    /// exactly once with its final datums and threshold. Accumulation
    /// mirrors [`Ppdb::all_profiles`] exactly (preference rows in scan
    /// order; later sensitivity / threshold rows overwrite earlier ones;
    /// rows for ids absent from the data table are dropped; duplicate
    /// data-table ids yield one identical occurrence each), so audits over
    /// the result are byte-identical to `from_profiles(all_profiles())`.
    pub fn compiled_population(&mut self) -> DbResult<CompiledPopulation> {
        let ids = self.provider_ids()?;
        // Distinct ids get dense positions; a repeated id shares its first
        // occurrence's position.
        let mut positions: ScanMap<i64, u32> =
            ScanMap::with_capacity_and_hasher(ids.len(), Default::default());
        let occurrences: Vec<u32> = ids
            .iter()
            .map(|id| {
                let next = positions.len() as u32;
                *positions.entry(id.0 as i64).or_insert(next)
            })
            .collect();
        let known = positions.len();
        let mut builder = PopulationBuilder::new();

        let mut prefs: Vec<(u32, PrefRow)> = Vec::new();
        self.db.scan_each(T_PREFS, |row| {
            let Some(pos) = positions.get(&int_ref(row, 0)?).copied() else {
                return Ok(());
            };
            let attr = builder.intern_attr(text_ref(row, 1)?);
            let purpose = builder.intern_purpose(text_ref(row, 2)?);
            let point = PrivacyPoint::from_raw(
                int_ref(row, 3)? as u32,
                int_ref(row, 4)? as u32,
                int_ref(row, 5)? as u32,
            );
            prefs.push((
                pos,
                PrefRow {
                    attr,
                    purpose,
                    point,
                },
            ));
            Ok(())
        })?;

        let mut sens: Vec<(u32, (u32, DatumSensitivity))> = Vec::new();
        self.db.scan_each(T_SENS, |row| {
            let Some(pos) = positions.get(&int_ref(row, 0)?).copied() else {
                return Ok(());
            };
            let attr = builder.intern_attr(text_ref(row, 1)?);
            let s = DatumSensitivity::new(
                int_ref(row, 2)? as u32,
                int_ref(row, 3)? as u32,
                int_ref(row, 4)? as u32,
                int_ref(row, 5)? as u32,
            );
            sens.push((pos, (attr, s)));
            Ok(())
        })?;

        let mut thresholds = vec![0u64; known];
        self.db.scan_each(T_THRESHOLDS, |row| {
            if let Some(pos) = positions.get(&int_ref(row, 0)?).copied() {
                thresholds[pos as usize] = int_ref(row, 1)? as u64;
            }
            Ok(())
        })?;

        let (pref_starts, prefs) = group_by_position(&prefs, known);
        let (sens_starts, sens) = group_by_position(&sens, known);
        for (id, pos) in ids.into_iter().zip(occurrences) {
            let pos = pos as usize;
            builder.push_scanned(
                id,
                &prefs[pref_starts[pos]..pref_starts[pos + 1]],
                &sens[sens_starts[pos]..sens_starts[pos + 1]],
                thresholds[pos],
            );
        }
        Ok(builder.finish())
    }

    /// Build an [`AuditEngine`] from stored state.
    pub fn audit_engine(&mut self) -> DbResult<AuditEngine> {
        let policy = self.house_policy()?;
        let attributes = self.attributes()?;
        let weights = self.attribute_weights()?;
        Ok(AuditEngine::new(policy, attributes, weights))
    }

    /// Run a full audit against the stored policy, preferences, and data.
    ///
    /// Routes through [`Ppdb::compiled_population`]: the scan feeds the
    /// flat population directly, never materializing per-provider
    /// profiles.
    pub fn audit(&mut self) -> DbResult<AuditReport> {
        let engine = self.audit_engine()?;
        let pop = self.compiled_population()?;
        Ok(engine.audit_compiled(&pop))
    }

    /// Run an audit and append its summary to the stored audit history —
    /// the monitoring loop of the paper's §10. Returns both the full
    /// report and the recorded entry.
    pub fn record_audit(&mut self, label: &str) -> DbResult<(AuditReport, AuditLogEntry)> {
        let report = self.audit()?;
        let seq = self.audit_history()?.last().map(|e| e.seq + 1).unwrap_or(0);
        let entry = AuditLogEntry {
            seq,
            label: label.to_string(),
            population: report.population() as i64,
            violated: report.providers.iter().filter(|p| p.violated).count() as i64,
            defaulted: report.providers.iter().filter(|p| p.defaulted).count() as i64,
            total_violations: i64::try_from(report.total_violations).unwrap_or(i64::MAX),
            p_violation: report.p_violation(),
            p_default: report.p_default(),
        };
        // The audit log is outside the population: accounted for.
        let before = self.db.end_lsn();
        self.db.insert(
            T_AUDIT_LOG,
            Row::from_values([
                Value::Int(entry.seq),
                Value::Text(entry.label.clone()),
                Value::Int(entry.population),
                Value::Int(entry.violated),
                Value::Int(entry.defaulted),
                Value::Int(entry.total_violations),
                Value::Float(entry.p_violation),
                Value::Float(entry.p_default),
            ]),
        )?;
        self.account_commits_since(before);
        Ok((report, entry))
    }

    /// The recorded audit history, oldest first.
    pub fn audit_history(&mut self) -> DbResult<Vec<AuditLogEntry>> {
        let mut entries = Vec::new();
        for (_, row) in self.db.scan(T_AUDIT_LOG)? {
            entries.push(AuditLogEntry {
                seq: int(&row, 0)?,
                label: text(&row, 1)?,
                population: int(&row, 2)?,
                violated: int(&row, 3)?,
                defaulted: int(&row, 4)?,
                total_violations: int(&row, 5)?,
                p_violation: float(&row, 6)?,
                p_default: float(&row, 7)?,
            });
        }
        entries.sort_by_key(|e| e.seq);
        Ok(entries)
    }

    /// Record an audit and check Definition 3's α-PPDB condition in one
    /// step — the "demonstrably shown to be an α-PPDB" workflow.
    pub fn certify_alpha(&mut self, alpha: f64, label: &str) -> DbResult<bool> {
        let (report, _) = self.record_audit(label)?;
        Ok(report.is_alpha_ppdb(alpha))
    }

    /// Ensure the live index reflects every write so far: replay the
    /// unseen delta tail when the subscription is intact (`O(changed)`),
    /// cold-build from the store when there is no index yet, a commit
    /// went unaccounted (a model edit, a raw write through
    /// [`Ppdb::db_mut`]), or another consumer drained ops this index
    /// never saw.
    /// Returns the database alongside the refreshed handle.
    fn refresh_live(&mut self) -> DbResult<(&mut Database, &LiveHandle)> {
        // Seq counters first, never a blanket `peek`: peek clones the
        // whole backlog, which is sized by whatever the *slowest other*
        // consumer hasn't acked — an un-drained queue would make every
        // query O(write history) instead of O(changed since last query).
        let (next_seq, lsn) = (self.deltas.next_seq(), self.db.end_lsn());
        let maintained = match self.live.take() {
            Some(h) if h.lsn == lsn && h.applied_seq == next_seq => {
                // Nothing pushed since the last refresh: O(1).
                Some(h)
            }
            Some(mut h) if h.lsn == lsn && h.applied_seq < next_seq => {
                // Clone only the unseen tail. `tail_seq == applied` iff
                // the subscription is intact — anything else means another
                // consumer drained ops this index never applied, and only
                // a cold rebuild can recover. A duplicate-occurrence
                // population refuses the delta: rebuild too (audits stay
                // correct either way).
                let (tail_seq, tail) = self.deltas.peek_from(h.applied_seq);
                (tail_seq == h.applied_seq && h.index.apply_delta(&tail).is_ok()).then(|| {
                    h.applied_seq = tail_seq + tail.len() as u64;
                    h.stats = h.index.stats();
                    h
                })
            }
            _ => None,
        };
        let handle = match maintained {
            Some(h) => h,
            None => {
                let index =
                    LiveViolationIndex::new(self.audit_engine()?, self.compiled_population()?);
                self.live_builds += 1;
                LiveHandle {
                    stats: index.stats(),
                    index,
                    lsn,
                    // The store the population was compiled from already
                    // reflects every pushed op (txn commits before push).
                    applied_seq: next_seq,
                }
            }
        };
        Ok((&mut self.db, self.live.insert(handle)))
    }

    /// Run a `SELECT` that may use the audit extensions (`VIOLATES(...)`,
    /// `_qpv_violations`) against the current stored state. It reads the
    /// same maintained [`LiveViolationIndex`] as [`Ppdb::query_live`]
    /// (refreshed the same way, so no second population is compiled) but
    /// registers its statistics as not index-backed: the planner then
    /// prices a bounded `_qpv_violations` scan as an index-selected
    /// candidate walk or a sweep (`Plan::ViolationScan`) instead of a
    /// `LiveIndexScan`, and the bridge answers either from the rows the
    /// index already holds.
    pub fn query_violations(&mut self, sql: &str) -> DbResult<ResultSet> {
        let (db, live) = self.refresh_live()?;
        db.set_violation_stats(Some(ViolationStats {
            indexed: false,
            ..live.stats
        }));
        db.query_with(sql, &live.index)
    }

    /// Run a `SELECT` through the maintained [`LiveViolationIndex`]:
    /// no population compile on the query path — maintenance is
    /// `O(changed)` per intervening write batch and queries are answered
    /// from the materialized postings (`Plan::LiveIndexScan`, chosen by
    /// the registered `indexed` statistics).
    pub fn query_live(&mut self, sql: &str) -> DbResult<ResultSet> {
        let (db, live) = self.refresh_live()?;
        db.set_violation_stats(Some(live.stats));
        db.query_with(sql, &live.index)
    }

    /// The maintained live index, refreshed to the current store (see
    /// [`Ppdb::query_live`]).
    pub fn live_index(&mut self) -> DbResult<&LiveViolationIndex> {
        Ok(&self.refresh_live()?.1.index)
    }

    /// Always 0: [`Ppdb::query_violations`] reads the live index and
    /// compiles no population of its own, so its builds are counted by
    /// [`Ppdb::live_builds`]. Kept because the end-to-end benchmark's
    /// `sql_analyst` workload reports it.
    pub fn snapshot_builds(&self) -> u64 {
        0
    }

    /// How many times the live index was cold-built (maintenance must
    /// replay deltas, not rebuild).
    pub fn live_builds(&self) -> u64 {
        self.live_builds
    }

    /// [`qpv_reldb::db::Database::explain`] over this PPDB's database:
    /// the chosen access path for a query, without running it. Plans
    /// over `_qpv_violations` are priced with the statistics registered
    /// by the most recent [`Ppdb::query_violations`] (not index-backed:
    /// `ViolationScan`) or [`Ppdb::query_live`] (index-backed:
    /// `LiveIndexScan`) call; no statistics → the executor's static
    /// heuristic.
    pub fn explain(&mut self, sql: &str) -> DbResult<String> {
        self.db.explain(sql)
    }
}

// Column accessors with model-level errors.
fn int(row: &Row, idx: usize) -> DbResult<i64> {
    row.get(idx)
        .and_then(Value::as_int)
        .ok_or_else(|| DbError::Schema(format!("expected INT at column {idx}")))
}

fn text(row: &Row, idx: usize) -> DbResult<String> {
    row.get(idx)
        .and_then(Value::as_text)
        .map(str::to_string)
        .ok_or_else(|| DbError::Schema(format!("expected TEXT at column {idx}")))
}

/// [`int`] over a row decoded in place.
fn int_ref(row: &[ValueRef<'_>], idx: usize) -> DbResult<i64> {
    row.get(idx)
        .and_then(ValueRef::as_int)
        .ok_or_else(|| DbError::Schema(format!("expected INT at column {idx}")))
}

/// [`text`] over a row decoded in place, borrowing from the page.
fn text_ref<'a>(row: &[ValueRef<'a>], idx: usize) -> DbResult<&'a str> {
    row.get(idx)
        .and_then(ValueRef::as_text)
        .ok_or_else(|| DbError::Schema(format!("expected TEXT at column {idx}")))
}

fn float(row: &Row, idx: usize) -> DbResult<f64> {
    row.get(idx)
        .and_then(Value::as_float)
        .ok_or_else(|| DbError::Schema(format!("expected FLOAT at column {idx}")))
}

/// Stable counting sort of `(position, item)` rows: the items grouped by
/// position, each group in input order, plus the group offsets
/// (`items[starts[p]..starts[p + 1]]` belong to position `p`).
fn group_by_position<T: Copy>(rows: &[(u32, T)], positions: usize) -> (Vec<usize>, Vec<T>) {
    let mut starts = vec![0usize; positions + 1];
    for &(p, _) in rows {
        starts[p as usize + 1] += 1;
    }
    for p in 0..positions {
        starts[p + 1] += starts[p];
    }
    let mut next = starts.clone();
    // Every slot is overwritten below; cloning the items just sizes the
    // vector without a `Default` bound.
    let mut items: Vec<T> = rows.iter().map(|&(_, item)| item).collect();
    for &(p, item) in rows {
        items[next[p as usize]] = item;
        next[p as usize] += 1;
    }
    (starts, items)
}

/// Decode `(attribute, purpose, vis, gran, ret)` starting at `base`.
fn decode_tuple_row(row: &Row, base: usize) -> DbResult<(String, PrivacyTuple)> {
    let attr = text(row, base)?;
    let purpose = text(row, base + 1)?;
    let point = PrivacyPoint::from_raw(
        int(row, base + 2)? as u32,
        int(row, base + 3)? as u32,
        int(row, base + 4)? as u32,
    );
    Ok((attr, PrivacyTuple::from_point(purpose.as_str(), point)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data_schema() -> Schema {
        SchemaBuilder::new()
            .column("provider_id", DataType::Int)
            .nullable_column("age", DataType::Int)
            .nullable_column("weight", DataType::Int)
            .build()
            .unwrap()
    }

    fn fresh() -> Ppdb {
        Ppdb::create(
            Database::in_memory(),
            PpdbConfig::new("people", "provider_id"),
            data_schema(),
        )
        .unwrap()
    }

    fn pt(v: u32, g: u32, r: u32) -> PrivacyPoint {
        PrivacyPoint::from_raw(v, g, r)
    }

    fn sample_profile(id: u64, threshold: u64) -> ProviderProfile {
        let mut p = ProviderProfile::new(ProviderId(id), threshold);
        p.preferences
            .add("weight", PrivacyTuple::from_point("pr", pt(7, 4, 7)));
        p.sensitivities
            .insert("weight".into(), DatumSensitivity::new(3, 1, 5, 2));
        p
    }

    fn data_row(id: u64) -> Row {
        Row::from_values([Value::Int(id as i64), Value::Int(30), Value::Int(70)])
    }

    #[test]
    fn create_validates_provider_column() {
        // Missing column.
        let err = Ppdb::create(
            Database::in_memory(),
            PpdbConfig::new("people", "nope"),
            data_schema(),
        );
        assert!(err.is_err());
        // Wrong type.
        let schema = SchemaBuilder::new()
            .column("provider_id", DataType::Text)
            .build()
            .unwrap();
        let err = Ppdb::create(
            Database::in_memory(),
            PpdbConfig::new("people", "provider_id"),
            schema,
        );
        assert!(err.is_err());
    }

    #[test]
    fn attributes_exclude_provider_column() {
        let ppdb = fresh();
        assert_eq!(ppdb.attributes().unwrap(), vec!["age", "weight"]);
    }

    #[test]
    fn policy_round_trips_through_storage() {
        let mut ppdb = fresh();
        let policy = HousePolicy::builder("people")
            .tuple("weight", PrivacyTuple::from_point("pr", pt(5, 5, 5)))
            .tuple("age", PrivacyTuple::from_point("ads", pt(3, 2, 365)))
            .build();
        ppdb.set_policy(&policy).unwrap();
        let back = ppdb.house_policy().unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(
            back.get("weight", &qpv_taxonomy::Purpose::new("pr"))
                .unwrap()
                .point,
            pt(5, 5, 5)
        );
        // Replacing overwrites.
        ppdb.set_policy(&HousePolicy::new("empty")).unwrap();
        assert!(ppdb.house_policy().unwrap().is_empty());
    }

    #[test]
    fn attribute_weights_with_quotes_replace_only_their_own_row() {
        let mut ppdb = fresh();
        ppdb.set_attribute_weight("age", 3).unwrap();
        ppdb.set_attribute_weight("weight", 4).unwrap();
        let hostile = "x' OR attribute <> 'y";
        for (name, w) in [("o'brien", 7), (hostile, 1), ("o'brien", 8), (hostile, 2)] {
            ppdb.set_attribute_weight(name, w).unwrap();
        }
        let weights = ppdb.attribute_weights().unwrap();
        assert_eq!(weights.get("age"), 3);
        assert_eq!(weights.get("weight"), 4);
        assert_eq!(weights.get("o'brien"), 8);
        assert_eq!(weights.get(hostile), 2);
        assert_eq!(
            ppdb.db_mut().scan(T_ATTR_SENS).unwrap().len(),
            4,
            "one row per name"
        );
    }

    #[test]
    fn provider_profile_round_trips() {
        let mut ppdb = fresh();
        let profile = sample_profile(42, 50);
        ppdb.register_provider(&profile, data_row(42)).unwrap();
        let back = ppdb.provider_profile(ProviderId(42)).unwrap();
        assert_eq!(back, profile);
        assert_eq!(ppdb.provider_ids().unwrap(), vec![ProviderId(42)]);
    }

    #[test]
    fn register_rejects_mismatched_provider_id() {
        let mut ppdb = fresh();
        let err = ppdb.register_provider(&sample_profile(42, 50), data_row(43));
        assert!(err.is_err());
        // The failed registration left nothing behind (txn rollback).
        assert!(ppdb.provider_ids().unwrap().is_empty());
        assert!(ppdb.db_mut().scan(T_THRESHOLDS).unwrap().is_empty());
    }

    #[test]
    fn remove_provider_clears_everything() {
        let mut ppdb = fresh();
        ppdb.register_provider(&sample_profile(1, 50), data_row(1))
            .unwrap();
        ppdb.register_provider(&sample_profile(2, 60), data_row(2))
            .unwrap();
        ppdb.remove_provider(ProviderId(1)).unwrap();
        assert_eq!(ppdb.provider_ids().unwrap(), vec![ProviderId(2)]);
        for t in [T_PREFS, T_SENS, T_THRESHOLDS] {
            for (_, row) in ppdb.db_mut().scan(t).unwrap() {
                assert_ne!(row.values[0], Value::Int(1), "stale row in {t}");
            }
        }
    }

    #[test]
    fn full_audit_reproduces_the_worked_example_from_storage() {
        let mut ppdb = fresh();
        let (v, g, r) = (5u32, 5u32, 5u32);
        ppdb.set_policy(
            &HousePolicy::builder("people")
                .tuple("weight", PrivacyTuple::from_point("pr", pt(v, g, r)))
                .build(),
        )
        .unwrap();
        ppdb.set_attribute_weight("weight", 4).unwrap();

        let mk = |id: u64, pref: PrivacyPoint, s: DatumSensitivity, thr: u64| {
            let mut p = ProviderProfile::new(ProviderId(id), thr);
            p.preferences
                .add("weight", PrivacyTuple::from_point("pr", pref));
            p.sensitivities.insert("weight".into(), s);
            p
        };
        ppdb.register_provider(
            &mk(
                0,
                pt(v + 2, g + 1, r + 3),
                DatumSensitivity::new(1, 1, 2, 1),
                10,
            ),
            data_row(0),
        )
        .unwrap();
        ppdb.register_provider(
            &mk(
                1,
                pt(v + 2, g - 1, r + 2),
                DatumSensitivity::new(3, 1, 5, 2),
                50,
            ),
            data_row(1),
        )
        .unwrap();
        ppdb.register_provider(
            &mk(
                2,
                pt(v, g - 1, r - 1),
                DatumSensitivity::new(4, 1, 3, 2),
                100,
            ),
            data_row(2),
        )
        .unwrap();

        let report = ppdb.audit().unwrap();
        let scores: Vec<u64> = report.providers.iter().map(|p| p.score).collect();
        assert_eq!(scores, vec![0, 60, 80]);
        assert!((report.p_default() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(report.total_violations, 140);
    }

    /// The scan-built population must audit byte-identically to compiling
    /// the materialized profiles — including a provider with no stated
    /// preferences at all.
    #[test]
    fn compiled_population_matches_the_profile_path() {
        let mut ppdb = fresh();
        ppdb.set_policy(
            &HousePolicy::builder("people")
                .tuple("weight", PrivacyTuple::from_point("pr", pt(5, 5, 5)))
                .tuple("age", PrivacyTuple::from_point("ads", pt(3, 2, 365)))
                .build(),
        )
        .unwrap();
        ppdb.set_attribute_weight("weight", 4).unwrap();
        ppdb.set_attribute_weight("age", 2).unwrap();
        for id in 0..9u64 {
            let mut p = ProviderProfile::new(ProviderId(id), 20 + id * 7);
            if id % 3 != 0 {
                p.preferences.add(
                    "weight",
                    PrivacyTuple::from_point("pr", pt(4 + (id % 4) as u32, 5, 6)),
                );
            }
            if id % 2 == 0 {
                p.preferences
                    .add("age", PrivacyTuple::from_point("pr", pt(2, 3, 60)));
                p.sensitivities
                    .insert("age".into(), DatumSensitivity::new(2, 1, 3, 1));
            }
            ppdb.register_provider(&p, data_row(id)).unwrap();
        }
        let engine = ppdb.audit_engine().unwrap();
        let pop = ppdb.compiled_population().unwrap();
        let profiles = ppdb.all_profiles().unwrap();
        let from_scan = engine.audit_compiled(&pop);
        let from_profiles =
            engine.audit_compiled(&crate::pop::CompiledPopulation::from_profiles(&profiles));
        assert_eq!(
            serde_json::to_string(&from_scan).unwrap(),
            serde_json::to_string(&from_profiles).unwrap()
        );
        // And both equal the string-path oracle.
        assert_eq!(from_scan, engine.run_reference(&profiles));
    }

    /// Write ops emit deltas; a live index fed via peek/ack tracks the
    /// store without ever rescanning it.
    #[test]
    fn live_index_tracks_store_through_deltas() {
        let mut ppdb = fresh();
        ppdb.set_policy(
            &HousePolicy::builder("people")
                .tuple("weight", PrivacyTuple::from_point("pr", pt(5, 5, 5)))
                .tuple("age", PrivacyTuple::from_point("ads", pt(3, 2, 365)))
                .build(),
        )
        .unwrap();
        ppdb.set_attribute_weight("weight", 4).unwrap();
        ppdb.set_attribute_weight("age", 2).unwrap();
        for id in 0..8u64 {
            let mut p = ProviderProfile::new(ProviderId(id), 20 + id * 9);
            p.preferences.add(
                "weight",
                PrivacyTuple::from_point("pr", pt(4 + (id % 4) as u32, 5, 6)),
            );
            if id % 2 == 0 {
                p.sensitivities
                    .insert("weight".into(), DatumSensitivity::new(2, 1, 3, 1));
            }
            ppdb.register_provider(&p, data_row(id)).unwrap();
        }

        // Snapshot the store into a live index; drain the registration
        // backlog so it isn't applied twice.
        let mut live = LiveViolationIndex::new(
            ppdb.audit_engine().unwrap(),
            ppdb.compiled_population().unwrap(),
        );
        let (seq, backlog) = ppdb.peek_delta_seq();
        ppdb.ack_delta_through(seq + backlog.len() as u64);

        // Every kind of write op, including no-ops on unknown providers.
        ppdb.insert_provider(&sample_profile(100, 35), data_row(100))
            .unwrap();
        ppdb.set_preferences(
            ProviderId(3),
            "age",
            vec![PrivacyTuple::from_point("ads", pt(2, 1, 400))],
        )
        .unwrap();
        ppdb.set_sensitivity(ProviderId(4), "age", DatumSensitivity::new(5, 2, 1, 3))
            .unwrap();
        ppdb.set_threshold(ProviderId(5), 1).unwrap();
        ppdb.set_threshold(ProviderId(999), 1).unwrap(); // unknown: no-op
        ppdb.remove_provider(ProviderId(2)).unwrap();

        let (seq, delta) = ppdb.peek_delta_seq();
        assert_eq!(delta.len(), 5, "unknown-provider op must not be recorded");
        live.apply_delta(&delta).unwrap();
        ppdb.ack_delta_through(seq + delta.len() as u64);
        assert!(ppdb.peek_delta_seq().1.is_empty());

        // The live index now agrees with a from-scratch audit of the
        // store (order-independent aggregates, then per-id scores).
        let report = ppdb.audit().unwrap();
        let outcome = live.outcome();
        assert_eq!(outcome.population, report.providers.len());
        assert_eq!(outcome.total_violations, report.total_violations);
        assert_eq!(outcome.p_violation(), report.p_violation());
        assert_eq!(outcome.p_default(), report.p_default());
        for pa in &report.providers {
            let i = live
                .compiled_population()
                .occurrence_of(pa.provider)
                .unwrap();
            assert_eq!(live.score(i), pa.score, "provider {:?}", pa.provider);
            assert_eq!(
                live.defaulted(i),
                pa.defaulted,
                "provider {:?}",
                pa.provider
            );
        }
    }

    /// Regression for the drain-then-apply bug: `take_delta()` used to
    /// drain the pending ops before the apply ran, so a failing
    /// `apply_delta` (here: a duplicate-occurrence population refusing
    /// deltas) lost committed edits forever. Under peek/ack a failed
    /// apply leaves the pending delta intact and replayable.
    #[test]
    fn failed_apply_leaves_delta_replayable() {
        let mut ppdb = fresh();
        ppdb.set_policy(
            &HousePolicy::builder("people")
                .tuple("weight", PrivacyTuple::from_point("pr", pt(5, 5, 5)))
                .build(),
        )
        .unwrap();
        ppdb.set_attribute_weight("weight", 4).unwrap();
        for id in 0..4u64 {
            ppdb.register_provider(&sample_profile(id, 10 + id), data_row(id))
                .unwrap();
        }
        let base = ppdb.all_profiles().unwrap();
        let engine = ppdb.audit_engine().unwrap();
        let (seq, backlog) = ppdb.peek_delta_seq();
        ppdb.ack_delta_through(seq + backlog.len() as u64);

        // Committed writes accumulate as pending ops.
        ppdb.set_threshold(ProviderId(1), 7).unwrap();
        ppdb.remove_provider(ProviderId(2)).unwrap();
        let (_, before) = ppdb.peek_delta_seq();
        assert_eq!(before.len(), 2);

        // An index over a duplicate-occurrence population refuses the
        // delta — and because nothing was acked, nothing is lost.
        let mut dup = base.clone();
        dup.push(base[0].clone());
        let mut broken =
            LiveViolationIndex::new(engine.clone(), CompiledPopulation::from_profiles(&dup));
        assert!(broken.apply_delta(&ppdb.peek_delta_seq().1).is_err());
        assert_eq!(
            ppdb.peek_delta_seq().1,
            before,
            "failed apply must leave the pending delta untouched"
        );

        // A healthy index replays the same ops; only then do we ack.
        let mut live = LiveViolationIndex::new(engine, CompiledPopulation::from_profiles(&base));
        let (seq, delta) = ppdb.peek_delta_seq();
        live.apply_delta(&delta).unwrap();
        ppdb.ack_delta_through(seq + delta.len() as u64);
        assert!(ppdb.peek_delta_seq().1.is_empty());

        let report = ppdb.audit().unwrap();
        let outcome = live.outcome();
        assert_eq!(outcome.population, report.providers.len());
        assert_eq!(outcome.total_violations, report.total_violations);
    }

    #[test]
    fn open_validates_table_presence() {
        let db = Database::in_memory();
        assert!(Ppdb::open(db, PpdbConfig::new("people", "provider_id")).is_err());
        let ppdb = fresh();
        let db = ppdb.db; // take the database back
        assert!(Ppdb::open(db, PpdbConfig::new("people", "provider_id")).is_ok());
    }

    #[test]
    fn audit_history_accumulates_and_survives_policy_changes() {
        let mut ppdb = fresh();
        ppdb.set_attribute_weight("weight", 4).unwrap();
        ppdb.register_provider(&sample_profile(1, 50), data_row(1))
            .unwrap();
        ppdb.set_policy(
            &HousePolicy::builder("v1")
                .tuple("weight", PrivacyTuple::from_point("pr", pt(2, 2, 2)))
                .build(),
        )
        .unwrap();
        let (_, e1) = ppdb.record_audit("v1").unwrap();
        assert_eq!(e1.seq, 0);
        assert_eq!(e1.population, 1);
        assert_eq!(e1.violated, 0, "prefs (7,4,7) bound policy (2,2,2)");

        // Widen beyond the stated preference and re-audit.
        ppdb.set_policy(
            &HousePolicy::builder("v2")
                .tuple("weight", PrivacyTuple::from_point("pr", pt(9, 9, 9)))
                .build(),
        )
        .unwrap();
        let (_, e2) = ppdb.record_audit("v2").unwrap();
        assert_eq!(e2.seq, 1);
        assert_eq!(e2.violated, 1);
        assert!(e2.total_violations > 0);

        let history = ppdb.audit_history().unwrap();
        assert_eq!(history.len(), 2);
        assert_eq!(history[0], e1);
        assert_eq!(history[1], e2);
        assert!(history[1].p_violation > history[0].p_violation);
        // History is plain SQL too.
        let rs = ppdb
            .db_mut()
            .query("SELECT label FROM _qpv_audit_log ORDER BY seq")
            .unwrap();
        assert_eq!(rs.rows[1].values[0], Value::Text("v2".into()));
    }

    #[test]
    fn certify_alpha_records_and_judges() {
        let mut ppdb = fresh();
        ppdb.register_provider(&sample_profile(1, 50), data_row(1))
            .unwrap();
        ppdb.set_policy(
            &HousePolicy::builder("v1")
                .tuple("weight", PrivacyTuple::from_point("pr", pt(9, 9, 9)))
                .build(),
        )
        .unwrap();
        // One of one providers violated: P(W) = 1.
        assert!(!ppdb.certify_alpha(0.5, "check-1").unwrap());
        assert!(ppdb.certify_alpha(1.0, "check-2").unwrap());
        assert_eq!(ppdb.audit_history().unwrap().len(), 2);
    }

    /// Raw writes through `db_mut` move no delta seq, so both query paths
    /// must still see them: here provider 0 stops violating.
    #[test]
    fn raw_writes_through_db_mut_invalidate_both_query_caches() {
        let mut ppdb = fresh();
        ppdb.set_policy(
            &HousePolicy::builder("people")
                .tuple("weight", PrivacyTuple::from_point("pr", pt(5, 5, 5)))
                .build(),
        )
        .unwrap();
        for id in 0..4 {
            ppdb.register_provider(&sample_profile(id, 50), data_row(id))
                .unwrap();
        }
        let sql = "SELECT provider FROM _qpv_violations";
        assert_eq!(ppdb.query_violations(sql).unwrap().rows.len(), 4);
        assert_eq!(ppdb.query_live(sql).unwrap().rows.len(), 4);

        let db = ppdb.db_mut();
        db.execute("DELETE FROM _qpv_prefs WHERE provider = 0")
            .unwrap();
        db.execute("INSERT INTO _qpv_prefs VALUES (0, 'weight', 'pr', 9, 9, 9)")
            .unwrap();

        let witnesses: usize = ppdb
            .audit()
            .unwrap()
            .providers
            .iter()
            .map(|p| p.witnesses.len())
            .sum();
        assert_eq!(witnesses, 3);
        assert_eq!(ppdb.query_violations(sql).unwrap().rows.len(), 3);
        assert_eq!(ppdb.query_live(sql).unwrap().rows.len(), 3);
    }

    #[test]
    fn metadata_is_queryable_as_sql() {
        let mut ppdb = fresh();
        ppdb.register_provider(&sample_profile(7, 50), data_row(7))
            .unwrap();
        let rs = ppdb
            .db_mut()
            .query("SELECT COUNT(*) FROM _qpv_prefs WHERE provider = 7")
            .unwrap();
        assert_eq!(rs.rows[0].values[0], Value::Int(1));
    }

    #[test]
    fn metadata_joins_across_companion_tables() {
        let mut ppdb = fresh();
        ppdb.register_provider(&sample_profile(1, 50), data_row(1))
            .unwrap();
        ppdb.register_provider(&sample_profile(2, 200), data_row(2))
            .unwrap();
        // "Which providers consented to purpose 'pr' and what are their
        // thresholds?" — one SQL join over the privacy metadata.
        let rs = ppdb
            .db_mut()
            .query(
                "SELECT p.provider, t.threshold FROM _qpv_prefs p \
                 JOIN _qpv_thresholds t ON p.provider = t.provider \
                 WHERE p.purpose = 'pr' ORDER BY p.provider",
            )
            .unwrap();
        assert_eq!(rs.len(), 2);
        assert_eq!(rs.rows[0].values, vec![Value::Int(1), Value::Int(50)]);
        assert_eq!(rs.rows[1].values, vec![Value::Int(2), Value::Int(200)]);
    }

    /// A consumer that stalls leaves a long un-acked backlog behind; once
    /// it wakes it drains the backlog in one peek/apply/ack, and the seqs
    /// are gapless across the stall.
    #[test]
    fn stalled_consumer_backlog_drains_with_gapless_seqs() {
        let mut ppdb = fresh();
        // Consumer is stalled: nobody acks.
        for id in 1..=40 {
            ppdb.register_provider(&sample_profile(id, 100), data_row(id))
                .unwrap();
        }
        for id in 1..=40 {
            ppdb.set_threshold(ProviderId(id), 7).unwrap();
        }
        assert_eq!(ppdb.delta_backlog_len(), 80);

        // Consumer wakes up, applies, acks.
        let (first_seq, delta) = ppdb.peek_delta_seq();
        assert_eq!((first_seq, delta.len()), (0, 80));
        let engine = AuditEngine::new(
            HousePolicy::new("people"),
            ppdb.attributes().unwrap(),
            AttributeSensitivities::new(),
        );
        let mut live = LiveViolationIndex::new(engine, CompiledPopulation::from_profiles(&[]));
        live.apply_delta(&delta).unwrap();
        ppdb.ack_delta_through(first_seq + delta.len() as u64);
        assert_eq!(ppdb.delta_backlog_len(), 0);

        ppdb.register_provider(&sample_profile(41, 100), data_row(41))
            .unwrap();
        let (seq, resumed) = ppdb.peek_delta_seq();
        assert_eq!(seq, 80, "seqs continue across the stall with no gap");
        live.apply_delta(&resumed).unwrap();
        assert_eq!(live.outcome().population, 41);
    }

    /// A write whose storage transaction fails after `begin` rolls back
    /// and pushes no delta: the store and the seq counter are as they
    /// were, and the next successful write takes the next dense seq.
    #[test]
    fn failed_write_pushes_no_delta() {
        let mut ppdb = fresh();
        ppdb.register_provider(&sample_profile(1, 100), data_row(1))
            .unwrap();
        let before = ppdb.delta_queue().next_seq();

        // The right provider id but one column short: the id check passes,
        // then the data-row insert inside the transaction fails.
        let short = Row::from_values([Value::Int(2), Value::Int(30)]);
        let err = ppdb
            .register_provider(&sample_profile(2, 100), short)
            .unwrap_err();
        assert!(matches!(err, DbError::Schema(_)), "got {err:?}");
        assert_eq!(ppdb.delta_queue().next_seq(), before);
        assert_eq!(ppdb.delta_backlog_len(), 1);
        assert_eq!(ppdb.provider_ids().unwrap(), vec![ProviderId(1)]);
        for t in [T_PREFS, T_SENS, T_THRESHOLDS] {
            assert_eq!(ppdb.db_mut().scan(t).unwrap().len(), 1, "{t} rolled back");
        }

        ppdb.register_provider(&sample_profile(2, 100), data_row(2))
            .unwrap();
        let (first_seq, ops) = ppdb.peek_delta_seq();
        assert_eq!((first_seq, ops.len() as u64), (0, before + 1));
        assert!(
            matches!(&ops.ops()[before as usize], DeltaOp::Upsert(p) if p.id() == ProviderId(2))
        );
    }

    /// Seq-tagged acks are idempotent and absolute: a consumer that
    /// crashed after applying but before acking re-acks the same seq
    /// range and nothing is lost or double-applied, even with writes
    /// racing in between.
    #[test]
    fn ack_through_is_idempotent_under_interleaved_writes() {
        let mut ppdb = fresh();
        ppdb.register_provider(&sample_profile(1, 100), data_row(1))
            .unwrap();
        ppdb.register_provider(&sample_profile(2, 100), data_row(2))
            .unwrap();
        let backlog = ppdb.delta_backlog_len();

        let (base, first) = ppdb.peek_delta_seq();
        // Writer races a new op in after the peek.
        ppdb.set_threshold(ProviderId(1), 9).unwrap();

        // Consumer applied `first` then crashed pre-ack; recovery re-acks
        // the absolute range — twice, to prove idempotence.
        let applied_through = base + first.len() as u64;
        ppdb.ack_delta_through(applied_through);
        ppdb.ack_delta_through(applied_through);
        // Only the racing op is still pending, under its original seq.
        let (seq, rest) = ppdb.peek_delta_seq();
        assert_eq!(seq, base + backlog as u64);
        assert_eq!(rest.len(), 1);
        assert!(matches!(
            rest.ops()[0],
            DeltaOp::SetThreshold {
                id: ProviderId(1),
                threshold: 9
            }
        ));
        // Acking a stale (already-acked) boundary is a no-op.
        ppdb.ack_delta_through(base);
        assert_eq!(ppdb.delta_backlog_len(), 1);
    }

    /// [`Ppdb::delta_queue`] reads the queue the writer pushes to: its
    /// `next_seq` counts every op pushed, acked or not.
    #[test]
    fn delta_queue_next_seq_counts_every_pushed_op() {
        let mut ppdb = fresh();
        ppdb.register_provider(&sample_profile(1, 100), data_row(1))
            .unwrap();
        ppdb.set_threshold(ProviderId(1), 9).unwrap();
        let queue = ppdb.delta_queue();
        assert_eq!(
            (queue.first_seq(), queue.next_seq(), queue.len()),
            (0, 2, 2)
        );
        let (base, ops) = queue.peek();
        ppdb.ack_delta_through(base + ops.len() as u64);
        assert!(ppdb.delta_queue().is_empty());
        assert_eq!(ppdb.delta_queue().next_seq(), 2);
    }
}
