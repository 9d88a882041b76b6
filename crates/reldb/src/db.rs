//! The [`Database`] facade: catalog + buffer pool + WAL + indexes + SQL.
//!
//! ## Durability model
//!
//! On disk, every checkpoint is a numbered *generation* published through a
//! `CURRENT` pointer file (the LevelDB `CURRENT`/`MANIFEST` pattern):
//!
//! * `CURRENT` — ASCII generation number `G` of the live checkpoint;
//! * `pages.<G>.snap` + `catalog.<G>.snap` — generation `G`'s snapshot;
//! * `wal.<G>.log` — every committed mutation since that snapshot;
//! * `pages.db` — the *working* page file the buffer pool reads and
//!   writes, rebuilt from the snapshot on every open (scratch state).
//!
//! [`Database::open`] reads `CURRENT` (0 if absent), restores that
//! generation's snapshot into the working file, and replays its WAL's
//! committed transactions through the ordinary heap and catalog code paths.
//! Secondary indexes are not persisted: open rebuilds them from the heaps,
//! one walk per table that decodes each record in place and collects the
//! keys of all the table's indexes, which are then sorted and bulk-loaded
//! bottom-up ([`BTreeIndex::from_sorted`]).
//!
//! [`Database::checkpoint`] flushes all pages, durably writes generation
//! `G+1`'s snapshot and a fresh empty WAL under their *new* names, and only
//! then atomically swings `CURRENT` (write `CURRENT.tmp`, rename, fsync
//! dir). A crash anywhere before the swing leaves generation `G` — snapshot
//! *and* WAL — fully intact; a crash after it leaves generation `G+1` with
//! an empty log. There is no window in which a new snapshot can be paired
//! with the old WAL (which would double-apply on recovery). Old-generation
//! files are deleted only after the swing, as best-effort garbage
//! collection.
//!
//! Checkpoints also run on their own, so reopening replays only the log's
//! tail, not the store's whole history. As each write transaction starts
//! (an explicit `BEGIN` or an autocommit statement), and never while one
//! is open, the database checkpoints first if the durable log
//! holds at least `max(1 MiB, page-file bytes)`. The check reads a byte
//! count the WAL keeps as it writes, so it costs no syscall. If that
//! checkpoint fails, the write fails before touching anything. Because
//! the bound grows with the page file, each checkpoint copies at most as
//! many bytes as the log it retires: at most one copied byte per logged
//! byte, and on a growing store (where the log grows about as fast as
//! the page file) copies that add up to about twice the final page file.
//!
//! In-memory databases ([`Database::in_memory`]) run the identical
//! machinery over volatile backends. [`Database::open_with_faults`] routes
//! every page and WAL I/O op through a [`crate::fault::FaultInjector`],
//! which is how the crash-torture suite exercises all of the above.

use std::collections::HashMap;
use std::ops::Bound;
use std::path::{Path, PathBuf};

use crate::audit_bridge::{AuditBridge, ViolationStats};
use crate::btree::{BTreeIndex, IndexKey};
use crate::buffer::BufferPool;
use crate::catalog::{Catalog, IndexId, TableId};
use crate::disk::{sync_dir, FileStore, MemStore, PageStore};
use crate::encoding::{decode_row, decode_row_ref, encode_row, ValueRef};
use crate::error::{DbError, DbResult};
use crate::exec::{execute, ExecContext, Plan, ResultSet};
use crate::fault::{retry_transient, FaultInjector, FaultStore, RetryPolicy};
use crate::heap::TableHeap;
use crate::page::PAGE_SIZE;
use crate::row::{Row, RowId};
use crate::schema::Schema;
use crate::sql::ast::Statement;
use crate::sql::{bind_delete, bind_insert, bind_select, bind_select_with, bind_update, parse};
use crate::txn::{TxnManager, UndoOp};
use crate::value::Value;
use crate::wal::{Wal, WalRecord};

/// Durable log bytes below which no automatic checkpoint runs, however
/// small the page file (see [`Database::checkpoint_if_due`]).
const CHECKPOINT_FLOOR: u64 = 1 << 20;

/// A relational database instance.
pub struct Database {
    pool: BufferPool,
    catalog: Catalog,
    indexes: HashMap<IndexId, BTreeIndex>,
    wal: Wal,
    txn: TxnManager,
    dir: Option<PathBuf>,
    /// Live checkpoint generation (what `CURRENT` points at; in memory,
    /// the number of checkpoints run).
    generation: u64,
    /// Failpoints threaded through every page/WAL op when fault-injecting.
    faults: Option<FaultInjector>,
    /// Bounded-retry policy for transient faults on the durable write path.
    retry: RetryPolicy,
    /// Violation-model statistics registered by the audit layer (see
    /// [`Database::set_violation_stats`]); drives the binder's
    /// `_qpv_violations` access-path choice. Deliberately not persisted:
    /// the audit layer re-registers fresh statistics whenever it builds
    /// a bridge.
    violation_stats: Option<ViolationStats>,
}

/// Path of the `CURRENT` generation pointer file.
pub fn current_path(dir: &Path) -> PathBuf {
    dir.join("CURRENT")
}

/// Path of generation `generation`'s page snapshot.
pub fn pages_snap_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("pages.{generation}.snap"))
}

/// Path of generation `generation`'s catalog snapshot.
pub fn catalog_snap_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("catalog.{generation}.snap"))
}

/// Path of generation `generation`'s write-ahead log.
pub fn wal_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("wal.{generation}.log"))
}

/// Read the live generation from `CURRENT` (0 when the file is absent —
/// a freshly created database).
pub fn read_current(dir: &Path) -> DbResult<u64> {
    let path = current_path(dir);
    if !path.exists() {
        return Ok(0);
    }
    let text = std::fs::read_to_string(&path)?;
    text.trim()
        .parse::<u64>()
        .map_err(|_| DbError::Corruption(format!("CURRENT holds {:?}, not a generation", text)))
}

/// Fsync an already-written file by path.
fn fsync_file(path: &Path) -> DbResult<()> {
    std::fs::File::open(path)?.sync_all()?;
    Ok(())
}

/// Atomically point `CURRENT` at `generation`: write `CURRENT.tmp`, fsync
/// it, rename over `CURRENT`, fsync the directory.
fn publish_current(dir: &Path, generation: u64) -> DbResult<()> {
    let tmp = dir.join("CURRENT.tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        use std::io::Write as _;
        f.write_all(generation.to_string().as_bytes())?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, current_path(dir))?;
    sync_dir(current_path(dir))
}

/// What a non-query statement did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecOutcome {
    /// Rows inserted, updated, or deleted (0 for DDL and txn control).
    pub rows_affected: usize,
}

impl Database {
    /// A volatile database: same engine, memory-backed pages and WAL.
    pub fn in_memory() -> Database {
        Database {
            pool: BufferPool::new(Box::new(MemStore::new()), BufferPool::DEFAULT_CAPACITY),
            catalog: Catalog::new(),
            indexes: HashMap::new(),
            wal: Wal::in_memory(),
            txn: TxnManager::new(),
            dir: None,
            generation: 0,
            faults: None,
            retry: RetryPolicy::none(),
            violation_stats: None,
        }
    }

    /// Open (creating if necessary) a durable database in `dir`, running
    /// crash recovery: restore the last checkpoint snapshot, then replay the
    /// WAL's committed transactions.
    pub fn open(dir: impl AsRef<Path>) -> DbResult<Database> {
        Database::open_with_faults(dir, None)
    }

    /// [`Database::open`] with every page and WAL I/O op routed through
    /// `faults`' failpoints (including the recovery reads this open itself
    /// performs). The injector's op counter therefore indexes a
    /// deterministic stream across the whole database lifetime.
    pub fn open_with_faults(
        dir: impl AsRef<Path>,
        faults: Option<FaultInjector>,
    ) -> DbResult<Database> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let generation = read_current(&dir)?;
        let pages_path = dir.join("pages.db");
        let snap_path = pages_snap_path(&dir, generation);
        let catalog_path = catalog_snap_path(&dir, generation);

        // Working file starts as a copy of the snapshot (or empty).
        if snap_path.exists() {
            std::fs::copy(&snap_path, &pages_path)?;
        } else {
            let _ = std::fs::remove_file(&pages_path);
        }
        let catalog = if catalog_path.exists() {
            Catalog::decode(&std::fs::read(&catalog_path)?)?
        } else {
            Catalog::new()
        };
        let store: Box<dyn PageStore> = match &faults {
            Some(injector) => Box::new(FaultStore::new(
                Box::new(FileStore::open(&pages_path)?),
                injector.clone(),
            )),
            None => Box::new(FileStore::open(&pages_path)?),
        };
        let mut db = Database {
            pool: BufferPool::new(store, BufferPool::DEFAULT_CAPACITY),
            catalog,
            indexes: HashMap::new(),
            wal: Wal::open_with(wal_path(&dir, generation), faults.clone())?,
            txn: TxnManager::new(),
            dir: Some(dir),
            generation,
            faults,
            retry: RetryPolicy::none(),
            violation_stats: None,
        };
        db.recover()?;
        let tables: Vec<TableId> = db.catalog.tables().iter().map(|t| t.id).collect();
        for table in tables {
            db.rebuild_indexes(table)?;
        }
        if db.indexes.len() != db.catalog.indexes().len() {
            return Err(DbError::Catalog("index references dropped table".into()));
        }
        Ok(db)
    }

    /// Set the bounded-retry policy applied to transient faults on the
    /// durable path: WAL syncs, and every page read/write/sync through the
    /// buffer pool (all idempotent, so retrying is always safe).
    pub fn set_retry_policy(&mut self, retry: RetryPolicy) {
        self.retry = retry;
        self.pool.set_retry_policy(retry);
    }

    /// The live checkpoint generation: what `CURRENT` points at, or, in
    /// memory, how many checkpoints have run.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Apply the WAL's committed transactions on top of the snapshot state.
    fn recover(&mut self) -> DbResult<()> {
        let records = self.wal.replay()?;
        // Pass 1: which transactions committed?
        let committed: std::collections::HashSet<u64> = records
            .iter()
            .filter_map(|r| match r {
                WalRecord::Commit { txn } => Some(*txn),
                _ => None,
            })
            .collect();
        // Pass 2: apply DDL and committed DML in log order. Row ids logged
        // at runtime may land elsewhere on replay; `remap` tracks them.
        let mut remap: HashMap<(u32, RowId), RowId> = HashMap::new();
        for record in records {
            match record {
                WalRecord::CreateTable { name, schema } => {
                    let heap = TableHeap::create(&mut self.pool)?;
                    self.catalog.create_table(name, schema, heap)?;
                }
                WalRecord::CreateIndex {
                    name,
                    table,
                    columns,
                } => {
                    let id = self.catalog.require_table(&table)?.id;
                    self.catalog.create_index(
                        name,
                        id,
                        columns.iter().map(|c| *c as usize).collect(),
                    )?;
                }
                WalRecord::DropTable { name } => {
                    // Collect index ids *before* the catalog drop removes
                    // their metadata — afterwards `indexes_for` finds
                    // nothing and the btrees would leak under dead ids.
                    let table_id = self.catalog.require_table(&name)?.id;
                    let dropped: Vec<IndexId> =
                        self.catalog.indexes_for(table_id).map(|i| i.id).collect();
                    self.catalog.drop_table(&name)?;
                    for id in dropped {
                        self.indexes.remove(&id);
                    }
                }
                WalRecord::DropIndex { name } => {
                    let meta = self.catalog.drop_index(&name)?;
                    self.indexes.remove(&meta.id);
                }
                WalRecord::Insert {
                    txn,
                    table,
                    rid,
                    bytes,
                } if committed.contains(&txn) => {
                    let actual = self.heap_insert_raw(TableId(table), &bytes)?;
                    remap.insert((table, rid), actual);
                }
                WalRecord::Delete { txn, table, rid } if committed.contains(&txn) => {
                    let actual = remap.get(&(table, rid)).copied().unwrap_or(rid);
                    self.heap_delete_raw(TableId(table), actual)?;
                }
                WalRecord::Update {
                    txn,
                    table,
                    rid,
                    bytes,
                } if committed.contains(&txn) => {
                    let actual = remap.get(&(table, rid)).copied().unwrap_or(rid);
                    let new_rid = self.heap_update_raw(TableId(table), actual, &bytes)?;
                    remap.insert((table, rid), new_rid);
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Build every secondary index of `table` from its heap, replacing
    /// the trees it had: one walk decodes each record in place
    /// ([`decode_row_ref`]) and collects every index's `(key, rid)`
    /// entries, which are then sorted and bulk-loaded
    /// ([`BTreeIndex::from_sorted`]). A record narrower than an indexed
    /// column is corruption, not a panic: the rows come straight off disk.
    fn rebuild_indexes(&mut self, table: TableId) -> DbResult<()> {
        let metas: Vec<(IndexId, Vec<usize>)> = self
            .catalog
            .indexes_for(table)
            .map(|m| (m.id, m.columns.clone()))
            .collect();
        if metas.is_empty() {
            return Ok(());
        }
        let heap = self
            .catalog
            .table_by_id(table)
            .ok_or_else(|| DbError::Catalog("unknown table id".into()))?
            .heap;
        let mut entries: Vec<Vec<(IndexKey, RowId)>> = vec![Vec::new(); metas.len()];
        let mut spare: Vec<ValueRef<'static>> = Vec::new();
        heap.for_each(&mut self.pool, |rid, bytes| {
            let mut values = recycle(std::mem::take(&mut spare));
            decode_row_ref(bytes, &mut values)?;
            for ((_, columns), out) in metas.iter().zip(&mut entries) {
                let key = columns
                    .iter()
                    .map(|&c| {
                        values.get(c).map(|&v| Value::from(v)).ok_or_else(|| {
                            DbError::Corruption("row narrower than index column".into())
                        })
                    })
                    .collect::<DbResult<IndexKey>>()?;
                out.push((key, rid));
            }
            spare = recycle(values);
            Ok(())
        })?;
        for ((id, _), mut entries) in metas.into_iter().zip(entries) {
            entries.sort_unstable();
            self.indexes.insert(id, BTreeIndex::from_sorted(entries));
        }
        Ok(())
    }

    /// Flush pages and publish the next checkpoint generation.
    ///
    /// The snapshot and a fresh empty WAL are fully written under
    /// generation `G+1`'s names *before* `CURRENT` is atomically swung, so
    /// a crash at any injectable failpoint leaves either generation `G`
    /// (snapshot + WAL intact) or generation `G+1` (snapshot + empty WAL)
    /// — never a new snapshot paired with the old log.
    pub fn checkpoint(&mut self) -> DbResult<()> {
        self.pool.flush_all()?; // per-op transient retry inside the pool
        let Some(dir) = self.dir.clone() else {
            self.wal.truncate()?; // truncate preserves the LSN clock
            self.generation += 1;
            return Ok(());
        };
        let next = self.generation + 1;
        // 1. Write generation G+1's snapshot durably under its new names.
        //    (`copy` + explicit fsync: rename-based publish is unnecessary
        //    because nothing reads these names until CURRENT says so.)
        std::fs::copy(dir.join("pages.db"), pages_snap_path(&dir, next))?;
        fsync_file(&pages_snap_path(&dir, next))?;
        std::fs::write(catalog_snap_path(&dir, next), self.catalog.encode())?;
        fsync_file(&catalog_snap_path(&dir, next))?;
        // 2. Create G+1's empty WAL; truncate defensively in case a crashed
        //    earlier checkpoint attempt left bytes under this name.
        let mut new_wal = Wal::open_with(wal_path(&dir, next), self.faults.clone())?;
        retry_transient(self.retry, || new_wal.truncate())?;
        sync_dir(wal_path(&dir, next))?;
        // 3. Atomically swing CURRENT. This is the commit point.
        publish_current(&dir, next)?;
        // 4. Generation G is now garbage; delete best-effort.
        new_wal.inherit_lsn(self.wal.end_lsn());
        self.wal = new_wal;
        let prev = self.generation;
        self.generation = next;
        let _ = std::fs::remove_file(pages_snap_path(&dir, prev));
        let _ = std::fs::remove_file(catalog_snap_path(&dir, prev));
        let _ = std::fs::remove_file(wal_path(&dir, prev));
        Ok(())
    }

    // ------------------------------------------------------------------
    // SQL entry points
    // ------------------------------------------------------------------

    /// Run a statement. `SELECT`s are allowed (their rows are counted and
    /// discarded); use [`Database::query`] to get results back.
    pub fn execute(&mut self, sql: &str) -> DbResult<ExecOutcome> {
        match parse(sql)? {
            Statement::Select(sel) => {
                let plan = bind_select(&sel, &self.catalog)?;
                let rs = self.run_plan(&plan)?;
                Ok(ExecOutcome {
                    rows_affected: rs.len(),
                })
            }
            Statement::CreateTable { name, columns } => {
                let schema = Schema::new(
                    columns
                        .into_iter()
                        .map(|c| crate::schema::Column {
                            name: c.name,
                            dtype: c.dtype,
                            nullable: c.nullable,
                        })
                        .collect(),
                )?;
                self.create_table(&name, schema)?;
                Ok(ExecOutcome { rows_affected: 0 })
            }
            Statement::CreateIndex {
                name,
                table,
                columns,
            } => {
                let cols: Vec<&str> = columns.iter().map(String::as_str).collect();
                self.create_index(&name, &table, &cols)?;
                Ok(ExecOutcome { rows_affected: 0 })
            }
            Statement::DropTable { name } => {
                self.drop_table(&name)?;
                Ok(ExecOutcome { rows_affected: 0 })
            }
            Statement::DropIndex { name } => {
                self.drop_index(&name)?;
                Ok(ExecOutcome { rows_affected: 0 })
            }
            Statement::Insert {
                table,
                columns,
                rows,
            } => {
                let bound = bind_insert(&table, columns.as_deref(), &rows, &self.catalog)?;
                let n = bound.rows.len();
                self.with_statement_txn(|db, txn_id| {
                    for row in &bound.rows {
                        db.do_insert(txn_id, bound.table, row)?;
                    }
                    Ok(())
                })?;
                Ok(ExecOutcome { rows_affected: n })
            }
            Statement::Update {
                table,
                sets,
                predicate,
            } => {
                let bound = bind_update(&table, &sets, predicate.as_ref(), &self.catalog)?;
                let targets = self.matching_rows(bound.table, bound.predicate.as_ref())?;
                let meta = self
                    .catalog
                    .table_by_id(bound.table)
                    .expect("bound table exists");
                let schema = meta.schema.clone();
                // Compute all replacement rows up front so a mid-statement
                // type error cannot leave a half-applied autocommit UPDATE.
                let mut planned = Vec::with_capacity(targets.len());
                for (rid, row) in targets {
                    let mut new_row = row.clone();
                    for (idx, expr) in &bound.sets {
                        new_row.values[*idx] = expr.eval(&row)?;
                    }
                    planned.push((rid, schema.check_row(new_row)?));
                }
                let n = planned.len();
                self.with_statement_txn(|db, txn_id| {
                    for (rid, new_row) in &planned {
                        db.do_update(txn_id, bound.table, *rid, new_row)?;
                    }
                    Ok(())
                })?;
                Ok(ExecOutcome { rows_affected: n })
            }
            Statement::Delete { table, predicate } => {
                let bound = bind_delete(&table, predicate.as_ref(), &self.catalog)?;
                let targets = self.matching_rows(bound.table, bound.predicate.as_ref())?;
                let n = targets.len();
                self.with_statement_txn(|db, txn_id| {
                    for (rid, _) in &targets {
                        db.do_delete(txn_id, bound.table, *rid)?;
                    }
                    Ok(())
                })?;
                Ok(ExecOutcome { rows_affected: n })
            }
            Statement::Begin => self.begin().map(|_| ExecOutcome { rows_affected: 0 }),
            Statement::Commit => self.commit().map(|_| ExecOutcome { rows_affected: 0 }),
            Statement::Rollback => self.rollback().map(|_| ExecOutcome { rows_affected: 0 }),
        }
    }

    /// Run a `SELECT` and return its rows.
    pub fn query(&mut self, sql: &str) -> DbResult<ResultSet> {
        match parse(sql)? {
            Statement::Select(sel) => {
                let plan = bind_select(&sel, &self.catalog)?;
                self.run_plan(&plan)
            }
            other => Err(DbError::SqlBind(format!(
                "query() expects SELECT, got {other:?}"
            ))),
        }
    }

    /// Run a `SELECT` with an audit bridge attached, so `VIOLATES(...)`
    /// predicates and `_qpv_violations` scans can reach the violation
    /// model (see [`crate::audit_bridge::AuditBridge`]).
    pub fn query_with(&mut self, sql: &str, audit: &dyn AuditBridge) -> DbResult<ResultSet> {
        match parse(sql)? {
            Statement::Select(sel) => {
                let plan = bind_select_with(&sel, &self.catalog, self.violation_stats.as_ref())?;
                self.run_plan_with(&plan, Some(audit))
            }
            other => Err(DbError::SqlBind(format!(
                "query_with() expects SELECT, got {other:?}"
            ))),
        }
    }

    /// Parse and bind a `SELECT`, returning the chosen plan rendered as an
    /// indented operator tree — access path included — without executing
    /// it. Tests assert on this text, so the one-line-per-operator shape
    /// is part of the interface.
    pub fn explain(&mut self, sql: &str) -> DbResult<String> {
        match parse(sql)? {
            Statement::Select(sel) => {
                let plan = bind_select_with(&sel, &self.catalog, self.violation_stats.as_ref())?;
                let mut out = String::new();
                explain_plan(&plan, &self.catalog, 0, &mut out);
                Ok(out)
            }
            other => Err(DbError::SqlBind(format!(
                "explain() expects SELECT, got {other:?}"
            ))),
        }
    }

    /// Register (or clear) violation-model statistics for the planner.
    /// The audit layer calls this whenever it builds or refreshes a
    /// bridge; subsequent [`Database::query_with`] / [`Database::explain`]
    /// calls price `_qpv_violations` access paths against these numbers
    /// instead of the executor's static heuristic.
    pub fn set_violation_stats(&mut self, stats: Option<ViolationStats>) {
        self.violation_stats = stats;
    }

    /// The currently registered violation-model statistics, if any.
    pub fn violation_stats(&self) -> Option<&ViolationStats> {
        self.violation_stats.as_ref()
    }

    /// Execute an already-bound plan (used by the privacy layer, which
    /// builds plans programmatically).
    pub fn run_plan(&mut self, plan: &Plan) -> DbResult<ResultSet> {
        self.run_plan_with(plan, None)
    }

    /// [`Database::run_plan`] with an optional audit bridge for plans
    /// that touch the violation model.
    pub fn run_plan_with(
        &mut self,
        plan: &Plan,
        audit: Option<&dyn AuditBridge>,
    ) -> DbResult<ResultSet> {
        let mut ctx = ExecContext {
            catalog: &self.catalog,
            pool: &mut self.pool,
            indexes: &self.indexes,
            audit,
        };
        execute(plan, &mut ctx)
    }

    // ------------------------------------------------------------------
    // Typed API (no SQL) — what the privacy layer builds on
    // ------------------------------------------------------------------

    /// Create a table, returning its id.
    pub fn create_table(&mut self, name: &str, schema: Schema) -> DbResult<TableId> {
        let heap = TableHeap::create(&mut self.pool)?;
        let id = self.catalog.create_table(name, schema.clone(), heap)?;
        self.wal.append(&WalRecord::CreateTable {
            name: name.to_string(),
            schema,
        });
        self.sync_wal()?;
        Ok(id)
    }

    /// Create a (possibly composite) index over the named columns, in key
    /// order, building it from existing rows.
    pub fn create_index(&mut self, name: &str, table: &str, columns: &[&str]) -> DbResult<IndexId> {
        let meta = self.catalog.require_table(table)?;
        let table_id = meta.id;
        let mut col_idxs = Vec::with_capacity(columns.len());
        for column in columns {
            col_idxs.push(meta.schema.require(column)?);
        }
        let id = self
            .catalog
            .create_index(name, table_id, col_idxs.clone())?;
        // Build from current contents (the table's other indexes are
        // re-packed in the same heap walk).
        self.rebuild_indexes(table_id)?;
        self.wal.append(&WalRecord::CreateIndex {
            name: name.to_string(),
            table: table.to_string(),
            columns: col_idxs.iter().map(|c| *c as u32).collect(),
        });
        self.sync_wal()?;
        Ok(id)
    }

    /// Drop a table and its indexes. (Heap pages are not reclaimed; space
    /// reuse across drops is future work, as in many small engines.)
    pub fn drop_table(&mut self, name: &str) -> DbResult<()> {
        // Collect index ids *before* the catalog drop removes their
        // metadata — afterwards `indexes_for` finds nothing, and the live
        // btrees would stay in `self.indexes` under dead ids forever.
        let table_id = self.catalog.require_table(name)?.id;
        let dropped: Vec<IndexId> = self.catalog.indexes_for(table_id).map(|i| i.id).collect();
        self.catalog.drop_table(name)?;
        for id in dropped {
            self.indexes.remove(&id);
        }
        self.wal.append(&WalRecord::DropTable {
            name: name.to_string(),
        });
        self.sync_wal()
    }

    /// Drop an index by name.
    pub fn drop_index(&mut self, name: &str) -> DbResult<()> {
        let meta = self.catalog.drop_index(name)?;
        self.indexes.remove(&meta.id);
        self.wal.append(&WalRecord::DropIndex {
            name: name.to_string(),
        });
        self.sync_wal()
    }

    /// Insert a row (schema-checked), returning its address.
    pub fn insert(&mut self, table: &str, row: Row) -> DbResult<RowId> {
        let meta = self.catalog.require_table(table)?;
        let table_id = meta.id;
        let row = meta.schema.check_row(row)?;
        let mut rid = RowId::new(0, 0);
        self.with_statement_txn(|db, txn_id| {
            rid = db.do_insert(txn_id, table_id, &row)?;
            Ok(())
        })?;
        Ok(rid)
    }

    /// Fetch one row by address.
    pub fn get(&mut self, table: &str, rid: RowId) -> DbResult<Row> {
        let heap = self.catalog.require_table(table)?.heap;
        let bytes = heap.get(&mut self.pool, rid)?;
        decode_row(&bytes)
    }

    /// Update one row by address (schema-checked). Returns the row's new
    /// address (usually unchanged).
    pub fn update(&mut self, table: &str, rid: RowId, row: Row) -> DbResult<RowId> {
        let meta = self.catalog.require_table(table)?;
        let table_id = meta.id;
        let row = meta.schema.check_row(row)?;
        let mut out = rid;
        self.with_statement_txn(|db, txn_id| {
            out = db.do_update(txn_id, table_id, rid, &row)?;
            Ok(())
        })?;
        Ok(out)
    }

    /// Delete one row by address.
    pub fn delete(&mut self, table: &str, rid: RowId) -> DbResult<()> {
        let table_id = self.catalog.require_table(table)?.id;
        self.with_statement_txn(|db, txn_id| db.do_delete(txn_id, table_id, rid))
    }

    /// All `(address, row)` pairs of a table, in heap order.
    pub fn scan(&mut self, table: &str) -> DbResult<Vec<(RowId, Row)>> {
        let heap = self.catalog.require_table(table)?.heap;
        let mut out = Vec::new();
        heap.for_each(&mut self.pool, |rid, bytes| {
            out.push((rid, decode_row(bytes)?));
            Ok(())
        })?;
        Ok(out)
    }

    /// Visit every row of a table in heap order without materializing it:
    /// each record is decoded in place off its resident page
    /// ([`decode_row_ref`]) and lent to `f`, whose error stops the scan and
    /// is returned. The same walk as [`Database::scan`], minus the record
    /// copy, the owned [`Row`], and a `String` per text cell.
    pub fn scan_each(
        &mut self,
        table: &str,
        mut f: impl FnMut(&[ValueRef<'_>]) -> DbResult<()>,
    ) -> DbResult<()> {
        let heap = self.catalog.require_table(table)?.heap;
        let mut spare: Vec<ValueRef<'static>> = Vec::new();
        heap.for_each(&mut self.pool, |_, bytes| {
            let mut values = recycle(std::mem::take(&mut spare));
            decode_row_ref(bytes, &mut values)?;
            f(&values)?;
            spare = recycle(values);
            Ok(())
        })
    }

    /// The schema of a table.
    pub fn schema(&self, table: &str) -> DbResult<&Schema> {
        Ok(&self.catalog.require_table(table)?.schema)
    }

    /// The catalog (read-only).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Number of live in-memory index structures (diagnostics; always
    /// equals the catalog's index count — dropped indexes must not leak).
    pub fn index_count(&self) -> usize {
        self.indexes.len()
    }

    /// Buffer pool statistics (for benchmarks).
    pub fn pool_stats(&self) -> crate::buffer::PoolStats {
        self.pool.stats()
    }

    /// Rewrite a table into fresh pages, dropping tombstones and dead
    /// space, and rebuild its indexes. Row ids change; the old page chain
    /// is abandoned (page-level free-space reuse across tables is future
    /// work, as in many small engines).
    ///
    /// Not allowed inside an explicit transaction: vacuum moves every row,
    /// which cannot be represented in the undo log.
    pub fn vacuum(&mut self, table: &str) -> DbResult<usize> {
        if self.txn.in_txn() {
            return Err(DbError::Txn("VACUUM inside a transaction".into()));
        }
        let meta = self.catalog.require_table(table)?;
        let table_id = meta.id;
        let old_heap = meta.heap;
        // Copy all live rows out, then rewrite into a fresh chain.
        let mut rows: Vec<(RowId, Vec<u8>)> = Vec::new();
        old_heap.for_each(&mut self.pool, |rid, bytes| {
            rows.push((rid, bytes.to_vec()));
            Ok(())
        })?;
        let mut new_heap = TableHeap::create(&mut self.pool)?;
        let txn_id = self.txn.autocommit_id();
        self.wal.append(&WalRecord::Begin { txn: txn_id });
        // Log as delete-all + reinsert: replay reproduces the rewrite.
        for &(rid, _) in &rows {
            self.wal.append(&WalRecord::Delete {
                txn: txn_id,
                table: table_id.0,
                rid,
            });
        }
        let n = rows.len();
        for (_, bytes) in rows {
            let rid = new_heap.insert(&mut self.pool, &bytes)?;
            self.wal.append(&WalRecord::Insert {
                txn: txn_id,
                table: table_id.0,
                rid,
                bytes,
            });
        }
        // The heap switch itself is not WAL-logged: on replay the deletes
        // clear the old rows and the inserts (which carry full row images)
        // land in whatever chain is then current — equivalent contents,
        // possibly different layout, which is all vacuum promises.
        self.catalog
            .table_by_id_mut(table_id)
            .expect("looked up above")
            .heap = new_heap;
        self.wal.append(&WalRecord::Commit { txn: txn_id });
        self.sync_wal()?;
        self.rebuild_indexes(table_id)?;
        Ok(n)
    }

    /// Begin an explicit transaction. Like every write transaction, it
    /// first runs [`Database::checkpoint`] if the durable log has reached
    /// the automatic-checkpoint bound (see the module docs).
    pub fn begin(&mut self) -> DbResult<()> {
        if !self.txn.in_txn() {
            self.checkpoint_if_due()?;
        }
        let id = self.txn.begin()?;
        self.wal.append(&WalRecord::Begin { txn: id });
        Ok(())
    }

    /// Commit the open transaction.
    pub fn commit(&mut self) -> DbResult<()> {
        let id = self.txn.take_commit()?;
        self.wal.append(&WalRecord::Commit { txn: id });
        self.sync_wal()
    }

    /// Roll back the open transaction, undoing its mutations.
    pub fn rollback(&mut self) -> DbResult<()> {
        let (id, undo) = self.txn.take_rollback()?;
        for op in undo {
            self.apply_undo(op)?;
        }
        self.wal.append(&WalRecord::Abort { txn: id });
        self.sync_wal()
    }

    /// Whether an explicit transaction is open.
    pub fn in_transaction(&self) -> bool {
        self.txn.in_txn()
    }

    // ------------------------------------------------------------------
    // internals
    // ------------------------------------------------------------------

    /// Durably sync the WAL, retrying transient faults per the retry
    /// policy. Safe to retry: on a transient failure [`Wal::sync`] retains
    /// its pending buffer, so the retried sync persists the complete batch
    /// exactly once.
    fn sync_wal(&mut self) -> DbResult<()> {
        retry_transient(self.retry, || self.wal.sync())
    }

    /// Run [`Database::checkpoint`] if the durable log holds at least
    /// `max(CHECKPOINT_FLOOR, page-file bytes)`. Called as each write
    /// transaction starts (explicit or autocommit), never while one is
    /// open, so a checkpoint always snapshots committed state; an
    /// error fails the new write before it touches anything. Scaling the
    /// trigger with the page file makes each checkpoint's copy at most
    /// the log it retires.
    fn checkpoint_if_due(&mut self) -> DbResult<()> {
        let page_bytes = self.pool.num_pages() * PAGE_SIZE as u64;
        if self.wal.durable_len() >= CHECKPOINT_FLOOR.max(page_bytes) {
            self.checkpoint()?;
        }
        Ok(())
    }

    /// Run `body` under the open transaction if there is one, else under a
    /// fresh autocommit transaction (Begin/Commit logged around it, synced),
    /// after an automatic checkpoint if one is due.
    fn with_statement_txn(
        &mut self,
        body: impl FnOnce(&mut Database, u64) -> DbResult<()>,
    ) -> DbResult<()> {
        if self.txn.in_txn() {
            let id = self.txn.active().expect("checked").id;
            body(self, id)
        } else {
            self.checkpoint_if_due()?;
            let id = self.txn.autocommit_id();
            self.wal.append(&WalRecord::Begin { txn: id });
            body(self, id)?;
            self.wal.append(&WalRecord::Commit { txn: id });
            self.sync_wal()
        }
    }

    fn matching_rows(
        &mut self,
        table: TableId,
        predicate: Option<&crate::expr::Expr>,
    ) -> DbResult<Vec<(RowId, Row)>> {
        let heap = self
            .catalog
            .table_by_id(table)
            .ok_or_else(|| DbError::Catalog("unknown table id".into()))?
            .heap;
        let mut out = Vec::new();
        heap.for_each(&mut self.pool, |rid, bytes| {
            let row = decode_row(bytes)?;
            let keep = match predicate {
                Some(p) => p.matches(&row)?,
                None => true,
            };
            if keep {
                out.push((rid, row));
            }
            Ok(())
        })?;
        Ok(out)
    }

    fn do_insert(&mut self, txn_id: u64, table: TableId, row: &Row) -> DbResult<RowId> {
        let bytes = encode_row(row);
        let rid = self.heap_insert_bytes(table, &bytes)?;
        self.index_add(table, row, rid);
        self.wal.append(&WalRecord::Insert {
            txn: txn_id,
            table: table.0,
            rid,
            bytes,
        });
        self.txn.record(UndoOp::Insert {
            table: table.0,
            rid,
        });
        Ok(rid)
    }

    fn do_delete(&mut self, txn_id: u64, table: TableId, rid: RowId) -> DbResult<()> {
        let heap = self
            .catalog
            .table_by_id(table)
            .ok_or_else(|| DbError::Catalog("unknown table id".into()))?
            .heap;
        let old_bytes = heap.get(&mut self.pool, rid)?;
        let old_row = decode_row(&old_bytes)?;
        heap.delete(&mut self.pool, rid)?;
        self.index_remove(table, &old_row, rid);
        self.wal.append(&WalRecord::Delete {
            txn: txn_id,
            table: table.0,
            rid,
        });
        self.txn.record(UndoOp::Delete {
            table: table.0,
            old_bytes,
        });
        Ok(())
    }

    fn do_update(
        &mut self,
        txn_id: u64,
        table: TableId,
        rid: RowId,
        new_row: &Row,
    ) -> DbResult<RowId> {
        let heap = self
            .catalog
            .table_by_id(table)
            .ok_or_else(|| DbError::Catalog("unknown table id".into()))?
            .heap;
        let old_bytes = heap.get(&mut self.pool, rid)?;
        let old_row = decode_row(&old_bytes)?;
        let new_bytes = encode_row(new_row);
        let new_rid = self.heap_update_bytes(table, rid, &new_bytes)?;
        self.index_remove(table, &old_row, rid);
        self.index_add(table, new_row, new_rid);
        self.wal.append(&WalRecord::Update {
            txn: txn_id,
            table: table.0,
            rid,
            bytes: new_bytes,
        });
        self.txn.record(UndoOp::Update {
            table: table.0,
            current_rid: new_rid,
            old_bytes,
        });
        Ok(new_rid)
    }

    fn apply_undo(&mut self, op: UndoOp) -> DbResult<()> {
        match op {
            UndoOp::Insert { table, rid } => {
                let table = TableId(table);
                let heap = self
                    .catalog
                    .table_by_id(table)
                    .ok_or_else(|| DbError::Catalog("unknown table id".into()))?
                    .heap;
                let bytes = heap.get(&mut self.pool, rid)?;
                let row = decode_row(&bytes)?;
                heap.delete(&mut self.pool, rid)?;
                self.index_remove(table, &row, rid);
            }
            UndoOp::Delete { table, old_bytes } => {
                let table = TableId(table);
                let rid = self.heap_insert_bytes(table, &old_bytes)?;
                let row = decode_row(&old_bytes)?;
                self.index_add(table, &row, rid);
            }
            UndoOp::Update {
                table,
                current_rid,
                old_bytes,
            } => {
                let table = TableId(table);
                let heap = self
                    .catalog
                    .table_by_id(table)
                    .ok_or_else(|| DbError::Catalog("unknown table id".into()))?
                    .heap;
                let current_bytes = heap.get(&mut self.pool, current_rid)?;
                let current_row = decode_row(&current_bytes)?;
                let restored_rid = self.heap_update_bytes(table, current_rid, &old_bytes)?;
                self.index_remove(table, &current_row, current_rid);
                let old_row = decode_row(&old_bytes)?;
                self.index_add(table, &old_row, restored_rid);
            }
        }
        Ok(())
    }

    /// Heap insert that also persists the updated heap handle in the
    /// catalog (the tail page can change).
    fn heap_insert_bytes(&mut self, table: TableId, bytes: &[u8]) -> DbResult<RowId> {
        let meta = self
            .catalog
            .table_by_id(table)
            .ok_or_else(|| DbError::Catalog("unknown table id".into()))?;
        let mut heap = meta.heap;
        let rid = heap.insert(&mut self.pool, bytes)?;
        self.catalog
            .table_by_id_mut(table)
            .expect("just looked up")
            .heap = heap;
        Ok(rid)
    }

    fn heap_update_bytes(&mut self, table: TableId, rid: RowId, bytes: &[u8]) -> DbResult<RowId> {
        let meta = self
            .catalog
            .table_by_id(table)
            .ok_or_else(|| DbError::Catalog("unknown table id".into()))?;
        let mut heap = meta.heap;
        let new_rid = heap.update(&mut self.pool, rid, bytes)?;
        self.catalog
            .table_by_id_mut(table)
            .expect("just looked up")
            .heap = heap;
        Ok(new_rid)
    }

    // Raw (no WAL, no index) variants used during recovery; indexes are
    // rebuilt afterwards.
    fn heap_insert_raw(&mut self, table: TableId, bytes: &[u8]) -> DbResult<RowId> {
        self.heap_insert_bytes(table, bytes)
    }

    fn heap_delete_raw(&mut self, table: TableId, rid: RowId) -> DbResult<()> {
        let heap = self
            .catalog
            .table_by_id(table)
            .ok_or_else(|| DbError::Catalog("unknown table id".into()))?
            .heap;
        heap.delete(&mut self.pool, rid)?;
        Ok(())
    }

    fn heap_update_raw(&mut self, table: TableId, rid: RowId, bytes: &[u8]) -> DbResult<RowId> {
        self.heap_update_bytes(table, rid, bytes)
    }

    fn index_add(&mut self, table: TableId, row: &Row, rid: RowId) {
        for meta in self.catalog.indexes_for(table) {
            if let Some(btree) = self.indexes.get_mut(&meta.id) {
                // indexes_for borrows catalog immutably; indexes is a
                // separate field, so the split borrow is fine.
                btree.insert(index_key(&meta.columns, row), rid);
            }
        }
    }

    fn index_remove(&mut self, table: TableId, row: &Row, rid: RowId) {
        for meta in self.catalog.indexes_for(table) {
            if let Some(btree) = self.indexes.get_mut(&meta.id) {
                btree.remove(&index_key(&meta.columns, row), rid);
            }
        }
    }
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("tables", &self.catalog.tables().len())
            .field("indexes", &self.indexes.len())
            .field("in_txn", &self.txn.in_txn())
            .field("durable", &self.dir.is_some())
            .finish()
    }
}

/// Empty `values` and hand its allocation back under a fresh borrow
/// lifetime, so one buffer serves every record of a scan even though each
/// record borrows from a different page (collecting an emptied iterator
/// into a same-layout `Vec` reuses the allocation in place — a std
/// optimization, not a guarantee, so a unit test pins it).
fn recycle<'b>(mut values: Vec<ValueRef<'_>>) -> Vec<ValueRef<'b>> {
    values.clear();
    values.into_iter().map(|_| unreachable!()).collect()
}

/// The composite index key of `row` under an index over `columns`.
/// Columns are trusted in-range (hot path: every index-maintaining write).
fn index_key(columns: &[usize], row: &Row) -> Vec<Value> {
    columns.iter().map(|&c| row.values[c].clone()).collect()
}

/// Render `plan` one operator per line at two-space indents, resolving
/// catalog ids to names (`Database::explain`).
fn explain_plan(plan: &Plan, catalog: &Catalog, depth: usize, out: &mut String) {
    use std::fmt::Write as _;
    let pad = "  ".repeat(depth);
    match plan {
        Plan::SeqScan { table } => {
            let _ = writeln!(out, "{pad}SeqScan {}", table_name(catalog, *table));
        }
        Plan::IndexScan {
            table,
            index,
            lo,
            hi,
        } => {
            let iname = catalog
                .indexes()
                .iter()
                .find(|i| i.id == *index)
                .map(|i| i.name.as_str())
                .unwrap_or("?");
            let _ = writeln!(
                out,
                "{pad}IndexScan {} via {iname} [{} .. {}]",
                table_name(catalog, *table),
                fmt_key_bound(lo),
                fmt_key_bound(hi),
            );
        }
        Plan::ViolationScan {
            policy,
            lo,
            hi,
            strategy,
        } => {
            let _ = writeln!(
                out,
                "{pad}ViolationScan policy={} provider=[{} .. {}] strategy={strategy}",
                policy.as_deref().unwrap_or("house"),
                fmt_bound(lo),
                fmt_bound(hi),
            );
        }
        Plan::LiveIndexScan {
            policy,
            lo,
            hi,
            attr,
        } => {
            let _ = writeln!(
                out,
                "{pad}LiveIndexScan policy={} provider=[{} .. {}] attr={}",
                policy.as_deref().unwrap_or("house"),
                fmt_bound(lo),
                fmt_bound(hi),
                attr.as_deref().unwrap_or("*"),
            );
        }
        Plan::Filter { input, predicate } => {
            let _ = writeln!(out, "{pad}Filter {predicate}");
            explain_plan(input, catalog, depth + 1, out);
        }
        Plan::Project { input, names, .. } => {
            let _ = writeln!(out, "{pad}Project [{}]", names.join(", "));
            explain_plan(input, catalog, depth + 1, out);
        }
        Plan::Aggregate {
            input,
            group_by,
            aggregates,
            ..
        } => {
            let _ = writeln!(
                out,
                "{pad}Aggregate groups={} aggregates={}",
                group_by.len(),
                aggregates.len()
            );
            explain_plan(input, catalog, depth + 1, out);
        }
        Plan::Sort { input, keys } => {
            let _ = writeln!(out, "{pad}Sort keys={}", keys.len());
            explain_plan(input, catalog, depth + 1, out);
        }
        Plan::Limit {
            input,
            offset,
            limit,
        } => {
            let _ = match limit {
                Some(n) => writeln!(out, "{pad}Limit offset={offset} limit={n}"),
                None => writeln!(out, "{pad}Limit offset={offset}"),
            };
            explain_plan(input, catalog, depth + 1, out);
        }
        Plan::Distinct { input } => {
            let _ = writeln!(out, "{pad}Distinct");
            explain_plan(input, catalog, depth + 1, out);
        }
        Plan::HashJoin { left, right, .. } => {
            let _ = writeln!(out, "{pad}HashJoin");
            explain_plan(left, catalog, depth + 1, out);
            explain_plan(right, catalog, depth + 1, out);
        }
        Plan::NestedLoopJoin { left, right, on } => {
            let _ = writeln!(out, "{pad}NestedLoopJoin on {on}");
            explain_plan(left, catalog, depth + 1, out);
            explain_plan(right, catalog, depth + 1, out);
        }
    }
}

fn table_name(catalog: &Catalog, id: TableId) -> &str {
    catalog
        .table_by_id(id)
        .map(|t| t.name.as_str())
        .unwrap_or("?")
}

fn fmt_bound(bound: &Bound<Value>) -> String {
    match bound {
        Bound::Unbounded => "unbounded".into(),
        Bound::Included(v) => format!("incl {v}"),
        Bound::Excluded(v) => format!("excl {v}"),
    }
}

fn fmt_key_bound(bound: &Bound<Vec<Value>>) -> String {
    let fmt_key = |key: &[Value]| {
        let parts: Vec<String> = key.iter().map(|v| v.to_string()).collect();
        format!("({})", parts.join(", "))
    };
    match bound {
        Bound::Unbounded => "unbounded".into(),
        Bound::Included(k) => format!("incl {}", fmt_key(k)),
        Bound::Excluded(k) => format!("excl {}", fmt_key(k)),
    }
}

/// Convenience: run a query returning a single scalar value.
pub fn query_scalar(db: &mut Database, sql: &str) -> DbResult<Value> {
    let rs = db.query(sql)?;
    rs.scalar().cloned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::SchemaBuilder;
    use crate::types::DataType;

    fn seeded() -> Database {
        let mut db = Database::in_memory();
        db.execute("CREATE TABLE people (id INT, name TEXT, age INT NULL)")
            .unwrap();
        db.execute(
            "INSERT INTO people VALUES (1, 'alice', 34), (2, 'bob', 28), \
             (3, 'carol', 41), (4, 'dan', NULL)",
        )
        .unwrap();
        db
    }

    #[test]
    fn recycle_keeps_the_value_buffer() {
        // `scan_each` relies on this to decode every record into one
        // allocation: a regression here would silently cost one
        // allocation per row.
        let text = String::from("page bytes");
        let mut values = Vec::with_capacity(16);
        values.extend([ValueRef::Int(7), ValueRef::Text(&text)]);
        let (ptr, cap) = (values.as_ptr() as usize, values.capacity());
        let recycled: Vec<ValueRef<'static>> = recycle(values);
        assert!(recycled.is_empty());
        assert_eq!(recycled.as_ptr() as usize, ptr, "allocation reused");
        assert_eq!(recycled.capacity(), cap);
    }

    #[test]
    fn end_to_end_select() {
        let mut db = seeded();
        let rs = db
            .query("SELECT name FROM people WHERE age > 30 ORDER BY age DESC")
            .unwrap();
        assert_eq!(rs.columns, vec!["name"]);
        let names: Vec<&str> = rs
            .rows
            .iter()
            .map(|r| r.values[0].as_text().unwrap())
            .collect();
        assert_eq!(names, vec!["carol", "alice"]);
    }

    #[test]
    fn aggregates_via_sql() {
        let mut db = seeded();
        let v = query_scalar(&mut db, "SELECT COUNT(*) FROM people").unwrap();
        assert_eq!(v, Value::Int(4));
        let rs = db
            .query("SELECT age, COUNT(*) AS n FROM people GROUP BY age")
            .unwrap();
        assert_eq!(rs.len(), 4); // NULL, 28, 34, 41
    }

    #[test]
    fn update_and_delete_via_sql() {
        let mut db = seeded();
        let out = db
            .execute("UPDATE people SET age = age + 1 WHERE age IS NOT NULL")
            .unwrap();
        assert_eq!(out.rows_affected, 3);
        let v = query_scalar(&mut db, "SELECT MAX(age) FROM people").unwrap();
        assert_eq!(v, Value::Int(42));
        let out = db.execute("DELETE FROM people WHERE age IS NULL").unwrap();
        assert_eq!(out.rows_affected, 1);
        let v = query_scalar(&mut db, "SELECT COUNT(*) FROM people").unwrap();
        assert_eq!(v, Value::Int(3));
    }

    #[test]
    fn failed_update_leaves_table_untouched() {
        let mut db = seeded();
        // Type error computed before any row is touched.
        let err = db.execute("UPDATE people SET age = name").unwrap_err();
        assert!(matches!(err, DbError::TypeMismatch { .. }), "{err}");
        let rs = db.query("SELECT * FROM people WHERE age = 34").unwrap();
        assert_eq!(rs.len(), 1);
    }

    #[test]
    fn index_is_used_and_maintained() {
        let mut db = seeded();
        db.execute("CREATE INDEX people_age ON people (age)")
            .unwrap();
        let rs = db.query("SELECT name FROM people WHERE age = 28").unwrap();
        assert_eq!(rs.len(), 1);
        // Mutations keep the index fresh.
        db.execute("UPDATE people SET age = 29 WHERE name = 'bob'")
            .unwrap();
        assert_eq!(
            db.query("SELECT name FROM people WHERE age = 28")
                .unwrap()
                .len(),
            0
        );
        assert_eq!(
            db.query("SELECT name FROM people WHERE age = 29")
                .unwrap()
                .len(),
            1
        );
        db.execute("DELETE FROM people WHERE age = 29").unwrap();
        assert_eq!(
            db.query("SELECT name FROM people WHERE age = 29")
                .unwrap()
                .len(),
            0
        );
    }

    #[test]
    fn drop_table_releases_its_index_structures() {
        let mut db = seeded();
        db.execute("CREATE INDEX people_age ON people (age)")
            .unwrap();
        assert_eq!(db.index_count(), 1);
        db.execute("DROP TABLE people").unwrap();
        assert_eq!(db.index_count(), 0, "dropped btrees must not leak");
        // Re-create under the same names: fresh ids, fresh structures.
        db.execute("CREATE TABLE people (id INT, name TEXT, age INT NULL)")
            .unwrap();
        db.execute("CREATE INDEX people_age ON people (age)")
            .unwrap();
        db.execute("INSERT INTO people VALUES (1, 'zoe', 20)")
            .unwrap();
        assert_eq!(
            db.query("SELECT * FROM people WHERE age = 20")
                .unwrap()
                .len(),
            1
        );
        assert_eq!(db.index_count(), 1);
        assert_eq!(db.index_count(), db.catalog().indexes().len());
    }

    /// `2^53 + 1` rounds to `2^53` as an `f64`: a float bound must still
    /// select exactly the integers on its side, and the sequential scan
    /// (the filter's comparison) and the index range (the B+tree's key
    /// order) must agree on which those are.
    #[test]
    fn value_order_is_exact_by_seq_scan_and_index_range() {
        let p = 1i64 << 53;
        let mut db = Database::in_memory();
        db.execute("CREATE TABLE t (provider_id INT)").unwrap();
        db.execute(&format!(
            "INSERT INTO t VALUES ({}), ({p}), ({})",
            p - 1,
            p + 1
        ))
        .unwrap();
        let cases = [
            ("provider_id >= 9007199254740992.0", vec![p, p + 1]),
            ("provider_id > 9007199254740992.0", vec![p + 1]),
            ("provider_id = 9007199254740992.0", vec![p]),
            ("provider_id <= 9007199254740992.0", vec![p - 1, p]),
            ("provider_id < 9007199254740992.0", vec![p - 1]),
        ];
        let run = |db: &mut Database, path: &str| -> Vec<Vec<i64>> {
            cases
                .iter()
                .map(|(cond, _)| {
                    let sql = format!("SELECT provider_id FROM t WHERE {cond}");
                    let plan = db.explain(&sql).unwrap();
                    assert!(plan.contains(path), "{sql}:\n{plan}");
                    let mut ids: Vec<i64> = db
                        .query(&sql)
                        .unwrap()
                        .rows
                        .iter()
                        .map(|r| r.values[0].as_int().unwrap())
                        .collect();
                    ids.sort_unstable();
                    ids
                })
                .collect()
        };
        let seq = run(&mut db, "SeqScan t");
        db.execute("CREATE INDEX t_provider ON t (provider_id)")
            .unwrap();
        let indexed = run(&mut db, "IndexScan t via t_provider");
        for (((cond, want), seq), indexed) in cases.iter().zip(&seq).zip(&indexed) {
            assert_eq!(seq, want, "{cond} by sequential scan");
            assert_eq!(indexed, want, "{cond} by index range");
        }
    }

    #[test]
    fn explain_shows_chosen_access_path() {
        let mut db = seeded();
        let plan = db
            .explain("SELECT name FROM people WHERE age = 28")
            .unwrap();
        assert!(plan.contains("SeqScan people"), "{plan}");
        db.execute("CREATE INDEX people_age ON people (age)")
            .unwrap();
        let plan = db
            .explain("SELECT name FROM people WHERE age = 28")
            .unwrap();
        assert!(plan.contains("IndexScan people via people_age"), "{plan}");
        assert!(plan.contains("Filter"), "{plan}"); // residual predicate kept
        assert!(plan.contains("Project [name]"), "{plan}");
        // Composite prefix: equality on the leading column plus a range.
        db.execute("CREATE INDEX people_name_age ON people (name, age)")
            .unwrap();
        let plan = db
            .explain("SELECT * FROM people WHERE name = 'bob' AND age > 20")
            .unwrap();
        assert!(plan.contains("via people_name_age"), "{plan}");
        // The virtual relation binds without any catalog table.
        let plan = db
            .explain("SELECT * FROM _qpv_violations WHERE provider >= 5")
            .unwrap();
        assert!(
            plan.contains("ViolationScan policy=house provider=[incl 5 .. unbounded]"),
            "{plan}"
        );
    }

    #[test]
    fn typed_api_round_trip() {
        let mut db = Database::in_memory();
        let schema = SchemaBuilder::new()
            .column("k", DataType::Int)
            .column("v", DataType::Text)
            .build()
            .unwrap();
        db.create_table("kv", schema).unwrap();
        let rid = db
            .insert(
                "kv",
                Row::from_values([Value::Int(1), Value::Text("one".into())]),
            )
            .unwrap();
        assert_eq!(
            db.get("kv", rid).unwrap().values[1],
            Value::Text("one".into())
        );
        let rid2 = db
            .update(
                "kv",
                rid,
                Row::from_values([Value::Int(1), Value::Text("uno".into())]),
            )
            .unwrap();
        assert_eq!(
            db.get("kv", rid2).unwrap().values[1],
            Value::Text("uno".into())
        );
        db.delete("kv", rid2).unwrap();
        assert!(db.scan("kv").unwrap().is_empty());
    }

    #[test]
    fn transactions_commit_and_rollback() {
        let mut db = seeded();
        db.execute("BEGIN").unwrap();
        db.execute("INSERT INTO people VALUES (5, 'eve', 52)")
            .unwrap();
        db.execute("DELETE FROM people WHERE name = 'alice'")
            .unwrap();
        db.execute("UPDATE people SET age = 100 WHERE name = 'bob'")
            .unwrap();
        assert!(db.in_transaction());
        db.execute("ROLLBACK").unwrap();
        assert!(!db.in_transaction());
        // Everything restored.
        assert_eq!(
            query_scalar(&mut db, "SELECT COUNT(*) FROM people").unwrap(),
            Value::Int(4)
        );
        assert_eq!(
            db.query("SELECT * FROM people WHERE name = 'alice'")
                .unwrap()
                .len(),
            1
        );
        assert_eq!(
            db.query("SELECT * FROM people WHERE age = 100")
                .unwrap()
                .len(),
            0
        );
        // And commit works.
        db.execute("BEGIN").unwrap();
        db.execute("INSERT INTO people VALUES (5, 'eve', 52)")
            .unwrap();
        db.execute("COMMIT").unwrap();
        assert_eq!(
            query_scalar(&mut db, "SELECT COUNT(*) FROM people").unwrap(),
            Value::Int(5)
        );
    }

    #[test]
    fn rollback_restores_indexes_too() {
        let mut db = seeded();
        db.execute("CREATE INDEX people_age ON people (age)")
            .unwrap();
        db.execute("BEGIN").unwrap();
        db.execute("UPDATE people SET age = 99 WHERE name = 'alice'")
            .unwrap();
        db.execute("ROLLBACK").unwrap();
        assert_eq!(
            db.query("SELECT * FROM people WHERE age = 34")
                .unwrap()
                .len(),
            1
        );
        assert_eq!(
            db.query("SELECT * FROM people WHERE age = 99")
                .unwrap()
                .len(),
            0
        );
    }

    #[test]
    fn txn_errors() {
        let mut db = seeded();
        assert!(db.execute("COMMIT").is_err());
        assert!(db.execute("ROLLBACK").is_err());
        db.execute("BEGIN").unwrap();
        assert!(db.execute("BEGIN").is_err());
        db.execute("COMMIT").unwrap();
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "qpv-db-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn durable_database_recovers_after_reopen() {
        let dir = temp_dir("recover");
        {
            let mut db = Database::open(&dir).unwrap();
            db.execute("CREATE TABLE t (id INT, v TEXT)").unwrap();
            db.execute("CREATE INDEX t_id ON t (id)").unwrap();
            db.execute("INSERT INTO t VALUES (1, 'one'), (2, 'two')")
                .unwrap();
            db.execute("UPDATE t SET v = 'TWO' WHERE id = 2").unwrap();
            db.execute("DELETE FROM t WHERE id = 1").unwrap();
            // No checkpoint: recovery must come from the WAL alone.
        }
        let mut db = Database::open(&dir).unwrap();
        let rs = db.query("SELECT id, v FROM t").unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.rows[0].values[1], Value::Text("TWO".into()));
        // Index rebuilt and usable.
        assert_eq!(db.query("SELECT * FROM t WHERE id = 2").unwrap().len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn uncommitted_transaction_is_not_recovered() {
        let dir = temp_dir("uncommitted");
        {
            let mut db = Database::open(&dir).unwrap();
            db.execute("CREATE TABLE t (id INT)").unwrap();
            db.execute("INSERT INTO t VALUES (1)").unwrap();
            db.execute("BEGIN").unwrap();
            db.execute("INSERT INTO t VALUES (2)").unwrap();
            // Simulated crash: drop without COMMIT. The WAL has the insert
            // but no Commit record. (Mid-txn appends are only made durable
            // by the eventual COMMIT's sync; flush them here to model the
            // worst case where they did reach disk.)
            db.wal.sync().unwrap();
        }
        let mut db = Database::open(&dir).unwrap();
        assert_eq!(
            query_scalar(&mut db, "SELECT COUNT(*) FROM t").unwrap(),
            Value::Int(1)
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_then_more_writes_then_recover() {
        let dir = temp_dir("checkpoint");
        {
            let mut db = Database::open(&dir).unwrap();
            db.execute("CREATE TABLE t (id INT)").unwrap();
            db.execute("INSERT INTO t VALUES (1), (2), (3)").unwrap();
            db.checkpoint().unwrap();
            assert!(db.wal.is_empty());
            db.execute("INSERT INTO t VALUES (4)").unwrap();
            db.execute("DELETE FROM t WHERE id = 1").unwrap();
        }
        let mut db = Database::open(&dir).unwrap();
        let rs = db.query("SELECT id FROM t ORDER BY id").unwrap();
        let ids: Vec<i64> = rs
            .rows
            .iter()
            .map(|r| r.values[0].as_int().unwrap())
            .collect();
        assert_eq!(ids, vec![2, 3, 4]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_is_idempotent_across_many_reopens() {
        let dir = temp_dir("idempotent");
        {
            let mut db = Database::open(&dir).unwrap();
            db.execute("CREATE TABLE t (id INT)").unwrap();
            db.execute("INSERT INTO t VALUES (1), (2)").unwrap();
        }
        for _ in 0..3 {
            let mut db = Database::open(&dir).unwrap();
            assert_eq!(
                query_scalar(&mut db, "SELECT COUNT(*) FROM t").unwrap(),
                Value::Int(2)
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn drop_table_and_index_via_sql() {
        let mut db = seeded();
        db.execute("CREATE INDEX people_age ON people (age)")
            .unwrap();
        db.execute("DROP INDEX people_age").unwrap();
        db.execute("DROP TABLE people").unwrap();
        assert!(db.query("SELECT * FROM people").is_err());
    }

    fn seeded_with_orders() -> Database {
        let mut db = seeded();
        db.execute("CREATE TABLE orders (order_id INT, person_id INT, amount INT)")
            .unwrap();
        db.execute(
            "INSERT INTO orders VALUES (100, 1, 30), (101, 1, 70), (102, 2, 15), (103, 9, 5)",
        )
        .unwrap();
        db
    }

    #[test]
    fn inner_join_matches_rows() {
        let mut db = seeded_with_orders();
        let rs = db
            .query(
                "SELECT p.name, o.amount FROM people p JOIN orders o \
                 ON p.id = o.person_id ORDER BY o.amount",
            )
            .unwrap();
        assert_eq!(rs.columns, vec!["name", "amount"]);
        let got: Vec<(String, i64)> = rs
            .rows
            .iter()
            .map(|r| {
                (
                    r.values[0].as_text().unwrap().to_string(),
                    r.values[1].as_int().unwrap(),
                )
            })
            .collect();
        // person 9 has no people row; dan has no orders.
        assert_eq!(
            got,
            vec![
                ("bob".to_string(), 15),
                ("alice".to_string(), 30),
                ("alice".to_string(), 70),
            ]
        );
    }

    #[test]
    fn join_star_qualifies_output_columns() {
        let mut db = seeded_with_orders();
        let rs = db
            .query("SELECT * FROM people p JOIN orders o ON p.id = o.person_id")
            .unwrap();
        assert!(rs.columns.contains(&"p.id".to_string()), "{:?}", rs.columns);
        assert!(rs.columns.contains(&"o.amount".to_string()));
        assert_eq!(rs.rows[0].arity(), 3 + 3);
    }

    #[test]
    fn join_with_where_group_by_and_aggregates() {
        let mut db = seeded_with_orders();
        let rs = db
            .query(
                "SELECT p.name, SUM(o.amount) AS total FROM people p \
                 JOIN orders o ON p.id = o.person_id \
                 WHERE o.amount > 10 GROUP BY p.name",
            )
            .unwrap();
        assert_eq!(rs.columns, vec!["name", "total"]);
        assert_eq!(rs.len(), 2); // alice, bob
        let alice = rs
            .rows
            .iter()
            .find(|r| r.values[0] == Value::Text("alice".into()))
            .unwrap();
        assert_eq!(alice.values[1], Value::Int(100));
    }

    #[test]
    fn non_equi_join_uses_nested_loop() {
        let mut db = seeded_with_orders();
        // Every (person, order) pair where the order is bigger than the id
        // — nonsense semantically, but exercises the nested-loop path.
        let rs = db
            .query(
                "SELECT p.id, o.order_id FROM people p JOIN orders o \
                 ON o.amount > p.id * 20",
            )
            .unwrap();
        assert!(!rs.is_empty());
        for row in &rs.rows {
            let _ = row;
        }
        // Cross-check one pair: person 1 (20) matches orders 30 and 70.
        let ones = rs
            .rows
            .iter()
            .filter(|r| r.values[0] == Value::Int(1))
            .count();
        assert_eq!(ones, 2);
    }

    #[test]
    fn three_way_join() {
        let mut db = seeded_with_orders();
        db.execute("CREATE TABLE refunds (order_ref INT, pct INT)")
            .unwrap();
        db.execute("INSERT INTO refunds VALUES (101, 50), (102, 100)")
            .unwrap();
        let rs = db
            .query(
                "SELECT p.name, r.pct FROM people p \
                 JOIN orders o ON p.id = o.person_id \
                 JOIN refunds r ON r.order_ref = o.order_id \
                 ORDER BY r.pct",
            )
            .unwrap();
        let got: Vec<(&str, i64)> = rs
            .rows
            .iter()
            .map(|r| {
                (
                    r.values[0].as_text().unwrap(),
                    r.values[1].as_int().unwrap(),
                )
            })
            .collect();
        assert_eq!(got, vec![("alice", 50), ("bob", 100)]);
    }

    #[test]
    fn join_errors_are_clear() {
        let mut db = seeded_with_orders();
        // Ambiguous unqualified column (both tables lack it → unknown; both
        // have `id`-ish names? people.id only, so use a genuinely ambiguous
        // setup):
        db.execute("CREATE TABLE people2 (id INT, name TEXT)")
            .unwrap();
        let err = db
            .query("SELECT id FROM people p JOIN people2 q ON p.id = q.id")
            .unwrap_err();
        assert!(err.to_string().contains("ambiguous"), "{err}");
        // Unknown alias.
        let err = db
            .query("SELECT z.id FROM people p JOIN orders o ON p.id = o.person_id")
            .unwrap_err();
        assert!(err.to_string().contains("alias"), "{err}");
        // Duplicate alias.
        let err = db
            .query("SELECT 1 FROM people p JOIN orders p ON 1 = 1")
            .unwrap_err();
        assert!(err.to_string().contains("duplicate"), "{err}");
        // Self-join works with distinct aliases.
        let rs = db
            .query("SELECT a.name FROM people a JOIN people b ON a.id = b.id")
            .unwrap();
        assert_eq!(rs.len(), 4);
    }

    #[test]
    fn vacuum_compacts_and_preserves_contents() {
        let mut db = Database::in_memory();
        db.execute("CREATE TABLE t (id INT, pad TEXT)").unwrap();
        db.execute("CREATE INDEX t_id ON t (id)").unwrap();
        for chunk in 0..10 {
            let values: Vec<String> = (0..100)
                .map(|i| format!("({}, '{}')", chunk * 100 + i, "x".repeat(64)))
                .collect();
            db.execute(&format!("INSERT INTO t VALUES {}", values.join(",")))
                .unwrap();
        }
        // Delete 90% — the heap is now mostly tombstones.
        db.execute("DELETE FROM t WHERE id % 10 <> 0").unwrap();
        let pages_before = db.pool.num_pages();
        let survivors = db.query("SELECT id FROM t ORDER BY id").unwrap();
        assert_eq!(survivors.len(), 100);

        let n = db.vacuum("t").unwrap();
        assert_eq!(n, 100);
        // Contents identical.
        let after = db.query("SELECT id FROM t ORDER BY id").unwrap();
        assert_eq!(after, survivors);
        // Index still consistent (rebuilt over new row ids).
        let rs = db.query("SELECT COUNT(*) FROM t WHERE id = 500").unwrap();
        assert_eq!(rs.rows[0].values[0], Value::Int(1));
        // The new chain is much shorter than the old one (100 small rows
        // fit a handful of pages vs the old ~20-page chain).
        let meta = db.catalog.table("t").unwrap();
        let new_chain_len = {
            let mut len = 1u64;
            let mut page = meta.heap.first_page();
            while let Some(next) = db.pool.page(page).unwrap().next_page() {
                page = next;
                len += 1;
            }
            len
        };
        assert!(
            new_chain_len <= 5,
            "vacuumed chain is {new_chain_len} pages"
        );
        let _ = pages_before;
        // Vacuum in a transaction is rejected.
        db.execute("BEGIN").unwrap();
        assert!(db.vacuum("t").is_err());
        db.execute("ROLLBACK").unwrap();
    }

    /// Run one write statement and check the automatic checkpoint rule
    /// around it: a checkpoint runs first exactly when the durable log
    /// had reached `max(CHECKPOINT_FLOOR, page-file bytes)`, so the log
    /// never ends a statement above that bound plus the statement's own
    /// frames. Returns the bound in force when a checkpoint ran.
    fn write_checked(db: &mut Database, sql: &str) -> Option<u64> {
        let due = CHECKPOINT_FLOOR.max(db.pool.num_pages() * PAGE_SIZE as u64);
        let (before, generation) = (db.wal.durable_len(), db.generation());
        db.execute(sql).unwrap();
        let after = db.wal.durable_len();
        let checkpointed = db.generation() != generation;
        assert_eq!(
            checkpointed,
            before >= due,
            "{before} log bytes against {due}"
        );
        let own = if checkpointed { after } else { after - before };
        assert!(
            after <= due + own,
            "{after} log bytes against {due} + {own}"
        );
        checkpointed.then_some(due)
    }

    /// Load `rows` padded rows under an index, then rewrite the first
    /// `touched` of them in place `rounds` times: the log grows while the
    /// page file barely does. Returns the bound in force at each
    /// automatic checkpoint.
    fn write_past_the_floor(
        db: &mut Database,
        rows: usize,
        touched: usize,
        rounds: usize,
    ) -> Vec<u64> {
        let pad = "x".repeat(200);
        let mut fired = Vec::new();
        fired.extend(write_checked(db, "CREATE TABLE t (id INT, v TEXT)"));
        fired.extend(write_checked(db, "CREATE INDEX t_id ON t (id)"));
        for first in (0..rows).step_by(500) {
            let values: Vec<String> = (first..rows.min(first + 500))
                .map(|i| format!("({i}, '{pad}')"))
                .collect();
            let sql = format!("INSERT INTO t VALUES {}", values.join(", "));
            fired.extend(write_checked(db, &sql));
        }
        for round in 0..rounds {
            let sql = format!(
                "UPDATE t SET v = '{round:03}{}' WHERE id < {touched}",
                &pad[3..]
            );
            fired.extend(write_checked(db, &sql));
        }
        fired
    }

    /// What [`write_past_the_floor`] leaves: the touched rows as the
    /// last round wrote them, the rest as loaded.
    fn floor_contents(rows: usize, touched: usize, rounds: usize) -> Vec<(i64, String)> {
        let last = format!("{:03}{}", rounds - 1, "x".repeat(197));
        (0..rows)
            .map(|i| {
                let v = if i < touched {
                    last.clone()
                } else {
                    "x".repeat(200)
                };
                (i as i64, v)
            })
            .collect()
    }

    fn contents(db: &mut Database) -> Vec<(i64, String)> {
        let rs = db.query("SELECT id, v FROM t ORDER BY id").unwrap();
        rs.rows
            .iter()
            .map(|r| {
                let v = r.values[1].as_text().unwrap().to_string();
                (r.values[0].as_int().unwrap(), v)
            })
            .collect()
    }

    #[test]
    fn automatic_checkpoints_bound_the_log_in_memory() {
        let mut db = Database::in_memory();
        let fired = write_past_the_floor(&mut db, 200, 200, 70);
        assert!(fired.len() >= 2, "{fired:?}");
        assert_eq!(db.generation(), fired.len() as u64, "no explicit call");
        assert_eq!(contents(&mut db), floor_contents(200, 200, 70));
        assert_eq!(
            query_scalar(&mut db, "SELECT v FROM t WHERE id = 17").unwrap(),
            Value::Text(floor_contents(200, 200, 70)[17].1.clone())
        );
    }

    #[test]
    fn automatic_checkpoint_bound_grows_with_the_page_file() {
        // 6000 padded rows make a page file past the floor; rewriting 500
        // of them at a time then steps the log past the floor well before
        // it reaches the page file, which is when the checkpoint runs.
        let mut db = Database::in_memory();
        let fired = write_past_the_floor(&mut db, 6000, 500, 30);
        let past_floor = fired.iter().filter(|&&due| due > CHECKPOINT_FLOOR).count();
        assert!(past_floor >= 2, "{fired:?}");
        assert_eq!(contents(&mut db), floor_contents(6000, 500, 30));
    }

    #[test]
    fn automatic_checkpoints_bound_the_log_and_reopen_identically() {
        let dir = temp_dir("auto-checkpoint");
        let (generation, written) = {
            let mut db = Database::open(&dir).unwrap();
            let fired = write_past_the_floor(&mut db, 200, 200, 70);
            assert!(fired.len() >= 2, "{fired:?}");
            assert_eq!(db.generation(), fired.len() as u64, "no explicit call");
            (db.generation(), contents(&mut db))
        };
        assert_eq!(written, floor_contents(200, 200, 70));
        assert_eq!(read_current(&dir).unwrap(), generation);
        assert!(!wal_path(&dir, generation - 1).exists(), "retired log kept");
        let mut db = Database::open(&dir).unwrap();
        assert!(
            db.wal.durable_len() < CHECKPOINT_FLOOR,
            "reopen replays the tail only"
        );
        assert_eq!(contents(&mut db), written);
        let plan = db.explain("SELECT v FROM t WHERE id = 17").unwrap();
        assert!(plan.contains("IndexScan t via t_id"), "{plan}");
        assert_eq!(
            query_scalar(&mut db, "SELECT v FROM t WHERE id = 17").unwrap(),
            Value::Text(written[17].1.clone())
        );
        drop(db);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn explicit_transactions_never_checkpoint_midway() {
        let dir = temp_dir("txn-checkpoint");
        let mut db = Database::open(&dir).unwrap();
        write_past_the_floor(&mut db, 200, 200, 1);
        let committed = contents(&mut db);
        db.execute("BEGIN").unwrap();
        let generation = db.generation();
        let pad = "y".repeat(200);
        for _ in 0..30 {
            db.execute(&format!("UPDATE t SET v = '{pad}'")).unwrap();
        }
        // DDL syncs the log, open transaction's frames included, so the
        // durable log is past the floor while the transaction is open.
        db.execute("CREATE TABLE side (k INT)").unwrap();
        assert!(db.wal.durable_len() >= CHECKPOINT_FLOOR);
        db.execute("UPDATE t SET v = 'midway' WHERE id = 3")
            .unwrap();
        assert_eq!(
            db.generation(),
            generation,
            "checkpoint inside a transaction"
        );
        db.execute("ROLLBACK").unwrap();
        assert_eq!(db.generation(), generation);
        // The next transaction pays for the overdue checkpoint first, and
        // it snapshots the rolled-back state.
        db.execute("BEGIN").unwrap();
        assert_eq!(db.generation(), generation + 1);
        db.execute("COMMIT").unwrap();
        assert_eq!(contents(&mut db), committed);
        drop(db);
        let mut db = Database::open(&dir).unwrap();
        assert_eq!(contents(&mut db), committed);
        drop(db);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn vacuum_is_durable() {
        let dir = temp_dir("vacuum");
        {
            let mut db = Database::open(&dir).unwrap();
            db.execute("CREATE TABLE t (id INT)").unwrap();
            db.execute("INSERT INTO t VALUES (1), (2), (3), (4)")
                .unwrap();
            db.execute("DELETE FROM t WHERE id > 2").unwrap();
            db.vacuum("t").unwrap();
            db.execute("INSERT INTO t VALUES (9)").unwrap();
        }
        let mut db = Database::open(&dir).unwrap();
        let rs = db.query("SELECT id FROM t ORDER BY id").unwrap();
        let ids: Vec<i64> = rs
            .rows
            .iter()
            .map(|r| r.values[0].as_int().unwrap())
            .collect();
        assert_eq!(ids, vec![1, 2, 9]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn in_list_queries() {
        let mut db = seeded();
        let rs = db
            .query("SELECT name FROM people WHERE id IN (1, 3, 99) ORDER BY id")
            .unwrap();
        let names: Vec<&str> = rs
            .rows
            .iter()
            .map(|r| r.values[0].as_text().unwrap())
            .collect();
        assert_eq!(names, vec!["alice", "carol"]);
        // NOT IN with NULL semantics: `age NOT IN (28)` filters the NULL
        // age row (NULL <> 28 is NULL, filtered by WHERE).
        let rs = db
            .query("SELECT name FROM people WHERE age NOT IN (28)")
            .unwrap();
        assert_eq!(rs.len(), 2); // alice(34), carol(41); dan(NULL) excluded
                                 // IN over text.
        let rs = db
            .query("SELECT id FROM people WHERE name IN ('bob', 'dan')")
            .unwrap();
        assert_eq!(rs.len(), 2);
    }

    #[test]
    fn between_queries_and_index_bounds() {
        let mut db = seeded();
        db.execute("CREATE INDEX people_age ON people (age)")
            .unwrap();
        let rs = db
            .query("SELECT name FROM people WHERE age BETWEEN 28 AND 34")
            .unwrap();
        assert_eq!(rs.len(), 2);
        let rs = db
            .query("SELECT name FROM people WHERE age NOT BETWEEN 28 AND 34")
            .unwrap();
        assert_eq!(rs.len(), 1); // carol(41); dan's NULL filtered
                                 // The binder must turn BETWEEN over an indexed column into bounds.
        let Statement::Select(sel) =
            parse("SELECT * FROM people WHERE age BETWEEN 28 AND 34").unwrap()
        else {
            panic!()
        };
        let plan = bind_select(&sel, &db.catalog).unwrap();
        let Plan::Filter { input, .. } = plan else {
            panic!("expected residual filter");
        };
        assert!(matches!(*input, Plan::IndexScan { .. }), "{input:?}");
    }

    #[test]
    fn like_queries() {
        let mut db = seeded();
        let rs = db
            .query("SELECT name FROM people WHERE name LIKE 'c%'")
            .unwrap();
        assert_eq!(rs.rows[0].values[0], Value::Text("carol".into()));
        let rs = db
            .query("SELECT name FROM people WHERE name LIKE '%a%' AND name NOT LIKE 'd_n'")
            .unwrap();
        // alice, carol contain 'a'; dan matches d_n and is excluded.
        assert_eq!(rs.len(), 2);
        assert!(db.query("SELECT * FROM people WHERE age LIKE 'x'").is_err());
    }

    #[test]
    fn distinct_queries() {
        let mut db = seeded();
        db.execute("INSERT INTO people VALUES (5, 'alice', 34)")
            .unwrap();
        let all = db.query("SELECT name FROM people").unwrap();
        assert_eq!(all.len(), 5);
        let distinct = db.query("SELECT DISTINCT name FROM people").unwrap();
        assert_eq!(distinct.len(), 4);
        // First occurrence order is preserved.
        assert_eq!(distinct.rows[0].values[0], Value::Text("alice".into()));
        // Multi-column distinct keys on the whole row.
        let rs = db.query("SELECT DISTINCT name, age FROM people").unwrap();
        assert_eq!(rs.len(), 4);
        // DISTINCT with aggregates is rejected.
        assert!(db.query("SELECT DISTINCT COUNT(*) FROM people").is_err());
    }

    #[test]
    fn bulk_load_spans_many_pages() {
        let mut db = Database::in_memory();
        db.execute("CREATE TABLE big (id INT, payload TEXT)")
            .unwrap();
        for chunk in 0..20 {
            let values: Vec<String> = (0..50)
                .map(|i| format!("({}, '{}')", chunk * 50 + i, "x".repeat(100)))
                .collect();
            db.execute(&format!("INSERT INTO big VALUES {}", values.join(", ")))
                .unwrap();
        }
        assert_eq!(
            query_scalar(&mut db, "SELECT COUNT(*) FROM big").unwrap(),
            Value::Int(1000)
        );
        let rs = db
            .query("SELECT id FROM big WHERE id % 100 = 0 ORDER BY id")
            .unwrap();
        assert_eq!(rs.len(), 10);
    }
}
