//! # qpv-reldb
//!
//! A small, from-scratch relational storage engine. It is the substrate the
//! privacy-violation model of *Quantifying Privacy Violations* runs over: the
//! paper targets "relational database systems", so the reproduction stores
//! provider data, privacy preferences, and policy metadata in real tables
//! with real storage, rather than in ad-hoc in-memory vectors.
//!
//! The engine is deliberately classical:
//!
//! * [`value`] / [`types`] / [`schema`] / [`row`] — the relational data
//!   model: dynamically-typed [`value::Value`]s checked against a typed
//!   [`schema::Schema`].
//! * [`encoding`] — compact binary row serialisation.
//! * [`page`] — 4 KiB slotted pages.
//! * [`disk`] — a page-granular file manager.
//! * [`buffer`] — an LRU buffer pool with pin counts over the disk manager.
//! * [`wal`] — a physical write-ahead log with checksummed records and
//!   crash recovery (redo on open).
//! * [`fault`] — deterministic fault injection: every page/WAL I/O op is a
//!   failpoint driven by a clock-free, seed-deterministic
//!   [`fault::FaultPlan`] (used by the crash-torture suite).
//! * [`heap`] — table heaps: unordered record storage across page chains.
//! * [`btree`] — a from-scratch B+tree secondary index with linked leaves
//!   for range scans.
//! * [`catalog`] — table and index metadata.
//! * [`expr`] — a typed expression tree evaluated against rows.
//! * [`exec`] — volcano-style iterators: scan, filter, project, sort,
//!   limit, aggregate.
//! * [`audit_bridge`] — the inverted dependency through which the SQL
//!   layer evaluates `VIOLATES(...)` and scans `_qpv_violations` without
//!   knowing the audit model (implemented a crate above, in `qpv-core`).
//! * [`sql`] — a hand-written lexer/parser/binder for a practical SQL
//!   subset (`CREATE TABLE`, `CREATE INDEX`, `INSERT`, `SELECT`, `UPDATE`,
//!   `DELETE`).
//! * [`txn`] — coarse-grained transactions with undo-based rollback.
//! * [`db`] — the [`db::Database`] facade tying everything together.
//!
//! ## Quick example
//!
//! ```
//! use qpv_reldb::db::Database;
//! use qpv_reldb::value::Value;
//!
//! let mut db = Database::in_memory();
//! db.execute("CREATE TABLE people (id INT, name TEXT, weight INT)").unwrap();
//! db.execute("INSERT INTO people VALUES (1, 'Alice', 60), (2, 'Ted', 82)").unwrap();
//! let rows = db.query("SELECT name FROM people WHERE weight > 70").unwrap();
//! assert_eq!(rows.rows[0].values[0], Value::Text("Ted".into()));
//! ```

pub mod audit_bridge;
pub mod btree;
pub mod buffer;
pub mod catalog;
pub mod db;
pub mod disk;
pub mod encoding;
pub mod error;
pub mod exec;
pub mod expr;
pub mod fault;
pub mod heap;
pub mod page;
pub mod row;
pub mod schema;
pub mod sql;
pub mod txn;
pub mod types;
pub mod value;
pub mod wal;

pub use audit_bridge::{
    violations_schema, AuditBridge, ViolationRow, ViolationStats, VIOLATIONS_PROVIDER_INDEX,
    VIOLATIONS_TABLE,
};
pub use db::Database;
pub use encoding::ValueRef;
pub use error::{DbError, DbResult};
pub use fault::{FaultInjector, FaultKind, FaultPlan, FaultStore, RetryPolicy};
pub use row::{Row, RowId};
pub use schema::{Column, Schema};
pub use types::DataType;
pub use value::Value;
