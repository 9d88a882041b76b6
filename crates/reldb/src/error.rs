//! Engine-wide error type.

use std::fmt;
use std::io;

/// Convenient alias for engine results.
pub type DbResult<T> = Result<T, DbError>;

/// Every way the engine can fail, from storage up through SQL.
///
/// ## Error taxonomy: transient vs permanent
///
/// [`DbError::Transient`] marks faults that are expected to succeed on a
/// bounded retry (a spurious `EIO`, a sync the medium reported as failed
/// without losing state). Everything else is permanent: retrying cannot
/// help, and callers should surface the error. [`DbError::is_transient`]
/// is the single classification point the retry policies key off.
#[derive(Debug)]
pub enum DbError {
    /// Underlying file I/O failed.
    Io(io::Error),
    /// A fault that is expected to clear on retry (spurious `EIO`, failed
    /// sync with state intact). The operation was *not* performed.
    Transient(String),
    /// On-disk or in-log bytes failed validation (bad magic, checksum,
    /// truncated record, impossible offsets).
    Corruption(String),
    /// A page has no room for the requested record.
    PageFull,
    /// A record reference pointed at a missing page or slot.
    RecordNotFound { page: u64, slot: u16 },
    /// Schema-level misuse: wrong arity, unknown column, bad column name.
    Schema(String),
    /// A value did not match the column's declared type.
    TypeMismatch { expected: String, found: String },
    /// Catalog-level misuse: duplicate or missing table/index.
    Catalog(String),
    /// SQL text failed to lex or parse.
    SqlParse(String),
    /// SQL referenced unknown tables/columns or was semantically invalid.
    SqlBind(String),
    /// Expression evaluation failed (type error, division by zero, ...).
    Eval(String),
    /// Transaction misuse (commit/abort without begin, nested begin).
    Txn(String),
    /// The delta backlog is at capacity: the producer must wait for the
    /// consumer to drain (ack) before issuing more writes. The operation
    /// was *not* performed — no storage mutation happened.
    Backpressure {
        /// Entries currently queued.
        pending: usize,
        /// The configured backlog cap.
        capacity: usize,
    },
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::Io(e) => write!(f, "io error: {e}"),
            DbError::Transient(msg) => write!(f, "transient i/o error: {msg}"),
            DbError::Corruption(msg) => write!(f, "corruption: {msg}"),
            DbError::PageFull => f.write_str("page full"),
            DbError::RecordNotFound { page, slot } => {
                write!(f, "record not found: page {page} slot {slot}")
            }
            DbError::Schema(msg) => write!(f, "schema error: {msg}"),
            DbError::TypeMismatch { expected, found } => {
                write!(f, "type mismatch: expected {expected}, found {found}")
            }
            DbError::Catalog(msg) => write!(f, "catalog error: {msg}"),
            DbError::SqlParse(msg) => write!(f, "sql parse error: {msg}"),
            DbError::SqlBind(msg) => write!(f, "sql bind error: {msg}"),
            DbError::Eval(msg) => write!(f, "evaluation error: {msg}"),
            DbError::Txn(msg) => write!(f, "transaction error: {msg}"),
            DbError::Backpressure { pending, capacity } => write!(
                f,
                "backpressure: delta backlog full ({pending}/{capacity}); consumer must ack before more writes"
            ),
        }
    }
}

impl DbError {
    /// Whether a bounded retry is expected to succeed. `Interrupted` I/O
    /// errors are transient by POSIX semantics; everything else permanent.
    pub fn is_transient(&self) -> bool {
        match self {
            DbError::Transient(_) => true,
            DbError::Io(e) => e.kind() == io::ErrorKind::Interrupted,
            _ => false,
        }
    }
}

impl std::error::Error for DbError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DbError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for DbError {
    fn from(e: io::Error) -> DbError {
        DbError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = DbError::RecordNotFound { page: 3, slot: 7 };
        assert_eq!(e.to_string(), "record not found: page 3 slot 7");
        let e = DbError::TypeMismatch {
            expected: "INT".into(),
            found: "TEXT".into(),
        };
        assert!(e.to_string().contains("expected INT"));
    }

    #[test]
    fn transient_classification() {
        assert!(DbError::Transient("spurious EIO".into()).is_transient());
        assert!(DbError::Io(io::Error::new(io::ErrorKind::Interrupted, "eintr")).is_transient());
        assert!(!DbError::Io(io::Error::new(io::ErrorKind::NotFound, "gone")).is_transient());
        assert!(!DbError::Corruption("bad crc".into()).is_transient());
        assert!(DbError::Transient("x".into())
            .to_string()
            .contains("transient"));
    }

    #[test]
    fn backpressure_is_typed_and_permanent() {
        // It does not clear on a blind retry of the same call: the producer
        // must wait for acks. `retry_transient` must not spin on it.
        let e = DbError::Backpressure {
            pending: 128,
            capacity: 128,
        };
        assert!(!e.is_transient());
        assert!(e.to_string().contains("128/128"));
    }

    #[test]
    fn io_errors_convert_and_chain() {
        let io = io::Error::new(io::ErrorKind::NotFound, "gone");
        let e: DbError = io.into();
        assert!(std::error::Error::source(&e).is_some());
    }
}
