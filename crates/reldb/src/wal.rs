//! The write-ahead log.
//!
//! A [`Wal`] is a checksummed, group-committed log of opaque byte
//! payloads. It has two clients, each with its own payload codec:
//!
//! * the database uses *logical* logging: every DDL statement and every
//!   committed row mutation since the last checkpoint is recorded as an
//!   encoded [`WalRecord`], and replayed through the normal heap/catalog
//!   code paths on recovery (see [`crate::db::Database::open`]). A
//!   checkpoint flushes all pages, snapshots the catalog, and starts the
//!   next generation's empty log ([`Wal::create`]);
//! * the monitor's delta log (`qpv_core::deltalog`) records one encoded
//!   population delta per frame, and starts a fresh log at every snapshot
//!   rotation the same way.
//!
//! ## Frame format
//!
//! ```text
//! [len: u32 LE][crc32(lsn ‖ payload): u32 LE][lsn: u64 LE][payload bytes]
//! ```
//!
//! A torn tail (crash mid-append) is detected by length/checksum validation
//! and cleanly ignored: replay stops at the first invalid frame, which is
//! exactly the prefix-durability WAL semantics require. The next durable
//! write cuts the invalid bytes off before it appends, so frames committed
//! after a recovery land where later replays reach them. A write that
//! fails with an I/O error is treated the same way: its batch stays
//! pending, and the retry first cuts whatever part of it reached the file.
//!
//! The log counts its valid durable bytes as it writes them
//! ([`Wal::durable_len`]); the database's automatic checkpoint reads that
//! count at every write transaction without a syscall.
//!
//! ## LSNs
//!
//! Every frame carries the **log sequence number** of the commit boundary
//! it belongs to: all frames buffered between two `sync` calls share one
//! LSN (`end_lsn + 1`), and a successful sync advances `end_lsn` to it.
//! The LSN is covered by the frame checksum, so a torn or bit-flipped LSN
//! ends replay exactly like a torn payload. LSNs only order commit
//! boundaries: the engine has one writer and no concurrent readers, so
//! nothing resolves reads against them. The counter is monotone for the
//! lifetime of the `Wal` value, and across checkpoints: truncation
//! empties the log but never rewinds `end_lsn`, and the next
//! generation's log inherits the clock ([`Wal::inherit_lsn`]).

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

use bytes::{Buf, BufMut};

use crate::disk::sync_dir;
use crate::encoding::{get_varint, put_varint};
use crate::error::{DbError, DbResult};
use crate::fault::{crash_error, FaultDecision, FaultInjector, FaultOp};
use crate::row::RowId;
use crate::schema::{Column, Schema};
use crate::types::DataType;

/// CRC-32 (IEEE 802.3, reflected) lookup tables, built at compile time.
/// `CRC_TABLES[0]` is the classic byte-at-a-time table; tables 1..8
/// extend it for slicing-by-8, which processes 8 input bytes per step —
/// the same polynomial and the same output as the byte loop, but ~6×
/// the throughput, which matters once whole population snapshots (tens
/// of MB) are checksummed on the recovery path, not just WAL frames.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xedb8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
};

/// CRC-32 checksum of `bytes` (slicing-by-8).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xffff_ffffu32;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = CRC_TABLES[7][(lo & 0xff) as usize]
            ^ CRC_TABLES[6][((lo >> 8) & 0xff) as usize]
            ^ CRC_TABLES[5][((lo >> 16) & 0xff) as usize]
            ^ CRC_TABLES[4][(lo >> 24) as usize]
            ^ CRC_TABLES[3][(hi & 0xff) as usize]
            ^ CRC_TABLES[2][((hi >> 8) & 0xff) as usize]
            ^ CRC_TABLES[1][((hi >> 16) & 0xff) as usize]
            ^ CRC_TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ b as u32) & 0xff) as usize];
    }
    !crc
}

/// One logical log record.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A transaction started.
    Begin {
        /// Transaction id.
        txn: u64,
    },
    /// A transaction committed; its mutations are durable.
    Commit {
        /// Transaction id.
        txn: u64,
    },
    /// A transaction aborted; its mutations must not be replayed.
    Abort {
        /// Transaction id.
        txn: u64,
    },
    /// A row was inserted.
    Insert {
        /// Owning transaction.
        txn: u64,
        /// Target table id.
        table: u32,
        /// Where the row landed at runtime (replay may relocate it).
        rid: RowId,
        /// Encoded row bytes.
        bytes: Vec<u8>,
    },
    /// A row was deleted.
    Delete {
        /// Owning transaction.
        txn: u64,
        /// Target table id.
        table: u32,
        /// The deleted row's address.
        rid: RowId,
    },
    /// A row was replaced.
    Update {
        /// Owning transaction.
        txn: u64,
        /// Target table id.
        table: u32,
        /// The row's address before the update.
        rid: RowId,
        /// The new encoded row bytes.
        bytes: Vec<u8>,
    },
    /// DDL: a table was created (auto-committed).
    CreateTable {
        /// Table name.
        name: String,
        /// Column definitions.
        schema: Schema,
    },
    /// DDL: an index was created (auto-committed).
    CreateIndex {
        /// Index name.
        name: String,
        /// Table name (names survive replay; ids may not).
        table: String,
        /// Indexed column positions, in key order.
        columns: Vec<u32>,
    },
    /// DDL: a table (and its indexes) was dropped.
    DropTable {
        /// Table name.
        name: String,
    },
    /// DDL: an index was dropped.
    DropIndex {
        /// Index name.
        name: String,
    },
}

/// Append a length-prefixed UTF-8 string.
pub fn put_string(buf: &mut Vec<u8>, s: &str) {
    put_varint(buf, s.len() as u64);
    buf.put_slice(s.as_bytes());
}

/// Read a string written by [`put_string`].
pub fn get_string(buf: &mut &[u8]) -> DbResult<String> {
    let len = get_varint(buf)? as usize;
    if buf.remaining() < len {
        return Err(DbError::Corruption("truncated string in wal".into()));
    }
    let s = String::from_utf8(buf[..len].to_vec())
        .map_err(|_| DbError::Corruption("invalid utf-8 in wal".into()))?;
    buf.advance(len);
    Ok(s)
}

/// Append a length-prefixed byte blob.
pub fn put_blob(buf: &mut Vec<u8>, b: &[u8]) {
    put_varint(buf, b.len() as u64);
    buf.put_slice(b);
}

/// Read a blob written by [`put_blob`].
pub fn get_blob(buf: &mut &[u8]) -> DbResult<Vec<u8>> {
    let len = get_varint(buf)? as usize;
    if buf.remaining() < len {
        return Err(DbError::Corruption("truncated blob in wal".into()));
    }
    let b = buf[..len].to_vec();
    buf.advance(len);
    Ok(b)
}

fn put_rid(buf: &mut Vec<u8>, rid: RowId) {
    put_varint(buf, rid.page);
    put_varint(buf, rid.slot as u64);
}

fn get_rid(buf: &mut &[u8]) -> DbResult<RowId> {
    let page = get_varint(buf)?;
    let slot = get_varint(buf)? as u16;
    Ok(RowId::new(page, slot))
}

fn dtype_tag(t: DataType) -> u8 {
    match t {
        DataType::Bool => 0,
        DataType::Int => 1,
        DataType::Float => 2,
        DataType::Text => 3,
        DataType::Bytes => 4,
    }
}

fn dtype_from_tag(tag: u8) -> DbResult<DataType> {
    Ok(match tag {
        0 => DataType::Bool,
        1 => DataType::Int,
        2 => DataType::Float,
        3 => DataType::Text,
        4 => DataType::Bytes,
        other => return Err(DbError::Corruption(format!("bad dtype tag {other}"))),
    })
}

/// Encode a schema for the log / catalog snapshot.
pub fn put_schema(buf: &mut Vec<u8>, schema: &Schema) {
    put_varint(buf, schema.arity() as u64);
    for col in schema.columns() {
        put_string(buf, &col.name);
        buf.put_u8(dtype_tag(col.dtype));
        buf.put_u8(col.nullable as u8);
    }
}

/// Decode a schema written by [`put_schema`].
pub fn get_schema(buf: &mut &[u8]) -> DbResult<Schema> {
    let n = get_varint(buf)? as usize;
    if n > 4096 {
        return Err(DbError::Corruption(format!("schema claims {n} columns")));
    }
    let mut columns = Vec::with_capacity(n);
    for _ in 0..n {
        let name = get_string(buf)?;
        if buf.remaining() < 2 {
            return Err(DbError::Corruption("truncated column in wal".into()));
        }
        let dtype = dtype_from_tag(buf.get_u8())?;
        let nullable = buf.get_u8() != 0;
        columns.push(if nullable {
            Column::nullable(name, dtype)
        } else {
            Column::new(name, dtype)
        });
    }
    Schema::new(columns)
}

impl WalRecord {
    const T_BEGIN: u8 = 1;
    const T_COMMIT: u8 = 2;
    const T_ABORT: u8 = 3;
    const T_INSERT: u8 = 4;
    const T_DELETE: u8 = 5;
    const T_UPDATE: u8 = 6;
    const T_CREATE_TABLE: u8 = 7;
    const T_CREATE_INDEX: u8 = 8;
    const T_DROP_TABLE: u8 = 9;
    const T_DROP_INDEX: u8 = 10;

    /// Serialise as frame payload bytes, appended to `buf`.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        match self {
            WalRecord::Begin { txn } => {
                buf.put_u8(Self::T_BEGIN);
                put_varint(buf, *txn);
            }
            WalRecord::Commit { txn } => {
                buf.put_u8(Self::T_COMMIT);
                put_varint(buf, *txn);
            }
            WalRecord::Abort { txn } => {
                buf.put_u8(Self::T_ABORT);
                put_varint(buf, *txn);
            }
            WalRecord::Insert {
                txn,
                table,
                rid,
                bytes,
            } => {
                buf.put_u8(Self::T_INSERT);
                put_varint(buf, *txn);
                put_varint(buf, *table as u64);
                put_rid(buf, *rid);
                put_blob(buf, bytes);
            }
            WalRecord::Delete { txn, table, rid } => {
                buf.put_u8(Self::T_DELETE);
                put_varint(buf, *txn);
                put_varint(buf, *table as u64);
                put_rid(buf, *rid);
            }
            WalRecord::Update {
                txn,
                table,
                rid,
                bytes,
            } => {
                buf.put_u8(Self::T_UPDATE);
                put_varint(buf, *txn);
                put_varint(buf, *table as u64);
                put_rid(buf, *rid);
                put_blob(buf, bytes);
            }
            WalRecord::CreateTable { name, schema } => {
                buf.put_u8(Self::T_CREATE_TABLE);
                put_string(buf, name);
                put_schema(buf, schema);
            }
            WalRecord::CreateIndex {
                name,
                table,
                columns,
            } => {
                buf.put_u8(Self::T_CREATE_INDEX);
                put_string(buf, name);
                put_string(buf, table);
                put_varint(buf, columns.len() as u64);
                for &c in columns {
                    put_varint(buf, c as u64);
                }
            }
            WalRecord::DropTable { name } => {
                buf.put_u8(Self::T_DROP_TABLE);
                put_string(buf, name);
            }
            WalRecord::DropIndex { name } => {
                buf.put_u8(Self::T_DROP_INDEX);
                put_string(buf, name);
            }
        }
    }

    /// Deserialise from frame payload bytes.
    pub fn decode(mut payload: &[u8]) -> DbResult<WalRecord> {
        let buf = &mut payload;
        if !buf.has_remaining() {
            return Err(DbError::Corruption("empty wal record".into()));
        }
        let tag = buf.get_u8();
        let record = match tag {
            Self::T_BEGIN => WalRecord::Begin {
                txn: get_varint(buf)?,
            },
            Self::T_COMMIT => WalRecord::Commit {
                txn: get_varint(buf)?,
            },
            Self::T_ABORT => WalRecord::Abort {
                txn: get_varint(buf)?,
            },
            Self::T_INSERT => WalRecord::Insert {
                txn: get_varint(buf)?,
                table: get_varint(buf)? as u32,
                rid: get_rid(buf)?,
                bytes: get_blob(buf)?,
            },
            Self::T_DELETE => WalRecord::Delete {
                txn: get_varint(buf)?,
                table: get_varint(buf)? as u32,
                rid: get_rid(buf)?,
            },
            Self::T_UPDATE => WalRecord::Update {
                txn: get_varint(buf)?,
                table: get_varint(buf)? as u32,
                rid: get_rid(buf)?,
                bytes: get_blob(buf)?,
            },
            Self::T_CREATE_TABLE => WalRecord::CreateTable {
                name: get_string(buf)?,
                schema: get_schema(buf)?,
            },
            Self::T_CREATE_INDEX => {
                let name = get_string(buf)?;
                let table = get_string(buf)?;
                let n_cols = get_varint(buf)? as usize;
                if n_cols > 1 << 10 {
                    return Err(DbError::Corruption("absurd index column count".into()));
                }
                let mut columns = Vec::with_capacity(n_cols);
                for _ in 0..n_cols {
                    columns.push(get_varint(buf)? as u32);
                }
                WalRecord::CreateIndex {
                    name,
                    table,
                    columns,
                }
            }
            Self::T_DROP_TABLE => WalRecord::DropTable {
                name: get_string(buf)?,
            },
            Self::T_DROP_INDEX => WalRecord::DropIndex {
                name: get_string(buf)?,
            },
            other => {
                return Err(DbError::Corruption(format!("unknown wal tag {other}")));
            }
        };
        if buf.has_remaining() {
            return Err(DbError::Corruption("trailing bytes in wal record".into()));
        }
        Ok(record)
    }
}

/// Bytes of frame header: length, checksum and LSN.
const FRAME_HEADER: usize = 16;

/// Write `bytes` at offset `at` and fsync, first cutting the file back to
/// `at` when `cut` says bytes past it are stale.
fn write_at(file: &mut File, at: u64, cut: bool, bytes: &[u8]) -> std::io::Result<()> {
    if cut {
        file.set_len(at)?;
    }
    file.seek(SeekFrom::Start(at))?;
    file.write_all(bytes)?;
    file.sync_data()
}

enum WalBackend {
    Memory(Vec<u8>),
    File(File),
}

/// An append-only, checksummed record log.
pub struct Wal {
    backend: WalBackend,
    /// Appended frames since the last sync, for group commit.
    pending: Vec<u8>,
    /// The log file's path (durable backend only), for directory syncs.
    path: Option<std::path::PathBuf>,
    /// Failpoints for deterministic fault injection (tests / torture runs).
    injector: Option<FaultInjector>,
    /// LSN of the newest durably synced commit boundary. Frames appended
    /// since then carry `end_lsn + 1`; a successful [`Wal::sync`] with a
    /// non-empty batch advances this. Monotone for the life of the value.
    end_lsn: u64,
    /// Bytes of valid, durably synced frames: where the next batch lands.
    /// Kept in step with every write, so reading it costs no syscall.
    durable: u64,
    /// Whether bytes past `durable` sit in the file (a torn or corrupt
    /// tail [`Wal::replay`] stopped at). The next durable write cuts them
    /// off first; appending behind them would hide the new frames from
    /// every later replay.
    stale_tail: bool,
}

impl Wal {
    /// A volatile in-memory log (used by [`crate::db::Database::in_memory`];
    /// exercises the same code paths as the file log).
    pub fn in_memory() -> Wal {
        Wal {
            backend: WalBackend::Memory(Vec::new()),
            pending: Vec::new(),
            path: None,
            injector: None,
            end_lsn: 0,
            durable: 0,
            stale_tail: false,
        }
    }

    /// Open (or create) a log file at `path`.
    pub fn open(path: impl AsRef<Path>) -> DbResult<Wal> {
        Wal::open_with(path, None)
    }

    /// Open (or create) a log file at `path`, routing every durable op
    /// (sync, truncate, replay) through `injector`'s failpoints. When the
    /// file is newly created, the parent directory is fsynced so the
    /// creation itself is durable.
    pub fn open_with(path: impl AsRef<Path>, injector: Option<FaultInjector>) -> DbResult<Wal> {
        let path = path.as_ref();
        let created = !path.exists();
        let wal = Wal::open_file(path, injector)?;
        if created {
            sync_dir(path)?;
        }
        Ok(wal)
    }

    /// Create a fresh, empty, durable log at `path`: open it, then
    /// [`Wal::truncate`] it through its failpoint, which fsyncs the file
    /// and its directory. Bytes a crashed earlier attempt left under the
    /// name are discarded. This is how a new generation's log starts, for
    /// the database checkpoint and the delta log's rotation alike.
    pub fn create(path: impl AsRef<Path>, injector: Option<FaultInjector>) -> DbResult<Wal> {
        let mut wal = Wal::open_file(path.as_ref(), injector)?;
        wal.truncate()?;
        Ok(wal)
    }

    fn open_file(path: &Path, injector: Option<FaultInjector>) -> DbResult<Wal> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let durable = file.metadata()?.len();
        Ok(Wal {
            backend: WalBackend::File(file),
            pending: Vec::new(),
            path: Some(path.to_path_buf()),
            injector,
            end_lsn: 0,
            durable,
            stale_tail: false,
        })
    }

    /// Append one frame whose payload `encode` writes, stamped with the
    /// in-flight batch's LSN (`end_lsn + 1`). Buffered until [`Wal::sync`].
    /// The payload is encoded straight into the pending buffer behind a
    /// placeholder header; its length and checksum are patched in last.
    pub fn append(&mut self, encode: impl FnOnce(&mut Vec<u8>)) {
        let start = self.pending.len();
        self.pending.put_u32_le(0);
        self.pending.put_u32_le(0);
        self.pending.put_u64_le(self.end_lsn + 1);
        encode(&mut self.pending);
        let len = (self.pending.len() - start - FRAME_HEADER) as u32;
        self.pending[start..start + 4].copy_from_slice(&len.to_le_bytes());
        let crc = crc32(&self.pending[start + 8..]);
        self.pending[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
    }

    /// LSN of the newest durable commit boundary.
    pub fn end_lsn(&self) -> u64 {
        self.end_lsn
    }

    /// The LSN the in-flight (unsynced) batch will commit as.
    pub fn next_lsn(&self) -> u64 {
        self.end_lsn + 1
    }

    /// Carry an LSN clock forward into this (fresh) log. A checkpoint
    /// swaps in the next generation's empty WAL; commit boundaries stay
    /// monotone for the process lifetime, so the new log inherits the old
    /// one's clock rather than restarting at 0.
    pub fn inherit_lsn(&mut self, end_lsn: u64) {
        self.end_lsn = self.end_lsn.max(end_lsn);
    }

    /// Durably write all appended frames.
    ///
    /// The pending batch is cleared only once it is written and fsynced.
    /// On a transient injected fault nothing is written; on an I/O error
    /// the file may hold part of the batch, which the next write cuts off.
    /// Either way the batch is retained, so a retried `sync` persists the
    /// complete batch exactly once — retrying is always safe. A torn fault
    /// persists a deterministic byte prefix of the batch (a real
    /// power-loss torn tail), drops the batch and crash-stops the
    /// injector.
    pub fn sync(&mut self) -> DbResult<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        if let Some(injector) = &self.injector {
            match injector.check(FaultOp::WalSync, self.pending.len()) {
                FaultDecision::Proceed => {}
                FaultDecision::Torn { keep } => {
                    self.write_durable(keep)?;
                    self.pending.clear();
                    return Err(crash_error(FaultOp::WalSync));
                }
                // Pending is retained: the op was not performed.
                FaultDecision::Fail(e) => return Err(e),
            }
        }
        self.write_durable(self.pending.len())?;
        // Drop the buffer, not just its bytes: a bulk batch's capacity
        // should not stay pinned for the life of the log.
        self.pending = Vec::new();
        self.end_lsn += 1;
        Ok(())
    }

    /// Write the first `len` pending bytes after the log's last valid
    /// frame, and fsync. A failed write marks the tail stale, so the next
    /// one starts by cutting the file back to its valid prefix.
    fn write_durable(&mut self, len: usize) -> DbResult<()> {
        let bytes = &self.pending[..len];
        match &mut self.backend {
            WalBackend::Memory(buf) => {
                buf.truncate(self.durable as usize);
                buf.extend_from_slice(bytes);
            }
            WalBackend::File(file) => {
                let written = write_at(file, self.durable, self.stale_tail, bytes);
                self.stale_tail = written.is_err();
                written?;
            }
        }
        self.durable += len as u64;
        Ok(())
    }

    /// Hand every valid frame, from the start of the log, to `visit` as
    /// `(lsn, payload)`. Stops cleanly at a torn tail: frames after the
    /// first invalid one were never acknowledged as durable, so ignoring
    /// them is exactly prefix durability. An error from `visit` ends the
    /// replay with that error.
    ///
    /// As a side effect, `end_lsn` advances to the newest LSN seen among
    /// valid frames, so LSNs assigned after recovery continue the sequence.
    pub fn replay(&mut self, mut visit: impl FnMut(u64, &[u8]) -> DbResult<()>) -> DbResult<()> {
        if let Some(injector) = &self.injector {
            match injector.check(FaultOp::WalReplay, 0) {
                FaultDecision::Proceed => {}
                FaultDecision::Torn { .. } => unreachable!("replay carries no write bytes"),
                FaultDecision::Fail(e) => return Err(e),
            }
        }
        let bytes = match &mut self.backend {
            WalBackend::Memory(buf) => buf.clone(),
            WalBackend::File(file) => {
                let mut buf = Vec::new();
                file.seek(SeekFrom::Start(0))?;
                file.read_to_end(&mut buf)?;
                buf
            }
        };
        let mut slice = bytes.as_slice();
        while slice.len() >= FRAME_HEADER {
            let len = u32::from_le_bytes([slice[0], slice[1], slice[2], slice[3]]) as usize;
            let crc = u32::from_le_bytes([slice[4], slice[5], slice[6], slice[7]]);
            if slice.len() < FRAME_HEADER + len {
                break; // torn tail
            }
            let checked = &slice[8..FRAME_HEADER + len];
            if crc32(checked) != crc {
                break; // torn/corrupt tail
            }
            let lsn = u64::from_le_bytes(checked[..8].try_into().unwrap());
            visit(lsn, &checked[8..])?;
            self.end_lsn = self.end_lsn.max(lsn);
            slice = &slice[FRAME_HEADER + len..];
        }
        self.durable = (bytes.len() - slice.len()) as u64;
        self.stale_tail = !slice.is_empty();
        Ok(())
    }

    /// Discard the log contents (after a checkpoint made them redundant).
    ///
    /// On a transient injected fault nothing is discarded, so a retry
    /// performs the complete truncation.
    pub fn truncate(&mut self) -> DbResult<()> {
        if let Some(injector) = &self.injector {
            match injector.check(FaultOp::WalTruncate, 0) {
                FaultDecision::Proceed => {}
                FaultDecision::Torn { .. } => unreachable!("truncate carries no write bytes"),
                FaultDecision::Fail(e) => return Err(e),
            }
        }
        self.pending.clear();
        match &mut self.backend {
            WalBackend::Memory(buf) => buf.clear(),
            WalBackend::File(file) => {
                file.set_len(0)?;
                file.sync_data()?;
                if let Some(path) = &self.path {
                    sync_dir(path)?;
                }
            }
        }
        self.durable = 0;
        self.stale_tail = false;
        Ok(())
    }

    /// Bytes of valid frames durably in the log, counted as they are
    /// written (no syscall): what the automatic checkpoint rule reads.
    /// Before the first [`Wal::replay`] of an opened file this is the
    /// file's length, torn tail included.
    pub fn durable_len(&self) -> u64 {
        self.durable
    }

    /// Bytes in the log's medium, stale tail included (diagnostics).
    pub fn len(&self) -> u64 {
        match &self.backend {
            WalBackend::Memory(buf) => buf.len() as u64,
            WalBackend::File(file) => file.metadata().map(|m| m.len()).unwrap_or(0),
        }
    }

    /// Whether the durable log is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::SchemaBuilder;

    /// Every valid frame's LSN and decoded record, in log order.
    fn frames(wal: &mut Wal) -> Vec<(u64, WalRecord)> {
        let mut frames = Vec::new();
        wal.replay(|lsn, payload| {
            frames.push((lsn, WalRecord::decode(payload)?));
            Ok(())
        })
        .unwrap();
        frames
    }

    /// `record`'s frame payload bytes.
    fn encoded(record: &WalRecord) -> Vec<u8> {
        let mut buf = Vec::new();
        record.encode_into(&mut buf);
        buf
    }

    /// Every valid frame's decoded record, in log order.
    fn records(wal: &mut Wal) -> Vec<WalRecord> {
        frames(wal).into_iter().map(|(_, r)| r).collect()
    }

    #[test]
    fn crc32_matches_reference_vectors() {
        // IEEE 802.3 check value, plus lengths that exercise every
        // combination of 8-byte slices and remainder bytes.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
        let bytes: Vec<u8> = (0..64u32).map(|i| (i * 37 + 11) as u8).collect();
        for len in 0..bytes.len() {
            // Byte-at-a-time oracle over the same table.
            let mut crc = 0xffff_ffffu32;
            for &b in &bytes[..len] {
                crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ b as u32) & 0xff) as usize];
            }
            assert_eq!(crc32(&bytes[..len]), !crc, "len {len}");
        }
    }

    fn sample_records() -> Vec<WalRecord> {
        let schema = SchemaBuilder::new()
            .column("id", DataType::Int)
            .nullable_column("note", DataType::Text)
            .build()
            .unwrap();
        vec![
            WalRecord::CreateTable {
                name: "t".into(),
                schema,
            },
            WalRecord::CreateIndex {
                name: "t_id".into(),
                table: "t".into(),
                columns: vec![0],
            },
            WalRecord::CreateIndex {
                name: "t_pair".into(),
                table: "t".into(),
                columns: vec![1, 0],
            },
            WalRecord::Begin { txn: 1 },
            WalRecord::Insert {
                txn: 1,
                table: 0,
                rid: RowId::new(3, 4),
                bytes: vec![1, 2, 3],
            },
            WalRecord::Update {
                txn: 1,
                table: 0,
                rid: RowId::new(3, 4),
                bytes: vec![9, 9],
            },
            WalRecord::Delete {
                txn: 1,
                table: 0,
                rid: RowId::new(3, 4),
            },
            WalRecord::Commit { txn: 1 },
            WalRecord::Begin { txn: 2 },
            WalRecord::Abort { txn: 2 },
            WalRecord::DropIndex {
                name: "t_id".into(),
            },
            WalRecord::DropTable { name: "t".into() },
        ]
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard test vector.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn records_encode_decode_round_trip() {
        for record in sample_records() {
            let bytes = encoded(&record);
            assert_eq!(WalRecord::decode(&bytes).unwrap(), record, "{record:?}");
        }
    }

    #[test]
    fn decode_rejects_trailing_and_unknown() {
        let mut bytes = encoded(&WalRecord::Begin { txn: 1 });
        bytes.push(0);
        assert!(WalRecord::decode(&bytes).is_err());
        assert!(WalRecord::decode(&[200]).is_err());
        assert!(WalRecord::decode(&[]).is_err());
    }

    #[test]
    fn memory_wal_append_sync_replay() {
        let mut wal = Wal::in_memory();
        for r in sample_records() {
            wal.append(|buf| r.encode_into(buf));
        }
        // Nothing durable before sync.
        assert!(records(&mut wal).is_empty());
        wal.sync().unwrap();
        assert_eq!(records(&mut wal), sample_records());
        wal.truncate().unwrap();
        assert!(records(&mut wal).is_empty());
        assert!(wal.is_empty());
    }

    /// A frame is `[len][crc32(lsn ‖ payload)][lsn][payload]`, with the
    /// length and checksum patched in after the payload is encoded.
    #[test]
    fn frame_is_len_crc_lsn_payload() {
        let record = WalRecord::Insert {
            txn: 3,
            table: 1,
            rid: RowId::new(2, 5),
            bytes: vec![4; 300],
        };
        let payload = encoded(&record);
        let mut checked = 1u64.to_le_bytes().to_vec();
        checked.extend_from_slice(&payload);
        let mut want = (payload.len() as u32).to_le_bytes().to_vec();
        want.extend_from_slice(&crc32(&checked).to_le_bytes());
        want.extend_from_slice(&checked);

        let mut wal = Wal::in_memory();
        wal.append(|buf| record.encode_into(buf));
        wal.append(|buf| record.encode_into(buf));
        wal.sync().unwrap();
        let WalBackend::Memory(bytes) = &wal.backend else {
            unreachable!("in-memory log")
        };
        assert_eq!(bytes[..want.len()], want[..]);
        assert_eq!(bytes[want.len()..], want[..]);
    }

    #[test]
    fn file_wal_survives_reopen_and_ignores_torn_tail() {
        let dir = std::env::temp_dir().join(format!("qpv-wal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.log");
        let _ = std::fs::remove_file(&path);
        {
            let mut wal = Wal::open(&path).unwrap();
            for r in sample_records() {
                wal.append(|buf| r.encode_into(buf));
            }
            wal.sync().unwrap();
        }
        // Simulate a crash mid-append: garbage half-frame at the tail.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[0x10, 0x00, 0x00, 0x00, 0xde, 0xad]).unwrap();
        }
        let mut wal = Wal::open(&path).unwrap();
        assert_eq!(records(&mut wal), sample_records());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn frames_written_after_a_torn_tail_survive_the_next_replay() {
        let dir = std::env::temp_dir().join(format!("qpv-wal-torn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal-torn.log");
        let _ = std::fs::remove_file(&path);
        let first = WalRecord::Begin { txn: 1 };
        let second = WalRecord::Commit { txn: 1 };
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.append(|buf| first.encode_into(buf));
            wal.sync().unwrap();
        }
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[0x10, 0x00, 0x00, 0x00, 0xde, 0xad]).unwrap();
        }
        {
            // Recover past the torn half-frame, then commit more.
            let mut wal = Wal::open(&path).unwrap();
            assert_eq!(records(&mut wal), vec![first.clone()]);
            let valid = wal.durable_len();
            wal.append(|buf| second.encode_into(buf));
            wal.sync().unwrap();
            assert_eq!(wal.len(), wal.durable_len());
            assert!(wal.durable_len() > valid);
        }
        // The new frame landed on the valid prefix, not behind the torn
        // bytes where replay would never reach it.
        let mut wal = Wal::open(&path).unwrap();
        assert_eq!(records(&mut wal), vec![first, second]);
        assert_eq!(wal.durable_len(), wal.len());
        std::fs::remove_file(&path).unwrap();
    }

    /// A sync whose write fails keeps its batch: the retry persists it
    /// exactly once, after the frames already durable.
    #[test]
    fn failed_write_keeps_the_batch_for_the_retry() {
        let dir = std::env::temp_dir().join(format!("qpv-wal-failed-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal-failed.log");
        let _ = std::fs::remove_file(&path);
        let first = WalRecord::Begin { txn: 1 };
        let second = WalRecord::Commit { txn: 1 };
        let mut wal = Wal::open(&path).unwrap();
        wal.append(|buf| first.encode_into(buf));
        wal.sync().unwrap();
        wal.append(|buf| second.encode_into(buf));
        // A read-only handle makes `write_all` fail.
        wal.backend = WalBackend::File(File::open(&path).unwrap());
        assert!(wal.sync().is_err());
        wal.backend = WalBackend::File(
            OpenOptions::new()
                .read(true)
                .write(true)
                .open(&path)
                .unwrap(),
        );
        wal.sync().unwrap();
        assert_eq!(wal.end_lsn(), 2);
        let mut reopened = Wal::open(&path).unwrap();
        assert_eq!(records(&mut reopened), vec![first, second]);
        assert_eq!(reopened.durable_len(), reopened.len());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn durable_len_counts_synced_bytes_without_a_syscall() {
        let mut wal = Wal::in_memory();
        assert_eq!(wal.durable_len(), 0);
        wal.append(|buf| WalRecord::Begin { txn: 1 }.encode_into(buf));
        assert_eq!(wal.durable_len(), 0, "pending frames are not durable");
        wal.sync().unwrap();
        assert_eq!(wal.durable_len(), wal.len());
        assert!(wal.durable_len() > 0);
        wal.truncate().unwrap();
        assert_eq!(wal.durable_len(), 0);
    }

    #[test]
    fn corrupted_payload_ends_replay() {
        let mut wal = Wal::in_memory();
        wal.append(|buf| WalRecord::Begin { txn: 1 }.encode_into(buf));
        wal.append(|buf| WalRecord::Commit { txn: 1 }.encode_into(buf));
        wal.sync().unwrap();
        // Flip a byte in the first frame's payload.
        if let WalBackend::Memory(buf) = &mut wal.backend {
            buf[9] ^= 0xff;
        }
        // Checksum catches it; replay returns the valid prefix (none).
        assert!(records(&mut wal).is_empty());
    }

    #[test]
    fn lsn_advances_per_commit_boundary_not_per_record() {
        let mut wal = Wal::in_memory();
        assert_eq!(wal.end_lsn(), 0);
        // One batch of three records = one boundary.
        wal.append(|buf| WalRecord::Begin { txn: 1 }.encode_into(buf));
        wal.append(|buf| {
            WalRecord::Insert {
                txn: 1,
                table: 0,
                rid: RowId::new(0, 0),
                bytes: vec![7],
            }
            .encode_into(buf)
        });
        wal.append(|buf| WalRecord::Commit { txn: 1 }.encode_into(buf));
        assert_eq!(wal.next_lsn(), 1);
        wal.sync().unwrap();
        assert_eq!(wal.end_lsn(), 1);
        // Empty sync is not a boundary.
        wal.sync().unwrap();
        assert_eq!(wal.end_lsn(), 1);
        // Second batch.
        wal.append(|buf| WalRecord::Begin { txn: 2 }.encode_into(buf));
        wal.append(|buf| WalRecord::Abort { txn: 2 }.encode_into(buf));
        wal.sync().unwrap();
        assert_eq!(wal.end_lsn(), 2);
        let frames = frames(&mut wal);
        assert_eq!(
            frames.iter().map(|(lsn, _)| *lsn).collect::<Vec<_>>(),
            vec![1, 1, 1, 2, 2]
        );
    }

    #[test]
    fn replay_recovers_end_lsn() {
        let dir = std::env::temp_dir().join(format!("qpv-wal-lsn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal-lsn.log");
        let _ = std::fs::remove_file(&path);
        {
            let mut wal = Wal::open(&path).unwrap();
            for txn in 1..=3u64 {
                wal.append(|buf| WalRecord::Begin { txn }.encode_into(buf));
                wal.append(|buf| WalRecord::Commit { txn }.encode_into(buf));
                wal.sync().unwrap();
            }
            assert_eq!(wal.end_lsn(), 3);
        }
        let mut wal = Wal::open(&path).unwrap();
        assert_eq!(wal.end_lsn(), 0, "fresh handle before replay");
        records(&mut wal);
        assert_eq!(wal.end_lsn(), 3, "replay restores the boundary counter");
        assert_eq!(wal.next_lsn(), 4);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn checksum_covers_the_lsn() {
        let mut wal = Wal::in_memory();
        wal.append(|buf| WalRecord::Begin { txn: 1 }.encode_into(buf));
        wal.append(|buf| WalRecord::Commit { txn: 1 }.encode_into(buf));
        wal.sync().unwrap();
        // Flip a byte inside the first frame's LSN field (header is
        // [len:4][crc:4][lsn:8]); the checksum must catch it.
        if let WalBackend::Memory(buf) = &mut wal.backend {
            buf[10] ^= 0xff;
        }
        assert!(records(&mut wal).is_empty());
    }

    #[test]
    fn truncate_preserves_lsn_monotonicity() {
        let mut wal = Wal::in_memory();
        wal.append(|buf| WalRecord::Begin { txn: 1 }.encode_into(buf));
        wal.append(|buf| WalRecord::Commit { txn: 1 }.encode_into(buf));
        wal.sync().unwrap();
        assert_eq!(wal.end_lsn(), 1);
        wal.truncate().unwrap();
        assert!(wal.is_empty());
        assert_eq!(wal.end_lsn(), 1, "checkpoint never rewinds the clock");
        wal.append(|buf| WalRecord::Begin { txn: 2 }.encode_into(buf));
        wal.append(|buf| WalRecord::Commit { txn: 2 }.encode_into(buf));
        wal.sync().unwrap();
        assert_eq!(wal.end_lsn(), 2);
    }

    #[test]
    fn inherited_lsn_clock_never_rewinds() {
        // A checkpoint's fresh log continues the old log's clock.
        let mut wal = Wal::in_memory();
        wal.inherit_lsn(5);
        assert_eq!(wal.end_lsn(), 5);
        wal.inherit_lsn(3);
        assert_eq!(wal.end_lsn(), 5, "inheriting an older clock is a no-op");
        wal.append(|buf| WalRecord::Begin { txn: 1 }.encode_into(buf));
        wal.append(|buf| WalRecord::Commit { txn: 1 }.encode_into(buf));
        wal.sync().unwrap();
        assert_eq!(wal.end_lsn(), 6);
        let frames = frames(&mut wal);
        assert!(frames.iter().all(|(lsn, _)| *lsn == 6));
    }

    #[test]
    fn schema_codec_round_trips() {
        let schema = SchemaBuilder::new()
            .column("a", DataType::Bool)
            .column("b", DataType::Float)
            .nullable_column("c", DataType::Bytes)
            .build()
            .unwrap();
        let mut buf = Vec::new();
        put_schema(&mut buf, &schema);
        let mut slice = buf.as_slice();
        assert_eq!(get_schema(&mut slice).unwrap(), schema);
        assert!(slice.is_empty());
    }
}
