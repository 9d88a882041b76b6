//! The durable delta log: restartable continuous monitoring (§10).
//!
//! An in-memory delta pipeline ([`crate::pop::PopulationDelta`] →
//! [`LiveViolationIndex`]) alone would fall back to a full `O(N)` rescan
//! on restart, and lose any delta in flight at crash time. This module
//! closes both gaps with the same machinery the relational engine
//! already trusts:
//!
//! * **[`DeltaLog`]** persists every applied delta as a checksummed
//!   frame — `[len: u32 LE][crc32(payload): u32 LE][payload]`, the exact
//!   `qpv_reldb::wal` frame format — group-committed with one fsync per
//!   [`DeltaLog::sync`]. Replay stops at the first invalid frame, so a
//!   torn tail degrades to prefix durability, never corruption.
//! * **Snapshots** bound the tail: [`DeltaLog::snapshot`] serialises the
//!   live [`CompiledPopulation`] — its SoA arrays dumped as bulk
//!   fixed-width little-endian runs, not per-profile structs — to a
//!   generation-numbered snapshot file, starts a fresh log, and atomically
//!   publishes the new generation by rewriting `CURRENT` (write-temp +
//!   fsync + rename + dir-sync — PR 3's checkpoint publish trick).
//!   Recovery = decode snapshot ⊕ replay tail through
//!   [`CompiledPopulation::apply_delta`]: `O(snapshot + tail)` at memcpy
//!   speed, with no profile re-assembly and no store rescan.
//! * **[`Monitor`]** is the §10 service loop on top: ingest deltas (e.g.
//!   `qpv_synth::workload::churn` batches), keep `P(W)` / `P(Default)` /
//!   `Violations` live through a [`LiveViolationIndex`] (the same
//!   maintained state SQL queries read), and raise α-certification
//!   alerts with hysteresis when a delta pushes the store out of
//!   compliance. The discipline is strictly log-ahead: a delta reaches
//!   the index only after the log has fsynced it, so the recovered state
//!   can never lag what the live monitor reported.
//!
//! Every durable op routes through the shared
//! [`qpv_reldb::fault::FaultInjector`] failpoints ([`FaultOp::DeltaSync`],
//! [`FaultOp::DeltaReplay`], [`FaultOp::DeltaTruncate`],
//! [`FaultOp::SnapshotWrite`], [`FaultOp::SnapshotPublish`],
//! [`FaultOp::SnapshotRead`]), so the crash-torture suite can kill the
//! log at every op index and assert recovery byte-for-byte
//! (`crates/core/tests/deltalog_torture.rs`).

use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use qpv_policy::{HousePolicy, ProviderId};
use qpv_reldb::disk::sync_dir;
use qpv_reldb::encoding::{get_varint, put_varint};
use qpv_reldb::error::{DbError, DbResult};
use qpv_reldb::fault::{crash_error, FaultDecision, FaultInjector, FaultOp};
use qpv_reldb::wal::{crc32, get_string, put_string};
use qpv_taxonomy::{Dim, PrivacyPoint, PrivacyTuple};

use crate::audit::AuditEngine;
use crate::liveindex::LiveViolationIndex;
use crate::pop::{CompiledPopulation, DeltaOp, PolicyOutcome, PopulationDelta};
use crate::profile::ProviderProfile;
use crate::sensitivity::{AttributeSensitivities, DatumSensitivity};

// ---------------------------------------------------------------------------
// Binary codec
//
// `DeltaOp` carries no serde derives (and the WAL style here is hand-rolled
// binary anyway), so deltas and profiles get a tag-based codec over the same
// primitives the relational WAL uses: LEB128 varints, length-prefixed
// strings, one leading `u8` tag per op.
// ---------------------------------------------------------------------------

const OP_UPSERT: u8 = 0;
const OP_REMOVE: u8 = 1;
const OP_SET_PREFS: u8 = 2;
const OP_SET_SENSITIVITY: u8 = 3;
const OP_SET_THRESHOLD: u8 = 4;

/// Snapshot file magic: `QPVS` little-endian.
const SNAP_MAGIC: u32 = u32::from_le_bytes(*b"QPVS");

fn get_u32(buf: &mut &[u8]) -> DbResult<u32> {
    u32::try_from(get_varint(buf)?)
        .map_err(|_| DbError::Corruption("delta-log value out of u32 range".into()))
}

fn put_point(buf: &mut Vec<u8>, p: &PrivacyPoint) {
    put_varint(buf, u64::from(p.get(Dim::Visibility)));
    put_varint(buf, u64::from(p.get(Dim::Granularity)));
    put_varint(buf, u64::from(p.get(Dim::Retention)));
}

fn get_point(buf: &mut &[u8]) -> DbResult<PrivacyPoint> {
    let v = get_u32(buf)?;
    let g = get_u32(buf)?;
    let r = get_u32(buf)?;
    Ok(PrivacyPoint::from_raw(v, g, r))
}

fn put_tuple(buf: &mut Vec<u8>, t: &PrivacyTuple) {
    put_string(buf, t.purpose.name());
    put_point(buf, &t.point);
}

fn get_tuple(buf: &mut &[u8]) -> DbResult<PrivacyTuple> {
    let purpose = get_string(buf)?;
    let point = get_point(buf)?;
    Ok(PrivacyTuple::from_point(purpose.as_str(), point))
}

fn put_sensitivity(buf: &mut Vec<u8>, s: &DatumSensitivity) {
    put_varint(buf, u64::from(s.value));
    put_varint(buf, u64::from(s.visibility));
    put_varint(buf, u64::from(s.granularity));
    put_varint(buf, u64::from(s.retention));
}

fn get_sensitivity(buf: &mut &[u8]) -> DbResult<DatumSensitivity> {
    let value = get_u32(buf)?;
    let vis = get_u32(buf)?;
    let gran = get_u32(buf)?;
    let ret = get_u32(buf)?;
    Ok(DatumSensitivity::new(value, vis, gran, ret))
}

fn put_profile(buf: &mut Vec<u8>, p: &ProviderProfile) {
    put_varint(buf, p.id().0);
    put_varint(buf, p.threshold);
    let tuples = p.preferences.tuples();
    put_varint(buf, tuples.len() as u64);
    for t in tuples {
        put_string(buf, &t.attribute);
        put_tuple(buf, &t.tuple);
    }
    // Sensitivities live in a HashMap; serialise in sorted-key order so
    // the same profile always encodes to the same bytes.
    let mut attrs: Vec<&String> = p.sensitivities.keys().collect();
    attrs.sort();
    put_varint(buf, attrs.len() as u64);
    for attr in attrs {
        put_string(buf, attr);
        put_sensitivity(buf, &p.sensitivities[attr]);
    }
}

fn get_profile(buf: &mut &[u8]) -> DbResult<ProviderProfile> {
    let id = ProviderId(get_varint(buf)?);
    let threshold = get_varint(buf)?;
    let mut profile = ProviderProfile::new(id, threshold);
    let tuples = get_varint(buf)?;
    for _ in 0..tuples {
        let attribute = get_string(buf)?;
        let tuple = get_tuple(buf)?;
        profile.preferences.add(attribute, tuple);
    }
    let sens = get_varint(buf)?;
    for _ in 0..sens {
        let attribute = get_string(buf)?;
        let s = get_sensitivity(buf)?;
        profile.sensitivities.insert(attribute, s);
    }
    Ok(profile)
}

fn put_op(buf: &mut Vec<u8>, op: &DeltaOp) {
    match op {
        DeltaOp::Upsert(p) => {
            buf.push(OP_UPSERT);
            put_profile(buf, p);
        }
        DeltaOp::Remove(id) => {
            buf.push(OP_REMOVE);
            put_varint(buf, id.0);
        }
        DeltaOp::SetAttributePrefs {
            id,
            attribute,
            tuples,
        } => {
            buf.push(OP_SET_PREFS);
            put_varint(buf, id.0);
            put_string(buf, attribute);
            put_varint(buf, tuples.len() as u64);
            for t in tuples {
                put_tuple(buf, t);
            }
        }
        DeltaOp::SetSensitivity {
            id,
            attribute,
            sensitivity,
        } => {
            buf.push(OP_SET_SENSITIVITY);
            put_varint(buf, id.0);
            put_string(buf, attribute);
            put_sensitivity(buf, sensitivity);
        }
        DeltaOp::SetThreshold { id, threshold } => {
            buf.push(OP_SET_THRESHOLD);
            put_varint(buf, id.0);
            put_varint(buf, *threshold);
        }
    }
}

fn get_op(buf: &mut &[u8]) -> DbResult<DeltaOp> {
    let Some((&tag, rest)) = buf.split_first() else {
        return Err(DbError::Corruption("truncated delta op".into()));
    };
    *buf = rest;
    match tag {
        OP_UPSERT => Ok(DeltaOp::Upsert(get_profile(buf)?)),
        OP_REMOVE => Ok(DeltaOp::Remove(ProviderId(get_varint(buf)?))),
        OP_SET_PREFS => {
            let id = ProviderId(get_varint(buf)?);
            let attribute = get_string(buf)?;
            let n = get_varint(buf)?;
            let mut tuples = Vec::with_capacity(n.min(1024) as usize);
            for _ in 0..n {
                tuples.push(get_tuple(buf)?);
            }
            Ok(DeltaOp::SetAttributePrefs {
                id,
                attribute,
                tuples,
            })
        }
        OP_SET_SENSITIVITY => {
            let id = ProviderId(get_varint(buf)?);
            let attribute = get_string(buf)?;
            let sensitivity = get_sensitivity(buf)?;
            Ok(DeltaOp::SetSensitivity {
                id,
                attribute,
                sensitivity,
            })
        }
        OP_SET_THRESHOLD => {
            let id = ProviderId(get_varint(buf)?);
            let threshold = get_varint(buf)?;
            Ok(DeltaOp::SetThreshold { id, threshold })
        }
        other => Err(DbError::Corruption(format!(
            "unknown delta op tag {other:#x}"
        ))),
    }
}

fn encode_delta(delta: &PopulationDelta) -> Vec<u8> {
    let mut buf = Vec::new();
    put_varint(&mut buf, delta.len() as u64);
    for op in delta.ops() {
        put_op(&mut buf, op);
    }
    buf
}

fn decode_delta(mut payload: &[u8]) -> DbResult<PopulationDelta> {
    let buf = &mut payload;
    let n = get_varint(buf)?;
    let mut delta = PopulationDelta::new();
    for _ in 0..n {
        delta.push(get_op(buf)?);
    }
    if !buf.is_empty() {
        return Err(DbError::Corruption(
            "trailing bytes after delta frame".into(),
        ));
    }
    Ok(delta)
}

// ---------------------------------------------------------------------------
// Paths and generation publish
// ---------------------------------------------------------------------------

/// Path of the generation pointer file inside a delta-log directory.
pub fn current_path(dir: &Path) -> PathBuf {
    dir.join("CURRENT")
}

/// Path of generation `g`'s population snapshot.
pub fn snapshot_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("pop.{generation}.snap"))
}

/// Path of generation `g`'s delta log file.
pub fn log_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("deltas.{generation}.log"))
}

/// The published generation, or `None` when the directory was never
/// initialised (no `CURRENT` file).
pub fn read_current(dir: &Path) -> DbResult<Option<u64>> {
    let path = current_path(dir);
    if !path.exists() {
        return Ok(None);
    }
    let text = std::fs::read_to_string(&path)?;
    let g = text
        .trim()
        .parse::<u64>()
        .map_err(|_| DbError::Corruption(format!("bad CURRENT contents: {text:?}")))?;
    Ok(Some(g))
}

fn check_failpoint(injector: &Option<FaultInjector>, op: FaultOp) -> DbResult<()> {
    if let Some(injector) = injector {
        match injector.check(op, 0) {
            FaultDecision::Proceed => {}
            FaultDecision::Torn { .. } => unreachable!("{op:?} carries no write bytes"),
            FaultDecision::Fail(e) => return Err(e),
        }
    }
    Ok(())
}

/// Durably write generation `g`'s snapshot file: magic + CRC + the
/// compiled population's SoA payload
/// ([`CompiledPopulation::encode_snapshot`] — bulk fixed-width arrays, so
/// recovery decodes at memcpy speed instead of re-assembling profile
/// structs), written under its final (unpublished) name and fsynced. A
/// torn write leaves a prefix under a name no `CURRENT` points at, so
/// recovery never sees it.
fn write_snapshot_file(
    dir: &Path,
    generation: u64,
    pop: &CompiledPopulation,
    injector: &Option<FaultInjector>,
) -> DbResult<()> {
    let mut payload = Vec::new();
    pop.encode_snapshot(&mut payload);
    let mut bytes = Vec::with_capacity(payload.len() + 8);
    bytes.extend_from_slice(&SNAP_MAGIC.to_le_bytes());
    bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
    bytes.extend_from_slice(&payload);

    let path = snapshot_path(dir, generation);
    let mut keep = bytes.len();
    let mut torn = false;
    if let Some(injector) = injector {
        match injector.check(FaultOp::SnapshotWrite, bytes.len()) {
            FaultDecision::Proceed => {}
            FaultDecision::Torn { keep: k } => {
                keep = k;
                torn = true;
            }
            FaultDecision::Fail(e) => return Err(e),
        }
    }
    let mut file = File::create(&path)?;
    file.write_all(&bytes[..keep])?;
    file.sync_all()?;
    sync_dir(&path)?;
    if torn {
        return Err(crash_error(FaultOp::SnapshotWrite));
    }
    Ok(())
}

/// Read and validate generation `g`'s snapshot. Published snapshots were
/// durable before `CURRENT` swung, so any mismatch here is real corruption,
/// not a tolerable torn tail.
fn read_snapshot_file(
    dir: &Path,
    generation: u64,
    injector: &Option<FaultInjector>,
) -> DbResult<CompiledPopulation> {
    check_failpoint(injector, FaultOp::SnapshotRead)?;
    let bytes = std::fs::read(snapshot_path(dir, generation))?;
    if bytes.len() < 8 || bytes[..4] != SNAP_MAGIC.to_le_bytes() {
        return Err(DbError::Corruption(format!(
            "snapshot {generation} has no valid header"
        )));
    }
    let crc = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
    let payload = &bytes[8..];
    if crc32(payload) != crc {
        return Err(DbError::Corruption(format!(
            "snapshot {generation} fails its checksum"
        )));
    }
    let mut cursor = payload;
    let pop = CompiledPopulation::decode_snapshot(&mut cursor)?;
    if !cursor.is_empty() {
        return Err(DbError::Corruption(format!(
            "trailing bytes after snapshot {generation}"
        )));
    }
    Ok(pop)
}

/// Durably create generation `g`'s fresh, empty delta log.
fn create_empty_log(dir: &Path, generation: u64, injector: &Option<FaultInjector>) -> DbResult<()> {
    check_failpoint(injector, FaultOp::DeltaTruncate)?;
    let path = log_path(dir, generation);
    let file = File::create(&path)?;
    file.sync_all()?;
    sync_dir(&path)?;
    Ok(())
}

/// Atomically publish `generation` as current: write `CURRENT.tmp`
/// durably, rename over `CURRENT`, fsync the directory. The rename is the
/// commit point — a crash on either side leaves a consistent generation.
fn publish_current(dir: &Path, generation: u64, injector: &Option<FaultInjector>) -> DbResult<()> {
    check_failpoint(injector, FaultOp::SnapshotPublish)?;
    let tmp = dir.join("CURRENT.tmp");
    let mut file = File::create(&tmp)?;
    file.write_all(generation.to_string().as_bytes())?;
    file.sync_all()?;
    std::fs::rename(&tmp, current_path(dir))?;
    sync_dir(current_path(dir))?;
    Ok(())
}

// ---------------------------------------------------------------------------
// DeltaLog
// ---------------------------------------------------------------------------

/// What [`DeltaLog::recover`] reconstructed: the compiled population as
/// of the last durable delta, plus how it got there.
#[derive(Debug)]
pub struct Recovery {
    /// The population after snapshot ⊕ tail replay. The tail replays
    /// through [`CompiledPopulation::apply_delta`], which
    /// `tests/delta_equivalence.rs` pins byte-identical to the
    /// [`PopulationDelta::apply_to_profiles`] oracle — so auditing this
    /// population is audit-report-identical to a fresh compile + audit of
    /// the durable state at crash time.
    pub population: CompiledPopulation,
    /// The published generation the recovery loaded.
    pub generation: u64,
    /// Delta frames replayed from the tail.
    pub deltas_replayed: u64,
    /// Individual ops inside those frames.
    pub ops_replayed: u64,
    /// Replayed ops that named an unknown provider id
    /// ([`crate::pop::DeltaOutcome::skipped`]) — nonzero means the log
    /// and snapshot disagree about the population, worth surfacing.
    pub ops_skipped: u64,
}

/// A checksummed, group-committed, replayable log of
/// [`PopulationDelta`]s with generation-numbered population snapshots.
/// See the module docs for the format and crash-consistency argument.
pub struct DeltaLog {
    dir: PathBuf,
    file: File,
    generation: u64,
    /// Encoded frames awaiting the next group commit.
    pending: Vec<u8>,
    pending_deltas: u64,
    /// Delta frames durably in this generation's log (as known to this
    /// handle; recovery recounts from disk).
    committed_deltas: u64,
    injector: Option<FaultInjector>,
}

impl DeltaLog {
    /// Initialise `dir` as a delta-log directory: write the generation-0
    /// snapshot of `pop`, create an empty log, publish `CURRENT`.
    /// Fails if the directory is already initialised.
    pub fn create(dir: impl AsRef<Path>, pop: &CompiledPopulation) -> DbResult<DeltaLog> {
        DeltaLog::create_with(dir, pop, None)
    }

    /// [`DeltaLog::create`] with every durable op routed through
    /// `injector`'s failpoints.
    pub fn create_with(
        dir: impl AsRef<Path>,
        pop: &CompiledPopulation,
        injector: Option<FaultInjector>,
    ) -> DbResult<DeltaLog> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        if current_path(dir).exists() {
            return Err(DbError::Schema(format!(
                "delta log already initialised at {}",
                dir.display()
            )));
        }
        write_snapshot_file(dir, 0, pop, &injector)?;
        create_empty_log(dir, 0, &injector)?;
        publish_current(dir, 0, &injector)?;
        let file = OpenOptions::new().append(true).open(log_path(dir, 0))?;
        Ok(DeltaLog {
            dir: dir.to_path_buf(),
            file,
            generation: 0,
            pending: Vec::new(),
            pending_deltas: 0,
            committed_deltas: 0,
            injector,
        })
    }

    /// Recover from `dir`: load the published snapshot, replay the valid
    /// log tail through [`CompiledPopulation::apply_delta`], and return
    /// both the reconstructed population and a log handle positioned for
    /// further appends. `O(snapshot + tail)` — no profile re-assembly, no
    /// store rescan. Idempotent — recovering twice observes the same
    /// state, because recovery itself writes nothing.
    pub fn recover(dir: impl AsRef<Path>) -> DbResult<(DeltaLog, Recovery)> {
        DeltaLog::recover_with(dir, None)
    }

    /// [`DeltaLog::recover`] with failpoints.
    pub fn recover_with(
        dir: impl AsRef<Path>,
        injector: Option<FaultInjector>,
    ) -> DbResult<(DeltaLog, Recovery)> {
        let dir = dir.as_ref();
        let generation = read_current(dir)?.ok_or_else(|| {
            DbError::Schema(format!(
                "no delta log at {} (missing CURRENT)",
                dir.display()
            ))
        })?;
        let mut population = read_snapshot_file(dir, generation, &injector)?;
        let deltas = Self::replay_frames(dir, generation, &injector)?;
        let mut ops_replayed = 0u64;
        let mut ops_skipped = 0u64;
        for delta in &deltas {
            ops_replayed += delta.len() as u64;
            let outcome = population.apply_delta(delta).map_err(|e| {
                DbError::Corruption(format!("delta tail refused by snapshot population: {e}"))
            })?;
            ops_skipped += outcome.skipped;
        }
        let file = OpenOptions::new()
            .append(true)
            .open(log_path(dir, generation))?;
        let recovery = Recovery {
            population,
            generation,
            deltas_replayed: deltas.len() as u64,
            ops_replayed,
            ops_skipped,
        };
        Ok((
            DeltaLog {
                dir: dir.to_path_buf(),
                file,
                generation,
                pending: Vec::new(),
                pending_deltas: 0,
                committed_deltas: recovery.deltas_replayed,
                injector,
            },
            recovery,
        ))
    }

    /// Read every valid delta frame of generation `g`, stopping cleanly at
    /// the first invalid frame (torn tail = prefix durability, exactly the
    /// WAL's replay contract).
    fn replay_frames(
        dir: &Path,
        generation: u64,
        injector: &Option<FaultInjector>,
    ) -> DbResult<Vec<PopulationDelta>> {
        check_failpoint(injector, FaultOp::DeltaReplay)?;
        let bytes = std::fs::read(log_path(dir, generation))?;
        let mut deltas = Vec::new();
        let mut slice = bytes.as_slice();
        while slice.len() >= 8 {
            let len = u32::from_le_bytes([slice[0], slice[1], slice[2], slice[3]]) as usize;
            let crc = u32::from_le_bytes([slice[4], slice[5], slice[6], slice[7]]);
            if slice.len() < 8 + len {
                break; // torn tail
            }
            let payload = &slice[8..8 + len];
            if crc32(payload) != crc {
                break; // torn/corrupt tail
            }
            deltas.push(decode_delta(payload)?);
            slice = &slice[8 + len..];
        }
        Ok(deltas)
    }

    /// Frame a delta into the group-commit buffer. Nothing is durable
    /// until [`DeltaLog::sync`].
    pub fn append(&mut self, delta: &PopulationDelta) {
        let payload = encode_delta(delta);
        self.pending
            .extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.pending
            .extend_from_slice(&crc32(&payload).to_le_bytes());
        self.pending.extend_from_slice(&payload);
        self.pending_deltas += 1;
    }

    /// Group commit: durably append every buffered frame with one write +
    /// one fsync. On a transient injected fault nothing is written and the
    /// buffer is retained (retrying persists the complete batch); a torn
    /// fault persists a deterministic byte prefix and crash-stops.
    pub fn sync(&mut self) -> DbResult<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        if let Some(injector) = &self.injector {
            match injector.check(FaultOp::DeltaSync, self.pending.len()) {
                FaultDecision::Proceed => {}
                FaultDecision::Torn { keep } => {
                    let pending = std::mem::take(&mut self.pending);
                    self.pending_deltas = 0;
                    self.write_durable(&pending[..keep])?;
                    return Err(crash_error(FaultOp::DeltaSync));
                }
                // Pending is retained: the op was not performed.
                FaultDecision::Fail(e) => return Err(e),
            }
        }
        let pending = std::mem::take(&mut self.pending);
        self.write_durable(&pending)?;
        self.committed_deltas += self.pending_deltas;
        self.pending_deltas = 0;
        Ok(())
    }

    fn write_durable(&mut self, bytes: &[u8]) -> DbResult<()> {
        self.file.seek(SeekFrom::End(0))?;
        self.file.write_all(bytes)?;
        self.file.sync_data()?;
        Ok(())
    }

    /// Rotate to a new generation: durably write `pop` as the next
    /// snapshot, start a fresh empty log, atomically publish the new
    /// `CURRENT`, then garbage-collect the old generation (best-effort —
    /// the publish already committed).
    ///
    /// `pop` must be the population with **every appended delta applied**
    /// (the [`Monitor`] hands over its live index's population); pending
    /// frames are synced first so the caller cannot publish a snapshot
    /// ahead of the log.
    pub fn snapshot(&mut self, pop: &CompiledPopulation) -> DbResult<()> {
        self.sync()?;
        let next = self.generation + 1;
        write_snapshot_file(&self.dir, next, pop, &self.injector)?;
        create_empty_log(&self.dir, next, &self.injector)?;
        publish_current(&self.dir, next, &self.injector)?;
        // Commit point passed: swing the handle, then GC.
        self.file = OpenOptions::new()
            .append(true)
            .open(log_path(&self.dir, next))?;
        let old = self.generation;
        self.generation = next;
        self.committed_deltas = 0;
        let _ = std::fs::remove_file(snapshot_path(&self.dir, old));
        let _ = std::fs::remove_file(log_path(&self.dir, old));
        Ok(())
    }

    /// The directory this log lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The current published generation.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Delta frames durably committed in the current generation's tail.
    pub fn tail_deltas(&self) -> u64 {
        self.committed_deltas
    }

    /// Delta frames buffered but not yet group-committed.
    pub fn pending_deltas(&self) -> u64 {
        self.pending_deltas
    }
}

// ---------------------------------------------------------------------------
// Monitor
// ---------------------------------------------------------------------------

/// Tuning for a [`Monitor`].
#[derive(Debug, Clone)]
pub struct MonitorConfig {
    /// The α-PPDB compliance bound (Definition 5): the store is compliant
    /// while `P(W) <= alpha`.
    pub alpha: f64,
    /// Hysteresis fraction in `[0, 1)`. A breach alert fires when `P(W)`
    /// exceeds `alpha`; the matching clear fires only once `P(W)` falls to
    /// `alpha * (1 - hysteresis)` or below, so a population oscillating at
    /// the boundary cannot flap alerts on every delta.
    pub hysteresis: f64,
    /// Deltas buffered per group commit (≥ 1). Larger batches amortise the
    /// fsync; the live index (and therefore alerting) only observes deltas
    /// once their batch is durable.
    pub group_commit: u64,
    /// Deltas between population snapshots (0 = never snapshot). Bounds
    /// the log tail and hence recovery time.
    pub snapshot_every: u64,
}

impl Default for MonitorConfig {
    fn default() -> MonitorConfig {
        MonitorConfig {
            alpha: 0.05,
            hysteresis: 0.1,
            group_commit: 8,
            snapshot_every: 1024,
        }
    }
}

/// An α-certification state change the [`Monitor`] observed.
#[derive(Debug, Clone, PartialEq)]
pub enum MonitorAlert {
    /// `P(W)` rose above `alpha`: the store stopped being an α-PPDB.
    Breach {
        /// Deltas durably applied when the alert fired (counted from the
        /// recovered tail at start).
        seq: u64,
        /// The violation probability that breached.
        p_violation: f64,
        /// The configured bound it breached.
        alpha: f64,
    },
    /// `P(W)` fell back to the hysteresis threshold or below.
    Cleared {
        /// Deltas durably applied when the alert fired.
        seq: u64,
        /// The violation probability at clear time.
        p_violation: f64,
        /// The hysteresis threshold (`alpha * (1 - hysteresis)`).
        threshold: f64,
    },
}

/// The §10 continuous-monitoring service loop: a [`DeltaLog`] for
/// durability, a [`LiveViolationIndex`] for live `P(W)` / `P(Default)` /
/// `Violations`, and α-certification alerting with hysteresis.
///
/// The discipline is strictly **log-ahead**: [`Monitor::ingest`] buffers
/// deltas into the log's group-commit batch, and only once a batch is
/// fsynced does it reach the index (whose compiled population is what
/// the next snapshot is cut from). A crash therefore loses at most the
/// un-synced batch — never anything the index already reported — and
/// [`Monitor::recover`] lands on exactly the durable prefix.
pub struct Monitor {
    log: DeltaLog,
    index: LiveViolationIndex,
    staged: Vec<PopulationDelta>,
    config: MonitorConfig,
    seq: u64,
    in_breach: bool,
    alerts: Vec<MonitorAlert>,
    since_snapshot: u64,
}

impl Monitor {
    /// Start monitoring a fresh population: initialise the delta log at
    /// `dir` (generation-0 snapshot of `initial`) and build the live
    /// index. Fails if `dir` already holds a log — use
    /// [`Monitor::recover`] for restarts — and, before writing anything,
    /// if `initial` repeats a provider id: such a population refuses
    /// every delta, so its first logged batch could never be replayed.
    pub fn start(
        dir: impl AsRef<Path>,
        initial: Vec<ProviderProfile>,
        attributes: Vec<String>,
        weights: &AttributeSensitivities,
        policy: HousePolicy,
        config: MonitorConfig,
    ) -> DbResult<Monitor> {
        Monitor::start_with(dir, initial, attributes, weights, policy, config, None)
    }

    /// [`Monitor::start`] with failpoints on every durable op.
    pub fn start_with(
        dir: impl AsRef<Path>,
        initial: Vec<ProviderProfile>,
        attributes: Vec<String>,
        weights: &AttributeSensitivities,
        policy: HousePolicy,
        config: MonitorConfig,
        injector: Option<FaultInjector>,
    ) -> DbResult<Monitor> {
        let pop = CompiledPopulation::from_profiles(&initial);
        if let Some(id) = pop.duplicate_id() {
            return Err(DbError::Schema(format!(
                "monitored population repeats provider id {}; deltas need one occurrence per id",
                id.0
            )));
        }
        let log = DeltaLog::create_with(dir, &pop, injector)?;
        Ok(Monitor::assemble(
            log, pop, 0, attributes, weights, policy, config,
        ))
    }

    /// Restart after a crash or shutdown: recover the delta log at `dir`
    /// (snapshot ⊕ tail replay) and rebuild the live index from the
    /// recovered population — `O(population + tail)`, no store rescan.
    pub fn recover(
        dir: impl AsRef<Path>,
        attributes: Vec<String>,
        weights: &AttributeSensitivities,
        policy: HousePolicy,
        config: MonitorConfig,
    ) -> DbResult<Monitor> {
        Monitor::recover_with(dir, attributes, weights, policy, config, None)
    }

    /// [`Monitor::recover`] with failpoints.
    pub fn recover_with(
        dir: impl AsRef<Path>,
        attributes: Vec<String>,
        weights: &AttributeSensitivities,
        policy: HousePolicy,
        config: MonitorConfig,
        injector: Option<FaultInjector>,
    ) -> DbResult<Monitor> {
        let (log, recovery) = DeltaLog::recover_with(dir, injector)?;
        Ok(Monitor::assemble(
            log,
            recovery.population,
            recovery.deltas_replayed,
            attributes,
            weights,
            policy,
            config,
        ))
    }

    #[allow(clippy::too_many_arguments)]
    fn assemble(
        log: DeltaLog,
        pop: CompiledPopulation,
        seq: u64,
        attributes: Vec<String>,
        weights: &AttributeSensitivities,
        policy: HousePolicy,
        config: MonitorConfig,
    ) -> Monitor {
        let engine = AuditEngine::new(policy, attributes, weights.clone());
        let mut monitor = Monitor {
            log,
            index: LiveViolationIndex::new(engine, pop),
            staged: Vec::new(),
            config,
            seq,
            in_breach: false,
            alerts: Vec::new(),
            since_snapshot: 0,
        };
        // A population already out of compliance alerts immediately.
        monitor.check_alpha();
        monitor
    }

    /// Ingest one delta: frame it into the log and, when the group-commit
    /// batch is full, [`Monitor::flush`]. Returns the alerts this call
    /// raised (empty while a batch is still buffering).
    pub fn ingest(&mut self, delta: PopulationDelta) -> DbResult<Vec<MonitorAlert>> {
        let before = self.alerts.len();
        self.log.append(&delta);
        self.staged.push(delta);
        if self.staged.len() as u64 >= self.config.group_commit.max(1) {
            self.flush()?;
        }
        Ok(self.alerts[before..].to_vec())
    }

    /// Force the buffered batch durable and apply it to the live index,
    /// then re-check α-certification and cut a snapshot if one is due.
    /// Transient sync faults leave the batch staged — retrying flushes the
    /// complete batch.
    pub fn flush(&mut self) -> DbResult<()> {
        if self.staged.is_empty() {
            return Ok(());
        }
        self.log.sync()?;
        for delta in std::mem::take(&mut self.staged) {
            self.index
                .apply_delta(&delta)
                .map_err(|e| DbError::Schema(format!("delta refused by live index: {e}")))?;
            self.seq += 1;
            self.since_snapshot += 1;
        }
        self.check_alpha();
        if self.config.snapshot_every > 0 && self.since_snapshot >= self.config.snapshot_every {
            self.log.snapshot(self.index.compiled_population())?;
            self.since_snapshot = 0;
        }
        Ok(())
    }

    /// Flush and cut a snapshot now (e.g. before a planned shutdown, to
    /// make the next [`Monitor::recover`] tail-free).
    pub fn checkpoint(&mut self) -> DbResult<()> {
        self.flush()?;
        self.log.snapshot(self.index.compiled_population())?;
        self.since_snapshot = 0;
        Ok(())
    }

    fn check_alpha(&mut self) {
        let p = self.index.p_violation();
        if !self.in_breach {
            if p > self.config.alpha {
                self.in_breach = true;
                self.alerts.push(MonitorAlert::Breach {
                    seq: self.seq,
                    p_violation: p,
                    alpha: self.config.alpha,
                });
            }
        } else {
            let threshold = self.config.alpha * (1.0 - self.config.hysteresis);
            if p <= threshold {
                self.in_breach = false;
                self.alerts.push(MonitorAlert::Cleared {
                    seq: self.seq,
                    p_violation: p,
                    threshold,
                });
            }
        }
    }

    /// The live index (per-occurrence scores and witness rows, outcome,
    /// compiled population).
    pub fn index(&self) -> &LiveViolationIndex {
        &self.index
    }

    /// The underlying delta log.
    pub fn log(&self) -> &DeltaLog {
        &self.log
    }

    /// Every alert raised so far, in order.
    pub fn alerts(&self) -> &[MonitorAlert] {
        &self.alerts
    }

    /// Whether the monitor currently considers the store in breach
    /// (hysteresis applied).
    pub fn in_breach(&self) -> bool {
        self.in_breach
    }

    /// Deltas durably applied (recovered tail + this run).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Live `P(W)` (Definition 2) over the durable population.
    pub fn p_violation(&self) -> f64 {
        self.index.p_violation()
    }

    /// Live `P(Default)` (Definition 5).
    pub fn p_default(&self) -> f64 {
        self.index.p_default()
    }

    /// The full aggregate outcome (population, violated, defaulted,
    /// total violations).
    pub fn outcome(&self) -> PolicyOutcome {
        self.index.outcome()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpv_reldb::fault::{FaultKind, FaultPlan};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "qpv-deltalog-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn pt(v: u32, g: u32, r: u32) -> PrivacyPoint {
        PrivacyPoint::from_raw(v, g, r)
    }

    fn profile(id: u64, threshold: u64) -> ProviderProfile {
        let mut p = ProviderProfile::new(ProviderId(id), threshold);
        p.preferences
            .add("weight", PrivacyTuple::from_point("pr", pt(4, 5, 6)));
        p.preferences
            .add("age", PrivacyTuple::from_point("ads", pt(1, 2, 30)));
        p.sensitivities
            .insert("weight".into(), DatumSensitivity::new(3, 1, 5, 2));
        p
    }

    /// Audit-report JSON under a fixed tiny engine: the state fingerprint
    /// the tests compare populations by ([`CompiledPopulation`] has no
    /// `PartialEq`; report identity is the contract recovery promises).
    fn report(pop: &CompiledPopulation) -> String {
        let mut w = AttributeSensitivities::new();
        w.set("weight", 4);
        w.set("age", 2);
        let policy = HousePolicy::builder("dl-test")
            .tuple("weight", PrivacyTuple::from_point("pr", pt(3, 3, 3)))
            .tuple("age", PrivacyTuple::from_point("ads", pt(2, 2, 20)))
            .build();
        let engine = AuditEngine::new(policy, ["weight", "age"], w);
        serde_json::to_string(&engine.audit_compiled(pop)).unwrap()
    }

    fn report_of(profiles: &[ProviderProfile]) -> String {
        report(&CompiledPopulation::from_profiles(profiles))
    }

    fn sample_delta() -> PopulationDelta {
        PopulationDelta::new()
            .upsert(profile(9, 40))
            .remove(ProviderId(1))
            .set_attribute_prefs(
                ProviderId(2),
                "weight",
                vec![PrivacyTuple::from_point("pr", pt(3, 3, 3))],
            )
            .set_sensitivity(ProviderId(2), "age", DatumSensitivity::new(5, 4, 3, 2))
            .set_threshold(ProviderId(0), 7)
    }

    #[test]
    fn codec_round_trips_every_op_kind() {
        let delta = sample_delta();
        let bytes = encode_delta(&delta);
        let back = decode_delta(&bytes).unwrap();
        assert_eq!(back, delta);
        // Trailing bytes are rejected, like the WAL's record decoder.
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(decode_delta(&extended).is_err());
        // Unknown tags are rejected.
        let mut bad = Vec::new();
        put_varint(&mut bad, 1);
        bad.push(0x7f);
        assert!(decode_delta(&bad).is_err());
    }

    #[test]
    fn append_sync_recover_replays_the_oracle() {
        let dir = temp_dir("roundtrip");
        let initial: Vec<ProviderProfile> = (0..4).map(|i| profile(i, 10 + i)).collect();
        let mut log = DeltaLog::create(&dir, &CompiledPopulation::from_profiles(&initial)).unwrap();
        let d1 = sample_delta();
        let d2 = PopulationDelta::new().set_threshold(ProviderId(9), 99);
        log.append(&d1);
        log.append(&d2);
        assert_eq!(log.pending_deltas(), 2);
        log.sync().unwrap();
        assert_eq!(log.tail_deltas(), 2);

        let (_log2, rec) = DeltaLog::recover(&dir).unwrap();
        assert_eq!(rec.generation, 0);
        assert_eq!(rec.deltas_replayed, 2);
        assert_eq!(rec.ops_replayed, 6);
        let mut expected = initial.clone();
        d1.apply_to_profiles(&mut expected);
        d2.apply_to_profiles(&mut expected);
        assert_eq!(report(&rec.population), report_of(&expected));

        // Un-synced frames are not durable.
        let mut log3 = DeltaLog::recover(&dir).unwrap().0;
        log3.append(&PopulationDelta::new().remove(ProviderId(0)));
        drop(log3);
        let (_, rec2) = DeltaLog::recover(&dir).unwrap();
        assert_eq!(rec2.deltas_replayed, 2, "pending frame was never synced");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_rotates_generation_and_bounds_the_tail() {
        let dir = temp_dir("rotate");
        let initial: Vec<ProviderProfile> = (0..3).map(|i| profile(i, 20)).collect();
        let mut log = DeltaLog::create(&dir, &CompiledPopulation::from_profiles(&initial)).unwrap();
        let mut mirror = initial.clone();
        let d1 = PopulationDelta::new().set_threshold(ProviderId(1), 5);
        d1.apply_to_profiles(&mut mirror);
        log.append(&d1);
        log.snapshot(&CompiledPopulation::from_profiles(&mirror))
            .unwrap();
        assert_eq!(log.generation(), 1);
        assert_eq!(log.tail_deltas(), 0);
        assert!(!snapshot_path(&dir, 0).exists(), "old generation GC'd");
        assert!(!log_path(&dir, 0).exists());

        let d2 = PopulationDelta::new().remove(ProviderId(0));
        d2.apply_to_profiles(&mut mirror);
        log.append(&d2);
        log.sync().unwrap();

        let (_, rec) = DeltaLog::recover(&dir).unwrap();
        assert_eq!(rec.generation, 1);
        assert_eq!(
            rec.deltas_replayed, 1,
            "tail holds only post-snapshot deltas"
        );
        assert_eq!(report(&rec.population), report_of(&mirror));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn transient_sync_fault_retains_the_batch() {
        let dir = temp_dir("transient");
        // Op indices: 0 SnapshotWrite, 1 DeltaTruncate, 2 SnapshotPublish,
        // 3 first DeltaSync.
        let injector = FaultInjector::new(FaultPlan::fail_at(3, FaultKind::Transient));
        let pop = CompiledPopulation::from_profiles(&[profile(0, 10)]);
        let mut log = DeltaLog::create_with(&dir, &pop, Some(injector)).unwrap();
        log.append(&sample_delta());
        let err = log.sync().unwrap_err();
        assert!(err.is_transient(), "{err}");
        assert_eq!(log.pending_deltas(), 1, "batch retained for retry");
        log.sync().unwrap();
        assert_eq!(log.tail_deltas(), 1);
        let (_, rec) = DeltaLog::recover(&dir).unwrap();
        assert_eq!(rec.deltas_replayed, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn tiny_policy() -> HousePolicy {
        HousePolicy::builder("mon")
            .tuple("weight", PrivacyTuple::from_point("pr", pt(5, 5, 5)))
            .build()
    }

    fn tiny_weights() -> AttributeSensitivities {
        let mut w = AttributeSensitivities::new();
        w.set("weight", 4);
        w
    }

    /// A provider whose stated preference the policy violates (policy
    /// point 5,5,5 exceeds the stated 1,1,1 bound) when `violating`.
    fn mon_profile(id: u64, violating: bool) -> ProviderProfile {
        let mut p = ProviderProfile::new(ProviderId(id), 1_000_000);
        let bound = if violating { pt(1, 1, 1) } else { pt(9, 9, 9) };
        p.preferences
            .add("weight", PrivacyTuple::from_point("pr", bound));
        p
    }

    #[test]
    fn monitor_alerts_with_hysteresis() {
        let dir = temp_dir("monitor");
        // 10 compliant providers; alpha 0.25 with 20% hysteresis means:
        // breach when P(W) > 0.25, clear only when P(W) <= 0.20.
        let initial: Vec<ProviderProfile> = (0..10).map(|i| mon_profile(i, false)).collect();
        let config = MonitorConfig {
            alpha: 0.25,
            hysteresis: 0.2,
            group_commit: 1,
            snapshot_every: 0,
        };
        let mut m = Monitor::start(
            &dir,
            initial,
            vec!["weight".into()],
            &tiny_weights(),
            tiny_policy(),
            config,
        )
        .unwrap();
        assert!(!m.in_breach());
        assert!(m.alerts().is_empty());

        // Flip three providers to violating: P(W) = 0.3 > 0.25 → breach,
        // raised exactly once.
        for id in 0..3u64 {
            let alerts = m
                .ingest(PopulationDelta::new().upsert(mon_profile(id, true)))
                .unwrap();
            if id < 2 {
                assert!(alerts.is_empty(), "no breach at P(W) <= 0.25");
            } else {
                assert_eq!(alerts.len(), 1);
                assert!(matches!(alerts[0], MonitorAlert::Breach { .. }));
            }
        }
        assert!(m.in_breach());

        // Back to 2 violating: P(W) = 0.2 is inside the hysteresis band
        // boundary (<= 0.20), so the clear fires; dropping to 0.1 first
        // checks no duplicate clear.
        let alerts = m
            .ingest(PopulationDelta::new().upsert(mon_profile(0, false)))
            .unwrap();
        assert_eq!(alerts.len(), 1, "P(W)=0.2 <= 0.20 clears");
        assert!(matches!(alerts[0], MonitorAlert::Cleared { .. }));
        let alerts = m
            .ingest(PopulationDelta::new().upsert(mon_profile(1, false)))
            .unwrap();
        assert!(alerts.is_empty(), "already cleared, no duplicate alert");
        assert_eq!(m.alerts().len(), 2);
        let engine = AuditEngine::new(tiny_policy(), ["weight"], tiny_weights());
        assert_eq!(m.outcome(), engine.counts(m.index().compiled_population()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn monitor_recover_lands_on_durable_prefix() {
        let dir = temp_dir("mon-recover");
        let initial: Vec<ProviderProfile> = (0..6).map(|i| mon_profile(i, false)).collect();
        let config = MonitorConfig {
            alpha: 0.25,
            hysteresis: 0.0,
            group_commit: 2,
            snapshot_every: 3,
        };
        let mut m = Monitor::start(
            &dir,
            initial,
            vec!["weight".into()],
            &tiny_weights(),
            tiny_policy(),
            config.clone(),
        )
        .unwrap();
        for id in 0..4u64 {
            m.ingest(PopulationDelta::new().upsert(mon_profile(id, id % 2 == 0)))
                .unwrap();
        }
        // One more ingest leaves a staged, un-durable delta behind.
        m.ingest(PopulationDelta::new().upsert(mon_profile(4, true)))
            .unwrap();
        assert_eq!(m.log().pending_deltas(), 1);
        let durable_seq = m.seq();
        let expected = report(m.index().compiled_population());
        drop(m);

        let m2 = Monitor::recover(
            &dir,
            vec!["weight".into()],
            &tiny_weights(),
            tiny_policy(),
            config,
        )
        .unwrap();
        assert_eq!(
            report(m2.index().compiled_population()),
            expected,
            "durable prefix recovered"
        );
        assert_eq!(durable_seq, 4);
        assert_eq!(
            m2.seq(),
            0,
            "the snapshot cut at the 4th durable delta left an empty tail"
        );
        assert_eq!(
            m2.p_violation(),
            2.0 / 6.0,
            "two of six providers violating in the durable prefix"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A population repeating a provider id refuses every delta, so any
    /// batch logged for it would make every later recovery fail on a
    /// tail the snapshot refuses: `start` rejects it with a typed error
    /// before writing anything to `dir`.
    #[test]
    fn monitor_start_refuses_duplicate_ids_before_writing() {
        let dir = temp_dir("mon-dup");
        let initial = vec![
            mon_profile(0, false),
            mon_profile(1, true),
            mon_profile(0, true),
        ];
        let err = Monitor::start(
            &dir,
            initial,
            vec!["weight".into()],
            &tiny_weights(),
            tiny_policy(),
            MonitorConfig::default(),
        )
        .err()
        .expect("duplicate ids are refused");
        assert!(
            matches!(&err, DbError::Schema(m) if m.contains("repeats provider id 0")),
            "{err}"
        );
        assert!(!current_path(&dir).exists(), "nothing was published");
        assert!(DeltaLog::recover(&dir).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
