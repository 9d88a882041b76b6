//! Deterministic fault injection for the durable stack.
//!
//! Every I/O the engine performs — page reads/writes/syncs through a
//! [`PageStore`] and WAL appends/truncations (see [`crate::wal::Wal`]) — is
//! an injectable *failpoint*. A [`FaultPlan`] decides, purely from the
//! global I/O-op index (clock-free, seed-deterministic), whether a given op
//! proceeds, fails transiently, tears, or crash-stops the process model.
//! The shared counter lives in a [`FaultInjector`], which the
//! [`FaultStore`] wrapper and the WAL backend both consult, so "the Nth I/O
//! op" means the Nth op *across the whole database*, in execution order.
//!
//! Fault kinds (see [`FaultKind`]):
//!
//! * **Transient** — the op fails once with [`DbError::Transient`] and is
//!   *not* performed; an immediate retry sees no fault. Models a spurious
//!   `EIO`.
//! * **SyncFail** — like `Transient` but semantically a failed
//!   `fsync`: nothing new was made durable, state is intact, retryable.
//! * **TornWrite** — for write ops, only a deterministic byte prefix of
//!   the data reaches the medium, then the injector enters the crashed
//!   state. Models power loss mid-write (the classic torn WAL frame /
//!   torn page).
//! * **CrashStop** — the op and every subsequent op fail permanently.
//!   The surviving bytes are exactly what earlier ops made durable.
//!
//! Determinism: the op counter is the only clock, and torn-write prefix
//! lengths are derived from `splitmix64(seed ^ op_index)`, so a plan
//! replayed over the same workload tears the same bytes every time.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::disk::PageStore;
use crate::error::{DbError, DbResult};
use crate::page::PAGE_SIZE;

/// What kind of failure a triggered failpoint injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Fail this op once with [`DbError::Transient`]; the op is skipped,
    /// state is untouched, and a retry proceeds normally.
    Transient,
    /// A sync the medium reports as failed without losing state. Behaves
    /// like [`FaultKind::Transient`] (retryable, nothing performed).
    SyncFail,
    /// Persist only a deterministic byte prefix of the write, then enter
    /// the crashed state. On non-write ops this degenerates to
    /// [`FaultKind::CrashStop`].
    TornWrite,
    /// Crash-stop: this op and all later ops fail permanently.
    CrashStop,
}

/// Which failpoint an I/O op is passing through (diagnostics and
/// schedule targeting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOp {
    /// [`PageStore::read_page`].
    PageRead,
    /// [`PageStore::write_page`].
    PageWrite,
    /// [`PageStore::sync`].
    PageSync,
    /// WAL append + fsync ([`crate::wal::Wal::sync`]).
    WalSync,
    /// WAL truncation ([`crate::wal::Wal::truncate`]).
    WalTruncate,
    /// WAL read-back ([`crate::wal::Wal::replay`]).
    WalReplay,
    /// Delta-log group commit: append + fsync of buffered delta frames
    /// (`qpv_core::deltalog`).
    DeltaSync,
    /// Delta-log read-back during recovery.
    DeltaReplay,
    /// Delta-log tail reset after a published snapshot.
    DeltaTruncate,
    /// Compiled-population snapshot file write + fsync.
    SnapshotWrite,
    /// Snapshot generation publish (the `CURRENT` rename swing).
    SnapshotPublish,
    /// Snapshot read-back during recovery.
    SnapshotRead,
}

impl FaultOp {
    /// Whether the op writes bytes (and can therefore tear).
    fn is_write(self) -> bool {
        matches!(
            self,
            FaultOp::PageWrite | FaultOp::WalSync | FaultOp::DeltaSync | FaultOp::SnapshotWrite
        )
    }
}

/// When faults trigger, relative to the global I/O-op index.
#[derive(Debug, Clone)]
enum Trigger {
    /// Never fire (counting-only and schedule-only plans).
    Never,
    /// Fire `kind` exactly at op `n`.
    AtOp(u64, FaultKind),
    /// Fire `kind` at every op index divisible by `k` (op 0 excluded so a
    /// workload always gets at least one clean op).
    EveryKth(u64, FaultKind),
}

/// A clock-free, seed-deterministic description of which I/O ops fault and
/// how. Construct one, wrap it in a [`FaultInjector`], and hand it to
/// [`crate::db::Database::open_with_faults`] (or a [`FaultStore`] /
/// [`crate::wal::Wal::open_with`] directly).
///
/// Every plan carries a base trigger *and* a scripted `(op_index, kind)`
/// schedule, and both are live at once: chain [`FaultPlan::and_fail_at`]
/// onto any constructor to layer scheduled faults over a periodic trigger —
/// e.g. `every_kth(5, Transient).and_fail_at(37, CrashStop)` exercises a
/// flaky medium that eventually dies, in a single deterministic run. Where
/// a scheduled entry and the base trigger collide on the same op index, the
/// scheduled entry wins (explicit beats periodic).
#[derive(Debug, Clone)]
pub struct FaultPlan {
    trigger: Trigger,
    schedule: Vec<(u64, FaultKind)>,
    seed: u64,
}

impl FaultPlan {
    /// A plan that never faults — useful for counting a workload's I/O ops.
    pub fn none() -> FaultPlan {
        FaultPlan {
            trigger: Trigger::Never,
            schedule: Vec::new(),
            seed: 0,
        }
    }

    /// Inject `kind` exactly at global I/O op `n`.
    pub fn fail_at(n: u64, kind: FaultKind) -> FaultPlan {
        FaultPlan {
            trigger: Trigger::AtOp(n, kind),
            schedule: Vec::new(),
            seed: n,
        }
    }

    /// Inject `kind` at every op whose index is a positive multiple of `k`.
    pub fn every_kth(k: u64, kind: FaultKind) -> FaultPlan {
        FaultPlan {
            trigger: Trigger::EveryKth(k.max(1), kind),
            schedule: Vec::new(),
            seed: k,
        }
    }

    /// Inject the scripted `(op_index, kind)` schedule — any number of
    /// triggers, any order.
    pub fn script(schedule: Vec<(u64, FaultKind)>) -> FaultPlan {
        FaultPlan {
            trigger: Trigger::Never,
            schedule,
            seed: 0,
        }
    }

    /// Add one scheduled fault on top of this plan's existing triggers.
    /// Chainable, so multi-fault schedules compose from any base plan.
    pub fn and_fail_at(mut self, n: u64, kind: FaultKind) -> FaultPlan {
        self.schedule.push((n, kind));
        self
    }

    /// Override the seed that torn-write prefix lengths derive from.
    pub fn with_seed(mut self, seed: u64) -> FaultPlan {
        self.seed = seed;
        self
    }

    fn fault_for(&self, op_index: u64) -> Option<FaultKind> {
        if let Some((_, kind)) = self.schedule.iter().find(|(n, _)| *n == op_index) {
            return Some(*kind);
        }
        match &self.trigger {
            Trigger::Never => None,
            Trigger::AtOp(n, kind) if *n == op_index => Some(*kind),
            Trigger::AtOp(..) => None,
            Trigger::EveryKth(k, kind) if op_index > 0 && op_index.is_multiple_of(*k) => {
                Some(*kind)
            }
            Trigger::EveryKth(..) => None,
        }
    }
}

/// SplitMix64: the standard 64-bit mixing function. Used to derive torn
/// prefix lengths deterministically from `(seed, op_index)`, and full-jitter
/// backoff durations from `(attempt, salt)` — every random-looking choice in
/// the fault stack flows through this one mixer so runs stay replayable.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// What the failpoint told the caller to do.
#[derive(Debug)]
pub enum FaultDecision {
    /// No fault: perform the op normally.
    Proceed,
    /// Write only the first `keep` bytes, then return the crash error.
    Torn {
        /// Number of leading bytes that reach the medium.
        keep: usize,
    },
    /// Do not perform the op; return this error.
    Fail(DbError),
}

struct InjectorState {
    plan: FaultPlan,
    next_op: AtomicU64,
    crashed: AtomicBool,
}

/// The shared failpoint: counts I/O ops across every component it is
/// attached to and applies the [`FaultPlan`]. Cloning shares the counter.
#[derive(Clone)]
pub struct FaultInjector {
    state: Arc<InjectorState>,
}

impl FaultInjector {
    /// An injector executing `plan` from op index 0.
    pub fn new(plan: FaultPlan) -> FaultInjector {
        FaultInjector {
            state: Arc::new(InjectorState {
                plan,
                next_op: AtomicU64::new(0),
                crashed: AtomicBool::new(false),
            }),
        }
    }

    /// Total I/O ops observed so far (the next op's index).
    pub fn ops_seen(&self) -> u64 {
        self.state.next_op.load(Ordering::SeqCst)
    }

    /// Whether a torn write or crash-stop has fired.
    pub fn crashed(&self) -> bool {
        self.state.crashed.load(Ordering::SeqCst)
    }

    /// Pass an op of kind `op` carrying `write_len` bytes (0 for reads and
    /// syncs) through the failpoint.
    pub fn check(&self, op: FaultOp, write_len: usize) -> FaultDecision {
        if self.crashed() {
            return FaultDecision::Fail(crash_error(op));
        }
        let index = self.state.next_op.fetch_add(1, Ordering::SeqCst);
        match self.state.plan.fault_for(index) {
            None => FaultDecision::Proceed,
            Some(FaultKind::Transient) => FaultDecision::Fail(DbError::Transient(format!(
                "injected transient fault at op {index} ({op:?})"
            ))),
            Some(FaultKind::SyncFail) => FaultDecision::Fail(DbError::Transient(format!(
                "injected sync failure at op {index} ({op:?})"
            ))),
            Some(FaultKind::TornWrite) => {
                self.state.crashed.store(true, Ordering::SeqCst);
                if op.is_write() && write_len > 0 {
                    let keep = (splitmix64(self.state.plan.seed ^ index) % (write_len as u64 + 1))
                        as usize;
                    FaultDecision::Torn { keep }
                } else {
                    FaultDecision::Fail(crash_error(op))
                }
            }
            Some(FaultKind::CrashStop) => {
                self.state.crashed.store(true, Ordering::SeqCst);
                FaultDecision::Fail(crash_error(op))
            }
        }
    }
}

impl std::fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultInjector")
            .field("plan", &self.state.plan)
            .field("ops_seen", &self.ops_seen())
            .field("crashed", &self.crashed())
            .finish()
    }
}

/// The error every op observes once the injector is in the crashed state.
pub fn crash_error(op: FaultOp) -> DbError {
    DbError::Io(std::io::Error::other(format!(
        "simulated crash-stop ({op:?})"
    )))
}

/// A [`PageStore`] wrapper that routes every op through a
/// [`FaultInjector`]. Torn page writes splice the surviving prefix of the
/// new bytes onto the old page contents, exactly what a power loss
/// mid-`pwrite` leaves behind.
pub struct FaultStore {
    inner: Box<dyn PageStore>,
    injector: FaultInjector,
}

impl FaultStore {
    /// Wrap `inner` with the failpoints of `injector`.
    pub fn new(inner: Box<dyn PageStore>, injector: FaultInjector) -> FaultStore {
        FaultStore { inner, injector }
    }

    /// Unwrap, recovering the underlying store (the surviving bytes after
    /// a simulated crash).
    pub fn into_inner(self) -> Box<dyn PageStore> {
        self.inner
    }
}

impl PageStore for FaultStore {
    fn read_page(&mut self, page_id: u64, buf: &mut [u8; PAGE_SIZE]) -> DbResult<()> {
        match self.injector.check(FaultOp::PageRead, 0) {
            FaultDecision::Proceed => self.inner.read_page(page_id, buf),
            FaultDecision::Torn { .. } => unreachable!("reads cannot tear"),
            FaultDecision::Fail(e) => Err(e),
        }
    }

    fn write_page(&mut self, page_id: u64, buf: &[u8; PAGE_SIZE]) -> DbResult<()> {
        match self.injector.check(FaultOp::PageWrite, PAGE_SIZE) {
            FaultDecision::Proceed => self.inner.write_page(page_id, buf),
            FaultDecision::Torn { keep } => {
                // Splice the surviving prefix onto whatever the page held
                // before (zeros if it never existed).
                let mut torn = [0u8; PAGE_SIZE];
                if page_id < self.inner.num_pages() {
                    let _ = self.inner.read_page(page_id, &mut torn);
                }
                torn[..keep].copy_from_slice(&buf[..keep]);
                self.inner.write_page(page_id, &torn)?;
                Err(crash_error(FaultOp::PageWrite))
            }
            FaultDecision::Fail(e) => Err(e),
        }
    }

    fn num_pages(&self) -> u64 {
        self.inner.num_pages()
    }

    fn sync(&mut self) -> DbResult<()> {
        match self.injector.check(FaultOp::PageSync, 0) {
            FaultDecision::Proceed => self.inner.sync(),
            FaultDecision::Torn { .. } => unreachable!("syncs carry no bytes"),
            FaultDecision::Fail(e) => Err(e),
        }
    }
}

/// Bounded retry with exponential backoff for [`DbError::Transient`]
/// faults. `max_retries == 0` disables retrying entirely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first failure (total attempts = `max_retries + 1`).
    pub max_retries: u32,
    /// Sleep before retry `i` is `base_backoff << i` (exponential).
    pub base_backoff: Duration,
}

impl RetryPolicy {
    /// No retries: every transient fault surfaces immediately.
    pub const fn none() -> RetryPolicy {
        RetryPolicy {
            max_retries: 0,
            base_backoff: Duration::from_micros(0),
        }
    }

    /// The durable-path default: 3 retries starting at 100µs backoff.
    pub const fn standard() -> RetryPolicy {
        RetryPolicy {
            max_retries: 3,
            base_backoff: Duration::from_micros(100),
        }
    }

    /// The backoff *ceiling* before retry attempt `attempt` (0-based).
    pub fn backoff(&self, attempt: u32) -> Duration {
        self.base_backoff
            .checked_mul(1u32 << attempt.min(16))
            .unwrap_or(Duration::from_secs(1))
    }

    /// Full-jitter backoff: a deterministic pseudo-uniform duration in
    /// `[0, backoff(attempt)]`, derived from `salt` via [`splitmix64`].
    /// Full jitter breaks the lockstep that plain exponential backoff
    /// produces when several threads observe the same transient fault at
    /// the same moment and then all retry in phase.
    pub fn jittered_backoff(&self, attempt: u32, salt: u64) -> Duration {
        let cap = self.backoff(attempt).as_nanos() as u64;
        if cap == 0 {
            return Duration::ZERO;
        }
        Duration::from_nanos(splitmix64(salt ^ ((attempt as u64) << 48)) % (cap + 1))
    }
}

/// Process-wide salt source for retry jitter: each retry loop draws a fresh
/// salt, so two threads that hit the same fault at the same op index still
/// sleep decorrelated durations. An atomic counter (not a clock) keeps the
/// whole fault stack clock-free.
static JITTER_SALT: AtomicU64 = AtomicU64::new(0x9e37_79b9);

/// A fresh, process-unique jitter salt.
fn jitter_salt() -> u64 {
    JITTER_SALT.fetch_add(0x6a09_e667_f3bc_c909, Ordering::Relaxed)
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy::none()
    }
}

/// Run `op` until it succeeds, fails permanently, or exhausts
/// `policy.max_retries` retries of transient faults, sleeping a full-jitter
/// backoff between attempts.
pub fn retry_transient<T>(policy: RetryPolicy, mut op: impl FnMut() -> DbResult<T>) -> DbResult<T> {
    let salt = jitter_salt();
    let mut attempt = 0;
    loop {
        match op() {
            Err(e) if e.is_transient() && attempt < policy.max_retries => {
                std::thread::sleep(policy.jittered_backoff(attempt, salt));
                attempt += 1;
            }
            other => return other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemStore;

    #[test]
    fn plan_triggers_fire_deterministically() {
        let plan = FaultPlan::fail_at(3, FaultKind::Transient);
        assert_eq!(plan.fault_for(2), None);
        assert_eq!(plan.fault_for(3), Some(FaultKind::Transient));
        assert_eq!(plan.fault_for(4), None);

        let plan = FaultPlan::every_kth(4, FaultKind::SyncFail);
        assert_eq!(plan.fault_for(0), None, "op 0 is always clean");
        assert_eq!(plan.fault_for(4), Some(FaultKind::SyncFail));
        assert_eq!(plan.fault_for(8), Some(FaultKind::SyncFail));
        assert_eq!(plan.fault_for(5), None);

        let plan = FaultPlan::script(vec![(1, FaultKind::Transient), (5, FaultKind::CrashStop)]);
        assert_eq!(plan.fault_for(1), Some(FaultKind::Transient));
        assert_eq!(plan.fault_for(5), Some(FaultKind::CrashStop));
        assert_eq!(plan.fault_for(3), None);
    }

    #[test]
    fn schedules_compose_onto_any_base_trigger() {
        // Periodic transients plus a scheduled crash, in one plan.
        let plan = FaultPlan::every_kth(4, FaultKind::Transient)
            .and_fail_at(6, FaultKind::CrashStop)
            .and_fail_at(9, FaultKind::TornWrite);
        assert_eq!(plan.fault_for(4), Some(FaultKind::Transient));
        assert_eq!(plan.fault_for(6), Some(FaultKind::CrashStop));
        assert_eq!(plan.fault_for(9), Some(FaultKind::TornWrite));
        assert_eq!(plan.fault_for(7), None);
        // On a collision the scheduled entry wins over the periodic base.
        let plan =
            FaultPlan::every_kth(4, FaultKind::Transient).and_fail_at(8, FaultKind::CrashStop);
        assert_eq!(plan.fault_for(8), Some(FaultKind::CrashStop));
        // Chaining onto a script keeps the original entries live too.
        let plan =
            FaultPlan::script(vec![(2, FaultKind::SyncFail)]).and_fail_at(3, FaultKind::CrashStop);
        assert_eq!(plan.fault_for(2), Some(FaultKind::SyncFail));
        assert_eq!(plan.fault_for(3), Some(FaultKind::CrashStop));
    }

    #[test]
    fn transient_faults_clear_on_retry() {
        let injector = FaultInjector::new(FaultPlan::fail_at(1, FaultKind::Transient));
        let mut store = FaultStore::new(Box::new(MemStore::new()), injector.clone());
        let page = [7u8; PAGE_SIZE];
        store.write_page(0, &page).unwrap(); // op 0: clean
        let err = store.write_page(1, &page).unwrap_err(); // op 1: transient
        assert!(err.is_transient(), "{err}");
        store.write_page(1, &page).unwrap(); // op 2: retry succeeds
        assert!(!injector.crashed());
        assert_eq!(injector.ops_seen(), 3);
    }

    #[test]
    fn crash_stop_is_permanent() {
        let injector = FaultInjector::new(FaultPlan::fail_at(1, FaultKind::CrashStop));
        let mut store = FaultStore::new(Box::new(MemStore::new()), injector.clone());
        let page = [1u8; PAGE_SIZE];
        store.write_page(0, &page).unwrap();
        assert!(store.write_page(1, &page).is_err());
        assert!(injector.crashed());
        // Everything after the crash fails, including reads and syncs.
        let mut buf = [0u8; PAGE_SIZE];
        assert!(store.read_page(0, &mut buf).is_err());
        assert!(store.sync().is_err());
    }

    #[test]
    fn torn_page_write_keeps_a_prefix_of_the_new_bytes() {
        let injector = FaultInjector::new(FaultPlan::fail_at(2, FaultKind::TornWrite).with_seed(9));
        let mut store = FaultStore::new(Box::new(MemStore::new()), injector.clone());
        let old = [0xaau8; PAGE_SIZE];
        store.write_page(0, &old).unwrap(); // op 0
        store.sync().unwrap(); // op 1
        let new = [0xbbu8; PAGE_SIZE];
        assert!(store.write_page(0, &new).is_err()); // op 2: tears
        assert!(injector.crashed());
        // Inspect the surviving bytes: a (possibly empty) prefix of the new
        // value spliced onto the old contents, with one clean boundary.
        let mut inner = store.into_inner();
        let mut buf = [0u8; PAGE_SIZE];
        inner.read_page(0, &mut buf).unwrap();
        let keep = buf.iter().take_while(|b| **b == 0xbb).count();
        assert!(
            buf[keep..].iter().all(|b| *b == 0xaa),
            "clean torn boundary"
        );
    }

    #[test]
    fn torn_prefix_is_seed_deterministic() {
        for seed in [0u64, 1, 42] {
            let a = FaultInjector::new(FaultPlan::fail_at(0, FaultKind::TornWrite).with_seed(seed));
            let b = FaultInjector::new(FaultPlan::fail_at(0, FaultKind::TornWrite).with_seed(seed));
            let ka = match a.check(FaultOp::WalSync, 1000) {
                FaultDecision::Torn { keep } => keep,
                other => panic!("{other:?}"),
            };
            let kb = match b.check(FaultOp::WalSync, 1000) {
                FaultDecision::Torn { keep } => keep,
                other => panic!("{other:?}"),
            };
            assert_eq!(ka, kb, "seed {seed}");
            assert!(ka <= 1000);
        }
    }

    #[test]
    fn retry_policy_bounds_and_backoff() {
        let policy = RetryPolicy::standard();
        let mut attempts = 0;
        let result: DbResult<()> = retry_transient(policy, || {
            attempts += 1;
            Err(DbError::Transient("always".into()))
        });
        assert!(result.is_err());
        assert_eq!(attempts, policy.max_retries as usize + 1);

        // A fault that clears after one retry succeeds.
        let mut attempts = 0;
        let result = retry_transient(policy, || {
            attempts += 1;
            if attempts == 1 {
                Err(DbError::Transient("once".into()))
            } else {
                Ok(attempts)
            }
        });
        assert_eq!(result.unwrap(), 2);

        // Permanent errors are never retried.
        let mut attempts = 0;
        let result: DbResult<()> = retry_transient(policy, || {
            attempts += 1;
            Err(DbError::Corruption("permanent".into()))
        });
        assert!(matches!(result, Err(DbError::Corruption(_))));
        assert_eq!(attempts, 1);
    }

    #[test]
    fn jittered_backoff_is_bounded_and_salt_sensitive() {
        let policy = RetryPolicy::standard();
        for attempt in 0..4 {
            let cap = policy.backoff(attempt);
            for salt in [0u64, 1, 99, 0xdead_beef] {
                let d = policy.jittered_backoff(attempt, salt);
                assert!(d <= cap, "attempt {attempt} salt {salt}: {d:?} > {cap:?}");
                // Deterministic: same inputs, same duration.
                assert_eq!(d, policy.jittered_backoff(attempt, salt));
            }
        }
        // Different salts decorrelate (not all equal for a non-zero cap).
        let ds: Vec<_> = (0..16u64)
            .map(|s| policy.jittered_backoff(3, splitmix64(s)))
            .collect();
        assert!(ds.iter().any(|d| *d != ds[0]), "salts must decorrelate");
        // Zero-backoff policies never sleep.
        assert_eq!(RetryPolicy::none().jittered_backoff(5, 42), Duration::ZERO);
    }
}
