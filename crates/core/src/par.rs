//! Sharded, multi-threaded audit execution with work-stealing chunks.
//!
//! Equation 15's `Violation_i` is a sum of independent per-provider terms,
//! and Definition 1's `w_i` and Definition 4's `default_i` are pure
//! functions of one provider's profile against the fixed house side — so an
//! audit partitions perfectly across worker threads.
//!
//! Scheduling is **dynamic**: the population is cut into fixed index
//! chunks ([`chunk_size`]) and workers pull the next unclaimed chunk off a
//! shared atomic counter ([`par_map_chunks`]). Unlike the PR-1 contiguous
//! [`shard_bounds`] split (one pre-assigned range per worker), a provider
//! with 100× the average preference tuples only delays its *chunk*, not a
//! whole shard — the other workers keep stealing the remaining chunks.
//! Chunks are merged back in index order, every provider goes through the
//! same compiled-plan hot loop as the sequential audit, and `u128` addition of per-chunk subtotals in index
//! order regroups the exact integer sum — so [`AuditEngine::par_audit`]
//! returns an [`AuditReport`] that compares **equal** to
//! [`AuditEngine::run`]'s (same scores, same witnesses, same totals, same
//! derived probabilities) for every thread count and any skew. Tests and a
//! property suite pin this, including a serialized byte-identity check.
//!
//! Threading uses `std::thread::scope`, so there is no dependency beyond
//! std and no lifetime gymnastics: borrowed profiles flow straight into
//! workers. [`shard_bounds`] remains for callers that want a static
//! contiguous split (stable generation uses it for seed bookkeeping).

use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use crate::audit::{AuditEngine, AuditReport, ProviderAudit};
use crate::packed::{Buffers, Kernel};
use crate::pop::CompiledPopulation;
use crate::profile::ProviderProfile;

/// Structured failure from the audit machinery: the process survives a
/// poisoned worker and the caller learns exactly which slice of the
/// population is implicated.
#[derive(Debug)]
pub enum AuditError {
    /// A worker closure panicked on a chunk — twice, since every chunk
    /// gets one deterministic in-place retry before being declared
    /// poisoned.
    WorkerPanicked {
        /// Index of the poisoned chunk.
        chunk: usize,
        /// First provider index of the chunk.
        start: usize,
        /// One-past-last provider index of the chunk.
        end: usize,
        /// The panic payload, stringified when possible.
        message: String,
    },
    /// The storage layer failed while assembling or persisting audit
    /// state (`Ppdb`-backed audits).
    Storage(qpv_reldb::DbError),
}

impl std::fmt::Display for AuditError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AuditError::WorkerPanicked {
                chunk,
                start,
                end,
                message,
            } => write!(
                f,
                "audit worker panicked on chunk {chunk} (providers {start}..{end}), \
                 twice after one retry: {message}"
            ),
            AuditError::Storage(e) => write!(f, "audit storage error: {e}"),
        }
    }
}

impl std::error::Error for AuditError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AuditError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<qpv_reldb::DbError> for AuditError {
    fn from(e: qpv_reldb::DbError) -> AuditError {
        AuditError::Storage(e)
    }
}

/// Deterministic panic injection for the parallel audit machinery, used
/// by the fault-tolerance regression tests. Not part of the public API
/// contract.
///
/// Arming is scoped to the calling thread: only chunk runs started from
/// that thread (including the worker threads those runs spawn) see the
/// failpoint, so a test that arms it never poisons an audit another test
/// runs concurrently in the same process.
#[doc(hidden)]
pub mod failpoint {
    use std::cell::RefCell;
    use std::sync::atomic::{AtomicI64, Ordering};
    use std::sync::Arc;

    /// An armed failpoint: chunk `chunk` panics `remaining` more times.
    pub(crate) struct Armed {
        chunk: usize,
        remaining: AtomicI64,
    }

    thread_local! {
        static ARMED: RefCell<Option<Arc<Armed>>> = const { RefCell::new(None) };
    }

    /// Arm the failpoint for chunk runs started from this thread: the next
    /// `times` executions of `chunk` panic. `times = 1` makes the in-place
    /// retry succeed; `i64::MAX` makes the chunk permanently poisoned.
    pub fn arm(chunk: usize, times: i64) {
        let armed = Armed {
            chunk,
            remaining: AtomicI64::new(times),
        };
        ARMED.with(|a| *a.borrow_mut() = Some(Arc::new(armed)));
    }

    /// Disarm this thread's failpoint.
    pub fn disarm() {
        ARMED.with(|a| *a.borrow_mut() = None);
    }

    /// The failpoint armed on this thread, for a chunk run to hand to its
    /// workers.
    pub(crate) fn current() -> Option<Arc<Armed>> {
        ARMED.with(|a| a.borrow().clone())
    }

    pub(crate) fn maybe_panic(armed: Option<&Armed>, chunk: usize) {
        if let Some(armed) = armed {
            if armed.chunk == chunk && armed.remaining.fetch_sub(1, Ordering::SeqCst) > 0 {
                panic!("injected audit worker fault in chunk {chunk}");
            }
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Below this population size the parallel entry points fall back to the
/// sequential path: thread spawn overhead would dominate.
pub const PAR_THRESHOLD: usize = 256;

/// The number of worker threads to use when the caller has no opinion:
/// the machine's available parallelism, with a fallback of 1.
pub fn default_threads() -> NonZeroUsize {
    std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN)
}

/// Split `len` items into at most `shards` contiguous `(start, end)`
/// ranges of near-equal size (the first `len % shards` ranges get one
/// extra item). Empty ranges are never produced.
pub fn shard_bounds(len: usize, shards: usize) -> Vec<(usize, usize)> {
    let shards = shards.max(1).min(len.max(1));
    let base = len / shards;
    let extra = len % shards;
    let mut bounds = Vec::with_capacity(shards);
    let mut start = 0;
    for s in 0..shards {
        let size = base + usize::from(s < extra);
        if size == 0 {
            break;
        }
        bounds.push((start, start + size));
        start += size;
    }
    bounds
}

/// The chunk granularity for dynamic assignment: aim for ~8 chunks per
/// worker (enough slack to absorb skewed providers) while keeping chunks
/// large enough (≥64) that counter traffic is negligible and small enough
/// (≤4096) that one pathological chunk cannot recreate a shard-sized
/// stall.
pub fn chunk_size(len: usize, threads: usize) -> usize {
    (len / (threads.max(1) * 8)).clamp(64, 4096)
}

/// Run one chunk under `catch_unwind` with one deterministic in-place
/// retry: a panic from `f` (a poisoned provider record, a bug tripped by
/// one slice of the population) is confined to its chunk, retried once
/// immediately on the same thread, and only then reported as a structured
/// [`AuditError::WorkerPanicked`] naming the chunk and its index range.
fn run_chunk<T, F>(
    f: &F,
    armed: Option<&failpoint::Armed>,
    i: usize,
    chunk: usize,
    len: usize,
) -> Result<T, AuditError>
where
    F: Fn(usize, usize) -> T + Sync,
{
    let start = i * chunk;
    let end = ((i + 1) * chunk).min(len);
    let attempt = || {
        failpoint::maybe_panic(armed, i);
        f(start, end)
    };
    match catch_unwind(AssertUnwindSafe(attempt)) {
        Ok(value) => Ok(value),
        Err(_first) => match catch_unwind(AssertUnwindSafe(attempt)) {
            Ok(value) => Ok(value),
            Err(payload) => Err(AuditError::WorkerPanicked {
                chunk: i,
                start,
                end,
                message: panic_message(payload.as_ref()),
            }),
        },
    }
}

/// Run `f(start, end)` over `len` items cut into `chunk`-sized index
/// ranges, with `threads` workers claiming chunks dynamically off a shared
/// atomic counter (work-stealing by competitive claiming). Results come
/// back **in chunk index order** regardless of which worker computed what
/// or when — the scheduling is invisible in the output, which is what lets
/// the audit report stay byte-identical under skew.
///
/// Falls back to a plain sequential loop for one worker (or one chunk) —
/// with the same panic-confinement semantics as the threaded path.
///
/// A chunk whose closure panics is retried once in place ([`run_chunk`]);
/// if it panics again the whole call returns the lowest-index failure as
/// [`AuditError::WorkerPanicked`] and the remaining workers stop claiming
/// new chunks. The process itself never unwinds past this function.
pub fn par_map_chunks<T, F>(
    len: usize,
    threads: usize,
    chunk: usize,
    f: F,
) -> Result<Vec<T>, AuditError>
where
    T: Send,
    F: Fn(usize, usize) -> T + Sync,
{
    let chunk = chunk.max(1);
    let n_chunks = len.div_ceil(chunk);
    if n_chunks == 0 {
        return Ok(Vec::new());
    }
    let armed = failpoint::current();
    let armed = armed.as_deref();
    let workers = threads.max(1).min(n_chunks);
    if workers <= 1 {
        return (0..n_chunks)
            .map(|i| run_chunk(&f, armed, i, chunk, len))
            .collect();
    }
    let next = AtomicUsize::new(0);
    let poisoned = AtomicBool::new(false);
    let outcome: Result<Vec<Option<T>>, Vec<AuditError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let (next, poisoned, f) = (&next, &poisoned, &f);
                scope.spawn(move || {
                    let mut produced = Vec::new();
                    let mut failures = Vec::new();
                    loop {
                        if poisoned.load(Ordering::Relaxed) {
                            break;
                        }
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n_chunks {
                            break;
                        }
                        match run_chunk(f, armed, i, chunk, len) {
                            Ok(value) => produced.push((i, value)),
                            Err(e) => {
                                // Confirmed failure (already retried once):
                                // tell the other workers to stop claiming.
                                poisoned.store(true, Ordering::Relaxed);
                                failures.push((i, e));
                                break;
                            }
                        }
                    }
                    (produced, failures)
                })
            })
            .collect();
        let mut slots: Vec<Option<T>> = (0..n_chunks).map(|_| None).collect();
        let mut failures: Vec<(usize, AuditError)> = Vec::new();
        for handle in handles {
            // Workers catch panics internally, so a join failure would mean
            // the thread itself died — fold it into the same error shape
            // rather than unwinding the caller.
            match handle.join() {
                Ok((produced, worker_failures)) => {
                    for (i, value) in produced {
                        slots[i] = Some(value);
                    }
                    failures.extend(worker_failures);
                }
                Err(payload) => failures.push((
                    usize::MAX,
                    AuditError::WorkerPanicked {
                        chunk: usize::MAX,
                        start: 0,
                        end: len,
                        message: panic_message(payload.as_ref()),
                    },
                )),
            }
        }
        if failures.is_empty() {
            Ok(slots)
        } else {
            // Deterministic report: the lowest-index failed chunk wins, no
            // matter which worker hit it or in which order threads joined.
            failures.sort_by_key(|(i, _)| *i);
            Err(failures.into_iter().map(|(_, e)| e).collect())
        }
    });
    match outcome {
        Ok(slots) => Ok(slots
            .into_iter()
            .map(|s| s.expect("every chunk is claimed exactly once"))
            .collect()),
        Err(mut failures) => Err(failures.remove(0)),
    }
}

impl AuditEngine {
    /// Audit a population across `threads` worker threads.
    ///
    /// Compiles the audit plan *and* the SoA population
    /// ([`CompiledPopulation`]) once, and prepares the scoring kernel
    /// once; workers claim fixed index chunks dynamically
    /// ([`par_map_chunks`]) and hand each chunk's occurrences to the
    /// shared kernel, each chunk with its own block buffers. Produces a
    /// report equal to [`AuditEngine::run`]'s for any thread count and any
    /// per-provider cost skew. Small populations (below [`PAR_THRESHOLD`]) and
    /// single-thread requests run sequentially.
    ///
    /// A worker panic (after one in-place retry of the offending chunk) is
    /// returned as [`AuditError::WorkerPanicked`] identifying the poisoned
    /// chunk instead of aborting the process; a fault-free run produces a
    /// report equal to the sequential one.
    pub fn par_audit(
        &self,
        profiles: &[ProviderProfile],
        threads: NonZeroUsize,
    ) -> Result<AuditReport, AuditError> {
        if threads.get() == 1 || profiles.len() < PAR_THRESHOLD {
            return Ok(self.run(profiles));
        }
        let pop = CompiledPopulation::from_profiles(profiles);
        self.par_audit_compiled(&pop, threads)
    }

    /// [`AuditEngine::par_audit`] over an already-compiled population.
    pub fn par_audit_compiled(
        &self,
        pop: &CompiledPopulation,
        threads: NonZeroUsize,
    ) -> Result<AuditReport, AuditError> {
        if threads.get() == 1 || pop.len() < PAR_THRESHOLD {
            return Ok(self.audit_compiled(pop));
        }
        // Plan compilation and kernel preparation are one pass each;
        // workers share the kernel read-only.
        let kernel = Kernel::new(pop, vec![self.compile_house()]);
        let chunk = chunk_size(pop.len(), threads.get());
        let chunks = par_map_chunks(pop.len(), threads.get(), chunk, |start, end| {
            let rows = kernel.audit_rows(pop, &pop.urows()[start..end], &mut Buffers::default());
            (start..end)
                .zip(rows)
                .map(|(i, row)| pop.occurrence_audit(i, row.score, row.witnesses))
                .collect::<Vec<ProviderAudit>>()
        })?;
        // Merge in chunk index order: provider order is the sequential
        // pass's, and the u128 total is exact in any order.
        let providers: Vec<ProviderAudit> = chunks.into_iter().flatten().collect();
        let total_violations = providers.iter().map(|p| u128::from(p.score)).sum();
        Ok(AuditReport {
            providers,
            total_violations,
        })
    }

    /// [`AuditEngine::run_with_policy`], sharded across `threads`.
    pub fn par_audit_with_policy(
        &self,
        profiles: &[ProviderProfile],
        policy: &qpv_policy::HousePolicy,
        threads: NonZeroUsize,
    ) -> Result<AuditReport, AuditError> {
        self.with_policy(policy).par_audit(profiles, threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sensitivity::{AttributeSensitivities, DatumSensitivity};
    use qpv_policy::{HousePolicy, ProviderId};
    use qpv_taxonomy::{PrivacyPoint, PrivacyTuple, PurposeLattice};

    fn pt(v: u32, g: u32, r: u32) -> PrivacyPoint {
        PrivacyPoint::from_raw(v, g, r)
    }

    fn population(n: u64) -> Vec<ProviderProfile> {
        (0..n)
            .map(|i| {
                let mut p = ProviderProfile::new(ProviderId(i), 20 + (i % 9) * 10);
                p.preferences.add(
                    "weight",
                    PrivacyTuple::from_point("pr", pt(2 + (i % 4) as u32, 2, 30)),
                );
                p.preferences.add(
                    "age",
                    PrivacyTuple::from_point("research", pt(3, 1 + (i % 3) as u32, 45)),
                );
                p.sensitivities.insert(
                    "weight".into(),
                    DatumSensitivity::new(1 + (i % 5) as u32, 1, 2, 1),
                );
                p
            })
            .collect()
    }

    fn engine() -> AuditEngine {
        let policy = HousePolicy::builder("h")
            .tuple("weight", PrivacyTuple::from_point("pr", pt(4, 3, 40)))
            .tuple("age", PrivacyTuple::from_point("research", pt(4, 2, 60)))
            .build();
        let mut weights = AttributeSensitivities::new();
        weights.set("weight", 4);
        weights.set("age", 2);
        AuditEngine::new(policy, ["weight", "age"], weights)
    }

    fn nz(n: usize) -> NonZeroUsize {
        NonZeroUsize::new(n).unwrap()
    }

    #[test]
    fn shard_bounds_cover_exactly_once() {
        for len in [0usize, 1, 2, 7, 255, 256, 1000, 1001] {
            for shards in [1usize, 2, 3, 4, 8, 17, 2000] {
                let bounds = shard_bounds(len, shards);
                let mut expect = 0;
                for &(start, end) in &bounds {
                    assert_eq!(start, expect, "len {len} shards {shards}");
                    assert!(end > start, "empty shard: len {len} shards {shards}");
                    expect = end;
                }
                assert_eq!(expect, len, "len {len} shards {shards}");
                assert!(bounds.len() <= shards.max(1));
                // Near-equal: sizes differ by at most one.
                if let (Some(min), Some(max)) = (
                    bounds.iter().map(|(s, e)| e - s).min(),
                    bounds.iter().map(|(s, e)| e - s).max(),
                ) {
                    assert!(max - min <= 1, "len {len} shards {shards}");
                }
            }
        }
    }

    #[test]
    fn par_map_chunks_covers_in_order() {
        for len in [0usize, 1, 63, 64, 65, 997, 4096, 5000] {
            for threads in [1usize, 2, 3, 8] {
                for chunk in [1usize, 7, 64, 4096] {
                    let got: Vec<(usize, usize)> =
                        par_map_chunks(len, threads, chunk, |s, e| (s, e)).unwrap();
                    let mut expect = 0;
                    for &(s, e) in &got {
                        assert_eq!(s, expect, "len {len} threads {threads} chunk {chunk}");
                        assert!(e > s && e <= len);
                        expect = e;
                    }
                    assert_eq!(expect, len, "len {len} threads {threads} chunk {chunk}");
                }
            }
        }
    }

    #[test]
    fn chunk_size_stays_in_bounds() {
        assert_eq!(chunk_size(0, 4), 64);
        assert_eq!(chunk_size(1000, 0), 125, "zero threads treated as one");
        assert_eq!(chunk_size(100_000, 4), 3125);
        assert_eq!(chunk_size(10_000_000, 4), 4096, "upper clamp");
        assert_eq!(chunk_size(100, 8), 64, "lower clamp");
    }

    #[test]
    fn skewed_population_report_is_byte_identical() {
        // One provider with ~100× the average preference tuples: the
        // dynamic scheduler must absorb the skew without the report
        // changing a byte relative to the sequential pass.
        let mut profiles = population(600);
        for i in 0..600 {
            profiles[300].preferences.add(
                "weight",
                PrivacyTuple::from_point("pr", pt(2 + (i % 3), 2, 30)),
            );
        }
        let engine = engine();
        let sequential = engine.run(&profiles);
        for threads in [2, 3, 8] {
            let parallel = engine.par_audit(&profiles, nz(threads)).unwrap();
            assert_eq!(
                serde_json::to_string(&parallel).unwrap(),
                serde_json::to_string(&sequential).unwrap(),
                "{threads} threads"
            );
        }
    }

    #[test]
    fn parallel_report_equals_sequential_for_all_thread_counts() {
        let profiles = population(997); // prime: uneven shards
        let engine = engine();
        let sequential = engine.run(&profiles);
        for threads in [1, 2, 3, 4, 8] {
            let parallel = engine.par_audit(&profiles, nz(threads)).unwrap();
            assert_eq!(parallel, sequential, "{threads} threads");
            assert_eq!(parallel.p_violation(), sequential.p_violation());
            assert_eq!(parallel.p_default(), sequential.p_default());
        }
    }

    #[test]
    fn parallel_lattice_audit_matches_sequential() {
        let mut lattice = PurposeLattice::new();
        lattice.add_edge("pr", "research").unwrap();
        let engine = engine().with_lattice(lattice);
        let profiles = population(600);
        let sequential = engine.run(&profiles);
        let parallel = engine.par_audit(&profiles, nz(4)).unwrap();
        assert_eq!(parallel, sequential);
    }

    #[test]
    fn small_populations_fall_back_to_sequential() {
        let engine = engine();
        let profiles = population(PAR_THRESHOLD as u64 - 1);
        let report = engine.par_audit(&profiles, nz(8)).unwrap();
        assert_eq!(report, engine.run(&profiles));
        let empty = engine.par_audit(&[], nz(4)).unwrap();
        assert_eq!(empty.population(), 0);
    }

    #[test]
    fn par_audit_with_policy_matches_run_with_policy() {
        let engine = engine();
        let profiles = population(500);
        let wider = engine.policy.widened_uniform(2);
        assert_eq!(
            engine
                .par_audit_with_policy(&profiles, &wider, nz(4))
                .unwrap(),
            engine.run_with_policy(&profiles, &wider),
        );
    }

    #[test]
    fn single_worker_panic_is_retried_once_and_absorbed() {
        failpoint::arm(2, 1); // chunk 2 panics exactly once
        let got = par_map_chunks(100, 4, 10, |s, e| e - s);
        failpoint::disarm();
        assert_eq!(got.unwrap(), vec![10; 10]);
    }

    #[test]
    fn permanently_poisoned_chunk_is_reported_not_propagated() {
        failpoint::arm(3, i64::MAX); // chunk 3 panics every time
        let got = par_map_chunks(100, 4, 10, |s, e| e - s);
        failpoint::disarm();
        match got {
            Err(AuditError::WorkerPanicked {
                chunk,
                start,
                end,
                ref message,
            }) => {
                assert_eq!((chunk, start, end), (3, 30, 40));
                assert!(message.contains("injected"), "{message}");
            }
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
    }

    #[test]
    fn sequential_fallback_confines_panics_identically() {
        failpoint::arm(0, i64::MAX);
        let got = par_map_chunks(10, 1, 10, |s, e| e - s); // workers <= 1 path
        failpoint::disarm();
        match got {
            Err(AuditError::WorkerPanicked { chunk, .. }) => assert_eq!(chunk, 0),
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
    }

    #[test]
    fn failpoint_is_scoped_to_the_arming_thread() {
        failpoint::arm(0, i64::MAX);
        // A run started from another thread (as a concurrently running
        // test would) never sees this thread's failpoint…
        let elsewhere = std::thread::spawn(|| par_map_chunks(100, 4, 10, |s, e| e - s))
            .join()
            .unwrap();
        // …while runs started here do, in their worker threads too.
        let here = par_map_chunks(100, 4, 10, |s, e| e - s);
        failpoint::disarm();
        assert_eq!(elsewhere.unwrap(), vec![10; 10]);
        assert!(matches!(
            here,
            Err(AuditError::WorkerPanicked { chunk: 0, .. })
        ));
        assert_eq!(par_map_chunks(100, 4, 10, |s, e| e - s).unwrap().len(), 10);
    }

    #[test]
    fn poisoned_par_audit_returns_err_and_engine_stays_usable() {
        let engine = engine();
        let profiles = population(600);
        failpoint::arm(1, i64::MAX);
        let err = engine.par_audit(&profiles, nz(4)).unwrap_err();
        failpoint::disarm();
        assert!(
            matches!(err, AuditError::WorkerPanicked { chunk: 1, .. }),
            "{err}"
        );
        assert!(err.to_string().contains("chunk 1"), "{err}");
        // The engine is not consumed or corrupted by the failure: the next
        // audit (no faults) matches the sequential report exactly.
        let clean = engine.par_audit(&profiles, nz(4)).unwrap();
        assert_eq!(clean, engine.run(&profiles));
    }

    #[test]
    fn worked_example_is_stable_under_par_audit() {
        // Table 1 must come out identically through the parallel entry
        // point (it falls back to sequential below the threshold, which is
        // itself part of the contract).
        let (v, g, r) = (5u32, 5u32, 5u32);
        let policy = HousePolicy::builder("house")
            .tuple("weight", PrivacyTuple::from_point("pr", pt(v, g, r)))
            .build();
        let mut weights = AttributeSensitivities::new();
        weights.set("weight", 4);
        let engine = AuditEngine::new(policy, ["weight"], weights);
        let mk = |id: u64, pref: PrivacyPoint, sens: DatumSensitivity, threshold: u64| {
            let mut profile = ProviderProfile::new(ProviderId(id), threshold);
            profile
                .preferences
                .add("weight", PrivacyTuple::from_point("pr", pref));
            profile.sensitivities.insert("weight".into(), sens);
            profile
        };
        let profiles = vec![
            mk(
                0,
                pt(v + 2, g + 1, r + 3),
                DatumSensitivity::new(1, 1, 2, 1),
                10,
            ),
            mk(
                1,
                pt(v + 2, g - 1, r + 2),
                DatumSensitivity::new(3, 1, 5, 2),
                50,
            ),
            mk(
                2,
                pt(v, g - 1, r - 1),
                DatumSensitivity::new(4, 1, 3, 2),
                100,
            ),
        ];
        let report = engine.par_audit(&profiles, default_threads()).unwrap();
        assert_eq!(
            report.providers.iter().map(|p| p.score).collect::<Vec<_>>(),
            vec![0, 60, 80]
        );
        assert_eq!(report.total_violations, 140);
        assert!((report.p_default() - 1.0 / 3.0).abs() < 1e-12);
    }
}
