//! An LRU buffer pool between the engine and the page store.
//!
//! All page access goes through [`BufferPool`]: pages are loaded into a
//! bounded set of frames, mutated in place, and written back on eviction or
//! at a checkpoint ([`BufferPool::flush_all`]). Recency is an index-linked
//! list over the frame slots, so hits and evictions are O(1) at any pool
//! size. The pool is single-threaded (`&mut` API), like the one-writer
//! engine above it, which keeps eviction and borrowing trivially sound.

use std::collections::HashMap;

use crate::disk::PageStore;
use crate::error::{DbError, DbResult};
use crate::fault::{retry_transient, RetryPolicy};
use crate::page::{Page, PAGE_SIZE};

/// Cache statistics, useful for the storage benchmarks.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Page requests served from a resident frame.
    pub hits: u64,
    /// Page requests that had to read from the store.
    pub misses: u64,
    /// Dirty pages written back during eviction.
    pub evictions: u64,
}

/// "No neighbour" in the recency list.
const NIL: usize = usize::MAX;

struct Frame {
    page_id: u64,
    page: Page,
    /// Recency-list neighbours: the next less / more recently used frame
    /// slot, or [`NIL`] at the ends.
    older: usize,
    newer: usize,
}

/// A bounded page cache with least-recently-used eviction.
///
/// Frames live in a slot vector threaded by an index-linked recency list,
/// so a hit moves its frame to the most-recent end and a miss takes its
/// victim from the least-recent end, both in O(1). The order is exactly
/// the one a per-access clock would give: the victim is always the frame
/// whose last access is oldest.
pub struct BufferPool {
    store: Box<dyn PageStore>,
    /// Resident frames; a slot is reused in place when its page is
    /// evicted, so the vector never outgrows `capacity`.
    frames: Vec<Frame>,
    /// Page id → slot of its resident frame.
    index: HashMap<u64, usize>,
    /// Least and most recently used slots ([`NIL`] while empty).
    lru: usize,
    mru: usize,
    capacity: usize,
    next_page_id: u64,
    stats: PoolStats,
    /// Bounded retry for transient store faults. Page reads, writes, and
    /// syncs are idempotent, so retrying any of them is always safe.
    retry: RetryPolicy,
}

impl BufferPool {
    /// Default number of resident pages (1024 × 4 KiB = 4 MiB).
    pub const DEFAULT_CAPACITY: usize = 1024;

    /// Create a pool over `store` holding at most `capacity` pages.
    pub fn new(store: Box<dyn PageStore>, capacity: usize) -> BufferPool {
        assert!(capacity > 0, "buffer pool needs at least one frame");
        let next_page_id = store.num_pages();
        BufferPool {
            store,
            frames: Vec::with_capacity(capacity),
            index: HashMap::with_capacity(capacity),
            lru: NIL,
            mru: NIL,
            capacity,
            next_page_id,
            stats: PoolStats::default(),
            retry: RetryPolicy::none(),
        }
    }

    /// Set the bounded-retry policy applied to transient store faults.
    pub fn set_retry_policy(&mut self, retry: RetryPolicy) {
        self.retry = retry;
    }

    /// Allocate a fresh page and return its id. The page is resident and
    /// dirty.
    pub fn allocate(&mut self) -> DbResult<u64> {
        let page_id = self.next_page_id;
        self.next_page_id += 1;
        let slot = self.make_room()?;
        let page = Page::new(page_id);
        // Materialise the page in the store immediately so that page-id
        // space is dense on disk even if this page is evicted clean later.
        retry_transient(self.retry, || {
            self.store.write_page(page_id, page.as_bytes())
        })?;
        self.install(slot, page_id, page);
        Ok(page_id)
    }

    /// Borrow a page immutably, faulting it in if needed.
    pub fn page(&mut self, page_id: u64) -> DbResult<&Page> {
        let slot = self.fault_in(page_id)?;
        Ok(&self.frames[slot].page)
    }

    /// Borrow a page mutably, faulting it in if needed.
    pub fn page_mut(&mut self, page_id: u64) -> DbResult<&mut Page> {
        let slot = self.fault_in(page_id)?;
        Ok(&mut self.frames[slot].page)
    }

    /// Write every dirty resident page back to the store and sync it.
    ///
    /// Pages are written in ascending page-id order (not `HashMap` order)
    /// so the store's I/O op stream is identical across runs — the fault
    /// injector's "crash at the Nth op" is meaningless otherwise.
    pub fn flush_all(&mut self) -> DbResult<()> {
        let mut dirty: Vec<(u64, usize)> = self
            .index
            .iter()
            .filter(|(_, &slot)| self.frames[slot].page.is_dirty())
            .map(|(&id, &slot)| (id, slot))
            .collect();
        dirty.sort_unstable();
        for (id, slot) in dirty {
            let frame = &mut self.frames[slot];
            retry_transient(self.retry, || {
                self.store.write_page(id, frame.page.as_bytes())
            })?;
            frame.page.mark_clean();
        }
        retry_transient(self.retry, || self.store.sync())
    }

    /// Total pages ever allocated (resident or not).
    pub fn num_pages(&self) -> u64 {
        self.next_page_id
    }

    /// Cache statistics since creation.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Number of currently resident pages (for tests).
    pub fn resident(&self) -> usize {
        self.index.len()
    }

    /// Make `page_id` resident and most recently used, returning its slot.
    fn fault_in(&mut self, page_id: u64) -> DbResult<usize> {
        if let Some(&slot) = self.index.get(&page_id) {
            self.unlink(slot);
            self.push_mru(slot);
            self.stats.hits += 1;
            return Ok(slot);
        }
        self.stats.misses += 1;
        if page_id >= self.next_page_id {
            return Err(DbError::Corruption(format!(
                "access to unallocated page {page_id}"
            )));
        }
        let slot = self.make_room()?;
        let mut buf = [0u8; PAGE_SIZE];
        retry_transient(self.retry, || self.store.read_page(page_id, &mut buf))?;
        let page = Page::from_bytes(buf)?;
        Ok(self.install(slot, page_id, page))
    }

    /// Place a page as the most recently used frame: in `victim`'s slot
    /// (evicting its page, already written back by [`Self::make_room`]),
    /// or in a new slot while the pool is below capacity.
    fn install(&mut self, victim: Option<usize>, page_id: u64, page: Page) -> usize {
        let frame = Frame {
            page_id,
            page,
            older: NIL,
            newer: NIL,
        };
        let slot = match victim {
            Some(slot) => {
                self.unlink(slot);
                self.index.remove(&self.frames[slot].page_id);
                self.frames[slot] = frame;
                slot
            }
            None => {
                self.frames.push(frame);
                self.frames.len() - 1
            }
        };
        self.index.insert(page_id, slot);
        self.push_mru(slot);
        slot
    }

    /// Detach `slot` from the recency list.
    fn unlink(&mut self, slot: usize) {
        let (older, newer) = (self.frames[slot].older, self.frames[slot].newer);
        match older {
            NIL => self.lru = newer,
            o => self.frames[o].newer = newer,
        }
        match newer {
            NIL => self.mru = older,
            n => self.frames[n].older = older,
        }
    }

    /// Append a detached `slot` at the most recently used end.
    fn push_mru(&mut self, slot: usize) {
        self.frames[slot].older = self.mru;
        self.frames[slot].newer = NIL;
        match self.mru {
            NIL => self.lru = slot,
            m => self.frames[m].newer = slot,
        }
        self.mru = slot;
    }

    /// If the pool is full, pick the least-recently-used frame as the
    /// victim for the next [`Self::install`] and write it back if dirty.
    /// The victim stays resident (now clean) until that install, so a
    /// failed write-back, or a failed read of the incoming page, leaves
    /// every frame intact.
    fn make_room(&mut self) -> DbResult<Option<usize>> {
        if self.frames.len() < self.capacity {
            return Ok(None);
        }
        let slot = self.lru;
        debug_assert_ne!(slot, NIL, "capacity > 0 and pool full implies a frame");
        let frame = &mut self.frames[slot];
        if frame.page.is_dirty() {
            retry_transient(self.retry, || {
                self.store.write_page(frame.page_id, frame.page.as_bytes())
            })?;
            frame.page.mark_clean();
            self.stats.evictions += 1;
        }
        Ok(Some(slot))
    }
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferPool")
            .field("capacity", &self.capacity)
            .field("resident", &self.index.len())
            .field("num_pages", &self.next_page_id)
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemStore;

    fn pool(capacity: usize) -> BufferPool {
        BufferPool::new(Box::new(MemStore::new()), capacity)
    }

    #[test]
    fn allocate_and_access() {
        let mut pool = pool(4);
        let a = pool.allocate().unwrap();
        let b = pool.allocate().unwrap();
        assert_ne!(a, b);
        pool.page_mut(a).unwrap().insert(b"alpha").unwrap();
        pool.page_mut(b).unwrap().insert(b"beta").unwrap();
        assert_eq!(pool.page(a).unwrap().get(0).unwrap(), b"alpha");
        assert_eq!(pool.page(b).unwrap().get(0).unwrap(), b"beta");
    }

    #[test]
    fn eviction_writes_back_dirty_pages() {
        let mut pool = pool(2);
        let ids: Vec<u64> = (0..5).map(|_| pool.allocate().unwrap()).collect();
        for (i, &id) in ids.iter().enumerate() {
            pool.page_mut(id)
                .unwrap()
                .insert(format!("rec{i}").as_bytes())
                .unwrap();
        }
        // Only 2 frames resident, but every page's data must survive.
        assert!(pool.resident() <= 2);
        for (i, &id) in ids.iter().enumerate() {
            let page = pool.page(id).unwrap();
            assert_eq!(page.get(0).unwrap(), format!("rec{i}").as_bytes());
        }
        assert!(pool.stats().evictions > 0);
        assert!(pool.stats().misses > 0);
    }

    #[test]
    fn lru_keeps_hot_pages() {
        let mut pool = pool(2);
        let a = pool.allocate().unwrap();
        let b = pool.allocate().unwrap();
        pool.page_mut(a).unwrap().insert(b"a").unwrap();
        pool.page_mut(b).unwrap().insert(b"b").unwrap();
        pool.flush_all().unwrap();
        let before = pool.stats();
        // Touch `a` so `b` is the LRU victim when `c` arrives.
        pool.page(a).unwrap();
        let c = pool.allocate().unwrap();
        pool.page(c).unwrap();
        // `a` should still be a hit.
        pool.page(a).unwrap();
        let after = pool.stats();
        assert_eq!(after.misses, before.misses, "hot page was evicted");
    }

    /// The clock-and-min-scan eviction rule the recency list replaced,
    /// kept as the reference: every access stamps a global clock, and the
    /// victim is the resident page with the smallest stamp.
    struct ClockModel {
        last_used: HashMap<u64, u64>,
        clock: u64,
        capacity: usize,
    }

    impl ClockModel {
        fn make_room(&mut self) {
            if self.last_used.len() < self.capacity {
                return;
            }
            let victim = *self
                .last_used
                .iter()
                .min_by_key(|(_, &t)| t)
                .map(|(id, _)| id)
                .unwrap();
            self.last_used.remove(&victim);
        }

        fn allocate(&mut self, id: u64) {
            self.make_room();
            self.clock += 1;
            self.last_used.insert(id, self.clock);
        }

        fn access(&mut self, id: u64) {
            self.clock += 1;
            if let Some(t) = self.last_used.get_mut(&id) {
                *t = self.clock;
                return;
            }
            self.make_room();
            self.last_used.insert(id, self.clock);
        }

        fn resident(&self) -> Vec<u64> {
            let mut ids: Vec<u64> = self.last_used.keys().copied().collect();
            ids.sort_unstable();
            ids
        }
    }

    #[test]
    fn recency_list_evicts_exactly_what_the_clock_min_scan_would() {
        // A seeded trace of allocations, reads, writes and flushes. The
        // resident sets agree after every step, so every eviction picked
        // the same victim as the reference rule.
        let capacity = 8;
        let mut pool = pool(capacity);
        let mut model = ClockModel {
            last_used: HashMap::new(),
            clock: 0,
            capacity,
        };
        let mut state = 0x5eed_u64;
        for step in 0..5_000u64 {
            state = crate::fault::splitmix64(state);
            let pages = pool.num_pages();
            if pages < 4 || (state.is_multiple_of(16) && pages < 48) {
                let id = pool.allocate().unwrap();
                model.allocate(id);
            } else {
                // Half the accesses go to the newest quarter of the pages,
                // so the trace mixes hits with misses.
                let span = if state & 2 == 0 { pages } else { pages / 4 + 1 };
                let id = pages - 1 - (state >> 8) % span;
                if state & 1 == 0 {
                    pool.page(id).unwrap();
                } else {
                    let _ = pool.page_mut(id).unwrap().insert(b"x");
                }
                model.access(id);
            }
            if step.is_multiple_of(97) {
                pool.flush_all().unwrap();
            }
            let mut resident: Vec<u64> = pool.index.keys().copied().collect();
            resident.sort_unstable();
            assert_eq!(resident, model.resident(), "step {step}");
        }
        let stats = pool.stats();
        assert!(stats.misses > 1_000 && stats.hits > 1_000, "{stats:?}");
        assert!(stats.evictions > 0, "{stats:?}");
    }

    #[test]
    fn failed_write_back_keeps_the_victim_resident() {
        use crate::fault::{FaultInjector, FaultKind, FaultPlan, FaultStore};
        // Op 0 materialises page `a`; op 1 is its eviction write-back.
        let plan = FaultPlan::fail_at(1, FaultKind::Transient);
        let store = FaultStore::new(Box::new(MemStore::new()), FaultInjector::new(plan));
        let mut pool = BufferPool::new(Box::new(store), 1);
        let a = pool.allocate().unwrap();
        pool.page_mut(a).unwrap().insert(b"kept").unwrap();
        assert!(pool.allocate().is_err());
        let misses = pool.stats().misses;
        // The dirty page is still resident, not dropped with its update.
        assert_eq!(pool.page(a).unwrap().get(0).unwrap(), b"kept");
        assert_eq!(pool.stats().misses, misses);
        // The retried eviction writes it back, so it survives a refault.
        let b = pool.allocate().unwrap();
        assert_eq!(pool.page(a).unwrap().get(0).unwrap(), b"kept");
        assert!(pool.page(b).is_ok());
    }

    #[test]
    fn unallocated_access_is_an_error() {
        let mut pool = pool(2);
        assert!(pool.page(0).is_err());
        pool.allocate().unwrap();
        assert!(pool.page(0).is_ok());
        assert!(pool.page(1).is_err());
    }

    #[test]
    fn flush_all_marks_clean_and_persists() {
        let mut pool = pool(2);
        let a = pool.allocate().unwrap();
        pool.page_mut(a).unwrap().insert(b"x").unwrap();
        pool.flush_all().unwrap();
        assert!(!pool.page(a).unwrap().is_dirty());
    }

    #[test]
    fn stats_track_hits_and_misses() {
        let mut pool = pool(1);
        let a = pool.allocate().unwrap();
        let b = pool.allocate().unwrap(); // evicts a
        pool.page(b).unwrap(); // hit
        pool.page(a).unwrap(); // miss (refault)
        let stats = pool.stats();
        assert!(stats.hits >= 1);
        assert!(stats.misses >= 1);
    }

    #[test]
    #[should_panic(expected = "at least one frame")]
    fn zero_capacity_is_rejected() {
        pool(0);
    }
}
