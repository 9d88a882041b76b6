//! Table heaps: unordered record storage across a chain of pages.
//!
//! A [`TableHeap`] owns a singly-linked chain of slotted pages. Inserts go to
//! the tail page (allocating and linking a new page when the tail is full).
//! Scans walk the chain in order with [`TableHeap::for_each`], which
//! fetches each page from the pool once and lends every live record's
//! bytes to a closure without copying them. Records are
//! addressed by [`RowId`] — `(page, slot)` — which stays stable except for
//! updates that outgrow their page (those return the record's new id).

use serde::{Deserialize, Serialize};

use crate::buffer::BufferPool;
use crate::error::{DbError, DbResult};
use crate::row::RowId;

/// An unordered record store over a page chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TableHeap {
    first_page: u64,
    last_page: u64,
}

impl TableHeap {
    /// Create a heap with one empty page.
    pub fn create(pool: &mut BufferPool) -> DbResult<TableHeap> {
        let first = pool.allocate()?;
        Ok(TableHeap {
            first_page: first,
            last_page: first,
        })
    }

    /// Reconstruct a heap handle from catalog metadata.
    pub fn from_parts(first_page: u64, last_page: u64) -> TableHeap {
        TableHeap {
            first_page,
            last_page,
        }
    }

    /// The first page of the chain.
    pub fn first_page(&self) -> u64 {
        self.first_page
    }

    /// The last page of the chain.
    pub fn last_page(&self) -> u64 {
        self.last_page
    }

    /// Append a record, returning its address.
    pub fn insert(&mut self, pool: &mut BufferPool, record: &[u8]) -> DbResult<RowId> {
        let tail = pool.page_mut(self.last_page)?;
        match tail.insert(record) {
            Ok(slot) => Ok(RowId::new(self.last_page, slot)),
            Err(DbError::PageFull) => {
                let new_page = pool.allocate()?;
                pool.page_mut(self.last_page)?.set_next_page(Some(new_page));
                self.last_page = new_page;
                let slot = pool.page_mut(new_page)?.insert(record)?;
                Ok(RowId::new(new_page, slot))
            }
            Err(e) => Err(e),
        }
    }

    /// Fetch a record by address.
    pub fn get(&self, pool: &mut BufferPool, rid: RowId) -> DbResult<Vec<u8>> {
        let page = pool.page(rid.page)?;
        page.get(rid.slot)
            .map(<[u8]>::to_vec)
            .ok_or(DbError::RecordNotFound {
                page: rid.page,
                slot: rid.slot,
            })
    }

    /// Delete a record. Returns whether a live record was removed.
    pub fn delete(&self, pool: &mut BufferPool, rid: RowId) -> DbResult<bool> {
        Ok(pool.page_mut(rid.page)?.delete(rid.slot))
    }

    /// Replace a record. Usually in place; if the new bytes no longer fit in
    /// the record's page the record moves, and the *new* address is
    /// returned.
    pub fn update(&mut self, pool: &mut BufferPool, rid: RowId, record: &[u8]) -> DbResult<RowId> {
        match pool.page_mut(rid.page)?.update(rid.slot, record) {
            Ok(()) => Ok(rid),
            Err(DbError::PageFull) => {
                pool.page_mut(rid.page)?.delete(rid.slot);
                self.insert(pool, record)
            }
            Err(e) => Err(e),
        }
    }

    /// Visit every live record in chain order, borrowing its bytes straight
    /// from the resident page. Each page is fetched from the pool once, and
    /// `f` may stop the walk early by returning an error.
    pub fn for_each(
        &self,
        pool: &mut BufferPool,
        mut f: impl FnMut(RowId, &[u8]) -> DbResult<()>,
    ) -> DbResult<()> {
        let mut next = Some(self.first_page);
        while let Some(page_id) = next {
            let page = pool.page(page_id)?;
            for slot in 0..page.slot_count() {
                if let Some(record) = page.get(slot) {
                    f(RowId::new(page_id, slot), record)?;
                }
            }
            next = page.next_page();
        }
        Ok(())
    }

    /// Count live records (walks the chain).
    pub fn count(&self, pool: &mut BufferPool) -> DbResult<usize> {
        let mut n = 0;
        self.for_each(pool, |_, _| {
            n += 1;
            Ok(())
        })?;
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemStore;

    fn pool() -> BufferPool {
        BufferPool::new(Box::new(MemStore::new()), 8)
    }

    fn collect(heap: &TableHeap, pool: &mut BufferPool) -> Vec<(RowId, Vec<u8>)> {
        let mut out = Vec::new();
        heap.for_each(pool, |rid, bytes| {
            out.push((rid, bytes.to_vec()));
            Ok(())
        })
        .unwrap();
        out
    }

    #[test]
    fn insert_get_round_trip() {
        let mut pool = pool();
        let mut heap = TableHeap::create(&mut pool).unwrap();
        let rid = heap.insert(&mut pool, b"hello").unwrap();
        assert_eq!(heap.get(&mut pool, rid).unwrap(), b"hello");
    }

    #[test]
    fn grows_across_pages_and_scans_in_order() {
        let mut pool = pool();
        let mut heap = TableHeap::create(&mut pool).unwrap();
        let record = vec![0x5au8; 500];
        let mut rids = Vec::new();
        for i in 0..40 {
            let mut rec = record.clone();
            rec[0] = i as u8;
            rids.push(heap.insert(&mut pool, &rec).unwrap());
        }
        // 500-byte records, ~8 per page: the chain must have grown.
        assert!(heap.last_page() != heap.first_page());
        let scanned = collect(&heap, &mut pool);
        assert_eq!(scanned.len(), 40);
        for (i, (rid, rec)) in scanned.iter().enumerate() {
            assert_eq!(*rid, rids[i], "scan order must match insert order");
            assert_eq!(rec[0], i as u8);
        }
        assert_eq!(heap.count(&mut pool).unwrap(), 40);
    }

    #[test]
    fn delete_skips_in_scans() {
        let mut pool = pool();
        let mut heap = TableHeap::create(&mut pool).unwrap();
        let a = heap.insert(&mut pool, b"a").unwrap();
        let b = heap.insert(&mut pool, b"b").unwrap();
        let c = heap.insert(&mut pool, b"c").unwrap();
        assert!(heap.delete(&mut pool, b).unwrap());
        assert!(!heap.delete(&mut pool, b).unwrap());
        let scanned = collect(&heap, &mut pool);
        assert_eq!(
            scanned.iter().map(|(rid, _)| *rid).collect::<Vec<_>>(),
            vec![a, c]
        );
        assert!(matches!(
            heap.get(&mut pool, b),
            Err(DbError::RecordNotFound { .. })
        ));
    }

    #[test]
    fn update_in_place_preserves_rowid() {
        let mut pool = pool();
        let mut heap = TableHeap::create(&mut pool).unwrap();
        let rid = heap.insert(&mut pool, b"original").unwrap();
        let same = heap.update(&mut pool, rid, b"orig2").unwrap();
        assert_eq!(same, rid);
        assert_eq!(heap.get(&mut pool, rid).unwrap(), b"orig2");
    }

    #[test]
    fn oversized_update_moves_the_record() {
        let mut pool = pool();
        let mut heap = TableHeap::create(&mut pool).unwrap();
        // Fill the first page almost completely.
        let rid = heap.insert(&mut pool, b"victim").unwrap();
        while heap.last_page() == heap.first_page() {
            heap.insert(&mut pool, &[0u8; 256]).unwrap();
        }
        // Growing the victim beyond its page's free space forces a move.
        let big = vec![1u8; 2000];
        let new_rid = heap.update(&mut pool, rid, &big).unwrap();
        assert_ne!(new_rid, rid);
        assert_eq!(heap.get(&mut pool, new_rid).unwrap(), big);
        assert!(heap.get(&mut pool, rid).is_err());
    }

    #[test]
    fn scan_of_empty_heap_is_empty() {
        let mut pool = pool();
        let heap = TableHeap::create(&mut pool).unwrap();
        assert!(collect(&heap, &mut pool).is_empty());
        assert_eq!(heap.count(&mut pool).unwrap(), 0);
    }

    #[test]
    fn survives_buffer_pressure() {
        // Pool smaller than the chain: pages are evicted and refetched.
        let mut pool = BufferPool::new(Box::new(MemStore::new()), 2);
        let mut heap = TableHeap::create(&mut pool).unwrap();
        let mut rids = Vec::new();
        for i in 0..200u32 {
            rids.push(heap.insert(&mut pool, &i.to_le_bytes()).unwrap());
        }
        for (i, rid) in rids.iter().enumerate() {
            assert_eq!(heap.get(&mut pool, *rid).unwrap(), (i as u32).to_le_bytes());
        }
        assert_eq!(heap.count(&mut pool).unwrap(), 200);
    }
}
