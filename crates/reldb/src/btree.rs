//! A from-scratch B+tree secondary index over composite keys.
//!
//! Maps `Vec<Value>` keys (one value per indexed column) to sets of
//! [`RowId`]s (indexes are non-unique). Internal nodes hold separator keys;
//! all entries live in leaves, which are linked left-to-right so range scans
//! stream without re-descending.
//!
//! Nodes live in an arena and reference each other by
//! index, which keeps the structure safe-Rust simple and cache-friendly.
//!
//! Range bounds use *prefix* semantics: a bound shorter than the key arity
//! constrains only the leading columns it names. `lo = hi = Included([a])`
//! over a two-column index therefore selects every key whose first column is
//! `a` — a plain lexicographic `Included([a])` upper bound would stop at the
//! exact key `[a]` and miss `[a, x]`. Prefix runs are contiguous in full key
//! order, so the partition-point descent stays valid.
//!
//! Deletion removes entries but does not rebalance: underfull nodes are left
//! in place (their slack is reused by later inserts). This "lazy deletion"
//! keeps the implementation compact and is the behaviour several production
//! engines shipped with for years. Every open re-packs it anyway: the
//! database collects each table's keys in one heap walk, sorts them, and
//! bulk-loads the tree bottom-up with [`BTreeIndex::from_sorted`] (see
//! [`crate::db::Database`]). Vacuum rebuilds its table's indexes the same
//! way.

use std::cmp::Ordering;
use std::ops::Bound;

use crate::row::RowId;
use crate::value::Value;

/// A composite index key: one value per indexed column, in index-column
/// order. Single-column indexes simply use length-1 keys.
pub type IndexKey = Vec<Value>;

/// Maximum keys per node before a split.
const ORDER: usize = 32;

/// Compare `key` against a (possibly shorter) `bound` prefix: only the first
/// `bound.len()` components of `key` participate. A key that runs out before
/// the bound does is `Less` (it cannot carry the whole prefix).
fn cmp_prefix(key: &[Value], bound: &[Value]) -> Ordering {
    for (k, b) in key.iter().zip(bound.iter()) {
        match k.cmp(b) {
            Ordering::Equal => continue,
            other => return other,
        }
    }
    if key.len() < bound.len() {
        Ordering::Less
    } else {
        Ordering::Equal
    }
}

/// Whether `key` is at or past the lower bound (prefix semantics:
/// `Excluded(p)` skips the entire run of keys extending prefix `p`).
fn satisfies_lo(key: &[Value], lo: &Bound<IndexKey>) -> bool {
    match lo {
        Bound::Unbounded => true,
        Bound::Included(b) => cmp_prefix(key, b) != Ordering::Less,
        Bound::Excluded(b) => cmp_prefix(key, b) == Ordering::Greater,
    }
}

/// Whether `key` is still inside the upper bound (prefix semantics:
/// `Included(p)` admits the entire run of keys extending prefix `p`).
fn satisfies_hi(key: &[Value], hi: &Bound<IndexKey>) -> bool {
    match hi {
        Bound::Unbounded => true,
        Bound::Included(b) => cmp_prefix(key, b) != Ordering::Greater,
        Bound::Excluded(b) => cmp_prefix(key, b) == Ordering::Less,
    }
}

#[derive(Debug)]
enum Node {
    Leaf {
        keys: Vec<IndexKey>,
        /// Row ids per key, kept sorted and deduplicated.
        postings: Vec<Vec<RowId>>,
        next: Option<usize>,
    },
    Internal {
        /// `keys[i]` separates `children[i]` (strictly less) from
        /// `children[i+1]` (greater or equal).
        keys: Vec<IndexKey>,
        children: Vec<usize>,
    },
}

/// A non-unique ordered index from composite keys to row ids.
#[derive(Debug)]
pub struct BTreeIndex {
    nodes: Vec<Node>,
    root: usize,
    entries: usize,
}

impl Default for BTreeIndex {
    fn default() -> Self {
        Self::new()
    }
}

impl BTreeIndex {
    /// An empty index.
    pub fn new() -> BTreeIndex {
        BTreeIndex {
            nodes: vec![Node::Leaf {
                keys: Vec::new(),
                postings: Vec::new(),
                next: None,
            }],
            root: 0,
            entries: 0,
        }
    }

    /// Bulk-load an index from `(key, rid)` entries sorted by key, then
    /// row id (an exact duplicate pair is kept once). Leaves are packed
    /// full and linked left to right, and each internal level is built
    /// bottom-up over the one below: one pass, no splits. Node fill is
    /// spread evenly across a level, so no node but a lone root is left
    /// nearly empty.
    ///
    /// # Panics
    ///
    /// In debug builds, if `entries` is not sorted.
    pub fn from_sorted(entries: Vec<(IndexKey, RowId)>) -> BTreeIndex {
        debug_assert!(
            entries.windows(2).all(|w| w[0] <= w[1]),
            "from_sorted needs entries sorted by (key, rid)"
        );
        let mut keys: Vec<IndexKey> = Vec::new();
        let mut postings: Vec<Vec<RowId>> = Vec::new();
        let mut entry_count = 0;
        for (key, rid) in entries {
            match (keys.last(), postings.last_mut()) {
                (Some(last), Some(posting)) if *last == key => {
                    if posting.last() == Some(&rid) {
                        continue;
                    }
                    posting.push(rid);
                }
                _ => {
                    keys.push(key);
                    postings.push(vec![rid]);
                }
            }
            entry_count += 1;
        }
        if keys.is_empty() {
            return BTreeIndex::new();
        }

        // Leaves: `(node id, first key)` per node of the current level.
        let mut nodes = Vec::new();
        let mut level: Vec<(usize, IndexKey)> = Vec::new();
        let mut keys = keys.into_iter();
        let mut postings = postings.into_iter();
        for size in even_chunks(keys.len(), ORDER) {
            let leaf_keys: Vec<IndexKey> = keys.by_ref().take(size).collect();
            let first = leaf_keys[0].clone();
            let id = nodes.len();
            if let Some(Node::Leaf { next, .. }) = nodes.last_mut() {
                *next = Some(id);
            }
            nodes.push(Node::Leaf {
                keys: leaf_keys,
                postings: postings.by_ref().take(size).collect(),
                next: None,
            });
            level.push((id, first));
        }
        // Internal levels: each node takes up to ORDER + 1 children, and
        // the first key of every child but its first separates them.
        while level.len() > 1 {
            let mut parents = Vec::new();
            let mut below = level.into_iter();
            for size in even_chunks(below.len(), ORDER + 1) {
                let mut group = below.by_ref().take(size);
                let (first_child, first) = group.next().expect("chunks are non-empty");
                let mut children = vec![first_child];
                let mut keys = Vec::with_capacity(size - 1);
                for (child, key) in group {
                    children.push(child);
                    keys.push(key);
                }
                parents.push((nodes.len(), first));
                nodes.push(Node::Internal { keys, children });
            }
            level = parents;
        }
        BTreeIndex {
            root: level[0].0,
            nodes,
            entries: entry_count,
        }
    }

    /// Number of `(key, row id)` entries.
    pub fn len(&self) -> usize {
        self.entries
    }

    /// Whether the index holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Insert an entry. Returns `false` (and changes nothing) if the exact
    /// `(key, rid)` pair is already present.
    pub fn insert(&mut self, key: IndexKey, rid: RowId) -> bool {
        match self.insert_rec(self.root, key, rid) {
            InsertOutcome::Duplicate => false,
            InsertOutcome::Done => {
                self.entries += 1;
                true
            }
            InsertOutcome::Split(sep, right) => {
                let new_root = Node::Internal {
                    keys: vec![sep],
                    children: vec![self.root, right],
                };
                self.nodes.push(new_root);
                self.root = self.nodes.len() - 1;
                self.entries += 1;
                true
            }
        }
    }

    /// Remove an entry. Returns whether the pair was present.
    pub fn remove(&mut self, key: &[Value], rid: RowId) -> bool {
        let leaf = self.find_leaf(key);
        let Node::Leaf { keys, postings, .. } = &mut self.nodes[leaf] else {
            unreachable!("find_leaf returns leaves");
        };
        let Ok(pos) = keys.binary_search_by(|k| k.as_slice().cmp(key)) else {
            return false;
        };
        let Ok(vpos) = postings[pos].binary_search(&rid) else {
            return false;
        };
        postings[pos].remove(vpos);
        if postings[pos].is_empty() {
            keys.remove(pos);
            postings.remove(pos);
        }
        self.entries -= 1;
        true
    }

    /// The row ids stored under the exact `key` (empty if absent), in
    /// `RowId` order.
    pub fn get(&self, key: &[Value]) -> &[RowId] {
        let leaf = self.find_leaf(key);
        let Node::Leaf { keys, postings, .. } = &self.nodes[leaf] else {
            unreachable!("find_leaf returns leaves");
        };
        match keys.binary_search_by(|k| k.as_slice().cmp(key)) {
            Ok(pos) => &postings[pos],
            Err(_) => &[],
        }
    }

    /// Whether any entry exists under the exact `key`.
    pub fn contains_key(&self, key: &[Value]) -> bool {
        !self.get(key).is_empty()
    }

    /// Stream `(key, rid)` pairs within the given bounds, in key order.
    ///
    /// Bounds are key *prefixes*: a bound naming fewer columns than the key
    /// constrains only those leading columns, so `Included(p)..=Included(p)`
    /// selects the whole run of keys extending `p` and `Excluded(p)` skips
    /// that whole run.
    pub fn range(&self, lo: Bound<&[Value]>, hi: Bound<&[Value]>) -> RangeIter<'_> {
        let lo = clone_bound(lo);
        let hi = clone_bound(hi);
        // Seek the leftmost leaf that can hold a key satisfying `lo`. The
        // satisfying keys are upward-closed in full key order (prefix runs
        // are contiguous), so every key right of the landing position
        // satisfies `lo` and the iterator only has to watch `hi`.
        let leaf = match &lo {
            Bound::Unbounded => self.leftmost_leaf(),
            _ => self.seek_leaf(&lo),
        };
        let idx = {
            let Node::Leaf { keys, .. } = &self.nodes[leaf] else {
                unreachable!("seek returns leaves");
            };
            keys.partition_point(|k| !satisfies_lo(k, &lo))
        };
        RangeIter {
            tree: self,
            leaf: Some(leaf),
            key_idx: idx,
            posting_idx: 0,
            hi,
        }
    }

    /// All entries in key order.
    pub fn iter(&self) -> RangeIter<'_> {
        self.range(Bound::Unbounded, Bound::Unbounded)
    }

    /// Depth of the tree (1 = just a root leaf). Exposed for tests.
    pub fn depth(&self) -> usize {
        let mut depth = 1;
        let mut node = self.root;
        while let Node::Internal { children, .. } = &self.nodes[node] {
            node = children[0];
            depth += 1;
        }
        depth
    }

    fn find_leaf(&self, key: &[Value]) -> usize {
        let mut node = self.root;
        loop {
            match &self.nodes[node] {
                Node::Leaf { .. } => return node,
                Node::Internal { keys, children } => {
                    // First separator strictly greater than key → that child.
                    let idx = keys.partition_point(|k| k.as_slice() <= key);
                    node = children[idx];
                }
            }
        }
    }

    /// Descend toward the first key satisfying `lo`: at each internal node,
    /// take the child left of the first satisfying separator. Every key in
    /// later siblings is `>=` that separator and therefore satisfies `lo`,
    /// so at most the landing leaf holds keys below the bound.
    fn seek_leaf(&self, lo: &Bound<IndexKey>) -> usize {
        let mut node = self.root;
        loop {
            match &self.nodes[node] {
                Node::Leaf { .. } => return node,
                Node::Internal { keys, children } => {
                    let idx = keys.partition_point(|k| !satisfies_lo(k, lo));
                    node = children[idx];
                }
            }
        }
    }

    fn leftmost_leaf(&self) -> usize {
        let mut node = self.root;
        while let Node::Internal { children, .. } = &self.nodes[node] {
            node = children[0];
        }
        node
    }

    fn insert_rec(&mut self, node: usize, key: IndexKey, rid: RowId) -> InsertOutcome {
        match &mut self.nodes[node] {
            Node::Leaf { keys, postings, .. } => {
                match keys.binary_search(&key) {
                    Ok(pos) => match postings[pos].binary_search(&rid) {
                        Ok(_) => return InsertOutcome::Duplicate,
                        Err(vpos) => {
                            postings[pos].insert(vpos, rid);
                            return InsertOutcome::Done;
                        }
                    },
                    Err(pos) => {
                        keys.insert(pos, key);
                        postings.insert(pos, vec![rid]);
                    }
                }
                if let Node::Leaf { keys, .. } = &self.nodes[node] {
                    if keys.len() <= ORDER {
                        return InsertOutcome::Done;
                    }
                }
                self.split_leaf(node)
            }
            Node::Internal { keys, children } => {
                let idx = keys.partition_point(|k| *k <= key);
                let child = children[idx];
                match self.insert_rec(child, key, rid) {
                    InsertOutcome::Split(sep, right) => {
                        let Node::Internal { keys, children } = &mut self.nodes[node] else {
                            unreachable!()
                        };
                        keys.insert(idx, sep);
                        children.insert(idx + 1, right);
                        if keys.len() <= ORDER {
                            InsertOutcome::Done
                        } else {
                            self.split_internal(node)
                        }
                    }
                    other => other,
                }
            }
        }
    }

    fn split_leaf(&mut self, node: usize) -> InsertOutcome {
        let new_id = self.nodes.len();
        let Node::Leaf {
            keys,
            postings,
            next,
        } = &mut self.nodes[node]
        else {
            unreachable!()
        };
        let mid = keys.len() / 2;
        let right_keys = keys.split_off(mid);
        let right_postings = postings.split_off(mid);
        let sep = right_keys[0].clone();
        let right = Node::Leaf {
            keys: right_keys,
            postings: right_postings,
            next: next.take(),
        };
        *next = Some(new_id);
        self.nodes.push(right);
        InsertOutcome::Split(sep, new_id)
    }

    fn split_internal(&mut self, node: usize) -> InsertOutcome {
        let new_id = self.nodes.len();
        let Node::Internal { keys, children } = &mut self.nodes[node] else {
            unreachable!()
        };
        let mid = keys.len() / 2;
        // The median key moves up; it separates the two halves.
        let right_keys = keys.split_off(mid + 1);
        let sep = keys.pop().expect("mid < len");
        let right_children = children.split_off(mid + 1);
        let right = Node::Internal {
            keys: right_keys,
            children: right_children,
        };
        self.nodes.push(right);
        InsertOutcome::Split(sep, new_id)
    }
}

/// Split `n` items into the fewest chunks of at most `cap`, sized within
/// one of each other.
fn even_chunks(n: usize, cap: usize) -> impl Iterator<Item = usize> {
    let count = n.div_ceil(cap);
    (0..count).map(move |i| n / count + usize::from(i < n % count))
}

fn clone_bound(b: Bound<&[Value]>) -> Bound<IndexKey> {
    match b {
        Bound::Unbounded => Bound::Unbounded,
        Bound::Included(v) => Bound::Included(v.to_vec()),
        Bound::Excluded(v) => Bound::Excluded(v.to_vec()),
    }
}

enum InsertOutcome {
    Duplicate,
    Done,
    Split(IndexKey, usize),
}

/// Streaming iterator over a key range; see [`BTreeIndex::range`].
pub struct RangeIter<'a> {
    tree: &'a BTreeIndex,
    leaf: Option<usize>,
    key_idx: usize,
    posting_idx: usize,
    hi: Bound<IndexKey>,
}

impl<'a> Iterator for RangeIter<'a> {
    type Item = (&'a [Value], RowId);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let leaf = self.leaf?;
            let Node::Leaf {
                keys,
                postings,
                next,
            } = &self.tree.nodes[leaf]
            else {
                unreachable!("leaf chain only contains leaves");
            };
            if self.key_idx >= keys.len() {
                self.leaf = *next;
                self.key_idx = 0;
                self.posting_idx = 0;
                continue;
            }
            let key = &keys[self.key_idx];
            if !satisfies_hi(key, &self.hi) {
                self.leaf = None;
                return None;
            }
            let posting = &postings[self.key_idx];
            if self.posting_idx < posting.len() {
                let rid = posting[self.posting_idx];
                self.posting_idx += 1;
                return Some((key, rid));
            }
            self.key_idx += 1;
            self.posting_idx = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn rid(n: u64) -> RowId {
        RowId::new(n / 16, (n % 16) as u16)
    }

    fn k1(i: i64) -> IndexKey {
        vec![Value::Int(i)]
    }

    #[test]
    fn empty_index() {
        let idx = BTreeIndex::new();
        assert!(idx.is_empty());
        assert_eq!(idx.get(&k1(1)), &[]);
        assert_eq!(idx.iter().count(), 0);
        assert_eq!(idx.depth(), 1);
    }

    #[test]
    fn point_lookup_after_many_inserts() {
        let mut idx = BTreeIndex::new();
        for i in 0..1000i64 {
            assert!(idx.insert(k1(i), rid(i as u64)));
        }
        assert_eq!(idx.len(), 1000);
        assert!(idx.depth() > 1, "1000 keys must have split the root");
        for i in 0..1000i64 {
            assert_eq!(idx.get(&k1(i)), &[rid(i as u64)], "key {i}");
        }
        assert!(idx.get(&k1(-1)).is_empty());
        assert!(idx.get(&k1(1000)).is_empty());
    }

    #[test]
    fn duplicate_pairs_rejected_but_multi_rid_per_key_allowed() {
        let mut idx = BTreeIndex::new();
        assert!(idx.insert(k1(5), rid(1)));
        assert!(idx.insert(k1(5), rid(2)));
        assert!(!idx.insert(k1(5), rid(1)));
        assert_eq!(idx.get(&k1(5)), &[rid(1), rid(2)]);
        assert_eq!(idx.len(), 2);
    }

    #[test]
    fn remove_entries_and_keys() {
        let mut idx = BTreeIndex::new();
        idx.insert(k1(5), rid(1));
        idx.insert(k1(5), rid(2));
        assert!(idx.remove(&k1(5), rid(1)));
        assert!(!idx.remove(&k1(5), rid(1)));
        assert_eq!(idx.get(&k1(5)), &[rid(2)]);
        assert!(idx.remove(&k1(5), rid(2)));
        assert!(!idx.contains_key(&k1(5)));
        assert!(idx.is_empty());
        assert!(!idx.remove(&k1(99), rid(1)));
    }

    #[test]
    fn range_scans_in_key_order() {
        let mut idx = BTreeIndex::new();
        // Insert in reverse to exercise ordering.
        for i in (0..500i64).rev() {
            idx.insert(k1(i), rid(i as u64));
        }
        let all: Vec<i64> = idx.iter().map(|(k, _)| k[0].as_int().unwrap()).collect();
        assert_eq!(all, (0..500).collect::<Vec<_>>());

        let lo = k1(100);
        let hi = k1(110);
        let mid: Vec<i64> = idx
            .range(
                Bound::Included(lo.as_slice()),
                Bound::Excluded(hi.as_slice()),
            )
            .map(|(k, _)| k[0].as_int().unwrap())
            .collect();
        assert_eq!(mid, (100..110).collect::<Vec<_>>());

        let lo = k1(100);
        let hi = k1(103);
        let excl: Vec<i64> = idx
            .range(
                Bound::Excluded(lo.as_slice()),
                Bound::Included(hi.as_slice()),
            )
            .map(|(k, _)| k[0].as_int().unwrap())
            .collect();
        assert_eq!(excl, vec![101, 102, 103]);
    }

    #[test]
    fn range_with_absent_bounds() {
        let mut idx = BTreeIndex::new();
        for i in [10i64, 20, 30] {
            idx.insert(k1(i), rid(i as u64));
        }
        // Bounds that fall between keys.
        let lo = k1(15);
        let hi = k1(25);
        let found: Vec<i64> = idx
            .range(
                Bound::Included(lo.as_slice()),
                Bound::Included(hi.as_slice()),
            )
            .map(|(k, _)| k[0].as_int().unwrap())
            .collect();
        assert_eq!(found, vec![20]);
        // Empty range.
        let lo = k1(21);
        let hi = k1(22);
        assert_eq!(
            idx.range(
                Bound::Included(lo.as_slice()),
                Bound::Excluded(hi.as_slice())
            )
            .count(),
            0
        );
    }

    #[test]
    fn text_keys_work() {
        let mut idx = BTreeIndex::new();
        for (i, name) in ["delta", "alpha", "charlie", "bravo"].iter().enumerate() {
            idx.insert(vec![Value::Text(name.to_string())], rid(i as u64));
        }
        let names: Vec<&str> = idx.iter().map(|(k, _)| k[0].as_text().unwrap()).collect();
        assert_eq!(names, vec!["alpha", "bravo", "charlie", "delta"]);
    }

    fn k2(a: i64, b: &str) -> IndexKey {
        vec![Value::Int(a), Value::Text(b.to_string())]
    }

    #[test]
    fn composite_keys_order_lexicographically() {
        let mut idx = BTreeIndex::new();
        idx.insert(k2(2, "a"), rid(0));
        idx.insert(k2(1, "z"), rid(1));
        idx.insert(k2(1, "a"), rid(2));
        idx.insert(k2(2, "m"), rid(3));
        let order: Vec<(i64, String)> = idx
            .iter()
            .map(|(k, _)| (k[0].as_int().unwrap(), k[1].as_text().unwrap().to_string()))
            .collect();
        assert_eq!(
            order,
            vec![
                (1, "a".to_string()),
                (1, "z".to_string()),
                (2, "a".to_string()),
                (2, "m".to_string()),
            ]
        );
        assert_eq!(idx.get(&k2(1, "z")), &[rid(1)]);
        assert!(idx.get(&k2(1, "q")).is_empty());
        // A bare prefix is not an exact key.
        assert!(idx.get(&k1(1)).is_empty());
    }

    #[test]
    fn prefix_bounds_select_whole_runs() {
        let mut idx = BTreeIndex::new();
        let mut n = 0u64;
        for a in 0..40i64 {
            for b in ["a", "b", "c"] {
                idx.insert(k2(a, b), rid(n));
                n += 1;
            }
        }
        // Equality on the leading column via Included(prefix) both sides.
        let p = k1(7);
        let run: Vec<String> = idx
            .range(Bound::Included(p.as_slice()), Bound::Included(p.as_slice()))
            .map(|(k, _)| {
                assert_eq!(k[0].as_int().unwrap(), 7);
                k[1].as_text().unwrap().to_string()
            })
            .collect();
        assert_eq!(run, vec!["a", "b", "c"]);
        // Excluded(prefix) skips the entire run.
        let lo = k1(7);
        let hi = k1(9);
        let after: Vec<(i64, String)> = idx
            .range(
                Bound::Excluded(lo.as_slice()),
                Bound::Excluded(hi.as_slice()),
            )
            .map(|(k, _)| (k[0].as_int().unwrap(), k[1].as_text().unwrap().to_string()))
            .collect();
        assert_eq!(
            after,
            vec![
                (8, "a".to_string()),
                (8, "b".to_string()),
                (8, "c".to_string())
            ]
        );
        // Full-key bounds still narrow within a run.
        let lo = k2(7, "b");
        let hi = k1(7);
        let tail: Vec<String> = idx
            .range(
                Bound::Included(lo.as_slice()),
                Bound::Included(hi.as_slice()),
            )
            .map(|(k, _)| k[1].as_text().unwrap().to_string())
            .collect();
        assert_eq!(tail, vec!["b", "c"]);
    }

    #[test]
    fn prefix_seek_lands_correctly_across_splits() {
        // Enough keys to force depth > 1 so the seek descends internals.
        let mut idx = BTreeIndex::new();
        let mut n = 0u64;
        for a in 0..200i64 {
            for b in ["x", "y"] {
                idx.insert(k2(a, b), rid(n));
                n += 1;
            }
        }
        assert!(idx.depth() > 1);
        for a in 0..200i64 {
            let p = k1(a);
            let hits = idx
                .range(Bound::Included(p.as_slice()), Bound::Included(p.as_slice()))
                .count();
            assert_eq!(hits, 2, "prefix {a}");
        }
        let lo = k1(198);
        let rest: Vec<i64> = idx
            .range(Bound::Excluded(lo.as_slice()), Bound::Unbounded)
            .map(|(k, _)| k[0].as_int().unwrap())
            .collect();
        assert_eq!(rest, vec![199, 199]);
    }

    /// A sorted copy of `entries`, ready for [`BTreeIndex::from_sorted`].
    fn sorted(entries: &[(IndexKey, RowId)]) -> Vec<(IndexKey, RowId)> {
        let mut out = entries.to_vec();
        out.sort_unstable();
        out
    }

    /// Every `(key, rid)` pair in key order.
    fn all(idx: &BTreeIndex) -> Vec<(IndexKey, RowId)> {
        idx.iter().map(|(k, r)| (k.to_vec(), r)).collect()
    }

    #[test]
    fn bulk_load_of_nothing_is_the_empty_index() {
        let idx = BTreeIndex::from_sorted(Vec::new());
        assert!(idx.is_empty());
        assert_eq!(idx.depth(), 1);
        assert_eq!(idx.iter().count(), 0);
    }

    #[test]
    fn bulk_load_builds_every_level_and_keeps_duplicates_once() {
        // 5000 keys over 32-key leaves need three levels.
        let mut entries: Vec<(IndexKey, RowId)> =
            (0..5000i64).map(|i| (k1(i), rid(i as u64))).collect();
        entries.push((k1(7), rid(1)));
        entries.push((k1(7), rid(7)));
        let entries = sorted(&entries);
        let idx = BTreeIndex::from_sorted(entries.clone());
        assert_eq!(idx.depth(), 3);
        assert_eq!(idx.len(), 5001);
        assert_eq!(idx.get(&k1(7)), &[rid(1), rid(7)]);
        let mut inserted = BTreeIndex::new();
        for (k, r) in entries {
            inserted.insert(k, r);
        }
        assert_eq!(all(&idx), all(&inserted));
        for i in [-1i64, 0, 31, 32, 33, 1056, 4999, 5000] {
            assert_eq!(idx.get(&k1(i)), inserted.get(&k1(i)), "key {i}");
        }
    }

    /// A composite `(Int, Text)` key; a narrow `a` range gives long runs
    /// of one prefix, a wide one gives trees three levels deep.
    fn arb_entry(a: std::ops::Range<i64>, rids: u64) -> impl Strategy<Value = (i64, u8, u64)> {
        (a, 0u8..4, 0u64..rids)
    }

    fn key(a: i64, t: u8) -> IndexKey {
        vec![
            Value::Int(a),
            Value::Text(["", "a", "ab", "b"][t as usize].into()),
        ]
    }

    /// The two trees agree on `iter`, `len`, every exact key's postings,
    /// and prefix-bound ranges around `probe`.
    fn assert_same_index(bulk: &BTreeIndex, inserted: &BTreeIndex, probe: i64) {
        assert_eq!(all(bulk), all(inserted));
        assert_eq!(bulk.len(), inserted.len());
        for (k, _) in inserted.iter() {
            assert_eq!(bulk.get(k), inserted.get(k), "key {k:?}");
        }
        assert_eq!(bulk.get(&key(probe, 0)), inserted.get(&key(probe, 0)));
        let (p, full) = (k1(probe), key(probe, 2));
        let (p, full) = (p.as_slice(), full.as_slice());
        let ranges = [
            (Bound::Included(p), Bound::Included(p)),
            (Bound::Excluded(p), Bound::Unbounded),
            (Bound::Unbounded, Bound::Excluded(p)),
            (Bound::Included(full), Bound::Included(p)),
        ];
        for (lo, hi) in ranges {
            let got: Vec<_> = bulk.range(lo, hi).map(|(k, r)| (k.to_vec(), r)).collect();
            let want: Vec<_> = inserted
                .range(lo, hi)
                .map(|(k, r)| (k.to_vec(), r))
                .collect();
            assert_eq!(got, want, "range {lo:?}..{hi:?}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// A bulk-loaded tree is the insert-built tree: on composite keys
        /// with duplicate pairs and many row ids per key, both answer
        /// `iter`, `get` and prefix `range` alike, and keep doing so
        /// through later inserts and removes on both.
        #[test]
        fn prop_bulk_load_matches_insert_built(
            wide in proptest::collection::vec(arb_entry(-400..400, 4), 0..2400),
            narrow in proptest::collection::vec(arb_entry(-3..3, 64), 0..400),
            ops in proptest::collection::vec((any::<bool>(), arb_entry(-400..400, 4)), 0..400),
            probe in -400i64..400,
        ) {
            let entries: Vec<(IndexKey, RowId)> = wide
                .iter()
                .chain(&narrow)
                .map(|&(a, t, r)| (key(a, t), rid(r)))
                .collect();
            let mut inserted = BTreeIndex::new();
            for (k, r) in &entries {
                inserted.insert(k.clone(), *r);
            }
            let mut bulk = BTreeIndex::from_sorted(sorted(&entries));
            assert_same_index(&bulk, &inserted, probe);
            for (is_insert, (a, t, r)) in ops {
                let (k, r) = (key(a, t), rid(r));
                if is_insert {
                    prop_assert_eq!(bulk.insert(k.clone(), r), inserted.insert(k, r));
                } else {
                    prop_assert_eq!(bulk.remove(&k, r), inserted.remove(&k, r));
                }
            }
            assert_same_index(&bulk, &inserted, probe);
        }
    }

    proptest! {
        /// The index agrees with a BTreeMap shadow model under random
        /// insert/remove interleavings, for lookups and full ordered scans.
        #[test]
        fn prop_matches_shadow_model(
            ops in proptest::collection::vec((any::<bool>(), -50i64..50, 0u64..20), 1..600)
        ) {
            use std::collections::BTreeMap;
            let mut idx = BTreeIndex::new();
            let mut model: BTreeMap<i64, Vec<RowId>> = BTreeMap::new();
            for (is_insert, key, r) in ops {
                let value = k1(key);
                let r = rid(r);
                if is_insert {
                    let inserted = idx.insert(value, r);
                    let posting = model.entry(key).or_default();
                    match posting.binary_search(&r) {
                        Ok(_) => prop_assert!(!inserted),
                        Err(pos) => {
                            prop_assert!(inserted);
                            posting.insert(pos, r);
                        }
                    }
                } else {
                    let removed = idx.remove(&value, r);
                    let model_had = model.get_mut(&key).map(|p| {
                        if let Ok(pos) = p.binary_search(&r) { p.remove(pos); true } else { false }
                    }).unwrap_or(false);
                    if model.get(&key).is_some_and(|p| p.is_empty()) {
                        model.remove(&key);
                    }
                    prop_assert_eq!(removed, model_had);
                }
            }
            // Point lookups agree.
            for (key, posting) in &model {
                prop_assert_eq!(idx.get(&k1(*key)), &posting[..]);
            }
            // Ordered scan agrees.
            let scanned: Vec<(i64, RowId)> =
                idx.iter().map(|(k, r)| (k[0].as_int().unwrap(), r)).collect();
            let expected: Vec<(i64, RowId)> = model
                .iter()
                .flat_map(|(k, p)| p.iter().map(move |r| (*k, *r)))
                .collect();
            prop_assert_eq!(idx.len(), expected.len());
            prop_assert_eq!(scanned, expected);
        }

        /// Composite prefix ranges agree with a shadow model filter.
        #[test]
        fn prop_prefix_ranges_match_shadow(
            pairs in proptest::collection::vec((-8i64..8, 0i64..6), 1..300),
            probe in -8i64..8,
        ) {
            let mut idx = BTreeIndex::new();
            let mut model: Vec<(i64, i64, RowId)> = Vec::new();
            for (n, (a, b)) in pairs.iter().enumerate() {
                let r = rid(n as u64);
                if idx.insert(vec![Value::Int(*a), Value::Int(*b)], r) {
                    model.push((*a, *b, r));
                }
            }
            model.sort();
            let p = vec![Value::Int(probe)];
            let got: Vec<(i64, i64, RowId)> = idx
                .range(Bound::Included(p.as_slice()), Bound::Included(p.as_slice()))
                .map(|(k, r)| (k[0].as_int().unwrap(), k[1].as_int().unwrap(), r))
                .collect();
            let want: Vec<(i64, i64, RowId)> =
                model.iter().copied().filter(|(a, _, _)| *a == probe).collect();
            prop_assert_eq!(got, want);
            // Excluded prefix = everything strictly after the run.
            let after: Vec<(i64, i64, RowId)> = idx
                .range(Bound::Excluded(p.as_slice()), Bound::Unbounded)
                .map(|(k, r)| (k[0].as_int().unwrap(), k[1].as_int().unwrap(), r))
                .collect();
            let want_after: Vec<(i64, i64, RowId)> =
                model.iter().copied().filter(|(a, _, _)| *a > probe).collect();
            prop_assert_eq!(after, want_after);
        }
    }
}
