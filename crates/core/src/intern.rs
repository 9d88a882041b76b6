//! Symbol interning for the compiled audit path.
//!
//! The model's hot loops compare attribute and purpose *names* — strings —
//! once per provider per policy tuple. A [`SymbolTable`] maps each distinct
//! name to a dense `u32` id exactly once, so everything downstream
//! ([`crate::plan::CompiledAuditPlan`], [`crate::pop::CompiledPopulation`],
//! the incremental auditor's preference index) runs on integer ids: array
//! indexing instead of string hashing, and `u32` equality instead of byte
//! comparison.
//!
//! Names are stored behind `Arc<str>`, so resolving an id back to a name
//! for witness construction ([`SymbolTable::resolve_shared`]) is a
//! reference-count bump, never a string copy.
//!
//! # Hashing scan keys
//!
//! The maps on the storage-to-population path — [`SymbolTable`]'s name
//! map, the row-intern table's `HashIndex` and the id → position map of
//! [`crate::ppdb::Ppdb::compiled_population`] — hash with `ScanHasher`,
//! not the standard library's `RandomState`. Their keys are plain
//! integers, short names, or `SigHasher` fingerprints that are already
//! mixed, so SipHash's per-key cost buys nothing here; a multiply-rotate
//! round per word is enough to spread them. The hasher is deterministic
//! (no per-map seed).
//!
//! Hash flooding: `RandomState`'s random keys defend a map against
//! adversarial keys chosen to collide. Every key these maps see comes from
//! the owner's own store (its provider ids, its attribute and purpose
//! names, and fingerprints of its own rows), so the threat is out of
//! scope. Maps keyed by input from elsewhere should keep `RandomState`.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// A `HashMap` hashed by [`ScanHasher`].
pub(crate) type ScanMap<K, V> = HashMap<K, V, BuildHasherDefault<ScanHasher>>;

/// A deterministic multiply-rotate hasher for keys the owner's own store
/// supplies (see the module doc for the hash-flooding stance). Each 64-bit
/// word is folded in as `(h.rotl(5) ^ word) * K`; `finish` rotates the
/// well-mixed high bits down, where `hashbrown` picks the bucket.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ScanHasher(u64);

impl ScanHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0xF135_7AEA_2E62_A9C5);
    }
}

impl Hasher for ScanHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(last));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// A dense string → `u32` interner. Ids are assigned in first-intern order
/// starting at 0, so a table of `n` symbols indexes a `Vec` of length `n`
/// directly.
#[derive(Debug, Clone, Default)]
pub struct SymbolTable {
    ids: ScanMap<Arc<str>, u32>,
    names: Vec<Arc<str>>,
}

impl SymbolTable {
    /// An empty table.
    pub fn new() -> SymbolTable {
        SymbolTable::default()
    }

    /// Intern a name, returning its id (existing or freshly assigned).
    pub fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = u32::try_from(self.names.len()).expect("symbol table overflow");
        let shared: Arc<str> = Arc::from(name);
        self.ids.insert(shared.clone(), id);
        self.names.push(shared);
        id
    }

    /// The id of an already-interned name. `None` means the name was never
    /// seen at compile time — for the audit plan that means no policy row
    /// can possibly match it.
    pub fn get(&self, name: &str) -> Option<u32> {
        self.ids.get(name).copied()
    }

    /// The name behind an id.
    ///
    /// # Panics
    /// If the id was not produced by this table.
    pub fn resolve(&self, id: u32) -> &str {
        &self.names[id as usize]
    }

    /// The shared handle behind an id — a reference-count bump, no copy.
    ///
    /// # Panics
    /// If the id was not produced by this table.
    pub fn resolve_shared(&self, id: u32) -> Arc<str> {
        self.names[id as usize].clone()
    }

    /// Number of interned symbols.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// All interned names, in id order (index = id).
    pub fn names(&self) -> &[Arc<str>] {
        &self.names
    }
}

/// A deterministic streaming hasher over `u32` words (splitmix64-style
/// mixing), used to fingerprint unique preference/datum rows for the
/// row-intern table in [`crate::pop`]. Deliberately not `RandomState`:
/// rebuilding the same population must produce the same fingerprints so
/// snapshots decode into bit-identical lookup structures.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SigHasher(u64);

impl SigHasher {
    /// A fresh hasher.
    pub(crate) fn new() -> SigHasher {
        SigHasher(0x9E37_79B9_7F4A_7C15)
    }

    /// Absorb one word.
    pub(crate) fn push(&mut self, w: u32) {
        let mut x = self
            .0
            .wrapping_add(w as u64)
            .wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        self.0 = x ^ (x >> 31);
    }

    /// The fingerprint of everything pushed so far.
    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

/// A hash → slot multimap: the lookup side of the row-intern table.
/// Collisions chain into a short per-hash bucket; the caller supplies the
/// full equality check, so a collision only costs an extra compare.
#[derive(Debug, Clone, Default)]
pub(crate) struct HashIndex {
    buckets: ScanMap<u64, Vec<u32>>,
}

impl HashIndex {
    /// The first slot under `hash` for which `eq` holds.
    pub(crate) fn find(&self, hash: u64, mut eq: impl FnMut(u32) -> bool) -> Option<u32> {
        self.buckets.get(&hash)?.iter().copied().find(|&s| eq(s))
    }

    /// Register `slot` under `hash`.
    pub(crate) fn insert(&mut self, hash: u64, slot: u32) {
        self.buckets.entry(hash).or_default().push(slot);
    }

    /// Unregister `slot` from `hash`'s bucket (no-op if absent).
    pub(crate) fn remove(&mut self, hash: u64, slot: u32) {
        if let Some(bucket) = self.buckets.get_mut(&hash) {
            if let Some(pos) = bucket.iter().position(|&s| s == slot) {
                bucket.swap_remove(pos);
            }
            if bucket.is_empty() {
                self.buckets.remove(&hash);
            }
        }
    }

    /// Drop every registration.
    pub(crate) fn clear(&mut self) {
        self.buckets.clear();
    }

    /// Whether `slot` is registered under `hash` (test/validation support).
    pub(crate) fn contains(&self, hash: u64, slot: u32) -> bool {
        self.buckets.get(&hash).is_some_and(|b| b.contains(&slot))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sig_hasher_is_deterministic_and_order_sensitive() {
        let mut a = SigHasher::new();
        let mut b = SigHasher::new();
        for w in [3u32, 1, 4, 1, 5] {
            a.push(w);
        }
        for w in [3u32, 1, 4, 1, 5] {
            b.push(w);
        }
        assert_eq!(a.finish(), b.finish());
        let mut c = SigHasher::new();
        for w in [5u32, 1, 4, 1, 3] {
            c.push(w);
        }
        assert_ne!(a.finish(), c.finish(), "order matters");
    }

    /// Deterministic (no per-map seed), one-to-one on integer keys, and
    /// sensitive to every byte of a name.
    #[test]
    fn scan_hasher_is_deterministic_and_separates_keys() {
        use std::hash::BuildHasher;
        let build = BuildHasherDefault::<ScanHasher>::default();
        assert_eq!(build.hash_one(42u64), build.hash_one(42u64));
        let ints: std::collections::HashSet<u64> =
            (0..10_000u64).map(|k| build.hash_one(k)).collect();
        assert_eq!(ints.len(), 10_000, "distinct integers hash apart");
        let names = [
            "weight",
            "weigh",
            "weighT",
            "a_long_attribute_name",
            "a_long_attribute_nam",
        ];
        let hashes: std::collections::HashSet<u64> =
            names.iter().map(|n| build.hash_one(n)).collect();
        assert_eq!(hashes.len(), names.len());
    }

    #[test]
    fn hash_index_find_insert_remove() {
        let mut ix = HashIndex::default();
        ix.insert(7, 0);
        ix.insert(7, 1); // collision chain
        ix.insert(9, 2);
        assert_eq!(ix.find(7, |s| s == 1), Some(1));
        assert_eq!(ix.find(7, |_| false), None);
        assert!(ix.contains(7, 0));
        ix.remove(7, 0);
        assert!(!ix.contains(7, 0));
        assert_eq!(ix.find(7, |_| true), Some(1));
        ix.remove(7, 1);
        assert_eq!(ix.find(7, |_| true), None);
        assert_eq!(ix.find(9, |_| true), Some(2));
    }

    #[test]
    fn ids_are_dense_and_stable() {
        let mut t = SymbolTable::new();
        assert_eq!(t.intern("weight"), 0);
        assert_eq!(t.intern("age"), 1);
        assert_eq!(t.intern("weight"), 0, "re-interning is idempotent");
        assert_eq!(t.len(), 2);
        assert_eq!(t.resolve(0), "weight");
        assert_eq!(t.resolve(1), "age");
        let names: Vec<&str> = t.names().iter().map(|n| &**n).collect();
        assert_eq!(names, ["weight", "age"]);
    }

    #[test]
    fn resolve_shared_shares_the_interned_allocation() {
        let mut t = SymbolTable::new();
        let id = t.intern("weight");
        let a = t.resolve_shared(id);
        let b = t.resolve_shared(id);
        assert!(Arc::ptr_eq(&a, &b), "one interned allocation per symbol");
        assert_eq!(&*a, "weight");
    }

    #[test]
    fn get_does_not_intern() {
        let mut t = SymbolTable::new();
        t.intern("a");
        assert_eq!(t.get("a"), Some(0));
        assert_eq!(t.get("b"), None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn empty_table() {
        let t = SymbolTable::new();
        assert!(t.is_empty());
        assert_eq!(t.get("anything"), None);
    }
}
