//! The compiled population: packed-lane, row-deduplicated provider
//! storage.
//!
//! [`crate::plan::CompiledAuditPlan`] (PR 2) compiled the *house* side of
//! the audit — policy tuples to dense rows, lattice coverage to id lists.
//! PR 4 compiled the provider side into flat structure-of-arrays storage;
//! this revision reworks that layout around two observations:
//!
//! * real populations cluster into a handful of preference segments
//!   (`qpv_synth::segments` models exactly this), so most providers'
//!   preference rows and datum sensitivities are *identical* — the
//!   `RowTable` interns each distinct (preference rows, datum row)
//!   combination **once**, with per-occurrence row references and
//!   refcounts as multiplicities. Segment-clustered populations shrink
//!   the scanned table ~#segments/N, and 10M+ providers fit hot in
//!   cache;
//! * the compiled audits ([`AuditEngine::counts`],
//!   [`AuditEngine::audit_many_policies`], [`AuditEngine::audit_compiled`])
//!   never walk per-provider `(attr, purpose, point)` structs: preference
//!   coordinates live in contiguous u32 *lanes* (`p_vis`/`p_gran`/`p_ret`,
//!   and a `slots × attrs` datum-lane table), which the one scoring kernel
//!   evaluates branch-free over whole blocks — see `crate::packed`.
//!
//! Per-occurrence state is three u32/u64 arrays (`urow_of` — the interned
//! unique-row slot, `row_of` — the merged id-row for thresholds, and the
//! id itself); everything content-sized lives in the `RowTable`.
//! Thresholds stay per-id (merged last-wins across duplicate occurrences,
//! matching [`crate::profile::assemble`]), and so does the datum row each
//! unique row embeds.
//!
//! A population is built by [`PopulationBuilder`], either from profiles
//! ([`CompiledPopulation::from_profiles`]) or straight from storage
//! (`Ppdb::compiled_population`). The storage path decodes the companion
//! tables off their pages without copying, interns names from the
//! borrowed `&str`s, groups rows per provider, and then pushes each
//! occurrence exactly once, with its final datums and threshold.
//!
//! Everything here is pinned bitwise-equal to
//! [`AuditEngine::run_reference`] by `tests/pop_equivalence.rs`.
//!
//! Populations are not frozen after compilation: a [`PopulationDelta`]
//! applies **in place** via [`CompiledPopulation::apply_delta`] — each op
//! re-interns the touched occurrence's unique row (intern-new then
//! release-old, so shared content is never copied) and the refcounted
//! table recycles dead slots and preference ranges through freelists.
//! Churny workloads therefore cost `O(changed)` per update instead of an
//! `O(N)` rebuild; `tests/delta_equivalence.rs` pins the delta path
//! byte-identical to a fresh compile of the mutated population, including
//! sequences that drive refcounts to zero and back.

use std::collections::HashMap;
use std::sync::OnceLock;

use serde::{Deserialize, Serialize};

use qpv_policy::{HousePolicy, ProviderId};
use qpv_reldb::encoding::{get_varint, put_varint};
use qpv_reldb::error::{DbError, DbResult};
use qpv_taxonomy::{Dim, PrivacyPoint};

use crate::audit::{AuditEngine, AuditReport, ProviderAudit};
use crate::default_model::defaults;
use crate::intern::{HashIndex, SigHasher, SymbolTable};
use crate::packed::{Buffers, Kernel};
use crate::probability::census_fraction;
use crate::profile::ProviderProfile;
use crate::sensitivity::DatumSensitivity;

/// One interned stated preference row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PrefRow {
    /// Population attribute id.
    pub(crate) attr: u32,
    /// Population purpose id.
    pub(crate) purpose: u32,
    /// The stated point.
    pub(crate) point: PrivacyPoint,
}

/// The deduplicated unique-row table: each distinct (ordered preference
/// rows, dense datum row) combination is stored once, in packed u32
/// lanes, with a refcount recording how many provider occurrences
/// reference it.
///
/// Invariants (checked by [`RowTable::validate`]):
/// * `refs[u] == 0` ⇔ slot `u` is dead: its `ranges[u] == (0, 0)`, it is
///   in `free_slots`, and it is absent from `lookup`;
/// * live slots carry `hashes[u] == hash_slot(u)` and are registered in
///   `lookup` under that hash;
/// * no two live slots have identical content (interning dedups);
/// * preference ranges of live slots and `free_pref` holes partition a
///   prefix-closed region of the lanes (never overlap).
#[derive(Debug, Clone, Default)]
pub(crate) struct RowTable {
    /// Datum-lane row width == the population's interned attribute count.
    stride: usize,
    // Preference lanes, indexed by the ranges below.
    p_attr: Vec<u32>,
    p_purpose: Vec<u32>,
    p_vis: Vec<u32>,
    p_gran: Vec<u32>,
    p_ret: Vec<u32>,
    /// Per-slot `[start, end)` preference range into the lanes.
    ranges: Vec<(u32, u32)>,
    /// Per-slot reference count == number of occurrences using the slot
    /// (the multiplicity the packed counts path aggregates by). 0 = dead.
    refs: Vec<u32>,
    /// Per-slot content fingerprint (stale for dead slots).
    hashes: Vec<u64>,
    // Datum lanes: `slot_count × stride`, row-major per slot.
    d_value: Vec<u32>,
    d_vis: Vec<u32>,
    d_gran: Vec<u32>,
    d_ret: Vec<u32>,
    /// Dead slots, reused LIFO by later interns.
    free_slots: Vec<u32>,
    /// Free `[start, end)` holes in the preference lanes, reused
    /// first-fit (not coalesced; churn at a steady size re-uses its own
    /// holes).
    free_pref: Vec<(u32, u32)>,
    /// Content-hash → slot lookup (deterministic hashing, so snapshots
    /// rebuild identical structures).
    lookup: HashIndex,
}

impl RowTable {
    pub(crate) fn stride(&self) -> usize {
        self.stride
    }

    /// Total slots, live and dead (the packed pass iterates all of them;
    /// dead slots aggregate with multiplicity 0).
    pub(crate) fn slot_count(&self) -> usize {
        self.refs.len()
    }

    /// Live (referenced) unique rows.
    pub(crate) fn live_slots(&self) -> usize {
        self.refs.iter().filter(|&&r| r > 0).count()
    }

    /// Total preference rows across live unique rows.
    pub(crate) fn live_pref_rows(&self) -> usize {
        self.refs
            .iter()
            .zip(&self.ranges)
            .filter(|(&r, _)| r > 0)
            .map(|(_, &(s, e))| (e - s) as usize)
            .sum()
    }

    /// Length of the preference lanes (including holes).
    pub(crate) fn pref_lane_len(&self) -> usize {
        self.p_attr.len()
    }

    pub(crate) fn refs_slice(&self) -> &[u32] {
        &self.refs
    }

    pub(crate) fn ranges_slice(&self) -> &[(u32, u32)] {
        &self.ranges
    }

    /// `(attr, purpose, vis, gran, ret)` preference lanes.
    #[allow(clippy::type_complexity)]
    pub(crate) fn pref_lanes(&self) -> (&[u32], &[u32], &[u32], &[u32], &[u32]) {
        (
            &self.p_attr,
            &self.p_purpose,
            &self.p_vis,
            &self.p_gran,
            &self.p_ret,
        )
    }

    /// `(value, vis, gran, ret)` datum lanes, `slot_count × stride`.
    pub(crate) fn datum_lanes(&self) -> (&[u32], &[u32], &[u32], &[u32]) {
        (&self.d_value, &self.d_vis, &self.d_gran, &self.d_ret)
    }

    /// The preference rows of slot `u`, materialized on the fly.
    pub(crate) fn pref_rows(&self, u: usize) -> impl Iterator<Item = PrefRow> + '_ {
        let (s, e) = self.ranges[u];
        (s as usize..e as usize).map(move |j| PrefRow {
            attr: self.p_attr[j],
            purpose: self.p_purpose[j],
            point: PrivacyPoint::from_raw(self.p_vis[j], self.p_gran[j], self.p_ret[j]),
        })
    }

    /// Copy slot `u`'s dense datum row into `out` (resized to `stride`).
    pub(crate) fn copy_datums(&self, u: usize, out: &mut Vec<DatumSensitivity>) {
        out.clear();
        let base = u * self.stride;
        out.extend((0..self.stride).map(|k| {
            DatumSensitivity::new(
                self.d_value[base + k],
                self.d_vis[base + k],
                self.d_gran[base + k],
                self.d_ret[base + k],
            )
        }));
    }

    fn hash_sig(prefs: &[PrefRow], datums: &[DatumSensitivity]) -> u64 {
        let mut h = SigHasher::new();
        h.push(prefs.len() as u32);
        for r in prefs {
            h.push(r.attr);
            h.push(r.purpose);
            h.push(r.point.get(Dim::Visibility));
            h.push(r.point.get(Dim::Granularity));
            h.push(r.point.get(Dim::Retention));
        }
        for d in datums {
            h.push(d.value);
            h.push(d.visibility);
            h.push(d.granularity);
            h.push(d.retention);
        }
        h.finish()
    }

    /// Recompute `hash_sig` from the lanes — the exact same word
    /// sequence, so interning and rebuilt indexes agree bit-for-bit.
    fn hash_slot(&self, u: usize) -> u64 {
        let (s, e) = self.ranges[u];
        let mut h = SigHasher::new();
        h.push(e - s);
        for j in s as usize..e as usize {
            h.push(self.p_attr[j]);
            h.push(self.p_purpose[j]);
            h.push(self.p_vis[j]);
            h.push(self.p_gran[j]);
            h.push(self.p_ret[j]);
        }
        let base = u * self.stride;
        for k in 0..self.stride {
            h.push(self.d_value[base + k]);
            h.push(self.d_vis[base + k]);
            h.push(self.d_gran[base + k]);
            h.push(self.d_ret[base + k]);
        }
        h.finish()
    }

    fn matches(&self, u: u32, prefs: &[PrefRow], datums: &[DatumSensitivity]) -> bool {
        let us = u as usize;
        if self.refs[us] == 0 {
            return false;
        }
        let (s, e) = self.ranges[us];
        if (e - s) as usize != prefs.len() {
            return false;
        }
        for (j, r) in prefs.iter().enumerate() {
            let idx = s as usize + j;
            if self.p_attr[idx] != r.attr
                || self.p_purpose[idx] != r.purpose
                || self.p_vis[idx] != r.point.get(Dim::Visibility)
                || self.p_gran[idx] != r.point.get(Dim::Granularity)
                || self.p_ret[idx] != r.point.get(Dim::Retention)
            {
                return false;
            }
        }
        let base = us * self.stride;
        for (k, d) in datums.iter().enumerate() {
            if self.d_value[base + k] != d.value
                || self.d_vis[base + k] != d.visibility
                || self.d_gran[base + k] != d.granularity
                || self.d_ret[base + k] != d.retention
            {
                return false;
            }
        }
        true
    }

    /// Allocate a preference range out of the freelist — an exact-length
    /// hole if one exists (so churn that re-interns the same shapes lands
    /// back on a stable footprint instead of fragmenting), else first-fit
    /// split of a larger hole, else append to the lane tails — and write
    /// `prefs` into it.
    fn alloc_pref(&mut self, prefs: &[PrefRow]) -> (u32, u32) {
        let k = prefs.len() as u32;
        if k == 0 {
            return (0, 0);
        }
        let fit = self
            .free_pref
            .iter()
            .position(|&(fs, fe)| fe - fs == k)
            .or_else(|| self.free_pref.iter().position(|&(fs, fe)| fe - fs >= k));
        let s = if let Some(pos) = fit {
            let (fs, fe) = self.free_pref[pos];
            if fe - fs == k {
                self.free_pref.swap_remove(pos);
            } else {
                self.free_pref[pos] = (fs + k, fe);
            }
            fs
        } else {
            let start = self.p_attr.len() as u32;
            let new_len = start as usize + k as usize;
            self.p_attr.resize(new_len, 0);
            self.p_purpose.resize(new_len, 0);
            self.p_vis.resize(new_len, 0);
            self.p_gran.resize(new_len, 0);
            self.p_ret.resize(new_len, 0);
            start
        };
        for (j, r) in prefs.iter().enumerate() {
            let idx = s as usize + j;
            self.p_attr[idx] = r.attr;
            self.p_purpose[idx] = r.purpose;
            self.p_vis[idx] = r.point.get(Dim::Visibility);
            self.p_gran[idx] = r.point.get(Dim::Granularity);
            self.p_ret[idx] = r.point.get(Dim::Retention);
        }
        (s, s + k)
    }

    /// Intern a (preference rows, dense datum row) combination: bump the
    /// refcount of an existing identical slot, or claim a dead slot (else
    /// append one) and write the content. `datums.len()` must equal the
    /// current stride.
    pub(crate) fn intern(&mut self, prefs: &[PrefRow], datums: &[DatumSensitivity]) -> u32 {
        debug_assert_eq!(datums.len(), self.stride);
        let h = Self::hash_sig(prefs, datums);
        if let Some(u) = self.lookup.find(h, |u| self.matches(u, prefs, datums)) {
            self.refs[u as usize] += 1;
            return u;
        }
        let range = self.alloc_pref(prefs);
        let u = match self.free_slots.pop() {
            Some(u) => {
                let us = u as usize;
                self.ranges[us] = range;
                self.refs[us] = 1;
                self.hashes[us] = h;
                let base = us * self.stride;
                for (k, d) in datums.iter().enumerate() {
                    self.d_value[base + k] = d.value;
                    self.d_vis[base + k] = d.visibility;
                    self.d_gran[base + k] = d.granularity;
                    self.d_ret[base + k] = d.retention;
                }
                u
            }
            None => {
                let u = self.refs.len() as u32;
                self.ranges.push(range);
                self.refs.push(1);
                self.hashes.push(h);
                for d in datums {
                    self.d_value.push(d.value);
                    self.d_vis.push(d.visibility);
                    self.d_gran.push(d.granularity);
                    self.d_ret.push(d.retention);
                }
                u
            }
        };
        self.lookup.insert(h, u);
        u
    }

    /// Drop one reference to slot `u`; at zero the slot dies — its
    /// preference range and the slot itself go onto the freelists and it
    /// leaves the lookup.
    pub(crate) fn release(&mut self, u: u32) {
        let us = u as usize;
        debug_assert!(self.refs[us] > 0, "releasing a dead slot");
        self.refs[us] -= 1;
        if self.refs[us] == 0 {
            self.lookup.remove(self.hashes[us], u);
            let (s, e) = self.ranges[us];
            if s < e {
                self.free_pref.push((s, e));
            }
            self.ranges[us] = (0, 0);
            self.free_slots.push(u);
        }
    }

    /// Re-stride the datum lanes after the attribute table grew (new
    /// columns neutral everywhere — no provider can have set a
    /// sensitivity for an attribute that was just interned), then rebuild
    /// hashes and lookup: the datum row is part of each slot's signature,
    /// so the stride change invalidates every fingerprint.
    pub(crate) fn grow(&mut self, new_stride: usize) {
        if new_stride == self.stride {
            return;
        }
        debug_assert!(new_stride > self.stride, "attribute ids are append-only");
        let slots = self.refs.len();
        self.d_value = restride(&self.d_value, slots, self.stride, new_stride, 1);
        self.d_vis = restride(&self.d_vis, slots, self.stride, new_stride, 1);
        self.d_gran = restride(&self.d_gran, slots, self.stride, new_stride, 1);
        self.d_ret = restride(&self.d_ret, slots, self.stride, new_stride, 1);
        self.stride = new_stride;
        self.rebuild_index();
    }

    /// Recompute every live slot's hash and re-register it (decode path
    /// and stride growth).
    pub(crate) fn rebuild_index(&mut self) {
        self.lookup.clear();
        for u in 0..self.refs.len() {
            if self.refs[u] > 0 {
                let h = self.hash_slot(u);
                self.hashes[u] = h;
                self.lookup.insert(h, u as u32);
            }
        }
    }

    /// Estimated resident bytes of the table (lanes + per-slot metadata +
    /// an allowance for the lookup map).
    pub(crate) fn resident_bytes(&self) -> usize {
        self.pref_lane_len() * 4 * 5
            + self.ranges.len() * 8
            + self.refs.len() * 4
            + self.hashes.len() * 8
            + self.d_value.len() * 4 * 4
            + self.free_slots.len() * 4
            + self.free_pref.len() * 8
            + self.live_slots() * 48
    }

    fn slots_identical(&self, a: usize, b: usize) -> bool {
        let (sa, ea) = self.ranges[a];
        let (sb, eb) = self.ranges[b];
        if ea - sa != eb - sb {
            return false;
        }
        for j in 0..(ea - sa) as usize {
            let (ja, jb) = (sa as usize + j, sb as usize + j);
            if self.p_attr[ja] != self.p_attr[jb]
                || self.p_purpose[ja] != self.p_purpose[jb]
                || self.p_vis[ja] != self.p_vis[jb]
                || self.p_gran[ja] != self.p_gran[jb]
                || self.p_ret[ja] != self.p_ret[jb]
            {
                return false;
            }
        }
        let (ba, bb) = (a * self.stride, b * self.stride);
        for k in 0..self.stride {
            if self.d_value[ba + k] != self.d_value[bb + k]
                || self.d_vis[ba + k] != self.d_vis[bb + k]
                || self.d_gran[ba + k] != self.d_gran[bb + k]
                || self.d_ret[ba + k] != self.d_ret[bb + k]
            {
                return false;
            }
        }
        true
    }

    /// Assert every structural invariant (tests and
    /// [`CompiledPopulation::debug_validate`]; O(table²) worst case on
    /// the hash-collision check, so keep it out of hot paths).
    pub(crate) fn validate(&self, na: usize, np: usize) {
        let slots = self.refs.len();
        assert_eq!(self.ranges.len(), slots);
        assert_eq!(self.hashes.len(), slots);
        assert_eq!(self.d_value.len(), slots * self.stride);
        assert_eq!(self.d_vis.len(), slots * self.stride);
        assert_eq!(self.d_gran.len(), slots * self.stride);
        assert_eq!(self.d_ret.len(), slots * self.stride);
        let lane_len = self.p_attr.len();
        assert_eq!(self.p_purpose.len(), lane_len);
        assert_eq!(self.p_vis.len(), lane_len);
        assert_eq!(self.p_gran.len(), lane_len);
        assert_eq!(self.p_ret.len(), lane_len);
        for u in 0..slots {
            let (s, e) = self.ranges[u];
            assert!(s <= e && e as usize <= lane_len, "range in bounds");
            if self.refs[u] > 0 {
                assert_eq!(self.hashes[u], self.hash_slot(u), "stale hash");
                assert!(
                    self.lookup.contains(self.hashes[u], u as u32),
                    "live slot registered"
                );
                for j in s as usize..e as usize {
                    assert!((self.p_attr[j] as usize) < na, "pref attr in bounds");
                    assert!((self.p_purpose[j] as usize) < np, "pref purpose in bounds");
                }
            } else {
                assert_eq!(self.ranges[u], (0, 0), "dead slot range cleared");
                assert!(
                    self.free_slots.contains(&(u as u32)),
                    "dead slot on freelist"
                );
                assert!(
                    !self.lookup.contains(self.hashes[u], u as u32),
                    "dead slot deregistered"
                );
            }
        }
        for &(s, e) in &self.free_pref {
            assert!(s < e && e as usize <= lane_len, "free range in bounds");
        }
        for a in 0..slots {
            for b in a + 1..slots {
                if self.refs[a] > 0 && self.refs[b] > 0 && self.hashes[a] == self.hashes[b] {
                    assert!(
                        !self.slots_identical(a, b),
                        "live slots {a} and {b} are duplicates"
                    );
                }
            }
        }
    }
}

/// Copy `slots` rows of width `old` into rows of width `new ≥ old`,
/// filling the fresh tail columns with `fill`.
fn restride(lane: &[u32], slots: usize, old: usize, new: usize, fill: u32) -> Vec<u32> {
    let mut out = vec![fill; slots * new];
    for r in 0..slots {
        out[r * new..r * new + old].copy_from_slice(&lane[r * old..(r + 1) * old]);
    }
    out
}

/// A whole population interned into packed, row-deduplicated storage.
/// Build once ([`CompiledPopulation::from_profiles`], a
/// [`PopulationBuilder`], or `Ppdb::compiled_population`), audit many
/// times — see the module docs.
#[derive(Debug, Clone)]
pub struct CompiledPopulation {
    /// Every attribute name stated in a preference or carrying a datum
    /// sensitivity, interned once for the whole population.
    attrs: SymbolTable,
    /// Every stated purpose name, interned once.
    purposes: SymbolTable,
    /// Provider ids, one per *occurrence*, in input order.
    ids: Vec<ProviderId>,
    /// Occurrence index → unique-row slot in `table`. Preferences are
    /// per-occurrence: when an id occurs twice with different stated
    /// preferences, each occurrence references its own unique row.
    urow_of: Vec<u32>,
    /// Occurrence index → merged id-row index into `thresholds`.
    /// Thresholds (and the datum row baked into each unique row) are
    /// per-*id*, merged last-wins across occurrences, matching
    /// [`crate::profile::assemble`].
    row_of: Vec<u32>,
    /// The deduplicated unique-row table.
    table: RowTable,
    /// Per id-row default threshold `v_i` (last occurrence wins).
    thresholds: Vec<u64>,
    /// Bumped once per applied delta; lets downstream caches (plan
    /// bindings, auditors, reports) detect staleness cheaply.
    epoch: u64,
    /// id → occurrence index, the delta-addressing map, built lazily on
    /// first use (10M-provider audit-only populations never pay for it).
    /// `Some(None)`-equivalent inner `None` marks a population that
    /// interned some id more than once: "the provider with id X" is then
    /// ambiguous and [`CompiledPopulation::apply_delta`] refuses to run.
    index: OnceLock<Option<HashMap<ProviderId, u32>>>,
    /// Free merged id-rows (one `thresholds` slot each), reused by later
    /// delta inserts.
    free_rows: Vec<u32>,
}

impl CompiledPopulation {
    /// Intern a whole population in one pass.
    pub fn from_profiles(profiles: &[ProviderProfile]) -> CompiledPopulation {
        let mut b = PopulationBuilder::new();
        for p in profiles {
            b.push_profile(p);
        }
        b.finish()
    }

    /// Number of provider occurrences (the audit's `N`).
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the population is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The id of occurrence `i`.
    pub fn id(&self, i: usize) -> ProviderId {
        self.ids[i]
    }

    /// The resolved (merged, last-wins) threshold for occurrence `i`.
    pub fn threshold_of(&self, i: usize) -> u64 {
        self.thresholds[self.row_of[i] as usize]
    }

    /// Total live preference rows across the *unique-row table* — the
    /// rows an audit pass actually scans. Duplicate providers share rows,
    /// so this is ≤ the sum of per-occurrence statement counts.
    pub fn pref_row_count(&self) -> usize {
        self.table.live_pref_rows()
    }

    /// Live unique (preference rows, datum row) combinations.
    pub fn unique_row_count(&self) -> usize {
        self.table.live_slots()
    }

    /// Occurrences per unique row: `len() / unique_row_count()` (1.0 for
    /// the empty population). ~#providers/#segments on clustered data.
    pub fn dedup_ratio(&self) -> f64 {
        let u = self.unique_row_count();
        if u == 0 {
            1.0
        } else {
            self.len() as f64 / u as f64
        }
    }

    /// Estimated resident bytes of the compiled state: per-occurrence
    /// arrays + thresholds + the unique-row table + the delta index if it
    /// has been built.
    pub fn resident_bytes(&self) -> usize {
        let idx = match self.index.get() {
            Some(Some(m)) => m.len() * 48,
            _ => 0,
        };
        self.ids.len() * (8 + 4 + 4)
            + self.thresholds.len() * 8
            + self.free_rows.len() * 4
            + self.table.resident_bytes()
            + idx
    }

    /// Number of distinct interned attribute / purpose names.
    pub fn symbol_counts(&self) -> (usize, usize) {
        (self.attrs.len(), self.purposes.len())
    }

    /// The interned preference rows of occurrence `i`.
    pub(crate) fn pref_rows_of(&self, i: usize) -> impl Iterator<Item = PrefRow> + '_ {
        self.table.pref_rows(self.urow_of[i] as usize)
    }

    /// The unique-row table (packed evaluation reads the lanes directly).
    pub(crate) fn table(&self) -> &RowTable {
        &self.table
    }

    /// Occurrence → unique-row slot.
    pub(crate) fn urows(&self) -> &[u32] {
        &self.urow_of
    }

    /// Occurrence → id-row.
    pub(crate) fn rows(&self) -> &[u32] {
        &self.row_of
    }

    /// Per id-row thresholds.
    pub(crate) fn thresholds_slice(&self) -> &[u64] {
        &self.thresholds
    }

    /// Assert the full cross-structure invariant set: refcounts equal the
    /// number of occurrences referencing each slot, all references are in
    /// bounds, and the table's own invariants hold. Test/debug aid; not
    /// part of the public API contract.
    #[doc(hidden)]
    pub fn debug_validate(&self) {
        let n = self.ids.len();
        assert_eq!(self.urow_of.len(), n);
        assert_eq!(self.row_of.len(), n);
        let mut derived = vec![0u32; self.table.slot_count()];
        for &u in &self.urow_of {
            derived[u as usize] += 1;
        }
        assert_eq!(
            derived,
            self.table.refs_slice(),
            "refcounts == occurrence references"
        );
        for &r in self.row_of.iter().chain(&self.free_rows) {
            assert!((r as usize) < self.thresholds.len(), "id-row in bounds");
        }
        assert_eq!(self.table.stride(), self.attrs.len(), "stride == attrs");
        self.table.validate(self.attrs.len(), self.purposes.len());
    }

    /// The interned attribute and purpose names.
    pub(crate) fn symbols(&self) -> (&SymbolTable, &SymbolTable) {
        (&self.attrs, &self.purposes)
    }

    /// Occurrence `i`'s audit from its unique row's score and witnesses,
    /// with its own id, threshold and `default_i`.
    pub(crate) fn occurrence_audit(
        &self,
        i: usize,
        score: u64,
        witnesses: Vec<crate::violation::ViolationWitness>,
    ) -> ProviderAudit {
        let threshold = self.threshold_of(i);
        ProviderAudit {
            provider: self.ids[i],
            violated: !witnesses.is_empty(),
            score,
            threshold,
            defaulted: defaults(score, threshold),
            witnesses,
        }
    }

    /// The population epoch: 0 at compile time, +1 per applied delta.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The delta-addressing map, built on first use. Inner `None` marks a
    /// duplicate-occurrence population (audit-only).
    fn index_map(&self) -> Option<&HashMap<ProviderId, u32>> {
        self.index
            .get_or_init(|| {
                let mut m = HashMap::with_capacity(self.ids.len());
                for (i, &id) in self.ids.iter().enumerate() {
                    if m.insert(id, i as u32).is_some() {
                        return None;
                    }
                }
                Some(m)
            })
            .as_ref()
    }

    /// Mutable delta-addressing map; only called after `index_map`
    /// confirmed uniqueness in `apply_delta`.
    fn index_mut(&mut self) -> &mut HashMap<ProviderId, u32> {
        self.index
            .get_mut()
            .expect("initialized by index_map")
            .as_mut()
            .expect("checked unique in apply_delta")
    }

    /// Apply a delta in place, recycling freed unique-row slots and
    /// preference ranges and bumping the epoch. Returns the
    /// per-occurrence event log a [`crate::LiveViolationIndex`] replays
    /// to patch its own state.
    ///
    /// Semantics (mirrored exactly by
    /// [`PopulationDelta::apply_to_profiles`], which is the oracle the
    /// equivalence suite compares against):
    ///
    /// * upserting a known id replaces that occurrence wholesale and
    ///   keeps its position; upserting an unknown id appends;
    /// * removal is `swap_remove` — the last occurrence moves into the
    ///   freed slot (O(1), order is deterministic but not stable);
    /// * preference edits replace every tuple naming the attribute,
    ///   appending the new tuples after the untouched ones;
    /// * ops naming an unknown id are no-ops, like storage rows for ids
    ///   absent from the data table on the scan path — but counted into
    ///   [`DeltaOutcome::skipped`] rather than dropped silently, so
    ///   callers can tell "applied cleanly" from "some edits bound to
    ///   nothing".
    ///
    /// Every mutation is intern-new-then-release-old on the unique-row
    /// table: content shared with other providers is never copied or
    /// disturbed, and a slot whose refcount hits zero goes onto the
    /// freelist for the next intern — so steady-state churn is
    /// `O(changed)` with no table growth.
    ///
    /// Errs on populations that interned the same id twice (Assumption 5
    /// of the paper — one data row per provider — is what makes id-based
    /// addressing well-defined); those stay audit-only.
    pub fn apply_delta(&mut self, delta: &PopulationDelta) -> Result<DeltaOutcome, DeltaError> {
        if let Some(id) = self.duplicate_id() {
            return Err(DeltaError::DuplicateOccurrences(id));
        }
        let mut events = Vec::with_capacity(delta.ops().len());
        let mut skipped = 0u64;
        for op in delta.ops() {
            let applied = match op {
                DeltaOp::Upsert(p) => {
                    self.apply_upsert(p, &mut events);
                    true
                }
                DeltaOp::Remove(id) => self.apply_remove(*id, &mut events),
                DeltaOp::SetAttributePrefs {
                    id,
                    attribute,
                    tuples,
                } => self.apply_set_prefs(*id, attribute, tuples, &mut events),
                DeltaOp::SetSensitivity {
                    id,
                    attribute,
                    sensitivity,
                } => self.apply_set_sensitivity(*id, attribute, *sensitivity, &mut events),
                DeltaOp::SetThreshold { id, threshold } => {
                    self.apply_set_threshold(*id, *threshold, &mut events)
                }
            };
            if !applied {
                skipped += 1;
            }
        }
        self.epoch += 1;
        Ok(DeltaOutcome {
            epoch: self.epoch,
            events,
            skipped,
        })
    }

    /// The occurrence index of a provider id, when deltas are available.
    pub fn occurrence_of(&self, id: ProviderId) -> Option<usize> {
        self.index_map()
            .and_then(|ix| ix.get(&id).map(|&i| i as usize))
    }

    /// The first provider id interned more than once, if any — such
    /// populations are audit-only and refuse every delta.
    pub(crate) fn duplicate_id(&self) -> Option<ProviderId> {
        if self.index_map().is_some() {
            return None;
        }
        let mut seen = std::collections::HashSet::new();
        self.ids.iter().copied().find(|&id| !seen.insert(id))
    }

    /// Grow the datum-lane stride to the current attribute count (no-op
    /// when nothing was interned since the last sync).
    fn sync_stride(&mut self) {
        let na = self.attrs.len();
        if na != self.table.stride() {
            self.table.grow(na);
        }
    }

    fn apply_upsert(&mut self, p: &ProviderProfile, events: &mut Vec<DeltaEvent>) {
        let mut prefs = Vec::with_capacity(p.preferences.tuples().len());
        for t in p.preferences.tuples() {
            prefs.push(PrefRow {
                attr: self.attrs.intern(&t.attribute),
                purpose: self.purposes.intern(t.tuple.purpose.name()),
                point: t.tuple.point,
            });
        }
        for attr in p.sensitivities.keys() {
            self.attrs.intern(attr);
        }
        self.sync_stride();
        let na = self.attrs.len();
        let mut datums = vec![DatumSensitivity::neutral(); na];
        for (attr, s) in &p.sensitivities {
            datums[self.attrs.get(attr).expect("interned above") as usize] = *s;
        }
        let id = p.id();
        match self.occurrence_of(id) {
            Some(i) => {
                let new_u = self.table.intern(&prefs, &datums);
                let old_u = self.urow_of[i];
                self.table.release(old_u);
                self.urow_of[i] = new_u;
                self.thresholds[self.row_of[i] as usize] = p.threshold;
                events.push(DeltaEvent::Touched(i as u32));
            }
            None => {
                let u = self.table.intern(&prefs, &datums);
                let row = match self.free_rows.pop() {
                    Some(r) => {
                        self.thresholds[r as usize] = p.threshold;
                        r
                    }
                    None => {
                        self.thresholds.push(p.threshold);
                        (self.thresholds.len() - 1) as u32
                    }
                };
                let i = self.ids.len() as u32;
                self.ids.push(id);
                self.urow_of.push(u);
                self.row_of.push(row);
                self.index_mut().insert(id, i);
                events.push(DeltaEvent::Appended(i, id));
            }
        }
    }

    fn apply_remove(&mut self, id: ProviderId, events: &mut Vec<DeltaEvent>) -> bool {
        let Some(i) = self.index_mut().remove(&id) else {
            return false;
        };
        let i_us = i as usize;
        self.table.release(self.urow_of[i_us]);
        self.free_rows.push(self.row_of[i_us]);
        self.ids.swap_remove(i_us);
        self.urow_of.swap_remove(i_us);
        self.row_of.swap_remove(i_us);
        if i_us < self.ids.len() {
            let moved = self.ids[i_us];
            self.index_mut().insert(moved, i);
        }
        events.push(DeltaEvent::Removed(i));
        true
    }

    fn apply_set_prefs(
        &mut self,
        id: ProviderId,
        attribute: &str,
        tuples: &[qpv_taxonomy::PrivacyTuple],
        events: &mut Vec<DeltaEvent>,
    ) -> bool {
        let Some(i) = self.occurrence_of(id) else {
            return false;
        };
        let a = self.attrs.intern(attribute);
        let mut prefs: Vec<PrefRow> = self.pref_rows_of(i).filter(|r| r.attr != a).collect();
        for t in tuples {
            prefs.push(PrefRow {
                attr: a,
                purpose: self.purposes.intern(t.purpose.name()),
                point: t.point,
            });
        }
        self.sync_stride();
        let mut datums = Vec::new();
        self.table
            .copy_datums(self.urow_of[i] as usize, &mut datums);
        let new_u = self.table.intern(&prefs, &datums);
        self.table.release(self.urow_of[i]);
        self.urow_of[i] = new_u;
        events.push(DeltaEvent::Touched(i as u32));
        true
    }

    fn apply_set_sensitivity(
        &mut self,
        id: ProviderId,
        attribute: &str,
        s: DatumSensitivity,
        events: &mut Vec<DeltaEvent>,
    ) -> bool {
        let Some(i) = self.occurrence_of(id) else {
            return false;
        };
        let a = self.attrs.intern(attribute) as usize;
        self.sync_stride();
        let u = self.urow_of[i] as usize;
        let mut datums = Vec::new();
        self.table.copy_datums(u, &mut datums);
        datums[a] = s;
        let prefs: Vec<PrefRow> = self.table.pref_rows(u).collect();
        let new_u = self.table.intern(&prefs, &datums);
        self.table.release(self.urow_of[i]);
        self.urow_of[i] = new_u;
        events.push(DeltaEvent::Touched(i as u32));
        true
    }

    fn apply_set_threshold(
        &mut self,
        id: ProviderId,
        threshold: u64,
        events: &mut Vec<DeltaEvent>,
    ) -> bool {
        let Some(i) = self.occurrence_of(id) else {
            return false;
        };
        self.thresholds[self.row_of[i] as usize] = threshold;
        events.push(DeltaEvent::Touched(i as u32));
        true
    }
}

/// One mutation in a [`PopulationDelta`].
#[derive(Debug, Clone, PartialEq)]
pub enum DeltaOp {
    /// Insert a provider, or replace the existing occurrence of its id
    /// wholesale (preferences, sensitivities, threshold).
    Upsert(ProviderProfile),
    /// Remove a provider (`swap_remove` semantics; unknown ids no-op).
    Remove(ProviderId),
    /// Replace every stated preference tuple naming `attribute` with
    /// `tuples` (appended after the provider's untouched tuples).
    SetAttributePrefs {
        /// The provider to edit.
        id: ProviderId,
        /// The attribute whose tuples are replaced.
        attribute: String,
        /// The new tuples for that attribute (may be empty = retract).
        tuples: Vec<qpv_taxonomy::PrivacyTuple>,
    },
    /// Overwrite one datum sensitivity.
    SetSensitivity {
        /// The provider to edit.
        id: ProviderId,
        /// The datum's attribute.
        attribute: String,
        /// The new sensitivity.
        sensitivity: DatumSensitivity,
    },
    /// Overwrite the provider's default threshold `v_i`.
    SetThreshold {
        /// The provider to edit.
        id: ProviderId,
        /// The new threshold.
        threshold: u64,
    },
}

/// An ordered batch of population mutations, applied atomically by
/// [`CompiledPopulation::apply_delta`] (one epoch bump per batch).
/// Produced by hand, by `Ppdb`'s write ops, or by
/// `qpv_synth::workload::churn`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PopulationDelta {
    ops: Vec<DeltaOp>,
}

impl PopulationDelta {
    /// An empty delta.
    pub fn new() -> PopulationDelta {
        PopulationDelta::default()
    }

    /// The ops in application order.
    pub fn ops(&self) -> &[DeltaOp] {
        &self.ops
    }

    /// Number of ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the delta contains no ops.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Append one op.
    pub fn push(&mut self, op: DeltaOp) {
        self.ops.push(op);
    }

    /// Append every op of `other`, in order.
    pub fn merge(&mut self, other: PopulationDelta) {
        self.ops.extend(other.ops);
    }

    /// Drop the first `n` ops (clamped to the length) — the consumer side
    /// of `Ppdb`'s peek/ack protocol, called once those ops are safely
    /// applied downstream.
    pub fn drain_front(&mut self, n: usize) {
        self.ops.drain(..n.min(self.ops.len()));
    }

    /// Clone only the ops from position `skip` on (clamped) — the cheap
    /// tail read behind `DeltaQueue::peek_from`: a consumer that already
    /// applied a prefix pays for the unseen suffix, not for cloning the
    /// whole backlog and draining most of it away.
    pub fn clone_tail(&self, skip: usize) -> PopulationDelta {
        PopulationDelta {
            ops: self.ops[skip.min(self.ops.len())..].to_vec(),
        }
    }

    /// Builder-style [`DeltaOp::Upsert`].
    pub fn upsert(mut self, profile: ProviderProfile) -> PopulationDelta {
        self.ops.push(DeltaOp::Upsert(profile));
        self
    }

    /// Builder-style [`DeltaOp::Remove`].
    pub fn remove(mut self, id: ProviderId) -> PopulationDelta {
        self.ops.push(DeltaOp::Remove(id));
        self
    }

    /// Builder-style [`DeltaOp::SetAttributePrefs`].
    pub fn set_attribute_prefs(
        mut self,
        id: ProviderId,
        attribute: impl Into<String>,
        tuples: Vec<qpv_taxonomy::PrivacyTuple>,
    ) -> PopulationDelta {
        self.ops.push(DeltaOp::SetAttributePrefs {
            id,
            attribute: attribute.into(),
            tuples,
        });
        self
    }

    /// Builder-style [`DeltaOp::SetSensitivity`].
    pub fn set_sensitivity(
        mut self,
        id: ProviderId,
        attribute: impl Into<String>,
        sensitivity: DatumSensitivity,
    ) -> PopulationDelta {
        self.ops.push(DeltaOp::SetSensitivity {
            id,
            attribute: attribute.into(),
            sensitivity,
        });
        self
    }

    /// Builder-style [`DeltaOp::SetThreshold`].
    pub fn set_threshold(mut self, id: ProviderId, threshold: u64) -> PopulationDelta {
        self.ops.push(DeltaOp::SetThreshold { id, threshold });
        self
    }

    /// Apply the same mutations to a plain profile list — the model-side
    /// mirror of [`CompiledPopulation::apply_delta`], including the
    /// `swap_remove` ordering, so
    /// `CompiledPopulation::from_profiles(&mutated)` audits byte-identical
    /// to the delta-applied population. Assumes unique provider ids, like
    /// the compiled path (ops bind to the first matching profile).
    pub fn apply_to_profiles(&self, profiles: &mut Vec<ProviderProfile>) {
        for op in &self.ops {
            match op {
                DeltaOp::Upsert(p) => match profiles.iter().position(|q| q.id() == p.id()) {
                    Some(i) => profiles[i] = p.clone(),
                    None => profiles.push(p.clone()),
                },
                DeltaOp::Remove(id) => {
                    if let Some(i) = profiles.iter().position(|q| q.id() == *id) {
                        profiles.swap_remove(i);
                    }
                }
                DeltaOp::SetAttributePrefs {
                    id,
                    attribute,
                    tuples,
                } => {
                    if let Some(q) = profiles.iter_mut().find(|q| q.id() == *id) {
                        let mut prefs = qpv_policy::ProviderPreferences::new(*id);
                        for t in q.preferences.tuples() {
                            if t.attribute != *attribute {
                                prefs.add(t.attribute.clone(), t.tuple.clone());
                            }
                        }
                        for t in tuples {
                            prefs.add(attribute.clone(), t.clone());
                        }
                        q.preferences = prefs;
                    }
                }
                DeltaOp::SetSensitivity {
                    id,
                    attribute,
                    sensitivity,
                } => {
                    if let Some(q) = profiles.iter_mut().find(|q| q.id() == *id) {
                        q.sensitivities.insert(attribute.clone(), *sensitivity);
                    }
                }
                DeltaOp::SetThreshold { id, threshold } => {
                    if let Some(q) = profiles.iter_mut().find(|q| q.id() == *id) {
                        q.threshold = *threshold;
                    }
                }
            }
        }
    }
}

/// Why [`CompiledPopulation::apply_delta`] refused a delta.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaError {
    /// The population interned this provider id more than once, so
    /// id-based delta addressing is ambiguous. Rebuild duplicate-free
    /// (or keep auditing it batch-style — audits are unaffected).
    DuplicateOccurrences(ProviderId),
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaError::DuplicateOccurrences(id) => write!(
                f,
                "provider id {} occurs more than once; deltas address providers by id",
                id.0
            ),
        }
    }
}

impl std::error::Error for DeltaError {}

/// One occurrence-level effect of an applied delta, in application
/// order. Indices are positions *at the time the event fired* — replay
/// them in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DeltaEvent {
    /// Occurrence `i` changed in place: re-score it.
    Touched(u32),
    /// A fresh occurrence for `id` appeared at index `i` (the then-end).
    /// The id rides along because consumers mirroring an id column must
    /// not read it back from the population — by the time events replay,
    /// later ops in the same delta may have moved or removed slot `i`.
    Appended(u32, ProviderId),
    /// Occurrence `i` was removed; the then-last occurrence (if any)
    /// moved into slot `i` (`swap_remove`).
    Removed(u32),
}

/// The event log of one [`CompiledPopulation::apply_delta`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaOutcome {
    /// The population epoch after application.
    pub epoch: u64,
    events: Vec<DeltaEvent>,
    /// Ops that named an unknown provider id and therefore bound to
    /// nothing. The mutation semantics match
    /// [`PopulationDelta::apply_to_profiles`] either way (unknown-id
    /// edits are no-ops on both paths); the count exists so callers can
    /// detect a delta that partially missed — e.g. one replayed against
    /// the wrong snapshot — instead of the misses vanishing silently.
    pub skipped: u64,
}

impl DeltaOutcome {
    pub(crate) fn events(&self) -> &[DeltaEvent] {
        &self.events
    }

    /// Number of per-occurrence events the delta produced (an upper
    /// bound on distinct touched providers).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the delta touched nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Incrementally interns providers into a [`CompiledPopulation`].
///
/// Two entry styles:
/// * [`PopulationBuilder::push_profile`] — from materialized
///   [`ProviderProfile`]s (streaming-friendly: a one-shot push interns
///   straight into the unique-row table and retains nothing
///   per-provider beyond three machine words, so millions-scale
///   generators can feed it without a full `Vec` anywhere);
/// * the scan path, `PopulationBuilder::push_scanned` — used by
///   `Ppdb::compiled_population`, which interns every attribute and
///   purpose name during its table scans and then pushes each occurrence
///   once, in its final state.
///
/// A duplicate id pushed through `push_profile` merges its datums into
/// rows already interned; those rows are tracked in a dirty map and
/// re-interned with their final datum state in [`PopulationBuilder::finish`].
#[derive(Debug, Default)]
pub struct PopulationBuilder {
    attrs: SymbolTable,
    purposes: SymbolTable,
    ids: Vec<ProviderId>,
    urow_of: Vec<u32>,
    row_of: Vec<u32>,
    /// id-row → its first occurrence (for reading a row's current datum
    /// state back out of the table).
    row_occ: Vec<u32>,
    table: RowTable,
    thresholds: Vec<u64>,
    /// id → id-row. `None` while pushed ids are strictly increasing (the
    /// streaming fast path: no hash map at all; lookups binary-search
    /// `ids`); materialized on the first out-of-order or duplicate push.
    id_rows: Option<HashMap<ProviderId, u32>>,
    /// id-rows whose authoritative dense datum state diverged from what
    /// their occurrences were interned with by a duplicate-id
    /// `push_profile` merge (fixed up in `finish`).
    dirty: HashMap<u32, Vec<DatumSensitivity>>,
    pref_buf: Vec<PrefRow>,
    datum_buf: Vec<DatumSensitivity>,
}

impl PopulationBuilder {
    /// An empty builder.
    pub fn new() -> PopulationBuilder {
        PopulationBuilder::default()
    }

    /// Number of occurrences pushed so far.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether nothing has been pushed.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The id-row a new occurrence of `id` belongs to, plus whether it is
    /// fresh. Materializes the id map only when the strictly-increasing
    /// streaming order breaks.
    fn id_row(&mut self, id: ProviderId) -> (u32, bool) {
        if self.id_rows.is_none() {
            if self.ids.last().is_none_or(|last| id.0 > last.0) {
                return (self.thresholds.len() as u32, true);
            }
            let mut m = HashMap::with_capacity(self.ids.len() + 1);
            for (i, &pid) in self.ids.iter().enumerate() {
                m.entry(pid).or_insert(self.row_of[i]);
            }
            self.id_rows = Some(m);
        }
        let next = self.thresholds.len() as u32;
        match self.id_rows.as_mut().expect("materialized above").entry(id) {
            std::collections::hash_map::Entry::Occupied(e) => (*e.get(), false),
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(next);
                (next, true)
            }
        }
    }

    /// A row's authoritative dense datum state at the current stride.
    fn current_datums(&self, row: u32) -> Vec<DatumSensitivity> {
        let mut d = match self.dirty.get(&row) {
            Some(v) => v.clone(),
            None => {
                let occ = self.row_occ[row as usize] as usize;
                let mut v = Vec::new();
                self.table.copy_datums(self.urow_of[occ] as usize, &mut v);
                v
            }
        };
        d.resize(self.attrs.len(), DatumSensitivity::neutral());
        d
    }

    fn sync_stride(&mut self) {
        let na = self.attrs.len();
        if na != self.table.stride() {
            self.table.grow(na);
        }
    }

    /// Intern one profile: its preferences as a fresh occurrence, its
    /// sensitivities and threshold merged into the id's row (overwrite
    /// per attribute, threshold last-wins — [`crate::profile::assemble`]
    /// semantics).
    pub fn push_profile(&mut self, p: &ProviderProfile) {
        self.pref_buf.clear();
        for t in p.preferences.tuples() {
            let attr = self.attrs.intern(&t.attribute);
            let purpose = self.purposes.intern(t.tuple.purpose.name());
            self.pref_buf.push(PrefRow {
                attr,
                purpose,
                point: t.tuple.point,
            });
        }
        for attr in p.sensitivities.keys() {
            self.attrs.intern(attr);
        }
        self.sync_stride();
        let na = self.attrs.len();
        let (row, fresh) = self.id_row(p.id());
        if fresh {
            self.thresholds.push(p.threshold);
            self.row_occ.push(self.ids.len() as u32);
            self.datum_buf.clear();
            self.datum_buf.resize(na, DatumSensitivity::neutral());
            for (attr, s) in &p.sensitivities {
                self.datum_buf[self.attrs.get(attr).expect("interned above") as usize] = *s;
            }
            let u = self.table.intern(&self.pref_buf, &self.datum_buf);
            self.ids.push(p.id());
            self.urow_of.push(u);
            self.row_of.push(row);
        } else {
            // Duplicate id: merge sensitivities and threshold last-wins
            // into the shared id-row; the occurrence still audits its own
            // stated preferences. Earlier occurrences of the row are
            // re-interned with the merged datums in `finish`.
            let mut datums = self.current_datums(row);
            for (attr, s) in &p.sensitivities {
                datums[self.attrs.get(attr).expect("interned above") as usize] = *s;
            }
            self.thresholds[row as usize] = p.threshold;
            let u = self.table.intern(&self.pref_buf, &datums);
            self.ids.push(p.id());
            self.urow_of.push(u);
            self.row_of.push(row);
            if !p.sensitivities.is_empty() {
                self.dirty.insert(row, datums);
            }
        }
    }

    /// Intern an attribute name (scan path).
    pub(crate) fn intern_attr(&mut self, name: &str) -> u32 {
        self.attrs.intern(name)
    }

    /// Intern a purpose name (scan path).
    pub(crate) fn intern_purpose(&mut self, name: &str) -> u32 {
        self.purposes.intern(name)
    }

    /// Append one provider occurrence in its final state (scan path): its
    /// preference rows and its `(attr, sensitivity)` rows with symbols
    /// already interned (every name must be interned before the first
    /// push; a later sensitivity row for the same attribute wins), and its
    /// threshold. Every occurrence of a repeated id must carry the same
    /// rows — the scan path resolves each id completely before pushing —
    /// so each occurrence is interned exactly once and `finish` revisits
    /// nothing.
    pub(crate) fn push_scanned(
        &mut self,
        id: ProviderId,
        prefs: &[PrefRow],
        sens: &[(u32, DatumSensitivity)],
        threshold: u64,
    ) {
        self.sync_stride();
        self.datum_buf.clear();
        self.datum_buf
            .resize(self.attrs.len(), DatumSensitivity::neutral());
        for &(attr, s) in sens {
            self.datum_buf[attr as usize] = s;
        }
        let (row, fresh) = self.id_row(id);
        if fresh {
            self.thresholds.push(threshold);
            self.row_occ.push(self.ids.len() as u32);
        } else {
            debug_assert_eq!(
                self.current_datums(row),
                self.datum_buf,
                "repeated id {id:?}"
            );
            self.thresholds[row as usize] = threshold;
        }
        let u = self.table.intern(prefs, &self.datum_buf);
        self.ids.push(id);
        self.urow_of.push(u);
        self.row_of.push(row);
    }

    /// Re-intern occurrences of dirty rows with their final datum state,
    /// and freeze.
    pub fn finish(mut self) -> CompiledPopulation {
        self.sync_stride();
        if !self.dirty.is_empty() {
            let na = self.attrs.len();
            for i in 0..self.ids.len() {
                let Some(d) = self.dirty.get(&self.row_of[i]).cloned() else {
                    continue;
                };
                let mut datums = d;
                datums.resize(na, DatumSensitivity::neutral());
                let prefs: Vec<PrefRow> = self.table.pref_rows(self.urow_of[i] as usize).collect();
                let new_u = self.table.intern(&prefs, &datums);
                self.table.release(self.urow_of[i]);
                self.urow_of[i] = new_u;
            }
        }
        CompiledPopulation {
            attrs: self.attrs,
            purposes: self.purposes,
            ids: self.ids,
            urow_of: self.urow_of,
            row_of: self.row_of,
            table: self.table,
            thresholds: self.thresholds,
            epoch: 0,
            index: OnceLock::new(),
            free_rows: Vec::new(),
        }
    }
}

/// Counts-only aggregate of auditing one policy against a compiled
/// population: everything Eq. 31's expansion economics and the what-if
/// search read, with no per-provider allocations behind it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicyOutcome {
    /// Equation 16's `Violations`.
    pub total_violations: u128,
    /// Providers with `w_i = 1`.
    pub violated: usize,
    /// Providers with `default_i = 1`.
    pub defaulted: usize,
    /// Population size `N` (occurrences).
    pub population: usize,
}

impl PolicyOutcome {
    /// Definition 2's `P(W)` (census form).
    pub fn p_violation(&self) -> f64 {
        census_fraction(self.violated, self.population)
    }

    /// Definition 5's `P(Default)` (census form).
    pub fn p_default(&self) -> f64 {
        census_fraction(self.defaulted, self.population)
    }

    /// `N_future`: providers remaining after defaults (Eq. 26).
    pub fn remaining(&self) -> usize {
        self.population - self.defaulted
    }

    /// Definition 3: `P(W) ≤ α`.
    pub fn is_alpha_ppdb(&self, alpha: f64) -> bool {
        self.p_violation() <= alpha
    }
}

impl AuditEngine {
    /// Audit a compiled population, producing the same full
    /// [`AuditReport`] as [`AuditEngine::run`] — bitwise-identical, in
    /// fact: `run` routes through this. The kernel scores each unique row
    /// once, with its witnesses; each occurrence then gets its own id,
    /// threshold and `default_i`. Counts-only callers should prefer
    /// [`AuditEngine::counts`], which builds no witnesses.
    pub fn audit_compiled(&self, pop: &CompiledPopulation) -> AuditReport {
        let kernel = Kernel::new(pop, vec![self.compile_house()]);
        let mut rows = kernel.audit_all(pop, &mut Buffers::default());
        // Occurrences still to assemble per unique row: the last one takes
        // the row's witnesses, the others clone them.
        let mut left = pop.table().refs_slice().to_vec();
        let providers: Vec<ProviderAudit> = pop
            .urows()
            .iter()
            .enumerate()
            .map(|(i, &u)| {
                let (row, left) = (&mut rows[u as usize], &mut left[u as usize]);
                *left -= 1;
                let witnesses = if *left == 0 {
                    std::mem::take(&mut row.witnesses)
                } else {
                    row.witnesses.clone()
                };
                pop.occurrence_audit(i, row.score, witnesses)
            })
            .collect();
        let total_violations = providers.iter().map(|p| u128::from(p.score)).sum();
        AuditReport {
            providers,
            total_violations,
        }
    }

    /// Counts-only audit of the engine's own policy: aggregates identical
    /// to `self.audit_compiled(pop)`'s, evaluated branch-free over the
    /// packed unique-row lanes (each unique row scored once, aggregated
    /// by multiplicity). Only a population over a million unique rows
    /// stored out of slot order needs scratch per provider: its
    /// thresholds regrouped by unique row, 8 bytes each.
    pub fn counts(&self, pop: &CompiledPopulation) -> PolicyOutcome {
        self.counts_with_policy(pop, &self.policy)
    }

    /// Counts-only audit of a *different* policy — the K = 1 call of
    /// [`AuditEngine::audit_many_policies`].
    pub fn counts_with_policy(
        &self,
        pop: &CompiledPopulation,
        policy: &HousePolicy,
    ) -> PolicyOutcome {
        self.audit_many_policies(pop, std::slice::from_ref(policy))
            .swap_remove(0)
    }

    /// Evaluate K candidate policies against one compiled population:
    /// Eq. 31's search as one population compile + one packed pass that
    /// fills each unique row's preference lanes once and sweeps every
    /// policy over them. Outcomes are in `policies` order, each equal to
    /// what a full re-audit would aggregate to.
    pub fn audit_many_policies(
        &self,
        pop: &CompiledPopulation,
        policies: &[HousePolicy],
    ) -> Vec<PolicyOutcome> {
        let plans = policies.iter().map(|p| self.compile_policy(p)).collect();
        Kernel::new(pop, plans).counts(pop)
    }
}

// ---------------------------------------------------------------------------
// Snapshot codec (crate-internal, used by `crate::deltalog`)
// ---------------------------------------------------------------------------

fn snap_corrupt(what: &str) -> DbError {
    DbError::Corruption(format!("population snapshot: {what}"))
}

fn put_symbols(buf: &mut Vec<u8>, table: &SymbolTable) {
    let names = table.names();
    put_varint(buf, names.len() as u64);
    for name in names {
        let bytes = name.as_bytes();
        put_varint(buf, bytes.len() as u64);
        buf.extend_from_slice(bytes);
    }
}

fn get_symbols(buf: &mut &[u8]) -> DbResult<SymbolTable> {
    let n = get_varint(buf)?;
    let mut table = SymbolTable::new();
    for _ in 0..n {
        let len = get_varint(buf)? as usize;
        let bytes = take(buf, len)?;
        let name = std::str::from_utf8(bytes).map_err(|_| snap_corrupt("non-utf8 symbol"))?;
        table.intern(name);
    }
    if table.len() as u64 != n {
        return Err(snap_corrupt("duplicate interned symbol"));
    }
    Ok(table)
}

fn take<'a>(buf: &mut &'a [u8], n: usize) -> DbResult<&'a [u8]> {
    if buf.len() < n {
        return Err(snap_corrupt("truncated"));
    }
    let (head, rest) = buf.split_at(n);
    *buf = rest;
    Ok(head)
}

fn le_u32(c: &[u8]) -> u32 {
    u32::from_le_bytes([c[0], c[1], c[2], c[3]])
}

fn le_u64(c: &[u8]) -> u64 {
    u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]])
}

fn put_u32s(buf: &mut Vec<u8>, xs: &[u32]) {
    for &x in xs {
        buf.extend_from_slice(&x.to_le_bytes());
    }
}

fn get_u32s(buf: &mut &[u8], n: usize) -> DbResult<Vec<u32>> {
    Ok(take(buf, n * 4)?.chunks_exact(4).map(le_u32).collect())
}

/// Binary snapshot codec for the delta log ([`crate::deltalog`]): the
/// packed lanes serialized almost verbatim — bulk fixed-width
/// little-endian arrays behind varint counts — so a 100k-provider
/// population decodes at memcpy speed. Refcounts are stored (and
/// cross-checked against the occurrence references on decode); slot
/// hashes and the content-lookup index are *recomputed* on decode — the
/// hash function is deterministic, so the rebuilt structures are
/// bit-identical to the encoder's. The id → occurrence map stays lazy.
impl CompiledPopulation {
    pub(crate) fn encode_snapshot(&self, buf: &mut Vec<u8>) {
        put_symbols(buf, &self.attrs);
        put_symbols(buf, &self.purposes);
        put_varint(buf, self.ids.len() as u64);
        for id in &self.ids {
            buf.extend_from_slice(&id.0.to_le_bytes());
        }
        put_u32s(buf, &self.urow_of);
        put_u32s(buf, &self.row_of);
        put_varint(buf, self.thresholds.len() as u64);
        for &t in &self.thresholds {
            buf.extend_from_slice(&t.to_le_bytes());
        }
        put_varint(buf, self.epoch);
        put_varint(buf, self.free_rows.len() as u64);
        put_u32s(buf, &self.free_rows);
        let t = &self.table;
        put_varint(buf, t.refs.len() as u64);
        put_varint(buf, t.p_attr.len() as u64);
        for &(start, end) in &t.ranges {
            buf.extend_from_slice(&start.to_le_bytes());
            buf.extend_from_slice(&end.to_le_bytes());
        }
        put_u32s(buf, &t.refs);
        put_u32s(buf, &t.p_attr);
        put_u32s(buf, &t.p_purpose);
        put_u32s(buf, &t.p_vis);
        put_u32s(buf, &t.p_gran);
        put_u32s(buf, &t.p_ret);
        put_u32s(buf, &t.d_value);
        put_u32s(buf, &t.d_vis);
        put_u32s(buf, &t.d_gran);
        put_u32s(buf, &t.d_ret);
        put_varint(buf, t.free_pref.len() as u64);
        for &(start, end) in &t.free_pref {
            buf.extend_from_slice(&start.to_le_bytes());
            buf.extend_from_slice(&end.to_le_bytes());
        }
        put_varint(buf, t.free_slots.len() as u64);
        put_u32s(buf, &t.free_slots);
    }

    pub(crate) fn decode_snapshot(buf: &mut &[u8]) -> DbResult<CompiledPopulation> {
        let attrs = get_symbols(buf)?;
        let purposes = get_symbols(buf)?;
        let n = get_varint(buf)? as usize;
        let ids: Vec<ProviderId> = take(buf, n * 8)?
            .chunks_exact(8)
            .map(|c| ProviderId(le_u64(c)))
            .collect();
        let urow_of = get_u32s(buf, n)?;
        let row_of = get_u32s(buf, n)?;
        let id_rows = get_varint(buf)? as usize;
        let thresholds: Vec<u64> = take(buf, id_rows * 8)?
            .chunks_exact(8)
            .map(le_u64)
            .collect();
        let epoch = get_varint(buf)?;
        let n_free_rows = get_varint(buf)? as usize;
        let free_rows = get_u32s(buf, n_free_rows)?;
        let slots = get_varint(buf)? as usize;
        let lane_len = get_varint(buf)? as usize;
        let ranges: Vec<(u32, u32)> = take(buf, slots * 8)?
            .chunks_exact(8)
            .map(|c| (le_u32(&c[0..4]), le_u32(&c[4..8])))
            .collect();
        let refs = get_u32s(buf, slots)?;
        let p_attr = get_u32s(buf, lane_len)?;
        let p_purpose = get_u32s(buf, lane_len)?;
        let p_vis = get_u32s(buf, lane_len)?;
        let p_gran = get_u32s(buf, lane_len)?;
        let p_ret = get_u32s(buf, lane_len)?;
        let stride = attrs.len();
        let d_value = get_u32s(buf, slots * stride)?;
        let d_vis = get_u32s(buf, slots * stride)?;
        let d_gran = get_u32s(buf, slots * stride)?;
        let d_ret = get_u32s(buf, slots * stride)?;
        let n_free_pref = get_varint(buf)? as usize;
        let free_pref: Vec<(u32, u32)> = take(buf, n_free_pref * 8)?
            .chunks_exact(8)
            .map(|c| (le_u32(&c[0..4]), le_u32(&c[4..8])))
            .collect();
        let n_free_slots = get_varint(buf)? as usize;
        let free_slots = get_u32s(buf, n_free_slots)?;

        // Cheap structural sanity on the CRC-validated payload, so a codec
        // bug surfaces as `Err`, never as a panic in the audit hot loop.
        if ranges
            .iter()
            .chain(&free_pref)
            .any(|&(s, e)| s > e || e as usize > lane_len)
        {
            return Err(snap_corrupt("inconsistent preference ranges"));
        }
        if row_of.iter().any(|&r| r as usize >= id_rows.max(1))
            || free_rows.iter().any(|&r| r as usize >= id_rows.max(1))
        {
            return Err(snap_corrupt("inconsistent id-row references"));
        }
        let mut derived = vec![0u32; slots];
        for &u in &urow_of {
            let us = u as usize;
            if us >= slots {
                return Err(snap_corrupt("unique-row reference out of bounds"));
            }
            derived[us] += 1;
        }
        if derived != refs {
            return Err(snap_corrupt("refcounts disagree with occurrences"));
        }
        if free_slots.len() != refs.iter().filter(|&&r| r == 0).count()
            || free_slots.iter().any(|&u| {
                let us = u as usize;
                us >= slots || refs[us] != 0
            })
        {
            return Err(snap_corrupt("slot freelist disagrees with refcounts"));
        }

        let mut table = RowTable {
            stride,
            p_attr,
            p_purpose,
            p_vis,
            p_gran,
            p_ret,
            ranges,
            refs,
            hashes: vec![0; slots],
            d_value,
            d_vis,
            d_gran,
            d_ret,
            free_slots,
            free_pref,
            lookup: HashIndex::default(),
        };
        table.rebuild_index();
        Ok(CompiledPopulation {
            attrs,
            purposes,
            ids,
            urow_of,
            row_of,
            table,
            thresholds,
            epoch,
            index: OnceLock::new(),
            free_rows,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sensitivity::AttributeSensitivities;
    use qpv_taxonomy::PrivacyTuple;

    fn pt(v: u32, g: u32, r: u32) -> PrivacyPoint {
        PrivacyPoint::from_raw(v, g, r)
    }

    /// The merged datum sensitivity of occurrence `i` for a population
    /// attribute id, read off the datum lanes.
    fn datum(pop: &CompiledPopulation, i: usize, attr: u32) -> DatumSensitivity {
        let (value, vis, gran, ret) = pop.table().datum_lanes();
        let d = pop.urows()[i] as usize * pop.table().stride() + attr as usize;
        DatumSensitivity::new(value[d], vis[d], gran[d], ret[d])
    }

    fn worked_example() -> (AuditEngine, Vec<ProviderProfile>) {
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
        (engine, profiles)
    }

    #[test]
    fn compiled_population_reproduces_table_1() {
        let (engine, profiles) = worked_example();
        let pop = CompiledPopulation::from_profiles(&profiles);
        assert_eq!(pop.len(), 3);
        assert_eq!(pop.pref_row_count(), 3);
        assert_eq!(pop.unique_row_count(), 3, "three distinct rows");
        pop.debug_validate();
        let report = engine.audit_compiled(&pop);
        let scores: Vec<u64> = report.providers.iter().map(|p| p.score).collect();
        assert_eq!(scores, vec![0, 60, 80]);
        assert_eq!(report.total_violations, 140);
        assert_eq!(report, engine.run_reference(&profiles));
    }

    #[test]
    fn counts_aggregates_match_the_full_report() {
        let (engine, profiles) = worked_example();
        let pop = CompiledPopulation::from_profiles(&profiles);
        let report = engine.audit_compiled(&pop);
        let counts = engine.counts(&pop);
        assert_eq!(counts.total_violations, report.total_violations);
        assert_eq!(counts.population, report.population());
        assert_eq!(counts.p_violation(), report.p_violation());
        assert_eq!(counts.p_default(), report.p_default());
        assert_eq!(counts.remaining(), report.remaining());
        assert_eq!(counts.violated, 2);
        assert_eq!(counts.defaulted, 1);
        assert!(counts.is_alpha_ppdb(2.0 / 3.0));
        assert!(!counts.is_alpha_ppdb(0.5));
    }

    #[test]
    fn audit_many_policies_equals_one_audit_per_policy() {
        let (engine, profiles) = worked_example();
        let pop = CompiledPopulation::from_profiles(&profiles);
        let policies: Vec<HousePolicy> = (0..4).map(|k| engine.policy.widened_uniform(k)).collect();
        let outcomes = engine.audit_many_policies(&pop, &policies);
        assert_eq!(outcomes.len(), policies.len());
        for (policy, outcome) in policies.iter().zip(&outcomes) {
            let report = engine.run_with_policy(&profiles, policy);
            assert_eq!(outcome.total_violations, report.total_violations);
            assert_eq!(outcome.p_violation(), report.p_violation());
            assert_eq!(outcome.p_default(), report.p_default());
            assert_eq!(outcome.remaining(), report.remaining());
        }
    }

    /// Identical providers intern into one unique row: counts aggregate
    /// by multiplicity and stay equal to the full per-occurrence report.
    #[test]
    fn identical_providers_share_one_unique_row() {
        let (engine, profiles) = worked_example();
        let clones: Vec<ProviderProfile> = (0..1000)
            .map(|k| {
                let mut p = profiles[1].clone();
                p.preferences.provider = ProviderId(100 + k);
                p
            })
            .collect();
        let pop = CompiledPopulation::from_profiles(&clones);
        assert_eq!(pop.len(), 1000);
        assert_eq!(pop.unique_row_count(), 1, "all content dedups to one row");
        assert_eq!(pop.pref_row_count(), 1);
        assert_eq!(pop.dedup_ratio(), 1000.0);
        pop.debug_validate();
        let report = engine.audit_compiled(&pop);
        let counts = engine.counts(&pop);
        assert_eq!(counts.total_violations, report.total_violations);
        assert_eq!(
            counts.violated,
            report.providers.iter().filter(|p| p.violated).count()
        );
        assert_eq!(
            counts.defaulted,
            report.providers.iter().filter(|p| p.defaulted).count()
        );
        assert!(
            pop.resident_bytes() < 1000 * 64,
            "dedup keeps resident bytes far below per-provider structs"
        );
    }

    #[test]
    fn duplicate_ids_merge_datums_but_keep_per_occurrence_preferences() {
        let (_, mut profiles) = worked_example();
        // Re-register Ted (id 1) with different preferences, sensitivity,
        // and threshold. Preferences stay per-occurrence; the datum map
        // and threshold merge last-wins across occurrences.
        let mut dup = ProviderProfile::new(ProviderId(1), 7);
        dup.preferences
            .add("weight", PrivacyTuple::from_point("pr", pt(9, 9, 9)));
        dup.sensitivities
            .insert("weight".into(), DatumSensitivity::new(2, 2, 2, 2));
        profiles.push(dup);
        let pop = CompiledPopulation::from_profiles(&profiles);
        assert_eq!(pop.len(), 4, "one occurrence each");
        pop.debug_validate();
        assert_ne!(
            pop.pref_rows_of(1).next().unwrap().point,
            pop.pref_rows_of(3).next().unwrap().point,
            "each occurrence audits its own stated preferences"
        );
        // Merged view: the duplicate's sensitivity and threshold win for
        // both occurrences.
        assert_eq!(pop.threshold_of(1), 7);
        assert_eq!(pop.threshold_of(3), 7);
        let a = pop.attrs.get("weight").unwrap();
        assert_eq!(datum(&pop, 1, a), DatumSensitivity::new(2, 2, 2, 2));
        assert_eq!(datum(&pop, 3, a), DatumSensitivity::new(2, 2, 2, 2));
    }

    #[test]
    fn scan_path_builder_matches_push_profile() {
        // The worked example plus a repeat of Ted (id 1), as a data table
        // holding his row twice yields: one identical occurrence each.
        let (engine, mut profiles) = worked_example();
        profiles.push(profiles[1].clone());
        let via_profiles = CompiledPopulation::from_profiles(&profiles);
        // Storage order: every name is interned during the scans, before
        // the first occurrence is pushed.
        let mut b = PopulationBuilder::new();
        let prefs: Vec<Vec<PrefRow>> = profiles
            .iter()
            .map(|p| {
                p.preferences
                    .tuples()
                    .iter()
                    .map(|t| PrefRow {
                        attr: b.intern_attr(&t.attribute),
                        purpose: b.intern_purpose(t.tuple.purpose.name()),
                        point: t.tuple.point,
                    })
                    .collect()
            })
            .collect();
        let sens: Vec<Vec<(u32, DatumSensitivity)>> = profiles
            .iter()
            .map(|p| {
                p.sensitivities
                    .iter()
                    .map(|(attr, s)| (b.intern_attr(attr), *s))
                    .collect()
            })
            .collect();
        for (i, p) in profiles.iter().enumerate() {
            b.push_scanned(p.id(), &prefs[i], &sens[i], p.threshold);
        }
        let via_scans = b.finish();
        assert_eq!(via_scans.len(), via_profiles.len());
        via_scans.debug_validate();
        assert_eq!(
            via_scans.unique_row_count(),
            via_profiles.unique_row_count(),
            "the repeat shares its first occurrence's unique row"
        );
        assert_eq!(
            engine.audit_compiled(&via_scans),
            engine.audit_compiled(&via_profiles)
        );
    }

    /// Delta application audits identically to a fresh compile of the
    /// mutated profile list, across every op kind.
    #[test]
    fn apply_delta_matches_fresh_compile_of_mutated_profiles() {
        let (engine, profiles) = worked_example();
        let mut pop = CompiledPopulation::from_profiles(&profiles);
        assert_eq!(pop.epoch(), 0);

        let mut newcomer = ProviderProfile::new(ProviderId(9), 30);
        newcomer
            .preferences
            .add("weight", PrivacyTuple::from_point("pr", pt(6, 6, 6)));
        newcomer
            .sensitivities
            .insert("weight".into(), DatumSensitivity::new(2, 1, 1, 1));
        let mut replacement = ProviderProfile::new(ProviderId(0), 5);
        replacement
            .preferences
            .add("weight", PrivacyTuple::from_point("pr", pt(1, 1, 1)));

        let delta = PopulationDelta::new()
            .upsert(newcomer)
            .upsert(replacement)
            .remove(ProviderId(1))
            .set_attribute_prefs(
                ProviderId(2),
                "weight",
                vec![PrivacyTuple::from_point("pr", pt(3, 3, 3))],
            )
            .set_sensitivity(ProviderId(2), "weight", DatumSensitivity::new(5, 5, 5, 5))
            .set_threshold(ProviderId(2), 1)
            .remove(ProviderId(777)); // unknown id: no-op

        let mut mutated = profiles.clone();
        delta.apply_to_profiles(&mut mutated);
        let outcome = pop.apply_delta(&delta).expect("unique ids");
        assert_eq!(pop.epoch(), 1);
        assert_eq!(outcome.epoch, 1);
        assert_eq!(outcome.len(), 6, "the unknown-id op produced no event");
        assert_eq!(outcome.skipped, 1, "the unknown-id op was counted");
        pop.debug_validate();

        let fresh = CompiledPopulation::from_profiles(&mutated);
        assert_eq!(
            engine.audit_compiled(&pop),
            engine.audit_compiled(&fresh),
            "delta-applied population audits byte-identical to a rebuild"
        );
    }

    /// Removal + re-insert cycles reuse freed unique-row slots, lane
    /// ranges, and id-rows instead of growing the table.
    #[test]
    fn delta_freelists_recycle_rows() {
        let (engine, profiles) = worked_example();
        let mut pop = CompiledPopulation::from_profiles(&profiles);
        let mut mutated = profiles.clone();
        // First round establishes the recycled slot/lane footprint (the
        // new content is distinct from all three initial rows).
        let mut sizes = Vec::new();
        for round in 0u64..8 {
            let mut p = ProviderProfile::new(ProviderId(1), 10 + round);
            p.preferences
                .add("weight", PrivacyTuple::from_point("pr", pt(4, 4, 4)));
            p.sensitivities
                .insert("weight".into(), DatumSensitivity::new(1, 2, 3, 4));
            let delta = PopulationDelta::new().remove(ProviderId(1)).upsert(p);
            delta.apply_to_profiles(&mut mutated);
            pop.apply_delta(&delta).expect("unique ids");
            pop.debug_validate();
            sizes.push((
                pop.table.pref_lane_len(),
                pop.table.slot_count(),
                pop.thresholds.len(),
            ));
        }
        assert!(
            sizes.windows(2).all(|w| w[0] == w[1]),
            "steady-state churn recycles slots, lanes, and id-rows: {sizes:?}"
        );
        let fresh = CompiledPopulation::from_profiles(&mutated);
        assert_eq!(engine.audit_compiled(&pop), engine.audit_compiled(&fresh));
    }

    /// A delta introducing a brand-new attribute re-strides the datum
    /// lanes without disturbing existing sensitivities.
    #[test]
    fn delta_with_new_attribute_restrides_datums() {
        let (_, profiles) = worked_example();
        let mut pop = CompiledPopulation::from_profiles(&profiles);
        let delta = PopulationDelta::new()
            .set_sensitivity(ProviderId(0), "height", DatumSensitivity::new(9, 9, 9, 9))
            .set_attribute_prefs(
                ProviderId(1),
                "height",
                vec![PrivacyTuple::from_point("pr", pt(2, 2, 2))],
            );
        let mut mutated = profiles.clone();
        delta.apply_to_profiles(&mut mutated);
        pop.apply_delta(&delta).expect("unique ids");
        pop.debug_validate();
        let h = pop.attrs.get("height").expect("interned by the delta");
        let w = pop.attrs.get("weight").expect("still interned");
        assert_eq!(datum(&pop, 0, h), DatumSensitivity::new(9, 9, 9, 9));
        assert_eq!(datum(&pop, 1, h), DatumSensitivity::neutral());
        assert_eq!(datum(&pop, 1, w), DatumSensitivity::new(3, 1, 5, 2));
        // Audit with an engine that covers the new attribute.
        let policy = HousePolicy::builder("h2")
            .tuple("height", PrivacyTuple::from_point("pr", pt(5, 5, 5)))
            .build();
        let engine = AuditEngine::new(policy, ["weight", "height"], {
            let mut w = AttributeSensitivities::new();
            w.set("weight", 4);
            w.set("height", 2);
            w
        });
        let fresh = CompiledPopulation::from_profiles(&mutated);
        assert_eq!(engine.audit_compiled(&pop), engine.audit_compiled(&fresh));
    }

    /// Duplicate-occurrence populations stay audit-only: deltas are
    /// refused with the offending id.
    #[test]
    fn duplicate_occurrences_refuse_deltas() {
        let (_, mut profiles) = worked_example();
        profiles.push(profiles[1].clone());
        let mut pop = CompiledPopulation::from_profiles(&profiles);
        let delta = PopulationDelta::new().set_threshold(ProviderId(0), 3);
        assert_eq!(
            pop.apply_delta(&delta),
            Err(DeltaError::DuplicateOccurrences(ProviderId(1)))
        );
        assert_eq!(pop.epoch(), 0, "refused deltas do not bump the epoch");
    }

    #[test]
    fn empty_population_and_empty_policy() {
        let (engine, profiles) = worked_example();
        let empty = CompiledPopulation::from_profiles(&[]);
        assert!(empty.is_empty());
        assert_eq!(empty.dedup_ratio(), 1.0);
        let counts = engine.counts(&empty);
        assert_eq!(counts.population, 0);
        assert_eq!(counts.p_violation(), 0.0);
        assert_eq!(counts.remaining(), 0);
        // A policy whose tuples are all filtered out still audits.
        let ghost = HousePolicy::builder("g")
            .tuple("ghost", PrivacyTuple::from_point("pr", pt(1, 1, 1)))
            .build();
        let pop = CompiledPopulation::from_profiles(&profiles);
        let outcome = engine.counts_with_policy(&pop, &ghost);
        assert_eq!(outcome.total_violations, 0);
        assert_eq!(outcome.violated, 0);
    }

    /// The snapshot codec round-trips the packed layout exactly, and the
    /// rebuilt lookup index keeps interning (delta application) working.
    #[test]
    fn snapshot_roundtrip_preserves_packed_layout() {
        let (engine, profiles) = worked_example();
        let mut pop = CompiledPopulation::from_profiles(&profiles);
        // Punch a hole so freelists are non-trivial in the snapshot.
        let delta = PopulationDelta::new().remove(ProviderId(0));
        pop.apply_delta(&delta).expect("unique ids");
        let mut buf = Vec::new();
        pop.encode_snapshot(&mut buf);
        let mut slice = buf.as_slice();
        let mut decoded = CompiledPopulation::decode_snapshot(&mut slice).expect("decodes");
        assert!(slice.is_empty(), "codec consumed the whole buffer");
        decoded.debug_validate();
        assert_eq!(decoded.epoch(), pop.epoch());
        assert_eq!(engine.audit_compiled(&decoded), engine.audit_compiled(&pop));
        // The rebuilt content index dedups new interns against decoded rows.
        let mut back = profiles[0].clone();
        back.threshold = 42;
        let redelta = PopulationDelta::new().upsert(back);
        pop.apply_delta(&redelta).expect("unique ids");
        decoded.apply_delta(&redelta).expect("unique ids");
        decoded.debug_validate();
        assert_eq!(engine.audit_compiled(&decoded), engine.audit_compiled(&pop));
        assert_eq!(
            decoded.unique_row_count(),
            pop.unique_row_count(),
            "decoded table interns identically to the original"
        );
    }
}
