//! Branch-free counts evaluation over the packed unique-row lanes: fill
//! per cell, sweep per plan.
//!
//! [`pass_many`] is the one counts kernel behind
//! [`crate::pop::AuditEngine::counts`], `counts_with_policy` (both the
//! K = 1 call) and `AuditEngine::audit_many_policies` (Eq. 31's sweep):
//! it prices K [`CompiledAuditPlan`]s against a [`CompiledPopulation`] in
//! one walk over the population's *unique* rows, scoring each unique row
//! once per plan and aggregating by the row's refcount (multiplicity). On
//! segment-clustered populations the unique-row table is orders of
//! magnitude smaller than the population, so the whole working set stays
//! cache-resident for millions of providers.
//!
//! The walk runs over fixed-size blocks of unique rows. Per block:
//!
//! 1. **fill**, once for all plans — scatter each row's stated
//!    preference lanes into effective-preference lanes (`ev`/`eg`/`er`,
//!    `lanes × BLOCK`). A lane belongs to a *cell*: an attribute, the
//!    purposes whose stated tuples feed it, and how they combine. Flat
//!    mode keys a cell by the policy purpose alone and keeps the first
//!    stated tuple; lattice mode keys it by every purpose covering the
//!    policy purpose and max-joins them all. The lanes are the union of
//!    every plan's cells, so plan rows on one cell — within a plan or
//!    across the sweep — read the same lanes, and nothing in the fill
//!    depends on a policy point. Unstated cells stay at the implicit
//!    deny-all `PrivacyPoint::ZERO`: stated-ness is a per-block
//!    *generation stamp* (`stamp` lanes vs `gen`), so no lane is cleared
//!    between blocks, and a preference row's cell routes through a map
//!    indexed directly by the population's interned `(attr, purpose)`
//!    ids. The block's datum products (`value × along(dim)`, neutral = 1
//!    where the population never saw the attribute) are loaded into
//!    lanes here too, once for every plan;
//! 2. **sweep**, per plan — per plan *attribute*: every plan row on the
//!    attribute contributes `diff = policy.saturating_sub(effective_pref)`
//!    per dimension (branch-free `u32` ops, unstamped lanes masked to
//!    ZERO) into weighted per-dimension accumulator lanes (`sv`/`sg`/
//!    `sr`), OR-folding the violation *predicate* into a mask lane; then
//!    one fused multiply by the attribute's datum-product lanes lands the
//!    Eq. 14 severity sum in the block's score lane. The factoring
//!    `Σ_r (diff_r·w_r)·(value·along) = (Σ_r diff_r·w_r)·(value·along)`
//!    holds exactly because every plan row of an attribute shares the same
//!    datum product — *provided nothing saturates*. A conservative `u128`
//!    bound over the plan's maximal diffs and the block's maximal datum
//!    product is checked per plan and block; where it cannot rule
//!    saturation out, that plan runs a fallback sweep over the block that
//!    replays `crate::severity::conf`'s exact `saturating_mul`/
//!    `saturating_add` chain in plan-row order, while the other plans
//!    stay factored;
//! 3. **aggregate**, per plan — violation masks and scores weigh into the
//!    violated count and the `u128` total by refcount. Defaults compare
//!    each *occurrence's* threshold with its unique row's score, counted
//!    one of three ways, each reading a threshold from memory once per
//!    call whatever K:
//!    - a population stored in slot order (every all-unique one built
//!      from profiles or storage) lends its threshold array, and each
//!      block counts its own occurrences against its score lane;
//!    - otherwise, while K × unique rows fits a 2^20-entry score table
//!      (any segment-clustered population), the block walk fills the
//!      table and one chunked pass over the occurrences in storage order
//!      counts every plan;
//!    - otherwise the thresholds are grouped by unique row once per call
//!      (8 bytes per provider) and counted per block as in the first
//!      case.
//!
//!    Scratch memory is thus bounded independently of K.
//!
//! The regrouped arithmetic is identical to [`crate::severity::conf`]'s
//! chain — all factors are non-negative, `u32 × u32` is exact in `u64`,
//! saturating ops over non-negatives compute `min(true value, MAX)`, and
//! the factored path only runs when the precheck proves the true value
//! stays below every saturation point — and `tests/pop_equivalence.rs`
//! pins every outcome of a call byte-identical to
//! `AuditEngine::run_reference` of its policy, including heterogeneous
//! sweeps and saturating magnitudes that force the fallback sweep.

use std::borrow::Cow;
use std::collections::HashMap;

use crate::default_model::defaults;
use crate::plan::CompiledAuditPlan;
use crate::pop::{CompiledPopulation, PolicyOutcome};
use qpv_taxonomy::Dim;

/// Unique rows evaluated per tile. Sized so the block working set —
/// 4 lane arrays (`ev`/`eg`/`er`/`stamp`) × lanes × 4 bytes plus 3
/// datum-product lanes × attributes × 8 bytes — stays near L1 for
/// realistic plans (≈28 + 24 KB at 6 cells over 3 attributes); 1024
/// spilled to L2 and measured ~2× slower on the 100k counts path, and 128
/// measured no faster than 256.
const BLOCK: usize = 256;

/// Preference lane 0 is never stamped: plan rows whose attribute or
/// purposes the population never saw read it, so their effective
/// preference is the implicit deny-all ZERO for every provider.
const UNSTATED: u32 = 0;

/// Datum-product lane 0 holds the neutral product 1: the datum of a plan
/// attribute the population never saw.
const NEUTRAL: u32 = 0;

/// One compiled plan row's policy-side constants plus the shared lanes it
/// reads, hoisted out of the sweep loop.
struct RowParam {
    pv: u32,
    pg: u32,
    pr: u32,
    w: u32,
    /// Effective-preference lane.
    lane: u32,
    /// Datum-product lane.
    datum: u32,
}

/// The union of the plans' cells: one effective-preference lane per
/// distinct `(population attr, feeding population purposes)`. Every plan
/// of a call shares one semantics, so a cell's purposes say how it
/// combines: one policy purpose in flat mode, its covering set in lattice
/// mode.
struct Lanes {
    ids: HashMap<(u32, Vec<u32>), u32>,
    /// Population `(attr, purpose)` cell → the lanes it feeds.
    cells: Vec<Vec<u32>>,
    pop_np: usize,
}

impl Lanes {
    fn new(pop: &CompiledPopulation) -> Lanes {
        let (pop_na, pop_np) = pop.symbol_counts();
        Lanes {
            ids: HashMap::new(),
            cells: vec![Vec::new(); pop_na * pop_np],
            pop_np,
        }
    }

    /// Lanes in use, [`UNSTATED`] included.
    fn len(&self) -> usize {
        self.ids.len() + 1
    }

    /// The lane of a cell; a cell no population symbol can feed is
    /// [`UNSTATED`]. `purposes` must be sorted.
    fn intern(&mut self, attr: Option<u32>, purposes: Vec<u32>) -> u32 {
        let Some(attr) = attr else {
            return UNSTATED;
        };
        if purposes.is_empty() {
            return UNSTATED;
        }
        let lane = self.len() as u32;
        let Lanes { ids, cells, pop_np } = self;
        *ids.entry((attr, purposes))
            .or_insert_with_key(|(_, purposes)| {
                for &p in purposes {
                    cells[attr as usize * *pop_np + p as usize].push(lane);
                }
                lane
            })
    }
}

/// One plan's side of the pass: its rows against the shared lanes, its
/// saturation bound, and its running aggregates.
struct PlanSweep {
    /// Plan-row order (the fallback sweep replays it).
    rows: Vec<RowParam>,
    /// Row indices grouped by plan attribute, each non-empty group with
    /// the attribute's datum-product lane.
    attr_groups: Vec<(u32, Vec<u32>)>,
    /// `Σ_r (pv + pg + pr)·w_r`: bounds the plan's weighted diffs for the
    /// per-block saturation precheck.
    diff_bound: u128,
    total: u128,
    violated: usize,
    defaulted: usize,
}

impl PlanSweep {
    /// Resolve a plan's rows to shared lanes, interning its cells and the
    /// population attributes whose datum products it reads.
    fn new(
        pop: &CompiledPopulation,
        plan: &CompiledAuditPlan,
        lanes: &mut Lanes,
        datum_of: &mut [u32],
        datum_attrs: &mut Vec<u32>,
    ) -> PlanSweep {
        let binding = pop.bind(plan);
        let mut purpose_to_pop = vec![None; plan.purposes.len()];
        for (pp, &p) in binding.purpose_to_plan.iter().enumerate() {
            if p != u32::MAX {
                purpose_to_pop[p as usize] = Some(pp as u32);
            }
        }
        let mut datum = |attr: Option<u32>| match attr {
            None => NEUTRAL,
            Some(pa) => {
                let d = &mut datum_of[pa as usize];
                if *d == u32::MAX {
                    datum_attrs.push(pa);
                    *d = datum_attrs.len() as u32; // lane 0 is NEUTRAL
                }
                *d
            }
        };
        let rows: Vec<RowParam> = plan
            .rows
            .iter()
            .map(|row| {
                let pop_attr = binding.plan_attr_to_pop[row.attr as usize];
                let mut purposes: Vec<u32> = if plan.lattice_mode {
                    plan.covers[row.covers as usize]
                        .iter()
                        .filter_map(|&p| purpose_to_pop[p as usize])
                        .collect()
                } else {
                    purpose_to_pop[row.purpose as usize].into_iter().collect()
                };
                purposes.sort_unstable();
                RowParam {
                    pv: row.point.get(Dim::Visibility),
                    pg: row.point.get(Dim::Granularity),
                    pr: row.point.get(Dim::Retention),
                    w: row.weight,
                    lane: lanes.intern(pop_attr, purposes),
                    datum: datum(pop_attr),
                }
            })
            .collect();

        let attr_groups = (0..plan.attrs.len() as u32)
            .filter_map(|a| {
                let group: Vec<u32> = (0..rows.len() as u32)
                    .filter(|&r| plan.rows[r as usize].attr == a)
                    .collect();
                Some((rows[*group.first()? as usize].datum, group))
            })
            .collect();

        let diff_bound = rows
            .iter()
            .map(|row| (row.pv as u128 + row.pg as u128 + row.pr as u128) * row.w as u128)
            .sum();
        PlanSweep {
            rows,
            attr_groups,
            diff_bound,
            total: 0,
            violated: 0,
            defaulted: 0,
        }
    }
}

/// One block as every plan's sweep reads it: the shared lanes the fill
/// and the datum load wrote, and the block's refcounts.
struct Block<'a> {
    ev: &'a [u32],
    eg: &'a [u32],
    er: &'a [u32],
    /// A lane entry is stated iff its stamp equals `gen`.
    stamp: &'a [u32],
    gen: u32,
    prod_v: &'a [u64],
    prod_g: &'a [u64],
    prod_r: &'a [u64],
    /// The largest datum product in the block (at least 1).
    max_prod: u64,
    /// Per unique row of the block; its length is the block's.
    refs: &'a [u32],
}

/// Per-block working lanes of one plan's sweep, reused plan after plan.
struct Accumulators {
    /// Per-dimension weighted diffs of the attribute being swept.
    sv: [u64; BLOCK],
    sg: [u64; BLOCK],
    sr: [u64; BLOCK],
    /// Nonzero iff some dimension of some plan row was exceeded.
    vmask: [u32; BLOCK],
    /// Saturating Eq. 14 score per unique row.
    score: [u64; BLOCK],
}

impl PlanSweep {
    /// Sweep the plan over one block, fold its violations and severity
    /// into the plan's aggregates, and leave its scores in `acc.score`.
    fn run_block(&mut self, block: &Block, acc: &mut Accumulators) {
        let bl = block.refs.len();
        let gen = block.gen;
        let Accumulators {
            sv,
            sg,
            sr,
            vmask,
            score,
        } = acc;
        // SWEEP: branch-free diffs + violation mask. Lanes the fill
        // didn't stamp mask to ZERO — the implicit deny-all.
        let vms = &mut vmask[..bl];
        let scs = &mut score[..bl];
        vms.fill(0);
        // Saturation precheck: an upper bound on the exact Eq. 14 sum of
        // every row in the block — each diff bounded by its policy point,
        // each datum product by the block's maximum. Below u64::MAX no
        // saturating op anywhere in the reference chain can clip, so the
        // factored arithmetic is exact and byte-identical; otherwise the
        // plan takes the reference-ordered saturating sweep for the block.
        if self.diff_bound.saturating_mul(block.max_prod as u128) < u64::MAX as u128 {
            let mut first_attr = true;
            for (d, rows) in &self.attr_groups {
                // Per-dimension weighted diffs over the attribute's plan
                // rows: u32 lane math, widening mul-accumulate.
                let mut first = true;
                for &r in rows {
                    let row = &self.rows[r as usize];
                    let eb = row.lane as usize * BLOCK;
                    let evs = &block.ev[eb..eb + bl];
                    let egs = &block.eg[eb..eb + bl];
                    let ers = &block.er[eb..eb + bl];
                    let sts = &block.stamp[eb..eb + bl];
                    let svs = &mut sv[..bl];
                    let sgs = &mut sg[..bl];
                    let srs = &mut sr[..bl];
                    let w = row.w as u64;
                    for ub in 0..bl {
                        let live = 0u32.wrapping_sub((sts[ub] == gen) as u32);
                        let dv = row.pv.saturating_sub(evs[ub] & live);
                        let dg = row.pg.saturating_sub(egs[ub] & live);
                        let dr = row.pr.saturating_sub(ers[ub] & live);
                        vms[ub] |= dv | dg | dr;
                        if first {
                            svs[ub] = dv as u64 * w;
                            sgs[ub] = dg as u64 * w;
                            srs[ub] = dr as u64 * w;
                        } else {
                            svs[ub] += dv as u64 * w;
                            sgs[ub] += dg as u64 * w;
                            srs[ub] += dr as u64 * w;
                        }
                    }
                    first = false;
                }
                // Fused datum products: one multiply per dimension lands
                // the attribute's exact severity contribution.
                let db = *d as usize * BLOCK;
                let pvs = &block.prod_v[db..db + bl];
                let pgs = &block.prod_g[db..db + bl];
                let prs = &block.prod_r[db..db + bl];
                for ub in 0..bl {
                    let term = sv[ub] * pvs[ub] + sg[ub] * pgs[ub] + sr[ub] * prs[ub];
                    if first_attr {
                        scs[ub] = term;
                    } else {
                        scs[ub] += term;
                    }
                }
                first_attr = false;
            }
            if first_attr {
                scs.fill(0); // no plan rows at all
            }
        } else {
            // Fallback: replay the reference's exact saturating chain in
            // plan-row order (saturation points depend on the
            // association, so no factoring here).
            scs.fill(0);
            for row in &self.rows {
                let eb = row.lane as usize * BLOCK;
                let db = row.datum as usize * BLOCK;
                let w = row.w as u64;
                for ub in 0..bl {
                    let live = 0u32.wrapping_sub((block.stamp[eb + ub] == gen) as u32);
                    let dv = row.pv.saturating_sub(block.ev[eb + ub] & live);
                    let dg = row.pg.saturating_sub(block.eg[eb + ub] & live);
                    let dr = row.pr.saturating_sub(block.er[eb + ub] & live);
                    vms[ub] |= dv | dg | dr;
                    scs[ub] = scs[ub]
                        .saturating_add((dv as u64 * w).saturating_mul(block.prod_v[db + ub]))
                        .saturating_add((dg as u64 * w).saturating_mul(block.prod_g[db + ub]))
                        .saturating_add((dr as u64 * w).saturating_mul(block.prod_r[db + ub]));
                }
            }
        }

        // AGGREGATE: weigh each unique row by its multiplicity.
        for ((&rf, &s), &m) in block.refs.iter().zip(scs.iter()).zip(vms.iter()) {
            self.violated += rf as usize * (m != 0) as usize;
            self.total += s as u128 * rf as u128;
        }
    }
}

/// How one call counts defaults (step 3 of the module doc). Scratch
/// memory is bounded independently of K: a score table never exceeds
/// [`SCORE_TABLE`] entries, and grouped thresholds cost 8 bytes per
/// provider.
enum DefaultCount<'a> {
    /// Every plan's score of every unique row, plan-major (`k·slots + u`).
    /// After the walk, one pass over the occurrences in storage order
    /// counts every plan, streaming each threshold from memory once.
    /// Segment-clustered populations — few unique rows, each shared by
    /// providers scattered through the id space — land here.
    Table(Vec<u64>),
    /// The occurrences' thresholds grouped by unique row in slot order:
    /// slot `u`'s are the `refs[u]` entries after those of slots `< u`.
    /// Each block counts its own against its score lane, so a score lives
    /// only as long as its block.
    Grouped(Cow<'a, [u64]>),
}

impl DefaultCount<'_> {
    /// Lend the thresholds if they are in slot order; else keep scores
    /// if they fit the table; else group the thresholds.
    fn new(pop: &CompiledPopulation, k_plans: usize) -> DefaultCount<'_> {
        let (urows, rows, thresholds) = (pop.urows(), pop.rows(), pop.thresholds_slice());
        // A population that stores its occurrences in slot order, each on
        // its own id-row (every all-unique one built from profiles or
        // storage), lends its threshold array as is.
        if urows.is_sorted() && rows.iter().enumerate().all(|(i, &r)| r as usize == i) {
            return DefaultCount::Grouped(Cow::Borrowed(&thresholds[..rows.len()]));
        }
        let refs = pop.table().refs_slice();
        if k_plans * refs.len() <= SCORE_TABLE {
            return DefaultCount::Table(vec![0; k_plans * refs.len()]);
        }
        // Too many scores to keep: group the thresholds once per call.
        let mut next = Vec::with_capacity(refs.len());
        let mut end = 0usize;
        for &r in refs {
            next.push(end);
            end += r as usize;
        }
        let mut grouped = vec![0u64; end];
        for (&u, &row) in urows.iter().zip(rows) {
            let at = &mut next[u as usize];
            grouped[*at] = thresholds[row as usize];
            *at += 1;
        }
        DefaultCount::Grouped(Cow::Owned(grouped))
    }
}

/// Score-table capacity, in scores (8 MiB). A K = 1 call over up to a
/// million unique rows, or a K-policy sweep over a clustered population,
/// keeps a table; anything wider groups its thresholds instead.
const SCORE_TABLE: usize = 1 << 20;

/// Occurrences per chunk of the score-table pass: their slots and
/// thresholds (12 bytes each) stay in L1 while every plan reads them.
const OCC_CHUNK: usize = 1024;

/// Price every plan against the population in one walk over its unique
/// rows. Outcome `k` equals `AuditEngine::audit_compiled`'s aggregates
/// under `plans[k]`, bit for bit.
pub(crate) fn pass_many(
    pop: &CompiledPopulation,
    plans: &[CompiledAuditPlan],
) -> Vec<PolicyOutcome> {
    if plans.is_empty() {
        return Vec::new();
    }
    let table = pop.table();
    let (p_attr, p_purpose, p_vis, p_gran, p_ret) = table.pref_lanes();
    let (d_value, d_vis, d_gran, d_ret) = table.datum_lanes();
    let refs = table.refs_slice();
    let ranges = table.ranges_slice();
    let stride = table.stride();
    let slots = table.slot_count();
    let (pop_na, pop_np) = pop.symbol_counts();
    let k_plans = plans.len();
    // Every plan of a call is compiled by one engine: flat cells keep the
    // first stated tuple, lattice cells max-join.
    let join = plans[0].lattice_mode;
    debug_assert!(plans.iter().all(|p| p.lattice_mode == join));

    let mut lanes = Lanes::new(pop);
    let mut datum_of = vec![u32::MAX; pop_na];
    let mut datum_attrs = Vec::new();
    let mut sweeps: Vec<PlanSweep> = plans
        .iter()
        .map(|plan| PlanSweep::new(pop, plan, &mut lanes, &mut datum_of, &mut datum_attrs))
        .collect();

    // In the common shape — flat mode, or lattice purposes covered by one
    // policy purpose — every cell feeds at most one lane, and the fill
    // collapses to a single table lookup per preference row.
    let single_target = lanes.cells.iter().all(|c| c.len() <= 1).then(|| {
        lanes
            .cells
            .iter()
            .map(|c| c.first().copied().unwrap_or(u32::MAX))
            .collect::<Vec<u32>>()
    });

    let nlanes = lanes.len();
    let mut ev = vec![0u32; nlanes * BLOCK];
    let mut eg = vec![0u32; nlanes * BLOCK];
    let mut er = vec![0u32; nlanes * BLOCK];
    // Stamp 0 is stale for every block's generation (they start at 1).
    let mut stamp = vec![0u32; nlanes * BLOCK];
    let nd = datum_attrs.len() + 1;
    // Datum-product lanes; NEUTRAL's stay at 1.
    let mut prod_v = vec![1u64; nd * BLOCK];
    let mut prod_g = vec![1u64; nd * BLOCK];
    let mut prod_r = vec![1u64; nd * BLOCK];
    let mut acc = Accumulators {
        sv: [0; BLOCK],
        sg: [0; BLOCK],
        sr: [0; BLOCK],
        vmask: [0; BLOCK],
        score: [0; BLOCK],
    };
    let mut count = DefaultCount::new(pop, k_plans);
    let mut occ0 = 0usize;

    let mut gen = 0u32;
    let mut b0 = 0;
    while b0 < slots {
        let bl = BLOCK.min(slots - b0);
        // A fresh generation invalidates every lane the previous block
        // stamped — no clearing. Blocks number < 2^32 (slots are u32).
        gen += 1;

        // FILL: scatter stated preferences into the cell lanes.
        for ub in 0..bl {
            let u = b0 + ub;
            if refs[u] == 0 {
                continue; // dead slot: lanes stay stale, weight 0 below
            }
            let (s, e) = (ranges[u].0 as usize, ranges[u].1 as usize);
            let prefs = p_attr[s..e]
                .iter()
                .zip(&p_purpose[s..e])
                .zip(p_vis[s..e].iter().zip(&p_gran[s..e]).zip(&p_ret[s..e]));
            if let Some(one) = &single_target {
                for ((&pa, &pp), ((&tv, &tg), &tr)) in prefs {
                    let l = one[pa as usize * pop_np + pp as usize];
                    if l == u32::MAX {
                        continue;
                    }
                    let idx = l as usize * BLOCK + ub;
                    if stamp[idx] != gen {
                        stamp[idx] = gen;
                        ev[idx] = tv;
                        eg[idx] = tg;
                        er[idx] = tr;
                    } else if join {
                        ev[idx] = ev[idx].max(tv);
                        eg[idx] = eg[idx].max(tg);
                        er[idx] = er[idx].max(tr);
                    }
                    // flat lane: first stated tuple wins, rest skipped
                }
            } else {
                for ((&pa, &pp), ((&tv, &tg), &tr)) in prefs {
                    for &l in &lanes.cells[pa as usize * pop_np + pp as usize] {
                        let idx = l as usize * BLOCK + ub;
                        if stamp[idx] != gen {
                            stamp[idx] = gen;
                            ev[idx] = tv;
                            eg[idx] = tg;
                            er[idx] = tr;
                        } else if join {
                            ev[idx] = ev[idx].max(tv);
                            eg[idx] = eg[idx].max(tg);
                            er[idx] = er[idx].max(tr);
                        }
                    }
                }
            }
        }
        // The block's datum products, once for every plan, and their
        // maximum (at least NEUTRAL's 1) for the saturation precheck.
        let mut max_prod = 1u64;
        for ub in 0..bl {
            let row = (b0 + ub) * stride;
            let vals = &d_value[row..row + stride];
            let viss = &d_vis[row..row + stride];
            let grans = &d_gran[row..row + stride];
            let rets = &d_ret[row..row + stride];
            for (d, &pa) in datum_attrs.iter().enumerate() {
                let (pa, at) = (pa as usize, (d + 1) * BLOCK + ub);
                let val = vals[pa] as u64;
                let (v, g, r) = (
                    val * viss[pa] as u64,
                    val * grans[pa] as u64,
                    val * rets[pa] as u64,
                );
                prod_v[at] = v;
                prod_g[at] = g;
                prod_r[at] = r;
                max_prod = max_prod.max(v).max(g).max(r);
            }
        }
        let occ_end = occ0 + refs[b0..b0 + bl].iter().map(|&r| r as usize).sum::<usize>();

        let block = Block {
            ev: &ev,
            eg: &eg,
            er: &er,
            stamp: &stamp,
            gen,
            prod_v: &prod_v,
            prod_g: &prod_g,
            prod_r: &prod_r,
            max_prod,
            refs: &refs[b0..b0 + bl],
        };
        for (k, sw) in sweeps.iter_mut().enumerate() {
            sw.run_block(&block, &mut acc);
            let scores = &acc.score[..bl];
            match &mut count {
                DefaultCount::Table(table) => {
                    table[k * slots + b0..][..bl].copy_from_slice(scores);
                }
                DefaultCount::Grouped(thresholds) => {
                    let mut occ = occ0;
                    for (&rf, &s) in block.refs.iter().zip(scores) {
                        let end = occ + rf as usize;
                        sw.defaulted += thresholds[occ..end]
                            .iter()
                            .filter(|&&t| defaults(s, t))
                            .count();
                        occ = end;
                    }
                }
            }
        }

        occ0 = occ_end;
        b0 += BLOCK;
    }

    if let DefaultCount::Table(table) = &count {
        // Occurrences in storage order, a chunk at a time: the first plan
        // gathers the chunk's thresholds into L1 as it counts, and every
        // other plan compares against them there, so memory streams each
        // threshold once whatever K.
        let thresholds = pop.thresholds_slice();
        let mut ts = [0u64; OCC_CHUNK];
        let chunks = pop
            .urows()
            .chunks(OCC_CHUNK)
            .zip(pop.rows().chunks(OCC_CHUNK));
        for (urows, rows) in chunks {
            let ts = &mut ts[..rows.len()];
            let mut plans = sweeps.iter_mut().zip(table.chunks(slots));
            let (first, scores) = plans.next().expect("at least one plan");
            let mut defaulted = 0;
            for ((t, &u), &row) in ts.iter_mut().zip(urows).zip(rows) {
                *t = thresholds[row as usize];
                defaulted += defaults(scores[u as usize], *t) as usize;
            }
            first.defaulted += defaulted;
            for (sw, scores) in plans {
                sw.defaulted += urows
                    .iter()
                    .zip(ts.iter())
                    .filter(|&(&u, &t)| defaults(scores[u as usize], t))
                    .count();
            }
        }
    }

    sweeps
        .into_iter()
        .map(|sw| PolicyOutcome {
            total_violations: sw.total,
            violated: sw.violated,
            defaulted: sw.defaulted,
            population: pop.len(),
        })
        .collect()
}
