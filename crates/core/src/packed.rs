//! The compiled evaluator of Definition 1 (`w_i`) and Eq. 15
//! (`Violation_i`): a branch-free block walk over the packed unique-row
//! lanes, fill per cell, sweep per plan.
//!
//! A [`Kernel`] is the one compiled scoring path besides the
//! [`crate::AuditEngine::run_reference`] oracle. It has two halves:
//!
//! * the **prepared** half, built once per (population, plans) by
//!   [`Kernel::new`]: the shared lanes, one `PlanSweep` per plan, the
//!   datum-lane map and the single-target fill table. It depends on the
//!   population's interned symbols only, so a holder re-prepares it after
//!   a delta that interns one ([`Kernel::reprepare`]);
//! * the **block walk**, over either every slot of the unique-row table or
//!   an explicit list of unique rows, into [`Buffers`] that a long-lived
//!   holder keeps across calls. It has two outputs:
//!   - [`Kernel::counts`] prices K plans at once and aggregates by refcount
//!     — [`crate::pop::AuditEngine::counts`], `counts_with_policy` (the
//!     K = 1 call) and `AuditEngine::audit_many_policies` (Eq. 31's sweep);
//!   - [`Kernel::audit_all`] / [`Kernel::audit_rows`] (K = 1) record each
//!     visited unique row's score and, for rows whose violation mask is
//!     nonzero, its witnesses — `AuditEngine::audit_compiled` and
//!     [`crate::LiveViolationIndex`] (which both SQL paths read).
//!
//! Each unique row is scored once per plan; on segment-clustered
//! populations the unique-row table is orders of magnitude smaller than
//! the population, so the whole working set stays cache-resident for
//! millions of providers.
//!
//! Per block of unique rows:
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
//!    between blocks (the stamps are cleared once before the `u32`
//!    generation wraps), and a preference row's cell routes through a map
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
//!    holds because every plan row of an attribute shares the same datum
//!    product, and saturating ops give the same `min(exact, u64::MAX)`
//!    whatever the association. One sweep body runs on plain `u64` ops
//!    where a per-plan, per-block `u128` bound rules saturation out, else
//!    on saturating ops (slower: SIMD has no saturating `u64` add);
//! 3. **output**, per plan. Witnesses come out in plan-row order, read
//!    from the shared lanes: a stamped lane gives the stated point, an
//!    unstamped one the implicit ZERO. Counts weigh violation masks and
//!    scores into the violated count and the `u128` total by refcount.
//!    Defaults compare each *occurrence's* threshold with its unique
//!    row's score, counted one of three ways, each reading a threshold
//!    from memory once per call whatever K:
//!    - a population whose occurrences are stored in slot order (every
//!      all-unique one built from profiles or storage) lends its
//!      threshold array, and each block counts its own occurrences
//!      against its score lane;
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
//! saturating ops over non-negatives compute `min(true value, MAX)` in
//! any order, and the plain ops only run when the precheck proves the true
//! value stays below `u64::MAX`. `tests/pop_equivalence.rs` and
//! `tests/plan_equivalence.rs` pin every count, score and witness
//! byte-identical to `AuditEngine::run_reference` of the same policy,
//! including heterogeneous sweeps and saturating magnitudes that force the
//! saturating ops.

use std::borrow::Cow;
use std::collections::HashMap;

use crate::default_model::defaults;
use crate::plan::CompiledAuditPlan;
use crate::pop::{CompiledPopulation, PolicyOutcome};
use crate::violation::ViolationWitness;
use qpv_taxonomy::{AttrName, Dim, PrivacyPoint, Purpose, ViolationGeometry};

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
/// of a kernel shares one semantics, so a cell's purposes say how it
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

/// One plan's side of the kernel: its rows against the shared lanes and
/// its saturation bound.
struct PlanSweep {
    /// Plan-row order (the witnesses replay it).
    rows: Vec<RowParam>,
    /// Row indices grouped by plan attribute, each non-empty group with
    /// the attribute's datum-product lane.
    attr_groups: Vec<(u32, Vec<u32>)>,
    /// `Σ_r (pv + pg + pr)·w_r`: bounds the plan's weighted diffs for the
    /// per-block saturation precheck.
    diff_bound: u128,
}

impl PlanSweep {
    /// Resolve a plan's rows to shared lanes, interning its cells and the
    /// population attributes whose datum products it reads. Plan symbols
    /// translate to population ids by name; a name the population never
    /// interned matches no stated preference and no datum.
    fn new(
        pop: &CompiledPopulation,
        plan: &CompiledAuditPlan,
        lanes: &mut Lanes,
        datum_of: &mut [u32],
        datum_attrs: &mut Vec<u32>,
    ) -> PlanSweep {
        let (pop_attrs, pop_purposes) = pop.symbols();
        let attr_to_pop: Vec<Option<u32>> = plan
            .attrs
            .names()
            .iter()
            .map(|n| pop_attrs.get(n))
            .collect();
        let purpose_to_pop: Vec<Option<u32>> = plan
            .purposes
            .names()
            .iter()
            .map(|n| pop_purposes.get(n))
            .collect();
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
                let pop_attr = attr_to_pop[row.attr as usize];
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
        }
    }
}

/// One block as every plan's sweep reads it: the shared lanes the fill
/// and the datum load wrote.
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
    /// Unique rows in the block.
    len: usize,
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
    /// Sweep the plan over one block, leaving its scores in `acc.score`
    /// and its violation predicates in `acc.vmask`. The precheck bounds
    /// the exact Eq. 14 sum of every row in the block — each diff by its
    /// policy point, each datum product by the block's maximum; below
    /// `u64::MAX` nothing can clip, so plain ops equal the reference's
    /// saturating chain.
    fn run_block(&self, block: &Block, acc: &mut Accumulators) {
        if self.diff_bound.saturating_mul(block.max_prod as u128) < u64::MAX as u128 {
            self.sweep::<false>(block, acc);
        } else {
            self.sweep::<true>(block, acc);
        }
    }

    /// The factored sweep over one block, on saturating ops iff `SAT`.
    fn sweep<const SAT: bool>(&self, block: &Block, acc: &mut Accumulators) {
        let bl = block.len;
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
                    // `u32 × u32` is exact in `u64`.
                    if first {
                        svs[ub] = dv as u64 * w;
                        sgs[ub] = dg as u64 * w;
                        srs[ub] = dr as u64 * w;
                    } else {
                        svs[ub] = add::<SAT>(svs[ub], dv as u64 * w);
                        sgs[ub] = add::<SAT>(sgs[ub], dg as u64 * w);
                        srs[ub] = add::<SAT>(srs[ub], dr as u64 * w);
                    }
                }
                first = false;
            }
            // Fused datum products: one multiply per dimension lands
            // the attribute's severity contribution.
            let db = *d as usize * BLOCK;
            let pvs = &block.prod_v[db..db + bl];
            let pgs = &block.prod_g[db..db + bl];
            let prs = &block.prod_r[db..db + bl];
            for ub in 0..bl {
                let term = add::<SAT>(
                    add::<SAT>(mul::<SAT>(sv[ub], pvs[ub]), mul::<SAT>(sg[ub], pgs[ub])),
                    mul::<SAT>(sr[ub], prs[ub]),
                );
                if first_attr {
                    scs[ub] = term;
                } else {
                    scs[ub] = add::<SAT>(scs[ub], term);
                }
            }
            first_attr = false;
        }
        if first_attr {
            scs.fill(0); // no plan rows at all
        }
    }

    /// The witnesses of the block's unique row `ub`, in plan-row order:
    /// each violated plan row against its lane's point if the fill
    /// stamped it, else against the implicit ZERO.
    fn witnesses(
        &self,
        plan: &CompiledAuditPlan,
        block: &Block,
        ub: usize,
    ) -> Vec<ViolationWitness> {
        plan.rows
            .iter()
            .zip(&self.rows)
            .filter_map(|(row, param)| {
                let at = param.lane as usize * BLOCK + ub;
                let stated = block.stamp[at] == block.gen;
                let preference = if stated {
                    PrivacyPoint::from_raw(block.ev[at], block.eg[at], block.er[at])
                } else {
                    PrivacyPoint::ZERO
                };
                let geometry = ViolationGeometry::compare(&preference, &row.point);
                geometry.is_violation().then(|| ViolationWitness {
                    attribute: AttrName::from(plan.attrs.resolve_shared(row.attr)),
                    purpose: Purpose::from(plan.purposes.resolve_shared(row.purpose)),
                    preference,
                    implicit_preference: !stated,
                    policy: row.point,
                    geometry,
                })
            })
            .collect()
    }
}

/// The sweep's add: plain where the precheck rules clipping out
/// (`SAT = false`), else saturating — `min(exact, u64::MAX)` in any order.
#[inline(always)]
fn add<const SAT: bool>(a: u64, b: u64) -> u64 {
    if SAT {
        a.saturating_add(b)
    } else {
        a + b
    }
}

/// The sweep's multiply, plain or saturating like [`add`].
#[inline(always)]
fn mul<const SAT: bool>(a: u64, b: u64) -> u64 {
    if SAT {
        a.saturating_mul(b)
    } else {
        a * b
    }
}

/// The block walk's working memory: the shared preference and
/// datum-product lanes and the sweep accumulators. A holder that scores
/// often keeps one across calls (and across re-preparations), so a call
/// pays for the rows it visits, not for `BLOCK × lanes` of setup.
pub(crate) struct Buffers {
    ev: Vec<u32>,
    eg: Vec<u32>,
    er: Vec<u32>,
    stamp: Vec<u32>,
    prod_v: Vec<u64>,
    prod_g: Vec<u64>,
    prod_r: Vec<u64>,
    /// The generation of the last block walked. Stamps only ever hold
    /// generations already used, so every stamp is stale for the next.
    gen: u32,
    acc: Box<Accumulators>,
}

impl Default for Buffers {
    fn default() -> Buffers {
        Buffers {
            ev: Vec::new(),
            eg: Vec::new(),
            er: Vec::new(),
            stamp: Vec::new(),
            prod_v: Vec::new(),
            prod_g: Vec::new(),
            prod_r: Vec::new(),
            gen: 0,
            acc: Box::new(Accumulators {
                sv: [0; BLOCK],
                sg: [0; BLOCK],
                sr: [0; BLOCK],
                vmask: [0; BLOCK],
                score: [0; BLOCK],
            }),
        }
    }
}

impl Buffers {
    /// Grow the lanes to a kernel's shape. New stamps are 0, stale for
    /// every generation; new datum-product lanes start at 1, so
    /// [`NEUTRAL`]'s stay at 1.
    fn fit(&mut self, lanes: usize, datum_lanes: usize) {
        let (n, nd) = (lanes * BLOCK, datum_lanes * BLOCK);
        if self.stamp.len() < n {
            for lane in [&mut self.ev, &mut self.eg, &mut self.er, &mut self.stamp] {
                lane.resize(n, 0);
            }
        }
        if self.prod_v.len() < nd {
            for lane in [&mut self.prod_v, &mut self.prod_g, &mut self.prod_r] {
                lane.resize(nd, 1);
            }
        }
    }
}

/// One unique row's Eq. 15 score and Definition 1 witnesses under a
/// K = 1 kernel's plan.
#[derive(Debug, PartialEq)]
pub(crate) struct RowAudit {
    pub(crate) score: u64,
    /// Plan-row order; empty iff the row does not violate.
    pub(crate) witnesses: Vec<ViolationWitness>,
}

/// The prepared half of the kernel (module docs): K plans resolved
/// against one population's symbols.
pub(crate) struct Kernel {
    plans: Vec<CompiledAuditPlan>,
    sweeps: Vec<PlanSweep>,
    lanes: Lanes,
    /// In the common shape — flat mode, or lattice purposes covered by one
    /// policy purpose — every cell feeds at most one lane, and the fill
    /// collapses to a single table lookup per preference row.
    single_target: Option<Vec<u32>>,
    /// Population attributes with a datum-product lane (lane `d + 1`).
    datum_attrs: Vec<u32>,
    /// Lattice cells max-join; flat cells keep the first stated tuple.
    join: bool,
    /// The population's `(attribute, purpose)` symbol counts it was
    /// prepared against.
    symbols: (usize, usize),
}

impl Kernel {
    /// Prepare `plans` against `pop`. Every plan must be compiled by one
    /// engine (one purpose semantics).
    pub(crate) fn new(pop: &CompiledPopulation, plans: Vec<CompiledAuditPlan>) -> Kernel {
        let join = plans.first().is_some_and(|p| p.lattice_mode);
        debug_assert!(plans.iter().all(|p| p.lattice_mode == join));
        let mut lanes = Lanes::new(pop);
        let mut datum_of = vec![u32::MAX; pop.symbol_counts().0];
        let mut datum_attrs = Vec::new();
        let sweeps = plans
            .iter()
            .map(|plan| PlanSweep::new(pop, plan, &mut lanes, &mut datum_of, &mut datum_attrs))
            .collect();
        let single_target = lanes.cells.iter().all(|c| c.len() <= 1).then(|| {
            lanes
                .cells
                .iter()
                .map(|c| c.first().copied().unwrap_or(u32::MAX))
                .collect()
        });
        Kernel {
            plans,
            sweeps,
            lanes,
            single_target,
            datum_attrs,
            join,
            symbols: pop.symbol_counts(),
        }
    }

    /// Prepare the same plans against `pop`'s current symbols if a delta
    /// interned attributes or purposes the lanes do not route. The lanes
    /// depend on nothing else, and symbols are only ever appended.
    pub(crate) fn reprepare(&mut self, pop: &CompiledPopulation) {
        if pop.symbol_counts() != self.symbols {
            *self = Kernel::new(pop, std::mem::take(&mut self.plans));
        }
    }

    /// Walk the unique rows `slot(0) .. slot(n - 1)` block by block,
    /// calling `visit(b0, k, block, acc)` after plan `k` has swept the
    /// block starting at walk position `b0`.
    fn walk(
        &self,
        pop: &CompiledPopulation,
        n: usize,
        slot: impl Fn(usize) -> usize,
        bufs: &mut Buffers,
        mut visit: impl FnMut(usize, usize, &Block, &Accumulators),
    ) {
        bufs.fit(self.lanes.len(), self.datum_attrs.len() + 1);
        let Buffers {
            ev,
            eg,
            er,
            stamp,
            prod_v,
            prod_g,
            prod_r,
            gen,
            acc,
        } = bufs;
        let mut b0 = 0;
        while b0 < n {
            let bl = BLOCK.min(n - b0);
            // A fresh generation invalidates every lane the previous block
            // stamped — no clearing, except once before the counter wraps.
            *gen = if *gen == u32::MAX {
                stamp.fill(0);
                1
            } else {
                *gen + 1
            };
            let max_prod = self.fill(
                pop,
                &slot,
                b0..b0 + bl,
                *gen,
                ev,
                eg,
                er,
                stamp,
                prod_v,
                prod_g,
                prod_r,
            );
            let block = Block {
                ev,
                eg,
                er,
                stamp,
                gen: *gen,
                prod_v,
                prod_g,
                prod_r,
                max_prod,
                len: bl,
            };
            for (k, sweep) in self.sweeps.iter().enumerate() {
                sweep.run_block(&block, acc);
                visit(b0, k, &block, acc);
            }
            b0 += BLOCK;
        }
    }

    /// Fill the lanes of the block at walk positions `block` — stated
    /// preferences into the cell lanes, datum products into theirs — and
    /// return its largest datum product. Each lane is its own `&mut`
    /// argument of a function kept out of line, so the compiler knows the
    /// lanes do not alias: the K = 1 counts call measured ~8% slower when
    /// the fill wrote them inline through one borrowed struct.
    #[inline(never)]
    #[allow(clippy::too_many_arguments)]
    fn fill(
        &self,
        pop: &CompiledPopulation,
        slot: impl Fn(usize) -> usize,
        block: std::ops::Range<usize>,
        gen: u32,
        ev: &mut [u32],
        eg: &mut [u32],
        er: &mut [u32],
        stamp: &mut [u32],
        prod_v: &mut [u64],
        prod_g: &mut [u64],
        prod_r: &mut [u64],
    ) -> u64 {
        let table = pop.table();
        let (p_attr, p_purpose, p_vis, p_gran, p_ret) = table.pref_lanes();
        let (d_value, d_vis, d_gran, d_ret) = table.datum_lanes();
        let (refs, ranges, stride) = (table.refs_slice(), table.ranges_slice(), table.stride());
        let (pop_np, join) = (self.lanes.pop_np, self.join);
        let (b0, bl) = (block.start, block.len());
        // FILL: scatter stated preferences into the cell lanes.
        for ub in 0..bl {
            let u = slot(b0 + ub);
            if refs[u] == 0 {
                continue; // dead slot: lanes stay stale, weight 0
            }
            let (s, e) = (ranges[u].0 as usize, ranges[u].1 as usize);
            let prefs = p_attr[s..e]
                .iter()
                .zip(&p_purpose[s..e])
                .zip(p_vis[s..e].iter().zip(&p_gran[s..e]).zip(&p_ret[s..e]));
            if let Some(one) = &self.single_target {
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
                    for &l in &self.lanes.cells[pa as usize * pop_np + pp as usize] {
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
            let row = slot(b0 + ub) * stride;
            let vals = &d_value[row..row + stride];
            let viss = &d_vis[row..row + stride];
            let grans = &d_gran[row..row + stride];
            let rets = &d_ret[row..row + stride];
            for (d, &pa) in self.datum_attrs.iter().enumerate() {
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

        max_prod
    }

    /// Price every plan against the population in one walk over all its
    /// unique rows. Outcome `k` equals `AuditEngine::audit_compiled`'s
    /// aggregates under plan `k`, bit for bit.
    pub(crate) fn counts(&self, pop: &CompiledPopulation) -> Vec<PolicyOutcome> {
        let k_plans = self.plans.len();
        if k_plans == 0 {
            return Vec::new();
        }
        let refs = pop.table().refs_slice();
        let slots = refs.len();
        let mut aggs = vec![Aggregate::default(); k_plans];
        let mut count = DefaultCount::new(pop, k_plans);
        // Grouped thresholds: the first slot of the block being counted,
        // and its first threshold.
        let mut cursor = (0usize, 0usize);

        self.walk(
            pop,
            slots,
            |u| u,
            &mut Buffers::default(),
            |b0, k, block, acc| {
                let bl = block.len;
                let block_refs = &refs[b0..b0 + bl];
                let scores = &acc.score[..bl];
                let agg = &mut aggs[k];
                // Weigh each unique row by its multiplicity.
                let (mut violated, mut total) = (0usize, 0u128);
                for ((&rf, &s), &m) in block_refs.iter().zip(scores).zip(&acc.vmask[..bl]) {
                    violated += rf as usize * (m != 0) as usize;
                    total += s as u128 * rf as u128;
                }
                agg.violated += violated;
                agg.total += total;
                match &mut count {
                    DefaultCount::Table(table) => {
                        table[k * slots + b0..][..bl].copy_from_slice(scores);
                    }
                    DefaultCount::Grouped(thresholds) => {
                        if cursor.0 != b0 {
                            let passed: usize =
                                refs[cursor.0..b0].iter().map(|&r| r as usize).sum();
                            cursor = (b0, cursor.1 + passed);
                        }
                        let (mut occ, mut defaulted) = (cursor.1, 0);
                        for (&rf, &s) in block_refs.iter().zip(scores) {
                            let end = occ + rf as usize;
                            defaulted += thresholds[occ..end]
                                .iter()
                                .filter(|&&t| defaults(s, t))
                                .count();
                            occ = end;
                        }
                        agg.defaulted += defaulted;
                    }
                }
            },
        );

        if let DefaultCount::Table(table) = &count {
            // Occurrences in storage order, a chunk at a time: the first plan
            // pulls the chunk's unique rows and thresholds into L1 as it
            // counts, and every other plan reads them there, so memory
            // streams each threshold once whatever K.
            let chunks = pop
                .urows()
                .chunks(OCC_CHUNK)
                .zip(pop.thresholds_slice().chunks(OCC_CHUNK));
            for (urows, ts) in chunks {
                for (agg, scores) in aggs.iter_mut().zip(table.chunks(slots)) {
                    agg.defaulted += urows
                        .iter()
                        .zip(ts)
                        .filter(|&(&u, &t)| defaults(scores[u as usize], t))
                        .count();
                }
            }
        }

        aggs.into_iter()
            .map(|agg| PolicyOutcome {
                total_violations: agg.total,
                violated: agg.violated,
                defaulted: agg.defaulted,
                population: pop.len(),
            })
            .collect()
    }

    /// Score every slot of the unique-row table under the K = 1 plan, with
    /// witnesses: entry `u` is slot `u`'s (dead slots score but carry no
    /// witnesses).
    pub(crate) fn audit_all(&self, pop: &CompiledPopulation, bufs: &mut Buffers) -> Vec<RowAudit> {
        self.audit(pop, pop.table().slot_count(), |u| u, bufs)
    }

    /// Score the listed live unique rows under the K = 1 plan, with
    /// witnesses, in list order (a row may repeat).
    pub(crate) fn audit_rows(
        &self,
        pop: &CompiledPopulation,
        rows: &[u32],
        bufs: &mut Buffers,
    ) -> Vec<RowAudit> {
        self.audit(pop, rows.len(), |j| rows[j] as usize, bufs)
    }

    fn audit(
        &self,
        pop: &CompiledPopulation,
        n: usize,
        slot: impl Fn(usize) -> usize,
        bufs: &mut Buffers,
    ) -> Vec<RowAudit> {
        let ([plan], [sweep]) = (&self.plans[..], &self.sweeps[..]) else {
            panic!("witnesses come from a K = 1 kernel");
        };
        let refs = pop.table().refs_slice();
        let mut out = Vec::with_capacity(n);
        self.walk(pop, n, &slot, bufs, |b0, _, block, acc| {
            for ub in 0..block.len {
                let violated = acc.vmask[ub] != 0 && refs[slot(b0 + ub)] > 0;
                out.push(RowAudit {
                    score: acc.score[ub],
                    witnesses: if violated {
                        sweep.witnesses(plan, block, ub)
                    } else {
                        Vec::new()
                    },
                });
            }
        });
        out
    }
}

/// One plan's running counts.
#[derive(Debug, Clone, Copy, Default)]
struct Aggregate {
    total: u128,
    violated: usize,
    defaulted: usize,
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
        let (urows, thresholds) = (pop.urows(), pop.thresholds_slice());
        // A population that stores its occurrences in slot order (every
        // all-unique one built from profiles or storage) lends its
        // threshold array as is.
        if urows.is_sorted() {
            return DefaultCount::Grouped(Cow::Borrowed(thresholds));
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
        for (&u, &t) in urows.iter().zip(thresholds) {
            let at = &mut next[u as usize];
            grouped[*at] = t;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::{AuditEngine, ProviderAudit};
    use crate::pop::PopulationDelta;
    use crate::profile::ProviderProfile;
    use crate::sensitivity::{AttributeSensitivities, DatumSensitivity};
    use qpv_policy::{HousePolicy, ProviderId};
    use qpv_taxonomy::PrivacyTuple;

    fn pt(v: u32, g: u32, r: u32) -> PrivacyPoint {
        PrivacyPoint::from_raw(v, g, r)
    }

    /// A policy on `weight` and `height`; populations below start out
    /// stating only `weight`.
    fn engine() -> AuditEngine {
        let policy = HousePolicy::builder("house")
            .tuple("weight", PrivacyTuple::from_point("pr", pt(4, 4, 4)))
            .tuple("height", PrivacyTuple::from_point("pr", pt(2, 2, 2)))
            .build();
        let mut weights = AttributeSensitivities::new();
        weights.set("weight", 3);
        weights.set("height", 2);
        AuditEngine::new(policy, ["weight", "height"], weights)
    }

    /// Provider `i`: even ids state a `weight` point that depends on `i`,
    /// odd ids state nothing. A per-provider datum keeps every unique row
    /// distinct.
    fn profile(i: u64) -> ProviderProfile {
        let mut p = ProviderProfile::new(ProviderId(i), 40);
        if i.is_multiple_of(2) {
            let c = (i % 7) as u32;
            p.preferences.add(
                "weight",
                PrivacyTuple::from_point("pr", pt(c, 6 - c % 6, c)),
            );
        }
        p.sensitivities.insert(
            "weight".into(),
            DatumSensitivity::new(1 + i as u32, 1, 2, 1),
        );
        p
    }

    fn expected(audit: &ProviderAudit) -> RowAudit {
        RowAudit {
            score: audit.score,
            witnesses: audit.witnesses.clone(),
        }
    }

    /// Score every occurrence through `kernel` and `bufs` — as a reversed
    /// row list with a repeat, then as the whole slot range — and check
    /// each against the reference audit of `profiles`.
    fn check(
        kernel: &Kernel,
        pop: &CompiledPopulation,
        profiles: &[ProviderProfile],
        bufs: &mut Buffers,
    ) {
        let reference = engine().run_reference(profiles);
        let urows = pop.urows();
        let mut occs: Vec<usize> = (0..pop.len()).rev().collect();
        occs.push(0);
        let rows: Vec<u32> = occs.iter().map(|&i| urows[i]).collect();
        let listed = kernel.audit_rows(pop, &rows, bufs);
        for (&i, got) in occs.iter().zip(&listed) {
            assert_eq!(
                *got,
                expected(&reference.providers[i]),
                "listed occurrence {i}"
            );
        }
        let all = kernel.audit_all(pop, bufs);
        for (i, &u) in urows.iter().enumerate() {
            assert_eq!(
                all[u as usize],
                expected(&reference.providers[i]),
                "occurrence {i}"
            );
        }
    }

    #[test]
    fn reused_kernel_leaks_no_state_across_calls_or_deltas() {
        let mut profiles: Vec<ProviderProfile> = (0..600).map(profile).collect();
        let mut pop = CompiledPopulation::from_profiles(&profiles);
        let mut kernel = Kernel::new(&pop, vec![engine().compile_house()]);
        let mut bufs = Buffers::default();
        // A single-row call first: its stamps must not leak into the next.
        let one = kernel.audit_rows(&pop, &[pop.urows()[4]], &mut bufs);
        assert_eq!(
            one[0],
            expected(&engine().run_reference(&profiles[4..5]).providers[0])
        );
        check(&kernel, &pop, &profiles, &mut bufs);

        // A delta interning `height`, which the policy names: the kernel
        // must be re-prepared to route it, and the buffers grow to fit.
        let (pop_na, _) = pop.symbol_counts();
        let mut tall = profile(1001);
        tall.preferences
            .add("height", PrivacyTuple::from_point("pr", pt(1, 1, 1)));
        tall.sensitivities
            .insert("height".into(), DatumSensitivity::new(5, 2, 2, 2));
        let delta = PopulationDelta::new().upsert(tall).remove(ProviderId(3));
        pop.apply_delta(&delta).unwrap();
        delta.apply_to_profiles(&mut profiles);
        assert!(
            pop.symbol_counts().0 > pop_na,
            "the delta interned an attribute"
        );
        kernel.reprepare(&pop);
        check(&kernel, &pop, &profiles, &mut bufs);
        // Fresh buffers agree with the reused ones.
        let fresh = kernel.audit_all(&pop, &mut Buffers::default());
        assert_eq!(fresh, kernel.audit_all(&pop, &mut bufs));
    }

    #[test]
    fn generation_counter_wraps_without_stale_stamps() {
        let profiles: Vec<ProviderProfile> = (0..2 * BLOCK as u64).map(profile).collect();
        let pop = CompiledPopulation::from_profiles(&profiles);
        let kernel = Kernel::new(&pop, vec![engine().compile_house()]);
        let reference = engine().run_reference(&profiles);
        let urows = pop.urows();
        let mut bufs = Buffers::default();
        // One block at generation 1: the even occurrences stamp the
        // `weight` lane at every even position.
        let first: Vec<u32> = urows[..BLOCK].to_vec();
        kernel.audit_rows(&pop, &first, &mut bufs);
        // The next walk starts at the last generation and wraps into its
        // second block, whose generation is 1 again. Both blocks hold only
        // odd occurrences, which state nothing: every position must read
        // the implicit ZERO, not a stamp left over from before the wrap.
        bufs.gen = u32::MAX - 1;
        let occs: Vec<usize> = (0..2 * BLOCK).map(|j| (2 * j + 1) % (2 * BLOCK)).collect();
        let rows: Vec<u32> = occs.iter().map(|&i| urows[i]).collect();
        let got = kernel.audit_rows(&pop, &rows, &mut bufs);
        assert_eq!(bufs.gen, 1, "the walk wrapped");
        for (&i, got) in occs.iter().zip(&got) {
            assert_eq!(*got, expected(&reference.providers[i]), "occurrence {i}");
        }
    }
}
