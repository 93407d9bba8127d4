//! Cache-blocked, width-specialized tabled kernels — the
//! [`KernelDispatch::Blocked`] inner loops.
//!
//! The scalar tabled kernels in [`crate::ops`] run one generic loop for every
//! alphabet: per (pattern, category, state) they re-match the child kind and
//! accumulate the matrix–vector product one term at a time through a single
//! running sum, with a bounds check on every CLV access. That shape is the
//! bit-for-bit reference — and it leaves most of the machine idle. This
//! module rewrites the two hot primitives per state width:
//!
//! * **4-wide DNA** ([`newview_step_blocked`] / [`evaluate_edge_blocked`]
//!   with `states == 4`): **one loop per child-kind pair** — (tip, tip),
//!   (tip, internal), (internal, tip), (internal, internal) — picked once
//!   per step or edge, so no (pattern, category) iteration matches on what a
//!   child is. A tip child reads its row straight from the tables' tip sums
//!   by its cached dictionary index. An internal child multiplies its CLV
//!   through a **column-major copy** of each category's 4×4 matrix, made
//!   once per step in a [`SliceBuffers`] scratch: broadcast `x[a]`, multiply
//!   the contiguous column into four lanes, add. Every lane accumulates over
//!   `a` ascending from `0.0` with a separate multiply and add — the scalar
//!   kernel's additions in the scalar kernel's order — so the DNA path
//!   agrees with the scalar dispatch **bit for bit** (asserted CLV entry by
//!   CLV entry by `tests/kernel_differential.rs`). The edge loop keeps the
//!   scalar kernel's `l == 0.0` skip, its `(freqs[s]·l)·r` order and its
//!   c-ascending site sum. A step whose right child carries another
//!   dictionary `Arc`, or whose tips hold a mask outside the dictionary,
//!   takes the scalar kernel instead.
//! * **20-wide protein** (`states == 20`): patterns are processed in
//!   **L1-sized tiles** ([`PROTEIN_TILE`] patterns): child kinds are resolved
//!   once per tile, then the category loop runs *outside* the tile's pattern
//!   loop so one pair of 20×20 transition matrices (3.2 KiB each) stays hot
//!   while the tile streams through it. Each 20×20 matrix–vector product is
//!   a **column-broadcast GEMV over the transposed matrix mirror**
//!   ([`BranchTables::pmat_t`]): broadcast one child entry `x[a]`, then
//!   fused-multiply-add a contiguous matrix column into 20 independent
//!   accumulators (five 4-wide SIMD lanes) — 100 packed FMAs and **zero
//!   horizontal reductions** per product, ten independent chains when both
//!   children are internal and the two products run fused. Every output
//!   state still sums its terms in the scalar kernel's `a`-ascending order;
//!   only the FMA contraction deviates, so the protein path agrees with the
//!   scalar dispatch to a documented tolerance (≤1e-12 in lnL) instead of
//!   bit for bit; tip-row and mask fallback paths perform identical
//!   arithmetic and remain exact.
//!
//! Both `newview` loops honour the step's repeat classes (see [`crate::ops`]
//! and [`crate::slice`]): they compute the representatives' columns as above
//! (the protein tiles hold representatives only), then the rest of each class
//! copies its representative's column and scale count, bit for bit.
//!
//! Any other state width falls back to the scalar tabled kernels, so the
//! blocked dispatch is total over all inputs. Scaling semantics (threshold,
//! factor, per-pattern event inheritance) are byte-identical to the scalar
//! path: the set of values compared against [`SCALE_THRESHOLD`] is the same,
//! and `max` is order-independent over that set.
//!
//! The reference path is kept honest by never being touched here: the scalar
//! kernels in [`crate::ops`] are the property-tested ground truth, and the
//! differential harness drives both dispatches over random datasets, extreme
//! branch lengths, ambiguity masks and scaling-threshold crossings.
//!
//! Only `newview` and `evaluate` are dispatched. The Newton half —
//! [`ops::build_sumtable`] and [`ops::derivatives_from_sumtable`] — has no
//! blocked counterpart because it needs none: each is one width-specialised
//! implementation that keeps the scalar loop's summation order (and so its
//! bits), and both dispatches call it. The dispatches differ downstream of
//! a sum table only through the CLVs it was built from.
//!
//! [`KernelDispatch::Blocked`]: crate::tables::KernelDispatch::Blocked

use phylo_models::PartitionModel;
use phylo_tree::{NodeId, TraversalStep};
use std::sync::Arc;

use crate::error::OpError;
use crate::ops::{
    self, check_buffer_dims, check_slice_shape, check_table_dims, child_data, tip_sum, CatChild,
    ChildData, ResolvedChild, SITE_LIKELIHOOD_FLOOR,
};
use crate::slice::{PartitionSlice, RepeatWalk, SliceBuffers, TIP_INDEX_NONE};
use crate::tables::BranchTables;
use crate::{LOG_SCALE_FACTOR, SCALE_FACTOR, SCALE_THRESHOLD};

/// Pattern-tile width of the 20-state kernels. One tile touches, per
/// category: two 20×20 transition matrices (2 × 3.2 KiB), the tile's child
/// and target CLV rows (≤ 3 × 32 × 160 B = 15 KiB) and the tip-lookup rows —
/// comfortably inside a 32 KiB L1d while large enough to amortize the
/// per-tile child resolution.
pub const PROTEIN_TILE: usize = 32;

/// State width handled by the per-child-kind-pair 4-state kernels.
pub const BLOCKED_DNA_STATES: usize = 4;

/// State width handled by the tiled 20-state kernels, the one consumer of
/// the column-major transition-matrix mirror [`BranchTables`] keeps for every
/// alphabet wider than DNA.
pub const BLOCKED_PROTEIN_STATES: usize = 20;

/// Resolves one tip child of `pattern`: cached dictionary index if the
/// per-slice tip-index cache covers this dictionary, raw mask fallback
/// otherwise. Mirrors the scalar kernels' hoisted per-pattern resolution.
#[inline]
fn resolve_tip<'a>(
    slice: &PartitionSlice,
    tip_idx: &[u32],
    pattern: usize,
    taxon: usize,
    cached: bool,
    tables: &'a BranchTables,
) -> ResolvedChild<'a> {
    let mask = slice.tip_state(pattern, taxon);
    let index = if cached {
        let mi = tip_idx[pattern * slice.n_taxa + taxon];
        (mi != TIP_INDEX_NONE).then_some(mi as usize)
    } else {
        tables.dict().index_of(mask)
    };
    match index {
        Some(mi) => ResolvedChild::Indexed(mi),
        None => ResolvedChild::Mask(mask),
    }
}

/// One child of a 4-state step or edge, its kind fixed for the whole call:
/// the DNA loops are instantiated once per child-kind pair, so no
/// (pattern, category) iteration matches on what a child is.
trait Child4 {
    /// The per-pattern part of the lookup, hoisted out of the category loop.
    fn at(&self, p: usize) -> usize;
    /// The child's vector over `s` of `Σ_a P_c[s][a]·x[a]` for category `c`
    /// of the pattern `at` came from; `base` is that (pattern, category)'s
    /// CLV offset.
    fn vector(&self, at: usize, c: usize, base: usize) -> [f64; 4];
}

/// A tip child: its row straight from the tables' tip sums, by the cached
/// dictionary index.
struct Tip4<'a> {
    index: &'a [u32],
    n_taxa: usize,
    taxon: usize,
    rows: &'a [f64],
    /// One category's rows: `n_masks · 4` entries.
    stride: usize,
}

impl Tip4<'_> {
    fn new<'a>(
        slice: &PartitionSlice,
        index: &'a [u32],
        taxon: NodeId,
        tables: &'a BranchTables,
    ) -> Tip4<'a> {
        Tip4 {
            index,
            n_taxa: slice.n_taxa,
            taxon,
            rows: tables.tip_rows(),
            stride: tables.dict().len() * BLOCKED_DNA_STATES,
        }
    }
}

impl Child4 for Tip4<'_> {
    #[inline(always)]
    fn at(&self, p: usize) -> usize {
        self.index[p * self.n_taxa + self.taxon] as usize * BLOCKED_DNA_STATES
    }

    #[inline(always)]
    fn vector(&self, at: usize, c: usize, _base: usize) -> [f64; 4] {
        let row = &self.rows[c * self.stride + at..][..4];
        [row[0], row[1], row[2], row[3]]
    }
}

/// An internal child: its CLV multiplied through the column-major copy of
/// each category's matrix.
struct Inner4<'a> {
    clv: &'a [f64],
    cols: &'a [[f64; 16]],
}

impl Child4 for Inner4<'_> {
    #[inline(always)]
    fn at(&self, _p: usize) -> usize {
        0
    }

    #[inline(always)]
    fn vector(&self, _at: usize, c: usize, base: usize) -> [f64; 4] {
        matvec4(&self.cols[c], &self.clv[base..base + 4])
    }
}

/// `out[s] = Σ_a P[s][a]·x[a]` over a column-major 4×4 matrix: broadcast
/// `x[a]`, multiply the contiguous column `a` into four lanes, add. Every
/// lane accumulates over `a` ascending from `0.0` with a separate multiply
/// and add — the scalar kernel's additions in the scalar kernel's order, so
/// the result is bit-identical to it, and the four lanes are one 256-bit
/// register.
#[inline(always)]
fn matvec4(cols: &[f64; 16], x: &[f64]) -> [f64; 4] {
    let mut out = [0.0f64; 4];
    for (col, &xa) in cols.chunks_exact(4).zip(&x[..4]) {
        for (o, &m) in out.iter_mut().zip(col) {
            *o += m * xa;
        }
    }
    out
}

/// Copies every category's 4×4 matrix of `tables` column-major into `cols`
/// (`cols[c][a·4 + s] = P_c[s][a]`): once per step, not per pattern.
fn transpose4(tables: &BranchTables, cols: &mut [[f64; 16]]) {
    for (c, col) in cols.iter_mut().enumerate() {
        for (s, row) in tables.pmat(c).chunks_exact(4).enumerate() {
            for (a, &p) in row.iter().enumerate() {
                col[a * 4 + s] = p;
            }
        }
    }
}

/// 20×20 column-broadcast matrix–vector product: `out[s] = Σ_a P[s][a]·x[a]`
/// over the **column-major** matrix mirror ([`BranchTables::pmat_t`]).
///
/// Each column iteration broadcasts one `x[a]` and fused-multiply-adds a
/// contiguous matrix column into 20 independent accumulators (five 4-wide
/// SIMD lanes) — no horizontal reductions anywhere, and each output state
/// sums its terms in the same `a`-ascending order as the scalar kernel. The
/// only deviation from the scalar dispatch is the FMA skipping the
/// intermediate rounding of `mul` + `add`, which the documented protein
/// tolerance covers.
#[inline(always)]
fn matvec20_t(pmat_t: &[f64], x: &[f64]) -> [f64; 20] {
    let mut out = [0.0f64; 20];
    for (xa, col) in x.iter().zip(pmat_t.chunks_exact(20)) {
        for (o, m) in out.iter_mut().zip(col) {
            *o = m.mul_add(*xa, *o);
        }
    }
    out
}

/// The per-(pattern, category) contribution vector of one child for the
/// 20-state alphabet: tip-lookup row copy, mask fallback, or the 20×20
/// matrix–vector product — column-broadcast over the transposed matrix when
/// the tables carry one ([`matvec20_t`]), otherwise a row-major form in 4
/// independent fused-multiply-add lanes (which re-associates the inner sum;
/// both deviations are covered by the documented protein tolerance).
#[inline(always)]
fn vec20(cat: &CatChild<'_>, pmat: &[f64], pmat_t: Option<&[f64]>, base: usize) -> [f64; 20] {
    let mut out = [0.0f64; 20];
    match cat {
        CatChild::Row(row) => out.copy_from_slice(&row[..20]),
        CatChild::Mask(mask) => {
            for (row, o) in pmat.chunks_exact(20).zip(out.iter_mut()) {
                *o = tip_sum(row, *mask);
            }
        }
        CatChild::Clv(child) => {
            let x = &child[base..base + 20];
            if let Some(t) = pmat_t {
                out = matvec20_t(t, x);
            } else {
                for (row, o) in pmat.chunks_exact(20).zip(out.iter_mut()) {
                    let mut a0 = 0.0f64;
                    let mut a1 = 0.0f64;
                    let mut a2 = 0.0f64;
                    let mut a3 = 0.0f64;
                    for (rc, xc) in row.chunks_exact(4).zip(x.chunks_exact(4)) {
                        a0 = rc[0].mul_add(xc[0], a0);
                        a1 = rc[1].mul_add(xc[1], a1);
                        a2 = rc[2].mul_add(xc[2], a2);
                        a3 = rc[3].mul_add(xc[3], a3);
                    }
                    *o = (a0 + a1) + (a2 + a3);
                }
            }
        }
    }
    out
}

/// Fused per-(pattern, category) update of one 20-state CLV block: both
/// children's contributions in a single pass over the output states, written
/// directly into `out`, returning the running maximum for the scaling check.
///
/// When both children are internal CLVs and the tables carry transposed
/// matrices, the two column-broadcast products run interleaved: each column
/// iteration issues fused-multiply-adds into **ten independent 4-wide
/// accumulator lanes** (five per child). A single column walk is
/// latency-bound on its five accumulator chains; interleaving both children
/// doubles the in-flight chains and turns the loop throughput-bound. Mixed
/// tip/CLV pairs fall back to the per-child vectors (the tip side is a
/// table-row copy).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn fused20(
    lcat: &CatChild<'_>,
    rcat: &CatChild<'_>,
    lp: &[f64],
    rp: &[f64],
    lpt: Option<&[f64]>,
    rpt: Option<&[f64]>,
    base: usize,
    out: &mut [f64],
    mut max_entry: f64,
) -> f64 {
    if let (CatChild::Clv(lchild), CatChild::Clv(rchild), Some(lt), Some(rt)) =
        (lcat, rcat, lpt, rpt)
    {
        let xl = &lchild[base..base + 20];
        let xr = &rchild[base..base + 20];
        let mut l = [0.0f64; 20];
        let mut r = [0.0f64; 20];
        for ((xla, lcol), (xra, rcol)) in xl
            .iter()
            .zip(lt.chunks_exact(20))
            .zip(xr.iter().zip(rt.chunks_exact(20)))
        {
            for (o, m) in l.iter_mut().zip(lcol) {
                *o = m.mul_add(*xla, *o);
            }
            for (o, m) in r.iter_mut().zip(rcol) {
                *o = m.mul_add(*xra, *o);
            }
        }
        for ((o, &lv), &rv) in out.iter_mut().zip(l.iter()).zip(r.iter()) {
            let value = lv * rv;
            *o = value;
            max_entry = max_entry.max(value);
        }
    } else {
        let l = vec20(lcat, lp, lpt, base);
        let r = vec20(rcat, rp, rpt, base);
        for ((o, &lv), &rv) in out.iter_mut().zip(l.iter()).zip(r.iter()) {
            let value = lv * rv;
            *o = value;
            max_entry = max_entry.max(value);
        }
    }
    max_entry
}

/// The blocked counterpart of [`ops::newview_step_tabled`]: recomputes the
/// CLV of `step.node` with the width-specialized inner loops (4-wide DNA one
/// loop per child-kind pair, 20-wide protein tiled). State widths other than
/// 4 and 20 fall back to the scalar tabled kernel.
///
/// DNA results are bit-identical to the scalar dispatch; protein results
/// agree within the documented tolerance (the column-broadcast products fuse
/// their multiply–adds). Scaling events and their inheritance are identical
/// under both dispatches.
///
/// # Errors
///
/// Exactly the scalar kernel's contract: [`OpError::SliceShape`] /
/// [`OpError::TableDims`] / [`OpError::BufferDims`] for mismatched shapes,
/// [`OpError::ClvMissing`] / [`OpError::ScaleMissing`] for absent children.
pub fn newview_step_blocked(
    slice: &PartitionSlice,
    buffers: &mut SliceBuffers,
    step: &TraversalStep,
    left_tables: &BranchTables,
    right_tables: &BranchTables,
) -> Result<(), OpError> {
    let states = slice.states();
    if states != BLOCKED_DNA_STATES && states != BLOCKED_PROTEIN_STATES {
        return ops::newview_step_tabled(slice, buffers, step, left_tables, right_tables);
    }
    let patterns = slice.pattern_count();
    check_slice_shape(slice, buffers)?;
    check_table_dims(slice, buffers, left_tables)?;
    check_table_dims(slice, buffers, right_tables)?;
    let categories = left_tables.categories();
    check_buffer_dims(slice, buffers, states, categories)?;

    // Same per-slice tip-index cache warm-up as the scalar kernel (the cache
    // is keyed on the dictionary's Arc identity and shared between the
    // dispatches).
    let left_is_tip = step.left < slice.n_taxa;
    let right_is_tip = step.right < slice.n_taxa;
    let right_cached = Arc::ptr_eq(left_tables.dict_arc(), right_tables.dict_arc());
    if states == BLOCKED_DNA_STATES {
        // The DNA loop reads every tip row by cached index: a right child
        // keyed by another dictionary, or a mask outside it, takes the
        // scalar kernel (which warms the same cache the same way).
        if !right_cached {
            return ops::newview_step_tabled(slice, buffers, step, left_tables, right_tables);
        }
        if left_is_tip || right_is_tip {
            buffers.tip_indices(slice, left_tables.dict_arc());
            if buffers.cached_tips_outside_dictionary() {
                return ops::newview_step_tabled(slice, buffers, step, left_tables, right_tables);
            }
        }
        return newview_dna(slice, buffers, step, left_tables, right_tables);
    }
    if left_is_tip || (right_is_tip && right_cached) {
        buffers.tip_indices(slice, left_tables.dict_arc());
    }

    child_data(slice, buffers, step.left)?;
    child_data(slice, buffers, step.right)?;
    buffers.prepare_repeats(slice, step);

    let (mut clv, mut scale) = buffers.take_node(step.node);
    clv.resize(patterns * categories * states, 0.0);
    scale.resize(patterns, 0);

    {
        let tip_idx = buffers.cached_tip_indices();
        let walk = buffers.repeat_walk();
        let left = child_data(slice, buffers, step.left)?;
        let right = child_data(slice, buffers, step.right)?;
        let resolve = |p: usize| {
            let left_res = match &left {
                ChildData::Tip(t) => resolve_tip(slice, tip_idx, p, *t, true, left_tables),
                ChildData::Internal { clv: child, .. } => ResolvedChild::Clv(child),
            };
            let right_res = match &right {
                ChildData::Tip(t) => resolve_tip(slice, tip_idx, p, *t, right_cached, right_tables),
                ChildData::Internal { clv: child, .. } => ResolvedChild::Clv(child),
            };
            (left_res, right_res)
        };

        // Resolve a tile of patterns once, then run the category loop
        // outside the tile so each category's transition matrices stay
        // L1-resident while the tile streams through.
        let mut resolved: Vec<(ResolvedChild<'_>, ResolvedChild<'_>)> =
            Vec::with_capacity(PROTEIN_TILE);
        for tile in walk.computed.chunks(PROTEIN_TILE) {
            resolved.clear();
            for &p in tile {
                // lint:allow(L007): push into the tile buffer preallocated with
                // PROTEIN_TILE capacity above; a tile holds <= PROTEIN_TILE patterns, never reallocates.
                resolved.push(resolve(p as usize));
            }
            for (&p, (left_res, right_res)) in tile.iter().zip(&resolved) {
                let p = p as usize;
                let mut max_entry = 0.0f64;
                for c in 0..categories {
                    let base = (p * categories + c) * 20;
                    max_entry = fused20(
                        &left_res.at_category(left_tables, c),
                        &right_res.at_category(right_tables, c),
                        left_tables.pmat(c),
                        right_tables.pmat(c),
                        left_tables.pmat_t(c),
                        right_tables.pmat_t(c),
                        base,
                        &mut clv[base..base + 20],
                        max_entry,
                    );
                }
                scale[p] = finish_pattern(&mut clv, &left, &right, p, categories * 20, max_entry);
            }
        }
        walk.copy(&mut clv, &mut scale, categories * 20);
    }

    let mut cached_lookups = 0u64;
    if left_is_tip {
        cached_lookups += patterns as u64;
    }
    if right_is_tip && right_cached {
        cached_lookups += patterns as u64;
    }
    if cached_lookups > 0 {
        buffers.count_tip_hits(cached_lookups);
    }

    buffers.put_back_step(step.node, clv, scale)
}

/// The 4-state step once [`newview_step_blocked`] has checked the shapes and
/// built the tip-index cache for every tip child: both children's matrices
/// are copied column-major into the buffers' scratch, then the loop of the
/// step's child-kind pair runs.
fn newview_dna(
    slice: &PartitionSlice,
    buffers: &mut SliceBuffers,
    step: &TraversalStep,
    left_tables: &BranchTables,
    right_tables: &BranchTables,
) -> Result<(), OpError> {
    let patterns = slice.pattern_count();
    let categories = left_tables.categories();
    child_data(slice, buffers, step.left)?;
    child_data(slice, buffers, step.right)?;
    buffers.prepare_repeats(slice, step);

    let (mut clv, mut scale) = buffers.take_node(step.node);
    clv.resize(patterns * categories * BLOCKED_DNA_STATES, 0.0);
    scale.resize(patterns, 0);
    let (left_cols, right_cols) = buffers
        .dna_columns_mut(2 * categories)
        .split_at_mut(categories);
    transpose4(left_tables, left_cols);
    transpose4(right_tables, right_cols);

    {
        let (left_cols, right_cols) = buffers.dna_columns().split_at(categories);
        let index = buffers.cached_tip_indices();
        let target = (buffers.repeat_walk(), &mut clv[..], &mut scale[..]);
        let left = child_data(slice, buffers, step.left)?;
        let right = child_data(slice, buffers, step.right)?;
        let tip = |taxon, tables| Tip4::new(slice, index, taxon, tables);
        let inner = |clv, cols| Inner4 { clv, cols };
        let (l, r) = (&left, &right);
        match (l, r) {
            (ChildData::Tip(lt), ChildData::Tip(rt)) => {
                let (lc, rc) = (tip(*lt, left_tables), tip(*rt, right_tables));
                newview4((&lc, l), (&rc, r), categories, target)
            }
            (ChildData::Tip(lt), ChildData::Internal { clv: rx, .. }) => {
                let (lc, rc) = (tip(*lt, left_tables), inner(rx, right_cols));
                newview4((&lc, l), (&rc, r), categories, target)
            }
            (ChildData::Internal { clv: lx, .. }, ChildData::Tip(rt)) => {
                let (lc, rc) = (inner(lx, left_cols), tip(*rt, right_tables));
                newview4((&lc, l), (&rc, r), categories, target)
            }
            (ChildData::Internal { clv: lx, .. }, ChildData::Internal { clv: rx, .. }) => {
                let (lc, rc) = (inner(lx, left_cols), inner(rx, right_cols));
                newview4((&lc, l), (&rc, r), categories, target)
            }
        }
    }
    let tip_children = [step.left, step.right]
        .iter()
        .filter(|&&child| child < slice.n_taxa)
        .count();
    buffers.count_tip_hits((tip_children * patterns) as u64);
    buffers.put_back_step(step.node, clv, scale)
}

/// The step loop of one child-kind pair: per pattern and category, the two
/// children's vectors multiplied lane by lane, then the scalar kernel's
/// scaling epilogue (`left_data`/`right_data` carry the children's scale
/// counters) — or, for a pattern that is not its class's representative,
/// the representative's column and scale count copied.
fn newview4<L: Child4, R: Child4>(
    (left, left_data): (&L, &ChildData<'_>),
    (right, right_data): (&R, &ChildData<'_>),
    categories: usize,
    (walk, clv, scale): (RepeatWalk<'_>, &mut [f64], &mut [i32]),
) {
    for p in walk.computed.iter().map(|&p| p as usize) {
        let (l_at, r_at) = (left.at(p), right.at(p));
        let mut max_entry = 0.0f64;
        for c in 0..categories {
            let base = (p * categories + c) * 4;
            let l = left.vector(l_at, c, base);
            let r = right.vector(r_at, c, base);
            for ((o, lv), rv) in clv[base..base + 4].iter_mut().zip(l).zip(r) {
                let value = lv * rv;
                *o = value;
                if value > max_entry {
                    max_entry = value;
                }
            }
        }
        scale[p] = finish_pattern(clv, left_data, right_data, p, categories * 4, max_entry);
    }
    walk.copy(clv, scale, categories * 4);
}

/// Scale-event epilogue of one pattern: inherit the children's events, then
/// rescale the pattern block when every entry underflowed the threshold.
/// Identical logic (and identical arithmetic) to the scalar kernel.
#[inline]
fn finish_pattern(
    clv: &mut [f64],
    left: &ChildData<'_>,
    right: &ChildData<'_>,
    p: usize,
    block: usize,
    max_entry: f64,
) -> i32 {
    let mut events = 0;
    if let ChildData::Internal { scale: s, .. } = left {
        events += s[p];
    }
    if let ChildData::Internal { scale: s, .. } = right {
        events += s[p];
    }
    if max_entry < SCALE_THRESHOLD && max_entry > 0.0 {
        let base = p * block;
        for v in &mut clv[base..base + block] {
            *v *= SCALE_FACTOR;
        }
        events += 1;
    }
    events
}

/// The blocked counterpart of [`ops::evaluate_edge_tabled`]: evaluates the
/// weighted log likelihood at a virtual root with the width-specialized
/// inner loops. State widths other than 4 and 20 fall back to the scalar
/// tabled kernel.
///
/// The DNA path preserves the scalar kernel's per-state skip of zero left
/// values and its accumulation order, so it is bit-identical to the scalar
/// dispatch. The protein path is bit-identical except when the right child
/// is an internal node (the 4-lane inner product re-associates); the
/// documented lnL tolerance covers that case.
///
/// # Errors
///
/// Exactly the scalar kernel's contract ([`OpError::SliceShape`],
/// [`OpError::TableDims`], [`OpError::ClvMissing`] /
/// [`OpError::ScaleMissing`]).
pub fn evaluate_edge_blocked(
    slice: &PartitionSlice,
    buffers: &mut SliceBuffers,
    model: &PartitionModel,
    left: NodeId,
    right: NodeId,
    tables: &BranchTables,
) -> Result<f64, OpError> {
    let states = slice.states();
    if states != BLOCKED_DNA_STATES && states != BLOCKED_PROTEIN_STATES {
        return ops::evaluate_edge_tabled(slice, buffers, model, left, right, tables);
    }
    let patterns = slice.pattern_count();
    check_slice_shape(slice, buffers)?;
    check_table_dims(slice, buffers, tables)?;
    let categories = tables.categories();
    let freqs = model.substitution().frequencies();
    let inv_categories = 1.0 / categories as f64;

    let right_is_tip = right < slice.n_taxa;
    if right_is_tip {
        buffers.tip_indices(slice, tables.dict_arc());
    }
    if states == BLOCKED_DNA_STATES {
        // As in `newview_step_blocked`: the DNA loop reads a right tip's
        // rows by cached index, a mask outside the dictionary goes scalar.
        if right_is_tip && buffers.cached_tips_outside_dictionary() {
            return ops::evaluate_edge_tabled(slice, buffers, model, left, right, tables);
        }
        return evaluate_dna(slice, buffers, model, left, right, tables);
    }
    let buffers = &*buffers;
    let tip_idx = buffers.cached_tip_indices();

    let left_data = child_data(slice, buffers, left)?;
    let right_data = child_data(slice, buffers, right)?;
    let resolve = |p: usize| match &right_data {
        ChildData::Tip(t) => resolve_tip(slice, tip_idx, p, *t, true, tables),
        ChildData::Internal { clv, .. } => ResolvedChild::Clv(clv),
    };

    // Per-category site contribution of one pattern: the scalar kernel's
    // s-loop with its `l_val == 0.0` skip and its `(freqs[s] · l_val) ·
    // inner` multiplication order, reading the precomputed right-child
    // vector.
    #[inline(always)]
    fn cat_sum(
        left_data: &ChildData<'_>,
        slice: &PartitionSlice,
        freqs: &[f64],
        r: &[f64],
        p: usize,
        base: usize,
    ) -> f64 {
        let mut sum = 0.0;
        match left_data {
            ChildData::Tip(t) => {
                let mask = slice.tip_state(p, *t);
                for (s, &rs) in r.iter().enumerate() {
                    if mask & (1 << s) != 0 {
                        sum += freqs[s] * 1.0 * rs;
                    }
                }
            }
            ChildData::Internal { clv, .. } => {
                let l = &clv[base..base + r.len()];
                for (s, &rs) in r.iter().enumerate() {
                    let l_val = l[s];
                    if l_val == 0.0 {
                        continue;
                    }
                    sum += freqs[s] * l_val * rs;
                }
            }
        }
        sum
    }

    // Tile the pattern loop with the category loop outside, so one 20×20
    // transition matrix stays hot per tile sweep. Per-pattern category
    // contributions accumulate in c-ascending order, matching the scalar
    // kernel's summation order for `site`.
    let mut total = 0.0;
    let mut resolved: Vec<ResolvedChild<'_>> = Vec::with_capacity(PROTEIN_TILE);
    let mut tile_start = 0;
    while tile_start < patterns {
        let tile_len = PROTEIN_TILE.min(patterns - tile_start);
        resolved.clear();
        for p in tile_start..tile_start + tile_len {
            // lint:allow(L007): push into the tile buffer preallocated with
            // PROTEIN_TILE capacity above; tile_len <= PROTEIN_TILE, never reallocates.
            resolved.push(resolve(p));
        }
        let mut sites = [0.0f64; PROTEIN_TILE];
        for c in 0..categories {
            let pm = tables.pmat(c);
            for (ti, right_res) in resolved.iter().enumerate() {
                let p = tile_start + ti;
                let base = (p * categories + c) * 20;
                let r = vec20(
                    &right_res.at_category(tables, c),
                    pm,
                    tables.pmat_t(c),
                    base,
                );
                sites[ti] += cat_sum(&left_data, slice, freqs, &r, p, base) * inv_categories;
            }
        }
        for (ti, &site) in sites.iter().take(tile_len).enumerate() {
            let p = tile_start + ti;
            total += slice.weights[p] * ln_site(&left_data, &right_data, p, site);
        }
        tile_start += tile_len;
    }
    if right_is_tip {
        buffers.count_tip_hits(patterns as u64);
    }
    Ok(total)
}

/// The 4-state edge evaluation once [`evaluate_edge_blocked`] has checked
/// the shapes and built the tip-index cache for a right tip: the matrices
/// are copied column-major into the buffers' scratch, then the loop of the
/// edge's child-kind pair runs.
fn evaluate_dna(
    slice: &PartitionSlice,
    buffers: &mut SliceBuffers,
    model: &PartitionModel,
    left: NodeId,
    right: NodeId,
    tables: &BranchTables,
) -> Result<f64, OpError> {
    let categories = tables.categories();
    transpose4(tables, buffers.dna_columns_mut(categories));
    let buffers = &*buffers;
    let (l, r) = (
        child_data(slice, buffers, left)?,
        child_data(slice, buffers, right)?,
    );
    let f = model.substitution().frequencies();
    let freqs = [f[0], f[1], f[2], f[3]];
    let index = buffers.cached_tip_indices();
    let tip = |taxon| Tip4::new(slice, index, taxon, tables);
    let inner = |clv| Inner4 {
        clv,
        cols: buffers.dna_columns(),
    };
    let mask = |taxon| TipMask4 { slice, taxon };
    let edge = (slice, &freqs, categories);
    let total = match (&l, &r) {
        (ChildData::Tip(lt), ChildData::Tip(rt)) => {
            evaluate4((&mask(*lt), &l), (&tip(*rt), &r), edge)
        }
        (ChildData::Tip(lt), ChildData::Internal { clv: rx, .. }) => {
            evaluate4((&mask(*lt), &l), (&inner(rx), &r), edge)
        }
        (ChildData::Internal { clv: lx, .. }, ChildData::Tip(rt)) => {
            evaluate4((&Clv4(lx), &l), (&tip(*rt), &r), edge)
        }
        (ChildData::Internal { clv: lx, .. }, ChildData::Internal { clv: rx, .. }) => {
            evaluate4((&Clv4(lx), &l), (&inner(rx), &r), edge)
        }
    };
    if let ChildData::Tip(_) = r {
        buffers.count_tip_hits(slice.pattern_count() as u64);
    }
    Ok(total)
}

/// The left side of a 4-state edge evaluation, its kind fixed per call like
/// a [`Child4`].
trait Left4 {
    /// One category's `Σ_s (freqs[s]·l[s])·r[s]` for pattern `p`, s
    /// ascending from `0.0`, skipping every state whose left value is `0.0`
    /// — the scalar kernel's terms in its order; `base` is the (pattern,
    /// category)'s CLV offset.
    fn weigh(&self, p: usize, base: usize, freqs: &[f64; 4], r: &[f64; 4]) -> f64;
}

/// A left tip: its value is `1.0` on the mask's states and `0.0` elsewhere.
struct TipMask4<'a> {
    slice: &'a PartitionSlice,
    taxon: NodeId,
}

impl Left4 for TipMask4<'_> {
    #[inline(always)]
    fn weigh(&self, p: usize, _base: usize, freqs: &[f64; 4], r: &[f64; 4]) -> f64 {
        let mask = self.slice.tip_state(p, self.taxon);
        let mut sum = 0.0;
        for (s, (&f, &rs)) in freqs.iter().zip(r).enumerate() {
            if mask & (1 << s) != 0 {
                sum += f * 1.0 * rs;
            }
        }
        sum
    }
}

/// A left internal child: its CLV entries.
struct Clv4<'a>(&'a [f64]);

impl Left4 for Clv4<'_> {
    #[inline(always)]
    fn weigh(&self, _p: usize, base: usize, freqs: &[f64; 4], r: &[f64; 4]) -> f64 {
        let mut sum = 0.0;
        for ((&l, &f), &rs) in self.0[base..base + 4].iter().zip(freqs).zip(r) {
            if l == 0.0 {
                continue;
            }
            sum += f * l * rs;
        }
        sum
    }
}

/// The edge loop of one child-kind pair: per pattern, the categories'
/// weighted sums added c ascending into `site`, then the floored logarithm
/// with the inherited scaling events (`left_data`/`right_data` carry the
/// children's scale counters).
fn evaluate4<L: Left4, R: Child4>(
    (left, left_data): (&L, &ChildData<'_>),
    (right, right_data): (&R, &ChildData<'_>),
    (slice, freqs, categories): (&PartitionSlice, &[f64; 4], usize),
) -> f64 {
    let inv_categories = 1.0 / categories as f64;
    let mut total = 0.0;
    for (p, &weight) in slice.weights.iter().enumerate() {
        let r_at = right.at(p);
        let mut site = 0.0;
        for c in 0..categories {
            let base = (p * categories + c) * 4;
            let r = right.vector(r_at, c, base);
            site += left.weigh(p, base, freqs, &r) * inv_categories;
        }
        total += weight * ln_site(left_data, right_data, p, site);
    }
    total
}

/// Floored per-site log likelihood with inherited scaling events — identical
/// to the scalar kernel's epilogue.
#[inline]
fn ln_site(left_data: &ChildData<'_>, right_data: &ChildData<'_>, p: usize, site: f64) -> f64 {
    let mut events = 0;
    if let ChildData::Internal { scale, .. } = left_data {
        events += scale[p];
    }
    if let ChildData::Internal { scale, .. } = right_data {
        events += scale[p];
    }
    site.max(SITE_LIKELIHOOD_FLOOR).ln() - events as f64 * LOG_SCALE_FACTOR
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{
        build_sumtable, derivatives_from_sumtable, evaluate_edge_tabled, newview_step_tabled,
    };
    use crate::slice::{SliceBuffers, WorkerSlices};
    use crate::tables::MaskDictionary;
    use phylo_data::{Alignment, DataType, PartitionSet, PartitionedPatterns};
    use phylo_models::{BranchLengthMode, ModelSet};
    use phylo_tree::{TraversalPlan, Tree};

    const AMINO: &[u8] = b"ARNDCQEGHILKMFPSTWYV";

    /// Deep protein caterpillar whose alignment compresses to more distinct
    /// patterns than one blocked tile holds. Column 0 is all-gap — its tip
    /// masks resolve to the all-ones vector, so its CLV entries stay exactly
    /// 1.0 at every depth and it can never cross [`SCALE_THRESHOLD`]; the
    /// remaining columns are pseudo-random and decay towards the threshold
    /// with every cherry join. That puts scaled and unscaled patterns side by
    /// side *inside the first tile*, which is exactly the edge the tiled
    /// scaling epilogue has to get right.
    fn deep_protein(n_taxa: usize, columns: usize, branch: f64) -> (PartitionedPatterns, Tree) {
        let names: Vec<String> = (0..n_taxa).map(|i| format!("t{i}")).collect();
        let rows: Vec<(String, String)> = names
            .iter()
            .enumerate()
            .map(|(i, name)| {
                let seq: String = (0..columns)
                    .map(|j| {
                        if j == 0 {
                            '-'
                        } else {
                            // splitmix64-style mixing: plain modular formulas
                            // in i and j are periodic mod 20 and collapse the
                            // columns to a handful of patterns.
                            let mut h = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                                ^ (j as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
                            h ^= h >> 29;
                            h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
                            h ^= h >> 32;
                            AMINO[(h % 20) as usize] as char
                        }
                    })
                    .collect();
                (name.clone(), seq)
            })
            .collect();
        let aln = Alignment::new(rows).unwrap();
        let ps = PartitionSet::unpartitioned(DataType::Protein, columns);
        let pp = PartitionedPatterns::compile(&aln, &ps).unwrap();
        let order: Vec<usize> = (0..n_taxa).collect();
        // Insert every new taxon on the most recent pendant branch: a chain
        // of depth ≈ n_taxa, the worst case for CLV underflow.
        let mut tree = Tree::stepwise(names, &order, |b| b - 1);
        for b in tree.branches().collect::<Vec<_>>() {
            tree.set_branch_length(b, branch);
        }
        (pp, tree)
    }

    /// A caterpillar of `n_taxa` tips over `columns` pseudo-random columns
    /// drawn from the first `letters` characters of `alphabet` (plus a gap):
    /// a small draw makes subtree columns repeat.
    fn small_alphabet(
        data_type: DataType,
        alphabet: &[u8],
        letters: u64,
        n_taxa: usize,
        columns: usize,
    ) -> (PartitionedPatterns, Tree) {
        let names: Vec<String> = (0..n_taxa).map(|i| format!("t{i}")).collect();
        let rows = names.iter().enumerate().map(|(i, name)| {
            let seq = (0..columns).map(|j| {
                let mut h = (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    ^ (j as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
                h ^= h >> 31;
                h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9) >> 32;
                match h % (letters + 1) {
                    0 => '-',
                    k => alphabet[k as usize - 1] as char,
                }
            });
            (name.clone(), seq.collect())
        });
        let aln = Alignment::new(rows.collect()).unwrap();
        let ps = PartitionSet::unpartitioned(data_type, columns);
        let pp = PartitionedPatterns::compile(&aln, &ps).unwrap();
        let order: Vec<usize> = (0..n_taxa).collect();
        let tree = Tree::stepwise(names, &order, |b| b / 2);
        (pp, tree)
    }

    #[test]
    fn repeat_aware_steps_equal_every_pattern_its_own_class_bit_for_bit() {
        // Both widths, both dispatches, every root: the loops that copy a
        // representative's column write the bits of the loops that compute
        // every column, and do copy some.
        for (data_type, alphabet, letters) in [
            (DataType::Dna, &b"ACGT"[..], 3),
            (DataType::Protein, AMINO, 4),
        ] {
            let (pp, tree) = small_alphabet(data_type, alphabet, letters, 9, 80);
            let (mut repeats, models) = setup(&pp, &tree, 4);
            let (mut each, _) = setup(&pp, &tree, 4);
            each.buffers[0].each_pattern_its_own_class();
            let dict = Arc::new(MaskDictionary::for_partition(
                data_type,
                &pp.partitions[0].tip_states,
            ));
            let model = models.model(0);
            let slice = &repeats.slices[0];
            let tables = |b| BranchTables::build(model, &dict, tree.branch_length(b)).unwrap();
            for root in tree.branches() {
                for step in &TraversalPlan::full(&tree, root).steps {
                    let (left, right) = (tables(step.left_branch), tables(step.right_branch));
                    for blocked in [false, true] {
                        let step_on = |buffers: &mut SliceBuffers| match blocked {
                            true => newview_step_blocked(slice, buffers, step, &left, &right),
                            false => newview_step_tabled(slice, buffers, step, &left, &right),
                        };
                        step_on(&mut repeats.buffers[0]).unwrap();
                        step_on(&mut each.buffers[0]).unwrap();
                        let bits = |b: &SliceBuffers| {
                            let clv = b.clv(step.node).unwrap().iter().map(|v| v.to_bits());
                            (clv.collect::<Vec<_>>(), b.scale(step.node).unwrap().clone())
                        };
                        assert!(
                            bits(&repeats.buffers[0]) == bits(&each.buffers[0]),
                            "{data_type:?}, blocked {blocked}, root {root}, node {}",
                            step.node
                        );
                    }
                }
            }
            let (computed, copied) = repeats.buffers[0].take_repeat_counters();
            assert!(copied > 0, "{data_type:?}: the fixture must repeat columns");
            assert_eq!(
                each.buffers[0].take_repeat_counters(),
                (computed + copied, 0)
            );
        }
    }

    fn setup(pp: &PartitionedPatterns, tree: &Tree, categories: usize) -> (WorkerSlices, ModelSet) {
        let models = ModelSet::with_categories(pp, BranchLengthMode::Joint, categories);
        let cats: Vec<usize> = models.models().iter().map(|m| m.categories()).collect();
        let ws = WorkerSlices::cyclic(pp, 0, 1, tree.node_capacity(), &cats);
        (ws, models)
    }

    #[test]
    fn scaling_threshold_crossings_inside_a_blocked_tile_match_the_scalar_path() {
        // More distinct patterns than one tile, a chain deep enough that the
        // random patterns rescale many times, and a guaranteed never-scaling
        // all-gap pattern sharing the first tile with them.
        let (pp, tree) = deep_protein(120, 48, 4.0);
        assert!(
            pp.partitions[0].pattern_count() > PROTEIN_TILE,
            "fixture must span more than one tile, got {} patterns",
            pp.partitions[0].pattern_count()
        );
        let (mut ws_tab, models) = setup(&pp, &tree, 2);
        let (mut ws_blk, _) = setup(&pp, &tree, 2);
        let model = models.model(0);
        let dict = Arc::new(MaskDictionary::for_partition(
            pp.partitions[0].data_type,
            &pp.partitions[0].tip_states,
        ));
        // Every branch of the tree has the same length, hence the same tables.
        let tables = BranchTables::build(model, &dict, 4.0).unwrap();

        let root_branch = 0;
        let plan = TraversalPlan::full(&tree, root_branch);
        for step in &plan.steps {
            let (tab, blk) = (&mut ws_tab.buffers[0], &mut ws_blk.buffers[0]);
            newview_step_tabled(&ws_tab.slices[0], tab, step, &tables, &tables).unwrap();
            newview_step_blocked(&ws_blk.slices[0], blk, step, &tables, &tables).unwrap();
            // Scaling decisions are *identical*, not just equivalent: the
            // blocked tile compares the same set of values against the same
            // threshold, so the event counts must match element for element
            // even when a pattern crosses the threshold mid-tile.
            assert_eq!(
                ws_tab.buffers[0].scale(step.node),
                ws_blk.buffers[0].scale(step.node),
                "scale events diverged at node {}",
                step.node
            );
            let reference = ws_tab.buffers[0].clv(step.node).unwrap();
            let blocked = ws_blk.buffers[0].clv(step.node).unwrap();
            assert_eq!(reference.len(), blocked.len());
            for (i, (&a, &b)) in reference.iter().zip(blocked.iter()).enumerate() {
                let tol = 1e-9 * a.abs().max(b.abs()).max(1e-300);
                assert!(
                    (a - b).abs() <= tol,
                    "CLV entry {i} at node {} diverged: {a} vs {b}",
                    step.node
                );
            }
        }

        // The deepest internal node has seen every join: its scale row must
        // mix zero events (the all-gap pattern) with many events (the random
        // patterns) inside the first tile.
        let root_node = plan.steps.last().unwrap().node;
        let scale = ws_blk.buffers[0].scale(root_node).unwrap();
        let tile = &scale[..PROTEIN_TILE];
        assert_eq!(tile[0], 0, "the all-gap pattern must never rescale");
        let max_events = *tile.iter().max().unwrap();
        assert!(
            max_events > 0,
            "the random patterns must cross the threshold at least once"
        );

        // And the two dispatches agree on the resulting likelihood.
        let (a, b) = tree.branch_endpoints(root_branch);
        let reference = evaluate_edge_tabled(
            &ws_tab.slices[0],
            &mut ws_tab.buffers[0],
            model,
            a,
            b,
            &tables,
        )
        .unwrap();
        let blocked = evaluate_edge_blocked(
            &ws_blk.slices[0],
            &mut ws_blk.buffers[0],
            model,
            a,
            b,
            &tables,
        )
        .unwrap();
        assert!(reference.is_finite());
        assert!(
            (reference - blocked).abs() <= 1e-12 * reference.abs(),
            "lnL diverged: {reference} vs {blocked}"
        );
    }

    #[test]
    fn derivative_floor_clamp_holds_on_blocked_clvs() {
        // The PR-5 regression on the blocked path: CLVs produced by the
        // blocked kernel feed `build_sumtable`, and a site whose likelihood
        // underflows to the floor must contribute clamped (zero) derivative
        // ratios instead of `f1 / 1e-300` explosions. First the honest
        // variant — a saturated deep chain probed across the entire branch
        // length range must keep Newton's inputs finite — then the exact
        // clamp on a hand-floored table.
        let (pp, tree) = deep_protein(120, 48, 4.0);
        let (mut ws, models) = setup(&pp, &tree, 2);
        let model = models.model(0);
        let dict = Arc::new(MaskDictionary::for_partition(
            pp.partitions[0].data_type,
            &pp.partitions[0].tip_states,
        ));
        let tables = BranchTables::build(model, &dict, 4.0).unwrap();
        let root_branch = 0;
        for step in &TraversalPlan::full(&tree, root_branch).steps {
            newview_step_blocked(&ws.slices[0], &mut ws.buffers[0], step, &tables, &tables)
                .unwrap();
        }
        let (a, b) = tree.branch_endpoints(root_branch);
        build_sumtable(&ws.slices[0], &mut ws.buffers[0], model, a, b).unwrap();

        for t in [phylo_tree::topology::MIN_BRANCH_LENGTH, 1e-4, 0.3, 10.0] {
            let d = derivatives_from_sumtable(&ws.slices[0], &ws.buffers[0], model, t).unwrap();
            assert!(
                d.log_likelihood.is_finite() && d.first.is_finite() && d.second.is_finite(),
                "non-finite derivatives at t = {t}: {d:?}"
            );
        }

        // Force every site onto the floor: the clamp must zero the ratios
        // exactly, never feed Newton a floored division.
        {
            let (table, _) = ws.buffers[0].sumtable_mut();
            for v in table.iter_mut() {
                *v = 0.0;
            }
        }
        let d = derivatives_from_sumtable(&ws.slices[0], &ws.buffers[0], model, 0.3).unwrap();
        assert!(d.log_likelihood.is_finite());
        assert!(d.log_likelihood < -100.0, "floored sites are very bad");
        assert_eq!(d.first, 0.0, "floored sites must not push Newton");
        assert_eq!(d.second, 0.0);
    }
}
