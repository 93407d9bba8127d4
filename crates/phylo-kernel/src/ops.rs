//! The numerical core of the likelihood kernel.
//!
//! All functions here operate on a *slice* (one worker's patterns of one
//! partition) and are completely independent of threading: the sequential
//! executor calls them on a single slice covering everything, the threaded
//! executor calls them concurrently on disjoint slices, and the instrumented
//! executor calls them per virtual worker while recording the work.
//!
//! * [`newview_step_tabled`] — recompute the conditional likelihood vector
//!   (CLV) of one internal node from its two children (Felsenstein pruning
//!   step),
//! * [`evaluate_edge_tabled`] — per-site log likelihoods summed over the slice
//!   for a virtual root placed on a branch,
//! * [`build_sumtable`] / [`derivatives_from_sumtable`] — the RAxML
//!   `makenewz` decomposition: a branch-specific sum table that makes every
//!   Newton–Raphson iteration on that branch a cheap per-pattern loop with
//!   analytic first and second derivatives.
//!
//! `newview`/`evaluate` read precomputed [`BranchTables`] (transition
//! matrices plus tip lookup rows, built once per table slot by the first
//! shard that reads it — see [`crate::tables`]). Their loops here
//! are the [`KernelDispatch::Scalar`](crate::tables::KernelDispatch::Scalar)
//! reference; [`crate::blocked`] holds the width-specialized default, and
//! [`crate::naive`] the independent oracle both are tested against.
//!
//! The two Newton ops are dispatch-*independent*: one implementation each,
//! called under either dispatch. Each is a single loop nest instantiated per
//! state width whose contract is the **summation order** of the scalar loop
//! it replaced, so its results are that loop's, bit for bit — the old loops
//! live on as the reference in `tests/properties.rs`. A tip child of the sum
//! table is a category-free lookup (`tip_eigen`), not a matrix product.
//!
//! **Repeats.** Every `newview` loop — [`newview_step_tabled`] here and both
//! blocked loops — walks the step's repeat classes ([`crate::slice`]): it
//! computes each representative (`rep[p] == p`, ascending) exactly as
//! before, then copies every other pattern's column and scale count from its
//! representative. Patterns in one class have bit-identical inputs at the step
//! (the same tip masks, the same child columns), so the copy is what the loop
//! would have computed: every CLV entry, scale count and lnL bit is the same
//! as with every pattern its own class. Classes depend on the topology and
//! the tip data only. `tip_hits` still counts one lookup per pattern per tip
//! child per step, and the cost model still counts pattern-steps.
//!
//! All primitives are fallible: mismatched buffer shapes, stale sum tables
//! and out-of-domain branch lengths fail as typed [`OpError`]s on every build
//! profile (they used to be `debug_assert!`-only and silent in release).

use std::sync::Arc;

use phylo_data::EncodedState;
use phylo_models::PartitionModel;
use phylo_tree::{NodeId, TraversalStep};

use crate::error::OpError;
use crate::slice::{PartitionSlice, SliceBuffers, TIP_INDEX_NONE};
use crate::tables::{add_mask_rows, validate_branch_length, BranchTables};
use crate::{LOG_SCALE_FACTOR, SCALE_FACTOR, SCALE_THRESHOLD};

/// Floor applied to per-site likelihoods before taking logarithms, so that a
/// fully impossible site (numerically zero) produces a very bad but finite
/// log likelihood instead of `-inf`.
pub(crate) const SITE_LIKELIHOOD_FLOOR: f64 = 1.0e-300;

/// Resolved child data used inside the inner loops.
pub(crate) enum ChildData<'a> {
    /// The child is a leaf; per-pattern tip states come from the slice.
    Tip(NodeId),
    /// The child is an internal node with a computed CLV and scale counters.
    Internal { clv: &'a [f64], scale: &'a [i32] },
}

pub(crate) fn child_data<'a>(
    slice: &PartitionSlice,
    buffers: &'a SliceBuffers,
    node: NodeId,
) -> Result<ChildData<'a>, OpError> {
    if node < slice.n_taxa {
        Ok(ChildData::Tip(node))
    } else {
        let clv = buffers.clv(node).ok_or(OpError::ClvMissing { node })?;
        let scale = buffers.scale(node).ok_or(OpError::ScaleMissing { node })?;
        Ok(ChildData::Internal { clv, scale })
    }
}

/// Per-(pattern, category) resolution of one child for the tabled kernels:
/// either a precomputed tip-lookup row, the raw tip mask (dictionary miss),
/// or the internal child's CLV for a dense inner product. Resolving once per
/// pattern keeps the inner state loop branch-free of `Option` plumbing — and
/// free of the "tip child must have a mask" invariant the old pair-matching
/// needed an `expect` for.
pub(crate) enum ResolvedChild<'a> {
    /// Tip whose mask is in the dictionary: direct per-category row lookup.
    Indexed(usize),
    /// Tip whose mask is outside the dictionary: bit-loop fallback.
    Mask(EncodedState),
    /// Internal child: dense inner product against its CLV.
    Clv(&'a [f64]),
}

/// [`ResolvedChild`] with the dictionary index swapped for the concrete tip
/// row of one rate category, so the innermost state loop is a total match.
pub(crate) enum CatChild<'a> {
    /// Precomputed tip-lookup row for this category.
    Row(&'a [f64]),
    /// Dictionary miss: sum transition probabilities over the mask per call.
    Mask(EncodedState),
    /// Internal child CLV.
    Clv(&'a [f64]),
}

impl<'a> ResolvedChild<'a> {
    /// Resolve the per-category form by looking the dictionary index up in
    /// this branch's tables.
    pub(crate) fn at_category(&self, tables: &'a BranchTables, c: usize) -> CatChild<'a> {
        match self {
            ResolvedChild::Indexed(mi) => CatChild::Row(tables.tip_row(c, *mi)),
            ResolvedChild::Mask(mask) => CatChild::Mask(*mask),
            ResolvedChild::Clv(clv) => CatChild::Clv(clv),
        }
    }
}

/// Sum of transition probabilities from state `s` into the states compatible
/// with the tip bitmask: `Σ_{a ∈ mask} P[s][a]`. One shared implementation
/// with the table builder ([`crate::tables`]): a dictionary miss sums in the
/// same ascending-bit order as a precomputed tip row, so the fallback can
/// never change a result.
#[inline]
pub(crate) fn tip_sum(pmat_row: &[f64], mask: EncodedState) -> f64 {
    crate::tables::mask_sum(pmat_row, mask)
}

/// Release-mode guard: a shared table must have been built for this slice's
/// alphabet and category count. Tables from another partition's model would
/// index out of bounds (a worker-killing panic in a parallel backend) or,
/// worse, silently read the wrong sub-matrix rows.
pub(crate) fn check_table_dims(
    slice: &PartitionSlice,
    buffers: &SliceBuffers,
    tables: &BranchTables,
) -> Result<(), OpError> {
    if tables.states() != buffers.states() || tables.categories() != buffers.categories() {
        return Err(OpError::TableDims {
            partition: slice.partition,
            table: (tables.states(), tables.categories()),
            buffers: (buffers.states(), buffers.categories()),
        });
    }
    Ok(())
}

/// Release-mode guard: the buffers must have been allocated for the same
/// alphabet and category count as the model the op runs under. A mismatch
/// means buffers were recycled across partitions without reallocation — the
/// indexing below would read the wrong strides silently.
pub(crate) fn check_buffer_dims(
    slice: &PartitionSlice,
    buffers: &SliceBuffers,
    states: usize,
    categories: usize,
) -> Result<(), OpError> {
    if buffers.states() != states || buffers.categories() != categories {
        return Err(OpError::BufferDims {
            partition: slice.partition,
            expected: (states, categories),
            got: (buffers.states(), buffers.categories()),
        });
    }
    Ok(())
}

/// The release-mode guard against stale buffers: a slice and its buffers must
/// agree on the local pattern count (they can drift apart when a mid-run
/// migration rebuilds one but not the other).
pub(crate) fn check_slice_shape(
    slice: &PartitionSlice,
    buffers: &SliceBuffers,
) -> Result<(), OpError> {
    if buffers.patterns() != slice.pattern_count() {
        return Err(OpError::SliceShape {
            partition: slice.partition,
            buffer_patterns: buffers.patterns(),
            slice_patterns: slice.pattern_count(),
        });
    }
    Ok(())
}

/// Recomputes the CLV of `step.node` for every local pattern of the slice
/// from the [`BranchTables`] (transition matrices and tip lookup rows) of the
/// branches towards its left and right child.
///
/// # Errors
///
/// [`OpError::SliceShape`] when the buffers do not match the slice.
pub fn newview_step_tabled(
    slice: &PartitionSlice,
    buffers: &mut SliceBuffers,
    step: &TraversalStep,
    left_tables: &BranchTables,
    right_tables: &BranchTables,
) -> Result<(), OpError> {
    let states = slice.states();
    let patterns = slice.pattern_count();
    check_slice_shape(slice, buffers)?;
    check_table_dims(slice, buffers, left_tables)?;
    check_table_dims(slice, buffers, right_tables)?;
    let categories = left_tables.categories();
    check_buffer_dims(slice, buffers, states, categories)?;

    // Per-slice tip-index cache: every `(pattern, taxon)` mask is translated
    // to its dictionary index once per slice lifetime, not once per call —
    // the per-pattern binary search was the protein-partition hot spot. Both
    // children share the partition's dictionary in practice; a right child
    // with a different dictionary falls back to searching per pattern.
    let left_is_tip = step.left < slice.n_taxa;
    let right_is_tip = step.right < slice.n_taxa;
    let right_cached = Arc::ptr_eq(left_tables.dict_arc(), right_tables.dict_arc());
    if left_is_tip || (right_is_tip && right_cached) {
        buffers.tip_indices(slice, left_tables.dict_arc());
    }

    // Validate child presence before detaching the target node's buffers, so
    // a rejected step leaves the buffer store untouched.
    child_data(slice, buffers, step.left)?;
    child_data(slice, buffers, step.right)?;
    buffers.prepare_repeats(slice, step);

    let (mut clv, mut scale) = buffers.take_node(step.node);
    clv.resize(patterns * categories * states, 0.0);
    scale.resize(patterns, 0);

    {
        let tip_idx = buffers.cached_tip_indices();
        let walk = buffers.repeat_walk();
        let n_taxa = slice.n_taxa;
        let left = child_data(slice, buffers, step.left)?;
        let right = child_data(slice, buffers, step.right)?;

        for p in walk.computed.iter().map(|&p| p as usize) {
            // One cache read per (pattern, tip child), hoisted out of the
            // category/state loops; a mask outside the dictionary resolves
            // to the bit-loop fallback.
            let left_res = match &left {
                ChildData::Tip(t) => {
                    let mask = slice.tip_state(p, *t);
                    let mi = tip_idx[p * n_taxa + *t];
                    if mi != TIP_INDEX_NONE {
                        ResolvedChild::Indexed(mi as usize)
                    } else {
                        ResolvedChild::Mask(mask)
                    }
                }
                ChildData::Internal { clv: child, .. } => ResolvedChild::Clv(child),
            };
            let right_res = match &right {
                ChildData::Tip(t) => {
                    let mask = slice.tip_state(p, *t);
                    let index = if right_cached {
                        let mi = tip_idx[p * n_taxa + *t];
                        (mi != TIP_INDEX_NONE).then_some(mi as usize)
                    } else {
                        right_tables.dict().index_of(mask)
                    };
                    match index {
                        Some(mi) => ResolvedChild::Indexed(mi),
                        None => ResolvedChild::Mask(mask),
                    }
                }
                ChildData::Internal { clv: child, .. } => ResolvedChild::Clv(child),
            };

            let mut max_entry = 0.0f64;
            for c in 0..categories {
                let lp = left_tables.pmat(c);
                let rp = right_tables.pmat(c);
                let left_cat = left_res.at_category(left_tables, c);
                let right_cat = right_res.at_category(right_tables, c);
                let base = (p * categories + c) * states;
                for s in 0..states {
                    let row = s * states;
                    let left_sum = match &left_cat {
                        CatChild::Row(tip_row) => tip_row[s],
                        CatChild::Mask(mask) => tip_sum(&lp[row..row + states], *mask),
                        CatChild::Clv(child) => {
                            let cbase = (p * categories + c) * states;
                            let mut acc = 0.0;
                            for a in 0..states {
                                acc += lp[row + a] * child[cbase + a];
                            }
                            acc
                        }
                    };
                    let right_sum = match &right_cat {
                        CatChild::Row(tip_row) => tip_row[s],
                        CatChild::Mask(mask) => tip_sum(&rp[row..row + states], *mask),
                        CatChild::Clv(child) => {
                            let cbase = (p * categories + c) * states;
                            let mut acc = 0.0;
                            for a in 0..states {
                                acc += rp[row + a] * child[cbase + a];
                            }
                            acc
                        }
                    };
                    let value = left_sum * right_sum;
                    clv[base + s] = value;
                    if value > max_entry {
                        max_entry = value;
                    }
                }
            }

            let mut events = 0;
            if let ChildData::Internal { scale: s, .. } = &left {
                events += s[p];
            }
            if let ChildData::Internal { scale: s, .. } = &right {
                events += s[p];
            }
            if max_entry < SCALE_THRESHOLD && max_entry > 0.0 {
                let base = p * categories * states;
                for v in &mut clv[base..base + categories * states] {
                    *v *= SCALE_FACTOR;
                }
                events += 1;
            }
            scale[p] = events;
        }
        walk.copy(&mut clv, &mut scale, categories * states);
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

/// Evaluates the weighted log likelihood of the slice for a virtual root
/// placed on the branch between `left` and `right`, using the partition's
/// stationary frequencies; the virtual-root transition matrices and the tip
/// sums of the right child come from the branch's [`BranchTables`].
///
/// Returns the sum over the local patterns of `weight × ln L(pattern)`.
///
/// # Errors
///
/// [`OpError::SliceShape`] when the buffers do not match the slice.
pub fn evaluate_edge_tabled(
    slice: &PartitionSlice,
    buffers: &mut SliceBuffers,
    model: &PartitionModel,
    left: NodeId,
    right: NodeId,
    tables: &BranchTables,
) -> Result<f64, OpError> {
    let states = slice.states();
    let patterns = slice.pattern_count();
    check_slice_shape(slice, buffers)?;
    check_table_dims(slice, buffers, tables)?;
    let categories = tables.categories();
    let freqs = model.substitution().frequencies();
    let inv_categories = 1.0 / categories as f64;

    // Same per-slice tip-index cache as `newview_step_tabled`; only the
    // right child's inner products are table-backed here.
    let right_is_tip = right < slice.n_taxa;
    if right_is_tip {
        buffers.tip_indices(slice, tables.dict_arc());
    }
    let buffers = &*buffers;
    let tip_idx = buffers.cached_tip_indices();
    let n_taxa = slice.n_taxa;

    let left_data = child_data(slice, buffers, left)?;
    let right_data = child_data(slice, buffers, right)?;

    let mut total = 0.0;
    for p in 0..patterns {
        // Hoisted cache read for a right tip child (the side whose inner
        // products the tables replace).
        let right_res = match &right_data {
            ChildData::Tip(t) => {
                let mask = slice.tip_state(p, *t);
                let mi = tip_idx[p * n_taxa + *t];
                if mi != TIP_INDEX_NONE {
                    ResolvedChild::Indexed(mi as usize)
                } else {
                    ResolvedChild::Mask(mask)
                }
            }
            ChildData::Internal { clv, .. } => ResolvedChild::Clv(clv),
        };
        let mut site = 0.0;
        for c in 0..categories {
            let pm = tables.pmat(c);
            let right_cat = right_res.at_category(tables, c);
            let base = (p * categories + c) * states;
            let mut cat_sum = 0.0;
            for s in 0..states {
                let l_val = match &left_data {
                    ChildData::Tip(t) => {
                        if slice.tip_state(p, *t) & (1 << s) != 0 {
                            1.0
                        } else {
                            0.0
                        }
                    }
                    ChildData::Internal { clv, .. } => clv[base + s],
                };
                if l_val == 0.0 {
                    continue;
                }
                let row = s * states;
                let inner = match &right_cat {
                    CatChild::Row(tip_row) => tip_row[s],
                    CatChild::Mask(mask) => tip_sum(&pm[row..row + states], *mask),
                    CatChild::Clv(clv) => {
                        let mut acc = 0.0;
                        for a in 0..states {
                            acc += pm[row + a] * clv[base + a];
                        }
                        acc
                    }
                };
                cat_sum += freqs[s] * l_val * inner;
            }
            site += cat_sum * inv_categories;
        }
        let mut events = 0;
        if let ChildData::Internal { scale, .. } = &left_data {
            events += scale[p];
        }
        if let ChildData::Internal { scale, .. } = &right_data {
            events += scale[p];
        }
        let ln_site = site.max(SITE_LIKELIHOOD_FLOOR).ln() - events as f64 * LOG_SCALE_FACTOR;
        total += slice.weights[p] * ln_site;
    }
    if right_is_tip {
        buffers.count_tip_hits(patterns as u64);
    }
    Ok(total)
}

/// Builds the branch sum table for the branch between `left` and `right`.
///
/// For every local pattern `p` and rate category `c` the table stores
/// `s_k = (Wᵀ l)_k · (Wᵀ r)_k`, where `W = diag(√π)·V` comes from the model's
/// eigendecomposition. With the table in place the likelihood of the branch as
/// a function of its length `t` is `Σ_k s_k · e^{λ_k r_c t}` per category, so
/// each Newton–Raphson iteration only needs [`derivatives_from_sumtable`] and
/// never touches the CLVs again.
///
/// There is **one** implementation, shared by both kernel dispatches: the
/// loop nest `sumtable_rows` instantiated at width 4, width 20 and a
/// runtime width. Its contract is the summation order — every
/// `(Wᵀ x)_k = Σ_s W[s][k]·x_s` is accumulated over `s` ascending from `0.0`
/// with a separate multiply and add — so every table entry is bit-identical
/// to the scalar column walk it replaced (kept as the reference in
/// `tests/properties.rs`).
///
/// # Errors
///
/// [`OpError::SliceShape`] / [`OpError::BufferDims`] when the buffers match
/// neither the slice nor the model, [`OpError::ClvMissing`] /
/// [`OpError::ScaleMissing`] for an absent child. A rejected build leaves the
/// previous table untouched.
pub fn build_sumtable(
    slice: &PartitionSlice,
    buffers: &mut SliceBuffers,
    model: &PartitionModel,
    left: NodeId,
    right: NodeId,
) -> Result<(), OpError> {
    let states = model.states();
    let categories = model.categories();
    check_slice_shape(slice, buffers)?;
    check_buffer_dims(slice, buffers, states, categories)?;
    let w = model.substitution().eigen().w.as_slice();

    // The table leaves the store while the children's CLVs are borrowed from
    // it, and goes back whatever happens — untouched when a child is
    // rejected, so a failed build keeps any previously valid table.
    let (mut table, mut table_scale) = {
        let (t, s) = buffers.sumtable_mut();
        (std::mem::take(t), std::mem::take(s))
    };
    let children = child_data(slice, buffers, left)
        .and_then(|left| Ok((left, child_data(slice, buffers, right)?)));
    if let Ok(children) = &children {
        // Every entry is overwritten below: no `clear()`, no second pass.
        table.resize(buffers.clv_len(), 0.0);
        let table = &mut table[..];
        match states {
            4 => sumtable_rows(w, slice, categories, children, &mut [0.0; 8], table),
            20 => sumtable_rows(w, slice, categories, children, &mut [0.0; 40], table),
            n => sumtable_rows(w, slice, categories, children, &mut vec![0.0; 2 * n], table),
        }
        table_scale.clear();
        table_scale.resize(buffers.patterns(), 0);
        for child in [&children.0, &children.1] {
            if let ChildData::Internal { scale, .. } = child {
                for (p, events) in table_scale.iter_mut().enumerate() {
                    *events += scale[p];
                }
            }
        }
    }
    let built = children.map(|_| ());
    let (t, s) = buffers.sumtable_mut();
    *t = table;
    *s = table_scale;
    built
}

/// The one loop nest of [`build_sumtable`]; `scratch` holds the two
/// children's eigen-space vectors `a` and `b`, `2 × states` long, so the
/// width-specialised callers fix the width at compile time. `table` is
/// written whole, one `categories × states` block per pattern.
///
/// The child kinds are matched once per call. An internal child is the
/// row-broadcast product [`eigen_project`] per `(pattern, category)` — both
/// children fused over one pass of `W` when both are internal. A **tip child
/// is a lookup, not a product**: its vector does not depend on the rate
/// category, so [`tip_eigen`] forms it once per pattern and every category
/// reuses it (tip × tip writes one product to every category). `a · b`
/// commutes bit for bit, so the tip always takes `a`.
#[inline(always)]
fn sumtable_rows(
    w: &[f64],
    slice: &PartitionSlice,
    categories: usize,
    children: &(ChildData<'_>, ChildData<'_>),
    scratch: &mut [f64],
    table: &mut [f64],
) {
    let n = scratch.len() / 2;
    let (a, b) = scratch.split_at_mut(n);
    let block = categories * n;
    let multiply = |out: &mut [f64], a: &[f64], b: &[f64]| {
        for ((o, &ak), &bk) in out.iter_mut().zip(a).zip(b) {
            *o = ak * bk;
        }
    };
    match children {
        (ChildData::Internal { clv: l, .. }, ChildData::Internal { clv: r, .. }) => {
            for (i, out) in table.chunks_exact_mut(n).enumerate() {
                let (l, r) = (&l[i * n..][..n], &r[i * n..][..n]);
                a.fill(0.0);
                b.fill(0.0);
                for ((&ls, &rs), row) in l.iter().zip(r).zip(w.chunks_exact(n)) {
                    for ((ak, bk), &wsk) in a.iter_mut().zip(b.iter_mut()).zip(row) {
                        *ak += wsk * ls;
                        *bk += wsk * rs;
                    }
                }
                multiply(out, a, b);
            }
        }
        (ChildData::Tip(tip), ChildData::Internal { clv, .. })
        | (ChildData::Internal { clv, .. }, ChildData::Tip(tip)) => {
            let mut held = 0;
            for (p, out) in table.chunks_exact_mut(block).enumerate() {
                tip_eigen(w, slice.tip_state(p, *tip), &mut held, a);
                let clv = &clv[p * block..][..block];
                for (x, out) in clv.chunks_exact(n).zip(out.chunks_exact_mut(n)) {
                    eigen_project(w, x, b);
                    multiply(out, a, b);
                }
            }
        }
        (ChildData::Tip(l), ChildData::Tip(r)) => {
            let (mut held_l, mut held_r) = (0, 0);
            for (p, out) in table.chunks_exact_mut(block).enumerate() {
                tip_eigen(w, slice.tip_state(p, *l), &mut held_l, a);
                tip_eigen(w, slice.tip_state(p, *r), &mut held_r, b);
                for out in out.chunks_exact_mut(n) {
                    multiply(out, a, b);
                }
            }
        }
    }
}

/// `out_k = Σ_s W[s][k]·x_s`: `W` read by contiguous rows, one `x_s`
/// broadcast per row, all `states` outputs advancing together — and each of
/// them still summed over `s` ascending from `0.0`.
#[inline(always)]
fn eigen_project(w: &[f64], x: &[f64], out: &mut [f64]) {
    out.fill(0.0);
    for (&xs, row) in x.iter().zip(w.chunks_exact(out.len())) {
        for (o, &wsk) in out.iter_mut().zip(row) {
            *o += wsk * xs;
        }
    }
}

/// The eigen-space vector of a tip: `Σ_{s ∈ mask, ascending} W[s][·]` from
/// `0.0` — what [`eigen_project`] yields for the tip's 0/1 vector, because
/// the terms it would add for the cleared bits are `±0.0` and a running sum
/// that starts at `+0.0` is never `-0.0`. `out` still holds the vector of
/// `*held` (the previous pattern's mask), so a run of one ambiguity mask —
/// gaps come in runs — is summed once; the test stays off for one-state
/// masks, where it would be a coin flip per pattern and the sum is one row.
#[inline(always)]
fn tip_eigen(w: &[f64], mask: EncodedState, held: &mut EncodedState, out: &mut [f64]) {
    let ambiguous = mask & mask.wrapping_sub(1) != 0;
    if !(ambiguous && mask == *held) {
        out.fill(0.0);
        add_mask_rows(w, mask, out);
    }
    *held = mask;
}

/// Result of one derivative evaluation over a slice.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EdgeDerivatives {
    /// Weighted log likelihood of the slice at the evaluated branch length.
    pub log_likelihood: f64,
    /// First derivative of the weighted log likelihood w.r.t. the branch length.
    pub first: f64,
    /// Second derivative of the weighted log likelihood w.r.t. the branch length.
    pub second: f64,
}

/// `categories × states` up to which [`derivatives_from_sumtable`] keeps its
/// per-term coefficients on the stack: eight categories of a 20-state model.
const STACK_TERMS: usize = 160;

/// Patterns [`derivatives_from_sumtable`] sums side by side.
const DERIVATIVE_LANES: usize = 4;

/// Evaluates the log likelihood and its first two derivatives with respect to
/// the branch length `t`, using the sum table previously built for this branch
/// by [`build_sumtable`].
///
/// Like the builder this is one implementation for both dispatches. A
/// pattern's `f`, `f′`, `f″` are three add chains over all its
/// `categories × states` terms, ascending from `0.0`; that order is the
/// contract, so the speed comes from running four patterns as independent
/// lanes (`sum_sites`) — twelve chains in flight instead of three — and
/// adding them to the result in pattern order.
///
/// Sites whose likelihood underflowed to the floor contribute the floored
/// log likelihood but **zero** derivatives: dividing the raw `f'`/`f''` by
/// the floor would explode the ratios by hundreds of orders of magnitude and
/// drive Newton–Raphson to NaN or divergent steps on long branches.
///
/// # Errors
///
/// [`OpError::SumtableStale`] when the sum table does not match the slice
/// shape — it is missing, or left over from before a reassignment changed the
/// local pattern count (this was a release-mode `debug_assert!` hole);
/// [`OpError::InvalidBranchLength`] for an out-of-domain `t`.
pub fn derivatives_from_sumtable(
    slice: &PartitionSlice,
    buffers: &SliceBuffers,
    model: &PartitionModel,
    t: f64,
) -> Result<EdgeDerivatives, OpError> {
    validate_branch_length(t)?;
    let categories = model.categories();
    let terms = categories * model.states();
    let patterns = slice.pattern_count();
    check_slice_shape(slice, buffers)?;
    let table = buffers.sumtable();
    let table_scale = buffers.sumtable_scale();
    if table.len() != patterns * terms {
        return Err(OpError::SumtableStale {
            expected: patterns * terms,
            got: table.len(),
        });
    }
    if table_scale.len() != patterns {
        return Err(OpError::SumtableStale {
            expected: patterns,
            got: table_scale.len(),
        });
    }

    // `[e^{λ_k r_c t}, λ_k r_c, (λ_k r_c)²]` per term, in the `(c, k)` order
    // of a pattern's table block. The square is exact: the sum it feeds was
    // always `(lr · lr) · x`.
    let mut stack = [[0.0; 3]; STACK_TERMS];
    let mut heap = Vec::new();
    let coefficients = if terms <= STACK_TERMS {
        &mut stack[..terms]
    } else {
        heap.resize(terms, [0.0; 3]);
        &mut heap[..]
    };
    let eigenvalues = &model.substitution().eigen().values;
    let rate_modes = model
        .gamma_rates()
        .iter()
        .flat_map(|&rate| eigenvalues.iter().map(move |&lambda| lambda * rate));
    for (term, lr) in coefficients.iter_mut().zip(rate_modes) {
        *term = [(lr * t).exp(), lr, lr * lr];
    }
    let inv_categories = 1.0 / categories as f64;

    // Whole groups of lanes, then the remainder through the same nest one
    // pattern at a time: the result accumulates in pattern order either way.
    let head = patterns - patterns % DERIVATIVE_LANES;
    let (table, table_tail) = table.split_at(head * terms);
    let (weights, weights_tail) = slice.weights.split_at(head);
    let (scale, scale_tail) = table_scale.split_at(head);
    let mut out = EdgeDerivatives::default();
    sum_sites::<DERIVATIVE_LANES>(
        &mut out,
        table,
        weights,
        scale,
        coefficients,
        inv_categories,
    );
    sum_sites::<1>(
        &mut out,
        table_tail,
        weights_tail,
        scale_tail,
        coefficients,
        inv_categories,
    );
    Ok(out)
}

/// The one loop nest of [`derivatives_from_sumtable`]: `L` consecutive
/// patterns are `L` independent lanes, each running the per-pattern sequence
/// `x = s·e; f += x; f′ += λ·x; f″ += λ²·x` over its table block ascending
/// from `0.0`; then the floor / clamp / `ln` / weight epilogue adds the lanes
/// to `out` in pattern order.
#[inline(always)]
fn sum_sites<const L: usize>(
    out: &mut EdgeDerivatives,
    table: &[f64],
    weights: &[f64],
    scale_events: &[i32],
    coefficients: &[[f64; 3]],
    inv_categories: f64,
) {
    let terms = coefficients.len();
    let sites = weights.chunks_exact(L).zip(scale_events.chunks_exact(L));
    for (block, (weights, scale_events)) in table.chunks_exact(L * terms).zip(sites) {
        let lanes: [&[f64]; L] = std::array::from_fn(|lane| &block[lane * terms..][..terms]);
        let (mut f, mut f1, mut f2) = ([0.0; L], [0.0; L], [0.0; L]);
        for (j, &[e, lr, lr2]) in coefficients.iter().enumerate() {
            for lane in 0..L {
                let x = lanes[lane][j] * e;
                f[lane] += x;
                f1[lane] += lr * x;
                f2[lane] += lr2 * x;
            }
        }
        for lane in 0..L {
            let f = f[lane] * inv_categories;
            let f1 = f1[lane] * inv_categories;
            let f2 = f2[lane] * inv_categories;
            let site = f.max(SITE_LIKELIHOOD_FLOOR);
            // A floored site sits on a numerically flat stretch of the
            // likelihood surface: its true per-site derivatives are below the
            // floating-point horizon, while `f1 / floor` would be
            // astronomically large.
            let (ratio1, ratio2) = if f > SITE_LIKELIHOOD_FLOOR {
                (f1 / site, f2 / site)
            } else {
                (0.0, 0.0)
            };
            let w = weights[lane];
            out.log_likelihood += w * (site.ln() - scale_events[lane] as f64 * LOG_SCALE_FACTOR);
            out.first += w * ratio1;
            out.second += w * (ratio2 - ratio1 * ratio1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phylo_data::{Alignment, DataType, PartitionSet, PartitionedPatterns};
    use phylo_models::{BranchLengthMode, ModelSet};
    use phylo_tree::{TraversalPlan, Tree};

    use crate::slice::WorkerSlices;
    use crate::tables::MaskDictionary;

    /// Three-taxon fixture: one internal node, three branches.
    fn three_taxon() -> (PartitionedPatterns, Tree) {
        let aln = Alignment::new(vec![
            ("t0".into(), "ACGTTA".into()),
            ("t1".into(), "ACGTCA".into()),
            ("t2".into(), "ACGATA".into()),
        ])
        .unwrap();
        let ps = PartitionSet::unpartitioned(DataType::Dna, 6);
        let pp = PartitionedPatterns::compile(&aln, &ps).unwrap();
        let tree = Tree::initial_triplet(pp.taxa.clone(), [0, 1, 2]);
        (pp, tree)
    }

    fn setup(pp: &PartitionedPatterns, tree: &Tree, categories: usize) -> (WorkerSlices, ModelSet) {
        let models = ModelSet::with_categories(pp, BranchLengthMode::Joint, categories);
        let cats: Vec<usize> = models.models().iter().map(|m| m.categories()).collect();
        let ws = WorkerSlices::cyclic(pp, 0, 1, tree.node_capacity(), &cats);
        (ws, models)
    }

    /// Direct (brute force) likelihood of the 3-taxon tree summing over the
    /// internal node's states, used as an independent reference.
    fn brute_force_three_taxon(pp: &PartitionedPatterns, tree: &Tree, models: &ModelSet) -> f64 {
        let part = &pp.partitions[0];
        let model = models.model(0);
        let freqs = model.substitution().frequencies();
        let states = 4usize;
        let center = 3usize;
        let mut total = 0.0;
        for p in 0..part.pattern_count() {
            let mut site = 0.0;
            for (ci, &rate) in model.gamma_rates().iter().enumerate() {
                let _ = ci;
                let mut cat = 0.0;
                // P matrices per pendant branch for this category.
                let pmats: Vec<_> = (0..3)
                    .map(|leaf| {
                        let b = tree.branch_between(center, leaf).unwrap();
                        model
                            .substitution()
                            .transition_matrix(tree.branch_length(b) * rate)
                    })
                    .collect();
                for x in 0..states {
                    let mut prod = freqs[x];
                    for (leaf, pm) in pmats.iter().enumerate() {
                        let mask = part.tip_state(p, leaf);
                        let mut s = 0.0;
                        for a in 0..states {
                            if mask & (1 << a) != 0 {
                                s += pm[(x, a)];
                            }
                        }
                        prod *= s;
                    }
                    cat += prod;
                }
                site += cat / model.categories() as f64;
            }
            total += part.weights[p] * site.ln();
        }
        total
    }

    /// All fixtures here are single-partition DNA, whose dictionary is the
    /// full 16-mask space whatever the data.
    fn dna_dict() -> Arc<MaskDictionary> {
        Arc::new(MaskDictionary::for_partition(DataType::Dna, &[]))
    }

    fn full_newview(ws: &mut WorkerSlices, tree: &Tree, models: &ModelSet, root_branch: usize) {
        let dict = dna_dict();
        let model = models.model(0);
        let tables = |b| BranchTables::build(model, &dict, tree.branch_length(b)).unwrap();
        for step in &TraversalPlan::full(tree, root_branch).steps {
            let (left, right) = (tables(step.left_branch), tables(step.right_branch));
            newview_step_tabled(&ws.slices[0], &mut ws.buffers[0], step, &left, &right).unwrap();
        }
    }

    /// `evaluate_edge_tabled` against tables built for length `t` on the spot.
    fn evaluate(
        slice: &PartitionSlice,
        buffers: &mut SliceBuffers,
        model: &PartitionModel,
        left: NodeId,
        right: NodeId,
        t: f64,
    ) -> Result<f64, OpError> {
        let tables = BranchTables::build(model, &dna_dict(), t)?;
        evaluate_edge_tabled(slice, buffers, model, left, right, &tables)
    }

    #[test]
    fn scale_constant_is_consistent() {
        assert!((SCALE_FACTOR.ln() - LOG_SCALE_FACTOR).abs() < 1e-12);
        assert!((SCALE_THRESHOLD * SCALE_FACTOR - 1.0).abs() < 1e-12);
    }

    #[test]
    fn three_taxon_likelihood_matches_brute_force_single_category() {
        let (pp, tree) = three_taxon();
        let (mut ws, models) = setup(&pp, &tree, 1);
        // Root on the pendant branch of leaf 0.
        let root_branch = tree.branch_between(0, 3).unwrap();
        full_newview(&mut ws, &tree, &models, root_branch);
        let lnl = evaluate(
            &ws.slices[0],
            &mut ws.buffers[0],
            models.model(0),
            0,
            3,
            tree.branch_length(root_branch),
        )
        .unwrap();
        let reference = brute_force_three_taxon(&pp, &tree, &models);
        assert!(
            (lnl - reference).abs() < 1e-9,
            "kernel {lnl} vs brute force {reference}"
        );
        assert!(lnl < 0.0, "log likelihood must be negative");
    }

    #[test]
    fn three_taxon_likelihood_matches_brute_force_gamma() {
        let (pp, tree) = three_taxon();
        let (mut ws, models) = setup(&pp, &tree, 4);
        let root_branch = tree.branch_between(1, 3).unwrap();
        full_newview(&mut ws, &tree, &models, root_branch);
        let lnl = evaluate(
            &ws.slices[0],
            &mut ws.buffers[0],
            models.model(0),
            1,
            3,
            tree.branch_length(root_branch),
        )
        .unwrap();
        let reference = brute_force_three_taxon(&pp, &tree, &models);
        assert!(
            (lnl - reference).abs() < 1e-9,
            "kernel {lnl} vs reference {reference}"
        );
    }

    #[test]
    fn likelihood_is_invariant_to_root_placement() {
        let (pp, tree) = three_taxon();
        let (mut ws, models) = setup(&pp, &tree, 4);
        let mut values = Vec::new();
        for root_branch in tree.branches() {
            full_newview(&mut ws, &tree, &models, root_branch);
            let (a, b) = tree.branch_endpoints(root_branch);
            let lnl = evaluate(
                &ws.slices[0],
                &mut ws.buffers[0],
                models.model(0),
                a,
                b,
                tree.branch_length(root_branch),
            )
            .unwrap();
            values.push(lnl);
        }
        for v in &values[1..] {
            assert!(
                (v - values[0]).abs() < 1e-9,
                "root invariance violated: {values:?}"
            );
        }
    }

    #[test]
    fn derivatives_match_finite_differences() {
        let (pp, tree) = three_taxon();
        let (mut ws, models) = setup(&pp, &tree, 4);
        let root_branch = tree.branch_between(2, 3).unwrap();
        full_newview(&mut ws, &tree, &models, root_branch);
        build_sumtable(&ws.slices[0], &mut ws.buffers[0], models.model(0), 2, 3).unwrap();

        let f = |ws: &mut WorkerSlices, t: f64| {
            evaluate(&ws.slices[0], &mut ws.buffers[0], models.model(0), 2, 3, t).unwrap()
        };
        for &t in &[0.02, 0.1, 0.3, 0.8] {
            let d = derivatives_from_sumtable(&ws.slices[0], &ws.buffers[0], models.model(0), t)
                .unwrap();
            // The sum-table log likelihood must agree with the evaluate op.
            let at_t = f(&mut ws, t);
            assert!(
                (d.log_likelihood - at_t).abs() < 1e-8,
                "lnL mismatch at t={t}"
            );
            let h = 1e-6;
            let (up, down) = (f(&mut ws, t + h), f(&mut ws, t - h));
            let fd1 = (up - down) / (2.0 * h);
            let fd2 = (up - 2.0 * at_t + down) / (h * h);
            assert!(
                (d.first - fd1).abs() < 1e-4 * (1.0 + fd1.abs()),
                "first derivative at t={t}: analytic {} vs fd {fd1}",
                d.first
            );
            assert!(
                (d.second - fd2).abs() < 1e-2 * (1.0 + fd2.abs()),
                "second derivative at t={t}: analytic {} vs fd {fd2}",
                d.second
            );
        }
    }

    #[test]
    fn mismatched_table_dimensions_are_typed_errors() {
        let (pp, tree) = three_taxon();
        let (mut ws, models) = setup(&pp, &tree, 4);
        let root_branch = tree.branch_between(0, 3).unwrap();
        full_newview(&mut ws, &tree, &models, root_branch);

        // Tables built from a protein model applied to a DNA slice: a typed
        // error on every build profile, not an out-of-bounds worker panic
        // (or silently wrong sub-matrix reads).
        let protein = PartitionModel::default_for(DataType::Protein);
        let dict = Arc::new(MaskDictionary::for_partition(DataType::Protein, &[]));
        let tables = BranchTables::build(&protein, &dict, 0.1).unwrap();
        let err = evaluate_edge_tabled(
            &ws.slices[0],
            &mut ws.buffers[0],
            models.model(0),
            0,
            3,
            &tables,
        )
        .unwrap_err();
        assert!(matches!(err, OpError::TableDims { .. }), "{err}");

        let step = TraversalPlan::full(&tree, root_branch).steps[0];
        let err = newview_step_tabled(&ws.slices[0], &mut ws.buffers[0], &step, &tables, &tables)
            .unwrap_err();
        assert!(matches!(err, OpError::TableDims { .. }), "{err}");
    }

    #[test]
    fn floored_sites_contribute_clamped_derivatives() {
        // Zero the sum table by hand: every site's f underflows to the
        // floor, which used to blow ratio1/ratio2 up by ~300 orders of
        // magnitude (f1 / 1e-300) and drive Newton to NaN.
        let (pp, tree) = three_taxon();
        let (mut ws, models) = setup(&pp, &tree, 4);
        let root_branch = tree.branch_between(2, 3).unwrap();
        full_newview(&mut ws, &tree, &models, root_branch);
        build_sumtable(&ws.slices[0], &mut ws.buffers[0], models.model(0), 2, 3).unwrap();
        {
            let (table, _) = ws.buffers[0].sumtable_mut();
            for v in table.iter_mut() {
                *v = 0.0;
            }
        }
        let d =
            derivatives_from_sumtable(&ws.slices[0], &ws.buffers[0], models.model(0), 0.3).unwrap();
        assert!(d.log_likelihood.is_finite());
        assert!(d.log_likelihood < -100.0, "floored sites are very bad");
        assert_eq!(d.first, 0.0, "floored sites must not push Newton");
        assert_eq!(d.second, 0.0);
    }

    #[test]
    fn long_branch_derivatives_stay_finite_for_newton() {
        // The long-branch regression: a saturated deep caterpillar with
        // every branch at the maximum length underflows many sites; the
        // derivatives across a whole probe grid must stay finite so a
        // Newton iteration can never be fed NaN.
        let n = 260usize;
        let names: Vec<String> = (0..n).map(|i| format!("t{i}")).collect();
        let rows: Vec<(String, String)> = names
            .iter()
            .enumerate()
            .map(|(i, n)| {
                (
                    n.clone(),
                    if i % 2 == 0 {
                        "ACGT".to_string()
                    } else {
                        "TGCA".to_string()
                    },
                )
            })
            .collect();
        let aln = Alignment::new(rows).unwrap();
        let ps = PartitionSet::unpartitioned(DataType::Dna, 4);
        let pp = PartitionedPatterns::compile(&aln, &ps).unwrap();
        let order: Vec<usize> = (0..n).collect();
        let mut tree = Tree::stepwise(names, &order, |b| b - 1);
        for b in tree.branches().collect::<Vec<_>>() {
            tree.set_branch_length(b, 10.0);
        }
        let (mut ws, models) = setup(&pp, &tree, 4);
        let root_branch = 0;
        full_newview(&mut ws, &tree, &models, root_branch);
        let (a, b) = tree.branch_endpoints(root_branch);
        build_sumtable(&ws.slices[0], &mut ws.buffers[0], models.model(0), a, b).unwrap();
        for &t in &[1e-8, 1e-3, 0.1, 1.0, 5.0, 10.0] {
            let d = derivatives_from_sumtable(&ws.slices[0], &ws.buffers[0], models.model(0), t)
                .unwrap();
            assert!(
                d.log_likelihood.is_finite() && d.first.is_finite() && d.second.is_finite(),
                "t={t}: {d:?}"
            );
        }
    }

    #[test]
    fn out_of_domain_probe_lengths_are_rejected() {
        let (pp, tree) = three_taxon();
        let (mut ws, models) = setup(&pp, &tree, 4);
        let root_branch = tree.branch_between(0, 3).unwrap();
        full_newview(&mut ws, &tree, &models, root_branch);
        build_sumtable(&ws.slices[0], &mut ws.buffers[0], models.model(0), 0, 3).unwrap();
        for bad in [-1.0, f64::NAN, f64::NEG_INFINITY] {
            let err =
                derivatives_from_sumtable(&ws.slices[0], &ws.buffers[0], models.model(0), bad)
                    .unwrap_err();
            assert!(matches!(err, OpError::InvalidBranchLength { .. }), "{bad}");
            let err = evaluate(
                &ws.slices[0],
                &mut ws.buffers[0],
                models.model(0),
                0,
                3,
                bad,
            )
            .unwrap_err();
            assert!(matches!(err, OpError::InvalidBranchLength { .. }), "{bad}");
        }
    }

    #[test]
    fn a_rejected_build_leaves_the_previous_table_untouched() {
        let (pp, tree) = three_taxon();
        let (mut ws, models) = setup(&pp, &tree, 4);
        let root_branch = tree.branch_between(2, 3).unwrap();
        full_newview(&mut ws, &tree, &models, root_branch);
        let (slice, model) = (&ws.slices[0], models.model(0));
        build_sumtable(slice, &mut ws.buffers[0], model, 2, 3).unwrap();
        let bits = |b: &SliceBuffers| b.sumtable().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let (table, scale) = (
            bits(&ws.buffers[0]),
            ws.buffers[0].sumtable_scale().to_vec(),
        );
        let before = derivatives_from_sumtable(slice, &ws.buffers[0], model, 0.2).unwrap();

        // The internal child loses its CLV: the build is rejected after the
        // table left the store, and must put it back as it was.
        let _ = ws.buffers[0].take_node(3);
        let err = build_sumtable(slice, &mut ws.buffers[0], model, 2, 3).unwrap_err();
        assert_eq!(err, OpError::ClvMissing { node: 3 });
        assert_eq!(bits(&ws.buffers[0]), table);
        assert_eq!(ws.buffers[0].sumtable_scale(), &scale[..]);
        let after = derivatives_from_sumtable(slice, &ws.buffers[0], model, 0.2).unwrap();
        assert_eq!(after, before);
    }

    #[test]
    fn sumtable_rows_match_the_column_walk_at_widths_no_model_has() {
        // Widths 2, 3, 5 and 21 exist only on the runtime-width arm. Every
        // pairing of child kinds against the column walk the nest replaced;
        // `W` carries `-0.0` entries (the sign-of-zero half of the tip-lookup
        // argument), the masks a repeated ambiguity (the `held` path), the
        // empty mask and bits beyond the width.
        for n in [2usize, 3, 5, 21] {
            let (patterns, categories) = (9usize, 3usize);
            let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ n as u64;
            let mut next = move || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
            };
            let w: Vec<f64> = (0..n * n)
                .map(|i| if i % 7 == 3 { -0.0 } else { next() })
                .collect();
            let mut clv = || -> Vec<f64> {
                (0..patterns * categories * n)
                    .map(|_| next().abs())
                    .collect()
            };
            let (clvs, scale) = ([clv(), clv()], vec![0; patterns]);
            let all = (1 << n) - 1;
            let masks: [EncodedState; 9] =
                [1, all, all, 2, 0b11, 0b11, 0, 1 << (n - 1), all | 1 << n];
            let slice = PartitionSlice {
                partition: 0,
                data_type: DataType::Dna,
                n_taxa: 2,
                tip_states: masks
                    .iter()
                    .flat_map(|&m| [m, m.rotate_left(1) & all])
                    .collect(),
                weights: vec![1.0; patterns],
                global_indices: (0..patterns).collect(),
            };
            for (left_is_tip, right_is_tip) in
                [(false, false), (true, false), (false, true), (true, true)]
            {
                let child = |node: usize, is_tip: bool| match is_tip {
                    true => ChildData::Tip(node),
                    false => ChildData::Internal {
                        clv: &clvs[node],
                        scale: &scale,
                    },
                };
                let children = (child(0, left_is_tip), child(1, right_is_tip));
                let mut table = vec![f64::NAN; patterns * categories * n];
                let scratch = &mut vec![0.0; 2 * n];
                sumtable_rows(&w, &slice, categories, &children, scratch, &mut table);

                let entry =
                    |node: usize, is_tip: bool, p: usize, base: usize, s: usize| match is_tip {
                        true if slice.tip_state(p, node) & (1 << s) != 0 => 1.0,
                        true => 0.0,
                        false => clvs[node][base + s],
                    };
                for p in 0..patterns {
                    for c in 0..categories {
                        let base = (p * categories + c) * n;
                        for k in 0..n {
                            let (mut a, mut b) = (0.0, 0.0);
                            for s in 0..n {
                                a += w[s * n + k] * entry(0, left_is_tip, p, base, s);
                                b += w[s * n + k] * entry(1, right_is_tip, p, base, s);
                            }
                            assert_eq!(
                                table[base + k].to_bits(),
                                (a * b).to_bits(),
                                "width {n}, tips ({left_is_tip}, {right_is_tip}), p={p} c={c} k={k}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn stale_sumtable_is_a_typed_error_not_ub() {
        let (pp, tree) = three_taxon();
        let (mut ws, models) = setup(&pp, &tree, 4);
        let root_branch = tree.branch_between(0, 3).unwrap();
        full_newview(&mut ws, &tree, &models, root_branch);
        // No sumtable built at all.
        let err = derivatives_from_sumtable(&ws.slices[0], &ws.buffers[0], models.model(0), 0.1)
            .unwrap_err();
        assert!(
            matches!(err, OpError::SumtableStale { got: 0, .. }),
            "{err}"
        );
        // An explicitly invalidated table behaves the same.
        build_sumtable(&ws.slices[0], &mut ws.buffers[0], models.model(0), 0, 3).unwrap();
        ws.buffers[0].invalidate_sumtable();
        let err = derivatives_from_sumtable(&ws.slices[0], &ws.buffers[0], models.model(0), 0.1)
            .unwrap_err();
        assert!(matches!(err, OpError::SumtableStale { .. }), "{err}");
    }

    #[test]
    fn gap_only_columns_have_zero_information() {
        // A pattern of all gaps has likelihood 1 (ln L = 0 contribution).
        let aln = Alignment::new(vec![
            ("t0".into(), "A-".into()),
            ("t1".into(), "A-".into()),
            ("t2".into(), "A-".into()),
        ])
        .unwrap();
        let ps = PartitionSet::unpartitioned(DataType::Dna, 2);
        let pp = PartitionedPatterns::compile(&aln, &ps).unwrap();
        let tree = Tree::initial_triplet(pp.taxa.clone(), [0, 1, 2]);
        let (mut ws, models) = setup(&pp, &tree, 4);
        let root_branch = tree.branch_between(0, 3).unwrap();
        full_newview(&mut ws, &tree, &models, root_branch);

        // Evaluate only the gap pattern by zeroing the other weight.
        let mut slice = ws.slices[0].clone();
        for (i, &g) in slice.global_indices.iter().enumerate() {
            let (_, local) = pp.locate(g);
            let is_gap_pattern = pp.partitions[0]
                .pattern_states(local)
                .iter()
                .all(|&s| DataType::Dna.is_gap(s));
            if !is_gap_pattern {
                slice.weights[i] = 0.0;
            }
        }
        let lnl = evaluate(
            &slice,
            &mut ws.buffers[0],
            models.model(0),
            0,
            3,
            tree.branch_length(root_branch),
        )
        .unwrap();
        assert!(
            lnl.abs() < 1e-9,
            "all-gap pattern must contribute ln 1 = 0, got {lnl}"
        );
    }

    #[test]
    fn scaling_keeps_likelihood_finite_on_long_branches() {
        // A deep caterpillar tree with long branches underflows the naive
        // product of per-level sums long before 64-bit floats run out of
        // exponent; the per-pattern scaling must keep the result finite and
        // must actually fire.
        let n = 260usize;
        let names: Vec<String> = (0..n).map(|i| format!("t{i}")).collect();
        let rows: Vec<(String, String)> = names
            .iter()
            .enumerate()
            .map(|(i, n)| {
                (
                    n.clone(),
                    if i % 2 == 0 {
                        "ACGT".to_string()
                    } else {
                        "TGCA".to_string()
                    },
                )
            })
            .collect();
        let aln = Alignment::new(rows).unwrap();
        let ps = PartitionSet::unpartitioned(DataType::Dna, 4);
        let pp = PartitionedPatterns::compile(&aln, &ps).unwrap();
        let order: Vec<usize> = (0..n).collect();
        // Insert every new taxon on the most recent pendant branch: a chain of
        // depth ≈ n, the worst case for underflow.
        let mut tree = Tree::stepwise(names, &order, |b| b - 1);
        for b in tree.branches().collect::<Vec<_>>() {
            tree.set_branch_length(b, 5.0);
        }
        let (mut ws, models) = setup(&pp, &tree, 4);
        let root_branch = 0;
        full_newview(&mut ws, &tree, &models, root_branch);
        let (a, b) = tree.branch_endpoints(root_branch);
        let lnl = evaluate(
            &ws.slices[0],
            &mut ws.buffers[0],
            models.model(0),
            a,
            b,
            tree.branch_length(root_branch),
        )
        .unwrap();
        assert!(lnl.is_finite());
        assert!(
            lnl < -100.0,
            "a 150-taxon saturated alignment must have a very poor lnL, got {lnl}"
        );
        let any_scaled = (0..tree.node_capacity()).any(|node| {
            ws.buffers[0]
                .scale(node)
                .map(|s| s.iter().any(|&x| x > 0))
                .unwrap_or(false)
        });
        assert!(
            any_scaled,
            "expected scaling events on a deep tree with long branches"
        );
    }
}
