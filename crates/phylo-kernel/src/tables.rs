//! Per-branch transition and tip-lookup tables, built once by the shard that
//! first reads them.
//!
//! The paper's Pthreads layout broadcasts one command per parallel region and
//! lets every worker execute it on its own patterns, each thread computing
//! the transition matrices it reads. Left at that, `T` workers recompute the
//! same per-category matrices for every node update — identical
//! O(states³ · categories) eigen work per branch — and tip inner loops
//! re-derive the same ambiguity-mask sums per pattern. Here the master issues
//! a content-keyed [`TableSlot`] instead — one per distinct `(partition,
//! length)` under the partition's current model, carried in the
//! [`KernelOp`] payload — and the first shard that reaches a slot inside the
//! region builds its [`BranchTables`] and publishes them for every other
//! reader. Each table is built once, in the region that reads it, and read
//! from the cache of the core that wrote it.
//!
//! Two tables per (branch, category):
//!
//! * the transition matrix `P(t·r_c)` itself, and
//! * RAxML-style *tip lookup rows*: for every ambiguity mask `m` in the
//!   partition's [`MaskDictionary`], the vector over target states `s` of
//!   `Σ_{a ∈ m} P[s][a]`. A tip child in `newview`/`evaluate` then costs one
//!   dictionary lookup per pattern plus contiguous row reads, instead of a
//!   per-(category, state) bit loop.
//!
//! For DNA the dictionary is the full direct-indexed 2⁴ = 16 mask space; for
//! protein it is the 20 canonical single-state masks, the common ambiguity
//! codes (`B`, `Z`, `J`, `X`/gap) and every further mask actually observed in
//! the partition, looked up by binary search. Masks outside the dictionary
//! (impossible for dictionaries built from the data) fall back to the
//! reference bit loop, so table lookups can never change a result.
//!
//! # What a build costs, and why the summation order is the contract
//!
//! Every Brent probe of α or a substitution rate changes a partition's
//! model, so all of that partition's tables are rebuilt with genuinely new
//! content in the next region. The master drops a partition's slots whenever
//! its model changes, so a slot is only ever read under the model it was
//! issued for. The shards walk the partitions starting at `worker·P/T`, so
//! `T` of them build disjoint runs of slots first. A shard that finds a slot
//! empty builds it without waiting for another; two shards rarely build the
//! same table, and the copy that loses the race is dropped.
//!
//! Construction is a kernel in its own right. [`BranchTables::build`]
//! therefore exponentiates through the width-specialised, stack-scratch
//! `Eigensystem::transition_matrix_into` and forms tip rows as sums of whole
//! matrix *columns* (contiguous in the column-major mirror) rather than one
//! data-dependent bit loop per (state, mask, category) — about 0.3 µs per
//! 4-category DNA build and 5.5 µs per protein build on the reference host.
//!
//! What the restructuring may never do is re-associate: each matrix entry
//! sums its eigen terms over `k` ascending from `0.0`, and each tip-row entry
//! adds its mask's bits ascending from `0.0` — the order of the oracle's
//! allocating `Eigensystem::transition_matrix` and of the `tip_sum` fallback
//! loop. A lookup and a fallback thus agree **bit for bit**, not just to
//! tolerance, and a change to how tables are built can be checked with `==`
//! on every `f64` (`tests/properties.rs`).
//!
//! [`KernelOp`]: crate::executor::KernelOp

use std::cell::Cell;
use std::sync::{Arc, OnceLock};

use phylo_data::{DataType, EncodedState};
use phylo_models::PartitionModel;

use crate::blocked::BLOCKED_DNA_STATES;
use crate::error::OpError;

/// Which inner-loop implementation the table-based kernels run.
///
/// The tables themselves are identical under both dispatches; the enum only
/// selects how the per-pattern loops consume them. It travels inside the
/// [`NewviewTables`]/[`EdgeTables`] command payloads (stamped by the engine
/// when the payload is assembled), so every backend — including the threaded
/// workers that receive ops over a channel — routes without any protocol
/// change.
///
/// * [`Scalar`](KernelDispatch::Scalar) — the original tabled loops in
///   [`crate::ops`]: one running accumulator per (pattern, category, state),
///   every child kind matched per state. This is the bit-for-bit-comparable
///   reference the differential test harness trusts.
/// * [`Blocked`](KernelDispatch::Blocked) (default) — the cache-blocked,
///   width-specialized loops in [`crate::blocked`]: one loop per child-kind
///   pair with column-broadcast 4×4 products for DNA, column-broadcast
///   GEMVs over L1-sized pattern tiles for protein. DNA preserves the scalar
///   accumulation order exactly (bit for bit); the protein products fuse
///   their multiply–adds, so protein agreement is ≤1e-12 in lnL by
///   contract (see `tests/kernel_differential.rs`). State widths other than
///   4 and 20 fall back to the scalar loops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum KernelDispatch {
    /// Scalar tabled loops: the bit-for-bit reference path.
    Scalar,
    /// Cache-blocked, width-specialized loops (the fast default).
    #[default]
    Blocked,
}

impl KernelDispatch {
    /// Short label (telemetry, bench envelopes, diagnostics).
    pub fn label(self) -> &'static str {
        match self {
            KernelDispatch::Scalar => "scalar",
            KernelDispatch::Blocked => "blocked",
        }
    }
}

/// The tip-state masks of one partition, indexable in O(1) (DNA) or
/// O(log n) (protein).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaskDictionary {
    states: usize,
    /// Sorted distinct masks. For the direct (DNA) dictionary this is the
    /// full `0..2^states` space and the mask *is* the index.
    masks: Vec<EncodedState>,
    direct: bool,
}

impl MaskDictionary {
    /// Builds the dictionary for a partition: the full 16-entry mask space
    /// for DNA; for protein the 20 canonical masks, the common ambiguity
    /// codes and every distinct mask observed in `tip_states`.
    pub fn for_partition(data_type: DataType, tip_states: &[EncodedState]) -> Self {
        let states = data_type.states();
        match data_type {
            DataType::Dna => Self {
                states,
                masks: (0..(1u32 << states)).collect(),
                direct: true,
            },
            DataType::Protein => {
                let mut masks: Vec<EncodedState> = (0..states as u32).map(|i| 1 << i).collect();
                // The common multi-state codes: B = N|D, Z = Q|E, J = I|L and
                // the fully ambiguous X/gap state. `encode` covers all three
                // for the protein alphabet; should an alphabet revision ever
                // drop one, the dictionary simply omits it and tip lookups
                // for that code fall back to the reference bit loop.
                masks.extend(['B', 'Z', 'J'].iter().filter_map(|&c| data_type.encode(c)));
                masks.push(data_type.gap_state());
                masks.extend_from_slice(tip_states);
                masks.sort_unstable();
                masks.dedup();
                Self {
                    states,
                    masks,
                    direct: false,
                }
            }
        }
    }

    /// Number of masks in the dictionary.
    pub fn len(&self) -> usize {
        self.masks.len()
    }

    /// Whether the dictionary is empty (never true for a built dictionary).
    pub fn is_empty(&self) -> bool {
        self.masks.is_empty()
    }

    /// Number of base states of the alphabet.
    pub fn states(&self) -> usize {
        self.states
    }

    /// Dictionary index of a mask, or `None` for a mask the dictionary does
    /// not cover (the kernels then fall back to the reference bit loop).
    #[inline]
    pub fn index_of(&self, mask: EncodedState) -> Option<usize> {
        if self.direct {
            let i = mask as usize;
            (i < self.masks.len()).then_some(i)
        } else {
            self.masks.binary_search(&mask).ok()
        }
    }

    /// The mask stored at a dictionary index.
    pub fn mask_at(&self, index: usize) -> EncodedState {
        self.masks[index]
    }
}

/// Sum of `row[a]` over the set bits of `mask`, in ascending bit order — the
/// exact summation order of the reference kernel's tip loop.
#[inline]
pub(crate) fn mask_sum(row: &[f64], mask: EncodedState) -> f64 {
    let mut sum = 0.0;
    let mut m = mask;
    while m != 0 {
        let a = m.trailing_zeros() as usize;
        sum += row[a];
        m &= m - 1;
    }
    sum
}

/// Adds to `out` the `out.len()`-long rows of `rows` that the set bits of
/// `mask` select, in ascending bit order: [`mask_sum`]'s additions, a whole
/// row at a time. Bits beyond the last row select nothing.
#[inline(always)]
pub(crate) fn add_mask_rows(rows: &[f64], mask: EncodedState, out: &mut [f64]) {
    let mut bits = mask;
    while bits != 0 {
        let selected = bits.trailing_zeros() as usize;
        if let Some(row) = rows.chunks_exact(out.len()).nth(selected) {
            for (o, &x) in out.iter_mut().zip(row) {
                *o += x;
            }
        }
        bits &= bits - 1;
    }
}

/// Fills the tip rows of one category from its column-major transition
/// matrix (`cols[a·states + s] = P[s][a]`): `rows[m·states + s] =
/// Σ_{a ∈ mask_m} P[s][a]`, whole columns at a time.
///
/// Each entry receives the additions of [`mask_sum`] in the same order —
/// from `0.0`, over the mask's bits ascending. The direct dictionary holds
/// every mask in index order, so a row is its predecessor without the top
/// bit plus that bit's column: the same chain, one addition per entry.
#[inline(always)]
fn fill_tip_rows(dict: &MaskDictionary, states: usize, cols: &[f64], rows: &mut [f64]) {
    if dict.direct {
        for m in 1..dict.masks.len() {
            let top = m.ilog2() as usize;
            let (done, rest) = rows.split_at_mut(m * states);
            let prev = &done[(m - (1 << top)) * states..][..states];
            let col = &cols[top * states..][..states];
            for ((out, &p), &x) in rest[..states].iter_mut().zip(prev).zip(col) {
                *out = p + x;
            }
        }
    } else {
        for (row, &mask) in rows.chunks_exact_mut(states).zip(&dict.masks) {
            add_mask_rows(cols, mask, row);
        }
    }
}

/// Shared read-only tables for one (partition, branch length): the
/// per-category transition matrices and the tip lookup rows over the
/// partition's mask dictionary. Built once per [`TableSlot`], by the first
/// shard that reads it.
#[derive(Debug, Clone, PartialEq)]
pub struct BranchTables {
    states: usize,
    categories: usize,
    /// `categories × states × states`, row-major per category:
    /// `pmats[(c·states + s)·states + a] = P_c[s][a]`.
    pmats: Vec<f64>,
    /// Column-major mirror of `pmats` for wide alphabets:
    /// `pmats_t[(c·states + a)·states + s] = P_c[s][a]`. The blocked
    /// 20-state kernel consumes matrix *columns* (broadcast-`x[a]` GEMV with
    /// one accumulator lane per output state — no horizontal reductions), so
    /// the columns must be contiguous — as must the columns `build` sums into
    /// tip rows. Empty for DNA: a 4-state step copies its few 4×4 matrices
    /// column-major into the buffers' scratch instead
    /// ([`crate::slice::SliceBuffers`]), cheaper than a mirror every build
    /// would pay for.
    pmats_t: Vec<f64>,
    /// `categories × n_masks × states`:
    /// `tip_sums[(c·n_masks + m)·states + s] = Σ_{a ∈ mask_m} P_c[s][a]`.
    /// The row over `s` is contiguous, matching the kernels' inner loops.
    tip_sums: Vec<f64>,
    dict: Arc<MaskDictionary>,
}

impl BranchTables {
    /// Computes the tables for one branch of one partition.
    ///
    /// # Errors
    ///
    /// [`OpError::InvalidBranchLength`] if `branch_length` is negative, NaN
    /// or infinite — the kernel-boundary domain check (a Brent/Newton probe
    /// must never smuggle such a value into an exponential);
    /// [`OpError::DictStates`] if the dictionary was compiled for a different
    /// alphabet than the model (mixing partitions' dictionaries would build
    /// tip rows with the wrong stride).
    pub fn build(
        model: &PartitionModel,
        dict: &Arc<MaskDictionary>,
        branch_length: f64,
    ) -> Result<Self, OpError> {
        validate_branch_length(branch_length)?;
        let states = model.states();
        let categories = model.categories();
        if states != dict.states() {
            return Err(OpError::DictStates {
                model: states,
                dict: dict.states(),
            });
        }
        let n_masks = dict.len();
        let eigen = model.substitution().eigen();
        let ss = states * states;

        let mut pmats = vec![0.0; categories * ss];
        for (pmat, &rate) in pmats.chunks_exact_mut(ss).zip(model.gamma_rates()) {
            eigen.transition_matrix_into(branch_length * rate, pmat);
        }

        // Tip rows are sums of matrix *columns*, so every category is
        // transposed once: into the stored mirror for wide alphabets, into
        // stack scratch for DNA (a heap scratch would cost a fifth of a DNA
        // build).
        let wide = states > BLOCKED_DNA_STATES;
        let mut pmats_t = vec![0.0; if wide { pmats.len() } else { 0 }];
        let mut narrow = [0.0; BLOCKED_DNA_STATES * BLOCKED_DNA_STATES];
        let mut tip_sums = vec![0.0; categories * n_masks * states];
        let tip_rows = tip_sums.chunks_exact_mut(n_masks * states);
        for (c, (pmat, rows)) in pmats.chunks_exact(ss).zip(tip_rows).enumerate() {
            let cols = if wide {
                &mut pmats_t[c * ss..][..ss]
            } else {
                &mut narrow[..ss]
            };
            for (s, row) in pmat.chunks_exact(states).enumerate() {
                for (a, &p) in row.iter().enumerate() {
                    cols[a * states + s] = p;
                }
            }
            // Same call twice: the literal width lets the inlined copy
            // unroll its 4-entry loops (a third of a DNA build).
            match states {
                BLOCKED_DNA_STATES => fill_tip_rows(dict, BLOCKED_DNA_STATES, cols, rows),
                _ => fill_tip_rows(dict, states, cols, rows),
            }
        }

        Ok(Self {
            states,
            categories,
            pmats,
            pmats_t,
            tip_sums,
            dict: Arc::clone(dict),
        })
    }

    /// Number of base states.
    pub fn states(&self) -> usize {
        self.states
    }

    /// Number of rate categories.
    pub fn categories(&self) -> usize {
        self.categories
    }

    /// The transition matrix of one category (`states × states`, row-major).
    #[inline]
    pub fn pmat(&self, category: usize) -> &[f64] {
        &self.pmats[category * self.states * self.states..][..self.states * self.states]
    }

    /// The column-major transition matrix of one category
    /// (`pmat_t[a·states + s] = P_c[s][a]`), or `None` for DNA, which the
    /// blocked kernel handles row-major. See the `pmats_t` field doc.
    #[inline]
    pub fn pmat_t(&self, category: usize) -> Option<&[f64]> {
        if self.pmats_t.is_empty() {
            return None;
        }
        Some(&self.pmats_t[category * self.states * self.states..][..self.states * self.states])
    }

    /// The tip-sum row of one (category, dictionary index): the vector over
    /// target states `s` of `Σ_{a ∈ mask} P_c[s][a]`.
    #[inline]
    pub fn tip_row(&self, category: usize, mask_index: usize) -> &[f64] {
        &self.tip_sums[(category * self.dict.len() + mask_index) * self.states..][..self.states]
    }

    /// Every tip-sum row, category-major (`[(c·n_masks + m)·states + s]`):
    /// the blocked DNA kernel indexes it directly.
    #[inline]
    pub(crate) fn tip_rows(&self) -> &[f64] {
        &self.tip_sums
    }

    /// The mask dictionary the tip rows are indexed by.
    pub fn dict(&self) -> &MaskDictionary {
        &self.dict
    }

    /// The shared dictionary handle — its `Arc` identity keys the per-slice
    /// tip-index cache ([`crate::slice::SliceBuffers::tip_indices`]).
    pub fn dict_arc(&self) -> &Arc<MaskDictionary> {
        &self.dict
    }

    /// Bytes held by the tables (diagnostics).
    pub fn allocated_bytes(&self) -> usize {
        (self.pmats.len() + self.pmats_t.len() + self.tip_sums.len()) * std::mem::size_of::<f64>()
    }
}

/// The tables of one partition at one branch length under the partition's
/// current model, as the master issues them: empty until the first shard
/// that reads the slot builds them, then shared with every later reader.
///
/// The master keys slots by `(partition, length bits)` and drops a
/// partition's slots whenever its model changes, so a slot is only ever
/// resolved under the model it was issued for.
#[derive(Debug)]
pub struct TableSlot {
    dict: Arc<MaskDictionary>,
    length: f64,
    tables: OnceLock<BranchTables>,
}

impl TableSlot {
    /// An empty slot for the tables at `length` over the partition's `dict`.
    pub fn new(dict: Arc<MaskDictionary>, length: f64) -> Self {
        Self {
            dict,
            length,
            tables: OnceLock::new(),
        }
    }

    /// The branch length the tables are for.
    pub fn length(&self) -> f64 {
        self.length
    }

    /// The tables, if a shard has built them.
    pub fn get(&self) -> Option<&BranchTables> {
        self.tables.get()
    }

    /// The tables, built under `model` if no shard has yet; a build counts
    /// one into `built`. A reader never waits for another's build: it builds
    /// its own copy and publishes it, and a copy that lost the race is
    /// dropped.
    ///
    /// # Errors
    ///
    /// As [`BranchTables::build`]: [`OpError::DictStates`] when `model` is
    /// for another alphabet than the slot's dictionary,
    /// [`OpError::InvalidBranchLength`] for a length outside the domain.
    pub fn resolve(
        &self,
        model: &PartitionModel,
        built: &Cell<u64>,
    ) -> Result<&BranchTables, OpError> {
        if let Some(tables) = self.tables.get() {
            return Ok(tables);
        }
        let tables = BranchTables::build(model, &self.dict, self.length)?;
        built.set(built.get() + 1);
        Ok(self.tables.get_or_init(|| tables))
    }
}

/// The table payload of one traversal (a `Newview` command's own, or the
/// `TraversalDescriptor` riding on another command): for every partition
/// with a traversal plan, the (left, right) table slots of each step,
/// aligned index-for-index with the plan's steps.
#[derive(Debug, Clone)]
pub struct NewviewTables {
    /// One optional slot list per partition (`None` where the plan is
    /// `None`).
    pub per_partition: Vec<Option<Vec<StepTables>>>,
    /// Which inner-loop implementation consumes these tables.
    pub dispatch: KernelDispatch,
}

/// The table slots a single traversal step reads: one per child branch.
#[derive(Debug, Clone)]
pub struct StepTables {
    /// Slot of the branch towards the left child.
    pub left: Arc<TableSlot>,
    /// Slot of the branch towards the right child.
    pub right: Arc<TableSlot>,
}

/// The table payload of one `Evaluate` command: the virtual-root branch's
/// slot for every active partition.
#[derive(Debug, Clone)]
pub struct EdgeTables {
    /// One optional slot per partition (`None` for masked-out partitions).
    pub per_partition: Vec<Option<Arc<TableSlot>>>,
    /// Which inner-loop implementation consumes these tables.
    pub dispatch: KernelDispatch,
}

/// The kernel-boundary domain check for branch lengths.
///
/// # Errors
///
/// [`OpError::InvalidBranchLength`] for negative, NaN or infinite lengths.
#[inline]
pub fn validate_branch_length(t: f64) -> Result<(), OpError> {
    if !t.is_finite() || t < 0.0 {
        return Err(OpError::InvalidBranchLength { value: t });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use phylo_models::{ModelSet, PartitionModel};

    fn dna_model() -> PartitionModel {
        PartitionModel::default_for(DataType::Dna)
    }

    fn protein_model() -> PartitionModel {
        PartitionModel::default_for(DataType::Protein)
    }

    #[test]
    fn dna_dictionary_is_direct_and_complete() {
        let dict = MaskDictionary::for_partition(DataType::Dna, &[0b0101, 0b1111]);
        assert_eq!(dict.len(), 16);
        for mask in 0u32..16 {
            assert_eq!(dict.index_of(mask), Some(mask as usize));
            assert_eq!(dict.mask_at(mask as usize), mask);
        }
        assert_eq!(dict.index_of(16), None);
    }

    #[test]
    fn protein_dictionary_covers_canonical_common_and_observed() {
        let odd_mask: EncodedState = 0b1010_1010_1010_1010_1010; // not a real code
        let dict = MaskDictionary::for_partition(DataType::Protein, &[1 << 3, odd_mask]);
        // All 20 canonical masks.
        for i in 0..20u32 {
            assert!(dict.index_of(1 << i).is_some(), "canonical state {i}");
        }
        // The common ambiguity codes and the gap state.
        for c in ['B', 'Z', 'J'] {
            let mask = DataType::Protein.encode(c).unwrap();
            assert!(dict.index_of(mask).is_some(), "ambiguity code {c}");
        }
        assert!(dict.index_of(DataType::Protein.gap_state()).is_some());
        // The observed exotic mask is covered; an unobserved one is not.
        assert!(dict.index_of(odd_mask).is_some());
        assert_eq!(dict.index_of(0b11), None);
        assert!(!dict.is_empty());
        assert_eq!(dict.states(), 20);
    }

    #[test]
    fn tip_rows_match_the_reference_bit_loop_exactly() {
        for model in [dna_model(), protein_model()] {
            let states = model.states();
            let data_type = model.data_type();
            let dict = Arc::new(MaskDictionary::for_partition(data_type, &[]));
            let tables = BranchTables::build(&model, &dict, 0.37).unwrap();
            assert_eq!(tables.states(), states);
            assert_eq!(tables.categories(), model.categories());
            for c in 0..model.categories() {
                let pmat = tables.pmat(c);
                for m in 0..dict.len() {
                    let mask = dict.mask_at(m);
                    let row = tables.tip_row(c, m);
                    for s in 0..states {
                        let reference = mask_sum(&pmat[s * states..s * states + states], mask);
                        // Bit-for-bit: same additions in the same order.
                        assert!(
                            row[s] == reference,
                            "c={c} mask={mask:#b} s={s}: {} vs {reference}",
                            row[s]
                        );
                    }
                }
            }
            assert!(tables.allocated_bytes() > 0);
        }
    }

    #[test]
    fn pmats_match_the_per_call_computation() {
        let model = dna_model();
        let dict = Arc::new(MaskDictionary::for_partition(DataType::Dna, &[]));
        let t = 0.21;
        let tables = BranchTables::build(&model, &dict, t).unwrap();
        for (c, &rate) in model.gamma_rates().iter().enumerate() {
            let mut reference = vec![0.0; 16];
            model
                .substitution()
                .eigen()
                .transition_matrix_into(t * rate, &mut reference);
            assert_eq!(tables.pmat(c), &reference[..], "category {c}");
        }
    }

    #[test]
    fn out_of_domain_branch_lengths_are_typed_errors() {
        let model = dna_model();
        let dict = Arc::new(MaskDictionary::for_partition(DataType::Dna, &[]));
        for bad in [-1.0, -1e-30, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = BranchTables::build(&model, &dict, bad).unwrap_err();
            assert!(
                matches!(err, OpError::InvalidBranchLength { .. }),
                "{bad}: {err:?}"
            );
        }
        // Zero and positive lengths are in-domain.
        assert!(BranchTables::build(&model, &dict, 0.0).is_ok());
        assert!(validate_branch_length(1.5).is_ok());
    }

    #[test]
    fn model_set_round_trip_builds_per_partition_tables() {
        use phylo_data::{Alignment, PartitionSet, PartitionedPatterns};
        let aln = Alignment::new(vec![
            ("t1".into(), "ACGTACGT".into()),
            ("t2".into(), "ACGAACGA".into()),
        ])
        .unwrap();
        let ps = PartitionSet::equal_length(DataType::Dna, 8, 4);
        let pp = PartitionedPatterns::compile(&aln, &ps).unwrap();
        let models = ModelSet::default_for(&pp, phylo_models::BranchLengthMode::Joint);
        for (pi, part) in pp.partitions.iter().enumerate() {
            let dict = Arc::new(MaskDictionary::for_partition(
                part.data_type,
                &part.tip_states,
            ));
            let tables = BranchTables::build(models.model(pi), &dict, 0.1).unwrap();
            assert_eq!(tables.dict().len(), 16);
        }
    }
}
