//! Per-worker pattern slices and likelihood-vector buffers.
//!
//! The paper's parallelization assigns the `m′` distinct alignment patterns to
//! worker threads cyclically (pattern `g` goes to thread `g mod T`), which
//! balances mixed DNA/protein inputs. Each worker owns, for every partition,
//! the tip states and weights of *its* patterns and the conditional likelihood
//! vectors (CLVs) over those patterns. Nothing is shared between workers
//! except through reductions, which is exactly the Pthreads layout of RAxML
//! and what makes the scheme data-race free by construction.
//!
//! Which worker owns which pattern is decided *outside* this module: the
//! `phylo-sched` crate produces an explicit owner map (its `Assignment` type)
//! from a pluggable scheduling strategy, and
//! [`WorkerSlices::from_assignment`] materializes one worker's view of it.
//! The [`WorkerSlices::cyclic`] and [`WorkerSlices::block`] constructors
//! remain as the two fixed schemes of the paper (and as the reference
//! implementations the scheduler's strategies are tested against); arbitrary
//! assignment functions go through [`WorkerSlices::with_assignment`]. Either
//! way a worker's patterns are copied into dense per-partition buffers, so
//! the global indices it owns change nothing about how it scans them; what a
//! placement changes is how many partitions each worker touches.

use std::cell::Cell;
use std::sync::Arc;

use phylo_data::{DataType, EncodedState, PartitionedPatterns};

use crate::error::OpError;
use crate::tables::MaskDictionary;

/// Sentinel in the tip-index cache for a mask outside the dictionary (the
/// kernels then fall back to the reference bit loop for that pattern).
pub const TIP_INDEX_NONE: u32 = u32::MAX;

/// One worker's view of one partition: the locally owned patterns.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionSlice {
    /// Index of the partition in the dataset.
    pub partition: usize,
    /// Data type (4 or 20 states).
    pub data_type: DataType,
    /// Number of taxa.
    pub n_taxa: usize,
    /// Tip states of the local patterns, pattern-major
    /// (`tip_states[p * n_taxa + t]`).
    pub tip_states: Vec<EncodedState>,
    /// Pattern weights of the local patterns.
    pub weights: Vec<f64>,
    /// Global pattern indices of the local patterns (diagnostics only).
    pub global_indices: Vec<usize>,
}

impl PartitionSlice {
    /// Number of locally owned patterns.
    pub fn pattern_count(&self) -> usize {
        self.weights.len()
    }

    /// Number of character states.
    pub fn states(&self) -> usize {
        self.data_type.states()
    }

    /// Tip state of `taxon` at local pattern `pattern`.
    #[inline]
    pub fn tip_state(&self, pattern: usize, taxon: usize) -> EncodedState {
        self.tip_states[pattern * self.n_taxa + taxon]
    }
}

/// The CLV and scaling buffers a worker owns for one partition.
#[derive(Debug, Clone)]
pub struct SliceBuffers {
    patterns: usize,
    states: usize,
    categories: usize,
    node_capacity: usize,
    /// CLVs per internal node (lazily allocated); length
    /// `patterns × categories × states`, layout `[pattern][category][state]`.
    clvs: Vec<Option<Vec<f64>>>,
    /// Per-node, per-pattern scaling event counters.
    scales: Vec<Option<Vec<i32>>>,
    /// Sum table for the branch currently being optimized; length
    /// `patterns × categories × states`.
    sumtable: Vec<f64>,
    /// Scaling counter total for the branch the sum table was built for.
    sumtable_scale: Vec<i32>,
    /// Tip-state → dictionary-index cache, pattern-major
    /// (`tip_indices[p * n_taxa + t]`, [`TIP_INDEX_NONE`] = not in the
    /// dictionary). Built lazily by [`SliceBuffers::tip_indices`].
    tip_indices: Vec<u32>,
    /// Arc identity of the dictionary the cache was built for (0 = unbuilt).
    tip_dict_key: usize,
    /// Whether the cache holds a [`TIP_INDEX_NONE`] entry: set when it is
    /// built, so a kernel that needs every tip indexed checks one flag
    /// instead of scanning.
    tips_outside_dict: bool,
    /// Column-major copies of one blocked DNA step's 4×4 transition matrices
    /// (`[a·4 + s] = P_c[s][a]`), rewritten by every step. Grows to the
    /// largest step seen and is then reused: no allocation per step.
    dna_columns: Vec<[f64; 16]>,
    /// Lookups served from the cache (each one an avoided dictionary
    /// search). `Cell`: counted while the CLVs are borrowed immutably.
    tip_hits: Cell<u64>,
    /// Dictionary searches performed while (re)building the cache.
    tip_misses: Cell<u64>,
    /// Number of cache (re)builds.
    tip_builds: Cell<u64>,
}

impl SliceBuffers {
    /// Allocates buffers for a slice with `patterns` local patterns on a tree
    /// with `node_capacity` node slots and a model with `categories` rate
    /// categories.
    pub fn new(patterns: usize, states: usize, categories: usize, node_capacity: usize) -> Self {
        Self {
            patterns,
            states,
            categories,
            node_capacity,
            clvs: vec![None; node_capacity],
            scales: vec![None; node_capacity],
            sumtable: Vec::new(),
            sumtable_scale: Vec::new(),
            tip_indices: Vec::new(),
            tip_dict_key: 0,
            tips_outside_dict: false,
            dna_columns: Vec::new(),
            tip_hits: Cell::new(0),
            tip_misses: Cell::new(0),
            tip_builds: Cell::new(0),
        }
    }

    /// Number of local patterns.
    pub fn patterns(&self) -> usize {
        self.patterns
    }

    /// Number of states.
    pub fn states(&self) -> usize {
        self.states
    }

    /// Number of rate categories.
    pub fn categories(&self) -> usize {
        self.categories
    }

    /// Length of one CLV (`patterns × categories × states`).
    pub fn clv_len(&self) -> usize {
        self.patterns * self.categories * self.states
    }

    /// Returns the CLV of `node`, allocating it zero-filled on first use.
    pub fn clv_mut(&mut self, node: usize) -> &mut Vec<f64> {
        let len = self.clv_len();
        self.clvs[node].get_or_insert_with(|| vec![0.0; len])
    }

    /// Returns the CLV of `node` if it has been computed before.
    pub fn clv(&self, node: usize) -> Option<&Vec<f64>> {
        self.clvs[node].as_ref()
    }

    /// Returns the scaling counters of `node`, allocating on first use.
    pub fn scale_mut(&mut self, node: usize) -> &mut Vec<i32> {
        let len = self.patterns;
        self.scales[node].get_or_insert_with(|| vec![0; len])
    }

    /// Returns the scaling counters of `node` if present.
    pub fn scale(&self, node: usize) -> Option<&Vec<i32>> {
        self.scales[node].as_ref()
    }

    /// Takes the CLV and scale buffers of `node` out of the store, so that a
    /// new CLV can be computed into them while the children's CLVs are still
    /// borrowed immutably. [`SliceBuffers::put_back`] returns them.
    pub fn take_node(&mut self, node: usize) -> (Vec<f64>, Vec<i32>) {
        let len = self.clv_len();
        let clv = self.clvs[node].take().unwrap_or_else(|| vec![0.0; len]);
        let scale = self.scales[node]
            .take()
            .unwrap_or_else(|| vec![0; self.patterns]);
        (clv, scale)
    }

    /// Returns buffers previously removed with [`SliceBuffers::take_node`].
    ///
    /// # Errors
    ///
    /// [`OpError::ClvShape`] / [`OpError::ScaleShape`] when the returned
    /// buffers do not match the slice shape. This used to be a
    /// `debug_assert_eq!` — release builds silently stored mismatched CLVs
    /// (e.g. ones computed for a different local pattern count after a
    /// mid-round migration), corrupting every later read. The buffers are
    /// *not* stored on error.
    pub fn put_back(&mut self, node: usize, clv: Vec<f64>, scale: Vec<i32>) -> Result<(), OpError> {
        if clv.len() != self.clv_len() {
            return Err(OpError::ClvShape {
                node,
                expected: self.clv_len(),
                got: clv.len(),
            });
        }
        if scale.len() != self.patterns {
            return Err(OpError::ScaleShape {
                node,
                expected: self.patterns,
                got: scale.len(),
            });
        }
        self.clvs[node] = Some(clv);
        self.scales[node] = Some(scale);
        Ok(())
    }

    /// Drops the branch sum table (and its scale counters), so that a later
    /// derivative evaluation fails with a typed
    /// [`OpError::SumtableStale`] instead of silently reading
    /// stale values. Reassignment paths rebuild the buffers from scratch
    /// (fresh, empty sum tables); this is the explicit form for callers that
    /// reuse buffers across a change that invalidates the table.
    pub fn invalidate_sumtable(&mut self) {
        self.sumtable.clear();
        self.sumtable_scale.clear();
    }

    /// The branch sum table (empty until
    /// [`crate::ops::build_sumtable`] fills it).
    pub fn sumtable(&self) -> &[f64] {
        &self.sumtable
    }

    /// Scaling counters accompanying the sum table.
    pub fn sumtable_scale(&self) -> &[i32] {
        &self.sumtable_scale
    }

    /// Mutable access for the sum-table builder.
    pub fn sumtable_mut(&mut self) -> (&mut Vec<f64>, &mut Vec<i32>) {
        (&mut self.sumtable, &mut self.sumtable_scale)
    }

    /// Ensures the tip-index cache is built for `dict` and returns it.
    ///
    /// The cache translates every `(pattern, taxon)` tip-state mask of the
    /// slice to its [`MaskDictionary`] index **once per slice**, so the
    /// tabled kernels read an array entry per pattern instead of redoing the
    /// binary search per `newview`/`evaluate` call (the protein-partition hot
    /// spot). Entries are [`TIP_INDEX_NONE`] for masks outside the
    /// dictionary. The cache is keyed on the dictionary's `Arc` identity:
    /// passing a different dictionary (or a rebuilt slice after migration)
    /// rebuilds it.
    pub fn tip_indices(&mut self, slice: &PartitionSlice, dict: &Arc<MaskDictionary>) -> &[u32] {
        let key = Arc::as_ptr(dict) as usize;
        if self.tip_dict_key != key {
            self.tip_indices.clear();
            self.tip_indices.reserve(slice.tip_states.len());
            for &mask in &slice.tip_states {
                let index = dict.index_of(mask).map_or(TIP_INDEX_NONE, |i| i as u32);
                // lint:allow(L007): once-per-(slice, dictionary) cache rebuild, sized by
                // the reserve() above; amortized across ops, not a per-pattern allocation.
                self.tip_indices.push(index);
            }
            self.tip_dict_key = key;
            self.tips_outside_dict = self.tip_indices.contains(&TIP_INDEX_NONE);
            self.tip_builds.set(self.tip_builds.get() + 1);
            self.tip_misses
                .set(self.tip_misses.get() + slice.tip_states.len() as u64);
        }
        &self.tip_indices
    }

    /// The current cache contents without (re)building. Valid only after a
    /// [`SliceBuffers::tip_indices`] call with the live dictionary — the
    /// kernels ensure first, then read through this while the CLVs hold
    /// immutable borrows of the buffers.
    #[inline]
    pub fn cached_tip_indices(&self) -> &[u32] {
        &self.tip_indices
    }

    /// Whether the current cache holds a mask outside its dictionary
    /// ([`TIP_INDEX_NONE`]). Same validity rule as
    /// [`SliceBuffers::cached_tip_indices`].
    #[inline]
    pub(crate) fn cached_tips_outside_dictionary(&self) -> bool {
        self.tips_outside_dict
    }

    /// The first `n` slots of the blocked DNA kernels' column-major matrix
    /// scratch, grown on first use.
    pub(crate) fn dna_columns_mut(&mut self, n: usize) -> &mut [[f64; 16]] {
        if self.dna_columns.len() < n {
            self.dna_columns.resize(n, [0.0; 16]);
        }
        &mut self.dna_columns[..n]
    }

    /// The blocked DNA kernels' column-major matrix scratch, as the last
    /// [`SliceBuffers::dna_columns_mut`] left it.
    #[inline]
    pub(crate) fn dna_columns(&self) -> &[[f64; 16]] {
        &self.dna_columns
    }

    /// Counts `n` tip lookups served from the cache (each one an avoided
    /// dictionary search). Interior mutability so the kernels can count while
    /// the CLV buffers are borrowed.
    #[inline]
    pub fn count_tip_hits(&self, n: u64) {
        self.tip_hits.set(self.tip_hits.get() + n);
    }

    /// Current tip-index cache counters: `(hits, misses, builds)`.
    pub fn tip_cache_counters(&self) -> (u64, u64, u64) {
        (
            self.tip_hits.get(),
            self.tip_misses.get(),
            self.tip_builds.get(),
        )
    }

    /// Drains the tip-index cache counters: `(hits, misses, builds)` since
    /// the last drain. Executors ship these per-region deltas to telemetry.
    pub fn take_tip_cache_counters(&self) -> (u64, u64, u64) {
        (
            self.tip_hits.take(),
            self.tip_misses.take(),
            self.tip_builds.take(),
        )
    }

    /// Total number of bytes currently allocated for CLVs (diagnostics).
    pub fn allocated_bytes(&self) -> usize {
        self.clvs
            .iter()
            .flatten()
            .map(|v| v.len() * std::mem::size_of::<f64>())
            .sum()
    }

    /// Node capacity the buffers were sized for.
    pub fn node_capacity(&self) -> usize {
        self.node_capacity
    }
}

/// Everything one worker owns: a slice and a buffer per partition.
#[derive(Debug, Clone)]
pub struct WorkerSlices {
    /// Worker index in `0..worker_count`.
    pub worker: usize,
    /// Total number of workers the patterns were distributed over.
    pub worker_count: usize,
    /// One slice per partition (same order as the dataset's partitions).
    pub slices: Vec<PartitionSlice>,
    /// One buffer per partition.
    pub buffers: Vec<SliceBuffers>,
    /// Branch tables this worker built since the last drain: the slots it
    /// was the first to read (see [`crate::tables::TableSlot::resolve`]).
    pub(crate) tables_built: Cell<u64>,
}

impl WorkerSlices {
    /// Builds worker `worker` of `worker_count` from the compiled patterns,
    /// assigning global pattern `g` to worker `g mod worker_count` (the
    /// paper's cyclic distribution) and sizing the CLV buffers for a tree with
    /// `node_capacity` node slots and models with `categories` rate
    /// categories per partition.
    pub fn cyclic(
        patterns: &PartitionedPatterns,
        worker: usize,
        worker_count: usize,
        node_capacity: usize,
        categories: &[usize],
    ) -> Self {
        Self::with_assignment(
            patterns,
            worker,
            worker_count,
            node_capacity,
            categories,
            |g| g % worker_count,
        )
    }

    /// Builds worker `worker` with a *block* distribution: the global pattern
    /// index space is cut into `worker_count` contiguous chunks. This is the
    /// alternative the paper argues against for mixed DNA/protein inputs.
    pub fn block(
        patterns: &PartitionedPatterns,
        worker: usize,
        worker_count: usize,
        node_capacity: usize,
        categories: &[usize],
    ) -> Self {
        let total = patterns.total_patterns();
        let chunk = total.div_ceil(worker_count).max(1);
        Self::with_assignment(
            patterns,
            worker,
            worker_count,
            node_capacity,
            categories,
            |g| (g / chunk).min(worker_count - 1),
        )
    }

    /// Builds worker `worker` from an explicit owner map: `owners[g]` is the
    /// worker owning global pattern `g`, as produced by a `phylo-sched`
    /// scheduling strategy (`Assignment::owner()`).
    ///
    /// # Panics
    ///
    /// Panics if `owners` does not cover exactly the dataset's patterns, if
    /// `worker >= worker_count`, or if `categories` does not match the
    /// partition count.
    pub fn from_assignment(
        patterns: &PartitionedPatterns,
        worker: usize,
        worker_count: usize,
        node_capacity: usize,
        categories: &[usize],
        owners: &[usize],
    ) -> Self {
        assert_eq!(
            owners.len(),
            patterns.total_patterns(),
            "owner map must cover every global pattern"
        );
        assert!(
            owners.iter().all(|&w| w < worker_count),
            "owner map names a worker outside 0..{worker_count}"
        );
        Self::with_assignment(
            patterns,
            worker,
            worker_count,
            node_capacity,
            categories,
            |g| owners[g],
        )
    }

    /// Builds worker `worker` of `worker_count` with an arbitrary assignment
    /// function from global pattern index to owning worker.
    pub fn with_assignment<F: Fn(usize) -> usize>(
        patterns: &PartitionedPatterns,
        worker: usize,
        worker_count: usize,
        node_capacity: usize,
        categories: &[usize],
        assign: F,
    ) -> Self {
        assert!(worker < worker_count, "worker index out of range");
        assert_eq!(categories.len(), patterns.partition_count());
        // Install-time work: one allocation per slice field and partition,
        // never per region.
        let slices: Vec<PartitionSlice> = patterns
            .partitions
            .iter()
            .enumerate()
            .map(|(pi, part)| {
                let offset = patterns.global_offset(pi);
                let owned: Vec<usize> = (offset..offset + part.pattern_count())
                    .filter(|&global| assign(global) == worker)
                    .collect();
                let states = owned.iter().flat_map(|&g| part.pattern_states(g - offset));
                PartitionSlice {
                    partition: pi,
                    data_type: part.data_type,
                    n_taxa: part.n_taxa,
                    tip_states: states.copied().collect(),
                    weights: owned.iter().map(|&g| part.weights[g - offset]).collect(),
                    global_indices: owned,
                }
            })
            .collect();
        let buffers = slices
            .iter()
            .zip(&patterns.partitions)
            .map(|(slice, part)| {
                let states = part.data_type.states();
                let categories = categories[slice.partition];
                SliceBuffers::new(slice.pattern_count(), states, categories, node_capacity)
            })
            .collect();
        Self {
            worker,
            worker_count,
            slices,
            buffers,
            tables_built: Cell::new(0),
        }
    }

    /// Total number of local patterns across all partitions.
    pub fn total_patterns(&self) -> usize {
        self.slices.iter().map(|s| s.pattern_count()).sum()
    }

    /// Drains the tip-index cache counters of every partition buffer, summed:
    /// `(hits, misses, builds)` since the last drain.
    pub fn take_tip_cache_counters(&self) -> (u64, u64, u64) {
        let mut total = (0, 0, 0);
        for buffer in &self.buffers {
            let (h, m, b) = buffer.take_tip_cache_counters();
            total.0 += h;
            total.1 += m;
            total.2 += b;
        }
        total
    }

    /// Drains the count of branch tables this worker built since the last
    /// drain. Executors ship these per-region deltas to telemetry.
    pub fn take_table_builds(&self) -> u64 {
        self.tables_built.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phylo_data::{Alignment, DataType, PartitionSet, PartitionedPatterns};

    fn patterns() -> PartitionedPatterns {
        let aln = Alignment::new(vec![
            ("t1".into(), "ACGTACGTACGTACGTAAGG".into()),
            ("t2".into(), "ACGTACGAACGTACGAAAGC".into()),
            ("t3".into(), "ACCTACGAACCTACGAATGC".into()),
        ])
        .unwrap();
        let ps = PartitionSet::equal_length(DataType::Dna, 20, 5);
        PartitionedPatterns::compile(&aln, &ps).unwrap()
    }

    #[test]
    fn cyclic_distribution_covers_every_pattern_once() {
        let pp = patterns();
        let categories = vec![4; pp.partition_count()];
        let workers: Vec<WorkerSlices> = (0..3)
            .map(|w| WorkerSlices::cyclic(&pp, w, 3, 8, &categories))
            .collect();
        let total: usize = workers.iter().map(|w| w.total_patterns()).sum();
        assert_eq!(total, pp.total_patterns());
        // Global indices across workers are disjoint and complete.
        let mut all: Vec<usize> = workers
            .iter()
            .flat_map(|w| w.slices.iter().flat_map(|s| s.global_indices.clone()))
            .collect();
        all.sort_unstable();
        let expected: Vec<usize> = (0..pp.total_patterns()).collect();
        assert_eq!(all, expected);
    }

    #[test]
    fn cyclic_distribution_is_balanced() {
        let pp = patterns();
        let categories = vec![4; pp.partition_count()];
        let counts: Vec<usize> = (0..4)
            .map(|w| WorkerSlices::cyclic(&pp, w, 4, 8, &categories).total_patterns())
            .collect();
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        assert!(
            max - min <= 1,
            "cyclic distribution must be balanced: {counts:?}"
        );
    }

    #[test]
    fn single_worker_owns_everything() {
        let pp = patterns();
        let categories = vec![4; pp.partition_count()];
        let w = WorkerSlices::cyclic(&pp, 0, 1, 8, &categories);
        assert_eq!(w.total_patterns(), pp.total_patterns());
        for (slice, part) in w.slices.iter().zip(pp.partitions.iter()) {
            assert_eq!(slice.pattern_count(), part.pattern_count());
            assert_eq!(slice.tip_states, part.tip_states);
        }
    }

    #[test]
    fn more_workers_than_patterns_leaves_some_empty() {
        // This is exactly the situation the paper describes: short partitions
        // and many threads mean some threads have no pattern of a partition.
        let pp = patterns();
        let categories = vec![4; pp.partition_count()];
        let workers: Vec<WorkerSlices> = (0..16)
            .map(|w| WorkerSlices::cyclic(&pp, w, 16, 8, &categories))
            .collect();
        let empty_slices = workers
            .iter()
            .flat_map(|w| w.slices.iter())
            .filter(|s| s.pattern_count() == 0)
            .count();
        assert!(
            empty_slices > 0,
            "expected idle (empty) slices with 16 workers"
        );
    }

    #[test]
    fn from_assignment_matches_cyclic_owner_map() {
        let pp = patterns();
        let categories = vec![4; pp.partition_count()];
        let owners: Vec<usize> = (0..pp.total_patterns()).map(|g| g % 3).collect();
        for w in 0..3 {
            let via_map = WorkerSlices::from_assignment(&pp, w, 3, 8, &categories, &owners);
            let via_cyclic = WorkerSlices::cyclic(&pp, w, 3, 8, &categories);
            assert_eq!(via_map.slices, via_cyclic.slices);
        }
    }

    #[test]
    #[should_panic(expected = "owner map names a worker outside")]
    fn from_assignment_rejects_out_of_range_owners() {
        let pp = patterns();
        let categories = vec![4; pp.partition_count()];
        let owners: Vec<usize> = (0..pp.total_patterns()).map(|g| g % 3).collect();
        let _ = WorkerSlices::from_assignment(&pp, 0, 2, 8, &categories, &owners);
    }

    #[test]
    #[should_panic(expected = "owner map must cover every global pattern")]
    fn from_assignment_rejects_short_owner_maps() {
        let pp = patterns();
        let categories = vec![4; pp.partition_count()];
        let owners = vec![0; pp.total_patterns() - 1];
        let _ = WorkerSlices::from_assignment(&pp, 0, 2, 8, &categories, &owners);
    }

    #[test]
    fn buffers_allocate_lazily_and_round_trip() {
        let pp = patterns();
        let categories = vec![4; pp.partition_count()];
        let mut w = WorkerSlices::cyclic(&pp, 0, 2, 8, &categories);
        let buf = &mut w.buffers[0];
        assert_eq!(buf.allocated_bytes(), 0);
        assert!(buf.clv(5).is_none());
        buf.clv_mut(5)[0] = 1.25;
        assert_eq!(buf.clv(5).unwrap()[0], 1.25);
        assert!(buf.allocated_bytes() > 0);

        let (mut clv, mut scale) = buf.take_node(5);
        clv[1] = 2.5;
        scale[0] = 3;
        buf.put_back(5, clv, scale).unwrap();
        assert_eq!(buf.clv(5).unwrap()[1], 2.5);
        assert_eq!(buf.scale(5).unwrap()[0], 3);
    }

    #[test]
    fn put_back_rejects_mismatched_shapes_in_release_builds() {
        let pp = patterns();
        let categories = vec![4; pp.partition_count()];
        let mut w = WorkerSlices::cyclic(&pp, 0, 2, 8, &categories);
        let buf = &mut w.buffers[0];
        let (clv, scale) = buf.take_node(5);

        // A CLV computed for a different pattern count (the post-migration
        // staleness hazard) must fail as a typed value, not a debug_assert.
        let short_clv = vec![0.0; clv.len().saturating_sub(1)];
        let err = buf.put_back(5, short_clv, scale.clone()).unwrap_err();
        assert!(matches!(err, OpError::ClvShape { node: 5, .. }), "{err:?}");

        let short_scale = vec![0; scale.len() + 2];
        let err = buf.put_back(5, clv.clone(), short_scale).unwrap_err();
        assert!(
            matches!(err, OpError::ScaleShape { node: 5, .. }),
            "{err:?}"
        );

        // Nothing was stored by the failed calls.
        assert!(buf.clv(5).is_none());
        buf.put_back(5, clv, scale).unwrap();
        assert!(buf.clv(5).is_some());
    }

    #[test]
    fn invalidate_sumtable_empties_both_buffers() {
        let pp = patterns();
        let categories = vec![4; pp.partition_count()];
        let mut w = WorkerSlices::cyclic(&pp, 0, 1, 8, &categories);
        let buf = &mut w.buffers[0];
        let len = buf.clv_len();
        {
            let (t, s) = buf.sumtable_mut();
            t.resize(len, 1.0);
            s.resize(3, 1);
        }
        assert!(!buf.sumtable().is_empty());
        buf.invalidate_sumtable();
        assert!(buf.sumtable().is_empty());
        assert!(buf.sumtable_scale().is_empty());
    }

    #[test]
    fn tip_index_cache_builds_once_per_dictionary_and_counts() {
        let pp = patterns();
        let categories = vec![4; pp.partition_count()];
        let mut w = WorkerSlices::cyclic(&pp, 0, 2, 8, &categories);
        let part = &pp.partitions[0];
        let dict = Arc::new(MaskDictionary::for_partition(
            part.data_type,
            &part.tip_states,
        ));
        let slice = w.slices[0].clone();
        let buf = &mut w.buffers[0];
        let n = slice.tip_states.len();

        // First call builds: every entry matches a direct dictionary lookup.
        let cached: Vec<u32> = buf.tip_indices(&slice, &dict).to_vec();
        assert_eq!(cached.len(), n);
        for p in 0..slice.pattern_count() {
            for t in 0..slice.n_taxa {
                let mask = slice.tip_state(p, t);
                let expected = dict.index_of(mask).map_or(TIP_INDEX_NONE, |i| i as u32);
                assert_eq!(cached[p * slice.n_taxa + t], expected);
            }
        }
        assert_eq!(buf.tip_cache_counters(), (0, n as u64, 1));

        // Same dictionary: no rebuild. Hits are counted by the caller.
        let _ = buf.tip_indices(&slice, &dict);
        buf.count_tip_hits(7);
        assert_eq!(buf.tip_cache_counters(), (7, n as u64, 1));

        // A different dictionary Arc rebuilds.
        let other = Arc::new(MaskDictionary::for_partition(
            part.data_type,
            &part.tip_states,
        ));
        let _ = buf.tip_indices(&slice, &other);
        assert_eq!(buf.tip_cache_counters(), (7, 2 * n as u64, 2));
        assert!(!buf.cached_tips_outside_dictionary());

        // A mask no dictionary entry matches raises the one flag at build.
        let mut odd = slice.clone();
        odd.tip_states[n - 1] = 1 << 4;
        let _ = buf.tip_indices(&odd, &dict);
        assert!(buf.cached_tips_outside_dictionary());
        let _ = buf.tip_indices(&slice, &other);
        assert!(!buf.cached_tips_outside_dictionary());

        // Draining resets and sums across a worker's buffers.
        let (h, m, b) = w.take_tip_cache_counters();
        assert_eq!((h, m, b), (7, 4 * n as u64, 4));
        assert_eq!(w.take_tip_cache_counters(), (0, 0, 0));
    }

    #[test]
    fn tip_state_accessor_matches_source() {
        let pp = patterns();
        let categories = vec![4; pp.partition_count()];
        let w = WorkerSlices::cyclic(&pp, 1, 2, 8, &categories);
        for slice in &w.slices {
            let part = &pp.partitions[slice.partition];
            for (local, &global) in slice.global_indices.iter().enumerate() {
                let local_in_part = global - pp.global_offset(slice.partition);
                for t in 0..slice.n_taxa {
                    assert_eq!(slice.tip_state(local, t), part.tip_state(local_in_part, t));
                }
            }
        }
    }
}
