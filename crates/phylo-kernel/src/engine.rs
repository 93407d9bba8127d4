//! The high-level likelihood engine.
//!
//! [`LikelihoodKernel`] plays the role of the *master thread* in the paper's
//! parallelization: it owns the tree, the per-partition models, the branch
//! lengths and the CLV validity cache, and it drives an [`Executor`] by
//! issuing kernel commands (traversal lists, evaluations, sum tables,
//! derivative evaluations) — ONE command per likelihood call: an evaluation
//! or a branch preparation ships the traversal that brings its CLVs up to
//! date inside the command that reads them. Everything the optimizers and
//! the tree search do goes through this type, so the *number of commands
//! issued* — the synchronization count that distinguishes oldPAR from newPAR
//! — is visible in one place.
//!
//! # Fallible API
//!
//! The engine's likelihood-facing methods are the **`try_*` family** —
//! [`LikelihoodKernel::try_update_clvs`],
//! [`LikelihoodKernel::try_log_likelihood`] (and `_at` / `_partitions`),
//! [`LikelihoodKernel::try_prepare_branch`] (and `_at`),
//! [`LikelihoodKernel::try_branch_derivatives`], plus the fallible
//! constructor [`LikelihoodKernel::try_new`] — all returning
//! [`KernelError`]. A worker death in a parallel backend surfaces as
//! `KernelError::Exec(ExecError::WorkerDied { .. })`, and drivers that hold
//! a `Reassignable` executor can *recover* by rebuilding the workers and
//! resuming. (The panicking wrappers of the pre-fallible API —
//! `log_likelihood` & co. — were deleted one release after their
//! deprecation, as promised.)

use std::collections::HashMap;
use std::sync::{Arc, Weak};

use phylo_data::PartitionedPatterns;
use phylo_models::{BranchLengthMode, ModelSet};
use phylo_tree::spr::{self, SprMove, SprUndo};
use phylo_tree::{BranchId, TraversalPlan, Tree, TreeError};

use crate::branch_lengths::BranchLengths;
use crate::error::KernelError;
use crate::executor::{
    ExecContext, Executor, KernelOp, OpOutput, PartitionMask, SequentialExecutor,
    TraversalDescriptor,
};
use crate::ops::EdgeDerivatives;
use crate::tables::{
    validate_branch_length, EdgeTables, KernelDispatch, MaskDictionary, NewviewTables, StepTables,
    TableSlot,
};
use crate::validity::ClvValidity;

/// Counters describing how much work the engine has issued.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Total CLV updates issued (traversal steps × active partitions).
    pub newview_node_updates: u64,
    /// Number of evaluate commands issued.
    pub evaluations: u64,
    /// Number of sum-table commands issued.
    pub sumtable_builds: u64,
    /// Number of derivative commands issued.
    pub derivative_calls: u64,
    /// Number of SPR moves applied.
    pub spr_moves: u64,
    /// Table slots issued by the master (cache misses), each built inside
    /// the region that first reads it; lookups served from the cache are
    /// free and not counted.
    pub table_builds: u64,
    /// Branch-table requests served by *cross-branch* sharing: the branch had
    /// no cached entry, but another branch of the same partition with the
    /// same stored length (hence identical per-category `t·r` products and
    /// identical transition/tip-lookup tables) already held a slot. Common
    /// once smoothing converges and many branches settle on equal lengths.
    pub table_dedup_hits: u64,
}

/// The master-side store of branch-table slots: one [`MaskDictionary`] per
/// partition (fixed for the dataset's lifetime) and a dense
/// `[partition][branch]` grid of `Arc<TableSlot>`s, emptied whenever the
/// branch's length or the partition's model changes (and wholesale on
/// topology changes). See [`crate::tables`] for what a slot holds and who
/// builds it.
#[derive(Debug, Clone)]
struct TableStore {
    /// Inner-loop implementation stamped into every table payload.
    dispatch: KernelDispatch,
    dicts: Vec<Arc<MaskDictionary>>,
    /// `cache[partition][branch]`: a hit indexes twice and hashes nothing,
    /// and dropping one partition touches that partition's row only.
    cache: Vec<Vec<Option<Arc<TableSlot>>>>,
    /// Cross-branch sharing index, one map per partition: `length bits →`
    /// the slot *some branch of that partition still holds* for that exact
    /// stored length. A table is a pure function of (model, dictionary,
    /// length), and within a partition the model and dictionary are fixed,
    /// so an equal length means identical per-category `t·r` products and
    /// therefore identical tables — the slot can be handed to any branch.
    /// The index holds `Weak`s: it never extends a slot's life, so the slot
    /// of a probe length no branch kept dies with its cache entry. (A
    /// command payload a worker has not dropped yet is a holder too; that
    /// can only decide whether a slot is shared, never what its tables
    /// hold.) Length changes leave the map untouched (the entries are keyed
    /// by the value, not the branch); model changes clear the partition's
    /// map; topology changes clear them all.
    by_length: Vec<HashMap<u64, Weak<TableSlot>>>,
}

/// Floor of the per-partition bound on the sharing index (the bound itself
/// is twice the partition's cache entries, see
/// `TableStore::remember_length`).
const LENGTH_INDEX_MIN_CAP: usize = 64;

impl TableStore {
    fn new(patterns: &PartitionedPatterns, branches: usize) -> Self {
        let dicts: Vec<_> = patterns
            .partitions
            .iter()
            .map(|p| Arc::new(MaskDictionary::for_partition(p.data_type, &p.tip_states)))
            .collect();
        Self {
            dispatch: KernelDispatch::default(),
            cache: vec![vec![None; branches]; dicts.len()],
            by_length: vec![HashMap::new(); dicts.len()],
            dicts,
        }
    }

    fn invalidate_branch(&mut self, partition: Option<usize>, branch: BranchId) {
        match partition {
            Some(p) => self.cache[p][branch] = None,
            None => self.cache.iter_mut().for_each(|row| row[branch] = None),
        }
    }

    fn invalidate_partition(&mut self, partition: usize) {
        self.cache[partition].fill(None);
        self.by_length[partition].clear();
    }

    fn clear(&mut self) {
        for partition in 0..self.cache.len() {
            self.invalidate_partition(partition);
        }
    }

    /// Offers a freshly issued slot to the other branches of the partition.
    /// Every length a branch moved away from leaves a dead entry behind; once
    /// the map is twice the size the live ones can fill (one per cache
    /// entry), the dead are dropped — a liveness test per entry, so the hash
    /// order the walk visits them in cannot matter.
    fn remember_length(&mut self, partition: usize, length: f64, slot: &Arc<TableSlot>) {
        let index = &mut self.by_length[partition];
        if index.len() >= LENGTH_INDEX_MIN_CAP.max(2 * self.cache[partition].len()) {
            index.retain(|_, t| t.strong_count() > 0);
        }
        index.insert(length.to_bits(), Arc::downgrade(slot));
    }
}

/// Scope of a branch-length update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BranchScope {
    /// Update the length for a single partition (per-partition mode).
    Partition(usize),
    /// Update the length for all partitions (joint mode or a global reset).
    All,
}

/// Undo record for an SPR applied through the engine (topology + per-partition
/// branch lengths).
#[derive(Debug, Clone)]
pub struct SprApplication {
    /// The topological undo record.
    pub undo: SprUndo,
    saved_lengths: Vec<(BranchId, Vec<f64>)>,
}

/// The master-side state of an analysis.
#[derive(Debug, Clone)]
pub struct MasterData {
    patterns: Arc<PartitionedPatterns>,
    tree: Tree,
    /// Shared with the workers for the length of a region only, so between
    /// regions the master is the sole holder and [`Arc::make_mut`] writes in
    /// place.
    models: Arc<ModelSet>,
    branch_lengths: BranchLengths,
    validity: ClvValidity,
    tables: TableStore,
}

/// The likelihood engine: master state plus an execution backend.
#[derive(Debug)]
pub struct LikelihoodKernel<E: Executor> {
    data: MasterData,
    executor: E,
    stats: KernelStats,
    telemetry: phylo_telemetry::Telemetry,
}

/// The sequential engine used for correctness tests and the single-threaded
/// baseline measurements.
pub type SequentialKernel = LikelihoodKernel<SequentialExecutor>;

impl SequentialKernel {
    /// Builds a sequential engine for the dataset.
    ///
    /// # Errors
    ///
    /// The same validation as [`LikelihoodKernel::try_new`]:
    /// [`KernelError::TaxaMismatch`], [`KernelError::ModelCountMismatch`] or
    /// [`KernelError::IncompleteTree`] for parts that do not describe the
    /// same dataset.
    pub fn build(
        patterns: Arc<PartitionedPatterns>,
        tree: Tree,
        models: ModelSet,
    ) -> Result<Self, KernelError> {
        let categories: Vec<usize> = models.models().iter().map(|m| m.categories()).collect();
        let executor = SequentialExecutor::new(&patterns, tree.node_capacity(), &categories);
        LikelihoodKernel::try_new(patterns, tree, models, executor)
    }
}

impl<E: Executor> LikelihoodKernel<E> {
    /// Creates an engine from its parts. The executor must have been built for
    /// the same dataset (same partitions and category counts).
    ///
    /// # Errors
    ///
    /// [`KernelError::TaxaMismatch`] if the tree's taxa do not match the
    /// dataset's taxa (same names, same order),
    /// [`KernelError::ModelCountMismatch`] if the model count does not match
    /// the partition count, [`KernelError::IncompleteTree`] if the tree is
    /// not fully resolved.
    pub fn try_new(
        patterns: Arc<PartitionedPatterns>,
        tree: Tree,
        models: ModelSet,
        executor: E,
    ) -> Result<Self, KernelError> {
        if tree.taxa() != &patterns.taxa[..] {
            return Err(KernelError::TaxaMismatch);
        }
        if models.len() != patterns.partition_count() {
            return Err(KernelError::ModelCountMismatch {
                models: models.len(),
                partitions: patterns.partition_count(),
            });
        }
        if !tree.is_complete() {
            return Err(KernelError::IncompleteTree);
        }
        let branch_lengths = BranchLengths::from_tree(&tree, models.len(), models.branch_mode());
        let validity = ClvValidity::new(models.len(), tree.node_capacity());
        let tables = TableStore::new(&patterns, tree.branch_count());
        Ok(Self {
            data: MasterData {
                patterns,
                tree,
                models: Arc::new(models),
                branch_lengths,
                validity,
                tables,
            },
            executor,
            stats: KernelStats::default(),
            telemetry: phylo_telemetry::Telemetry::disabled(),
        })
    }

    /// The compiled pattern data.
    pub fn patterns(&self) -> &Arc<PartitionedPatterns> {
        &self.data.patterns
    }

    /// Number of partitions.
    pub fn partition_count(&self) -> usize {
        self.data.patterns.partition_count()
    }

    /// Current tree topology.
    pub fn tree(&self) -> &Tree {
        &self.data.tree
    }

    /// Current per-partition models.
    pub fn models(&self) -> &ModelSet {
        &self.data.models
    }

    /// Current branch lengths.
    pub fn branch_lengths(&self) -> &BranchLengths {
        &self.data.branch_lengths
    }

    /// Work counters.
    pub fn stats(&self) -> KernelStats {
        self.stats
    }

    /// Synchronization events issued to the executor so far.
    pub fn sync_events(&self) -> u64 {
        self.executor.sync_events()
    }

    /// Read access to the execution backend (e.g. to inspect a live trace).
    pub fn executor(&self) -> &E {
        &self.executor
    }

    /// Access to the execution backend (e.g. to pull a work trace).
    pub fn executor_mut(&mut self) -> &mut E {
        &mut self.executor
    }

    /// Consumes the engine and returns the backend.
    pub fn into_executor(self) -> E {
        self.executor
    }

    /// Attaches a telemetry recorder to the engine **and** its executor: the
    /// engine records table-slot cache hits and issued slots, the executor
    /// brackets regions and reports the tables its shards built. Attaching a
    /// disabled handle turns recording back off.
    pub fn set_telemetry(&mut self, telemetry: &phylo_telemetry::Telemetry) {
        self.telemetry = telemetry.clone();
        self.executor.attach_telemetry(telemetry);
    }

    /// The telemetry handle currently attached (disabled by default).
    pub fn telemetry(&self) -> &phylo_telemetry::Telemetry {
        &self.telemetry
    }

    /// A mask with every partition active.
    pub fn full_mask(&self) -> PartitionMask {
        vec![true; self.partition_count()]
    }

    /// A mask with exactly one partition active (the oldPAR access pattern).
    pub fn single_mask(&self, partition: usize) -> PartitionMask {
        let mut m = vec![false; self.partition_count()];
        m[partition] = true;
        m
    }

    /// A reasonable default virtual-root branch: the pendant branch of leaf 0.
    pub fn default_root_branch(&self) -> BranchId {
        self.data.tree.neighbors(0)[0].1
    }

    /// Which inner-loop implementation the shared-table kernels run
    /// ([`KernelDispatch::Blocked`] by default).
    pub fn dispatch(&self) -> KernelDispatch {
        self.data.tables.dispatch
    }

    /// Selects the inner-loop implementation of the shared-table kernels.
    /// The tables themselves are dispatch-independent, so switching never
    /// invalidates the cache. [`KernelDispatch::Scalar`] is the bit-for-bit
    /// reference the differential harness compares against;
    /// [`KernelDispatch::Blocked`] is the fast default (DNA bit-identical,
    /// protein within the documented ≤1e-12 lnL tolerance — see
    /// [`crate::blocked`]).
    pub fn set_dispatch(&mut self, dispatch: KernelDispatch) {
        self.data.tables.dispatch = dispatch;
    }

    /// Number of `(partition, branch)` table entries currently cached by the
    /// master (diagnostics; exercised by the invalidation tests).
    pub fn cached_branch_tables(&self) -> usize {
        self.data.tables.cache.iter().flatten().flatten().count()
    }

    /// Number of live entries in the cross-branch sharing index — distinct
    /// `(partition, length)` pairs whose tables some branch holds and *any*
    /// branch of the partition at that length can adopt (diagnostics; see
    /// [`KernelStats::table_dedup_hits`]).
    pub fn cached_length_tables(&self) -> usize {
        let entries = self.data.tables.by_length.iter().flat_map(HashMap::values);
        entries.filter(|t| t.strong_count() > 0).count()
    }

    /// The table slot of one `(partition, branch)`: served from the cache or
    /// issued (and cached) by the master. The master never builds a table:
    /// the first shard that reads the slot does, inside the region (see
    /// [`crate::tables`]).
    ///
    /// # Errors
    ///
    /// [`KernelError::Op`] with
    /// [`crate::error::OpError::InvalidBranchLength`] when the stored length
    /// of the branch is outside the kernel's domain.
    fn branch_tables(
        &mut self,
        partition: usize,
        branch: BranchId,
    ) -> Result<Arc<TableSlot>, KernelError> {
        if let Some(slot) = &self.data.tables.cache[partition][branch] {
            self.telemetry.table_cache_hit();
            return Ok(Arc::clone(slot));
        }
        let length = self.data.branch_lengths.get(partition, branch);
        // Cross-branch sharing: another branch of this partition with the
        // same stored length holds a slot for identical tables (same model,
        // same dictionary, same per-category t·r products). Adopt it instead
        // of having the O(states³·categories) eigen work done twice.
        let shared = self.data.tables.by_length[partition]
            .get(&length.to_bits())
            .and_then(Weak::upgrade);
        let slot = match shared {
            Some(slot) => {
                self.stats.table_dedup_hits += 1;
                self.telemetry.table_cache_hit();
                slot
            }
            None => {
                validate_branch_length(length)?;
                let dict = Arc::clone(&self.data.tables.dicts[partition]);
                let slot = Arc::new(TableSlot::new(dict, length));
                self.stats.table_builds += 1;
                self.telemetry.table_build(partition, branch);
                self.data.tables.remember_length(partition, length, &slot);
                slot
            }
        };
        self.data.tables.cache[partition][branch] = Some(Arc::clone(&slot));
        Ok(slot)
    }

    /// Assembles the table payload of a traversal.
    fn newview_tables(
        &mut self,
        plans: &[Option<TraversalPlan>],
    ) -> Result<Arc<NewviewTables>, KernelError> {
        let mut per_partition = Vec::with_capacity(plans.len());
        for (pi, plan) in plans.iter().enumerate() {
            let Some(plan) = plan else {
                per_partition.push(None);
                continue;
            };
            let mut steps = Vec::with_capacity(plan.steps.len());
            for step in &plan.steps {
                steps.push(StepTables {
                    left: self.branch_tables(pi, step.left_branch)?,
                    right: self.branch_tables(pi, step.right_branch)?,
                });
            }
            per_partition.push(Some(steps));
        }
        Ok(Arc::new(NewviewTables {
            per_partition,
            dispatch: self.data.tables.dispatch,
        }))
    }

    /// Assembles the table payload for an `Evaluate` command.
    fn edge_tables(
        &mut self,
        root_branch: BranchId,
        mask: &PartitionMask,
    ) -> Result<Arc<EdgeTables>, KernelError> {
        let mut per_partition = Vec::with_capacity(mask.len());
        for (pi, active) in mask.iter().enumerate() {
            if *active {
                per_partition.push(Some(self.branch_tables(pi, root_branch)?));
            } else {
                per_partition.push(None);
            }
        }
        Ok(Arc::new(EdgeTables {
            per_partition,
            dispatch: self.data.tables.dispatch,
        }))
    }

    /// Plans the traversal that brings the CLVs needed for an evaluation
    /// rooted on `root_branch` up to date for the masked partitions, with the
    /// table slots of every step; `None` when everything is already valid
    /// (the partial traversal machinery at work).
    fn plan_traversal(
        &mut self,
        root_branch: BranchId,
        mask: &PartitionMask,
    ) -> Result<Option<TraversalDescriptor>, KernelError> {
        let mut plans: Vec<Option<TraversalPlan>> = vec![None; self.partition_count()];
        for (pi, active) in mask.iter().enumerate() {
            if !*active {
                continue;
            }
            let validity = &self.data.validity;
            let plan = TraversalPlan::partial(&self.data.tree, root_branch, |node, towards| {
                validity.is_valid(pi, node, towards)
            });
            if !plan.is_empty() {
                plans[pi] = Some(plan);
            }
        }
        if plans.iter().all(Option::is_none) {
            return Ok(None);
        }
        let tables = self.newview_tables(&plans)?;
        Ok(Some(TraversalDescriptor { plans, tables }))
    }

    /// Issues one command — one parallel region. Only after the backend
    /// actually performed it are the orientations its traversal computed
    /// recorded in the validity cache (and counted), so a failed region
    /// leaves the cache untouched and a recovered executor simply recomputes.
    fn issue(&mut self, op: &KernelOp) -> Result<OpOutput, KernelError> {
        let ctx = ExecContext {
            models: &self.data.models,
        };
        let out = self.executor.execute(op, &ctx)?;
        if let Some((plans, _)) = op.traversal() {
            for (pi, plan) in plans.iter().enumerate() {
                for step in plan.iter().flat_map(|plan| &plan.steps) {
                    self.data.validity.mark_valid(pi, step.node, step.towards);
                    self.stats.newview_node_updates += 1;
                }
            }
        }
        Ok(out)
    }

    /// Brings the CLVs needed for an evaluation rooted on `root_branch` up to
    /// date for the masked partitions — the traversal-only command; the
    /// likelihood calls below ship the same traversal inside their own
    /// command. Returns the number of CLV updates that were necessary (0 when
    /// everything was already valid).
    ///
    /// # Errors
    ///
    /// [`KernelError::Exec`] when the execution backend fails; the validity
    /// cache is left untouched in that case, so a recovered executor simply
    /// recomputes.
    pub fn try_update_clvs(
        &mut self,
        root_branch: BranchId,
        mask: &PartitionMask,
    ) -> Result<u64, KernelError> {
        let Some(TraversalDescriptor { plans, tables }) = self.plan_traversal(root_branch, mask)?
        else {
            return Ok(0);
        };
        let before = self.stats.newview_node_updates;
        self.issue(&KernelOp::Newview { plans, tables })?;
        Ok(self.stats.newview_node_updates - before)
    }

    /// Per-partition log likelihoods for an evaluation rooted on
    /// `root_branch`; inactive partitions report 0.0.
    ///
    /// # Errors
    ///
    /// [`KernelError::Exec`] when the execution backend fails.
    pub fn try_log_likelihood_partitions(
        &mut self,
        root_branch: BranchId,
        mask: &PartitionMask,
    ) -> Result<Vec<f64>, KernelError> {
        self.evaluate(root_branch, mask.clone())
    }

    /// [`Self::try_log_likelihood_partitions`] over a mask the `Evaluate`
    /// command takes ownership of: the traversal and the evaluation in one
    /// region.
    fn evaluate(
        &mut self,
        root_branch: BranchId,
        mask: PartitionMask,
    ) -> Result<Vec<f64>, KernelError> {
        let traversal = self.plan_traversal(root_branch, &mask)?.map(Arc::new);
        let op = KernelOp::Evaluate {
            endpoints: self.data.tree.branch_endpoints(root_branch),
            tables: self.edge_tables(root_branch, &mask)?,
            mask,
            traversal,
        };
        let out = self.issue(&op)?;
        // Count the evaluation only once the backend actually performed it,
        // so the work counters stay truthful across failures and retries.
        self.stats.evaluations += 1;
        out.try_into_log_likelihoods()
    }

    /// Total log likelihood over all partitions, evaluated at `root_branch`.
    ///
    /// # Errors
    ///
    /// [`KernelError::Exec`] when the execution backend fails.
    pub fn try_log_likelihood_at(&mut self, root_branch: BranchId) -> Result<f64, KernelError> {
        let mask = self.full_mask();
        Ok(self.evaluate(root_branch, mask)?.iter().sum())
    }

    /// Total log likelihood at the default root branch.
    ///
    /// # Errors
    ///
    /// [`KernelError::Exec`] when the execution backend fails.
    pub fn try_log_likelihood(&mut self) -> Result<f64, KernelError> {
        self.try_log_likelihood_at(self.default_root_branch())
    }

    /// Sets a branch length and invalidates exactly the CLVs whose subtrees
    /// contain the branch (and the branch's cached table slots).
    pub fn set_branch_length(&mut self, scope: BranchScope, branch: BranchId, value: f64) {
        let partitions = self.partition_count();
        match (scope, self.data.models.branch_mode()) {
            (BranchScope::Partition(p), BranchLengthMode::PerPartition) => {
                self.data.branch_lengths.set(p, branch, value);
                self.data
                    .validity
                    .branch_length_changed(&self.data.tree, p, branch);
                self.data.tables.invalidate_branch(Some(p), branch);
            }
            _ => {
                self.data.branch_lengths.set_all(branch, value);
                for p in 0..partitions {
                    self.data
                        .validity
                        .branch_length_changed(&self.data.tree, p, branch);
                }
                self.data.tables.invalidate_branch(None, branch);
            }
        }
    }

    /// Current branch length as seen by a partition.
    pub fn branch_length(&self, partition: usize, branch: BranchId) -> f64 {
        self.data.branch_lengths.get(partition, branch)
    }

    /// Sets the Γ shape parameter of one partition; every CLV of that
    /// partition becomes invalid.
    pub fn set_alpha(&mut self, partition: usize, alpha: f64) {
        let models = Arc::make_mut(&mut self.data.models);
        models.model_mut(partition).set_alpha(alpha);
        self.data.validity.invalidate_partition(partition);
        self.data.tables.invalidate_partition(partition);
    }

    /// Current α of a partition.
    pub fn alpha(&self, partition: usize) -> f64 {
        self.data.models.model(partition).alpha()
    }

    /// Replaces one exchangeability of a partition's substitution model;
    /// every CLV of that partition becomes invalid.
    pub fn set_exchangeability(&mut self, partition: usize, index: usize, value: f64) {
        let updated = self
            .data
            .models
            .model(partition)
            .substitution()
            .with_exchangeability(index, value);
        let models = Arc::make_mut(&mut self.data.models);
        models.model_mut(partition).set_substitution(updated);
        self.data.validity.invalidate_partition(partition);
        self.data.tables.invalidate_partition(partition);
    }

    /// Current exchangeability `index` of a partition.
    pub fn exchangeability(&self, partition: usize, index: usize) -> f64 {
        self.data
            .models
            .model(partition)
            .substitution()
            .exchangeabilities()[index]
    }

    /// Prepares Newton–Raphson optimization of `branch` for the masked
    /// partitions: updates the CLVs at both ends and builds the sum tables,
    /// in one region.
    ///
    /// # Errors
    ///
    /// [`KernelError::Exec`] when the execution backend fails.
    pub fn try_prepare_branch(
        &mut self,
        branch: BranchId,
        mask: &PartitionMask,
    ) -> Result<(), KernelError> {
        self.prepare(branch, mask, None).map(drop)
    }

    /// [`Self::try_prepare_branch`] and the first
    /// [`Self::try_branch_derivatives`] in one region: the first Newton
    /// probe's lengths are known before the sum table exists, so they ride
    /// with the command that builds it.
    ///
    /// # Errors
    ///
    /// As for [`Self::try_branch_derivatives`] and
    /// [`Self::try_prepare_branch`].
    pub fn try_prepare_branch_at(
        &mut self,
        branch: BranchId,
        mask: &PartitionMask,
        first: &[Option<f64>],
    ) -> Result<Vec<Option<EdgeDerivatives>>, KernelError> {
        self.check_candidate_lengths(first)?;
        self.prepare(branch, mask, Some(first.to_vec()))?
            .try_into_derivatives()
    }

    fn prepare(
        &mut self,
        branch: BranchId,
        mask: &PartitionMask,
        first: Option<Vec<Option<f64>>>,
    ) -> Result<OpOutput, KernelError> {
        let probes = u64::from(first.is_some());
        let op = KernelOp::Sumtable {
            endpoints: self.data.tree.branch_endpoints(branch),
            mask: mask.clone(),
            traversal: self.plan_traversal(branch, mask)?.map(Arc::new),
            first,
        };
        let out = self.issue(&op)?;
        self.stats.sumtable_builds += 1;
        self.stats.derivative_calls += probes;
        Ok(out)
    }

    /// The kernel-boundary check of a probe: one candidate per partition, and
    /// a Brent/Newton probe must never smuggle a negative or non-finite
    /// candidate into the exponentials.
    fn check_candidate_lengths(&self, lengths: &[Option<f64>]) -> Result<(), KernelError> {
        if lengths.len() != self.partition_count() {
            return Err(KernelError::PartitionCountMismatch {
                expected: self.partition_count(),
                got: lengths.len(),
            });
        }
        for t in lengths.iter().flatten() {
            validate_branch_length(*t)?;
        }
        Ok(())
    }

    /// Evaluates the log-likelihood derivatives of the prepared branch at
    /// per-partition candidate lengths (`None` = skip partition, e.g. already
    /// converged).
    ///
    /// # Errors
    ///
    /// [`KernelError::PartitionCountMismatch`] when `lengths` does not cover
    /// every partition, [`KernelError::Op`] with
    /// [`crate::error::OpError::InvalidBranchLength`] for a negative or
    /// non-finite candidate length, [`KernelError::Exec`] when the execution
    /// backend fails.
    pub fn try_branch_derivatives(
        &mut self,
        lengths: &[Option<f64>],
    ) -> Result<Vec<Option<EdgeDerivatives>>, KernelError> {
        self.check_candidate_lengths(lengths)?;
        let op = KernelOp::Derivatives {
            lengths: lengths.to_vec(),
        };
        let out = self.issue(&op)?;
        self.stats.derivative_calls += 1;
        out.try_into_derivatives()
    }

    /// Applies an SPR move: topology, per-partition branch lengths and CLV
    /// validity are all updated consistently. The returned record undoes the
    /// move exactly.
    ///
    /// # Errors
    ///
    /// Propagates [`TreeError`] for invalid moves; the engine state is
    /// untouched in that case.
    pub fn apply_spr(&mut self, mv: SprMove) -> Result<SprApplication, TreeError> {
        let undo = spr::apply(&mut self.data.tree, mv)?;
        // Branches whose lengths the move touched: the three branches around
        // the re-inserted node plus the merged branch at the old pruning site.
        let mut snapshot_branches: Vec<BranchId> = undo.inserted_branches.to_vec();
        snapshot_branches.push(undo.merged_branch());
        snapshot_branches.sort_unstable();
        snapshot_branches.dedup();
        let saved_lengths = self.data.branch_lengths.snapshot(&snapshot_branches);

        // Mirror the tree-side length changes in the per-partition storage:
        // the two branches around the pruned node merge, the target branch is
        // split in half — applied row by row so per-partition lengths stay
        // consistent with the topology change.
        self.data.branch_lengths.apply_spr(
            undo.merged_branch(),
            undo.inserted_branches[1],
            undo.inserted_branches[0],
        );

        self.data.validity.topology_changed(
            &self.data.tree,
            &undo.affected_nodes,
            mv.target_branch,
        );
        // The move merged, halved and re-used branch lengths; dropping the
        // whole table cache is cheap next to the CLV recomputation the move
        // forces anyway.
        self.data.tables.clear();
        self.stats.spr_moves += 1;
        Ok(SprApplication {
            undo,
            saved_lengths,
        })
    }

    /// Reverses an SPR previously applied through the engine.
    pub fn undo_spr(&mut self, application: &SprApplication) {
        spr::undo(&mut self.data.tree, &application.undo);
        self.data.branch_lengths.restore(&application.saved_lengths);
        // After undoing, the affected path is stale again. The validity proof
        // requires the retained CLVs to be oriented towards the branch where
        // the subtree was just (re-)attached — after the undo that is the
        // merged branch at the original pruning site, which now connects the
        // pruned node to its old neighbor again.
        self.data.validity.topology_changed(
            &self.data.tree,
            &application.undo.affected_nodes,
            application.undo.merged_branch(),
        );
        self.data.tables.clear();
    }

    /// The three branches incident to the insertion point of an applied SPR
    /// (useful for local branch-length re-optimization).
    pub fn inserted_branches(application: &SprApplication) -> [BranchId; 3] {
        application.undo.inserted_branches
    }

    /// Invalidates every cached CLV and every cached shared branch table
    /// (used by tests, after wholesale model replacement, and after a
    /// reassignment rebuilt the workers).
    pub fn invalidate_all(&mut self) {
        self.data.validity.invalidate_all();
        self.data.tables.clear();
    }

    /// Number of currently valid CLVs of a partition (diagnostics).
    pub fn valid_clvs(&self, partition: usize) -> usize {
        self.data.validity.valid_count(partition)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phylo_data::{Alignment, DataType, PartitionSet};
    use phylo_models::BranchLengthMode;
    use phylo_tree::random::random_tree;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn small_dataset(
        taxa: usize,
        columns: usize,
        partition_len: usize,
        seed: u64,
    ) -> (Arc<PartitionedPatterns>, Tree) {
        // Build a random alignment directly (the real simulator lives in
        // phylo-seqgen, which depends on this crate's siblings, so tests here
        // use simple random columns).
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        use rand::Rng;
        let names: Vec<String> = (0..taxa).map(|i| format!("t{i}")).collect();
        let rows: Vec<(String, String)> = names
            .iter()
            .map(|n| {
                let seq: String = (0..columns)
                    .map(|_| ['A', 'C', 'G', 'T'][rng.gen_range(0..4usize)])
                    .collect();
                (n.clone(), seq)
            })
            .collect();
        let aln = Alignment::new(rows).unwrap();
        let ps = PartitionSet::equal_length(DataType::Dna, columns, partition_len);
        let pp = Arc::new(PartitionedPatterns::compile(&aln, &ps).unwrap());
        let tree = random_tree(&names, &mut rng);
        (pp, tree)
    }

    fn engine(
        taxa: usize,
        columns: usize,
        partition_len: usize,
        mode: BranchLengthMode,
        seed: u64,
    ) -> SequentialKernel {
        let (pp, tree) = small_dataset(taxa, columns, partition_len, seed);
        let models = ModelSet::default_for(&pp, mode);
        SequentialKernel::build(pp, tree, models).unwrap()
    }

    fn first_spr_move(tree: &Tree) -> SprMove {
        tree.internal_nodes()
            .flat_map(|p| tree.neighbors(p).iter().map(move |&(s, _)| (p, s)))
            .find_map(|(p, s)| spr::candidate_moves(tree, p, s, 5).first().copied())
            .expect("a valid SPR move exists")
    }

    /// Per-partition lnL at `root` from the scalar tabled kernels driven
    /// directly, every table built on the spot from the engine's current
    /// lengths and models: what the engine must return whatever its table
    /// cache and cross-branch sharing index hold.
    fn fresh_table_reference(k: &SequentialKernel, root: BranchId) -> Vec<f64> {
        use crate::ops::{evaluate_edge_tabled, newview_step_tabled};
        use crate::slice::WorkerSlices;
        use crate::tables::BranchTables;

        let pp = k.patterns();
        let tree = k.tree();
        let cats: Vec<usize> = k.models().models().iter().map(|m| m.categories()).collect();
        let mut ws = WorkerSlices::cyclic(pp, 0, 1, tree.node_capacity(), &cats);
        let (left, right) = tree.branch_endpoints(root);
        let plan = TraversalPlan::full(tree, root);
        (0..k.partition_count())
            .map(|pi| {
                let part = &pp.partitions[pi];
                let model = k.models().model(pi);
                let dict = Arc::new(MaskDictionary::for_partition(
                    part.data_type,
                    &part.tip_states,
                ));
                let tables = |b| BranchTables::build(model, &dict, k.branch_length(pi, b)).unwrap();
                for step in &plan.steps {
                    let (l, r) = (tables(step.left_branch), tables(step.right_branch));
                    newview_step_tabled(&ws.slices[pi], &mut ws.buffers[pi], step, &l, &r).unwrap();
                }
                evaluate_edge_tabled(
                    &ws.slices[pi],
                    &mut ws.buffers[pi],
                    model,
                    left,
                    right,
                    &tables(root),
                )
                .unwrap()
            })
            .collect()
    }

    #[test]
    fn log_likelihood_is_negative_and_finite() {
        let mut k = engine(8, 60, 20, BranchLengthMode::Joint, 1);
        let lnl = k.try_log_likelihood().unwrap();
        assert!(lnl.is_finite());
        assert!(lnl < 0.0);
    }

    #[test]
    fn log_likelihood_invariant_to_root_branch() {
        let mut k = engine(7, 40, 10, BranchLengthMode::PerPartition, 2);
        let branches: Vec<_> = k.tree().branches().collect();
        let reference = k.try_log_likelihood_at(branches[0]).unwrap();
        for &b in &branches[1..] {
            let v = k.try_log_likelihood_at(b).unwrap();
            assert!(
                (v - reference).abs() < 1e-8,
                "branch {b}: {v} vs {reference}"
            );
        }
    }

    #[test]
    fn second_evaluation_reuses_clvs() {
        let mut k = engine(10, 80, 20, BranchLengthMode::Joint, 3);
        let root = k.default_root_branch();
        let first = k.try_update_clvs(root, &k.full_mask()).unwrap();
        assert!(first > 0);
        let second = k.try_update_clvs(root, &k.full_mask()).unwrap();
        assert_eq!(second, 0, "no CLV updates needed when nothing changed");
    }

    #[test]
    fn branch_length_change_invalidates_selectively_and_changes_lnl() {
        let mut k = engine(9, 50, 25, BranchLengthMode::Joint, 4);
        let root = k.default_root_branch();
        let before = k.try_log_likelihood_at(root).unwrap();
        // Changing a branch far from the root invalidates some CLVs but not
        // all of them.
        let victim = *k.tree().internal_branches().last().unwrap();
        k.set_branch_length(BranchScope::All, victim, 1.5);
        let updates = k.try_update_clvs(root, &k.full_mask()).unwrap();
        assert!(
            updates > 0,
            "changing a branch must force some recomputation"
        );
        assert!(
            updates < k.tree().internal_count() as u64 * k.partition_count() as u64,
            "but not a full retraversal of every partition"
        );
        let after = k.try_log_likelihood_at(root).unwrap();
        assert!(
            (after - before).abs() > 1e-6,
            "lnL must respond to branch lengths"
        );
    }

    #[test]
    fn per_partition_branch_lengths_only_affect_their_partition() {
        let mut k = engine(6, 40, 20, BranchLengthMode::PerPartition, 5);
        let root = k.default_root_branch();
        let mask = k.full_mask();
        let before = k.try_log_likelihood_partitions(root, &mask).unwrap();
        let victim = k.tree().internal_branches()[0];
        k.set_branch_length(BranchScope::Partition(1), victim, 2.0);
        let after = k.try_log_likelihood_partitions(root, &mask).unwrap();
        assert!(
            (after[0] - before[0]).abs() < 1e-12,
            "partition 0 must be unaffected"
        );
        assert!(
            (after[1] - before[1]).abs() > 1e-9,
            "partition 1 must change"
        );
    }

    #[test]
    fn alpha_change_invalidates_only_its_partition() {
        let mut k = engine(6, 40, 20, BranchLengthMode::Joint, 6);
        let root = k.default_root_branch();
        let _ = k.try_log_likelihood_at(root).unwrap();
        k.set_alpha(0, 0.3);
        assert_eq!(k.valid_clvs(0), 0);
        assert!(k.valid_clvs(1) > 0);
        let mask = k.full_mask();
        let lnls = k.try_log_likelihood_partitions(root, &mask).unwrap();
        assert!(lnls.iter().all(|l| l.is_finite() && *l < 0.0));
    }

    #[test]
    fn exchangeability_change_moves_likelihood() {
        let mut k = engine(5, 30, 30, BranchLengthMode::Joint, 7);
        let before = k.try_log_likelihood().unwrap();
        k.set_exchangeability(0, 1, 4.0);
        assert!((k.exchangeability(0, 1) - 4.0).abs() < 1e-12);
        let after = k.try_log_likelihood().unwrap();
        assert!((after - before).abs() > 1e-9);
    }

    #[test]
    fn derivatives_agree_with_finite_differences_through_engine() {
        let mut k = engine(8, 60, 30, BranchLengthMode::PerPartition, 8);
        let branch = k.tree().internal_branches()[0];
        let mask = k.full_mask();
        k.try_prepare_branch(branch, &mask).unwrap();
        let t0 = k.branch_length(0, branch);
        let lengths: Vec<Option<f64>> = (0..k.partition_count()).map(|_| Some(t0)).collect();
        let ders = k.try_branch_derivatives(&lengths).unwrap();

        // Finite-difference check against direct evaluation for partition 0.
        let h = 1e-6;
        let lnl = |t: f64, k: &mut SequentialKernel| {
            k.set_branch_length(BranchScope::Partition(0), branch, t);
            let mask = k.single_mask(0);
            k.try_log_likelihood_partitions(branch, &mask).unwrap()[0]
        };
        let up = lnl(t0 + h, &mut k);
        let down = lnl(t0 - h, &mut k);
        let fd1 = (up - down) / (2.0 * h);
        let d = ders[0].unwrap();
        assert!(
            (d.first - fd1).abs() < 1e-3 * (1.0 + fd1.abs()),
            "analytic {} vs finite difference {fd1}",
            d.first
        );
    }

    #[test]
    fn spr_apply_and_undo_restore_likelihood() {
        let mut k = engine(10, 60, 30, BranchLengthMode::PerPartition, 9);
        let before = k.try_log_likelihood().unwrap();
        let app = k.apply_spr(first_spr_move(k.tree())).unwrap();
        let during = k.try_log_likelihood().unwrap();
        assert!(during.is_finite());
        k.undo_spr(&app);
        let after = k.try_log_likelihood().unwrap();
        assert!(
            (after - before).abs() < 1e-6,
            "undo must restore the likelihood: {before} vs {after}"
        );
        assert_eq!(k.stats().spr_moves, 1);
    }

    #[test]
    fn spr_changes_likelihood_on_informative_data() {
        let mut k = engine(12, 80, 40, BranchLengthMode::Joint, 10);
        let before = k.try_log_likelihood().unwrap();
        let tree = k.tree().clone();
        let mut any_changed = false;
        for p in tree.internal_nodes() {
            let (s, _) = tree.neighbors(p)[0];
            for mv in spr::candidate_moves(&tree, p, s, 3).into_iter().take(3) {
                let app = k.apply_spr(mv).unwrap();
                let lnl = k.try_log_likelihood().unwrap();
                if (lnl - before).abs() > 1e-6 {
                    any_changed = true;
                }
                k.undo_spr(&app);
            }
            if any_changed {
                break;
            }
        }
        assert!(
            any_changed,
            "at least one SPR move must change the likelihood"
        );
    }

    #[test]
    fn table_cache_reuses_and_invalidates() {
        let mut k = engine(8, 60, 20, BranchLengthMode::Joint, 22);
        let _ = k.try_log_likelihood().unwrap();
        let after_first = k.stats().table_builds;
        assert!(after_first > 0);
        assert!(k.cached_branch_tables() > 0);

        // A second evaluation at the same state is served from the cache.
        let _ = k.try_log_likelihood().unwrap();
        assert_eq!(k.stats().table_builds, after_first);

        // Changing one branch length drops exactly that branch's entries.
        let cached = k.cached_branch_tables();
        let victim = k.tree().internal_branches()[0];
        k.set_branch_length(BranchScope::All, victim, 0.42);
        assert!(k.cached_branch_tables() < cached);
        let _ = k.try_log_likelihood().unwrap();
        assert!(k.stats().table_builds > after_first);
    }

    #[test]
    fn alpha_change_invalidates_only_its_partitions_tables() {
        let mut k = engine(6, 40, 20, BranchLengthMode::Joint, 23);
        let _ = k.try_log_likelihood().unwrap();
        let total = k.cached_branch_tables();
        assert!(total > 0);
        k.set_alpha(0, 0.5);
        // Partition 0's entries are gone, the other partition's remain.
        let remaining = k.cached_branch_tables();
        assert!(remaining > 0 && remaining < total, "{remaining} of {total}");
    }

    #[test]
    fn spr_clears_the_table_cache() {
        let mut k = engine(10, 60, 30, BranchLengthMode::PerPartition, 24);
        let _ = k.try_log_likelihood().unwrap();
        assert!(k.cached_branch_tables() > 0);
        let app = k.apply_spr(first_spr_move(k.tree())).unwrap();
        assert_eq!(k.cached_branch_tables(), 0);
        let _ = k.try_log_likelihood().unwrap();
        assert!(k.cached_branch_tables() > 0);
        k.undo_spr(&app);
        assert_eq!(k.cached_branch_tables(), 0);
    }

    #[test]
    fn candidate_branch_lengths_are_validated_at_the_kernel_boundary() {
        use crate::error::OpError;
        let mut k = engine(6, 40, 20, BranchLengthMode::PerPartition, 25);
        let branch = k.tree().internal_branches()[0];
        let mask = k.full_mask();
        k.try_prepare_branch(branch, &mask).unwrap();
        for bad in [-0.25, f64::NAN, f64::INFINITY] {
            let mut lengths: Vec<Option<f64>> = vec![Some(0.1); k.partition_count()];
            lengths[1] = Some(bad);
            let err = k.try_branch_derivatives(&lengths).unwrap_err();
            assert!(
                matches!(err, KernelError::Op(OpError::InvalidBranchLength { .. })),
                "{bad}: {err:?}"
            );
        }
        // The engine is not poisoned by the rejection: valid probes still work.
        let lengths: Vec<Option<f64>> = vec![Some(0.1); k.partition_count()];
        assert!(k.try_branch_derivatives(&lengths).is_ok());
    }

    #[test]
    fn derivatives_without_a_sumtable_fail_as_typed_stale_errors() {
        use crate::error::OpError;
        let mut k = engine(6, 40, 20, BranchLengthMode::Joint, 26);
        // CLVs exist, but no sum table was ever built: the release-mode
        // soundness hole used to be a debug_assert (silent in release).
        let _ = k.try_log_likelihood().unwrap();
        let lengths: Vec<Option<f64>> = vec![Some(0.1); k.partition_count()];
        let err = k.try_branch_derivatives(&lengths).unwrap_err();
        assert!(
            matches!(err, KernelError::Op(OpError::SumtableStale { .. })),
            "{err:?}"
        );
        assert_eq!(err.failed_worker(), None, "not a worker fault");
        // Building the table recovers without any executor surgery.
        let branch = k.tree().internal_branches()[0];
        let mask = k.full_mask();
        k.try_prepare_branch(branch, &mask).unwrap();
        assert!(k.try_branch_derivatives(&lengths).is_ok());
    }

    #[test]
    fn equal_branch_lengths_share_tables_across_branches() {
        let (pp, tree) = small_dataset(8, 80, 20, 27);
        let models = ModelSet::default_for(&pp, BranchLengthMode::Joint);
        let mut k = SequentialKernel::build(pp, tree, models).unwrap();

        // Force the post-smoothing shape: every branch at the same length.
        let branches: Vec<BranchId> = k.tree().branches().collect();
        for &b in &branches {
            k.set_branch_length(BranchScope::All, b, 0.137);
        }
        k.invalidate_all();
        let before = k.stats();
        let mask = k.full_mask();
        let root = k.default_root_branch();
        let a = k.try_log_likelihood_partitions(root, &mask).unwrap();
        // DNA: the default blocked dispatch is bit-for-bit with the scalar
        // loops, so sharing one table across branches must not move a bit.
        assert_eq!(
            a,
            fresh_table_reference(&k, root),
            "shared tables must stay bit-identical"
        );

        let stats = k.stats();
        // One eigen build per (partition, distinct length) — everything else
        // is served by cross-branch sharing.
        assert_eq!(
            stats.table_builds - before.table_builds,
            k.partition_count() as u64,
            "equal lengths must collapse to one build per partition"
        );
        assert!(
            stats.table_dedup_hits > before.table_dedup_hits,
            "sharing across branches must be counted"
        );
        assert_eq!(k.cached_length_tables(), k.partition_count());
    }

    #[test]
    fn table_dedup_never_serves_stale_tables_after_a_model_change() {
        let (pp, tree) = small_dataset(7, 60, 30, 28);
        let models = ModelSet::default_for(&pp, BranchLengthMode::Joint);
        let mut k = SequentialKernel::build(pp, tree, models).unwrap();
        for b in k.tree().branches().collect::<Vec<_>>() {
            k.set_branch_length(BranchScope::All, b, 0.2);
        }
        let _ = k.try_log_likelihood().unwrap();
        assert!(k.cached_length_tables() > 0);

        // A slot issued under the old α but never read — what a region that
        // died before reaching it leaves behind — is as stale as a built one.
        let root = k.default_root_branch();
        k.set_branch_length(BranchScope::All, root, 0.3);
        let unread = k.branch_tables(0, root).unwrap();

        // A model change must purge the partition's length-keyed entries too:
        // the old tables were built under the old α.
        k.set_alpha(0, 0.55);
        let mask = k.full_mask();
        let a = k.try_log_likelihood_partitions(root, &mask).unwrap();
        assert_eq!(
            a,
            fresh_table_reference(&k, root),
            "dedup after a model change must rebuild, not reuse"
        );
        assert!(unread.get().is_none(), "the unread slot was served");
        assert!(!Arc::ptr_eq(&unread, &k.branch_tables(0, root).unwrap()));
    }

    #[test]
    fn every_mutation_empties_exactly_its_table_slots() {
        let mut k = engine(8, 90, 30, BranchLengthMode::PerPartition, 29);
        let (partitions, branches) = (k.partition_count(), k.tree().branch_count());
        let root = k.default_root_branch();
        // DNA under the default blocked dispatch is bit for bit with tables
        // built fresh on the spot. An evaluation re-fetches the tables of the
        // branches it traverses: whatever a length or model change emptied,
        // but after an SPR — which empties everything and invalidates only
        // the CLVs on the moved path — just the partial traversal's share.
        let refill = |k: &mut SequentialKernel, step: &str| {
            let mask = k.full_mask();
            let lnl = k.try_log_likelihood_partitions(root, &mask).unwrap();
            assert_eq!(lnl, fresh_table_reference(k, root), "{step}");
            k.cached_branch_tables()
        };
        let all = partitions * branches;
        assert_eq!(refill(&mut k, "cold"), all);
        let victim = k.tree().internal_branches()[0];

        k.set_branch_length(BranchScope::Partition(1), victim, 0.31);
        assert_eq!(k.cached_branch_tables(), partitions * branches - 1);
        assert_eq!(refill(&mut k, "one partition's branch"), all);

        k.set_branch_length(BranchScope::All, victim, 0.47);
        assert_eq!(k.cached_branch_tables(), partitions * (branches - 1));
        assert_eq!(refill(&mut k, "one branch of every partition"), all);

        k.set_alpha(0, 0.4);
        assert_eq!(k.cached_branch_tables(), (partitions - 1) * branches);
        assert_eq!(refill(&mut k, "alpha"), all);

        k.set_exchangeability(2, 1, 3.5);
        assert_eq!(k.cached_branch_tables(), (partitions - 1) * branches);
        assert_eq!(refill(&mut k, "exchangeability"), all);

        let app = k.apply_spr(first_spr_move(k.tree())).unwrap();
        assert_eq!(k.cached_branch_tables(), 0);
        assert!((1..all).contains(&refill(&mut k, "spr applied")));
        k.undo_spr(&app);
        assert_eq!(k.cached_branch_tables(), 0);
        assert!((1..all).contains(&refill(&mut k, "spr undone")));

        k.invalidate_all();
        assert_eq!(k.cached_branch_tables(), 0);
        assert_eq!(k.cached_length_tables(), 0);
        assert_eq!(refill(&mut k, "invalidate_all"), all);
    }

    #[test]
    fn the_length_index_shares_only_tables_a_branch_still_holds() {
        let mut k = engine(7, 60, 30, BranchLengthMode::Joint, 30);
        let branches: Vec<BranchId> = k.tree().branches().collect();
        for (i, &b) in branches.iter().enumerate() {
            k.set_branch_length(BranchScope::All, b, 0.05 + 0.01 * i as f64);
        }
        let _ = k.try_log_likelihood().unwrap();
        let live = k.partition_count() * branches.len();
        assert_eq!(k.cached_length_tables(), live);

        // A probe length no branch kept: moving away and back is a rebuild,
        // not a resurrection, and the abandoned length leaves nothing live.
        let victim = branches[3];
        let kept = k.branch_length(0, victim);
        k.set_branch_length(BranchScope::All, victim, 0.777);
        let _ = k.try_log_likelihood().unwrap();
        let before = k.stats();
        k.set_branch_length(BranchScope::All, victim, kept);
        let _ = k.try_log_likelihood().unwrap();
        let after = k.stats();
        assert_eq!(
            after.table_builds - before.table_builds,
            k.partition_count() as u64
        );
        assert_eq!(after.table_dedup_hits, before.table_dedup_hits);
        assert_eq!(k.cached_length_tables(), live);

        // A handle that outlives a model change (a payload still in flight)
        // keeps the old slot alive, yet the index must not hand it out.
        let held = k.branch_tables(0, victim).unwrap();
        assert!(held.get().is_some(), "the evaluation built it");
        k.set_alpha(0, 0.55);
        let reissued = k.branch_tables(0, victim).unwrap();
        assert!(!Arc::ptr_eq(&held, &reissued));
        assert!(reissued.get().is_none());
    }

    #[test]
    fn stats_accumulate() {
        let mut k = engine(6, 40, 20, BranchLengthMode::Joint, 11);
        let _ = k.try_log_likelihood().unwrap();
        let branch = k.tree().internal_branches()[0];
        let mask = k.full_mask();
        k.try_prepare_branch(branch, &mask).unwrap();
        let lengths: Vec<Option<f64>> = (0..k.partition_count()).map(|_| Some(0.1)).collect();
        let _ = k.try_branch_derivatives(&lengths).unwrap();
        let stats = k.stats();
        assert!(stats.newview_node_updates > 0);
        assert_eq!(stats.evaluations, 1);
        assert_eq!(stats.sumtable_builds, 1);
        assert_eq!(stats.derivative_calls, 1);
        assert!(k.sync_events() >= 3);
    }
}
