//! The instrumented (virtual-worker) executor.
//!
//! The paper's figures compare 8- and 16-thread runs on four machines we do
//! not have. The load imbalance itself, however, is a purely combinatorial
//! property of the algorithm: which partitions are active in each parallel
//! region and how many of each partition's patterns fall to each worker under
//! the cyclic distribution. [`TracingExecutor`] therefore executes every
//! command *correctly* (its virtual workers' shards one after the other on
//! the calling thread — [`crate::pool::run_shards`], the same loop a serving
//! session runs — so all likelihood results are exact) while recording, per
//! region, the analytic amount of floating-point work each of its `T`
//! virtual workers receives.
//! The resulting [`WorkTrace`] is converted into per-platform run-time
//! predictions by `phylo-perfmodel`.

use phylo_data::PartitionedPatterns;
use phylo_kernel::cost::{RegionRecord, WorkTrace};
use phylo_kernel::executor::{active_local_patterns, end_region};
use phylo_kernel::{ExecContext, ExecError, Executor, KernelOp, OpOutput, WorkerSlices};
use phylo_sched::{Assignment, SchedError};
use phylo_telemetry::RegionToken;

use crate::pool::{inline_samples, run_shards};

/// Executes commands on `T` virtual workers and records the per-region work.
#[derive(Debug)]
pub struct TracingExecutor {
    workers: Vec<WorkerSlices>,
    assignment: Assignment,
    trace: WorkTrace,
    sync_events: u64,
    /// The virtual worker whose shard panicked, until `reassign`.
    poisoned: Option<usize>,
    telemetry: phylo_telemetry::Telemetry,
}

impl TracingExecutor {
    /// Builds a tracing executor over the virtual workers of `assignment`.
    ///
    /// The assignment is retained (see [`TracingExecutor::assignment`]) so
    /// that its predicted per-worker costs can be compared against the
    /// measured trace, e.g. by `phylo_perfmodel::imbalance_report`.
    ///
    /// # Errors
    ///
    /// [`SchedError::PatternCountMismatch`] if the assignment was built for a
    /// different dataset.
    pub fn from_assignment(
        patterns: &PartitionedPatterns,
        assignment: &Assignment,
        node_capacity: usize,
        categories: &[usize],
    ) -> Result<Self, SchedError> {
        let workers = crate::build_workers(patterns, node_capacity, categories, assignment)?;
        Ok(Self {
            workers,
            assignment: assignment.clone(),
            trace: WorkTrace::new(assignment.worker_count()),
            sync_events: 0,
            poisoned: None,
            telemetry: phylo_telemetry::Telemetry::disabled(),
        })
    }

    /// The assignment the virtual workers were built from.
    pub fn assignment(&self) -> &Assignment {
        &self.assignment
    }

    /// The accumulated work trace.
    pub fn trace(&self) -> &WorkTrace {
        &self.trace
    }

    /// Takes the accumulated trace, leaving an empty one behind.
    pub fn take_trace(&mut self) -> WorkTrace {
        std::mem::replace(&mut self.trace, WorkTrace::new(self.workers.len()))
    }

    /// Migrates the virtual workers to a new assignment and restarts the
    /// trace epoch (the old trace measured the old ownership); rebuilding
    /// every shard also clears a poisoned state. The caller
    /// must invalidate the master-side CLV validity cache afterwards, since
    /// the rebuilt workers own empty CLV buffers.
    ///
    /// # Errors
    ///
    /// [`SchedError::PatternCountMismatch`] if the assignment was built for
    /// a different dataset; the executor is left untouched in that case.
    pub fn reassign(
        &mut self,
        patterns: &PartitionedPatterns,
        assignment: &Assignment,
        node_capacity: usize,
        categories: &[usize],
    ) -> Result<(), SchedError> {
        self.workers = crate::build_workers(patterns, node_capacity, categories, assignment)?;
        self.assignment = assignment.clone();
        self.trace = WorkTrace::new(assignment.worker_count());
        self.poisoned = None;
        Ok(())
    }

    /// The analytic work of one region: every phase of the command
    /// (traversal, op, probe) costed at its own kind and summed, so a
    /// command that carries its traversal records the work of the separate
    /// commands it replaces under one synchronization.
    fn region_record(&self, op: &KernelOp, ctx: &ExecContext<'_>) -> RegionRecord {
        let mut record = RegionRecord::new(op.kind(), self.workers.len());
        record.active_partitions = op.active_partitions();
        for (wi, worker) in self.workers.iter().enumerate() {
            record.active_patterns_per_worker[wi] = active_local_patterns(worker, op) as f64;
            let (mut flops, mut bytes) = (0.0, 0.0);
            for (pi, slice) in worker.slices.iter().enumerate() {
                let phases = op.phase_visits(pi).into_iter();
                for (kind, visits) in phases.filter(|&(_, visits)| visits > 0) {
                    let (per_pattern, per_pattern_bytes) =
                        kind.pattern_cost(slice.states(), ctx.models.model(pi).categories());
                    let n = slice.pattern_count() as f64 * visits as f64;
                    flops += n * per_pattern;
                    bytes += n * per_pattern_bytes;
                }
            }
            record.flops_per_worker[wi] = flops;
            record.bytes_per_worker[wi] = bytes;
        }
        record
    }
}

impl Executor for TracingExecutor {
    fn worker_count(&self) -> usize {
        self.workers.len()
    }

    fn execute(&mut self, op: &KernelOp, ctx: &ExecContext<'_>) -> Result<OpOutput, ExecError> {
        if let Some(worker) = self.poisoned {
            return Err(ExecError::Poisoned { worker });
        }
        self.sync_events += 1;
        let token = self.telemetry.enabled().then(|| {
            self.telemetry
                .region_start(op.label(), &op.active_partitions())
        });
        let mut record = self.region_record(op, ctx);
        // The virtual workers run one after the other, so each shard's
        // bracket measures one worker's work free of contention —
        // wall-clock seconds on top of the analytic FLOP counts.
        let seconds = &mut record.seconds_per_worker;
        let result = run_shards(&mut self.workers, op, ctx, None, |wi, elapsed, _| {
            seconds[wi] = elapsed.as_secs_f64();
        })
        .result;
        // Virtual workers model parallel ones: no queues, so the queue-wait
        // lanes are zero; the counter deltas drain directly.
        let samples = match token.as_ref().and_then(RegionToken::region) {
            Some(region) => inline_samples(&self.workers, region, seconds, |_| 0.0),
            None => Vec::new(),
        };
        let width = self.workers.len();
        self.poisoned = end_region(&self.telemetry, token, width, &samples, &result);
        if result.is_ok() {
            self.trace.regions.push(record);
        }
        result
    }

    fn sync_events(&self) -> u64 {
        self.sync_events
    }

    fn attach_telemetry(&mut self, telemetry: &phylo_telemetry::Telemetry) {
        self.telemetry = telemetry.clone();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phylo_kernel::{cost::OpKind, LikelihoodKernel, SequentialKernel};
    use phylo_models::{BranchLengthMode, ModelSet};
    use phylo_seqgen::datasets::paper_simulated;
    use std::sync::Arc;

    fn dataset() -> phylo_seqgen::GeneratedDataset {
        paper_simulated(8, 240, 40, 3).generate()
    }

    fn build_tracing(
        ds: &phylo_seqgen::GeneratedDataset,
        workers: usize,
    ) -> LikelihoodKernel<TracingExecutor> {
        let models = ModelSet::default_for(&ds.patterns, BranchLengthMode::PerPartition);
        let cats: Vec<usize> = models.models().iter().map(|m| m.categories()).collect();
        let assignment =
            crate::schedule(&ds.patterns, &cats, workers, &phylo_sched::Cyclic).unwrap();
        let exec = TracingExecutor::from_assignment(
            &ds.patterns,
            &assignment,
            ds.tree.node_capacity(),
            &cats,
        )
        .unwrap();
        LikelihoodKernel::try_new(Arc::clone(&ds.patterns), ds.tree.clone(), models, exec).unwrap()
    }

    #[test]
    fn tracing_matches_sequential_likelihood() {
        let ds = dataset();
        let models = ModelSet::default_for(&ds.patterns, BranchLengthMode::PerPartition);
        let mut seq =
            SequentialKernel::build(Arc::clone(&ds.patterns), ds.tree.clone(), models).unwrap();
        let reference = seq.try_log_likelihood().unwrap();

        for workers in [1usize, 4, 16] {
            let mut traced = build_tracing(&ds, workers);
            let lnl = traced.try_log_likelihood().unwrap();
            assert!(
                (lnl - reference).abs() < 1e-8,
                "{workers} virtual workers: {lnl} vs {reference}"
            );
        }
    }

    #[test]
    fn trace_records_one_region_per_command() {
        let ds = dataset();
        let mut k = build_tracing(&ds, 8);
        // A likelihood call ships its traversal inside its own command, so
        // only the traversal-only command leaves a `Newview` record.
        let mask = k.full_mask();
        assert!(k.try_update_clvs(k.default_root_branch(), &mask).unwrap() > 0);
        let _ = k.try_log_likelihood().unwrap();
        let branch = k.tree().internal_branches()[0];
        k.try_prepare_branch(branch, &mask).unwrap();
        let lengths: Vec<Option<f64>> = (0..k.partition_count()).map(|_| Some(0.1)).collect();
        let _ = k.try_branch_derivatives(&lengths).unwrap();
        let sync = k.sync_events();
        assert_eq!(sync, 4, "one region per call");
        let trace = k.executor_mut().take_trace();
        assert_eq!(trace.sync_events() as u64, sync);
        let kinds: Vec<OpKind> = trace.regions.iter().map(|r| r.kind).collect();
        let all = [
            OpKind::Newview,
            OpKind::Evaluate,
            OpKind::Sumtable,
            OpKind::Derivatives,
        ];
        assert_eq!(kinds, all);
    }

    #[test]
    fn balanced_dataset_has_high_balance_for_full_mask_ops() {
        let ds = dataset();
        let mut k = build_tracing(&ds, 4);
        let _ = k.try_log_likelihood().unwrap();
        let trace = k.executor_mut().take_trace();
        assert!(
            trace.overall_balance() > 0.9,
            "full-width operations should balance well, got {}",
            trace.overall_balance()
        );
    }

    #[test]
    fn single_partition_ops_are_imbalanced_with_many_workers() {
        // This is the paper's core observation: when only one short partition
        // is active per region (oldPAR), many workers idle.
        let ds = dataset();
        let mut k = build_tracing(&ds, 16);
        // Evaluate only partition 0 repeatedly.
        let mask = k.single_mask(0);
        let root = k.default_root_branch();
        let _ = k.try_log_likelihood_partitions(root, &mask).unwrap();
        let trace = k.executor_mut().take_trace();
        // Partition 0 has ~40 patterns over 16 workers; the balance of the
        // region is bounded by the pattern distribution: its evaluation and
        // the traversal it carries both cover partition 0 only.
        assert!(
            trace.overall_balance() < 0.95,
            "single-partition regions should show imbalance, got {}",
            trace.overall_balance()
        );
    }

    #[test]
    fn more_workers_than_patterns_leaves_workers_idle() {
        let ds = paper_simulated(6, 64, 8, 5).generate();
        let mut k = build_tracing(&ds, 16);
        let mask = k.single_mask(0);
        let root = k.default_root_branch();
        let _ = k.try_log_likelihood_partitions(root, &mask).unwrap();
        let trace = k.executor_mut().take_trace();
        let idle_workers = trace
            .regions
            .iter()
            .map(|r| r.flops_per_worker.iter().filter(|&&f| f == 0.0).count())
            .max()
            .unwrap_or(0);
        assert!(
            idle_workers > 0,
            "with 16 workers and a ≤8-pattern partition some workers must idle"
        );
    }
}
