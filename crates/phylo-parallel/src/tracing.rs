//! The instrumented (virtual-worker) executor.
//!
//! The paper's figures compare 8- and 16-thread runs on four machines we do
//! not have. The load imbalance itself, however, is a purely combinatorial
//! property of the algorithm: which partitions are active in each parallel
//! region and how many of each partition's patterns fall to each worker under
//! the cyclic distribution. [`TracingExecutor`] therefore executes every
//! command *correctly* (its virtual workers' shards one after the other on
//! the calling thread, [`crate::pool::run_shards`], so all likelihood
//! results are exact) while recording, per region, the analytic work each
//! of its `T` virtual workers receives. The resulting [`WorkTrace`] is
//! converted into per-platform run-time predictions by `phylo-perfmodel`.
//!
//! The region bookkeeping is the [`Ledger`] every shard executor holds, so a
//! virtual worker dies and recovers like a real one
//! ([`TracingExecutor::inject_worker_panic`]); the executor adds only the
//! analytic flops and bytes.

use phylo_data::PartitionedPatterns;
use phylo_kernel::cost::{RegionRecord, WorkTrace};
use phylo_kernel::{ExecContext, ExecError, Executor, KernelOp, OpOutput, WorkerSlices};
use phylo_sched::{Assignment, Reassignable, SchedError};

use crate::pool::{run_shards, Ledger};

/// Executes commands on `T` virtual workers and records the per-region work.
#[derive(Debug)]
pub struct TracingExecutor {
    workers: Vec<WorkerSlices>,
    ledger: Ledger,
}

impl TracingExecutor {
    /// Builds a tracing executor over the virtual workers of `assignment`.
    ///
    /// The assignment is retained (see [`Reassignable::assignment`]) so
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
            ledger: Ledger::new(assignment, true),
        })
    }

    /// The region bookkeeping: poison, last panic, sync count, trace.
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// Arms the same one-shot fault as
    /// [`crate::ThreadedExecutor::inject_worker_panic`], on a virtual worker.
    pub fn inject_worker_panic(&mut self, worker: usize, after_regions: u64) {
        self.ledger.arm(worker, after_regions);
    }

    /// Adds the analytic work of one region to its record: every phase of
    /// the command (traversal, op, probe) costed at its own kind and summed,
    /// so a command that carries its traversal records the work of the
    /// separate commands it replaces under one synchronization.
    fn add_work(&self, record: &mut RegionRecord, op: &KernelOp, ctx: &ExecContext<'_>) {
        for (wi, worker) in self.workers.iter().enumerate() {
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
    }
}

/// The virtual workers support the same migration protocol as real ones,
/// so mid-run rescheduling can be tested deterministically from FLOP
/// traces. Rebuilding every shard also clears a poisoned state; the caller
/// must invalidate the master-side CLV validity cache afterwards, since the
/// rebuilt workers own empty CLV buffers.
impl Reassignable for TracingExecutor {
    fn assignment(&self) -> &Assignment {
        self.ledger.assignment()
    }

    fn live_trace(&self) -> &WorkTrace {
        self.ledger.trace()
    }

    fn take_trace(&mut self) -> WorkTrace {
        self.ledger.take_trace()
    }

    fn reassign(
        &mut self,
        patterns: &PartitionedPatterns,
        assignment: &Assignment,
        node_capacity: usize,
        categories: &[usize],
    ) -> Result<(), SchedError> {
        self.workers = crate::build_workers(patterns, node_capacity, categories, assignment)?;
        self.ledger.restart(assignment);
        Ok(())
    }
}

impl Executor for TracingExecutor {
    fn worker_count(&self) -> usize {
        self.workers.len()
    }

    fn execute(&mut self, op: &KernelOp, ctx: &ExecContext<'_>) -> Result<OpOutput, ExecError> {
        let mut open = self.ledger.open(op)?;
        if let Some(record) = open.record.as_mut() {
            self.add_work(record, op, ctx);
        }
        // The virtual workers run one after the other, so each shard's
        // bracket measures one worker's work free of contention; they model
        // parallel ones, so the queue-wait lanes are zero.
        let reduced = run_shards(&mut self.workers, op, ctx, &mut open, |_, _| 0.0);
        self.ledger.close(open, reduced)
    }

    fn sync_events(&self) -> u64 {
        self.ledger.sync_events()
    }

    fn attach_telemetry(&mut self, telemetry: &phylo_telemetry::Telemetry) {
        self.ledger.attach_telemetry(telemetry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::tests::Fixture;
    use phylo_kernel::{cost::OpKind, LikelihoodKernel};
    use phylo_models::BranchLengthMode::PerPartition;
    use phylo_sched::Cyclic;

    fn fixture() -> Fixture {
        Fixture::new(8, 240, 40, 3, PerPartition)
    }

    fn build_tracing(fx: &Fixture, workers: usize) -> LikelihoodKernel<TracingExecutor> {
        fx.kernel(fx.tracing(&fx.assign(workers, &Cyclic)))
    }

    #[test]
    fn tracing_matches_sequential_likelihood() {
        let fx = fixture();
        let reference = fx.sequential().try_log_likelihood().unwrap();

        for workers in [1usize, 4, 16] {
            let mut traced = build_tracing(&fx, workers);
            let lnl = traced.try_log_likelihood().unwrap();
            assert!(
                (lnl - reference).abs() < 1e-8,
                "{workers} virtual workers: {lnl} vs {reference}"
            );
        }
    }

    #[test]
    fn trace_records_one_region_per_command() {
        let fx = fixture();
        let mut k = build_tracing(&fx, 8);
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
        let fx = fixture();
        let mut k = build_tracing(&fx, 4);
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
        let fx = fixture();
        let mut k = build_tracing(&fx, 16);
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
        let fx = Fixture::new(6, 64, 8, 5, PerPartition);
        let mut k = build_tracing(&fx, 16);
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
