//! Parallel execution backends for the likelihood kernel.
//!
//! The Pthreads-based RAxML the paper builds on uses a master/worker scheme:
//! worker threads are created once, the alignment patterns are distributed
//! over them cyclically, and the master broadcasts commands (traversal lists,
//! evaluations, derivative computations) that every worker executes on its
//! local patterns before a barrier + reduction. This crate implements that
//! region protocol **once** ([`pool`]: the shards on persistent threads or
//! inline, one catch per shard, one worker-order fold, and the
//! [`pool::Ledger`] of bookkeeping around every region) and puts the
//! [`Executor`](phylo_kernel::Executor) backends on top of it:
//!
//! * [`threaded::ThreadedExecutor`] — its own [`pool::WorkerPool`]: the
//!   real-parallel backend used for wall-clock measurements,
//! * [`tracing::TracingExecutor`] — *virtual* workers on
//!   [`pool::run_shards`], recording how much work each would have
//!   performed per region: the load balance of 8- or 16-thread runs on any
//!   host, and the input of `phylo-perfmodel`'s per-machine figures.
//!
//! `phylo-serve`'s sessions run [`pool::run_shards`] too, each on its own
//! driver thread under a fair share of compute slots.
//!
//! # Assignment flow
//!
//! Which patterns land on which worker is decided by the pluggable scheduling
//! subsystem in [`phylo_sched`]: a [`ScheduleStrategy`] turns a
//! [`PatternCosts`] workload description into an explicit [`Assignment`]
//! (pattern→worker map plus per-worker predicted cost), and every executor is
//! built *from* such an assignment:
//!
//! ```text
//! PartitionedPatterns ──PatternCosts::analytic──▶ PatternCosts
//!                                              │ ScheduleStrategy::assign
//!                                              ▼
//! build_workers(patterns, …, &Assignment) ──▶ Vec<WorkerSlices> ──▶ executor
//! ```
//!
//! [`schedule`] bundles the first two arrows; the strategies — [`Cyclic`]
//! and [`Block`] (the paper's two fixed schemes, placed bit for bit as in
//! the paper), [`WeightedLpt`] (cost-weighted bin-packing; under the scalar
//! costs [`schedule`] packs, a 20-state protein pattern counts 21× a DNA
//! pattern) and [`SpeedAwareLpt`] (LPT onto measured worker speeds) — live
//! in `phylo-sched`.
//!
//! ```
//! use phylo_data::{Alignment, DataType, PartitionSet, PartitionedPatterns};
//! use phylo_parallel::{build_workers, schedule, WeightedLpt};
//!
//! let alignment = Alignment::new(vec![
//!     ("t1".into(), "ACGTACGTACGT".into()),
//!     ("t2".into(), "ACGAACGAACGA".into()),
//! ]).unwrap();
//! let partitions = PartitionSet::equal_length(DataType::Dna, 12, 6);
//! let patterns = PartitionedPatterns::compile(&alignment, &partitions).unwrap();
//!
//! let assignment = schedule(&patterns, &[4, 4], 3, &WeightedLpt).unwrap();
//! let workers = build_workers(&patterns, 4, &[4, 4], &assignment).unwrap();
//! let total: usize = workers.iter().map(|w| w.total_patterns()).sum();
//! assert_eq!(total, patterns.total_patterns());
//! ```

#![forbid(unsafe_code)]

pub mod pool;
pub mod threaded;
pub mod tracing;

pub use threaded::{ExecutorOptions, ThreadedExecutor, WorkerSkew};
pub use tracing::TracingExecutor;

pub use phylo_sched::{
    Assignment, Block, Cyclic, PatternCosts, Reassignable, RescheduleDecision, ReschedulePolicy,
    Rescheduler, SchedError, ScheduleStrategy, SpeedAwareLpt, WeightedLpt,
};

use phylo_data::PartitionedPatterns;
use phylo_kernel::{KernelDispatch, WorkerSlices};

/// Builds an [`Assignment`] for a dataset with the analytic cost model:
/// derives [`PatternCosts`] from the partitions' state and category counts
/// under [`KernelDispatch::Scalar`] — the tabled `newview` flops, the unit
/// `TracingExecutor` records, whichever dispatch the engine then runs (the
/// `Analysis` builder packs against the dispatch it runs instead) — then
/// runs `strategy` over them.
///
/// # Errors
///
/// Whatever the strategy reports — at minimum [`SchedError::NoWorkers`] for
/// `worker_count == 0` and [`SchedError::EmptyWorkload`] for a dataset
/// without patterns.
pub fn schedule(
    patterns: &PartitionedPatterns,
    categories: &[usize],
    worker_count: usize,
    strategy: &dyn ScheduleStrategy,
) -> Result<Assignment, SchedError> {
    let costs = PatternCosts::analytic(patterns, categories, KernelDispatch::Scalar);
    strategy.assign(&costs, worker_count)
}

/// Builds the per-worker slices for all workers of an [`Assignment`].
///
/// # Errors
///
/// [`SchedError::PatternCountMismatch`] if the assignment was built for a
/// different pattern count than `patterns` contains.
pub fn build_workers(
    patterns: &PartitionedPatterns,
    node_capacity: usize,
    categories: &[usize],
    assignment: &Assignment,
) -> Result<Vec<WorkerSlices>, SchedError> {
    if assignment.pattern_count() != patterns.total_patterns() {
        return Err(SchedError::PatternCountMismatch {
            expected: patterns.total_patterns(),
            got: assignment.pattern_count(),
        });
    }
    Ok((0..assignment.worker_count())
        .map(|w| {
            WorkerSlices::from_assignment(
                patterns,
                w,
                assignment.worker_count(),
                node_capacity,
                categories,
                assignment.owner(),
            )
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use phylo_data::{Alignment, DataType, PartitionSet};

    fn patterns() -> PartitionedPatterns {
        let aln = Alignment::new(vec![
            ("t1".into(), "ACGTACGTACGTACGTAAGGCCTT".into()),
            ("t2".into(), "ACGTACGAACGTACGAAAGCCCTA".into()),
            ("t3".into(), "ACCTACGAACCTACGAATGCCCTA".into()),
        ])
        .unwrap();
        let ps = PartitionSet::equal_length(DataType::Dna, 24, 6);
        PartitionedPatterns::compile(&aln, &ps).unwrap()
    }

    #[test]
    fn all_strategies_cover_all_patterns() {
        let pp = patterns();
        let cats = vec![4; pp.partition_count()];
        let strategies: Vec<Box<dyn ScheduleStrategy>> =
            vec![Box::new(Cyclic), Box::new(Block), Box::new(WeightedLpt)];
        for strategy in &strategies {
            let assignment = schedule(&pp, &cats, 3, strategy.as_ref()).unwrap();
            let workers = build_workers(&pp, 8, &cats, &assignment).unwrap();
            let total: usize = workers.iter().map(|w| w.total_patterns()).sum();
            assert_eq!(total, pp.total_patterns(), "{}", strategy.name());
        }
    }

    #[test]
    fn block_strategy_is_contiguous_per_worker() {
        let pp = patterns();
        let cats = vec![4; pp.partition_count()];
        let assignment = schedule(&pp, &cats, 3, &Block).unwrap();
        let workers = build_workers(&pp, 8, &cats, &assignment).unwrap();
        for w in &workers {
            let mut indices: Vec<usize> = w
                .slices
                .iter()
                .flat_map(|s| s.global_indices.iter().copied())
                .collect();
            indices.sort_unstable();
            if indices.len() > 1 {
                assert_eq!(indices.last().unwrap() - indices[0] + 1, indices.len());
            }
        }
    }

    #[test]
    fn zero_workers_is_an_error_not_a_panic() {
        let pp = patterns();
        let cats = vec![4; pp.partition_count()];
        assert_eq!(
            schedule(&pp, &cats, 0, &Cyclic).unwrap_err(),
            SchedError::NoWorkers
        );
    }

    #[test]
    fn mismatched_assignment_is_rejected() {
        let pp = patterns();
        let cats = vec![4; pp.partition_count()];
        let foreign = Cyclic
            .assign(&PatternCosts::uniform(pp.total_patterns() + 5), 2)
            .unwrap();
        assert!(matches!(
            build_workers(&pp, 8, &cats, &foreign).unwrap_err(),
            SchedError::PatternCountMismatch { .. }
        ));
    }

    /// The acceptance bar for the scheduling refactor, kept alive after the
    /// legacy `Distribution` shim's removal: the strategy path still places
    /// every pattern exactly like the paper's original cyclic/block
    /// constructors.
    #[test]
    fn strategies_reproduce_original_placement_bit_for_bit() {
        type Original = fn(&PartitionedPatterns, usize, usize, usize, &[usize]) -> WorkerSlices;
        let pp = patterns();
        let cats = vec![4; pp.partition_count()];
        for (strategy, original_ctor) in [
            (
                &Cyclic as &dyn ScheduleStrategy,
                WorkerSlices::cyclic as Original,
            ),
            (&Block, WorkerSlices::block as Original),
        ] {
            for worker_count in [1usize, 2, 3, 5, 16] {
                let assignment = schedule(&pp, &cats, worker_count, strategy).unwrap();
                let modern = build_workers(&pp, 8, &cats, &assignment).unwrap();
                // The paper's original constructors are the ground truth.
                let original: Vec<WorkerSlices> = (0..worker_count)
                    .map(|w| original_ctor(&pp, w, worker_count, 8, &cats))
                    .collect();
                assert_eq!(modern.len(), original.len());
                for (b, c) in modern.iter().zip(original.iter()) {
                    assert_eq!(b.worker, c.worker);
                    assert_eq!(b.worker_count, c.worker_count);
                    assert_eq!(
                        b.slices,
                        c.slices,
                        "{} × {worker_count} workers vs original",
                        strategy.name()
                    );
                }
            }
        }
    }
}
