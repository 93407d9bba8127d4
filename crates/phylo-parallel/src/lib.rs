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
//! built *from* such an assignment. [`plan`] is the one entry point of that
//! decision — `Analysis`, `phylo-serve`'s sessions and `phylo-bench`'s figure
//! harness all call it:
//!
//! ```text
//! Option<ModelSet> ──ModelSet::default_for──▶ ModelSet ──▶ categories
//! PartitionedPatterns ──PatternCosts::analytic──▶ PatternCosts
//!                                              │ ScheduleStrategy::assign
//!                                              ▼
//! build_workers(patterns, …, &Assignment) ──▶ Vec<WorkerSlices> ──▶ executor
//! ```
//!
//! [`plan`] returns the first three arrows as one [`Plan`]; [`schedule`] is
//! its placement step without the models, for callers that hold category
//! counts. The strategies — [`Cyclic`] and [`Block`] (the paper's two fixed
//! schemes, placed bit for bit as in the paper), [`WeightedLpt`]
//! (cost-weighted bin-packing; under the analytic costs a 20-state protein
//! pattern counts 21× a DNA pattern) and [`SpeedAwareLpt`] (LPT onto measured
//! worker speeds) — live in `phylo-sched`.
//!
//! ```
//! use phylo_data::{Alignment, DataType, PartitionSet, PartitionedPatterns};
//! use phylo_parallel::{build_workers, plan, Plan, WeightedLpt};
//!
//! let alignment = Alignment::new(vec![
//!     ("t1".into(), "ACGTACGTACGT".into()),
//!     ("t2".into(), "ACGAACGAACGA".into()),
//! ]).unwrap();
//! let partitions = PartitionSet::equal_length(DataType::Dna, 12, 6);
//! let patterns = PartitionedPatterns::compile(&alignment, &partitions).unwrap();
//!
//! let Plan { categories, assignment, .. } =
//!     plan::<Box<dyn std::error::Error>>(&patterns, None, &WeightedLpt, 3).unwrap();
//! assert_eq!(categories, [4, 4]);
//! let workers = build_workers(&patterns, 4, &categories, &assignment).unwrap();
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
use phylo_kernel::{KernelError, WorkerSlices};
use phylo_models::{BranchLengthMode, ModelSet};

/// Everything a solve is built from, resolved once by [`plan`].
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// The per-partition models: the caller's, or
    /// [`ModelSet::default_for`] under per-partition branch lengths.
    pub models: ModelSet,
    /// Γ rate categories, one count per partition.
    pub categories: Vec<usize>,
    /// The analytic per-pattern costs the assignment packed.
    pub costs: PatternCosts,
    /// The strategy's pattern→worker placement.
    pub assignment: Assignment,
}

/// Resolves the models of a solve and places its patterns: `models` (or the
/// per-partition defaults), their category counts, [`PatternCosts::analytic`]
/// over them and `strategy`'s assignment onto `threads` workers.
///
/// # Errors
///
/// [`KernelError::ModelCountMismatch`] when `models` covers another number
/// of partitions than `patterns` (checked before the costs, whose
/// constructor asserts on it); otherwise whatever the strategy reports — at
/// minimum [`SchedError::NoWorkers`] for `threads == 0` and
/// [`SchedError::EmptyWorkload`] for a dataset without patterns.
pub fn plan<E: From<KernelError> + From<SchedError>>(
    patterns: &PartitionedPatterns,
    models: Option<ModelSet>,
    strategy: &dyn ScheduleStrategy,
    threads: usize,
) -> Result<Plan, E> {
    let models =
        models.unwrap_or_else(|| ModelSet::default_for(patterns, BranchLengthMode::PerPartition));
    if models.len() != patterns.partition_count() {
        return Err(KernelError::ModelCountMismatch {
            models: models.len(),
            partitions: patterns.partition_count(),
        }
        .into());
    }
    let categories: Vec<usize> = models.models().iter().map(|m| m.categories()).collect();
    let costs = PatternCosts::analytic(patterns, &categories);
    let assignment = strategy.assign(&costs, threads)?;
    Ok(Plan {
        models,
        categories,
        costs,
        assignment,
    })
}

/// [`plan`]'s placement step without the models: derives
/// [`PatternCosts::analytic`] from the partitions' state and category counts
/// — the tabled `newview` flops, the unit `TracingExecutor` records — then
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
    strategy.assign(&PatternCosts::analytic(patterns, categories), worker_count)
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

    type AnyError = Box<dyn std::error::Error>;

    #[test]
    fn plan_rejects_a_model_set_of_the_wrong_length_as_a_value() {
        let pp = patterns();
        let four = ModelSet::default_for(&pp, BranchLengthMode::PerPartition);
        let wrong = ModelSet::from_models(four.models()[..2].to_vec(), four.branch_mode());
        let mismatch = KernelError::ModelCountMismatch {
            models: 2,
            partitions: 4,
        };
        // Checked before the costs (whose constructor asserts on it) and
        // before the strategy sees the worker count.
        for threads in [0, 3] {
            let err = plan::<AnyError>(&pp, Some(wrong.clone()), &WeightedLpt, threads);
            assert_eq!(
                err.unwrap_err().downcast_ref(),
                Some(&mismatch),
                "T = {threads}"
            );
        }
    }

    #[test]
    fn plan_on_zero_threads_is_no_workers() {
        let err = plan::<AnyError>(&patterns(), None, &WeightedLpt, 0).unwrap_err();
        assert_eq!(err.downcast_ref(), Some(&SchedError::NoWorkers));
    }

    #[test]
    fn plan_defaults_to_per_partition_models() {
        let pp = patterns();
        let defaults = ModelSet::default_for(&pp, BranchLengthMode::PerPartition);
        let resolved = plan::<AnyError>(&pp, None, &WeightedLpt, 3).unwrap();
        let explicit = plan::<AnyError>(&pp, Some(defaults.clone()), &WeightedLpt, 3).unwrap();
        assert_eq!(resolved, explicit);
        assert_eq!(resolved.models, defaults);
        assert_eq!(resolved.categories, [4; 4]);
        assert_eq!(resolved.costs, PatternCosts::analytic(&pp, &[4; 4]));
        let scheduled = schedule(&pp, &[4; 4], 3, &WeightedLpt).unwrap();
        assert_eq!(resolved.assignment, scheduled);
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
