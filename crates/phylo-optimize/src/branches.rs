//! Newton–Raphson branch-length optimization (the RAxML `makenewz` loop):
//! one masked stream loop that oldPAR, newPAR and joint estimates all run.
//!
//! Per branch, the first parallel region brings the CLVs up to date, builds
//! the branch sum tables and evaluates the first Newton–Raphson probe; every
//! further iteration is a single cheap parallel region evaluating the first
//! and second derivative of the log likelihood at the current candidate
//! length — `max_p n_p` regions under newPAR and `Σ_p n_p` under oldPAR, the
//! paper's formula with no additive term. With per-partition branch
//! lengths the iteration counts differ between partitions; how the
//! per-partition streams share regions is `ParallelScheme::rounds` and
//! nothing else — each partition's one-branch likelihood is an independent
//! 1-D problem, so the grouping changes the region count, never an iterate.

use phylo_kernel::engine::BranchScope;
use phylo_kernel::{Executor, KernelError, LikelihoodKernel};
use phylo_math::newton::{NewtonState, NewtonStep};
use phylo_tree::topology::{MAX_BRANCH_LENGTH, MIN_BRANCH_LENGTH};
use phylo_tree::BranchId;

use crate::config::{OptimizerConfig, Stream};

/// Work counters of a branch-length optimization.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BranchOptimizationStats {
    /// Branches processed.
    pub branches_optimized: u64,
    /// Total Newton–Raphson iterations summed over partitions.
    pub newton_iterations: u64,
    /// Derivative parallel regions issued (the synchronization events that
    /// differ between oldPAR and newPAR).
    pub derivative_regions: u64,
}

impl BranchOptimizationStats {
    /// Accumulates another stats record.
    pub fn merge(&mut self, other: BranchOptimizationStats) {
        self.branches_optimized += other.branches_optimized;
        self.newton_iterations += other.newton_iterations;
        self.derivative_regions += other.derivative_regions;
    }
}

/// Optimizes the length(s) of one branch: per round of
/// `ParallelScheme::rounds`, iterate the Newton–Raphson streams of the
/// round's partitions together — the first region also prepares the branch
/// for them, and every region evaluates the derivatives of *all*
/// not-yet-converged streams at their own candidate lengths, guarded by the
/// boolean convergence vector — and commit the lengths they converged to.
///
/// # Errors
///
/// Propagates [`KernelError`] from the engine (e.g. a worker death in the
/// parallel backend); the master-side state keeps whatever lengths had been
/// committed before the failure. [`KernelError::OutputMismatch`] when the
/// executor returns no derivative for a partition the region asked for.
pub fn optimize_branch<E: Executor>(
    kernel: &mut LikelihoodKernel<E>,
    branch: BranchId,
    config: &OptimizerConfig,
) -> Result<BranchOptimizationStats, KernelError> {
    let mut stats = BranchOptimizationStats {
        branches_optimized: 1,
        ..Default::default()
    };
    let partitions = kernel.partition_count();
    let telemetry = kernel.telemetry().clone();
    // The partitions a stream's derivative sums over.
    let members = |stream: Stream| stream.map_or(0..partitions, |p| p..p + 1);
    for round in config
        .scheme
        .rounds(kernel.models().branch_mode(), partitions)
    {
        let mut mask = vec![false; partitions];
        for &stream in &round {
            mask[members(stream)].fill(true);
        }
        let mut states: Vec<NewtonState> = round
            .iter()
            .map(|&stream| {
                NewtonState::new(
                    kernel.branch_length(members(stream).start, branch),
                    MIN_BRANCH_LENGTH,
                    MAX_BRANCH_LENGTH,
                    config.branch_epsilon,
                    config.branch_max_iter,
                )
            })
            .collect();
        // The first proposals are known before the sum table exists, so they
        // ride with the command that builds it (traversal + sum table + first
        // derivative in one region, RAxML's `THREAD_MAKENEWZ_FIRST`): the
        // round costs exactly as many regions as its longest stream probes.
        let mut unprepared = Some(mask);
        loop {
            // The convergence mask: converged streams are excluded from the
            // parallel region so no likelihood work is wasted on them.
            // `NewtonState` already confines its iterates to [lower, upper];
            // the clamp re-asserts that at the exact point a probe crosses
            // the kernel boundary, which *rejects* out-of-domain lengths as
            // typed errors rather than exponentiating them.
            let proposals: Vec<Option<f64>> = states
                .iter()
                .map(|state| match state.propose() {
                    NewtonStep::Evaluate(t) => Some(t.clamp(MIN_BRANCH_LENGTH, MAX_BRANCH_LENGTH)),
                    NewtonStep::Converged => None,
                })
                .collect();
            if proposals.iter().all(Option::is_none) {
                break;
            }
            let mut lengths: Vec<Option<f64>> = vec![None; partitions];
            for (&stream, &t) in round.iter().zip(&proposals) {
                lengths[members(stream)].fill(t);
            }
            let ders = match unprepared.take() {
                Some(mask) => kernel.try_prepare_branch_at(branch, &mask, &lengths)?,
                None => kernel.try_branch_derivatives(&lengths)?,
            };
            stats.derivative_regions += 1;
            for ((&stream, state), t) in round.iter().zip(&mut states).zip(proposals) {
                let Some(t) = t else { continue };
                // −0.0 is the additive identity that keeps the sign of zero,
                // so a one-partition stream sees its derivatives bit for bit.
                let (mut lnl, mut d1, mut d2) = (-0.0, -0.0, -0.0);
                for p in members(stream) {
                    let d = ders
                        .get(p)
                        .copied()
                        .flatten()
                        .ok_or(KernelError::OutputMismatch {
                            expected: "derivatives",
                            got: "none for an active partition",
                        })?;
                    lnl += d.log_likelihood;
                    d1 += d.first;
                    d2 += d.second;
                }
                stats.newton_iterations += 1;
                telemetry.newton_probe(branch, stream, t, lnl, d1, d2);
                state.update(d1, d2);
            }
        }
        for (&stream, state) in round.iter().zip(&states) {
            let scope = stream.map_or(BranchScope::All, BranchScope::Partition);
            kernel.set_branch_length(scope, branch, state.current);
        }
    }
    Ok(stats)
}

/// Optimizes every branch in `branches` (or all branches when `None`),
/// repeating up to `config.branch_passes` smoothing passes, and returns the
/// final log likelihood together with the accumulated statistics.
///
/// # Errors
///
/// Propagates [`KernelError`] from the engine.
pub fn optimize_all_branches<E: Executor>(
    kernel: &mut LikelihoodKernel<E>,
    branches: Option<&[BranchId]>,
    config: &OptimizerConfig,
) -> Result<(f64, BranchOptimizationStats), KernelError> {
    optimize_all_branches_with_hook(kernel, branches, config, |_| Ok(()))
}

/// The same smoothing loop with a hook invoked after every branch — the
/// *within-round* point where the mask-aware rescheduler looks at the
/// convergence-mask shape the branch's Newton streams just recorded. The
/// hook may mutate the kernel as long as it preserves the likelihood.
///
/// # Errors
///
/// Propagates [`KernelError`] from the engine and whatever the hook fails
/// with, in the hook's error type.
pub fn optimize_all_branches_with_hook<E, X, F>(
    kernel: &mut LikelihoodKernel<E>,
    branches: Option<&[BranchId]>,
    config: &OptimizerConfig,
    mut after_branch: F,
) -> Result<(f64, BranchOptimizationStats), X>
where
    E: Executor,
    X: From<KernelError>,
    F: FnMut(&mut LikelihoodKernel<E>) -> Result<(), X>,
{
    let branch_list: Vec<BranchId> = match branches {
        Some(list) => list.to_vec(),
        None => kernel.tree().branches().collect(),
    };
    let mut stats = BranchOptimizationStats::default();
    for _pass in 0..config.branch_passes.max(1) {
        let mut max_change = 0.0f64;
        for &b in &branch_list {
            let before: Vec<f64> = (0..kernel.partition_count())
                .map(|p| kernel.branch_length(p, b))
                .collect();
            stats.merge(optimize_branch(kernel, b, config)?);
            for (p, &old) in before.iter().enumerate() {
                max_change = max_change.max((kernel.branch_length(p, b) - old).abs());
            }
            after_branch(kernel)?;
        }
        if max_change < config.branch_epsilon {
            break;
        }
    }
    Ok((kernel.try_log_likelihood()?, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ParallelScheme;
    use phylo_kernel::SequentialKernel;
    use phylo_models::{BranchLengthMode, ModelSet};
    use phylo_seqgen::datasets::paper_simulated;
    use std::sync::Arc;

    fn kernel(mode: BranchLengthMode, seed: u64) -> SequentialKernel {
        let ds = paper_simulated(8, 240, 60, seed).generate();
        let models = ModelSet::default_for(&ds.patterns, mode);
        SequentialKernel::build(Arc::clone(&ds.patterns), ds.tree.clone(), models).unwrap()
    }

    #[test]
    fn optimizing_branches_improves_likelihood() {
        for mode in [BranchLengthMode::Joint, BranchLengthMode::PerPartition] {
            let mut k = kernel(mode, 1);
            let before = k.try_log_likelihood().unwrap();
            let config = OptimizerConfig::new(ParallelScheme::New);
            let (after, stats) = optimize_all_branches(&mut k, None, &config).unwrap();
            assert!(
                after > before + 1.0,
                "{mode:?}: lnL must improve substantially ({before} -> {after})"
            );
            assert!(stats.newton_iterations > 0);
            assert_eq!(
                stats.branches_optimized as usize % k.tree().branch_count(),
                0
            );
        }
    }

    #[test]
    fn old_and_new_schemes_reach_the_same_optimum() {
        let config_old = OptimizerConfig::new(ParallelScheme::Old);
        let config_new = OptimizerConfig::new(ParallelScheme::New);

        let mut k_old = kernel(BranchLengthMode::PerPartition, 2);
        let mut k_new = kernel(BranchLengthMode::PerPartition, 2);
        let (lnl_old, _) = optimize_all_branches(&mut k_old, None, &config_old).unwrap();
        let (lnl_new, _) = optimize_all_branches(&mut k_new, None, &config_new).unwrap();
        assert!(
            (lnl_old - lnl_new).abs() < 0.05,
            "schemes must agree on the optimum: {lnl_old} vs {lnl_new}"
        );
        // Branch lengths agree per partition.
        for b in k_old.tree().branches() {
            for p in 0..k_old.partition_count() {
                let a = k_old.branch_length(p, b);
                let c = k_new.branch_length(p, b);
                assert!((a - c).abs() < 5e-3, "branch {b} partition {p}: {a} vs {c}");
            }
        }
    }

    #[test]
    fn new_scheme_issues_far_fewer_derivative_regions() {
        let config_old = OptimizerConfig::new(ParallelScheme::Old);
        let config_new = OptimizerConfig::new(ParallelScheme::New);

        let mut k_old = kernel(BranchLengthMode::PerPartition, 3);
        let mut k_new = kernel(BranchLengthMode::PerPartition, 3);
        let branch = k_old.tree().internal_branches()[0];
        let stats_old = optimize_branch(&mut k_old, branch, &config_old).unwrap();
        let stats_new = optimize_branch(&mut k_new, branch, &config_new).unwrap();
        let partitions = k_old.partition_count() as u64;
        assert!(partitions >= 4);
        assert!(
            stats_old.derivative_regions >= stats_new.derivative_regions * 2,
            "oldPAR regions {} should far exceed newPAR regions {}",
            stats_old.derivative_regions,
            stats_new.derivative_regions
        );
        // newPAR needs at most max-per-partition iterations, i.e. no more than
        // the per-branch iteration cap.
        assert!(stats_new.derivative_regions <= config_new.branch_max_iter as u64);
        // Total NR iterations are similar (same per-partition optimizations).
        let ratio = stats_old.newton_iterations as f64 / stats_new.newton_iterations as f64;
        assert!(
            (0.5..2.0).contains(&ratio),
            "iteration totals should be comparable: {ratio}"
        );
    }

    #[test]
    fn per_partition_lengths_diverge_between_partitions() {
        // The generator gives each partition its own simulation parameters, so
        // the optimized per-partition lengths of one branch should not all be
        // identical.
        let mut k = kernel(BranchLengthMode::PerPartition, 4);
        let config = OptimizerConfig::new(ParallelScheme::New);
        let (_, _) = optimize_all_branches(&mut k, None, &config).unwrap();
        let branch = k.tree().internal_branches()[0];
        let lengths: Vec<f64> = (0..k.partition_count())
            .map(|p| k.branch_length(p, branch))
            .collect();
        let min = lengths.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = lengths.iter().cloned().fold(0.0f64, f64::max);
        assert!(
            max - min > 1e-4,
            "per-partition branch lengths should differ: {lengths:?}"
        );
    }

    #[test]
    fn gradient_is_near_zero_at_the_optimum() {
        let mut k = kernel(BranchLengthMode::PerPartition, 5);
        let config = OptimizerConfig::new(ParallelScheme::New);
        let branch = k.tree().internal_branches()[0];
        optimize_branch(&mut k, branch, &config).unwrap();
        // Re-evaluate the derivative at the optimized lengths.
        let mask = k.full_mask();
        k.try_prepare_branch(branch, &mask).unwrap();
        let lengths: Vec<Option<f64>> = (0..k.partition_count())
            .map(|p| Some(k.branch_length(p, branch)))
            .collect();
        let ders = k.try_branch_derivatives(&lengths).unwrap();
        for (p, d) in ders.iter().enumerate() {
            let d = d.unwrap();
            let t = lengths[p].unwrap();
            // Interior optima have a (near-)zero gradient; boundary optima are
            // allowed to keep a one-sided gradient.
            if t > MIN_BRANCH_LENGTH * 2.0 && t < MAX_BRANCH_LENGTH * 0.9 {
                assert!(
                    d.first.abs() < 2.0,
                    "partition {p}: gradient {} too large at optimum {t}",
                    d.first
                );
            }
        }
    }

    /// A sequential executor that drops partition 1's derivative.
    struct Forgetful(phylo_kernel::SequentialExecutor);

    impl Executor for Forgetful {
        fn worker_count(&self) -> usize {
            1
        }
        fn execute(
            &mut self,
            op: &phylo_kernel::KernelOp,
            ctx: &phylo_kernel::ExecContext<'_>,
        ) -> Result<phylo_kernel::OpOutput, phylo_kernel::ExecError> {
            Ok(match self.0.execute(op, ctx)? {
                phylo_kernel::OpOutput::Derivatives(mut ders) => {
                    ders[1] = None;
                    phylo_kernel::OpOutput::Derivatives(ders)
                }
                other => other,
            })
        }
        fn sync_events(&self) -> u64 {
            self.0.sync_events()
        }
    }

    #[test]
    fn a_missing_active_derivative_is_an_error_not_a_panic() {
        let ds = paper_simulated(8, 240, 60, 7).generate();
        for mode in [BranchLengthMode::Joint, BranchLengthMode::PerPartition] {
            for scheme in [ParallelScheme::Old, ParallelScheme::New] {
                let models = ModelSet::default_for(&ds.patterns, mode);
                let cats: Vec<usize> = models.models().iter().map(|m| m.categories()).collect();
                let exec = phylo_kernel::SequentialExecutor::new(
                    &ds.patterns,
                    ds.tree.node_capacity(),
                    &cats,
                );
                let mut k = LikelihoodKernel::try_new(
                    Arc::clone(&ds.patterns),
                    ds.tree.clone(),
                    models,
                    Forgetful(exec),
                )
                .unwrap();
                let result = optimize_branch(&mut k, 0, &OptimizerConfig::new(scheme));
                assert!(
                    matches!(
                        result,
                        Err(KernelError::OutputMismatch {
                            expected: "derivatives",
                            ..
                        })
                    ),
                    "{mode:?}/{scheme}: {result:?}"
                );
            }
        }
    }

    #[test]
    fn subset_optimization_only_touches_requested_branches() {
        let mut k = kernel(BranchLengthMode::Joint, 6);
        let all: Vec<f64> = k.tree().branches().map(|b| k.branch_length(0, b)).collect();
        let subset = [0usize, 1];
        let config = OptimizerConfig::search_phase(ParallelScheme::New);
        let _ = optimize_all_branches(&mut k, Some(&subset), &config).unwrap();
        for b in k.tree().branches() {
            if !subset.contains(&b) {
                assert!(
                    (k.branch_length(0, b) - all[b]).abs() < 1e-15,
                    "branch {b} must be untouched"
                );
            }
        }
    }
}
