//! The outer model-optimization loop.
//!
//! RAxML-style searches alternate between tree-search phases and model
//! optimization phases; the latter (and the stand-alone "optimize model
//! parameters on a fixed tree" experiment of the paper) repeatedly cycle
//! through α, the Q-matrix rates and a branch-length smoothing pass until the
//! log likelihood stops improving.

use phylo_kernel::{Executor, KernelError, LikelihoodKernel};

use crate::branches::{optimize_all_branches_with_hook, BranchOptimizationStats};
use crate::config::OptimizerConfig;
use crate::model::{optimize_alphas, optimize_exchangeabilities, ModelOptimizationStats};

/// Where in a driver loop a rescheduling hook fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HookPoint {
    /// In the middle of a round — after one branch's Newton streams inside
    /// the smoothing pass (model optimization), or after the SPR sweep
    /// (tree search). This is where the mask-aware rescheduler reacts to the
    /// convergence-mask shape *within* the round.
    WithinRound,
    /// After a full outer round — the between-rounds point the plain
    /// (total-cost) rescheduler uses.
    RoundEnd,
}

/// Summary of a full model-parameter optimization run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptimizationReport {
    /// Log likelihood before any optimization.
    pub initial_log_likelihood: f64,
    /// Log likelihood after the final round.
    pub final_log_likelihood: f64,
    /// Number of outer rounds executed.
    pub rounds: usize,
    /// Branch-length work counters.
    pub branch_stats: BranchOptimizationStats,
    /// Model-parameter work counters.
    pub model_stats: ModelOptimizationStats,
    /// Synchronization events issued to the executor over the whole run.
    pub sync_events: u64,
}

/// Optimizes all model parameters (α, rates, branch lengths) on the fixed
/// current topology, alternating until the improvement per round drops below
/// `config.likelihood_epsilon` or `config.max_rounds` is reached.
///
/// # Errors
///
/// Propagates [`KernelError`] from the engine — most prominently a worker
/// death in a parallel backend. The master-side state (tree, models, branch
/// lengths) keeps every update committed before the failure, so a caller
/// that rebuilds the workers (`phylo_sched::Reassignable::reassign` +
/// `LikelihoodKernel::invalidate_all`) can call again and the optimization
/// *resumes* from where it got to; [`optimize_model_parameters_with_policy`]
/// does exactly that automatically.
///
/// [`optimize_model_parameters_with_policy`]: crate::adaptive::optimize_model_parameters_with_policy
pub fn optimize_model_parameters<E: Executor>(
    kernel: &mut LikelihoodKernel<E>,
    config: &OptimizerConfig,
) -> Result<OptimizationReport, KernelError> {
    optimize_model_parameters_with_hook(kernel, config, |_, _, _| Ok(()))
}

/// The same outer loop with a caller-supplied hook invoked at the two
/// rescheduling points: [`HookPoint::WithinRound`] after every branch of the
/// smoothing pass, and [`HookPoint::RoundEnd`] after every round —
/// deliberately *before* the convergence check, so the hook also runs
/// after the final round (a migration triggered there still benefits
/// whatever the caller runs next on the same kernel). `RunPolicy::run` uses
/// the hook to migrate pattern→worker ownership mid-run; the hook may
/// mutate the kernel as long as it preserves the likelihood. The error type
/// is the hook's: the plain entry runs with `KernelError`, the policy with
/// `OptimizeError`.
pub(crate) fn optimize_model_parameters_with_hook<E, X, F>(
    kernel: &mut LikelihoodKernel<E>,
    config: &OptimizerConfig,
    mut hook: F,
) -> Result<OptimizationReport, X>
where
    E: Executor,
    X: From<KernelError>,
    F: FnMut(&mut LikelihoodKernel<E>, usize, HookPoint) -> Result<(), X>,
{
    let sync_before = kernel.sync_events();
    let initial = kernel.try_log_likelihood()?;
    let mut current = initial;
    let mut branch_stats = BranchOptimizationStats::default();
    let mut model_stats = ModelOptimizationStats::default();
    let mut rounds = 0;

    for _ in 0..config.max_rounds.max(1) {
        rounds += 1;
        model_stats.merge(optimize_alphas(kernel, config)?);
        if config.optimize_rates {
            model_stats.merge(optimize_exchangeabilities(kernel, config)?);
        }
        let (lnl, bstats) = optimize_all_branches_with_hook(kernel, None, config, |kernel| {
            hook(kernel, rounds, HookPoint::WithinRound)
        })?;
        branch_stats.merge(bstats);

        let improvement = lnl - current;
        current = lnl;
        kernel.telemetry().optimizer_round(rounds, current);
        hook(kernel, rounds, HookPoint::RoundEnd)?;
        if improvement.abs() < config.likelihood_epsilon {
            break;
        }
    }

    Ok(OptimizationReport {
        initial_log_likelihood: initial,
        final_log_likelihood: current,
        rounds,
        branch_stats,
        model_stats,
        sync_events: kernel.sync_events() - sync_before,
    })
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
    fn full_optimization_improves_likelihood_monotonically() {
        let mut k = kernel(BranchLengthMode::PerPartition, 1);
        let config = OptimizerConfig::new(ParallelScheme::New);
        let report = optimize_model_parameters(&mut k, &config).unwrap();
        assert!(report.final_log_likelihood > report.initial_log_likelihood + 5.0);
        assert!(report.rounds >= 1);
        assert!(report.sync_events > 0);
        assert!(report.branch_stats.newton_iterations > 0);
        assert!(report.model_stats.brent_evaluations > 0);
    }

    #[test]
    fn schemes_agree_on_final_likelihood_but_not_on_sync_counts() {
        let mut k_old = kernel(BranchLengthMode::PerPartition, 2);
        let mut k_new = kernel(BranchLengthMode::PerPartition, 2);
        let report_old =
            optimize_model_parameters(&mut k_old, &OptimizerConfig::new(ParallelScheme::Old))
                .unwrap();
        let report_new =
            optimize_model_parameters(&mut k_new, &OptimizerConfig::new(ParallelScheme::New))
                .unwrap();
        let rel = (report_old.final_log_likelihood - report_new.final_log_likelihood).abs()
            / report_old.final_log_likelihood.abs();
        assert!(
            rel < 1e-3,
            "final lnL must agree: {} vs {}",
            report_old.final_log_likelihood,
            report_new.final_log_likelihood
        );
        assert!(
            report_old.sync_events > report_new.sync_events,
            "oldPAR must synchronize more often ({} vs {})",
            report_old.sync_events,
            report_new.sync_events
        );
    }

    #[test]
    fn joint_mode_also_converges() {
        let mut k = kernel(BranchLengthMode::Joint, 3);
        let config = OptimizerConfig::new(ParallelScheme::New);
        let report = optimize_model_parameters(&mut k, &config).unwrap();
        assert!(report.final_log_likelihood > report.initial_log_likelihood);
    }

    #[test]
    fn rates_can_be_disabled() {
        let mut k = kernel(BranchLengthMode::Joint, 4);
        let config = OptimizerConfig {
            optimize_rates: false,
            max_rounds: 1,
            ..OptimizerConfig::default()
        };
        let report = optimize_model_parameters(&mut k, &config).unwrap();
        assert!(report.final_log_likelihood >= report.initial_log_likelihood);
    }
}
