//! Brent-based optimization of the per-partition model parameters (Γ shape α
//! and the Q-matrix exchangeabilities): one masked stream loop that oldPAR and
//! newPAR both run.
//!
//! Evaluating a candidate α or rate requires invalidating and recomputing the
//! partition's CLVs with a *full* tree traversal, so every Brent iteration is
//! expensive: one region that runs the traversal and the evaluation back to
//! back. How many partitions share that region is `ParallelScheme::rounds`
//! and nothing else: oldPAR pays it per iteration *per partition* (and the
//! region only spans that partition's patterns); newPAR advances the Brent
//! state machines of all not-yet-converged partitions together, so the same
//! one region per iteration spans every active partition.

use phylo_kernel::{Executor, KernelError, LikelihoodKernel};
use phylo_math::brent::{BrentState, BrentStep};
use phylo_math::gamma_rates::{MAX_ALPHA, MIN_ALPHA};
use phylo_models::substitution::GTR_RATE_COUNT;
use phylo_models::BranchLengthMode;

use crate::config::OptimizerConfig;

/// Work counters of a model-parameter optimization.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ModelOptimizationStats {
    /// Total Brent objective evaluations summed over partitions.
    pub brent_evaluations: u64,
    /// Parallel evaluation rounds issued (each is one region: the full
    /// traversal and the evaluation); this is the count that differs between
    /// oldPAR and newPAR.
    pub evaluation_rounds: u64,
}

impl ModelOptimizationStats {
    /// Accumulates another stats record.
    pub fn merge(&mut self, other: ModelOptimizationStats) {
        self.brent_evaluations += other.brent_evaluations;
        self.evaluation_rounds += other.evaluation_rounds;
    }
}

/// Which model parameter a Brent pass optimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ModelParameter {
    /// The Γ shape parameter α.
    Alpha,
    /// One exchangeability of the GTR matrix (DNA partitions only).
    Exchangeability(usize),
}

impl ModelParameter {
    /// Stable label used in telemetry probe events.
    fn label(&self) -> &'static str {
        match self {
            ModelParameter::Alpha => "alpha",
            ModelParameter::Exchangeability(_) => "exchangeability",
        }
    }
}

fn parameter_value<E: Executor>(
    kernel: &LikelihoodKernel<E>,
    partition: usize,
    param: ModelParameter,
) -> f64 {
    match param {
        ModelParameter::Alpha => kernel.alpha(partition),
        ModelParameter::Exchangeability(i) => kernel.exchangeability(partition, i),
    }
}

fn set_parameter<E: Executor>(
    kernel: &mut LikelihoodKernel<E>,
    partition: usize,
    param: ModelParameter,
    value: f64,
) {
    match param {
        ModelParameter::Alpha => kernel.set_alpha(partition, value),
        ModelParameter::Exchangeability(i) => kernel.set_exchangeability(partition, i, value),
    }
}

fn parameter_bounds(param: ModelParameter, current: f64) -> (f64, f64) {
    let (global_lo, global_hi) = match param {
        ModelParameter::Alpha => (MIN_ALPHA, MAX_ALPHA),
        ModelParameter::Exchangeability(_) => (1.0e-2, 100.0),
    };
    // Bracket around the current value (in the spirit of RAxML's Brent
    // wrapper), clamped to the global bounds; Brent then works in log space.
    let lo = (current / 8.0).max(global_lo);
    let hi = (current * 8.0).min(global_hi);
    (lo.ln(), hi.ln())
}

/// Whether a parameter applies to a partition.
fn applicable<E: Executor>(
    kernel: &LikelihoodKernel<E>,
    partition: usize,
    param: ModelParameter,
) -> bool {
    match param {
        ModelParameter::Alpha => true,
        // Only DNA partitions have free exchangeabilities; protein partitions
        // keep their empirical matrix, and the last DNA rate (GT) is the fixed
        // reference rate.
        ModelParameter::Exchangeability(i) => {
            kernel.models().model(partition).data_type() == phylo_data::DataType::Dna
                && i < GTR_RATE_COUNT - 1
        }
    }
}

/// One Brent pass over a single parameter for every applicable partition:
/// per round of `ParallelScheme::rounds`, evaluate the initial point of the
/// round's streams, then iterate their Brent state machines together — every
/// evaluation round (one region) spans *all* not-yet-converged streams,
/// guarded by the boolean convergence vector — and apply the best points
/// found.
fn optimize_parameter<E: Executor>(
    kernel: &mut LikelihoodKernel<E>,
    param: ModelParameter,
    config: &OptimizerConfig,
) -> Result<ModelOptimizationStats, KernelError> {
    let mut stats = ModelOptimizationStats::default();
    let partitions = kernel.partition_count();
    let telemetry = kernel.telemetry().clone();
    let root = kernel.default_root_branch();
    for round in config
        .scheme
        .rounds(BranchLengthMode::PerPartition, partitions)
    {
        let mut streams: Vec<(usize, BrentState)> = round
            .into_iter()
            .flatten()
            .filter(|&p| applicable(kernel, p, param))
            .map(|p| {
                let (lo, hi) = parameter_bounds(param, parameter_value(kernel, p, param));
                (p, BrentState::new(lo, hi))
            })
            .collect();
        // Iteration 0 evaluates every stream's initial point; the following
        // ones whatever the state machines propose.
        for iteration in 0..=config.brent_max_iter {
            let proposals: Vec<Option<f64>> = streams
                .iter_mut()
                .map(|(_, state)| match iteration {
                    0 => Some(state.initial_point()),
                    _ => match state.propose(config.brent_tolerance) {
                        BrentStep::Evaluate(x) => Some(x),
                        BrentStep::Converged => None,
                    },
                })
                .collect();
            if proposals.iter().all(Option::is_none) {
                break;
            }
            let mut mask = vec![false; partitions];
            for (&(p, _), x) in streams.iter().zip(&proposals) {
                if let Some(x) = x {
                    set_parameter(kernel, p, param, x.exp());
                    mask[p] = true;
                    stats.brent_evaluations += 1;
                }
            }
            let lnls = kernel.try_log_likelihood_partitions(root, &mask)?;
            stats.evaluation_rounds += 1;
            for ((p, state), x) in streams.iter_mut().zip(proposals) {
                let Some(x) = x else { continue };
                let lnl = lnls[*p];
                telemetry.brent_probe(param.label(), *p, x.exp(), lnl);
                match iteration {
                    0 => state.set_initial_value(-lnl),
                    _ => state.update(x, -lnl),
                }
            }
        }
        for (p, state) in &streams {
            set_parameter(kernel, *p, param, state.best_point().exp());
        }
    }
    Ok(stats)
}

/// Optimizes the Γ shape parameter α of every partition.
///
/// # Errors
///
/// Propagates [`KernelError`] from the engine.
pub fn optimize_alphas<E: Executor>(
    kernel: &mut LikelihoodKernel<E>,
    config: &OptimizerConfig,
) -> Result<ModelOptimizationStats, KernelError> {
    optimize_parameter(kernel, ModelParameter::Alpha, config)
}

/// Optimizes the free GTR exchangeabilities of every DNA partition (one Brent
/// pass per rate, as in RAxML's round-robin rate optimization).
///
/// # Errors
///
/// Propagates [`KernelError`] from the engine.
pub fn optimize_exchangeabilities<E: Executor>(
    kernel: &mut LikelihoodKernel<E>,
    config: &OptimizerConfig,
) -> Result<ModelOptimizationStats, KernelError> {
    let mut stats = ModelOptimizationStats::default();
    for rate in 0..GTR_RATE_COUNT - 1 {
        stats.merge(optimize_parameter(
            kernel,
            ModelParameter::Exchangeability(rate),
            config,
        )?);
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ParallelScheme;
    use phylo_kernel::SequentialKernel;
    use phylo_models::ModelSet;
    use phylo_seqgen::datasets::paper_simulated;
    use std::sync::Arc;

    fn kernel(seed: u64) -> SequentialKernel {
        let ds = paper_simulated(8, 320, 80, seed).generate();
        let models = ModelSet::default_for(&ds.patterns, BranchLengthMode::PerPartition);
        SequentialKernel::build(Arc::clone(&ds.patterns), ds.tree.clone(), models).unwrap()
    }

    #[test]
    fn alpha_optimization_improves_likelihood() {
        let mut k = kernel(1);
        let before = k.try_log_likelihood().unwrap();
        let config = OptimizerConfig::new(ParallelScheme::New);
        let stats = optimize_alphas(&mut k, &config).unwrap();
        let after = k.try_log_likelihood().unwrap();
        assert!(
            after >= before - 1e-9,
            "lnL must not get worse: {before} -> {after}"
        );
        assert!(
            after > before + 0.5,
            "expected a real improvement: {before} -> {after}"
        );
        assert!(stats.brent_evaluations > 0);
        // The optimized alphas should differ between partitions (each gene was
        // simulated with its own shape).
        let alphas: Vec<f64> = (0..k.partition_count()).map(|p| k.alpha(p)).collect();
        let min = alphas.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = alphas.iter().cloned().fold(0.0f64, f64::max);
        assert!(
            max - min > 0.05,
            "per-partition alphas should differ: {alphas:?}"
        );
    }

    #[test]
    fn old_and_new_schemes_agree_on_alpha_optima() {
        let mut k_old = kernel(2);
        let mut k_new = kernel(2);
        let stats_old =
            optimize_alphas(&mut k_old, &OptimizerConfig::new(ParallelScheme::Old)).unwrap();
        let stats_new =
            optimize_alphas(&mut k_new, &OptimizerConfig::new(ParallelScheme::New)).unwrap();
        for p in 0..k_old.partition_count() {
            let a = k_old.alpha(p);
            let b = k_new.alpha(p);
            assert!(
                (a.ln() - b.ln()).abs() < 0.05,
                "partition {p}: alpha {a} vs {b}"
            );
        }
        // Same total number of Brent evaluations (same state machines), but far
        // fewer evaluation rounds in the new scheme.
        assert_eq!(stats_old.brent_evaluations, stats_new.brent_evaluations);
        assert!(
            stats_old.evaluation_rounds > stats_new.evaluation_rounds * 2,
            "oldPAR rounds {} vs newPAR rounds {}",
            stats_old.evaluation_rounds,
            stats_new.evaluation_rounds
        );
    }

    #[test]
    fn exchangeability_optimization_improves_likelihood() {
        let mut k = kernel(3);
        let config = OptimizerConfig::new(ParallelScheme::New);
        let before = k.try_log_likelihood().unwrap();
        let stats = optimize_exchangeabilities(&mut k, &config).unwrap();
        let after = k.try_log_likelihood().unwrap();
        assert!(
            after > before,
            "rate optimization must improve lnL: {before} -> {after}"
        );
        assert!(stats.evaluation_rounds > 0);
    }

    #[test]
    fn protein_partitions_are_skipped_for_rate_optimization() {
        use phylo_seqgen::datasets::DatasetSpec;
        let spec = DatasetSpec {
            name: "mini_protein".into(),
            taxa: 6,
            partition_columns: vec![40, 40],
            data_type: phylo_data::DataType::Protein,
            protein_partitions: Vec::new(),
            missing_taxa_fraction: 0.0,
            seed: 4,
        };
        let ds = spec.generate();
        let models = ModelSet::default_for(&ds.patterns, BranchLengthMode::PerPartition);
        let mut k =
            SequentialKernel::build(Arc::clone(&ds.patterns), ds.tree.clone(), models).unwrap();
        let before_exch: Vec<f64> = (0..2).map(|p| k.exchangeability(p, 0)).collect();
        let config = OptimizerConfig::new(ParallelScheme::New);
        let stats = optimize_exchangeabilities(&mut k, &config).unwrap();
        assert_eq!(
            stats.brent_evaluations, 0,
            "no free rates on protein partitions"
        );
        for (p, &before) in before_exch.iter().enumerate() {
            assert!((k.exchangeability(p, 0) - before).abs() < 1e-15);
        }
    }

    #[test]
    fn alpha_recovers_rate_heterogeneity_signal() {
        // A dataset simulated with strong heterogeneity (the generator draws
        // alpha in [0.3, 1.6]) should not be optimized towards the "no
        // heterogeneity" limit.
        let mut k = kernel(5);
        let config = OptimizerConfig::new(ParallelScheme::New);
        optimize_alphas(&mut k, &config).unwrap();
        for p in 0..k.partition_count() {
            let alpha = k.alpha(p);
            assert!(
                (0.05..50.0).contains(&alpha),
                "partition {p}: implausible alpha {alpha}"
            );
        }
    }
}
