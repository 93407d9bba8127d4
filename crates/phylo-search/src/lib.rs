//! Maximum-likelihood tree search.
//!
//! The paper's "full ML tree search" experiments run RAxML's hill-climbing
//! search, which alternates between a tree-search phase (SPR moves with local
//! branch-length optimization, touching only 3–4 conditional likelihood
//! vectors per evaluated move) and a model-optimization phase (full traversals
//! while α, the Q matrices and all branch lengths are re-estimated). This
//! crate implements that loop on top of the likelihood engine and the
//! oldPAR/newPAR optimizers; which scheme is used is part of the
//! [`SearchConfig`], so the same search can be timed under both schemes.
//! [`tree_search`] is the loop; [`tree_search_with_policy`] hands the same
//! loop to `phylo_optimize`'s [`RunPolicy`], which owns worker-death recovery
//! and mid-run rescheduling for every driver.
//!
//! ```
//! use std::sync::Arc;
//! use phylo_kernel::SequentialKernel;
//! use phylo_models::{BranchLengthMode, ModelSet};
//! use phylo_optimize::ParallelScheme;
//! use phylo_search::{tree_search, SearchConfig};
//! use phylo_seqgen::datasets::paper_simulated;
//!
//! let ds = paper_simulated(6, 80, 40, 3).generate();
//! let models = ModelSet::default_for(&ds.patterns, BranchLengthMode::PerPartition);
//! let mut kernel = SequentialKernel::build(Arc::clone(&ds.patterns), ds.tree.clone(), models).unwrap();
//!
//! let mut config = SearchConfig::new(ParallelScheme::New);
//! config.max_rounds = 1;
//! config.spr_radius = 2;
//! config.optimize_model_between_rounds = false;
//! let result = tree_search(&mut kernel, &config).unwrap();
//! assert!(result.final_log_likelihood >= result.initial_log_likelihood);
//! assert!(kernel.tree().validate().is_ok());
//! ```

#![forbid(unsafe_code)]

use phylo_kernel::{Executor, KernelError, LikelihoodKernel};
use phylo_optimize::{
    optimize_all_branches, optimize_model_parameters, HookPoint, OptimizeError, OptimizerConfig,
    ParallelScheme, PolicyRun, RunPolicy,
};
use phylo_sched::Reassignable;
use phylo_tree::spr::{candidate_moves, SprMove};

/// Configuration of the SPR hill-climbing search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchConfig {
    /// Maximum number of branches between the pruning point and a regraft
    /// target (RAxML's "rearrangement radius").
    pub spr_radius: usize,
    /// Maximum number of search rounds (each round tries moves at every
    /// internal node).
    pub max_rounds: usize,
    /// Minimum log-likelihood gain for accepting a move.
    pub acceptance_epsilon: f64,
    /// Optimizer settings used for the local branch-length optimization inside
    /// the search phase.
    pub search_optimizer: OptimizerConfig,
    /// Optimizer settings used for the model-optimization phase between search
    /// rounds.
    pub model_optimizer: OptimizerConfig,
    /// Whether to run the model-optimization phase between rounds.
    pub optimize_model_between_rounds: bool,
}

impl SearchConfig {
    /// Default search configuration for a parallelization scheme.
    pub fn new(scheme: ParallelScheme) -> Self {
        Self {
            spr_radius: 5,
            max_rounds: 3,
            acceptance_epsilon: 1e-3,
            search_optimizer: OptimizerConfig::search_phase(scheme),
            model_optimizer: OptimizerConfig::new(scheme),
            optimize_model_between_rounds: true,
        }
    }

    /// The scheme both optimizer configurations use.
    pub fn scheme(&self) -> ParallelScheme {
        self.search_optimizer.scheme
    }
}

impl Default for SearchConfig {
    fn default() -> Self {
        Self::new(ParallelScheme::New)
    }
}

/// Outcome of a tree search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchResult {
    /// Log likelihood of the starting tree (after initial branch smoothing).
    pub initial_log_likelihood: f64,
    /// Log likelihood of the final tree.
    pub final_log_likelihood: f64,
    /// Number of candidate moves whose likelihood was evaluated.
    pub evaluated_moves: u64,
    /// Number of accepted (improving) moves.
    pub accepted_moves: u64,
    /// Number of completed search rounds.
    pub rounds: usize,
    /// Synchronization events issued over the whole search.
    pub sync_events: u64,
}

/// Runs the SPR hill-climbing search on the engine's current tree.
///
/// # Errors
///
/// Propagates [`KernelError`] from the engine — most prominently a worker
/// death in a parallel backend. The tree, models and branch lengths keep
/// every accepted move and committed update, so a caller that rebuilds the
/// workers can call again and the search resumes from the current tree;
/// [`tree_search_with_policy`] does that automatically.
pub fn tree_search<E: Executor>(
    kernel: &mut LikelihoodKernel<E>,
    config: &SearchConfig,
) -> Result<SearchResult, KernelError> {
    tree_search_with_hook(kernel, config, |_, _, _| Ok(()))
}

/// [`tree_search`] under a [`RunPolicy`]: worker deaths are absorbed up to the
/// policy's budget by rebuilding the workers and resuming the search on the
/// current (partially improved) tree, and with a rescheduler the live trace
/// migrates pattern→worker ownership after the SPR sweep (mask-aware) or the
/// round — the search continues with bit-identical likelihood semantics.
/// After a recovery the returned result describes the final resumed attempt:
/// the initial-lnL, move and sync-event counters restart at the last
/// recovery point, and the interrupted round's smoothing and candidate
/// evaluations are re-executed.
///
/// # Errors
///
/// As for [`RunPolicy::run`].
pub fn tree_search_with_policy<E>(
    kernel: &mut LikelihoodKernel<E>,
    config: &SearchConfig,
    policy: RunPolicy<'_>,
) -> Result<PolicyRun<SearchResult>, OptimizeError>
where
    E: Executor + Reassignable,
{
    policy.run(kernel, |kernel, hook| {
        tree_search_with_hook(kernel, config, hook)
    })
}

/// The search loop with a caller-supplied hook invoked at the two
/// rescheduling points of each round: [`HookPoint::WithinRound`] after the
/// SPR sweep (the local branch optimizations just recorded the round's
/// convergence-mask shape) and [`HookPoint::RoundEnd`] at the end of the
/// round, before the no-improvement break. The hook may mutate the kernel
/// as long as it preserves the likelihood; the error type is the hook's.
fn tree_search_with_hook<E, X, F>(
    kernel: &mut LikelihoodKernel<E>,
    config: &SearchConfig,
    mut hook: F,
) -> Result<SearchResult, X>
where
    E: Executor,
    X: From<KernelError>,
    F: FnMut(&mut LikelihoodKernel<E>, usize, HookPoint) -> Result<(), X>,
{
    let sync_before = kernel.sync_events();

    // Initial smoothing of the starting tree, as RAxML does before searching.
    let (mut best_lnl, _) = optimize_all_branches(kernel, None, &config.search_optimizer)?;
    let initial = best_lnl;

    let mut evaluated = 0u64;
    let mut accepted = 0u64;
    let mut rounds = 0usize;

    for _round in 0..config.max_rounds {
        rounds += 1;
        let mut improved_this_round = false;

        let internal_nodes: Vec<_> = kernel.tree().internal_nodes().collect();
        for node in internal_nodes {
            // Try pruning each of the node's three subtrees in turn.
            let neighbor_list: Vec<_> = kernel
                .tree()
                .neighbors(node)
                .iter()
                .map(|&(n, _)| n)
                .collect();
            for subtree in neighbor_list {
                let moves: Vec<SprMove> =
                    candidate_moves(kernel.tree(), node, subtree, config.spr_radius);
                for mv in moves {
                    let Ok(application) = kernel.apply_spr(mv) else {
                        continue;
                    };
                    // Local branch-length optimization around the insertion
                    // point (3 branches), as in lazy SPR.
                    let local = LikelihoodKernel::<E>::inserted_branches(&application);
                    let (lnl, _) =
                        optimize_all_branches(kernel, Some(&local), &config.search_optimizer)?;
                    evaluated += 1;
                    if lnl > best_lnl + config.acceptance_epsilon {
                        best_lnl = lnl;
                        accepted += 1;
                        improved_this_round = true;
                        // Keep the move; continue searching from the new tree.
                        break;
                    } else {
                        kernel.undo_spr(&application);
                    }
                }
            }
        }

        hook(kernel, rounds, HookPoint::WithinRound)?;

        if config.optimize_model_between_rounds {
            let report = optimize_model_parameters(kernel, &config.model_optimizer)?;
            best_lnl = report.final_log_likelihood;
        }

        // Search rounds share the optimizer-round event: the timeline shows
        // the likelihood staircase of the whole run, inner model rounds and
        // outer SPR rounds alike (timestamps keep them apart).
        kernel.telemetry().optimizer_round(rounds, best_lnl);
        hook(kernel, rounds, HookPoint::RoundEnd)?;
        if !improved_this_round {
            break;
        }
    }

    Ok(SearchResult {
        initial_log_likelihood: initial,
        final_log_likelihood: best_lnl,
        evaluated_moves: evaluated,
        accepted_moves: accepted,
        rounds,
        sync_events: kernel.sync_events() - sync_before,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use phylo_kernel::SequentialKernel;
    use phylo_models::{BranchLengthMode, ModelSet};
    use phylo_seqgen::datasets::paper_simulated;
    use phylo_tree::random::random_tree;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use std::sync::Arc;

    /// Builds an engine whose starting tree is a *random* topology, unrelated
    /// to the tree the data were simulated on.
    fn kernel_with_random_start(seed: u64) -> (SequentialKernel, phylo_tree::Tree) {
        let ds = paper_simulated(8, 400, 100, seed).generate();
        let mut rng = ChaCha8Rng::seed_from_u64(seed.wrapping_add(1000));
        let start = random_tree(&ds.patterns.taxa.clone(), &mut rng);
        let models = ModelSet::default_for(&ds.patterns, BranchLengthMode::PerPartition);
        let k = SequentialKernel::build(Arc::clone(&ds.patterns), start, models).unwrap();
        (k, ds.tree)
    }

    fn shared_bipartitions(a: &phylo_tree::Tree, b: &phylo_tree::Tree) -> usize {
        let ba = a.bipartitions();
        b.bipartitions().iter().filter(|s| ba.contains(s)).count()
    }

    #[test]
    fn search_improves_the_likelihood() {
        let (mut k, _true_tree) = kernel_with_random_start(1);
        let mut config = SearchConfig::new(ParallelScheme::New);
        config.max_rounds = 2;
        config.spr_radius = 3;
        config.optimize_model_between_rounds = false;
        let result = tree_search(&mut k, &config).unwrap();
        assert!(
            result.final_log_likelihood > result.initial_log_likelihood,
            "search must improve lnL: {} -> {}",
            result.initial_log_likelihood,
            result.final_log_likelihood
        );
        assert!(result.evaluated_moves > 0);
        assert!(result.sync_events > 0);
    }

    #[test]
    fn search_recovers_most_of_the_true_topology() {
        let (mut k, true_tree) = kernel_with_random_start(2);
        let start_shared = shared_bipartitions(k.tree(), &true_tree);
        let mut config = SearchConfig::new(ParallelScheme::New);
        config.max_rounds = 3;
        config.spr_radius = 6;
        config.optimize_model_between_rounds = false;
        let result = tree_search(&mut k, &config).unwrap();
        let end_shared = shared_bipartitions(k.tree(), &true_tree);
        assert!(
            end_shared >= start_shared,
            "search must not move away from the generating topology ({start_shared} -> {end_shared})"
        );
        assert!(
            result.accepted_moves > 0,
            "expected at least one accepted move"
        );
        // With 400 informative columns on 8 taxa a tree close to the
        // generating topology should be found (first-improvement hill climbing
        // may stop in a nearby local optimum, so we require three quarters of
        // the bipartitions rather than all of them).
        let total = true_tree.bipartitions().len();
        assert!(
            end_shared as f64 >= 0.75 * total as f64,
            "recovered only {end_shared}/{total} bipartitions"
        );
    }

    #[test]
    fn adaptive_search_migrates_ownership_and_preserves_the_likelihood() {
        use phylo_kernel::cost::TraceUnit;
        use phylo_parallel::{schedule, Cyclic, TracingExecutor};
        use phylo_sched::{PatternCosts, ReschedulePolicy, Rescheduler};

        // 7 workers over 64-pattern partitions: uneven cyclic shares give a
        // real measured FLOP imbalance for the policy to act on.
        let ds = phylo_seqgen::datasets::mixed_dna_protein(6, 3, 2, 64, 91).generate();
        let models = ModelSet::default_for(&ds.patterns, BranchLengthMode::PerPartition);
        let cats: Vec<usize> = models.models().iter().map(|m| m.categories()).collect();
        let costs = PatternCosts::analytic(&ds.patterns, &cats);
        let assignment = schedule(&ds.patterns, &cats, 7, &Cyclic).unwrap();
        let exec = TracingExecutor::from_assignment(
            &ds.patterns,
            &assignment,
            ds.tree.node_capacity(),
            &cats,
        )
        .unwrap();
        let mut kernel =
            LikelihoodKernel::try_new(Arc::clone(&ds.patterns), ds.tree.clone(), models, exec)
                .unwrap();

        let mut config = SearchConfig::new(ParallelScheme::New);
        config.max_rounds = 2;
        config.spr_radius = 2;
        config.optimize_model_between_rounds = false;
        let mut rescheduler = Rescheduler::new(ReschedulePolicy {
            imbalance_threshold: 1.0001,
            min_regions: 8,
            unit: TraceUnit::Flops,
            max_reschedules: 1,
            mask_aware: false,
        });
        let adaptive = tree_search_with_policy(
            &mut kernel,
            &config,
            RunPolicy::rescheduling(&mut rescheduler, &costs),
        )
        .unwrap();
        let sequence: Vec<(usize, bool)> = adaptive
            .events
            .iter()
            .map(|e| (e.round, e.within_round))
            .collect();
        assert_eq!(
            sequence,
            [(1, false)],
            "the low threshold must trigger one mid-search migration"
        );
        for event in &adaptive.events {
            assert!(
                event.log_likelihood_drift() < 1e-8,
                "migration drifted the likelihood by {}",
                event.log_likelihood_drift()
            );
        }
        assert!(adaptive.report.final_log_likelihood >= adaptive.report.initial_log_likelihood);
        assert_eq!(kernel.executor_mut().assignment().strategy(), "speed-lpt");
    }

    #[test]
    fn schemes_produce_comparable_final_trees() {
        let (mut k_old, _) = kernel_with_random_start(3);
        let (mut k_new, _) = kernel_with_random_start(3);
        let mut cfg_old = SearchConfig::new(ParallelScheme::Old);
        let mut cfg_new = SearchConfig::new(ParallelScheme::New);
        for cfg in [&mut cfg_old, &mut cfg_new] {
            cfg.max_rounds = 1;
            cfg.spr_radius = 3;
            cfg.optimize_model_between_rounds = false;
        }
        let r_old = tree_search(&mut k_old, &cfg_old).unwrap();
        let r_new = tree_search(&mut k_new, &cfg_new).unwrap();
        let rel = (r_old.final_log_likelihood - r_new.final_log_likelihood).abs()
            / r_old.final_log_likelihood.abs();
        assert!(
            rel < 5e-3,
            "schemes should find similar trees: {} vs {}",
            r_old.final_log_likelihood,
            r_new.final_log_likelihood
        );
        assert!(
            r_old.sync_events > r_new.sync_events,
            "oldPAR search must synchronize more: {} vs {}",
            r_old.sync_events,
            r_new.sync_events
        );
    }
}
