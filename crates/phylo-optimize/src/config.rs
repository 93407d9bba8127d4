//! Optimizer configuration, and the one place the two schemes differ.

use phylo_models::BranchLengthMode;

/// One iteration stream of an optimizer, named the way telemetry names its
/// probes: `Some(p)` is partition `p`'s own stream, `None` the joint stream
/// whose objective sums every partition.
pub(crate) type Stream = Option<usize>;

/// Which parallelization scheme the iterative optimizers use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParallelScheme {
    /// Optimize one partition at a time (the baseline the paper improves on).
    Old,
    /// Optimize all partitions simultaneously with a per-partition convergence
    /// mask (the paper's contribution).
    New,
}

impl std::fmt::Display for ParallelScheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParallelScheme::Old => write!(f, "oldPAR"),
            ParallelScheme::New => write!(f, "newPAR"),
        }
    }
}

impl ParallelScheme {
    /// How the optimizers' streams are grouped into parallel regions: the
    /// streams of one inner list iterate *together* — every region spans all
    /// of them that have not converged yet (the boolean convergence vector) —
    /// and the lists run one after the other. This is the whole difference
    /// between the schemes: oldPAR puts every partition in a round of its
    /// own (`Σ_p iterations(p)` regions), newPAR puts all of them in one
    /// (`max_p iterations(p)` regions), and a joint estimate is a single
    /// stream under either, which is why the paper sees only ≈5 % there.
    /// Model parameters are never linked across partitions, so the Brent
    /// stream always asks for [`BranchLengthMode::PerPartition`].
    pub(crate) fn rounds(self, mode: BranchLengthMode, partitions: usize) -> Vec<Vec<Stream>> {
        match (mode, self) {
            (BranchLengthMode::Joint, _) => vec![vec![None]],
            (BranchLengthMode::PerPartition, ParallelScheme::Old) => {
                (0..partitions).map(|p| vec![Some(p)]).collect()
            }
            (BranchLengthMode::PerPartition, ParallelScheme::New) => {
                vec![(0..partitions).map(Some).collect()]
            }
        }
    }
}

/// Tuning knobs of the optimizers. The defaults mirror typical RAxML settings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptimizerConfig {
    /// Parallelization scheme for the iterative optimizers.
    pub scheme: ParallelScheme,
    /// Newton–Raphson step-size tolerance for branch lengths.
    pub branch_epsilon: f64,
    /// Maximum Newton–Raphson iterations per branch (per partition).
    pub branch_max_iter: usize,
    /// Maximum passes over all branches per branch-length smoothing round.
    pub branch_passes: usize,
    /// Brent relative tolerance for α and the Q-matrix rates.
    pub brent_tolerance: f64,
    /// Maximum Brent iterations per parameter (per partition).
    pub brent_max_iter: usize,
    /// Overall log-likelihood improvement threshold for the outer
    /// model-optimization loop.
    pub likelihood_epsilon: f64,
    /// Maximum outer rounds of (α, rates, branch lengths).
    pub max_rounds: usize,
    /// Whether to optimize the Q-matrix exchangeabilities (DNA partitions
    /// only; protein partitions always keep their empirical matrix).
    pub optimize_rates: bool,
}

impl OptimizerConfig {
    /// Default configuration for a given scheme.
    pub fn new(scheme: ParallelScheme) -> Self {
        Self {
            scheme,
            branch_epsilon: 1.0e-5,
            branch_max_iter: 32,
            branch_passes: 2,
            brent_tolerance: 1.0e-3,
            brent_max_iter: 24,
            likelihood_epsilon: 0.1,
            max_rounds: 4,
            optimize_rates: true,
        }
    }

    /// A faster, coarser configuration used inside the tree search phase
    /// (RAxML likewise uses looser settings during the search and tight ones
    /// for the final model optimization).
    pub fn search_phase(scheme: ParallelScheme) -> Self {
        Self {
            branch_epsilon: 1.0e-3,
            branch_max_iter: 16,
            branch_passes: 1,
            brent_tolerance: 1.0e-2,
            brent_max_iter: 10,
            likelihood_epsilon: 1.0,
            max_rounds: 1,
            ..Self::new(scheme)
        }
    }
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        Self::new(ParallelScheme::New)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_match_paper() {
        assert_eq!(ParallelScheme::Old.to_string(), "oldPAR");
        assert_eq!(ParallelScheme::New.to_string(), "newPAR");
    }

    #[test]
    fn defaults_are_sane() {
        let c = OptimizerConfig::default();
        assert_eq!(c.scheme, ParallelScheme::New);
        assert!(c.branch_epsilon > 0.0);
        assert!(c.branch_max_iter > 0);
        assert!(c.brent_max_iter > 0);
        assert!(c.max_rounds > 0);
    }

    #[test]
    fn search_phase_is_coarser() {
        let tight = OptimizerConfig::new(ParallelScheme::Old);
        let loose = OptimizerConfig::search_phase(ParallelScheme::Old);
        assert!(loose.branch_epsilon > tight.branch_epsilon);
        assert!(loose.brent_max_iter < tight.brent_max_iter);
        assert_eq!(loose.scheme, ParallelScheme::Old);
    }
}
