//! Session specifications: what one tenant wants to run.

use std::sync::Arc;

use phylo_data::PartitionedPatterns;
use phylo_models::ModelSet;
use phylo_optimize::{OptimizerConfig, ParallelScheme};
use phylo_tree::Tree;

/// A one-shot injected worker fault (test/chaos instrumentation): the
/// session's shard `worker` panics in the region the session runs after
/// `after_ops` earlier ones (0 = its first region).
///
/// The count is the session's own, so the faulting region is deterministic;
/// a `worker` outside the pool's width is a typed admission error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerFault {
    /// Worker (shard) index that dies.
    pub worker: usize,
    /// The session's regions run before the fault fires.
    pub after_ops: u64,
}

/// Everything needed to admit one independent session: its dataset, tree,
/// models and per-session knobs. Shares the single-run `AnalysisBuilder`'s
/// models and its default placement ([`phylo_sched::WeightedLpt`]), minus
/// the executor choice — the pool is fixed and shared, which is the point.
pub struct SessionSpec {
    pub(crate) patterns: Arc<PartitionedPatterns>,
    pub(crate) tree: Tree,
    pub(crate) models: Option<ModelSet>,
    pub(crate) optimizer: OptimizerConfig,
    pub(crate) weight: u32,
    pub(crate) label: String,
    pub(crate) fault: Option<WorkerFault>,
}

impl std::fmt::Debug for SessionSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionSpec")
            .field("label", &self.label)
            .field("weight", &self.weight)
            .field("fault", &self.fault)
            .finish()
    }
}

impl SessionSpec {
    /// A session over `patterns` and `tree` with the defaults of the
    /// single-run builder: default per-partition models,
    /// [`phylo_sched::WeightedLpt`] pattern placement, the newPAR optimizer
    /// scheme, fair-share weight 1.
    pub fn new(patterns: Arc<PartitionedPatterns>, tree: Tree) -> Self {
        Self {
            patterns,
            tree,
            models: None,
            optimizer: OptimizerConfig::new(ParallelScheme::New),
            weight: 1,
            label: String::from("session"),
            fault: None,
        }
    }

    /// Explicit per-partition models (default: [`ModelSet::default_for`]
    /// with per-partition branch lengths).
    #[must_use]
    pub fn models(mut self, models: ModelSet) -> Self {
        self.models = Some(models);
        self
    }

    /// Optimizer configuration for the session's run.
    #[must_use]
    pub fn optimizer(mut self, config: OptimizerConfig) -> Self {
        self.optimizer = config;
        self
    }

    /// Fair-share weight (> 0): under contention a weight-`w` session gets
    /// `w` times the slot time, in regions, of a weight-1 session. Zero is a typed
    /// [`crate::AdmissionError::ZeroWeight`] at submit time.
    #[must_use]
    pub fn weight(mut self, weight: u32) -> Self {
        self.weight = weight;
        self
    }

    /// Human-readable label carried into the session's outcome.
    #[must_use]
    pub fn label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// Arms a one-shot injected worker fault for this session (recovery
    /// tests and chaos drills; see [`WorkerFault`]).
    #[must_use]
    pub fn inject_worker_fault(mut self, worker: usize, after_ops: u64) -> Self {
        self.fault = Some(WorkerFault { worker, after_ops });
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phylo_seqgen::datasets::paper_simulated;

    #[test]
    fn spec_defaults_mirror_the_single_run_builder() {
        let ds = paper_simulated(6, 80, 20, 3).generate();
        let spec = SessionSpec::new(Arc::clone(&ds.patterns), ds.tree.clone())
            .weight(2)
            .label("unit")
            .inject_worker_fault(1, 4);
        assert_eq!(spec.weight, 2);
        assert_eq!(spec.label, "unit");
        assert_eq!(
            spec.fault,
            Some(WorkerFault {
                worker: 1,
                after_ops: 4
            })
        );
        assert!(spec.models.is_none());
        let debug = format!("{spec:?}");
        assert!(debug.contains("unit"));
    }
}
