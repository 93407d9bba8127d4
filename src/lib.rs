//! # plf-loadbalance
//!
//! A reproduction of *"Load Balance in the Phylogenetic Likelihood Kernel"*
//! (Stamatakis & Ott, ICPP 2009) as a Rust workspace: a partitioned
//! phylogenetic likelihood kernel with RAxML-style fine-grained (per-pattern)
//! parallelism, in which the iterative optimizers (Newton–Raphson for branch
//! lengths, Brent for the Q matrix and the Γ shape parameter) can be run
//! either one partition at a time (**oldPAR**, the baseline) or simultaneously
//! over all partitions with a per-partition convergence mask (**newPAR**, the
//! paper's contribution).
//!
//! This crate is a facade that re-exports the workspace crates under one
//! namespace and adds the one-stop [`Analysis`] session API on top; see the
//! README for a tour and `DESIGN.md` for the paper-to-module mapping.
//!
//! The whole execution surface is **fallible by default**: a worker death in
//! a parallel backend is a value ([`prelude::KernelError`]), not a crash,
//! and the drivers recover from it mid-run by rebuilding the workers.
//!
//! ```
//! use plf_loadbalance::prelude::*;
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), AnalysisError> {
//! // A small partitioned dataset simulated on a random tree.
//! let dataset = paper_simulated(8, 200, 50, 42).generate();
//! let mut analysis = Analysis::builder(Arc::clone(&dataset.patterns), dataset.tree.clone())
//!     .threads(2)
//!     .strategy(WeightedLpt)
//!     .build()?;
//! let outcome = analysis.optimize(&OptimizerConfig::new(ParallelScheme::New))?;
//! assert!(outcome.report.final_log_likelihood > outcome.report.initial_log_likelihood);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod analysis;

pub use analysis::{Analysis, AnalysisBuilder, AnalysisError};

pub use phylo_data as data;
pub use phylo_kernel as kernel;
pub use phylo_math as math;
pub use phylo_models as models;
pub use phylo_optimize as optimize;
pub use phylo_parallel as parallel;
pub use phylo_perfmodel as perfmodel;
pub use phylo_sched as sched;
pub use phylo_search as search;
pub use phylo_seqgen as seqgen;
pub use phylo_serve as serve;
pub use phylo_telemetry as telemetry;
pub use phylo_tree as tree;

/// The most commonly used types and functions in one import.
pub mod prelude {
    pub use crate::analysis::{Analysis, AnalysisBuilder, AnalysisError};
    pub use phylo_data::{Alignment, DataType, Partition, PartitionSet, PartitionedPatterns};
    pub use phylo_kernel::{
        engine::BranchScope, BranchTables, ExecError, KernelDispatch, KernelError,
        LikelihoodKernel, MaskDictionary, OpError, SequentialKernel, TraceUnit, WorkTrace,
    };
    pub use phylo_models::{BranchLengthMode, ModelSet, PartitionModel, SubstitutionModel};
    pub use phylo_optimize::{
        optimize_all_branches, optimize_model_parameters, optimize_model_parameters_resilient,
        optimize_model_parameters_with_policy, HookPoint, OptimizeError, OptimizerConfig,
        ParallelScheme, PolicyRun, RescheduleEvent, RunPolicy, WorkerRecovery,
    };
    pub use phylo_parallel::{
        build_workers, plan, schedule, ExecutorOptions, Plan, ThreadedExecutor, TracingExecutor,
        WorkerSkew,
    };
    pub use phylo_perfmodel::{imbalance_report, imbalance_report_in, ImbalanceReport, Platform};
    pub use phylo_sched::{
        worker_imbalance, Assignment, Block, Cyclic, PatternCosts, Reassignable,
        RescheduleDecision, ReschedulePolicy, Rescheduler, SchedError, ScheduleStrategy,
        SpeedAwareLpt, WeightedLpt,
    };
    pub use phylo_search::{tree_search, tree_search_with_policy, SearchConfig, SearchResult};
    pub use phylo_seqgen::datasets::{
        mixed_dna_protein, paper_real_world, paper_simulated, staggered_convergence, DatasetSpec,
        RealWorldKind,
    };
    pub use phylo_serve::{
        AdmissionError, PoolStats, ServeError, SessionManager, SessionOutcome, SessionSpec,
        TenantStrategy,
    };
    pub use phylo_telemetry::{
        BenchEnvelope, Telemetry, TelemetryConfig, TelemetryEvent, TelemetrySnapshot,
    };
    pub use phylo_tree::{newick, Tree};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_exposes_the_main_entry_points() {
        // Type-level smoke test: constructing a spec and a config through the
        // facade works.
        let spec = paper_simulated(10, 100, 50, 1);
        assert_eq!(spec.partition_count(), 2);
        let _ = OptimizerConfig::new(ParallelScheme::Old);
        let _ = SearchConfig::default();
        let platforms = Platform::paper_platforms();
        assert_eq!(platforms.len(), 4);
    }
}
