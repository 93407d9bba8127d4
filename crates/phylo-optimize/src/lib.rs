//! Iterative model-parameter and branch-length optimization in the two
//! parallelization schemes compared by the paper.
//!
//! The maximum-likelihood estimate of a partitioned analysis requires, per
//! partition, optimizing the Q-matrix exchangeabilities and the Γ shape
//! parameter α with Brent's method, and the branch lengths with
//! Newton–Raphson. Because the number of iterations to convergence differs
//! between partitions, there are two ways to organize the parallel work:
//!
//! * **oldPAR** ([`ParallelScheme::Old`]) — the original approach: optimize
//!   one partition at a time. Every iteration of every partition is its own
//!   parallel region over *only that partition's patterns*: with short
//!   partitions and many threads most workers receive little or no work and
//!   the synchronization count is `Σ_p iterations(p)`.
//! * **newPAR** ([`ParallelScheme::New`]) — the paper's contribution: advance
//!   the iterative optimizers of *all* partitions simultaneously, tracking a
//!   per-partition boolean convergence vector. Every iteration is one parallel
//!   region spanning all not-yet-converged partitions, so the synchronization
//!   count is `max_p iterations(p)` and each worker gets close to `m′/T`
//!   patterns of work per region.
//!
//! Both schemes produce the same optima (they evaluate the same sequence of
//! candidate points per partition); only the batching differs — which is
//! exactly why the paper's speedups are "free" accuracy-wise. The code says
//! the same thing: there is one masked Newton–Raphson stream loop
//! ([`optimize_branch`]) and one masked Brent stream loop (behind
//! [`optimize_alphas`] / [`optimize_exchangeabilities`]), and a scheme is
//! only the grouping of per-partition streams into rounds they are handed —
//! one round per partition (oldPAR), one round of all partitions (newPAR),
//! or, for a joint branch-length estimate, one stream summing every
//! partition under either scheme. The scheme is matched in one place, next
//! to [`ParallelScheme`] itself.
//!
//! There is one driver loop ([`optimize_model_parameters`]) and one wrapper
//! around it: a [`RunPolicy`] `{ max_recoveries, rescheduler }` whose
//! [`RunPolicy::run`] owns worker-death recovery and mid-run rescheduling
//! for any loop that fires its hook ([`optimize_model_parameters_with_policy`]
//! here, `tree_search_with_policy` in `phylo-search`) and returns a
//! [`PolicyRun`] — the loop's own report plus the migrations and recoveries.
//!
//! ```
//! use std::sync::Arc;
//! use phylo_kernel::SequentialKernel;
//! use phylo_models::{BranchLengthMode, ModelSet};
//! use phylo_optimize::{optimize_model_parameters, OptimizerConfig, ParallelScheme};
//! use phylo_seqgen::datasets::paper_simulated;
//!
//! let ds = paper_simulated(6, 60, 30, 7).generate();
//! let models = ModelSet::default_for(&ds.patterns, BranchLengthMode::PerPartition);
//! let mut kernel = SequentialKernel::build(Arc::clone(&ds.patterns), ds.tree.clone(), models).unwrap();
//!
//! let config = OptimizerConfig::search_phase(ParallelScheme::New);
//! let report = optimize_model_parameters(&mut kernel, &config).unwrap();
//! assert!(report.final_log_likelihood >= report.initial_log_likelihood);
//! assert!(report.rounds >= 1);
//! ```

#![forbid(unsafe_code)]

pub mod adaptive;
pub mod branches;
pub mod config;
pub mod driver;
pub mod error;
pub mod model;

pub use adaptive::{
    optimize_model_parameters_resilient, optimize_model_parameters_with_policy, DriverHook,
    PolicyRun, RescheduleEvent, RunPolicy, WorkerRecovery,
};
pub use branches::{
    optimize_all_branches, optimize_all_branches_with_hook, optimize_branch,
    BranchOptimizationStats,
};
pub use config::{OptimizerConfig, ParallelScheme};
pub use driver::{optimize_model_parameters, HookPoint, OptimizationReport};
pub use error::OptimizeError;
pub use model::{optimize_alphas, optimize_exchangeabilities, ModelOptimizationStats};
