//! The Phylogenetic Likelihood Kernel (PLK).
//!
//! This crate is the paper's primary subject: the computation of the
//! likelihood of a partitioned multiple sequence alignment on a fixed unrooted
//! binary tree, organized so that the `m′` alignment patterns can be
//! distributed over worker threads and so that the iterative optimizers can be
//! run either per partition (the *oldPAR* scheme) or simultaneously over all
//! partitions (the *newPAR* scheme).
//!
//! The crate is layered:
//!
//! * [`slice`](mod@slice) — the per-worker view of a partition's patterns (cyclic
//!   distribution) and the conditional likelihood vector (CLV) buffers that
//!   belong to it,
//! * [`ops`] — the numerical core: `newview` (CLV update), `evaluate`
//!   (log-likelihood at the virtual root), the branch sum table and the
//!   analytic first/second derivatives with respect to a branch length,
//! * [`branch_lengths`] — joint vs per-partition branch-length storage,
//! * [`validity`] — the master-side cache that tracks which CLVs are still
//!   valid (and in which orientation) so that partial traversals can be used,
//! * [`tables`] — per-branch transition and tip-lookup tables
//!   ([`tables::BranchTables`]): the master issues a [`tables::TableSlot`]
//!   per `(partition, branch)` inside the command payload, and the first
//!   worker that reads a slot builds its tables for every other reader, so
//!   no table is built twice in the common case and no worker re-derives a
//!   per-pattern tip bit loop,
//! * [`blocked`] — the cache-blocked, width-specialized tabled inner loops
//!   selected by [`tables::KernelDispatch::Blocked`] (the fast default; the
//!   scalar tabled loops in [`ops`] stay as the bit-for-bit-comparable
//!   reference dispatch),
//! * [`cost`] — an analytic floating-point cost model of the kernel
//!   primitives, used by the instrumented executor, the platform model and
//!   every placement (one `newview` cost, whichever dispatch runs),
//! * [`executor`] — the [`Executor`] abstraction: a
//!   synchronous "command" interface exactly like the master/worker protocol
//!   of the Pthreads RAxML (a command is one likelihood call: optional
//!   traversal, the op, optional first Newton probe), plus the sequential
//!   reference implementation; `execute` is fallible so a lost worker
//!   surfaces as a value,
//! * [`error`] — [`KernelError`], the unified error the
//!   engine's `try_*` methods return,
//! * [`engine`] — [`LikelihoodKernel`], the
//!   high-level object that owns tree, models and branch lengths and exposes
//!   likelihood evaluation, CLV management and derivative computation to the
//!   optimizers and the tree search,
//! * [`naive`] — an intentionally simple reference implementation used by the
//!   test-suite to cross-validate the optimized kernel.
//!
//! ```
//! use std::sync::Arc;
//! use phylo_data::{Alignment, DataType, PartitionSet, PartitionedPatterns};
//! use phylo_kernel::SequentialKernel;
//! use phylo_models::{BranchLengthMode, ModelSet};
//! use phylo_tree::newick;
//!
//! let alignment = Alignment::new(vec![
//!     ("t1".into(), "ACGTACGTAC".into()),
//!     ("t2".into(), "ACGAACGAAC".into()),
//!     ("t3".into(), "ACCTACGTAC".into()),
//!     ("t4".into(), "ACGTACGAAT".into()),
//! ]).unwrap();
//! let partitions = PartitionSet::unpartitioned(DataType::Dna, 10);
//! let patterns = Arc::new(PartitionedPatterns::compile(&alignment, &partitions).unwrap());
//! let tree = newick::parse_newick("((t1,t2),(t3,t4));").unwrap();
//! let models = ModelSet::default_for(&patterns, BranchLengthMode::Joint);
//!
//! let mut kernel = SequentialKernel::build(patterns, tree, models).unwrap();
//! let lnl = kernel.try_log_likelihood().unwrap();
//! assert!(lnl.is_finite() && lnl < 0.0);
//! // One likelihood call is one command — the traversal that filled the cold
//! // CLVs rode inside the evaluation — hence one synchronization event.
//! assert_eq!(kernel.sync_events(), 1);
//! assert!(kernel.stats().newview_node_updates > 0);
//! // A second evaluation reuses every cached CLV: zero updates needed.
//! let root = kernel.default_root_branch();
//! assert_eq!(kernel.try_update_clvs(root, &kernel.full_mask()).unwrap(), 0);
//! ```

#![forbid(unsafe_code)]

pub mod blocked;
pub mod branch_lengths;
pub mod cost;
pub mod engine;
pub mod error;
pub mod executor;
pub mod naive;
pub mod ops;
pub mod slice;
pub mod tables;
pub mod validity;

pub use branch_lengths::BranchLengths;
pub use cost::{TraceError, TraceUnit, WorkTrace};
pub use engine::{KernelStats, LikelihoodKernel, SequentialKernel};
pub use error::{KernelError, OpError};
pub use executor::{
    ExecContext, ExecError, Executor, KernelOp, OpOutput, PartitionMask, SequentialExecutor,
    TraversalDescriptor,
};
pub use slice::{PartitionSlice, SliceBuffers, WorkerSlices};
pub use tables::{
    BranchTables, EdgeTables, KernelDispatch, MaskDictionary, NewviewTables, StepTables, TableSlot,
};
pub use validity::ClvValidity;

/// Numerical scaling threshold: when every CLV entry of a pattern drops below
/// this value the pattern is rescaled to avoid underflow.
pub const SCALE_THRESHOLD: f64 = 1.0e-100;
/// Multiplier applied when rescaling (the inverse of [`SCALE_THRESHOLD`]).
pub const SCALE_FACTOR: f64 = 1.0e100;
/// Natural logarithm of [`SCALE_FACTOR`]; subtracted once per scaling event
/// when assembling per-site log likelihoods.
pub const LOG_SCALE_FACTOR: f64 = 230.25850929940457;
