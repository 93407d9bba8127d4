//! Multi-tenant serving: one fixed pool, many independent sessions.
//!
//! The paper's load-balance machinery — and everything this workspace built
//! on it — schedules *one* dataset's patterns over *one* set of workers.
//! Production services face the transposed problem: a stream of independent
//! analyses (different alignments, models, trees) arriving at a machine
//! whose cores should be shared. Fine-grained regions pay only when they are
//! full, and a tiny tenant's are not, so serving is *coarse-grained*: a pool
//! of width `T` has `T` compute slots, and each session runs its `T` shards
//! on its own driver thread while it holds one.
//!
//! * [`SessionManager`] owns the slots and admits sessions described by a
//!   [`SessionSpec`] — models and an optimizer config, planned by the
//!   single-run builder's own [`phylo_parallel::plan`] (default models,
//!   [`WeightedLpt`](phylo_sched::WeightedLpt) placement), plus serving knobs
//!   (fair-share weight, label, an optional injected fault for chaos
//!   drills). Admission is typed ([`AdmissionError`]), never a panic.
//! * Each session runs the ordinary optimizer, with worker-death recovery,
//!   on its driver thread over a [`SessionExecutor`] — a standard
//!   [`Executor`](phylo_kernel::Executor) +
//!   [`Reassignable`](phylo_sched::Reassignable) whose parallel regions run
//!   the session's shards in worker order on that thread
//!   ([`phylo_parallel::pool::run_shards`]) and fold them with the pool's
//!   worker-index-order reduction. Numerics are untouched: every session's
//!   log likelihood is bit-identical to a dedicated `T`-wide run of the
//!   same plan.
//! * Which sessions hold the slots is a weighted stride scheduler with a
//!   service quantum ([`TenantStrategy`], [`FairQueue`]): a holder keeps its
//!   slot through its own master work and checks for waiters once per
//!   `quantum` regions, so the shared slot state is never touched per
//!   region.
//! * Faults stay tenant-local by construction: a panicking shard poisons
//!   only its own session's executor, whose driver recovers through the
//!   standard reassign path — a rebuild of its shards — while sessions B..N
//!   never see it.
//! * A session that records telemetry gets each shard's *measured* op
//!   seconds on its region events, and as queue wait what it waited for: its
//!   slot, then the shards ahead of it on the thread.
//!
//! ```
//! use phylo_serve::{SessionManager, SessionSpec};
//! use phylo_seqgen::datasets::paper_simulated;
//! use std::sync::Arc;
//!
//! let mut pool = SessionManager::new(2);
//! let mut handles = Vec::new();
//! for seed in [1, 2, 3] {
//!     let ds = paper_simulated(6, 120, 24, seed).generate();
//!     let spec = SessionSpec::new(Arc::clone(&ds.patterns), ds.tree.clone())
//!         .label(format!("tenant-{seed}"));
//!     handles.push(pool.submit(spec).unwrap());
//! }
//! for handle in handles {
//!     let outcome = handle.join().unwrap();
//!     assert!(outcome.final_log_likelihood >= outcome.initial_log_likelihood);
//!     assert!(outcome.recoveries.is_empty());
//! }
//! ```

#![forbid(unsafe_code)]

pub mod error;
pub mod session;
pub mod spec;
pub mod tenant;

pub use error::{AdmissionError, ServeError};
pub use session::{PoolStats, SessionExecutor, SessionHandle, SessionManager, SessionOutcome};
pub use spec::{SessionSpec, WorkerFault};
pub use tenant::{FairQueue, TenantStrategy};
