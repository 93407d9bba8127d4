//! Multi-tenant serving: one fixed worker pool, many independent sessions.
//!
//! The paper's load-balance machinery — and everything this workspace built
//! on it — schedules *one* dataset's patterns over *one* set of workers.
//! Production services face the transposed problem: a stream of independent
//! analyses (different alignments, models, trees) arriving at a machine
//! whose worker threads should be created once and shared. This crate
//! generalizes the master/worker protocol from `patterns × workers` to
//! `(session, pattern) × workers`:
//!
//! The pool itself is [`phylo_parallel::pool::WorkerPool`] — the worker
//! loop, lockstep drain and reduction a solo `ThreadedExecutor` drives
//! directly; only what is genuinely multi-tenant lives here:
//!
//! * [`SessionManager`] owns the dispatcher thread (which owns the fixed
//!   pool) and admits sessions described by a [`SessionSpec`] — the same
//!   configuration surface as the single-run builder (models, branch mode,
//!   schedule strategy, optimizer config) plus serving knobs (fair-share
//!   weight, label, an optional injected fault for chaos drills).
//! * Each session runs the ordinary resilient optimizer on its own driver
//!   thread over a [`PooledExecutor`] — a standard
//!   [`Executor`](phylo_kernel::Executor) +
//!   [`Reassignable`](phylo_sched::Reassignable) whose parallel regions
//!   execute on the shared pool. Numerics are untouched: per-entry results
//!   reduce in worker-index order, so every session's log likelihood is
//!   bit-identical to a dedicated run with the same strategy and width.
//! * The dispatcher fuses pending ops of *different* sessions into one
//!   batch per barrier, picking who goes first with a weighted fair queue
//!   ([`TenantStrategy`], [`FairQueue`]); admission overload is the typed
//!   [`AdmissionError`], not a panic.
//! * Faults stay tenant-local (the pool's quarantine): a worker panic on
//!   session A's op quarantines A on that worker (thread survives), A's
//!   driver recovers through the standard reassign path — a re-install of
//!   its slices — and sessions B..N never see it.
//! * A session that records telemetry gets each pool worker's *measured* op
//!   seconds and queue wait on its region events.
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

mod dispatch;
pub mod error;
pub mod session;
pub mod spec;
pub mod tenant;

pub use dispatch::PoolStats;
pub use error::{AdmissionError, ServeError};
pub use session::{PooledExecutor, SessionHandle, SessionManager, SessionOutcome};
pub use spec::{SessionSpec, WorkerFault};
pub use tenant::{FairQueue, TenantStrategy};
