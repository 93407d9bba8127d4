//! Sessions over the shared pool: the per-session executor, the manager
//! that admits sessions, and the handle that returns their outcomes.
//!
//! A [`SessionManager`] owns ONE fixed pool: a dispatcher thread in front
//! of a [`WorkerPool`], the same pool a solo `ThreadedExecutor` drives.
//! [`SessionManager::submit`] builds a session exactly like the single-run
//! builder would — resolve models, schedule patterns over the pool's fixed
//! width, build per-worker slices — then registers it with the dispatcher
//! (typed admission) and spawns a *driver thread* that runs the ordinary
//! resilient optimizer over a [`PooledExecutor`]. The executor speaks the
//! standard [`Executor`] + [`Reassignable`] contract, so the driver, its
//! worker-death recovery and its convergence behaviour are literally the
//! same code that runs single-session analyses — only the transport
//! changed: ops travel to the shared dispatcher, which fuses compatible
//! ops of many sessions under one barrier.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use phylo_data::PartitionedPatterns;
use phylo_kernel::cost::WorkTrace;
use phylo_kernel::{
    ExecContext, ExecError, Executor, KernelDispatch, KernelOp, LikelihoodKernel, OpOutput,
};
use phylo_models::ModelSet;
use phylo_optimize::{optimize_model_parameters_resilient, WorkerRecovery};
use phylo_parallel::build_workers;
use phylo_parallel::pool::{end_region, StateSnapshot, WorkerPool};
use phylo_sched::{Assignment, PatternCosts, Reassignable, SchedError};
use phylo_telemetry::{Telemetry, TelemetryConfig, TelemetrySnapshot};

use crate::dispatch::{spawn_dispatcher, DispatchMsg, OpReply, OpRequest, PoolStats};
use crate::error::{AdmissionError, ServeError};
use crate::spec::SessionSpec;
use crate::tenant::TenantStrategy;

/// The per-session execution backend: a synchronous [`Executor`] whose
/// parallel regions run on the shared pool. One op at a time: `execute`
/// snapshots the master state, ships the op to the dispatcher and blocks on
/// the reply lane. Implements [`Reassignable`] so the standard worker-death
/// recovery (rebuild slices, reinstall, retry) works unchanged — a
/// reinstall touches only this session's shards on the pool.
pub struct PooledExecutor {
    session: u64,
    workers: usize,
    commands: Sender<DispatchMsg>,
    reply_tx: Sender<OpReply>,
    reply_rx: Receiver<OpReply>,
    assignment: Assignment,
    trace: WorkTrace,
    sync_events: u64,
    poisoned: Option<usize>,
    telemetry: Telemetry,
}

impl std::fmt::Debug for PooledExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PooledExecutor")
            .field("session", &self.session)
            .field("workers", &self.workers)
            .field("sync_events", &self.sync_events)
            .field("poisoned", &self.poisoned)
            .finish()
    }
}

impl Executor for PooledExecutor {
    fn worker_count(&self) -> usize {
        self.workers
    }

    fn execute(&mut self, op: &KernelOp, ctx: &ExecContext<'_>) -> Result<OpOutput, ExecError> {
        if let Some(worker) = self.poisoned {
            return Err(ExecError::Poisoned { worker });
        }
        self.sync_events += 1;
        let token = self.telemetry.enabled().then(|| {
            self.telemetry
                .region_start(op.label(), &op.active_partitions())
        });
        let request = OpRequest {
            session: self.session,
            op: op.clone(),
            snapshot: Arc::new(StateSnapshot {
                tree: ctx.tree.clone(),
                models: ctx.models.clone(),
            }),
            record: token.as_ref().and_then(|t| t.region()),
            reply: self.reply_tx.clone(),
        };
        // Pool gone mid-run: no dispatcher to send to, or no reply.
        let sent = self.commands.send(DispatchMsg::Op(request));
        let reply = sent.ok().and_then(|()| self.reply_rx.recv().ok());
        let OpReply { result, samples } = reply.unwrap_or_else(OpReply::lost);
        // Close the region with what each pool worker measured.
        self.poisoned = end_region(&self.telemetry, token, self.workers, &samples, &result);
        result
    }

    fn sync_events(&self) -> u64 {
        self.sync_events
    }

    fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        self.telemetry = telemetry.clone();
    }
}

impl Reassignable for PooledExecutor {
    fn assignment(&self) -> &Assignment {
        &self.assignment
    }

    fn live_trace(&self) -> &WorkTrace {
        &self.trace
    }

    fn take_trace(&mut self) -> WorkTrace {
        std::mem::replace(&mut self.trace, WorkTrace::new(self.workers))
    }

    fn reassign(
        &mut self,
        patterns: &PartitionedPatterns,
        assignment: &Assignment,
        node_capacity: usize,
        categories: &[usize],
    ) -> Result<(), SchedError> {
        let slices = build_workers(patterns, node_capacity, categories, assignment)?;
        let session = self.session;
        let reinstall = DispatchMsg::Reassign { session, slices };
        if self.commands.send(reinstall).is_err() {
            // Pool gone: stay poisoned. The recovery budget turns the
            // repeated Poisoned failures into a typed error upstream.
            return Ok(());
        }
        self.assignment = assignment.clone();
        self.poisoned = None;
        Ok(())
    }
}

/// What one finished session reports.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionOutcome {
    /// Pool-assigned session id (tags this session's telemetry events).
    pub session: u64,
    /// The label from the [`SessionSpec`].
    pub label: String,
    /// Log likelihood before optimization (of the final driver attempt).
    pub initial_log_likelihood: f64,
    /// Log likelihood after the final round.
    pub final_log_likelihood: f64,
    /// Optimizer rounds of the final attempt.
    pub rounds: usize,
    /// Ops this session dispatched to the pool.
    pub sync_events: u64,
    /// Worker deaths absorbed (empty for an undisturbed run).
    pub recoveries: Vec<WorkerRecovery>,
    /// Wall-clock latency of the session, admission to completion.
    pub latency: Duration,
}

/// A live session: join it to collect the [`SessionOutcome`].
#[derive(Debug)]
pub struct SessionHandle {
    session: u64,
    label: String,
    outcome: Receiver<Result<SessionOutcome, ServeError>>,
    join: Option<JoinHandle<()>>,
}

impl SessionHandle {
    /// Pool-assigned session id.
    pub fn session(&self) -> u64 {
        self.session
    }

    /// The label from the [`SessionSpec`].
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Waits for the session to finish and returns its outcome. A driver
    /// panic (a bug, not a worker fault) is [`ServeError::SessionPanicked`].
    pub fn join(mut self) -> Result<SessionOutcome, ServeError> {
        let outcome = self.outcome.recv();
        if let Some(join) = self.join.take() {
            if join.join().is_err() {
                return Err(ServeError::SessionPanicked);
            }
        }
        match outcome {
            Ok(result) => result,
            Err(_) => Err(ServeError::PoolDown),
        }
    }
}

/// One fixed pool serving N independent sessions.
///
/// Created with [`SessionManager::new`] (pool width) or
/// [`SessionManager::with_strategy`] (admission/batching policy and
/// telemetry). Sessions are admitted with [`SessionManager::submit`] and
/// collected with [`SessionHandle::join`]; the pool threads are reused
/// across sessions and shut down when the manager drops.
#[derive(Debug)]
pub struct SessionManager {
    commands: Sender<DispatchMsg>,
    workers: usize,
    next_session: u64,
    telemetry: Telemetry,
    /// The dispatcher thread, which owns the [`WorkerPool`].
    dispatcher: Option<JoinHandle<()>>,
}

impl SessionManager {
    /// A pool of `workers` threads under the default [`TenantStrategy`],
    /// without telemetry.
    pub fn new(workers: usize) -> Self {
        Self::with_strategy(workers, TenantStrategy::default(), None)
    }

    /// A pool of `workers` threads under an explicit admission/batching
    /// policy, optionally recording pool telemetry (each session's events
    /// are tagged with its id; see [`TelemetrySnapshot::session_events`]).
    pub fn with_strategy(
        workers: usize,
        strategy: TenantStrategy,
        telemetry: Option<TelemetryConfig>,
    ) -> Self {
        let telemetry = match telemetry {
            Some(config) => Telemetry::new(config),
            None => Telemetry::disabled(),
        };
        let (cmd_tx, cmd_rx) = channel();
        let dispatcher = spawn_dispatcher(
            cmd_rx,
            WorkerPool::spawn(workers),
            strategy,
            telemetry.clone(),
        );
        Self {
            commands: cmd_tx,
            workers,
            next_session: 0,
            telemetry,
            dispatcher: Some(dispatcher),
        }
    }

    /// Fixed pool width.
    pub fn worker_count(&self) -> usize {
        self.workers
    }

    /// The pool-level telemetry handle (disabled unless configured).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// A point-in-time snapshot of the pool's telemetry; `None` unless
    /// telemetry was configured. Slice per tenant with
    /// [`TelemetrySnapshot::session_events`].
    pub fn telemetry_snapshot(&self) -> Option<TelemetrySnapshot> {
        self.telemetry.enabled().then(|| self.telemetry.snapshot())
    }

    /// Pool-level aggregates (sessions admitted, ops dispatched, fusion
    /// width, worker panics), served by the dispatcher itself.
    ///
    /// # Errors
    ///
    /// [`ServeError::PoolDown`] when the dispatcher is gone.
    pub fn stats(&self) -> Result<PoolStats, ServeError> {
        let (reply_tx, reply_rx) = channel();
        self.commands
            .send(DispatchMsg::Stats { reply: reply_tx })
            .map_err(|_| ServeError::PoolDown)?;
        reply_rx.recv().map_err(|_| ServeError::PoolDown)
    }

    /// Admits a session and starts running it on the shared pool.
    ///
    /// The build path mirrors the single-run builder: models are resolved
    /// (or defaulted), patterns are scheduled over the pool's fixed width
    /// with the spec's strategy, per-worker slices are built and installed.
    /// Admission is *typed*: an overloaded pool or a zero weight comes back
    /// as [`ServeError::Admission`], never a panic.
    ///
    /// # Errors
    ///
    /// [`ServeError::Admission`] on overload or a zero weight,
    /// [`ServeError::Kernel`] / [`ServeError::Sched`] for a session whose
    /// dataset, models, tree or schedule do not line up,
    /// [`ServeError::PoolDown`] when the pool has shut down.
    pub fn submit(&mut self, spec: SessionSpec) -> Result<SessionHandle, ServeError> {
        let SessionSpec {
            patterns,
            tree,
            models,
            branch_mode,
            strategy,
            optimizer,
            weight,
            label,
            fault,
        } = spec;
        if weight == 0 {
            return Err(ServeError::Admission(AdmissionError::ZeroWeight));
        }
        let session = self.next_session;
        self.next_session += 1;

        // Resolve models and the schedule like the single-run path.
        let models = models.unwrap_or_else(|| ModelSet::default_for(&patterns, branch_mode));
        if models.len() != patterns.partition_count() {
            return Err(ServeError::Kernel(
                phylo_kernel::KernelError::ModelCountMismatch {
                    models: models.len(),
                    partitions: patterns.partition_count(),
                },
            ));
        }
        let categories: Vec<usize> = models.models().iter().map(|m| m.categories()).collect();
        // Sessions are packed against the scalar (tabled) cost model even
        // though their engines run the blocked kernels: unlike the single-run
        // builder, which packs against the dispatch it runs. Placement is
        // pinned bit for bit by the serving benchmark, so which model serving
        // *should* pack against is an open measured-calibration question
        // (ROADMAP direction 3), not something to change in passing.
        let costs = PatternCosts::analytic(&patterns, &categories, KernelDispatch::Scalar);
        let assignment = strategy.assign(&costs, self.workers)?;
        let slices = build_workers(&patterns, tree.node_capacity(), &categories, &assignment)?;

        // Typed admission round trip; on success the dispatcher has already
        // installed this session's shards on every pool worker.
        let (verdict_tx, verdict_rx) = channel();
        self.commands
            .send(DispatchMsg::Register {
                session,
                weight,
                slices,
                reply: verdict_tx,
            })
            .map_err(|_| ServeError::PoolDown)?;
        match verdict_rx.recv() {
            Ok(Ok(())) => {}
            Ok(Err(admission)) => return Err(ServeError::Admission(admission)),
            Err(_) => return Err(ServeError::PoolDown),
        }
        // Arm an injected fault *before* the driver can send its first op:
        // the command channel is FIFO, so the faulting op is deterministic.
        if let Some(fault) = fault {
            let _ = self.commands.send(DispatchMsg::InjectPanic {
                session,
                worker: fault.worker,
                after_ops: fault.after_ops,
            });
        }

        let (reply_tx, reply_rx) = channel();
        let executor = PooledExecutor {
            session,
            workers: self.workers,
            commands: self.commands.clone(),
            reply_tx,
            reply_rx,
            assignment,
            trace: WorkTrace::new(self.workers),
            sync_events: 0,
            poisoned: None,
            telemetry: Telemetry::disabled(),
        };
        let mut kernel = match LikelihoodKernel::try_new(patterns, tree, models, executor) {
            Ok(kernel) => kernel,
            Err(error) => {
                // Free the admission slot the failed build reserved.
                let _ = self.commands.send(DispatchMsg::Remove { session });
                return Err(ServeError::Kernel(error));
            }
        };
        kernel.set_telemetry(&self.telemetry.for_session(session));

        let (outcome_tx, outcome_rx) = channel();
        let commands = self.commands.clone();
        let driver_label = label.clone();
        let join = std::thread::Builder::new()
            .name(format!("plf-session-{session}"))
            .spawn(move || {
                let started = Instant::now();
                let result = optimize_model_parameters_resilient(&mut kernel, &optimizer);
                // Retire the session (frees its admission slot and its
                // shards on every pool worker) before reporting.
                let _ = commands.send(DispatchMsg::Remove { session });
                let outcome = result
                    .map(|(report, recoveries)| SessionOutcome {
                        session,
                        label: driver_label,
                        initial_log_likelihood: report.initial_log_likelihood,
                        final_log_likelihood: report.final_log_likelihood,
                        rounds: report.rounds,
                        sync_events: kernel.sync_events(),
                        recoveries,
                        latency: started.elapsed(),
                    })
                    .map_err(ServeError::from);
                let _ = outcome_tx.send(outcome);
            })
            .expect("failed to spawn session driver thread");

        Ok(SessionHandle {
            session,
            label,
            outcome: outcome_rx,
            join: Some(join),
        })
    }

    fn shutdown_inner(&mut self) {
        let _ = self.commands.send(DispatchMsg::Shutdown);
        if let Some(dispatcher) = self.dispatcher.take() {
            let _ = dispatcher.join();
        }
    }

    /// Stops the dispatcher and joins every pool thread. Join all live
    /// [`SessionHandle`]s first: a session still running when the pool goes
    /// down fails over its recovery budget into a typed error.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }
}

impl Drop for SessionManager {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}
