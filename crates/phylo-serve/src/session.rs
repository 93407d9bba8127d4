//! Sessions on the shared pool: the per-session executor, the manager that
//! admits sessions, and the handle that returns their outcomes.
//!
//! A [`SessionManager`] of width `T` owns `T` compute *slots* and no threads
//! of its own. [`SessionManager::submit`] plans a session through the same
//! [`plan`] as the single-run builder — models resolved, patterns placed by
//! [`WeightedLpt`] over `T` workers — builds the `T` per-worker shards,
//! admits it (typed) and spawns a *driver thread* that runs the optimizer
//! under the default [`RunPolicy`] (worker-death recovery) over a
//! [`SessionExecutor`]. That executor runs each parallel region's `T` shards
//! on the driver thread itself, in worker order
//! ([`phylo_parallel::pool::run_shards`], the loop the tracing executor's
//! virtual workers run too), while the session holds a slot: at most `T`
//! sessions compute at once and [`FairQueue`] decides which. Its region
//! bookkeeping — poison, armed fault, telemetry bracket — is the same
//! [`Ledger`] the solo executors hold, and it speaks the standard
//! [`Executor`] + [`Reassignable`] contract, so the driver and its
//! worker-death recovery are the code single-session analyses run, and every
//! result is bit-identical to a dedicated `T`-wide run.
//!
//! Serving is coarse-grained on purpose: many small sessions side by side
//! need no barrier between threads at all, while a fine-grained region over
//! tiny shards costs more in hand-offs than it computes. The price is that a
//! lone session uses one core; a lone large analysis belongs on the solo
//! `ThreadedExecutor` path.

use std::collections::BTreeMap;
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use phylo_data::PartitionedPatterns;
use phylo_kernel::cost::WorkTrace;
use phylo_kernel::{
    ExecContext, ExecError, Executor, KernelOp, LikelihoodKernel, OpOutput, WorkerSlices,
};
use phylo_optimize::{optimize_model_parameters_with_policy, RunPolicy, WorkerRecovery};
use phylo_parallel::pool::{run_shards, Ledger, Reduced};
use phylo_parallel::{build_workers, plan, Plan};
use phylo_sched::{Assignment, Reassignable, SchedError, WeightedLpt};
use phylo_telemetry::{Telemetry, TelemetryConfig, TelemetrySnapshot};

use crate::error::{AdmissionError, ServeError};
use crate::spec::SessionSpec;
use crate::tenant::{FairQueue, TenantStrategy};

/// Pool-level aggregates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolStats {
    /// Pool width: the compute slots, and the shards of every session.
    pub workers: usize,
    /// Sessions currently admitted.
    pub active_sessions: usize,
    /// The admission bound.
    pub capacity: usize,
    /// Parallel regions executed since start.
    pub ops_dispatched: u64,
    /// Equal to `ops_dispatched`: every region serves one session. Kept for
    /// callers that read it.
    pub batches: u64,
    /// Sessions served by one region: 1 once any region has run, else 0.
    /// Kept for callers that read it.
    pub max_batch_fused: usize,
    /// Shard panics observed (each poisoned one session until it rebuilt its
    /// shards).
    pub worker_panics: u64,
    /// Message of the most recent shard panic, if any was caught.
    pub last_panic: Option<String>,
}

/// What the manager and every session's [`Slot`] share.
#[derive(Debug)]
struct Pool {
    state: Mutex<PoolState>,
    workers: usize,
    capacity: usize,
}

#[derive(Debug)]
struct PoolState {
    queue: FairQueue,
    /// Each admitted session's wake-up, so that a hand-off wakes exactly the
    /// session it chose.
    wakers: BTreeMap<u64, Arc<Condvar>>,
    /// Set by shutdown: no slot is granted any more.
    shutdown: bool,
    regions: u64,
    worker_panics: u64,
    last_panic: Option<String>,
}

impl Pool {
    fn state(&self) -> MutexGuard<'_, PoolState> {
        // lint:allow(L005): the slot lock — a session takes it to acquire a
        // slot, at most once per `quantum` regions while it holds one, and on
        // release; never once per region. Its critical sections are queue
        // arithmetic, so a poisoned lock still holds consistent state.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl PoolState {
    fn wake(&self, session: Option<u64>) {
        if let Some(wake) = session.and_then(|s| self.wakers.get(&s)) {
            wake.notify_one();
        }
    }
}

/// A session's counts, folded into the pool's at slot hand-offs.
#[derive(Debug, Default)]
struct Tally {
    regions: u64,
    panics: u64,
    last_panic: Option<String>,
}

impl Tally {
    fn count(&mut self, panics: &[(usize, String)]) {
        self.regions += 1;
        self.panics += panics.len() as u64;
        if let Some((_, message)) = panics.last() {
            self.last_panic = Some(message.clone());
        }
    }

    fn fold_into(&mut self, state: &mut PoolState) {
        state.regions += std::mem::take(&mut self.regions);
        state.worker_panics += std::mem::take(&mut self.panics);
        if let Some(message) = self.last_panic.take() {
            state.last_panic = Some(message);
        }
    }
}

/// A session's handle on the pool's compute slots. Between hand-offs it
/// touches nothing shared: the per-region fast path is the local `used`
/// counter. Dropping it — on completion, error or unwind — releases the slot
/// and ends the session's admission.
#[derive(Debug)]
struct Slot {
    pool: Arc<Pool>,
    session: u64,
    wake: Arc<Condvar>,
    quantum: u32,
    holding: bool,
    /// Regions run since the last charge.
    used: u32,
    tally: Tally,
}

impl Slot {
    /// Makes sure the session holds a slot for its next region and returns
    /// the seconds it waited for one, read through `telemetry`'s clock (0
    /// when it is disabled); `None` when the pool shut down first.
    fn enter(&mut self, telemetry: &Telemetry) -> Option<f64> {
        if self.holding && self.used < self.quantum {
            self.used += 1;
            return Some(0.0);
        }
        let mut state = self.pool.state();
        self.tally.fold_into(&mut state);
        if self.holding && !state.shutdown {
            let next = state.queue.charge(self.session, self.used);
            self.holding = next.is_none();
            state.wake(next);
        }
        let mut waited = 0.0;
        if !self.holding {
            let since = telemetry.now();
            let mut granted = !state.shutdown && state.queue.grant(self.session);
            while !granted && !state.shutdown {
                state = self
                    .wake
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
                granted = state.queue.holds(self.session);
            }
            if !granted {
                // Shut down while waiting: leave the queue.
                let next = state.queue.release(self.session);
                state.wake(next);
                return None;
            }
            self.holding = true;
            waited = telemetry.now() - since;
        }
        self.used = 1;
        Some(waited)
    }
}

impl Drop for Slot {
    fn drop(&mut self) {
        let mut state = self.pool.state();
        self.tally.fold_into(&mut state);
        let next = state.queue.remove(self.session);
        state.wakers.remove(&self.session);
        state.wake(next);
    }
}

/// The per-session execution backend: a synchronous [`Executor`] whose
/// parallel regions run the session's `T` shards on the calling (driver)
/// thread, in worker order, while the session holds one of the pool's `T`
/// compute slots. Its [`Ledger`] keeps no trace; a panicking shard poisons
/// it until the standard recovery's `reassign` rebuilds the shards.
#[derive(Debug)]
pub struct SessionExecutor {
    shards: Vec<WorkerSlices>,
    slot: Slot,
    ledger: Ledger,
}

impl Executor for SessionExecutor {
    fn worker_count(&self) -> usize {
        self.shards.len()
    }

    fn execute(&mut self, op: &KernelOp, ctx: &ExecContext<'_>) -> Result<OpOutput, ExecError> {
        let mut open = self.ledger.open(op)?;
        let Some(slot_wait) = self.slot.enter(self.ledger.telemetry()) else {
            // Shut down before a slot came free: fail like a lost worker, so
            // the recovery budget turns it into a typed error instead of a
            // hung driver.
            let lost = Reduced {
                result: Err(ExecError::WorkerDied { worker: 0 }),
                panics: Vec::new(),
                samples: Vec::new(),
            };
            return self.ledger.close(open, lost);
        };
        // Shard k waited for the slot, then behind shards 0..k on this thread.
        let queue_wait = |seconds: &[f64], k: usize| slot_wait + seconds[..k].iter().sum::<f64>();
        let reduced = run_shards(&mut self.shards, op, ctx, &mut open, queue_wait);
        self.slot.tally.count(&reduced.panics);
        self.ledger.close(open, reduced)
    }

    fn sync_events(&self) -> u64 {
        self.ledger.sync_events()
    }

    fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        self.ledger.attach_telemetry(telemetry);
    }
}

impl Reassignable for SessionExecutor {
    fn assignment(&self) -> &Assignment {
        self.ledger.assignment()
    }

    fn live_trace(&self) -> &WorkTrace {
        self.ledger.trace()
    }

    fn take_trace(&mut self) -> WorkTrace {
        self.ledger.take_trace()
    }

    fn reassign(
        &mut self,
        patterns: &PartitionedPatterns,
        assignment: &Assignment,
        node_capacity: usize,
        categories: &[usize],
    ) -> Result<(), SchedError> {
        self.shards = build_workers(patterns, node_capacity, categories, assignment)?;
        self.ledger.restart(assignment);
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
    /// Parallel regions this session issued.
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

/// One fixed pool of compute slots serving N independent sessions.
///
/// Created with [`SessionManager::new`] (pool width) or
/// [`SessionManager::with_strategy`] (admission/quantum policy and
/// telemetry). Sessions are admitted with [`SessionManager::submit`] and
/// collected with [`SessionHandle::join`]; at most `workers` of them compute
/// at any moment.
#[derive(Debug)]
pub struct SessionManager {
    pool: Arc<Pool>,
    next_session: u64,
    telemetry: Telemetry,
}

impl SessionManager {
    /// A pool of width `workers` under the default [`TenantStrategy`],
    /// without telemetry.
    pub fn new(workers: usize) -> Self {
        Self::with_strategy(workers, TenantStrategy::default(), None)
    }

    /// A pool of width `workers` — that many compute slots, and that many
    /// shards per session — under an explicit admission/quantum policy,
    /// optionally recording pool telemetry (each session's events are tagged
    /// with its id; see [`TelemetrySnapshot::session_events`]).
    pub fn with_strategy(
        workers: usize,
        strategy: TenantStrategy,
        telemetry: Option<TelemetryConfig>,
    ) -> Self {
        let telemetry = telemetry.map_or_else(Telemetry::disabled, Telemetry::new);
        let state = PoolState {
            queue: FairQueue::new(workers, strategy.quantum),
            wakers: BTreeMap::new(),
            shutdown: false,
            regions: 0,
            worker_panics: 0,
            last_panic: None,
        };
        let pool = Pool {
            state: Mutex::new(state),
            workers,
            capacity: strategy.max_sessions,
        };
        Self {
            pool: Arc::new(pool),
            next_session: 0,
            telemetry,
        }
    }

    /// Fixed pool width.
    pub fn worker_count(&self) -> usize {
        self.pool.workers
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

    /// Pool-level aggregates (sessions admitted, regions run, shard panics).
    /// Live sessions fold their counts in at slot hand-offs, so the numbers
    /// are exact once every handle is joined.
    ///
    /// # Errors
    ///
    /// None: the pool has no thread to lose. The `Result` is kept for
    /// callers written against a pool that could be down.
    pub fn stats(&self) -> Result<PoolStats, ServeError> {
        let state = self.pool.state();
        Ok(PoolStats {
            workers: self.pool.workers,
            active_sessions: state.queue.len(),
            capacity: self.pool.capacity,
            ops_dispatched: state.regions,
            batches: state.regions,
            max_batch_fused: usize::from(state.regions > 0),
            worker_panics: state.worker_panics,
            last_panic: state.last_panic.clone(),
        })
    }

    /// Admits a session and starts running it.
    ///
    /// The build path is the single-run builder's: [`plan`] resolves the
    /// models (or the per-partition defaults) and places the patterns over
    /// the pool's fixed width with [`WeightedLpt`], then the per-worker
    /// shards are built. Admission is *typed*: an overloaded pool, a zero
    /// weight or an injected fault on a worker the pool does not have comes
    /// back as [`ServeError::Admission`], never a panic.
    ///
    /// # Errors
    ///
    /// [`ServeError::Admission`] on overload, a zero weight or an
    /// out-of-range injected fault; [`ServeError::Kernel`] /
    /// [`ServeError::Sched`] for a session whose dataset, models, tree or
    /// schedule do not line up.
    pub fn submit(&mut self, spec: SessionSpec) -> Result<SessionHandle, ServeError> {
        let SessionSpec {
            patterns,
            tree,
            models,
            optimizer,
            weight,
            label,
            fault,
        } = spec;
        if weight == 0 {
            return Err(ServeError::Admission(AdmissionError::ZeroWeight));
        }
        let workers = self.pool.workers;
        if let Some(fault) = fault.filter(|f| f.worker >= workers) {
            // A fault no shard would ever fire would make a chaos drill
            // silently test nothing.
            return Err(ServeError::Admission(
                AdmissionError::FaultWorkerOutOfRange {
                    worker: fault.worker,
                    worker_count: workers,
                },
            ));
        }
        let session = self.next_session;
        self.next_session += 1;

        let Plan {
            models,
            categories,
            assignment,
            ..
        } = plan::<ServeError>(&patterns, models, &WeightedLpt, workers)?;
        let shards = build_workers(&patterns, tree.node_capacity(), &categories, &assignment)?;

        let mut ledger = Ledger::new(&assignment, false);
        if let Some(fault) = fault {
            ledger.arm(fault.worker, fault.after_ops);
        }
        let executor = SessionExecutor {
            shards,
            slot: self.admit(session, weight)?,
            ledger,
        };
        // A failed build drops the executor, whose slot ends the admission.
        let mut kernel = LikelihoodKernel::try_new(patterns, tree, models, executor)?;
        kernel.set_telemetry(&self.telemetry.for_session(session));

        let (outcome_tx, outcome_rx) = channel();
        let driver_label = label.clone();
        let join = std::thread::Builder::new()
            .name(format!("plf-session-{session}"))
            .spawn(move || {
                let started = Instant::now();
                let result = optimize_model_parameters_with_policy(
                    &mut kernel,
                    &optimizer,
                    RunPolicy::default(),
                );
                let sync_events = kernel.sync_events();
                // Retire the session (its slot goes to the next waiter, its
                // admission ends) before reporting.
                drop(kernel);
                let outcome = result
                    .map(|run| SessionOutcome {
                        session,
                        label: driver_label,
                        initial_log_likelihood: run.report.initial_log_likelihood,
                        final_log_likelihood: run.report.final_log_likelihood,
                        rounds: run.report.rounds,
                        sync_events,
                        recoveries: run.recoveries,
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

    /// Typed admission: registers `session` with the fair queue and returns
    /// its slot handle, idle until its first region.
    fn admit(&self, session: u64, weight: u32) -> Result<Slot, AdmissionError> {
        let mut state = self.pool.state();
        let active = state.queue.len();
        if active >= self.pool.capacity {
            return Err(AdmissionError::PoolFull {
                active,
                capacity: self.pool.capacity,
            });
        }
        state.queue.register(session, weight);
        let wake = Arc::new(Condvar::new());
        state.wakers.insert(session, Arc::clone(&wake));
        Ok(Slot {
            pool: Arc::clone(&self.pool),
            session,
            wake,
            quantum: state.queue.quantum(),
            holding: false,
            used: 0,
            tally: Tally::default(),
        })
    }

    /// Stops granting compute slots, without blocking. Sessions holding a
    /// slot run to completion; a session waiting for one — or asking later
    /// — fails its next region like a lost worker, which its recovery budget
    /// turns into a typed [`ServeError`]. Join the live [`SessionHandle`]s to
    /// collect their outcomes.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for SessionManager {
    fn drop(&mut self) {
        let mut state = self.pool.state();
        state.shutdown = true;
        for wake in state.wakers.values() {
            wake.notify_one();
        }
    }
}
