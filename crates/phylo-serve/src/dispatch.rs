//! The dispatcher: admission, fairness and fusion on top of the shared
//! [`WorkerPool`].
//!
//! One dispatcher thread sits between the per-session drivers and the fixed
//! pool — the same `phylo_parallel::pool` a solo `ThreadedExecutor` drives
//! directly. Drivers submit one op at a time (their executors are
//! synchronous); the dispatcher gathers pending ops from *different* sessions
//! for up to [`TenantStrategy::batch_window`], asks the [`FairQueue`] which
//! sessions go first, and hands one fused [`Batch`] — one barrier serving up
//! to `max_batch` tenants — to [`WorkerPool::run_batch`]. Everything below
//! that call (broadcast, lockstep drain, quarantine of a faulting tenant,
//! the worker-index-order reduction) is the pool's, so a session's result is
//! bit-identical to what a dedicated executor would have produced.
//!
//! Failure containment: a deterministic op rejection surfaces as
//! [`ExecError::Op`] without quarantining anything; a worker panic on session
//! A's entry surfaces as [`ExecError::WorkerDied`] *to A alone* — every other
//! entry of the batch reduces normally, because the pool thread survives and
//! A's slices were dropped only on the panicking worker.

use std::collections::{BTreeMap, VecDeque};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use phylo_kernel::{ExecError, KernelOp, OpOutput, WorkerSlices};
use phylo_parallel::pool::{Batch, BatchEntry, StateSnapshot, WorkerPool};
use phylo_telemetry::{Telemetry, WorkerSample};

use crate::error::AdmissionError;
use crate::tenant::{FairQueue, TenantStrategy};

/// How many scheduler yields the dispatcher will spend holding a round open
/// for mid-quantum tenants whose next op has not arrived yet. Generous
/// against a driver's between-ops bookkeeping (a few yields), tiny against
/// an op's compute, so a stalled resident can delay a round but never stall
/// the pool.
const RESIDENCY_HOLD_YIELDS: usize = 32;

/// One op submitted by a session's executor, with its reply lane.
pub(crate) struct OpRequest {
    pub session: u64,
    pub op: KernelOp,
    pub snapshot: Arc<StateSnapshot>,
    /// The session's telemetry region for this op; `None` when it is not
    /// recording (then no sample is taken and [`OpReply::samples`] is empty).
    pub record: Option<u64>,
    pub reply: Sender<OpReply>,
}

/// The dispatcher's answer to one [`OpRequest`].
pub(crate) struct OpReply {
    pub result: Result<OpOutput, ExecError>,
    /// What each pool worker measured for this op (op seconds, queue wait,
    /// cache counters) — forwarded only for a recording session.
    pub samples: Vec<WorkerSample>,
}

impl OpReply {
    /// Nobody can serve the op (session unknown, pool gone): fail like a
    /// dead worker, so the standard recovery path — bounded by its budget —
    /// turns it into a typed error instead of a hung driver.
    pub fn lost() -> Self {
        Self {
            result: Err(ExecError::WorkerDied { worker: 0 }),
            samples: Vec::new(),
        }
    }
}

/// Everything the dispatcher can be asked to do.
pub(crate) enum DispatchMsg {
    /// Admit a session and install its per-worker slices on the pool.
    Register {
        session: u64,
        weight: u32,
        slices: Vec<WorkerSlices>,
        reply: Sender<Result<(), AdmissionError>>,
    },
    /// Execute one op for a session (the hot path).
    Op(OpRequest),
    /// Reinstall a session's slices (worker-death recovery / migration).
    /// No ack: the session's next op follows it on this FIFO channel.
    Reassign {
        session: u64,
        slices: Vec<WorkerSlices>,
    },
    /// Retire a session and free its admission slot.
    Remove { session: u64 },
    /// Arm a one-shot injected panic: `worker` dies on `session`'s op
    /// dispatched `after_ops` session-ops from now (0 = the next one).
    InjectPanic {
        session: u64,
        worker: usize,
        after_ops: u64,
    },
    /// Report pool-level aggregates.
    Stats { reply: Sender<PoolStats> },
    /// Stop the dispatcher (and the pool workers with it).
    Shutdown,
}

/// Pool-level aggregates, served over the command channel so the hot path
/// needs no shared counters at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolStats {
    /// Fixed pool width (worker threads).
    pub workers: usize,
    /// Sessions currently admitted.
    pub active_sessions: usize,
    /// The admission bound.
    pub capacity: usize,
    /// Ops dispatched to the pool since start.
    pub ops_dispatched: u64,
    /// Fused dispatch rounds issued since start.
    pub batches: u64,
    /// Widest round so far (ops fused under one barrier).
    pub max_batch_fused: usize,
    /// Worker panics observed (each quarantined one tenant on one worker).
    pub worker_panics: u64,
    /// Message of the most recent worker panic, if any was caught.
    pub last_panic: Option<String>,
}

struct TenantState {
    pending: VecDeque<OpRequest>,
    fault: Option<(usize, u64)>,
}

struct Dispatcher {
    strategy: TenantStrategy,
    pool: WorkerPool,
    /// Pool-level handle, for dropped-sample counts only (per-op events
    /// belong to the sessions' own handles).
    telemetry: Telemetry,
    // BTreeMap, not HashMap: `pending_ops` and the round builder iterate the
    // tenant table, and dispatch order must not depend on hash order (L006).
    tenants: BTreeMap<u64, TenantState>,
    queue: FairQueue,
    ops_dispatched: u64,
    batches: u64,
    max_batch_fused: usize,
    worker_panics: u64,
    last_panic: Option<String>,
}

/// Spawns the dispatcher thread, which owns `pool` (and shuts it down when
/// the dispatcher stops).
pub(crate) fn spawn_dispatcher(
    commands: Receiver<DispatchMsg>,
    pool: WorkerPool,
    strategy: TenantStrategy,
    telemetry: Telemetry,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name("plf-dispatch".to_string())
        .spawn(move || {
            Dispatcher {
                strategy,
                pool,
                telemetry,
                tenants: BTreeMap::new(),
                queue: FairQueue::new(),
                ops_dispatched: 0,
                batches: 0,
                max_batch_fused: 0,
                worker_panics: 0,
                last_panic: None,
            }
            .run(&commands);
        })
        .expect("failed to spawn dispatcher thread")
}

impl Dispatcher {
    fn run(mut self, commands: &Receiver<DispatchMsg>) {
        'serve: loop {
            // With nothing pending, block for the next command.
            if self.pending_ops() == 0 {
                match commands.recv() {
                    Ok(msg) => {
                        if self.handle(msg) {
                            break 'serve;
                        }
                    }
                    Err(_) => break 'serve,
                }
            }
            // Greedy drain with productive yields: ingest every command
            // already queued, and as long as each sweep keeps finding new
            // ones (drivers woken by the previous round are actively
            // resubmitting), yield the core so they can — ops fuse into one
            // wide round instead of a train of narrow barriers. The cost on
            // an idle pool is two empty yields (microseconds), not a timed
            // linger window.
            let mut idle_sweeps = 0;
            while idle_sweeps < 2 && self.pending_ops() < self.strategy.max_batch {
                let Some(drained) = self.drain_commands(commands) else {
                    break 'serve;
                };
                idle_sweeps = if drained == 0 { idle_sweeps + 1 } else { 0 };
                std::thread::yield_now();
            }
            // Residency hold: tenants mid-quantum whose next op has not
            // arrived yet (their drivers are still digesting the previous
            // result) get a bounded grace period to resubmit before the
            // round closes. Without this, any other pending tenant would
            // steal the slot the moment a resident's driver woke, and the
            // resident set would churn on every round — defeating the
            // quantum's cache-locality purpose. The wait is a bounded yield
            // loop, not a parked sleep: the residents' drivers are runnable
            // right now (they just received results), so handing them the
            // core directly is cheaper than a park/unpark cycle per command.
            if self.strategy.quantum > 1 {
                let mut holds = 0;
                while holds < RESIDENCY_HOLD_YIELDS
                    && self.queue.awaiting_resident(|s| {
                        self.tenants.get(&s).is_some_and(|t| !t.pending.is_empty())
                    })
                {
                    if self.drain_commands(commands).is_none() {
                        break 'serve;
                    }
                    std::thread::yield_now();
                    holds += 1;
                }
            }
            // Optionally linger for up to the batch window (off by default:
            // it trades every round's latency for wider fusion, which only
            // pays off when drivers are slow to resubmit).
            if !self.strategy.batch_window.is_zero() {
                // lint:allow(L008): batch-window linger deadline — bounds how long the round
                // waits for stragglers; never feeds op ordering or the reduction.
                let deadline = Instant::now() + self.strategy.batch_window;
                while self.pending_ops() < self.strategy.max_batch {
                    // lint:allow(L008): remaining-linger clock check, same bounded wait.
                    let now = Instant::now();
                    let Some(left) = deadline
                        .checked_duration_since(now)
                        .filter(|d| !d.is_zero())
                    else {
                        break;
                    };
                    match commands.recv_timeout(left) {
                        Ok(msg) => {
                            if self.handle(msg) {
                                break 'serve;
                            }
                        }
                        Err(RecvTimeoutError::Timeout) => break,
                        Err(RecvTimeoutError::Disconnected) => break 'serve,
                    }
                }
            }
            self.dispatch_round();
        }
    }

    fn pending_ops(&self) -> usize {
        self.tenants.values().map(|t| t.pending.len()).sum()
    }

    /// Ingests every command already queued; `None` means shutdown.
    fn drain_commands(&mut self, commands: &Receiver<DispatchMsg>) -> Option<usize> {
        let mut drained = 0usize;
        loop {
            match commands.try_recv() {
                Ok(msg) => {
                    if self.handle(msg) {
                        return None;
                    }
                    drained += 1;
                }
                Err(TryRecvError::Empty) => return Some(drained),
                Err(TryRecvError::Disconnected) => return None,
            }
        }
    }

    /// Applies one command; returns `true` on shutdown.
    fn handle(&mut self, msg: DispatchMsg) -> bool {
        match msg {
            DispatchMsg::Register {
                session,
                weight,
                slices,
                reply,
            } => {
                let verdict = self.register(session, weight, slices);
                let _ = reply.send(verdict);
            }
            DispatchMsg::Op(request) => {
                if let Some(tenant) = self.tenants.get_mut(&request.session) {
                    tenant.pending.push_back(request);
                } else {
                    // Unregistered session (e.g. removed mid-flight).
                    let _ = request.reply.send(OpReply::lost());
                }
            }
            DispatchMsg::Reassign { session, slices } => {
                self.pool.install(session, slices, None);
            }
            DispatchMsg::Remove { session } => {
                self.tenants.remove(&session);
                self.queue.remove(session);
                self.pool.remove(session);
            }
            DispatchMsg::InjectPanic {
                session,
                worker,
                after_ops,
            } => {
                if let Some(tenant) = self.tenants.get_mut(&session) {
                    tenant.fault = Some((worker, after_ops));
                }
            }
            DispatchMsg::Stats { reply } => {
                let _ = reply.send(PoolStats {
                    workers: self.pool.width(),
                    active_sessions: self.tenants.len(),
                    capacity: self.strategy.max_sessions,
                    ops_dispatched: self.ops_dispatched,
                    batches: self.batches,
                    max_batch_fused: self.max_batch_fused,
                    worker_panics: self.worker_panics,
                    last_panic: self.last_panic.clone(),
                });
            }
            DispatchMsg::Shutdown => return true,
        }
        false
    }

    fn register(
        &mut self,
        session: u64,
        weight: u32,
        slices: Vec<WorkerSlices>,
    ) -> Result<(), AdmissionError> {
        if weight == 0 {
            return Err(AdmissionError::ZeroWeight);
        }
        if self.tenants.len() >= self.strategy.max_sessions {
            return Err(AdmissionError::PoolFull {
                active: self.tenants.len(),
                capacity: self.strategy.max_sessions,
            });
        }
        self.tenants.insert(
            session,
            TenantState {
                pending: VecDeque::new(),
                fault: None,
            },
        );
        self.queue.register(session, weight);
        self.pool.install(session, slices, None);
        Ok(())
    }

    /// One fused region: select fairly, run the batch on the pool, reduce
    /// per entry in worker-index order, answer every served session.
    fn dispatch_round(&mut self) {
        let mut pending: Vec<u64> = self
            .tenants
            .iter()
            .filter(|(_, t)| !t.pending.is_empty())
            .map(|(&s, _)| s)
            .collect();
        pending.sort_unstable();
        let chosen = self
            .queue
            .select(&pending, self.strategy.max_batch, self.strategy.quantum);
        if chosen.is_empty() {
            return;
        }

        let mut entries = Vec::with_capacity(chosen.len());
        let mut lanes = Vec::with_capacity(chosen.len());
        let mut panic_target = None;
        for session in chosen {
            let Some(tenant) = self.tenants.get_mut(&session) else {
                continue;
            };
            let Some(request) = tenant.pending.pop_front() else {
                continue;
            };
            // Count down a one-shot armed fault on this session's op lane.
            if let Some((worker, after_ops)) = tenant.fault {
                if after_ops == 0 {
                    panic_target = Some((session, worker));
                    tenant.fault = None;
                } else {
                    tenant.fault = Some((worker, after_ops - 1));
                }
            }
            entries.push(BatchEntry {
                session,
                op: request.op,
                snapshot: request.snapshot,
                record: request.record,
            });
            lanes.push((session, request.record, request.reply));
        }
        if entries.is_empty() {
            return;
        }

        let fused = entries.len();
        self.ops_dispatched += fused as u64;
        self.batches += 1;
        self.max_batch_fused = self.max_batch_fused.max(fused);

        let recording = entries.iter().any(|e| e.record.is_some());
        let batch = Batch {
            entries,
            panic_target,
        };
        let results = self.pool.run_batch(batch, |_, _, _| {});
        let samples = if recording {
            self.pool.take_samples(&self.telemetry)
        } else {
            Vec::new()
        };

        for ((session, record, reply), mut reduced) in lanes.into_iter().zip(results) {
            self.worker_panics += reduced.panics.len() as u64;
            if let Some(message) = reduced.panics.pop() {
                self.last_panic = Some(message);
            }
            if reduced.result.is_err() {
                // The faulted session stops sending ops until it reassigns;
                // drop any ops it already queued so they cannot go stale.
                if let Some(tenant) = self.tenants.get_mut(&session) {
                    tenant.pending.clear();
                }
            }
            // A session that is not recording matches no sample: an empty
            // `Vec`, no allocation.
            let samples = samples.iter().filter(|s| Some(s.region) == record);
            let _ = reply.send(OpReply {
                result: reduced.result,
                samples: samples.copied().collect(),
            });
        }
    }
}
