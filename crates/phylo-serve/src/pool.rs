//! The fixed pool of worker threads shared by every session.
//!
//! Each pool worker owns one [`WorkerSlices`] *per live session* (its shard
//! of that session's patterns, keyed by session id) and executes fused
//! [`Batch`]es broadcast by the dispatcher: it runs every entry's op
//! against the owning session's slices and sends ONE [`WorkerReply`] —
//! this worker's results for the whole batch, in entry order — back over
//! the shared reply channel (one message per worker per barrier, so the
//! fused round costs a constant number of channel wakeups regardless of
//! how many tenants it serves). The protocol is the multi-tenant generalization of
//! the single-session worker loop in `phylo-parallel::threaded`, with one
//! crucial difference in the failure path: a panic while executing session
//! A's entry *quarantines A on this worker* (its slices are dropped, the
//! panic is reported) and the thread moves on to the next entry — sessions
//! B..N in the same batch, and every later batch, are served as if nothing
//! happened. Worker threads survive tenant faults; only the faulting tenant
//! pays.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

use phylo_kernel::executor::{execute_on_worker, panic_message};
use phylo_kernel::{ExecContext, KernelOp, OpError, OpOutput, WorkerSlices};
use phylo_models::ModelSet;
use phylo_tree::Tree;

/// A snapshot of one session's master state, shipped with its ops (the
/// master's tree and models live on that session's driver thread; the pool
/// threads only ever see immutable snapshots).
pub(crate) struct StateSnapshot {
    pub tree: Tree,
    pub models: ModelSet,
}

/// One op of one session inside a fused batch.
pub(crate) struct BatchEntry {
    pub session: u64,
    pub op: KernelOp,
    pub snapshot: Arc<StateSnapshot>,
}

/// One fused dispatch round: compatible ops from up to `max_batch` sessions,
/// executed under a single barrier by every pool worker.
pub(crate) struct Batch {
    pub entries: Vec<BatchEntry>,
    /// Test instrumentation: `(session, worker)` that must panic while
    /// executing this batch's entry of that session (see
    /// [`crate::SessionSpec::inject_worker_fault`]).
    pub panic_target: Option<(u64, usize)>,
}

/// What a worker did with one batch entry.
pub(crate) enum EntryResult {
    /// The op ran; here is this worker's partial output.
    Output(OpOutput),
    /// The op was rejected deterministically (typed, does not quarantine).
    Rejected(OpError),
    /// The worker panicked on this entry; the session is quarantined on
    /// this worker until the session reinstalls slices.
    Panicked(String),
    /// The worker holds no slices for the entry's session (it was
    /// quarantined earlier or never installed).
    MissingSession,
}

/// One worker's answer to one fused batch: its result for every entry, in
/// entry order.
pub(crate) struct WorkerReply {
    pub worker: usize,
    pub results: Vec<EntryResult>,
}

/// Commands a pool worker consumes, in order.
pub(crate) enum WorkerMsg {
    /// Install (or replace) this worker's shard of a session's patterns.
    Install { session: u64, slices: WorkerSlices },
    /// Drop a session's shard.
    Remove { session: u64 },
    /// Execute a fused batch and reply once per entry.
    Batch(Arc<Batch>),
    /// Exit the worker loop.
    Shutdown,
}

/// A spawned pool worker: its command channel plus the join handle.
#[derive(Debug)]
pub(crate) struct PoolWorker {
    pub sender: Sender<WorkerMsg>,
    pub join: Option<JoinHandle<()>>,
}

/// Spawns the fixed pool: `count` worker threads, each reporting entry
/// results through its clone of `reply_tx`.
pub(crate) fn spawn_pool(count: usize, reply_tx: &Sender<WorkerReply>) -> Vec<PoolWorker> {
    (0..count)
        .map(|worker_index| {
            let (cmd_tx, cmd_rx): (Sender<WorkerMsg>, Receiver<WorkerMsg>) = channel();
            let replies = reply_tx.clone();
            let join = std::thread::Builder::new()
                .name(format!("plf-pool-{worker_index}"))
                .spawn(move || worker_loop(worker_index, &cmd_rx, &replies))
                .expect("failed to spawn pool worker thread");
            PoolWorker {
                sender: cmd_tx,
                join: Some(join),
            }
        })
        .collect()
}

fn worker_loop(worker_index: usize, commands: &Receiver<WorkerMsg>, replies: &Sender<WorkerReply>) {
    // session id → this worker's shard of that session's patterns.
    let mut tenants: HashMap<u64, WorkerSlices> = HashMap::new();
    while let Ok(msg) = commands.recv() {
        match msg {
            WorkerMsg::Install { session, slices } => {
                tenants.insert(session, slices);
            }
            WorkerMsg::Remove { session } => {
                tenants.remove(&session);
            }
            WorkerMsg::Shutdown => break,
            WorkerMsg::Batch(batch) => {
                let results = batch
                    .entries
                    .iter()
                    .map(|entry| run_entry(&mut tenants, &batch, entry, worker_index))
                    .collect();
                if replies
                    .send(WorkerReply {
                        worker: worker_index,
                        results,
                    })
                    .is_err()
                {
                    // Dispatcher gone: nothing left to serve.
                    return;
                }
            }
        }
    }
}

/// Executes one batch entry against its session's local slices, converting
/// a panic into a quarantine of *that session only*.
fn run_entry(
    tenants: &mut HashMap<u64, WorkerSlices>,
    batch: &Batch,
    entry: &BatchEntry,
    worker_index: usize,
) -> EntryResult {
    let Some(slices) = tenants.get_mut(&entry.session) else {
        return EntryResult::MissingSession;
    };
    let injected = batch.panic_target == Some((entry.session, worker_index));
    let body = || -> Result<OpOutput, OpError> {
        if injected {
            // lint:allow(L001): fault-injection hook, armed only by recovery tests
            panic!("injected pool worker panic (test instrumentation)");
        }
        let ctx = ExecContext {
            tree: &entry.snapshot.tree,
            models: &entry.snapshot.models,
        };
        execute_on_worker(slices, &entry.op, &ctx)
    };
    match catch_unwind(AssertUnwindSafe(body)) {
        Ok(Ok(output)) => EntryResult::Output(output),
        Ok(Err(op_error)) => EntryResult::Rejected(op_error),
        Err(payload) => {
            // The slices may be half-updated; quarantine this tenant on
            // this worker and keep the thread alive for everyone else.
            tenants.remove(&entry.session);
            EntryResult::Panicked(panic_message(payload))
        }
    }
}
