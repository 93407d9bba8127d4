//! The one region protocol: one session's shards, one catch per shard and one
//! worker-order reduction per parallel region — on persistent threads, or
//! inline on the calling thread — and the one [`Ledger`] of bookkeeping
//! around each region.
//!
//! This is the Rust equivalent of the Pthreads master/worker scheme in RAxML,
//! written once for every backend. Shard `w` of a session is one
//! [`WorkerSlices`] (its patterns and CLV buffers); a region is one command
//! run against every shard and folded by [`reduce_row`] in worker-index
//! order. The shards run in one of two places:
//!
//! * a [`WorkerPool`] — one persistent thread per shard, driven by
//!   [`crate::ThreadedExecutor`]. Each region ships the command (every
//!   node id and table slot its shards read) and a share of the master's
//!   `Arc` of the models; every worker sends ONE reply per region, which
//!   also carries its telemetry sample when the region is recorded.
//! * the calling thread — [`run_shards`] executes the shards one after the
//!   other in worker order: the virtual workers of
//!   [`crate::TracingExecutor`] and of every `phylo-serve` session. A shard's
//!   result does not depend on which thread computes it, so both places give
//!   the same bits.
//!
//! Each of those three executors holds a [`Ledger`]: the sync count, trace
//! epoch, poison, armed fault and telemetry bracket of its regions.
//!
//! # Lockstep and faults
//!
//! [`WorkerPool::run`] broadcasts, then drains **exactly one reply per live
//! worker — always, also when one of them reports a panic** — so no reply of
//! region *k* can be read as region *k + 1*'s, which is what lets the threads
//! outlive a fault. A panic is caught per shard (on either path); on a pool
//! thread it *quarantines the shard* (its possibly half-updated slices are
//! dropped) and the thread moves on, answering [`ShardResult::MissingShard`]
//! until the session re-[`install`](WorkerPool::install)s. A typed [`OpError`]
//! is deterministic master misuse: it comes back as a value and quarantines
//! nothing.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use phylo_kernel::cost::{RegionRecord, WorkTrace};
use phylo_kernel::executor::{
    active_local_patterns, end_region, execute_on_worker, panic_message, reduce_outputs, sample,
};
use phylo_kernel::{ExecContext, ExecError, KernelOp, OpError, OpOutput, WorkerSlices};
use phylo_models::ModelSet;
use phylo_sched::Assignment;
use phylo_telemetry::{RegionToken, Telemetry, WorkerSample};

/// One parallel region as a [`WorkerPool`] ships it, shared by every worker
/// behind one `Arc`: the command and the master's models. The models are the
/// master's own `Arc`, not a copy; a worker lets go of it before it replies,
/// so the master is their sole holder again once the region returns.
#[derive(Debug)]
struct Region {
    op: KernelOp,
    models: Arc<ModelSet>,
    /// Telemetry: whether each worker answers with a [`WorkerSample`].
    record: bool,
    /// The worker the armed fault fires on in this region.
    panic_worker: Option<usize>,
}

/// What one worker did with its shard of a region.
#[derive(Debug)]
pub enum ShardResult {
    /// The op ran: this worker's partial output, its wall-clock time for the
    /// shard (including any skew sleep) and the number of *live* local
    /// patterns it touched under the op's convergence mask.
    Output(OpOutput, Duration, usize),
    /// The op was rejected deterministically (typed, quarantines nothing).
    Rejected(OpError),
    /// The shard panicked; a pool worker quarantined it.
    Panicked(String),
    /// The worker holds no shard (quarantined earlier, or never installed).
    MissingShard,
}

/// An artificial per-worker slowdown for load-balance experiments: the
/// designated worker sleeps `nanos_per_pattern` nanoseconds per active local
/// pattern in every region, emulating a proportionally slower core. Sleeps
/// (unlike busy loops) keep the emulation meaningful even on an
/// oversubscribed host, because a sleeping thread yields the CPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerSkew {
    /// Index of the artificially slowed worker.
    pub worker: usize,
    /// Slowdown per active local pattern, in nanoseconds.
    pub nanos_per_pattern: u64,
}

enum WorkerMsg {
    Install {
        slices: WorkerSlices,
        skew: Option<WorkerSkew>,
    },
    Region(Arc<Region>),
    Shutdown,
}

/// A worker's one answer to a region: its shard result and, when the region
/// is recorded and the shard ran, its telemetry sample.
type Reply = (ShardResult, Option<WorkerSample>);

#[derive(Debug)]
struct PoolWorker {
    sender: Sender<WorkerMsg>,
    replies: Receiver<Reply>,
    join: JoinHandle<()>,
}

/// One session's persistent worker threads, one shard each.
#[derive(Debug)]
pub struct WorkerPool {
    workers: Vec<PoolWorker>,
}

impl WorkerPool {
    /// Spawns `width` worker threads, each with no shard installed.
    pub fn spawn(width: usize) -> Self {
        let workers = (0..width)
            .map(|worker| {
                let (sender, commands) = channel();
                let (reply_tx, replies) = channel();
                let join = std::thread::Builder::new()
                    .name(format!("plf-worker-{worker}"))
                    .spawn(move || worker_loop(worker, &commands, &reply_tx))
                    .expect("failed to spawn worker thread");
                PoolWorker {
                    sender,
                    replies,
                    join,
                }
            })
            .collect();
        Self { workers }
    }

    /// Number of worker threads.
    pub fn width(&self) -> usize {
        self.workers.len()
    }

    /// The worker threads' ids, in worker order: recovery reinstalls slices,
    /// it never respawns.
    #[cfg(test)]
    pub(crate) fn thread_ids(&self) -> Vec<std::thread::ThreadId> {
        self.workers.iter().map(|w| w.join.thread().id()).collect()
    }

    /// Installs the session: shard `w` of `slices` goes to worker `w`,
    /// replacing the one it held — which is also how a quarantined shard
    /// recovers. `skew` slows its worker down.
    pub fn install(&self, slices: Vec<WorkerSlices>, skew: Option<WorkerSkew>) {
        for (worker, slices) in self.workers.iter().zip(slices) {
            let _ = worker.sender.send(WorkerMsg::Install { slices, skew });
        }
    }

    /// One parallel region: broadcast `op` with the master's `models`, drain
    /// exactly one reply per live worker and fold them with [`reduce_row`]
    /// into `open`'s record. The samples of a recorded region come in the
    /// same replies. A lost worker thread (closed channel) reduces like a
    /// death on that worker.
    pub fn run(&self, op: &KernelOp, models: &Arc<ModelSet>, open: &mut OpenRegion) -> Reduced {
        let region = Arc::new(Region {
            op: op.clone(),
            models: Arc::clone(models),
            record: open.recorded(),
            panic_worker: open.panic_worker,
        });
        for worker in &self.workers {
            let _ = worker.sender.send(WorkerMsg::Region(Arc::clone(&region)));
        }
        let mut samples = Vec::new();
        let row = self.workers.iter().map(|w| {
            let (result, sample) = w.replies.recv().ok()?;
            samples.extend(sample);
            Some(result)
        });
        let mut reduced = reduce_row(row, |w, elapsed, live| open.measure(w, elapsed, live));
        reduced.samples = samples;
        reduced
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        for worker in &self.workers {
            let _ = worker.sender.send(WorkerMsg::Shutdown);
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join.join();
        }
    }
}

/// One region's reduced result.
#[derive(Debug)]
pub struct Reduced {
    /// [`ExecError::WorkerDied`] names the first worker that panicked, was
    /// missing its shard, or was lost; otherwise the first typed rejection
    /// as [`ExecError::Op`]; otherwise the folded output.
    pub result: Result<OpOutput, ExecError>,
    /// The panics caught in this region, in worker order: the worker and
    /// its message.
    pub panics: Vec<(usize, String)>,
    /// The workers' telemetry samples of a recorded region, else empty.
    pub samples: Vec<WorkerSample>,
}

/// Folds one region's per-worker results (`None` = no reply from that
/// worker) in worker-index order — the one deterministic reduction.
/// `measured(worker, elapsed, live_patterns)` is called for every worker
/// that produced an output. The whole row is always consumed: a rejection or
/// death on one worker must not leave another's result unread.
pub fn reduce_row(
    row: impl IntoIterator<Item = Option<ShardResult>>,
    mut measured: impl FnMut(usize, Duration, usize),
) -> Reduced {
    let mut folded: Option<OpOutput> = None;
    let mut rejected: Option<OpError> = None;
    let mut died: Option<usize> = None;
    let mut panics = Vec::new();
    for (worker, slot) in row.into_iter().enumerate() {
        match slot {
            Some(ShardResult::Output(output, elapsed, active)) => {
                measured(worker, elapsed, active);
                // A reduce mismatch is deterministic misuse like any other
                // op rejection.
                folded = match folded.take() {
                    None => Some(output),
                    Some(acc) => match reduce_outputs(acc, output) {
                        Ok(merged) => Some(merged),
                        Err(e) => {
                            rejected.get_or_insert(e);
                            None
                        }
                    },
                };
            }
            Some(ShardResult::Rejected(op_error)) => {
                rejected.get_or_insert(op_error);
            }
            Some(ShardResult::Panicked(message)) => {
                panics.push((worker, message));
                died.get_or_insert(worker);
            }
            Some(ShardResult::MissingShard) | None => {
                died.get_or_insert(worker);
            }
        }
    }
    let result = match (died, rejected) {
        (Some(worker), _) => Err(ExecError::WorkerDied { worker }),
        (None, Some(op_error)) => Err(ExecError::Op(op_error)),
        (None, None) => Ok(folded.unwrap_or(OpOutput::None)),
    };
    Reduced {
        result,
        panics,
        samples: Vec::new(),
    }
}

/// One parallel region with every shard executed on the calling thread, in
/// worker order, and folded by [`reduce_row`] into `open`'s record —
/// bit-identical to a [`WorkerPool`] of the same width, because a shard's
/// computation does not depend on the thread that runs it and the fold order
/// is fixed. A recorded region also returns the shards' samples: shard `k`'s
/// op seconds, `queue_wait(seconds, k)` and the cache counter deltas of its
/// slices. A shard that panicked may be half-updated, so after an
/// [`ExecError::WorkerDied`] the caller must not run the shards again until
/// it rebuilds them (the `Poisoned` contract of every executor).
pub fn run_shards(
    shards: &mut [WorkerSlices],
    op: &KernelOp,
    ctx: &ExecContext<'_>,
    open: &mut OpenRegion,
    queue_wait: impl Fn(&[f64], usize) -> f64,
) -> Reduced {
    let mut seconds = open.recorded().then(|| vec![0.0; shards.len()]);
    let panic_worker = open.panic_worker;
    let row = shards.iter_mut().enumerate().map(|(worker, slices)| {
        let injected = panic_worker == Some(worker);
        Some(run_entry(slices, op, ctx, injected, None))
    });
    let mut reduced = reduce_row(row, |worker, elapsed, live| {
        open.measure(worker, elapsed, live);
        if let Some(seconds) = seconds.as_mut() {
            seconds[worker] = elapsed.as_secs_f64();
        }
    });
    if let Some(seconds) = seconds {
        let samples = shards
            .iter()
            .enumerate()
            .map(|(k, slices)| sample(slices, k, seconds[k], queue_wait(&seconds, k)));
        reduced.samples = samples.collect();
    }
    reduced
}

/// The bookkeeping around every region of a shard executor, written once:
/// the assignment, trace epoch, sync count, poison, armed one-shot fault and
/// telemetry handle. An executor brackets each region with [`Ledger::open`]
/// and [`Ledger::close`]. A [`ExecError::WorkerDied`] poisons: every region
/// then fails fast with [`ExecError::Poisoned`] until [`Ledger::restart`],
/// which the executor calls once it has rebuilt its shards.
#[derive(Debug)]
pub struct Ledger {
    assignment: Assignment,
    trace: WorkTrace,
    /// Whether a successful region leaves a [`RegionRecord`].
    keeps_trace: bool,
    sync_events: u64,
    poisoned: Option<usize>,
    /// The panic message of the worker that poisoned, if it panicked.
    last_panic: Option<String>,
    /// The armed fault: its worker and the regions to pass before it fires.
    fault: Option<(usize, u64)>,
    telemetry: Telemetry,
}

/// A region [`Ledger::open`] let through: its record (`None`, allocating
/// nothing, unless the ledger keeps a trace) and the armed fault's worker.
#[derive(Debug)]
pub struct OpenRegion {
    token: Option<RegionToken>,
    pub record: Option<RegionRecord>,
    panic_worker: Option<usize>,
}

impl OpenRegion {
    /// Whether the region is recorded: its workers report samples.
    pub fn recorded(&self) -> bool {
        self.token.is_some()
    }

    /// The `measured` callback of [`reduce_row`], into the record.
    pub fn measure(&mut self, worker: usize, elapsed: Duration, live_patterns: usize) {
        if let Some(record) = self.record.as_mut() {
            record.seconds_per_worker[worker] = elapsed.as_secs_f64();
            record.active_patterns_per_worker[worker] = live_patterns as f64;
        }
    }
}

impl Ledger {
    /// A healthy ledger for shards built from `assignment`, telemetry off.
    pub fn new(assignment: &Assignment, keeps_trace: bool) -> Self {
        Self {
            assignment: assignment.clone(),
            trace: WorkTrace::new(assignment.worker_count()),
            keeps_trace,
            sync_events: 0,
            poisoned: None,
            last_panic: None,
            fault: None,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Opens a region for `op`: counts it, fires the armed fault when its
    /// turn has come, opens the telemetry region and starts the record.
    ///
    /// # Errors
    ///
    /// [`ExecError::Poisoned`] after a death, until [`Ledger::restart`].
    pub fn open(&mut self, op: &KernelOp) -> Result<OpenRegion, ExecError> {
        if let Some(worker) = self.poisoned {
            return Err(ExecError::Poisoned { worker });
        }
        self.sync_events += 1;
        let panic_worker = match &mut self.fault {
            Some((_, regions)) if *regions > 0 => {
                *regions -= 1;
                None
            }
            fault => fault.take().map(|(worker, _)| worker),
        };
        let token = self.telemetry.enabled().then(|| {
            self.telemetry
                .region_start(op.label(), &op.active_partitions())
        });
        let record = self.keeps_trace.then(|| {
            let mut record = RegionRecord::new(op.kind(), self.assignment.worker_count());
            record.active_partitions = op.active_partitions();
            record
        });
        Ok(OpenRegion {
            token,
            record,
            panic_worker,
        })
    }

    /// Closes `open` with the region's reduced result: ends the telemetry
    /// region from the workers' samples, poisons on a death (keeping the
    /// named worker's panic message) and keeps a successful region's record.
    pub fn close(&mut self, open: OpenRegion, reduced: Reduced) -> Result<OpOutput, ExecError> {
        let width = self.assignment.worker_count();
        let (result, samples) = (reduced.result, &reduced.samples);
        self.poisoned = end_region(&self.telemetry, open.token, width, samples, &result);
        let named = |(w, message): (usize, String)| (Some(w) == self.poisoned).then_some(message);
        self.last_panic = reduced.panics.into_iter().find_map(named);
        if let (Ok(_), Some(record)) = (&result, open.record) {
            self.trace.regions.push(record);
        }
        result
    }

    /// Arms a one-shot fault: `worker` panics in the region opened
    /// `after_regions` regions from now (0 = the next one).
    pub fn arm(&mut self, worker: usize, after_regions: u64) {
        self.fault = Some((worker, after_regions));
    }

    /// A new epoch for shards rebuilt from `assignment`: an empty trace, no
    /// poison, no armed fault.
    pub fn restart(&mut self, assignment: &Assignment) {
        self.assignment = assignment.clone();
        self.trace = WorkTrace::new(assignment.worker_count());
        self.poisoned = None;
        self.last_panic = None;
        self.fault = None;
    }

    pub fn assignment(&self) -> &Assignment {
        &self.assignment
    }

    pub fn trace(&self) -> &WorkTrace {
        &self.trace
    }

    /// Takes this epoch's trace, leaving an empty one behind.
    pub fn take_trace(&mut self) -> WorkTrace {
        let fresh = WorkTrace::new(self.assignment.worker_count());
        std::mem::replace(&mut self.trace, fresh)
    }

    /// Regions opened: the executor's synchronization events.
    pub fn sync_events(&self) -> u64 {
        self.sync_events
    }

    /// The worker whose death poisoned the executor, if any.
    pub fn poisoned_by(&self) -> Option<usize> {
        self.poisoned
    }

    pub fn last_panic_message(&self) -> Option<&str> {
        self.last_panic.as_deref()
    }

    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    pub fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        self.telemetry = telemetry.clone();
    }
}

fn worker_loop(worker: usize, commands: &Receiver<WorkerMsg>, replies: &Sender<Reply>) {
    // This worker's shard and the skew that applies to it; `None` until the
    // first install and after a panic (quarantined until the next install).
    let mut shard: Option<(WorkerSlices, Option<WorkerSkew>)> = None;
    // lint:allow(L008): queue-wait baseline for the telemetry sample;
    // observability only, never feeds the reduction order.
    let mut idle_since = Instant::now();
    while let Ok(msg) = commands.recv() {
        match msg {
            WorkerMsg::Install { slices, skew } => {
                shard = Some((slices, skew.filter(|s| s.worker == worker)));
            }
            WorkerMsg::Shutdown => break,
            WorkerMsg::Region(region) => {
                // Time spent blocked on the command channel: this worker's
                // queue-wait lane.
                let queue_wait = idle_since.elapsed().as_secs_f64();
                let (result, sample) = match shard.as_mut() {
                    None => (ShardResult::MissingShard, None),
                    Some((slices, skew)) => {
                        let ctx = ExecContext {
                            models: &region.models,
                        };
                        let injected = region.panic_worker == Some(worker);
                        let result = run_entry(slices, &region.op, &ctx, injected, *skew);
                        let sample = match &result {
                            ShardResult::Output(_, elapsed, _) if region.record => {
                                let seconds = elapsed.as_secs_f64();
                                Some(sample(slices, worker, seconds, queue_wait))
                            }
                            _ => None,
                        };
                        (result, sample)
                    }
                };
                if matches!(result, ShardResult::Panicked(_)) {
                    // The slices may be half-updated: quarantine them until
                    // the next install and keep the thread alive.
                    shard = None;
                }
                // The payload dies before the reply: its table slots and its
                // share of the models are released while the master still
                // waits, so a returned region holds no reference the master
                // does not know of, a slot the master drops after a model
                // change is never read again, and the master's next model
                // write finds its `Arc` unshared and copies nothing.
                drop(region);
                if replies.send((result, sample)).is_err() {
                    // Master gone: nothing left to serve.
                    return;
                }
                // lint:allow(L008): resets the queue-wait baseline above.
                idle_since = Instant::now();
            }
        }
    }
}

/// Executes one shard of a region — on a pool thread or inline — converting
/// a panic into [`ShardResult::Panicked`]: the workspace's one
/// `catch_unwind`.
fn run_entry(
    slices: &mut WorkerSlices,
    op: &KernelOp,
    ctx: &ExecContext<'_>,
    injected: bool,
    skew: Option<WorkerSkew>,
) -> ShardResult {
    // lint:allow(L008): per-shard timing for the measured trace that drives
    // rebalancing and for telemetry; never feeds the reduction order.
    let start = Instant::now();
    let body = || -> Result<(OpOutput, usize), OpError> {
        if injected {
            // lint:allow(L001): fault-injection hook, armed only by recovery tests
            panic!("injected worker panic (test instrumentation)");
        }
        let output = execute_on_worker(slices, op, ctx)?;
        let active = active_local_patterns(slices, op);
        if let Some(skew) = skew {
            let nanos = skew.nanos_per_pattern * active as u64;
            std::thread::sleep(Duration::from_nanos(nanos));
        }
        Ok((output, active))
    };
    match catch_unwind(AssertUnwindSafe(body)) {
        Ok(Ok((output, active))) => ShardResult::Output(output, start.elapsed(), active),
        Ok(Err(op_error)) => ShardResult::Rejected(op_error),
        Err(payload) => ShardResult::Panicked(panic_message(payload)),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::TracingExecutor;
    use crate::{build_workers, schedule, Cyclic, ExecutorOptions, ThreadedExecutor};
    use phylo_kernel::{
        EdgeTables, Executor, KernelDispatch, KernelError, LikelihoodKernel, NewviewTables,
        SequentialKernel, TraversalDescriptor,
    };
    use phylo_models::BranchLengthMode::{self, Joint, PerPartition};
    use phylo_sched::{Assignment, Reassignable, ScheduleStrategy};
    use phylo_seqgen::datasets::paper_simulated;
    use phylo_seqgen::GeneratedDataset;

    /// A seeded dataset with default models: what every pool/executor test
    /// starts from.
    pub(crate) struct Fixture {
        pub ds: GeneratedDataset,
        pub models: Arc<ModelSet>,
        pub cats: Vec<usize>,
    }

    impl Fixture {
        pub fn new(
            taxa: usize,
            sites: usize,
            gene: usize,
            seed: u64,
            mode: BranchLengthMode,
        ) -> Self {
            let ds = paper_simulated(taxa, sites, gene, seed).generate();
            let models = Arc::new(ModelSet::default_for(&ds.patterns, mode));
            let cats = models.models().iter().map(|m| m.categories()).collect();
            Self { ds, models, cats }
        }

        pub fn ctx(&self) -> ExecContext<'_> {
            ExecContext {
                models: &self.models,
            }
        }

        pub fn partitions(&self) -> usize {
            self.ds.patterns.partition_count()
        }

        pub fn assign(&self, workers: usize, strategy: &dyn ScheduleStrategy) -> Assignment {
            schedule(&self.ds.patterns, &self.cats, workers, strategy).unwrap()
        }

        pub fn executor(&self, a: &Assignment, options: ExecutorOptions) -> ThreadedExecutor {
            let capacity = self.ds.tree.node_capacity();
            ThreadedExecutor::with_options(&self.ds.patterns, a, capacity, &self.cats, options)
                .unwrap()
        }

        pub fn tracing(&self, a: &Assignment) -> TracingExecutor {
            let capacity = self.ds.tree.node_capacity();
            TracingExecutor::from_assignment(&self.ds.patterns, a, capacity, &self.cats).unwrap()
        }

        /// A real-thread and a virtual executor over `a`.
        pub fn both(&self, a: &Assignment) -> [Box<dyn Faultable>; 2] {
            let threaded = self.executor(a, Default::default());
            [Box::new(threaded), Box::new(self.tracing(a))]
        }

        pub fn reassign<E: Reassignable + ?Sized>(&self, exec: &mut E, a: &Assignment) {
            let capacity = self.ds.tree.node_capacity();
            exec.reassign(&self.ds.patterns, a, capacity, &self.cats)
                .unwrap();
        }

        pub fn kernel<E: Executor>(&self, exec: E) -> LikelihoodKernel<E> {
            let (patterns, tree) = (Arc::clone(&self.ds.patterns), self.ds.tree.clone());
            LikelihoodKernel::try_new(patterns, tree, ModelSet::clone(&self.models), exec).unwrap()
        }

        pub fn sequential(&self) -> SequentialKernel {
            let (patterns, tree) = (Arc::clone(&self.ds.patterns), self.ds.tree.clone());
            SequentialKernel::build(patterns, tree, ModelSet::clone(&self.models)).unwrap()
        }
    }

    /// A shard executor whose faults a test arms, so one test body holds
    /// real and virtual workers ([`Fixture::both`]) to one fault contract.
    pub(crate) trait Faultable: Executor + Reassignable {
        fn ledger(&self) -> &Ledger;
        fn inject_worker_panic(&mut self, worker: usize, after_regions: u64);
    }

    impl Faultable for ThreadedExecutor {
        fn ledger(&self) -> &Ledger {
            ThreadedExecutor::ledger(self)
        }
        fn inject_worker_panic(&mut self, worker: usize, after_regions: u64) {
            ThreadedExecutor::inject_worker_panic(self, worker, after_regions);
        }
    }

    impl Faultable for TracingExecutor {
        fn ledger(&self) -> &Ledger {
            TracingExecutor::ledger(self)
        }
        fn inject_worker_panic(&mut self, worker: usize, after_regions: u64) {
            TracingExecutor::inject_worker_panic(self, worker, after_regions);
        }
    }

    type Plans = Vec<Option<phylo_tree::TraversalPlan>>;

    /// A traversal table payload that covers nothing: only good for commands
    /// that never reach a table.
    fn no_newview_tables() -> Arc<NewviewTables> {
        Arc::new(NewviewTables {
            per_partition: Vec::new(),
            dispatch: KernelDispatch::default(),
        })
    }

    /// `plans` as the traversal riding on another command, over the same
    /// empty table payload.
    fn riding(plans: Plans) -> Arc<TraversalDescriptor> {
        let tables = no_newview_tables();
        Arc::new(TraversalDescriptor { plans, tables })
    }

    /// A newview with no plan for any partition: harmless on fresh (empty)
    /// CLV buffers.
    pub(crate) fn nop_newview(partitions: usize) -> KernelOp {
        KernelOp::Newview {
            plans: vec![None; partitions],
            tables: no_newview_tables(),
        }
    }

    /// An evaluate at nodes 0–1 whose table payloads are empty: only good
    /// for commands that must fail before any table is read.
    fn evaluate_over(mask: Vec<bool>, plans: Option<Plans>) -> KernelOp {
        KernelOp::Evaluate {
            endpoints: (0, 1),
            mask,
            tables: Arc::new(EdgeTables {
                per_partition: Vec::new(),
                dispatch: KernelDispatch::default(),
            }),
            traversal: plans.map(riding),
        }
    }

    /// [`evaluate_over`] `mask` with nothing riding along.
    pub(crate) fn evaluate_without_tables(mask: Vec<bool>) -> KernelOp {
        evaluate_over(mask, None)
    }

    /// Every per-partition payload a command can carry, `len` entries long
    /// and each entry active — so a worker that indexed its slices by a
    /// too-long payload, or a too-short payload by its slices, would go out
    /// of bounds: each op's own payload first, then the traversal and the
    /// first probe riding on a carrier whose own mask is well-formed.
    pub(crate) fn ops_with_payload_len(fx: &Fixture, len: usize) -> Vec<KernelOp> {
        let plan = phylo_tree::TraversalPlan::full(&fx.ds.tree, 0);
        let plans = vec![Some(plan); len];
        let full = vec![true; fx.partitions()];
        let sumtable = |mask, plans: Option<Plans>, first| KernelOp::Sumtable {
            endpoints: (0, 1),
            mask,
            traversal: plans.map(riding),
            first,
        };
        vec![
            KernelOp::Newview {
                plans: plans.clone(),
                tables: no_newview_tables(),
            },
            evaluate_without_tables(vec![true; len]),
            sumtable(vec![true; len], None, None),
            KernelOp::Derivatives {
                lengths: vec![Some(0.1); len],
            },
            evaluate_over(full.clone(), Some(plans.clone())),
            sumtable(full.clone(), Some(plans), None),
            sumtable(full, None, Some(vec![Some(0.1); len])),
        ]
    }

    /// A 2-wide pool with one session installed.
    struct Solo {
        pool: WorkerPool,
        fx: Fixture,
    }

    impl Solo {
        fn new(seed: u64) -> Self {
            let fx = Fixture::new(6, 64, 16, seed, Joint);
            let this = Self {
                pool: WorkerPool::spawn(2),
                fx,
            };
            this.install();
            this
        }

        fn install(&self) {
            let (ds, cats) = (&self.fx.ds, &self.fx.cats);
            let assignment = self.fx.assign(2, &Cyclic);
            let slices =
                build_workers(&ds.patterns, ds.tree.node_capacity(), cats, &assignment).unwrap();
            self.pool.install(slices, None);
        }

        fn nop(&self) -> KernelOp {
            nop_newview(self.fx.partitions())
        }

        /// Runs one region; its result with its caught-panic count.
        fn run(
            &mut self,
            op: KernelOp,
            panic_worker: Option<usize>,
        ) -> (Result<OpOutput, ExecError>, usize) {
            let mut open = OpenRegion {
                token: None,
                record: None,
                panic_worker,
            };
            let reduced = self.pool.run(&op, &self.fx.models, &mut open);
            (reduced.result, reduced.panics.len())
        }
    }

    const OK: (Result<OpOutput, ExecError>, usize) = (Ok(OpOutput::None), 0);

    #[test]
    fn a_panic_quarantines_only_the_faulting_tenant_on_that_worker() {
        let mut t = Solo::new(71);
        // The fault armed on worker 1: it reports the panic, worker 0 a
        // normal output.
        let died = (Err(ExecError::WorkerDied { worker: 1 }), 1);
        assert_eq!(t.run(t.nop(), Some(1)), died);
        // The shard stays quarantined on worker 1 alone (no second panic;
        // worker 0 still serves, or it would be named first) until the
        // session reinstalls, and the thread lives on.
        let missing = (Err(ExecError::WorkerDied { worker: 1 }), 0);
        assert_eq!(t.run(t.nop(), None), missing);
        t.install();
        assert_eq!(t.run(t.nop(), None), OK);
    }

    #[test]
    fn a_typed_rejection_keeps_lockstep_and_quarantines_nobody() {
        let mut t = Solo::new(73);
        // Derivatives without a sum table: every worker with patterns hits
        // the staleness guard and answers with a typed value.
        let premature = KernelOp::Derivatives {
            lengths: vec![Some(0.1); t.fx.partitions()],
        };
        let result = t.run(premature, None);
        assert!(
            matches!(
                result,
                (Err(ExecError::Op(OpError::SumtableStale { .. })), 0)
            ),
            "{result:?}"
        );
        // Nothing was quarantined: the very next region runs on both workers.
        assert_eq!(t.run(t.nop(), None), OK);
    }

    #[test]
    fn a_mis_sized_payload_is_a_typed_rejection_on_the_same_threads() {
        let mut t = Solo::new(83);
        let partitions = t.fx.partitions();
        let threads = t.pool.thread_ids();
        // Short and long, every op: an index panic here would quarantine the
        // shard on the worker that caught it.
        for len in [partitions - 1, partitions + 1] {
            for op in ops_with_payload_len(&t.fx, len) {
                let rejected = Err(ExecError::Op(OpError::MaskShape {
                    expected: partitions,
                    got: len,
                }));
                assert_eq!(t.run(op, None), (rejected, 0));
            }
        }
        assert_eq!(t.run(t.nop(), None), OK);
        assert_eq!(t.pool.thread_ids(), threads);
    }

    /// A worker used to hold its `Arc` of the region across the reply, so
    /// the op tables and the models of region *k* could still be alive — and
    /// be freed by whichever thread came last — while the master assembled
    /// region *k + 1* (racy before the drop moved ahead of the send,
    /// deterministic since). The models' `Arc` back at one holder is what
    /// lets the master's next model write skip the copy.
    #[test]
    fn a_returned_region_holds_none_of_its_payload() {
        let mut t = Solo::new(89);
        for _ in 0..200 {
            let tables = no_newview_tables();
            let op = KernelOp::Newview {
                plans: vec![None; t.fx.partitions()],
                tables: Arc::clone(&tables),
            };
            assert_eq!(t.run(op, None), OK);
            assert_eq!(Arc::strong_count(&tables), 1);
            assert_eq!(Arc::strong_count(&t.fx.models), 1);
        }
    }

    #[test]
    fn reduce_row_consumes_the_whole_row_and_names_a_lost_worker() {
        let out = || {
            Some(ShardResult::Output(
                OpOutput::LogLikelihoods(vec![1.0, 2.0]),
                Duration::ZERO,
                3,
            ))
        };
        let mut seen = Vec::new();
        let reduced = reduce_row([out(), None, out()], |w, _, live| seen.push((w, live)));
        assert_eq!(reduced.result, Err(ExecError::WorkerDied { worker: 1 }));
        assert_eq!(seen, [(0, 3), (2, 3)]);
        let reduced = reduce_row([out(), out()], |_, _, _| {});
        assert_eq!(reduced.result, Ok(OpOutput::LogLikelihoods(vec![2.0, 4.0])));
    }

    /// The stale-reply hazard: if the master returned at worker 0's panic
    /// without reading workers 1 and 2, the slow worker 2's leftover reply
    /// would be read as the next region's on these surviving threads. The
    /// drain always consumes one reply per live worker.
    #[test]
    fn a_panic_on_the_first_worker_leaves_no_stale_reply_behind() {
        let fx = Fixture::new(8, 160, 40, 79, PerPartition);
        let reference = fx.sequential().try_log_likelihood().unwrap();
        let assignment = fx.assign(3, &Cyclic);
        let skew = Some(WorkerSkew {
            worker: 2,
            nanos_per_pattern: 20_000,
        });
        let mut k = fx.kernel(fx.executor(&assignment, ExecutorOptions { timed: true, skew }));
        k.executor_mut().inject_worker_panic(0, 0);
        assert_eq!(
            k.try_log_likelihood().unwrap_err(),
            KernelError::Exec(ExecError::WorkerDied { worker: 0 })
        );
        let died_at = k.sync_events();

        fx.reassign(k.executor_mut(), &assignment);
        k.invalidate_all();
        let lnl = k.try_log_likelihood().unwrap();
        assert!(
            (lnl - reference).abs() < 1e-8,
            "after recovery: {lnl} vs sequential {reference}"
        );
        // One trace record per region since the reinstall, each with every
        // worker's own measurement — none shifted by a leftover reply.
        let trace = k.executor_mut().take_trace();
        assert_eq!(trace.sync_events() as u64, k.sync_events() - died_at);
        assert!(trace
            .regions
            .iter()
            .all(|r| r.seconds_per_worker.iter().all(|&s| s > 0.0)));
    }
}
