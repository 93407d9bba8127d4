//! The one worker pool: persistent threads, session-keyed slices, one
//! broadcast and one worker-order reduction per parallel region.
//!
//! This is the Rust equivalent of the Pthreads master/worker scheme in RAxML,
//! written once for both of its users. Each pool thread owns one
//! [`WorkerSlices`] *per installed session* (its shard of that session's
//! patterns and CLV buffers) and executes [`Batch`]es: it runs every entry's
//! op against the owning session's slices and sends ONE reply — its result
//! for every entry, in entry order — so a region costs one message per worker
//! each way however many tenants it serves. [`crate::ThreadedExecutor`] is
//! the one-tenant case (its own pool, one-entry batches sent straight to the
//! workers); `phylo-serve`'s dispatcher decides *which* sessions' entries
//! share a batch and runs it on the same [`WorkerPool::run_batch`]. Master
//! state lives on the master (or session driver) thread, so every entry
//! ships an immutable [`StateSnapshot`].
//!
//! # Lockstep and faults
//!
//! [`WorkerPool::run_batch`] broadcasts, then drains **exactly one reply per
//! live worker — always, also when one of them reports a panic** — so no
//! reply of region *k* can be read as region *k + 1*'s, which is what lets
//! the threads outlive a fault. A panic on session A's entry is caught,
//! *quarantines A on that worker* (its possibly half-updated slices are
//! dropped) and the thread moves on: the batch's other entries and every
//! later batch are served as if nothing happened, and A is missing there
//! until it re-[`install`](WorkerPool::install)s. A typed [`OpError`] is
//! deterministic master misuse: it crosses the channel as a value and
//! quarantines nobody. [`reduce_row`] folds one entry's per-worker results in
//! worker-index order — the single reduction every backend uses, so
//! placement never changes the answer.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use phylo_kernel::executor::{
    active_local_patterns, execute_on_worker, panic_message, reduce_outputs,
};
use phylo_kernel::{ExecContext, ExecError, KernelOp, OpError, OpOutput, WorkerSlices};
use phylo_models::ModelSet;
use phylo_telemetry::{ring, RegionToken, Telemetry, WorkerSample};
use phylo_tree::Tree;

/// Capacity of each worker's sample ring: the master drains it after every
/// recorded batch, so a batch wider than this surfaces as `events_dropped`.
const SAMPLE_RING_CAPACITY: usize = 64;

/// A snapshot of one session's master state, shipped with its ops.
#[derive(Debug)]
pub struct StateSnapshot {
    pub tree: Tree,
    pub models: ModelSet,
}

/// One op of one session inside a batch.
#[derive(Debug)]
pub struct BatchEntry {
    pub session: u64,
    pub op: KernelOp,
    pub snapshot: Arc<StateSnapshot>,
    /// Telemetry: the region number to stamp this entry's [`WorkerSample`]s
    /// with; `None` when the session is not recording.
    pub record: Option<u64>,
}

/// One parallel region: ops of one or more sessions executed under a single
/// barrier by every pool worker.
#[derive(Debug)]
pub struct Batch {
    pub entries: Vec<BatchEntry>,
    /// Test instrumentation: `(session, worker)` that must panic while
    /// executing this batch's entry of that session.
    pub panic_target: Option<(u64, usize)>,
}

/// What a worker did with one batch entry.
#[derive(Debug)]
pub enum EntryResult {
    /// The op ran: this worker's partial output, its wall-clock time for the
    /// entry (including any skew sleep) and the number of *live* local
    /// patterns it touched under the op's convergence mask.
    Output(OpOutput, Duration, usize),
    /// The op was rejected deterministically (typed, quarantines nobody).
    Rejected(OpError),
    /// The worker panicked on this entry and quarantined the session.
    Panicked(String),
    /// The worker holds no slices for the entry's session (quarantined
    /// earlier, or never installed).
    MissingSession,
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
        session: u64,
        slices: WorkerSlices,
        skew: Option<WorkerSkew>,
    },
    Remove {
        session: u64,
    },
    Batch(Arc<Batch>),
    Shutdown,
}

#[derive(Debug)]
struct PoolWorker {
    sender: Sender<WorkerMsg>,
    replies: Receiver<Vec<EntryResult>>,
    samples: ring::Consumer<WorkerSample>,
    join: JoinHandle<()>,
}

/// The fixed set of persistent worker threads.
#[derive(Debug)]
pub struct WorkerPool {
    workers: Vec<PoolWorker>,
}

impl WorkerPool {
    /// Spawns `width` worker threads, each with no session installed.
    pub fn spawn(width: usize) -> Self {
        let workers = (0..width)
            .map(|worker| {
                let (sender, commands) = channel();
                let (reply_tx, replies) = channel();
                let (mut sample_tx, samples) = ring::spsc(SAMPLE_RING_CAPACITY);
                let join = std::thread::Builder::new()
                    .name(format!("plf-worker-{worker}"))
                    .spawn(move || worker_loop(worker, &commands, &reply_tx, &mut sample_tx))
                    .expect("failed to spawn worker thread");
                PoolWorker {
                    sender,
                    replies,
                    samples,
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

    /// Installs (or replaces) a session: shard `w` of `slices` goes to worker
    /// `w`. Replacing is also how a quarantined session recovers. `skew`
    /// slows one worker down on this session's entries.
    pub fn install(&self, session: u64, slices: Vec<WorkerSlices>, skew: Option<WorkerSkew>) {
        for (worker, slices) in self.workers.iter().zip(slices) {
            let msg = WorkerMsg::Install {
                session,
                slices,
                skew,
            };
            let _ = worker.sender.send(msg);
        }
    }

    /// Drops a session's shard on every worker.
    pub fn remove(&self, session: u64) {
        for worker in &self.workers {
            let _ = worker.sender.send(WorkerMsg::Remove { session });
        }
    }

    /// One parallel region: broadcast `batch`, drain exactly one reply per
    /// live worker, and reduce every entry with [`reduce_row`] (results in
    /// entry order; `measured` sees each entry's workers in turn). A lost
    /// worker thread (closed channel) reduces like a death on that worker.
    pub fn run_batch(
        &self,
        batch: Batch,
        mut measured: impl FnMut(usize, Duration, usize),
    ) -> Vec<Reduced> {
        let entries = batch.entries.len();
        let batch = Arc::new(batch);
        for worker in &self.workers {
            let _ = worker.sender.send(WorkerMsg::Batch(Arc::clone(&batch)));
        }
        let mut lanes: Vec<_> = self
            .workers
            .iter()
            .map(|worker| worker.replies.recv().ok().map(Vec::into_iter))
            .collect();
        (0..entries)
            .map(|_| {
                let row = lanes
                    .iter_mut()
                    .map(|l| l.as_mut().and_then(Iterator::next));
                reduce_row(row, &mut measured)
            })
            .collect()
    }

    /// Drains every worker's sample ring. Call after running a batch with
    /// recording entries: each worker pushes its samples before it replies.
    /// Samples a full ring refused count into `telemetry`'s `events_dropped`.
    pub fn take_samples(&mut self, telemetry: &Telemetry) -> Vec<WorkerSample> {
        let (mut samples, mut dropped) = (Vec::new(), 0);
        for worker in &mut self.workers {
            dropped += worker.samples.take_dropped();
            worker.samples.drain_into(&mut samples);
        }
        telemetry.add_dropped(dropped);
        samples
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

/// One entry's reduced result.
#[derive(Debug)]
pub struct Reduced {
    /// [`ExecError::WorkerDied`] names the first worker that panicked, was
    /// missing the session, or was lost; otherwise the first typed rejection
    /// as [`ExecError::Op`]; otherwise the folded output.
    pub result: Result<OpOutput, ExecError>,
    /// Messages of the panics caught on this entry, in worker order.
    pub panics: Vec<String>,
}

/// Folds one entry's per-worker results (`None` = no reply from that worker)
/// in worker-index order — the one deterministic reduction.
/// `measured(worker, elapsed, live_patterns)` is called for every worker
/// that produced an output. The whole row is always consumed: a rejection or
/// death on one worker must not leave another's result unread.
pub fn reduce_row(
    row: impl IntoIterator<Item = Option<EntryResult>>,
    mut measured: impl FnMut(usize, Duration, usize),
) -> Reduced {
    let mut folded: Option<OpOutput> = None;
    let mut rejected: Option<OpError> = None;
    let mut died: Option<usize> = None;
    let mut panics = Vec::new();
    for (worker, slot) in row.into_iter().enumerate() {
        match slot {
            Some(EntryResult::Output(output, elapsed, active)) => {
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
            Some(EntryResult::Rejected(op_error)) => {
                rejected.get_or_insert(op_error);
            }
            Some(EntryResult::Panicked(message)) => {
                panics.push(message);
                died.get_or_insert(worker);
            }
            Some(EntryResult::MissingSession) | None => {
                died.get_or_insert(worker);
            }
        }
    }
    let result = match (died, rejected) {
        (Some(worker), _) => Err(ExecError::WorkerDied { worker }),
        (None, Some(op_error)) => Err(ExecError::Op(op_error)),
        (None, None) => Ok(folded.unwrap_or(OpOutput::None)),
    };
    Reduced { result, panics }
}

/// What `worker` reports for one recorded region: its timings plus the
/// tip-cache and dispatch counter deltas of `slices` since the last sample.
pub(crate) fn sample(
    slices: &WorkerSlices,
    worker: usize,
    region: u64,
    op_seconds: f64,
    queue_wait_seconds: f64,
) -> WorkerSample {
    let (tip_hits, tip_misses, tip_builds) = slices.take_tip_cache_counters();
    let (dispatch_blocked, dispatch_scalar) = slices.take_dispatch_counters();
    WorkerSample {
        worker,
        region,
        op_seconds,
        queue_wait_seconds,
        tip_hits,
        tip_misses,
        tip_builds,
        dispatch_blocked,
        dispatch_scalar,
    }
}

/// Ends `token`'s telemetry region with `result`. A worker death leaves the
/// region open (the "started but never completed" marker), records the death
/// and returns the dead worker; anything else — a typed rejection included —
/// closes it from the `samples` stamped with the token's region: per-worker
/// op seconds and queue wait as each of the `width` workers measured them,
/// plus their cache counter deltas.
pub fn end_region(
    telemetry: &Telemetry,
    token: Option<RegionToken>,
    width: usize,
    samples: &[WorkerSample],
    result: &Result<OpOutput, ExecError>,
) -> Option<usize> {
    let region = token.as_ref().and_then(RegionToken::region);
    if let Err(ExecError::WorkerDied { worker }) = result {
        telemetry.worker_death(*worker, region);
        return Some(*worker);
    }
    let token = token?;
    let mut worker_seconds = vec![0.0; width];
    let mut queue_wait = vec![0.0; width];
    let (mut hits, mut misses, mut builds, mut blocked, mut scalar) = (0, 0, 0, 0, 0);
    for s in samples.iter().filter(|s| Some(s.region) == region) {
        worker_seconds[s.worker] = s.op_seconds;
        queue_wait[s.worker] = s.queue_wait_seconds;
        hits += s.tip_hits;
        misses += s.tip_misses;
        builds += s.tip_builds;
        blocked += s.dispatch_blocked;
        scalar += s.dispatch_scalar;
    }
    telemetry.add_tip_cache(hits, misses, builds);
    telemetry.add_dispatch_patterns(blocked, scalar);
    telemetry.region_end(token, &worker_seconds, &queue_wait);
    None
}

/// Per worker: session id → its shard of that session, plus the session's
/// install-time skew.
type Tenants = HashMap<u64, (WorkerSlices, Option<WorkerSkew>)>;

fn worker_loop(
    worker: usize,
    commands: &Receiver<WorkerMsg>,
    replies: &Sender<Vec<EntryResult>>,
    samples: &mut ring::Producer<WorkerSample>,
) {
    let mut tenants = Tenants::new();
    // lint:allow(L008): queue-wait baseline for the telemetry sample ring;
    // observability only, never feeds the reduction order.
    let mut idle_since = Instant::now();
    while let Ok(msg) = commands.recv() {
        match msg {
            WorkerMsg::Install {
                session,
                slices,
                skew,
            } => {
                tenants.insert(session, (slices, skew));
            }
            WorkerMsg::Remove { session } => {
                tenants.remove(&session);
            }
            WorkerMsg::Shutdown => break,
            WorkerMsg::Batch(batch) => {
                // Time spent blocked on the command channel: this worker's
                // queue-wait lane for every entry the batch carries.
                let queue_wait = idle_since.elapsed();
                let results = batch
                    .entries
                    .iter()
                    .map(|entry| {
                        run_entry(&mut tenants, &batch, entry, worker, queue_wait, samples)
                    })
                    .collect();
                // The payload dies before the reply: op tables and the
                // `Tree`/`ModelSet` snapshot are released while the master
                // still waits, so a returned region owns no master memory
                // and the master's next table rebuild never coexists with
                // this region's payload (nor races this thread to free it).
                drop(batch);
                if replies.send(results).is_err() {
                    // Master gone: nothing left to serve.
                    return;
                }
                // lint:allow(L008): resets the queue-wait baseline above.
                idle_since = Instant::now();
            }
        }
    }
}

/// Executes one batch entry against its session's local slices, converting
/// a panic into a quarantine of *that session only*.
fn run_entry(
    tenants: &mut Tenants,
    batch: &Batch,
    entry: &BatchEntry,
    worker: usize,
    queue_wait: Duration,
    samples: &mut ring::Producer<WorkerSample>,
) -> EntryResult {
    let Some((slices, skew)) = tenants.get_mut(&entry.session) else {
        return EntryResult::MissingSession;
    };
    let injected = batch.panic_target == Some((entry.session, worker));
    // lint:allow(L008): per-entry timing for the measured trace that drives
    // rebalancing and for telemetry; never feeds the reduction order.
    let start = Instant::now();
    let body = || -> Result<(OpOutput, usize), OpError> {
        if injected {
            // lint:allow(L001): fault-injection hook, armed only by recovery tests
            panic!("injected worker panic (test instrumentation)");
        }
        let ctx = ExecContext {
            tree: &entry.snapshot.tree,
            models: &entry.snapshot.models,
        };
        let output = execute_on_worker(slices, &entry.op, &ctx)?;
        let active = active_local_patterns(slices, &entry.op);
        if let Some(skew) = skew.filter(|s| s.worker == worker) {
            let nanos = skew.nanos_per_pattern * active as u64;
            std::thread::sleep(Duration::from_nanos(nanos));
        }
        Ok((output, active))
    };
    let outcome = catch_unwind(AssertUnwindSafe(body));
    // The sample is pushed *before* the reply, so by the time the master
    // holds this worker's reply the ring slot is visible. A panicked entry
    // pushes nothing: its region never completes.
    if let (Some(region), Ok(_)) = (entry.record, &outcome) {
        let seconds = start.elapsed().as_secs_f64();
        let _ = samples.push(sample(
            slices,
            worker,
            region,
            seconds,
            queue_wait.as_secs_f64(),
        ));
    }
    match outcome {
        Ok(Ok((output, active))) => EntryResult::Output(output, start.elapsed(), active),
        Ok(Err(op_error)) => EntryResult::Rejected(op_error),
        Err(payload) => {
            // The slices may be half-updated; quarantine this tenant on this
            // worker and keep the thread alive for everyone else.
            tenants.remove(&entry.session);
            EntryResult::Panicked(panic_message(payload))
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{build_workers, schedule, Cyclic, ExecutorOptions, ThreadedExecutor};
    use phylo_kernel::{
        EdgeTables, KernelDispatch, KernelError, LikelihoodKernel, NewviewTables, SequentialKernel,
        TraversalDescriptor,
    };
    use phylo_models::BranchLengthMode::{self, Joint, PerPartition};
    use phylo_sched::{Assignment, ScheduleStrategy};
    use phylo_seqgen::datasets::paper_simulated;
    use phylo_seqgen::GeneratedDataset;

    /// A seeded dataset with default models: what every pool/executor test
    /// starts from.
    pub(crate) struct Fixture {
        pub ds: GeneratedDataset,
        pub models: ModelSet,
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
            let models = ModelSet::default_for(&ds.patterns, mode);
            let cats = models.models().iter().map(|m| m.categories()).collect();
            Self { ds, models, cats }
        }

        pub fn ctx(&self) -> ExecContext<'_> {
            ExecContext {
                tree: &self.ds.tree,
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

        pub fn reassign(&self, exec: &mut ThreadedExecutor, a: &Assignment) {
            let capacity = self.ds.tree.node_capacity();
            exec.reassign(&self.ds.patterns, a, capacity, &self.cats)
                .unwrap();
        }

        pub fn kernel(&self, exec: ThreadedExecutor) -> LikelihoodKernel<ThreadedExecutor> {
            let (patterns, tree) = (Arc::clone(&self.ds.patterns), self.ds.tree.clone());
            LikelihoodKernel::try_new(patterns, tree, self.models.clone(), exec).unwrap()
        }

        pub fn sequential(&self) -> SequentialKernel {
            let (patterns, tree) = (Arc::clone(&self.ds.patterns), self.ds.tree.clone());
            SequentialKernel::build(patterns, tree, self.models.clone()).unwrap()
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

    /// An evaluate at branch 0 whose table payloads are empty: only good for
    /// commands that must fail before any table is read.
    fn evaluate_over(mask: Vec<bool>, plans: Option<Plans>) -> KernelOp {
        KernelOp::Evaluate {
            root_branch: 0,
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
            branch: 0,
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

    const A: u64 = 7;
    const B: u64 = 11;

    /// A 2-wide pool with tenants `A` and `B` installed (same dataset, own
    /// slices each).
    struct TwoTenants {
        pool: WorkerPool,
        fx: Fixture,
        snapshot: Arc<StateSnapshot>,
    }

    impl TwoTenants {
        fn new(seed: u64) -> Self {
            let fx = Fixture::new(6, 64, 16, seed, Joint);
            let snapshot = Arc::new(StateSnapshot {
                tree: fx.ds.tree.clone(),
                models: fx.models.clone(),
            });
            let pool = WorkerPool::spawn(2);
            let this = Self { pool, fx, snapshot };
            this.install(A);
            this.install(B);
            this
        }

        fn install(&self, session: u64) {
            let (ds, cats) = (&self.fx.ds, &self.fx.cats);
            let assignment = self.fx.assign(2, &Cyclic);
            let slices =
                build_workers(&ds.patterns, ds.tree.node_capacity(), cats, &assignment).unwrap();
            self.pool.install(session, slices, None);
        }

        fn entry(&self, session: u64, op: KernelOp) -> BatchEntry {
            BatchEntry {
                session,
                op,
                snapshot: Arc::clone(&self.snapshot),
                record: None,
            }
        }

        fn nop(&self, session: u64) -> BatchEntry {
            self.entry(session, nop_newview(self.fx.partitions()))
        }

        /// Runs one batch; every entry's result with its caught-panic count.
        fn run(
            &self,
            entries: Vec<BatchEntry>,
            panic_target: Option<(u64, usize)>,
        ) -> Vec<(Result<OpOutput, ExecError>, usize)> {
            let batch = Batch {
                entries,
                panic_target,
            };
            let reduced = self.pool.run_batch(batch, |_, _, _| {});
            reduced
                .into_iter()
                .map(|r| (r.result, r.panics.len()))
                .collect()
        }
    }

    const OK: (Result<OpOutput, ExecError>, usize) = (Ok(OpOutput::None), 0);

    #[test]
    fn a_panic_quarantines_only_the_faulting_tenant_on_that_worker() {
        let t = TwoTenants::new(71);
        // One batch, two tenants, the fault armed on A's entry on worker 1:
        // worker 1 reports the panic for A and a normal output for B.
        let died = (Err(ExecError::WorkerDied { worker: 1 }), 1);
        assert_eq!(t.run(vec![t.nop(A), t.nop(B)], Some((A, 1))), [died, OK]);
        // A stays quarantined on worker 1 (no second panic: the session is
        // missing there) until it reinstalls; B is unaffected, and so is the
        // thread — a dead one would fail B on worker 1 too.
        let missing = (Err(ExecError::WorkerDied { worker: 1 }), 0);
        assert_eq!(t.run(vec![t.nop(B), t.nop(A)], None), [OK, missing]);
        t.install(A);
        assert_eq!(t.run(vec![t.nop(A), t.nop(B)], None), [OK, OK]);
        // A removed session is missing everywhere: worker 0 is named first.
        t.pool.remove(B);
        let gone = (Err(ExecError::WorkerDied { worker: 0 }), 0);
        assert_eq!(t.run(vec![t.nop(B)], None), [gone]);
    }

    #[test]
    fn a_typed_rejection_keeps_lockstep_and_quarantines_nobody() {
        let t = TwoTenants::new(73);
        // Derivatives without a sum table: every worker with patterns hits
        // the staleness guard and answers with a typed value.
        let premature = KernelOp::Derivatives {
            lengths: vec![Some(0.1); t.fx.partitions()],
        };
        let results = t.run(vec![t.entry(A, premature), t.nop(B)], None);
        assert!(
            matches!(
                results[0],
                (Err(ExecError::Op(OpError::SumtableStale { .. })), 0)
            ),
            "{results:?}"
        );
        assert_eq!(results[1], OK);
        // Nobody was quarantined: A's very next entry runs on both workers.
        assert_eq!(t.run(vec![t.nop(A)], None), [OK]);
    }

    #[test]
    fn a_mis_sized_payload_is_a_typed_rejection_on_the_same_threads() {
        let t = TwoTenants::new(83);
        let partitions = t.fx.partitions();
        let threads = t.pool.thread_ids();
        // Short and long, every op: an index panic here would quarantine A
        // on the worker that caught it. B shares each batch and must not
        // notice.
        for len in [partitions - 1, partitions + 1] {
            for op in ops_with_payload_len(&t.fx, len) {
                let results = t.run(vec![t.entry(A, op), t.nop(B)], None);
                let rejected = Err(ExecError::Op(OpError::MaskShape {
                    expected: partitions,
                    got: len,
                }));
                assert_eq!(results, [(rejected, 0), OK]);
            }
        }
        assert_eq!(t.run(vec![t.nop(A), t.nop(B)], None), [OK, OK]);
        assert_eq!(t.pool.thread_ids(), threads);
    }

    /// A worker used to hold its `Arc<Batch>` across the reply, so the op
    /// tables and the state snapshot of region *k* could still be alive —
    /// and be freed by whichever thread came last — while the master
    /// assembled region *k + 1* (racy before the drop moved ahead of the
    /// send, deterministic since).
    #[test]
    fn a_returned_region_holds_none_of_its_payload() {
        let t = TwoTenants::new(89);
        for _ in 0..200 {
            let snapshot = Arc::new(StateSnapshot {
                tree: t.fx.ds.tree.clone(),
                models: t.fx.models.clone(),
            });
            let mut entry = t.nop(A);
            entry.snapshot = Arc::clone(&snapshot);
            assert_eq!(t.run(vec![entry, t.nop(B)], None), [OK, OK]);
            assert_eq!(Arc::strong_count(&snapshot), 1);
        }
    }

    #[test]
    fn reduce_row_consumes_the_whole_row_and_names_a_lost_worker() {
        let out = || {
            Some(EntryResult::Output(
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
