//! Persistent worker threads with channel-based command broadcast.
//!
//! This is the Rust equivalent of the Pthreads master/worker scheme in RAxML:
//! the worker threads are spawned once and own their pattern slices and CLV
//! buffers for the whole run; the master broadcasts one command per parallel
//! region and reduces the per-worker results. Every [`Executor::execute`] call
//! is therefore one synchronization event, exactly as in the paper.
//!
//! Because the master's tree and model state lives on the master thread, each
//! command ships a snapshot of that state inside an `Arc` (branch lengths
//! travel as the op's precomputed branch tables). These structures are small
//! (the tree has `2n` nodes, the models a handful of 4×4/20×20 matrices per
//! partition), so the per-command cost is dominated by the channel round
//! trip — a realistic stand-in for a barrier.
//!
//! # Hardening and measurement
//!
//! Each worker brackets [`execute_on_worker`] with [`Instant`] and ships the
//! wall-clock duration back with its result; when the executor is built with
//! [`ExecutorOptions::timed`], the master accumulates those durations into a
//! real [`WorkTrace`] (retrievable via [`ThreadedExecutor::take_trace`]) —
//! the measured counterpart of the virtual FLOP traces, and the input to
//! mid-run rescheduling. Worker panics are caught with
//! `std::panic::catch_unwind` and surfaced as
//! [`ExecError::WorkerDied`] from [`Executor::execute`]; the
//! executor is then *poisoned* (every further command fails fast with
//! [`ExecError::Poisoned`]) until [`ThreadedExecutor::reassign`] rebuilds the
//! workers. [`ThreadedExecutor::inject_worker_panic`] arms a one-shot fault
//! on that exact machinery so the driver-level recovery path stays tested.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use phylo_data::PartitionedPatterns;
use phylo_kernel::cost::{RegionRecord, WorkTrace};
use phylo_kernel::executor::{
    active_local_patterns, execute_on_worker, panic_message, reduce_outputs,
};
use phylo_kernel::{ExecContext, ExecError, Executor, KernelOp, OpOutput, WorkerSlices};
use phylo_models::ModelSet;
use phylo_sched::{Assignment, SchedError};
use phylo_telemetry::{ring, Telemetry, WorkerSample};
use phylo_tree::Tree;

/// Capacity of each worker's sample ring. One sample is pushed per recorded
/// region and the master drains at every region barrier, so the ring is
/// effectively depth-1; the slack absorbs drains skipped by error paths.
const SAMPLE_RING_CAPACITY: usize = 64;

/// One broadcast command: the op plus a snapshot of the master state.
struct Command {
    op: KernelOp,
    tree: Tree,
    models: ModelSet,
    /// Telemetry: whether workers should push a [`WorkerSample`] for this
    /// region, and the region's sequence number to stamp it with.
    record: bool,
    region: u64,
    /// Test instrumentation: the worker that must panic while executing this
    /// command (see [`ThreadedExecutor::inject_worker_panic`]).
    panic_worker: Option<usize>,
}

/// What a worker sends back for one command.
enum Reply {
    /// The reduced-ready output plus the worker's wall-clock time for the
    /// region (including any configured skew sleep) and the number of *live*
    /// local patterns it touched under the command's convergence mask.
    Output(OpOutput, Duration, usize),
    /// A kernel primitive rejected the command (typed, deterministic master
    /// misuse — e.g. a stale sum table). The worker stays alive and in
    /// lockstep; the master surfaces [`ExecError::Op`] without poisoning.
    OpRejected(phylo_kernel::OpError),
    /// The worker panicked; the payload is the panic message.
    Panicked(String),
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

/// Construction options beyond the assignment itself.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecutorOptions {
    /// Accumulate per-region wall-clock measurements into a [`WorkTrace`].
    pub timed: bool,
    /// Optional artificial slowdown of one worker (benchmarks and tests).
    pub skew: Option<WorkerSkew>,
}

struct WorkerHandle {
    sender: Sender<Option<Arc<Command>>>,
    results: Receiver<Reply>,
    /// Consumer half of the worker's lock-free sample ring; drained by the
    /// master at the region barrier when telemetry is recording.
    samples: ring::Consumer<WorkerSample>,
    join: Option<JoinHandle<()>>,
}

/// A real-thread executor with persistent workers.
pub struct ThreadedExecutor {
    handles: Vec<WorkerHandle>,
    sync_events: u64,
    worker_count: usize,
    assignment: Assignment,
    options: ExecutorOptions,
    trace: WorkTrace,
    poisoned: Option<usize>,
    last_panic: Option<String>,
    /// One-shot armed fault injection: `(worker, fire_at_sync_event)`.
    injected_panic: Option<(usize, u64)>,
    telemetry: Telemetry,
    /// Reused scratch for the barrier drain: one allocation for the whole
    /// run instead of one `Vec` per region barrier.
    sample_buf: Vec<WorkerSample>,
}

impl std::fmt::Debug for ThreadedExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadedExecutor")
            .field("worker_count", &self.worker_count)
            .field("sync_events", &self.sync_events)
            .field("timed", &self.options.timed)
            .field("poisoned", &self.poisoned)
            .finish()
    }
}

impl ThreadedExecutor {
    /// Spawns one persistent worker thread per worker of `assignment`.
    ///
    /// # Errors
    ///
    /// [`SchedError::PatternCountMismatch`] if the assignment was built for a
    /// different dataset.
    pub fn from_assignment(
        patterns: &PartitionedPatterns,
        assignment: &Assignment,
        node_capacity: usize,
        categories: &[usize],
    ) -> Result<Self, SchedError> {
        Self::with_options(
            patterns,
            assignment,
            node_capacity,
            categories,
            ExecutorOptions::default(),
        )
    }

    /// Spawns the workers with explicit [`ExecutorOptions`] (timed trace
    /// accumulation, artificial skew).
    ///
    /// # Errors
    ///
    /// [`SchedError::PatternCountMismatch`] if the assignment was built for a
    /// different dataset, [`SchedError::SkewWorkerOutOfRange`] if the
    /// configured skew names a worker the assignment does not have (a
    /// silently unskewed experiment would be worse than an error).
    pub fn with_options(
        patterns: &PartitionedPatterns,
        assignment: &Assignment,
        node_capacity: usize,
        categories: &[usize],
        options: ExecutorOptions,
    ) -> Result<Self, SchedError> {
        Self::check_skew(&options, assignment.worker_count())?;
        let workers = crate::build_workers(patterns, node_capacity, categories, assignment)?;
        let worker_count = workers.len();
        Ok(Self {
            handles: Self::spawn_handles(workers, &options),
            sync_events: 0,
            worker_count,
            assignment: assignment.clone(),
            options,
            trace: WorkTrace::new(worker_count),
            poisoned: None,
            last_panic: None,
            injected_panic: None,
            telemetry: Telemetry::disabled(),
            sample_buf: Vec::new(),
        })
    }

    fn check_skew(options: &ExecutorOptions, worker_count: usize) -> Result<(), SchedError> {
        match options.skew {
            Some(skew) if skew.worker >= worker_count => Err(SchedError::SkewWorkerOutOfRange {
                worker: skew.worker,
                worker_count,
            }),
            _ => Ok(()),
        }
    }

    fn spawn_handles(workers: Vec<WorkerSlices>, options: &ExecutorOptions) -> Vec<WorkerHandle> {
        let timed = options.timed;
        workers
            .into_iter()
            .map(|mut slices| {
                let skew_ns = options
                    .skew
                    .filter(|s| s.worker == slices.worker)
                    .map(|s| s.nanos_per_pattern);
                let worker_index = slices.worker;
                let (cmd_tx, cmd_rx) = channel::<Option<Arc<Command>>>();
                let (res_tx, res_rx) = channel::<Reply>();
                let (mut sample_tx, sample_rx) = ring::spsc::<WorkerSample>(SAMPLE_RING_CAPACITY);
                let join = std::thread::Builder::new()
                    .name(format!("plk-worker-{}", slices.worker))
                    .spawn(move || {
                        // lint:allow(L008): queue-wait baseline for the telemetry sample
                        // ring; observability only, never feeds the reduction order.
                        let mut idle_since = Instant::now();
                        while let Ok(Some(cmd)) = cmd_rx.recv() {
                            // Time spent blocked on the command channel: the
                            // telemetry queue-wait lane of this worker.
                            let queue_wait = idle_since.elapsed();
                            // lint:allow(L008): per-op timing for the measured trace that
                            // drives rebalancing; never feeds the reduction order.
                            let start = Instant::now();
                            let body = || -> Result<(OpOutput, usize), phylo_kernel::OpError> {
                                if cmd.panic_worker == Some(worker_index) {
                                    // lint:allow(L001): fault-injection hook, armed only by recovery tests
                                    panic!("injected worker panic (test instrumentation)");
                                }
                                let ctx = ExecContext {
                                    tree: &cmd.tree,
                                    models: &cmd.models,
                                };
                                let out = execute_on_worker(&mut slices, &cmd.op, &ctx)?;
                                // The live-pattern count drives the skew
                                // sleep and the timed trace; the untimed,
                                // unskewed hot path skips it (the master
                                // would discard it).
                                let active = if timed || skew_ns.is_some() {
                                    active_local_patterns(&slices, &cmd.op)
                                } else {
                                    0
                                };
                                if let Some(ns) = skew_ns {
                                    std::thread::sleep(Duration::from_nanos(ns * active as u64));
                                }
                                Ok((out, active))
                            };
                            let outcome = catch_unwind(AssertUnwindSafe(body));
                            // The sample is pushed *before* the reply, so by
                            // the time the master holds this worker's reply
                            // the ring slot is visible. A panicked worker
                            // pushes nothing: its region never completes.
                            if cmd.record && outcome.is_ok() {
                                let (tip_hits, tip_misses, tip_builds) =
                                    slices.take_tip_cache_counters();
                                let (dispatch_blocked, dispatch_scalar) =
                                    slices.take_dispatch_counters();
                                let _ = sample_tx.push(WorkerSample {
                                    worker: worker_index,
                                    region: cmd.region,
                                    op_seconds: start.elapsed().as_secs_f64(),
                                    queue_wait_seconds: queue_wait.as_secs_f64(),
                                    tip_hits,
                                    tip_misses,
                                    tip_builds,
                                    dispatch_blocked,
                                    dispatch_scalar,
                                });
                            }
                            match outcome {
                                Ok(Ok((out, active))) => {
                                    if res_tx
                                        .send(Reply::Output(out, start.elapsed(), active))
                                        .is_err()
                                    {
                                        break;
                                    }
                                }
                                Ok(Err(op_error)) => {
                                    // Typed rejection: the worker stays alive
                                    // and keeps serving commands in lockstep.
                                    if res_tx.send(Reply::OpRejected(op_error)).is_err() {
                                        break;
                                    }
                                }
                                Err(payload) => {
                                    // The slices may be half-updated; report
                                    // the panic and retire this worker.
                                    let _ = res_tx.send(Reply::Panicked(panic_message(payload)));
                                    break;
                                }
                            }
                            // lint:allow(L008): resets the queue-wait baseline above.
                            idle_since = Instant::now();
                        }
                    })
                    // lint:allow(L001): spawn failure at executor construction, outside the per-op path
                    .expect("failed to spawn worker thread");
                WorkerHandle {
                    sender: cmd_tx,
                    results: res_rx,
                    samples: sample_rx,
                    join: Some(join),
                }
            })
            .collect()
    }

    fn shutdown_workers(&mut self) {
        for handle in &self.handles {
            let _ = handle.sender.send(None);
        }
        for handle in &mut self.handles {
            if let Some(join) = handle.join.take() {
                let _ = join.join();
            }
        }
        self.handles.clear();
    }

    /// The assignment the current workers were built from.
    pub fn assignment(&self) -> &Assignment {
        &self.assignment
    }

    /// The options the executor was built with.
    pub fn options(&self) -> &ExecutorOptions {
        &self.options
    }

    /// The wall-clock trace accumulated so far (empty unless
    /// [`ExecutorOptions::timed`] was set).
    pub fn trace(&self) -> &WorkTrace {
        &self.trace
    }

    /// Takes the accumulated trace, leaving an empty one behind.
    pub fn take_trace(&mut self) -> WorkTrace {
        std::mem::replace(&mut self.trace, WorkTrace::new(self.worker_count))
    }

    /// The worker whose death poisoned the executor, if any.
    pub fn poisoned_by(&self) -> Option<usize> {
        self.poisoned
    }

    /// The panic message of the most recent worker panic, if one was caught.
    pub fn last_panic_message(&self) -> Option<&str> {
        self.last_panic.as_deref()
    }

    /// Arms a one-shot injected panic: `worker` will panic while executing
    /// the command issued `after_regions` synchronization events from now
    /// (0 = the very next command). Test instrumentation for the
    /// worker-death recovery path — the panic travels through the exact same
    /// catch/report/poison machinery as a real worker fault.
    pub fn inject_worker_panic(&mut self, worker: usize, after_regions: u64) {
        self.injected_panic = Some((worker, self.sync_events + 1 + after_regions));
    }

    /// The broadcast/reduce round of one command — the body of
    /// [`Executor::execute`].
    fn broadcast(&mut self, op: &KernelOp, ctx: &ExecContext<'_>) -> Result<OpOutput, ExecError> {
        if let Some(worker) = self.poisoned {
            return Err(ExecError::Poisoned { worker });
        }
        self.sync_events += 1;
        // A one-shot armed fault fires exactly once, on its scheduled region.
        let panic_worker = match self.injected_panic {
            Some((worker, at)) if self.sync_events >= at => {
                self.injected_panic = None;
                Some(worker)
            }
            _ => None,
        };
        // Bracket the region for telemetry. The token is dropped without a
        // `region_end` on the worker-death paths, which is exactly the
        // "started but never completed" marker the event stream needs.
        let token = self.telemetry.enabled().then(|| {
            self.telemetry
                .region_start(op.kind().label(), &op.active_partitions())
        });
        let region = token.as_ref().and_then(|t| t.region()).unwrap_or(0);
        let command = Arc::new(Command {
            op: op.clone(),
            tree: ctx.tree.clone(),
            models: ctx.models.clone(),
            record: token.is_some(),
            region,
            panic_worker,
        });
        for (worker, handle) in self.handles.iter().enumerate() {
            if handle.sender.send(Some(Arc::clone(&command))).is_err() {
                self.poisoned = Some(worker);
                self.telemetry
                    .worker_death(worker, token.as_ref().and_then(|t| t.region()));
                return Err(ExecError::WorkerDied { worker });
            }
        }
        // Only allocate the per-region record when the measurements are
        // actually kept — the untimed master loop stays allocation-free.
        let mut record = self
            .options
            .timed
            .then(|| RegionRecord::new(op.kind(), self.worker_count));
        if let Some(record) = record.as_mut() {
            record.active_partitions = op.active_partitions();
        }
        let mut result: Option<OpOutput> = None;
        // A typed kernel rejection must not break the broadcast lockstep:
        // every worker still sends exactly one reply for this region, so the
        // master drains them all before surfacing the first rejection. The
        // workers stay healthy and unpoisoned.
        let mut rejected: Option<phylo_kernel::OpError> = None;
        for (worker, handle) in self.handles.iter().enumerate() {
            match handle.results.recv() {
                Ok(Reply::Output(out, duration, active)) => {
                    if let Some(record) = record.as_mut() {
                        record.seconds_per_worker[worker] = duration.as_secs_f64();
                        record.active_patterns_per_worker[worker] = active as f64;
                    }
                    // A reduce mismatch is deterministic misuse like any
                    // other op rejection: keep draining the lockstep replies
                    // and surface it once every worker has answered.
                    result = match result.take() {
                        None => Some(out),
                        Some(acc) => match reduce_outputs(acc, out) {
                            Ok(merged) => Some(merged),
                            Err(e) => {
                                rejected.get_or_insert(e);
                                None
                            }
                        },
                    };
                }
                Ok(Reply::OpRejected(op_error)) => {
                    rejected.get_or_insert(op_error);
                }
                Ok(Reply::Panicked(message)) => {
                    self.poisoned = Some(worker);
                    self.last_panic = Some(message);
                    self.telemetry
                        .worker_death(worker, token.as_ref().and_then(|t| t.region()));
                    return Err(ExecError::WorkerDied { worker });
                }
                Err(_) => {
                    self.poisoned = Some(worker);
                    self.telemetry
                        .worker_death(worker, token.as_ref().and_then(|t| t.region()));
                    return Err(ExecError::WorkerDied { worker });
                }
            }
        }
        // Every worker replied (possibly with a typed rejection), so the
        // region completed: drain the sample rings and close the bracket —
        // the sample of worker `w` was pushed before its reply was sent.
        if let Some(token) = token {
            let mut worker_seconds = vec![0.0; self.worker_count];
            let mut queue_wait = vec![0.0; self.worker_count];
            let (mut hits, mut misses, mut builds) = (0u64, 0u64, 0u64);
            let (mut blocked, mut scalar) = (0u64, 0u64);
            let mut ring_dropped = 0u64;
            for handle in &mut self.handles {
                ring_dropped += handle.samples.take_dropped();
                self.sample_buf.clear();
                handle.samples.drain_into(&mut self.sample_buf);
                for sample in &self.sample_buf {
                    if sample.region != region {
                        continue;
                    }
                    worker_seconds[sample.worker] = sample.op_seconds;
                    queue_wait[sample.worker] = sample.queue_wait_seconds;
                    hits += sample.tip_hits;
                    misses += sample.tip_misses;
                    builds += sample.tip_builds;
                    blocked += sample.dispatch_blocked;
                    scalar += sample.dispatch_scalar;
                }
            }
            self.telemetry.add_tip_cache(hits, misses, builds);
            self.telemetry.add_dispatch_patterns(blocked, scalar);
            // Samples a full ring refused are gone, but never silently:
            // they surface as `events_dropped` in the snapshot.
            self.telemetry.add_dropped(ring_dropped);
            self.telemetry
                .region_end(token, &worker_seconds, &queue_wait);
        }
        if let Some(op_error) = rejected {
            return Err(ExecError::Op(op_error));
        }
        if let Some(record) = record {
            self.trace.regions.push(record);
        }
        Ok(result.unwrap_or(OpOutput::None))
    }

    /// Migrates pattern→worker ownership to a new assignment: the old
    /// workers are shut down, fresh ones are spawned from the new owner map,
    /// the trace epoch restarts, and any poisoned state is cleared (the
    /// broken workers are gone).
    ///
    /// The new workers own *empty* CLV buffers, so the caller must
    /// invalidate the master-side CLV validity cache before the next
    /// likelihood evaluation (`LikelihoodKernel::invalidate_all`).
    ///
    /// # Errors
    ///
    /// [`SchedError::PatternCountMismatch`] if the assignment was built for
    /// a different dataset, [`SchedError::SkewWorkerOutOfRange`] if the
    /// executor's skew would fall outside the new worker range; the executor
    /// is left untouched in either case.
    pub fn reassign(
        &mut self,
        patterns: &PartitionedPatterns,
        assignment: &Assignment,
        node_capacity: usize,
        categories: &[usize],
    ) -> Result<(), SchedError> {
        Self::check_skew(&self.options, assignment.worker_count())?;
        let workers = crate::build_workers(patterns, node_capacity, categories, assignment)?;
        self.shutdown_workers();
        self.worker_count = workers.len();
        self.handles = Self::spawn_handles(workers, &self.options);
        self.assignment = assignment.clone();
        self.trace = WorkTrace::new(self.worker_count);
        self.poisoned = None;
        self.last_panic = None;
        self.injected_panic = None;
        Ok(())
    }
}

impl Executor for ThreadedExecutor {
    fn worker_count(&self) -> usize {
        self.worker_count
    }

    /// Executes one command, surfacing worker failures as values instead of
    /// killing the master thread.
    ///
    /// # Errors
    ///
    /// [`ExecError::WorkerDied`] when a worker panics (or its channel
    /// disconnects) during this command; the executor is poisoned
    /// afterwards. [`ExecError::Poisoned`] for every command issued to a
    /// poisoned executor; [`ThreadedExecutor::reassign`] clears the state by
    /// rebuilding the workers.
    fn execute(&mut self, op: &KernelOp, ctx: &ExecContext<'_>) -> Result<OpOutput, ExecError> {
        self.broadcast(op, ctx)
    }

    fn sync_events(&self) -> u64 {
        self.sync_events
    }

    fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        self.telemetry = telemetry.clone();
    }
}

impl Drop for ThreadedExecutor {
    fn drop(&mut self) {
        self.shutdown_workers();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule;
    use phylo_kernel::{
        EdgeTables, KernelDispatch, LikelihoodKernel, NewviewTables, SequentialKernel,
    };
    use phylo_models::BranchLengthMode;
    use phylo_sched::{Block, Cyclic, ScheduleStrategy, WeightedLpt};
    use phylo_seqgen::datasets::paper_simulated;

    /// A newview with no plan for any partition: harmless on fresh (empty)
    /// CLV buffers, and its (empty) table payload is never consulted.
    fn nop_newview(partitions: usize) -> KernelOp {
        KernelOp::Newview {
            plans: vec![None; partitions],
            tables: Arc::new(NewviewTables {
                per_partition: Vec::new(),
                dispatch: KernelDispatch::default(),
            }),
        }
    }

    /// An evaluate at branch 0 whose table payload is empty: only good for
    /// commands that must fail before any table is read.
    fn evaluate_without_tables(mask: Vec<bool>) -> KernelOp {
        KernelOp::Evaluate {
            root_branch: 0,
            mask,
            tables: Arc::new(EdgeTables {
                per_partition: Vec::new(),
                dispatch: KernelDispatch::default(),
            }),
        }
    }

    #[test]
    fn threaded_likelihood_matches_sequential() {
        let ds = paper_simulated(10, 300, 50, 17).generate();
        let models = ModelSet::default_for(&ds.patterns, BranchLengthMode::PerPartition);
        let mut seq =
            SequentialKernel::build(Arc::clone(&ds.patterns), ds.tree.clone(), models.clone())
                .unwrap();
        let reference = seq.try_log_likelihood().unwrap();

        for workers in [2usize, 4] {
            let cats: Vec<usize> = models.models().iter().map(|m| m.categories()).collect();
            let assignment = schedule(&ds.patterns, &cats, workers, &Cyclic).unwrap();
            let exec = ThreadedExecutor::from_assignment(
                &ds.patterns,
                &assignment,
                ds.tree.node_capacity(),
                &cats,
            )
            .unwrap();
            let mut k = LikelihoodKernel::try_new(
                Arc::clone(&ds.patterns),
                ds.tree.clone(),
                models.clone(),
                exec,
            )
            .unwrap();
            let lnl = k.try_log_likelihood().unwrap();
            assert!(
                (lnl - reference).abs() < 1e-8,
                "{workers} threads: {lnl} vs sequential {reference}"
            );
            assert!(k.sync_events() > 0);
        }
    }

    #[test]
    fn threaded_derivatives_match_sequential() {
        let ds = paper_simulated(8, 160, 40, 23).generate();
        let models = ModelSet::default_for(&ds.patterns, BranchLengthMode::PerPartition);
        let cats: Vec<usize> = models.models().iter().map(|m| m.categories()).collect();

        let mut seq =
            SequentialKernel::build(Arc::clone(&ds.patterns), ds.tree.clone(), models.clone())
                .unwrap();
        let branch = seq.tree().internal_branches()[0];
        let mask = seq.full_mask();
        seq.try_prepare_branch(branch, &mask).unwrap();
        let lengths: Vec<Option<f64>> = (0..seq.partition_count()).map(|_| Some(0.2)).collect();
        let expected = seq.try_branch_derivatives(&lengths).unwrap();

        // The cost-aware strategy must produce the same likelihood as any
        // other placement — results are placement-invariant by construction.
        let assignment = schedule(&ds.patterns, &cats, 3, &WeightedLpt).unwrap();
        let exec = ThreadedExecutor::from_assignment(
            &ds.patterns,
            &assignment,
            ds.tree.node_capacity(),
            &cats,
        )
        .unwrap();
        let mut par =
            LikelihoodKernel::try_new(Arc::clone(&ds.patterns), ds.tree.clone(), models, exec)
                .unwrap();
        par.try_prepare_branch(branch, &mask).unwrap();
        let got = par.try_branch_derivatives(&lengths).unwrap();
        for (a, b) in expected.iter().zip(got.iter()) {
            let (a, b) = (a.unwrap(), b.unwrap());
            assert!((a.log_likelihood - b.log_likelihood).abs() < 1e-8);
            assert!((a.first - b.first).abs() < 1e-8);
            assert!((a.second - b.second).abs() < 1e-8);
        }
    }

    #[test]
    fn drop_shuts_down_cleanly() {
        let ds = paper_simulated(6, 64, 16, 29).generate();
        let models = ModelSet::default_for(&ds.patterns, BranchLengthMode::Joint);
        let cats: Vec<usize> = models.models().iter().map(|m| m.categories()).collect();
        let assignment = schedule(&ds.patterns, &cats, 4, &Cyclic).unwrap();
        let exec = ThreadedExecutor::from_assignment(
            &ds.patterns,
            &assignment,
            ds.tree.node_capacity(),
            &cats,
        )
        .unwrap();
        drop(exec);
    }

    #[test]
    fn injected_panic_fires_once_on_the_scheduled_region() {
        let ds = paper_simulated(6, 64, 16, 29).generate();
        let models = ModelSet::default_for(&ds.patterns, BranchLengthMode::Joint);
        let cats: Vec<usize> = models.models().iter().map(|m| m.categories()).collect();
        let assignment = schedule(&ds.patterns, &cats, 3, &Cyclic).unwrap();
        let mut exec = ThreadedExecutor::from_assignment(
            &ds.patterns,
            &assignment,
            ds.tree.node_capacity(),
            &cats,
        )
        .unwrap();
        let ctx = ExecContext {
            tree: &ds.tree,
            models: &models,
        };
        // A no-op newview: harmless on fresh (empty) CLV buffers, so the only
        // possible failure is the injected one.
        let op = nop_newview(ds.patterns.partition_count());
        // Armed one region ahead: the next command succeeds, the one after
        // dies on worker 1, and a reassign fully clears the fault.
        exec.inject_worker_panic(1, 1);
        assert!(exec.execute(&op, &ctx).is_ok());
        let err = exec.execute(&op, &ctx).unwrap_err();
        assert_eq!(err, ExecError::WorkerDied { worker: 1 });
        assert!(exec
            .last_panic_message()
            .is_some_and(|m| m.contains("injected")));
        exec.reassign(&ds.patterns, &assignment, ds.tree.node_capacity(), &cats)
            .unwrap();
        assert!(exec.execute(&op, &ctx).is_ok());
    }

    #[test]
    fn typed_kernel_rejection_does_not_poison_the_workers() {
        use phylo_kernel::OpError;
        let ds = paper_simulated(6, 64, 16, 61).generate();
        let models = ModelSet::default_for(&ds.patterns, BranchLengthMode::Joint);
        let cats: Vec<usize> = models.models().iter().map(|m| m.categories()).collect();
        let assignment = schedule(&ds.patterns, &cats, 3, &Cyclic).unwrap();
        let mut exec = ThreadedExecutor::from_assignment(
            &ds.patterns,
            &assignment,
            ds.tree.node_capacity(),
            &cats,
        )
        .unwrap();
        let ctx = ExecContext {
            tree: &ds.tree,
            models: &models,
        };
        // Derivatives without a sum table: every worker with patterns hits
        // the release-mode staleness guard. The rejection must cross the
        // channel as a typed value, keep the broadcast lockstep intact and
        // leave the workers unpoisoned (this used to be an assert! that
        // killed the worker thread and poisoned the executor).
        let premature = KernelOp::Derivatives {
            lengths: vec![Some(0.1); ds.patterns.partition_count()],
        };
        let err = exec.execute(&premature, &ctx).unwrap_err();
        assert!(
            matches!(err, ExecError::Op(OpError::SumtableStale { .. })),
            "{err:?}"
        );
        assert_eq!(exec.poisoned_by(), None, "workers stay healthy");
        // The very next command runs on the same workers.
        let nop = nop_newview(ds.patterns.partition_count());
        assert!(exec.execute(&nop, &ctx).is_ok());
        // And the lockstep survived: a full likelihood round-trip agrees
        // with the sequential reference.
        let mut seq =
            SequentialKernel::build(Arc::clone(&ds.patterns), ds.tree.clone(), models.clone())
                .unwrap();
        let reference = seq.try_log_likelihood().unwrap();
        let mut k =
            LikelihoodKernel::try_new(Arc::clone(&ds.patterns), ds.tree.clone(), models, exec)
                .unwrap();
        let lnl = k.try_log_likelihood().unwrap();
        assert!((lnl - reference).abs() < 1e-8);
    }

    #[test]
    fn timed_executor_accumulates_a_wall_clock_trace() {
        let ds = paper_simulated(8, 160, 40, 31).generate();
        let models = ModelSet::default_for(&ds.patterns, BranchLengthMode::PerPartition);
        let cats: Vec<usize> = models.models().iter().map(|m| m.categories()).collect();
        let assignment = schedule(&ds.patterns, &cats, 3, &Cyclic).unwrap();
        let exec = ThreadedExecutor::with_options(
            &ds.patterns,
            &assignment,
            ds.tree.node_capacity(),
            &cats,
            ExecutorOptions {
                timed: true,
                skew: None,
            },
        )
        .unwrap();
        let mut k =
            LikelihoodKernel::try_new(Arc::clone(&ds.patterns), ds.tree.clone(), models, exec)
                .unwrap();
        let _ = k.try_log_likelihood().unwrap();
        let sync = k.sync_events();
        let trace = k.executor_mut().take_trace();
        assert_eq!(trace.sync_events() as u64, sync);
        assert_eq!(trace.workers, 3);
        assert!(trace.has_seconds(), "timed regions must carry durations");
        // After take_trace the accumulator restarts empty.
        assert_eq!(k.executor_mut().trace().sync_events(), 0);

        // A single-partition evaluation records its partial convergence mask
        // and the live pattern counts the mask-aware rescheduler reads.
        k.invalidate_all();
        let (root, mask) = (k.default_root_branch(), k.single_mask(0));
        let _ = k.try_log_likelihood_partitions(root, &mask).unwrap();
        let trace = k.executor_mut().take_trace();
        assert!(trace.masked_region_count() > 0, "partial masks recorded");
        assert!(trace
            .live_patterns_per_worker_total()
            .iter()
            .any(|&c| c > 0.0));
    }

    #[test]
    fn untimed_executor_keeps_no_trace() {
        let ds = paper_simulated(6, 64, 16, 37).generate();
        let models = ModelSet::default_for(&ds.patterns, BranchLengthMode::Joint);
        let cats: Vec<usize> = models.models().iter().map(|m| m.categories()).collect();
        let assignment = schedule(&ds.patterns, &cats, 2, &Cyclic).unwrap();
        let exec = ThreadedExecutor::from_assignment(
            &ds.patterns,
            &assignment,
            ds.tree.node_capacity(),
            &cats,
        )
        .unwrap();
        let mut k =
            LikelihoodKernel::try_new(Arc::clone(&ds.patterns), ds.tree.clone(), models, exec)
                .unwrap();
        let _ = k.try_log_likelihood().unwrap();
        assert_eq!(k.executor_mut().trace().sync_events(), 0);
    }

    #[test]
    fn worker_panic_surfaces_as_exec_error_and_poisons() {
        let ds = paper_simulated(6, 64, 16, 41).generate();
        let models = ModelSet::default_for(&ds.patterns, BranchLengthMode::Joint);
        let cats: Vec<usize> = models.models().iter().map(|m| m.categories()).collect();
        let assignment = schedule(&ds.patterns, &cats, 3, &Cyclic).unwrap();
        let mut exec = ThreadedExecutor::from_assignment(
            &ds.patterns,
            &assignment,
            ds.tree.node_capacity(),
            &cats,
        )
        .unwrap();
        let ctx = ExecContext {
            tree: &ds.tree,
            models: &models,
        };
        // An empty partition mask makes every worker index out of bounds —
        // the injected panicking op.
        let bad = evaluate_without_tables(vec![]);
        let err = exec.execute(&bad, &ctx).unwrap_err();
        assert!(matches!(err, ExecError::WorkerDied { .. }), "{err:?}");
        assert!(exec.poisoned_by().is_some());
        assert!(
            exec.last_panic_message().is_some(),
            "the caught panic message must be retained for diagnostics"
        );
        // Every further command fails fast with the poisoned state.
        let good = evaluate_without_tables(vec![true; ds.patterns.partition_count()]);
        let err = exec.execute(&good, &ctx).unwrap_err();
        assert!(matches!(err, ExecError::Poisoned { .. }), "{err:?}");
        assert!(!err.to_string().is_empty());
        // Dropping a poisoned executor must not hang or panic.
        drop(exec);
    }

    #[test]
    fn reassign_recovers_a_poisoned_executor() {
        let ds = paper_simulated(6, 64, 16, 43).generate();
        let models = ModelSet::default_for(&ds.patterns, BranchLengthMode::Joint);
        let cats: Vec<usize> = models.models().iter().map(|m| m.categories()).collect();
        let assignment = schedule(&ds.patterns, &cats, 2, &Cyclic).unwrap();
        let mut exec = ThreadedExecutor::from_assignment(
            &ds.patterns,
            &assignment,
            ds.tree.node_capacity(),
            &cats,
        )
        .unwrap();
        let ctx = ExecContext {
            tree: &ds.tree,
            models: &models,
        };
        let bad = evaluate_without_tables(vec![]);
        assert!(exec.execute(&bad, &ctx).is_err());
        assert!(exec.poisoned_by().is_some());

        let fresh = schedule(&ds.patterns, &cats, 2, &Block).unwrap();
        exec.reassign(&ds.patterns, &fresh, ds.tree.node_capacity(), &cats)
            .unwrap();
        assert_eq!(exec.poisoned_by(), None);
        // A fresh executor owns empty CLV buffers, so the recovery probe is
        // a no-op newview (what the engine would issue after invalidation).
        let good = nop_newview(ds.patterns.partition_count());
        assert!(exec.execute(&good, &ctx).is_ok());
    }

    #[test]
    fn reassign_migrates_ownership_with_identical_likelihood() {
        let ds = paper_simulated(8, 200, 40, 47).generate();
        let models = ModelSet::default_for(&ds.patterns, BranchLengthMode::PerPartition);
        let cats: Vec<usize> = models.models().iter().map(|m| m.categories()).collect();
        let cyclic = schedule(&ds.patterns, &cats, 3, &Cyclic).unwrap();
        let exec = ThreadedExecutor::from_assignment(
            &ds.patterns,
            &cyclic,
            ds.tree.node_capacity(),
            &cats,
        )
        .unwrap();
        let mut k =
            LikelihoodKernel::try_new(Arc::clone(&ds.patterns), ds.tree.clone(), models, exec)
                .unwrap();
        let before = k.try_log_likelihood().unwrap();

        let lpt = schedule(&ds.patterns, &cats, 3, &WeightedLpt).unwrap();
        let patterns = Arc::clone(k.patterns());
        let node_capacity = k.tree().node_capacity();
        k.executor_mut()
            .reassign(&patterns, &lpt, node_capacity, &cats)
            .unwrap();
        // The migrated workers own fresh CLV buffers.
        k.invalidate_all();
        let after = k.try_log_likelihood().unwrap();
        assert!(
            (after - before).abs() < 1e-8,
            "migration must preserve the likelihood: {before} vs {after}"
        );
        assert_eq!(k.executor_mut().assignment().strategy(), "weighted-lpt");
    }

    #[test]
    fn degenerate_schedules_with_more_workers_than_patterns() {
        // Block and LPT both produce empty workers when T > m'; the full
        // master/worker protocol must still reduce to the sequential answer.
        let ds = paper_simulated(6, 24, 12, 53).generate();
        let models = ModelSet::default_for(&ds.patterns, BranchLengthMode::PerPartition);
        let cats: Vec<usize> = models.models().iter().map(|m| m.categories()).collect();
        let mut seq =
            SequentialKernel::build(Arc::clone(&ds.patterns), ds.tree.clone(), models.clone())
                .unwrap();
        let reference = seq.try_log_likelihood().unwrap();

        let patterns = ds.patterns.total_patterns();
        let workers = patterns + 5;
        for strategy in [&Block as &dyn ScheduleStrategy, &WeightedLpt] {
            let assignment = schedule(&ds.patterns, &cats, workers, strategy).unwrap();
            assert!(
                assignment.patterns_per_worker().contains(&0),
                "{}: with {workers} workers and {patterns} patterns some must idle",
                strategy.name()
            );
            let exec = ThreadedExecutor::from_assignment(
                &ds.patterns,
                &assignment,
                ds.tree.node_capacity(),
                &cats,
            )
            .unwrap();
            let mut k = LikelihoodKernel::try_new(
                Arc::clone(&ds.patterns),
                ds.tree.clone(),
                models.clone(),
                exec,
            )
            .unwrap();
            let lnl = k.try_log_likelihood().unwrap();
            assert!(
                (lnl - reference).abs() < 1e-8,
                "{} with empty workers: {lnl} vs {reference}",
                strategy.name()
            );
            // Derivatives also cross the empty workers' uniform-shape path.
            let branch = k.tree().internal_branches()[0];
            let mask = k.full_mask();
            k.try_prepare_branch(branch, &mask).unwrap();
            let lengths: Vec<Option<f64>> = (0..k.partition_count()).map(|_| Some(0.15)).collect();
            let ders = k.try_branch_derivatives(&lengths).unwrap();
            assert!(ders.iter().all(|d| d.is_some()));
        }
    }

    #[test]
    fn skewed_worker_measures_slower() {
        let ds = paper_simulated(6, 120, 30, 59).generate();
        let models = ModelSet::default_for(&ds.patterns, BranchLengthMode::PerPartition);
        let cats: Vec<usize> = models.models().iter().map(|m| m.categories()).collect();
        let assignment = schedule(&ds.patterns, &cats, 3, &Cyclic).unwrap();
        let exec = ThreadedExecutor::with_options(
            &ds.patterns,
            &assignment,
            ds.tree.node_capacity(),
            &cats,
            ExecutorOptions {
                timed: true,
                skew: Some(WorkerSkew {
                    worker: 1,
                    nanos_per_pattern: 30_000,
                }),
            },
        )
        .unwrap();
        let mut k =
            LikelihoodKernel::try_new(Arc::clone(&ds.patterns), ds.tree.clone(), models, exec)
                .unwrap();
        let _ = k.try_log_likelihood().unwrap();
        let trace = k.executor_mut().take_trace();
        let totals = trace.per_worker_total_in(phylo_kernel::TraceUnit::Seconds);
        assert!(
            totals[1] > totals[0] && totals[1] > totals[2],
            "skewed worker must dominate the wall clock: {totals:?}"
        );
    }
}
