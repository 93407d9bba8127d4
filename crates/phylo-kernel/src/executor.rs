//! The executor abstraction: the master/worker command protocol.
//!
//! The Pthreads parallelization of the PLK works by having the master thread
//! broadcast *commands* (update these CLVs, evaluate at this branch, compute
//! these derivatives) that every worker executes on its own share of the
//! alignment patterns, followed by a barrier and a reduction. The
//! [`Executor`] trait captures exactly that protocol; each call to
//! [`Executor::execute`] corresponds to one parallel region and therefore one
//! synchronization event.
//!
//! A command is what one *likelihood call* needs, as in the Pthreads code
//! (`THREAD_EVALUATE` ships its traversal descriptor; `THREAD_MAKENEWZ_FIRST`
//! is traversal + sum table + first derivative): an optional **traversal**
//! ([`TraversalDescriptor`]), the **op** itself, and — for a sum table — an
//! optional **first probe**. A worker runs the phases back to back on its own
//! slices; no data crosses workers between them, so no barrier is needed
//! between them. The traversal-only command, [`KernelOp::Newview`], is what
//! `LikelihoodKernel::try_update_clvs` issues.
//!
//! Four implementations exist, and all of them close a region through
//! [`end_region`], from the per-worker [`sample`]s:
//!
//! * [`SequentialExecutor`] (here) — a single worker owning all patterns; the
//!   reference for correctness and the sequential baseline of the paper's
//!   figures,
//! * three shard executors, whose region bookkeeping (sync count, trace,
//!   poison, armed fault, telemetry bracket) is one `phylo_parallel::pool::
//!   Ledger`: `ThreadedExecutor` (real worker threads) and `TracingExecutor`
//!   (virtual workers recording the per-worker work of every region for the
//!   platform model) in `phylo-parallel`, and `SessionExecutor` in
//!   `phylo-serve` (one served session's shards, run on its driver thread
//!   while it holds a compute slot).

use std::sync::Arc;

use phylo_models::ModelSet;
use phylo_telemetry::{RegionToken, Telemetry, WorkerSample};
use phylo_tree::{NodeId, TraversalPlan};

use crate::blocked;
use crate::cost::OpKind;
use crate::error::{KernelError, OpError};
use crate::ops::{self, EdgeDerivatives};
use crate::slice::WorkerSlices;
use crate::tables::{EdgeTables, KernelDispatch, NewviewTables};

/// Which partitions participate in a command. `mask[p] == true` means
/// partition `p` is active. The `newPAR` scheme keeps many partitions active
/// per command; the `oldPAR` scheme activates exactly one at a time.
pub type PartitionMask = Vec<bool>;

/// The CLV updates a command runs before its op: one optional traversal plan
/// per partition plus the table slots of every step. Commands carry it
/// behind one `Arc`, so the per-region clone a parallel backend makes is a
/// reference-count bump.
#[derive(Debug)]
pub struct TraversalDescriptor {
    /// One optional plan per partition (`None` = nothing to update).
    pub plans: Vec<Option<TraversalPlan>>,
    /// Per-step table slots (aligned with the plans).
    pub tables: Arc<NewviewTables>,
}

/// A command broadcast by the master to all workers: an optional traversal,
/// the op, and (for a sum table) an optional first derivative probe, executed
/// in that order inside ONE parallel region.
///
/// The CLV-touching commands carry **table slots** (see [`crate::tables`])
/// inside an `Arc`: the first shard that reads a slot builds its transition
/// matrices and tip lookup rows, and every other reader shares them, so the
/// O(states³·categories) eigen work is done once per `(partition, branch)`
/// slot inside the region. The payload also carries a [`KernelDispatch`] selecting
/// between the scalar tabled loops (the reference) and the cache-blocked
/// width-specialized loops (see [`crate::blocked`] for the tolerance
/// contract).
#[derive(Debug, Clone)]
pub enum KernelOp {
    /// The traversal-only command: recompute CLVs following a per-partition
    /// traversal plan (`None` means the partition has nothing to update in
    /// this region).
    Newview {
        /// One optional plan per partition.
        plans: Vec<Option<TraversalPlan>>,
        /// Per-step table slots (aligned with the plans).
        tables: Arc<NewviewTables>,
    },
    /// Evaluate the per-partition log likelihood at a virtual root branch.
    Evaluate {
        /// The two nodes of the branch carrying the virtual root, resolved
        /// by the master when it issues the command.
        endpoints: (NodeId, NodeId),
        /// Active partitions.
        mask: PartitionMask,
        /// The virtual-root branch's table slot per partition.
        tables: Arc<EdgeTables>,
        /// CLV updates to run first (`None` = every CLV read is valid).
        traversal: Option<Arc<TraversalDescriptor>>,
    },
    /// Build the branch sum tables used by Newton–Raphson.
    Sumtable {
        /// The two nodes of the branch being optimized, resolved by the
        /// master when it issues the command.
        endpoints: (NodeId, NodeId),
        /// Active partitions.
        mask: PartitionMask,
        /// CLV updates to run first (`None` = every CLV read is valid).
        traversal: Option<Arc<TraversalDescriptor>>,
        /// Candidate lengths of the first Newton probe, evaluated off the
        /// fresh tables like a `Derivatives` command; the command then
        /// answers [`OpOutput::Derivatives`] instead of [`OpOutput::None`].
        first: Option<Vec<Option<f64>>>,
    },
    /// Evaluate log-likelihood derivatives at per-partition candidate branch
    /// lengths (`None` = partition does not participate, e.g. it has already
    /// converged — this is the `newPAR` convergence mask in action).
    Derivatives {
        /// Candidate branch length per partition.
        lengths: Vec<Option<f64>>,
    },
}

impl KernelOp {
    /// The kind of the op the command carries (a traversal or probe riding
    /// along does not change it; see [`KernelOp::label`] for those).
    pub fn kind(&self) -> OpKind {
        match self {
            KernelOp::Newview { .. } => OpKind::Newview,
            KernelOp::Evaluate { .. } => OpKind::Evaluate,
            KernelOp::Sumtable { .. } => OpKind::Sumtable,
            KernelOp::Derivatives { .. } => OpKind::Derivatives,
        }
    }

    /// The traversal the command starts with: a `Newview`'s own, or the
    /// descriptor riding on an `Evaluate`/`Sumtable`.
    pub fn traversal(&self) -> Option<(&[Option<TraversalPlan>], &NewviewTables)> {
        match self {
            KernelOp::Newview { plans, tables } => Some((plans, tables)),
            KernelOp::Evaluate { traversal, .. } | KernelOp::Sumtable { traversal, .. } => {
                traversal.as_deref().map(|t| (&t.plans[..], &*t.tables))
            }
            KernelOp::Derivatives { .. } => None,
        }
    }

    /// The derivative probe the command ends with: a `Derivatives`' own
    /// lengths, or the first probe riding on a `Sumtable`.
    pub fn probe(&self) -> Option<&[Option<f64>]> {
        match self {
            KernelOp::Derivatives { lengths } => Some(lengths),
            KernelOp::Sumtable { first, .. } => first.as_deref(),
            KernelOp::Newview { .. } | KernelOp::Evaluate { .. } => None,
        }
    }

    /// What the region carried, phase by phase — the telemetry `kind` of its
    /// events (`"evaluate"`, `"newview+evaluate"`,
    /// `"newview+sumtable+derivatives"`, …).
    pub fn label(&self) -> &'static str {
        let riding = (self.traversal().is_some(), self.probe().is_some());
        match (self.kind(), riding) {
            (OpKind::Evaluate, (true, _)) => "newview+evaluate",
            (OpKind::Sumtable, (true, false)) => "newview+sumtable",
            (OpKind::Sumtable, (false, true)) => "sumtable+derivatives",
            (OpKind::Sumtable, (true, true)) => "newview+sumtable+derivatives",
            // Nothing rides along (a `Newview`/`Derivatives` is its own phase).
            (kind, _) => kind.label(),
        }
    }

    /// Which partitions this command touches — the *convergence mask* of the
    /// region. For `Derivatives` this is the newPAR convergence vector
    /// (converged partitions carry `None` and do no work); for `Newview` a
    /// partition without a traversal plan is inactive; `Evaluate`/`Sumtable`
    /// carry an explicit mask (which covers what rides along). Executors
    /// record this shape per region so the mask-aware rescheduler can see
    /// how the live pattern set shrinks.
    pub fn active_partitions(&self) -> PartitionMask {
        match self {
            KernelOp::Newview { plans, .. } => plans.iter().map(Option::is_some).collect(),
            KernelOp::Evaluate { mask, .. } | KernelOp::Sumtable { mask, .. } => mask.clone(),
            KernelOp::Derivatives { lengths } => lengths.iter().map(Option::is_some).collect(),
        }
    }

    /// The command's phases in execution order, each with the kind its
    /// patterns are costed at and how often it visits each pattern of
    /// `partition`: the traversal length, once for the op itself and once for
    /// the probe where the partition is active, never for an inactive
    /// (converged, masked-out or out-of-range) one.
    pub fn phase_visits(&self, partition: usize) -> [(OpKind, usize); 3] {
        let plans = self.traversal().map(|(plans, _)| plans);
        let plan = plans.and_then(|plans| plans.get(partition)?.as_ref());
        let own = match self {
            KernelOp::Evaluate { mask, .. } | KernelOp::Sumtable { mask, .. } => {
                mask.get(partition) == Some(&true)
            }
            KernelOp::Newview { .. } | KernelOp::Derivatives { .. } => false,
        };
        let probe = self.probe().and_then(|lengths| *lengths.get(partition)?);
        [
            (OpKind::Newview, plan.map_or(0, TraversalPlan::len)),
            (self.kind(), usize::from(own)),
            (OpKind::Derivatives, usize::from(probe.is_some())),
        ]
    }

    /// How often the command visits each pattern of `partition`, summed over
    /// its phases.
    pub fn visits(&self, partition: usize) -> usize {
        self.phase_visits(partition).iter().map(|&(_, n)| n).sum()
    }
}

/// Number of local patterns a worker actually touches in one region — the
/// *live* pattern count under the command's convergence mask, summed over the
/// command's phases and weighted by traversal length for the `newview` phase
/// (the same proportionality the analytic cost model uses). Patterns of
/// converged/inactive partitions are skipped by [`execute_on_worker`] and
/// therefore not counted.
pub fn active_local_patterns(worker: &WorkerSlices, op: &KernelOp) -> usize {
    let slices = worker.slices.iter().enumerate();
    slices
        .map(|(pi, slice)| slice.pattern_count() * op.visits(pi))
        .sum()
}

/// What a command is executed against besides itself: the master's models,
/// behind the one `Arc` a parallel backend shares with its workers for a
/// region instead of copying them. The topology stays on the master: a
/// command carries the node ids it reads.
#[derive(Debug, Clone, Copy)]
pub struct ExecContext<'a> {
    /// Per-partition models.
    pub models: &'a Arc<ModelSet>,
}

/// Reduced result of a command.
#[derive(Debug, Clone, PartialEq)]
pub enum OpOutput {
    /// Commands without a reduction (newview, sumtable).
    None,
    /// Per-partition log likelihoods (0.0 for inactive partitions).
    LogLikelihoods(Vec<f64>),
    /// Per-partition derivative bundles (`None` for inactive partitions).
    Derivatives(Vec<Option<EdgeDerivatives>>),
}

impl OpOutput {
    /// Short label of the output kind (diagnostics, error messages).
    pub fn kind_name(&self) -> &'static str {
        match self {
            OpOutput::None => "empty",
            OpOutput::LogLikelihoods(_) => "log-likelihood",
            OpOutput::Derivatives(_) => "derivative",
        }
    }

    /// Unwraps per-partition log likelihoods.
    ///
    /// # Errors
    ///
    /// [`KernelError::OutputMismatch`] if the output is of a different kind
    /// (an executor-implementation bug, reported as a value instead of a
    /// panic).
    pub fn try_into_log_likelihoods(self) -> Result<Vec<f64>, KernelError> {
        match self {
            OpOutput::LogLikelihoods(v) => Ok(v),
            other => Err(KernelError::OutputMismatch {
                expected: "log-likelihood",
                got: other.kind_name(),
            }),
        }
    }

    /// Unwraps per-partition derivatives.
    ///
    /// # Errors
    ///
    /// [`KernelError::OutputMismatch`] if the output is of a different kind.
    pub fn try_into_derivatives(self) -> Result<Vec<Option<EdgeDerivatives>>, KernelError> {
        match self {
            OpOutput::Derivatives(v) => Ok(v),
            other => Err(KernelError::OutputMismatch {
                expected: "derivative",
                got: other.kind_name(),
            }),
        }
    }
}

/// Why a parallel execution backend could not complete a command.
///
/// The historical behaviour was an opaque
/// `expect("worker thread terminated unexpectedly")` that killed the master
/// thread; backends now surface the failure as a value so callers can tear
/// down cleanly (or rebuild the workers via reassignment).
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// A worker thread panicked (or its channel disconnected) while executing
    /// the current command.
    WorkerDied {
        /// Index of the dead worker.
        worker: usize,
    },
    /// The executor was poisoned by an earlier worker death; no further
    /// commands are accepted until the workers are rebuilt.
    Poisoned {
        /// Index of the worker whose death poisoned the executor.
        worker: usize,
    },
    /// A kernel primitive rejected the command's inputs (mismatched buffer
    /// shapes, a stale sum table, an out-of-domain branch length). Unlike a
    /// worker death this is deterministic master-state misuse: the workers
    /// stay healthy, the executor is **not** poisoned, and
    /// `KernelError::from` flattens it to `KernelError::Op`.
    Op(OpError),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::WorkerDied { worker } => {
                write!(f, "worker thread {worker} died while executing a command")
            }
            Self::Poisoned { worker } => write!(
                f,
                "executor is poisoned by the earlier death of worker {worker}"
            ),
            Self::Op(e) => write!(f, "kernel primitive rejected the command: {e}"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<OpError> for ExecError {
    fn from(e: OpError) -> Self {
        ExecError::Op(e)
    }
}

/// The master/worker execution backend.
///
/// `execute` is fallible by design: a parallel backend can lose a worker
/// mid-command, and the master must survive its workers. Backends without a
/// failure mode (the sequential and virtual executors) simply always return
/// `Ok`.
pub trait Executor {
    /// Number of workers the patterns are distributed over.
    fn worker_count(&self) -> usize;

    /// Executes one command (one parallel region, one synchronization event)
    /// and returns the reduced result.
    ///
    /// # Errors
    ///
    /// [`ExecError::WorkerDied`] when a worker fails during this command;
    /// [`ExecError::Poisoned`] when the executor refuses further commands
    /// after an earlier death (rebuild the workers — e.g. via
    /// `phylo_sched::Reassignable::reassign` — to recover).
    fn execute(&mut self, op: &KernelOp, ctx: &ExecContext<'_>) -> Result<OpOutput, ExecError>;

    /// Number of synchronization events executed so far.
    fn sync_events(&self) -> u64;

    /// Attaches a telemetry recorder: the executor keeps a clone of the
    /// (cheap, shared) handle and brackets every region with
    /// start/end events plus per-worker timings. The default is a no-op so
    /// backends without instrumentation stay telemetry-free; attaching a
    /// disabled handle is equivalent to never calling this.
    fn attach_telemetry(&mut self, _telemetry: &Telemetry) {}
}

/// Executes one command against a single worker's slices: *traversal → op →
/// probe*, back to back. This is the shared building block: the sequential
/// executor calls it once, the threaded and tracing executors call it per
/// worker. The traversal and the evaluation visit the partitions starting
/// at `worker·P/T` and build each table slot they reach first
/// ([`TableSlot::resolve`](crate::tables::TableSlot::resolve), counted into
/// the worker's
/// [`WorkerSlices::take_table_builds`]).
///
/// # Errors
///
/// [`OpError`] when a kernel primitive rejects its inputs (mismatched buffer
/// shapes, a stale sum table, an out-of-domain branch length, a table
/// payload that does not cover the command, a slot whose dictionary is for
/// another alphabet than the partition's model, a per-partition payload of
/// the wrong length).
pub fn execute_on_worker(
    worker: &mut WorkerSlices,
    op: &KernelOp,
    ctx: &ExecContext<'_>,
) -> Result<OpOutput, OpError> {
    let partitions = worker.slices.len();
    // Every per-partition payload is indexed by partition below: one entry
    // per partition, or a typed error before anything is touched — never an
    // index panic that kills (and poisons) a healthy worker.
    let per_partition = |got: usize| {
        let expected = partitions;
        (got == expected)
            .then_some(())
            .ok_or(OpError::MaskShape { expected, got })
    };
    let (traversal, probe) = (op.traversal(), op.probe());
    if let KernelOp::Evaluate { mask, .. } | KernelOp::Sumtable { mask, .. } = op {
        per_partition(mask.len())?;
    }
    if let Some((plans, _)) = traversal {
        per_partition(plans.len())?;
    }
    if let Some(lengths) = probe {
        per_partition(lengths.len())?;
    }

    if let Some((plans, tables)) = traversal {
        run_traversal(worker, plans, tables, ctx)?;
    }
    let mut out = OpOutput::None;
    match op {
        KernelOp::Newview { .. } | KernelOp::Derivatives { .. } => {}
        KernelOp::Evaluate {
            endpoints,
            mask,
            tables,
            ..
        } => {
            let (left, right) = *endpoints;
            let mut lnl = vec![0.0; partitions];
            for pi in partition_order(worker) {
                if !mask[pi] || worker.slices[pi].pattern_count() == 0 {
                    continue;
                }
                let model = ctx.models.model(pi);
                // A table payload must cover every active partition; a hole
                // is a typed error (matching the Newview contract), never an
                // index panic.
                let Some(slot) = tables.per_partition.get(pi).and_then(|e| e.as_deref()) else {
                    return Err(OpError::TableShape {
                        partition: pi,
                        expected: 1,
                        got: 0,
                    });
                };
                let edge = slot.resolve(model, &worker.tables_built)?;
                lnl[pi] = match tables.dispatch {
                    KernelDispatch::Blocked => blocked::evaluate_edge_blocked(
                        &worker.slices[pi],
                        &mut worker.buffers[pi],
                        model,
                        left,
                        right,
                        edge,
                    )?,
                    KernelDispatch::Scalar => ops::evaluate_edge_tabled(
                        &worker.slices[pi],
                        &mut worker.buffers[pi],
                        model,
                        left,
                        right,
                        edge,
                    )?,
                };
            }
            out = OpOutput::LogLikelihoods(lnl);
        }
        KernelOp::Sumtable {
            endpoints, mask, ..
        } => {
            let (left, right) = *endpoints;
            for (pi, &active) in mask.iter().enumerate() {
                if !active || worker.slices[pi].pattern_count() == 0 {
                    continue;
                }
                let model = ctx.models.model(pi);
                ops::build_sumtable(
                    &worker.slices[pi],
                    &mut worker.buffers[pi],
                    model,
                    left,
                    right,
                )?;
            }
        }
    }
    match probe {
        Some(lengths) => probe_derivatives(worker, lengths, ctx),
        None => Ok(out),
    }
}

/// The partitions in the order a shard visits them: from `worker·P/T` on,
/// wrapping around, so the `T` shards of a region reach — and build —
/// disjoint runs of table slots first. Partitions are independent, so the
/// order never changes a result.
fn partition_order(worker: &WorkerSlices) -> impl Iterator<Item = usize> {
    let partitions = worker.slices.len();
    let start = worker.worker * partitions / worker.worker_count.max(1);
    (0..partitions).map(move |k| (start + k) % partitions)
}

/// The traversal phase: every partition's plan, step by step, on the
/// worker's own CLV buffers. `plans` has one entry per partition (checked by
/// the caller).
fn run_traversal(
    worker: &mut WorkerSlices,
    plans: &[Option<TraversalPlan>],
    tables: &NewviewTables,
    ctx: &ExecContext<'_>,
) -> Result<(), OpError> {
    for pi in partition_order(worker) {
        let Some(plan) = &plans[pi] else { continue };
        let slice = &worker.slices[pi];
        if slice.pattern_count() == 0 {
            continue;
        }
        // `.get` guards payloads shorter than the partition count: a
        // malformed payload must be a typed error, not an index panic
        // that kills (and poisons) a healthy worker.
        let steps = tables
            .per_partition
            .get(pi)
            .and_then(|s| s.as_deref())
            .unwrap_or(&[]);
        if steps.len() != plan.steps.len() {
            return Err(OpError::TableShape {
                partition: pi,
                expected: plan.steps.len(),
                got: steps.len(),
            });
        }
        let model = ctx.models.model(pi);
        for (step, slots) in plan.steps.iter().zip(steps) {
            let left = slots.left.resolve(model, &worker.tables_built)?;
            let right = slots.right.resolve(model, &worker.tables_built)?;
            let buffers = &mut worker.buffers[pi];
            match tables.dispatch {
                KernelDispatch::Blocked => {
                    blocked::newview_step_blocked(slice, buffers, step, left, right)?
                }
                KernelDispatch::Scalar => {
                    ops::newview_step_tabled(slice, buffers, step, left, right)?
                }
            }
        }
    }
    Ok(())
}

/// The probe phase: derivatives of every active partition at its candidate
/// length, off the sum tables the worker holds. `lengths` has one entry per
/// partition (checked by the caller).
fn probe_derivatives(
    worker: &WorkerSlices,
    lengths: &[Option<f64>],
    ctx: &ExecContext<'_>,
) -> Result<OpOutput, OpError> {
    let mut out = vec![None; lengths.len()];
    for (pi, t) in lengths.iter().enumerate() {
        let Some(t) = *t else { continue };
        if worker.slices[pi].pattern_count() == 0 {
            // An idle worker still reports a zero contribution so the
            // reduction shape stays uniform.
            out[pi] = Some(EdgeDerivatives::default());
            continue;
        }
        let model = ctx.models.model(pi);
        out[pi] = Some(ops::derivatives_from_sumtable(
            &worker.slices[pi],
            &worker.buffers[pi],
            model,
            t,
        )?);
    }
    Ok(OpOutput::Derivatives(out))
}

/// Sums two per-partition outputs of the same shape (the reduction step).
///
/// # Errors
///
/// [`OpError::ReduceMismatch`] when the two outputs are of different kinds —
/// an executor-implementation bug (e.g. one worker answered a Newview command
/// with log likelihoods), surfaced as a value so a buggy backend cannot take
/// the master down with it.
pub fn reduce_outputs(a: OpOutput, b: OpOutput) -> Result<OpOutput, OpError> {
    match (a, b) {
        (OpOutput::None, OpOutput::None) => Ok(OpOutput::None),
        (OpOutput::LogLikelihoods(mut x), OpOutput::LogLikelihoods(y)) => {
            for (xi, yi) in x.iter_mut().zip(y) {
                *xi += yi;
            }
            Ok(OpOutput::LogLikelihoods(x))
        }
        (OpOutput::Derivatives(mut x), OpOutput::Derivatives(y)) => {
            for (xi, yi) in x.iter_mut().zip(y) {
                match (xi.as_mut(), yi) {
                    (Some(a), Some(b)) => {
                        a.log_likelihood += b.log_likelihood;
                        a.first += b.first;
                        a.second += b.second;
                    }
                    (None, Some(b)) => *xi = Some(b),
                    _ => {}
                }
            }
            Ok(OpOutput::Derivatives(x))
        }
        (a, b) => Err(OpError::ReduceMismatch {
            left: a.kind_name(),
            right: b.kind_name(),
        }),
    }
}

/// The message of a caught worker panic (the `catch_unwind` payload), for the
/// diagnostics a parallel backend keeps after a worker death.
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked with a non-string payload".to_string()
    }
}

/// What `worker` reports for one recorded region: its timings plus the
/// tip-cache and table-build counter deltas of `slices` since the
/// last sample.
pub fn sample(
    slices: &WorkerSlices,
    worker: usize,
    op_seconds: f64,
    queue_wait_seconds: f64,
) -> WorkerSample {
    let (tip_hits, tip_misses, tip_builds) = slices.take_tip_cache_counters();
    WorkerSample {
        worker,
        op_seconds,
        queue_wait_seconds,
        tip_hits,
        tip_misses,
        tip_builds,
        tables_built: slices.take_table_builds(),
    }
}

/// Ends `token`'s telemetry region with `result` — the one region-close path
/// of every executor. A worker death leaves the region open (the "started
/// but never completed" marker), records the death and returns the dead
/// worker; anything else — a typed rejection included — closes it from the
/// region's `samples`: per-worker op seconds and queue wait as each of the
/// `width` workers measured them, plus their cache and table-build counter
/// deltas.
pub fn end_region(
    telemetry: &Telemetry,
    token: Option<RegionToken>,
    width: usize,
    samples: &[WorkerSample],
    result: &Result<OpOutput, ExecError>,
) -> Option<usize> {
    if let Err(ExecError::WorkerDied { worker }) = result {
        let region = token.as_ref().and_then(RegionToken::region);
        telemetry.worker_death(*worker, region);
        return Some(*worker);
    }
    let token = token?;
    let mut worker_seconds = vec![0.0; width];
    let mut queue_wait = vec![0.0; width];
    let (mut hits, mut misses, mut builds) = (0, 0, 0);
    let mut tables_built = 0;
    for s in samples {
        worker_seconds[s.worker] = s.op_seconds;
        queue_wait[s.worker] = s.queue_wait_seconds;
        hits += s.tip_hits;
        misses += s.tip_misses;
        builds += s.tip_builds;
        tables_built += s.tables_built;
    }
    telemetry.add_tip_cache(hits, misses, builds);
    telemetry.add_shard_table_builds(tables_built);
    telemetry.region_end(token, &worker_seconds, &queue_wait);
    None
}

/// A single worker owning every pattern: the sequential reference backend.
#[derive(Debug)]
pub struct SequentialExecutor {
    worker: WorkerSlices,
    sync_events: u64,
    telemetry: Telemetry,
}

impl SequentialExecutor {
    /// Creates the sequential executor for a dataset.
    pub fn new(
        patterns: &phylo_data::PartitionedPatterns,
        node_capacity: usize,
        categories: &[usize],
    ) -> Self {
        Self {
            worker: WorkerSlices::cyclic(patterns, 0, 1, node_capacity, categories),
            sync_events: 0,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Read access to the worker (tests / diagnostics).
    pub fn worker(&self) -> &WorkerSlices {
        &self.worker
    }
}

impl Executor for SequentialExecutor {
    fn worker_count(&self) -> usize {
        1
    }

    fn execute(&mut self, op: &KernelOp, ctx: &ExecContext<'_>) -> Result<OpOutput, ExecError> {
        self.sync_events += 1;
        if !self.telemetry.enabled() {
            return execute_on_worker(&mut self.worker, op, ctx).map_err(ExecError::from);
        }
        let token = self
            .telemetry
            .region_start(op.label(), &op.active_partitions());
        // lint:allow(L008): region timing on the telemetry-enabled path only;
        // feeds the measured-trace feedback, never the reduction order.
        let started = std::time::Instant::now();
        let result = execute_on_worker(&mut self.worker, op, ctx).map_err(ExecError::from);
        let seconds = started.elapsed().as_secs_f64();
        // The single worker never queues; a rejected op still completes the
        // region (aborted regions are reserved for worker deaths).
        let samples = [sample(&self.worker, 0, seconds, 0.0)];
        end_region(&self.telemetry, Some(token), 1, &samples, &result);
        result
    }

    fn sync_events(&self) -> u64 {
        self.sync_events
    }

    fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        self.telemetry = telemetry.clone();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::EdgeDerivatives;

    #[test]
    fn reduce_log_likelihoods_sums_per_partition() {
        let a = OpOutput::LogLikelihoods(vec![-1.0, -2.0]);
        let b = OpOutput::LogLikelihoods(vec![-3.0, -4.0]);
        match reduce_outputs(a, b).unwrap() {
            OpOutput::LogLikelihoods(v) => assert_eq!(v, vec![-4.0, -6.0]),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn reduce_derivatives_sums_fields() {
        let a = OpOutput::Derivatives(vec![
            Some(EdgeDerivatives {
                log_likelihood: -1.0,
                first: 2.0,
                second: -3.0,
            }),
            None,
        ]);
        let b = OpOutput::Derivatives(vec![
            Some(EdgeDerivatives {
                log_likelihood: -1.5,
                first: 1.0,
                second: -1.0,
            }),
            Some(EdgeDerivatives {
                log_likelihood: -9.0,
                first: 0.5,
                second: -0.5,
            }),
        ]);
        match reduce_outputs(a, b).unwrap() {
            OpOutput::Derivatives(v) => {
                let first = v[0].unwrap();
                assert!((first.log_likelihood + 2.5).abs() < 1e-12);
                assert!((first.first - 3.0).abs() < 1e-12);
                assert!((first.second + 4.0).abs() < 1e-12);
                assert!(v[1].is_some());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn reduce_mismatched_outputs_is_a_typed_error() {
        let err = reduce_outputs(OpOutput::None, OpOutput::LogLikelihoods(vec![0.0])).unwrap_err();
        assert!(matches!(err, OpError::ReduceMismatch { .. }), "{err}");
        assert!(err.to_string().contains("log-likelihood"), "{err}");
    }

    #[test]
    fn op_output_unwrap_helpers() {
        assert_eq!(
            OpOutput::LogLikelihoods(vec![1.0])
                .try_into_log_likelihoods()
                .unwrap(),
            vec![1.0]
        );
        assert_eq!(
            OpOutput::Derivatives(vec![None])
                .try_into_derivatives()
                .unwrap(),
            vec![None]
        );
        assert!(matches!(
            OpOutput::None.try_into_log_likelihoods().unwrap_err(),
            KernelError::OutputMismatch {
                expected: "log-likelihood",
                got: "empty"
            }
        ));
        assert!(matches!(
            OpOutput::LogLikelihoods(vec![])
                .try_into_derivatives()
                .unwrap_err(),
            KernelError::OutputMismatch { .. }
        ));
    }

    #[test]
    fn malformed_table_payloads_are_typed_errors_not_panics() {
        use crate::tables::{EdgeTables, NewviewTables};
        use crate::OpError;
        use phylo_data::{Alignment, DataType, PartitionSet, PartitionedPatterns};
        use phylo_models::{BranchLengthMode, ModelSet};
        use phylo_tree::{TraversalPlan, Tree};

        let aln = Alignment::new(vec![
            ("t0".into(), "ACGTACGT".into()),
            ("t1".into(), "ACGAACGA".into()),
            ("t2".into(), "ACCTACGT".into()),
        ])
        .unwrap();
        let ps = PartitionSet::equal_length(DataType::Dna, 8, 4);
        let pp = PartitionedPatterns::compile(&aln, &ps).unwrap();
        let tree = Tree::initial_triplet(pp.taxa.clone(), [0, 1, 2]);
        let models = Arc::new(ModelSet::default_for(&pp, BranchLengthMode::Joint));
        let cats: Vec<usize> = models.models().iter().map(|m| m.categories()).collect();
        let mut worker = WorkerSlices::cyclic(&pp, 0, 1, tree.node_capacity(), &cats);
        let ctx = ExecContext { models: &models };

        // A table payload shorter than the partition count (a custom driver
        // could build one — the fields are public): typed error, not an
        // index panic that a parallel backend would report as WorkerDied.
        let plan = TraversalPlan::full(&tree, tree.neighbors(0)[0].1);
        let plans: Vec<Option<TraversalPlan>> = vec![Some(plan.clone()), Some(plan)];
        let short = Arc::new(NewviewTables {
            per_partition: vec![None],
            dispatch: crate::tables::KernelDispatch::default(),
        });
        let op = KernelOp::Newview {
            plans,
            tables: short,
        };
        let err = execute_on_worker(&mut worker, &op, &ctx).unwrap_err();
        assert!(
            matches!(err, OpError::TableShape { partition: 0, .. }),
            "{err:?}"
        );

        // Same contract for Evaluate: an active partition without its table
        // entry is a hole in the payload, rejected before any CLV is read.
        let holey = Arc::new(EdgeTables {
            per_partition: vec![None; 2],
            dispatch: crate::tables::KernelDispatch::default(),
        });
        let op = KernelOp::Evaluate {
            endpoints: tree.branch_endpoints(0),
            mask: vec![true, false],
            tables: holey,
            traversal: None,
        };
        let err = execute_on_worker(&mut worker, &op, &ctx).unwrap_err();
        assert!(
            matches!(err, OpError::TableShape { partition: 0, .. }),
            "{err:?}"
        );
    }

    #[test]
    fn kernel_op_kind_labels() {
        let traversal = || {
            Some(Arc::new(TraversalDescriptor {
                plans: vec![None],
                tables: Arc::new(NewviewTables {
                    per_partition: Vec::new(),
                    dispatch: KernelDispatch::default(),
                }),
            }))
        };
        let evaluate = |traversal| KernelOp::Evaluate {
            endpoints: (0, 1),
            mask: vec![true],
            tables: Arc::new(EdgeTables {
                per_partition: Vec::new(),
                dispatch: KernelDispatch::default(),
            }),
            traversal,
        };
        let sumtable = |traversal, first| KernelOp::Sumtable {
            endpoints: (0, 1),
            mask: vec![true],
            traversal,
            first,
        };
        let first = || Some(vec![Some(0.1)]);
        let derivatives = KernelOp::Derivatives {
            lengths: vec![Some(0.1)],
        };
        let labelled = [
            (evaluate(None), OpKind::Evaluate, "evaluate"),
            (evaluate(traversal()), OpKind::Evaluate, "newview+evaluate"),
            (sumtable(None, None), OpKind::Sumtable, "sumtable"),
            (
                sumtable(traversal(), None),
                OpKind::Sumtable,
                "newview+sumtable",
            ),
            (
                sumtable(None, first()),
                OpKind::Sumtable,
                "sumtable+derivatives",
            ),
            (
                sumtable(traversal(), first()),
                OpKind::Sumtable,
                "newview+sumtable+derivatives",
            ),
            (derivatives, OpKind::Derivatives, "derivatives"),
        ];
        for (op, kind, label) in labelled {
            assert_eq!((op.kind(), op.label()), (kind, label));
        }
        // The probe riding on a sum table is one more visit of every pattern
        // of its partition, costed as a derivative evaluation.
        let fused = sumtable(None, first());
        assert_eq!(fused.visits(0), 2);
        assert_eq!(fused.phase_visits(0)[2], (OpKind::Derivatives, 1));
        assert_eq!(fused.visits(1), 0, "out of range is inactive");
    }
}
