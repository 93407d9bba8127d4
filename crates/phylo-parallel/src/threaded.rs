//! The solo executor: one session on its own [`WorkerPool`].
//!
//! [`ThreadedExecutor`] spawns its worker threads once, installs one shard
//! on each, and every [`Executor::execute`] call sends one region
//! **directly** to the workers — one synchronization event, exactly as in the
//! paper. A region ships the command and a share of the master's `Arc` of
//! the models, never a copy of the master state, so the per-command cost is
//! the channel round trip — a realistic stand-in for a barrier.
//!
//! The executor keeps the pool and the skew; the region bookkeeping is its
//! [`Ledger`]. With [`ExecutorOptions::timed`] the ledger keeps each
//! worker's shard time in a [`WorkTrace`] ([`ThreadedExecutor::trace`]) —
//! the measured counterpart of the virtual FLOP traces, and the input to
//! mid-run rescheduling. A worker panic surfaces as
//! [`ExecError::WorkerDied`] and poisons the executor until
//! [`Reassignable::reassign`] reinstalls fresh slices on the same, surviving
//! threads; [`ThreadedExecutor::inject_worker_panic`] arms a one-shot fault
//! on that exact machinery.

use phylo_data::PartitionedPatterns;
use phylo_kernel::cost::WorkTrace;
use phylo_kernel::{ExecContext, ExecError, Executor, KernelOp, OpOutput};
use phylo_sched::{Assignment, Reassignable, SchedError};
use phylo_telemetry::Telemetry;

pub use crate::pool::WorkerSkew;
use crate::pool::{Ledger, WorkerPool};

/// Construction options beyond the assignment itself.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecutorOptions {
    /// Accumulate per-region wall-clock measurements into a [`WorkTrace`].
    pub timed: bool,
    /// Optional artificial slowdown of one worker (benchmarks and tests).
    pub skew: Option<WorkerSkew>,
}

/// A real-thread executor with persistent workers.
#[derive(Debug)]
pub struct ThreadedExecutor {
    pool: WorkerPool,
    skew: Option<WorkerSkew>,
    ledger: Ledger,
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
        check_skew(options.skew, assignment.worker_count())?;
        let workers = crate::build_workers(patterns, node_capacity, categories, assignment)?;
        let pool = WorkerPool::spawn(workers.len());
        pool.install(workers, options.skew);
        Ok(Self {
            pool,
            skew: options.skew,
            ledger: Ledger::new(assignment, options.timed),
        })
    }

    /// The wall-clock trace accumulated so far (empty unless
    /// [`ExecutorOptions::timed`] was set).
    pub fn trace(&self) -> &WorkTrace {
        self.ledger.trace()
    }

    /// The region bookkeeping: poison, last panic, sync count, trace.
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// Arms a one-shot injected panic: `worker` panics in the command issued
    /// `after_regions` regions from now (0 = the next one), through the same
    /// catch/report/poison machinery as a real worker fault.
    pub fn inject_worker_panic(&mut self, worker: usize, after_regions: u64) {
        self.ledger.arm(worker, after_regions);
    }
}

fn check_skew(skew: Option<WorkerSkew>, worker_count: usize) -> Result<(), SchedError> {
    match skew {
        Some(skew) if skew.worker >= worker_count => Err(SchedError::SkewWorkerOutOfRange {
            worker: skew.worker,
            worker_count,
        }),
        _ => Ok(()),
    }
}

impl Reassignable for ThreadedExecutor {
    fn assignment(&self) -> &Assignment {
        self.ledger.assignment()
    }

    fn live_trace(&self) -> &WorkTrace {
        self.ledger.trace()
    }

    fn take_trace(&mut self) -> WorkTrace {
        self.ledger.take_trace()
    }

    /// Migrates pattern→worker ownership to a new assignment: fresh slices
    /// built from the new owner map replace the installed ones on the same
    /// worker threads (only a width-changing assignment replaces the pool),
    /// and the ledger restarts — a new trace epoch, no poison (the
    /// quarantined slices are gone), no armed fault.
    ///
    /// The reinstalled workers own *empty* CLV buffers, so the caller must
    /// invalidate the master-side CLV validity cache before the next
    /// likelihood evaluation (`LikelihoodKernel::invalidate_all`).
    ///
    /// # Errors
    ///
    /// [`SchedError::PatternCountMismatch`] if the assignment was built for
    /// a different dataset, [`SchedError::SkewWorkerOutOfRange`] if the
    /// executor's skew would fall outside the new worker range; the executor
    /// is left untouched in either case.
    fn reassign(
        &mut self,
        patterns: &PartitionedPatterns,
        assignment: &Assignment,
        node_capacity: usize,
        categories: &[usize],
    ) -> Result<(), SchedError> {
        check_skew(self.skew, assignment.worker_count())?;
        let workers = crate::build_workers(patterns, node_capacity, categories, assignment)?;
        if workers.len() != self.pool.width() {
            self.pool = WorkerPool::spawn(workers.len());
        }
        self.pool.install(workers, self.skew);
        self.ledger.restart(assignment);
        Ok(())
    }
}

impl Executor for ThreadedExecutor {
    fn worker_count(&self) -> usize {
        self.pool.width()
    }

    /// Executes one command — one broadcast/reduce round on the pool.
    ///
    /// # Errors
    ///
    /// [`ExecError::WorkerDied`] when a worker panics (or its thread is
    /// lost), poisoning the executor; [`ExecError::Poisoned`] until
    /// [`Reassignable::reassign`]; [`ExecError::Op`] for a typed kernel
    /// rejection, which never poisons.
    fn execute(&mut self, op: &KernelOp, ctx: &ExecContext<'_>) -> Result<OpOutput, ExecError> {
        let mut open = self.ledger.open(op)?;
        let reduced = self.pool.run(op, ctx.models, &mut open);
        self.ledger.close(open, reduced)
    }

    fn sync_events(&self) -> u64 {
        self.ledger.sync_events()
    }

    fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        self.ledger.attach_telemetry(telemetry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::tests::{evaluate_without_tables, nop_newview, ops_with_payload_len, Fixture};
    use phylo_kernel::{KernelError, KernelStats, LikelihoodKernel, OpError};
    use phylo_models::BranchLengthMode::{Joint, PerPartition};
    use phylo_sched::{Block, Cyclic, ScheduleStrategy, WeightedLpt};

    #[test]
    fn threaded_likelihood_matches_sequential() {
        let fx = Fixture::new(10, 300, 50, 17, PerPartition);
        let reference = fx.sequential().try_log_likelihood().unwrap();
        for workers in [2usize, 4] {
            let mut k = fx.kernel(fx.executor(&fx.assign(workers, &Cyclic), Default::default()));
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
        let fx = Fixture::new(8, 160, 40, 23, PerPartition);
        let mut seq = fx.sequential();
        let branch = seq.tree().internal_branches()[0];
        let mask = seq.full_mask();
        seq.try_prepare_branch(branch, &mask).unwrap();
        let lengths: Vec<Option<f64>> = (0..seq.partition_count()).map(|_| Some(0.2)).collect();
        let expected = seq.try_branch_derivatives(&lengths).unwrap();

        // The cost-aware strategy must produce the same likelihood as any
        // other placement — results are placement-invariant by construction.
        let mut par = fx.kernel(fx.executor(&fx.assign(3, &WeightedLpt), Default::default()));
        par.try_prepare_branch(branch, &mask).unwrap();
        let got = par.try_branch_derivatives(&lengths).unwrap();
        for (a, b) in expected.iter().zip(got.iter()) {
            let (a, b) = (a.unwrap(), b.unwrap());
            assert!((a.log_likelihood - b.log_likelihood).abs() < 1e-8);
            assert!((a.first - b.first).abs() < 1e-8);
            assert!((a.second - b.second).abs() < 1e-8);
        }
    }

    /// Between regions the master is the models' sole holder: a model write
    /// after a threaded region copies nothing, and the next region reads it.
    #[test]
    fn a_model_write_after_a_region_copies_nothing() {
        let fx = Fixture::new(8, 160, 40, 101, PerPartition);
        let mut k = fx.kernel(fx.executor(&fx.assign(1, &Cyclic), Default::default()));
        let mut seq = fx.sequential();
        k.try_log_likelihood().unwrap();
        let models: *const phylo_models::ModelSet = k.models();
        k.set_alpha(0, 0.4);
        seq.set_alpha(0, 0.4);
        assert!(std::ptr::eq(models, k.models()));
        let bits = |lnl: Result<f64, KernelError>| lnl.unwrap().to_bits();
        assert_eq!(bits(k.try_log_likelihood()), bits(seq.try_log_likelihood()));
    }

    #[test]
    fn drop_shuts_down_cleanly() {
        let fx = Fixture::new(6, 64, 16, 29, Joint);
        drop(fx.executor(&fx.assign(4, &Cyclic), Default::default()));
    }

    /// The fault contract holds on real and on virtual workers alike.
    #[test]
    fn injected_panic_fires_once_on_the_scheduled_region() {
        let fx = Fixture::new(6, 64, 16, 29, Joint);
        let assignment = fx.assign(3, &Cyclic);
        // A no-op newview: harmless on fresh (empty) CLV buffers, so the only
        // possible failure is the injected one.
        let (ctx, op) = (fx.ctx(), nop_newview(fx.partitions()));
        for mut exec in fx.both(&assignment) {
            // Armed one region ahead: the next command succeeds, the one
            // after dies on worker 1, and a reassign fully clears the fault.
            exec.inject_worker_panic(1, 1);
            assert!(exec.execute(&op, &ctx).is_ok());
            let err = exec.execute(&op, &ctx).unwrap_err();
            assert_eq!(err, ExecError::WorkerDied { worker: 1 });
            let message = exec.ledger().last_panic_message();
            assert!(message.is_some_and(|m| m.contains("injected")));
            fx.reassign(exec.as_mut(), &assignment);
            assert!(exec.execute(&op, &ctx).is_ok());
        }
    }

    /// A fault armed but not yet fired belongs to the shards it was armed
    /// on: rebuilding them disarms it, on either kind of worker.
    #[test]
    fn reassign_disarms_a_fault_that_has_not_fired() {
        let fx = Fixture::new(6, 64, 16, 31, Joint);
        let assignment = fx.assign(2, &Cyclic);
        let (ctx, op) = (fx.ctx(), nop_newview(fx.partitions()));
        for mut exec in fx.both(&assignment) {
            exec.inject_worker_panic(0, 1);
            assert!(exec.execute(&op, &ctx).is_ok());
            fx.reassign(exec.as_mut(), &assignment);
            for _ in 0..3 {
                assert!(exec.execute(&op, &ctx).is_ok());
            }
            assert_eq!(exec.ledger().poisoned_by(), None);
        }
    }

    #[test]
    fn typed_kernel_rejection_does_not_poison_the_workers() {
        let fx = Fixture::new(6, 64, 16, 61, Joint);
        let mut exec = fx.executor(&fx.assign(3, &Cyclic), Default::default());
        let ctx = fx.ctx();
        // Derivatives without a sum table: every worker with patterns hits
        // the release-mode staleness guard. The rejection must cross the
        // channel as a typed value, keep the broadcast lockstep intact and
        // leave the workers unpoisoned (this used to be an assert! that
        // killed the worker thread and poisoned the executor).
        let premature = KernelOp::Derivatives {
            lengths: vec![Some(0.1); fx.partitions()],
        };
        let err = exec.execute(&premature, &ctx).unwrap_err();
        assert!(
            matches!(err, ExecError::Op(OpError::SumtableStale { .. })),
            "{err:?}"
        );
        assert_eq!(exec.ledger().poisoned_by(), None, "workers stay healthy");
        // The very next command runs on the same workers.
        assert!(exec.execute(&nop_newview(fx.partitions()), &ctx).is_ok());
        // And the lockstep survived: a full likelihood round-trip agrees
        // with the sequential reference.
        let reference = fx.sequential().try_log_likelihood().unwrap();
        let lnl = fx.kernel(exec).try_log_likelihood().unwrap();
        assert!((lnl - reference).abs() < 1e-8);
    }

    #[test]
    fn mis_sized_payloads_are_typed_rejections_that_do_not_poison() {
        // `Executor::execute` is a public seam: a mask, length list or plan
        // list — the op's own, or one riding along with it — that does not
        // have one entry per partition used to be an index panic inside the
        // worker — `WorkerDied` and a poisoned executor for what is
        // deterministic caller misuse.
        let fx = Fixture::new(6, 64, 16, 79, Joint);
        let mut exec = fx.executor(&fx.assign(3, &Cyclic), Default::default());
        let telemetry = Telemetry::new(phylo_telemetry::TelemetryConfig::default());
        exec.attach_telemetry(&telemetry);
        let ctx = fx.ctx();
        let threads = exec.pool.thread_ids();
        let partitions = fx.partitions();
        for len in [partitions - 1, partitions + 1, 0] {
            for op in ops_with_payload_len(&fx, len) {
                let rejected = ExecError::Op(OpError::MaskShape {
                    expected: partitions,
                    got: len,
                });
                assert_eq!(exec.execute(&op, &ctx).unwrap_err(), rejected, "{op:?}");
                assert_eq!(exec.ledger().poisoned_by(), None, "workers stay healthy");
            }
        }
        // The PR 5 contract: the same threads serve the next region, and no
        // region was left open.
        assert!(exec.execute(&nop_newview(partitions), &ctx).is_ok());
        assert_eq!(exec.pool.thread_ids(), threads);
        // Seven payloads at three lengths rejected and the one region
        // served, every one closed.
        let counters = telemetry.snapshot().counters;
        assert_eq!(counters.regions_started, 22);
        assert_eq!(counters.regions_started - counters.regions_completed, 0);
    }

    /// A worker death *inside* a fused region — after the traversal phase
    /// may already have overwritten CLVs — must read on the master as if the
    /// region never ran: validity and `KernelStats` untouched, so the rerun
    /// after the re-`Install` recomputes and lands on the fault-free bits.
    #[test]
    fn a_death_inside_a_fused_region_leaves_the_master_state_untouched() {
        let fx = Fixture::new(8, 160, 40, 97, PerPartition);
        let assignment = fx.assign(3, &Cyclic);
        let mut clean = fx.kernel(fx.executor(&assignment, Default::default()));
        let (root, mask) = (clean.default_root_branch(), clean.full_mask());
        let branch = clean.tree().internal_branches()[0];
        let first = vec![Some(0.2); fx.partitions()];
        let want_lnl = clean.try_log_likelihood_partitions(root, &mask).unwrap();
        let want_ders = clean.try_prepare_branch_at(branch, &mask, &first).unwrap();

        let mut k = fx.kernel(fx.executor(&assignment, Default::default()));
        // Tables are master work done before the region is issued; the
        // commands the workers completed are what must not be counted.
        let master_state = |k: &LikelihoodKernel<ThreadedExecutor>| {
            let valid: Vec<usize> = (0..k.partition_count()).map(|p| k.valid_clvs(p)).collect();
            let issued = KernelStats {
                table_builds: 0,
                table_dedup_hits: 0,
                ..k.stats()
            };
            (issued, valid)
        };
        let died = |worker| KernelError::Exec(ExecError::WorkerDied { worker });

        // Cold CLVs: the evaluate carries the full traversal.
        let before = master_state(&k);
        k.executor_mut().inject_worker_panic(1, 0);
        let err = k.try_log_likelihood_partitions(root, &mask).unwrap_err();
        assert_eq!(err, died(1));
        assert_eq!(master_state(&k), before);
        fx.reassign(k.executor_mut(), &assignment);
        k.invalidate_all();
        let lnl = k.try_log_likelihood_partitions(root, &mask).unwrap();
        let lnl_bits = |lnl: &[f64]| lnl.iter().map(|l| l.to_bits()).collect::<Vec<_>>();
        assert_eq!(lnl_bits(&lnl), lnl_bits(&want_lnl));
        assert!(k.stats().newview_node_updates > 0);

        // Rooted elsewhere: the sum table carries a partial traversal and
        // the first probe.
        let before = master_state(&k);
        k.executor_mut().inject_worker_panic(2, 0);
        let err = k.try_prepare_branch_at(branch, &mask, &first).unwrap_err();
        assert_eq!(err, died(2));
        assert_eq!(master_state(&k), before);
        fx.reassign(k.executor_mut(), &assignment);
        k.invalidate_all();
        let ders = k.try_prepare_branch_at(branch, &mask, &first).unwrap();
        assert!(k.stats().newview_node_updates > before.0.newview_node_updates);
        let bits = |ders: Vec<Option<phylo_kernel::ops::EdgeDerivatives>>| {
            let fields = |d: phylo_kernel::ops::EdgeDerivatives| {
                [d.log_likelihood, d.first, d.second].map(f64::to_bits)
            };
            ders.into_iter().map(|d| d.map(fields)).collect::<Vec<_>>()
        };
        assert_eq!(bits(ders), bits(want_ders));

        // On one worker, a death leaves every slot the region was issued
        // with unread — and, the CLVs being cold, the master's cache keeps
        // them. A model change must have its partition's slots issued anew,
        // never served, while the others are built by the rerun.
        let solo = fx.assign(1, &Cyclic);
        let mut clean = fx.kernel(fx.executor(&solo, Default::default()));
        clean.set_alpha(0, 0.4);
        let want_lnl = clean.try_log_likelihood_partitions(root, &mask).unwrap();
        let mut k = fx.kernel(fx.executor(&solo, Default::default()));
        k.executor_mut().inject_worker_panic(0, 0);
        let err = k.try_log_likelihood_partitions(root, &mask).unwrap_err();
        assert_eq!(err, died(0));
        let issued = k.stats().table_builds;
        k.set_alpha(0, 0.4);
        fx.reassign(k.executor_mut(), &solo);
        let lnl = k.try_log_likelihood_partitions(root, &mask).unwrap();
        assert_eq!(lnl_bits(&lnl), lnl_bits(&want_lnl));
        let reissued = k.stats().table_builds - issued;
        assert!(0 < reissued && reissued < issued, "{reissued} of {issued}");
    }

    #[test]
    fn timed_executor_accumulates_a_wall_clock_trace() {
        let fx = Fixture::new(8, 160, 40, 31, PerPartition);
        let options = ExecutorOptions {
            timed: true,
            skew: None,
        };
        let mut k = fx.kernel(fx.executor(&fx.assign(3, &Cyclic), options));
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
        let fx = Fixture::new(6, 64, 16, 37, Joint);
        let mut k = fx.kernel(fx.executor(&fx.assign(2, &Cyclic), Default::default()));
        let _ = k.try_log_likelihood().unwrap();
        assert_eq!(k.executor_mut().trace().sync_events(), 0);
    }

    #[test]
    fn worker_panic_surfaces_as_exec_error_and_poisons() {
        let fx = Fixture::new(6, 64, 16, 41, Joint);
        let ctx = fx.ctx();
        for mut exec in fx.both(&fx.assign(3, &Cyclic)) {
            exec.inject_worker_panic(1, 0);
            let err = exec
                .execute(&nop_newview(fx.partitions()), &ctx)
                .unwrap_err();
            assert!(matches!(err, ExecError::WorkerDied { .. }), "{err:?}");
            assert!(exec.ledger().poisoned_by().is_some());
            assert!(
                exec.ledger().last_panic_message().is_some(),
                "the caught panic message must be retained for diagnostics"
            );
            // Every further command fails fast with the poisoned state.
            let good = evaluate_without_tables(vec![true; fx.partitions()]);
            let err = exec.execute(&good, &ctx).unwrap_err();
            assert!(matches!(err, ExecError::Poisoned { .. }), "{err:?}");
            assert!(!err.to_string().is_empty());
            // Dropping a poisoned executor must not hang or panic.
            drop(exec);
        }
    }

    #[test]
    fn reassign_recovers_a_poisoned_executor() {
        let fx = Fixture::new(6, 64, 16, 43, Joint);
        let ctx = fx.ctx();
        for mut exec in fx.both(&fx.assign(2, &Cyclic)) {
            exec.inject_worker_panic(1, 0);
            assert!(exec.execute(&nop_newview(fx.partitions()), &ctx).is_err());
            assert!(exec.ledger().poisoned_by().is_some());

            fx.reassign(exec.as_mut(), &fx.assign(2, &Block));
            assert_eq!(exec.ledger().poisoned_by(), None);
            assert_eq!(exec.ledger().last_panic_message(), None);
            // A fresh executor owns empty CLV buffers, so the recovery probe
            // is a no-op newview (what the engine would issue after
            // invalidation).
            assert!(exec.execute(&nop_newview(fx.partitions()), &ctx).is_ok());
        }
    }

    #[test]
    fn reassign_reinstalls_on_the_surviving_threads() {
        let fx = Fixture::new(6, 64, 16, 67, Joint);
        let assignment = fx.assign(3, &Cyclic);
        let mut exec = fx.executor(&assignment, Default::default());
        let (ctx, nop) = (fx.ctx(), nop_newview(fx.partitions()));
        let threads = exec.pool.thread_ids();
        assert_eq!(threads.len(), 3);
        exec.inject_worker_panic(2, 0);
        assert_eq!(
            exec.execute(&nop, &ctx).unwrap_err(),
            ExecError::WorkerDied { worker: 2 }
        );
        // Recovery is a re-install: the thread that caught the panic is the
        // one that serves the next command.
        fx.reassign(&mut exec, &assignment);
        assert_eq!(exec.pool.thread_ids(), threads);
        assert!(exec.execute(&nop, &ctx).is_ok());
        // Only a width-changing assignment replaces the pool.
        fx.reassign(&mut exec, &fx.assign(4, &Cyclic));
        assert_eq!(exec.worker_count(), 4);
        assert_eq!(exec.take_trace().workers, 4);
        assert!(exec.execute(&nop, &ctx).is_ok());
    }

    #[test]
    fn reassign_migrates_ownership_with_identical_likelihood() {
        let fx = Fixture::new(8, 200, 40, 47, PerPartition);
        let mut k = fx.kernel(fx.executor(&fx.assign(3, &Cyclic), Default::default()));
        let before = k.try_log_likelihood().unwrap();

        fx.reassign(k.executor_mut(), &fx.assign(3, &WeightedLpt));
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
        let fx = Fixture::new(6, 24, 12, 53, PerPartition);
        let reference = fx.sequential().try_log_likelihood().unwrap();
        let patterns = fx.ds.patterns.total_patterns();
        let workers = patterns + 5;
        for strategy in [&Block as &dyn ScheduleStrategy, &WeightedLpt] {
            let assignment = fx.assign(workers, strategy);
            assert!(
                assignment.patterns_per_worker().contains(&0),
                "{}: with {workers} workers and {patterns} patterns some must idle",
                strategy.name()
            );
            let mut k = fx.kernel(fx.executor(&assignment, Default::default()));
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
        let fx = Fixture::new(6, 120, 30, 59, PerPartition);
        let skew = Some(WorkerSkew {
            worker: 1,
            nanos_per_pattern: 30_000,
        });
        let options = ExecutorOptions { timed: true, skew };
        let mut k = fx.kernel(fx.executor(&fx.assign(3, &Cyclic), options));
        let _ = k.try_log_likelihood().unwrap();
        let trace = k.executor_mut().take_trace();
        let totals = trace.per_worker_total_in(phylo_kernel::TraceUnit::Seconds);
        assert!(
            totals[1] > totals[0] && totals[1] > totals[2],
            "skewed worker must dominate the wall clock: {totals:?}"
        );
    }
}
