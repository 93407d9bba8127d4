//! The run policy: worker-death recovery and measured-time rescheduling,
//! wrapped once around any driver loop.
//!
//! [`RunPolicy::run`] is the only place that knows how a run survives a
//! worker death and how live measurements feed back into the schedule; the
//! model optimizer here and the tree search in `phylo-search` are both the
//! plain loop handed to it. A policy without a rescheduler is the
//! "resilient" run.
//!
//! Rescheduling is the end of the measurement loop the paper motivates: the
//! analytic cost model decides the *initial* schedule, a timed executor
//! measures what each worker actually costs per region, and the
//! [`Rescheduler`] migrates pattern→worker ownership mid-run when the
//! measurement says the schedule is wrong (a throttled core, a mis-ranked
//! pattern class). Migration rebuilds the executor's worker slices from the
//! new [`Assignment`] and invalidates the master-side CLV cache; the
//! likelihood is placement-invariant, so log likelihoods before and after a
//! migration agree to ≤ 1e-8 (only the reduction's summation order changes).
//!
//! [`Assignment`]: phylo_sched::Assignment

use std::sync::Arc;

use phylo_kernel::cost::WorkTrace;
use phylo_kernel::{Executor, LikelihoodKernel};
use phylo_sched::{PatternCosts, Reassignable, Rescheduler, SchedError};

use crate::config::OptimizerConfig;
use crate::driver::{optimize_model_parameters_with_hook, HookPoint, OptimizationReport};
use crate::error::OptimizeError;

/// One mid-run ownership migration.
#[derive(Debug, Clone, PartialEq)]
pub struct RescheduleEvent {
    /// Outer optimization round the migration happened in (1-based).
    pub round: usize,
    /// Whether the migration fired *within* the round (a mask-aware
    /// rescheduler reacting to the convergence-mask shape between branches)
    /// rather than at the between-rounds point.
    pub within_round: bool,
    /// Measured per-worker imbalance (max/mean) that triggered it — the
    /// whole-epoch total for the plain policy, the recent-window live
    /// imbalance for a mask-aware one.
    pub measured_imbalance: f64,
    /// Predicted imbalance of the new assignment under the base cost model.
    pub predicted_imbalance: f64,
    /// Estimated per-worker speeds the new schedule packs against.
    pub speeds: Vec<f64>,
    /// Log likelihood evaluated immediately before the migration.
    pub log_likelihood_before: f64,
    /// Log likelihood evaluated immediately after (must agree to ≤ 1e-8).
    pub log_likelihood_after: f64,
    /// The measured trace of the epoch that ended at this migration
    /// (rebuilding the workers restarts the trace, so it is captured here —
    /// a full run's measurements are the events' epoch traces plus the
    /// executor's live trace at the end).
    pub epoch_trace: WorkTrace,
}

impl RescheduleEvent {
    /// Absolute log-likelihood drift across the migration.
    pub fn log_likelihood_drift(&self) -> f64 {
        (self.log_likelihood_after - self.log_likelihood_before).abs()
    }
}

/// One absorbed worker death: the driver rebuilt the workers from the
/// current assignment, invalidated the master-side CLV cache and resumed.
/// All parameter updates committed before the death live in the master
/// state, so nothing optimized so far is lost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerRecovery {
    /// The worker whose death was absorbed.
    pub worker: usize,
    /// 1-based recovery attempt within the run.
    pub attempt: usize,
}

/// How a driver loop is run: how many worker deaths it may absorb and
/// whether live measurements may migrate pattern→worker ownership mid-run.
#[derive(Debug)]
pub struct RunPolicy<'a> {
    /// How many worker deaths the run may absorb by rebuilding the workers
    /// from the current assignment and re-entering the loop; the next death
    /// past the budget is reported as an error.
    pub max_recoveries: usize,
    /// Mid-run rescheduling: the rescheduler shown the live trace at the
    /// loop's hook points, and the per-pattern cost model its repacks
    /// balance (it must cover the kernel's dataset). `None` runs the static
    /// schedule and places no requirement on the executor's measurement
    /// path.
    pub rescheduler: Option<(&'a mut Rescheduler, &'a PatternCosts)>,
}

impl Default for RunPolicy<'_> {
    /// Two recoveries, no rescheduling.
    fn default() -> Self {
        Self {
            max_recoveries: 2,
            rescheduler: None,
        }
    }
}

/// What a driver loop returned under a [`RunPolicy`], plus what the policy
/// did along the way.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyRun<R> {
    /// The loop's own outcome (an [`OptimizationReport`], a search result).
    /// After a recovery it describes the final resumed attempt: its initial
    /// log likelihood and work counters start at the last recovery point,
    /// not at the original call.
    pub report: R,
    /// Mid-run migrations, in execution order (empty without a rescheduler
    /// or if its policy never triggered).
    pub events: Vec<RescheduleEvent>,
    /// Worker deaths absorbed by rebuilding the workers mid-run (empty in a
    /// healthy run).
    pub recoveries: Vec<WorkerRecovery>,
}

/// The callback [`RunPolicy::run`] hands the driver loop, to be invoked with
/// the 1-based round at the loop's two [`HookPoint`]s.
pub type DriverHook<'h, E> =
    dyn FnMut(&mut LikelihoodKernel<E>, usize, HookPoint) -> Result<(), OptimizeError> + 'h;

impl<'a> RunPolicy<'a> {
    /// The default recovery budget plus mid-run rescheduling.
    pub fn rescheduling(rescheduler: &'a mut Rescheduler, base_costs: &'a PatternCosts) -> Self {
        Self {
            rescheduler: Some((rescheduler, base_costs)),
            ..Self::default()
        }
    }

    /// Runs `body` — a driver loop that fires the hook it is handed at its
    /// [`HookPoint`]s — against the kernel under this policy.
    ///
    /// *Recovery.* On `KernelError::Exec(WorkerDied | Poisoned)` with budget
    /// left, the workers are rebuilt from the current assignment, the
    /// master-side CLV cache is invalidated and `body` is invoked again.
    /// Every parameter update the optimizers commit lives in the master
    /// state, so re-entering continues from the current parameters and tree
    /// — though the loop structure itself restarts, so in-flight work of the
    /// interrupted round is re-executed and the returned report describes
    /// the final attempt only.
    ///
    /// *Rescheduling.* With a rescheduler, the live trace is shown to it at
    /// [`HookPoint::RoundEnd`] — after every round including the last one: a
    /// migration triggered at the very end still pays off because the
    /// executor stays migrated for whatever the caller runs next (the
    /// warm-up pattern) — and, for a mask-aware policy, at
    /// [`HookPoint::WithinRound`]. A positive decision rebuilds the workers
    /// under the new assignment and evaluates the likelihood on both sides
    /// of the move for the returned [`RescheduleEvent`].
    ///
    /// # Errors
    ///
    /// [`OptimizeError::Sched`] with [`SchedError::PatternCountMismatch`] if
    /// the rescheduler's base costs cover a different number of patterns
    /// than the kernel's dataset, with [`SchedError::NoMeasurements`] if a
    /// rescheduling run finished without the executor recording a single
    /// trace region (the measurement path is not enabled, so rescheduling
    /// could never have triggered), or with whatever a rebuild or the
    /// rescheduler itself rejects; [`OptimizeError::Kernel`] for the first
    /// non-recoverable engine error or the first worker death past the
    /// budget.
    pub fn run<E, R, F>(
        self,
        kernel: &mut LikelihoodKernel<E>,
        mut body: F,
    ) -> Result<PolicyRun<R>, OptimizeError>
    where
        E: Executor + Reassignable,
        F: FnMut(&mut LikelihoodKernel<E>, &mut DriverHook<'_, E>) -> Result<R, OptimizeError>,
    {
        let Self {
            max_recoveries,
            mut rescheduler,
        } = self;
        if let Some((_, base_costs)) = &rescheduler {
            let expected = kernel.patterns().total_patterns();
            if base_costs.pattern_count() != expected {
                return Err(OptimizeError::Sched(SchedError::PatternCountMismatch {
                    expected,
                    got: base_costs.pattern_count(),
                }));
            }
        }
        let mut events = Vec::new();
        let mut recoveries = Vec::new();

        let mut hook = |kernel: &mut LikelihoodKernel<E>,
                        round: usize,
                        point: HookPoint|
         -> Result<(), OptimizeError> {
            let Some((rescheduler, base_costs)) = rescheduler.as_mut() else {
                return Ok(());
            };
            // The within-round point fires after every branch; only a
            // mask-aware policy has anything to gain from it.
            let within_round = point == HookPoint::WithinRound;
            if within_round && !rescheduler.policy().mask_aware {
                return Ok(());
            }
            events.extend(reschedule(
                kernel,
                rescheduler,
                base_costs,
                round,
                within_round,
            )?);
            Ok(())
        };
        let report = loop {
            let error = match body(kernel, &mut hook) {
                Ok(report) => break report,
                Err(error) => error,
            };
            let died = match &error {
                OptimizeError::Kernel(e) => e.failed_worker(),
                OptimizeError::Sched(_) => None,
            };
            let Some(worker) = died.filter(|_| recoveries.len() < max_recoveries) else {
                return Err(error);
            };
            let assignment = kernel.executor_mut().assignment().clone();
            rebuild_workers(kernel, &assignment)?;
            let attempt = recoveries.len() + 1;
            kernel.telemetry().worker_recovery(worker, attempt);
            recoveries.push(WorkerRecovery { worker, attempt });
        };

        // A reassign resets the trace, so "no events and an empty trace
        // after a full run" can only mean the executor records nothing at
        // all.
        if rescheduler.is_some()
            && events.is_empty()
            && kernel.executor_mut().live_trace().sync_events() == 0
        {
            return Err(OptimizeError::Sched(SchedError::NoMeasurements));
        }
        Ok(PolicyRun {
            report,
            events,
            recoveries,
        })
    }
}

/// Shows the live trace to the rescheduler and performs the migration it
/// decides on, if any.
fn reschedule<E>(
    kernel: &mut LikelihoodKernel<E>,
    rescheduler: &mut Rescheduler,
    base_costs: &PatternCosts,
    round: usize,
    within_round: bool,
) -> Result<Option<RescheduleEvent>, OptimizeError>
where
    E: Executor + Reassignable,
{
    let patterns = kernel.patterns();
    let ranges: Vec<std::ops::Range<usize>> = (0..patterns.partition_count())
        .map(|p| patterns.global_range(p))
        .collect();
    let exec = kernel.executor_mut();
    let Some(decision) =
        rescheduler.consider(exec.assignment(), exec.live_trace(), base_costs, &ranges)?
    else {
        return Ok(None);
    };

    let log_likelihood_before = kernel.try_log_likelihood()?;
    kernel.telemetry().reschedule(
        round,
        within_round,
        decision.measured_imbalance,
        decision.assignment.imbalance(),
    );
    // Rebuilding the workers restarts the trace epoch; keep the old epoch's
    // measurements with the event so full-run statistics survive migrations.
    let epoch_trace = kernel.executor_mut().take_trace();
    rebuild_workers(kernel, &decision.assignment)?;
    let log_likelihood_after = kernel.try_log_likelihood()?;

    Ok(Some(RescheduleEvent {
        round,
        within_round,
        measured_imbalance: decision.measured_imbalance,
        predicted_imbalance: decision.assignment.imbalance(),
        speeds: decision.speeds,
        log_likelihood_before,
        log_likelihood_after,
        epoch_trace,
    }))
}

/// The one rebuild sequence both migration and recovery go through: respawn
/// the executor's workers under `assignment` and invalidate the master-side
/// CLV cache (the rebuilt workers own fresh, empty CLV buffers).
fn rebuild_workers<E>(
    kernel: &mut LikelihoodKernel<E>,
    assignment: &phylo_sched::Assignment,
) -> Result<(), SchedError>
where
    E: Executor + Reassignable,
{
    let patterns = Arc::clone(kernel.patterns());
    let node_capacity = kernel.tree().node_capacity();
    let categories: Vec<usize> = kernel
        .models()
        .models()
        .iter()
        .map(|m| m.categories())
        .collect();
    kernel
        .executor_mut()
        .reassign(&patterns, assignment, node_capacity, &categories)?;
    kernel.invalidate_all();
    Ok(())
}

/// [`optimize_model_parameters`] under a [`RunPolicy`]: worker deaths are
/// absorbed up to the policy's budget, and with a rescheduler the live trace
/// migrates pattern→worker ownership after every branch (mask-aware) or
/// round.
///
/// [`optimize_model_parameters`]: crate::driver::optimize_model_parameters
///
/// # Errors
///
/// As for [`RunPolicy::run`].
pub fn optimize_model_parameters_with_policy<E>(
    kernel: &mut LikelihoodKernel<E>,
    config: &OptimizerConfig,
    policy: RunPolicy<'_>,
) -> Result<PolicyRun<OptimizationReport>, OptimizeError>
where
    E: Executor + Reassignable,
{
    policy.run(kernel, |kernel, hook| {
        optimize_model_parameters_with_hook(kernel, config, hook)
    })
}

/// [`optimize_model_parameters_with_policy`] under [`RunPolicy::default`]
/// (two recoveries, no rescheduling). `benchmark/src/fleet.rs` and
/// `phylo-serve` name this entry, so it keeps its signature.
///
/// # Errors
///
/// As for [`RunPolicy::run`].
pub fn optimize_model_parameters_resilient<E>(
    kernel: &mut LikelihoodKernel<E>,
    config: &OptimizerConfig,
) -> Result<(OptimizationReport, Vec<WorkerRecovery>), OptimizeError>
where
    E: Executor + Reassignable,
{
    let run = optimize_model_parameters_with_policy(kernel, config, RunPolicy::default())?;
    Ok((run.report, run.recoveries))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ParallelScheme;
    use phylo_kernel::cost::TraceUnit;
    use phylo_models::{BranchLengthMode, ModelSet};
    use phylo_parallel::{schedule, Cyclic, TracingExecutor};
    use phylo_sched::ReschedulePolicy;
    use phylo_seqgen::datasets::mixed_dna_protein;

    fn tracing_kernel(
        ds: &phylo_seqgen::GeneratedDataset,
        workers: usize,
    ) -> (LikelihoodKernel<TracingExecutor>, PatternCosts) {
        let models = ModelSet::default_for(&ds.patterns, BranchLengthMode::PerPartition);
        let cats: Vec<usize> = models.models().iter().map(|m| m.categories()).collect();
        let costs = PatternCosts::analytic(&ds.patterns, &cats);
        let assignment = schedule(&ds.patterns, &cats, workers, &Cyclic).unwrap();
        let exec = TracingExecutor::from_assignment(
            &ds.patterns,
            &assignment,
            ds.tree.node_capacity(),
            &cats,
        )
        .unwrap();
        (
            LikelihoodKernel::try_new(Arc::clone(&ds.patterns), ds.tree.clone(), models, exec)
                .unwrap(),
            costs,
        )
    }

    #[test]
    fn adaptive_run_matches_plain_run_when_policy_never_triggers() {
        let ds = mixed_dna_protein(6, 4, 2, 40, 71).generate();
        let (mut plain, _) = tracing_kernel(&ds, 3);
        let config = OptimizerConfig::new(ParallelScheme::New);
        let expected = crate::driver::optimize_model_parameters(&mut plain, &config).unwrap();

        let (mut kernel, costs) = tracing_kernel(&ds, 3);
        // An unreachable threshold: the rescheduler must never act.
        let mut rescheduler = Rescheduler::new(ReschedulePolicy {
            imbalance_threshold: f64::MAX,
            min_regions: 1,
            unit: TraceUnit::Flops,
            max_reschedules: 8,
            mask_aware: false,
        });
        let adaptive = optimize_model_parameters_with_policy(
            &mut kernel,
            &config,
            RunPolicy::rescheduling(&mut rescheduler, &costs),
        )
        .unwrap();
        assert!(adaptive.events.is_empty());
        assert!(
            (adaptive.report.final_log_likelihood - expected.final_log_likelihood).abs() < 1e-8
        );

        // Without a rescheduler the policy is the plain driver plus a
        // recovery loop that never fires: same bits, same commands.
        let (mut kernel, _) = tracing_kernel(&ds, 3);
        let resilient =
            optimize_model_parameters_with_policy(&mut kernel, &config, RunPolicy::default())
                .unwrap();
        assert_eq!(
            resilient.report.final_log_likelihood.to_bits(),
            expected.final_log_likelihood.to_bits()
        );
        assert_eq!(resilient.report.sync_events, expected.sync_events);
        assert!(resilient.events.is_empty() && resilient.recoveries.is_empty());
    }

    #[test]
    fn triggered_migration_preserves_the_likelihood() {
        // 7 virtual workers over 80-pattern partitions: the cyclic shares
        // are uneven (80 = 7·11 + 3), so the measured FLOP imbalance is
        // real and a low threshold triggers an actual migration.
        let ds = mixed_dna_protein(6, 4, 2, 80, 73).generate();
        let (mut kernel, costs) = tracing_kernel(&ds, 7);
        let config = OptimizerConfig {
            scheme: ParallelScheme::Old,
            max_rounds: 2,
            likelihood_epsilon: 1e-9,
            ..OptimizerConfig::default()
        };
        let mut rescheduler = Rescheduler::new(ReschedulePolicy {
            imbalance_threshold: 1.0001,
            min_regions: 8,
            unit: TraceUnit::Flops,
            max_reschedules: 1,
            mask_aware: false,
        });
        let adaptive = optimize_model_parameters_with_policy(
            &mut kernel,
            &config,
            RunPolicy::rescheduling(&mut rescheduler, &costs),
        )
        .unwrap();
        assert_eq!(adaptive.events.len(), 1, "policy must trigger once");
        let event = &adaptive.events[0];
        assert_eq!((event.round, event.within_round), (1, false));
        assert!(
            event.log_likelihood_drift() < 1e-8,
            "migration changed the likelihood by {}",
            event.log_likelihood_drift()
        );
        assert!(event.measured_imbalance > 1.0001);
        assert_eq!(kernel.executor_mut().assignment().strategy(), "speed-lpt");
    }

    #[test]
    fn an_untimed_executor_is_rejected_instead_of_silently_not_adapting() {
        use phylo_parallel::ThreadedExecutor;

        let ds = mixed_dna_protein(6, 4, 2, 40, 83).generate();
        let models = ModelSet::default_for(&ds.patterns, BranchLengthMode::PerPartition);
        let cats: Vec<usize> = models.models().iter().map(|m| m.categories()).collect();
        let costs = PatternCosts::analytic(&ds.patterns, &cats);
        let assignment = schedule(&ds.patterns, &cats, 2, &Cyclic).unwrap();
        // Default options: timed == false, so the executor records nothing.
        let exec = ThreadedExecutor::from_assignment(
            &ds.patterns,
            &assignment,
            ds.tree.node_capacity(),
            &cats,
        )
        .unwrap();
        let mut kernel =
            LikelihoodKernel::try_new(Arc::clone(&ds.patterns), ds.tree.clone(), models, exec)
                .unwrap();
        let mut rescheduler = Rescheduler::new(ReschedulePolicy::default());
        let config = OptimizerConfig {
            max_rounds: 1,
            ..OptimizerConfig::default()
        };
        assert_eq!(
            optimize_model_parameters_with_policy(
                &mut kernel,
                &config,
                RunPolicy::rescheduling(&mut rescheduler, &costs)
            )
            .unwrap_err(),
            OptimizeError::Sched(SchedError::NoMeasurements)
        );
    }

    #[test]
    fn mismatched_base_costs_are_rejected() {
        let ds = mixed_dna_protein(6, 4, 2, 40, 79).generate();
        let (mut kernel, _) = tracing_kernel(&ds, 3);
        let mut rescheduler = Rescheduler::new(ReschedulePolicy::default());
        let bad = PatternCosts::uniform(3);
        assert!(matches!(
            optimize_model_parameters_with_policy(
                &mut kernel,
                &OptimizerConfig::default(),
                RunPolicy::rescheduling(&mut rescheduler, &bad)
            )
            .unwrap_err(),
            OptimizeError::Sched(SchedError::PatternCountMismatch { .. })
        ));
    }
}
