//! Measured-time feedback into the running optimizer.
//!
//! This is the end of the measurement loop the paper motivates: the analytic
//! cost model decides the *initial* schedule, a timed executor measures what
//! each worker actually costs per region, and the [`Rescheduler`] migrates
//! pattern→worker ownership mid-run when the measurement says the schedule
//! is wrong (a throttled core, a mis-ranked pattern class). Migration
//! rebuilds the executor's worker slices from the new [`Assignment`] and
//! invalidates the master-side CLV cache; the likelihood is
//! placement-invariant, so log likelihoods before and after a migration
//! agree to ≤ 1e-8 (only the reduction's summation order changes).
//!
//! [`Assignment`]: phylo_sched::Assignment

use std::sync::Arc;

use phylo_kernel::cost::WorkTrace;
use phylo_kernel::{Executor, KernelError, LikelihoodKernel};
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

/// [`OptimizationReport`] plus the migrations that happened along the way.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveOptimizationReport {
    /// The ordinary optimization outcome.
    pub report: OptimizationReport,
    /// Mid-run migrations, in execution order (empty if the policy never
    /// triggered).
    pub events: Vec<RescheduleEvent>,
    /// Worker deaths absorbed by rebuilding the workers mid-run (empty in a
    /// healthy run). When non-empty, `report` describes the final resumed
    /// attempt: its initial log likelihood and work counters start at the
    /// last recovery point, not at the original call.
    pub recoveries: Vec<WorkerRecovery>,
}

/// Entry guard shared by the adaptive drivers (model optimization here,
/// `tree_search_adaptive` in `phylo-search`): `base_costs` must describe the
/// kernel's dataset.
///
/// # Errors
///
/// [`SchedError::PatternCountMismatch`] on disagreement.
pub fn validate_base_costs<E: Executor>(
    kernel: &LikelihoodKernel<E>,
    base_costs: &PatternCosts,
) -> Result<(), SchedError> {
    if base_costs.pattern_count() != kernel.patterns().total_patterns() {
        return Err(SchedError::PatternCountMismatch {
            expected: kernel.patterns().total_patterns(),
            got: base_costs.pattern_count(),
        });
    }
    Ok(())
}

/// Exit guard shared by the adaptive drivers: a reassign resets the trace,
/// so "no events and an empty trace after a full run" can only mean the
/// executor records nothing at all — the measurement path is not enabled
/// and rescheduling could never have triggered.
///
/// # Errors
///
/// [`SchedError::NoMeasurements`] in that case.
pub fn ensure_measurements_happened<E>(
    kernel: &mut LikelihoodKernel<E>,
    events: &[RescheduleEvent],
) -> Result<(), SchedError>
where
    E: Executor + Reassignable,
{
    if events.is_empty() && kernel.executor_mut().live_trace().sync_events() == 0 {
        return Err(SchedError::NoMeasurements);
    }
    Ok(())
}

/// Checks, between rounds of any driver loop, whether the live trace
/// justifies an ownership migration — and performs it if so.
///
/// Returns `Ok(None)` when the rescheduler stays put. On migration the
/// executor is rebuilt from the new assignment, the master-side CLV cache is
/// invalidated, and the likelihood is evaluated on both sides of the move
/// for the returned event.
///
/// The caller must have validated `base_costs` against the kernel's dataset
/// (see [`optimize_model_parameters_adaptive`]); shape mismatches are
/// programming errors here.
///
/// # Errors
///
/// Propagates [`KernelError`] from the boundary likelihood evaluations.
///
/// # Panics
///
/// Panics if `base_costs` covers a different pattern count than the
/// executor's assignment (the entry points validate this).
pub fn reschedule_if_needed<E>(
    kernel: &mut LikelihoodKernel<E>,
    rescheduler: &mut Rescheduler,
    base_costs: &PatternCosts,
    round: usize,
) -> Result<Option<RescheduleEvent>, KernelError>
where
    E: Executor + Reassignable,
{
    reschedule_at_point(kernel, rescheduler, base_costs, round, false)
}

/// [`reschedule_if_needed`] for the *within-round* hook point: the decision
/// additionally records that it fired mid-round. With a mask-aware policy
/// this is where the convergence-mask shape of the branch just optimized is
/// inspected; a plain policy behaves exactly as between rounds.
///
/// # Errors
///
/// Propagates [`KernelError`] from the boundary likelihood evaluations.
///
/// # Panics
///
/// As for [`reschedule_if_needed`].
pub fn reschedule_mid_round<E>(
    kernel: &mut LikelihoodKernel<E>,
    rescheduler: &mut Rescheduler,
    base_costs: &PatternCosts,
    round: usize,
) -> Result<Option<RescheduleEvent>, KernelError>
where
    E: Executor + Reassignable,
{
    reschedule_at_point(kernel, rescheduler, base_costs, round, true)
}

fn reschedule_at_point<E>(
    kernel: &mut LikelihoodKernel<E>,
    rescheduler: &mut Rescheduler,
    base_costs: &PatternCosts,
    round: usize,
    within_round: bool,
) -> Result<Option<RescheduleEvent>, KernelError>
where
    E: Executor + Reassignable,
{
    let masked = rescheduler.policy().mask_aware;
    let ranges: Vec<std::ops::Range<usize>> = if masked {
        let patterns = kernel.patterns();
        (0..patterns.partition_count())
            .map(|p| patterns.global_range(p))
            .collect()
    } else {
        Vec::new()
    };
    let exec = kernel.executor_mut();
    let considered = if masked {
        rescheduler.consider_masked(exec.assignment(), exec.live_trace(), base_costs, &ranges)
    } else {
        rescheduler.consider(exec.assignment(), exec.live_trace(), base_costs)
    };
    let Some(decision) =
        considered.expect("trace, assignment and base costs describe the same run")
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
    rebuild_workers(kernel, &decision.assignment)
        .expect("the new assignment covers the same dataset");
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

/// Rebuilds a failed executor's workers from its *current* assignment and
/// invalidates the master-side CLV cache — the recovery half of the
/// worker-death story (the detection half is `KernelError::failed_worker`).
///
/// # Errors
///
/// Propagates [`SchedError`] if the executor rejects the rebuild (which for
/// its own current assignment indicates a programming error upstream).
pub fn recover_worker_death<E>(kernel: &mut LikelihoodKernel<E>) -> Result<(), SchedError>
where
    E: Executor + Reassignable,
{
    let assignment = kernel.executor_mut().assignment().clone();
    rebuild_workers(kernel, &assignment)
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

/// Runs `body` against the kernel, absorbing up to `max_recoveries` worker
/// deaths: on `KernelError::Exec(WorkerDied | Poisoned)` the workers are
/// rebuilt via [`recover_worker_death`] and `body` is invoked again. Because
/// every parameter update the optimizers commit lives in the master state,
/// re-entering the driver loop continues from the current parameters rather
/// than from the original starting point — though the loop structure itself
/// restarts, so in-flight work of the interrupted round is re-executed and
/// the *returned report describes the final attempt only*: its
/// `initial_log_likelihood`, round and sync-event counters start at the
/// re-entry, not at the original call (the pre-death commands are simply
/// not attributed). Shared by the adaptive drivers here and in
/// `phylo-search`.
///
/// # Errors
///
/// The first non-recoverable error from `body`, the first worker death past
/// the budget, or [`OptimizeError::Sched`] if a rebuild itself fails.
pub fn with_worker_recovery<E, T, F>(
    kernel: &mut LikelihoodKernel<E>,
    max_recoveries: usize,
    recoveries: &mut Vec<WorkerRecovery>,
    mut body: F,
) -> Result<T, OptimizeError>
where
    E: Executor + Reassignable,
    F: FnMut(&mut LikelihoodKernel<E>) -> Result<T, KernelError>,
{
    loop {
        match body(kernel) {
            Ok(value) => return Ok(value),
            Err(error) => {
                let Some(worker) = error.failed_worker() else {
                    return Err(error.into());
                };
                if recoveries.len() >= max_recoveries {
                    return Err(error.into());
                }
                recover_worker_death(kernel)?;
                let attempt = recoveries.len() + 1;
                kernel.telemetry().worker_recovery(worker, attempt);
                recoveries.push(WorkerRecovery { worker, attempt });
            }
        }
    }
}

/// [`optimize_model_parameters`] with worker-death recovery but without
/// mid-run rescheduling: up to `config.max_worker_recoveries` worker deaths
/// are absorbed by rebuilding the workers and resuming. Unlike the adaptive
/// driver this places no requirement on the executor's measurement path.
///
/// [`optimize_model_parameters`]: crate::driver::optimize_model_parameters
///
/// # Errors
///
/// [`OptimizeError::Kernel`] when the engine fails beyond the recovery
/// budget (or for a non-recoverable error), [`OptimizeError::Sched`] if a
/// recovery rebuild itself fails.
pub fn optimize_model_parameters_resilient<E>(
    kernel: &mut LikelihoodKernel<E>,
    config: &OptimizerConfig,
) -> Result<(OptimizationReport, Vec<WorkerRecovery>), OptimizeError>
where
    E: Executor + Reassignable,
{
    let mut recoveries = Vec::new();
    let report = with_worker_recovery(
        kernel,
        config.max_worker_recoveries,
        &mut recoveries,
        |kernel| optimize_model_parameters_with_hook(kernel, config, |_, _, _| Ok(())),
    )?;
    Ok((report, recoveries))
}

/// [`optimize_model_parameters`] with mid-run rescheduling: after every
/// outer round the live trace is shown to the rescheduler, and a triggered
/// decision migrates pattern→worker ownership before the next round.
///
/// [`optimize_model_parameters`]: crate::driver::optimize_model_parameters
///
/// The rescheduler is consulted after *every* round, including the last one:
/// a migration triggered at the very end still pays off because the executor
/// stays migrated for whatever the caller runs next (the warm-up pattern —
/// one short optimizer call to measure, then the real workload on the
/// corrected placement).
///
/// The driver also *recovers from worker deaths*: when the engine reports
/// `KernelError::Exec(WorkerDied | Poisoned)` and the recovery budget
/// (`config.max_worker_recoveries`) is not exhausted, the workers are
/// rebuilt from the current assignment, the CLV cache is invalidated, and
/// the driver loop re-enters — resuming with every parameter update
/// committed before the death.
///
/// # Errors
///
/// [`OptimizeError::Sched`] with [`SchedError::PatternCountMismatch`] if
/// `base_costs` covers a different number of patterns than the kernel's
/// dataset, or with [`SchedError::NoMeasurements`] if the run finished
/// without the executor recording a single trace region (the measurement
/// path is not enabled, so rescheduling could never have triggered);
/// [`OptimizeError::Kernel`] when the engine fails beyond the recovery
/// budget.
pub fn optimize_model_parameters_adaptive<E>(
    kernel: &mut LikelihoodKernel<E>,
    config: &OptimizerConfig,
    rescheduler: &mut Rescheduler,
    base_costs: &PatternCosts,
) -> Result<AdaptiveOptimizationReport, OptimizeError>
where
    E: Executor + Reassignable,
{
    validate_base_costs(kernel, base_costs)?;
    let mask_aware = rescheduler.policy().mask_aware;
    let mut events = Vec::new();
    let mut recoveries = Vec::new();
    let report = with_worker_recovery(
        kernel,
        config.max_worker_recoveries,
        &mut recoveries,
        |kernel| {
            optimize_model_parameters_with_hook(kernel, config, |kernel, round, point| {
                // The within-round point fires after every branch; only a
                // mask-aware policy has anything to gain from it.
                let event = match point {
                    HookPoint::WithinRound if !mask_aware => None,
                    HookPoint::WithinRound => {
                        reschedule_mid_round(kernel, rescheduler, base_costs, round)?
                    }
                    HookPoint::RoundEnd => {
                        reschedule_if_needed(kernel, rescheduler, base_costs, round)?
                    }
                };
                if let Some(event) = event {
                    events.push(event);
                }
                Ok(())
            })
        },
    )?;
    ensure_measurements_happened(kernel, &events)?;
    Ok(AdaptiveOptimizationReport {
        report,
        events,
        recoveries,
    })
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
        let costs = PatternCosts::analytic_tabled(&ds.patterns, &cats);
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
            mask_decay: 0.85,
        });
        let adaptive =
            optimize_model_parameters_adaptive(&mut kernel, &config, &mut rescheduler, &costs)
                .unwrap();
        assert!(adaptive.events.is_empty());
        assert!(
            (adaptive.report.final_log_likelihood - expected.final_log_likelihood).abs() < 1e-8
        );
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
            mask_decay: 0.85,
        });
        let adaptive =
            optimize_model_parameters_adaptive(&mut kernel, &config, &mut rescheduler, &costs)
                .unwrap();
        assert_eq!(adaptive.events.len(), 1, "policy must trigger once");
        let event = &adaptive.events[0];
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
        let costs = PatternCosts::analytic_tabled(&ds.patterns, &cats);
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
            optimize_model_parameters_adaptive(&mut kernel, &config, &mut rescheduler, &costs)
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
            optimize_model_parameters_adaptive(
                &mut kernel,
                &OptimizerConfig::default(),
                &mut rescheduler,
                &bad
            )
            .unwrap_err(),
            OptimizeError::Sched(SchedError::PatternCountMismatch { .. })
        ));
    }
}
