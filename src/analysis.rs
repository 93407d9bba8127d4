//! One-stop analysis sessions: [`Analysis`] and [`AnalysisBuilder`].
//!
//! Every entry point used to hand-assemble the same chain — dataset spec →
//! patterns → models → Γ categories → schedule → executor → kernel → driver —
//! before any likelihood work could start. [`Analysis::builder`] collapses
//! that boilerplate onto one audited, *fallible* path:
//!
//! ```
//! use plf_loadbalance::prelude::*;
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), AnalysisError> {
//! let dataset = paper_simulated(8, 200, 50, 42).generate();
//! let mut analysis = Analysis::builder(Arc::clone(&dataset.patterns), dataset.tree.clone())
//!     .threads(2)
//!     .strategy(WeightedLpt)
//!     .timed(true)
//!     .build()?;
//! let report = analysis.optimize(&OptimizerConfig::new(ParallelScheme::New))?;
//! assert!(report.report.final_log_likelihood > report.report.initial_log_likelihood);
//! println!("{}", analysis.imbalance_report_in(TraceUnit::Seconds).format());
//! # Ok(())
//! # }
//! ```
//!
//! Builder misuse is a typed [`AnalysisError`], not a panic: zero threads,
//! a model set covering the wrong number of partitions, or a tree whose taxa
//! do not match the alignment all come back as values. Both
//! [`Analysis::optimize`] and [`Analysis::run_search`] run under the
//! session's one [`RunPolicy`]: worker deaths are *recovered* (up to the
//! default budget) by rebuilding the workers through the [`Reassignable`]
//! capability; configure a [`ReschedulePolicy`] to also migrate
//! pattern→worker ownership mid-run from live wall-clock measurements.

use std::sync::Arc;

use phylo_data::PartitionedPatterns;
use phylo_kernel::cost::TraceUnit;
use phylo_kernel::{Executor, KernelError, LikelihoodKernel, WorkTrace};
use phylo_models::ModelSet;
use phylo_optimize::{
    optimize_model_parameters_with_policy, OptimizationReport, OptimizeError, OptimizerConfig,
    PolicyRun, RunPolicy,
};
use phylo_parallel::{plan, ExecutorOptions, Plan, ThreadedExecutor, TracingExecutor, WorkerSkew};
use phylo_perfmodel::{imbalance_report_in, ImbalanceReport};
use phylo_sched::{
    Assignment, PatternCosts, Reassignable, ReschedulePolicy, Rescheduler, SchedError,
    ScheduleStrategy, WeightedLpt,
};
use phylo_search::{tree_search_with_policy, SearchConfig, SearchResult};
use phylo_telemetry::{Telemetry, TelemetryConfig, TelemetrySnapshot};
use phylo_tree::Tree;

/// Why an analysis session could not be built or run.
#[derive(Debug, Clone, PartialEq)]
pub enum AnalysisError {
    /// The likelihood engine failed (mismatched parts at build time, or an
    /// execution failure beyond the worker-recovery budget at run time).
    Kernel(KernelError),
    /// The scheduling layer rejected an input (zero threads, mismatched
    /// costs, a skew naming a worker outside the thread range, …).
    Sched(SchedError),
}

impl From<KernelError> for AnalysisError {
    fn from(e: KernelError) -> Self {
        AnalysisError::Kernel(e)
    }
}

impl From<SchedError> for AnalysisError {
    fn from(e: SchedError) -> Self {
        AnalysisError::Sched(e)
    }
}

impl From<OptimizeError> for AnalysisError {
    fn from(e: OptimizeError) -> Self {
        match e {
            OptimizeError::Kernel(e) => AnalysisError::Kernel(e),
            OptimizeError::Sched(e) => AnalysisError::Sched(e),
        }
    }
}

impl std::fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Kernel(e) => write!(f, "{e}"),
            Self::Sched(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for AnalysisError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Kernel(e) => Some(e),
            Self::Sched(e) => Some(e),
        }
    }
}

/// Configures and builds an [`Analysis`]; created by [`Analysis::builder`].
pub struct AnalysisBuilder {
    patterns: Arc<PartitionedPatterns>,
    tree: Tree,
    models: Option<ModelSet>,
    threads: usize,
    strategy: Box<dyn ScheduleStrategy>,
    timed: bool,
    skew: Option<WorkerSkew>,
    policy: Option<ReschedulePolicy>,
    telemetry: Option<TelemetryConfig>,
}

impl std::fmt::Debug for AnalysisBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AnalysisBuilder")
            .field("threads", &self.threads)
            .field("strategy", &self.strategy.name())
            .field("timed", &self.timed)
            .field("rescheduler", &self.policy.is_some())
            .field("telemetry", &self.telemetry.is_some())
            .finish()
    }
}

impl AnalysisBuilder {
    /// Explicit per-partition models. Without this call the builder uses
    /// [`ModelSet::default_for`] with per-partition branch lengths, the model
    /// the paper argues for; pass `ModelSet::default_for(.., Joint)` for
    /// joint ones.
    #[must_use]
    pub fn models(mut self, models: ModelSet) -> Self {
        self.models = Some(models);
        self
    }

    /// Number of worker threads (default 1). Zero is a typed error at
    /// [`AnalysisBuilder::build`] time, not a panic.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Pattern→worker scheduling strategy (default [`WeightedLpt`], the
    /// cost-aware packing).
    #[must_use]
    pub fn strategy(mut self, strategy: impl ScheduleStrategy + 'static) -> Self {
        self.strategy = Box::new(strategy);
        self
    }

    /// Accumulate per-region wall-clock measurements into a [`WorkTrace`]
    /// (default off; forced on when a rescheduling policy is configured,
    /// because the policy decides from that trace).
    #[must_use]
    pub fn timed(mut self, timed: bool) -> Self {
        self.timed = timed;
        self
    }

    /// Artificially slow one worker (experiments; see [`WorkerSkew`]).
    /// Ignored by [`AnalysisBuilder::build_traced`], whose virtual workers
    /// have no wall clock to skew.
    #[must_use]
    pub fn skew(mut self, skew: WorkerSkew) -> Self {
        self.skew = Some(skew);
        self
    }

    /// Enable mid-run rescheduling under `policy`: during
    /// [`Analysis::optimize`] and [`Analysis::run_search`] the live trace is
    /// watched and pattern→worker ownership migrates when the measured
    /// imbalance crosses the policy's threshold; a
    /// [`ReschedulePolicy::mask_aware`] policy additionally reacts to the
    /// convergence-mask shape *within* a driver round. Implies
    /// [`AnalysisBuilder::timed`].
    #[must_use]
    pub fn rescheduler(mut self, policy: ReschedulePolicy) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Enable telemetry recording under `config`: the kernel, the executors
    /// and the drivers emit typed events (region timings, cache counters,
    /// reschedules, worker deaths/recoveries, optimizer probes) into a
    /// low-overhead recorder, and [`Analysis::telemetry_snapshot`] exposes
    /// the derived counters, histograms and event log. Default: off, with
    /// zero cost on the hot paths (a disabled handle is one `Option` check).
    #[must_use]
    pub fn telemetry(mut self, config: TelemetryConfig) -> Self {
        self.telemetry = Some(config);
        self
    }

    /// Builds the session on real worker threads ([`ThreadedExecutor`]).
    ///
    /// # Errors
    ///
    /// [`AnalysisError::Sched`] for zero threads, an empty dataset or an
    /// out-of-range skew; [`AnalysisError::Kernel`] for mismatched models,
    /// taxa or an incomplete tree.
    pub fn build(self) -> Result<Analysis<ThreadedExecutor>, AnalysisError> {
        let options = ExecutorOptions {
            timed: self.timed || self.policy.is_some(),
            skew: self.skew,
        };
        self.finish(|patterns, assignment, nodes, categories| {
            ThreadedExecutor::with_options(patterns, assignment, nodes, categories, options)
        })
    }

    /// Builds the session on *virtual* workers ([`TracingExecutor`]): every
    /// command executes sequentially while the per-worker FLOPs and seconds
    /// of each parallel region are recorded — the executor behind the
    /// paper's figure reproductions, useful to study an N-thread schedule on
    /// any host. A configured [`AnalysisBuilder::skew`] is ignored.
    ///
    /// # Errors
    ///
    /// As for [`AnalysisBuilder::build`].
    pub fn build_traced(self) -> Result<Analysis<TracingExecutor>, AnalysisError> {
        self.finish(TracingExecutor::from_assignment)
    }

    /// The one build path: [`plan`], then `executor` over its assignment,
    /// the kernel and the telemetry handle.
    fn finish<E, X>(self, executor: X) -> Result<Analysis<E>, AnalysisError>
    where
        E: Executor + Reassignable,
        X: FnOnce(&PartitionedPatterns, &Assignment, usize, &[usize]) -> Result<E, SchedError>,
    {
        let Plan {
            models,
            categories,
            costs,
            assignment,
        } = plan::<AnalysisError>(&self.patterns, self.models, &*self.strategy, self.threads)?;
        let nodes = self.tree.node_capacity();
        let executor = executor(&self.patterns, &assignment, nodes, &categories)?;
        let mut kernel = LikelihoodKernel::try_new(self.patterns, self.tree, models, executor)?;
        let telemetry = self
            .telemetry
            .map_or_else(Telemetry::disabled, Telemetry::new);
        kernel.set_telemetry(&telemetry);
        Ok(Analysis {
            kernel,
            base_costs: costs,
            policy: self.policy,
            telemetry,
        })
    }
}

/// A ready-to-run analysis session: the likelihood kernel, its schedule and
/// the (optional) rescheduling policy behind one façade.
///
/// Built by [`Analysis::builder`]; see the [module docs](self) for the
/// one-stop example. The executor type is a parameter so the same session
/// API drives real threads ([`ThreadedExecutor`], via
/// [`AnalysisBuilder::build`]) and virtual traced workers
/// ([`TracingExecutor`], via [`AnalysisBuilder::build_traced`]).
#[derive(Debug)]
pub struct Analysis<E: Executor + Reassignable> {
    kernel: LikelihoodKernel<E>,
    base_costs: PatternCosts,
    policy: Option<ReschedulePolicy>,
    telemetry: Telemetry,
}

impl Analysis<ThreadedExecutor> {
    /// Starts configuring an analysis of `patterns` on `tree`; finish with
    /// [`AnalysisBuilder::build`] (real threads) or
    /// [`AnalysisBuilder::build_traced`] (virtual traced workers).
    pub fn builder(patterns: Arc<PartitionedPatterns>, tree: Tree) -> AnalysisBuilder {
        AnalysisBuilder {
            patterns,
            tree,
            models: None,
            threads: 1,
            strategy: Box::new(WeightedLpt),
            timed: false,
            skew: None,
            policy: None,
            telemetry: None,
        }
    }
}

impl<E: Executor + Reassignable> Analysis<E> {
    /// Total log likelihood of the current tree and parameters.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::Kernel`] when the execution backend fails.
    pub fn log_likelihood(&mut self) -> Result<f64, AnalysisError> {
        Ok(self.kernel.try_log_likelihood()?)
    }

    /// Optimizes all model parameters (α, rates, branch lengths) on the
    /// fixed current topology under the session's [`RunPolicy`]: worker
    /// deaths are recovered up to the default budget; with a configured
    /// [`AnalysisBuilder::rescheduler`] policy, pattern→worker ownership
    /// additionally migrates mid-run when the live measurements justify it
    /// (reported in the returned `events`).
    ///
    /// # Errors
    ///
    /// [`AnalysisError::Kernel`] when the engine fails beyond the recovery
    /// budget; [`AnalysisError::Sched`] when the rescheduling policy is
    /// configured but the executor records no measurements.
    pub fn optimize(
        &mut self,
        config: &OptimizerConfig,
    ) -> Result<PolicyRun<OptimizationReport>, AnalysisError> {
        self.run_policy(|kernel, policy| {
            optimize_model_parameters_with_policy(kernel, config, policy)
        })
    }

    /// Runs the SPR hill-climbing tree search from the session's current
    /// tree, with the same recovery and rescheduling behaviour as
    /// [`Analysis::optimize`].
    ///
    /// # Errors
    ///
    /// As for [`Analysis::optimize`].
    pub fn run_search(
        &mut self,
        config: &SearchConfig,
    ) -> Result<PolicyRun<SearchResult>, AnalysisError> {
        self.run_policy(|kernel, policy| tree_search_with_policy(kernel, config, policy))
    }

    /// Hands `driver` the kernel and the session's one [`RunPolicy`]: the
    /// default recovery budget plus, if configured, a fresh rescheduler over
    /// the schedule's base costs.
    fn run_policy<R>(
        &mut self,
        driver: impl FnOnce(
            &mut LikelihoodKernel<E>,
            RunPolicy<'_>,
        ) -> Result<PolicyRun<R>, OptimizeError>,
    ) -> Result<PolicyRun<R>, AnalysisError> {
        let mut rescheduler = self
            .policy
            .map(|policy| Rescheduler::with_telemetry(policy, &self.telemetry));
        let policy = RunPolicy {
            rescheduler: rescheduler.as_mut().map(|r| (r, &self.base_costs)),
            ..RunPolicy::default()
        };
        Ok(driver(&mut self.kernel, policy)?)
    }

    /// The session's telemetry handle (disabled unless the builder armed it
    /// via [`AnalysisBuilder::telemetry`]).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// A consistent point-in-time snapshot of the session's telemetry —
    /// counters, latency/imbalance histograms and the typed event log.
    /// `None` unless the builder armed telemetry.
    pub fn telemetry_snapshot(&self) -> Option<TelemetrySnapshot> {
        self.telemetry.enabled().then(|| self.telemetry.snapshot())
    }

    /// The live work trace accumulated since construction or the last
    /// [`Analysis::take_trace`] (empty unless the session is timed/traced).
    pub fn trace(&self) -> &WorkTrace {
        self.kernel.executor().live_trace()
    }

    /// Takes the accumulated trace, leaving an empty one behind.
    pub fn take_trace(&mut self) -> WorkTrace {
        self.kernel.executor_mut().take_trace()
    }

    /// The assignment the current workers were built from (after a mid-run
    /// migration this is the *migrated* schedule).
    pub fn assignment(&self) -> &Assignment {
        self.kernel.executor().assignment()
    }

    /// Predicted-vs-measured per-worker load of the current schedule against
    /// the live trace, in analytic FLOPs.
    pub fn imbalance_report(&self) -> ImbalanceReport {
        self.imbalance_report_in(TraceUnit::Flops)
    }

    /// [`Analysis::imbalance_report`] in an explicit unit
    /// ([`TraceUnit::Seconds`] for timed real-thread sessions).
    pub fn imbalance_report_in(&self, unit: TraceUnit) -> ImbalanceReport {
        imbalance_report_in(self.assignment(), self.trace(), unit)
    }

    /// The analytic per-pattern cost model the schedule was built from.
    pub fn base_costs(&self) -> &PatternCosts {
        &self.base_costs
    }

    /// Current tree topology.
    pub fn tree(&self) -> &Tree {
        self.kernel.tree()
    }

    /// Synchronization events issued to the executor so far.
    pub fn sync_events(&self) -> u64 {
        self.kernel.sync_events()
    }

    /// The underlying likelihood engine (full low-level API).
    pub fn kernel(&self) -> &LikelihoodKernel<E> {
        &self.kernel
    }

    /// Mutable access to the underlying engine (e.g. to set parameters,
    /// select the scalar reference loops with `set_dispatch`, or arm test
    /// instrumentation on the executor).
    pub fn kernel_mut(&mut self) -> &mut LikelihoodKernel<E> {
        &mut self.kernel
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phylo_models::BranchLengthMode;
    use phylo_optimize::ParallelScheme;
    use phylo_sched::Cyclic;
    use phylo_seqgen::datasets::paper_simulated;

    fn dataset() -> phylo_seqgen::GeneratedDataset {
        paper_simulated(8, 160, 40, 11).generate()
    }

    #[test]
    fn builder_produces_a_working_session() {
        let ds = dataset();
        let mut analysis = Analysis::builder(Arc::clone(&ds.patterns), ds.tree.clone())
            .threads(2)
            .strategy(Cyclic)
            .build()
            .unwrap();
        let lnl = analysis.log_likelihood().unwrap();
        assert!(lnl.is_finite() && lnl < 0.0);
        assert!(analysis.sync_events() > 0);
        assert_eq!(analysis.assignment().worker_count(), 2);
    }

    #[test]
    fn zero_threads_is_a_typed_error() {
        let ds = dataset();
        let err = Analysis::builder(Arc::clone(&ds.patterns), ds.tree.clone())
            .threads(0)
            .build()
            .unwrap_err();
        assert_eq!(err, AnalysisError::Sched(SchedError::NoWorkers));
    }

    #[test]
    fn model_partition_mismatch_is_a_typed_error() {
        let ds = dataset();
        // Models built for a *different* (single-partition) dataset.
        let other = paper_simulated(8, 40, 40, 12).generate();
        let wrong = ModelSet::default_for(&other.patterns, BranchLengthMode::Joint);
        let err = Analysis::builder(Arc::clone(&ds.patterns), ds.tree.clone())
            .models(wrong)
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            AnalysisError::Kernel(KernelError::ModelCountMismatch { .. })
        ));
    }

    #[test]
    fn mismatched_taxa_is_a_typed_error() {
        let ds = dataset();
        let other = paper_simulated(10, 160, 40, 13).generate();
        let err = Analysis::builder(Arc::clone(&other.patterns), ds.tree.clone())
            .build()
            .unwrap_err();
        assert!(matches!(err, AnalysisError::Kernel(_)));
    }

    #[test]
    fn traced_session_records_regions_and_reports_imbalance() {
        let ds = dataset();
        let mut analysis = Analysis::builder(Arc::clone(&ds.patterns), ds.tree.clone())
            .threads(4)
            .build_traced()
            .unwrap();
        let _ = analysis.log_likelihood().unwrap();
        assert!(analysis.trace().sync_events() > 0);
        let report = analysis.imbalance_report();
        assert_eq!(report.workers, 4);
        assert!(analysis.take_trace().sync_events() > 0);
        assert_eq!(analysis.trace().sync_events(), 0);
    }

    #[test]
    fn mask_aware_session_runs_and_preserves_the_likelihood() {
        let ds = phylo_seqgen::datasets::mixed_dna_protein(6, 3, 2, 48, 17).generate();
        let mut analysis = Analysis::builder(Arc::clone(&ds.patterns), ds.tree.clone())
            .threads(7)
            .strategy(Cyclic)
            .rescheduler(ReschedulePolicy {
                imbalance_threshold: 1.0001,
                min_regions: 8,
                unit: TraceUnit::Flops,
                max_reschedules: 1,
                mask_aware: true,
            })
            .build_traced()
            .unwrap();
        let report = analysis
            .optimize(&OptimizerConfig::new(ParallelScheme::New))
            .unwrap();
        let sequence: Vec<(usize, bool)> = report
            .events
            .iter()
            .map(|e| (e.round, e.within_round))
            .collect();
        assert_eq!(
            sequence,
            [(1, true)],
            "the near-zero threshold must trigger one within-round migration"
        );
        for event in &report.events {
            assert!(event.log_likelihood_drift() < 1e-8);
        }
    }

    #[test]
    fn optimize_improves_the_likelihood_through_the_facade() {
        let ds = dataset();
        let mut analysis = Analysis::builder(Arc::clone(&ds.patterns), ds.tree.clone())
            .threads(2)
            .build()
            .unwrap();
        let report = analysis
            .optimize(&OptimizerConfig::new(ParallelScheme::New))
            .unwrap();
        assert!(report.report.final_log_likelihood > report.report.initial_log_likelihood);
        assert!(report.events.is_empty());
        assert!(report.recoveries.is_empty());
    }
}
