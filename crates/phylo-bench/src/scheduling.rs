//! Strategy-comparison report: imbalance and predicted run time per
//! scheduling strategy, so scheduler regressions show up as numbers.
//!
//! For one dataset and worker count the report runs the same workload under
//! every static [`ScheduleStrategy`] — the paper's `cyclic` and `block` and
//! the cost-aware `weighted-lpt` — and tabulates, per strategy:
//!
//! * the **predicted** per-worker imbalance of the assignment (what the
//!   scheduler thought it achieved),
//! * the **measured** imbalance from the instrumented executor's trace,
//! * the predicted run time on a reference platform from `phylo-perfmodel`.
//!
//! `cargo run --release -p phylo-bench --bin strategy_report` prints the
//! table for the default mixed DNA/protein dataset; future PRs touching the
//! scheduler are expected to keep `weighted-lpt`'s max predicted cost at or
//! below `cyclic`'s and strictly below `block`'s on that dataset.

use std::sync::Arc;

use phylo_kernel::{cost::TraceUnit, LikelihoodKernel};
use phylo_models::{BranchLengthMode, ModelSet};
use phylo_optimize::{
    optimize_model_parameters_with_policy, OptimizeError, OptimizerConfig, ParallelScheme,
    RunPolicy,
};
use phylo_parallel::{
    Assignment, Block, Cyclic, ExecutorOptions, PatternCosts, ReschedulePolicy, Rescheduler,
    SchedError, ScheduleStrategy, ThreadedExecutor, WeightedLpt, WorkerSkew,
};
use phylo_perfmodel::{imbalance_report, ImbalanceReport, Platform};
use phylo_sched::worker_imbalance;
use phylo_seqgen::datasets::{mixed_dna_protein, GeneratedDataset};

use crate::{run_traced_assignment, Workload};

/// One strategy's outcome on the comparison workload.
#[derive(Debug, Clone)]
pub struct StrategyRow {
    /// The assignment the strategy produced.
    pub assignment: Assignment,
    /// Predicted-vs-measured imbalance of the run.
    pub report: ImbalanceReport,
    /// Predicted run time in seconds on the reference platform.
    pub predicted_seconds: f64,
}

/// The full comparison: one row per strategy, same dataset and worker count.
#[derive(Debug, Clone)]
pub struct StrategyComparison {
    /// Dataset name.
    pub dataset: String,
    /// Worker count the schedules were built for.
    pub workers: usize,
    /// Reference platform used for the run-time predictions.
    pub platform: String,
    /// Rows in strategy order: cyclic, block, weighted-lpt.
    pub rows: Vec<StrategyRow>,
}

/// Per-partition Γ category counts of the default models for a dataset
/// (`ModelSet::default_for` gives every partition `DEFAULT_CATEGORIES`, so
/// this avoids building — and discarding — the models' eigendecompositions).
pub fn default_categories(dataset: &GeneratedDataset) -> Vec<usize> {
    vec![phylo_models::DEFAULT_CATEGORIES; dataset.patterns.partition_count()]
}

/// Runs the comparison workload under the three static strategies.
///
/// # Errors
///
/// Propagates any [`SchedError`] from the underlying strategies.
///
/// # Panics
///
/// Panics if `platform` has fewer cores than `workers`
/// ([`Platform::predict_runtime`]'s contract).
pub fn compare_strategies(
    dataset: &GeneratedDataset,
    workers: usize,
    workload: Workload,
    platform: &Platform,
) -> Result<StrategyComparison, SchedError> {
    let categories = default_categories(dataset);
    let costs = PatternCosts::analytic_tabled(&dataset.patterns, &categories);

    let run = |assignment: &Assignment| {
        run_traced_assignment(
            dataset,
            assignment,
            ParallelScheme::New,
            BranchLengthMode::PerPartition,
            workload,
        )
        .0
    };
    let row = |assignment: Assignment, trace: &phylo_kernel::cost::WorkTrace| StrategyRow {
        report: imbalance_report(&assignment, trace),
        predicted_seconds: platform.predict_runtime(trace),
        assignment,
    };

    let mut rows = Vec::new();
    for assignment in [
        Cyclic.assign(&costs, workers)?,
        Block.assign(&costs, workers)?,
        WeightedLpt.assign(&costs, workers)?,
    ] {
        let trace = run(&assignment);
        rows.push(row(assignment, &trace));
    }

    Ok(StrategyComparison {
        dataset: dataset.spec.name.clone(),
        workers,
        platform: platform.name.clone(),
        rows,
    })
}

/// The default comparison dataset: 12 DNA genes plus 4 protein genes. The
/// protein tail carries ≈25× per-pattern cost, so count-based schemes
/// misbalance it and the cost-aware strategies have something to win.
pub fn default_mixed_dataset() -> GeneratedDataset {
    let scale = crate::dataset_scale();
    let columns = ((600.0 * scale / 0.02).round() as usize).clamp(40, 4000);
    mixed_dna_protein(12, 12, 4, columns, 2009).generate()
}

/// Outcome of the adaptive-rescheduling experiment: measured wall-clock
/// imbalance (max/mean per-worker seconds under a standardized probe
/// workload) of the static schedules against a run that rescheduled
/// mid-flight from its own measurements, with one artificially skewed
/// worker.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveComparison {
    /// Dataset name.
    pub dataset: String,
    /// Worker count of every run.
    pub workers: usize,
    /// The artificial skew applied to one worker in every run.
    pub skew: WorkerSkew,
    /// Measured imbalance of the static cyclic schedule.
    pub cyclic_imbalance: f64,
    /// Measured imbalance of the static weighted-LPT schedule.
    pub lpt_imbalance: f64,
    /// Measured imbalance after the mid-run reschedule (of the post-
    /// migration ownership, same probe workload).
    pub adaptive_imbalance: f64,
    /// The live measured imbalance that triggered the reschedule (0.0 if
    /// the policy never fired).
    pub trigger_imbalance: f64,
    /// Number of mid-run reschedules that happened.
    pub reschedules: usize,
    /// Largest |Δ log likelihood| across the migrations (must be ≤ 1e-8).
    pub max_lnl_drift: f64,
}

fn timed_skewed_kernel(
    dataset: &GeneratedDataset,
    assignment: &Assignment,
    skew: WorkerSkew,
) -> LikelihoodKernel<ThreadedExecutor> {
    let models = ModelSet::default_for(&dataset.patterns, BranchLengthMode::PerPartition);
    let categories: Vec<usize> = models.models().iter().map(|m| m.categories()).collect();
    let executor = ThreadedExecutor::with_options(
        &dataset.patterns,
        assignment,
        dataset.tree.node_capacity(),
        &categories,
        ExecutorOptions {
            timed: true,
            skew: Some(skew),
        },
    )
    .expect("assignment was built for this dataset");
    LikelihoodKernel::try_new(
        Arc::clone(&dataset.patterns),
        dataset.tree.clone(),
        models,
        executor,
    )
    .unwrap()
}

/// Measures the wall-clock imbalance of the kernel's *current* ownership
/// with a standardized probe workload (`repeats` full likelihood
/// recomputations), so static and rescheduled runs are compared on the same
/// footing. Discards whatever trace had accumulated before.
pub fn probe_wall_clock_imbalance(
    kernel: &mut LikelihoodKernel<ThreadedExecutor>,
    repeats: usize,
) -> f64 {
    let _ = kernel.executor_mut().take_trace();
    for _ in 0..repeats.max(1) {
        kernel.invalidate_all();
        let _ = kernel
            .try_log_likelihood()
            .expect("probe workload runs on healthy workers");
    }
    let trace = kernel.executor_mut().take_trace();
    worker_imbalance(&trace.per_worker_total_in(TraceUnit::Seconds))
}

/// Runs the adaptive-rescheduling experiment: static cyclic and LPT
/// baselines against a cyclic-started run whose [`Rescheduler`] watches the
/// real wall clock, all with `skew.worker` artificially slowed. Every run's
/// imbalance is measured with the same probe workload.
///
/// # Errors
///
/// Propagates any [`SchedError`] from the underlying strategies and any
/// [`OptimizeError`] from the rescheduling run.
pub fn compare_adaptive_resched(
    dataset: &GeneratedDataset,
    workers: usize,
    skew: WorkerSkew,
    probe_repeats: usize,
) -> Result<AdaptiveComparison, OptimizeError> {
    let categories = default_categories(dataset);
    let costs = PatternCosts::analytic_tabled(&dataset.patterns, &categories);
    let cyclic = Cyclic
        .assign(&costs, workers)
        .map_err(OptimizeError::Sched)?;
    let lpt = WeightedLpt
        .assign(&costs, workers)
        .map_err(OptimizeError::Sched)?;

    let mut cyclic_kernel = timed_skewed_kernel(dataset, &cyclic, skew);
    let cyclic_imbalance = probe_wall_clock_imbalance(&mut cyclic_kernel, probe_repeats);
    drop(cyclic_kernel);

    let mut lpt_kernel = timed_skewed_kernel(dataset, &lpt, skew);
    let lpt_imbalance = probe_wall_clock_imbalance(&mut lpt_kernel, probe_repeats);
    drop(lpt_kernel);

    // The adaptive run starts from the same cyclic schedule; one optimizer
    // round accumulates the live wall-clock trace, then the rescheduler
    // migrates ownership and the probe measures the new placement.
    let mut kernel = timed_skewed_kernel(dataset, &cyclic, skew);
    let mut rescheduler = Rescheduler::new(ReschedulePolicy {
        imbalance_threshold: 1.25,
        min_regions: 16,
        unit: TraceUnit::Seconds,
        max_reschedules: 1,
        mask_aware: false,
    });
    let config = OptimizerConfig::search_phase(ParallelScheme::New);
    let adaptive = optimize_model_parameters_with_policy(
        &mut kernel,
        &config,
        RunPolicy::rescheduling(&mut rescheduler, &costs),
    )?;
    let adaptive_imbalance = probe_wall_clock_imbalance(&mut kernel, probe_repeats);

    Ok(AdaptiveComparison {
        dataset: dataset.spec.name.clone(),
        workers,
        skew,
        cyclic_imbalance,
        lpt_imbalance,
        adaptive_imbalance,
        trigger_imbalance: adaptive
            .events
            .first()
            .map_or(0.0, |e| e.measured_imbalance),
        reschedules: adaptive.events.len(),
        // total_cmp ranks NaN above +inf, so a NaN drift propagates into the
        // gate instead of being masked by f64::max(0.0, NaN) == 0.0.
        max_lnl_drift: adaptive
            .events
            .iter()
            .map(|e| e.log_likelihood_drift())
            .max_by(f64::total_cmp)
            .unwrap_or(0.0),
    })
}

/// One configuration's outcome in the mask-aware rescheduling experiment.
#[derive(Debug, Clone)]
pub struct MaskRunStats {
    /// Configuration label (static cyclic / between-round / mask-aware).
    pub label: String,
    /// Mid-run ownership migrations that happened.
    pub reschedules: usize,
    /// How many of them fired *within* a round (mask-aware only).
    pub within_round_reschedules: usize,
    /// Measured FLOP imbalance over the *masked* regions of the whole run —
    /// the regions where part of the dataset had converged, i.e. the oldPAR-
    /// like phases whose balance the paper's analysis is about. 1.0 is
    /// perfect; computed as workers × critical-path / total over the run's
    /// accumulated trace epochs. Migrations fire mid-run, so this aggregate
    /// still contains the pre-trigger (cyclic) phases of every run.
    pub masked_imbalance: f64,
    /// Measured FLOP imbalance over all regions of the run.
    pub overall_imbalance: f64,
    /// Measured masked-region FLOP imbalance of the run's *final placement*
    /// under the standardized probe workload (a fresh pass of the same
    /// staggered-convergence optimization) — the placement-vs-placement
    /// comparison the gate uses, free of each run's pre-trigger history.
    pub probe_masked_imbalance: f64,
    /// Probe imbalance over all regions of the final placement.
    pub probe_overall_imbalance: f64,
    /// Largest |Δ log likelihood| across the migrations (0.0 for none).
    pub max_lnl_drift: f64,
    /// Final log likelihood of the run (placement-invariant across
    /// configurations).
    pub final_lnl: f64,
}

/// The mask-aware rescheduling experiment: static cyclic vs between-round-
/// only rescheduling vs mask-aware within-round rescheduling, all on the
/// same staggered-convergence dataset and virtual workers (FLOP unit, fully
/// deterministic).
#[derive(Debug, Clone)]
pub struct MaskComparison {
    /// Dataset name.
    pub dataset: String,
    /// Virtual worker count of every run.
    pub workers: usize,
    /// The three runs, in the order static / between-round / mask-aware.
    pub runs: Vec<MaskRunStats>,
}

impl MaskComparison {
    /// The run with the given label.
    ///
    /// # Panics
    ///
    /// Panics if the label is missing (a bug in the experiment driver).
    pub fn run(&self, label: &str) -> &MaskRunStats {
        self.runs
            .iter()
            .find(|r| r.label == label)
            .unwrap_or_else(|| panic!("comparison is missing the {label} run"))
    }
}

/// A DNA dataset whose partitions converge at staggered rates because their
/// gene lengths differ 5×: long genes (lots of data, sharp likelihoods)
/// converge their Newton streams quickly, the short genes' flat likelihoods
/// keep iterating. Late in every branch's Newton stream only the slow
/// partitions stay live, so the cyclic placement's balance over the *live*
/// set — not over the totals — determines the measured imbalance.
pub fn staggered_convergence_dataset(seed: u64) -> GeneratedDataset {
    use phylo_data::DataType;
    use phylo_seqgen::datasets::DatasetSpec;
    // Twelve pairs of one 40-column and one 8-column DNA gene. With 16
    // workers the cyclic arithmetic works out as follows: each pair is 48
    // patterns ≡ 0 (mod 16), so every long gene starts at an offset ≡ 0 —
    // its 8 surplus patterns (40 = 2·16 + 8) always land on workers 0–7 —
    // and every short gene starts at an offset ≡ 8, landing *entirely* on
    // workers 8–15. Under the full mask the two effects cancel exactly
    // (every worker owns 3 patterns per pair), so the totals are balanced
    // and a total-cost (between-round) rescheduler has nothing to fix. But
    // the gene lengths differ 5×, so the partitions converge at staggered
    // rates — the short genes' flat likelihoods keep their Newton streams
    // alive longest — and the late, partial convergence masks are heavily
    // skewed: short-gene phases run entirely on workers 8–15 (measured
    // imbalance 2.0) while long-gene phases overload workers 0–7. Only a
    // mask-aware, within-round repack can react to that shape.
    let mut layout = Vec::new();
    for _ in 0..12 {
        layout.push(40usize);
        layout.push(8);
    }
    DatasetSpec {
        name: "staggered_pairs_40x8".to_string(),
        taxa: 8,
        partition_columns: layout,
        data_type: DataType::Dna,
        protein_partitions: Vec::new(),
        missing_taxa_fraction: 0.0,
        seed,
    }
    .generate()
}

fn mask_policy(mask_aware: bool) -> ReschedulePolicy {
    ReschedulePolicy {
        imbalance_threshold: 1.25,
        min_regions: 12,
        unit: TraceUnit::Flops,
        max_reschedules: 4,
        mask_aware,
    }
}

/// Builds a virtual-worker kernel over `assignment` with the dataset's
/// default per-partition models (the common setup of every mask-experiment
/// run and probe).
fn staggered_kernel(
    dataset: &GeneratedDataset,
    assignment: &Assignment,
) -> LikelihoodKernel<phylo_parallel::TracingExecutor> {
    use phylo_parallel::TracingExecutor;
    let models = ModelSet::default_for(&dataset.patterns, BranchLengthMode::PerPartition);
    let categories: Vec<usize> = models.models().iter().map(|m| m.categories()).collect();
    let executor = TracingExecutor::from_assignment(
        &dataset.patterns,
        assignment,
        dataset.tree.node_capacity(),
        &categories,
    )
    .expect("assignment was built for this dataset");
    LikelihoodKernel::try_new(
        Arc::clone(&dataset.patterns),
        dataset.tree.clone(),
        models,
        executor,
    )
    .unwrap()
}

/// Measures a placement: runs the full staggered-convergence workload on
/// virtual workers under `assignment` and returns the masked-region and
/// overall FLOP imbalance of the trace.
fn probe_placement(dataset: &GeneratedDataset, assignment: &Assignment) -> (f64, f64) {
    let mut kernel = staggered_kernel(dataset, assignment);
    let config = OptimizerConfig::new(ParallelScheme::New);
    phylo_optimize::optimize_model_parameters(&mut kernel, &config)
        .expect("virtual executors cannot lose workers");
    let trace = kernel.executor_mut().take_trace();
    (
        1.0 / trace.masked_overall_balance_in(TraceUnit::Flops),
        1.0 / trace.overall_balance_in(TraceUnit::Flops),
    )
}

/// Runs one configuration of the mask experiment on virtual workers
/// (`policy: None` = static, no rescheduling) and measures both the run
/// itself (event epochs + the final live epoch) and its final placement
/// under the standardized probe.
fn mask_run(
    dataset: &GeneratedDataset,
    workers: usize,
    label: &str,
    policy: Option<ReschedulePolicy>,
) -> Result<MaskRunStats, OptimizeError> {
    let categories = default_categories(dataset);
    let costs = PatternCosts::analytic_tabled(&dataset.patterns, &categories);
    let cyclic = Cyclic
        .assign(&costs, workers)
        .map_err(OptimizeError::Sched)?;
    let mut kernel = staggered_kernel(dataset, &cyclic);
    let config = OptimizerConfig::new(ParallelScheme::New);

    let mut rescheduler = policy.map(Rescheduler::new);
    let run = optimize_model_parameters_with_policy(
        &mut kernel,
        &config,
        RunPolicy {
            rescheduler: rescheduler.as_mut().map(|r| (r, &costs)),
            ..RunPolicy::default()
        },
    )?;
    let (events, final_lnl) = (run.events, run.report.final_log_likelihood);

    // The full run's measurements: the epoch traces captured at each
    // migration plus whatever the executor accumulated since the last one.
    let mut full = phylo_kernel::cost::WorkTrace::new(workers);
    for event in &events {
        full.extend(&event.epoch_trace)
            .expect("all epochs ran on the same worker count");
    }
    full.extend(&kernel.executor_mut().take_trace())
        .expect("all epochs ran on the same worker count");

    // Placement-vs-placement comparison: re-run the identical workload on
    // the run's final assignment, from scratch.
    let final_assignment = kernel.executor_mut().assignment().clone();
    let (probe_masked_imbalance, probe_overall_imbalance) =
        probe_placement(dataset, &final_assignment);

    Ok(MaskRunStats {
        label: label.to_string(),
        reschedules: events.len(),
        within_round_reschedules: events.iter().filter(|e| e.within_round).count(),
        masked_imbalance: 1.0 / full.masked_overall_balance_in(TraceUnit::Flops),
        overall_imbalance: 1.0 / full.overall_balance_in(TraceUnit::Flops),
        probe_masked_imbalance,
        probe_overall_imbalance,
        max_lnl_drift: events
            .iter()
            .map(|e| e.log_likelihood_drift())
            .max_by(f64::total_cmp)
            .unwrap_or(0.0),
        final_lnl,
    })
}

/// Runs the full mask-aware rescheduling comparison: the same newPAR model-
/// optimization workload under (a) the static cyclic schedule, (b) cyclic
/// with the plain between-round rescheduler, (c) cyclic with the mask-aware
/// within-round rescheduler — all thresholds identical, all on virtual
/// workers with deterministic FLOP measurements.
///
/// # Errors
///
/// Propagates [`OptimizeError`] from the driver.
pub fn compare_mask_resched(
    dataset: &GeneratedDataset,
    workers: usize,
) -> Result<MaskComparison, OptimizeError> {
    let runs = vec![
        mask_run(dataset, workers, "static cyclic", None)?,
        mask_run(dataset, workers, "between-round", Some(mask_policy(false)))?,
        mask_run(dataset, workers, "mask-aware", Some(mask_policy(true)))?,
    ];
    Ok(MaskComparison {
        dataset: dataset.spec.name.clone(),
        workers,
        runs,
    })
}

/// Prints the mask experiment as a small table.
pub fn print_mask_comparison(c: &MaskComparison) {
    println!(
        "=== convergence-mask rescheduling on {} ({} virtual workers, FLOP unit) ===",
        c.dataset, c.workers
    );
    println!(
        "{:<16} {:>8} {:>9} {:>13} {:>13} {:>13} {:>13} {:>11}",
        "schedule",
        "resched",
        "in-round",
        "run masked",
        "run overall",
        "probe masked",
        "probe overall",
        "lnL drift"
    );
    for run in &c.runs {
        println!(
            "{:<16} {:>8} {:>9} {:>13.3} {:>13.3} {:>13.3} {:>13.3} {:>11.2e}",
            run.label,
            run.reschedules,
            run.within_round_reschedules,
            run.masked_imbalance,
            run.overall_imbalance,
            run.probe_masked_imbalance,
            run.probe_overall_imbalance,
            run.max_lnl_drift
        );
    }
    println!();
}

/// Prints the adaptive-rescheduling experiment as a small table.
pub fn print_adaptive_comparison(c: &AdaptiveComparison) {
    println!(
        "=== adaptive rescheduling on {} ({} workers, worker {} skewed by {} ns/pattern) ===",
        c.dataset, c.workers, c.skew.worker, c.skew.nanos_per_pattern
    );
    println!("{:<24} {:>22}", "schedule", "measured imbalance");
    println!("{:<24} {:>22.3}", "static cyclic", c.cyclic_imbalance);
    println!("{:<24} {:>22.3}", "static weighted-lpt", c.lpt_imbalance);
    println!("{:<24} {:>22.3}", "adaptive-resched", c.adaptive_imbalance);
    println!(
        "reschedules: {} (trigger imbalance {:.3}); max lnL drift across migrations: {:.2e}",
        c.reschedules, c.trigger_imbalance, c.max_lnl_drift
    );
    println!();
}

/// Prints one comparison as a fixed-width table.
pub fn print_comparison(comparison: &StrategyComparison) {
    println!(
        "=== scheduling strategies on {} ({} workers, platform {}) ===",
        comparison.dataset, comparison.workers, comparison.platform
    );
    println!("{} {:>12}", ImbalanceReport::header(), "pred sec");
    for row in &comparison.rows {
        println!("{} {:>12.4}", row.report.format(), row.predicted_seconds);
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_mixed() -> GeneratedDataset {
        mixed_dna_protein(6, 4, 2, 24, 41).generate()
    }

    /// The PR's acceptance criterion: on a mixed DNA/protein dataset the
    /// cost-aware LPT strategy achieves strictly lower maximum per-worker
    /// predicted cost than the contiguous block scheme, and never exceeds
    /// cyclic.
    #[test]
    fn weighted_lpt_beats_block_on_mixed_benchmark_dataset() {
        // The benchmark dataset's shape at test-friendly scale: 12 DNA + 4
        // protein partitions.
        let ds = mixed_dna_protein(10, 12, 4, 80, 2009).generate();
        let categories = default_categories(&ds);
        let costs = PatternCosts::analytic_tabled(&ds.patterns, &categories);
        for workers in [4usize, 8, 16] {
            let lpt = WeightedLpt.assign(&costs, workers).unwrap();
            let block = Block.assign(&costs, workers).unwrap();
            let cyclic = Cyclic.assign(&costs, workers).unwrap();
            assert!(
                lpt.max_cost() < block.max_cost(),
                "{workers} workers: LPT max {} must beat block max {}",
                lpt.max_cost(),
                block.max_cost()
            );
            assert!(
                lpt.max_cost() <= cyclic.max_cost() + 1e-9,
                "{workers} workers: LPT max {} vs cyclic max {}",
                lpt.max_cost(),
                cyclic.max_cost()
            );
        }
    }

    #[test]
    fn comparison_produces_all_three_strategies() {
        let ds = tiny_mixed();
        let comparison =
            compare_strategies(&ds, 4, Workload::ModelOptimization, &Platform::nehalem()).unwrap();
        let names: Vec<&str> = comparison
            .rows
            .iter()
            .map(|r| r.assignment.strategy())
            .collect();
        assert_eq!(names, vec!["cyclic", "block", "weighted-lpt"]);
        for row in &comparison.rows {
            assert!(row.predicted_seconds > 0.0);
            assert!(row.report.measured_imbalance >= 1.0 - 1e-9);
            assert_eq!(row.report.workers, 4);
        }
        // The cost-aware strategies must not predict worse balance than block.
        let block = &comparison.rows[1].report;
        let lpt = &comparison.rows[2].report;
        assert!(lpt.predicted_imbalance <= block.predicted_imbalance + 1e-9);
    }

    #[test]
    fn adaptive_resched_comparison_produces_consistent_fields() {
        let ds = tiny_mixed();
        let skew = WorkerSkew {
            worker: 0,
            nanos_per_pattern: 5_000,
        };
        let c = compare_adaptive_resched(&ds, 3, skew, 2).unwrap();
        assert_eq!(c.workers, 3);
        assert_eq!(c.skew, skew);
        // Imbalances are max/mean ratios and therefore ≥ 1 by definition.
        assert!(c.cyclic_imbalance >= 1.0 - 1e-9);
        assert!(c.lpt_imbalance >= 1.0 - 1e-9);
        assert!(c.adaptive_imbalance >= 1.0 - 1e-9);
        // Whatever the timing noise, migrations must never move the lnL.
        assert!(c.max_lnl_drift <= 1e-8, "drift {}", c.max_lnl_drift);
    }
}
