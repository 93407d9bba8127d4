//! The paper's seven experiments on virtual workers: the traced harness
//! (this module) and one function per experiment ([`experiments`]), all
//! behind one binary, `experiments [fig3|fig4|fig5|fig6|prose_joint_branch|
//! prose_model_opt|prose_protein]…` (no argument runs all seven).
//!
//! Nothing here reads a clock. An experiment prints predictions of the
//! analytical platform model and asserts the host-independent fact it shows;
//! wall-clock claims are `benchmark/` metrics.
//!
//! Every figure follows the same recipe:
//!
//! 1. generate the dataset (or a proportionally scaled-down version — the
//!    default, controlled by the `PLF_SCALE` environment variable, keeps the
//!    *shape* of the workload: same taxon count, same number of partitions,
//!    same threads-per-partition ratio pressure),
//! 2. run the chosen workload (full tree search, or model optimization on the
//!    fixed input tree) under the oldPAR and newPAR schemes on 1, 8 and 16
//!    *virtual* workers using the instrumented executor,
//! 3. convert the recorded work traces into per-platform run-time predictions
//!    with the analytical platform model and print the same rows the paper's
//!    figures show.
//!
//! Set `PLF_SCALE=1.0` to regenerate the figures at the paper's full dataset
//! sizes (slow), or leave the default small scale for a quick check of the
//! qualitative result.
//!
//! ```
//! use phylo_bench::{dataset_scale, run_traced, Workload};
//! use phylo_models::BranchLengthMode;
//! use phylo_optimize::ParallelScheme;
//! use phylo_seqgen::datasets::paper_simulated;
//!
//! assert!(dataset_scale() > 0.0 && dataset_scale() <= 1.0);
//! // One tiny traced run: the instrumented executor records a region per
//! // synchronization event, which is what every figure is built from.
//! let ds = paper_simulated(6, 40, 20, 5).generate();
//! let (trace, lnl) = run_traced(
//!     &ds,
//!     4,
//!     ParallelScheme::New,
//!     BranchLengthMode::PerPartition,
//!     Workload::ModelOptimization,
//! );
//! assert!(trace.sync_events() > 0);
//! assert!(lnl.is_finite() && lnl < 0.0);
//! ```

#![forbid(unsafe_code)]

pub mod experiments;

use std::sync::Arc;

use phylo_kernel::cost::WorkTrace;
use phylo_kernel::LikelihoodKernel;
use phylo_models::{BranchLengthMode, ModelSet};
use phylo_optimize::{optimize_model_parameters, OptimizeError, OptimizerConfig, ParallelScheme};
use phylo_parallel::{plan, Cyclic, Plan, Reassignable, TracingExecutor};
use phylo_perfmodel::{FigureRow, Platform};
use phylo_search::{tree_search, SearchConfig};
use phylo_seqgen::datasets::{DatasetSpec, GeneratedDataset};

/// What the experiment measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// A full ML tree search starting from the fixed input tree (the paper's
    /// "practically most relevant case").
    TreeSearch,
    /// Optimization of all model parameters on the fixed input tree (no
    /// topology moves).
    ModelOptimization,
}

/// Scale factor for dataset generation, read from `PLF_SCALE` (default 0.02).
pub fn dataset_scale() -> f64 {
    std::env::var("PLF_SCALE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|s| *s > 0.0 && *s <= 1.0)
        .unwrap_or(0.02)
}

/// Generates a dataset spec at the configured scale (1.0 keeps it untouched).
pub fn generate_scaled(spec: &DatasetSpec) -> GeneratedDataset {
    let scale = dataset_scale();
    if (scale - 1.0).abs() < f64::EPSILON {
        spec.generate()
    } else {
        spec.scaled(scale).generate()
    }
}

/// Runs one workload configuration on `workers` virtual workers under the
/// paper's cyclic distribution (the historical default of every figure) and
/// returns the recorded work trace together with the final log likelihood.
pub fn run_traced(
    dataset: &GeneratedDataset,
    workers: usize,
    scheme: ParallelScheme,
    branch_mode: BranchLengthMode,
    workload: Workload,
) -> (WorkTrace, f64) {
    let models = ModelSet::default_for(&dataset.patterns, branch_mode);
    let Plan {
        models,
        categories,
        assignment,
        ..
    } = plan::<OptimizeError>(&dataset.patterns, Some(models), &Cyclic, workers)
        .expect("figure configurations always use at least one worker");
    let executor = TracingExecutor::from_assignment(
        &dataset.patterns,
        &assignment,
        dataset.tree.node_capacity(),
        &categories,
    )
    .expect("assignment was built for this dataset");
    let mut kernel = LikelihoodKernel::try_new(
        Arc::clone(&dataset.patterns),
        dataset.tree.clone(),
        models,
        executor,
    )
    .unwrap();

    let final_lnl = match workload {
        Workload::ModelOptimization => {
            let config = OptimizerConfig::new(scheme);
            optimize_model_parameters(&mut kernel, &config)
                .expect("virtual executors cannot lose workers")
                .final_log_likelihood
        }
        Workload::TreeSearch => {
            let mut config = SearchConfig::new(scheme);
            // Keep the search bounded: one round at a modest radius reproduces
            // the per-move work profile (the quantity that matters for load
            // balance) without an open-ended runtime.
            config.max_rounds = 1;
            config.spr_radius = 2;
            tree_search(&mut kernel, &config)
                .expect("virtual executors cannot lose workers")
                .final_log_likelihood
        }
    };

    let trace = kernel.executor_mut().take_trace();
    (trace, final_lnl)
}

/// The complete set of traces one figure needs.
#[derive(Debug, Clone)]
pub struct ExperimentTraces {
    /// Sequential (1 worker) trace.
    pub sequential: WorkTrace,
    /// oldPAR with 8 workers.
    pub old_8: WorkTrace,
    /// newPAR with 8 workers.
    pub new_8: WorkTrace,
    /// oldPAR with 16 workers.
    pub old_16: WorkTrace,
    /// newPAR with 16 workers.
    pub new_16: WorkTrace,
    /// Final log likelihoods (sanity: all configurations must agree).
    pub final_lnls: Vec<f64>,
}

/// Runs the five configurations of a figure (sequential, old/new × 8/16).
pub fn run_figure_traces(
    dataset: &GeneratedDataset,
    branch_mode: BranchLengthMode,
    workload: Workload,
) -> ExperimentTraces {
    let (sequential, l0) = run_traced(dataset, 1, ParallelScheme::New, branch_mode, workload);
    let (old_8, l1) = run_traced(dataset, 8, ParallelScheme::Old, branch_mode, workload);
    let (new_8, l2) = run_traced(dataset, 8, ParallelScheme::New, branch_mode, workload);
    let (old_16, l3) = run_traced(dataset, 16, ParallelScheme::Old, branch_mode, workload);
    let (new_16, l4) = run_traced(dataset, 16, ParallelScheme::New, branch_mode, workload);
    ExperimentTraces {
        sequential,
        old_8,
        new_8,
        old_16,
        new_16,
        final_lnls: vec![l0, l1, l2, l3, l4],
    }
}

/// Converts a set of traces into the per-platform rows of Figures 3–5.
pub fn figure_rows(traces: &ExperimentTraces) -> Vec<FigureRow> {
    Platform::paper_platforms()
        .into_iter()
        .map(|platform| {
            let supports_16 = platform.cores >= 16;
            FigureRow {
                platform: platform.name.clone(),
                sequential: platform.predict_runtime(&traces.sequential),
                old_8: platform.predict_runtime(&traces.old_8),
                new_8: platform.predict_runtime(&traces.new_8),
                old_16: supports_16.then(|| platform.predict_runtime(&traces.old_16)),
                new_16: supports_16.then(|| platform.predict_runtime(&traces.new_16)),
            }
        })
        .collect()
}

/// Prints a full figure: dataset summary, the predicted run-time table, and
/// the headline improvement factors.
pub fn print_figure(title: &str, dataset: &GeneratedDataset, traces: &ExperimentTraces) {
    println!("=== {title} ===");
    println!(
        "dataset: {} ({} taxa, {} partitions, {} patterns, scale {})",
        dataset.spec.name,
        dataset.spec.taxa,
        dataset.spec.partition_count(),
        dataset.total_patterns(),
        dataset_scale()
    );
    let lnl0 = traces.final_lnls[0];
    let max_dev = traces
        .final_lnls
        .iter()
        .map(|l| (l - lnl0).abs() / lnl0.abs())
        .fold(0.0, f64::max);
    println!("final lnL (sequential run): {lnl0:.3}; max relative deviation across configurations: {max_dev:.2e}");
    println!();
    println!("{}", FigureRow::header());
    let rows = figure_rows(traces);
    for row in &rows {
        println!("{}", row.format());
    }
    println!();
    for row in &rows {
        let improve_8 = row.old_8 / row.new_8;
        print!(
            "{}: newPAR improves 8-thread run time by {:.2}x",
            row.platform, improve_8
        );
        if let (Some(o16), Some(n16)) = (row.old_16, row.new_16) {
            print!(", 16-thread by {:.2}x", o16 / n16);
        }
        println!();
    }
    println!();
}

/// Sync-event and balance summary of one trace (used by the prose experiments).
pub fn trace_summary(label: &str, trace: &WorkTrace) {
    println!(
        "  {label:<28} regions: {:>8}  total GFLOP: {:>10.3}  balance: {:.3}",
        trace.sync_events(),
        trace.total_flops() / 1e9,
        trace.overall_balance()
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use phylo_seqgen::datasets::paper_simulated;

    fn tiny_dataset() -> GeneratedDataset {
        paper_simulated(8, 200, 50, 7).scaled(0.5).generate()
    }

    #[test]
    fn all_configurations_agree_on_the_likelihood() {
        let ds = tiny_dataset();
        let traces = run_figure_traces(
            &ds,
            BranchLengthMode::PerPartition,
            Workload::ModelOptimization,
        );
        let reference = traces.final_lnls[0];
        for l in &traces.final_lnls {
            assert!(
                ((l - reference) / reference).abs() < 1e-3,
                "configurations disagree: {:?}",
                traces.final_lnls
            );
        }
    }

    #[test]
    fn new_scheme_has_fewer_sync_events_and_better_balance() {
        let ds = tiny_dataset();
        let traces = run_figure_traces(
            &ds,
            BranchLengthMode::PerPartition,
            Workload::ModelOptimization,
        );
        assert!(traces.old_8.sync_events() > traces.new_8.sync_events());
        assert!(traces.new_16.overall_balance() > traces.old_16.overall_balance());
    }

    #[test]
    fn figure_rows_predict_new_faster_than_old() {
        let ds = tiny_dataset();
        let traces = run_figure_traces(
            &ds,
            BranchLengthMode::PerPartition,
            Workload::ModelOptimization,
        );
        for row in figure_rows(&traces) {
            assert!(row.new_8 < row.old_8, "{row:?}");
            if let (Some(o), Some(n)) = (row.old_16, row.new_16) {
                assert!(n < o, "{row:?}");
            }
        }
    }

    #[test]
    fn scale_env_is_clamped_to_default_when_invalid() {
        // Whatever the environment, the returned scale is in (0, 1].
        let s = dataset_scale();
        assert!(s > 0.0 && s <= 1.0);
    }
}
