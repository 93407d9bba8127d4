//! Tour of the pluggable scheduling subsystem: builds the three static
//! strategies' assignments for a mixed DNA/protein dataset through traced
//! `Analysis` sessions, compares their predicted per-worker load, then
//! verifies the prediction against the instrumented executor's measurement.
//!
//! Run with `cargo run --release --example scheduling_strategies`.

use plf_loadbalance::prelude::*;
use std::sync::Arc;

/// Runs one traced likelihood evaluation under `strategy` and returns the
/// session's (assignment, trace) pair.
fn trace_run(
    dataset: &plf_loadbalance::seqgen::GeneratedDataset,
    strategy: impl ScheduleStrategy + 'static,
    workers: usize,
) -> Result<(Assignment, WorkTrace), AnalysisError> {
    let mut analysis = Analysis::builder(Arc::clone(&dataset.patterns), dataset.tree.clone())
        .threads(workers)
        .strategy(strategy)
        .build_traced()?;
    let _ = analysis.log_likelihood()?;
    let assignment = analysis.assignment().clone();
    Ok((assignment, analysis.take_trace()))
}

fn main() -> Result<(), AnalysisError> {
    // 8 DNA genes plus 3 protein genes: under the blocked kernels `Analysis`
    // runs by default the protein patterns weigh ~16x the DNA ones, so
    // pattern *counts* are a poor balance proxy.
    let workers = 8usize;
    let dataset = mixed_dna_protein(12, 8, 3, 150, 4711).generate();
    let categories = vec![4; dataset.patterns.partition_count()];
    println!(
        "dataset: {} — {} taxa, {} partitions ({} protein), {} patterns, {} workers\n",
        dataset.spec.name,
        dataset.spec.taxa,
        dataset.spec.partition_count(),
        dataset.spec.protein_partitions.len(),
        dataset.patterns.total_patterns(),
        workers,
    );

    let strategies: Vec<Box<dyn ScheduleStrategy>> =
        vec![Box::new(Cyclic), Box::new(Block), Box::new(WeightedLpt)];

    println!("{} ", ImbalanceReport::header());
    for strategy in strategies {
        let (assignment, trace) = trace_run(&dataset, strategy, workers)?;
        println!("{}", imbalance_report(&assignment, &trace).format());
    }

    // The analytic cost model the schedules packed against, for reference.
    let costs = PatternCosts::analytic_tabled(&dataset.patterns, &categories);
    println!(
        "\ntotal analytic cost {:.0} over {} patterns",
        costs.total(),
        costs.pattern_count()
    );
    println!("block lumps the expensive protein tail onto few workers; weighted-lpt");
    println!("packs by cost and keeps every worker equally busy.");
    Ok(())
}
