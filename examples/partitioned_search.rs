//! A partitioned phylogenomic analysis end to end: simulate a gappy multi-gene
//! dataset, run an SPR tree search from a random starting tree with real
//! worker threads, and compare the result against the generating topology.
//!
//! Run with `cargo run --release --example partitioned_search`.

use plf_loadbalance::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

fn main() -> Result<(), AnalysisError> {
    // A gappy multi-gene DNA dataset in the style of the paper's real-world
    // mammalian alignment, scaled down so the example finishes in seconds.
    let spec = DatasetSpec {
        name: "example_gappy".into(),
        taxa: 16,
        partition_columns: vec![120, 80, 200, 60, 140],
        data_type: DataType::Dna,
        protein_partitions: Vec::new(),
        missing_taxa_fraction: 0.2,
        seed: 7,
    };
    let dataset = spec.generate();
    println!(
        "simulated {}: {} columns, {} patterns, gappyness {:.1}%",
        dataset.spec.name,
        dataset.alignment.columns(),
        dataset.patterns.total_patterns(),
        100.0 * dataset.alignment.gappyness()
    );

    // Start the search from a random topology, not the generating tree.
    let mut rng = ChaCha8Rng::seed_from_u64(99);
    let start_tree = plf_loadbalance::tree::random::random_tree(&dataset.patterns.taxa, &mut rng);

    // Real worker threads (the Pthreads-style pool); timing on so the
    // session reports the measured per-worker balance afterwards.
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(2)
        .min(4);
    let mut analysis = Analysis::builder(Arc::clone(&dataset.patterns), start_tree)
        .threads(threads)
        .strategy(Cyclic)
        .timed(true)
        .build()?;

    let mut config = SearchConfig::new(ParallelScheme::New);
    config.max_rounds = 2;
    config.spr_radius = 4;
    let outcome = analysis.run_search(&config)?;
    println!(
        "search on {threads} threads: lnL {:.3} -> {:.3} ({} moves evaluated, {} accepted)",
        outcome.report.initial_log_likelihood,
        outcome.report.final_log_likelihood,
        outcome.report.evaluated_moves,
        outcome.report.accepted_moves
    );
    println!(
        "measured wall-clock imbalance of the run: {:.3} (max/mean per worker)",
        analysis
            .imbalance_report_in(TraceUnit::Seconds)
            .measured_imbalance
    );

    // How much of the generating topology was recovered?
    let truth = dataset.tree.bipartitions();
    let found = analysis.tree().bipartitions();
    let shared = truth.iter().filter(|s| found.contains(s)).count();
    println!(
        "recovered {shared}/{} bipartitions of the generating tree",
        truth.len()
    );
    println!("final tree: {}", newick::to_newick(analysis.tree()));
    Ok(())
}
