//! Prints the scheduling-strategy comparison table: predicted and measured
//! imbalance plus predicted run time for cyclic, block and weighted-LPT
//! scheduling on the default mixed DNA/protein dataset.
//!
//! This binary doubles as the CI regression yardstick: it exits non-zero if
//! weighted-LPT's maximum predicted per-worker cost exceeds cyclic's, or
//! fails to beat block's, on the mixed dataset.
//!
//! Run with `cargo run --release -p phylo-bench --bin strategy_report`.
//! Set `PLF_SCALE` (0, 1] to change the dataset size.

use phylo_bench::scheduling::{compare_strategies, default_mixed_dataset, print_comparison};
use phylo_bench::Workload;
use phylo_perfmodel::Platform;
use phylo_telemetry::BenchEnvelope;

fn main() {
    let dataset = default_mixed_dataset();
    println!(
        "dataset: {} ({} taxa, {} partitions, {} patterns)\n",
        dataset.spec.name,
        dataset.spec.taxa,
        dataset.spec.partition_count(),
        dataset.total_patterns()
    );
    let mut envelope = BenchEnvelope::new("strategy_report", &dataset.spec.name)
        .run_num("taxa", dataset.spec.taxa as f64)
        .run_num("partitions", dataset.spec.partition_count() as f64)
        .run_num("patterns", dataset.total_patterns() as f64)
        .gate("lpt_vs_cyclic_tolerance", 1e-9)
        .gate("lpt_must_beat_block", 0.0);
    // Platform must have at least as many cores as virtual workers: the
    // 8-thread rows use the paper's 8-core Nehalem, the 16-thread rows its
    // 16-core Barcelona.
    let mut violations = 0usize;
    for (workers, platform) in [(8usize, Platform::nehalem()), (16, Platform::barcelona())] {
        let comparison =
            compare_strategies(&dataset, workers, Workload::ModelOptimization, &platform)
                .expect("strategies succeed on a non-empty dataset");
        print_comparison(&comparison);

        // Regression gate: look rows up by strategy name so reordering or
        // inserting rows cannot silently degrade the check.
        let predicted_max = |name: &str| {
            comparison
                .rows
                .iter()
                .find(|r| r.assignment.strategy() == name)
                .unwrap_or_else(|| panic!("comparison is missing the {name} row"))
                .report
                .predicted_max
        };
        let cyclic = predicted_max("cyclic");
        let block = predicted_max("block");
        let lpt = predicted_max("weighted-lpt");
        envelope.measure(&format!("cyclic_predicted_max_w{workers}"), cyclic);
        envelope.measure(&format!("block_predicted_max_w{workers}"), block);
        envelope.measure(&format!("weighted_lpt_predicted_max_w{workers}"), lpt);
        if lpt > cyclic + 1e-9 {
            let msg = format!(
                "{workers} workers: weighted-lpt max predicted cost {lpt:.3} \
                 exceeds cyclic {cyclic:.3}"
            );
            eprintln!("REGRESSION ({msg})");
            envelope.violation(msg);
            violations += 1;
        }
        if lpt >= block {
            let msg = format!(
                "{workers} workers: weighted-lpt max predicted cost {lpt:.3} \
                 does not beat block {block:.3}"
            );
            eprintln!("REGRESSION ({msg})");
            envelope.violation(msg);
            violations += 1;
        }
    }
    println!("weighted-lpt packs by predicted cost (protein 21x DNA).");
    let path = "BENCH_strategy_report.json";
    match std::fs::write(path, envelope.to_json()) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("warning: could not write {path}: {e}"),
    }
    if violations > 0 {
        std::process::exit(1);
    }
}
