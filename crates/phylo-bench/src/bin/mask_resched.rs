//! The paper's oldPAR-vs-balanced comparison, reproduced for *within-round*
//! convergence-mask rescheduling: on a dataset whose partitions converge at
//! staggered rates, the per-branch Newton streams shrink the active pattern
//! set (the oldPAR-like phases), and the static cyclic placement's balance
//! over that *live* set — not over the totals — sets the measured imbalance
//! of the masked regions. Three runs of the same newPAR workload on virtual
//! workers (deterministic FLOP measurements) are compared:
//!
//! * **static cyclic** — no rescheduling,
//! * **between-round** — the plain rescheduler, consulted only at round
//!   boundaries and triggered by total-cost imbalance,
//! * **mask-aware** — the within-round rescheduler, triggered by the
//!   decay-weighted live-cost imbalance of the recent masked regions; it
//!   re-levels every partition individually across the workers (live
//!   partitions first), so the live phase and the full mask balance at once.
//!
//! The binary self-gates (exits non-zero) unless mask-aware beats the static
//! and between-round baselines on measured masked-region imbalance, actually
//! fired within a round, and preserved the log likelihood across every
//! migration to ≤ 1e-8.
//!
//! Run with `cargo run --release -p phylo-bench --bin mask_resched`.

use phylo_bench::scheduling::{
    compare_mask_resched, print_mask_comparison, staggered_convergence_dataset,
};
use phylo_telemetry::BenchEnvelope;

fn main() {
    let dataset = staggered_convergence_dataset(2026);
    println!(
        "dataset: {} ({} taxa, {} partitions, {} patterns)\n",
        dataset.spec.name,
        dataset.spec.taxa,
        dataset.spec.partition_count(),
        dataset.total_patterns()
    );
    let workers = 16;
    let comparison =
        compare_mask_resched(&dataset, workers).expect("virtual executors cannot lose workers");
    print_mask_comparison(&comparison);

    let static_run = comparison.run("static cyclic");
    let between = comparison.run("between-round");
    let masked = comparison.run("mask-aware");

    let mut envelope = BenchEnvelope::new("mask_resched", &dataset.spec.name)
        .run_num("taxa", dataset.spec.taxa as f64)
        .run_num("partitions", dataset.spec.partition_count() as f64)
        .run_num("patterns", dataset.total_patterns() as f64)
        .run_num("workers", workers as f64)
        .gate("min_within_round_reschedules", 1.0)
        .gate("drift_max", 1e-8)
        .gate("final_lnl_rel_max", 1e-6);
    for run in &comparison.runs {
        let key = run.label.replace([' ', '-'], "_");
        envelope.measure(&format!("{key}_reschedules"), run.reschedules as f64);
        envelope.measure(
            &format!("{key}_within_round_reschedules"),
            run.within_round_reschedules as f64,
        );
        envelope.measure(
            &format!("{key}_probe_masked_imbalance"),
            run.probe_masked_imbalance,
        );
        envelope.measure(
            &format!("{key}_probe_overall_imbalance"),
            run.probe_overall_imbalance,
        );
        envelope.measure(&format!("{key}_max_lnl_drift"), run.max_lnl_drift);
    }

    if masked.within_round_reschedules == 0 {
        let msg = "the mask-aware policy never fired within a round".to_string();
        eprintln!("REGRESSION: {msg}");
        envelope.violation(msg);
    }
    if masked.probe_masked_imbalance >= static_run.probe_masked_imbalance {
        let msg = format!(
            "mask-aware placement's masked imbalance {:.3} is not below static cyclic {:.3}",
            masked.probe_masked_imbalance, static_run.probe_masked_imbalance
        );
        eprintln!("REGRESSION: {msg}");
        envelope.violation(msg);
    }
    if masked.probe_masked_imbalance >= between.probe_masked_imbalance {
        let msg = format!(
            "mask-aware placement's masked imbalance {:.3} is not below \
             between-round-only {:.3}",
            masked.probe_masked_imbalance, between.probe_masked_imbalance
        );
        eprintln!("REGRESSION: {msg}");
        envelope.violation(msg);
    }
    for run in &comparison.runs {
        // NaN drift must fail the gate rather than slip past a < comparison.
        if run.max_lnl_drift.is_nan() || run.max_lnl_drift > 1e-8 {
            let msg = format!(
                "{} drifted the log likelihood by {:.2e} across migrations",
                run.label, run.max_lnl_drift
            );
            eprintln!("REGRESSION: {msg}");
            envelope.violation(msg);
        }
        let rel = ((run.final_lnl - static_run.final_lnl) / static_run.final_lnl).abs();
        if rel.is_nan() || rel > 1e-6 {
            let msg = format!(
                "{} final lnL {:.6} deviates from static {:.6}",
                run.label, run.final_lnl, static_run.final_lnl
            );
            eprintln!("REGRESSION: {msg}");
            envelope.violation(msg);
        }
    }
    let path = "BENCH_mask_resched.json";
    match std::fs::write(path, envelope.to_json()) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("warning: could not write {path}: {e}"),
    }
    if !envelope.passed() {
        std::process::exit(1);
    }
    println!(
        "mask-aware within-round rescheduling beats static cyclic and between-round-only \
         rescheduling on masked-region imbalance."
    );
}
