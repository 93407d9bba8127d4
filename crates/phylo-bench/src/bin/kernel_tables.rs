//! Self-gating report for the shared per-branch table layer
//! (`phylo_kernel::tables`) and the two kernel dispatches that read it, on
//! the default mixed DNA/protein dataset, with the numerical-agreement and
//! rescheduling-drift gates that make the speedup a regression gate instead
//! of a claim.
//!
//! Three checks, any failure exits non-zero:
//!
//! 1. **Dispatch** — the cache-blocked, width-specialized inner loops
//!    (`KernelDispatch::Blocked`, the engine default) must run repeated
//!    cold-CLV evaluation sweeps ≥ 2.5× faster per region than the scalar
//!    tabled reference (`KernelDispatch::Scalar`), with per-partition lnL
//!    agreement ≤ 1e-12 and bit-for-bit identity on DNA partitions. The
//!    sweep times `newview` + `evaluate` only: the sum-table/derivative ops
//!    are dispatch-independent and would dilute the ratio.
//! 2. **Calibration** — measured per-pattern cost ratio protein/DNA under
//!    the blocked kernel (the dispatch the scheduler actually packs for),
//!    gated against the analytic blocked ratio: the analytic model must stay
//!    within a factor 2 of the measurement, and protein must measure
//!    costlier than DNA (container timers are noisy, hence the loose floor).
//! 3. **Drift** — the staggered-convergence mask-aware rescheduling runs
//!    preserve the log likelihood to ≤ 1e-8 across every mid-run migration.
//!
//! The measured numbers are also written to `BENCH_kernel_tables.json` in
//! the working directory.
//!
//! Run with `cargo run --release -p phylo-bench --bin kernel_tables`.
//! Set `PLF_SCALE` (0, 1] to change the dataset size.

use std::sync::Arc;
use std::time::Instant;

use phylo_bench::scheduling::{compare_mask_resched, default_mixed_dataset};
use phylo_data::DataType;
use phylo_kernel::{KernelDispatch, SequentialKernel};
use phylo_models::{BranchLengthMode, ModelSet};
use phylo_perfmodel::CostCalibration;
use phylo_seqgen::GeneratedDataset;
use phylo_telemetry::BenchEnvelope;

const DISPATCH_GATE: f64 = 2.5;
const AGREEMENT_GATE: f64 = 1e-12;
const MODEL_DRIFT_FACTOR_GATE: f64 = 2.0;
const DRIFT_GATE: f64 = 1e-8;
const VIRTUAL_WORKERS: usize = 16;

/// Best-of-`reps` seconds for one full cold-CLV evaluation sweep (every
/// partition's newview chain plus the root evaluation) under the kernel's
/// currently selected dispatch, plus the per-partition log likelihoods.
fn cold_eval_sweep(kernel: &mut SequentialKernel, reps: usize) -> (f64, Vec<f64>) {
    let root = kernel.default_root_branch();
    let mask = kernel.full_mask();
    let mut best = f64::INFINITY;
    let mut lnl = Vec::new();
    for _ in 0..reps {
        kernel.invalidate_all();
        let start = Instant::now();
        lnl = kernel
            .try_log_likelihood_partitions(root, &mask)
            .expect("sequential evaluation succeeds");
        best = best.min(start.elapsed().as_secs_f64());
    }
    (best, lnl)
}

/// Measured seconds of likelihood work per pattern for one partition:
/// repeated single-partition evaluations from cold CLVs on the tabled
/// sequential engine.
fn seconds_per_pattern(kernel: &mut SequentialKernel, partition: usize, reps: usize) -> f64 {
    let root = kernel.default_root_branch();
    let mask = kernel.single_mask(partition);
    let patterns = kernel.patterns().partitions[partition].pattern_count();
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        kernel.invalidate_all();
        let start = Instant::now();
        let _ = kernel
            .try_log_likelihood_partitions(root, &mask)
            .expect("sequential evaluation succeeds");
        best = best.min(start.elapsed().as_secs_f64());
    }
    best / patterns as f64
}

fn main() {
    let dataset = default_mixed_dataset();
    println!(
        "dataset: {} ({} taxa, {} partitions, {} patterns)\n",
        dataset.spec.name,
        dataset.spec.taxa,
        dataset.spec.partition_count(),
        dataset.total_patterns()
    );
    let mut envelope = BenchEnvelope::new("kernel_tables", &dataset.spec.name)
        .run_num("taxa", dataset.spec.taxa as f64)
        .run_num("partitions", dataset.spec.partition_count() as f64)
        .run_num("patterns", dataset.total_patterns() as f64)
        .run_num("virtual_workers", VIRTUAL_WORKERS as f64)
        .run_str("mode", "best-of-5")
        .gate("dispatch_min", DISPATCH_GATE)
        .gate("agreement_max", AGREEMENT_GATE)
        .gate("model_drift_factor_max", MODEL_DRIFT_FACTOR_GATE)
        .gate("drift_max", DRIFT_GATE);
    let mut violations = 0usize;

    // 1. Blocked vs scalar dispatch on repeated cold-CLV evaluation sweeps:
    // one engine on the blocked default, a second pinned to the scalar
    // tabled reference.
    let mut tabled = SequentialKernel::build(
        Arc::clone(&dataset.patterns),
        dataset.tree.clone(),
        ModelSet::default_for(&dataset.patterns, BranchLengthMode::PerPartition),
    )
    .unwrap();
    let mut scalar = SequentialKernel::build(
        Arc::clone(&dataset.patterns),
        dataset.tree.clone(),
        ModelSet::default_for(&dataset.patterns, BranchLengthMode::PerPartition),
    )
    .unwrap();
    scalar.set_dispatch(KernelDispatch::Scalar);
    assert_eq!(tabled.dispatch(), KernelDispatch::Blocked, "fast default");
    let (blocked_seconds, blocked_lnl) = cold_eval_sweep(&mut tabled, 5);
    let (scalar_seconds, scalar_lnl) = cold_eval_sweep(&mut scalar, 5);
    let dispatch_ratio = scalar_seconds / blocked_seconds;
    let mut dispatch_gap = 0.0f64;
    let mut dna_exact = true;
    for (i, (b, s)) in blocked_lnl.iter().zip(scalar_lnl.iter()).enumerate() {
        dispatch_gap = dispatch_gap.max((b - s).abs());
        if dataset.patterns.partitions[i].data_type == DataType::Dna && b.to_bits() != s.to_bits() {
            dna_exact = false;
        }
    }
    println!("\ndispatch (cold-CLV evaluation sweeps, sequential):");
    println!("  scalar     {scalar_seconds:>8.3} s");
    println!("  blocked    {blocked_seconds:>8.3} s");
    println!(
        "  ratio      {dispatch_ratio:>8.2}x  (gate ≥ {DISPATCH_GATE}x)   max |Δ lnL| = {dispatch_gap:.2e}, DNA bit-for-bit: {dna_exact}"
    );
    if dispatch_ratio.is_nan() || dispatch_ratio < DISPATCH_GATE {
        let msg = format!(
            "blocked dispatch only {dispatch_ratio:.2}x faster than scalar tabled (gate {DISPATCH_GATE}x)"
        );
        eprintln!("REGRESSION: {msg}");
        envelope.violation(msg);
        violations += 1;
    }
    if dispatch_gap.is_nan() || dispatch_gap > AGREEMENT_GATE {
        let msg = format!(
            "blocked dispatch disagrees with the scalar reference by {dispatch_gap:.2e} (gate {AGREEMENT_GATE:.0e})"
        );
        eprintln!("REGRESSION: {msg}");
        envelope.violation(msg);
        violations += 1;
    }
    if !dna_exact {
        let msg = "DNA partitions must be bit-for-bit identical across dispatches".to_string();
        eprintln!("REGRESSION: {msg}");
        envelope.violation(msg);
        violations += 1;
    }

    // 2. Measured per-pattern cost calibration under the blocked kernel (the
    // dispatch the scheduler actually packs for), gated against the analytic
    // blocked ratio: the model may not drift beyond a factor 2 from the
    // hardware.
    let (dna_partition, protein_partition) = (0usize, dataset.spec.partition_count() - 1);
    let dna = seconds_per_pattern(&mut tabled, dna_partition, 3);
    let protein = seconds_per_pattern(&mut tabled, protein_partition, 3);
    if std::env::var("PLF_DISPATCH_DETAIL").is_ok() {
        let sdna = seconds_per_pattern(&mut scalar, dna_partition, 3);
        let sprot = seconds_per_pattern(&mut scalar, protein_partition, 3);
        println!("\n[detail] scalar  DNA {sdna:.3e}  protein {sprot:.3e} s/pattern");
        println!("[detail] blocked DNA {dna:.3e}  protein {protein:.3e} s/pattern");
        println!(
            "[detail] per-type ratio: DNA {:.2}x  protein {:.2}x",
            sdna / dna,
            sprot / protein
        );
    }
    let calibration = CostCalibration {
        dna_seconds_per_pattern: dna,
        protein_seconds_per_pattern: protein,
    };
    let categories = 4;
    let analytic_blocked = CostCalibration::analytic_ratio(KernelDispatch::Blocked, categories);
    let analytic_tabled = CostCalibration::analytic_ratio(KernelDispatch::Scalar, categories);
    let drift_factor = calibration.analytic_drift_factor(analytic_blocked);
    println!("\ncost calibration (measured, blocked kernel):");
    println!("  DNA      {:.3e} s/pattern", dna);
    println!("  protein  {:.3e} s/pattern", protein);
    println!(
        "  ratio    {:.1}  (analytic blocked {:.1}, tabled {:.1}; drift factor {:.2}, gate ≤ {:.1})",
        calibration.ratio(),
        analytic_blocked,
        analytic_tabled,
        drift_factor,
        MODEL_DRIFT_FACTOR_GATE
    );
    let measured_ratio = calibration.ratio();
    if measured_ratio.is_nan() || measured_ratio <= 1.0 {
        let msg = "protein patterns must measure costlier than DNA".to_string();
        eprintln!("REGRESSION: {msg}");
        envelope.violation(msg);
        violations += 1;
    }
    if drift_factor.is_nan() || drift_factor > MODEL_DRIFT_FACTOR_GATE {
        let msg = format!(
            "analytic blocked ratio {analytic_blocked:.1} drifts {drift_factor:.2}x from the measured {measured_ratio:.1} (gate {MODEL_DRIFT_FACTOR_GATE}x)"
        );
        eprintln!("REGRESSION: {msg}");
        envelope.violation(msg);
        violations += 1;
    }

    // 3. Zero drift through the mask-aware/adaptive rescheduling runs.
    let staggered = staggered_convergence_dataset_local();
    let comparison = compare_mask_resched(&staggered, VIRTUAL_WORKERS)
        .expect("virtual executors cannot lose workers");
    let mut worst_drift = 0.0f64;
    for run in &comparison.runs {
        if run.max_lnl_drift.is_nan() || run.max_lnl_drift > DRIFT_GATE {
            let msg = format!(
                "{} drifted the log likelihood by {:.2e} across migrations",
                run.label, run.max_lnl_drift
            );
            eprintln!("REGRESSION: {msg}");
            envelope.violation(msg);
            violations += 1;
        }
        worst_drift = worst_drift.max(run.max_lnl_drift);
    }
    println!("\nrescheduling drift: max |Δ lnL| = {worst_drift:.2e} (gate ≤ {DRIFT_GATE:.0e})");

    // Emit the trajectory record in the shared envelope schema.
    envelope.measure("dispatch_scalar_seconds", scalar_seconds);
    envelope.measure("dispatch_blocked_seconds", blocked_seconds);
    envelope.measure("dispatch_ratio", dispatch_ratio);
    envelope.measure("dispatch_agreement_max_abs_dlnl", dispatch_gap);
    envelope.measure("measured_cost_ratio", calibration.ratio());
    envelope.measure("analytic_blocked_ratio", analytic_blocked);
    envelope.measure("model_drift_factor", drift_factor);
    envelope.measure("analytic_tabled_ratio", analytic_tabled);
    envelope.measure("resched_max_drift", worst_drift);
    let path = "BENCH_kernel_tables.json";
    match std::fs::write(path, envelope.to_json()) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => eprintln!("warning: could not write {path}: {e}"),
    }

    if violations > 0 {
        std::process::exit(1);
    }
}

/// The staggered-convergence dataset of the `mask_resched` report, reused
/// here so the drift gate covers the exact runs the rescheduling yardstick
/// measures.
fn staggered_convergence_dataset_local() -> GeneratedDataset {
    phylo_bench::scheduling::staggered_convergence_dataset(2026)
}
