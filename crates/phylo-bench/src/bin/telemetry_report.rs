//! Self-gating telemetry report: measures the wall-clock overhead of the
//! telemetry subsystem on a real threaded optimize run, checks the event
//! stream for coherence against the kernel's own statistics, and renders a
//! per-region ASCII timeline (worker lanes, convergence-mask patterns,
//! reschedule markers) from a mask-aware adaptive run.
//!
//! Two workloads:
//!
//! * **overhead** — the default mixed DNA/protein dataset on a
//!   [`ThreadedExecutor`], best-of-N with telemetry fully on (regions +
//!   probes) vs fully off. Gates: on/off wall-clock ratio ≤ 1.05, and the
//!   final log likelihood **bit-identical** between the two (telemetry must
//!   never perturb a numeric result).
//! * **timeline** — the staggered-convergence dataset on virtual workers
//!   with the mask-aware within-round rescheduler, so the rendered timeline
//!   shows shrinking `#`/`.` masks and `>>>` reschedule markers.
//!
//! Writes the unified bench envelope to `BENCH_telemetry.json` and exits
//! non-zero on any gate violation.
//!
//! Run with `cargo run --release -p phylo-bench --bin telemetry_report`.
//! Set `PLF_SCALE` (0, 1] to change the dataset size.

use std::time::Instant;

use phylo_bench::scheduling::{
    default_categories, default_mixed_dataset, staggered_convergence_dataset,
};
use phylo_kernel::cost::TraceUnit;
use phylo_kernel::LikelihoodKernel;
use phylo_models::{BranchLengthMode, ModelSet};
use phylo_optimize::{
    optimize_model_parameters, optimize_model_parameters_with_policy, OptimizationReport,
    OptimizerConfig, ParallelScheme, RunPolicy,
};
use phylo_parallel::{ThreadedExecutor, TracingExecutor};
use phylo_sched::{
    Assignment, Cyclic, PatternCosts, ReschedulePolicy, Rescheduler, ScheduleStrategy,
};
use phylo_seqgen::datasets::GeneratedDataset;
use phylo_telemetry::{
    BenchEnvelope, Telemetry, TelemetryConfig, TelemetryEvent, TelemetrySnapshot,
};

/// Best-of-N repeats for the overhead measurement; the minimum is robust to
/// scheduler noise on a shared CI host.
const REPEATS: usize = 5;
/// Overhead gate: telemetry-on wall clock must stay within 5% of off.
const OVERHEAD_MAX: f64 = 1.05;
/// Worker threads for the overhead run.
const THREADS: usize = 4;
/// Region lines printed before the timeline elides (markers always print).
const TIMELINE_REGION_LINES: usize = 48;

fn cyclic_assignment(dataset: &GeneratedDataset, workers: usize) -> (PatternCosts, Assignment) {
    let categories = default_categories(dataset);
    let costs = PatternCosts::analytic_tabled(&dataset.patterns, &categories);
    let assignment = Cyclic
        .assign(&costs, workers)
        .expect("cyclic accepts any non-empty dataset");
    (costs, assignment)
}

/// One timed threaded optimize run; `telemetry: None` leaves the kernel with
/// the zero-cost disabled handle.
fn threaded_run(
    dataset: &GeneratedDataset,
    assignment: &Assignment,
    telemetry: Option<&Telemetry>,
) -> (f64, OptimizationReport, u64) {
    let models = ModelSet::default_for(&dataset.patterns, BranchLengthMode::PerPartition);
    let categories: Vec<usize> = models.models().iter().map(|m| m.categories()).collect();
    let executor = ThreadedExecutor::from_assignment(
        &dataset.patterns,
        assignment,
        dataset.tree.node_capacity(),
        &categories,
    )
    .expect("assignment was built for this dataset");
    let mut kernel = LikelihoodKernel::try_new(
        std::sync::Arc::clone(&dataset.patterns),
        dataset.tree.clone(),
        models,
        executor,
    )
    .unwrap();
    if let Some(t) = telemetry {
        kernel.set_telemetry(t);
    }
    let config = OptimizerConfig::new(ParallelScheme::New);
    let start = Instant::now();
    let report =
        optimize_model_parameters(&mut kernel, &config).expect("no worker faults are injected");
    let seconds = start.elapsed().as_secs_f64();
    (seconds, report, kernel.stats().table_builds)
}

/// Runs the staggered-convergence workload with the mask-aware rescheduler
/// and telemetry on (probes off: one event per region, not per probe).
fn timeline_run(dataset: &GeneratedDataset) -> (TelemetrySnapshot, usize) {
    let workers = 16;
    let (costs, assignment) = cyclic_assignment(dataset, workers);
    let models = ModelSet::default_for(&dataset.patterns, BranchLengthMode::PerPartition);
    let categories: Vec<usize> = models.models().iter().map(|m| m.categories()).collect();
    let executor = TracingExecutor::from_assignment(
        &dataset.patterns,
        &assignment,
        dataset.tree.node_capacity(),
        &categories,
    )
    .expect("assignment was built for this dataset");
    let mut kernel = LikelihoodKernel::try_new(
        std::sync::Arc::clone(&dataset.patterns),
        dataset.tree.clone(),
        models,
        executor,
    )
    .unwrap();
    let telemetry = Telemetry::new(
        TelemetryConfig::default()
            .probes(false)
            .event_capacity(1 << 20),
    );
    kernel.set_telemetry(&telemetry);
    let policy = ReschedulePolicy {
        imbalance_threshold: 1.25,
        min_regions: 12,
        unit: TraceUnit::Flops,
        max_reschedules: 4,
        mask_aware: true,
    };
    let mut rescheduler = Rescheduler::with_telemetry(policy, &telemetry);
    let config = OptimizerConfig::new(ParallelScheme::New);
    let report = optimize_model_parameters_with_policy(
        &mut kernel,
        &config,
        RunPolicy::rescheduling(&mut rescheduler, &costs),
    )
    .expect("virtual executors cannot lose workers");
    (telemetry.snapshot(), report.events.len())
}

/// One worker lane character: the worker's share of the region's slowest
/// lane, on a ten-step ASCII density ramp.
fn lane_char(seconds: f64, max: f64) -> char {
    const RAMP: [char; 10] = [' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'];
    if max <= 0.0 {
        return ' ';
    }
    let idx = ((seconds / max) * (RAMP.len() - 1) as f64).round() as usize;
    RAMP[idx.min(RAMP.len() - 1)]
}

fn mask_string(mask: &[bool]) -> String {
    mask.iter().map(|&a| if a { '#' } else { '.' }).collect()
}

/// Renders the per-region timeline: one line per region (sequence number,
/// op kind, convergence mask, wall time, per-worker load lanes), with
/// reschedule / death / recovery / round markers inline. Region lines elide
/// after `max_region_lines`; markers always print.
fn render_timeline(events: &[TelemetryEvent], max_region_lines: usize) -> String {
    use std::collections::HashMap;
    use std::fmt::Write;

    let mut out = String::new();
    let mut masks: HashMap<u64, String> = HashMap::new();
    let mut region_lines = 0usize;
    let mut elided = 0usize;
    for event in events {
        match event {
            TelemetryEvent::RegionStart { region, mask, .. } => {
                masks.insert(*region, mask_string(mask));
            }
            TelemetryEvent::RegionEnd {
                t,
                region,
                kind,
                seconds,
                worker_seconds,
                ..
            } => {
                let mask = masks.remove(region).unwrap_or_default();
                if region_lines >= max_region_lines {
                    elided += 1;
                    continue;
                }
                region_lines += 1;
                let max = worker_seconds.iter().copied().fold(0.0f64, f64::max);
                let lanes: String = worker_seconds.iter().map(|&s| lane_char(s, max)).collect();
                let _ = writeln!(
                    out,
                    "{t:>9.4}s  #{region:<5} {kind:<28} [{mask}] {:>9.1}us |{lanes}|",
                    seconds * 1e6
                );
            }
            TelemetryEvent::Reschedule {
                t,
                round,
                within_round,
                measured_imbalance,
                predicted_imbalance,
            } => {
                let when = if *within_round {
                    "within round"
                } else {
                    "round boundary"
                };
                let _ = writeln!(
                    out,
                    "{t:>9.4}s  >>> reschedule ({when}, round {round}): measured imbalance \
                     {measured_imbalance:.3} -> predicted {predicted_imbalance:.3}"
                );
            }
            TelemetryEvent::WorkerDeath { t, worker, region } => {
                let _ = writeln!(
                    out,
                    "{t:>9.4}s  !!! worker {worker} died in region #{region}"
                );
            }
            TelemetryEvent::WorkerRecovery { t, worker, attempt } => {
                let _ = writeln!(
                    out,
                    "{t:>9.4}s  +++ worker {worker} recovered (attempt {attempt})"
                );
            }
            TelemetryEvent::OptimizerRound {
                t,
                round,
                log_likelihood,
                ..
            } => {
                let _ = writeln!(
                    out,
                    "{t:>9.4}s  === round {round} done: lnL = {log_likelihood:.6}"
                );
            }
            _ => {}
        }
    }
    if elided > 0 {
        let _ = writeln!(out, "           ... ({elided} more regions elided)");
    }
    out
}

fn main() {
    let dataset = default_mixed_dataset();
    println!(
        "overhead dataset: {} ({} taxa, {} partitions, {} patterns), {THREADS} threads, \
         best of {REPEATS}",
        dataset.spec.name,
        dataset.spec.taxa,
        dataset.spec.partition_count(),
        dataset.total_patterns()
    );
    let (_, assignment) = cyclic_assignment(&dataset, THREADS);

    // Telemetry OFF: the disabled handle, one pointer check per site.
    let mut off_best = f64::INFINITY;
    let mut off_lnl = f64::NAN;
    for _ in 0..REPEATS {
        let (seconds, report, _) = threaded_run(&dataset, &assignment, None);
        off_best = off_best.min(seconds);
        off_lnl = report.final_log_likelihood;
    }

    // Telemetry ON: everything recorded, including per-probe events.
    let mut on_best = f64::INFINITY;
    let mut on_lnl = f64::NAN;
    let mut on_rounds = 0usize;
    let mut kernel_builds = 0u64;
    let mut snapshot: Option<TelemetrySnapshot> = None;
    for _ in 0..REPEATS {
        let telemetry = Telemetry::new(TelemetryConfig::default().event_capacity(1 << 21));
        let (seconds, report, builds) = threaded_run(&dataset, &assignment, Some(&telemetry));
        on_best = on_best.min(seconds);
        on_lnl = report.final_log_likelihood;
        on_rounds = report.rounds;
        kernel_builds = builds;
        snapshot = Some(telemetry.snapshot());
    }
    let snap = snapshot.expect("REPEATS > 0");
    let ratio = on_best / off_best;
    let drift = (on_lnl - off_lnl).abs();
    println!(
        "telemetry off: {:>8.1}ms   on: {:>8.1}ms   overhead ratio: {ratio:.4} (gate <= {OVERHEAD_MAX})",
        off_best * 1e3,
        on_best * 1e3
    );
    println!("lnL off: {off_lnl:.9}   on: {on_lnl:.9}   drift: {drift:.3e} (gate: exactly 0)");
    let c = &snap.counters;
    println!(
        "events: {} recorded, {} dropped; {} regions, {} table builds, {} newton + {} brent \
         probes, tip hit rate {:.3}",
        c.events_recorded,
        c.events_dropped,
        c.regions_completed,
        c.table_builds,
        c.newton_probes,
        c.brent_probes,
        snap.tip_cache_hit_rate()
    );

    let timeline_dataset = staggered_convergence_dataset(2026);
    let (timeline_snap, timeline_reschedules) = timeline_run(&timeline_dataset);
    println!(
        "\ntimeline dataset: {} (16 virtual workers, mask-aware rescheduler)",
        timeline_dataset.spec.name
    );
    println!(
        "--- per-region timeline ({} regions, {} reschedules; lanes are per-worker load) ---",
        timeline_snap.counters.regions_completed, timeline_reschedules
    );
    print!(
        "{}",
        render_timeline(&timeline_snap.events, TIMELINE_REGION_LINES)
    );

    let mut envelope = BenchEnvelope::new("telemetry_report", &dataset.spec.name)
        .run_num("taxa", dataset.spec.taxa as f64)
        .run_num("partitions", dataset.spec.partition_count() as f64)
        .run_num("patterns", dataset.total_patterns() as f64)
        .run_num("threads", THREADS as f64)
        .run_num("repeats", REPEATS as f64)
        .run_str("timeline_dataset", &timeline_dataset.spec.name)
        .gate("overhead_max", OVERHEAD_MAX)
        .gate("drift_max", 0.0);
    envelope.measure("telemetry_off_seconds", off_best);
    envelope.measure("telemetry_on_seconds", on_best);
    envelope.measure("overhead_ratio", ratio);
    envelope.measure("lnl_drift_abs", drift);
    envelope.measure("regions_started", c.regions_started as f64);
    envelope.measure("regions_completed", c.regions_completed as f64);
    envelope.measure("events_recorded", c.events_recorded as f64);
    envelope.measure("events_dropped", c.events_dropped as f64);
    envelope.measure("table_builds_telemetry", c.table_builds as f64);
    envelope.measure("table_builds_kernel", kernel_builds as f64);
    envelope.measure("optimizer_rounds", c.optimizer_rounds as f64);
    envelope.measure("newton_probes", c.newton_probes as f64);
    envelope.measure("brent_probes", c.brent_probes as f64);
    envelope.measure("tip_hit_rate", snap.tip_cache_hit_rate());
    envelope.measure("timeline_reschedules", timeline_reschedules as f64);
    envelope.measure(
        "timeline_regions",
        timeline_snap.counters.regions_completed as f64,
    );

    // The NaN checks make a broken (empty or non-finite) measurement fail
    // the gate rather than slip past a <= comparison.
    if ratio.is_nan() || ratio > OVERHEAD_MAX {
        let msg = format!(
            "telemetry overhead ratio {ratio:.4} exceeds {OVERHEAD_MAX} \
             (on {on_best:.4}s vs off {off_best:.4}s)"
        );
        eprintln!("REGRESSION: {msg}");
        envelope.violation(msg);
    }
    if on_lnl.to_bits() != off_lnl.to_bits() {
        let msg =
            format!("telemetry perturbed the log likelihood: off {off_lnl:.12} vs on {on_lnl:.12}");
        eprintln!("REGRESSION: {msg}");
        envelope.violation(msg);
    }
    if c.regions_started != c.regions_completed || c.worker_deaths != 0 {
        let msg = format!(
            "incoherent event stream: {} regions started, {} completed, {} deaths",
            c.regions_started, c.regions_completed, c.worker_deaths
        );
        eprintln!("REGRESSION: {msg}");
        envelope.violation(msg);
    }
    if c.table_builds != kernel_builds {
        let msg = format!(
            "telemetry counted {} table builds but the kernel reports {}",
            c.table_builds, kernel_builds
        );
        eprintln!("REGRESSION: {msg}");
        envelope.violation(msg);
    }
    if c.optimizer_rounds as usize != on_rounds {
        let msg = format!(
            "telemetry counted {} optimizer rounds but the report says {}",
            c.optimizer_rounds, on_rounds
        );
        eprintln!("REGRESSION: {msg}");
        envelope.violation(msg);
    }
    if c.events_dropped != 0 {
        let msg = format!(
            "{} events dropped: the event capacity is too small for the workload",
            c.events_dropped
        );
        eprintln!("REGRESSION: {msg}");
        envelope.violation(msg);
    }
    if timeline_reschedules == 0 {
        let msg = "the timeline run's mask-aware rescheduler never fired".to_string();
        eprintln!("REGRESSION: {msg}");
        envelope.violation(msg);
    }

    let path = "BENCH_telemetry.json";
    match std::fs::write(path, envelope.to_json()) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => eprintln!("warning: could not write {path}: {e}"),
    }
    if !envelope.passed() {
        std::process::exit(1);
    }
    println!("telemetry overhead within gate; event stream coherent; lnL bit-identical.");
}
