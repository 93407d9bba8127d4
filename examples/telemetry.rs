//! Telemetry: record a full adaptive optimization run — regions, cache
//! counters, reschedules, optimizer probes — draw it as a per-region ASCII
//! timeline and export it as JSONL and Prometheus text.
//!
//! Telemetry is off by default and costs one pointer check per
//! instrumentation site when disabled; one builder call arms it for the
//! whole session (executor, kernel caches, rescheduler, optimizers).
//!
//! Run with `cargo run --release --example telemetry`.

use plf_loadbalance::prelude::*;
use std::sync::Arc;

fn main() -> Result<(), AnalysisError> {
    // A dataset whose partitions converge at staggered rates: pairs of one
    // long and one short DNA gene. The totals are cyclically balanced, but
    // the late convergence masks are heavily skewed — exactly the shape the
    // mask-aware within-round rescheduler reacts to, so the run produces
    // migrations to observe.
    let dataset = staggered_convergence(2026).generate();
    let mut analysis = Analysis::builder(Arc::clone(&dataset.patterns), dataset.tree.clone())
        .threads(16)
        .strategy(Cyclic)
        .rescheduler(ReschedulePolicy {
            imbalance_threshold: 1.25,
            min_regions: 12,
            unit: TraceUnit::Flops,
            max_reschedules: 4,
            mask_aware: true,
        })
        // The default config records everything. Probe events dominate the
        // log on real runs, so either raise the capacity (overflow is
        // counted in `events_dropped`, never fatal) or set `.probes(false)`
        // to keep the log to one entry per region.
        .telemetry(TelemetryConfig::default().event_capacity(1 << 17))
        .build_traced()?;

    let outcome = analysis.optimize(&OptimizerConfig::new(ParallelScheme::New))?;
    println!(
        "optimized lnL {:.3} in {} rounds with {} mid-run reschedules\n",
        outcome.report.final_log_likelihood,
        outcome.report.rounds,
        outcome.events.len()
    );

    // 1. Counters: every cache, recovery and scheduling decision, numbered.
    let snapshot = analysis
        .telemetry_snapshot()
        .expect("the builder armed telemetry");
    println!("--- counters ---");
    for (name, value) in snapshot.counters.named() {
        println!("{name:>24}: {value}");
    }
    println!(
        "tip-index cache hit rate: {:.1}%, branch-table hit rate: {:.1}%",
        snapshot.tip_cache_hit_rate() * 100.0,
        snapshot.table_cache_hit_rate() * 100.0
    );

    // 2. Histograms: per-region wall time and measured imbalance.
    println!(
        "\nregions: {} recorded, mean {:.1}us, max {:.1}us; mean imbalance {:.3}",
        snapshot.region_seconds.count(),
        snapshot.region_seconds.mean() * 1e6,
        snapshot.region_seconds.max().unwrap_or(0.0) * 1e6,
        snapshot.region_imbalance.mean()
    );

    // 3. The typed event log. Reschedule events carry the measured
    //    imbalance that triggered them and the predicted one after.
    println!("\n--- reschedule events ---");
    for event in &snapshot.events {
        if let TelemetryEvent::Reschedule {
            t,
            round,
            within_round,
            measured_imbalance,
            predicted_imbalance,
        } = event
        {
            println!(
                "t={t:.4}s round {round} (within_round={within_round}): \
                 imbalance {measured_imbalance:.3} -> {predicted_imbalance:.3}"
            );
        }
    }

    // 4. The same log as a per-region timeline: worker-load lanes, the
    //    shrinking `#`/`.` convergence masks, `>>> reschedule` markers.
    println!("\n--- timeline ---");
    print!("{}", snapshot.render_timeline(48));

    // 5. Exports: JSONL (one event per line, round-trippable) and
    //    Prometheus text (counters, gauges, histograms).
    let jsonl = snapshot.to_jsonl();
    let reparsed = TelemetrySnapshot::events_from_jsonl(&jsonl);
    println!(
        "\nJSONL export: {} lines, {} events round-tripped",
        jsonl.lines().count(),
        reparsed.len()
    );
    let prom = snapshot.to_prometheus();
    println!(
        "Prometheus export ({} lines), first counters:",
        prom.lines().count()
    );
    for line in prom.lines().filter(|l| l.starts_with("plf_")).take(4) {
        println!("  {line}");
    }
    Ok(())
}
