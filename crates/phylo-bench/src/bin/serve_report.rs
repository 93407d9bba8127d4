//! The multi-tenant serving gate: 32 independent sessions (mixed DNA and
//! DNA+protein datasets) served concurrently on ONE shared 4-thread pool
//! versus the same 32 sessions run sequentially — one at a time through
//! the same pool, and back to back on dedicated 4-thread executors.
//!
//! One session has a worker death injected into its first dispatched op
//! (the initial-likelihood evaluate, before any parameter commit), so the
//! gate also exercises the recovery path under multi-tenancy.
//!
//! The binary self-gates (exits non-zero) unless:
//!
//! * concurrent serving beats the 32 sequential runs through the same pool
//!   on aggregate throughput (speedup ≥ 1.05) — the two sides share every
//!   per-op cost, so the ratio isolates what fused cross-tenant barriers
//!   buy and holds on any host,
//! * concurrent serving also stays within a parity bound of 32 dedicated
//!   per-session executors run back to back (≥ 0.80×): on a many-core
//!   host the pool wins this outright, on the single-core CI box the two
//!   are at parity, and a transport regression (e.g. a linger window on
//!   the hot path) drags it far below the bound,
//! * within each session class, the p95 session latency stays within 1.5×
//!   the class mean (weighted fair scheduling, no starved tenant),
//! * every session's final log likelihood is bit-identical to its solo run
//!   — including the session whose worker died (exactly one recovery
//!   there, zero everywhere else, exactly one pool panic observed),
//! * fused batches actually shared barriers across tenants
//!   (`max_batch_fused > 1`, fewer batches than ops).
//!
//! Run with `cargo run --release -p phylo-bench --bin serve_report`.

use std::time::Duration;

use phylo_bench::serving::{
    compare_serving, mixed_serving_fleet, p95, print_serve_comparison, CLASS_DNA, CLASS_MIXED,
};
use phylo_serve::TenantStrategy;
use phylo_telemetry::BenchEnvelope;

const SESSIONS: usize = 32;
const WORKERS: usize = 4;
const FAULT_SESSION: usize = 0;
const MIN_SPEEDUP: f64 = 1.05;
const MIN_DEDICATED_SPEEDUP: f64 = 0.80;
const MAX_P95_OVER_MEAN: f64 = 1.5;

fn main() {
    let fleet = mixed_serving_fleet(SESSIONS, 2026);
    println!(
        "fleet: {} sessions ({} dna, {} mixed dna+protein) on a {}-thread shared pool; \
         worker death injected into session {}\n",
        fleet.len(),
        fleet.iter().filter(|s| s.class == CLASS_DNA).count(),
        fleet.iter().filter(|s| s.class == CLASS_MIXED).count(),
        WORKERS,
        FAULT_SESSION
    );
    // Locality-tuned strategy: a narrow fusion width with a large service
    // quantum keeps only ~`max_batch` tenants' state hot on the workers'
    // caches at a time (32 interleaved tenants thrash them), while stride
    // accounting still spreads service fairly across the whole fleet.
    let strategy = TenantStrategy {
        max_sessions: SESSIONS * 2,
        max_batch: 4,
        batch_window: Duration::ZERO,
        quantum: 64,
    };
    let comparison = compare_serving(&fleet, WORKERS, strategy, FAULT_SESSION);
    print_serve_comparison(&comparison);

    let mut envelope = BenchEnvelope::new("serve_report", "mixed-serving-fleet")
        .run_num("sessions", SESSIONS as f64)
        .run_num("workers", WORKERS as f64)
        .run_num("fault_session", FAULT_SESSION as f64)
        .gate("min_aggregate_speedup", MIN_SPEEDUP)
        .gate("min_dedicated_speedup", MIN_DEDICATED_SPEEDUP)
        .gate("max_p95_over_mean", MAX_P95_OVER_MEAN)
        .gate("max_lnl_bit_drift", 0.0);
    envelope.measure("aggregate_speedup", comparison.aggregate_speedup());
    envelope.measure("dedicated_speedup", comparison.dedicated_speedup());
    envelope.measure(
        "sequential_total_s",
        comparison.sequential_total.as_secs_f64(),
    );
    envelope.measure(
        "serial_submission_total_s",
        comparison.serial_submission_total.as_secs_f64(),
    );
    envelope.measure(
        "concurrent_wall_s",
        comparison.concurrent_wall.as_secs_f64(),
    );
    envelope.measure("ops_dispatched", comparison.stats.ops_dispatched as f64);
    envelope.measure("batches", comparison.stats.batches as f64);
    envelope.measure("max_batch_fused", comparison.stats.max_batch_fused as f64);
    envelope.measure("worker_panics", comparison.stats.worker_panics as f64);

    // Gate 1: aggregate throughput — concurrent serving must beat serving
    // the same fleet one session at a time on the same pool.
    let speedup = comparison.aggregate_speedup();
    if speedup < MIN_SPEEDUP {
        let msg = format!(
            "concurrent serving speedup {speedup:.3}x over serial submission is below the \
             {MIN_SPEEDUP:.2}x gate (serial {:.2}s vs concurrent {:.2}s)",
            comparison.serial_submission_total.as_secs_f64(),
            comparison.concurrent_wall.as_secs_f64()
        );
        eprintln!("REGRESSION: {msg}");
        envelope.violation(msg);
    }

    // Gate 1b: parity bound against dedicated per-session executors — a
    // transport regression on the hot path shows up here.
    let dedicated = comparison.dedicated_speedup();
    if dedicated < MIN_DEDICATED_SPEEDUP {
        let msg = format!(
            "concurrent serving fell to {dedicated:.3}x of the dedicated sequential runs \
             (bound {MIN_DEDICATED_SPEEDUP:.2}x): the pool's per-op transport regressed \
             (dedicated {:.2}s vs concurrent {:.2}s)",
            comparison.sequential_total.as_secs_f64(),
            comparison.concurrent_wall.as_secs_f64()
        );
        eprintln!("REGRESSION: {msg}");
        envelope.violation(msg);
    }

    // Gate 2: fairness — within each class, p95 latency near the mean.
    for class in [CLASS_DNA, CLASS_MIXED] {
        let latencies = comparison.class_latencies(class);
        let mean = latencies.iter().sum::<f64>() / latencies.len().max(1) as f64;
        let tail = p95(&latencies);
        let ratio = tail / mean.max(1e-12);
        envelope.measure(&format!("{class}_latency_mean_s"), mean);
        envelope.measure(&format!("{class}_latency_p95_s"), tail);
        envelope.measure(&format!("{class}_p95_over_mean"), ratio);
        if ratio > MAX_P95_OVER_MEAN {
            let msg = format!(
                "{class} sessions' p95 latency {tail:.3}s is {ratio:.2}x their mean {mean:.3}s \
                 (gate {MAX_P95_OVER_MEAN:.2}x): the pool starved part of the class"
            );
            eprintln!("REGRESSION: {msg}");
            envelope.violation(msg);
        }
    }

    // Gate 3: correctness — pooled lnL bit-identical to the dedicated run,
    // recovery confined to the faulted session.
    let mut drifted = 0usize;
    for (i, record) in comparison.sessions.iter().enumerate() {
        if record.outcome.final_log_likelihood.to_bits() != record.solo.final_lnl.to_bits() {
            drifted += 1;
            let msg = format!(
                "session {} ({}) drifted on the shared pool: solo {:.12} vs pooled {:.12}",
                i, record.label, record.solo.final_lnl, record.outcome.final_log_likelihood
            );
            eprintln!("REGRESSION: {msg}");
            envelope.violation(msg);
        }
        let expected = usize::from(i == FAULT_SESSION);
        if record.outcome.recoveries.len() != expected {
            let msg = format!(
                "session {} ({}) absorbed {} worker recoveries, expected {expected}",
                i,
                record.label,
                record.outcome.recoveries.len()
            );
            eprintln!("REGRESSION: {msg}");
            envelope.violation(msg);
        }
    }
    envelope.measure("sessions_drifted", drifted as f64);
    if comparison.stats.worker_panics != 1 {
        let msg = format!(
            "expected exactly 1 injected pool panic, observed {}",
            comparison.stats.worker_panics
        );
        eprintln!("REGRESSION: {msg}");
        envelope.violation(msg);
    }

    // Gate 4: the pool actually fused cross-tenant barriers.
    if comparison.stats.max_batch_fused <= 1
        || comparison.stats.batches >= comparison.stats.ops_dispatched
    {
        let msg = format!(
            "{} concurrent tenants never shared a barrier ({} ops, {} batches, max fused {})",
            SESSIONS,
            comparison.stats.ops_dispatched,
            comparison.stats.batches,
            comparison.stats.max_batch_fused
        );
        eprintln!("REGRESSION: {msg}");
        envelope.violation(msg);
    }

    let path = "BENCH_serve.json";
    match std::fs::write(path, envelope.to_json()) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("warning: could not write {path}: {e}"),
    }
    if !envelope.passed() {
        std::process::exit(1);
    }
    println!(
        "\n{SESSIONS} concurrent sessions on one {WORKERS}-thread pool beat the same \
         {SESSIONS} sessions served one at a time {speedup:.2}x on aggregate throughput \
         ({dedicated:.2}x vs dedicated executors), with every session bit-identical to \
         its dedicated run — including the one whose worker died."
    );
}
