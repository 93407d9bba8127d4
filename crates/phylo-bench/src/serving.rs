//! Multi-tenant serving comparison: N independent sessions served
//! *concurrently* on ONE shared pool versus the same N sessions run
//! sequentially — both as back-to-back submissions to the same serving
//! stack (one at a time, so no cross-tenant fusion is possible) and as
//! dedicated per-session executors of the pool's width.
//!
//! The serial-submission baseline is the throughput gate's denominator:
//! same pool, same transport, same per-op path — concurrency (and with it
//! the fused cross-tenant barriers) is the only thing removed, so the
//! speedup isolates what fusion buys. The dedicated baseline mirrors
//! [`phylo_serve::SessionManager::submit`]'s build path op for op —
//! default per-partition models, the tabled analytic cost model,
//! `WeightedLpt` over the same worker count, the resilient newPAR
//! optimizer — so the two sides differ *only* in transport: private
//! barriers per session versus fused cross-tenant barriers on the pool.
//! That makes the final log likelihoods comparable bit for bit, which is
//! the correctness gate of `serve_report`: sharing the pool (even with a
//! worker death injected into one tenant) must not move any session's
//! result by a single ulp.

use std::sync::Arc;
use std::time::{Duration, Instant};

use phylo_kernel::LikelihoodKernel;
use phylo_models::{BranchLengthMode, ModelSet};
use phylo_optimize::{optimize_model_parameters_resilient, OptimizerConfig, ParallelScheme};
use phylo_parallel::ThreadedExecutor;
use phylo_sched::{PatternCosts, ScheduleStrategy, WeightedLpt};
use phylo_seqgen::datasets::{mixed_dna_protein, paper_simulated, GeneratedDataset};
use phylo_serve::{PoolStats, SessionManager, SessionOutcome, SessionSpec, TenantStrategy};

/// Class tag for the pure-DNA sessions of the mixed fleet.
pub const CLASS_DNA: &str = "dna";
/// Class tag for the DNA+protein sessions of the mixed fleet.
pub const CLASS_MIXED: &str = "mixed";

/// One tenant of the serving fleet: its dataset plus a class tag used for
/// the per-class latency gates (DNA and mixed-protein sessions have very
/// different per-op costs, so latency spread is gated within a class).
pub struct FleetSession {
    /// Human-readable session label (also the pool session label).
    pub label: String,
    /// [`CLASS_DNA`] or [`CLASS_MIXED`].
    pub class: &'static str,
    /// The session's independent dataset (own patterns, tree, models).
    pub dataset: GeneratedDataset,
}

/// Builds the standard mixed serving fleet: `count` sessions alternating
/// between small pure-DNA datasets and mixed DNA+protein datasets, every
/// session seeded differently (independent trees and alignments).
pub fn mixed_serving_fleet(count: usize, seed: u64) -> Vec<FleetSession> {
    (0..count)
        .map(|i| {
            let (class, dataset) = if i % 2 == 0 {
                (
                    CLASS_DNA,
                    paper_simulated(6, 160, 40, seed + i as u64).generate(),
                )
            } else {
                (
                    CLASS_MIXED,
                    mixed_dna_protein(6, 2, 1, 16, seed + 1000 + i as u64).generate(),
                )
            };
            FleetSession {
                label: format!("{class}-{i}"),
                class,
                dataset,
            }
        })
        .collect()
}

/// One dedicated (non-shared) run of a session's workload.
#[derive(Debug, Clone, Copy)]
pub struct SoloRun {
    /// Final log likelihood of the dedicated run.
    pub final_lnl: f64,
    /// Wall-clock time of the dedicated run (schedule + optimize).
    pub wall: Duration,
}

/// Runs one session on a dedicated [`ThreadedExecutor`] of width `workers`,
/// replicating the serve-side build (default per-partition models, tabled
/// analytic costs, `WeightedLpt`, resilient newPAR optimizer).
pub fn run_solo(dataset: &GeneratedDataset, workers: usize) -> SoloRun {
    let started = Instant::now();
    let patterns = Arc::clone(&dataset.patterns);
    let tree = dataset.tree.clone();
    let models = ModelSet::default_for(&patterns, BranchLengthMode::PerPartition);
    let categories: Vec<usize> = models.models().iter().map(|m| m.categories()).collect();
    let costs = PatternCosts::analytic_tabled(&patterns, &categories);
    let assignment = WeightedLpt
        .assign(&costs, workers)
        .expect("solo baseline schedule");
    let executor = ThreadedExecutor::from_assignment(
        &patterns,
        &assignment,
        tree.node_capacity(),
        &categories,
    )
    .expect("solo baseline executor");
    let mut kernel =
        LikelihoodKernel::try_new(patterns, tree, models, executor).expect("solo baseline kernel");
    let (report, recoveries) = optimize_model_parameters_resilient(
        &mut kernel,
        &OptimizerConfig::new(ParallelScheme::New),
    )
    .expect("solo baseline optimize");
    assert!(
        recoveries.is_empty(),
        "undisturbed solo baseline recovered a worker"
    );
    SoloRun {
        final_lnl: report.final_log_likelihood,
        wall: started.elapsed(),
    }
}

/// One fleet session's pair of runs: dedicated baseline + pooled outcome.
#[derive(Debug, Clone)]
pub struct SessionRecord {
    /// The session's label from the fleet.
    pub label: String,
    /// [`CLASS_DNA`] or [`CLASS_MIXED`].
    pub class: &'static str,
    /// The dedicated-executor baseline.
    pub solo: SoloRun,
    /// The shared-pool outcome.
    pub outcome: SessionOutcome,
}

/// The serve-versus-sequential comparison for one fleet.
#[derive(Debug, Clone)]
pub struct ServeComparison {
    /// Pool width (threads shared by every session).
    pub workers: usize,
    /// Per-session record pairs, in fleet order.
    pub sessions: Vec<SessionRecord>,
    /// Total wall time of the dedicated runs, back to back.
    pub sequential_total: Duration,
    /// Total wall time of submitting every session to a shared pool one at
    /// a time (join before the next submit): the serving stack with
    /// concurrency — and therefore cross-tenant fusion — removed.
    pub serial_submission_total: Duration,
    /// Wall time of the whole concurrent batch on the shared pool.
    pub concurrent_wall: Duration,
    /// Pool aggregates after the batch drained.
    pub stats: PoolStats,
    /// Fleet index of the session that had a worker death injected.
    pub fault_session: usize,
}

impl ServeComparison {
    /// Aggregate-throughput speedup of serving the fleet concurrently over
    /// serving it one session at a time on the same shared pool (>1 means
    /// cross-tenant fusion wins). This is the headline throughput gate: the
    /// two sides share every per-op cost, so the ratio isolates what fused
    /// barriers buy and is robust to the machine's absolute speed.
    pub fn aggregate_speedup(&self) -> f64 {
        self.serial_submission_total.as_secs_f64() / self.concurrent_wall.as_secs_f64().max(1e-12)
    }

    /// Concurrent serving versus the dedicated-executor sequential runs
    /// (>1 means the shared pool beats even private per-session executors).
    /// On a many-core host the pool wins outright; on a single-core CI box
    /// the two are at parity (there is no idle hardware to soak up), so
    /// `serve_report` holds this to a parity *bound* rather than a win.
    pub fn dedicated_speedup(&self) -> f64 {
        self.sequential_total.as_secs_f64() / self.concurrent_wall.as_secs_f64().max(1e-12)
    }

    /// Pooled-session latencies (seconds) of one class, in fleet order.
    pub fn class_latencies(&self, class: &str) -> Vec<f64> {
        self.sessions
            .iter()
            .filter(|s| s.class == class)
            .map(|s| s.outcome.latency.as_secs_f64())
            .collect()
    }
}

/// The p95 of a latency sample (nearest-rank on the sorted sample).
pub fn p95(latencies: &[f64]) -> f64 {
    if latencies.is_empty() {
        return 0.0;
    }
    let mut sorted = latencies.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((sorted.len() as f64) * 0.95).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Submits every session to ONE shared pool strictly back to back (each
/// joined before the next is submitted), returning the total wall time:
/// the same serving stack with concurrency removed, so no two tenants can
/// ever share a barrier.
pub fn run_serial_submission(
    fleet: &[FleetSession],
    workers: usize,
    strategy: TenantStrategy,
) -> Duration {
    let mut pool = SessionManager::with_strategy(workers, strategy, None);
    let started = Instant::now();
    for session in fleet {
        let handle = pool
            .submit(
                SessionSpec::new(
                    Arc::clone(&session.dataset.patterns),
                    session.dataset.tree.clone(),
                )
                .label(session.label.clone()),
            )
            .expect("serial-submission admission");
        handle.join().expect("serial-submission outcome");
    }
    let total = started.elapsed();
    pool.shutdown();
    total
}

/// Runs the full comparison: every session solo on a dedicated executor
/// (sequentially), then the fleet submitted to a shared pool one session
/// at a time, then the whole fleet concurrently on one shared pool of
/// the same width, with a worker death injected into `fault_session`'s 1st
/// dispatched op: the initial-likelihood evaluate (which carries its own
/// traversal), before any parameter commit, so its recovered rerun must still
/// match its solo run bit for bit. A later op sits inside an optimizer
/// stream, where a restart resumes from the current — possibly trial —
/// parameters and the rerun is only tolerance-close.
pub fn compare_serving(
    fleet: &[FleetSession],
    workers: usize,
    strategy: TenantStrategy,
    fault_session: usize,
) -> ServeComparison {
    let solos: Vec<SoloRun> = fleet
        .iter()
        .map(|s| run_solo(&s.dataset, workers))
        .collect();
    let sequential_total = solos.iter().map(|s| s.wall).sum();
    let serial_submission_total = run_serial_submission(fleet, workers, strategy);

    let mut pool = SessionManager::with_strategy(workers, strategy, None);
    let concurrent_started = Instant::now();
    let handles: Vec<_> = fleet
        .iter()
        .enumerate()
        .map(|(i, session)| {
            let mut spec = SessionSpec::new(
                Arc::clone(&session.dataset.patterns),
                session.dataset.tree.clone(),
            )
            .label(session.label.clone());
            if i == fault_session {
                spec = spec.inject_worker_fault(workers.saturating_sub(1), 0);
            }
            pool.submit(spec).expect("fleet admission")
        })
        .collect();
    let outcomes: Vec<SessionOutcome> = handles
        .into_iter()
        .map(|handle| handle.join().expect("fleet session outcome"))
        .collect();
    let concurrent_wall = concurrent_started.elapsed();
    let stats = pool.stats().expect("pool stats");
    pool.shutdown();

    let sessions = fleet
        .iter()
        .zip(solos)
        .zip(outcomes)
        .map(|((session, solo), outcome)| SessionRecord {
            label: session.label.clone(),
            class: session.class,
            solo,
            outcome,
        })
        .collect();
    ServeComparison {
        workers,
        sessions,
        sequential_total,
        serial_submission_total,
        concurrent_wall,
        stats,
        fault_session,
    }
}

/// Prints the per-session table and the pool aggregates.
pub fn print_serve_comparison(comparison: &ServeComparison) {
    println!(
        "{:<10} {:>6} {:>18} {:>18} {:>10} {:>10} {:>5}",
        "session", "class", "solo lnL", "pooled lnL", "solo ms", "pool ms", "recov"
    );
    for record in &comparison.sessions {
        println!(
            "{:<10} {:>6} {:>18.6} {:>18.6} {:>10.1} {:>10.1} {:>5}",
            record.label,
            record.class,
            record.solo.final_lnl,
            record.outcome.final_log_likelihood,
            record.solo.wall.as_secs_f64() * 1e3,
            record.outcome.latency.as_secs_f64() * 1e3,
            record.outcome.recoveries.len()
        );
    }
    let stats = &comparison.stats;
    println!(
        "\npool: {} workers | {} ops in {} fused batches (max fused {}) | {} worker panic(s)",
        comparison.workers,
        stats.ops_dispatched,
        stats.batches,
        stats.max_batch_fused,
        stats.worker_panics
    );
    println!(
        "sequential dedicated total {:>8.1} ms | serial submission total {:>8.1} ms | \
         shared-pool concurrent wall {:>8.1} ms",
        comparison.sequential_total.as_secs_f64() * 1e3,
        comparison.serial_submission_total.as_secs_f64() * 1e3,
        comparison.concurrent_wall.as_secs_f64() * 1e3,
    );
    println!(
        "aggregate speedup (concurrent vs serial submission) {:.2}x | \
         vs dedicated sequential {:.2}x",
        comparison.aggregate_speedup(),
        comparison.dedicated_speedup()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p95_is_nearest_rank() {
        assert_eq!(p95(&[]), 0.0);
        assert_eq!(p95(&[3.0]), 3.0);
        let sample: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(p95(&sample), 19.0);
        let sample: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(p95(&sample), 95.0);
    }

    #[test]
    fn fleet_alternates_classes_with_distinct_seeds() {
        let fleet = mixed_serving_fleet(4, 7);
        assert_eq!(fleet.len(), 4);
        assert_eq!(fleet[0].class, CLASS_DNA);
        assert_eq!(fleet[1].class, CLASS_MIXED);
        assert_eq!(fleet[2].class, CLASS_DNA);
        assert!(
            fleet[0].dataset.spec.name != fleet[2].dataset.spec.name
                || fleet[0].label != fleet[2].label
        );
    }

    #[test]
    fn small_fleet_round_trips_bit_identically() {
        let fleet = mixed_serving_fleet(2, 99);
        let comparison = compare_serving(&fleet, 2, TenantStrategy::default(), 0);
        assert_eq!(comparison.sessions.len(), 2);
        for record in &comparison.sessions {
            assert_eq!(
                record.outcome.final_log_likelihood.to_bits(),
                record.solo.final_lnl.to_bits(),
                "{} drifted on the shared pool",
                record.label
            );
        }
        assert_eq!(comparison.sessions[0].outcome.recoveries.len(), 1);
        assert!(comparison.sessions[1].outcome.recoveries.is_empty());
        assert_eq!(comparison.stats.worker_panics, 1);
    }
}
