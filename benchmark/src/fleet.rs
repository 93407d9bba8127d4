//! The serving workload: many tiny tenants on one shared pool, closed loop.
//!
//! One thread drives the pool: it submits until [`IN_FLIGHT`] sessions are
//! live, then joins the oldest and submits the next — every client waits for
//! its reply before the next request enters, so a slow pool receives less
//! load, and concurrency (not arrival rate) is what is held steady.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use phylo_kernel::{LikelihoodKernel, SequentialKernel};
use phylo_models::{BranchLengthMode, ModelSet};
use phylo_optimize::{
    optimize_model_parameters, optimize_model_parameters_resilient, OptimizerConfig, ParallelScheme,
};
use phylo_parallel::ThreadedExecutor;
use phylo_sched::{PatternCosts, ScheduleStrategy, WeightedLpt};
use phylo_seqgen::datasets::{mixed_dna_protein, paper_simulated, GeneratedDataset};
use phylo_serve::{PoolStats, SessionManager, SessionOutcome, SessionSpec, TenantStrategy};

use crate::solve::derive_seed;

pub const SESSIONS: usize = 32;
pub const IN_FLIGHT: usize = 8;

/// What every tenant asks for: one round of newPAR model optimization, a
/// request of a few hundred regions.
fn tenant_optimizer() -> OptimizerConfig {
    OptimizerConfig {
        max_rounds: 1,
        ..OptimizerConfig::new(ParallelScheme::New)
    }
}

/// The fleet's datasets, in submission order.
pub struct Fleet {
    pub sessions: Vec<GeneratedDataset>,
}

/// One pass of the whole fleet through a pool.
pub struct FleetRun {
    /// First submit to last join.
    pub wall_s: f64,
    /// In submission order.
    pub outcomes: Vec<SessionOutcome>,
    /// Seconds each `submit` call took (admission + shard install).
    pub admit_s: Vec<f64>,
    pub stats: PoolStats,
}

impl Fleet {
    /// Alternating pure-DNA and DNA+protein tenants, every one its own
    /// dataset with a seed derived from the run seed.
    pub fn generate(seed: u64) -> Fleet {
        let sessions = (0..SESSIONS as u64)
            .map(|i| {
                let seed = derive_seed(seed, 100 + i);
                if i % 2 == 0 {
                    paper_simulated(6, 640, 160, seed).generate()
                } else {
                    mixed_dna_protein(6, 2, 1, 64, seed).generate()
                }
            })
            .collect();
        Fleet { sessions }
    }

    pub fn start_pool(workers: usize) -> SessionManager {
        let strategy = TenantStrategy {
            max_sessions: 128,
            max_batch: 4,
            batch_window: Duration::ZERO,
            quantum: 64,
        };
        SessionManager::with_strategy(workers, strategy, None)
    }

    /// Serves the fleet on `pool` and shuts the pool down.
    pub fn serve(&self, mut pool: SessionManager) -> FleetRun {
        let mut live = VecDeque::new();
        let mut outcomes = Vec::with_capacity(self.sessions.len());
        let mut admit_s = Vec::with_capacity(self.sessions.len());
        let mut join_oldest = |live: &mut VecDeque<phylo_serve::SessionHandle>| {
            let handle = live.pop_front().expect("a session is live");
            outcomes.push(handle.join().expect("no faults are injected"));
        };
        let started = Instant::now();
        for (i, dataset) in self.sessions.iter().enumerate() {
            if live.len() == IN_FLIGHT {
                join_oldest(&mut live);
            }
            let spec = SessionSpec::new(Arc::clone(&dataset.patterns), dataset.tree.clone())
                .optimizer(tenant_optimizer())
                .label(format!("tenant-{i}"));
            let submitted = Instant::now();
            let handle = pool
                .submit(spec)
                .expect("the admission bound exceeds the sessions in flight");
            admit_s.push(submitted.elapsed().as_secs_f64());
            live.push_back(handle);
        }
        while !live.is_empty() {
            join_oldest(&mut live);
        }
        let wall_s = started.elapsed().as_secs_f64();
        let stats = pool.stats().expect("the pool is still up");
        pool.shutdown();
        FleetRun {
            wall_s,
            outcomes,
            admit_s,
            stats,
        }
    }

    /// Every session in turn on the sequential executor — the fleet's work
    /// without a pool or a thread — returning the final log likelihoods.
    pub fn sequential_runs(&self) -> Vec<f64> {
        self.sessions
            .iter()
            .map(|dataset| {
                let patterns = Arc::clone(&dataset.patterns);
                let models = ModelSet::default_for(&patterns, BranchLengthMode::PerPartition);
                let mut kernel = SequentialKernel::build(patterns, dataset.tree.clone(), models)
                    .expect("tree, models and patterns describe one dataset");
                optimize_model_parameters(&mut kernel, &tenant_optimizer())
                    .expect("the sequential executor cannot lose a worker")
                    .final_log_likelihood
            })
            .collect()
    }

    /// Every session alone on a dedicated executor of the pool's width, built
    /// the way `SessionManager::submit` builds it (default per-partition
    /// models, tabled analytic costs, `WeightedLpt`, resilient newPAR), so a
    /// pooled session must reproduce its log likelihood bit for bit. Returns
    /// `(log likelihood, seconds)` per session.
    pub fn solo_runs(&self, workers: usize) -> Vec<(f64, f64)> {
        self.sessions
            .iter()
            .map(|dataset| {
                let started = Instant::now();
                let patterns = Arc::clone(&dataset.patterns);
                let models = ModelSet::default_for(&patterns, BranchLengthMode::PerPartition);
                let categories: Vec<usize> =
                    models.models().iter().map(|m| m.categories()).collect();
                let costs = PatternCosts::analytic_tabled(&patterns, &categories);
                let assignment = WeightedLpt
                    .assign(&costs, workers)
                    .expect("worker count is positive");
                let executor = ThreadedExecutor::from_assignment(
                    &patterns,
                    &assignment,
                    dataset.tree.node_capacity(),
                    &categories,
                )
                .expect("the assignment was built for this dataset");
                let mut kernel =
                    LikelihoodKernel::try_new(patterns, dataset.tree.clone(), models, executor)
                        .expect("tree, models and patterns describe one dataset");
                let (report, _) =
                    optimize_model_parameters_resilient(&mut kernel, &tenant_optimizer())
                        .expect("no faults are injected");
                (report.final_log_likelihood, started.elapsed().as_secs_f64())
            })
            .collect()
    }
}
