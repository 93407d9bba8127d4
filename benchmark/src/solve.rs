//! The three single-dataset workloads: what is generated, how a kernel is built
//! for it and what is solved. Sizes are fixed here; only the seed varies.

use std::sync::Arc;

use phylo_data::{Alignment, Partition, PartitionSet, PartitionedPatterns};
use phylo_kernel::{
    Executor, KernelDispatch, KernelError, KernelStats, LikelihoodKernel, SequentialExecutor,
};
use phylo_models::{BranchLengthMode, ModelSet};
use phylo_optimize::{
    optimize_model_parameters, OptimizationReport, OptimizerConfig, ParallelScheme,
};
use phylo_parallel::{schedule, Cyclic, ExecutorOptions, ThreadedExecutor};
use phylo_search::{tree_search, SearchConfig, SearchResult};
use phylo_seqgen::datasets::{mixed_dna_protein, paper_simulated, GeneratedDataset};

use crate::span::SpanExecutor;

/// Derives an independent 64-bit seed from the run seed (splitmix64), so every
/// dataset of a run is a function of `--seed` alone.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(stream.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What a workload runs on its kernel.
#[derive(Debug, Clone, Copy)]
pub enum Solve {
    Optimize(OptimizerConfig),
    Search(SearchConfig),
}

/// What a solve reports, kept whole for the per-layer counts.
#[derive(Debug, Clone, Copy)]
pub enum SolveReport {
    Optimize(OptimizationReport),
    Search(SearchResult),
}

impl SolveReport {
    pub fn log_likelihood(&self) -> f64 {
        match self {
            SolveReport::Optimize(r) => r.final_log_likelihood,
            SolveReport::Search(r) => r.final_log_likelihood,
        }
    }

    /// Parallel regions (= synchronization events) the solve issued.
    pub fn regions(&self) -> u64 {
        match self {
            SolveReport::Optimize(r) => r.sync_events,
            SolveReport::Search(r) => r.sync_events,
        }
    }
}

impl Solve {
    pub fn run<E: Executor>(
        &self,
        kernel: &mut LikelihoodKernel<E>,
    ) -> Result<SolveReport, KernelError> {
        match self {
            Solve::Optimize(config) => {
                optimize_model_parameters(kernel, config).map(SolveReport::Optimize)
            }
            Solve::Search(config) => tree_search(kernel, config).map(SolveReport::Search),
        }
    }
}

/// One generated problem instance: inputs plus what to solve on them.
#[derive(Debug, Clone)]
pub struct Problem {
    /// The solve starts from the dataset's generating tree.
    pub dataset: GeneratedDataset,
    pub models: ModelSet,
    pub categories: Vec<usize>,
    pub solve: Solve,
    /// Whether the paper's oldPAR-versus-newPAR result is asserted on this
    /// problem.
    pub paper_comparison: bool,
}

pub type ThreadedKernel = LikelihoodKernel<ThreadedExecutor>;
pub type TracedKernel = LikelihoodKernel<SpanExecutor<ThreadedExecutor>>;
pub type TracedSequentialKernel = LikelihoodKernel<SpanExecutor<SequentialExecutor>>;

impl Problem {
    /// Generates the named workload's problem, or `None` for a name that is
    /// not a single-dataset workload.
    pub fn for_workload(workload: &str, seed: u64) -> Option<Problem> {
        // Two optimizer rounds keep a repetition under a second, so that a run
        // holds enough of them for steady medians; every round issues the
        // same kinds of regions.
        let optimize = |scheme| {
            Solve::Optimize(OptimizerConfig {
                max_rounds: 2,
                ..OptimizerConfig::new(scheme)
            })
        };
        let (dataset, solve) = match workload {
            // Protein columns cost ≈20× a DNA column, so the kernel does
            // nearly all the work and placement of the protein block shows.
            "opt_compute" => (
                mixed_dna_protein(8, 12, 4, 400, derive_seed(seed, 1)).generate(),
                optimize(ParallelScheme::New),
            ),
            // The paper's partitioned shape at laptop scale: 50 genes, so
            // every thread holds a short slice of each and converged genes
            // leave the later Newton regions almost empty.
            "paper_newpar" => (
                paper_simulated(8, 50 * 100, 100, derive_seed(seed, 2)).generate(),
                optimize(ParallelScheme::New),
            ),
            // One SPR sweep from the generating tree: every candidate move is
            // applied, scored by local branch optimization and undone, so
            // CLVs and branch tables are invalidated instead of re-read. The
            // tree is fixed and the seed draws the alignment (see
            // `jackknife`): first-improvement hill climbing from a random
            // start evaluates twice as many moves on some data as on other,
            // which no regression bound survives.
            "search_spr" => {
                let base = paper_simulated(7, 2 * 6000, 2 * 600, SEARCH_BASE_SEED).generate();
                let mut config = SearchConfig::new(ParallelScheme::New);
                config.max_rounds = 1;
                config.spr_radius = 3;
                (
                    jackknife(&base, derive_seed(seed, 3)),
                    Solve::Search(config),
                )
            }
            _ => return None,
        };
        let mut problem = Problem::new(dataset, solve);
        problem.paper_comparison = workload == "paper_newpar";
        Some(problem)
    }

    /// A problem solved from the dataset's generating tree under default
    /// per-partition models.
    pub fn new(dataset: GeneratedDataset, solve: Solve) -> Problem {
        let models = ModelSet::default_for(&dataset.patterns, BranchLengthMode::PerPartition);
        let categories = models.models().iter().map(|m| m.categories()).collect();
        Problem {
            dataset,
            models,
            categories,
            solve,
            paper_comparison: false,
        }
    }

    /// Where the paper's comparison is asserted: the same data and settings
    /// under oldPAR, the baseline the paper measures newPAR against.
    pub fn paper_baseline(&self) -> Option<Problem> {
        match self.solve {
            Solve::Optimize(config) if self.paper_comparison => Some(Problem {
                solve: Solve::Optimize(OptimizerConfig {
                    scheme: ParallelScheme::Old,
                    ..config
                }),
                paper_comparison: false,
                ..self.clone()
            }),
            _ => None,
        }
    }

    pub fn threaded_executor(&self, workers: usize, timed: bool) -> ThreadedExecutor {
        let patterns = &self.dataset.patterns;
        let assignment = schedule(patterns, &self.categories, workers, &Cyclic)
            .expect("worker count is positive and the dataset has patterns");
        ThreadedExecutor::with_options(
            patterns,
            &assignment,
            self.dataset.tree.node_capacity(),
            &self.categories,
            ExecutorOptions { timed, skew: None },
        )
        .expect("the assignment was built for this dataset")
    }

    pub fn sequential_executor(&self) -> SequentialExecutor {
        SequentialExecutor::new(
            &self.dataset.patterns,
            self.dataset.tree.node_capacity(),
            &self.categories,
        )
    }

    pub fn kernel<E: Executor>(&self, executor: E) -> LikelihoodKernel<E> {
        LikelihoodKernel::try_new(
            Arc::clone(&self.dataset.patterns),
            self.dataset.tree.clone(),
            self.models.clone(),
            executor,
        )
        .expect("tree, models and patterns describe one dataset")
    }

    /// A fresh real-thread kernel of the given width.
    pub fn threaded_kernel(&self, workers: usize) -> ThreadedKernel {
        self.kernel(self.threaded_executor(workers, false))
    }

    /// The same, with the timed trace on and wrapped in a [`SpanExecutor`].
    pub fn traced_kernel(&self, workers: usize) -> TracedKernel {
        let executor = self.threaded_executor(workers, true);
        self.kernel(SpanExecutor::new(executor, &self.dataset.patterns))
    }

    pub fn traced_sequential_kernel(&self) -> TracedSequentialKernel {
        self.kernel(SpanExecutor::new(
            self.sequential_executor(),
            &self.dataset.patterns,
        ))
    }

    /// The reference answer: the same solve on the sequential executor with
    /// the scalar (bit-for-bit reference) inner loops.
    pub fn reference_log_likelihood(&self) -> f64 {
        let mut kernel = self.kernel(self.sequential_executor());
        kernel.set_dispatch(KernelDispatch::Scalar);
        self.solve
            .run(&mut kernel)
            .expect("the sequential executor cannot lose a worker")
            .log_likelihood()
    }
}

/// Everything one solve yields that a metric is computed from.
#[derive(Debug, Clone, Copy)]
pub struct SolveRun {
    pub report: SolveReport,
    pub stats: KernelStats,
    pub wall_s: f64,
}

/// Times `problem.solve` on a prepared kernel.
pub fn timed_solve<E: Executor>(problem: &Problem, kernel: &mut LikelihoodKernel<E>) -> SolveRun {
    let started = std::time::Instant::now();
    let report = problem
        .solve
        .run(kernel)
        .expect("no faults are injected, so no worker dies");
    SolveRun {
        report,
        wall_s: started.elapsed().as_secs_f64(),
        stats: kernel.stats(),
    }
}

/// Seed of the fixed dataset the search workload's alignments are drawn from.
const SEARCH_BASE_SEED: u64 = 2009;

/// A delete-half jackknife replicate: within every partition, half of the
/// base columns chosen by `seed`, in their original order. The tree and the
/// pattern count stay fixed (the generator emits no duplicate column inside a
/// partition), only the data change.
fn jackknife(base: &GeneratedDataset, seed: u64) -> GeneratedDataset {
    let mut draws = 0u64;
    let mut next = || {
        draws += 1;
        derive_seed(seed, draws)
    };
    let mut rows: Vec<(String, Vec<u8>)> = base
        .alignment
        .taxa()
        .iter()
        .map(|name| (name.clone(), Vec::new()))
        .collect();
    let mut partitions = Vec::new();
    let mut kept_total = 0;
    for part in base.partition_set.partitions() {
        let mut columns = part.columns();
        let keep = columns.len() / 2;
        // Partial Fisher–Yates: the first `keep` entries are a uniform sample.
        for i in 0..keep {
            let j = i + (next() % (columns.len() - i) as u64) as usize;
            columns.swap(i, j);
        }
        columns.truncate(keep);
        columns.sort_unstable();
        for (taxon, row) in rows.iter_mut().enumerate() {
            let source = base.alignment.row(taxon);
            row.1.extend(columns.iter().map(|&c| source[c]));
        }
        partitions.push(Partition::contiguous(
            &part.name,
            part.data_type,
            kept_total..kept_total + keep,
        ));
        kept_total += keep;
    }
    let alignment = Alignment::from_bytes(rows).expect("rows keep equal lengths");
    let partition_set = PartitionSet::new(partitions).expect("the base has partitions");
    let patterns = Arc::new(
        PartitionedPatterns::compile(&alignment, &partition_set)
            .expect("the partitions tile the replicate"),
    );
    GeneratedDataset {
        spec: base.spec.clone(),
        tree: base.tree.clone(),
        alignment,
        partition_set,
        patterns,
    }
}
