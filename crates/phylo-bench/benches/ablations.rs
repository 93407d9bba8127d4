//! Ablation benchmarks for the design choices called out in DESIGN.md §6:
//! scheduling strategy (cyclic / block / weighted-LPT) ×
//! worker count on a mixed DNA/protein dataset, the newPAR convergence mask,
//! and the number of discrete Γ rate categories.

use criterion::{criterion_group, criterion_main, Criterion};
use phylo_bench::scheduling::default_categories;
use phylo_kernel::{LikelihoodKernel, SequentialKernel};
use phylo_models::{BranchLengthMode, ModelSet};
use phylo_parallel::{schedule, Block, Cyclic, ScheduleStrategy, ThreadedExecutor, WeightedLpt};
use phylo_seqgen::datasets::{mixed_dna_protein, paper_simulated};
use std::sync::Arc;

fn dataset() -> phylo_seqgen::GeneratedDataset {
    paper_simulated(12, 1600, 200, 88).generate()
}

/// The scheduler's target workload: skewed per-pattern costs from a protein
/// tail behind a string of DNA genes.
fn mixed_dataset() -> phylo_seqgen::GeneratedDataset {
    mixed_dna_protein(10, 9, 3, 120, 88).generate()
}

fn bench_scheduling_strategies(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_scheduling");
    let ds = mixed_dataset();
    let max_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let strategies: Vec<(&str, Box<dyn ScheduleStrategy>)> = vec![
        ("cyclic", Box::new(Cyclic)),
        ("block", Box::new(Block)),
        ("weighted_lpt", Box::new(WeightedLpt)),
    ];
    for workers in [2usize, 4] {
        if workers > max_threads {
            continue;
        }
        let models = ModelSet::default_for(&ds.patterns, BranchLengthMode::PerPartition);
        let categories = default_categories(&ds);
        let assignments: Vec<(String, phylo_parallel::Assignment)> = strategies
            .iter()
            .map(|(label, strategy)| {
                let a = schedule(&ds.patterns, &categories, workers, strategy.as_ref()).unwrap();
                (format!("{label}_w{workers}"), a)
            })
            .collect();
        for (label, assignment) in assignments {
            let exec = ThreadedExecutor::from_assignment(
                &ds.patterns,
                &assignment,
                ds.tree.node_capacity(),
                &categories,
            )
            .unwrap();
            let mut kernel = LikelihoodKernel::try_new(
                Arc::clone(&ds.patterns),
                ds.tree.clone(),
                models.clone(),
                exec,
            )
            .unwrap();
            group.bench_function(label, |b| {
                b.iter(|| {
                    kernel.invalidate_all();
                    criterion::black_box(kernel.try_log_likelihood().unwrap())
                })
            });
        }
    }
    group.finish();
}

fn bench_distribution(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_distribution");
    let ds = dataset();
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(4);
    for (label, strategy) in [
        ("cyclic", &Cyclic as &dyn ScheduleStrategy),
        ("block", &Block as &dyn ScheduleStrategy),
    ] {
        let models = ModelSet::default_for(&ds.patterns, BranchLengthMode::PerPartition);
        let categories: Vec<usize> = models.models().iter().map(|m| m.categories()).collect();
        let assignment = schedule(&ds.patterns, &categories, threads, strategy).unwrap();
        let exec = ThreadedExecutor::from_assignment(
            &ds.patterns,
            &assignment,
            ds.tree.node_capacity(),
            &categories,
        )
        .unwrap();
        let mut kernel =
            LikelihoodKernel::try_new(Arc::clone(&ds.patterns), ds.tree.clone(), models, exec)
                .unwrap();
        group.bench_function(label, |b| {
            b.iter(|| {
                kernel.invalidate_all();
                criterion::black_box(kernel.try_log_likelihood().unwrap())
            })
        });
    }
    group.finish();
}

fn bench_convergence_mask(c: &mut Criterion) {
    // The newPAR convergence mask skips already-converged partitions inside a
    // derivative region; "masked" passes None for half the partitions,
    // "unmasked" keeps evaluating all of them.
    let mut group = c.benchmark_group("ablation_convergence_mask");
    let ds = dataset();
    let models = ModelSet::default_for(&ds.patterns, BranchLengthMode::PerPartition);
    let mut kernel =
        SequentialKernel::build(Arc::clone(&ds.patterns), ds.tree.clone(), models).unwrap();
    let branch = kernel.tree().internal_branches()[0];
    let mask = kernel.full_mask();
    kernel.try_prepare_branch(branch, &mask).unwrap();
    let partitions = kernel.partition_count();
    let all: Vec<Option<f64>> = (0..partitions).map(|_| Some(0.1)).collect();
    let half: Vec<Option<f64>> = (0..partitions)
        .map(|p| if p % 2 == 0 { Some(0.1) } else { None })
        .collect();
    group.bench_function("without_mask_all_partitions", |b| {
        b.iter(|| criterion::black_box(kernel.try_branch_derivatives(&all).unwrap()))
    });
    group.bench_function("with_mask_half_converged", |b| {
        b.iter(|| criterion::black_box(kernel.try_branch_derivatives(&half).unwrap()))
    });
    group.finish();
}

fn bench_gamma_categories(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_gamma_categories");
    let ds = dataset();
    for categories in [1usize, 4] {
        let models = ModelSet::with_categories(&ds.patterns, BranchLengthMode::Joint, categories);
        let mut kernel =
            SequentialKernel::build(Arc::clone(&ds.patterns), ds.tree.clone(), models).unwrap();
        group.bench_function(format!("categories_{categories}"), |b| {
            b.iter(|| {
                kernel.invalidate_all();
                criterion::black_box(kernel.try_log_likelihood().unwrap())
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_scheduling_strategies, bench_distribution, bench_convergence_mask, bench_gamma_categories
}
criterion_main!(benches);
