//! The paper's seven experiments — Figures 3–6 and the three prose results —
//! one function each, listed by name in [`ALL`] for the `experiments` binary.
//! Every experiment asserts the host-independent fact it prints, so a run
//! that exits 0 has shown the paper's qualitative result again.

use std::sync::Arc;

use phylo_data::PartitionedPatterns;
use phylo_kernel::cost::WorkTrace;
use phylo_models::BranchLengthMode;
use phylo_optimize::ParallelScheme;
use phylo_perfmodel::Platform;
use phylo_seqgen::datasets::{
    paper_real_world, paper_simulated, DatasetSpec, GeneratedDataset, RealWorldKind,
};

use crate::{
    dataset_scale, figure_rows, generate_scaled, print_figure, run_figure_traces, run_traced,
    trace_summary, Workload,
};

/// Every experiment by the name the `experiments` binary takes, in the
/// paper's order: each prints its table and panics if the fact it shows is
/// false.
pub const ALL: [(&str, fn()); 7] = [
    ("fig3", fig3),
    ("fig4", fig4),
    ("fig5", fig5),
    ("fig6", fig6),
    ("prose_joint_branch", prose_joint_branch),
    ("prose_model_opt", prose_model_opt),
    ("prose_protein", prose_protein),
];

/// Figures 3–5 share one recipe: a full tree search with per-partition
/// branch lengths, traced in the five configurations of the figure. Asserts
/// that every platform predicts newPAR faster than oldPAR at 8 and 16
/// workers and that the five configurations reach the same likelihood.
fn search_figure(title: &str, spec: &DatasetSpec) {
    let dataset = generate_scaled(spec);
    let traces = run_figure_traces(
        &dataset,
        BranchLengthMode::PerPartition,
        Workload::TreeSearch,
    );
    print_figure(title, &dataset, &traces);
    for row in figure_rows(&traces) {
        assert!(row.new_8 < row.old_8, "8 workers: {row:?}");
        if let (Some(old), Some(new)) = (row.old_16, row.new_16) {
            assert!(new < old, "16 workers: {row:?}");
        }
    }
    let reference = traces.final_lnls[0];
    for lnl in &traces.final_lnls {
        assert!(
            ((lnl - reference) / reference).abs() <= 1e-3,
            "configurations disagree on the final lnL: {:?}",
            traces.final_lnls
        );
    }
}

/// Figure 3: d50_50000 (50 taxa, 50 partitions of 1,000 columns).
pub fn fig3() {
    search_figure(
        "Figure 3: full ML tree search, d50_50000 with 50 partitions of 1,000 columns",
        &paper_simulated(50, 50_000, 1_000, 350),
    );
}

/// Figure 4: d100_50000 (100 taxa, 50 partitions of 1,000 columns).
pub fn fig4() {
    search_figure(
        "Figure 4: full ML tree search, d100_50000 with 50 partitions of 1,000 columns",
        &paper_simulated(100, 50_000, 1_000, 351),
    );
}

/// Figure 5: the synthetic stand-in of the mammalian dataset r125_19839.
pub fn fig5() {
    search_figure(
        "Figure 5: full ML tree search, real-world-like mammalian dataset r125_19839 (34 variable-length partitions)",
        &paper_real_world(RealWorldKind::Mammal125),
    );
}

/// Figure 6: Nehalem speedups of an unpartitioned analysis vs newPAR and
/// oldPAR on d50_50000 at 2, 4 and 8 threads. Asserts that newPAR's
/// predicted speedup exceeds oldPAR's at every thread count.
pub fn fig6() {
    let dataset = generate_scaled(&paper_simulated(50, 50_000, 1_000, 352));
    // The unpartitioned reference: same patterns, one partition, one model.
    let mut unpartitioned = dataset.clone();
    unpartitioned.patterns = Arc::new(PartitionedPatterns::merge_unpartitioned(&dataset.patterns));

    let platform = Platform::nehalem();
    let search = |dataset: &GeneratedDataset, threads: usize, scheme: ParallelScheme| {
        let mode = BranchLengthMode::PerPartition;
        run_traced(dataset, threads, scheme, mode, Workload::TreeSearch).0
    };
    println!(
        "=== Figure 6: speedup on the Nehalem, d50_50000 / p1000 (scale {}) ===",
        dataset_scale()
    );
    println!(
        "{:<10} {:>14} {:>14} {:>14}",
        "Threads", "Unpartitioned", "New", "Old"
    );
    let seq_unpart = search(&unpartitioned, 1, ParallelScheme::New);
    let seq_part = search(&dataset, 1, ParallelScheme::New);
    for threads in [2usize, 4, 8] {
        let unpart = search(&unpartitioned, threads, ParallelScheme::New);
        let new_part = search(&dataset, threads, ParallelScheme::New);
        let old_part = search(&dataset, threads, ParallelScheme::Old);
        let new_speedup = platform.speedup(&seq_part, &new_part);
        let old_speedup = platform.speedup(&seq_part, &old_part);
        println!(
            "{:<10} {:>14.2} {:>14.2} {:>14.2}",
            threads,
            platform.speedup(&seq_unpart, &unpart),
            new_speedup,
            old_speedup,
        );
        assert!(
            new_speedup > old_speedup,
            "{threads} threads: newPAR speedup {new_speedup} must exceed oldPAR's {old_speedup}"
        );
    }
    println!();
    println!("Expected shape (paper): the newPAR speedup is nearly as good as the unpartitioned");
    println!("speedup, while the oldPAR speedup saturates well below both.");
}

/// One workload on 8 virtual workers under oldPAR, then newPAR: each
/// scheme's trace and final log likelihood.
fn old_and_new(
    dataset: &GeneratedDataset,
    mode: BranchLengthMode,
    workload: Workload,
) -> [(WorkTrace, f64); 2] {
    [ParallelScheme::Old, ParallelScheme::New]
        .map(|scheme| run_traced(dataset, 8, scheme, mode, workload))
}

/// Prints one predicted old/new line per platform (each followed by
/// `suffix`) and asserts the two facts that hold on any host: newPAR issues
/// fewer regions, and every platform predicts it faster.
fn predict_and_check(platforms: &[Platform], old: &WorkTrace, new: &WorkTrace, suffix: &str) {
    assert!(
        new.sync_events() < old.sync_events(),
        "newPAR must issue fewer regions than oldPAR"
    );
    for platform in platforms {
        let t_old = platform.predict_runtime(old);
        let t_new = platform.predict_runtime(new);
        println!(
            "  {:<12} predicted: old {:.2}s, new {:.2}s  -> improvement {:.1}%{suffix}",
            platform.name,
            t_old,
            t_new,
            100.0 * (t_old - t_new) / t_old
        );
        assert!(t_new < t_old, "{} must predict new < old", platform.name);
    }
}

/// Prose result A: under a *joint* branch-length estimate the two schemes
/// differ only marginally.
pub fn prose_joint_branch() {
    let dataset = generate_scaled(&paper_simulated(50, 50_000, 1_000, 353));
    println!("=== Prose A: joint branch-length estimate, oldPAR vs newPAR ===");
    let [(old_trace, lnl_old), (new_trace, lnl_new)] = old_and_new(
        &dataset,
        BranchLengthMode::Joint,
        Workload::ModelOptimization,
    );
    trace_summary("oldPAR (8 threads, joint)", &old_trace);
    trace_summary("newPAR (8 threads, joint)", &new_trace);
    println!("  final lnL: old {lnl_old:.3}, new {lnl_new:.3}");
    predict_and_check(
        &Platform::paper_platforms()[..2],
        &old_trace,
        &new_trace,
        " (paper: ~5%)",
    );
}

/// Prose result B: model-parameter optimization on a *fixed* tree with
/// per-partition branch lengths.
pub fn prose_model_opt() {
    let dataset = generate_scaled(&paper_simulated(50, 50_000, 1_000, 354));
    println!("=== Prose B: model parameter optimization on a fixed tree, per-partition branch lengths ===");
    let [(old_trace, _), (new_trace, _)] = old_and_new(
        &dataset,
        BranchLengthMode::PerPartition,
        Workload::ModelOptimization,
    );
    trace_summary("oldPAR (8 threads)", &old_trace);
    trace_summary("newPAR (8 threads)", &new_trace);
    predict_and_check(&Platform::paper_platforms(), &old_trace, &new_trace, "");
}

/// Prose result C: protein data gains less from newPAR than DNA data.
pub fn prose_protein() {
    println!("=== Prose C: protein vs DNA improvement of newPAR over oldPAR (8 threads, tree search) ===");
    let platform = Platform::barcelona();
    let gain = |spec: &DatasetSpec| {
        let dataset = generate_scaled(spec);
        let mode = BranchLengthMode::PerPartition;
        let [(old, _), (new, _)] = old_and_new(&dataset, mode, Workload::TreeSearch);
        platform.predict_runtime(&old) / platform.predict_runtime(&new)
    };
    let protein_gain = gain(&paper_real_world(RealWorldKind::Viral26));
    let dna_gain = gain(&paper_simulated(26, 21_000, 1_000, 355));

    println!(
        "  protein dataset (r26_21451-like): newPAR/oldPAR improvement {:.2}x",
        protein_gain
    );
    println!(
        "  comparable DNA dataset:           newPAR/oldPAR improvement {:.2}x",
        dna_gain
    );
    println!();
    println!("Expected shape (paper): the protein improvement is much smaller than the DNA");
    println!("improvement because each amino-acid column carries ~25x more work.");
    assert!(
        dna_gain > protein_gain,
        "DNA should benefit more than protein data"
    );
}
