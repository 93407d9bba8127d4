//! The traced pass: per-layer metrics, one layer per crate of the workspace.
//!
//! Everything is measured from outside: spans from [`SpanExecutor`], the
//! timed executor's public `WorkTrace`, and the counters the program already
//! reports (`KernelStats`, `OptimizationReport`, `SearchResult`, `PoolStats`,
//! `SessionOutcome`). Traced and untraced repetitions alternate for
//! `--seconds`, so `bench.trace_overhead` compares like with like.

use std::collections::BTreeMap;
use std::time::Instant;

use phylo_data::io::{parse_phylip, write_phylip};
use phylo_data::PartitionedPatterns;
use phylo_kernel::cost::OpKind;
use phylo_kernel::{KernelDispatch, TraceUnit, WorkTrace};
use phylo_parallel::{schedule, Cyclic};
use phylo_sched::{worker_imbalance, PatternCosts, ScheduleStrategy, WeightedLpt};
use phylo_seqgen::datasets::GeneratedDataset;
use phylo_tree::newick::{parse_newick, to_newick};

use crate::fleet::{Fleet, SESSIONS};
use crate::host;
use crate::measure::{Case, Pass};
use crate::solve::{timed_solve, Problem, SolveReport, SolveRun};
use crate::span::{split_regions, trace_jsonl, RegionSplit, Span, SpanExecutor, OP_KINDS};
use crate::stats::{median, percentile};

fn seconds_of<T>(work: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let value = work();
    (value, started.elapsed().as_secs_f64())
}

/// The index of the repetition whose wall clock is the (lower) median.
fn median_index(walls: &[f64]) -> usize {
    let mut order: Vec<usize> = (0..walls.len()).collect();
    order.sort_by(|&a, &b| walls[a].total_cmp(&walls[b]));
    order[(walls.len() - 1) / 2]
}

/// Input-side layers (`phylo-seqgen`, `phylo-data`, `phylo-tree`), measured on
/// one dataset: what `setup_s` is made of besides thread spawn.
fn input_layers(dataset: &GeneratedDataset, metrics: &mut BTreeMap<String, f64>) {
    let (_, roundtrip_s) = seconds_of(|| {
        let text = write_phylip(&dataset.alignment);
        let alignment = parse_phylip(&text).expect("a written alignment parses");
        PartitionedPatterns::compile(&alignment, &dataset.partition_set)
            .expect("the partitions still tile the alignment")
    });
    let (_, newick_s) =
        seconds_of(|| parse_newick(&to_newick(&dataset.tree)).expect("a written tree parses"));
    metrics.insert("data.phylip_roundtrip_s".into(), roundtrip_s);
    metrics.insert(
        "data.patterns_per_site".into(),
        dataset.patterns.total_patterns() as f64 / dataset.alignment.columns() as f64,
    );
    metrics.insert("tree.newick_roundtrip_us".into(), newick_s * 1e6);
}

/// The wall clocks themselves. They are layer numbers, not gated end-to-end
/// metrics, because this host cannot repeat them within any bound worth
/// having (README, "Baseline and noise").
fn wall_clock_layers(
    wall_s: f64,
    sequential_s: Vec<f64>,
    cpu_s: Vec<f64>,
    metrics: &mut BTreeMap<String, f64>,
) {
    metrics.insert("bench.wall_s".into(), wall_s);
    metrics.insert("bench.seq_wall_s".into(), median(sequential_s));
    metrics.insert("bench.cpu_s".into(), median(cpu_s));
}

/// One traced repetition, kept whole until the median one is chosen.
struct TracedRun {
    run: SolveRun,
    /// Solve span, on the span executor's clock.
    solve: (f64, f64),
    spans: Vec<Span>,
    trace: WorkTrace,
}

fn traced_run(problem: &Problem, workers: usize) -> TracedRun {
    let mut kernel = problem.traced_kernel(workers);
    let start = kernel.executor().now();
    let run = timed_solve(problem, &mut kernel);
    let end = kernel.executor().now();
    let executor = kernel.into_executor();
    TracedRun {
        run,
        solve: (start, end),
        spans: executor.spans().to_vec(),
        trace: executor.inner().trace().clone(),
    }
}

/// Micro-phases on the sequential executor: per-pattern kernel costs free of
/// any threading, and the engine's own share of a call (call time minus the
/// nested executor span: table assembly, traversal planning, bookkeeping).
fn kernel_micro_phases(problem: &Problem, metrics: &mut BTreeMap<String, f64>) {
    const COLD_SWEEPS: usize = 5;
    const BRANCHES: usize = 8;
    let mut kernel = problem.traced_sequential_kernel();
    let spans_since = |kernel: &crate::solve::TracedSequentialKernel, from: usize| {
        kernel.executor().spans()[from..].to_vec()
    };
    let per_unit_ns = |spans: &[Span], kind: OpKind| {
        let of_kind = || spans.iter().filter(move |s| s.kind == kind);
        let live: f64 = of_kind().map(|s| s.live).sum();
        of_kind().map(Span::seconds).sum::<f64>() * 1e9 / live.max(1.0)
    };

    for dispatch in [KernelDispatch::Blocked, KernelDispatch::Scalar] {
        kernel.set_dispatch(dispatch);
        let mut sweep_ns = Vec::new();
        let mut assembly_us = Vec::new();
        for _ in 0..COLD_SWEEPS {
            kernel.invalidate_all();
            let from = kernel.executor().spans().len();
            let (_, call_s) = seconds_of(|| {
                kernel
                    .try_log_likelihood()
                    .expect("the sequential executor cannot fail")
            });
            let spans = spans_since(&kernel, from);
            sweep_ns.push(per_unit_ns(&spans, OpKind::Newview));
            assembly_us.push((call_s - spans.iter().map(Span::seconds).sum::<f64>()) * 1e6);
        }
        metrics.insert(
            format!("kernel.cold_sweep_ns_per_pattern_node.{}", dispatch.label()),
            median(sweep_ns),
        );
        if dispatch == KernelDispatch::Blocked {
            metrics.insert(
                "kernel.engine_assembly_us.evaluate".into(),
                median(assembly_us),
            );
        }
    }

    kernel.set_dispatch(KernelDispatch::Blocked);
    let mask = kernel.full_mask();
    let branches: Vec<_> = kernel.tree().branches().take(BRANCHES).collect();
    let (mut sumtable_ns, mut deriv_ns, mut assembly_us) = (Vec::new(), Vec::new(), Vec::new());
    for branch in branches {
        let from = kernel.executor().spans().len();
        kernel
            .try_prepare_branch(branch, &mask)
            .expect("the sequential executor cannot fail");
        sumtable_ns.push(per_unit_ns(&spans_since(&kernel, from), OpKind::Sumtable));
        for length in [0.05, 0.1, 0.2] {
            let lengths = vec![Some(length); mask.len()];
            let from = kernel.executor().spans().len();
            let (_, call_s) = seconds_of(|| {
                kernel
                    .try_branch_derivatives(&lengths)
                    .expect("the sum table was just built")
            });
            let spans = spans_since(&kernel, from);
            deriv_ns.push(per_unit_ns(&spans, OpKind::Derivatives));
            assembly_us.push((call_s - spans.iter().map(Span::seconds).sum::<f64>()) * 1e6);
        }
    }
    metrics.insert("kernel.sumtable_ns_per_pattern".into(), median(sumtable_ns));
    metrics.insert("kernel.deriv_ns_per_pattern".into(), median(deriv_ns));
    metrics.insert(
        "kernel.engine_assembly_us.derivatives".into(),
        median(assembly_us),
    );
}

/// The wall-clock attribution and every count of one traced repetition.
fn attribute(
    traced: &TracedRun,
    splits: &[RegionSplit],
    metrics: &mut BTreeMap<String, f64>,
) -> (u64, u64) {
    let TracedRun {
        run,
        solve,
        spans,
        trace,
    } = traced;
    let mut put = |name: &str, value: f64| {
        metrics.insert(name.to_string(), value);
    };

    let mut worker_s_total = 0.0;
    for kind in OP_KINDS {
        let label = kind.label();
        let of_kind = || {
            spans
                .iter()
                .zip(&trace.regions)
                .filter(move |(s, _)| s.kind == kind)
        };
        let worker_s: f64 = of_kind()
            .map(|(_, region)| region.seconds_per_worker.iter().sum::<f64>())
            .sum();
        worker_s_total += worker_s;
        put(&format!("kernel.worker_s.{label}"), worker_s);
        put(
            &format!("parallel.regions.{label}"),
            of_kind().count() as f64,
        );
        let micros = || of_kind().map(|(s, _)| s.seconds() * 1e6);
        put(
            &format!("parallel.region_us_p50.{label}"),
            percentile(micros(), 50.0),
        );
        put(
            &format!("parallel.region_us_p99.{label}"),
            percentile(micros(), 99.0),
        );
    }

    let flops: f64 = spans.iter().map(|s| s.flops).sum();
    let bytes: f64 = spans.iter().map(|s| s.bytes).sum();
    put("kernel.flops_total", flops);
    put("kernel.bytes_total", bytes);
    put("kernel.flops_per_byte", flops / bytes.max(1.0));
    put(
        "kernel.gflops_achieved",
        flops / worker_s_total.max(1e-12) / 1e9,
    );

    let wall_s = solve.1 - solve.0;
    let exec_s: f64 = spans.iter().map(Span::seconds).sum();
    let critical_s: f64 = splits.iter().map(|r| r.compute_max).sum();
    let sync_s: f64 = splits.iter().map(|r| r.sync_overhead).sum();
    let master_self_s = wall_s - exec_s;
    put("parallel.exec_s", exec_s);
    put("parallel.critical_compute_s", critical_s);
    put(
        "parallel.imbalance_slack_s",
        splits.iter().map(|r| r.slack).sum(),
    );
    put("parallel.sync_overhead_s", sync_s);
    let sync_us = || splits.iter().map(|r| r.sync_overhead * 1e6);
    put("parallel.sync_overhead_us_p50", percentile(sync_us(), 50.0));
    put("parallel.sync_overhead_us_p99", percentile(sync_us(), 99.0));
    put(
        "parallel.masked_regions",
        trace.masked_region_count() as f64,
    );
    put(
        "parallel.balance",
        trace.overall_balance_in(TraceUnit::Seconds),
    );
    put(
        "parallel.masked_balance",
        trace.masked_overall_balance_in(TraceUnit::Seconds),
    );
    put(
        "sched.measured_imbalance",
        worker_imbalance(&trace.per_worker_total_in(TraceUnit::Seconds)),
    );
    put("optimize.master_self_s", master_self_s);
    put("optimize.master_self_share", master_self_s / wall_s);

    let stats = run.stats;
    put(
        "kernel.newview_node_updates",
        stats.newview_node_updates as f64,
    );
    put("kernel.evaluations", stats.evaluations as f64);
    put("kernel.sumtable_builds", stats.sumtable_builds as f64);
    put("kernel.derivative_calls", stats.derivative_calls as f64);
    put("kernel.table_builds", stats.table_builds as f64);
    put("kernel.table_dedup_hits", stats.table_dedup_hits as f64);
    put(
        "kernel.table_builds_per_region",
        stats.table_builds as f64 / spans.len().max(1) as f64,
    );
    put("optimize.sync_events", run.report.regions() as f64);
    match run.report {
        SolveReport::Optimize(report) => {
            put("optimize.rounds", report.rounds as f64);
            put(
                "optimize.newton_iterations",
                report.branch_stats.newton_iterations as f64,
            );
            put(
                "optimize.derivative_regions",
                report.branch_stats.derivative_regions as f64,
            );
            put(
                "optimize.brent_evaluations",
                report.model_stats.brent_evaluations as f64,
            );
            put(
                "optimize.evaluation_rounds",
                report.model_stats.evaluation_rounds as f64,
            );
        }
        SolveReport::Search(result) => {
            put("search.evaluated_moves", result.evaluated_moves as f64);
            put("search.accepted_moves", result.accepted_moves as f64);
            put("search.rounds", result.rounds as f64);
            put("search.moves_per_s", result.evaluated_moves as f64 / wall_s);
            put(
                "search.regions_per_move",
                spans.len() as f64 / (result.evaluated_moves as f64).max(1.0),
            );
        }
    }

    // master self + critical compute + sync overhead is the wall clock by
    // construction; what can break is causality between the two clocks (a
    // worker reporting more seconds than the master's span around it) or a
    // region the two recorders disagree on.
    let residual = (master_self_s + critical_s + sync_s - wall_s).abs() / wall_s;
    let causal = splits.iter().all(|r| r.sync_overhead >= -1e-6);
    let counted = spans.len() as u64 == run.report.regions();
    (
        3,
        u64::from(residual > 0.01) + u64::from(!causal) + u64::from(!counted),
    )
}

/// The paper's baseline, traced once on real threads: what oldPAR's wall
/// clock is made of, and that it is slower than newPAR.
fn oldpar_layers(
    old: &Problem,
    workers: usize,
    new_wall_s: f64,
    new_regions: u64,
    metrics: &mut BTreeMap<String, f64>,
) -> (u64, u64) {
    let traced = traced_run(old, workers);
    let mut own = BTreeMap::new();
    let splits = split_regions(&traced.spans, &traced.trace);
    let (attempted, failed) = attribute(&traced, &splits, &mut own);
    let wall_s = traced.run.wall_s;
    let regions = traced.run.report.regions();
    metrics.insert("oldpar.wall_s".into(), wall_s);
    metrics.insert("oldpar.regions".into(), regions as f64);
    for (from, to) in [
        ("parallel.critical_compute_s", "oldpar.critical_compute_s"),
        ("parallel.sync_overhead_s", "oldpar.sync_overhead_s"),
        (
            "parallel.sync_overhead_us_p50",
            "oldpar.sync_overhead_us_p50",
        ),
        ("optimize.master_self_s", "oldpar.master_self_s"),
    ] {
        metrics.insert(to.into(), own[from]);
    }
    metrics.insert("optimize.old_over_new_wall".into(), wall_s / new_wall_s);
    metrics.insert(
        "optimize.old_over_new_regions".into(),
        regions as f64 / new_regions as f64,
    );
    println!("# paper: oldPAR {wall_s:.3} s / {regions} regions, newPAR {new_wall_s:.3} s / {new_regions} regions");
    (attempted + 1, failed + u64::from(wall_s <= new_wall_s))
}

/// The traced pass of a single-dataset workload.
pub fn solve_layers(workload: &str, seed: u64, seconds: f64) -> Pass {
    let (problem, generate_s) = seconds_of(|| {
        Problem::for_workload(workload, seed).expect("the caller dispatches on the workload name")
    });
    let mut layers = problem_layers(&problem, workload, seconds);
    layers
        .metrics
        .insert("seqgen.generate_s".into(), generate_s);
    layers
}

/// Everything [`solve_layers`] measures on an already generated problem.
fn problem_layers(problem: &Problem, workload: &str, seconds: f64) -> Pass {
    let workers = host::nproc();
    let mut metrics = BTreeMap::new();
    input_layers(&problem.dataset, &mut metrics);

    let patterns = &problem.dataset.patterns;
    let (cyclic, cyclic_s) =
        seconds_of(|| schedule(patterns, &problem.categories, workers, &Cyclic));
    let (lpt, lpt_s) = seconds_of(|| {
        WeightedLpt.assign(
            &PatternCosts::analytic_tabled(patterns, &problem.categories),
            workers,
        )
    });
    let imbalance = |a: Result<phylo_sched::Assignment, _>| a.map_or(0.0, |a| a.imbalance());
    metrics.insert("sched.assign_us.cyclic".into(), cyclic_s * 1e6);
    metrics.insert("sched.assign_us.weighted_lpt".into(), lpt_s * 1e6);
    metrics.insert("sched.predicted_imbalance.cyclic".into(), imbalance(cyclic));
    metrics.insert(
        "sched.predicted_imbalance.weighted_lpt".into(),
        imbalance(lpt),
    );

    let (executor, spawn_s) = seconds_of(|| problem.threaded_executor(workers, true));
    let (kernel, build_s) = seconds_of(|| problem.kernel(SpanExecutor::new(executor, patterns)));
    drop(kernel);
    metrics.insert("parallel.spawn_s".into(), spawn_s);
    metrics.insert("kernel.build_s".into(), build_s);

    kernel_micro_phases(problem, &mut metrics);

    // Warm-up, then sequential, untraced and traced repetitions in turn.
    problem.run(problem.prepare(workers));
    let mut sequential = Vec::new();
    let mut untraced = Vec::new();
    let mut cpu = Vec::new();
    let mut traced = Vec::new();
    let started = Instant::now();
    while traced.is_empty() || started.elapsed().as_secs_f64() < seconds {
        sequential.push(problem.run_sequential().wall_s);
        let mut kernel = problem.threaded_kernel(workers);
        let cpu_before = host::process_cpu_seconds();
        untraced.push(timed_solve(problem, &mut kernel));
        cpu.push(host::process_cpu_seconds() - cpu_before);
        drop(kernel);
        traced.push(traced_run(problem, workers));
    }
    let untraced_wall = median(untraced.iter().map(|r| r.wall_s));
    wall_clock_layers(untraced_wall, sequential, cpu, &mut metrics);
    let traced_walls: Vec<f64> = traced.iter().map(|t| t.run.wall_s).collect();
    metrics.insert(
        "bench.trace_overhead".into(),
        median(traced_walls.iter().copied()) / untraced_wall,
    );
    let chosen = &traced[median_index(&traced_walls)];
    let splits = split_regions(&chosen.spans, &chosen.trace);
    let (mut attempted, mut failed) = attribute(chosen, &splits, &mut metrics);

    // Tracing must not change the answer or the command stream.
    let answer = |run: &SolveRun| (run.report.log_likelihood().to_bits(), run.report.regions());
    for run in traced.iter().map(|t| &t.run).chain(&untraced) {
        attempted += 1;
        failed += u64::from(answer(run) != answer(&untraced[0]));
    }

    if let Some(old) = problem.paper_baseline() {
        let (old_attempted, old_failed) = oldpar_layers(
            &old,
            workers,
            untraced_wall,
            untraced[0].report.regions(),
            &mut metrics,
        );
        attempted += old_attempted;
        failed += old_failed;
    }

    println!(
        "# {workload}: {} traced + {} untraced reps at {workers} workers",
        traced.len(),
        untraced.len()
    );
    Pass {
        attempted,
        failed,
        metrics,
        trace_jsonl: Some(trace_jsonl(workload, chosen.solve, &chosen.spans, &splits)),
    }
}

/// The traced pass of the serving workload. The pool owns its executor, so
/// there is no seam to put a span executor in: the layer numbers are the
/// pool's own aggregates and the per-session outcomes.
pub fn fleet_layers(seed: u64, seconds: f64) -> Pass {
    let workers = host::nproc();
    let mut metrics = BTreeMap::new();

    let (fleet, generate_s) = seconds_of(|| Fleet::generate(seed));
    metrics.insert("seqgen.generate_s".to_string(), generate_s);
    input_layers(&fleet.sessions[0], &mut metrics);
    let (pool, spawn_s) = seconds_of(|| Fleet::start_pool(workers));
    pool.shutdown();
    metrics.insert("parallel.spawn_s".into(), spawn_s);

    let solo = fleet.solo_runs(workers);
    let dedicated_s: f64 = solo.iter().map(|&(_, s)| s).sum();

    fleet.serve(Fleet::start_pool(workers));
    let mut sequential = Vec::new();
    let mut cpu = Vec::new();
    let mut runs = Vec::new();
    let started = Instant::now();
    while runs.is_empty() || started.elapsed().as_secs_f64() < seconds {
        sequential.push(fleet.run_sequential().wall_s);
        let pool = Fleet::start_pool(workers);
        let cpu_before = host::process_cpu_seconds();
        runs.push(fleet.serve(pool));
        cpu.push(host::process_cpu_seconds() - cpu_before);
    }
    let walls: Vec<f64> = runs.iter().map(|r| r.wall_s).collect();
    let chosen = &runs[median_index(&walls)];
    wall_clock_layers(chosen.wall_s, sequential, cpu, &mut metrics);

    let mut put = |name: &str, value: f64| {
        metrics.insert(name.to_string(), value);
    };
    let stats = &chosen.stats;
    put("serve.ops_dispatched", stats.ops_dispatched as f64);
    put("serve.batches", stats.batches as f64);
    put(
        "serve.fusion_ratio",
        stats.ops_dispatched as f64 / (stats.batches as f64).max(1.0),
    );
    put("serve.max_batch_fused", stats.max_batch_fused as f64);
    put("serve.worker_panics", stats.worker_panics as f64);
    put(
        "serve.admit_us_p50",
        percentile(chosen.admit_s.iter().map(|s| s * 1e6), 50.0),
    );
    put("serve.dedicated_total_s", dedicated_s);
    put("serve.transport_ratio", chosen.wall_s / dedicated_s);
    put("serve.sessions_per_s", SESSIONS as f64 / chosen.wall_s);
    let latencies = || {
        runs.iter()
            .flat_map(|r| &r.outcomes)
            .map(|o| o.latency.as_secs_f64())
    };
    put("serve.session_p50_s", percentile(latencies(), 50.0));
    put("serve.session_p90_s", percentile(latencies(), 90.0));
    // Nothing is traced on this path, so there is no overhead to report.
    put("bench.trace_overhead", 1.0);

    let mut attempted = 0;
    let mut failed = 0;
    for run in &runs {
        for (outcome, &(lnl, _)) in run.outcomes.iter().zip(&solo) {
            attempted += 1;
            failed += u64::from(outcome.final_log_likelihood.to_bits() != lnl.to_bits());
        }
    }
    println!("# serve_fleet: {} reps at pool width {workers}", runs.len());
    Pass {
        attempted,
        failed,
        metrics,
        trace_jsonl: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solve::Solve;
    use crate::spec::Spec;
    use phylo_optimize::{OptimizerConfig, ParallelScheme};
    use phylo_search::SearchConfig;
    use phylo_seqgen::datasets::paper_simulated;

    fn assert_listed(layers: &Pass) {
        let spec = Spec::parse(include_str!("../../BENCHMARK.json")).unwrap();
        assert_eq!(layers.failed, 0);
        for name in layers.metrics.keys() {
            assert!(
                spec.per_layer.iter().any(|m| &m.name == name),
                "`{name}` is measured but BENCHMARK.json does not list it"
            );
        }
    }

    #[test]
    fn an_optimize_problem_yields_only_listed_metrics_and_the_paper_comparison() {
        let mut problem = Problem::new(
            paper_simulated(6, 120, 40, 11).generate(),
            Solve::Optimize(OptimizerConfig::new(ParallelScheme::New)),
        );
        problem.paper_comparison = true;
        let layers = problem_layers(&problem, "tiny", 0.0);
        assert_listed(&layers);
        assert!(layers.metrics["optimize.old_over_new_regions"] >= 1.0);
        assert!(layers.metrics["parallel.regions.derivatives"] > 0.0);
        assert!(layers.trace_jsonl.is_some());
    }

    #[test]
    fn a_search_problem_yields_only_listed_metrics() {
        let mut config = SearchConfig::new(ParallelScheme::New);
        config.max_rounds = 1;
        config.spr_radius = 2;
        let problem = Problem::new(
            paper_simulated(6, 80, 40, 12).generate(),
            Solve::Search(config),
        );
        let layers = problem_layers(&problem, "tiny", 0.0);
        assert_listed(&layers);
        assert!(layers.metrics["search.evaluated_moves"] > 0.0);
    }

    #[test]
    fn median_index_picks_the_lower_median() {
        assert_eq!(median_index(&[3.0, 1.0, 2.0]), 2);
        assert_eq!(median_index(&[4.0, 1.0, 3.0, 2.0]), 3);
        assert_eq!(median_index(&[5.0]), 0);
    }
}
