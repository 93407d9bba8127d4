//! Spans recorded from outside the program: one per `Executor::execute` call.
//!
//! [`SpanExecutor`] wraps any executor and brackets every command with the
//! benchmark's own clock. Together with the inner `ThreadedExecutor`'s public
//! timed `WorkTrace` (per-worker seconds of the same regions) this splits the
//! solve's wall clock without touching a first-party file:
//!
//! ```text
//! solve wall = master self                      (solve span − Σ region spans)
//!            + Σ max_w compute   = critical compute = mean compute + imbalance slack
//!            + Σ (span − max_w)  = sync overhead   (snapshot, wake-up, reply, reduce)
//! ```
//!
//! The three terms sum to the wall clock by construction.

use std::time::Instant;

use phylo_data::PartitionedPatterns;
use phylo_kernel::cost::{
    derivative_flops, evaluate_flops, newview_bytes, newview_flops_tabled, sumtable_flops, OpKind,
    WorkTrace,
};
use phylo_kernel::{ExecContext, ExecError, Executor, KernelOp, OpOutput};
use phylo_telemetry::json::JsonValue;

/// The four op kinds in the order every per-op metric is reported.
pub const OP_KINDS: [OpKind; 4] = [
    OpKind::Newview,
    OpKind::Evaluate,
    OpKind::Sumtable,
    OpKind::Derivatives,
];

/// One region as the master saw it.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub kind: OpKind,
    /// Seconds since the executor's epoch.
    pub start: f64,
    pub end: f64,
    pub active_partitions: u32,
    /// Patterns the command touches over all workers (× traversal length for
    /// `newview`, i.e. pattern-nodes).
    pub live: f64,
    /// Arithmetic and CLV traffic of the region, computed from the kernel's
    /// analytic cost model (not measured).
    pub flops: f64,
    pub bytes: f64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        self.end - self.start
    }
}

/// Wraps an executor and records a [`Span`] around every command.
#[derive(Debug)]
pub struct SpanExecutor<E> {
    inner: E,
    epoch: Instant,
    spans: Vec<Span>,
    /// Pattern count of each partition.
    partition_patterns: Vec<f64>,
}

impl<E: Executor> SpanExecutor<E> {
    pub fn new(inner: E, patterns: &PartitionedPatterns) -> Self {
        Self {
            inner,
            epoch: Instant::now(),
            spans: Vec::new(),
            partition_patterns: patterns
                .partitions
                .iter()
                .map(|p| p.pattern_count() as f64)
                .collect(),
        }
    }

    pub fn inner(&self) -> &E {
        &self.inner
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Seconds since the epoch every span is stamped against.
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    fn describe(&self, op: &KernelOp, ctx: &ExecContext<'_>, start: f64, end: f64) -> Span {
        let mut span = Span {
            kind: op.kind(),
            start,
            end,
            active_partitions: 0,
            live: 0.0,
            flops: 0.0,
            bytes: 0.0,
        };
        let mut add = |pi: usize, repeat: f64, flops: fn(usize, usize) -> f64, with_bytes: bool| {
            let model = ctx.models.model(pi);
            let n = self.partition_patterns[pi] * repeat;
            span.active_partitions += 1;
            span.live += n;
            span.flops += n * flops(model.states(), model.categories());
            if with_bytes {
                span.bytes += n * newview_bytes(model.states(), model.categories());
            }
        };
        match op {
            KernelOp::Newview { plans, .. } => {
                for (pi, plan) in plans.iter().enumerate() {
                    if let Some(plan) = plan {
                        add(pi, plan.len() as f64, newview_flops_tabled, true);
                    }
                }
            }
            KernelOp::Evaluate { mask, .. } => {
                for pi in (0..mask.len()).filter(|&pi| mask[pi]) {
                    add(pi, 1.0, evaluate_flops, false);
                }
            }
            KernelOp::Sumtable { mask, .. } => {
                for pi in (0..mask.len()).filter(|&pi| mask[pi]) {
                    add(pi, 1.0, sumtable_flops, false);
                }
            }
            KernelOp::Derivatives { lengths } => {
                for pi in (0..lengths.len()).filter(|&pi| lengths[pi].is_some()) {
                    add(pi, 1.0, derivative_flops, false);
                }
            }
        }
        span
    }
}

impl<E: Executor> Executor for SpanExecutor<E> {
    fn worker_count(&self) -> usize {
        self.inner.worker_count()
    }

    fn execute(&mut self, op: &KernelOp, ctx: &ExecContext<'_>) -> Result<OpOutput, ExecError> {
        let start = self.now();
        let result = self.inner.execute(op, ctx);
        let end = self.now();
        let span = self.describe(op, ctx, start, end);
        self.spans.push(span);
        result
    }

    fn sync_events(&self) -> u64 {
        self.inner.sync_events()
    }

    fn attach_telemetry(&mut self, telemetry: &phylo_telemetry::Telemetry) {
        self.inner.attach_telemetry(telemetry);
    }
}

/// One region's share of the wall clock.
#[derive(Debug, Clone, Copy)]
pub struct RegionSplit {
    pub compute_max: f64,
    pub compute_mean: f64,
    /// `compute_max − compute_mean`: what the fastest workers idle.
    pub slack: f64,
    /// `span − compute_max`: everything around the kernel work.
    pub sync_overhead: f64,
}

/// Splits each span by the per-worker seconds the timed executor recorded for
/// the same region (`spans[i]` and `trace.regions[i]` are the same command).
pub fn split_regions(spans: &[Span], trace: &WorkTrace) -> Vec<RegionSplit> {
    assert_eq!(
        spans.len(),
        trace.regions.len(),
        "the span executor and the timed executor must have seen the same regions"
    );
    spans
        .iter()
        .zip(&trace.regions)
        .map(|(span, region)| {
            let workers = region.seconds_per_worker.len().max(1) as f64;
            let compute_max = region
                .seconds_per_worker
                .iter()
                .cloned()
                .fold(0.0, f64::max);
            let compute_mean = region.seconds_per_worker.iter().sum::<f64>() / workers;
            RegionSplit {
                compute_max,
                compute_mean,
                slack: compute_max - compute_mean,
                sync_overhead: span.seconds() - compute_max,
            }
        })
        .collect()
}

/// The trace as JSON lines: the solve span first, then one line per region
/// with the solve span as its parent.
pub fn trace_jsonl(
    workload: &str,
    solve: (f64, f64),
    spans: &[Span],
    splits: &[RegionSplit],
) -> String {
    let num = JsonValue::Num;
    let mut out = JsonValue::obj(vec![
        ("id", num(0.0)),
        ("parent", JsonValue::Null),
        ("name", JsonValue::Str(format!("solve:{workload}"))),
        ("start_s", num(solve.0)),
        ("end_s", num(solve.1)),
    ])
    .to_json();
    out.push('\n');
    for (i, (span, split)) in spans.iter().zip(splits).enumerate() {
        let line = JsonValue::obj(vec![
            ("id", num((i + 1) as f64)),
            ("parent", num(0.0)),
            ("name", JsonValue::Str(span.kind.label().to_string())),
            ("start_s", num(span.start)),
            ("end_s", num(span.end)),
            ("active_partitions", num(f64::from(span.active_partitions))),
            ("live_patterns", num(span.live)),
            ("compute_max_s", num(split.compute_max)),
            ("compute_mean_s", num(split.compute_mean)),
            ("slack_s", num(split.slack)),
            ("sync_overhead_s", num(split.sync_overhead)),
        ]);
        out.push_str(&line.to_json());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solve::{timed_solve, Problem, Solve};
    use phylo_optimize::{OptimizerConfig, ParallelScheme};
    use phylo_seqgen::datasets::paper_simulated;

    const WORKERS: usize = 2;

    fn tiny() -> Problem {
        Problem::new(
            paper_simulated(6, 120, 40, 7).generate(),
            Solve::Optimize(OptimizerConfig::new(ParallelScheme::New)),
        )
    }

    #[test]
    fn wrapping_changes_neither_the_answer_nor_the_command_stream() {
        let problem = tiny();
        let plain = timed_solve(&problem, &mut problem.threaded_kernel(WORKERS));
        let mut kernel = problem.traced_kernel(WORKERS);
        let wrapped = timed_solve(&problem, &mut kernel);
        assert_eq!(
            plain.report.log_likelihood().to_bits(),
            wrapped.report.log_likelihood().to_bits()
        );
        assert_eq!(plain.report.regions(), wrapped.report.regions());
        assert_eq!(
            kernel.sync_events(),
            kernel.executor().inner().sync_events()
        );
    }

    #[test]
    fn every_region_has_one_span_and_one_trace_record() {
        let problem = tiny();
        let mut kernel = problem.traced_kernel(WORKERS);
        let run = timed_solve(&problem, &mut kernel);
        let executor = kernel.executor();
        assert_eq!(executor.spans().len() as u64, run.report.regions());
        assert_eq!(
            executor.spans().len(),
            executor.inner().trace().regions.len()
        );
        for (span, region) in executor
            .spans()
            .iter()
            .zip(&executor.inner().trace().regions)
        {
            assert_eq!(span.kind, region.kind);
            assert_eq!(
                span.active_partitions as usize,
                region.active_partitions.iter().filter(|&&a| a).count()
            );
        }
    }

    #[test]
    fn attribution_sums_to_the_solve_wall_with_no_negative_term() {
        let problem = tiny();
        let mut kernel = problem.traced_kernel(WORKERS);
        let start = kernel.executor().now();
        timed_solve(&problem, &mut kernel);
        let wall = kernel.executor().now() - start;
        let executor = kernel.executor();
        let splits = split_regions(executor.spans(), executor.inner().trace());
        for split in &splits {
            assert!(split.sync_overhead >= 0.0, "{split:?}");
            assert!(split.slack >= 0.0, "{split:?}");
        }
        let exec: f64 = executor.spans().iter().map(Span::seconds).sum();
        let master_self = wall - exec;
        assert!(master_self >= 0.0, "regions cannot outlast the solve");
        let parts = master_self
            + splits.iter().map(|r| r.compute_max).sum::<f64>()
            + splits.iter().map(|r| r.sync_overhead).sum::<f64>();
        assert!((parts - wall).abs() <= 0.01 * wall, "{parts} vs {wall}");
    }

    #[test]
    fn spans_carry_the_cost_model_of_the_op_they_wrap() {
        let problem = tiny();
        let mut kernel = problem.traced_sequential_kernel();
        kernel.try_log_likelihood().unwrap();
        let spans = kernel.executor().spans();
        let patterns = problem.dataset.patterns.total_patterns() as f64;
        let evaluate = spans.iter().find(|s| s.kind == OpKind::Evaluate).unwrap();
        assert_eq!(evaluate.live, patterns);
        assert_eq!(evaluate.flops, patterns * evaluate_flops(4, 4));
        assert_eq!(evaluate.bytes, 0.0);
        // A cold sweep computes every inner CLV once: taxa − 2 nodes.
        let newview: f64 = spans
            .iter()
            .filter(|s| s.kind == OpKind::Newview)
            .map(|s| s.live)
            .sum();
        assert_eq!(newview, patterns * 4.0);
        let jsonl = trace_jsonl(
            "tiny",
            (0.0, 1.0),
            spans,
            &vec![
                RegionSplit {
                    compute_max: 0.0,
                    compute_mean: 0.0,
                    slack: 0.0,
                    sync_overhead: 0.0
                };
                spans.len()
            ],
        );
        assert_eq!(jsonl.lines().count(), spans.len() + 1);
        assert!(jsonl.lines().all(|line| JsonValue::parse(line).is_some()));
    }
}
