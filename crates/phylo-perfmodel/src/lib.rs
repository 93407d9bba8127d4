//! Analytical platform performance model.
//!
//! The paper reports absolute run times on four 2009-era multi-core machines
//! (Intel Nehalem, Intel Clovertown, AMD Barcelona, Sun x4600) that are not
//! available for this reproduction. The load-balance behaviour itself is
//! captured exactly by the instrumented executor's [`WorkTrace`]: for every
//! parallel region it records how much likelihood work each of the `T` virtual
//! workers received and how many synchronization events occurred. This crate
//! converts such a trace into a predicted run time for a given platform using
//! a simple three-term model per region:
//!
//! ```text
//! t(region) = max_w  flops_w / flop_rate            (compute, critical path)
//!           + max_w  bytes_w / (bandwidth / T)      (memory traffic, RAxML is memory bound)
//!           + sync_latency(T)                       (barrier / reduction)
//! ```
//!
//! The platform constants are calibrated against the qualitative statements in
//! the paper (Nehalem ≈ 40 % faster sequentially than Clovertown thanks to
//! ~30 GB/s per socket; the AMD/NUMA boxes are slower sequentially but provide
//! more aggregate bandwidth for 8–16 threads; the 8-socket x4600 pays the
//! highest synchronization cost). Absolute seconds are therefore approximate,
//! but *who wins, by what factor, and where the scaling collapses* — the shape
//! of Figures 3–6 — comes from the measured trace, not from these constants.
//!
//! ```
//! use phylo_kernel::cost::{OpKind, RegionRecord, WorkTrace};
//! use phylo_perfmodel::Platform;
//!
//! // One perfectly balanced 8-worker region of 1 MFLOP + 1 MB per worker.
//! let mut trace = WorkTrace::new(8);
//! let mut region = RegionRecord::new(OpKind::Newview, 8);
//! region.flops_per_worker = vec![1e6; 8];
//! region.bytes_per_worker = vec![1e6; 8];
//! trace.regions.push(region);
//!
//! let balanced = Platform::nehalem().predict_runtime(&trace);
//! assert!(balanced > 0.0);
//! // Piling the same work onto one worker can only slow the region down.
//! let mut skewed = WorkTrace::new(8);
//! let mut region = RegionRecord::new(OpKind::Newview, 8);
//! region.flops_per_worker[0] = 8e6;
//! region.bytes_per_worker[0] = 8e6;
//! skewed.regions.push(region);
//! assert!(Platform::nehalem().predict_runtime(&skewed) > balanced);
//! ```

#![forbid(unsafe_code)]

use phylo_kernel::cost::{TraceUnit, WorkTrace};
use phylo_sched::Assignment;

/// Hardware description of one evaluation platform.
#[derive(Debug, Clone, PartialEq)]
pub struct Platform {
    /// Display name as used in the paper's figures.
    pub name: String,
    /// Number of physical cores.
    pub cores: usize,
    /// Sustained likelihood-kernel throughput per core, in FLOP/s.
    pub flops_per_core: f64,
    /// Aggregate memory bandwidth available to the likelihood arrays, in
    /// bytes/s, when all cores are active.
    pub memory_bandwidth: f64,
    /// Cost of one synchronization event (barrier + reduction) with two
    /// threads, in seconds; grows logarithmically with the thread count.
    pub base_sync_latency: f64,
}

impl Platform {
    /// 2-socket Intel Nehalem (8 cores, QuickPath NUMA, ~30 GB/s per socket).
    pub fn nehalem() -> Self {
        Self {
            name: "Nehalem".into(),
            cores: 8,
            flops_per_core: 2.1e9,
            memory_bandwidth: 55.0e9,
            base_sync_latency: 4.0e-6,
        }
    }

    /// 2-socket Intel Clovertown (8 cores sharing one front-side bus).
    pub fn clovertown() -> Self {
        Self {
            name: "Clovertown".into(),
            cores: 8,
            flops_per_core: 1.7e9,
            memory_bandwidth: 9.0e9,
            base_sync_latency: 5.0e-6,
        }
    }

    /// 4-socket AMD Barcelona (16 cores, NUMA).
    pub fn barcelona() -> Self {
        Self {
            name: "Barcelona".into(),
            cores: 16,
            flops_per_core: 1.15e9,
            memory_bandwidth: 28.0e9,
            base_sync_latency: 7.0e-6,
        }
    }

    /// 8-socket Sun x4600 (16 cores, NUMA, highest barrier cost).
    pub fn x4600() -> Self {
        Self {
            name: "x4600".into(),
            cores: 16,
            flops_per_core: 1.25e9,
            memory_bandwidth: 32.0e9,
            base_sync_latency: 10.0e-6,
        }
    }

    /// The four platforms of the paper's evaluation, in figure order.
    pub fn paper_platforms() -> Vec<Platform> {
        vec![
            Self::nehalem(),
            Self::clovertown(),
            Self::barcelona(),
            Self::x4600(),
        ]
    }

    /// Synchronization latency for `threads` participating threads.
    pub fn sync_latency(&self, threads: usize) -> f64 {
        if threads <= 1 {
            return 0.0;
        }
        self.base_sync_latency * (threads as f64).log2().max(1.0)
    }

    /// Predicted run time in seconds for a work trace recorded with
    /// `trace.workers` virtual workers.
    ///
    /// # Panics
    ///
    /// Panics if the trace was recorded for more workers than the platform has
    /// cores.
    pub fn predict_runtime(&self, trace: &WorkTrace) -> f64 {
        let threads = trace.workers.max(1);
        assert!(
            threads <= self.cores,
            "trace uses {threads} workers but {} has only {} cores",
            self.name,
            self.cores
        );
        let per_thread_bandwidth = self.memory_bandwidth / threads as f64;
        let sync = self.sync_latency(threads);
        trace
            .regions
            .iter()
            .map(|region| {
                let compute = region
                    .flops_per_worker
                    .iter()
                    .zip(region.bytes_per_worker.iter())
                    .map(|(&flops, &bytes)| {
                        flops / self.flops_per_core + bytes / per_thread_bandwidth
                    })
                    .fold(0.0, f64::max);
                compute + sync
            })
            .sum()
    }

    /// Speedup of a parallel trace relative to a sequential (1-worker) trace.
    pub fn speedup(&self, sequential: &WorkTrace, parallel: &WorkTrace) -> f64 {
        let seq = self.predict_runtime(sequential);
        let par = self.predict_runtime(parallel);
        if par == 0.0 {
            return 1.0;
        }
        seq / par
    }
}

/// Predicted-vs-measured imbalance of one scheduled run: what the scheduler
/// *thought* the per-worker load would be (from the [`Assignment`]'s cost
/// model) against what the instrumented executor *measured* (from the
/// [`WorkTrace`]). A large gap means the cost model mis-ranks patterns and a
/// measurement-driven re-schedule will pay off.
#[derive(Debug, Clone, PartialEq)]
pub struct ImbalanceReport {
    /// Name of the strategy that produced the assignment.
    pub strategy: String,
    /// Worker count of the schedule.
    pub workers: usize,
    /// Predicted cost of the most loaded worker.
    pub predicted_max: f64,
    /// Mean predicted cost per worker.
    pub predicted_mean: f64,
    /// Predicted imbalance (max/mean; 1.0 = perfect).
    pub predicted_imbalance: f64,
    /// Measured FLOPs of the most loaded worker, summed over all regions.
    pub measured_max: f64,
    /// Mean measured FLOPs per worker.
    pub measured_mean: f64,
    /// Measured imbalance (max/mean over the aggregated trace).
    pub measured_imbalance: f64,
    /// Region-weighted measured balance (`WorkTrace::overall_balance`): the
    /// mean/max efficiency accounting for one barrier per region.
    pub measured_region_balance: f64,
}

impl ImbalanceReport {
    /// Relative error of the predicted imbalance against the measured one.
    pub fn model_error(&self) -> f64 {
        if self.measured_imbalance == 0.0 {
            return 0.0;
        }
        (self.predicted_imbalance - self.measured_imbalance).abs() / self.measured_imbalance
    }

    /// Fixed-width table row.
    pub fn format(&self) -> String {
        format!(
            "{:<16} {:>3} {:>12.3} {:>12.3} {:>14.3} {:>14.3} {:>10.3}",
            self.strategy,
            self.workers,
            self.predicted_imbalance,
            self.measured_imbalance,
            self.predicted_max,
            self.measured_max,
            self.measured_region_balance,
        )
    }

    /// Header matching [`ImbalanceReport::format`].
    pub fn header() -> String {
        format!(
            "{:<16} {:>3} {:>12} {:>12} {:>14} {:>14} {:>10}",
            "strategy", "T", "pred imbal", "meas imbal", "pred max", "meas max", "region bal"
        )
    }
}

/// Compares an assignment's predicted per-worker costs against the measured
/// per-worker FLOPs of a trace recorded under that assignment
/// ([`imbalance_report_in`] with [`TraceUnit::Flops`]).
///
/// # Panics
///
/// Panics if the trace was recorded for a different worker count than the
/// assignment distributes over.
pub fn imbalance_report(assignment: &Assignment, trace: &WorkTrace) -> ImbalanceReport {
    imbalance_report_in(assignment, trace, TraceUnit::Flops)
}

/// Compares an assignment's predicted per-worker costs against the measured
/// per-worker totals of a trace in an explicit unit. With
/// [`TraceUnit::Seconds`] the measured side is the real wall clock of a
/// timed `ThreadedExecutor` run; the imbalance columns stay directly
/// comparable because max/mean ratios are unitless (the absolute `max`
/// columns are then in different units, of course).
///
/// # Panics
///
/// Panics if the trace was recorded for a different worker count than the
/// assignment distributes over.
pub fn imbalance_report_in(
    assignment: &Assignment,
    trace: &WorkTrace,
    unit: TraceUnit,
) -> ImbalanceReport {
    assert_eq!(
        trace.workers,
        assignment.worker_count(),
        "trace and assignment must describe the same worker count"
    );
    let workers = assignment.worker_count();
    let measured = trace.per_worker_total_in(unit);
    let measured_max = measured.iter().cloned().fold(0.0, f64::max);
    let measured_mean = measured.iter().sum::<f64>() / workers as f64;
    let measured_imbalance = phylo_sched::assignment::worker_imbalance(&measured);
    ImbalanceReport {
        strategy: assignment.strategy().to_string(),
        workers,
        predicted_max: assignment.max_cost(),
        predicted_mean: assignment.mean_cost(),
        predicted_imbalance: assignment.imbalance(),
        measured_max,
        measured_mean,
        measured_imbalance,
        measured_region_balance: trace.overall_balance_in(unit),
    }
}

/// One row of a figure-3/4/5-style table: run times for one platform.
#[derive(Debug, Clone, PartialEq)]
pub struct FigureRow {
    /// Platform name.
    pub platform: String,
    /// Sequential run time (seconds).
    pub sequential: f64,
    /// oldPAR with 8 threads.
    pub old_8: f64,
    /// newPAR with 8 threads.
    pub new_8: f64,
    /// oldPAR with 16 threads (`None` on 8-core machines).
    pub old_16: Option<f64>,
    /// newPAR with 16 threads (`None` on 8-core machines).
    pub new_16: Option<f64>,
}

impl FigureRow {
    /// Formats the row in a fixed-width table layout.
    pub fn format(&self) -> String {
        let fmt_opt = |v: &Option<f64>| match v {
            Some(x) => format!("{x:>12.1}"),
            None => format!("{:>12}", "-"),
        };
        format!(
            "{:<12} {:>12.1} {:>12.1} {:>12.1} {} {}",
            self.platform,
            self.sequential,
            self.old_8,
            self.new_8,
            fmt_opt(&self.old_16),
            fmt_opt(&self.new_16)
        )
    }

    /// Header matching [`FigureRow::format`].
    pub fn header() -> String {
        format!(
            "{:<12} {:>12} {:>12} {:>12} {:>12} {:>12}",
            "Platform", "Sequential", "Old 8", "New 8", "Old 16", "New 16"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phylo_kernel::cost::{OpKind, RegionRecord, WorkTrace};

    fn balanced_trace(workers: usize, regions: usize, flops: f64) -> WorkTrace {
        let mut t = WorkTrace::new(workers);
        for _ in 0..regions {
            let mut r = RegionRecord::new(OpKind::Newview, workers);
            r.flops_per_worker = vec![flops / workers as f64; workers];
            r.bytes_per_worker = vec![flops / workers as f64; workers];
            t.regions.push(r);
        }
        t
    }

    fn imbalanced_trace(workers: usize, regions: usize, flops: f64) -> WorkTrace {
        let mut t = WorkTrace::new(workers);
        for _ in 0..regions {
            let mut r = RegionRecord::new(OpKind::Derivatives, workers);
            r.flops_per_worker = vec![0.0; workers];
            r.flops_per_worker[0] = flops;
            r.bytes_per_worker = vec![0.0; workers];
            t.regions.push(r);
        }
        t
    }

    #[test]
    fn paper_platforms_have_expected_core_counts() {
        let platforms = Platform::paper_platforms();
        assert_eq!(platforms.len(), 4);
        assert_eq!(platforms[0].cores, 8);
        assert_eq!(platforms[1].cores, 8);
        assert_eq!(platforms[2].cores, 16);
        assert_eq!(platforms[3].cores, 16);
    }

    #[test]
    fn nehalem_is_fastest_sequentially() {
        let seq = balanced_trace(1, 10, 1e9);
        let times: Vec<f64> = Platform::paper_platforms()
            .iter()
            .map(|p| p.predict_runtime(&seq))
            .collect();
        assert!(
            times[0] < times[1],
            "Nehalem must beat Clovertown sequentially"
        );
        assert!(times[0] < times[2] && times[0] < times[3]);
        // Paper: sequential Nehalem run time ≈ 40% lower than Clovertown.
        let reduction = 1.0 - times[0] / times[1];
        assert!(
            (0.2..0.6).contains(&reduction),
            "Nehalem vs Clovertown sequential reduction {reduction}"
        );
    }

    #[test]
    fn balanced_work_scales_well() {
        let p = Platform::nehalem();
        let seq = balanced_trace(1, 100, 1e8);
        let par = balanced_trace(8, 100, 1e8);
        let s = p.speedup(&seq, &par);
        assert!(s > 4.0, "balanced 8-thread speedup {s} too low");
        assert!(s <= 8.0 + 1e-9);
    }

    #[test]
    fn imbalanced_work_does_not_scale() {
        let p = Platform::barcelona();
        let seq = imbalanced_trace(1, 100, 1e8);
        let par = imbalanced_trace(16, 100, 1e8);
        let s = p.speedup(&seq, &par);
        assert!(s < 1.5, "fully serialized work cannot speed up, got {s}");
    }

    #[test]
    fn many_tiny_regions_can_cause_parallel_slowdown() {
        // The paper observes oldPAR running *slower* on 16 cores than on 8:
        // per-region work shrinks while the barrier cost stays, so more
        // threads only add overhead.
        let p = Platform::x4600();
        let seq = imbalanced_trace(1, 20_000, 2e4);
        let par = imbalanced_trace(16, 20_000, 2e4);
        let s = p.speedup(&seq, &par);
        assert!(s < 1.0, "expected a parallel slowdown, got speedup {s}");
    }

    #[test]
    fn clovertown_is_bandwidth_limited_in_parallel() {
        // With 8 threads the Barcelona (NUMA) should catch up with or beat the
        // Clovertown despite its slower cores, as the paper observes.
        let par8 = balanced_trace(8, 50, 1e9);
        let clovertown = Platform::clovertown().predict_runtime(&par8);
        let barcelona_8 = {
            let p = Platform::barcelona();
            p.predict_runtime(&par8)
        };
        assert!(
            barcelona_8 < clovertown * 1.1,
            "Barcelona at 8 threads ({barcelona_8}) should be on par with Clovertown ({clovertown})"
        );
    }

    #[test]
    fn sync_latency_grows_with_threads() {
        let p = Platform::x4600();
        assert_eq!(p.sync_latency(1), 0.0);
        assert!(p.sync_latency(16) > p.sync_latency(8));
    }

    #[test]
    #[should_panic]
    fn rejects_traces_wider_than_the_machine() {
        let p = Platform::nehalem();
        let t = balanced_trace(16, 1, 1e6);
        p.predict_runtime(&t);
    }

    #[test]
    fn imbalance_report_compares_predicted_and_measured() {
        use phylo_sched::{PatternCosts, ScheduleStrategy};

        let costs = PatternCosts::uniform(8);
        let assignment = phylo_sched::Cyclic.assign(&costs, 2).unwrap();
        assert_eq!(assignment.imbalance(), 1.0);

        // The measured trace disagrees: worker 0 did 3× the work.
        let mut trace = WorkTrace::new(2);
        let mut r = RegionRecord::new(OpKind::Newview, 2);
        r.flops_per_worker = vec![300.0, 100.0];
        trace.regions.push(r);

        let report = imbalance_report(&assignment, &trace);
        assert_eq!(report.strategy, "cyclic");
        assert_eq!(report.workers, 2);
        assert!((report.predicted_imbalance - 1.0).abs() < 1e-12);
        assert!((report.measured_imbalance - 1.5).abs() < 1e-12);
        assert_eq!(report.measured_max, 300.0);
        assert!((report.model_error() - 0.5 / 1.5).abs() < 1e-12);
        assert!(report.format().contains("cyclic"));
        assert!(ImbalanceReport::header().contains("pred imbal"));
    }

    #[test]
    fn imbalance_report_reads_wall_clock_seconds() {
        use phylo_sched::{PatternCosts, ScheduleStrategy};

        let costs = PatternCosts::uniform(8);
        let assignment = phylo_sched::Cyclic.assign(&costs, 2).unwrap();
        let mut trace = WorkTrace::new(2);
        let mut r = RegionRecord::new(OpKind::Newview, 2);
        r.seconds_per_worker = vec![0.9, 0.3];
        trace.regions.push(r);

        let report = imbalance_report_in(&assignment, &trace, TraceUnit::Seconds);
        assert!((report.measured_imbalance - 1.5).abs() < 1e-12);
        assert_eq!(report.measured_max, 0.9);
        assert!((report.measured_region_balance - 0.6 / 0.9).abs() < 1e-12);
        // The flops view of the same trace is empty.
        let flops = imbalance_report(&assignment, &trace);
        assert_eq!(flops.measured_max, 0.0);
    }

    #[test]
    #[should_panic(expected = "same worker count")]
    fn imbalance_report_rejects_mismatched_trace() {
        use phylo_sched::ScheduleStrategy;
        let assignment = phylo_sched::Cyclic
            .assign(&phylo_sched::PatternCosts::uniform(4), 2)
            .unwrap();
        let trace = WorkTrace::new(3);
        let _ = imbalance_report(&assignment, &trace);
    }

    #[test]
    fn figure_row_formatting() {
        let row = FigureRow {
            platform: "Nehalem".into(),
            sequential: 1000.0,
            old_8: 400.0,
            new_8: 150.0,
            old_16: None,
            new_16: None,
        };
        let text = row.format();
        assert!(text.contains("Nehalem"));
        assert!(text.contains("1000.0"));
        assert!(FigureRow::header().contains("Sequential"));
    }
}
