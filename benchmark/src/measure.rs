//! The untraced pass: end-to-end metrics and the correctness checks.

use std::collections::BTreeMap;
use std::time::Instant;

use phylo_serve::SessionManager;

use crate::calibrate::{calibration_seconds, CALIBRATION_NOMINAL_S};
use crate::fleet::Fleet;
use crate::host;
use crate::solve::{timed_solve, Problem, SolveRun, ThreadedKernel};
use crate::stats::median;

/// A solve (or session) whose log likelihood is further than this from the
/// reference, relative to it, counts as failed.
pub const LNL_TOLERANCE: f64 = 1e-6;
/// Measuring cycles are never fewer than this, however short `--seconds`.
const MIN_CYCLES: usize = 3;
/// The paper's region-count result: oldPAR issues at least this many times
/// the parallel regions of newPAR on the same data.
pub const OLD_OVER_NEW_REGIONS: u64 = 10;

/// What one repetition yields: the wall clock and every answer it produced
/// (one per solve, or one per session of the fleet).
pub struct RepOutcome {
    pub wall_s: f64,
    pub log_likelihoods: Vec<f64>,
    /// Parallel regions issued.
    pub regions: u64,
}

impl From<SolveRun> for RepOutcome {
    fn from(run: SolveRun) -> Self {
        RepOutcome {
            wall_s: run.wall_s,
            log_likelihoods: vec![run.report.log_likelihood()],
            regions: run.report.regions(),
        }
    }
}

/// A workload as the measuring loop sees it.
pub trait Case: Sized {
    /// Whatever a repetition consumes: built fresh per repetition, outside
    /// the timed section (but inside `setup_s`).
    type Ready;

    fn generate(workload: &str, seed: u64) -> Self;
    fn prepare(&self, workers: usize) -> Self::Ready;
    fn run(&self, ready: Self::Ready) -> RepOutcome;
    /// The same work done the plain single-threaded way: no worker threads,
    /// no pool, nothing to wake up.
    fn run_sequential(&self) -> RepOutcome;

    /// The answers every repetition is checked against.
    fn reference(&self, workers: usize) -> Vec<f64>;
    /// Whether width-`workers` repetitions must match the reference bit for
    /// bit (otherwise within [`LNL_TOLERANCE`]).
    fn reference_is_exact(&self) -> bool;
    /// Workload-specific assertions on the measured result, as
    /// `(attempted, failed)`.
    fn extra_checks(&self, _regions: u64) -> (u64, u64) {
        (0, 0)
    }
}

impl Case for Problem {
    type Ready = ThreadedKernel;

    fn generate(workload: &str, seed: u64) -> Self {
        Problem::for_workload(workload, seed).expect("the caller dispatches on the workload name")
    }

    fn prepare(&self, workers: usize) -> ThreadedKernel {
        self.threaded_kernel(workers)
    }

    fn run(&self, mut kernel: ThreadedKernel) -> RepOutcome {
        timed_solve(self, &mut kernel).into()
    }

    fn run_sequential(&self) -> RepOutcome {
        timed_solve(self, &mut self.kernel(self.sequential_executor())).into()
    }

    fn reference(&self, _workers: usize) -> Vec<f64> {
        vec![self.reference_log_likelihood()]
    }

    fn reference_is_exact(&self) -> bool {
        false
    }

    /// Half of the paper's result, asserted wherever the paper's dataset
    /// runs: on the same data oldPAR issues at least ten times the regions
    /// of newPAR. Region counts do not depend on the executor, so oldPAR
    /// runs on the sequential one; that oldPAR is also slower on real
    /// threads is asserted in the traced pass, which times it.
    fn extra_checks(&self, regions: u64) -> (u64, u64) {
        let Some(old) = self.paper_baseline() else {
            return (0, 0);
        };
        let old_regions = old.run_sequential().regions;
        println!("# paper: oldPAR issues {old_regions} regions, newPAR {regions}");
        (1, u64::from(old_regions < OLD_OVER_NEW_REGIONS * regions))
    }
}

impl Case for Fleet {
    type Ready = SessionManager;

    fn generate(_workload: &str, seed: u64) -> Self {
        Fleet::generate(seed)
    }

    fn prepare(&self, workers: usize) -> SessionManager {
        Fleet::start_pool(workers)
    }

    fn run(&self, pool: SessionManager) -> RepOutcome {
        let run = self.serve(pool);
        RepOutcome {
            wall_s: run.wall_s,
            log_likelihoods: run
                .outcomes
                .iter()
                .map(|o| o.final_log_likelihood)
                .collect(),
            regions: run.stats.ops_dispatched,
        }
    }

    fn run_sequential(&self) -> RepOutcome {
        let started = Instant::now();
        let log_likelihoods = self.sequential_runs();
        RepOutcome {
            wall_s: started.elapsed().as_secs_f64(),
            log_likelihoods,
            regions: 0,
        }
    }

    fn reference(&self, workers: usize) -> Vec<f64> {
        self.solo_runs(workers)
            .into_iter()
            .map(|(lnl, _)| lnl)
            .collect()
    }

    fn reference_is_exact(&self) -> bool {
        true
    }
}

/// The end-to-end metrics, in the order `end_to_end` computes them.
pub const END_TO_END: [&str; 5] = [
    "setup_s",
    "seq_wall_rel",
    "speedup",
    "regions",
    "peak_rss_mb",
];

/// What one pass of one workload yields.
pub struct Pass {
    pub attempted: u64,
    pub failed: u64,
    /// Metric name to value; units come from `BENCHMARK.json`.
    pub metrics: BTreeMap<String, f64>,
    /// The traced pass's spans as JSON lines, where spans exist.
    pub trace_jsonl: Option<String>,
}

/// Checks every answer of every repetition — each is one attempted
/// operation — against the reference (bit for bit if `exact`, else within
/// [`LNL_TOLERANCE`]) and against the first repetition's bits. Returns
/// `(attempted, failed)` and raises `worst` to the largest relative error.
fn check(reps: &[&RepOutcome], reference: &[f64], exact: bool, worst: &mut f64) -> (u64, u64) {
    let (mut attempted, mut failed) = (0, 0);
    for rep in reps {
        for (i, &lnl) in rep.log_likelihoods.iter().enumerate() {
            let error = (lnl - reference[i]).abs() / reference[i].abs();
            *worst = worst.max(error);
            let same_as_first = lnl.to_bits() == reps[0].log_likelihoods[i].to_bits();
            let matches_reference = if exact {
                lnl.to_bits() == reference[i].to_bits()
            } else {
                error <= LNL_TOLERANCE
            };
            attempted += 1;
            failed += u64::from(!(same_as_first && matches_reference));
        }
    }
    (attempted, failed)
}

/// One measuring cycle, all of it within a second or two: a set-up, the
/// full-width repetition that consumes it and the sequential repetition, with
/// a calibration on the same thread right next to every time that is gated.
struct Cycle {
    /// Calibration right before the set-up.
    setup_calibration_s: f64,
    setup_s: f64,
    full: RepOutcome,
    /// Process CPU seconds the full-width repetition consumed.
    cpu_s: f64,
    /// Mean of the calibrations right before and right after the sequential
    /// repetition.
    calibration_s: f64,
    sequential: RepOutcome,
}

impl Cycle {
    /// The set-up in calibrated seconds: what it would have taken on the
    /// reference host at its nominal speed.
    fn calibrated_setup_s(&self) -> f64 {
        self.setup_s / self.setup_calibration_s * CALIBRATION_NOMINAL_S
    }

    /// The sequential wall clock in units of the calibration kernel.
    fn seq_wall_rel(&self) -> f64 {
        self.sequential.wall_s / self.calibration_s
    }

    fn speedup(&self) -> f64 {
        self.sequential.wall_s / self.full.wall_s
    }
}

fn cycle<C: Case>(workload: &str, seed: u64, workers: usize) -> (C, Cycle) {
    let setup_calibration_s = calibration_seconds();
    let started = Instant::now();
    let case = C::generate(workload, seed);
    let ready = case.prepare(workers);
    let setup_s = started.elapsed().as_secs_f64();
    let cpu_before = host::process_cpu_seconds();
    let full = case.run(ready);
    let cpu_s = host::process_cpu_seconds() - cpu_before;
    let calibration_before = calibration_seconds();
    let sequential = case.run_sequential();
    let calibration_s = (calibration_before + calibration_seconds()) / 2.0;
    let cycle = Cycle {
        setup_calibration_s,
        setup_s,
        full,
        cpu_s,
        calibration_s,
        sequential,
    };
    (case, cycle)
}

/// Runs the untraced pass of one workload.
pub fn end_to_end<C: Case>(workload: &str, seed: u64, seconds: f64) -> Pass {
    let workers = host::nproc();

    // The first cycle warms up and is discarded; its case serves the checks.
    let (case, _) = cycle::<C>(workload, seed, workers);
    let reference = case.reference(workers);

    // This host's speed drifts by tens of percent over seconds to minutes
    // (README, "Baseline and noise"). Many short cycles spread every metric's
    // samples over the whole window, and every timing that is gated is a
    // ratio of neighbours within a cycle, in which the drift cancels.
    let mut cycles = Vec::new();
    let timed = Instant::now();
    while cycles.len() < MIN_CYCLES || timed.elapsed().as_secs_f64() < seconds {
        cycles.push(cycle::<C>(workload, seed, workers).1);
    }

    let full: Vec<&RepOutcome> = cycles.iter().map(|c| &c.full).collect();
    let sequential: Vec<&RepOutcome> = cycles.iter().map(|c| &c.sequential).collect();
    let mut worst = 0.0;
    let exact = case.reference_is_exact();
    let (mut attempted, mut failed) = check(&full, &reference, exact, &mut worst);
    let (seq_attempted, seq_failed) = check(&sequential, &reference, false, &mut worst);
    let regions = full[0].regions;
    let (extra_attempted, extra_failed) = case.extra_checks(regions);
    attempted += seq_attempted + extra_attempted;
    failed += seq_failed + extra_failed;

    type Sample = fn(&Cycle) -> f64;
    let over_cycles = |value: Sample| median(cycles.iter().map(value));
    println!(
        "# {workload}: {} cycles at {workers} workers, worst lnL relative error {worst:.3e}",
        cycles.len()
    );
    // Seconds as the clock read them are printed, not gated.
    let printed: [(&str, Sample); 6] = [
        ("setup_calibration_s", |c| c.setup_calibration_s),
        ("raw_setup_s", |c| c.setup_s),
        ("wall_s", |c| c.full.wall_s),
        ("cpu_s", |c| c.cpu_s),
        ("calibration_s", |c| c.calibration_s),
        ("seq_wall_s", |c| c.sequential.wall_s),
    ];
    for (name, value) in printed {
        let samples: Vec<String> = cycles.iter().map(|c| format!("{:.4}", value(c))).collect();
        println!(
            "# {workload}: {name} median {:.4} of {}: {}",
            over_cycles(value),
            samples.len(),
            samples.join(" ")
        );
    }
    let values = [
        over_cycles(Cycle::calibrated_setup_s),
        over_cycles(Cycle::seq_wall_rel),
        over_cycles(Cycle::speedup),
        regions as f64,
        peak_rss_of_one_solve(workload, seed),
    ];
    Pass {
        attempted,
        failed,
        metrics: END_TO_END
            .map(String::from)
            .into_iter()
            .zip(values)
            .collect(),
        trace_jsonl: None,
    }
}

/// Runs set-up and one full-width solve in a process of their own and returns
/// its `VmHWM`. Measured on this process the peak would depend on how many
/// repetitions fitted into `--seconds` and on which allocator arenas their
/// threads happened to reuse.
fn peak_rss_of_one_solve(workload: &str, seed: u64) -> f64 {
    let exe = std::env::current_exe().expect("the running binary has a path");
    let output = std::process::Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--rss-probe", "1"])
        .output()
        .expect("the benchmark can start itself");
    String::from_utf8_lossy(&output.stdout)
        .trim()
        .parse()
        .expect("the probe prints one number")
}

/// The child side of [`peak_rss_of_one_solve`].
pub fn rss_probe<C: Case>(workload: &str, seed: u64) {
    let case = C::generate(workload, seed);
    case.run(case.prepare(host::nproc()));
    println!("{}", host::peak_rss_mib());
}
