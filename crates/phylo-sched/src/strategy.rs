//! Scheduling strategies: from the paper's two fixed schemes to cost-aware
//! and measurement-driven assignment.

use crate::assignment::Assignment;
use crate::cost::PatternCosts;
use crate::error::SchedError;
use phylo_kernel::cost::{TraceUnit, WorkTrace};

/// Produces a pattern→worker [`Assignment`] for a costed workload.
///
/// Implementations must be deterministic: the same costs and worker count
/// always yield the same assignment, so that parallel runs are reproducible
/// and their traces comparable.
pub trait ScheduleStrategy {
    /// Human-readable strategy name (used in reports and diagnostics).
    fn name(&self) -> &str;

    /// Builds the assignment.
    ///
    /// # Errors
    ///
    /// [`SchedError::NoWorkers`] for `worker_count == 0` and
    /// [`SchedError::EmptyWorkload`] for a workload without patterns;
    /// strategies with extra inputs may add their own conditions.
    fn assign(&self, costs: &PatternCosts, worker_count: usize) -> Result<Assignment, SchedError>;
}

/// Boxed strategies schedule like their contents, so builder-style APIs can
/// accept either a concrete strategy or a `Box<dyn ScheduleStrategy>` chosen
/// at run time.
impl ScheduleStrategy for Box<dyn ScheduleStrategy> {
    fn name(&self) -> &str {
        self.as_ref().name()
    }

    fn assign(&self, costs: &PatternCosts, worker_count: usize) -> Result<Assignment, SchedError> {
        self.as_ref().assign(costs, worker_count)
    }
}

fn check_inputs(costs: &PatternCosts, worker_count: usize) -> Result<(), SchedError> {
    if worker_count == 0 {
        return Err(SchedError::NoWorkers);
    }
    if costs.pattern_count() == 0 {
        return Err(SchedError::EmptyWorkload);
    }
    Ok(())
}

/// The paper's scheme: global pattern `g` goes to worker `g mod T`.
///
/// Cost-oblivious, but mixes patterns of all partitions onto every worker,
/// which already balances mixed DNA/protein inputs well when partitions are
/// long relative to the worker count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Cyclic;

impl ScheduleStrategy for Cyclic {
    fn name(&self) -> &str {
        "cyclic"
    }

    fn assign(&self, costs: &PatternCosts, worker_count: usize) -> Result<Assignment, SchedError> {
        check_inputs(costs, worker_count)?;
        let owner: Vec<usize> = (0..costs.pattern_count())
            .map(|g| g % worker_count)
            .collect();
        Assignment::new(self.name(), owner, worker_count, costs)
    }
}

/// The contiguous alternative the paper argues against: the global pattern
/// index space is cut into `T` equal-length blocks.
///
/// Every worker copies its patterns into dense per-partition buffers, so the
/// contiguity of a block buys no scan locality by itself. What it does buy,
/// on equal-sized partitions, is *ownership*: each worker holds whole
/// partitions, reads only their branch tables and runs fewer, longer
/// per-partition loops than under a placement that spreads every partition
/// over all workers. The cut is cost-oblivious, though: a block can land
/// entirely inside one expensive partition — the pathological case for
/// mixed DNA/protein inputs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Block;

impl ScheduleStrategy for Block {
    fn name(&self) -> &str {
        "block"
    }

    fn assign(&self, costs: &PatternCosts, worker_count: usize) -> Result<Assignment, SchedError> {
        check_inputs(costs, worker_count)?;
        let total = costs.pattern_count();
        let chunk = total.div_ceil(worker_count).max(1);
        let owner: Vec<usize> = (0..total)
            .map(|g| (g / chunk).min(worker_count - 1))
            .collect();
        Assignment::new(self.name(), owner, worker_count, costs)
    }
}

/// Longest-processing-time greedy bin-packing over the per-pattern costs.
///
/// Patterns are placed in order of decreasing cost, each onto the currently
/// least-loaded worker. With the analytic cost model this makes a 20-state
/// protein pattern count 21× a DNA pattern, so mixed workloads balance by
/// predicted *work*, not by pattern count. LPT's classical guarantee bounds
/// the makespan within 4/3 of optimal; on phylogenomic inputs (many patterns
/// per worker) it is near-perfect.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WeightedLpt;

/// Shared LPT core over workers with (possibly unequal) speeds:
/// deterministic (cost-descending, index-ascending order; ties between
/// workers go to the lowest index). Each pattern is placed on the worker
/// whose *completion time* `(load + cost) / speed` is smallest; with
/// uniform speeds this is exactly classical least-loaded LPT (the constant
/// `cost / speed` term cancels in the argmin).
///
/// The caller has already run [`check_inputs`] and guarantees
/// `speeds.len() == worker_count` with finite positive entries.
fn lpt_pack(name: &str, costs: &PatternCosts, speeds: &[f64]) -> Result<Assignment, SchedError> {
    let worker_count = speeds.len();
    let mut order: Vec<usize> = (0..costs.pattern_count()).collect();
    // Costs are validated finite at construction, so `total_cmp` is a plain
    // numeric descending order here (no NaN caveats).
    order.sort_by(|&a, &b| costs.cost(b).total_cmp(&costs.cost(a)).then(a.cmp(&b)));
    let mut time = vec![0.0f64; worker_count];
    let mut owner = vec![0usize; costs.pattern_count()];
    for g in order {
        let mut best = 0usize;
        let mut best_finish = time[0] + costs.cost(g) / speeds[0];
        for (w, &t) in time.iter().enumerate().skip(1) {
            let finish = t + costs.cost(g) / speeds[w];
            if finish < best_finish {
                best = w;
                best_finish = finish;
            }
        }
        owner[g] = best;
        time[best] = best_finish;
    }
    Assignment::new(name, owner, worker_count, costs)
}

impl ScheduleStrategy for WeightedLpt {
    fn name(&self) -> &str {
        "weighted-lpt"
    }

    fn assign(&self, costs: &PatternCosts, worker_count: usize) -> Result<Assignment, SchedError> {
        check_inputs(costs, worker_count)?;
        lpt_pack(self.name(), costs, &vec![1.0; worker_count])
    }
}

/// LPT onto workers of *unequal measured speed* (the classical "related
/// machines" makespan heuristic).
///
/// The measured-feedback strategy: a *slow worker* (an oversubscribed or
/// throttled core) owns patterns that are cheap anywhere else, so the
/// measurement is attributed to the worker, not to its patterns. The
/// strategy estimates a per-worker speed from the trace
/// (`predicted work / measured time`) and packs each pattern, in
/// cost-descending order, onto the worker whose *completion time*
/// `(load + cost) / speed` is smallest. With equal speeds it degenerates to
/// plain [`WeightedLpt`]. This is what the mid-run [`Rescheduler`] uses.
///
/// [`Rescheduler`]: crate::reschedule::Rescheduler
#[derive(Debug, Clone, PartialEq)]
pub struct SpeedAwareLpt {
    speeds: Vec<f64>,
}

impl SpeedAwareLpt {
    /// Builds the strategy from explicit per-worker speeds (work per second;
    /// only ratios matter).
    ///
    /// # Errors
    ///
    /// [`SchedError::NoWorkers`] for an empty speed vector and
    /// [`SchedError::InvalidSpeed`] for a NaN, infinite or non-positive
    /// speed.
    pub fn from_speeds(speeds: Vec<f64>) -> Result<Self, SchedError> {
        if speeds.is_empty() {
            return Err(SchedError::NoWorkers);
        }
        for (worker, &value) in speeds.iter().enumerate() {
            if !value.is_finite() || value <= 0.0 {
                return Err(SchedError::InvalidSpeed { worker, value });
            }
        }
        Ok(Self { speeds })
    }

    /// Estimates per-worker speeds from a measured trace: worker `w`'s speed
    /// is `predicted_w / measured_w`, where `predicted_w` is the base cost of
    /// the patterns `prior` gave it and `measured_w` its per-worker total in
    /// `unit`. Workers without a measurement (idle, or a zero-cost share)
    /// are assumed to run at the mean speed of the measured ones.
    ///
    /// # Errors
    ///
    /// [`SchedError::TraceWorkerMismatch`] if the trace and `prior` disagree
    /// on the worker count, [`SchedError::PatternCountMismatch`] if `base`
    /// covers a different number of patterns than `prior`.
    pub fn from_trace(
        prior: &Assignment,
        trace: &WorkTrace,
        unit: TraceUnit,
        base: &PatternCosts,
    ) -> Result<Self, SchedError> {
        if trace.workers != prior.worker_count() {
            return Err(SchedError::TraceWorkerMismatch {
                trace_workers: trace.workers,
                assignment_workers: prior.worker_count(),
            });
        }
        if base.pattern_count() != prior.pattern_count() {
            return Err(SchedError::PatternCountMismatch {
                expected: prior.pattern_count(),
                got: base.pattern_count(),
            });
        }
        let mut predicted = vec![0.0f64; prior.worker_count()];
        for (g, &w) in prior.owner().iter().enumerate() {
            predicted[w] += base.cost(g);
        }
        let measured = trace.per_worker_total_in(unit);
        let observed: Vec<Option<f64>> = predicted
            .iter()
            .zip(&measured)
            .map(|(&p, &m)| (p > 0.0 && m > 0.0).then(|| p / m))
            .collect();
        let known: Vec<f64> = observed.iter().filter_map(|s| *s).collect();
        let fallback = if known.is_empty() {
            1.0
        } else {
            known.iter().sum::<f64>() / known.len() as f64
        };
        Self::from_speeds(
            observed
                .into_iter()
                .map(|s| s.unwrap_or(fallback))
                .collect(),
        )
    }

    /// The per-worker speeds the strategy packs against.
    pub fn speeds(&self) -> &[f64] {
        &self.speeds
    }
}

impl ScheduleStrategy for SpeedAwareLpt {
    fn name(&self) -> &str {
        "speed-lpt"
    }

    fn assign(&self, costs: &PatternCosts, worker_count: usize) -> Result<Assignment, SchedError> {
        check_inputs(costs, worker_count)?;
        if worker_count != self.speeds.len() {
            return Err(SchedError::TraceWorkerMismatch {
                trace_workers: self.speeds.len(),
                assignment_workers: worker_count,
            });
        }
        lpt_pack(self.name(), costs, &self.speeds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phylo_data::{Alignment, DataType, Partition, PartitionSet, PartitionedPatterns};
    use phylo_kernel::cost::{OpKind, RegionRecord};

    /// A mixed DNA/protein workload: DNA characters double as amino-acid
    /// codes, so one alignment carries both partition types. The protein
    /// partition's patterns weigh 21× the DNA ones under the tabled model.
    fn mixed_fixture() -> (PartitionedPatterns, PatternCosts) {
        let make_row = |stride: usize| -> String {
            (0..60)
                .map(|i| ['A', 'C', 'G', 'T'][(i / stride.max(1)) % 4])
                .collect()
        };
        let aln = Alignment::new(vec![
            ("t1".into(), make_row(1)),
            ("t2".into(), make_row(2)),
            ("t3".into(), make_row(3)),
            ("t4".into(), make_row(5)),
        ])
        .unwrap();
        let ps = PartitionSet::new(vec![
            Partition::contiguous("dna0", DataType::Dna, 0..20),
            Partition::contiguous("dna1", DataType::Dna, 20..40),
            Partition::contiguous("prot", DataType::Protein, 40..60),
        ])
        .unwrap();
        let pp = PartitionedPatterns::compile(&aln, &ps).unwrap();
        let costs = PatternCosts::analytic(&pp, &[4, 4, 4]);
        (pp, costs)
    }

    fn all_strategies() -> Vec<Box<dyn ScheduleStrategy>> {
        vec![Box::new(Cyclic), Box::new(Block), Box::new(WeightedLpt)]
    }

    #[test]
    fn every_strategy_covers_each_pattern_exactly_once() {
        let (pp, costs) = mixed_fixture();
        for strategy in all_strategies() {
            for workers in [1usize, 2, 3, 7] {
                let a = strategy.assign(&costs, workers).unwrap();
                assert_eq!(
                    a.pattern_count(),
                    pp.total_patterns(),
                    "{}",
                    strategy.name()
                );
                assert_eq!(a.worker_count(), workers);
                // The owner map covers each pattern exactly once by
                // construction; check the per-worker views partition it.
                let mut seen: Vec<usize> = (0..workers).flat_map(|w| a.patterns_of(w)).collect();
                seen.sort_unstable();
                let expected: Vec<usize> = (0..pp.total_patterns()).collect();
                assert_eq!(
                    seen,
                    expected,
                    "{} with {} workers",
                    strategy.name(),
                    workers
                );
            }
        }
    }

    #[test]
    fn every_strategy_is_deterministic() {
        let (_, costs) = mixed_fixture();
        for strategy in all_strategies() {
            let a = strategy.assign(&costs, 3).unwrap();
            let b = strategy.assign(&costs, 3).unwrap();
            assert_eq!(a, b, "{} must be deterministic", strategy.name());
        }
    }

    #[test]
    fn every_strategy_rejects_degenerate_inputs() {
        let (_, costs) = mixed_fixture();
        for strategy in all_strategies() {
            assert_eq!(
                strategy.assign(&costs, 0).unwrap_err(),
                SchedError::NoWorkers,
                "{}",
                strategy.name()
            );
        }
        // Strategies without a prior reject empty workloads outright.
        let empty = PatternCosts::uniform(0);
        assert_eq!(
            Cyclic.assign(&empty, 2).unwrap_err(),
            SchedError::EmptyWorkload
        );
        assert_eq!(
            Block.assign(&empty, 2).unwrap_err(),
            SchedError::EmptyWorkload
        );
        assert_eq!(
            WeightedLpt.assign(&empty, 2).unwrap_err(),
            SchedError::EmptyWorkload
        );
    }

    #[test]
    fn cyclic_and_block_match_the_papers_owner_maps() {
        let (pp, costs) = mixed_fixture();
        let n = pp.total_patterns();
        for workers in [1usize, 2, 3, 5] {
            let cyclic = Cyclic.assign(&costs, workers).unwrap();
            for g in 0..n {
                assert_eq!(cyclic.worker_of(g), g % workers);
            }
            let block = Block.assign(&costs, workers).unwrap();
            let chunk = n.div_ceil(workers).max(1);
            for g in 0..n {
                assert_eq!(block.worker_of(g), (g / chunk).min(workers - 1));
            }
        }
    }

    #[test]
    fn weighted_lpt_beats_count_based_schemes_on_mixed_input() {
        let (_, costs) = mixed_fixture();
        for workers in [2usize, 3, 4] {
            let lpt = WeightedLpt.assign(&costs, workers).unwrap();
            let cyclic = Cyclic.assign(&costs, workers).unwrap();
            let block = Block.assign(&costs, workers).unwrap();
            assert!(
                lpt.max_cost() <= cyclic.max_cost() + 1e-9,
                "{workers} workers: LPT max {} vs cyclic max {}",
                lpt.max_cost(),
                cyclic.max_cost()
            );
            assert!(
                lpt.max_cost() < block.max_cost(),
                "{workers} workers: LPT max {} vs block max {}",
                lpt.max_cost(),
                block.max_cost()
            );
        }
    }

    #[test]
    fn lpt_is_near_perfect_on_uniform_costs() {
        let costs = PatternCosts::uniform(100);
        let a = WeightedLpt.assign(&costs, 8).unwrap();
        // 100 uniform patterns over 8 workers: 12 or 13 each.
        let counts = a.patterns_per_worker();
        assert!(counts.iter().all(|&c| c == 12 || c == 13), "{counts:?}");
    }

    #[test]
    fn speed_aware_lpt_with_equal_speeds_matches_weighted_lpt() {
        let (_, costs) = mixed_fixture();
        let speedy = SpeedAwareLpt::from_speeds(vec![2.0; 3]).unwrap();
        let a = speedy.assign(&costs, 3).unwrap();
        let lpt = WeightedLpt.assign(&costs, 3).unwrap();
        assert_eq!(a.owner(), lpt.owner());
    }

    #[test]
    fn speed_aware_lpt_starves_the_slow_worker() {
        // Worker 0 measured 4× slower: it must receive roughly a quarter of
        // the work the others get, so that all workers *finish* together.
        let costs = PatternCosts::uniform(90);
        let speedy = SpeedAwareLpt::from_speeds(vec![0.25, 1.0, 1.0]).unwrap();
        let a = speedy.assign(&costs, 3).unwrap();
        let counts = a.patterns_per_worker();
        assert!(
            counts[0] < counts[1] && counts[0] < counts[2],
            "slow worker must own the fewest patterns: {counts:?}"
        );
        // Completion times (count / speed) ought to be near-equal.
        let finish: Vec<f64> = counts
            .iter()
            .zip(speedy.speeds())
            .map(|(&c, &s)| c as f64 / s)
            .collect();
        let max = finish.iter().cloned().fold(0.0, f64::max);
        let min = finish.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(max / min < 1.2, "finish times {finish:?}");
    }

    #[test]
    fn speed_aware_lpt_from_trace_estimates_speeds() {
        let costs = PatternCosts::uniform(40);
        let prior = Cyclic.assign(&costs, 4).unwrap();
        let mut trace = WorkTrace::new(4);
        let mut region = RegionRecord::new(OpKind::Newview, 4);
        // Worker 0 took 4× the wall-clock of the others for the same share.
        region.seconds_per_worker = vec![4.0, 1.0, 1.0, 1.0];
        trace.regions.push(region);
        let speedy = SpeedAwareLpt::from_trace(&prior, &trace, TraceUnit::Seconds, &costs).unwrap();
        let s = speedy.speeds();
        assert!(s[0] < s[1] / 3.0, "speeds {s:?}");
        let a = speedy.assign(&costs, 4).unwrap();
        let counts = a.patterns_per_worker();
        assert!(counts[0] < counts[1], "{counts:?}");
    }

    #[test]
    fn speed_aware_lpt_validates_inputs() {
        assert_eq!(
            SpeedAwareLpt::from_speeds(vec![]).unwrap_err(),
            SchedError::NoWorkers
        );
        assert!(matches!(
            SpeedAwareLpt::from_speeds(vec![1.0, 0.0]).unwrap_err(),
            SchedError::InvalidSpeed { worker: 1, .. }
        ));
        assert!(matches!(
            SpeedAwareLpt::from_speeds(vec![f64::NAN]).unwrap_err(),
            SchedError::InvalidSpeed { worker: 0, .. }
        ));
        let speedy = SpeedAwareLpt::from_speeds(vec![1.0, 1.0]).unwrap();
        assert_eq!(
            speedy.assign(&PatternCosts::uniform(4), 3).unwrap_err(),
            SchedError::TraceWorkerMismatch {
                trace_workers: 2,
                assignment_workers: 3
            }
        );
    }
}
