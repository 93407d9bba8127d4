//! The explicit pattern→worker assignment a strategy produces.

use crate::cost::PatternCosts;
use crate::error::SchedError;

/// Imbalance of a per-worker cost vector: max over mean, `1.0` for perfect
/// balance (and, by convention, for an all-zero or empty vector). The shared
/// definition behind every predicted and measured imbalance in the workspace.
pub fn worker_imbalance(costs: &[f64]) -> f64 {
    if costs.is_empty() {
        return 1.0;
    }
    let mean = costs.iter().sum::<f64>() / costs.len() as f64;
    if mean == 0.0 {
        return 1.0;
    }
    costs.iter().cloned().fold(0.0, f64::max) / mean
}

/// A complete schedule: which worker owns each global pattern, plus the
/// per-worker predicted cost under the cost model the schedule was built with.
///
/// Under the barrier-per-region execution model a region's wall-clock time is
/// `max_w cost_w`, so [`Assignment::imbalance`] (max over mean) is the factor
/// by which the schedule is slower than a perfectly balanced one with the
/// same total work.
#[derive(Debug, Clone, PartialEq)]
pub struct Assignment {
    strategy: String,
    worker_count: usize,
    owner: Vec<usize>,
    predicted_cost: Vec<f64>,
}

impl Assignment {
    /// Validates and builds an assignment from an owner map (global pattern →
    /// worker), computing the per-worker predicted cost from `costs`.
    ///
    /// # Errors
    ///
    /// [`SchedError::NoWorkers`] for `worker_count == 0`,
    /// [`SchedError::EmptyWorkload`] for an empty owner map,
    /// [`SchedError::PatternCountMismatch`] if `owner` and `costs` disagree,
    /// [`SchedError::WorkerOutOfRange`] if an owner is `>= worker_count`.
    pub fn new(
        strategy: impl Into<String>,
        owner: Vec<usize>,
        worker_count: usize,
        costs: &PatternCosts,
    ) -> Result<Self, SchedError> {
        if worker_count == 0 {
            return Err(SchedError::NoWorkers);
        }
        if owner.is_empty() {
            return Err(SchedError::EmptyWorkload);
        }
        if owner.len() != costs.pattern_count() {
            return Err(SchedError::PatternCountMismatch {
                expected: costs.pattern_count(),
                got: owner.len(),
            });
        }
        let mut predicted_cost = vec![0.0; worker_count];
        for (g, &w) in owner.iter().enumerate() {
            if w >= worker_count {
                return Err(SchedError::WorkerOutOfRange {
                    pattern: g,
                    worker: w,
                    worker_count,
                });
            }
            predicted_cost[w] += costs.cost(g);
        }
        Ok(Self {
            strategy: strategy.into(),
            worker_count,
            owner,
            predicted_cost,
        })
    }

    /// Name of the strategy that produced this assignment (diagnostics).
    pub fn strategy(&self) -> &str {
        &self.strategy
    }

    /// Number of workers the patterns are distributed over.
    pub fn worker_count(&self) -> usize {
        self.worker_count
    }

    /// Number of patterns covered.
    pub fn pattern_count(&self) -> usize {
        self.owner.len()
    }

    /// The owner map: `owner()[g]` is the worker that owns global pattern `g`.
    pub fn owner(&self) -> &[usize] {
        &self.owner
    }

    /// Worker owning global pattern `g`.
    #[inline]
    pub fn worker_of(&self, g: usize) -> usize {
        self.owner[g]
    }

    /// Global pattern indices owned by `worker`, ascending.
    pub fn patterns_of(&self, worker: usize) -> Vec<usize> {
        self.owner
            .iter()
            .enumerate()
            .filter_map(|(g, &w)| (w == worker).then_some(g))
            .collect()
    }

    /// Number of patterns each worker owns.
    pub fn patterns_per_worker(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.worker_count];
        for &w in &self.owner {
            counts[w] += 1;
        }
        counts
    }

    /// Predicted cost per worker under the cost model the schedule was built
    /// with.
    pub fn predicted_cost(&self) -> &[f64] {
        &self.predicted_cost
    }

    /// The most loaded worker's predicted cost — the predicted critical path
    /// of one full-width parallel region.
    pub fn max_cost(&self) -> f64 {
        self.predicted_cost.iter().cloned().fold(0.0, f64::max)
    }

    /// Mean predicted cost per worker.
    pub fn mean_cost(&self) -> f64 {
        self.predicted_cost.iter().sum::<f64>() / self.worker_count as f64
    }

    /// Predicted imbalance: max over mean worker cost. `1.0` is perfect
    /// balance; `2.0` means the critical path is twice the average, i.e. half
    /// the machine idles.
    pub fn imbalance(&self) -> f64 {
        worker_imbalance(&self.predicted_cost)
    }

    /// Predicted parallel efficiency: mean over max worker cost, in `(0, 1]`
    /// (the reciprocal of [`Assignment::imbalance`]; same convention as
    /// `RegionRecord::balance` in the kernel's trace records).
    pub fn balance(&self) -> f64 {
        1.0 / self.imbalance()
    }

    /// Checks the partition-contiguity invariant: within every given
    /// partition (a range of global pattern indices), each worker's share is
    /// a single contiguous run (possibly empty). This is the invariant the
    /// mask-aware repack ([`crate::Rescheduler::consider`]) guarantees and the
    /// property tests verify.
    ///
    /// # Panics
    ///
    /// Panics if a range reaches outside `0..pattern_count()` — the ranges
    /// must describe the same dataset the assignment was built for.
    pub fn partition_contiguity(&self, partitions: &[std::ops::Range<usize>]) -> bool {
        for range in partitions {
            // A worker may open one run; once its run closes (another worker
            // takes over), seeing it again means a second run.
            let mut closed = vec![false; self.worker_count];
            let mut prev: Option<usize> = None;
            for g in range.clone() {
                let w = self.owner[g];
                if prev != Some(w) {
                    if closed[w] {
                        return false;
                    }
                    if let Some(p) = prev {
                        closed[p] = true;
                    }
                    prev = Some(w);
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_degenerate_inputs() {
        let costs = PatternCosts::uniform(4);
        assert_eq!(
            Assignment::new("x", vec![0, 1, 0, 1], 0, &costs),
            Err(SchedError::NoWorkers)
        );
        assert_eq!(
            Assignment::new("x", vec![], 2, &PatternCosts::uniform(0)),
            Err(SchedError::EmptyWorkload)
        );
        assert_eq!(
            Assignment::new("x", vec![0, 1], 2, &costs),
            Err(SchedError::PatternCountMismatch {
                expected: 4,
                got: 2
            })
        );
        assert_eq!(
            Assignment::new("x", vec![0, 1, 2, 0], 2, &costs),
            Err(SchedError::WorkerOutOfRange {
                pattern: 2,
                worker: 2,
                worker_count: 2
            })
        );
    }

    #[test]
    fn per_worker_costs_and_metrics() {
        let costs = PatternCosts::from_costs(vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let a = Assignment::new("manual", vec![0, 0, 1, 1], 2, &costs).unwrap();
        assert_eq!(a.predicted_cost(), &[3.0, 7.0]);
        assert_eq!(a.max_cost(), 7.0);
        assert_eq!(a.mean_cost(), 5.0);
        assert!((a.imbalance() - 1.4).abs() < 1e-12);
        assert!((a.balance() - 1.0 / 1.4).abs() < 1e-12);
        assert_eq!(a.patterns_of(1), vec![2, 3]);
        assert_eq!(a.patterns_per_worker(), vec![2, 2]);
        assert_eq!(a.worker_of(3), 1);
        assert_eq!(a.strategy(), "manual");
    }

    #[test]
    fn idle_workers_are_allowed_and_show_in_imbalance() {
        let costs = PatternCosts::uniform(2);
        let a = Assignment::new("skewed", vec![0, 0], 4, &costs).unwrap();
        assert_eq!(a.patterns_per_worker(), vec![2, 0, 0, 0]);
        assert_eq!(a.imbalance(), 4.0);
    }

    #[test]
    #[allow(clippy::single_range_in_vec_init)]
    fn partition_contiguity_detects_split_runs() {
        let costs = PatternCosts::uniform(6);
        let ranges = [0..3, 3..6];
        // Contiguous within each partition.
        let good = Assignment::new("x", vec![0, 0, 1, 1, 1, 0], 2, &costs).unwrap();
        assert!(good.partition_contiguity(&ranges));
        // Worker 0's share of partition 0 is {0, 2}: split.
        let bad = Assignment::new("x", vec![0, 1, 0, 1, 1, 1], 2, &costs).unwrap();
        assert!(!bad.partition_contiguity(&ranges));
        // Cyclic over one big partition: split for both workers.
        let cyclic = Assignment::new("x", vec![0, 1, 0, 1, 0, 1], 2, &costs).unwrap();
        assert!(!cyclic.partition_contiguity(&[(0..6)]));
        // ...but trivially contiguous when every partition is one pattern.
        assert!(cyclic.partition_contiguity(&[0..1, 1..2, 2..3, 3..4, 4..5, 5..6]));
    }
}
