//! Per-pattern cost vectors.
//!
//! A scheduling strategy only needs one thing from the workload: how expensive
//! each global pattern is relative to the others. [`PatternCosts::analytic`]
//! derives that from the kernel's analytic cost model — `newview` dominates
//! every likelihood workload (it is the only primitive executed once per
//! traversal node rather than once per region), so its per-pattern FLOP count
//! is the natural weight. The absolute scale cancels in every balance metric;
//! only the ratios matter, and those are exactly the paper's argument: a
//! 20-state protein pattern weighs 21× a 4-state DNA pattern (the paper's
//! "≈25×", less what tip lookups save).

use crate::error::SchedError;
use phylo_data::{CompressedPartition, PartitionedPatterns};
use phylo_kernel::cost::newview_flops_tabled;

/// The scheduler's view of a workload: one relative cost per global pattern.
#[derive(Debug, Clone, PartialEq)]
pub struct PatternCosts {
    costs: Vec<f64>,
}

impl PatternCosts {
    /// Costs that are uniform within each partition: `per_pattern(pi, part)`
    /// is the weight of every pattern of partition `pi`, concatenated in the
    /// dataset's compile order — the one place that encodes the
    /// "global pattern index = partitions concatenated" invariant every
    /// [`crate::Assignment`] relies on.
    ///
    /// # Errors
    ///
    /// [`SchedError::InvalidCost`] if a produced weight is NaN, negative or
    /// infinite.
    pub fn per_partition<F>(
        patterns: &PartitionedPatterns,
        per_pattern: F,
    ) -> Result<Self, SchedError>
    where
        F: Fn(usize, &CompressedPartition) -> f64,
    {
        let mut costs = Vec::with_capacity(patterns.total_patterns());
        for (pi, part) in patterns.partitions.iter().enumerate() {
            let value = per_pattern(pi, part);
            if !value.is_finite() || value < 0.0 {
                return Err(SchedError::InvalidCost {
                    pattern: costs.len(),
                    value,
                });
            }
            costs.extend(std::iter::repeat_n(value, part.pattern_count()));
        }
        Ok(Self { costs })
    }

    /// Analytic costs: pattern `g` of a partition with `s` states and `c`
    /// rate categories weighs `phylo_kernel::cost::newview_flops_tabled(s,
    /// c)`, so the protein/DNA ratio is 21. It is also the unit
    /// `TracingExecutor` records, which makes predicted and virtual-trace
    /// costs directly comparable. Which inner loop the engine runs does not
    /// enter: over many equal items LPT alternates each data type across the
    /// workers, so the ratio only decides the remainder.
    ///
    /// `categories` gives the number of Γ rate categories per partition (same
    /// order as the dataset's partitions).
    ///
    /// # Panics
    ///
    /// Panics if `categories.len()` differs from the partition count.
    pub fn analytic(patterns: &PartitionedPatterns, categories: &[usize]) -> Self {
        assert_eq!(
            categories.len(),
            patterns.partition_count(),
            "one category count per partition required"
        );
        Self::per_partition(patterns, |pi, part| {
            newview_flops_tabled(part.states(), categories[pi])
        })
        .expect("analytic flops are finite and non-negative")
    }

    /// [`PatternCosts::analytic`] under its former name, kept only because
    /// the standalone `benchmark/` crate imports it; it goes with that
    /// crate's next change.
    ///
    /// # Panics
    ///
    /// Panics if `categories.len()` differs from the partition count.
    pub fn analytic_tabled(patterns: &PartitionedPatterns, categories: &[usize]) -> Self {
        Self::analytic(patterns, categories)
    }

    /// Uniform costs (every pattern weighs 1): what the paper's original
    /// count-based schemes implicitly assume.
    pub fn uniform(pattern_count: usize) -> Self {
        Self {
            costs: vec![1.0; pattern_count],
        }
    }

    /// Explicit per-pattern costs (a measured or hand-built cost vector).
    ///
    /// # Errors
    ///
    /// [`SchedError::InvalidCost`] if any cost is NaN, infinite or negative.
    /// (Such costs used to be accepted and then made the greedy pack order
    /// of the LPT strategies effectively arbitrary — comparisons with NaN
    /// are unordered.)
    pub fn from_costs(costs: Vec<f64>) -> Result<Self, SchedError> {
        for (pattern, &value) in costs.iter().enumerate() {
            if !value.is_finite() || value < 0.0 {
                return Err(SchedError::InvalidCost { pattern, value });
            }
        }
        Ok(Self { costs })
    }

    /// Number of patterns in the workload.
    pub fn pattern_count(&self) -> usize {
        self.costs.len()
    }

    /// Cost of global pattern `g`.
    #[inline]
    pub fn cost(&self, g: usize) -> f64 {
        self.costs[g]
    }

    /// All costs, indexed by global pattern.
    pub fn as_slice(&self) -> &[f64] {
        &self.costs
    }

    /// Sum of all pattern costs.
    pub fn total(&self) -> f64 {
        self.costs.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phylo_data::{Alignment, DataType, Partition, PartitionSet, PartitionedPatterns};

    fn mixed_patterns() -> PartitionedPatterns {
        // DNA characters are valid amino-acid codes, so one alignment can
        // carry both partition types.
        let aln = Alignment::new(vec![
            ("t1".into(), "ACGTACGTACGTACGT".into()),
            ("t2".into(), "ACGAACGAACGAACGA".into()),
            ("t3".into(), "ACCTACGAACCTACGA".into()),
        ])
        .unwrap();
        let ps = PartitionSet::new(vec![
            Partition::contiguous("dna", DataType::Dna, 0..8),
            Partition::contiguous("prot", DataType::Protein, 8..16),
        ])
        .unwrap();
        PartitionedPatterns::compile(&aln, &ps).unwrap()
    }

    #[test]
    fn analytic_costs_weigh_protein_about_25x_dna() {
        let pp = mixed_patterns();
        let costs = PatternCosts::analytic(&pp, &[4, 4]);
        assert_eq!(costs.pattern_count(), pp.total_patterns());
        let dna = costs.cost(0);
        let protein = costs.cost(pp.global_offset(1));
        let ratio = protein / dna;
        assert!(
            (20.0..30.0).contains(&ratio),
            "protein/DNA ratio {ratio} should be ≈25"
        );
    }

    #[test]
    fn tabled_costs_recalibrate_the_protein_dna_ratio() {
        let pp = mixed_patterns();
        let costs = PatternCosts::analytic(&pp, &[4, 4]);
        assert_eq!(costs.pattern_count(), pp.total_patterns());
        let dna = costs.cost(0);
        let protein = costs.cost(pp.global_offset(1));
        let ratio = protein / dna;
        // Tip lookups flatten the per-state gap: exactly
        // (2·20+2)/(2·4+2) · 5 = 21 under the tabled model.
        assert!(
            (ratio - 21.0).abs() < 1e-12,
            "tabled protein/DNA ratio {ratio} should be 21"
        );
    }

    #[test]
    fn analytic_costs_scale_with_categories() {
        let pp = mixed_patterns();
        let four = PatternCosts::analytic(&pp, &[4, 4]);
        let eight = PatternCosts::analytic(&pp, &[8, 4]);
        assert!((eight.cost(0) / four.cost(0) - 2.0).abs() < 1e-12);
        // Protein partition categories unchanged.
        let g = pp.global_offset(1);
        assert_eq!(four.cost(g), eight.cost(g));
    }

    #[test]
    fn uniform_costs_are_flat() {
        let costs = PatternCosts::uniform(5);
        assert_eq!(costs.pattern_count(), 5);
        assert_eq!(costs.total(), 5.0);
        assert!(costs.as_slice().iter().all(|&c| c == 1.0));
    }

    #[test]
    fn from_costs_rejects_nan_negative_and_infinite() {
        assert!(matches!(
            PatternCosts::from_costs(vec![1.0, f64::NAN]),
            Err(SchedError::InvalidCost { pattern: 1, .. })
        ));
        assert!(matches!(
            PatternCosts::from_costs(vec![-0.5]),
            Err(SchedError::InvalidCost {
                pattern: 0,
                value: v
            }) if v == -0.5
        ));
        assert!(matches!(
            PatternCosts::from_costs(vec![f64::INFINITY, 1.0]),
            Err(SchedError::InvalidCost { pattern: 0, .. })
        ));
        // Zero is a legal cost (an all-gap pattern has no work).
        let ok = PatternCosts::from_costs(vec![0.0, 2.0]).unwrap();
        assert_eq!(ok.total(), 2.0);
    }
}
