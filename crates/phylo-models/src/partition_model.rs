//! Per-partition model parameter bundles.
//!
//! A partitioned analysis estimates a separate set of model parameters for
//! every partition (Figure 2 of the paper): the Q matrix, the Γ shape
//! parameter α, and — depending on the branch-length mode — its own branch
//! lengths. [`PartitionModel`] bundles the per-partition parameters;
//! [`ModelSet`] is the whole-dataset collection aligned index-for-index with
//! the partitions of a `PartitionedPatterns`.

use phylo_data::{DataType, PartitionedPatterns};
use phylo_math::gamma_rates::{discrete_gamma_rates, DEFAULT_CATEGORIES, MAX_ALPHA, MIN_ALPHA};

use crate::substitution::{empirical_frequencies, SubstitutionModel};

/// How branch lengths are shared between partitions.
///
/// The paper argues for per-partition estimates (they enable the fast
/// gappy-alignment algorithm of reference \[32\]) and shows that this is exactly
/// the case where the old parallelization's load imbalance hurts most.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BranchLengthMode {
    /// One shared branch-length vector across all partitions.
    Joint,
    /// An independent branch-length vector per partition.
    PerPartition,
}

/// The model parameters of a single partition.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionModel {
    substitution: SubstitutionModel,
    alpha: f64,
    gamma_rates: Vec<f64>,
}

impl PartitionModel {
    /// Creates a partition model with the given substitution model, Γ shape
    /// `alpha` and number of discrete Γ categories.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `[MIN_ALPHA, MAX_ALPHA]` or
    /// `categories == 0`.
    pub fn new(substitution: SubstitutionModel, alpha: f64, categories: usize) -> Self {
        assert!(
            (MIN_ALPHA..=MAX_ALPHA).contains(&alpha),
            "alpha {alpha} outside supported range"
        );
        let gamma_rates = discrete_gamma_rates(alpha, categories);
        Self {
            substitution,
            alpha,
            gamma_rates,
        }
    }

    /// Default model for a data type: 4 Γ categories, α = 1.
    pub fn default_for(data_type: DataType) -> Self {
        Self::new(
            SubstitutionModel::default_for(data_type),
            1.0,
            DEFAULT_CATEGORIES,
        )
    }

    /// The substitution model.
    pub fn substitution(&self) -> &SubstitutionModel {
        &self.substitution
    }

    /// Replaces the substitution model (e.g. after a Brent update of a rate).
    pub fn set_substitution(&mut self, substitution: SubstitutionModel) {
        self.substitution = substitution;
    }

    /// Current Γ shape parameter α.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Sets α and recomputes the category rates.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside the supported range.
    pub fn set_alpha(&mut self, alpha: f64) {
        assert!(
            (MIN_ALPHA..=MAX_ALPHA).contains(&alpha),
            "alpha {alpha} outside supported range"
        );
        self.alpha = alpha;
        self.gamma_rates = discrete_gamma_rates(alpha, self.gamma_rates.len());
    }

    /// The discrete Γ category rates (mean 1).
    pub fn gamma_rates(&self) -> &[f64] {
        &self.gamma_rates
    }

    /// Number of Γ rate categories.
    pub fn categories(&self) -> usize {
        self.gamma_rates.len()
    }

    /// Number of character states (4 or 20).
    pub fn states(&self) -> usize {
        self.substitution.states()
    }

    /// Data type of the partition.
    pub fn data_type(&self) -> DataType {
        self.substitution.data_type()
    }
}

/// The per-partition models of a whole dataset plus the branch-length mode.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelSet {
    models: Vec<PartitionModel>,
    branch_mode: BranchLengthMode,
}

impl ModelSet {
    /// Builds a model set with one default model per partition of `patterns`,
    /// using empirical state frequencies estimated from the data.
    pub fn default_for(patterns: &PartitionedPatterns, branch_mode: BranchLengthMode) -> Self {
        Self::with_categories(patterns, branch_mode, DEFAULT_CATEGORIES)
    }

    /// Like [`ModelSet::default_for`] but with an explicit number of Γ rate
    /// categories (1 disables rate heterogeneity).
    pub fn with_categories(
        patterns: &PartitionedPatterns,
        branch_mode: BranchLengthMode,
        categories: usize,
    ) -> Self {
        let models = patterns
            .partitions
            .iter()
            .map(|p| {
                let base = SubstitutionModel::default_for(p.data_type);
                let freqs = empirical_frequencies(p);
                let substitution = base.with_frequencies(freqs);
                PartitionModel::new(substitution, 1.0, categories)
            })
            .collect();
        Self {
            models,
            branch_mode,
        }
    }

    /// Builds a model set from explicit per-partition models.
    ///
    /// # Panics
    ///
    /// Panics if `models` is empty.
    pub fn from_models(models: Vec<PartitionModel>, branch_mode: BranchLengthMode) -> Self {
        assert!(
            !models.is_empty(),
            "a model set needs at least one partition model"
        );
        Self {
            models,
            branch_mode,
        }
    }

    /// The per-partition models.
    pub fn models(&self) -> &[PartitionModel] {
        &self.models
    }

    /// Mutable access to the per-partition models (used by the optimizers).
    pub fn models_mut(&mut self) -> &mut [PartitionModel] {
        &mut self.models
    }

    /// Model of partition `i`.
    pub fn model(&self, i: usize) -> &PartitionModel {
        &self.models[i]
    }

    /// Mutable model of partition `i`.
    pub fn model_mut(&mut self, i: usize) -> &mut PartitionModel {
        &mut self.models[i]
    }

    /// Number of partitions.
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// Whether the set is empty (never true for a constructed set).
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }

    /// The branch-length sharing mode.
    pub fn branch_mode(&self) -> BranchLengthMode {
        self.branch_mode
    }

    /// Changes the branch-length sharing mode.
    pub fn set_branch_mode(&mut self, mode: BranchLengthMode) {
        self.branch_mode = mode;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phylo_data::{Alignment, PartitionSet};

    fn toy_patterns(partition_len: usize) -> PartitionedPatterns {
        let aln = Alignment::new(vec![
            ("t1".into(), "ACGTACGTACGTACGT".into()),
            ("t2".into(), "ACGTACGAACGTACGA".into()),
            ("t3".into(), "ACCTACGAACCTACGA".into()),
        ])
        .unwrap();
        let ps = PartitionSet::equal_length(DataType::Dna, 16, partition_len);
        PartitionedPatterns::compile(&aln, &ps).unwrap()
    }

    #[test]
    fn partition_model_gamma_rates_track_alpha() {
        let mut m = PartitionModel::default_for(DataType::Dna);
        assert_eq!(m.categories(), DEFAULT_CATEGORIES);
        let before = m.gamma_rates().to_vec();
        m.set_alpha(0.2);
        assert!((m.alpha() - 0.2).abs() < 1e-15);
        assert_ne!(before, m.gamma_rates());
        let mean: f64 = m.gamma_rates().iter().sum::<f64>() / m.categories() as f64;
        assert!((mean - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn alpha_out_of_range_is_rejected() {
        let mut m = PartitionModel::default_for(DataType::Dna);
        m.set_alpha(0.0);
    }

    #[test]
    fn model_set_has_one_model_per_partition() {
        let pp = toy_patterns(4);
        let ms = ModelSet::default_for(&pp, BranchLengthMode::PerPartition);
        assert_eq!(ms.len(), pp.partition_count());
        assert_eq!(ms.branch_mode(), BranchLengthMode::PerPartition);
        for m in ms.models() {
            assert_eq!(m.states(), 4);
            assert_eq!(m.categories(), DEFAULT_CATEGORIES);
        }
    }

    #[test]
    fn model_set_uses_empirical_frequencies() {
        let pp = toy_patterns(16);
        let ms = ModelSet::default_for(&pp, BranchLengthMode::Joint);
        let freqs = ms.model(0).substitution().frequencies();
        assert!((freqs.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        // The toy alignment is A/C-rich compared to uniform.
        assert!(freqs[0] > 0.2);
    }

    #[test]
    fn with_categories_controls_rate_heterogeneity() {
        let pp = toy_patterns(8);
        let ms = ModelSet::with_categories(&pp, BranchLengthMode::Joint, 1);
        assert_eq!(ms.model(0).categories(), 1);
        assert_eq!(ms.model(0).gamma_rates(), &[1.0]);
    }

    #[test]
    fn protein_partition_gets_protein_model() {
        let aln = Alignment::new(vec![
            ("t1".into(), "ARNDCQEGHI".into()),
            ("t2".into(), "ARNDCQEGHL".into()),
            ("t3".into(), "ARNDCREGHL".into()),
        ])
        .unwrap();
        let ps = PartitionSet::unpartitioned(DataType::Protein, 10);
        let pp = PartitionedPatterns::compile(&aln, &ps).unwrap();
        let ms = ModelSet::default_for(&pp, BranchLengthMode::PerPartition);
        assert_eq!(ms.model(0).states(), 20);
    }

    #[test]
    fn set_branch_mode() {
        let pp = toy_patterns(8);
        let mut ms = ModelSet::default_for(&pp, BranchLengthMode::Joint);
        ms.set_branch_mode(BranchLengthMode::PerPartition);
        assert_eq!(ms.branch_mode(), BranchLengthMode::PerPartition);
    }
}
