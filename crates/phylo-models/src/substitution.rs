//! Concrete substitution models.
//!
//! DNA models are parameterized as special cases of the general
//! time-reversible (GTR) model; protein models use either the Poisson
//! (equal-rates) matrix or a deterministic synthetic "empirical-like" matrix
//! (see DESIGN.md: the paper's real protein datasets are replaced by synthetic
//! equivalents, and what matters for the load-balance study is only the 20×20
//! state space and its ≈25× higher per-column cost).

use phylo_data::DataType;
use phylo_math::matrix::SquareMatrix;

use crate::qmatrix::{build_rate_matrix, decompose, Eigensystem};

/// Number of GTR exchangeability parameters for DNA (upper triangle of 4×4).
pub const GTR_RATE_COUNT: usize = 6;

/// A reversible substitution model: exchangeabilities, stationary frequencies
/// and the cached eigendecomposition of the scaled rate matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct SubstitutionModel {
    data_type: DataType,
    exchangeabilities: Vec<f64>,
    frequencies: Vec<f64>,
    eigen: Eigensystem,
}

impl SubstitutionModel {
    /// Builds a model from raw exchangeabilities and frequencies.
    ///
    /// # Panics
    ///
    /// Panics if the parameter dimensions do not match the data type or the
    /// frequencies are not a probability distribution (see
    /// [`build_rate_matrix`]).
    pub fn from_parameters(
        data_type: DataType,
        exchangeabilities: Vec<f64>,
        frequencies: Vec<f64>,
    ) -> Self {
        assert_eq!(
            frequencies.len(),
            data_type.states(),
            "frequency count mismatch"
        );
        let q = build_rate_matrix(&exchangeabilities, &frequencies);
        let eigen = decompose(&q, &frequencies);
        Self {
            data_type,
            exchangeabilities,
            frequencies,
            eigen,
        }
    }

    /// Jukes–Cantor 1969: equal rates, equal frequencies.
    pub fn jc69() -> Self {
        let ex = default_exchangeabilities(DataType::Dna);
        Self::from_parameters(DataType::Dna, ex, vec![0.25; 4])
    }

    /// HKY85: transition/transversion ratio `kappa` with arbitrary base
    /// frequencies. Exchangeability order is AC, AG, AT, CG, CT, GT; the
    /// transitions are AG and CT.
    pub fn hky85(kappa: f64, frequencies: [f64; 4]) -> Self {
        assert!(kappa > 0.0, "kappa must be positive");
        let ex = vec![1.0, kappa, 1.0, 1.0, kappa, 1.0];
        Self::from_parameters(DataType::Dna, ex, frequencies.to_vec())
    }

    /// General time-reversible DNA model with six exchangeabilities
    /// (AC, AG, AT, CG, CT, GT) and four base frequencies.
    pub fn gtr(rates: [f64; GTR_RATE_COUNT], frequencies: [f64; 4]) -> Self {
        Self::from_parameters(DataType::Dna, rates.to_vec(), frequencies.to_vec())
    }

    /// Poisson protein model: all exchangeabilities equal, uniform amino-acid
    /// frequencies.
    pub fn poisson_protein() -> Self {
        let n = DataType::Protein.states();
        Self::from_parameters(
            DataType::Protein,
            vec![1.0; n * (n - 1) / 2],
            vec![1.0 / n as f64; n],
        )
    }

    /// A deterministic synthetic "empirical-like" protein model: heterogeneous
    /// exchangeabilities and non-uniform frequencies generated from a fixed
    /// linear-congruential sequence. This stands in for published empirical
    /// matrices (WAG/LG); the exact values are irrelevant to the load-balance
    /// study, only the 20-state dimensionality and the heterogeneity matter.
    pub fn synthetic_empirical_protein() -> Self {
        let (exch, freqs) = synthetic_protein_parameters();
        Self::from_parameters(DataType::Protein, exch, freqs)
    }

    /// Default model for a data type: JC69-like for DNA (all rates 1 but
    /// empirically estimated frequencies are usually plugged in later), the
    /// synthetic empirical matrix for protein data.
    pub fn default_for(data_type: DataType) -> Self {
        match data_type {
            DataType::Dna => Self::jc69(),
            DataType::Protein => Self::synthetic_empirical_protein(),
        }
    }

    /// The data type this model applies to.
    pub fn data_type(&self) -> DataType {
        self.data_type
    }

    /// Number of character states (4 or 20).
    pub fn states(&self) -> usize {
        self.data_type.states()
    }

    /// Stationary frequencies π.
    pub fn frequencies(&self) -> &[f64] {
        &self.frequencies
    }

    /// Exchangeability parameters (upper triangle, row-major).
    pub fn exchangeabilities(&self) -> &[f64] {
        &self.exchangeabilities
    }

    /// The cached eigendecomposition.
    pub fn eigen(&self) -> &Eigensystem {
        &self.eigen
    }

    /// Transition probability matrix for branch length `t` (in expected
    /// substitutions per site).
    pub fn transition_matrix(&self, t: f64) -> SquareMatrix {
        self.eigen.transition_matrix(t)
    }

    /// Returns a copy of the model with one exchangeability replaced and the
    /// eigensystem rebuilt. Used by the Brent optimization of the Q matrix;
    /// the last exchangeability (GT for DNA) is conventionally fixed to 1 as
    /// the reference rate, which callers enforce by never passing
    /// `index == GTR_RATE_COUNT - 1`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range or `value` is not positive.
    pub fn with_exchangeability(&self, index: usize, value: f64) -> Self {
        assert!(
            index < self.exchangeabilities.len(),
            "exchangeability index out of range"
        );
        assert!(
            value > 0.0 && value.is_finite(),
            "exchangeability must be positive"
        );
        let mut ex = self.exchangeabilities.clone();
        ex[index] = value;
        Self::from_parameters(self.data_type, ex, self.frequencies.clone())
    }

    /// Returns a copy of the model with new stationary frequencies and the
    /// eigensystem rebuilt (used when plugging in empirical frequencies).
    pub fn with_frequencies(&self, frequencies: Vec<f64>) -> Self {
        Self::from_parameters(self.data_type, self.exchangeabilities.clone(), frequencies)
    }
}

/// Exchangeabilities of [`SubstitutionModel::default_for`], without the
/// eigendecomposition — for callers that plug in their own frequencies.
pub(crate) fn default_exchangeabilities(data_type: DataType) -> Vec<f64> {
    match data_type {
        DataType::Dna => vec![1.0; GTR_RATE_COUNT],
        DataType::Protein => synthetic_protein_parameters().0,
    }
}

/// Exchangeabilities and frequencies of
/// [`SubstitutionModel::synthetic_empirical_protein`].
fn synthetic_protein_parameters() -> (Vec<f64>, Vec<f64>) {
    let n = DataType::Protein.states();
    let mut state = 0x2545F4914F6CDD1Du64;
    let mut next = || {
        // xorshift64*: deterministic, well-distributed pseudo-random values.
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        let v = state.wrapping_mul(0x2545F4914F6CDD1D);
        (v >> 11) as f64 / (1u64 << 53) as f64
    };
    // Exchangeabilities span roughly two orders of magnitude, like
    // empirical matrices do.
    let exch: Vec<f64> = (0..n * (n - 1) / 2)
        .map(|_| 0.05 + 4.0 * next() * next())
        .collect();
    let mut freqs: Vec<f64> = (0..n).map(|_| 0.2 + next()).collect();
    let sum: f64 = freqs.iter().sum();
    for f in &mut freqs {
        *f /= sum;
    }
    (exch, freqs)
}

/// Computes empirical state frequencies from pattern data, counting each
/// unambiguous character weighted by its pattern weight, with a pseudo-count
/// of 1 per state so no frequency is ever zero.
pub fn empirical_frequencies(partition: &phylo_data::CompressedPartition) -> Vec<f64> {
    let n_states = partition.data_type.states();
    let mut counts = vec![1.0f64; n_states];
    for p in 0..partition.pattern_count() {
        let w = partition.weights[p];
        for t in 0..partition.n_taxa {
            let state = partition.tip_state(p, t);
            if let Some(i) = partition.data_type.state_index(state) {
                counts[i] += w;
            }
        }
    }
    let total: f64 = counts.iter().sum();
    counts.into_iter().map(|c| c / total).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use phylo_math::approx_eq;

    #[test]
    fn jc69_transition_probabilities_match_analytic_formula() {
        // For JC69 with unit mean rate, P_same(t) = 1/4 + 3/4·exp(-4t/3),
        // P_diff(t) = 1/4 − 1/4·exp(-4t/3).
        let model = SubstitutionModel::jc69();
        for &t in &[0.05, 0.1, 0.5, 1.0, 2.0] {
            let p = model.transition_matrix(t);
            let same = 0.25 + 0.75 * (-4.0 * t / 3.0_f64).exp();
            let diff = 0.25 - 0.25 * (-4.0 * t / 3.0_f64).exp();
            for i in 0..4 {
                for j in 0..4 {
                    let expected = if i == j { same } else { diff };
                    assert!(
                        approx_eq(p[(i, j)], expected, 1e-9),
                        "t={t} P[{i}][{j}]={} expected {expected}",
                        p[(i, j)]
                    );
                }
            }
        }
    }

    #[test]
    fn hky85_reduces_to_jc_when_kappa_is_one() {
        let hky = SubstitutionModel::hky85(1.0, [0.25; 4]);
        let jc = SubstitutionModel::jc69();
        let p_hky = hky.transition_matrix(0.3);
        let p_jc = jc.transition_matrix(0.3);
        assert!(p_hky.max_abs_diff(&p_jc) < 1e-12);
    }

    #[test]
    fn hky85_transitions_exceed_transversions() {
        let model = SubstitutionModel::hky85(4.0, [0.25; 4]);
        let p = model.transition_matrix(0.1);
        // A→G (transition) more likely than A→C (transversion).
        assert!(p[(0, 2)] > p[(0, 1)]);
        // C→T (transition) more likely than C→G (transversion).
        assert!(p[(1, 3)] > p[(1, 2)]);
    }

    #[test]
    fn gtr_respects_supplied_frequencies() {
        let freqs = [0.4, 0.3, 0.2, 0.1];
        let model = SubstitutionModel::gtr([1.0, 2.0, 1.5, 0.7, 3.1, 1.0], freqs);
        let p = model.transition_matrix(300.0);
        for i in 0..4 {
            for j in 0..4 {
                assert!((p[(i, j)] - freqs[j]).abs() < 1e-7);
            }
        }
    }

    #[test]
    fn protein_models_have_twenty_states() {
        let poisson = SubstitutionModel::poisson_protein();
        assert_eq!(poisson.states(), 20);
        let emp = SubstitutionModel::synthetic_empirical_protein();
        assert_eq!(emp.states(), 20);
        let p = emp.transition_matrix(0.15);
        for i in 0..20 {
            let sum: f64 = (0..20).map(|j| p[(i, j)]).sum();
            assert!(approx_eq(sum, 1.0, 1e-9));
        }
    }

    #[test]
    fn synthetic_empirical_model_is_deterministic_and_heterogeneous() {
        let a = SubstitutionModel::synthetic_empirical_protein();
        let b = SubstitutionModel::synthetic_empirical_protein();
        assert_eq!(a, b);
        let min = a
            .exchangeabilities()
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min);
        let max = a.exchangeabilities().iter().cloned().fold(0.0f64, f64::max);
        assert!(max / min > 5.0, "exchangeabilities should be heterogeneous");
        // Frequencies differ from uniform.
        assert!(a.frequencies().iter().any(|&f| (f - 0.05).abs() > 0.005));
    }

    #[test]
    fn with_exchangeability_rebuilds_eigen() {
        let base = SubstitutionModel::jc69();
        let bumped = base.with_exchangeability(1, 4.0);
        assert!((bumped.exchangeabilities()[1] - 4.0).abs() < 1e-15);
        let p_base = base.transition_matrix(0.2);
        let p_bumped = bumped.transition_matrix(0.2);
        assert!(
            p_base.max_abs_diff(&p_bumped) > 1e-4,
            "transition matrix must change"
        );
        // Rows still sum to one.
        for i in 0..4 {
            let sum: f64 = (0..4).map(|j| p_bumped[(i, j)]).sum();
            assert!(approx_eq(sum, 1.0, 1e-10));
        }
    }

    #[test]
    fn empirical_frequencies_reflect_composition() {
        use phylo_data::{Alignment, PartitionSet, PartitionedPatterns};
        let aln = Alignment::new(vec![
            ("t1".into(), "AAAAAAAC".into()),
            ("t2".into(), "AAAAAAAC".into()),
            ("t3".into(), "AAAAAAGC".into()),
        ])
        .unwrap();
        let pp = PartitionedPatterns::compile(&aln, &PartitionSet::unpartitioned(DataType::Dna, 8))
            .unwrap();
        let freqs = empirical_frequencies(&pp.partitions[0]);
        assert_eq!(freqs.len(), 4);
        assert!((freqs.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        // A must dominate, T must be rare (only pseudo-count).
        assert!(freqs[0] > 0.7);
        assert!(freqs[3] < 0.1);
    }

    #[test]
    fn default_for_matches_data_type() {
        assert_eq!(SubstitutionModel::default_for(DataType::Dna).states(), 4);
        assert_eq!(
            SubstitutionModel::default_for(DataType::Protein).states(),
            20
        );
    }

    #[test]
    #[should_panic]
    fn with_exchangeability_rejects_nonpositive() {
        SubstitutionModel::jc69().with_exchangeability(0, 0.0);
    }
}
