//! Reversible rate matrices and their eigendecomposition.
//!
//! A general time-reversible (GTR-class) model is defined by a symmetric
//! matrix of exchangeabilities `s_ij` and stationary frequencies `π_i`. The
//! instantaneous rate matrix is `Q_ij = s_ij · π_j` (i ≠ j) with the diagonal
//! chosen so rows sum to zero, scaled such that the expected number of
//! substitutions per unit time is one. Because the model is reversible, `Q`
//! can be symmetrized with `D = diag(π)`:
//!
//! ```text
//! B = D^{1/2} · Q · D^{-1/2}    (symmetric)
//! B = V Λ Vᵀ                    (Jacobi eigendecomposition)
//! Q = U Λ U⁻¹,  U = D^{-1/2} V,  U⁻¹ = Vᵀ D^{1/2}
//! P(t) = U e^{Λt} U⁻¹
//! ```
//!
//! The matrix `W = D^{1/2} V` is also stored: the likelihood across the root
//! branch can be written `Σ_k (Wᵀl)_k (Wᵀr)_k e^{λ_k t}`, which is what the
//! branch-length derivative computation (the `makenewz` sum table) uses.

use phylo_math::eigen::symmetric_eigen;
use phylo_math::matrix::SquareMatrix;

/// Eigendecomposition of a scaled reversible rate matrix, with all the derived
/// matrices the kernel needs.
#[derive(Debug, Clone, PartialEq)]
pub struct Eigensystem {
    /// Eigenvalues λ of the rate matrix (all ≤ 0, one equal to 0).
    pub values: Vec<f64>,
    /// `U = D^{-1/2} V`: right eigenvectors of `Q` as columns.
    pub u: SquareMatrix,
    /// `U⁻¹ = Vᵀ D^{1/2}`.
    pub u_inv: SquareMatrix,
    /// `W = D^{1/2} V`: the basis used by the root-likelihood sum table.
    pub w: SquareMatrix,
}

/// Builds the scaled rate matrix `Q` from exchangeabilities (upper triangle,
/// row-major: `s_01, s_02, …, s_0n, s_12, …`) and stationary frequencies.
///
/// The result has rows summing to zero and is scaled so that
/// `-Σ_i π_i Q_ii = 1` (one expected substitution per unit time).
///
/// # Panics
///
/// Panics if the number of exchangeabilities does not match
/// `n·(n−1)/2`, if any value is negative, or if the frequencies do not form a
/// probability distribution.
pub fn build_rate_matrix(exchangeabilities: &[f64], frequencies: &[f64]) -> SquareMatrix {
    let n = frequencies.len();
    assert!(n >= 2, "need at least two states");
    assert_eq!(
        exchangeabilities.len(),
        n * (n - 1) / 2,
        "expected {} exchangeabilities for {n} states",
        n * (n - 1) / 2
    );
    assert!(
        exchangeabilities.iter().all(|&s| s >= 0.0),
        "exchangeabilities must be non-negative"
    );
    let freq_sum: f64 = frequencies.iter().sum();
    assert!(
        (freq_sum - 1.0).abs() < 1e-6 && frequencies.iter().all(|&f| f > 0.0),
        "frequencies must be positive and sum to 1 (sum = {freq_sum})"
    );

    let mut q = SquareMatrix::zeros(n);
    let mut idx = 0;
    for i in 0..n {
        for j in (i + 1)..n {
            let s = exchangeabilities[idx];
            idx += 1;
            q[(i, j)] = s * frequencies[j];
            q[(j, i)] = s * frequencies[i];
        }
    }
    // Diagonal: rows sum to zero.
    for i in 0..n {
        let row_sum: f64 = (0..n).filter(|&j| j != i).map(|j| q[(i, j)]).sum();
        q[(i, i)] = -row_sum;
    }
    // Scale to one expected substitution per unit time.
    let mu: f64 = -(0..n).map(|i| frequencies[i] * q[(i, i)]).sum::<f64>();
    assert!(mu > 0.0, "degenerate rate matrix (zero total rate)");
    for v in q.as_mut_slice() {
        *v /= mu;
    }
    q
}

/// Eigendecomposes a scaled reversible rate matrix built by
/// [`build_rate_matrix`] with the same frequencies.
pub fn decompose(q: &SquareMatrix, frequencies: &[f64]) -> Eigensystem {
    let n = frequencies.len();
    assert_eq!(q.dim(), n);
    let sqrt_pi: Vec<f64> = frequencies.iter().map(|&f| f.sqrt()).collect();

    // B = D^{1/2} Q D^{-1/2}
    let mut b = SquareMatrix::zeros(n);
    for i in 0..n {
        for j in 0..n {
            b[(i, j)] = sqrt_pi[i] * q[(i, j)] / sqrt_pi[j];
        }
    }
    // Enforce exact symmetry (numerical noise would trip the eigensolver).
    for i in 0..n {
        for j in (i + 1)..n {
            let avg = 0.5 * (b[(i, j)] + b[(j, i)]);
            b[(i, j)] = avg;
            b[(j, i)] = avg;
        }
    }
    let eig = symmetric_eigen(&b);

    let mut u = SquareMatrix::zeros(n);
    let mut u_inv = SquareMatrix::zeros(n);
    let mut w = SquareMatrix::zeros(n);
    for i in 0..n {
        for k in 0..n {
            u[(i, k)] = eig.vectors[(i, k)] / sqrt_pi[i];
            w[(i, k)] = eig.vectors[(i, k)] * sqrt_pi[i];
            // U⁻¹[k][i] = V[i][k] * sqrt_pi[i]
            u_inv[(k, i)] = eig.vectors[(i, k)] * sqrt_pi[i];
        }
    }
    Eigensystem {
        values: eig.values,
        u,
        u_inv,
        w,
    }
}

impl Eigensystem {
    /// Number of states.
    pub fn states(&self) -> usize {
        self.values.len()
    }

    /// Transition probability matrix `P(t) = U e^{Λt} U⁻¹`.
    ///
    /// Tiny negative entries arising from round-off are clamped to zero.
    pub fn transition_matrix(&self, t: f64) -> SquareMatrix {
        let n = self.states();
        let exp_lambda: Vec<f64> = self.values.iter().map(|&l| (l * t).exp()).collect();
        let mut p = SquareMatrix::zeros(n);
        for i in 0..n {
            for j in 0..n {
                let mut acc = 0.0;
                for (k, &el) in exp_lambda.iter().enumerate() {
                    acc += self.u[(i, k)] * el * self.u_inv[(k, j)];
                }
                p[(i, j)] = if acc < 0.0 && acc > -1e-12 { 0.0 } else { acc };
            }
        }
        p
    }

    /// Writes `P(t)` into a caller-provided row-major buffer of length
    /// `states²` — the table-construction kernel behind every shared branch
    /// table, specialised per state width (4, 20, any other) so the
    /// eigen-exponentials and the row accumulators live on the stack.
    ///
    /// Every entry is **bit-identical** to [`Self::transition_matrix`]: the
    /// product `u[i][k] · e^{λ_k t}` is formed first and hoisted out of the
    /// `j` loop, and each `(i, j)` still accumulates its terms over `k` in
    /// ascending order from `0.0` before the same round-off clamp. Only the
    /// loop nest differs (`k` outer, `j` inner over contiguous `u_inv` rows,
    /// which vectorises across `j` without re-associating any sum).
    pub fn transition_matrix_into(&self, t: f64, out: &mut [f64]) {
        let n = self.states();
        assert_eq!(out.len(), n * n);
        match n {
            4 => self.transition_rows(t, &mut [0.0; 4], &mut [0.0; 4], out),
            20 => self.transition_rows(t, &mut [0.0; 20], &mut [0.0; 20], out),
            _ => self.transition_rows(t, &mut vec![0.0; n], &mut vec![0.0; n], out),
        }
    }

    /// The one loop nest of [`Self::transition_matrix_into`]; `exp_lambda`
    /// and `acc` are `states`-long scratch whose length the width-specialised
    /// callers fix at compile time. (Accumulating a row in `out` instead of
    /// `acc` keeps it in memory, not registers: 3× slower at 20 states.)
    #[inline(always)]
    fn transition_rows(&self, t: f64, exp_lambda: &mut [f64], acc: &mut [f64], out: &mut [f64]) {
        let n = exp_lambda.len();
        for (e, &lambda) in exp_lambda.iter_mut().zip(&self.values) {
            *e = (lambda * t).exp();
        }
        let u_rows = self.u.as_slice().chunks_exact(n);
        for (u_row, out_row) in u_rows.zip(out.chunks_exact_mut(n)) {
            acc.fill(0.0);
            let terms = u_row.iter().zip(exp_lambda.iter());
            for ((&u_ik, &el), inv_row) in terms.zip(self.u_inv.as_slice().chunks_exact(n)) {
                let scaled = u_ik * el;
                for (a, &inv_kj) in acc.iter_mut().zip(inv_row) {
                    *a += scaled * inv_kj;
                }
            }
            for (o, &a) in out_row.iter_mut().zip(acc.iter()) {
                *o = if a < 0.0 && a > -1e-12 { 0.0 } else { a };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phylo_math::approx_eq;

    fn gtr_example() -> (Vec<f64>, Vec<f64>) {
        (
            vec![1.2, 2.5, 0.8, 1.1, 3.0, 1.0],
            vec![0.3, 0.2, 0.25, 0.25],
        )
    }

    #[test]
    fn rate_matrix_rows_sum_to_zero() {
        let (ex, fr) = gtr_example();
        let q = build_rate_matrix(&ex, &fr);
        for i in 0..4 {
            let sum: f64 = (0..4).map(|j| q[(i, j)]).sum();
            assert!(approx_eq(sum, 0.0, 1e-12), "row {i} sums to {sum}");
        }
    }

    #[test]
    fn rate_matrix_is_scaled_to_unit_rate() {
        let (ex, fr) = gtr_example();
        let q = build_rate_matrix(&ex, &fr);
        let mu: f64 = -(0..4).map(|i| fr[i] * q[(i, i)]).sum::<f64>();
        assert!(approx_eq(mu, 1.0, 1e-12));
    }

    #[test]
    fn stationarity_pi_q_is_zero() {
        let (ex, fr) = gtr_example();
        let q = build_rate_matrix(&ex, &fr);
        for j in 0..4 {
            let v: f64 = (0..4).map(|i| fr[i] * q[(i, j)]).sum();
            assert!(approx_eq(v, 0.0, 1e-12), "column {j}: {v}");
        }
    }

    #[test]
    fn transition_matrix_at_zero_is_identity() {
        let (ex, fr) = gtr_example();
        let q = build_rate_matrix(&ex, &fr);
        let eig = decompose(&q, &fr);
        let p0 = eig.transition_matrix(0.0);
        let id = SquareMatrix::identity(4);
        assert!(p0.max_abs_diff(&id) < 1e-10);
    }

    #[test]
    fn transition_matrix_rows_are_distributions() {
        let (ex, fr) = gtr_example();
        let q = build_rate_matrix(&ex, &fr);
        let eig = decompose(&q, &fr);
        for &t in &[0.01, 0.1, 0.5, 1.0, 5.0] {
            let p = eig.transition_matrix(t);
            for i in 0..4 {
                let sum: f64 = (0..4).map(|j| p[(i, j)]).sum();
                assert!(approx_eq(sum, 1.0, 1e-10), "t={t} row {i} sums to {sum}");
                for j in 0..4 {
                    assert!(p[(i, j)] >= 0.0, "negative probability at t={t}");
                }
            }
        }
    }

    #[test]
    fn chapman_kolmogorov() {
        // P(t + s) = P(t) P(s)
        let (ex, fr) = gtr_example();
        let q = build_rate_matrix(&ex, &fr);
        let eig = decompose(&q, &fr);
        let p_a = eig.transition_matrix(0.3);
        let p_b = eig.transition_matrix(0.7);
        let p_ab = eig.transition_matrix(1.0);
        assert!(p_a.matmul(&p_b).max_abs_diff(&p_ab) < 1e-10);
    }

    #[test]
    fn detailed_balance() {
        // π_i P_ij(t) = π_j P_ji(t) for reversible models.
        let (ex, fr) = gtr_example();
        let q = build_rate_matrix(&ex, &fr);
        let eig = decompose(&q, &fr);
        let p = eig.transition_matrix(0.42);
        for i in 0..4 {
            for j in 0..4 {
                assert!(approx_eq(fr[i] * p[(i, j)], fr[j] * p[(j, i)], 1e-10));
            }
        }
    }

    #[test]
    fn long_time_limit_is_stationary_distribution() {
        let (ex, fr) = gtr_example();
        let q = build_rate_matrix(&ex, &fr);
        let eig = decompose(&q, &fr);
        let p = eig.transition_matrix(500.0);
        for i in 0..4 {
            for j in 0..4 {
                assert!(
                    (p[(i, j)] - fr[j]).abs() < 1e-8,
                    "P[{i}][{j}] = {}",
                    p[(i, j)]
                );
            }
        }
    }

    #[test]
    fn eigenvalues_nonpositive_with_one_zero() {
        let (ex, fr) = gtr_example();
        let q = build_rate_matrix(&ex, &fr);
        let eig = decompose(&q, &fr);
        let zero_count = eig.values.iter().filter(|&&l| l.abs() < 1e-9).count();
        assert_eq!(zero_count, 1);
        assert!(eig.values.iter().all(|&l| l < 1e-9));
    }

    #[test]
    fn transition_matrix_into_matches_allocating_version() {
        let (ex, fr) = gtr_example();
        let q = build_rate_matrix(&ex, &fr);
        let eig = decompose(&q, &fr);
        let p = eig.transition_matrix(0.37);
        let mut buf = vec![0.0; 16];
        eig.transition_matrix_into(0.37, &mut buf);
        for (a, b) in p.as_slice().iter().zip(buf.iter()) {
            assert!(approx_eq(*a, *b, 1e-15));
        }
    }

    #[test]
    fn twenty_state_model_works() {
        let n = 20;
        let exch = vec![1.0; n * (n - 1) / 2];
        let freqs = vec![1.0 / n as f64; n];
        let q = build_rate_matrix(&exch, &freqs);
        let eig = decompose(&q, &freqs);
        let p = eig.transition_matrix(0.2);
        for i in 0..n {
            let sum: f64 = (0..n).map(|j| p[(i, j)]).sum();
            assert!(approx_eq(sum, 1.0, 1e-9));
        }
    }

    #[test]
    #[should_panic]
    fn rejects_wrong_exchangeability_count() {
        build_rate_matrix(&[1.0, 2.0], &[0.25, 0.25, 0.25, 0.25]);
    }

    #[test]
    #[should_panic]
    fn rejects_bad_frequencies() {
        build_rate_matrix(&[1.0; 6], &[0.5, 0.5, 0.5, 0.5]);
    }
}
