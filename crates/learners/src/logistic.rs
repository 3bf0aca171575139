//! Weighted logistic regression via damped Newton iterations (IRLS).
//!
//! The feature matrices in this workspace are min–max normalised to `[0, 1]`
//! (paper §IV preprocessing), which compresses informative directions and
//! makes first-order methods crawl; Newton steps are scale-invariant and
//! converge in a handful of iterations at these dimensionalities (d ≤ ~150).
//! A step-halving line search on the regularised loss keeps every iteration
//! monotone, so training is robust to the extreme instance weights the
//! fairness interventions produce. Deterministic (zero initialisation, fixed
//! schedule): repeated experiment runs differ only through the data seeds.

use crate::{validate_fit_inputs, LearnError, Learner, Result};
use cf_linalg::{cholesky, Matrix};

/// Hyperparameters for [`LogisticRegression`].
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct LogisticRegressionConfig {
    /// Maximum number of Newton iterations.
    pub max_iter: usize,
    /// Stop when the loss improves by less than this between iterations.
    pub tol: f64,
    /// L2 regularisation strength on the non-intercept coefficients.
    pub l2: f64,
    /// Whether to fit an intercept term.
    pub fit_intercept: bool,
}

impl Default for LogisticRegressionConfig {
    fn default() -> Self {
        Self {
            max_iter: 50,
            tol: 1e-9,
            l2: 1e-4,
            fit_intercept: true,
        }
    }
}

/// Weighted binary logistic regression.
///
/// Serialisable: the fitted coefficients and intercept round-trip
/// bit-exactly through the JSON shim, so a deserialised model scores
/// identically to the original (the checkpoint/restore contract).
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct LogisticRegression {
    config: LogisticRegressionConfig,
    /// Learned coefficients (one per feature), empty until fitted.
    coefficients: Vec<f64>,
    /// Learned intercept.
    intercept: f64,
    fitted: bool,
}

impl Default for LogisticRegression {
    fn default() -> Self {
        Self::new(LogisticRegressionConfig::default())
    }
}

#[inline]
fn sigmoid(z: f64) -> f64 {
    // Split on sign for numerical stability at large |z|.
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

impl LogisticRegression {
    /// Create an unfitted model with the given hyperparameters.
    pub fn new(config: LogisticRegressionConfig) -> Self {
        Self {
            config,
            coefficients: Vec::new(),
            intercept: 0.0,
            fitted: false,
        }
    }

    /// Learned coefficients (empty before `fit`).
    pub fn coefficients(&self) -> &[f64] {
        &self.coefficients
    }

    /// Learned intercept.
    pub fn intercept(&self) -> f64 {
        self.intercept
    }

    /// Weighted regularised log-loss, given every row's margin `z`.
    fn loss(&self, z: &[f64], y: &[f64], w: &[f64], beta: &[f64], wsum: f64) -> f64 {
        let mut nll = 0.0;
        for ((&z, &yi), &wi) in z.iter().zip(y).zip(w) {
            // log σ(z) and log(1 − σ(z)), written stably via log1p.
            let log_p = || {
                if z > 35.0 {
                    0.0
                } else if z < -35.0 {
                    z
                } else {
                    -((-z).exp().ln_1p())
                }
            };
            let log_1p = || {
                if z > 35.0 {
                    -z
                } else if z < -35.0 {
                    0.0
                } else {
                    -(z.exp().ln_1p())
                }
            };
            // A 0/1 label needs only its own term: the other one enters
            // as `0 · log`, a signed zero, and in every branch above the
            // kept term is either nonzero or a `+0` that the signed zero
            // cannot flip — so the sum's bits are the kept term's.
            let ll = if yi == 1.0 {
                log_p()
            } else if yi == 0.0 {
                log_1p()
            } else {
                yi * log_p() + (1.0 - yi) * log_1p()
            };
            nll -= wi * ll;
        }
        let reg = 0.5 * self.config.l2 * cf_linalg::vector::dot(beta, beta);
        nll / wsum + reg
    }
}

/// Where a feature matrix's nonzero entries are, row by row (a compressed
/// sparse row index), built once per [`LogisticRegression::fit`]. One-hot
/// encoding leaves most entries zero (simulated MEPS: 40 of 105 per row),
/// and every per-row kernel of a Newton iteration — margins, gradient and
/// the Hessian's outer product — then visits only the nonzeros.
///
/// Skipping a zero entry is exact, not approximate: it contributes `±0`
/// to an accumulator. The gradient and Hessian accumulators start at `+0`
/// and a sum of finite doubles is `-0` only when both addends are, so they
/// never hold `-0` and adding `±0` leaves them unchanged. A margin's dot
/// product may end as a zero of the other sign than the dense sum, but
/// the intercept added last is never `-0` (it starts at `+0` and only
/// ever has a finite step subtracted), so the margin's bits agree.
///
/// Only the column indices are stored (`u32`); values are read from the
/// dense row. On dense data the index then costs half the matrix, where
/// storing the values too would cost one and a half times it.
struct SparseRows<'a> {
    x: &'a Matrix,
    /// Row `i`'s nonzeros are in columns `cols[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<usize>,
    /// Column index of each nonzero, ascending within a row.
    cols: Vec<u32>,
}

impl<'a> SparseRows<'a> {
    fn new(x: &'a Matrix) -> Self {
        assert!(
            u32::try_from(x.cols()).is_ok(),
            "{} features exceed the u32 column index",
            x.cols()
        );
        let mut offsets = Vec::with_capacity(x.rows() + 1);
        let mut cols = Vec::new();
        offsets.push(0);
        for i in 0..x.rows() {
            for (j, &v) in x.row(i).iter().enumerate() {
                if v != 0.0 {
                    cols.push(j as u32);
                }
            }
            offsets.push(cols.len());
        }
        Self { x, offsets, cols }
    }

    /// Row `i`'s nonzero column indices, and the row itself.
    #[inline]
    fn row(&self, i: usize) -> (&[u32], &[f64]) {
        (
            &self.cols[self.offsets[i]..self.offsets[i + 1]],
            self.x.row(i),
        )
    }

    /// Every row's margin `β·x + b₀`, summed column-ascending with the
    /// intercept last, as the dense `dot(β, row) + b₀` does.
    fn margins(&self, beta: &[f64], b0: f64, out: &mut [f64]) {
        for (i, z) in out.iter_mut().enumerate() {
            let (cols, row) = self.row(i);
            let mut s = 0.0;
            for &j in cols {
                s += beta[j as usize] * row[j as usize];
            }
            *z = s + b0;
        }
    }
}

impl Learner for LogisticRegression {
    fn fit(&mut self, x: &Matrix, y: &[f64], weights: Option<&[f64]>) -> Result<()> {
        let w = validate_fit_inputs(x, y, weights)?;
        let wsum: f64 = w.iter().sum();
        let d = x.cols();
        let intercept = self.config.fit_intercept;
        let rows = SparseRows::new(x);
        // Parameter layout: [β₀ … β_{d-1}, intercept]. Without an intercept
        // the Newton system is the d×d one over β, and θ[d] stays 0.
        let dim = d + usize::from(intercept);
        let mut theta = vec![0.0; d + 1];
        // Margins at θ; a line-search candidate's margins, once accepted,
        // are the next iteration's.
        let mut z = vec![0.0; x.rows()];
        let mut cand_z = vec![0.0; x.rows()];
        rows.margins(&theta[..d], theta[d], &mut z);
        let mut prev_loss = self.loss(&z, y, &w, &theta[..d], wsum);

        // Hessian floor keeps the Newton system well-posed even when the
        // model saturates (p ∈ {0, 1} makes p(1−p) vanish).
        const HESS_RIDGE: f64 = 1e-8;

        for _ in 0..self.config.max_iter {
            // Gradient and Hessian of the weighted mean log-loss.
            let mut grad = vec![0.0; dim];
            let mut hess = Matrix::zeros(dim, dim);
            for (i, ((&zi, &yi), &wi)) in z.iter().zip(y).zip(&w).enumerate() {
                let (cols, row) = rows.row(i);
                let p = sigmoid(zi);
                let e = wi * (p - yi);
                for &j in cols {
                    grad[j as usize] += e * row[j as usize];
                }
                if intercept {
                    grad[d] += e;
                }
                let hw = (wi * p * (1.0 - p)).max(0.0);
                if hw == 0.0 {
                    continue;
                }
                // Upper triangle of hw · [row, 1][row, 1]ᵀ.
                for (k, &j) in cols.iter().enumerate() {
                    let hi = hw * row[j as usize];
                    if hi == 0.0 {
                        continue;
                    }
                    let hrow = hess.row_mut(j as usize);
                    for &l in &cols[k..] {
                        hrow[l as usize] += hi * row[l as usize];
                    }
                    if intercept {
                        hrow[d] += hi;
                    }
                }
                if intercept {
                    hess[(d, d)] += hw;
                }
            }
            for i in 0..d {
                grad[i] = grad[i] / wsum + self.config.l2 * theta[i];
            }
            if intercept {
                grad[d] /= wsum;
            }
            for i in 0..dim {
                for j in i..dim {
                    let v = hess[(i, j)] / wsum;
                    hess[(i, j)] = v;
                    hess[(j, i)] = v;
                }
            }
            for i in 0..d {
                hess[(i, i)] += self.config.l2;
            }
            if intercept {
                hess[(d, d)] += HESS_RIDGE;
            }
            for i in 0..dim {
                hess[(i, i)] += HESS_RIDGE;
            }

            let Ok(factor) = cholesky(&hess) else {
                break; // Degenerate curvature: keep the current parameters.
            };
            let Ok(step) = factor.solve(&grad) else {
                break;
            };

            // Step-halving line search keeps the loss monotone.
            let mut accepted = false;
            let mut scale = 1.0;
            for _ in 0..30 {
                let mut cand = theta.clone();
                for (c, s) in cand.iter_mut().zip(&step) {
                    *c -= scale * s;
                }
                rows.margins(&cand[..d], cand[d], &mut cand_z);
                let cand_loss = self.loss(&cand_z, y, &w, &cand[..d], wsum);
                if cand_loss <= prev_loss {
                    let improvement = prev_loss - cand_loss;
                    theta = cand;
                    std::mem::swap(&mut z, &mut cand_z);
                    prev_loss = cand_loss;
                    accepted = true;
                    if improvement < self.config.tol {
                        self.coefficients = theta[..d].to_vec();
                        self.intercept = theta[d];
                        self.fitted = true;
                        return Ok(());
                    }
                    break;
                }
                scale *= 0.5;
            }
            if !accepted {
                break; // No descent direction left: converged.
            }
        }

        self.coefficients = theta[..d].to_vec();
        self.intercept = theta[d];
        self.fitted = true;
        Ok(())
    }

    fn predict_proba(&self, x: &Matrix) -> Result<Vec<f64>> {
        if !self.fitted {
            return Err(LearnError::NotFitted);
        }
        if x.cols() != self.coefficients.len() {
            return Err(LearnError::ShapeMismatch(format!(
                "{} features, model has {}",
                x.cols(),
                self.coefficients.len()
            )));
        }
        // The tiled kernel accumulates each row k-ascending with the
        // intercept added last — bit-identical to the per-row
        // `dot(coef, row) + intercept` it replaces, so scores (and the
        // golden-fixture artifacts downstream) are unchanged.
        Ok(x.affine_margins(&self.coefficients, self.intercept)
            .map_err(|e| LearnError::ShapeMismatch(e.to_string()))?
            .into_iter()
            .map(sigmoid)
            .collect())
    }

    fn predict(&self, x: &Matrix) -> Result<Vec<u8>> {
        if !self.fitted {
            return Err(LearnError::NotFitted);
        }
        if x.cols() != self.coefficients.len() {
            return Err(LearnError::ShapeMismatch(format!(
                "{} features, model has {}",
                x.cols(),
                self.coefficients.len()
            )));
        }
        // `sigmoid(z) >= 0.5` iff `z >= 0` (monotone, sigmoid(0) = 0.5),
        // so hard decisions never need the exp — the streaming hot path
        // thresholds the tiled linear scores directly. The sign of z is the
        // exact decision boundary; the proba path can only disagree for z
        // within one ulp of 0, where computing sigmoid rounds to exactly
        // 0.5.
        Ok(x.affine_margins(&self.coefficients, self.intercept)
            .map_err(|e| LearnError::ShapeMismatch(e.to_string()))?
            .into_iter()
            .map(|z| u8::from(z >= 0.0))
            .collect())
    }

    fn predict_margin(&self, x: &Matrix) -> Result<Vec<f64>> {
        if !self.fitted {
            return Err(LearnError::NotFitted);
        }
        if x.cols() != self.coefficients.len() {
            return Err(LearnError::ShapeMismatch(format!(
                "{} features, model has {}",
                x.cols(),
                self.coefficients.len()
            )));
        }
        // The same tiled linear scores `predict` thresholds at zero:
        // `margin >= τ` with τ = 0 reproduces `predict` bit for bit.
        x.affine_margins(&self.coefficients, self.intercept)
            .map_err(|e| LearnError::ShapeMismatch(e.to_string()))
    }

    fn is_fitted(&self) -> bool {
        self.fitted
    }

    fn state(&self) -> Option<crate::ModelState> {
        Some(crate::ModelState::Logistic(self.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accuracy;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// Linearly separable blobs around (0,0) and (2,2).
    fn blobs(n: usize, seed: u64) -> (Matrix, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = Vec::with_capacity(2 * n);
        let mut y = Vec::with_capacity(2 * n);
        for _ in 0..n {
            rows.push(vec![rng.gen_range(-0.5..0.5), rng.gen_range(-0.5..0.5)]);
            y.push(0.0);
            rows.push(vec![
                2.0 + rng.gen_range(-0.5..0.5),
                2.0 + rng.gen_range(-0.5..0.5),
            ]);
            y.push(1.0);
        }
        (Matrix::from_rows(&rows), y)
    }

    #[test]
    fn learns_separable_blobs() {
        let (x, y) = blobs(100, 1);
        let mut lr = LogisticRegression::default();
        lr.fit(&x, &y, None).unwrap();
        let pred = lr.predict(&x).unwrap();
        let truth: Vec<u8> = y.iter().map(|&v| v as u8).collect();
        assert!(accuracy(&truth, &pred) > 0.99);
    }

    #[test]
    fn probabilities_in_unit_interval() {
        let (x, y) = blobs(50, 2);
        let mut lr = LogisticRegression::default();
        lr.fit(&x, &y, None).unwrap();
        for p in lr.predict_proba(&x).unwrap() {
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn deterministic_across_fits() {
        let (x, y) = blobs(60, 3);
        let mut a = LogisticRegression::default();
        let mut b = LogisticRegression::default();
        a.fit(&x, &y, None).unwrap();
        b.fit(&x, &y, None).unwrap();
        assert_eq!(a.coefficients(), b.coefficients());
        assert_eq!(a.intercept(), b.intercept());
    }

    #[test]
    fn weights_equal_duplication() {
        // Weighting a tuple by 3 must match duplicating it 3 times.
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0], vec![3.0]]);
        let y = vec![0.0, 0.0, 1.0, 1.0];
        let w = vec![1.0, 3.0, 1.0, 1.0];

        let mut weighted = LogisticRegression::default();
        weighted.fit(&x, &y, Some(&w)).unwrap();

        let x_dup = Matrix::from_rows(&[
            vec![0.0],
            vec![1.0],
            vec![1.0],
            vec![1.0],
            vec![2.0],
            vec![3.0],
        ]);
        let y_dup = vec![0.0, 0.0, 0.0, 0.0, 1.0, 1.0];
        let mut duplicated = LogisticRegression::default();
        duplicated.fit(&x_dup, &y_dup, None).unwrap();

        for (a, b) in weighted
            .coefficients()
            .iter()
            .zip(duplicated.coefficients())
        {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
        assert!((weighted.intercept() - duplicated.intercept()).abs() < 1e-3);
    }

    #[test]
    fn upweighting_positives_raises_their_probability() {
        // Noisy overlap region: upweighting class-1 tuples should push the
        // decision surface toward predicting 1 more often.
        let (x, y) = blobs(40, 4);
        let mut plain = LogisticRegression::default();
        plain.fit(&x, &y, None).unwrap();
        let w: Vec<f64> = y
            .iter()
            .map(|&yi| if yi > 0.5 { 10.0 } else { 1.0 })
            .collect();
        let mut boosted = LogisticRegression::default();
        boosted.fit(&x, &y, Some(&w)).unwrap();
        let probe = Matrix::from_rows(&[vec![1.0, 1.0]]); // midpoint
        let p_plain = plain.predict_proba(&probe).unwrap()[0];
        let p_boost = boosted.predict_proba(&probe).unwrap()[0];
        assert!(p_boost > p_plain, "{p_boost} should exceed {p_plain}");
    }

    #[test]
    fn single_class_data_predicts_that_class() {
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0]]);
        let y = vec![1.0, 1.0, 1.0];
        let mut lr = LogisticRegression::default();
        lr.fit(&x, &y, None).unwrap();
        let p = lr.predict_proba(&x).unwrap();
        assert!(p.iter().all(|&v| v > 0.5));
    }

    #[test]
    fn unfitted_predict_errors() {
        let lr = LogisticRegression::default();
        assert!(matches!(
            lr.predict_proba(&Matrix::zeros(1, 1)),
            Err(LearnError::NotFitted)
        ));
    }

    #[test]
    fn feature_count_mismatch_errors() {
        let (x, y) = blobs(20, 5);
        let mut lr = LogisticRegression::default();
        lr.fit(&x, &y, None).unwrap();
        assert!(matches!(
            lr.predict_proba(&Matrix::zeros(1, 5)),
            Err(LearnError::ShapeMismatch(_))
        ));
    }

    #[test]
    fn no_intercept_config_respected() {
        let (x, y) = blobs(30, 6);
        let mut lr = LogisticRegression::new(LogisticRegressionConfig {
            fit_intercept: false,
            ..LogisticRegressionConfig::default()
        });
        lr.fit(&x, &y, None).unwrap();
        assert_eq!(lr.intercept(), 0.0);
    }

    #[test]
    fn no_intercept_fit_is_stationary() {
        // Overlapping classes whose best intercept is far from 0, so the
        // constrained optimum differs from the unconstrained one: Newton
        // steps from the joint (β, b₀) system, with b₀ then zeroed, stall
        // away from it. The d×d system must reach a stationary point of
        // the regularised loss.
        let mut rng = StdRng::seed_from_u64(8);
        let (n, l2) = (600, LogisticRegressionConfig::default().l2);
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| vec![rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)])
            .collect();
        let y: Vec<f64> = rows
            .iter()
            .map(|r| {
                let p = sigmoid(2.0 * r[0] - 1.5 * r[1] + 1.0);
                f64::from(u8::from(rng.gen_range(0.0..1.0) < p))
            })
            .collect();
        let x = Matrix::from_rows(&rows);
        let mut lr = LogisticRegression::new(LogisticRegressionConfig {
            fit_intercept: false,
            ..LogisticRegressionConfig::default()
        });
        lr.fit(&x, &y, None).unwrap();
        let beta = lr.coefficients();
        let mut grad = [0.0; 2];
        for (row, &yi) in rows.iter().zip(&y) {
            let e = sigmoid(cf_linalg::vector::dot(beta, row)) - yi;
            cf_linalg::vector::axpy(e, row, &mut grad);
        }
        let norm = grad
            .iter()
            .zip(beta)
            .map(|(g, b)| (g / n as f64 + l2 * b).powi(2))
            .sum::<f64>()
            .sqrt();
        assert_eq!(lr.intercept(), 0.0);
        assert!(norm < 1e-6, "gradient norm {norm} at the returned β");
    }
}
