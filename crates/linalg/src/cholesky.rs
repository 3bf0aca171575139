//! Cholesky factorisation and SPD linear solves.
//!
//! Used by the dataset simulators to sample correlated Gaussian features
//! (`x = μ + L·z` with `LLᵀ = Σ`), and available for SPD solves.

use crate::{matrix::Matrix, LinalgError, Result};

/// Lower-triangular Cholesky factor `L` with `L Lᵀ = A`.
#[derive(Debug, Clone)]
pub struct Cholesky {
    /// The lower-triangular factor (entries above the diagonal are zero).
    pub l: Matrix,
}

impl Cholesky {
    /// Solve `A x = b` using the stored factor (forward + back substitution).
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.l.rows();
        if b.len() != n {
            return Err(LinalgError::ShapeMismatch {
                expected: format!("rhs of length {n}"),
                got: format!("{}", b.len()),
            });
        }
        // Forward: L y = b, over row i of L.
        let l = self.l.as_slice();
        let mut y = vec![0.0; n];
        for i in 0..n {
            let li = &l[i * n..(i + 1) * n];
            let mut s = b[i];
            for (&lij, &yj) in li[..i].iter().zip(&y[..i]) {
                s -= lij * yj;
            }
            y[i] = s / li[i];
        }
        // Backward: Lᵀ x = y, over column i of L (row i of Lᵀ).
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut s = y[i];
            let col_i = l[i * n + i..].iter().step_by(n).skip(1);
            for (&lji, &xj) in col_i.zip(&x[i + 1..]) {
                s -= lji * xj;
            }
            x[i] = s / l[i * n + i];
        }
        Ok(x)
    }

    /// Compute `L v` — maps iid standard normals to correlated samples.
    pub fn l_matvec(&self, v: &[f64]) -> Result<Vec<f64>> {
        self.l.matvec(v)
    }
}

/// Factor a symmetric positive-definite matrix.
///
/// A tiny diagonal jitter (`1e-10 * max|A|`) is tolerated to absorb rounding
/// in covariance matrices that are PSD but numerically semi-definite.
pub fn cholesky(a: &Matrix) -> Result<Cholesky> {
    if a.rows() != a.cols() {
        return Err(LinalgError::NotSquare);
    }
    let n = a.rows();
    if n == 0 {
        return Err(LinalgError::Empty);
    }
    let jitter = 1e-10 * a.max_abs().max(1.0);
    let mut l = Matrix::zeros(n, n);
    let data = l.as_mut_slice();
    for i in 0..n {
        // Rows above i are final; row i fills left to right, each entry
        // a dot of the two rows' prefixes taken k-ascending.
        let (done, rest) = data.split_at_mut(i * n);
        let li = &mut rest[..n];
        for j in 0..=i {
            let mut s = a[(i, j)];
            if i == j {
                for &lik in &li[..j] {
                    s -= lik * lik;
                }
                let d = s + jitter;
                if d <= 0.0 {
                    return Err(LinalgError::NotPositiveDefinite);
                }
                li[i] = d.sqrt();
            } else {
                let lj = &done[j * n..(j + 1) * n];
                for (&lik, &ljk) in li[..j].iter().zip(&lj[..j]) {
                    s -= lik * ljk;
                }
                li[j] = s / lj[j];
            }
        }
    }
    Ok(Cholesky { l })
}

/// One-shot SPD solve `A x = b`.
pub fn solve_spd(a: &Matrix, b: &[f64]) -> Result<Vec<f64>> {
    cholesky(a)?.solve(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> Matrix {
        Matrix::from_vec(3, 3, vec![4.0, 2.0, 0.6, 2.0, 5.0, 1.0, 0.6, 1.0, 3.0])
    }

    #[test]
    fn factor_reconstructs() {
        let a = spd3();
        let ch = cholesky(&a).unwrap();
        let r = ch.l.matmul(&ch.l.transpose()).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                assert!((r[(i, j)] - a[(i, j)]).abs() < 1e-8, "({i},{j})");
            }
        }
    }

    #[test]
    fn factor_is_lower_triangular() {
        let ch = cholesky(&spd3()).unwrap();
        for i in 0..3 {
            for j in (i + 1)..3 {
                assert_eq!(ch.l[(i, j)], 0.0);
            }
        }
    }

    #[test]
    fn solve_recovers_known_solution() {
        let a = spd3();
        let x_true = vec![1.0, -2.0, 0.5];
        let b = a.matvec(&x_true).unwrap();
        let x = solve_spd(&a, &b).unwrap();
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-9);
        }
    }

    #[test]
    fn identity_solve_is_identity() {
        let i = Matrix::identity(4);
        let b = vec![1.0, 2.0, 3.0, 4.0];
        let x = solve_spd(&i, &b).unwrap();
        for (xi, bi) in x.iter().zip(&b) {
            assert!((xi - bi).abs() < 1e-8, "{xi} vs {bi}");
        }
    }

    #[test]
    fn rejects_indefinite() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 2.0, 1.0]); // eigenvalues 3, -1
        assert!(matches!(
            cholesky(&a),
            Err(LinalgError::NotPositiveDefinite)
        ));
    }

    #[test]
    fn rejects_bad_shapes() {
        assert!(matches!(
            cholesky(&Matrix::zeros(2, 3)),
            Err(LinalgError::NotSquare)
        ));
        assert!(matches!(
            cholesky(&Matrix::zeros(0, 0)),
            Err(LinalgError::Empty)
        ));
        let ch = cholesky(&spd3()).unwrap();
        assert!(ch.solve(&[1.0]).is_err());
    }

    #[test]
    fn l_matvec_produces_target_covariance_direction() {
        // L e1 should equal the first column of L.
        let ch = cholesky(&spd3()).unwrap();
        let v = ch.l_matvec(&[1.0, 0.0, 0.0]).unwrap();
        assert!((v[0] - ch.l[(0, 0)]).abs() < 1e-12);
        assert!((v[1] - ch.l[(1, 0)]).abs() < 1e-12);
        assert!((v[2] - ch.l[(2, 0)]).abs() < 1e-12);
    }
}
