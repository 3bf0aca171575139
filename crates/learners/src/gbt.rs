//! XGBoost-style gradient boosted trees for binary classification.
//!
//! Second-order boosting with the logistic loss: per round, gradients
//! `g = w·(p − y)` and hessians `h = w·p(1−p)` feed an exact-greedy
//! regression tree; instance weights scale both, which makes weighting
//! equivalent to duplication — the property reweighing interventions need.

use crate::{
    tree::{FeatureOrder, FlatTree, RegressionTree, TreeParams},
    validate_fit_inputs, LearnError, Learner, Result,
};
use cf_linalg::Matrix;
use rand::{rngs::StdRng, seq::SliceRandom, SeedableRng};

/// Hyperparameters for [`Gbt`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GbtConfig {
    /// Number of boosting rounds.
    pub n_rounds: usize,
    /// Shrinkage `η` applied to every tree's contribution.
    pub eta: f64,
    /// Maximum depth per tree.
    pub max_depth: usize,
    /// L2 regularisation `λ` on leaf weights.
    pub lambda: f64,
    /// Minimum split gain `γ`.
    pub gamma: f64,
    /// Minimum hessian sum per child.
    pub min_child_weight: f64,
    /// Row subsampling fraction per round (1.0 = use every row).
    pub subsample: f64,
    /// Seed for subsampling (ignored when `subsample == 1.0`).
    pub seed: u64,
}

impl Default for GbtConfig {
    fn default() -> Self {
        Self {
            n_rounds: 60,
            eta: 0.3,
            max_depth: 4,
            lambda: 1.0,
            gamma: 0.0,
            min_child_weight: 1.0,
            subsample: 1.0,
            seed: 0,
        }
    }
}

// Manual serde impls: `seed` is a full-range `u64`, which the JSON shim's
// f64-backed numbers cannot carry exactly above 2^53 — it travels as a hex
// string instead, so subsampled retrains replay bit-identically after a
// restore.
impl serde::Serialize for GbtConfig {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("n_rounds".into(), self.n_rounds.to_value()),
            ("eta".into(), self.eta.to_value()),
            ("max_depth".into(), self.max_depth.to_value()),
            ("lambda".into(), self.lambda.to_value()),
            ("gamma".into(), self.gamma.to_value()),
            ("min_child_weight".into(), self.min_child_weight.to_value()),
            ("subsample".into(), self.subsample.to_value()),
            (
                "seed".into(),
                serde::Value::String(format!("{:016x}", self.seed)),
            ),
        ])
    }
}

impl serde::Deserialize for GbtConfig {
    fn from_value(v: &serde::Value) -> std::result::Result<Self, serde::Error> {
        use serde::Deserialize;
        let seed_hex = v
            .get_or_err("seed")?
            .as_str()
            .ok_or_else(|| serde::Error::msg("gbt seed must be a hex string"))?;
        let seed = u64::from_str_radix(seed_hex, 16)
            .map_err(|e| serde::Error::msg(format!("bad gbt seed `{seed_hex}`: {e}")))?;
        let config = GbtConfig {
            n_rounds: Deserialize::from_value(v.get_or_err("n_rounds")?)?,
            eta: Deserialize::from_value(v.get_or_err("eta")?)?,
            max_depth: Deserialize::from_value(v.get_or_err("max_depth")?)?,
            lambda: Deserialize::from_value(v.get_or_err("lambda")?)?,
            gamma: Deserialize::from_value(v.get_or_err("gamma")?)?,
            min_child_weight: Deserialize::from_value(v.get_or_err("min_child_weight")?)?,
            subsample: Deserialize::from_value(v.get_or_err("subsample")?)?,
            seed,
        };
        if !(config.subsample > 0.0 && config.subsample <= 1.0) {
            return Err(serde::Error::msg("subsample must be in (0, 1]"));
        }
        Ok(config)
    }
}

/// Gradient-boosted-tree binary classifier.
///
/// Serialisable: the fitted ensemble (every tree's splits and leaf weights,
/// plus the base score) round-trips bit-exactly through the JSON shim, so a
/// deserialised model scores identically to the original.
#[derive(Debug, Clone)]
pub struct Gbt {
    config: GbtConfig,
    trees: Vec<RegressionTree>,
    /// Initial log-odds (from the weighted base rate).
    base_score: f64,
    n_features: usize,
    fitted: bool,
    /// The fitted trees compiled to SoA form for the batch scoring kernel.
    /// Derived state: rebuilt at fit/deserialise time, never serialised.
    flat: Vec<FlatTree>,
}

impl Default for Gbt {
    fn default() -> Self {
        Self::new(GbtConfig::default())
    }
}

// Manual Serialize: the derive shim would emit every field, and `flat` is
// derived state — the wire format must stay the v4 node-enum tree document
// (exactly config/trees/base_score/n_features/fitted), so checkpoints
// written before the flat kernel existed restore unchanged and new
// checkpoints never persist the SoA form.
impl serde::Serialize for Gbt {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("config".into(), self.config.to_value()),
            ("trees".into(), self.trees.to_value()),
            ("base_score".into(), self.base_score.to_value()),
            ("n_features".into(), self.n_features.to_value()),
            ("fitted".into(), self.fitted.to_value()),
        ])
    }
}

// Manual Deserialize: fields alone don't make a valid ensemble — every
// tree's split feature indices must stay inside the declared feature
// count, or a corrupted checkpoint would pass parsing and then panic with
// index-out-of-bounds inside `predict_row` at serve time. The flat kernel
// form is compiled here, after validation — old documents flatten on load.
impl serde::Deserialize for Gbt {
    fn from_value(v: &serde::Value) -> std::result::Result<Self, serde::Error> {
        use serde::Deserialize;
        let mut gbt = Gbt {
            config: Deserialize::from_value(v.get_or_err("config")?)?,
            trees: Deserialize::from_value(v.get_or_err("trees")?)?,
            base_score: Deserialize::from_value(v.get_or_err("base_score")?)?,
            n_features: Deserialize::from_value(v.get_or_err("n_features")?)?,
            fitted: Deserialize::from_value(v.get_or_err("fitted")?)?,
            flat: Vec::new(),
        };
        for (i, tree) in gbt.trees.iter().enumerate() {
            if let Some(f) = tree.max_feature_index() {
                if f >= gbt.n_features {
                    return Err(serde::Error::msg(format!(
                        "tree {i} splits on feature {f}; the model has {} features",
                        gbt.n_features
                    )));
                }
            }
        }
        gbt.rebuild_flat();
        Ok(gbt)
    }
}

#[inline]
fn sigmoid(z: f64) -> f64 {
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

impl Gbt {
    /// Create an unfitted model with the given hyperparameters.
    pub fn new(config: GbtConfig) -> Self {
        assert!(
            config.subsample > 0.0 && config.subsample <= 1.0,
            "subsample must be in (0, 1]"
        );
        Self {
            config,
            trees: Vec::new(),
            base_score: 0.0,
            n_features: 0,
            fitted: false,
            flat: Vec::new(),
        }
    }

    /// Number of fitted trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// Number of features the ensemble was fitted on (0 before `fit`).
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Recompile the SoA kernel form from the recursive trees.
    fn rebuild_flat(&mut self) {
        self.flat = self.trees.iter().map(RegressionTree::flatten).collect();
    }

    /// Raw margin (log-odds) for one row, via the recursive walker.
    ///
    /// Accumulated as one left-to-right fold (`base`, then each tree's
    /// shrunk contribution in boosting order) — the exact association the
    /// batch kernel uses per row, so [`Self::predict_margin_rows`] and this
    /// reference path are bit-identical, not merely close.
    fn margin(&self, row: &[f64]) -> f64 {
        let mut m = self.base_score;
        for tree in &self.trees {
            m += self.config.eta * tree.predict_row(row);
        }
        m
    }

    fn check_scorable(&self, x: &Matrix) -> Result<()> {
        if !self.fitted {
            return Err(LearnError::NotFitted);
        }
        if x.cols() != self.n_features {
            return Err(LearnError::ShapeMismatch(format!(
                "{} features, model has {}",
                x.cols(),
                self.n_features
            )));
        }
        Ok(())
    }

    /// Raw margins (log-odds) for every row of `x`, via the flat batch
    /// kernel: the margin buffer is initialised to the base score, then
    /// each compiled tree sweeps a whole block of rows before the next
    /// tree starts — one tree's node arrays stay L1-resident while rows
    /// stream, instead of every row chasing pointers through every tree.
    ///
    /// Rows are tiled into ~L1-sized blocks before the tree-outer loop:
    /// sweeping *all* rows per tree would re-stream the full feature
    /// block from memory once per tree (an ensemble-sized multiplier on
    /// memory traffic), while an L1-sized block is re-read from cache by
    /// every tree after the first.
    pub fn predict_margin_rows(&self, x: &Matrix) -> Result<Vec<f64>> {
        self.check_scorable(x)?;
        let mut margins = vec![self.base_score; x.rows()];
        let d = x.cols();
        let data = x.as_slice();
        // ~16 KiB of row data per block — half of a typical 32 KiB L1d,
        // leaving the other half for the tree being swept and the margin
        // slice (measured faster than a 32 KiB block, which makes rows
        // and nodes fight over the cache) — but never fewer rows than the
        // kernel keeps in flight.
        let block = (16 * 1024 / (d * std::mem::size_of::<f64>()).max(1)).max(8);
        let mut start = 0;
        while start < x.rows() {
            let end = (start + block).min(x.rows());
            let rows = &data[start * d..end * d];
            let out = &mut margins[start..end];
            for tree in &self.flat {
                tree.accumulate_margins(rows, d, self.config.eta, out);
            }
            start = end;
        }
        Ok(margins)
    }

    /// Reference margins via the recursive per-row walker. Kept (and
    /// property-pinned bit-identical to [`Self::predict_margin_rows`]) as
    /// the readable specification of what the kernel computes.
    pub fn predict_margin_rows_recursive(&self, x: &Matrix) -> Result<Vec<f64>> {
        self.check_scorable(x)?;
        Ok(x.iter_rows().map(|row| self.margin(row)).collect())
    }
}

impl Learner for Gbt {
    fn fit(&mut self, x: &Matrix, y: &[f64], weights: Option<&[f64]>) -> Result<()> {
        let w = validate_fit_inputs(x, y, weights)?;
        let n = x.rows();
        self.n_features = x.cols();
        self.trees.clear();

        // Base score: weighted positive rate as log-odds, clamped away from
        // the degenerate endpoints so single-class data stays finite.
        let wsum: f64 = w.iter().sum();
        let pos_rate = (y.iter().zip(&w).map(|(&yi, &wi)| yi * wi).sum::<f64>() / wsum)
            .clamp(1e-6, 1.0 - 1e-6);
        self.base_score = (pos_rate / (1.0 - pos_rate)).ln();

        let tree_params = TreeParams {
            max_depth: self.config.max_depth,
            lambda: self.config.lambda,
            gamma: self.config.gamma,
            min_child_weight: self.config.min_child_weight,
        };

        // Every round's tree splits on the same rows: sort them once.
        let order = FeatureOrder::new(x);
        let mut margins = vec![self.base_score; n];
        let mut grad = vec![0.0; n];
        let mut hess = vec![0.0; n];
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut row_pool: Vec<usize> = (0..n).collect();

        for _ in 0..self.config.n_rounds {
            for i in 0..n {
                let p = sigmoid(margins[i]);
                grad[i] = w[i] * (p - y[i]);
                hess[i] = (w[i] * p * (1.0 - p)).max(1e-16);
            }

            let tree = if self.config.subsample < 1.0 {
                // Zero out the gradients of dropped rows instead of gathering
                // a sub-matrix: the tree then ignores them (g = h·ε ≈ 0) and
                // prediction indices stay aligned.
                row_pool.shuffle(&mut rng);
                let kept = ((n as f64) * self.config.subsample).ceil() as usize;
                let mut g2 = vec![0.0; n];
                let mut h2 = vec![1e-16; n];
                for &i in &row_pool[..kept] {
                    g2[i] = grad[i];
                    h2[i] = hess[i];
                }
                RegressionTree::fit_presorted(&order, &g2, &h2, &tree_params)
            } else {
                RegressionTree::fit_presorted(&order, &grad, &hess, &tree_params)
            };

            // Early stop: a single-leaf tree with ~zero weight adds nothing.
            let deltas = tree.predict(x);
            let max_delta = deltas.iter().fold(0.0_f64, |m, &d| m.max(d.abs()));
            if max_delta < 1e-12 {
                break;
            }
            for (m, d) in margins.iter_mut().zip(&deltas) {
                *m += self.config.eta * d;
            }
            self.trees.push(tree);
        }

        self.fitted = true;
        self.rebuild_flat();
        Ok(())
    }

    fn predict_proba(&self, x: &Matrix) -> Result<Vec<f64>> {
        Ok(self
            .predict_margin_rows(x)?
            .into_iter()
            .map(sigmoid)
            .collect())
    }

    fn predict(&self, x: &Matrix) -> Result<Vec<u8>> {
        // `sigmoid(z) >= 0.5` iff `z >= 0`: hard decisions threshold the
        // raw boosting margin and skip the per-tuple exp. The margin sign
        // is the exact decision boundary — at a margin of exactly 0 the
        // proba path lands on exactly 0.5 and both report the positive
        // class, so `predict == (proba >= 0.5)` everywhere.
        Ok(self
            .predict_margin_rows(x)?
            .into_iter()
            .map(|m| u8::from(m >= 0.0))
            .collect())
    }

    fn predict_margin(&self, x: &Matrix) -> Result<Vec<f64>> {
        // The flat batch kernel `predict` thresholds at zero: `margin >= τ`
        // with τ = 0 reproduces `predict` bit for bit.
        self.predict_margin_rows(x)
    }

    fn is_fitted(&self) -> bool {
        self.fitted
    }

    fn state(&self) -> Option<crate::ModelState> {
        Some(crate::ModelState::Gbt(self.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accuracy;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// XOR-patterned data — not linearly separable, needs depth ≥ 2.
    fn xor_data(n: usize, seed: u64) -> (Matrix, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        for _ in 0..n {
            let a = rng.gen_range(0.0..1.0);
            let b = rng.gen_range(0.0..1.0);
            rows.push(vec![a, b]);
            y.push(f64::from(u8::from((a > 0.5) != (b > 0.5))));
        }
        (Matrix::from_rows(&rows), y)
    }

    #[test]
    fn learns_xor() {
        let (x, y) = xor_data(400, 1);
        let mut gbt = Gbt::default();
        gbt.fit(&x, &y, None).unwrap();
        let pred = gbt.predict(&x).unwrap();
        let truth: Vec<u8> = y.iter().map(|&v| v as u8).collect();
        assert!(
            accuracy(&truth, &pred) > 0.95,
            "accuracy {}",
            accuracy(&truth, &pred)
        );
    }

    #[test]
    fn probabilities_valid() {
        let (x, y) = xor_data(100, 2);
        let mut gbt = Gbt::default();
        gbt.fit(&x, &y, None).unwrap();
        for p in gbt.predict_proba(&x).unwrap() {
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn deterministic_with_fixed_seed() {
        let (x, y) = xor_data(150, 3);
        let cfg = GbtConfig {
            subsample: 0.8,
            seed: 42,
            ..GbtConfig::default()
        };
        let mut a = Gbt::new(cfg);
        let mut b = Gbt::new(cfg);
        a.fit(&x, &y, None).unwrap();
        b.fit(&x, &y, None).unwrap();
        assert_eq!(a.predict_proba(&x).unwrap(), b.predict_proba(&x).unwrap());
    }

    #[test]
    fn weights_equal_duplication() {
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0], vec![3.0]]);
        let y = vec![0.0, 0.0, 1.0, 1.0];
        let w = vec![1.0, 2.0, 1.0, 1.0];
        let cfg = GbtConfig {
            n_rounds: 10,
            ..GbtConfig::default()
        };
        let mut weighted = Gbt::new(cfg);
        weighted.fit(&x, &y, Some(&w)).unwrap();

        let x_dup = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![1.0], vec![2.0], vec![3.0]]);
        let y_dup = vec![0.0, 0.0, 0.0, 1.0, 1.0];
        let mut duplicated = Gbt::new(cfg);
        duplicated.fit(&x_dup, &y_dup, None).unwrap();

        let probe = Matrix::from_rows(&[vec![0.5], vec![1.5], vec![2.5]]);
        let pw = weighted.predict_proba(&probe).unwrap();
        let pd = duplicated.predict_proba(&probe).unwrap();
        for (a, b) in pw.iter().zip(&pd) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn single_class_data_is_finite_and_confident() {
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0]]);
        let y = vec![0.0, 0.0];
        let mut gbt = Gbt::default();
        gbt.fit(&x, &y, None).unwrap();
        let p = gbt.predict_proba(&x).unwrap();
        assert!(p.iter().all(|v| v.is_finite() && *v < 0.5));
    }

    #[test]
    fn upweighting_flips_mixed_region() {
        // Identical feature values with conflicting labels: the majority
        // (by weight) label must win.
        let x = Matrix::from_rows(&[vec![1.0], vec![1.0], vec![1.0]]);
        let y = vec![0.0, 0.0, 1.0];
        let mut plain = Gbt::default();
        plain.fit(&x, &y, None).unwrap();
        assert!(plain.predict_proba(&x).unwrap()[0] < 0.5);

        let mut boosted = Gbt::default();
        boosted.fit(&x, &y, Some(&[1.0, 1.0, 10.0])).unwrap();
        assert!(boosted.predict_proba(&x).unwrap()[0] > 0.5);
    }

    #[test]
    fn unfitted_errors() {
        let gbt = Gbt::default();
        assert!(matches!(
            gbt.predict_proba(&Matrix::zeros(1, 1)),
            Err(LearnError::NotFitted)
        ));
    }

    #[test]
    fn shape_mismatch_errors() {
        let (x, y) = xor_data(50, 4);
        let mut gbt = Gbt::default();
        gbt.fit(&x, &y, None).unwrap();
        assert!(matches!(
            gbt.predict_proba(&Matrix::zeros(1, 7)),
            Err(LearnError::ShapeMismatch(_))
        ));
    }

    #[test]
    fn subsampling_still_learns() {
        let (x, y) = xor_data(400, 5);
        let mut gbt = Gbt::new(GbtConfig {
            subsample: 0.7,
            seed: 9,
            ..GbtConfig::default()
        });
        gbt.fit(&x, &y, None).unwrap();
        let truth: Vec<u8> = y.iter().map(|&v| v as u8).collect();
        assert!(accuracy(&truth, &gbt.predict(&x).unwrap()) > 0.9);
    }

    #[test]
    fn flat_kernel_margins_match_recursive_reference() {
        let (x, y) = xor_data(300, 7);
        let mut gbt = Gbt::default();
        gbt.fit(&x, &y, None).unwrap();
        let fast = gbt.predict_margin_rows(&x).unwrap();
        let slow = gbt.predict_margin_rows_recursive(&x).unwrap();
        for (f, s) in fast.iter().zip(&slow) {
            assert_eq!(f.to_bits(), s.to_bits());
        }
        // Odd row counts exercise the remainder lanes (rows % 4 ∈ 1..4).
        for take in [1, 2, 3, 5] {
            let sub = x.select_rows(&(0..take).collect::<Vec<_>>());
            let fast = gbt.predict_margin_rows(&sub).unwrap();
            let slow = gbt.predict_margin_rows_recursive(&sub).unwrap();
            assert_eq!(
                fast.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                slow.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn predict_agrees_with_thresholded_proba_at_the_boundary() {
        // An empty ensemble's margin is exactly `base_score`, which lets
        // the boundary be probed with exact values. Wherever sigmoid can
        // represent the deviation from ½ (any margin of magnitude ≳ one
        // ulp of 0.5), hard decisions agree with thresholding the
        // probability — by `> 0.5` and `>= 0.5` alike.
        let probe = |base: f64| {
            let gbt = Gbt {
                base_score: base,
                n_features: 1,
                fitted: true,
                ..Gbt::default()
            };
            let x = Matrix::zeros(1, 1);
            (
                gbt.predict(&x).unwrap()[0],
                gbt.predict_proba(&x).unwrap()[0],
            )
        };
        for base in [1.0, 1e-12, -1e-12, -1.0] {
            let (hard, proba) = probe(base);
            assert_eq!(hard, u8::from(proba > 0.5), "base_score={base}");
            assert_eq!(hard, u8::from(proba >= 0.5), "base_score={base}");
        }
        // On the boundary itself the margin sign is authoritative: a
        // margin of exactly 0 is the positive class and the probability is
        // exactly 0.5 (so thresholding with `>= 0.5` agrees; strict `>`
        // would flip precisely this one point).
        assert_eq!(probe(0.0), (1, 0.5));
        // And one ulp *below* zero, sigmoid underflows back onto exactly
        // 0.5 — the probability can no longer express the sign, which is
        // why `predict` thresholds the raw margin rather than the proba.
        let (hard, proba) = probe(-f64::MIN_POSITIVE);
        assert_eq!((hard, proba), (0, 0.5));
    }

    #[test]
    fn more_rounds_do_not_hurt_training_fit() {
        let (x, y) = xor_data(200, 6);
        let truth: Vec<u8> = y.iter().map(|&v| v as u8).collect();
        let mut short = Gbt::new(GbtConfig {
            n_rounds: 5,
            ..GbtConfig::default()
        });
        short.fit(&x, &y, None).unwrap();
        let mut long = Gbt::new(GbtConfig {
            n_rounds: 80,
            ..GbtConfig::default()
        });
        long.fit(&x, &y, None).unwrap();
        let acc_short = accuracy(&truth, &short.predict(&x).unwrap());
        let acc_long = accuracy(&truth, &long.predict(&x).unwrap());
        assert!(acc_long >= acc_short - 1e-9);
    }
}
