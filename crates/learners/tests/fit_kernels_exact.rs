//! The fitting kernels are exact, not approximate: the sparse Newton
//! logistic regression (with the row-slice Cholesky) and the presorted
//! exact-greedy trees must reproduce, bit for bit, the dense Newton fit
//! and the sort-per-node tree builder they replaced.
//!
//! Those two are kept below, frozen, as test-only oracles. Inputs cover
//! the simulated MEPS/ACSI/LSAC encodings under ConFair's default α-grid
//! weights, plus the edge cases the exactness argument has to survive:
//! zero weights, constant and all-zero columns, heavy ties, negative
//! features, single-class labels and row subsampling.

use cf_data::encode::{labels_as_f64, FeatureEncoding};
use cf_data::split::{split3, SplitRatios};
use cf_datasets::realsim::RealWorldSpec;
use cf_learners::tree::{RegressionTree, TreeParams};
use cf_learners::{Gbt, GbtConfig, Learner, LogisticRegression, LogisticRegressionConfig};
use cf_linalg::Matrix;
use confair_core::confair::{build_profile, default_alpha_grid, ConFairConfig};
use rand::{rngs::StdRng, seq::SliceRandom, Rng, SeedableRng};

fn sigmoid(z: f64) -> f64 {
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

// ---------------------------------------------------------------------
// Oracle 1: the dense Newton logistic regression, with the index-based
// Cholesky factorisation and solves it ran on.
// ---------------------------------------------------------------------

fn oracle_cholesky(a: &Matrix) -> Option<Matrix> {
    let n = a.rows();
    if n == 0 {
        return None;
    }
    let jitter = 1e-10 * a.max_abs().max(1.0);
    let mut l = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let mut s = a[(i, j)];
            for k in 0..j {
                s -= l[(i, k)] * l[(j, k)];
            }
            if i == j {
                let d = s + jitter;
                if d <= 0.0 {
                    return None;
                }
                l[(i, i)] = d.sqrt();
            } else {
                l[(i, j)] = s / l[(j, j)];
            }
        }
    }
    Some(l)
}

fn oracle_solve(l: &Matrix, b: &[f64]) -> Vec<f64> {
    let n = l.rows();
    let mut y = vec![0.0; n];
    for i in 0..n {
        let mut s = b[i];
        for (j, &yj) in y.iter().enumerate().take(i) {
            s -= l[(i, j)] * yj;
        }
        y[i] = s / l[(i, i)];
    }
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let mut s = y[i];
        for (j, &xj) in x.iter().enumerate().skip(i + 1) {
            s -= l[(j, i)] * xj;
        }
        x[i] = s / l[(i, i)];
    }
    x
}

fn oracle_lr_loss(
    c: &LogisticRegressionConfig,
    x: &Matrix,
    y: &[f64],
    w: &[f64],
    beta: &[f64],
    b0: f64,
    wsum: f64,
) -> f64 {
    let mut nll = 0.0;
    for ((row, &yi), &wi) in x.iter_rows().zip(y).zip(w) {
        let z = cf_linalg::vector::dot(beta, row) + b0;
        let log_p = -((-z).exp().ln_1p());
        let log_1p = -(z.exp().ln_1p());
        let (log_p, log_1p) = if z > 35.0 {
            (0.0, -z)
        } else if z < -35.0 {
            (z, 0.0)
        } else {
            (log_p, log_1p)
        };
        nll -= wi * (yi * log_p + (1.0 - yi) * log_1p);
    }
    let reg = 0.5 * c.l2 * cf_linalg::vector::dot(beta, beta);
    nll / wsum + reg
}

/// The dense Newton fit: `(coefficients, intercept)`.
fn oracle_lr(x: &Matrix, y: &[f64], w: &[f64]) -> (Vec<f64>, f64) {
    let c = LogisticRegressionConfig::default();
    let wsum: f64 = w.iter().sum();
    let d = x.cols();
    let dim = d + 1;
    let mut theta = vec![0.0; dim];
    let mut prev_loss = oracle_lr_loss(&c, x, y, w, &theta[..d], theta[d], wsum);
    const HESS_RIDGE: f64 = 1e-8;
    for _ in 0..c.max_iter {
        let mut grad = vec![0.0; dim];
        let mut hess = Matrix::zeros(dim, dim);
        for ((row, &yi), &wi) in x.iter_rows().zip(y).zip(w) {
            let z = cf_linalg::vector::dot(&theta[..d], row) + theta[d];
            let p = sigmoid(z);
            let e = wi * (p - yi);
            cf_linalg::vector::axpy(e, row, &mut grad[..d]);
            grad[d] += e;
            let hw = (wi * p * (1.0 - p)).max(0.0);
            if hw == 0.0 {
                continue;
            }
            for i in 0..d {
                let hi = hw * row[i];
                if hi == 0.0 {
                    continue;
                }
                let hrow = hess.row_mut(i);
                for j in i..d {
                    hrow[j] += hi * row[j];
                }
                hrow[d] += hi;
            }
            hess[(d, d)] += hw;
        }
        for i in 0..d {
            grad[i] = grad[i] / wsum + c.l2 * theta[i];
        }
        grad[d] /= wsum;
        for i in 0..dim {
            for j in i..dim {
                let v = hess[(i, j)] / wsum;
                hess[(i, j)] = v;
                hess[(j, i)] = v;
            }
        }
        for i in 0..d {
            hess[(i, i)] += c.l2;
        }
        hess[(d, d)] += HESS_RIDGE;
        for i in 0..dim {
            hess[(i, i)] += HESS_RIDGE;
        }
        let Some(l) = oracle_cholesky(&hess) else {
            break;
        };
        let step = oracle_solve(&l, &grad);
        let mut accepted = false;
        let mut scale = 1.0;
        for _ in 0..30 {
            let mut cand = theta.clone();
            for (t, s) in cand.iter_mut().zip(&step) {
                *t -= scale * s;
            }
            let cand_loss = oracle_lr_loss(&c, x, y, w, &cand[..d], cand[d], wsum);
            if cand_loss <= prev_loss {
                let improvement = prev_loss - cand_loss;
                theta = cand;
                prev_loss = cand_loss;
                accepted = true;
                if improvement < c.tol {
                    return (theta[..d].to_vec(), theta[d]);
                }
                break;
            }
            scale *= 0.5;
        }
        if !accepted {
            break;
        }
    }
    (theta[..d].to_vec(), theta[d])
}

fn assert_lr_exact(x: &Matrix, y: &[f64], w: Option<&[f64]>, what: &str) {
    let uniform = vec![1.0; x.rows()];
    let (coef, intercept) = oracle_lr(x, y, w.unwrap_or(&uniform));
    let mut lr = LogisticRegression::default();
    lr.fit(x, y, w).unwrap();
    let bits = |v: &[f64]| v.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(lr.coefficients()), bits(&coef), "{what}: coefficients");
    assert_eq!(
        lr.intercept().to_bits(),
        intercept.to_bits(),
        "{what}: intercept"
    );
}

// ---------------------------------------------------------------------
// Oracle 2: gradient boosting over the tree builder that re-sorts every
// feature at every node.
// ---------------------------------------------------------------------

enum Node {
    Leaf(f64),
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
}

struct OracleTree {
    nodes: Vec<Node>,
    root: usize,
}

impl OracleTree {
    fn predict_row(&self, row: &[f64]) -> f64 {
        let mut node = self.root;
        loop {
            match &self.nodes[node] {
                Node::Leaf(w) => return *w,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    node = if row[*feature] < *threshold {
                        *left
                    } else {
                        *right
                    }
                }
            }
        }
    }
}

fn oracle_build(
    x: &Matrix,
    grad: &[f64],
    hess: &[f64],
    rows: Vec<usize>,
    depth_left: usize,
    c: &GbtConfig,
    nodes: &mut Vec<Node>,
) -> usize {
    let g_total: f64 = rows.iter().map(|&i| grad[i]).sum();
    let h_total: f64 = rows.iter().map(|&i| hess[i]).sum();
    let make_leaf = |nodes: &mut Vec<Node>| {
        nodes.push(Node::Leaf(-g_total / (h_total + c.lambda)));
        nodes.len() - 1
    };
    if depth_left == 0 || rows.len() < 2 {
        return make_leaf(nodes);
    }
    let parent_score = g_total * g_total / (h_total + c.lambda);
    let mut best: Option<(f64, usize, f64)> = None;
    let mut sorted: Vec<(f64, f64, f64)> = Vec::with_capacity(rows.len());
    for feature in 0..x.cols() {
        sorted.clear();
        sorted.extend(rows.iter().map(|&i| (x[(i, feature)], grad[i], hess[i])));
        sorted.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("NaN feature value"));
        let mut g_left = 0.0;
        let mut h_left = 0.0;
        for k in 0..sorted.len() - 1 {
            g_left += sorted[k].1;
            h_left += sorted[k].2;
            if sorted[k].0 == sorted[k + 1].0 {
                continue;
            }
            let h_right = h_total - h_left;
            if h_left < c.min_child_weight || h_right < c.min_child_weight {
                continue;
            }
            let g_right = g_total - g_left;
            let gain = 0.5
                * (g_left * g_left / (h_left + c.lambda)
                    + g_right * g_right / (h_right + c.lambda)
                    - parent_score)
                - c.gamma;
            if gain > best.map_or(0.0, |b| b.0) {
                best = Some((gain, feature, 0.5 * (sorted[k].0 + sorted[k + 1].0)));
            }
        }
    }
    let Some((_, feature, threshold)) = best else {
        return make_leaf(nodes);
    };
    let (left_rows, right_rows): (Vec<usize>, Vec<usize>) =
        rows.into_iter().partition(|&i| x[(i, feature)] < threshold);
    let left = oracle_build(x, grad, hess, left_rows, depth_left - 1, c, nodes);
    let right = oracle_build(x, grad, hess, right_rows, depth_left - 1, c, nodes);
    nodes.push(Node::Split {
        feature,
        threshold,
        left,
        right,
    });
    nodes.len() - 1
}

/// The boosting loop over the oracle builder: the fitted trees and base
/// score.
fn oracle_gbt(x: &Matrix, y: &[f64], w: &[f64], c: &GbtConfig) -> (Vec<OracleTree>, f64) {
    let n = x.rows();
    let wsum: f64 = w.iter().sum();
    let pos_rate =
        (y.iter().zip(w).map(|(&yi, &wi)| yi * wi).sum::<f64>() / wsum).clamp(1e-6, 1.0 - 1e-6);
    let base = (pos_rate / (1.0 - pos_rate)).ln();
    let mut margins = vec![base; n];
    let mut grad = vec![0.0; n];
    let mut hess = vec![0.0; n];
    let mut rng = StdRng::seed_from_u64(c.seed);
    let mut row_pool: Vec<usize> = (0..n).collect();
    let mut trees = Vec::new();
    for _ in 0..c.n_rounds {
        for i in 0..n {
            let p = sigmoid(margins[i]);
            grad[i] = w[i] * (p - y[i]);
            hess[i] = (w[i] * p * (1.0 - p)).max(1e-16);
        }
        let (g, h) = if c.subsample < 1.0 {
            row_pool.shuffle(&mut rng);
            let kept = ((n as f64) * c.subsample).ceil() as usize;
            let mut g2 = vec![0.0; n];
            let mut h2 = vec![1e-16; n];
            for &i in &row_pool[..kept] {
                g2[i] = grad[i];
                h2[i] = hess[i];
            }
            (g2, h2)
        } else {
            (grad.clone(), hess.clone())
        };
        let mut nodes = Vec::new();
        let root = oracle_build(x, &g, &h, (0..n).collect(), c.max_depth, c, &mut nodes);
        let tree = OracleTree { nodes, root };
        let deltas: Vec<f64> = x.iter_rows().map(|r| tree.predict_row(r)).collect();
        if deltas.iter().fold(0.0_f64, |m, &d| m.max(d.abs())) < 1e-12 {
            break;
        }
        for (m, d) in margins.iter_mut().zip(&deltas) {
            *m += c.eta * d;
        }
        trees.push(tree);
    }
    (trees, base)
}

/// The fitted ensemble's margins on the training rows and on `probe` (new
/// rows, which also pin the split thresholds) match the oracle's bit for
/// bit, with the same number of trees.
fn assert_gbt_exact(
    x: &Matrix,
    y: &[f64],
    w: Option<&[f64]>,
    probe: &Matrix,
    c: GbtConfig,
    what: &str,
) {
    let uniform = vec![1.0; x.rows()];
    let (trees, base) = oracle_gbt(x, y, w.unwrap_or(&uniform), &c);
    let mut gbt = Gbt::new(c);
    gbt.fit(x, y, w).unwrap();
    assert_eq!(gbt.n_trees(), trees.len(), "{what}: tree count");
    for (m, name) in [(x, "training"), (probe, "probe")] {
        let got = gbt.predict_margin(m).unwrap();
        for (i, (row, g)) in m.iter_rows().zip(&got).enumerate() {
            let mut want = base;
            for t in &trees {
                want += c.eta * t.predict_row(row);
            }
            assert_eq!(g.to_bits(), want.to_bits(), "{what}: {name} row {i}");
        }
    }
}

// ---------------------------------------------------------------------
// Inputs.
// ---------------------------------------------------------------------

/// A small draw of a simulated dataset, split the paper's way and encoded:
/// training features and labels, ConFair's weights at every default α,
/// and the encoded test split as a probe.
fn encoded(name: &str, seed: u64) -> (Matrix, Vec<f64>, Vec<Vec<f64>>, Matrix) {
    let spec = RealWorldSpec::by_name(name).expect("known dataset");
    let data = spec.generate_scaled(800.0 / spec.n as f64, seed);
    let split = split3(&data, SplitRatios::paper_default(), seed);
    let (encoding, x) = FeatureEncoding::fit_transform(&split.train);
    let y = labels_as_f64(&split.train);
    let cfg = ConFairConfig::default();
    let profile = build_profile(
        &split.train,
        cfg.target,
        cfg.density_filter,
        &cfg.learn_opts,
    )
    .expect("profile");
    let weights = default_alpha_grid()
        .into_iter()
        .map(|a| profile.weights(a, a / 2.0))
        .collect();
    let probe = encoding.transform(&split.test).expect("encode test split");
    (x, y, weights, probe)
}

/// Small GBT ensembles keep the debug-build oracle quick; depth 4 still
/// takes every node through the partition path.
fn small_gbt() -> GbtConfig {
    GbtConfig {
        n_rounds: 8,
        ..GbtConfig::default()
    }
}

/// A dense random problem with the awkward features: a constant column,
/// an all-zero column, a heavily tied column (four levels), a negative
/// column and a column mixing `-0.0` and `+0.0`.
fn awkward(n: usize, seed: u64) -> (Matrix, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut data = Vec::with_capacity(n * 7);
    let mut y = Vec::with_capacity(n);
    for _ in 0..n {
        let a: f64 = rng.gen_range(0.0..1.0);
        let tie = f64::from(rng.gen_range(0u8..4)) / 3.0;
        let neg: f64 = rng.gen_range(-5.0..-1.0);
        let zeros = if rng.gen_bool(0.5) { -0.0 } else { 0.0 };
        let sparse = if rng.gen_bool(0.7) { 0.0 } else { 1.0 };
        data.extend_from_slice(&[a, 0.75, 0.0, tie, neg, zeros, sparse]);
        let logit = 2.0 * a - tie + 0.3 * (neg + 3.0) + sparse - 0.5;
        y.push(f64::from(u8::from(
            rng.gen_range(0.0..1.0) < sigmoid(logit),
        )));
    }
    (Matrix::from_vec(n, 7, data), y)
}

// ---------------------------------------------------------------------
// Tests.
// ---------------------------------------------------------------------

#[test]
fn lr_matches_dense_newton_on_simulated_datasets_across_the_alpha_grid() {
    for (k, name) in ["MEPS", "ACSI", "LSAC"].into_iter().enumerate() {
        let (x, y, weights, _) = encoded(name, 11 + k as u64);
        for (a, w) in weights.iter().enumerate() {
            assert_lr_exact(&x, &y, Some(w), &format!("{name} alpha #{a}"));
        }
        assert_lr_exact(&x, &y, None, &format!("{name} unweighted"));
    }
}

#[test]
fn gbt_matches_sort_per_node_builder_on_simulated_datasets() {
    for (k, name) in ["MEPS", "ACSI", "LSAC"].into_iter().enumerate() {
        let (x, y, weights, probe) = encoded(name, 21 + k as u64);
        // The grid's ends and middle: unboosted, moderate, extreme.
        for a in [0, 4, 10] {
            let what = format!("{name} alpha #{a}");
            assert_gbt_exact(&x, &y, Some(&weights[a]), &probe, small_gbt(), &what);
        }
    }
}

#[test]
fn full_default_gbt_matches_on_lsac() {
    let (x, y, weights, probe) = encoded("LSAC", 5);
    assert_gbt_exact(
        &x,
        &y,
        Some(&weights[3]),
        &probe,
        GbtConfig::default(),
        "LSAC default config",
    );
}

#[test]
fn zero_weights_are_exact() {
    let (x, y, weights, probe) = encoded("MEPS", 3);
    let mut w = weights[5].clone();
    for v in w.iter_mut().step_by(3) {
        *v = 0.0;
    }
    assert_lr_exact(&x, &y, Some(&w), "MEPS with zero weights");
    assert_gbt_exact(&x, &y, Some(&w), &probe, small_gbt(), "MEPS zero weights");
}

#[test]
fn awkward_columns_are_exact() {
    let (x, y) = awkward(300, 7);
    let (probe, _) = awkward(80, 8);
    assert_lr_exact(&x, &y, None, "awkward columns");
    let w: Vec<f64> = (0..x.rows()).map(|i| 0.5 + (i % 5) as f64).collect();
    assert_lr_exact(&x, &y, Some(&w), "awkward columns, weighted");
    assert_gbt_exact(&x, &y, None, &probe, small_gbt(), "awkward columns");
    let tight = GbtConfig {
        min_child_weight: 0.0,
        lambda: 0.0,
        max_depth: 6,
        ..small_gbt()
    };
    assert_gbt_exact(&x, &y, Some(&w), &probe, tight, "awkward, deep, no floor");
}

#[test]
fn single_class_labels_are_exact() {
    let (x, _) = awkward(120, 9);
    for label in [0.0, 1.0] {
        let y = vec![label; x.rows()];
        assert_lr_exact(&x, &y, None, &format!("all {label}"));
        assert_gbt_exact(&x, &y, None, &x, small_gbt(), &format!("all {label}"));
    }
}

#[test]
fn subsampled_gbt_is_exact() {
    let (x, y, weights, probe) = encoded("ACSI", 4);
    for seed in [0, 17] {
        let c = GbtConfig {
            subsample: 0.7,
            seed,
            ..small_gbt()
        };
        assert_gbt_exact(&x, &y, Some(&weights[2]), &probe, c, "ACSI subsample");
    }
    let (x, y) = awkward(200, 10);
    let c = GbtConfig {
        subsample: 0.5,
        seed: 3,
        ..small_gbt()
    };
    assert_gbt_exact(&x, &y, None, &x, c, "awkward subsample");
}

#[test]
fn tied_values_are_scanned_in_ascending_row_order() {
    // Gradients of ±1e16 next to small ones make a split's left sum
    // depend on the order rows are added within a run of tied values
    // ((1e16 + 1) − 1e16 is 0, (1e16 − 1e16) + 1 is 1). Only the per-node
    // sort's order — by value, ties in ascending row order — reproduces
    // the oracle's gains, and so its splits.
    let params = TreeParams {
        max_depth: 3,
        lambda: 1.0,
        gamma: 0.0,
        min_child_weight: 0.0,
    };
    let oracle_params = GbtConfig {
        max_depth: 3,
        lambda: 1.0,
        gamma: 0.0,
        min_child_weight: 0.0,
        ..GbtConfig::default()
    };
    for seed in 0..20 {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 96;
        let data: Vec<f64> = (0..n * 2)
            .map(|_| f64::from(rng.gen_range(0u8..4)))
            .collect();
        let x = Matrix::from_vec(n, 2, data);
        let grad: Vec<f64> = (0..n)
            .map(|_| match rng.gen_range(0u8..4) {
                0 => 1e16,
                1 => -1e16,
                2 => 1.0,
                _ => -3.0,
            })
            .collect();
        let hess = vec![1.0; n];
        let tree = RegressionTree::fit(&x, &grad, &hess, &params);
        let mut nodes = Vec::new();
        let root = oracle_build(
            &x,
            &grad,
            &hess,
            (0..n).collect(),
            3,
            &oracle_params,
            &mut nodes,
        );
        let oracle = OracleTree { nodes, root };
        for (i, row) in x.iter_rows().enumerate() {
            assert_eq!(
                tree.predict_row(row).to_bits(),
                oracle.predict_row(row).to_bits(),
                "seed {seed} row {i}"
            );
        }
    }
}
