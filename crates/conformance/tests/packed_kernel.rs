//! Exactness of the packed constraint-set kernel.
//!
//! The oracle is the per-projection sum `Σᵢ qᵢ·ϕᵢ.violation(t)`, summed
//! i-ascending — the definition of paper Eq. 1 evaluated one projection
//! at a time. `ConstraintSet::violation` must reproduce its bits and
//! `ConstraintSet::exceeds(t, ε)` must equal `oracle > ε`, for every set
//! width `r` and tuple width `d` in `1..=20` (so every remainder of the
//! kernel's projection blocks), degenerate σ, and non-finite features;
//! and it must keep doing so after `recompute_stds` and after a JSON
//! round trip, which rebuilds the packed block.

use cf_conformance::{ConstraintSet, Projection};
use cf_linalg::Matrix;
use rand::{rngs::StdRng, Rng, SeedableRng};

const EPSILONS: [f64; 5] = [0.0, 1e-9, 0.5, 1.0, -1.0];
const PROBES: usize = 24;

fn oracle(set: &ConstraintSet, t: &[f64]) -> f64 {
    set.projections()
        .iter()
        .map(|p| p.importance * p.violation(t))
        .sum()
}

/// A random set of `r` projections of width `d`: some zero coefficients
/// (so `0·∞` reaches the sums), some σ = 0 (the `MIN_SIGMA` guard), some
/// zero importances.
fn random_set(rng: &mut StdRng, r: usize, d: usize) -> ConstraintSet {
    let projections = (0..r)
        .map(|j| {
            let coeffs = (0..d)
                .map(|_| {
                    if rng.gen_bool(0.15) {
                        0.0
                    } else {
                        rng.gen_range(-1.0..1.0)
                    }
                })
                .collect();
            let centre = rng.gen_range(-2.0..2.0);
            let half_width = rng.gen_range(0.0..3.0);
            Projection {
                coeffs,
                lb: centre - half_width,
                ub: centre + half_width,
                std: if rng.gen_bool(0.2) {
                    0.0
                } else {
                    rng.gen_range(0.01..2.0)
                },
                // At least one positive weight per set.
                importance: if j > 0 && rng.gen_bool(0.1) {
                    0.0
                } else {
                    rng.gen_range(0.1..5.0)
                },
            }
        })
        .collect();
    ConstraintSet::new(projections)
}

/// A tuple of width `d` at one of several scales (the zero tuple and
/// small ones sit inside most bounds, large ones outside), with some
/// entries replaced by NaN, ±∞ or ±1e300.
fn random_tuple(rng: &mut StdRng, d: usize) -> Vec<f64> {
    let scale = [0.0, 0.1, 1.0, 10.0][rng.gen_range(0..4usize)];
    (0..d)
        .map(|_| match rng.gen_range(0..40usize) {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 => 1e300,
            4 => -1e300,
            _ => scale * rng.gen_range(-1.0..1.0),
        })
        .collect()
}

fn assert_exact(set: &ConstraintSet, t: &[f64], what: &str) {
    let want = oracle(set, t);
    let got = set.violation(t);
    assert_eq!(
        got.to_bits(),
        want.to_bits(),
        "{what}: violation {got:e} != oracle {want:e} for r={} t={t:?}",
        set.len()
    );
    for eps in EPSILONS {
        assert_eq!(
            set.exceeds(t, eps),
            want > eps,
            "{what}: exceeds(ε={eps}) disagrees with oracle {want:e} for r={} t={t:?}",
            set.len()
        );
    }
}

#[test]
fn packed_kernel_is_bit_identical_to_per_projection_sum() {
    let (mut inside, mut outside) = (0usize, 0usize);
    for r in 1..=20 {
        for d in 1..=20 {
            let mut rng = StdRng::seed_from_u64((r * 100 + d) as u64);
            let mut set = random_set(&mut rng, r, d);
            let probes: Vec<Vec<f64>> = (0..PROBES).map(|_| random_tuple(&mut rng, d)).collect();
            for t in &probes {
                assert_exact(&set, t, "fresh");
                if oracle(&set, t) == 0.0 {
                    inside += 1;
                } else {
                    outside += 1;
                }
            }

            let wide =
                Matrix::from_vec(8, d, (0..8 * d).map(|_| rng.gen_range(-4.0..4.0)).collect());
            set.recompute_stds(&wide);
            for t in &probes {
                assert_exact(&set, t, "after recompute_stds");
            }

            let json = serde_json::to_string(&set).expect("serialise");
            let back: ConstraintSet = serde_json::from_str(&json).expect("deserialise");
            assert_eq!(back, set, "round trip rebuilds an equal set (r={r}, d={d})");
            for t in &probes {
                assert_exact(&back, t, "after round trip");
            }
        }
    }
    // Both sides of the bounds-first branch were exercised.
    assert!(
        inside > 1000 && outside > 1000,
        "{inside} inside, {outside} outside"
    );
}

#[test]
fn deserialise_rejects_mixed_widths_and_negative_zero_weights() {
    let good = |coeffs: Vec<f64>, importance: f64| Projection {
        coeffs,
        lb: -1.0,
        ub: 1.0,
        std: 1.0,
        importance,
    };
    let doc = |ps: Vec<Projection>| {
        format!(
            "{{\"projections\":{}}}",
            serde_json::to_string(&ps).expect("serialise")
        )
    };
    let mixed = doc(vec![good(vec![1.0, 0.0], 0.5), good(vec![1.0], 0.5)]);
    assert!(serde_json::from_str::<ConstraintSet>(&mixed).is_err());
    let ok = doc(vec![good(vec![1.0, 0.0], 0.5), good(vec![0.0, 1.0], 0.5)]);
    assert!(serde_json::from_str::<ConstraintSet>(&ok).is_ok());
    // The kernel drops `+0.0` terms; a `-0.0` weight would make that
    // visible in the sign of a zero violation.
    let negative_zero = ok.replacen("0.5", "-0.0", 1);
    assert!(serde_json::from_str::<ConstraintSet>(&negative_zero).is_err());
}

#[test]
#[should_panic(expected = "same dimension")]
fn new_rejects_mixed_widths() {
    let p = |coeffs: Vec<f64>| Projection {
        coeffs,
        lb: 0.0,
        ub: 1.0,
        std: 1.0,
        importance: 1.0,
    };
    let _ = ConstraintSet::new(vec![p(vec![1.0, 0.0]), p(vec![1.0])]);
}

#[test]
#[should_panic(expected = "finite mass")]
fn new_rejects_infinite_importance() {
    let p = |importance: f64| Projection {
        coeffs: vec![1.0],
        lb: 0.0,
        ub: 1.0,
        std: 1.0,
        importance,
    };
    let _ = ConstraintSet::new(vec![p(1.0), p(f64::INFINITY)]);
}
