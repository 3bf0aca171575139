//! Conjunctive constraint sets `Φ` and collections `C` of them.

use crate::projection::Projection;

/// Projections one kernel pass evaluates together: the pass keeps this
/// many independent accumulators on the stack and streams the tuple once.
const BLOCK: usize = 8;

/// A conjunction `Φ = ϕ₁ ∧ … ∧ ϕᵣ` with quantitative violation semantics.
///
/// Importance weights are normalised at construction so `Σ qᵢ = 1`, making
/// the set violation `⟦Φ⟧(t) = Σ qᵢ·⟦ϕᵢ⟧(t)` a convex combination in `[0, 1]`
/// (1 is reached only when every conjunct's violation saturates).
///
/// Every projection must have the same dimension `d`. Construction packs
/// the projections into d-major blocks, so a violation check is one
/// `O(r·d)` pass over the tuple with no allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct ConstraintSet {
    projections: Vec<Projection>,
    /// The kernel's copy of the projections, [`BLOCK`] at a time: per
    /// block a row of lower bounds, a row of upper bounds, then `d` rows
    /// of coefficients, row `k` holding coefficient `k` of each of the
    /// block's projections. Padding lanes are all zero, so their sums
    /// (±0 or NaN) never fall outside their `[0, 0]` bounds. Derived from
    /// `projections`, never serialised.
    packed: Vec<[f64; BLOCK]>,
}

impl ConstraintSet {
    /// Build a set, normalising the importance weights to sum to 1.
    /// Non-positive (and NaN) weights become `+0.0`.
    ///
    /// # Panics
    /// Panics if `projections` is empty, if importances are all
    /// non-positive or sum to infinity, or if the projections differ in
    /// dimension.
    pub fn new(mut projections: Vec<Projection>) -> Self {
        assert!(!projections.is_empty(), "a constraint set cannot be empty");
        let positive = |q: f64| if q > 0.0 { q } else { 0.0 };
        let total: f64 = projections.iter().map(|p| positive(p.importance)).sum();
        assert!(
            total > 0.0 && total.is_finite(),
            "importance weights must have positive, finite mass"
        );
        for p in &mut projections {
            p.importance = positive(p.importance) / total;
        }
        Self::packed(projections).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Pack validated, normalised projections into the kernel's blocks.
    fn packed(projections: Vec<Projection>) -> Result<Self, &'static str> {
        let d = projections[0].coeffs.len();
        if projections.iter().any(|p| p.coeffs.len() != d) {
            return Err("every projection of a constraint set must have the same dimension");
        }
        let mut packed = vec![[0.0; BLOCK]; (d + 2) * projections.len().div_ceil(BLOCK)];
        for (j, p) in projections.iter().enumerate() {
            let (block, lane) = (&mut packed[(j / BLOCK) * (d + 2)..], j % BLOCK);
            block[0][lane] = p.lb;
            block[1][lane] = p.ub;
            for (row, &c) in block[2..].iter_mut().zip(&p.coeffs) {
                row[lane] = c;
            }
        }
        Ok(Self {
            projections,
            packed,
        })
    }

    /// The constraints in this set.
    pub fn projections(&self) -> &[Projection] {
        &self.projections
    }

    /// Number of conjuncts `r`.
    pub fn len(&self) -> usize {
        self.projections.len()
    }

    /// Whether the set is empty (never true post-construction).
    pub fn is_empty(&self) -> bool {
        self.projections.is_empty()
    }

    /// Quantitative violation `⟦Φ⟧(t) ∈ [0, 1]` (paper Eq. 1), in one
    /// `O(r·d)` pass.
    ///
    /// Bit-identical to `Σᵢ qᵢ·ϕᵢ.violation(t)` summed i-ascending (what
    /// `Iterator::sum` computes, from `-0.0`):
    /// - Each `Fᵢ(t)` is still one k-ascending sum from `-0.0`, as in
    ///   `vector::dot`; the kernel only runs eight of them side by
    ///   side, as independent accumulators, so their add chains overlap.
    /// - The weighted sum starts at `+0.0` and skips every block whose
    ///   projections all sit inside their bounds, after one comparison
    ///   per lane. A skipped term is `qᵢ·0.0 = +0.0`, as importances are
    ///   finite and at least `+0.0`; every other term is `+0.0`, positive
    ///   or NaN. So no partial sum of either is `-0.0` after the first
    ///   term, and adding `+0.0` to such a sum leaves its bits unchanged.
    ///
    /// A tuple of the wrong width is truncated to the shorter of the two,
    /// like `vector::dot`.
    pub fn violation(&self, t: &[f64]) -> f64 {
        let rows = self.projections[0].coeffs.len() + 2;
        let mut sum = 0.0;
        for (block, ps) in self
            .packed
            .chunks_exact(rows)
            .zip(self.projections.chunks(BLOCK))
        {
            let (bounds, coeffs) = block.split_at(2);
            let mut acc = [-0.0f64; BLOCK];
            for (row, &x) in coeffs.iter().zip(t) {
                for (a, &c) in acc.iter_mut().zip(row) {
                    *a += c * x;
                }
            }
            // `f < lb || f > ub` is exactly `distance_at(f) != 0.0`; a
            // NaN `f` is inside either way.
            let outside = (acc.iter().zip(&bounds[0]).zip(&bounds[1]))
                .fold(false, |out, ((&f, &lb), &ub)| out | (f < lb) | (f > ub));
            if outside {
                for (p, &f) in ps.iter().zip(&acc) {
                    sum += p.importance * p.violation_at(f);
                }
            }
        }
        sum
    }

    /// `self.violation(t) > eps` — the per-tuple conformance check of a
    /// stream monitor. Most served tuples sit inside every bound, and for
    /// them this costs the projections and one comparison per projection.
    pub fn exceeds(&self, t: &[f64], eps: f64) -> bool {
        self.violation(t) > eps
    }

    /// Boolean semantics: `Φ(t) = 1` iff every conjunct holds.
    pub fn satisfied(&self, t: &[f64]) -> bool {
        self.projections.iter().all(|p| p.satisfied(t))
    }

    /// Mean violation over the rows of a matrix (reported in Example 6).
    pub fn mean_violation(&self, x: &cf_linalg::Matrix) -> f64 {
        if x.rows() == 0 {
            return 0.0;
        }
        x.iter_rows().map(|row| self.violation(row)).sum::<f64>() / x.rows() as f64
    }

    /// Recompute each projection's `σ(Fᵢ)` over the rows of `x`, keeping the
    /// bounds untouched.
    ///
    /// Used by DiffFair after Algorithm-3 filtering: bounds come from the
    /// dense core `D′`, but scaling the violation by the *full* cell's
    /// projection spread keeps `⟦Φ⟧` discriminative far from the core
    /// (σ from the tiny filtered subset saturates `η` within a fraction of a
    /// cluster width, making distant tuples all look equally violating).
    pub fn recompute_stds(&mut self, x: &cf_linalg::Matrix) {
        for p in &mut self.projections {
            let values: Vec<f64> = x
                .iter_rows()
                .map(|row| cf_linalg::vector::dot(&p.coeffs, row))
                .collect();
            let std = cf_linalg::vector::std_dev(&values);
            if std > 0.0 {
                p.std = std;
            }
        }
    }

    /// Render each conjunct on its own line (Example 6 style).
    pub fn display_with(&self, attr_names: &[String]) -> String {
        self.projections
            .iter()
            .map(|p| p.display_with(attr_names))
            .collect::<Vec<_>>()
            .join("\n")
    }
}

// Manual serde impls: deserialisation must *not* route through
// [`ConstraintSet::new`], whose importance re-normalisation divides by a sum
// that is only approximately 1 — that ulp-level drift would break the
// bit-identical restore contract checkpointing relies on. The stored
// (already normalised) importances are reinstated verbatim.
impl serde::Serialize for ConstraintSet {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![("projections".into(), self.projections.to_value())])
    }
}

impl serde::Deserialize for ConstraintSet {
    fn from_value(v: &serde::Value) -> std::result::Result<Self, serde::Error> {
        let projections: Vec<Projection> =
            serde::Deserialize::from_value(v.get_or_err("projections")?)?;
        if projections.is_empty() {
            return Err(serde::Error::msg("a constraint set cannot be empty"));
        }
        // The kernel's exactness rests on finite importances of at least
        // +0.0 (see `ConstraintSet::violation`), which `new` guarantees.
        if projections
            .iter()
            .any(|p| !(p.importance.is_finite() && p.importance.is_sign_positive()))
        {
            return Err(serde::Error::msg(
                "constraint importances must be finite and non-negative",
            ));
        }
        ConstraintSet::packed(projections).map_err(serde::Error::msg)
    }
}

/// A collection `C` of constraint sets — e.g. one `Φ` per label class within
/// a group, as Algorithm 1 builds (`Cw`, `Cu`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ConstraintFamily {
    sets: Vec<ConstraintSet>,
}

impl ConstraintFamily {
    /// An empty family (sets added with [`ConstraintFamily::push`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from existing sets.
    pub fn from_sets(sets: Vec<ConstraintSet>) -> Self {
        Self { sets }
    }

    /// Add a set (Algorithm 1 line 8: `C ← C ∪ Φ`).
    pub fn push(&mut self, set: ConstraintSet) {
        self.sets.push(set);
    }

    /// The member sets.
    pub fn sets(&self) -> &[ConstraintSet] {
        &self.sets
    }

    /// Number of member sets.
    pub fn len(&self) -> usize {
        self.sets.len()
    }

    /// Whether the family holds no sets.
    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }

    /// `v(t) = min_{Φ ∈ C} ⟦Φ⟧(t)` — Algorithm 1 lines 15–16. Returns
    /// `f64::INFINITY` for an empty family so an absent group never wins
    /// the model-selection comparison.
    pub fn min_violation(&self, t: &[f64]) -> f64 {
        self.sets
            .iter()
            .map(|s| s.violation(t))
            .fold(f64::INFINITY, f64::min)
    }

    /// Index of the set with minimal violation (`None` when empty).
    pub fn argmin_violation(&self, t: &[f64]) -> Option<usize> {
        let violations: Vec<f64> = self.sets.iter().map(|s| s.violation(t)).collect();
        cf_linalg::vector::argmin(&violations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn proj(coeffs: Vec<f64>, lb: f64, ub: f64, std: f64, importance: f64) -> Projection {
        Projection {
            coeffs,
            lb,
            ub,
            std,
            importance,
        }
    }

    #[test]
    fn importance_normalised_at_construction() {
        let s = ConstraintSet::new(vec![
            proj(vec![1.0, 0.0], 0.0, 1.0, 0.1, 3.0),
            proj(vec![0.0, 1.0], 0.0, 1.0, 0.1, 1.0),
        ]);
        let q: Vec<f64> = s.projections().iter().map(|p| p.importance).collect();
        assert!((q[0] - 0.75).abs() < 1e-12);
        assert!((q[1] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn violation_is_weighted_sum() {
        let s = ConstraintSet::new(vec![
            proj(vec![1.0, 0.0], 0.0, 1.0, 0.5, 1.0),
            proj(vec![0.0, 1.0], 0.0, 1.0, 0.5, 1.0),
        ]);
        // Point (2, 0.5): first constraint violated (dist 1), second satisfied.
        let expected = 0.5 * (1.0 - (-1.0 / 0.5_f64).exp());
        assert!((s.violation(&[2.0, 0.5]) - expected).abs() < 1e-12);
        assert!(!s.satisfied(&[2.0, 0.5]));
        assert!(s.satisfied(&[0.5, 0.5]));
    }

    #[test]
    fn violation_in_unit_interval() {
        let s = ConstraintSet::new(vec![
            proj(vec![1.0], 0.0, 1.0, 0.001, 1.0),
            proj(vec![-1.0], -1.0, 0.0, 0.001, 1.0),
        ]);
        let v = s.violation(&[1e9]);
        assert!((0.0..=1.0).contains(&v));
        assert!(v > 0.99);
        assert_eq!(s.violation(&[0.5]), 0.0);
    }

    #[test]
    fn mean_violation_averages() {
        let s = ConstraintSet::new(vec![proj(vec![1.0], 0.0, 1.0, 1.0, 1.0)]);
        let x = cf_linalg::Matrix::from_rows(&[vec![0.5], vec![2.0]]);
        let v_inside = 0.0;
        let v_outside = 1.0 - (-1.0_f64).exp();
        assert!((s.mean_violation(&x) - (v_inside + v_outside) / 2.0).abs() < 1e-12);
        assert_eq!(s.mean_violation(&cf_linalg::Matrix::zeros(0, 1)), 0.0);
    }

    #[test]
    fn family_min_violation_selects_best_set() {
        let a = ConstraintSet::new(vec![proj(vec![1.0], 0.0, 1.0, 1.0, 1.0)]);
        let b = ConstraintSet::new(vec![proj(vec![1.0], 10.0, 11.0, 1.0, 1.0)]);
        let fam = ConstraintFamily::from_sets(vec![a, b]);
        // 0.5 satisfies set 0; 10.5 satisfies set 1.
        assert_eq!(fam.min_violation(&[0.5]), 0.0);
        assert_eq!(fam.min_violation(&[10.5]), 0.0);
        assert_eq!(fam.argmin_violation(&[0.5]), Some(0));
        assert_eq!(fam.argmin_violation(&[10.5]), Some(1));
        // 5.5 violates both, min is positive.
        assert!(fam.min_violation(&[5.5]) > 0.0);
    }

    #[test]
    fn empty_family_never_wins() {
        let fam = ConstraintFamily::new();
        assert!(fam.is_empty());
        assert_eq!(fam.min_violation(&[0.0]), f64::INFINITY);
        assert_eq!(fam.argmin_violation(&[0.0]), None);
    }

    #[test]
    #[should_panic]
    fn empty_set_rejected() {
        let _ = ConstraintSet::new(vec![]);
    }

    #[test]
    fn recompute_stds_rescales_violation_not_bounds() {
        // Bounds from a tight core; σ rescaled on a wider population.
        let core = cf_linalg::Matrix::from_rows(&[vec![0.0], vec![0.1], vec![0.2]]);
        let wide = cf_linalg::Matrix::from_rows(&[vec![-3.0], vec![0.0], vec![3.0]]);
        let mut s = crate::learn::learn_constraints(&core, &crate::learn::LearnOptions::default());
        let before = s.violation(&[2.0]);
        let (lb, ub) = (s.projections()[0].lb, s.projections()[0].ub);
        s.recompute_stds(&wide);
        assert_eq!(s.projections()[0].lb, lb, "bounds unchanged");
        assert_eq!(s.projections()[0].ub, ub);
        let after = s.violation(&[2.0]);
        assert!(
            after < before,
            "wider σ saturates slower: {after} < {before}"
        );
        // Conformance (violation = 0) is unchanged inside the bounds.
        assert_eq!(s.violation(&[0.1]), 0.0);
        // Zero-variance rescale data leaves σ untouched.
        let constant = cf_linalg::Matrix::from_rows(&[vec![1.0], vec![1.0]]);
        let sigma = s.projections()[0].std;
        s.recompute_stds(&constant);
        assert_eq!(s.projections()[0].std, sigma);
    }

    #[test]
    fn example6_average_violations() {
        // Reproduce the spirit of Example 6: points inside the minority
        // constraint region have ⟦ϕu⟧ = 0 while ⟦ϕw⟧ > 0.
        let phi_w = ConstraintSet::new(vec![proj(vec![0.477, 0.265], 0.708, 0.902, 0.05, 1.0)]);
        let phi_u = ConstraintSet::new(vec![proj(vec![-0.519, -0.16], -0.912, -0.771, 0.05, 1.0)]);
        // The corner of the minority-positive dense region of Fig. 1
        // (X1 = 1.5, X2 = 0.8): F_w = 0.9275 > 0.902, F_u = -0.9065 within bounds.
        let t = [1.5, 0.8];
        assert_eq!(
            phi_u.violation(&t),
            0.0,
            "conforms to the minority constraints"
        );
        assert!(
            phi_w.violation(&t) > 0.0,
            "violates the majority constraints"
        );
    }
}
