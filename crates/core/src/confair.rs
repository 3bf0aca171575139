//! **Algorithm 2 — ConFair**: conformance-driven reweighing.
//!
//! The weight of a tuple `t` in cell (group `g`, label `c`) is
//!
//! ```text
//! S(t) = P(Y=c) · |D_g| / |D_{g,c}|          (skew balancing, line 5)
//!      + α_cell  if ⟦Φ_{g,c}⟧(t) = 0         (conformance boost, lines 8–11)
//! ```
//!
//! The first term is exactly the Kamiran–Calders balancing weight; the
//! second is the paper's novelty — only tuples that *conform* to the densest
//! region of their own cell are amplified, so outliers and noise are never
//! boosted. Which cells receive `α` depends on the fairness target
//! ([`FairnessTarget`]), mirroring §III-B's discussion of Equalized Odds.

use crate::{
    intervention::{Intervention, Predictor, SingleModelPredictor},
    tuning, CoreError, Result,
};
use cf_conformance::{learn_constraints, ConstraintSet, LearnOptions};
use cf_data::{CellIndex, Dataset, MAJORITY, MINORITY};
use cf_density::{density_filter, FilterConfig};
use cf_learners::LearnerKind;

/// A tuple conforms when its violation is numerically zero.
const CONFORMANCE_EPS: f64 = 1e-12;

/// Which fairness measure the `α` boosts optimise (§III-B, Fig. 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FairnessTarget {
    /// Disparate impact by selection rate: boost minority-positive
    /// conforming tuples by `α_u` and majority-negative by `α_w`.
    #[default]
    DisparateImpact,
    /// Equalized Odds by FNR: boost minority-positive conforming tuples only.
    EqOddsFnr,
    /// Equalized Odds by FPR: boost minority-negative conforming tuples only.
    EqOddsFpr,
}

impl FairnessTarget {
    /// The (group, label) cells receiving `α_u` and `α_w` respectively.
    /// `None` for the second slot means the target uses only `α_u`.
    pub fn boosted_cells(self) -> (CellIndex, Option<CellIndex>) {
        match self {
            FairnessTarget::DisparateImpact => (
                CellIndex {
                    group: MINORITY,
                    label: 1,
                },
                Some(CellIndex {
                    group: MAJORITY,
                    label: 0,
                }),
            ),
            FairnessTarget::EqOddsFnr => (
                CellIndex {
                    group: MINORITY,
                    label: 1,
                },
                None,
            ),
            FairnessTarget::EqOddsFpr => (
                CellIndex {
                    group: MINORITY,
                    label: 0,
                },
                None,
            ),
        }
    }

    /// Short label used in experiment output.
    pub fn label(self) -> &'static str {
        match self {
            FairnessTarget::DisparateImpact => "DI/SR",
            FairnessTarget::EqOddsFnr => "EqOdds-FNR",
            FairnessTarget::EqOddsFpr => "EqOdds-FPR",
        }
    }
}

/// How the intervention degree is chosen.
#[derive(Debug, Clone, PartialEq)]
pub enum AlphaMode {
    /// User-supplied degrees — the "flexible intervention" path, which also
    /// removes the retraining cost from the runtime (§IV-D).
    Fixed {
        /// Boost for the minority target cell.
        alpha_u: f64,
        /// Boost for the majority target cell (ignored by EqOdds targets).
        alpha_w: f64,
    },
    /// Validation-set search over a grid of `α_u` values, with
    /// `α_w = α_u / 2` for the DI target (§IV "Algorithm parameters").
    Auto {
        /// Candidate `α_u` values, scanned in order.
        grid: Vec<f64>,
    },
}

impl Default for AlphaMode {
    fn default() -> Self {
        AlphaMode::Auto {
            grid: default_alpha_grid(),
        }
    }
}

// Manual serde impls for the two enums (the derive shim covers only plain
// structs): `FairnessTarget` as its paper label, `AlphaMode` as a
// single-variant-keyed object.
impl serde::Serialize for FairnessTarget {
    fn to_value(&self) -> serde::Value {
        serde::Value::String(self.label().into())
    }
}

impl serde::Deserialize for FairnessTarget {
    fn from_value(v: &serde::Value) -> std::result::Result<Self, serde::Error> {
        match v.as_str() {
            Some("DI/SR") => Ok(FairnessTarget::DisparateImpact),
            Some("EqOdds-FNR") => Ok(FairnessTarget::EqOddsFnr),
            Some("EqOdds-FPR") => Ok(FairnessTarget::EqOddsFpr),
            _ => Err(serde::Error::msg("unknown fairness target")),
        }
    }
}

impl serde::Serialize for AlphaMode {
    fn to_value(&self) -> serde::Value {
        match self {
            AlphaMode::Fixed { alpha_u, alpha_w } => serde::Value::Object(vec![(
                "fixed".into(),
                serde::Value::Object(vec![
                    ("alpha_u".into(), alpha_u.to_value()),
                    ("alpha_w".into(), alpha_w.to_value()),
                ]),
            )]),
            AlphaMode::Auto { grid } => {
                serde::Value::Object(vec![("auto".into(), grid.to_value())])
            }
        }
    }
}

impl serde::Deserialize for AlphaMode {
    fn from_value(v: &serde::Value) -> std::result::Result<Self, serde::Error> {
        if let Some(fixed) = v.get("fixed") {
            return Ok(AlphaMode::Fixed {
                alpha_u: serde::Deserialize::from_value(fixed.get_or_err("alpha_u")?)?,
                alpha_w: serde::Deserialize::from_value(fixed.get_or_err("alpha_w")?)?,
            });
        }
        if let Some(auto) = v.get("auto") {
            return Ok(AlphaMode::Auto {
                grid: serde::Deserialize::from_value(auto)?,
            });
        }
        Err(serde::Error::msg("unknown alpha mode"))
    }
}

/// The default search grid (geometric, plus zero). The boost is *additive*
/// per conforming tuple, and only ~20% of a cell conforms after Algorithm-3
/// filtering, so large α values are needed to move the loss balance on
/// realistically-sized datasets; early stopping keeps the scan cheap.
pub fn default_alpha_grid() -> Vec<f64> {
    vec![0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0]
}

/// Configuration for [`ConFair`].
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ConFairConfig {
    /// Intervention-degree selection.
    pub alpha: AlphaMode,
    /// The fairness measure the boosts optimise.
    pub target: FairnessTarget,
    /// Algorithm-3 density filtering before constraint derivation;
    /// `None` reproduces the paper's ConFair0 ablation variant.
    pub density_filter: Option<FilterConfig>,
    /// Constraint-discovery options.
    pub learn_opts: LearnOptions,
    /// Calibrate `α` with this learner instead of the deployed one —
    /// the Fig. 7 cross-model setting. `None` = calibrate with the
    /// deployed learner.
    pub calibration_learner: Option<LearnerKind>,
}

impl Default for ConFairConfig {
    fn default() -> Self {
        Self {
            alpha: AlphaMode::default(),
            target: FairnessTarget::DisparateImpact,
            density_filter: Some(FilterConfig::paper_default()),
            learn_opts: LearnOptions::paper_default(),
            calibration_learner: None,
        }
    }
}

/// The reusable output of the profiling phase: base weights plus the index
/// sets eligible for boosting. Tuning evaluates many `α` values against one
/// profile without re-deriving constraints.
#[derive(Debug, Clone)]
pub struct WeightProfile {
    base: Vec<f64>,
    boost_u: Vec<usize>,
    boost_w: Vec<usize>,
}

impl WeightProfile {
    /// Materialise Algorithm 2's weight vector for the given degrees.
    pub fn weights(&self, alpha_u: f64, alpha_w: f64) -> Vec<f64> {
        let mut w = self.base.clone();
        for &i in &self.boost_u {
            w[i] += alpha_u;
        }
        for &i in &self.boost_w {
            w[i] += alpha_w;
        }
        w
    }

    /// Indices eligible for the minority-cell boost.
    pub fn boosted_minority(&self) -> &[usize] {
        &self.boost_u
    }

    /// Indices eligible for the majority-cell boost.
    pub fn boosted_majority(&self) -> &[usize] {
        &self.boost_w
    }

    /// The skew-balancing base weights (before any boost).
    pub fn base_weights(&self) -> &[f64] {
        &self.base
    }
}

/// Build the weight profile for a training set: lines 1–7 of Algorithm 2.
pub fn build_profile(
    train: &Dataset,
    target: FairnessTarget,
    filter: Option<FilterConfig>,
    learn_opts: &LearnOptions,
) -> Result<WeightProfile> {
    let n = train.len();
    if n == 0 {
        return Err(CoreError::EmptyPartition("training set".into()));
    }

    // ---- line 5: skew-balancing base weights (the KAM term) ----
    let mut base = vec![0.0; n];
    for cell in CellIndex::binary_cells() {
        let members = train.cell_indices(cell);
        if members.is_empty() {
            continue;
        }
        let p_label = train.label_count(cell.label) as f64 / n as f64;
        let group_size = train.group_count(cell.group) as f64;
        let weight = p_label * group_size / members.len() as f64;
        for &i in &members {
            base[i] = weight;
        }
    }

    // ---- lines 2–4 (+ Algorithm 3): constraints per boosted cell ----
    // Only the cells that can receive a boost need profiling.
    let (cell_u, cell_w) = target.boosted_cells();
    let filtered: Option<Vec<(CellIndex, Vec<usize>)>> =
        filter.map(|cfg| density_filter(train, cfg));
    let profile_cell = |cell: CellIndex| -> Result<Option<(ConstraintSet, Vec<usize>)>> {
        let members = train.cell_indices(cell);
        if members.is_empty() {
            // An empty cell simply contributes no boost; the experiments'
            // splits keep cells populated, but tiny datasets may not.
            return Ok(None);
        }
        let profile_rows: Vec<usize> = match &filtered {
            Some(cells) => cells
                .iter()
                .find(|(c, _)| *c == cell)
                .map(|(_, idx)| idx.clone())
                .unwrap_or_default(),
            None => members.clone(),
        };
        if profile_rows.is_empty() {
            return Ok(None);
        }
        let x = train.numeric_matrix(Some(&profile_rows));
        let constraints = learn_constraints(&x, learn_opts);
        Ok(Some((constraints, members)))
    };

    // ---- lines 6–11: conforming tuples in the boosted cells ----
    let conforming = |profiled: Option<(ConstraintSet, Vec<usize>)>| -> Vec<usize> {
        let Some((constraints, members)) = profiled else {
            return Vec::new();
        };
        let x = train.numeric_matrix(Some(&members));
        members
            .iter()
            .zip(x.iter_rows())
            .filter(|(_, row)| constraints.violation(row) < CONFORMANCE_EPS)
            .map(|(&i, _)| i)
            .collect()
    };

    let boost_u = conforming(profile_cell(cell_u)?);
    let boost_w = match cell_w {
        Some(cell) => conforming(profile_cell(cell)?),
        None => Vec::new(),
    };

    Ok(WeightProfile {
        base,
        boost_u,
        boost_w,
    })
}

/// The ConFair intervention (Algorithm 2 + α tuning).
#[derive(Debug, Clone, Default)]
pub struct ConFair {
    /// Behavioural configuration.
    pub config: ConFairConfig,
}

impl ConFair {
    /// ConFair with the paper's defaults (auto-tuned α, DI target,
    /// Algorithm-3 filtering on).
    pub fn paper_default() -> Self {
        Self::default()
    }

    /// ConFair with a custom configuration.
    pub fn new(config: ConFairConfig) -> Self {
        Self { config }
    }

    /// The ConFair0 ablation: no density filtering before CC derivation.
    pub fn without_density_filter() -> Self {
        Self::new(ConFairConfig {
            density_filter: None,
            ..ConFairConfig::default()
        })
    }

    /// Resolve the intervention degrees, tuning on validation if requested.
    /// Returns `(α_u, α_w)`.
    pub fn resolve_alpha(
        &self,
        profile: &WeightProfile,
        train: &Dataset,
        validation: &Dataset,
        deployed_learner: LearnerKind,
    ) -> Result<(f64, f64)> {
        match &self.config.alpha {
            AlphaMode::Fixed { alpha_u, alpha_w } => Ok((*alpha_u, *alpha_w)),
            AlphaMode::Auto { grid } => {
                let calibration = self.config.calibration_learner.unwrap_or(deployed_learner);
                let result = tuning::tune_alpha(
                    profile,
                    train,
                    validation,
                    calibration,
                    self.config.target,
                    grid,
                )?;
                Ok((result.alpha_u, result.alpha_w))
            }
        }
    }
}

impl Intervention for ConFair {
    fn name(&self) -> String {
        if self.config.density_filter.is_none() {
            "ConFair0".to_string()
        } else {
            "ConFair".to_string()
        }
    }

    fn train(
        &self,
        train: &Dataset,
        validation: &Dataset,
        learner: LearnerKind,
    ) -> Result<Box<dyn Predictor>> {
        let profile = build_profile(
            train,
            self.config.target,
            self.config.density_filter,
            &self.config.learn_opts,
        )?;
        if let AlphaMode::Auto { grid } = &self.config.alpha {
            // Calibrating with the deployed learner already trained the
            // model a refit at the chosen α would: serve that one.
            if self.config.calibration_learner.unwrap_or(learner) == learner {
                let (_, predictor) = tuning::search_alpha(
                    &profile,
                    train,
                    validation,
                    learner,
                    self.config.target,
                    grid,
                )?;
                return Ok(Box::new(predictor));
            }
        }
        let (alpha_u, alpha_w) = self.resolve_alpha(&profile, train, validation, learner)?;
        let weights = profile.weights(alpha_u, alpha_w);
        let predictor = SingleModelPredictor::fit(train, learner, Some(&weights))?;
        Ok(Box::new(predictor))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cf_data::split::{split3, SplitRatios};
    use cf_datasets::toy::figure1;
    use cf_metrics::GroupConfusion;

    fn toy_split() -> (Dataset, Dataset, Dataset) {
        let d = figure1(10);
        let s = split3(&d, SplitRatios::paper_default(), 10);
        (s.train, s.validation, s.test)
    }

    #[test]
    fn base_weights_match_kamiran_calders() {
        let (train, _, _) = toy_split();
        let profile = build_profile(
            &train,
            FairnessTarget::DisparateImpact,
            None,
            &LearnOptions::default(),
        )
        .unwrap();
        let n = train.len() as f64;
        for (i, &w) in profile.base_weights().iter().enumerate() {
            let g = train.groups()[i];
            let c = train.labels()[i];
            let expected = (train.label_count(c) as f64 / n) * train.group_count(g) as f64
                / train.cell_count(CellIndex { group: g, label: c }) as f64;
            assert!((w - expected).abs() < 1e-12, "tuple {i}");
        }
    }

    #[test]
    fn boost_sets_live_in_their_cells() {
        let (train, _, _) = toy_split();
        let profile = build_profile(
            &train,
            FairnessTarget::DisparateImpact,
            Some(FilterConfig::paper_default()),
            &LearnOptions::default(),
        )
        .unwrap();
        for &i in profile.boosted_minority() {
            assert_eq!(train.groups()[i], MINORITY);
            assert_eq!(train.labels()[i], 1);
        }
        for &i in profile.boosted_majority() {
            assert_eq!(train.groups()[i], MAJORITY);
            assert_eq!(train.labels()[i], 0);
        }
        assert!(!profile.boosted_minority().is_empty());
    }

    #[test]
    fn density_filter_shrinks_boost_set() {
        let (train, _, _) = toy_split();
        let unfiltered = build_profile(
            &train,
            FairnessTarget::DisparateImpact,
            None,
            &LearnOptions::default(),
        )
        .unwrap();
        let filtered = build_profile(
            &train,
            FairnessTarget::DisparateImpact,
            Some(FilterConfig::paper_default()),
            &LearnOptions::default(),
        )
        .unwrap();
        // Unfiltered min/max bounds admit the whole cell; filtered bounds
        // admit only the dense core.
        assert!(filtered.boosted_minority().len() < unfiltered.boosted_minority().len());
    }

    #[test]
    fn weights_monotone_in_alpha() {
        let (train, _, _) = toy_split();
        let profile = build_profile(
            &train,
            FairnessTarget::DisparateImpact,
            Some(FilterConfig::paper_default()),
            &LearnOptions::default(),
        )
        .unwrap();
        let w1 = profile.weights(1.0, 0.5);
        let w2 = profile.weights(2.0, 1.0);
        for (a, b) in w1.iter().zip(&w2) {
            assert!(b >= a, "weights grow with alpha");
        }
        // Non-boosted tuples unchanged.
        let w0 = profile.weights(0.0, 0.0);
        assert_eq!(w0, profile.base_weights());
    }

    #[test]
    fn eq_odds_targets_boost_expected_cells() {
        let (cell_u, cell_w) = FairnessTarget::EqOddsFnr.boosted_cells();
        assert_eq!(
            cell_u,
            CellIndex {
                group: MINORITY,
                label: 1
            }
        );
        assert!(cell_w.is_none());
        let (cell_u, _) = FairnessTarget::EqOddsFpr.boosted_cells();
        assert_eq!(
            cell_u,
            CellIndex {
                group: MINORITY,
                label: 0
            }
        );
    }

    #[test]
    fn confair_improves_di_on_toy_data_on_average() {
        // Any single Fig. 1 split can land where the baseline is already
        // balanced (or where validation-tuned α generalises imperfectly to
        // the test split), so assert the paper's claim in expectation over
        // seeded repetitions: ConFair lifts mean DI* while keeping utility.
        let mut base_di = 0.0;
        let mut fair_di = 0.0;
        let mut fair_acc = 0.0;
        let reps = 20u64;
        for seed in 5..5 + reps {
            let d = figure1(seed);
            let s = split3(&d, SplitRatios::paper_default(), seed);

            let baseline = crate::NoIntervention
                .train(&s.train, &s.validation, LearnerKind::Logistic)
                .unwrap();
            let base_preds = baseline.predict(&s.test).unwrap();
            base_di +=
                GroupConfusion::compute(s.test.labels(), &base_preds, s.test.groups()).di_star();

            let confair = ConFair::paper_default();
            let fair = confair
                .train(&s.train, &s.validation, LearnerKind::Logistic)
                .unwrap();
            let fair_preds = fair.predict(&s.test).unwrap();
            let gc = GroupConfusion::compute(s.test.labels(), &fair_preds, s.test.groups());
            fair_di += gc.di_star();
            fair_acc += gc.balanced_accuracy();
        }
        let n = reps as f64;
        assert!(
            fair_di / n > base_di / n + 0.02,
            "ConFair should improve mean DI*: {} -> {}",
            base_di / n,
            fair_di / n
        );
        assert!(fair_acc / n > 0.7, "utility preserved: {}", fair_acc / n);
    }

    #[test]
    fn fixed_alpha_skips_tuning() {
        let (train, val, _) = toy_split();
        let confair = ConFair::new(ConFairConfig {
            alpha: AlphaMode::Fixed {
                alpha_u: 2.0,
                alpha_w: 1.0,
            },
            ..ConFairConfig::default()
        });
        let profile = build_profile(
            &train,
            FairnessTarget::DisparateImpact,
            Some(FilterConfig::paper_default()),
            &LearnOptions::default(),
        )
        .unwrap();
        let (au, aw) = confair
            .resolve_alpha(&profile, &train, &val, LearnerKind::Logistic)
            .unwrap();
        assert_eq!((au, aw), (2.0, 1.0));
    }

    /// ConFair's predictor and a refit of `deployed` at the α that
    /// `calibration` tunes to agree in every margin bit on the test split.
    fn assert_serves_refit(deployed: LearnerKind, calibration: Option<LearnerKind>) {
        let (train, val, test) = toy_split();
        let confair = ConFair::new(ConFairConfig {
            calibration_learner: calibration,
            ..ConFairConfig::default()
        });
        let served = confair.train(&train, &val, deployed).unwrap();
        let profile = build_profile(
            &train,
            confair.config.target,
            confair.config.density_filter,
            &confair.config.learn_opts,
        )
        .unwrap();
        let (au, aw) = confair
            .resolve_alpha(&profile, &train, &val, deployed)
            .unwrap();
        let refit =
            SingleModelPredictor::fit(&train, deployed, Some(&profile.weights(au, aw))).unwrap();
        let rows = test.numeric_matrix(None);
        let bits = |p: &dyn Predictor| -> Vec<u64> {
            let margins = p.predict_margin_rows(&rows).unwrap();
            margins.iter().map(|m| m.to_bits()).collect()
        };
        assert_eq!(bits(&*served), bits(&refit));
        assert_eq!(
            served.predict(&test).unwrap(),
            refit.predict(&test).unwrap()
        );
        let kind = match served.state().unwrap().model() {
            cf_learners::ModelState::Logistic(_) => LearnerKind::Logistic,
            cf_learners::ModelState::Gbt(_) => LearnerKind::Gbt,
        };
        assert_eq!(kind, deployed, "the deployed learner is served");
    }

    #[test]
    fn tuned_model_is_served_bit_identical_to_a_refit() {
        assert_serves_refit(LearnerKind::Logistic, None);
        assert_serves_refit(LearnerKind::Gbt, Some(LearnerKind::Gbt));
    }

    #[test]
    fn cross_model_calibration_refits_the_deployed_learner() {
        assert_serves_refit(LearnerKind::Gbt, Some(LearnerKind::Logistic));
    }

    #[test]
    fn name_reflects_ablation() {
        assert_eq!(ConFair::paper_default().name(), "ConFair");
        assert_eq!(ConFair::without_density_filter().name(), "ConFair0");
    }

    #[test]
    fn empty_training_set_errors() {
        let d = figure1(1).subset(&[]);
        assert!(matches!(
            build_profile(
                &d,
                FairnessTarget::DisparateImpact,
                None,
                &LearnOptions::default()
            ),
            Err(CoreError::EmptyPartition(_))
        ));
    }
}
