//! Validation-set search for ConFair's intervention degree `α`.
//!
//! Because ConFair only boosts *conforming* tuples, the achieved fairness is
//! (empirically) monotone in `α` (§IV-A, Figs. 8–9) — so a coarse ascending
//! scan with early stopping finds the optimum cheaply. Calibration may use a
//! different learner from the deployed one (the Fig. 7 setting); robustness
//! to that mismatch is one of the paper's headline claims.

use crate::{
    confair::{FairnessTarget, WeightProfile},
    intervention::SingleModelPredictor,
    Result,
};
use cf_data::{encode::labels_as_f64, Dataset, FeatureEncoding};
use cf_learners::{Learner, LearnerKind};
use cf_metrics::GroupConfusion;

/// Outcome of the α search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TuneResult {
    /// Chosen minority-cell degree.
    pub alpha_u: f64,
    /// Chosen majority-cell degree (`α_u / 2` for DI, 0 for EqOdds targets).
    pub alpha_w: f64,
    /// Validation fairness gap at the chosen degree (lower is fairer).
    pub gap: f64,
    /// Validation balanced accuracy at the chosen degree.
    pub balanced_accuracy: f64,
    /// How many models the search trained (the Fig. 14 runtime driver).
    pub models_trained: usize,
}

/// The fairness gap the search minimises, per target.
pub(crate) fn fairness_gap(target: FairnessTarget, gc: &GroupConfusion) -> f64 {
    match target {
        FairnessTarget::DisparateImpact => 1.0 - gc.di_star(),
        FairnessTarget::EqOddsFnr => gc.eq_odds_fnr_gap(),
        FairnessTarget::EqOddsFpr => gc.eq_odds_fpr_gap(),
    }
}

/// `α_w` as a function of `α_u`, per §IV "Algorithm parameters".
pub(crate) fn derived_alpha_w(target: FairnessTarget, alpha_u: f64) -> f64 {
    match target {
        FairnessTarget::DisparateImpact => alpha_u / 2.0,
        FairnessTarget::EqOddsFnr | FairnessTarget::EqOddsFpr => 0.0,
    }
}

/// Scan the grid of `α_u` candidates, training one model per candidate and
/// scoring the fairness gap on the validation split.
///
/// Selection: smallest gap; ties broken by higher balanced accuracy.
/// Degenerate models (single-class output) are admissible only if nothing
/// else is — ConFair prefers keeping the model useful. Early exit once the
/// gap has clearly worsened (by more than 0.03 over the best so far) on
/// three candidates since the last improvement, consecutive or not
/// (exploiting the monotone response).
pub fn tune_alpha(
    profile: &WeightProfile,
    train: &Dataset,
    validation: &Dataset,
    learner: LearnerKind,
    target: FairnessTarget,
    grid: &[f64],
) -> Result<TuneResult> {
    Ok(search_alpha(profile, train, validation, learner, target, grid)?.0)
}

/// [`tune_alpha`], also returning the model it trained at the chosen
/// degree — bit-identical to refitting `learner` on `train` with the
/// chosen weights, so a caller deploying `learner` need not refit.
pub(crate) fn search_alpha(
    profile: &WeightProfile,
    train: &Dataset,
    validation: &Dataset,
    learner: LearnerKind,
    target: FairnessTarget,
    grid: &[f64],
) -> Result<(TuneResult, SingleModelPredictor)> {
    assert!(!grid.is_empty(), "alpha grid cannot be empty");
    // Only the weights change between candidates: encode both splits once.
    let (encoding, x) = FeatureEncoding::fit_transform(train);
    let y = labels_as_f64(train);
    let x_val = encoding.transform(validation)?;
    let mut best: Option<(TuneResult, Box<dyn Learner>)> = None;
    let mut best_is_degenerate = true;
    let mut worsened_streak = 0usize;
    let mut models_trained = 0usize;

    for &alpha_u in grid {
        let alpha_w = derived_alpha_w(target, alpha_u);
        let weights = profile.weights(alpha_u, alpha_w);
        let mut model = learner.build();
        model.fit(&x, &y, Some(&weights))?;
        models_trained += 1;
        let preds = model.predict(&x_val)?;
        let gc = GroupConfusion::compute(validation.labels(), &preds, validation.groups());
        let gap = fairness_gap(target, &gc);
        let candidate = TuneResult {
            alpha_u,
            alpha_w,
            gap,
            balanced_accuracy: gc.balanced_accuracy(),
            models_trained,
        };
        let degenerate = gc.is_degenerate();

        let better = match &best {
            None => true,
            Some((b, _)) => {
                if degenerate != best_is_degenerate {
                    // Non-degenerate beats degenerate outright.
                    !degenerate
                } else if (candidate.gap - b.gap).abs() < 1e-9 {
                    candidate.balanced_accuracy > b.balanced_accuracy
                } else {
                    candidate.gap < b.gap
                }
            }
        };
        if better {
            best = Some((candidate, model));
            best_is_degenerate = degenerate;
            worsened_streak = 0;
        } else {
            // Count only *clear* worsening toward the early stop: the
            // response is monotone up to split noise, and small-α candidates
            // can jitter without meaning the optimum has been crossed.
            if best
                .as_ref()
                .is_some_and(|(b, _)| candidate.gap > b.gap + 0.03)
            {
                worsened_streak += 1;
            }
            if worsened_streak >= 3 {
                break;
            }
        }
    }

    let (mut result, model) = best.expect("grid is non-empty");
    result.models_trained = models_trained;
    Ok((result, SingleModelPredictor::from_parts(encoding, model)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::confair::{build_profile, FairnessTarget};
    use cf_conformance::LearnOptions;
    use cf_data::split::{split3, SplitRatios};
    use cf_datasets::toy::figure1;
    use cf_density::FilterConfig;

    fn setup() -> (Dataset, Dataset, WeightProfile) {
        // A split on which the drifted minority demonstrably needs a boost
        // (validated by `tuning_beats_zero_alpha`); most Fig. 1 splits do,
        // but not all, so the seed is pinned.
        let d = figure1(23);
        let s = split3(&d, SplitRatios::paper_default(), 23);
        let profile = build_profile(
            &s.train,
            FairnessTarget::DisparateImpact,
            Some(FilterConfig::paper_default()),
            &LearnOptions::default(),
        )
        .unwrap();
        (s.train, s.validation, profile)
    }

    #[test]
    fn tuning_beats_zero_alpha() {
        let (train, val, profile) = setup();
        let grid = crate::confair::default_alpha_grid();
        let result = tune_alpha(
            &profile,
            &train,
            &val,
            LearnerKind::Logistic,
            FairnessTarget::DisparateImpact,
            &grid,
        )
        .unwrap();

        // Gap at the chosen alpha must be no worse than at alpha = 0.
        let zero = tune_alpha(
            &profile,
            &train,
            &val,
            LearnerKind::Logistic,
            FairnessTarget::DisparateImpact,
            &[0.0],
        )
        .unwrap();
        assert!(result.gap <= zero.gap + 1e-9);
        assert!(result.alpha_u > 0.0, "toy data needs a positive boost");
    }

    #[test]
    fn derived_alpha_w_per_target() {
        assert_eq!(derived_alpha_w(FairnessTarget::DisparateImpact, 4.0), 2.0);
        assert_eq!(derived_alpha_w(FairnessTarget::EqOddsFnr, 4.0), 0.0);
        assert_eq!(derived_alpha_w(FairnessTarget::EqOddsFpr, 4.0), 0.0);
    }

    #[test]
    fn early_stop_limits_models_trained() {
        let (train, val, profile) = setup();
        // A long grid: early stopping should usually cut it short; at
        // minimum the search must report how many models it trained.
        let grid: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let result = tune_alpha(
            &profile,
            &train,
            &val,
            LearnerKind::Logistic,
            FairnessTarget::DisparateImpact,
            &grid,
        )
        .unwrap();
        assert!(result.models_trained <= grid.len());
        assert!(result.models_trained >= 1);
    }

    #[test]
    fn singleton_grid_returns_it() {
        let (train, val, profile) = setup();
        let result = tune_alpha(
            &profile,
            &train,
            &val,
            LearnerKind::Logistic,
            FairnessTarget::DisparateImpact,
            &[1.5],
        )
        .unwrap();
        assert_eq!(result.alpha_u, 1.5);
        assert_eq!(result.alpha_w, 0.75);
    }

    #[test]
    #[should_panic]
    fn empty_grid_panics() {
        let (train, val, profile) = setup();
        let _ = tune_alpha(
            &profile,
            &train,
            &val,
            LearnerKind::Logistic,
            FairnessTarget::DisparateImpact,
            &[],
        );
    }
}
