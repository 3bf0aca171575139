//! The offline-fit workload: the paper's Fig. 14 cell, run sequentially
//! on one thread. ConFair (paper default: auto α, density filter) and
//! DiffFair with logistic regression on simulated MEPS and ACSI, plus
//! ConFair with GBT on simulated LSAC; each model is fitted and then
//! evaluated on its test split. Every stream layer is bypassed.

use crate::host::{self, SpeedReference};
use crate::stats::{fixed_tail, median};
use crate::steady::{json_list, summary_json};
use crate::trace::Tracer;
use crate::{num, Args, Outcome};
use cf_conformance::learn_constraints;
use cf_data::split::ThreeWaySplit;
use cf_datasets::realsim::RealWorldSpec;
use cf_density::density_filter;
use cf_learners::LearnerKind;
use cf_metrics::GroupConfusion;
use confair_core::confair::{build_profile, AlphaMode, ConFair, ConFairConfig};
use confair_core::intervention::{Intervention, Predictor, SingleModelPredictor};
use confair_core::pipeline::Pipeline;
use confair_core::tuning::tune_alpha;
use confair_core::DiffFair;
use std::time::Instant;

/// Rows generated per dataset (the simulators' full sizes differ by
/// 60×; equal sizes keep each cell's share of a pass comparable).
pub const ROWS: usize = 1_000;
/// Dataset draws generated at set-up; each pass fits a fresh one (more
/// are generated, untimed, should a run outlast them).
pub const DRAWS: usize = 8;
pub const SETUP_REPS: usize = 21;
/// The tail percentile of pass times: p80, supported by the 50 passes
/// and more of a 30 s run at any speed seen, so it does not change with
/// the pass count.
const TAIL_P: f64 = 80.0;
/// Reference rows run after each pass (about 1 ms).
const PASS_REFERENCE_ROWS: usize = 1 << 14;
/// Fewest traced replays of the first draw, each beside an untraced
/// pass; a traced run replays until its time is spent.
const MIN_REPLAYS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Method {
    ConFair,
    DiffFair,
}

/// (method, learner, dataset) — the Fig. 14 cells this workload fits.
const CELLS: [(Method, LearnerKind, &str); 5] = [
    (Method::ConFair, LearnerKind::Logistic, "MEPS"),
    (Method::ConFair, LearnerKind::Logistic, "ACSI"),
    (Method::DiffFair, LearnerKind::Logistic, "MEPS"),
    (Method::DiffFair, LearnerKind::Logistic, "ACSI"),
    (Method::ConFair, LearnerKind::Gbt, "LSAC"),
];

/// ConFair's configuration for a deployed learner: the paper default,
/// except that a GBT model's α is calibrated with logistic regression
/// (the paper's cross-model setting), so a pass trains one GBT model
/// instead of one per grid point.
fn confair_config(learner: LearnerKind) -> ConFairConfig {
    ConFairConfig {
        calibration_learner: (learner == LearnerKind::Gbt).then_some(LearnerKind::Logistic),
        ..ConFairConfig::default()
    }
}

/// One draw of the three simulated datasets, split the paper's way. A
/// run fits many draws, so its figures average over datasets rather than
/// hang on one.
struct Draw {
    splits: Vec<(&'static str, ThreeWaySplit)>,
}

impl Draw {
    fn new(seed: u64, draw: u64) -> Self {
        let seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(draw);
        let splits = ["MEPS", "ACSI", "LSAC"]
            .into_iter()
            .map(|name| {
                let spec = RealWorldSpec::by_name(name).expect("known dataset");
                let data = spec.generate_scaled(ROWS as f64 / spec.n as f64, seed);
                (name, Pipeline::paper_default().split(&data, seed))
            })
            .collect();
        Draw { splits }
    }

    fn split(&self, name: &str) -> &ThreeWaySplit {
        &self
            .splits
            .iter()
            .find(|(n, _)| *n == name)
            .expect("split")
            .1
    }
}

/// Fit one cell and predict its test split.
fn fit_cell(method: Method, learner: LearnerKind, split: &ThreeWaySplit) -> Vec<u8> {
    let predictor = match method {
        Method::ConFair => {
            ConFair::new(confair_config(learner)).train(&split.train, &split.validation, learner)
        }
        Method::DiffFair => {
            DiffFair::paper_default().train(&split.train, &split.validation, learner)
        }
    }
    .expect("fit");
    predictor.predict(&split.test).expect("predict")
}

/// One pass over the cells of a draw: test predictions per cell, and the
/// pass's seconds.
fn pass(draw: &Draw) -> (Vec<Vec<u8>>, f64) {
    let t = Instant::now();
    let predictions = CELLS
        .iter()
        .map(|&(method, learner, name)| fit_cell(method, learner, draw.split(name)))
        .collect();
    (predictions, t.elapsed().as_secs_f64())
}

/// `ConFair::train`, replayed call by call with spans: `build_profile`
/// (with its density filter and constraint learning replayed after it
/// as its children), `tune_alpha`, and the final weighted fit. Returns
/// the test predictions and how many models the α grid trained.
fn confair_traced(
    tracer: &mut Tracer,
    cell: u64,
    learner: LearnerKind,
    split: &ThreeWaySplit,
) -> (Vec<u8>, usize) {
    let config = confair_config(learner);
    let root_start = tracer.now_ns();
    let root = tracer.record("core.confair_train", root_start, root_start, None, cell);
    let (profile, bp) = tracer.span("core.build_profile", Some(root), cell, || {
        build_profile(
            &split.train,
            config.target,
            config.density_filter,
            &config.learn_opts,
        )
        .expect("profile")
    });
    let AlphaMode::Auto { grid } = &config.alpha else {
        panic!("the paper default tunes α");
    };
    let calibration = config.calibration_learner.unwrap_or(learner);
    let (tuned, _) = tracer.span("core.tune_alpha", Some(root), cell, || {
        tune_alpha(
            &profile,
            &split.train,
            &split.validation,
            calibration,
            config.target,
            grid,
        )
        .expect("tune")
    });
    let fit_name = match learner {
        LearnerKind::Gbt => "learners.fit_gbt",
        _ => "learners.fit_lr",
    };
    let (predictor, _) = tracer.span(fit_name, Some(root), cell, || {
        SingleModelPredictor::fit(
            &split.train,
            learner,
            Some(&profile.weights(tuned.alpha_u, tuned.alpha_w)),
        )
        .expect("fit")
    });
    tracer.spans[root].end_ns = tracer.now_ns();
    let predictions = predictor.predict(&split.test).expect("predict");

    // Replays of the two stages inside build_profile.
    let filter = config.density_filter.expect("paper default filters");
    let (filtered, _) = tracer.span("density.filter", Some(bp), cell, || {
        density_filter(&split.train, filter)
    });
    let (cell_u, cell_w) = config.target.boosted_cells();
    tracer.span("conformance.learn", Some(bp), cell, || {
        for (c, rows) in &filtered {
            if (*c == cell_u || Some(*c) == cell_w) && !rows.is_empty() {
                std::hint::black_box(learn_constraints(
                    &split.train.numeric_matrix(Some(rows)),
                    &config.learn_opts,
                ));
            }
        }
    });
    (predictions, tuned.models_trained)
}

/// Replay every cell of a draw with spans (ConFair call by call, DiffFair
/// as one span): test predictions per cell and the α grid's fits.
fn replay_draw(tracer: &mut Tracer, draw: &Draw) -> (Vec<Vec<u8>>, usize) {
    let mut predictions = Vec::new();
    let mut fits = 0;
    for (c, &(method, learner, name)) in CELLS.iter().enumerate() {
        let split = draw.split(name);
        let cell = c as u64;
        match method {
            Method::ConFair => {
                let (p, n) = confair_traced(tracer, cell, learner, split);
                predictions.push(p);
                fits += n;
            }
            Method::DiffFair => {
                let (p, _) = tracer.span("core.difffair_train", None, cell, || {
                    fit_cell(method, learner, split)
                });
                predictions.push(p);
            }
        }
    }
    (predictions, fits)
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut reference = SpeedReference::new();
    let mut setup = Vec::new();
    let mut draws: Vec<Draw> = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        draws = (0..DRAWS as u64).map(|d| Draw::new(args.seed, d)).collect();
        setup.push(t.elapsed().as_secs_f64());
        reference.run(host::SETUP_REFERENCE_ROWS);
    }
    let setup_factor = reference.factor();
    out.note("setup_s_samples", json_list(&setup));
    out.note("setup_host_factor", num(setup_factor));
    let train_rows: usize = CELLS
        .iter()
        .map(|&(_, _, name)| draws[0].split(name).train.len())
        .sum();

    // Untraced passes, each over a fresh draw, until the run's time is
    // spent (one when tracing). Each pass's test
    // labels, groups and predictions are pooled per cell, and the draw is
    // dropped, so memory does not grow with the run.
    let start = Instant::now();
    let mut pass_s = Vec::new();
    let mut train_rows_fitted = 0usize;
    let mut first = Vec::new();
    let mut pooled = vec![(Vec::new(), Vec::new(), Vec::new()); CELLS.len()];
    let mut draws = draws.into_iter();
    let first_draw = draws.next().expect("set-up draws");
    let mut d = 0u64;
    loop {
        let fresh;
        let draw = match d {
            0 => &first_draw,
            _ => {
                fresh = draws.next().unwrap_or_else(|| Draw::new(args.seed, d));
                &fresh
            }
        };
        let (predictions, seconds) = pass(draw);
        pass_s.push(seconds);
        reference.run(PASS_REFERENCE_ROWS);
        for (c, &(_, _, name)) in CELLS.iter().enumerate() {
            train_rows_fitted += draw.split(name).train.len();
            let test = &draw.split(name).test;
            let (y, p, g) = &mut pooled[c];
            y.extend_from_slice(test.labels());
            g.extend_from_slice(test.groups());
            p.extend_from_slice(&predictions[c]);
        }
        if d == 0 {
            first = predictions;
        }
        d += 1;
        if args.trace || start.elapsed().as_secs_f64() + median(&pass_s) > args.seconds {
            break;
        }
    }
    out.attempted = pass_s.len() as u64 * CELLS.len() as u64;

    // The call-by-call replay of the first draw must predict exactly as
    // the untraced fit did. When tracing, replays alternate with untraced
    // passes of the same draw, so both sides of the reconciliation see
    // the same host.
    let mut tracer = Tracer::new();
    let mut replays = 0usize;
    let mut untraced_s = 0.0;
    let mut identical = true;
    let mut fits;
    loop {
        if args.trace {
            untraced_s += pass(&first_draw).1;
        }
        let (replayed, n) = replay_draw(&mut tracer, &first_draw);
        identical &= replayed == first;
        fits = n;
        replays += 1;
        let more = replays < MIN_REPLAYS || start.elapsed().as_secs_f64() < args.seconds;
        if !args.trace || !more {
            break;
        }
    }
    out.attempted += (2 * replays - 1) as u64 * CELLS.len() as u64;
    out.check(
        "traced ConFair::train replay predicts bit-identically",
        identical,
    );

    // Test-split quality per cell, pooled over the draws: DI* and
    // balanced accuracy of the pooled predictions.
    let mut di = Vec::new();
    let mut bal = Vec::new();
    for (&(method, _, _), (y, p, g)) in CELLS.iter().zip(&pooled) {
        let gc = GroupConfusion::compute(y, p, g);
        if method == Method::ConFair {
            di.push(gc.di_star());
        }
        bal.push(gc.balanced_accuracy());
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;

    if args.trace {
        let totals = tracer.totals();
        // Seconds per draw.
        let per_draw = 1e-9 / replays as f64;
        let self_s = |name: &str| {
            totals
                .get(name)
                .map_or(0.0, |t| t.self_ns as f64 * per_draw)
        };
        let total_s = |name: &str| {
            totals
                .get(name)
                .map_or(0.0, |t| t.total_ns as f64 * per_draw)
        };
        out.set("core.build_profile_s", self_s("core.build_profile"));
        out.set("core.tune_alpha_s", total_s("core.tune_alpha"));
        out.set("core.alpha_grid_fits", fits as f64);
        out.set("core.difffair_train_s", total_s("core.difffair_train"));
        out.set("density.filter_s", total_s("density.filter"));
        out.set("conformance.learn_s", total_s("conformance.learn"));
        out.set("learners.fit_s_lr", total_s("learners.fit_lr"));
        out.set("learners.fit_s_gbt", total_s("learners.fit_gbt"));
        out.set("datasets.gen_s", median(&setup) / DRAWS as f64);
        let untraced_s = untraced_s / replays as f64;
        // Reconciliation: the stages timed one by one (the two replayed
        // inside build_profile, α tuning, the final fits, DiffFair)
        // against the untraced pass, two independent measurements.
        // Overhead: the traced top-level calls against the same pass.
        let stages = tracer.total_ns(&[
            "density.filter",
            "conformance.learn",
            "core.tune_alpha",
            "learners.fit_lr",
            "learners.fit_gbt",
            "core.difffair_train",
        ]);
        let top = tracer.total_ns(&["core.confair_train", "core.difffair_train"]);
        out.set("trace.reconcile", stages as f64 * per_draw / untraced_s);
        out.set("trace.overhead", top as f64 * per_draw / untraced_s);
        out.set("trace.clipped", tracer.clipped() as f64);
        out.set("trace.untraced_s", untraced_s);
        out.set("trace.spans", tracer.spans.len() as f64);
        tracer.save(&args.workload, args.seed);
    } else {
        let pass_us: Vec<f64> = pass_s.iter().map(|t| t * 1e6).collect();
        let (tail_p, tail) = fixed_tail(&pass_us, TAIL_P);
        // Host-normalised, like every gated time. Rows over every pass's
        // time: the mean over the run's draws, whose sizes and fits
        // differ, rather than the median pass.
        let host_factor = reference.factor();
        let tput = train_rows_fitted as f64 / pass_s.iter().sum::<f64>();
        out.set("setup_s", median(&setup) / setup_factor);
        out.set("tput", tput * host_factor);
        out.set("tail_us", tail / host_factor);
        out.note("host_factor", num(host_factor));
        out.note("raw_tput", num(tput));
        out.note("raw_tail_us", num(tail));
        out.set("di_star", mean(&di));
        out.set("bal_acc", mean(&bal));
        out.note("fit_s", num(median(&pass_s)));
        out.note("fit_di_star", num(mean(&di)));
        out.note("fit_bal_acc", num(mean(&bal)));
        out.note("tail_percentile", num(tail_p));
        out.note(
            "pass_us",
            summary_json(&pass_s.iter().map(|t| t * 1e6).collect::<Vec<_>>()),
        );
    }
    out.note("train_rows_per_pass", train_rows.to_string());
    out
}
