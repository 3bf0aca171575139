//! The steady-ingest workload: a stationary d=16, K=8 (2×4
//! intersectional) stream through the synchronous engine in a closed
//! loop, with a logistic model, a ring sink and a metrics registry
//! attached. Its traced run also drives the same tuples through a GBT
//! model's scorer and through `ShardedEngine` at `nproc` shards.

use crate::host::{self, SpeedReference};
use crate::stats::{chunked_tail, median, summarize, DiBlockMeter};
use crate::trace::Tracer;
use crate::{num, Args, Outcome};
use cf_conformance::{learn_constraints, ConstraintSet};
use cf_data::{CellIndex, Dataset};
use cf_datasets::stream::{DriftStream, DriftStreamSpec};
use cf_learners::LearnerKind;
use cf_linalg::Matrix;
use cf_metrics::Confusion;
use cf_stream::{
    FairnessSnapshot, GroupLayout, PageHinkley, RetrainPolicy, ShardedEngine, ShardedTuple,
    SlidingWindow, SlotMeta, StreamConfig, StreamEngine, StreamTuple,
};
use cf_telemetry::{shared_sink, EventSink, MetricsRegistry, RingSink, TelemetryEvent};
use confair_core::confair::{AlphaMode, ConFairConfig};
use confair_core::intervention::{predict_rows_via_dataset, Predictor, SingleModelPredictor};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

pub const FEATURES: usize = 16;
/// Intersectional layout: a binary axis times a four-way axis.
pub const AXES: [usize; 2] = [2, 4];
pub const WINDOW: usize = 4_096;
pub const BATCH: usize = 1_024;
/// Distinct pool tuples: 64 windows' worth, so the loop never replays a
/// window's contents from cache.
pub const POOL_BATCHES: usize = 256;
pub const REFERENCE_ROWS: usize = 8_000;
/// Set-up repetitions; `setup_s` is their median.
pub const SETUP_REPS: usize = 21;
/// Batches per part of the timed region for the tail (p99.5 of each;
/// see `chunked_tail`).
const TAIL_PART: usize = 4_000;
/// Every `SAMPLE_EVERY`-th timed batch is kept for the output checks.
const SAMPLE_EVERY: usize = 61;
const RING_EVENTS: usize = 4_096;
/// Block of served tuples over which the external meter takes DI*.
const METER_BLOCK: usize = 2_048;

pub fn spec() -> DriftStreamSpec {
    let layout = GroupLayout::new(AXES.to_vec()).expect("layout");
    DriftStreamSpec {
        n_features: FEATURES,
        groups: layout.cells(),
        // Every non-majority cell carries real traffic (as in the
        // repository's K-ary stream rows).
        minority_fraction: 0.6,
        minority_offset: 0.5,
        drift_onset: u64::MAX,
        ..DriftStreamSpec::default()
    }
}

pub fn config() -> StreamConfig {
    StreamConfig {
        window: WINDOW,
        groups: spec().groups,
        retrain: RetrainPolicy::Never,
        // No DI* floor: the worst of 28 cell pairs sits below 0.8 on this
        // geometry for most seeds, and floor alerts (one per cooldown)
        // would make the per-tuple work depend on the seed. Fairness
        // alerts and repair are drift_serve's subject.
        di_floor: 0.0,
        // Fixed degrees: the serving engine's bootstrap is one weighted
        // fit; α tuning is offline_fit's subject.
        confair: ConFairConfig {
            alpha: AlphaMode::Fixed {
                alpha_u: 2.0,
                alpha_w: 1.0,
            },
            ..ConFairConfig::default()
        },
        ..StreamConfig::default()
    }
}

/// The seeded inputs: a labeled reference and a pool of distinct batches.
pub struct Inputs {
    pub reference: Dataset,
    pub pool: Vec<Vec<StreamTuple>>,
}

pub fn generate(seed: u64) -> Inputs {
    let spec = spec();
    let reference = spec.reference(REFERENCE_ROWS, seed);
    let mut stream = DriftStream::new(spec, seed.wrapping_add(1));
    let pool = (0..POOL_BATCHES)
        .map(|_| StreamTuple::rows_from_dataset(&stream.next_batch(BATCH)).expect("numeric"))
        .collect();
    Inputs { reference, pool }
}

/// The pool routed to `shards` seeded pseudo-random shards, each batch
/// keeping its tuples in order.
fn route(pool: &[Vec<StreamTuple>], shards: usize, seed: u64) -> Vec<Vec<ShardedTuple>> {
    let mut state = seed | 1;
    pool.iter()
        .map(|batch| {
            batch
                .iter()
                .map(|t| {
                    // xorshift64
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    ShardedTuple {
                        shard: (state % shards as u64) as u32,
                        tuple: t.clone(),
                    }
                })
                .collect()
        })
        .collect()
}

/// An engine bootstrapped from the reference, with the production
/// observers attached: a ring sink and a metrics registry.
pub fn build_engine(inputs: &Inputs, learner: LearnerKind, seed: u64) -> StreamEngine {
    let mut engine = StreamEngine::from_reference(&inputs.reference, learner, seed, config())
        .expect("bootstrap");
    engine.set_sink(shared_sink(RingSink::new(RING_EVENTS)));
    engine.install_metrics(&MetricsRegistry::new());
    engine
}

/// Ingest until the window is full, then a few batches more, so timing
/// starts in the steady state. `step(i)` ingests pool batch `i` and
/// tells whether the window is full. Returns the next pool index.
fn warm_up(mut step: impl FnMut(usize) -> bool) -> usize {
    let mut next = 0;
    let mut extra = 0;
    while extra < 8 {
        if step(next % POOL_BATCHES) {
            extra += 1;
        }
        next += 1;
    }
    next
}

fn warm_up_single(engine: &mut StreamEngine, pool: &[Vec<StreamTuple>]) -> usize {
    warm_up(|i| {
        engine.ingest(&pool[i]).expect("warm-up ingest");
        engine.window_len() >= WINDOW
    })
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let gen_start = Instant::now();
    let inputs = generate(args.seed);
    let gen_s = gen_start.elapsed().as_secs_f64();

    // Set-up: bootstrap the engine several times, each beside a run of
    // the speed reference; keep the last engine.
    let mut reference = SpeedReference::new();
    let mut setup = Vec::new();
    let mut engine = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        engine = Some(build_engine(&inputs, LearnerKind::Logistic, args.seed));
        setup.push(t.elapsed().as_secs_f64());
        reference.run(host::SETUP_REFERENCE_ROWS);
    }
    let setup_factor = reference.factor();
    let mut engine = engine.expect("at least one set-up");
    out.note("setup_s_samples", json_list(&setup));
    out.note("setup_host_factor", num(setup_factor));
    out.note("datasets_gen_s", num(gen_s));

    if args.trace {
        traced(&inputs, engine, args, gen_s, &mut out);
        return out;
    }

    let mut next = warm_up_single(&mut engine, &inputs.pool);
    let mut latency_us = Vec::new();
    let mut samples: Vec<(usize, Vec<u8>)> = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    loop {
        let i = next % POOL_BATCHES;
        let t0 = Instant::now();
        let result = engine.ingest(&inputs.pool[i]);
        let t1 = Instant::now();
        out.attempted += 1;
        match result {
            Ok(outcome) => {
                if (out.attempted as usize).is_multiple_of(SAMPLE_EVERY) {
                    samples.push((i, outcome.decisions));
                }
            }
            Err(e) => {
                eprintln!("ingest failed: {e:?}");
                out.failed += 1;
            }
        }
        latency_us.push((t1 - t0).as_secs_f64() * 1e6);
        if (out.attempted as usize).is_multiple_of(host::REFERENCE_EVERY) {
            reference.run(BATCH);
        }
        next += 1;
        if t1 >= deadline {
            break;
        }
    }
    let host_factor = reference.factor();

    // Output checks and the quality figures, outside the clock: sampled
    // decisions against an independent replay of the served model.
    let predictor = served_predictor(engine);
    let mut confusion = Confusion::default();
    let mut meter = DiBlockMeter::new(spec().groups, METER_BLOCK, 0.8);
    let mut model_ok = !samples.is_empty();
    for (i, decisions) in &samples {
        let tuples = &inputs.pool[*i];
        let expected = predict_rows_via_dataset(&predictor, &matrix(tuples)).expect("replay");
        model_ok &= &expected == decisions;
        let labels: Vec<u8> = tuples.iter().map(|t| t.label.expect("labeled")).collect();
        confusion = confusion.merge(&Confusion::from_pairs(&labels, decisions));
        for (t, &d) in tuples.iter().zip(decisions) {
            meter.push(t.group, d);
        }
    }
    out.check("sampled decisions match the reference predictor", model_ok);
    out.check("no ingest failed", out.failed == 0);

    // Tuples over the time inside every `ingest` call, stalls included,
    // in host-normalised seconds. Not the median batch: the host's speed
    // also alternates between two levels within a run, so the median
    // batch time jumps between them while the mean moves with the share
    // of time spent at each.
    let busy_s = latency_us.iter().sum::<f64>() * 1e-6;
    let tput = (latency_us.len() * BATCH) as f64 / busy_s;
    let (tail_p, tail) = chunked_tail(&latency_us, TAIL_PART);
    out.set("setup_s", median(&setup) / setup_factor);
    out.set("tput", tput * host_factor);
    out.set("tail_us", tail / host_factor);
    out.set("di_star", crate::drift::mean_di(&meter));
    out.set("bal_acc", confusion.balanced_accuracy());
    out.note("host_factor", num(host_factor));
    out.note("raw_tput", num(tput));
    out.note("raw_tail_us", num(tail));
    out.note("p50_us", num(summarize(&latency_us).p50));
    out.note("tail_percentile", num(tail_p));
    out.note("batch_latency_us", summary_json(&latency_us));
    out.note("checked_batches", samples.len().to_string());
    out
}

/// An independent copy of the model an engine serves.
fn served_predictor(engine: StreamEngine) -> SingleModelPredictor {
    let (scorer, _) = engine.into_parts();
    SingleModelPredictor::from_state(scorer.state().expect("checkpointable predictor"))
        .expect("restore predictor")
}

pub fn matrix(tuples: &[StreamTuple]) -> Matrix {
    let d = tuples.first().map_or(0, |t| t.features.len());
    let data = tuples
        .iter()
        .flat_map(|t| t.features.iter().copied())
        .collect();
    Matrix::from_vec(tuples.len(), d, data)
}

pub fn json_list(v: &[f64]) -> String {
    format!(
        "[{}]",
        v.iter().map(|&x| num(x)).collect::<Vec<_>>().join(",")
    )
}

pub fn summary_json(samples: &[f64]) -> String {
    if samples.is_empty() {
        return "null".into();
    }
    let s = summarize(samples);
    format!(
        "{{\"n\":{},\"p50\":{},\"tail_p\":{},\"tail\":{}}}",
        s.n,
        num(s.p50),
        num(s.tail_p),
        num(s.tail)
    )
}

/// A ring sink that also records when each event was emitted, so the
/// traced run can time the telemetry layer from outside the engine.
struct TimingSink {
    inner: RingSink,
    origin: Instant,
    emits: Arc<Mutex<Vec<(u64, u64)>>>,
}

impl EventSink for TimingSink {
    fn emit(&mut self, event: &TelemetryEvent) {
        let start = self.origin.elapsed().as_nanos() as u64;
        self.inner.emit(event);
        let end = self.origin.elapsed().as_nanos() as u64;
        self.emits.lock().expect("emit log").push((start, end));
    }
}

/// The monitor's per-tuple stages, replayed from outside: the reference
/// conformance profiles, a window of the same shape and one Page–Hinkley
/// detector per cell.
struct Replay {
    profiles: Vec<[Option<ConstraintSet>; 2]>,
    window: SlidingWindow,
    detectors: Vec<PageHinkley>,
    config: StreamConfig,
    next_id: u64,
}

impl Replay {
    fn new(reference: &Dataset, config: StreamConfig) -> Self {
        let profiles = (0..config.groups)
            .map(|g| {
                [0u8, 1].map(|label| {
                    let members = reference.cell_indices(CellIndex {
                        group: g as u8,
                        label,
                    });
                    (members.len() >= config.min_profile_rows).then(|| {
                        learn_constraints(
                            &reference.numeric_matrix(Some(&members)),
                            &config.confair.learn_opts,
                        )
                    })
                })
            })
            .collect();
        Replay {
            profiles,
            window: SlidingWindow::new(
                config.window,
                reference.num_attributes(),
                config.pending_labels,
                config.groups,
            )
            .expect("window"),
            detectors: vec![PageHinkley::new(config.detector); config.groups],
            config,
            next_id: 0,
        }
    }

    /// Replay one observed batch stage by stage, each stage timed as a
    /// span under `parent`. Returns how many tuples violated.
    fn batch(
        &mut self,
        tracer: &mut Tracer,
        parent: usize,
        b: u64,
        batch: &[StreamTuple],
        decisions: &[u8],
    ) -> usize {
        let eps = self.config.conformance_eps;
        let profiles = &self.profiles;
        let (violated, _) = tracer.span("conformance.violation", Some(parent), b, || {
            batch
                .iter()
                .zip(decisions)
                .map(|(t, &d)| {
                    profiles[t.group as usize][d as usize]
                        .as_ref()
                        .map_or(0.0, |c| c.violation(&t.features))
                        > eps
                })
                .collect::<Vec<bool>>()
        });
        let window = &mut self.window;
        let first = self.next_id;
        tracer.span("window.push", Some(parent), b, || {
            for (k, ((t, &d), &v)) in batch.iter().zip(decisions).zip(&violated).enumerate() {
                let meta = SlotMeta {
                    id: first + k as u64,
                    group: t.group,
                    label: t.label,
                    decision: d,
                    violated: v,
                };
                window.push(meta, &t.features).expect("replay push");
            }
        });
        self.next_id += batch.len() as u64;
        let detectors = &mut self.detectors;
        tracer.span("drift.ph", Some(parent), b, || {
            for (t, &v) in batch.iter().zip(&violated) {
                std::hint::black_box(detectors[t.group as usize].observe(f64::from(v)));
            }
        });
        let window = &self.window;
        let floor = self.config.di_floor;
        tracer.span("monitor.snapshot", Some(parent), b, || {
            std::hint::black_box(FairnessSnapshot::from_counts(window.counts(), floor));
        });
        violated.iter().filter(|&&v| v).count()
    }
}

/// The traced run. Every batch goes, in turn, through
/// - the untraced engine (timed as a whole),
/// - a second engine bootstrapped the same way, split into its halves,
///   whose `Scorer::score` and `Monitor::observe` calls (and the stages
///   inside them, replayed) are spans,
/// - a GBT model's scorer, and
/// - a `ShardedEngine` at `nproc` shards over the same tuples.
///
/// Interleaving keeps a host slowdown from landing on one side only; the
/// untraced engine and the traced halves alternate which goes first.
fn traced(inputs: &Inputs, untraced: StreamEngine, args: &Args, gen_s: f64, out: &mut Outcome) {
    out.set("datasets.gen_s", gen_s);
    let pool = &inputs.pool;
    let mut untraced = untraced;
    let start_at = warm_up_single(&mut untraced, pool);

    let mut engine = build_engine(inputs, LearnerKind::Logistic, args.seed);
    let mut tracer = Tracer::new();
    let emits = Arc::new(Mutex::new(Vec::new()));
    engine.set_sink(shared_sink(TimingSink {
        inner: RingSink::new(RING_EVENTS),
        origin: tracer.origin(),
        emits: emits.clone(),
    }));
    warm_up_single(&mut engine, pool);
    emits.lock().expect("emit log").clear();
    let (mut scorer, mut monitor) = engine.into_parts();
    let predictor = SingleModelPredictor::from_state(scorer.state().expect("state"))
        .expect("restore predictor");
    let mut replay = Replay::new(&inputs.reference, config());

    // The other two models of the same tuples, timed in a tracer of their
    // own so they stay out of the reconciliation.
    let mut side = Tracer::new();
    let (mut gbt_scorer, _) = build_engine(inputs, LearnerKind::Gbt, args.seed).into_parts();
    let gbt = SingleModelPredictor::from_state(gbt_scorer.state().expect("state"))
        .expect("restore predictor");
    let routed = route(pool, host::nproc(), args.seed);
    let shards = (0..host::nproc())
        .map(|_| build_engine(inputs, LearnerKind::Logistic, args.seed))
        .collect();
    let mut sharded = ShardedEngine::from_engines(shards).expect("shards");
    warm_up(|i| {
        sharded.ingest(&routed[i]).expect("warm-up ingest");
        (0..sharded.shard_count())
            .all(|k| sharded.shard(k as u32).expect("shard").window_len() >= WINDOW)
    });

    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut untraced_ns = 0u64;
    let mut traced_ns = 0u64;
    let mut identical = true;
    let mut sharded_identical = true;
    let mut violated = 0usize;
    let mut events = 0usize;
    let mut n = 0usize;
    let mut plain_ingest = |i: usize, total: &mut u64| {
        let t = Instant::now();
        let d = untraced.ingest(&pool[i]).expect("ingest").decisions;
        *total += t.elapsed().as_nanos() as u64;
        d
    };
    while n == 0 || Instant::now() < deadline {
        let b = n as u64;
        let i = (start_at + n) % POOL_BATCHES;
        let batch = &pool[i];
        let before = n
            .is_multiple_of(2)
            .then(|| plain_ingest(i, &mut untraced_ns));
        let root_start = tracer.now_ns();
        let root = tracer.record("engine.ingest", root_start, root_start, None, b);
        let (decisions, score) = tracer.span("scorer.score", Some(root), b, || {
            scorer.score(batch).expect("score")
        });
        let (outcome, obs) = tracer.span("monitor.observe", Some(root), b, || {
            monitor.observe(batch, &decisions).expect("observe")
        });
        if let Some(model) = outcome.model {
            scorer.install(model);
        }
        if let Some(update) = outcome.repair {
            scorer.apply_repair(update);
        }
        let root_end = tracer.now_ns();
        tracer.spans[root].end_ns = root_end;
        traced_ns += root_end - root_start;
        let expected = before.unwrap_or_else(|| plain_ingest(i, &mut untraced_ns));
        for (s, e) in emits.lock().expect("emit log").drain(..) {
            tracer.record("telemetry.emit", s, e, Some(obs), b);
            events += 1;
        }
        // Replays of the stages inside the two calls, run after the
        // batch so they never perturb the traced path.
        let x = matrix(batch);
        tracer.span("learners.margin", Some(score), b, || {
            std::hint::black_box(predictor.predict_margin_rows(&x).expect("margins"))
        });
        violated += replay.batch(&mut tracer, obs, b, batch, &decisions);
        identical &= decisions == expected;

        let (_, gbt_score) = side.span("scorer.score_gbt", None, b, || {
            std::hint::black_box(gbt_scorer.score(batch).expect("score"))
        });
        side.span("learners.margin_gbt", Some(gbt_score), b, || {
            std::hint::black_box(gbt.predict_margin_rows(&x).expect("margins"))
        });
        let (sharded_decisions, _) = side.span("sharded.ingest", None, b, || {
            sharded.ingest(&routed[i]).expect("ingest").decisions
        });
        sharded_identical &= sharded_decisions == expected;
        n += 1;
    }

    let tuples = (n * BATCH) as f64;
    let totals = tracer.totals();
    let self_per_tuple = |name: &str| totals.get(name).map_or(0.0, |t| t.self_ns as f64 / tuples);
    let total = |name: &str| totals.get(name).map_or(0.0, |t| t.total_ns as f64);
    let score_ns = total("scorer.score") / tuples;
    let observe_ns = total("monitor.observe") / tuples;
    out.set(
        "engine.self_ns_per_tuple",
        untraced_ns as f64 / tuples - score_ns - observe_ns,
    );
    out.set("scorer.score_ns_per_tuple", score_ns);
    out.set(
        "monitor.observe_ns_per_tuple",
        self_per_tuple("monitor.observe"),
    );
    out.set(
        "conformance.violation_ns_per_tuple",
        self_per_tuple("conformance.violation"),
    );
    out.set("window.push_ns_per_tuple", self_per_tuple("window.push"));
    out.set("drift.ph_ns_per_step", self_per_tuple("drift.ph"));
    out.set("monitor.snapshot_ns", total("monitor.snapshot") / n as f64);
    if events > 0 {
        out.set(
            "telemetry.emit_ns_per_event",
            total("telemetry.emit") / events as f64,
        );
    }
    out.set("telemetry.events_per_batch", events as f64 / n as f64);
    out.set("conformance.violated_share", violated as f64 / tuples);
    out.set("monitor.alerts", monitor.alerts().len() as f64);

    let side_totals = side.totals();
    let side_total = |name: &str| side_totals.get(name).map_or(0.0, |t| t.total_ns as f64);
    out.set(
        "scorer.score_ns_per_tuple_gbt",
        side_total("scorer.score_gbt") / tuples,
    );
    out.set(
        "learners.margin_ns_per_row_gbt",
        side_total("learners.margin_gbt") / tuples,
    );
    let sharded_ns = side_total("sharded.ingest");
    out.set("sharded.ingest_ns_per_tuple", sharded_ns / tuples);
    out.set("sharded.speedup_vs_1", untraced_ns as f64 / sharded_ns);
    let seen: Vec<f64> = (0..sharded.shard_count())
        .map(|s| sharded.shard(s as u32).expect("shard").tuples_seen() as f64)
        .collect();
    let mean = seen.iter().sum::<f64>() / seen.len() as f64;
    out.set(
        "sharded.shard_skew",
        seen.iter().copied().fold(0.0, f64::max) / mean,
    );

    // Reconciliation: the layers measured one by one (the split scoring
    // call, the replayed monitor stages and the sink's emits) against
    // the untraced engine's time for the same batches, two independent
    // measurements. Overhead: the split, traced calls against the same
    // untraced time, replays excluded.
    let layers = tracer.total_ns(&[
        "scorer.score",
        "conformance.violation",
        "window.push",
        "drift.ph",
        "monitor.snapshot",
        "telemetry.emit",
    ]);
    out.set("trace.reconcile", layers as f64 / untraced_ns as f64);
    out.set("trace.overhead", traced_ns as f64 / untraced_ns as f64);
    out.set("trace.clipped", tracer.clipped() as f64);
    out.set("trace.untraced_s", untraced_ns as f64 * 1e-9);
    out.set(
        "trace.spans",
        (tracer.spans.len() + side.spans.len()) as f64,
    );
    out.check("traced decisions are bit-identical to untraced", identical);
    out.check(
        "sharded decisions equal the single engine's",
        sharded_identical,
    );
    out.attempted = 4 * n as u64;
    tracer.save(&args.workload, args.seed);
}
