//! The drift-serve workload: a drifting binary stream served through the
//! `AsyncEngine` in an open loop at a fixed rate, with the repair ladder
//! on, on-alert retraining, and labels arriving late through `feedback`.
//! The drifting cell alternates between the minority and the majority
//! every `SEGMENT` tuples, so every run holds several DI* breach →
//! recovery episodes. The same schedule is then served inline by the sync
//! `StreamEngine`, which gives the gated timings.

use crate::host::{self, SpeedReference};
use crate::stats::{
    chunked_tail, fixed_tail, median, open_loop, summarize, Clock, DiBlockMeter, OpenLoop,
};
use crate::steady::{json_list, summary_json};
use crate::trace::Tracer;
use crate::{num, Args, Outcome};
use cf_data::Dataset;
use cf_datasets::stream::{DriftStream, DriftStreamSpec};
use cf_learners::LearnerKind;
use cf_metrics::Confusion;
use cf_stream::{
    AsyncConfig, AsyncEngine, JoinStats, LabelFeedback, RepairConfig, RetrainPolicy, StreamConfig,
    StreamEngine, StreamTuple,
};
use cf_telemetry::{shared_sink, MetricsRegistry, RingSink, TelemetryEvent};
use confair_core::confair::{AlphaMode, ConFairConfig};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Offered load, tuples per second, in batches of `BATCH`.
pub const RATE: f64 = 100_000.0;
pub const BATCH: usize = 512;
pub const WINDOW: usize = 4_096;
/// Tuples between switches of the drifting cell.
pub const SEGMENT: usize = 65_536;
/// Labels trail serving by a uniform delay in this range (tuples), below
/// the window; `MISSING` of them never arrive.
pub const DELAY: (u64, u64) = (256, 2_048);
pub const MISSING: f64 = 0.05;
/// The external meter's block and floor.
pub const METER_BLOCK: usize = 2_048;
pub const FLOOR: f64 = 0.8;
/// Breach → recovery episodes every run must contain.
pub const MIN_EPISODES: usize = 5;
/// Per-batch serving latency limit, from the due time.
pub const SLO_US: f64 = 2_000.0;
pub const SETUP_REPS: usize = 21;
/// Batches per part of the async pass for its tail (p99 of each; see
/// `chunked_tail`).
const TAIL_PART: usize = 1_000;
/// The inline pass's tail percentile: p99, with 29 of the 2930 batches
/// of a 30 s run's half beyond it. It sits among the batches queued
/// behind a retrain; p99.5 spread twice as much from run to run.
const INLINE_TAIL_P: f64 = 99.0;
const REFERENCE_ROWS: usize = 4_000;
const RING_EVENTS: usize = 1 << 16;

fn spec(segment: usize) -> DriftStreamSpec {
    DriftStreamSpec {
        // Segment 0 is undrifted; after it the drifted cell alternates
        // minority (1), majority (0), minority, ...
        drift_onset: if segment == 0 { u64::MAX } else { 0 },
        drift_group: (segment % 2) as u8,
        // An eighth of a turn (45°) of the drifted cell's label direction:
        // enough to break the DI* floor, little enough for the ladder to
        // repair.
        drift_angle: std::f64::consts::FRAC_PI_4,
        ..DriftStreamSpec::default()
    }
}

pub fn config() -> StreamConfig {
    StreamConfig {
        window: WINDOW,
        retrain: RetrainPolicy::OnAlert {
            min_window: WINDOW / 2,
        },
        repair: RepairConfig {
            ladder: true,
            ..RepairConfig::default()
        },
        // Fixed degrees: each retrain is one weighted fit, as in the
        // repository's drifting stream rows.
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

/// The seeded inputs, stored flat (a run's worth of boxed tuples would
/// take hundreds of MB): a labeled reference, every tuple's features,
/// group and true label, and the feedback due after each batch.
pub struct Inputs {
    reference: Dataset,
    dim: usize,
    features: Vec<f64>,
    groups: Vec<u8>,
    labels: Vec<u8>,
    feedback: Vec<Vec<LabelFeedback>>,
}

impl Inputs {
    fn batches(&self) -> usize {
        self.feedback.len()
    }

    /// Batch `b` as the engine takes it: unlabeled tuples.
    fn batch(&self, b: usize) -> Vec<StreamTuple> {
        (b * BATCH..(b + 1) * BATCH)
            .map(|k| StreamTuple {
                features: self.features[k * self.dim..(k + 1) * self.dim].to_vec(),
                group: self.groups[k],
                label: None,
            })
            .collect()
    }
}

fn generate(seed: u64, tuples: usize) -> Inputs {
    let reference = spec(0).reference(REFERENCE_ROWS, seed);
    let n_batches = tuples.div_ceil(BATCH);
    let dim = reference.num_attributes();
    let mut features = Vec::with_capacity(n_batches * BATCH * dim);
    let mut groups = Vec::with_capacity(n_batches * BATCH);
    let mut labels = Vec::with_capacity(n_batches * BATCH);
    let mut stream = None;
    for b in 0..n_batches {
        let segment = b * BATCH / SEGMENT;
        if (b * BATCH).is_multiple_of(SEGMENT) {
            stream = Some(DriftStream::new(
                spec(segment),
                seed.wrapping_add(1 + segment as u64),
            ));
        }
        let data = stream.as_mut().expect("segment stream").next_batch(BATCH);
        for t in StreamTuple::rows_unlabeled_from_dataset(&data).expect("numeric") {
            features.extend_from_slice(&t.features);
            groups.push(t.group);
        }
        labels.extend_from_slice(data.labels());
    }
    // Label delays: uniform in DELAY, MISSING never delivered.
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut feedback = vec![Vec::new(); n_batches];
    for (id, &label) in labels.iter().enumerate() {
        if (next() % 10_000) as f64 / 10_000.0 < MISSING {
            continue;
        }
        let delay = DELAY.0 + next() % (DELAY.1 - DELAY.0 + 1);
        // Delivered after the first batch whose end passes the due id.
        let due = ((id as u64 + delay) / BATCH as u64) as usize;
        if due < n_batches {
            feedback[due].push(LabelFeedback {
                id: id as u64,
                label,
            });
        }
    }
    Inputs {
        reference,
        dim,
        features,
        groups,
        labels,
        feedback,
    }
}

fn build_sync(inputs: &Inputs, seed: u64) -> StreamEngine {
    StreamEngine::from_reference(&inputs.reference, LearnerKind::Logistic, seed, config())
        .expect("bootstrap")
}

/// A sync engine with the production observers attached: a ring sink and
/// a metrics registry.
fn build_served(inputs: &Inputs, seed: u64) -> StreamEngine {
    let mut engine = build_sync(inputs, seed);
    engine.set_sink(shared_sink(RingSink::new(RING_EVENTS)));
    engine.install_metrics(&MetricsRegistry::new());
    engine
}

fn build_async(inputs: &Inputs, seed: u64) -> AsyncEngine {
    AsyncEngine::from_engine(build_served(inputs, seed), AsyncConfig::default())
}

/// Wall clock for the open loop. It spins until the due time rather
/// than sleeping: a sleeping thread on a shared host can wake a
/// millisecond late, and that lateness would be charged to the engine.
struct WallClock {
    origin: Instant,
}

impl Clock for WallClock {
    fn now(&mut self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }
    fn wait_until(&mut self, t: f64) {
        while self.now() < t {
            std::hint::spin_loop();
        }
    }
}

/// The two ways the workload serves the stream: the `AsyncEngine` users
/// deploy, and the sync `StreamEngine` doing the same work inline.
trait Serving {
    fn ingest(&mut self, batch: Vec<StreamTuple>) -> cf_stream::Result<Vec<u8>>;
    fn feedback(&mut self, labels: &[LabelFeedback]) -> cf_stream::Result<()>;
    /// (queue backlog, monitor lag) after a call.
    fn pressure(&self) -> (usize, u64);
}

impl Serving for AsyncEngine {
    fn ingest(&mut self, batch: Vec<StreamTuple>) -> cf_stream::Result<Vec<u8>> {
        self.ingest_owned(batch)
    }
    fn feedback(&mut self, labels: &[LabelFeedback]) -> cf_stream::Result<()> {
        AsyncEngine::feedback(self, labels)
    }
    fn pressure(&self) -> (usize, u64) {
        (self.queue_backlog(), self.monitor_lag())
    }
}

impl Serving for StreamEngine {
    fn ingest(&mut self, batch: Vec<StreamTuple>) -> cf_stream::Result<Vec<u8>> {
        StreamEngine::ingest(self, &batch).map(|o| o.decisions)
    }
    fn feedback(&mut self, labels: &[LabelFeedback]) -> cf_stream::Result<()> {
        StreamEngine::feedback(self, labels).map(|_| ())
    }
    fn pressure(&self) -> (usize, u64) {
        (0, 0)
    }
}

/// One open-loop pass over the inputs.
struct Pass {
    timing: OpenLoop,
    decisions: Vec<Vec<u8>>,
    failed: u64,
    backlog_max: usize,
    lag_max: u64,
}

/// Serve every batch on its schedule, feeding back the labels due after
/// it. With a tracer, each call is a span (`async.ingest`,
/// `async.feedback`) and the queue pressure is sampled after it. With a
/// speed reference, it runs while every `REFERENCE_EVERY`-th batch is
/// built, before that batch is due.
fn serve(
    inputs: &Inputs,
    engine: &mut impl Serving,
    mut tracer: Option<&mut Tracer>,
    mut reference: Option<&mut SpeedReference>,
) -> Pass {
    let interval = BATCH as f64 / RATE;
    let mut decisions = vec![Vec::new(); inputs.batches()];
    let mut failed = 0;
    let mut backlog_max = 0;
    let mut lag_max = 0;
    let mut clock = WallClock {
        origin: Instant::now(),
    };
    let timing = open_loop(
        &mut clock,
        inputs.batches(),
        interval,
        |i| {
            if let Some(r) = reference
                .as_mut()
                .filter(|_| i % host::REFERENCE_EVERY == 0)
            {
                r.run(BATCH);
            }
            inputs.batch(i)
        },
        |i, batch, _| {
            let result = match tracer.as_mut() {
                Some(t) => {
                    t.span("async.ingest", None, i as u64, || engine.ingest(batch))
                        .0
                }
                None => engine.ingest(batch),
            };
            match result {
                Ok(d) => decisions[i] = d,
                Err(e) => {
                    eprintln!("ingest failed: {e:?}");
                    failed += 1;
                }
            }
            let fb = &inputs.feedback[i];
            if !fb.is_empty() {
                let result = match tracer.as_mut() {
                    Some(t) => {
                        t.span("async.feedback", None, i as u64, || engine.feedback(fb))
                            .0
                    }
                    None => engine.feedback(fb),
                };
                if let Err(e) = result {
                    eprintln!("feedback failed: {e:?}");
                    failed += 1;
                }
            }
            if tracer.is_some() {
                let (backlog, lag) = engine.pressure();
                backlog_max = backlog_max.max(backlog);
                lag_max = lag_max.max(lag);
            }
        },
    );
    Pass {
        timing,
        decisions,
        failed,
        backlog_max,
        lag_max,
    }
}

/// What the async engine reports at its final flush.
struct Flushed {
    flush_us: f64,
    dropped: u64,
    /// scored == monitored + dropped + gap.
    conserved: bool,
    failed: bool,
}

fn flush(mut engine: AsyncEngine) -> Flushed {
    let t = Instant::now();
    let failed = engine.flush().is_err();
    let flush_us = t.elapsed().as_secs_f64() * 1e6;
    let dropped = engine.dropped().tuples;
    Flushed {
        flush_us,
        dropped,
        conserved: engine.tuples_scored()
            == engine.tuples_monitored() + dropped + engine.monitor_gap_tuples(),
        failed,
    }
}

/// Meter the served decisions the way a user would see them.
fn meter_served(inputs: &Inputs, decisions: &[Vec<u8>]) -> (DiBlockMeter, f64) {
    let served: Vec<u8> = decisions.iter().flatten().copied().collect();
    let mut meter = DiBlockMeter::new(2, METER_BLOCK, FLOOR);
    for (k, &d) in served.iter().enumerate() {
        meter.push(inputs.groups[k], d);
    }
    let confusion = Confusion::from_pairs(&inputs.labels[..served.len()], &served);
    (meter, confusion.balanced_accuracy())
}

pub fn mean_di(meter: &DiBlockMeter) -> f64 {
    let di: Vec<f64> = meter.blocks.iter().flatten().copied().collect();
    di.iter().sum::<f64>() / di.len().max(1) as f64
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let gen_start = Instant::now();
    // Two passes share the run, each over the same inputs: the async
    // engine, then the sync engine inline.
    let inputs = generate(args.seed, (RATE * args.seconds / 2.0) as usize);
    let gen_s = gen_start.elapsed().as_secs_f64();

    let mut reference = SpeedReference::new();
    let mut setup = Vec::new();
    let mut engine = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        engine = Some(build_async(&inputs, args.seed));
        setup.push(t.elapsed().as_secs_f64());
        reference.run(host::SETUP_REFERENCE_ROWS);
    }
    let setup_factor = reference.factor();
    let mut engine = engine.expect("at least one set-up");
    out.note("setup_s_samples", json_list(&setup));
    out.note("setup_host_factor", num(setup_factor));
    out.note("datasets_gen_s", num(gen_s));

    let pass = serve(&inputs, &mut engine, None, None);
    let flushed = flush(engine);
    let feedback_calls = inputs.feedback.iter().filter(|f| !f.is_empty()).count();
    out.attempted = (inputs.batches() + feedback_calls + 1) as u64;
    out.failed = pass.failed + u64::from(flushed.failed);
    let (meter, bal_acc) = meter_served(&inputs, &pass.decisions);
    let episodes: Vec<f64> = meter.recoveries().iter().map(|&e| e as f64).collect();
    out.check("no async operation failed", out.failed == 0);
    out.check(
        "scored == monitored + dropped + gap at the final flush",
        flushed.conserved,
    );
    out.check(
        &format!("at least {MIN_EPISODES} breach-recovery episodes"),
        episodes.len() >= MIN_EPISODES,
    );

    let latency_us: Vec<f64> = pass.timing.latency.iter().map(|s| s * 1e6).collect();
    let late_us: Vec<f64> = pass.timing.late.iter().map(|s| s * 1e6).collect();
    let lat = summarize(&latency_us);
    let (tail_p, tail) = chunked_tail(&latency_us, TAIL_PART);
    let slo_miss =
        latency_us.iter().filter(|&&l| l > SLO_US).count() as f64 / latency_us.len() as f64;
    let recovery = if episodes.is_empty() {
        0.0
    } else {
        median(&episodes)
    };
    out.note("serve_p50_us", num(lat.p50));
    out.note("serve_tail_us", num(tail));
    out.note("tail_percentile", num(tail_p));
    out.note("serve_latency_us", summary_json(&latency_us));
    out.note("slo_us", num(SLO_US));
    out.note("slo_miss_share", num(slo_miss));
    out.note("unfair_share", num(meter.unfair_share()));
    out.note("recovery_tuples", num(recovery));
    out.note("episodes", episodes.len().to_string());
    out.note("gen_late_us", summary_json(&late_us));

    if args.trace {
        out.set("datasets.gen_s", gen_s);
        out.set("serve.unfair_share", meter.unfair_share());
        out.set("serve.episodes", episodes.len() as f64);
        out.set("serve.recovery_tuples", recovery);
        out.set("serve.slo_miss_share", slo_miss);
        let mut late_sorted = late_us;
        late_sorted.sort_by(f64::total_cmp);
        out.set(
            "gen.late_p99_us",
            crate::stats::nearest_rank(&late_sorted, 99.0),
        );
        traced(&inputs, args, &pass, &mut out);
        return out;
    }

    // The gated timings come from the inline pass: the same schedule,
    // monitoring, ladder steps, retrains and feedback joins, all on the
    // serving thread. The async hand-off's cost swung 3-4x with the
    // host's state over minutes, so it is reported, not gated.
    let mut inline_engine = build_served(&inputs, args.seed);
    let inline = serve(&inputs, &mut inline_engine, None, Some(&mut reference));
    let host_factor = reference.factor();
    out.attempted += (inputs.batches() + feedback_calls) as u64;
    out.failed += inline.failed;
    let (inline_meter, _) = meter_served(&inputs, &inline.decisions);
    out.check("no inline operation failed", inline.failed == 0);
    out.check(
        &format!("at least {MIN_EPISODES} breach-recovery episodes inline"),
        inline_meter.recoveries().len() >= MIN_EPISODES,
    );
    let inline_us: Vec<f64> = inline.timing.latency.iter().map(|s| s * 1e6).collect();
    // The whole pass's tail, not the per-part one: above about p97 the
    // batches queued behind a retrain take over, and a part's tail lands
    // on either side of that step by chance.
    let (inline_tail_p, inline_tail) = fixed_tail(&inline_us, INLINE_TAIL_P);
    let busy_s: f64 = inline.timing.service.iter().sum();
    let tput = (inline.decisions.iter().map(Vec::len).sum::<usize>()) as f64 / busy_s;
    out.set("setup_s", median(&setup) / setup_factor);
    out.set("tput", tput * host_factor);
    out.set("tail_us", inline_tail / host_factor);
    out.set("di_star", mean_di(&meter));
    out.set("bal_acc", bal_acc);
    out.note("host_factor", num(host_factor));
    out.note("raw_tput", num(tput));
    out.note("raw_tail_us", num(inline_tail));
    out.note("inline_latency_us", summary_json(&inline_us));
    out.note("inline_tail_percentile", num(inline_tail_p));
    out
}

/// The traced run: the async open loop again with spans around its
/// calls, then a synchronous twin driven through its split halves over
/// the same batches and feedback, where retrains, feedback joins and the
/// repair trail can be timed and read.
fn traced(inputs: &Inputs, args: &Args, untraced: &Pass, out: &mut Outcome) {
    let mut tracer = Tracer::new();
    let mut engine = build_async(inputs, args.seed);
    let traced_pass = serve(inputs, &mut engine, Some(&mut tracer), None);
    let flushed = flush(engine);
    let mut ingest_us: Vec<f64> = tracer
        .spans
        .iter()
        .filter(|s| s.name == "async.ingest")
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
        .collect();
    ingest_us.sort_by(f64::total_cmp);
    out.set(
        "async.ingest_us_p50",
        crate::stats::nearest_rank(&ingest_us, 50.0),
    );
    out.set(
        "async.ingest_us_p99",
        crate::stats::nearest_rank(&ingest_us, 99.0),
    );
    out.set("async.queue_backlog_max", traced_pass.backlog_max as f64);
    out.set("async.monitor_lag_max", traced_pass.lag_max as f64);
    out.set("async.flush_us", flushed.flush_us);
    out.set("async.dropped_tuples", flushed.dropped as f64);
    out.check(
        "no traced operation failed",
        traced_pass.failed == 0 && !flushed.failed,
    );

    // The two async passes run one after the other, so a host slowdown
    // can land on one of them; per-batch medians keep a few stalls out
    // of the ratio.
    out.set(
        "trace.overhead",
        median(&traced_pass.timing.service) / median(&untraced.timing.service),
    );
    out.set("trace.untraced_s", untraced.timing.service.iter().sum());

    let mut plain = build_sync(inputs, args.seed);
    let mut twin = build_sync(inputs, args.seed);
    let ring = Arc::new(Mutex::new(RingSink::new(RING_EVENTS)));
    twin.set_sink(ring.clone());
    let (mut scorer, mut monitor) = twin.into_parts();
    let mut twin_tracer = Tracer::new();
    let mut identical = true;
    let mut retrain_s = Vec::new();
    let mut labels = 0usize;
    let mut pending_max = 0usize;
    let mut plain_ns = 0u64;
    for (b, fb) in inputs.feedback.iter().enumerate() {
        let batch = inputs.batch(b);
        let t = Instant::now();
        let expected = plain.ingest(&batch).expect("ingest").decisions;
        if !fb.is_empty() {
            plain.feedback(fb).expect("feedback");
        }
        plain_ns += t.elapsed().as_nanos() as u64;
        let b = b as u64;
        let (decisions, _) = twin_tracer.span("scorer.score", None, b, || {
            scorer.score(&batch).expect("score")
        });
        let (outcome, obs) = twin_tracer.span("monitor.observe", None, b, || {
            monitor.observe(&batch, &decisions).expect("observe")
        });
        if outcome.retrained {
            let s = &twin_tracer.spans[obs];
            retrain_s.push((s.end_ns - s.start_ns) as f64 * 1e-9);
        }
        if let Some(model) = outcome.model {
            scorer.install(model);
        }
        if let Some(update) = outcome.repair {
            scorer.apply_repair(update);
        }
        identical &= decisions == expected;
        if !fb.is_empty() {
            twin_tracer.span("window.feedback", None, b, || {
                monitor.feedback(fb).expect("feedback")
            });
            labels += fb.len();
        }
        pending_max = pending_max.max(monitor.pending_labels());
    }
    out.check(
        "split-halves decisions are bit-identical to the sync engine's",
        identical,
    );
    let twin_totals = twin_tracer.totals();
    if let Some(t) = twin_totals.get("window.feedback") {
        out.set(
            "window.feedback_ns_per_label",
            t.total_ns as f64 / labels.max(1) as f64,
        );
    }
    if !retrain_s.is_empty() {
        out.set("monitor.retrain_s", median(&retrain_s));
    }
    let joins: JoinStats = monitor.join_stats();
    out.set(
        "window.joined_share",
        (joins.joined + joins.joined_late) as f64 / labels.max(1) as f64,
    );
    out.set("window.pending_max", pending_max as f64);
    out.set("monitor.alerts", monitor.alerts().len() as f64);

    // Repair episodes from the trail: tuples from an episode's first
    // repair_start to the repair_end that closed it, per closing tier.
    let events = ring.lock().expect("ring").events();
    let mut open_at = None;
    let mut closed: [(Vec<f64>, &str); 3] = [
        (Vec::new(), "threshold_nudge"),
        (Vec::new(), "difffair_projection"),
        (Vec::new(), "confair_retrain"),
    ];
    for event in &events {
        match event {
            TelemetryEvent::RepairStart(s) => {
                open_at.get_or_insert(s.at_tuple);
            }
            TelemetryEvent::RepairEnd(e) if e.outcome == "recovered" => {
                if let (Some(start), Some(slot)) = (
                    open_at.take(),
                    closed.iter_mut().find(|(_, tier)| *tier == e.tier),
                ) {
                    slot.0.push((e.at_tuple - start) as f64);
                }
            }
            _ => {}
        }
    }
    let names = [
        (
            "repair.tuples_to_recovery_nudge",
            "repair.episodes_closed_by_nudge",
        ),
        (
            "repair.tuples_to_recovery_projection",
            "repair.episodes_closed_by_projection",
        ),
        (
            "repair.tuples_to_recovery_retrain",
            "repair.episodes_closed_by_retrain",
        ),
    ];
    for ((tuples, _), (t_name, n_name)) in closed.iter().zip(names) {
        out.set(n_name, tuples.len() as f64);
        if !tuples.is_empty() {
            out.set(t_name, median(tuples));
        }
    }
    // Reconciliation: the twin's layers, timed call by call, against the
    // plain engine doing the same work untraced, two independent
    // measurements.
    out.set(
        "trace.reconcile",
        twin_tracer.total_ns(&["scorer.score", "monitor.observe", "window.feedback"]) as f64
            / plain_ns as f64,
    );
    out.set(
        "trace.clipped",
        (tracer.clipped() + twin_tracer.clipped()) as f64,
    );
    out.set(
        "trace.spans",
        (tracer.spans.len() + twin_tracer.spans.len()) as f64,
    );
    out.check(
        "the trail ring held every repair event",
        ring.lock().expect("ring").total_seen() <= RING_EVENTS as u64,
    );
    tracer.save(&args.workload, args.seed);
}
