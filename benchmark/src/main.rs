//! The repository benchmark: seeded workloads over the ConFair serving
//! engine and the offline ConFair/DiffFair fit, measured end to end (with
//! tracing off) or per layer (with `--trace 1`).
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Standard output ends with one JSON line: `correct`, `attempted`,
//! `failed` and `metrics` (the end-to-end metrics of BENCHMARK.json, or
//! its per-layer metrics when tracing). The line before it is a report
//! with the host block, the workload's own figures with their sample
//! counts, and the trace reconciliation. The exit code is non-zero when
//! an output check fails.

mod drift;
mod fit;
mod host;
mod stats;
mod steady;
mod trace;

use std::collections::BTreeMap;

/// End-to-end metrics, reported by every workload: (name, unit).
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("rss_peak_mb", "MB"),
    ("tput", "1/s"),
    ("tail_us", "us"),
    ("di_star", "ratio"),
    ("bal_acc", "ratio"),
];

/// Per-layer metrics: (name, unit). A layer a workload bypasses reports 0.
pub const PER_LAYER: [(&str, &str); 51] = [
    ("engine.self_ns_per_tuple", "ns"),
    ("monitor.observe_ns_per_tuple", "ns"),
    ("conformance.violation_ns_per_tuple", "ns"),
    ("window.push_ns_per_tuple", "ns"),
    ("drift.ph_ns_per_step", "ns"),
    ("monitor.snapshot_ns", "ns"),
    ("telemetry.emit_ns_per_event", "ns"),
    ("scorer.score_ns_per_tuple", "ns"),
    ("scorer.score_ns_per_tuple_gbt", "ns"),
    ("learners.margin_ns_per_row_gbt", "ns"),
    ("sharded.ingest_ns_per_tuple", "ns"),
    ("sharded.speedup_vs_1", "ratio"),
    ("sharded.shard_skew", "ratio"),
    ("async.ingest_us_p50", "us"),
    ("async.ingest_us_p99", "us"),
    ("async.queue_backlog_max", "count"),
    ("async.flush_us", "us"),
    ("window.feedback_ns_per_label", "ns"),
    ("monitor.retrain_s", "s"),
    ("async.monitor_lag_max", "tuples"),
    ("repair.tuples_to_recovery_nudge", "tuples"),
    ("repair.tuples_to_recovery_projection", "tuples"),
    ("repair.tuples_to_recovery_retrain", "tuples"),
    ("repair.episodes_closed_by_nudge", "count"),
    ("repair.episodes_closed_by_projection", "count"),
    ("repair.episodes_closed_by_retrain", "count"),
    ("core.build_profile_s", "s"),
    ("core.tune_alpha_s", "s"),
    ("core.alpha_grid_fits", "count"),
    ("core.difffair_train_s", "s"),
    ("density.filter_s", "s"),
    ("conformance.learn_s", "s"),
    ("learners.fit_s_lr", "s"),
    ("learners.fit_s_gbt", "s"),
    ("conformance.violated_share", "ratio"),
    ("window.joined_share", "ratio"),
    ("window.pending_max", "count"),
    ("monitor.alerts", "count"),
    ("telemetry.events_per_batch", "ratio"),
    ("async.dropped_tuples", "count"),
    ("gen.late_p99_us", "us"),
    ("datasets.gen_s", "s"),
    ("serve.unfair_share", "ratio"),
    ("serve.recovery_tuples", "tuples"),
    ("serve.slo_miss_share", "ratio"),
    ("serve.episodes", "count"),
    ("trace.reconcile", "ratio"),
    ("trace.overhead", "ratio"),
    ("trace.clipped", "count"),
    ("trace.spans", "count"),
    ("trace.untraced_s", "s"),
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a workload run hands back.
#[derive(Default)]
pub struct Outcome {
    /// Output checks: (name, passed).
    pub checks: Vec<(String, bool)>,
    pub attempted: u64,
    pub failed: u64,
    /// Metric values by name (end-to-end when untraced, per-layer when
    /// traced).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Workload-specific figures for the report line (JSON fragments).
    pub report: Vec<(String, String)>,
}

impl Outcome {
    pub fn check(&mut self, name: &str, passed: bool) {
        if !passed {
            eprintln!("check failed: {name}");
        }
        self.checks.push((name.to_string(), passed));
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, key: &str, json: String) {
        self.report.push((key.to_string(), json));
    }
}

/// A JSON number with every digit Rust's shortest round-trip form gives.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

const USAGE: &str = "usage: cf-perfbench --workload <steady_ingest|drift_serve|offline_fit> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| e.to_string())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| e.to_string())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let mut out = match args.workload.as_str() {
        "steady_ingest" => steady::run(&args),
        "drift_serve" => drift::run(&args),
        "offline_fit" => fit::run(&args),
        other => {
            eprintln!("unknown workload {other}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if !args.trace {
        out.set("rss_peak_mb", host::rss_peak_mb());
    }

    let list: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::new();
    for &(name, unit) in list {
        let value = match out.metrics.get(name) {
            Some(&v) => v,
            // A layer this workload bypasses did no work.
            None if args.trace => 0.0,
            None => panic!("workload {} did not measure {name}", args.workload),
        };
        assert!(value.is_finite(), "{name} is {value}");
        metrics.push(format!(
            "{name:?}:{{\"value\":{},\"unit\":{unit:?}}}",
            num(value)
        ));
    }
    let correct = !out.checks.is_empty() && out.checks.iter().all(|(_, ok)| *ok);
    let checks: Vec<String> = out
        .checks
        .iter()
        .map(|(name, ok)| format!("{name:?}:{ok}"))
        .collect();
    let report: Vec<String> = out
        .report
        .iter()
        .map(|(k, v)| format!("{k:?}:{v}"))
        .collect();
    println!(
        "{{\"report\":{{\"host\":{},\"checks\":{{{}}},{}}}}}",
        host::block(&args.workload, args.seed, args.seconds, args.trace),
        checks.join(","),
        report.join(",")
    );
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(",")
    );
    if !correct {
        std::process::exit(1);
    }
}
