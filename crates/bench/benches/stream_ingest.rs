//! Throughput of the online scoring + monitoring path.
//!
//! The acceptance bar for the streaming subsystem: ≥ 100k tuples/sec
//! single-threaded through the full `ingest` path (model forward pass,
//! conformance check, O(1) windowed counters, Page–Hinkley step). The
//! monitors read counters — never the window — so per-tuple cost is flat
//! in the window size, which the window-size sweep makes visible. All
//! workloads come from `cf_bench::stream_load`, shared with the
//! `run_stream_bench` trajectory binary.

use cf_bench::stream_load::{
    fresh_async_engine, fresh_engine, fresh_retraining_engine, fresh_sharded_engine, pregenerate,
    pregenerate_sharded,
};
use cf_stream::AsyncConfig;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Instant;

fn bench_ingest_batches(c: &mut Criterion) {
    let mut group = c.benchmark_group("stream_ingest/batch");
    group.sample_size(20);
    for &batch in &[64usize, 512, 4_096] {
        let batches = pregenerate(32, batch);
        let mut engine = fresh_engine(4_096);
        let mut next = 0usize;
        group.bench_with_input(BenchmarkId::from_parameter(batch), &batch, |b, _| {
            b.iter(|| {
                let outcome = engine.ingest(black_box(&batches[next])).unwrap();
                next = (next + 1) % batches.len();
                outcome.decisions.len()
            });
        });
    }
    group.finish();
}

fn bench_window_size_independence(c: &mut Criterion) {
    // Per-tuple cost must not grow with the window: counters, not scans —
    // and with the ring arena, steady-state pushes must not allocate no
    // matter how large the retained window is.
    let mut group = c.benchmark_group("stream_ingest/window");
    group.sample_size(20);
    for &window in &[256usize, 4_096, 65_536, 262_144] {
        let batches = pregenerate(32, 512);
        let mut engine = fresh_engine(window);
        let mut next = 0usize;
        group.bench_with_input(BenchmarkId::from_parameter(window), &window, |b, _| {
            b.iter(|| {
                let outcome = engine.ingest(black_box(&batches[next])).unwrap();
                next = (next + 1) % batches.len();
                outcome.decisions.len()
            });
        });
    }
    group.finish();
}

fn bench_sharded_ingest(c: &mut Criterion) {
    // Aggregate ingest across shard counts: each ingest call routes a
    // mixed batch and runs the per-shard engines one after another, so
    // the per-batch wall time grows with shards (and tuples per call);
    // the rows measure what partition-and-merge routing costs.
    let mut group = c.benchmark_group("stream_ingest/sharded");
    group.sample_size(10);
    for &shards in &[1usize, 2, 4] {
        let batches = pregenerate_sharded(shards, 16, 2_048);
        let mut engine = fresh_sharded_engine(4_096, shards);
        let mut next = 0usize;
        group.bench_with_input(BenchmarkId::from_parameter(shards), &shards, |b, _| {
            b.iter(|| {
                let outcome = engine.ingest(black_box(&batches[next])).unwrap();
                next = (next + 1) % batches.len();
                outcome.decisions.len()
            });
        });
    }
    group.finish();
}

/// The acceptance check, reported in tuples/sec: one sustained run over a
/// million pregenerated tuples.
fn report_sustained_throughput(_c: &mut Criterion) {
    let batch = 1_024usize;
    let batches = pregenerate(64, batch);
    let mut engine = fresh_engine(4_096);
    // Warm-up: fill the window and fault in the caches.
    for b in &batches {
        engine.ingest(b).unwrap();
    }
    let total: usize = 1_000_000;
    let mut ingested = 0usize;
    let mut next = 0usize;
    let started = Instant::now();
    while ingested < total {
        let outcome = engine.ingest(black_box(&batches[next])).unwrap();
        ingested += outcome.decisions.len();
        next = (next + 1) % batches.len();
    }
    let secs = started.elapsed().as_secs_f64();
    let rate = ingested as f64 / secs;
    println!(
        "stream_ingest/sustained: {ingested} tuples in {secs:.2}s = {rate:.0} tuples/sec \
         (target: >= 100000)"
    );
}

fn bench_sync_vs_async_ingest(c: &mut Criterion) {
    // What one ingest call costs the *caller*: the sync engine pays for
    // scoring plus all monitoring inline; the async engine returns after
    // the forward pass and a queue hand-off. (Criterion's steady drumbeat
    // keeps the async queue drained between iterations, so this measures
    // the uncontended score path; the drifting/retraining tail is covered
    // by `run_stream_bench`'s latency section.)
    let mut group = c.benchmark_group("stream_ingest/sync_vs_async");
    group.sample_size(20);
    let batch = 512usize;
    let batches = pregenerate(32, batch);

    let mut sync_engine = fresh_retraining_engine(4_096);
    let mut next = 0usize;
    group.bench_function("sync", |b| {
        b.iter(|| {
            let outcome = sync_engine.ingest(black_box(&batches[next])).unwrap();
            next = (next + 1) % batches.len();
            outcome.decisions.len()
        });
    });

    let mut async_engine = fresh_async_engine(4_096, AsyncConfig::default());
    let mut next = 0usize;
    group.bench_function("async", |b| {
        b.iter(|| {
            let decisions = async_engine.ingest(black_box(&batches[next])).unwrap();
            next = (next + 1) % batches.len();
            decisions.len()
        });
    });
    async_engine.flush().unwrap();
    group.finish();
}

criterion_group!(
    benches,
    bench_ingest_batches,
    bench_window_size_independence,
    bench_sharded_ingest,
    bench_sync_vs_async_ingest,
    report_sustained_throughput
);
criterion_main!(benches);
