//! Microbenchmark: conformance-constraint discovery cost.
//!
//! The paper quotes `O(n·m²)` for constraint production plus `O(q³)` for the
//! projections (§III-A/B); this bench sweeps both axes to verify the shape,
//! then times the per-tuple violation check the learned sets serve.

use cf_conformance::{learn_constraints, LearnOptions};
use cf_linalg::Matrix;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::hint::black_box;

fn random_matrix(n: usize, m: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let data: Vec<f64> = (0..n * m).map(|_| rng.gen_range(-1.0..1.0)).collect();
    Matrix::from_vec(n, m, data)
}

fn bench_by_rows(c: &mut Criterion) {
    let mut group = c.benchmark_group("cc_derivation/rows");
    for &n in &[500usize, 2_000, 8_000] {
        let x = random_matrix(n, 6, 1);
        group.bench_with_input(BenchmarkId::from_parameter(n), &x, |b, x| {
            b.iter(|| learn_constraints(black_box(x), &LearnOptions::paper_default()));
        });
    }
    group.finish();
}

fn bench_by_attrs(c: &mut Criterion) {
    let mut group = c.benchmark_group("cc_derivation/attrs");
    for &m in &[4usize, 8, 16, 32] {
        let x = random_matrix(2_000, m, 2);
        group.bench_with_input(BenchmarkId::from_parameter(m), &x, |b, x| {
            b.iter(|| learn_constraints(black_box(x), &LearnOptions::paper_default()));
        });
    }
    group.finish();
}

fn bench_violation(c: &mut Criterion) {
    let x = random_matrix(2_000, 8, 3);
    let cs = learn_constraints(&x, &LearnOptions::paper_default());
    let probe: Vec<f64> = (0..8).map(|i| i as f64 * 0.1).collect();
    c.bench_function("cc_derivation/violation_single_tuple", |b| {
        b.iter(|| cs.violation(black_box(&probe)));
    });
}

/// The per-tuple check at the serving geometry (d = 16, so 16
/// projections): `violation` and the monitor's `exceeds`, for a tuple
/// inside every bound (a profiled row) and one outside (the same row
/// pushed far off), since `exceeds` skips the weighted tail only for the
/// former.
fn bench_violation_d16(c: &mut Criterion) {
    let x = random_matrix(2_000, 16, 4);
    let cs = learn_constraints(&x, &LearnOptions::paper_default());
    let inside = x.row(0).to_vec();
    let outside: Vec<f64> = inside.iter().map(|v| v * 10.0 + 3.0).collect();
    assert_eq!(cs.violation(&inside), 0.0);
    assert!(cs.violation(&outside) > 0.5);
    let mut group = c.benchmark_group("cc_derivation/d16");
    for (name, probe) in [("in_bounds", &inside), ("out_of_bounds", &outside)] {
        group.bench_with_input(BenchmarkId::new("violation", name), probe, |b, t| {
            b.iter(|| cs.violation(black_box(t)));
        });
        group.bench_with_input(BenchmarkId::new("exceeds", name), probe, |b, t| {
            b.iter(|| cs.exceeds(black_box(t), 1e-9));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_by_rows,
    bench_by_attrs,
    bench_violation,
    bench_violation_d16
);
criterion_main!(benches);
