//! Kernel microbenchmarks at crossbar shapes: the lane-blocked kernels
//! against the sequential loops they replaced (`kernels::naive`).
//!
//! Labels follow `kernels/<op>/<variant>/<shape>` with variants `naive`
//! (old ordering) and `blocked` (lane kernels), so the
//! `kernel_bench_summary` binary can pair them up and compute speedups.
//! Run with `GENIEX_BENCH_OUT=path.csv` to capture machine-readable
//! rows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn random_f32(len: usize, seed: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
}

fn random_f64(len: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len).map(|_| rng.gen_range(-1.0f64..1.0)).collect()
}

fn bench_dot(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels/dot_f32");
    for n in [32usize, 64, 128] {
        let a = random_f32(n, 1);
        let b = random_f32(n, 2);
        group.bench_with_input(BenchmarkId::new("naive", n), &n, |bench, _| {
            bench.iter(|| kernels::naive::dot_f32(black_box(&a), black_box(&b)));
        });
        group.bench_with_input(BenchmarkId::new("blocked", n), &n, |bench, _| {
            bench.iter(|| kernels::dot_f32(black_box(&a), black_box(&b)));
        });
    }
    group.finish();
}

fn bench_matmul(c: &mut Criterion) {
    // Square GEMM at crossbar tile sizes, naive ikj vs register-blocked.
    let mut group = c.benchmark_group("kernels/matmul");
    for n in [32usize, 64, 128] {
        let a = random_f32(n * n, 3);
        let b = random_f32(n * n, 4);
        let mut out = vec![0.0f32; n * n];
        group.bench_with_input(BenchmarkId::new("naive", n), &n, |bench, _| {
            bench.iter(|| kernels::naive::gemm_nn(black_box(&a), black_box(&b), &mut out, n, n));
        });
        group.bench_with_input(BenchmarkId::new("blocked", n), &n, |bench, _| {
            bench.iter(|| kernels::gemm_nn(black_box(&a), black_box(&b), &mut out, n, n));
        });
    }
    group.finish();
}

fn bench_matmul_transpose(c: &mut Criterion) {
    // x · Wᵀ — the Dense-layer product. Both variants run the raw
    // kernel on a preallocated output so the comparison is order/
    // blocking only; `Tensor::matmul_transpose` forwards straight to
    // the blocked kernel.
    let mut group = c.benchmark_group("kernels/matmul_transpose");
    for n in [32usize, 64, 128] {
        let a = random_f32(n * n, 5);
        let w = random_f32(n * n, 6);
        let mut out = vec![0.0f32; n * n];
        group.bench_with_input(BenchmarkId::new("naive", n), &n, |bench, _| {
            bench.iter(|| kernels::naive::gemm_nt(black_box(&a), black_box(&w), &mut out, n, n));
        });
        group.bench_with_input(BenchmarkId::new("blocked", n), &n, |bench, _| {
            bench.iter(|| kernels::gemm_nt(black_box(&a), black_box(&w), &mut out, n, n));
        });
    }
    group.finish();
}

fn bench_gemv_batch(c: &mut Criterion) {
    // The funcsim level-to-current GEMV: cols×rows f64 matrix, f32
    // levels, batched. Shapes mirror IdealTile/AnalyticalTile usage.
    let mut group = c.benchmark_group("kernels/gemv_batch");
    for (n, batch) in [(32usize, 64usize), (64, 1), (64, 64), (64, 256), (128, 64)] {
        let mat = random_f64(n * n, 7);
        let levels = random_f32(batch * n, 8);
        let mut out = vec![0.0f64; batch * n];
        let label = format!("{n}x{n}xb{batch}");
        group.bench_with_input(BenchmarkId::new("naive", &label), &n, |bench, _| {
            bench.iter(|| {
                for (v, o) in levels.chunks_exact(n).zip(out.chunks_exact_mut(n)) {
                    kernels::naive::gemv_levels_scaled(black_box(&mat), v, 0.25, o);
                }
            });
        });
        group.bench_with_input(BenchmarkId::new("blocked", &label), &n, |bench, _| {
            bench.iter(|| {
                for (v, o) in levels.chunks_exact(n).zip(out.chunks_exact_mut(n)) {
                    kernels::gemv_levels_scaled(black_box(&mat), v, 0.25, o);
                }
            });
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_dot, bench_matmul, bench_matmul_transpose, bench_gemv_batch
}
criterion_main!(benches);
