//! Surface-patch fitting: the paper-faithful per-pixel Gaussian
//! elimination vs the precomputed-moment-matrix fast path (an ablation
//! on the paper's choice to pay the full elimination per pixel), plus
//! whole-frame fitting.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sma_bench::wavy;
use sma_grid::BorderPolicy;
use sma_surface::fit::fit_all_seq;
use sma_surface::{fit_patch_ge, FitContext};
use std::hint::black_box;

fn bench_single_fit(c: &mut Criterion) {
    let z = wavy(64, 64);
    let ctx = FitContext::new(2);
    let mut g = c.benchmark_group("surface_fit_single_5x5");
    g.bench_function("gaussian_elimination", |b| {
        b.iter(|| black_box(fit_patch_ge(black_box(&z), 32, 32, 2, BorderPolicy::Clamp).unwrap()))
    });
    g.bench_function("precomputed_moments", |b| {
        b.iter(|| black_box(ctx.fit(black_box(&z), 32, 32, BorderPolicy::Clamp)))
    });
    g.finish();
}

fn bench_window_sizes(c: &mut Criterion) {
    let z = wavy(96, 96);
    let mut g = c.benchmark_group("surface_fit_by_window");
    for n in [1usize, 2, 4, 8] {
        g.bench_with_input(BenchmarkId::from_parameter(2 * n + 1), &n, |b, &n| {
            b.iter(|| {
                black_box(fit_patch_ge(black_box(&z), 48, 48, n, BorderPolicy::Clamp).unwrap())
            })
        });
    }
    g.finish();
}

fn bench_whole_frame(c: &mut Criterion) {
    let z = wavy(128, 128);
    let mut g = c.benchmark_group("surface_fit_frame_128");
    g.sample_size(10);
    g.bench_function("sequential", |b| {
        b.iter(|| black_box(fit_all_seq(black_box(&z), 2, BorderPolicy::Clamp)))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_single_fit,
    bench_window_sizes,
    bench_whole_frame
);
criterion_main!(benches);
