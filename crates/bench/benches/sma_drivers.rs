//! The SMA drivers head to head on a small frame: sequential baseline vs
//! the §4.1/§4.3 precomputed-and-segmented scheme, and the continuous vs
//! semi-fluid model cost gap (the paper's Table 2 vs Table 4 story in
//! miniature).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sma_bench::shifted_frames;
use sma_core::precompute::track_all_segmented;
use sma_core::sequential::Region;
use sma_core::{track_all_sequential, MotionModel, SmaConfig};
use std::hint::black_box;

fn bench_drivers(c: &mut Criterion) {
    let cfg = SmaConfig::small_test(MotionModel::SemiFluid);
    let frames = shifted_frames(26, 26, 1.0, 0.0, &cfg);
    let region = Region::Interior { margin: 9 };
    let mut g = c.benchmark_group("sma_drivers_semifluid_26");
    g.sample_size(10);
    g.bench_function("sequential", |b| {
        b.iter(|| black_box(track_all_sequential(black_box(&frames), &cfg, region)))
    });
    g.bench_function("segmented_z2", |b| {
        b.iter(|| black_box(track_all_segmented(black_box(&frames), &cfg, region, 2)))
    });
    g.bench_function("segmented_unchunked", |b| {
        b.iter(|| black_box(track_all_segmented(black_box(&frames), &cfg, region, 5)))
    });
    g.finish();
}

fn bench_models(c: &mut Criterion) {
    let mut g = c.benchmark_group("sma_model_cost");
    g.sample_size(10);
    for (name, model) in [
        ("continuous", MotionModel::Continuous),
        ("semifluid", MotionModel::SemiFluid),
    ] {
        let cfg = SmaConfig::small_test(model);
        let frames = shifted_frames(26, 26, 1.0, 0.0, &cfg);
        let region = Region::Interior { margin: 9 };
        g.bench_with_input(BenchmarkId::from_parameter(name), &(), |b, _| {
            b.iter(|| black_box(track_all_sequential(black_box(&frames), &cfg, region)))
        });
    }
    g.finish();
}

fn bench_search_scaling(c: &mut Criterion) {
    // Hypothesis-count scaling: time ~ (2 nzs + 1)^2 (the paper's
    // "nonlinear scalability factor in the timing dependence on the
    // z-Search window parameter").
    let mut g = c.benchmark_group("sma_search_scaling");
    g.sample_size(10);
    for nzs in [1usize, 2, 3] {
        let cfg = SmaConfig {
            nzs,
            ..SmaConfig::small_test(MotionModel::Continuous)
        };
        let frames = shifted_frames(30, 30, 1.0, 0.0, &cfg);
        let region = Region::Interior {
            margin: cfg.margin() + 2,
        };
        g.bench_with_input(BenchmarkId::from_parameter(2 * nzs + 1), &(), |b, _| {
            b.iter(|| black_box(track_all_sequential(black_box(&frames), &cfg, region)))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_drivers, bench_models, bench_search_scaling);
criterion_main!(benches);
