//! The integral-image fast path against the exact kernels: the
//! O(1)-per-hypothesis moment-plane assembly vs the O(T^2) per-sample
//! accumulation, at a small and a medium template size. The
//! `hotpath_report` binary emits the same comparison as JSON with
//! speedup ratios.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sma_bench::shifted_frames;
use sma_core::fastpath::track_all_integral;
use sma_core::sequential::Region;
use sma_core::{track_all_sequential, MotionModel, SmaConfig};
use std::hint::black_box;

fn bench_fastpath(c: &mut Criterion) {
    // (label, frame side, nzt, nzs): small keeps the exact path cheap
    // enough for tight sampling; medium is where O(T^2) vs O(1) bites.
    for (label, side, nzt, nzs) in [
        ("small_t7", 40usize, 3usize, 2usize),
        ("medium_t21", 64, 10, 4),
    ] {
        let cfg = SmaConfig {
            nzt,
            nzs,
            ..SmaConfig::small_test(MotionModel::Continuous)
        };
        let frames = shifted_frames(side, side, 1.0, 0.0, &cfg);
        let region = Region::Interior {
            margin: cfg.margin(),
        };
        let mut g = c.benchmark_group(format!("sma_fastpath_{label}"));
        g.sample_size(10);
        g.bench_function(BenchmarkId::new("exact_sequential", side), |b| {
            b.iter(|| black_box(track_all_sequential(black_box(&frames), &cfg, region)))
        });
        g.bench_function(BenchmarkId::new("integral_sequential", side), |b| {
            b.iter(|| black_box(track_all_integral(black_box(&frames), &cfg, region)))
        });
        g.finish();
    }
}

criterion_group!(benches, bench_fastpath);
criterion_main!(benches);
