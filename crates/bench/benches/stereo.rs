//! The ASA stereo substrate: NCC scoring, 1-D disparity search, and the
//! full hierarchical coarse-to-fine run on a synthetic hurricane pair.

use criterion::{criterion_group, criterion_main, Criterion};
use sma_satdata::hurricane_frederic_analog;
use sma_stereo::hierarchical::{match_hierarchical, MatchParams};
use sma_stereo::ncc::{best_disparity, ncc_score};
use std::hint::black_box;

fn bench_ncc(c: &mut Criterion) {
    let seq = hurricane_frederic_analog(96, 2, 7);
    let pair = seq.stereo_pair(0).unwrap();
    let mut g = c.benchmark_group("ncc");
    g.bench_function("score_7x7", |b| {
        b.iter(|| black_box(ncc_score(black_box(&pair.left), &pair.right, 48, 48, 2, 3)))
    });
    g.bench_function("search_pm8", |b| {
        b.iter(|| {
            black_box(best_disparity(
                black_box(&pair.left),
                &pair.right,
                48,
                48,
                0,
                8,
                3,
            ))
        })
    });
    g.finish();
}

fn bench_hierarchical(c: &mut Criterion) {
    let seq = hurricane_frederic_analog(96, 2, 7);
    let pair = seq.stereo_pair(0).unwrap();
    let mut g = c.benchmark_group("asa_full");
    g.sample_size(10);
    g.bench_function("hierarchical_96", |b| {
        b.iter(|| {
            black_box(match_hierarchical(
                black_box(&pair.left),
                &pair.right,
                MatchParams::default(),
            ))
        })
    });
    g.bench_function("single_level_96", |b| {
        b.iter(|| {
            black_box(match_hierarchical(
                black_box(&pair.left),
                &pair.right,
                MatchParams {
                    levels: 1,
                    coarse_range: 8,
                    ..MatchParams::default()
                },
            ))
        })
    });
    g.finish();
}

criterion_group!(benches, bench_ncc, bench_hierarchical);
criterion_main!(benches);
