//! Streaming-vs-pairwise bit-identity over a real satdata sequence.
//!
//! The streaming engine's contract is that caching, eviction and
//! pipelining are *pure plumbing*: for every driver, running over
//! engine-assembled pairs produces bit-for-bit the same estimates as
//! the naive per-pair [`SmaFrames::prepare`]. These tests replay a
//! 6-frame Florida-analog sequence through every static driver, force
//! eviction-induced recomputes, sweep the cache budget with pipelining
//! off and on, and toggle observability — none of it may move a single
//! output bit, and pipelining may not move a cache counter either.

use maspar_sim::machine::{MachineConfig, MasPar, ReadoutScheme};
use sma_core::fastpath::track_all_integral;
use sma_core::maspar_driver::track_on_maspar;
use sma_core::precompute::track_all_segmented;
use sma_core::sequential::{Region, SmaResult};
use sma_core::{
    track_all_pruned, track_all_sequential, FrameArtifacts, MotionModel, SmaConfig, SmaError,
    SmaFrames,
};
use sma_satdata::{florida_thunderstorm_analog, SceneSequence};
use sma_stream::{goddard_cache_budget, sequence_frames, CacheStats, StreamEngine};

/// Hypothesis-row chunk for the segmented driver (2 rows forces
/// multi-segment checkpointing at the test windows).
const SEGMENT_Z_ROWS: usize = 2;

/// The SmaFrames-consuming static drivers (the MasPar driver prepares
/// internally from raw planes and is covered separately).
const FRAME_DRIVERS: [&str; 4] = ["sequential", "segmented", "fastpath", "fastpath_pruned"];

fn run_driver(
    name: &str,
    frames: &SmaFrames,
    cfg: &SmaConfig,
    region: Region,
) -> Result<SmaResult, SmaError> {
    match name {
        "sequential" => track_all_sequential(frames, cfg, region),
        "segmented" => track_all_segmented(frames, cfg, region, SEGMENT_Z_ROWS),
        "fastpath" => track_all_integral(frames, cfg, region),
        "fastpath_pruned" => track_all_pruned(frames, cfg, region),
        other => panic!("unknown driver {other}"),
    }
}

fn test_sequence() -> SceneSequence {
    florida_thunderstorm_analog(40, 6, 21)
}

fn naive_pairs(seq: &SceneSequence, cfg: &SmaConfig) -> Vec<SmaFrames> {
    (0..seq.len() - 1)
        .map(|t| {
            SmaFrames::prepare(
                &seq.frames[t].intensity,
                &seq.frames[t + 1].intensity,
                seq.surface(t),
                seq.surface(t + 1),
                cfg,
            )
            .expect("pairwise prepare")
        })
        .collect()
}

/// The sequential driver over every naive pair of `seq`.
fn naive_results(seq: &SceneSequence, cfg: &SmaConfig, region: Region) -> Vec<SmaResult> {
    naive_pairs(seq, cfg)
        .iter()
        .map(|p| track_all_sequential(p, cfg, region).expect("naive run"))
        .collect()
}

/// The sequential driver streamed over `seq` at `budget` bytes, with
/// the engine's cache statistics afterwards.
fn stream_sequential(
    seq: &SceneSequence,
    cfg: &SmaConfig,
    region: Region,
    budget: usize,
    pipelined: bool,
) -> (Vec<SmaResult>, CacheStats) {
    let mut engine =
        StreamEngine::new(sequence_frames(seq), *cfg, budget).with_pipelining(pipelined);
    let streamed = engine
        .run(|_, frames| track_all_sequential(frames, cfg, region))
        .expect("streamed run");
    (streamed, engine.cache_stats())
}

/// Bytes of one frame-artifact set of `seq` at `cfg`: the unit the
/// budget tests count in.
fn set_bytes(seq: &SceneSequence, cfg: &SmaConfig) -> usize {
    StreamEngine::with_goddard_budget(sequence_frames(seq), *cfg)
        .artifact_bytes_probe()
        .expect("probe")
}

fn assert_bit_identical(streamed: &[SmaResult], naive: &[SmaResult], what: &str) {
    assert_eq!(streamed.len(), naive.len(), "{what}: pair count");
    for (t, (s, n)) in streamed.iter().zip(naive).enumerate() {
        assert_eq!(s.estimates, n.estimates, "{what}: diverged on pair {t}");
    }
}

#[test]
fn streaming_matches_pairwise_for_every_frame_driver() {
    let seq = test_sequence();
    let cfg = SmaConfig::small_test(MotionModel::Continuous);
    let region = Region::Interior {
        margin: cfg.margin(),
    };
    let pairwise = naive_pairs(&seq, &cfg);
    for driver in FRAME_DRIVERS {
        let naive: Vec<SmaResult> = pairwise
            .iter()
            .map(|p| run_driver(driver, p, &cfg, region).expect("naive run"))
            .collect();
        let mut engine = StreamEngine::with_goddard_budget(sequence_frames(&seq), cfg);
        let streamed = engine
            .run(|_, frames| run_driver(driver, frames, &cfg, region))
            .expect("streamed run");
        assert_eq!(streamed.len(), naive.len());
        for (t, (s, n)) in streamed.iter().zip(&naive).enumerate() {
            assert_eq!(
                s.estimates, n.estimates,
                "driver {driver} diverged on pair {t}"
            );
        }
        let stats = engine.cache_stats();
        assert!(
            stats.hits > 0,
            "driver {driver}: cache never hit: {stats:?}"
        );
        assert_eq!(
            stats.misses,
            seq.len() as u64,
            "driver {driver}: every frame prepared exactly once: {stats:?}"
        );
    }
}

#[test]
fn maspar_driver_matches_streamed_sequential() {
    // The MasPar driver prepares from raw planes internally, so the
    // streaming engine cannot feed it cached artifacts. Its exact-family
    // contract still closes the loop: per pair, the simulated machine
    // must be bit-identical to the sequential driver run on streamed
    // frames.
    let seq = test_sequence();
    let cfg = SmaConfig::small_test(MotionModel::Continuous);
    let region = Region::Interior {
        margin: cfg.margin(),
    };
    let mut engine = StreamEngine::with_goddard_budget(sequence_frames(&seq), cfg);
    let streamed = engine
        .run(|_, frames| track_all_sequential(frames, &cfg, region))
        .expect("streamed run");
    for (t, s) in streamed.iter().enumerate() {
        let mut machine = MasPar::new(MachineConfig {
            nxproc: 8,
            nyproc: 8,
            ..MachineConfig::goddard_mp2()
        });
        let report = track_on_maspar(
            &mut machine,
            &seq.frames[t].intensity,
            &seq.frames[t + 1].intensity,
            seq.surface(t),
            seq.surface(t + 1),
            &cfg,
            region,
            ReadoutScheme::Raster,
        )
        .expect("maspar run");
        assert_eq!(
            report.result.estimates, s.estimates,
            "maspar diverged from streamed sequential on pair {t}"
        );
    }
}

#[test]
fn forced_eviction_recompute_stays_bit_identical() {
    let seq = test_sequence();
    let cfg = SmaConfig::small_test(MotionModel::Continuous);
    let region = Region::Interior {
        margin: cfg.margin(),
    };
    let naive = naive_results(&seq, &cfg, region);
    let p = set_bytes(&seq, &cfg);
    let frames = seq.len() as u64;
    // Pipelining on at both budgets. Half a set admits nothing, so
    // every lookup recomputes its frame. At 1.5 sets each admission
    // evicts the frame before it, yet the set the worker prepares ahead
    // waits outside the cache until its pair looks it up, so no frame
    // is prepared twice.
    let half = p / 2;
    let (streamed, stats) = stream_sequential(&seq, &cfg, region, half, true);
    assert_bit_identical(&streamed, &naive, "half-set budget");
    assert_eq!(
        stats.misses,
        2 * (frames - 1),
        "every lookup recomputes: {stats:?}"
    );
    assert_eq!(stats.high_water_bytes, 0, "nothing admitted: {stats:?}");

    let tight = p + p / 2;
    let (streamed, stats) = stream_sequential(&seq, &cfg, region, tight, true);
    assert_bit_identical(&streamed, &naive, "1.5-set budget");
    assert!(stats.evictions > 0, "eviction never happened: {stats:?}");
    assert_eq!(
        stats.misses, frames,
        "prefetch forced a recompute: {stats:?}"
    );
    assert!(
        stats.high_water_bytes <= tight,
        "high water {} over budget {tight}",
        stats.high_water_bytes
    );
}

#[test]
fn obs_level_does_not_change_streamed_output() {
    let seq = test_sequence();
    let cfg = SmaConfig::small_test(MotionModel::SemiFluid);
    let region = Region::Interior {
        margin: cfg.margin(),
    };
    let run = || {
        let mut engine = StreamEngine::with_goddard_budget(sequence_frames(&seq), cfg);
        engine
            .run(|_, frames| track_all_sequential(frames, &cfg, region))
            .expect("streamed run")
    };
    let prev = sma_obs::level();
    sma_obs::set_level(sma_obs::ObsLevel::Off);
    let quiet = run();
    sma_obs::set_level(sma_obs::ObsLevel::Summary);
    let counted = run();
    sma_obs::set_level(prev);
    for (q, c) in quiet.iter().zip(&counted) {
        assert_eq!(q.estimates, c.estimates);
    }
}

#[test]
fn cache_high_water_respects_goddard_budget() {
    let seq = test_sequence();
    let cfg = SmaConfig::small_test(MotionModel::Continuous);
    let region = Region::Interior {
        margin: cfg.margin(),
    };
    let budget = goddard_cache_budget(&cfg);
    let mut engine = StreamEngine::with_goddard_budget(sequence_frames(&seq), cfg);
    engine
        .run(|_, frames| track_all_sequential(frames, &cfg, region))
        .expect("streamed run");
    let stats = engine.cache_stats();
    assert!(
        stats.high_water_bytes <= budget,
        "high water {} over MemoryBudget-derived limit {budget}",
        stats.high_water_bytes
    );
    assert!(stats.hit_rate() > 0.0);
}

/// Characterization of the cache's behaviour: exact [`CacheStats`] of
/// `test_sequence()` at four budgets, counted in units of one
/// frame-artifact set `p`, each with pipelining forced off and on.
///
/// The rows do not depend on pipelining: the set the prepare-ahead
/// worker makes is inserted by the lookup that needs it, where the
/// unpipelined engine prepares it, so both modes make the same cache
/// operations. Every frame is prepared once, and frames 1 to 4 hit on
/// their second lookup. A change that only re-plumbs the cache must
/// leave every row as it is.
#[test]
fn cache_stats_are_pinned_across_budgets_and_pipelining() {
    let seq = test_sequence();
    let cfg = SmaConfig::small_test(MotionModel::Continuous);
    let region = Region::Interior {
        margin: cfg.margin(),
    };
    let p = set_bytes(&seq, &cfg);
    let goddard = goddard_cache_budget(&cfg);
    // (budget, hits, misses, evictions, high water in p)
    let rows = [
        (p + p / 2, 4, 6, 5, 1),
        (2 * p, 4, 6, 4, 2),
        (3 * p, 4, 6, 3, 3),
        (goddard, 4, 6, 0, 6),
    ];
    for (budget, hits, misses, evictions, high_water) in rows {
        let want = CacheStats {
            hits,
            misses,
            evictions,
            high_water_bytes: high_water * p,
        };
        for pipelined in [false, true] {
            assert_eq!(
                stream_sequential(&seq, &cfg, region, budget, pipelined).1,
                want,
                "budget {budget} B (p = {p} B), pipelining {pipelined}"
            );
        }
    }
}

/// The budget sweep: from half a frame-artifact set to three sets and
/// the Goddard budget, pipelining changes no [`CacheStats`] field and
/// no output bit. Each frame is prepared once whenever one set fits;
/// below that every lookup prepares.
#[test]
fn cache_stats_do_not_depend_on_pipelining_at_any_budget() {
    let seq = test_sequence();
    let cfg = SmaConfig::small_test(MotionModel::Continuous);
    let region = Region::Interior {
        margin: cfg.margin(),
    };
    let naive = naive_results(&seq, &cfg, region);
    let p = set_bytes(&seq, &cfg);
    let frames = seq.len() as u64;
    let budgets = [
        p / 2,
        p,
        p + p / 2,
        2 * p,
        2 * p + p / 2,
        3 * p,
        goddard_cache_budget(&cfg),
    ];
    for budget in budgets {
        let what = format!("budget {budget} B (p = {p} B)");
        let (off, off_stats) = stream_sequential(&seq, &cfg, region, budget, false);
        let (on, on_stats) = stream_sequential(&seq, &cfg, region, budget, true);
        assert_eq!(on_stats, off_stats, "{what}: pipelining moved the counters");
        let misses = if budget >= p {
            frames
        } else {
            2 * (frames - 1)
        };
        assert_eq!(off_stats.misses, misses, "{what}: {off_stats:?}");
        assert_bit_identical(&off, &naive, &format!("{what}, pipelining off"));
        assert_bit_identical(&on, &naive, &format!("{what}, pipelining on"));
    }
}

/// A failing matcher and a frame whose preparation fails each end the
/// run with their own error, with pipelining off and on, and a fresh
/// engine over good frames then runs to the end.
#[test]
fn run_returns_matcher_and_prepare_errors() {
    let seq = test_sequence();
    let cfg = SmaConfig::small_test(MotionModel::Continuous);
    let region = Region::Interior {
        margin: cfg.margin(),
    };
    let naive = naive_results(&seq, &cfg, region);
    let budget = goddard_cache_budget(&cfg);
    // Frame 3's surface is one column narrower than its intensity. With
    // pipelining on, the prepare-ahead worker is the one to prepare it.
    let (w, h) = seq.dims();
    let narrow = seq.surface(3).crop(0, 0, w - 1, h);
    let mut bad_frames = sequence_frames(&seq);
    bad_frames[3].surface = &narrow;
    let prepare_error = FrameArtifacts::prepare(&seq.frames[3].intensity, &narrow, &cfg)
        .expect_err("mismatched planes must not prepare");
    let refused = SmaError::Config("pair 2 refused".to_string());

    for pipelined in [false, true] {
        let mut matched = Vec::new();
        let failed = StreamEngine::new(sequence_frames(&seq), cfg, budget)
            .with_pipelining(pipelined)
            .run(|t, frames| {
                matched.push(t);
                if t == 2 {
                    return Err(refused.clone());
                }
                track_all_sequential(frames, &cfg, region)
            });
        assert_eq!(
            failed.err(),
            Some(refused.clone()),
            "pipelining {pipelined}"
        );
        assert_eq!(matched, [0, 1, 2], "pipelining {pipelined}: run went on");
        let (streamed, _) = stream_sequential(&seq, &cfg, region, budget, pipelined);
        assert_bit_identical(&streamed, &naive, "fresh engine after a matcher error");

        let failed = StreamEngine::new(bad_frames.clone(), cfg, budget)
            .with_pipelining(pipelined)
            .run(|_, frames| track_all_sequential(frames, &cfg, region));
        assert_eq!(
            failed.err(),
            Some(prepare_error.clone()),
            "pipelining {pipelined}"
        );
        let (streamed, _) = stream_sequential(&seq, &cfg, region, budget, pipelined);
        assert_bit_identical(&streamed, &naive, "fresh engine after a prepare error");
    }
}
