//! The adaptive execution planner's contracts, including every
//! degenerate tiling the issue sweep called out: 1x1 tiles, all-border
//! tiles, all-invalid (quarantined) tiles, and tile sizes that do not
//! divide the frame. The load-bearing claim throughout: planner output
//! is bit-identical to each tile's chosen driver run over that tile
//! alone — and, with default knobs, to the pruned driver wholesale.

use sma_core::motion::SmaFrames;
use sma_core::plan::{ExecutionPlanner, PlanFeedback, PlanReason, PlannerKnobs, Strategy};
use sma_core::sequential::Region;
use sma_core::{
    track_all_planner, track_all_planner_with, track_all_pruned, track_all_sequential, MotionModel,
    SmaConfig, SmaError,
};
use sma_grid::Grid;
use sma_obs::atlas::{AtlasChannel, AtlasSnapshot};

const SIDE: usize = 28;

fn scene(cfg: &SmaConfig) -> SmaFrames {
    let before = Grid::from_fn(SIDE, SIDE, |x, y| {
        (x as f32 * 0.37).sin() * (y as f32 * 0.23).cos() + 0.1 * (x + 2 * y) as f32 / SIDE as f32
    });
    let after = Grid::from_fn(SIDE, SIDE, |x, y| {
        let xs = (x as isize - 1).clamp(0, SIDE as isize - 1) as usize;
        before.at(xs, y)
    });
    SmaFrames::prepare(&before, &after, &before, &after, cfg).expect("prepare")
}

/// Planner output must match, bit for bit, each tile's chosen strategy
/// run over that tile rectangle alone.
fn assert_mosaic_identity(
    planner: &ExecutionPlanner,
    frames: &SmaFrames,
    cfg: &SmaConfig,
    region: Region,
) {
    let plan = planner.plan(frames, cfg, region).expect("plan");
    let out = planner.execute_plan(frames, cfg, &plan).expect("execute");
    for t in &plan.tiles {
        let solo = t
            .strategy
            .run(frames, cfg, Region::Rect(t.bounds))
            .expect("tile driver");
        for (x, y) in t.bounds.pixels() {
            let (a, b) = (out.estimates.at(x, y), solo.estimates.at(x, y));
            assert_eq!(a.valid, b.valid, "validity at ({x},{y}) [{:?}]", t.strategy);
            assert_eq!(
                a.displacement, b.displacement,
                "displacement bits at ({x},{y}) [{:?}]",
                t.strategy
            );
            assert_eq!(
                a.error.to_bits(),
                b.error.to_bits(),
                "error bits at ({x},{y}) [{:?}]",
                t.strategy
            );
        }
    }
}

#[test]
fn default_knobs_match_pruned_bitwise() {
    let cfg = SmaConfig::small_test(MotionModel::Continuous);
    let frames = scene(&cfg);
    for region in [
        Region::Full,
        Region::Interior {
            margin: cfg.margin(),
        },
    ] {
        let planned = track_all_planner(&frames, &cfg, region).expect("planner");
        let pruned = track_all_pruned(&frames, &cfg, region).expect("pruned");
        for (x, y) in planned.region.pixels() {
            let (a, b) = (planned.estimates.at(x, y), pruned.estimates.at(x, y));
            assert_eq!(a.valid, b.valid);
            assert_eq!(a.displacement, b.displacement, "at ({x},{y})");
            assert_eq!(a.error.to_bits(), b.error.to_bits(), "at ({x},{y})");
        }
    }
}

#[test]
fn one_by_one_tiles_stay_bit_identical() {
    let cfg = SmaConfig::small_test(MotionModel::Continuous);
    let frames = scene(&cfg);
    let planner = ExecutionPlanner::with_knobs(PlannerKnobs {
        tile: 1,
        ..PlannerKnobs::default()
    });
    // Region::Full makes the plan genuinely mixed: border rows of 1x1
    // tiles go exact, interior ones pruned.
    let plan = planner.plan(&frames, &cfg, Region::Full).expect("plan");
    assert_eq!(plan.tiles.len(), SIDE * SIDE, "one tile per pixel");
    assert!(plan.uniform_strategy().is_none(), "plan must be mixed");
    assert_mosaic_identity(&planner, &frames, &cfg, Region::Full);
}

#[test]
fn all_border_frame_plans_exact_everywhere() {
    // A frame too small for any template window to fit: every tile is
    // all-border, so the whole plan degenerates to the exact kernel.
    let cfg = SmaConfig::small_test(MotionModel::Continuous);
    let side = 2 * cfg.nzt; // interior rect is empty at this size
    let before = Grid::from_fn(side, side, |x, y| (x as f32 * 0.7).sin() + y as f32 * 0.1);
    let frames = SmaFrames::prepare(&before, &before, &before, &before, &cfg).expect("prepare");
    let planner = ExecutionPlanner::with_knobs(PlannerKnobs {
        tile: 4,
        ..PlannerKnobs::default()
    });
    let plan = planner.plan(&frames, &cfg, Region::Full).expect("plan");
    assert!(plan
        .tiles
        .iter()
        .all(|t| t.reason == PlanReason::AllBorder && t.strategy == Strategy::Sequential));
    // Uniform-exact plan: output is the sequential reference, bitwise.
    let out = planner.run(&frames, &cfg, Region::Full).expect("run");
    let seq = track_all_sequential(&frames, &cfg, Region::Full).expect("seq");
    for (x, y) in out.region.pixels() {
        assert_eq!(
            out.estimates.at(x, y).error.to_bits(),
            seq.estimates.at(x, y).error.to_bits()
        );
        assert_eq!(
            out.estimates.at(x, y).displacement,
            seq.estimates.at(x, y).displacement
        );
    }
}

#[test]
fn all_invalid_tiles_execute_bit_identically() {
    // Poke a whole tile's worth of non-finite pixels: preparation
    // quarantines and repairs them, and the planner must still match
    // the per-tile drivers bit for bit (quarantine steers nothing).
    let cfg = SmaConfig::small_test(MotionModel::Continuous);
    let mut before = Grid::from_fn(SIDE, SIDE, |x, y| {
        (x as f32 * 0.37).sin() * (y as f32 * 0.23).cos()
    });
    for y in 8..16 {
        for x in 8..16 {
            before.set(x, y, f32::NAN);
        }
    }
    let after = Grid::from_fn(SIDE, SIDE, |x, y| {
        let xs = (x as isize - 1).clamp(0, SIDE as isize - 1) as usize;
        before.at(xs, y)
    });
    let frames = SmaFrames::prepare(&before, &after, &before, &after, &cfg).expect("prepare");
    let planner = ExecutionPlanner::with_knobs(PlannerKnobs {
        tile: 8,
        ..PlannerKnobs::default()
    });
    assert_mosaic_identity(&planner, &frames, &cfg, Region::Full);
    // And the end result still equals the wholesale pruned driver.
    let planned = planner.run(&frames, &cfg, Region::Full).expect("planner");
    let pruned = track_all_pruned(&frames, &cfg, Region::Full).expect("pruned");
    for (x, y) in planned.region.pixels() {
        assert_eq!(
            planned.estimates.at(x, y).error.to_bits(),
            pruned.estimates.at(x, y).error.to_bits()
        );
    }
}

#[test]
fn non_dividing_tile_sizes_cover_the_region_exactly() {
    let cfg = SmaConfig::small_test(MotionModel::Continuous);
    let frames = scene(&cfg);
    // 5 does not divide 28: the last row/column of tiles truncates.
    let planner = ExecutionPlanner::with_knobs(PlannerKnobs {
        tile: 5,
        ..PlannerKnobs::default()
    });
    let plan = planner.plan(&frames, &cfg, Region::Full).expect("plan");
    // Tiles partition the region: every pixel covered exactly once.
    let mut covered = vec![0u32; SIDE * SIDE];
    for t in &plan.tiles {
        for (x, y) in t.bounds.pixels() {
            covered[y * SIDE + x] += 1;
        }
    }
    assert!(covered.iter().all(|&c| c == 1), "tiles must partition");
    assert_mosaic_identity(&planner, &frames, &cfg, Region::Full);
}

#[test]
fn translation_only_knob_matches_the_degraded_driver() {
    let cfg = SmaConfig::small_test(MotionModel::Continuous);
    let frames = scene(&cfg);
    let region = Region::Interior {
        margin: cfg.margin(),
    };
    let knobs = PlannerKnobs {
        translation_only: true,
        ..PlannerKnobs::default()
    };
    let planned = track_all_planner_with(&frames, &cfg, region, knobs).expect("planner");
    let degraded =
        sma_core::fastpath::track_all_translation_only(&frames, &cfg, region).expect("driver");
    for (x, y) in planned.region.pixels() {
        assert_eq!(
            planned.estimates.at(x, y).error.to_bits(),
            degraded.estimates.at(x, y).error.to_bits()
        );
        assert_eq!(
            planned.estimates.at(x, y).displacement,
            degraded.estimates.at(x, y).displacement
        );
    }
}

#[test]
fn near_tie_feedback_replans_dense_tiles_onto_the_exact_kernel() {
    let cfg = SmaConfig::small_test(MotionModel::Continuous);
    let frames = scene(&cfg);
    // A hand-built snapshot claiming every pixel of the top-left 8x8
    // tile near-tied: density 1.0 >= the 0.25 default threshold.
    let mut planes = vec![vec![0u64; 16]; AtlasChannel::ALL.len()];
    let near_tie_idx = AtlasChannel::ALL
        .iter()
        .position(|c| *c == AtlasChannel::NearTie)
        .expect("channel");
    planes[near_tie_idx][0] = 7 * 7; // atlas tile (0,0), 7px tiles on 28
    let snapshot = AtlasSnapshot {
        width: SIDE,
        height: SIDE,
        tile: 7,
        tiles_x: 4,
        tiles_y: 4,
        planes,
        cache_frames: Vec::new(),
    };
    let planner = ExecutionPlanner::with_knobs(PlannerKnobs {
        tile: 7,
        ..PlannerKnobs::default()
    })
    .with_feedback(PlanFeedback::from_snapshot(snapshot));
    let plan = planner.plan(&frames, &cfg, Region::Full).expect("plan");
    let dense: Vec<_> = plan
        .tiles
        .iter()
        .filter(|t| t.reason == PlanReason::NearTieDense)
        .collect();
    assert_eq!(dense.len(), 1, "exactly the claimed-dense interior tile");
    assert!(dense[0].strategy.is_exact());
    // A feedback-steered plan still honors the mosaic bit-identity.
    assert_mosaic_identity(&planner, &frames, &cfg, Region::Full);
}

#[test]
fn planner_honors_cancellation_checkpoints() {
    let cfg = SmaConfig::small_test(MotionModel::Continuous);
    let frames = scene(&cfg);
    let token = sma_core::cancel::CancelToken::new();
    token.cancel(12, 5);
    let _guard = sma_core::cancel::install(token);
    let err = track_all_planner(&frames, &cfg, Region::Full).expect_err("must cancel");
    assert!(
        matches!(err, SmaError::DeadlineExceeded { .. }),
        "got {err:?}"
    );
}

#[test]
fn planner_strategy_names_and_census() {
    let cfg = SmaConfig::small_test(MotionModel::Continuous);
    let frames = scene(&cfg);
    let planner = ExecutionPlanner::default();
    assert_eq!(Strategy::Pruned.name(), "pruned");
    assert_eq!(
        Strategy::IntegralSegmented { z_rows: 2 }.name(),
        "integral_seg"
    );
    // Default 16px tiles on a 28^2 frame: every tile overlaps the
    // interior rect, so the plan is uniform pruned search.
    let plan = planner.plan(&frames, &cfg, Region::Full).expect("plan");
    assert_eq!(plan.uniform_strategy(), Some(Strategy::Pruned));
    // Semi-fluid sweeps and 3 x 3 sweeps plan the pruned driver too: the
    // driver itself falls back to its raster sweep there.
    for cfg in [
        SmaConfig::small_test(MotionModel::SemiFluid),
        SmaConfig {
            nzs: 1,
            ..SmaConfig::small_test(MotionModel::Continuous)
        },
    ] {
        let plan = planner
            .plan(&scene(&cfg), &cfg, Region::Full)
            .expect("plan");
        assert_eq!(plan.uniform_strategy(), Some(Strategy::Pruned), "{cfg:?}");
    }
    // With the lane kernels disallowed, interior tiles take the scalar
    // integral path.
    let scalar = ExecutionPlanner::with_knobs(PlannerKnobs {
        allow_simd: false,
        ..PlannerKnobs::default()
    });
    let plan = scalar.plan(&frames, &cfg, Region::Full).expect("plan");
    assert_eq!(plan.uniform_strategy(), Some(Strategy::Integral));
    // 3px tiles leave whole tiles inside the border band (nzt = 3), so
    // the census mixes exact border tiles with pruned interior ones.
    let fine = ExecutionPlanner::with_knobs(PlannerKnobs {
        tile: 3,
        ..PlannerKnobs::default()
    });
    let plan = fine.plan(&frames, &cfg, Region::Full).expect("plan");
    let census = plan.census();
    let total: usize = census.iter().map(|(_, c)| c).sum();
    assert_eq!(total, plan.tiles.len());
    assert!(census.len() >= 2, "census: {census:?}");
}
