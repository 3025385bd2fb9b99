//! The production entry point, `plan::track_all_planner_with` with
//! default knobs, is the pruned driver under another name: these tests
//! pin it to `track_all_pruned` bit for bit and check that it honours
//! cancellation.

use sma_core::motion::SmaFrames;
use sma_core::sequential::Region;
use sma_core::{
    track_all_planner_with, track_all_pruned, MotionModel, PlannerKnobs, SmaConfig, SmaError,
};
use sma_grid::Grid;

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
        let planned = track_all_planner_with(&frames, &cfg, region, PlannerKnobs::default())
            .expect("planner");
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
fn planner_honors_cancellation_checkpoints() {
    let cfg = SmaConfig::small_test(MotionModel::Continuous);
    let frames = scene(&cfg);
    let token = sma_core::cancel::CancelToken::new();
    token.cancel(12, 5);
    let _guard = sma_core::cancel::install(token);
    let err = track_all_planner_with(&frames, &cfg, Region::Full, PlannerKnobs::default())
        .expect_err("must cancel");
    assert!(
        matches!(err, SmaError::DeadlineExceeded { .. }),
        "got {err:?}"
    );
}
