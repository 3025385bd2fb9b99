//! Scalar-vs-pruned near-tie re-route parity.
//!
//! Both fast-path families consult the *same* hoisted thresholds
//! (`sma_core::fastpath::{NEAR_TIE_ABS, NEAR_TIE_REL}` via
//! `fastpath::near_tie`), so on any scene they must re-route the
//! *identical* pixel set through the exact kernel. This test pins that
//! on the period-2 near-tie scene (the nastiest known), by comparing
//! the per-tile `NearTie` planes each family deposits into the
//! telemetry atlas at tile size 1 — i.e. the exact per-pixel re-route
//! set, not just the count.
//!
//! This lives in its own integration-test file (own process) because
//! the atlas is process-global: driver runs from sibling tests in the
//! same binary would pollute the armed planes.

use sma_core::fastpath::track_all_integral;
use sma_core::motion::SmaFrames;
use sma_core::sequential::Region;
use sma_core::{track_all_pruned, MotionModel, SmaConfig};
use sma_grid::Grid;
use sma_obs::atlas::{self, AtlasChannel};

/// Run `f` with a freshly armed 1px-tile atlas and return the NearTie
/// plane it deposited.
fn near_tie_plane(w: usize, h: usize, f: impl FnOnce()) -> Vec<u64> {
    atlas::disarm();
    atlas::arm(w, h, 1);
    f();
    let snap = atlas::snapshot().expect("atlas armed");
    atlas::disarm();
    snap.plane(AtlasChannel::NearTie).to_vec()
}

#[test]
fn scalar_and_pruned_reroute_identical_pixel_sets() {
    let cfg = SmaConfig::small_test(MotionModel::Continuous);
    let (w, h) = (28, 28);
    // The period-2 near-tie scene: +1 and -1 x-shift hypotheses agree
    // up to rounding, so the near-tie guard fires; the non-finite pokes
    // add quarantine-repaired plateaus where hypotheses tie exactly
    // (the same scene the atlas telemetry cross-check uses).
    let mut before = Grid::from_fn(w, h, |x, y| {
        (x as f32 * std::f32::consts::PI).cos() * (1.0 + 0.2 * (y as f32 * 0.37).sin())
            + 0.4 * (y as f32 * 0.23).cos()
    });
    before.set(6, 6, f32::NAN);
    before.set(20, 13, f32::INFINITY);
    let after = Grid::from_fn(w, h, |x, y| {
        let xs = (x as isize - 1).clamp(0, w as isize - 1) as usize;
        before.at(xs, y)
    });
    let frames = SmaFrames::prepare(&before, &after, &before, &after, &cfg).expect("prepare");
    let region = Region::Full;

    let scalar = near_tie_plane(w, h, || {
        track_all_integral(&frames, &cfg, region).expect("integral");
    });
    let pruned = near_tie_plane(w, h, || {
        track_all_pruned(&frames, &cfg, region).expect("pruned");
    });

    // The scene must actually exercise the guard — a zero-vs-zero pass
    // would prove nothing.
    let total: u64 = scalar.iter().sum();
    assert!(total > 0, "period-2 scene deposited no near-tie re-routes");

    // Same thresholds, same per-pixel margins: the re-routed pixel sets
    // (and per-pixel counts) must be identical across families.
    assert_eq!(
        scalar, pruned,
        "scalar and pruned families re-routed different pixel sets"
    );
}
