//! Cross-check of the spatial telemetry atlas against the scalar
//! counters: on the near-tie-heavy periodic scene, every fast-path
//! re-route, border fallback and quarantined pixel deposited into the
//! atlas planes must agree with the corresponding counter deltas — the
//! atlas is the *where* of exactly the events the counters tally.
//!
//! The atlas and the counters are process-global, so this file keeps a
//! single test: siblings in one binary would race the arm/disarm.

use sma_core::fastpath::track_all_integral;
use sma_core::motion::SmaFrames;
use sma_core::sequential::Region;
use sma_core::{track_all_pruned, track_all_sequential, MotionModel, SmaConfig};
use sma_grid::Grid;
use sma_obs::atlas::{self, AtlasChannel};

const SIDE: usize = 28;

fn counter(name: &str) -> u64 {
    sma_obs::metrics::snapshot().counter(name)
}

#[test]
fn atlas_planes_match_the_scalar_counters() {
    sma_obs::set_level(sma_obs::ObsLevel::Summary);
    atlas::arm(SIDE, SIDE, 8);

    // Period-2 pattern in x: the +1 / -1 shift hypotheses agree up to
    // rounding, so the fast paths re-route near-ties; non-finite pokes
    // exercise the quarantine plane during preparation.
    let cfg = SmaConfig::small_test(MotionModel::Continuous);
    let mut before = Grid::from_fn(SIDE, SIDE, |x, y| {
        (x as f32 * std::f32::consts::PI).cos() * (1.0 + 0.2 * (y as f32 * 0.37).sin())
            + 0.4 * (y as f32 * 0.23).cos()
    });
    before.set(6, 6, f32::NAN);
    before.set(20, 13, f32::INFINITY);
    let after = Grid::from_fn(SIDE, SIDE, |x, y| {
        let xs = (x as isize - 1).clamp(0, SIDE as isize - 1) as usize;
        before.at(xs, y)
    });

    let near_tie0 = counter("fastpath.near_tie_pixels") + counter("pruned.near_tie_pixels");
    let border0 =
        counter("fastpath.border_fallback_pixels") + counter("pruned.border_fallback_pixels");
    let interior0 = counter("fastpath.interior_pixels");
    let pruned_interior0 = counter("pruned.interior_pixels");
    let quarantined0 = counter("grid.validity.quarantined");

    let frames = SmaFrames::prepare(&before, &after, &before, &after, &cfg).expect("prepare");
    let seq = track_all_sequential(&frames, &cfg, Region::Full).expect("sequential");
    let fast = track_all_integral(&frames, &cfg, Region::Full).expect("fastpath");
    let pruned = track_all_pruned(&frames, &cfg, Region::Full).expect("pruned");

    let snap = atlas::snapshot().expect("armed snapshot");
    atlas::disarm();

    // The re-routed and fallback populations must be nonzero on this
    // scene (otherwise the cross-check is vacuous) and match the scalar
    // counters exactly.
    let near_tie =
        counter("fastpath.near_tie_pixels") + counter("pruned.near_tie_pixels") - near_tie0;
    let border = counter("fastpath.border_fallback_pixels")
        + counter("pruned.border_fallback_pixels")
        - border0;
    assert!(near_tie > 0, "tie scene produced no near-tie re-routes");
    assert!(border > 0, "Region::Full produced no border fallback");
    assert_eq!(snap.total(AtlasChannel::NearTie), near_tie);
    assert_eq!(snap.total(AtlasChannel::BorderFallback), border);

    // Dispatch planes: the integral plane counts the scalar fast path's
    // interior pixels, the pruned plane its interior pixels, and the exact
    // plane the full sequential sweep plus every re-routed / fallback
    // pixel (dispatch events, not an exclusive partition).
    let interior = counter("fastpath.interior_pixels") - interior0;
    let pruned_interior = counter("pruned.interior_pixels") - pruned_interior0;
    assert_eq!(snap.total(AtlasChannel::DispatchIntegral), interior);
    assert_eq!(snap.total(AtlasChannel::DispatchPruned), pruned_interior);
    assert_eq!(
        snap.total(AtlasChannel::DispatchExact),
        (SIDE * SIDE) as u64 + near_tie + border
    );

    // Quarantine: the pokes repaired during preparation land in the
    // plane; each of the four input planes is quarantined separately, so
    // the atlas total matches the grid counter delta, not the poke count.
    let quarantined = counter("grid.validity.quarantined") - quarantined0;
    assert!(quarantined > 0, "non-finite pokes were not quarantined");
    assert_eq!(snap.total(AtlasChannel::Quarantine), quarantined);

    // The near-tie density concentrates where ties exist at all — the
    // plane must not be uniform noise over every tile.
    assert!(snap.tiles_nonzero(AtlasChannel::NearTie) > 0);

    // Sanity on the outputs themselves (the contract tests own the full
    // claim; this keeps the scene honest).
    for (x, y) in seq.region.pixels() {
        let s = seq.estimates.at(x, y);
        assert_eq!(s.valid, fast.estimates.at(x, y).valid);
        assert_eq!(s.displacement, fast.estimates.at(x, y).displacement);
        assert_eq!(s.valid, pruned.estimates.at(x, y).valid);
        assert_eq!(s.displacement, pruned.estimates.at(x, y).displacement);
    }
}
