//! The discriminant score tallies its lane/tail split once per call.
//!
//! `simd.lanes_used` and `simd.scalar_tail` are process-global, so this
//! test runs in its own integration-test binary and asserts on snapshot
//! deltas of one call at a time.

use sma_core::template_map::discriminant_match_score;
use sma_grid::Grid;

fn counter(name: &str) -> u64 {
    sma_obs::metrics::snapshot().counter(name)
}

/// One interior call adds `side * (side / 8)` lanes and
/// `side * (side % 8)` tail elements for a `side = 2 NsT + 1` window:
/// 0 / 25 at NsT = 2 (the 8-lane block never fires at width 5) and
/// 9 / 9 at NsT = 4.
#[test]
fn interior_score_tallies_the_whole_window_once() {
    sma_obs::set_level(sma_obs::ObsLevel::Summary);
    let before = Grid::from_fn(32, 32, |x, y| ((x * 7 + y * 13) % 17) as f32 * 0.25);
    let after = Grid::from_fn(32, 32, |x, y| ((x * 5 + y * 11) % 19) as f32 * 0.25);
    for (nst, lanes, tail) in [(2usize, 0u64, 25u64), (4, 9, 9)] {
        let lanes0 = counter("simd.lanes_used");
        let tail0 = counter("simd.scalar_tail");
        let score = discriminant_match_score(&before, &after, 15, 16, 16, 15, nst);
        assert!(score.is_finite());
        assert_eq!(
            counter("simd.lanes_used") - lanes0,
            lanes,
            "lanes at NsT = {nst}"
        );
        assert_eq!(
            counter("simd.scalar_tail") - tail0,
            tail,
            "tail at NsT = {nst}"
        );
    }
}
