//! Property equivalence: the core crate's lane kernels and the pruned
//! driver against scalar references.
//!
//! Everything here pins *bit* identity: the lane kernels reorder only
//! independent work, never an accumulation, so they may not move one
//! output bit — and the pruned driver must agree with the scalar fast
//! path exactly on every randomized scene, border pixels and near-ties
//! included.

use proptest::prelude::*;
use sma_core::fastpath::track_all_integral;
use sma_core::sequential::Region;
use sma_core::template_map::discriminant_match_score;
use sma_core::{track_all_pruned, MotionModel, SmaConfig, SmaFrames};
use sma_grid::warp::translate;
use sma_grid::{BorderPolicy, Grid};

/// A deterministic, richly textured surface parameterized by seed.
fn textured(w: usize, h: usize, seed: u64) -> Grid<f32> {
    Grid::from_fn(w, h, |x, y| {
        let s = seed as f32 * 0.013;
        let (xf, yf) = (x as f32, y as f32);
        (xf * (0.41 + s * 0.01)).sin() * 2.0
            + (yf * 0.33 + s).cos() * 1.5
            + (xf * 0.11 + yf * 0.19 + s).sin() * 3.0
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The discriminant score — the interior lane kernel, or the clamped
    /// sweep where a window touches a border — is bit-identical to a
    /// clamped brute-force sum at every window position.
    #[test]
    fn discriminant_score_is_bit_identical_to_clamped_sum(
        seed in 0u64..1000,
        px in -2isize..24,
        py in -2isize..20,
        qx in -2isize..24,
        qy in -2isize..20,
        nst in 0usize..5,
    ) {
        let before = textured(22, 18, seed);
        let after = textured(22, 18, seed ^ 0x5a5a);
        let at = |g: &Grid<f32>, x: isize, y: isize| {
            let cx = x.clamp(0, g.width() as isize - 1) as usize;
            let cy = y.clamp(0, g.height() as isize - 1) as usize;
            g.at(cx, cy) as f64
        };
        let n = nst as isize;
        let mut brute = 0.0f64;
        for dv in -n..=n {
            for du in -n..=n {
                let diff = at(&after, qx + du, qy + dv) - at(&before, px + du, py + dv);
                brute += diff * diff;
            }
        }
        let score = discriminant_match_score(&before, &after, px, py, qx, qy, nst);
        prop_assert_eq!(brute.to_bits(), score.to_bits());
    }

    /// The pruned driver, on the lane kernels, is bit-identical to the
    /// scalar integral fast path on randomized scenes over the full
    /// frame (borders run the exact kernel in both, near-ties re-route
    /// through the shared predicate).
    #[test]
    fn pruned_driver_matches_integral_bitwise(
        seed in 0u64..100,
        dx in -1isize..=1,
        dy in -1isize..=1,
        model in prop_oneof![Just(MotionModel::Continuous), Just(MotionModel::SemiFluid)],
    ) {
        let cfg = SmaConfig::small_test(model);
        let before = textured(26, 26, seed);
        let after = translate(&before, -(dx as f32), -(dy as f32), BorderPolicy::Clamp);
        let frames =
            SmaFrames::prepare(&before, &after, &before, &after, &cfg).expect("prepare");
        let integral = track_all_integral(&frames, &cfg, Region::Full).expect("integral");
        let pruned = track_all_pruned(&frames, &cfg, Region::Full).expect("pruned");
        prop_assert_eq!(integral.estimates, pruned.estimates);
    }
}
