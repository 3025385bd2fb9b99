//! Property equivalence: the core crate's SIMD-gated kernels and the
//! lane-kernel (pruned) driver against their scalar references.
//!
//! Everything here pins *bit* identity: the lane kernels reorder only
//! independent work, never an accumulation, so toggling them may not
//! move one output bit — and the pruned driver must agree with the
//! scalar fast path exactly on every randomized scene, border pixels
//! and near-ties included.

use proptest::prelude::*;
use sma_core::ext::regularize::fill_invalid;
use sma_core::fastpath::track_all_integral;
use sma_core::sequential::{track_all_sequential, Region};
use sma_core::template_map::discriminant_match_score;
use sma_core::{track_all_pruned, MotionModel, SmaConfig, SmaFrames};
use sma_grid::flow::{FlowField, Vec2};
use sma_grid::warp::translate;
use sma_grid::{simd, BorderPolicy, Grid};

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

/// Run `f` twice — scalar kernels, then lane kernels — and return both
/// results, restoring the ambient toggle.
fn both<T>(mut f: impl FnMut() -> T) -> (T, T) {
    let was = simd::enabled();
    simd::set_enabled(false);
    let scalar = f();
    simd::set_enabled(true);
    let lanes = f();
    simd::set_enabled(was);
    (scalar, lanes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `fill_invalid` with the lane-chunked pass is bit-identical to the
    /// scalar pass for arbitrary validity patterns — including rows that
    /// are entirely invalid, which exercise full-width lane chunks with
    /// no valid in-row neighbors.
    #[test]
    fn fill_invalid_toggle_is_bit_identical(
        w in 1usize..24,
        h in 1usize..16,
        seed in 0u64..1000,
        dead_row in 0usize..16,
        passes in 0usize..5,
    ) {
        let flow = FlowField::from_fn(w, h, |x, y| {
            Vec2::new(
                ((x as f32 + seed as f32) * 0.7).sin() * 3.0,
                (y as f32 * 1.3).cos() * 2.0,
            )
        });
        let valid = Grid::from_fn(w, h, |x, y| {
            // Pseudo-random validity with one forced all-invalid row.
            y != dead_row % h && !(x * 7 + y * 5 + x * y + seed as usize).is_multiple_of(3)
        });
        let ((fa, oa), (fb, ob)) = both(|| fill_invalid(&flow, &valid, passes));
        prop_assert_eq!(fa, fb, "flow diverged");
        prop_assert_eq!(oa, ob, "validity diverged");
    }

    /// The interior lane kernel for the discriminant sweep is
    /// bit-identical to the clamped scalar sweep at every window
    /// position, interior or border.
    #[test]
    fn discriminant_score_toggle_is_bit_identical(
        seed in 0u64..1000,
        px in -2isize..24,
        py in -2isize..20,
        qx in -2isize..24,
        qy in -2isize..20,
        nst in 0usize..5,
    ) {
        let before = textured(22, 18, seed);
        let after = textured(22, 18, seed ^ 0x5a5a);
        let (scalar, lanes) = both(|| {
            discriminant_match_score(&before, &after, px, py, qx, qy, nst)
        });
        prop_assert_eq!(scalar.to_bits(), lanes.to_bits());
    }

    /// Whole-driver toggle invariance: the sequential reference (whose
    /// `solve_samples` accumulation and semi-fluid discriminant sweep
    /// are both lane-gated) answers the same bits either way.
    #[test]
    fn sequential_driver_toggle_is_bit_identical(
        seed in 0u64..100,
        dx in -1isize..=1,
        model in prop_oneof![Just(MotionModel::Continuous), Just(MotionModel::SemiFluid)],
    ) {
        let cfg = SmaConfig::small_test(model);
        let before = textured(26, 26, seed);
        let after = translate(&before, -(dx as f32), 0.0, BorderPolicy::Clamp);
        let frames =
            SmaFrames::prepare(&before, &after, &before, &after, &cfg).expect("prepare");
        let (a, b) = both(|| {
            track_all_sequential(&frames, &cfg, Region::Full).expect("track")
        });
        prop_assert_eq!(a.estimates, b.estimates);
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
