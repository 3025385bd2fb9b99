//! Property tests for the SMA core: randomized translation recovery,
//! driver equivalence under random scenes, affine algebra, and config
//! invariants.

use proptest::prelude::*;
use sma_core::motion::{track_pixel, SmaFrames};
use sma_core::precompute::track_all_segmented;
use sma_core::sequential::{track_all_sequential, Region};
use sma_core::{LocalAffine, MotionModel, SmaConfig};
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
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any integer translation inside the search window is recovered
    /// exactly by the continuous model on textured data.
    #[test]
    fn continuous_recovers_any_integer_shift(
        dx in -2isize..=2, dy in -2isize..=2, seed in 0u64..100
    ) {
        let cfg = SmaConfig::small_test(MotionModel::Continuous);
        let before = textured(32, 32, seed);
        let after = translate(&before, -(dx as f32), -(dy as f32), BorderPolicy::Clamp);
        let frames = SmaFrames::prepare(&before, &after, &before, &after, &cfg).expect("prepare");
        let est = track_pixel(&frames, &cfg, 16, 16);
        prop_assert!(est.valid);
        prop_assert_eq!(est.displacement.u as isize, dx);
        prop_assert_eq!(est.displacement.v as isize, dy);
    }

    /// The semi-fluid model recovers translations too (displacement may
    /// route through hypothesis + refinement, but the reported center
    /// correspondence must match the truth).
    #[test]
    fn semifluid_recovers_any_integer_shift(
        dx in -2isize..=2, dy in -2isize..=2, seed in 0u64..50
    ) {
        let cfg = SmaConfig::small_test(MotionModel::SemiFluid);
        let before = textured(30, 30, seed);
        let after = translate(&before, -(dx as f32), -(dy as f32), BorderPolicy::Clamp);
        let frames = SmaFrames::prepare(&before, &after, &before, &after, &cfg).expect("prepare");
        let est = track_pixel(&frames, &cfg, 15, 15);
        prop_assert!(est.valid);
        prop_assert_eq!(est.displacement.u as isize, dx, "u mismatch");
        prop_assert_eq!(est.displacement.v as isize, dy, "v mismatch");
    }

    /// Sequential and segmented drivers agree pixel for pixel on
    /// arbitrary scenes and chunk sizes.
    #[test]
    fn drivers_identical_on_random_scenes(
        seed in 0u64..50, z_rows in 1usize..5,
        model in prop_oneof![Just(MotionModel::Continuous), Just(MotionModel::SemiFluid)]
    ) {
        let cfg = SmaConfig::small_test(model);
        let before = textured(24, 24, seed);
        let after = translate(&before, -1.0, 0.0, BorderPolicy::Clamp);
        let frames = SmaFrames::prepare(&before, &after, &before, &after, &cfg).expect("prepare");
        let region = Region::Interior { margin: 10 };
        let s = track_all_sequential(&frames, &cfg, region).expect("sequential");
        let g = track_all_segmented(&frames, &cfg, region, z_rows).expect("segmented");
        for (x, y) in s.region.pixels() {
            prop_assert_eq!(s.estimates.at(x, y), g.estimates.at(x, y));
        }
    }

    /// LocalAffine::apply is exactly eq. (6) for random parameters.
    #[test]
    fn affine_apply_matches_equation(
        ai in -0.5f64..0.5, bi in -0.5f64..0.5,
        aj in -0.5f64..0.5, bj in -0.5f64..0.5,
        ak in -0.5f64..0.5, bk in -0.5f64..0.5,
        x0 in -3.0f64..3.0, y0 in -3.0f64..3.0, z0 in -3.0f64..3.0,
        u in -5.0f64..5.0, v in -5.0f64..5.0, z in -5.0f64..5.0
    ) {
        let a = LocalAffine { ai, bi, aj, bj, ak, bk, x0, y0, z0 };
        let (xp, yp, zp) = a.apply(u, v, z);
        prop_assert!((xp - (u + ai * u + bi * v + x0)).abs() < 1e-12);
        prop_assert!((yp - (v + aj * u + bj * v + y0)).abs() < 1e-12);
        prop_assert!((zp - (z + ak * u + bk * v + z0)).abs() < 1e-12);
        // Round trip through params.
        let b = LocalAffine::from_params(&a.params(), x0, y0, z0);
        prop_assert_eq!(a, b);
    }

    /// Margins always cover every window the configuration can touch: a
    /// tracked pixel at the margin never indexes outside the frame
    /// (exercised by running on a frame exactly twice the margin plus a
    /// small interior).
    #[test]
    fn margin_is_sufficient(
        nzs in 1usize..3, nzt in 1usize..4, nss in 0usize..2,
        model in prop_oneof![Just(MotionModel::Continuous), Just(MotionModel::SemiFluid)]
    ) {
        let cfg = SmaConfig { model, nz: 2, nzs, nzt, nss, nst: 2 };
        prop_assume!(cfg.validate().is_ok());
        let m = cfg.margin();
        let side = 2 * m + 3;
        let before = textured(side, side, 7);
        let frames = SmaFrames::prepare(&before, &before, &before, &before, &cfg).expect("prepare");
        // Must not panic; zero motion must win on identical frames.
        let est = track_pixel(&frames, &cfg, m + 1, m + 1);
        if est.valid {
            prop_assert_eq!(est.displacement.u, 0.0);
            prop_assert_eq!(est.displacement.v, 0.0);
        }
    }

    /// Workload counts scale exactly with the window areas.
    #[test]
    fn workload_scaling(nzs in 1usize..8, nzt in 1usize..12) {
        use sma_core::timing::SmaWorkload;
        let cfg = SmaConfig { model: MotionModel::Continuous, nz: 2, nzs, nzt, nss: 0, nst: 2 };
        let w = SmaWorkload::from_config(&cfg, 64, 64);
        let hyps = ((2 * nzs + 1) * (2 * nzs + 1)) as u64;
        let terms = ((2 * nzt + 1) * (2 * nzt + 1)) as u64;
        prop_assert_eq!(w.hyp_ges, 4096 * hyps);
        prop_assert_eq!(w.hyp_terms, 4096 * hyps * terms);
        prop_assert_eq!(w.semifluid_mappings, 0);
    }
}
