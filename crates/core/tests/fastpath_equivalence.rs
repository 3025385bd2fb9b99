//! Equivalence suite: the integral-image fast path against the exact
//! kernels, over randomized scenes and both motion models.
//!
//! The fast path assembles each hypothesis' normal equations from
//! summed-area-table lookups instead of the per-sample loop, so its
//! floating-point association order differs. The contract pinned here:
//!
//! * winning **displacements are identical** (the winner margin on real
//!   data dwarfs association-order noise);
//! * **affine parameters and errors agree to 1e-6 relative** (with a
//!   1e-9 absolute floor for values near zero);
//! * **border pixels are bit-identical** to the sequential baseline —
//!   they run the exact kernel, not an approximation.

use proptest::prelude::*;
use sma_core::fastpath::track_all_integral;
use sma_core::sequential::{track_all_sequential, Region};
use sma_core::{MotionModel, SmaConfig};
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

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 + 1e-6 * a.abs().max(b.abs())
}

fn frames_for(
    model: MotionModel,
    dx: isize,
    dy: isize,
    seed: u64,
) -> (sma_core::SmaFrames, SmaConfig) {
    let cfg = SmaConfig::small_test(model);
    let before = textured(32, 32, seed);
    let after = translate(&before, -(dx as f32), -(dy as f32), BorderPolicy::Clamp);
    (
        sma_core::SmaFrames::prepare(&before, &after, &before, &after, &cfg).expect("prepare"),
        cfg,
    )
}

/// Shared comparison: exact sequential vs one fast-path result over a
/// region, under the contract above.
fn assert_equivalent(
    exact: &sma_core::sequential::SmaResult,
    fast: &sma_core::sequential::SmaResult,
) -> Result<(), String> {
    if exact.region != fast.region {
        return Err("region mismatch".into());
    }
    for (x, y) in exact.region.pixels() {
        let a = exact.estimates.at(x, y);
        let b = fast.estimates.at(x, y);
        if a.valid != b.valid {
            return Err(format!("validity mismatch at ({x},{y}): {a:?} vs {b:?}"));
        }
        if !a.valid {
            continue;
        }
        if a.displacement != b.displacement {
            return Err(format!(
                "displacement mismatch at ({x},{y}): {:?} vs {:?}",
                a.displacement, b.displacement
            ));
        }
        if !close(a.error, b.error) {
            return Err(format!(
                "error mismatch at ({x},{y}): {} vs {}",
                a.error, b.error
            ));
        }
        let pa = a.affine.params();
        let pb = b.affine.params();
        for k in 0..6 {
            if !close(pa[k], pb[k]) {
                return Err(format!(
                    "param {k} mismatch at ({x},{y}): {} vs {}",
                    pa[k], pb[k]
                ));
            }
        }
        if a.affine.x0 != b.affine.x0 || a.affine.y0 != b.affine.y0 || a.affine.z0 != b.affine.z0 {
            return Err(format!("translation mismatch at ({x},{y})"));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Fcont: fast path == exact kernels over random shifts and scenes.
    #[test]
    fn fastpath_equivalent_continuous(
        dx in -2isize..=2, dy in -2isize..=2, seed in 0u64..60
    ) {
        let (frames, cfg) = frames_for(MotionModel::Continuous, dx, dy, seed);
        let region = Region::Interior { margin: 10 };
        let exact = track_all_sequential(&frames, &cfg, region).expect("sequential");
        let fast = track_all_integral(&frames, &cfg, region).expect("fastpath");
        prop_assert!(assert_equivalent(&exact, &fast).is_ok(),
            "{:?}", assert_equivalent(&exact, &fast));
    }

    /// Fsemi: the semi-fluid per-template-pixel refinement flows through
    /// the mapped-gradient planes identically.
    #[test]
    fn fastpath_equivalent_semifluid(
        dx in -1isize..=1, dy in -1isize..=1, seed in 0u64..40
    ) {
        let (frames, cfg) = frames_for(MotionModel::SemiFluid, dx, dy, seed);
        let region = Region::Interior { margin: 10 };
        let exact = track_all_sequential(&frames, &cfg, region).expect("sequential");
        let fast = track_all_integral(&frames, &cfg, region).expect("fastpath");
        prop_assert!(assert_equivalent(&exact, &fast).is_ok(),
            "{:?}", assert_equivalent(&exact, &fast));
    }

    /// Border fallback: on a Full region, every pixel whose template
    /// window crosses the frame edge is bit-identical to the sequential
    /// baseline, and interior pixels still satisfy the tolerance
    /// contract.
    #[test]
    fn fastpath_border_fallback_bit_identical(
        seed in 0u64..30
    ) {
        let (frames, cfg) = frames_for(MotionModel::Continuous, 1, 0, seed);
        let exact = track_all_sequential(&frames, &cfg, Region::Full).expect("sequential");
        let fast = track_all_integral(&frames, &cfg, Region::Full).expect("fastpath");
        let (w, h) = frames.dims();
        let template = cfg.template_window();
        let mut border = 0usize;
        for (x, y) in exact.region.pixels() {
            if !template.fits_at(x, y, w, h) {
                prop_assert_eq!(
                    exact.estimates.at(x, y),
                    fast.estimates.at(x, y),
                    "border pixel ({}, {}) must run the exact kernel", x, y
                );
                border += 1;
            }
        }
        prop_assert!(border > 0, "scene must exercise border pixels");
        prop_assert!(assert_equivalent(&exact, &fast).is_ok(),
            "{:?}", assert_equivalent(&exact, &fast));
    }
}
