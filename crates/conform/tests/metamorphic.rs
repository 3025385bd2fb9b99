//! Metamorphic invariants of the SMA pipeline.
//!
//! Where the oracle pins outputs to a fixed corpus, these properties
//! pin *relations between runs* on randomized inputs: transform the
//! input in a way with a known effect on the answer, and check the
//! answer transforms accordingly. Each invariant documents (and gates)
//! a symmetry the drivers are supposed to have:
//!
//! * integer-shift equivariance — translating the whole scene
//!   translates the flow field, bit-for-bit away from borders;
//! * horizontal-flip conjugacy — mirroring the scene mirrors the flow
//!   (u negates, v is preserved) up to round-off from re-ordered sums;
//! * brightness-affine invariance — NCC scores (and the winning
//!   disparity) ignore gain/offset changes of either view;
//! * segmentation independence — hypothesis-row chunk size is an
//!   implementation detail: any `z_rows` gives the exact precompute
//!   driver bit-identical results;
//! * PE-array-shape independence — the simulated MasPar answer does
//!   not depend on the machine's processor-array edge.

use proptest::prelude::*;
use sma_conform::diff::diff_results;
use sma_core::motion::SmaFrames;
use sma_core::precompute::track_all_segmented;
use sma_core::sequential::Region;
use sma_core::{track_all_sequential, MotionModel, SmaConfig};
use sma_grid::Grid;
use sma_stereo::ncc::{best_disparity, ncc_score};

const W: usize = 32;
const H: usize = 32;

/// Smooth, aperiodic scene function over unbounded integer coordinates,
/// so a translated sampling window sees bit-identical values.
fn scene(x: i64, y: i64, phase: f64) -> f32 {
    let (xf, yf) = (x as f64, y as f64);
    ((xf * 0.61 + phase).sin() * 2.0
        + (yf * 0.43 - phase).cos() * 1.5
        + ((xf * 0.17 + yf * 0.29).sin()) * 2.5) as f32
}

/// Frames for the scene translated by `(tx, ty)`, with true motion
/// `(1, 0)` between before and after.
fn frames_at(tx: i64, ty: i64, phase: f64, cfg: &SmaConfig) -> (Grid<f32>, Grid<f32>, SmaFrames) {
    let before = Grid::from_fn(W, H, |x, y| scene(x as i64 - tx, y as i64 - ty, phase));
    let after = Grid::from_fn(W, H, |x, y| scene(x as i64 - 1 - tx, y as i64 - ty, phase));
    let frames = SmaFrames::prepare(&before, &after, &before, &after, cfg).expect("prepare");
    (before, after, frames)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn integer_shift_equivariance(
        tx in 0i64..=3,
        ty in 0i64..=3,
        phase in 0.0f64..6.0,
    ) {
        let cfg = SmaConfig::small_test(MotionModel::Continuous);
        let region = Region::Interior { margin: cfg.margin() };
        let (_, _, f0) = frames_at(0, 0, phase, &cfg);
        let (_, _, ft) = frames_at(tx, ty, phase, &cfg);
        let r0 = track_all_sequential(&f0, &cfg, region).expect("seq base");
        let rt = track_all_sequential(&ft, &cfg, region).expect("seq shifted");
        // Compare where both pixels are safely interior in both runs:
        // frame preparation smooths with border handling, so stay clear
        // of the frame edge by the shift plus a filter-radius buffer.
        let pad = cfg.margin() + 4;
        for y in (pad + ty as usize)..(H - pad) {
            for x in (pad + tx as usize)..(W - pad) {
                let a = rt.estimates.at(x, y);
                let b = r0.estimates.at(x - tx as usize, y - ty as usize);
                prop_assert_eq!(a.valid, b.valid, "validity at ({},{})", x, y);
                prop_assert_eq!(
                    a.displacement, b.displacement,
                    "displacement at ({},{}) shift ({},{})", x, y, tx, ty
                );
                prop_assert_eq!(
                    a.error.to_bits(), b.error.to_bits(),
                    "error bits at ({},{})", x, y
                );
            }
        }
    }

    #[test]
    fn horizontal_flip_conjugacy(phase in 0.0f64..6.0) {
        let cfg = SmaConfig::small_test(MotionModel::Continuous);
        let region = Region::Interior { margin: cfg.margin() };
        let (before, after, frames) = frames_at(0, 0, phase, &cfg);
        let flip = |g: &Grid<f32>| Grid::from_fn(W, H, |x, y| g.at(W - 1 - x, y));
        let (fb, fa) = (flip(&before), flip(&after));
        let flipped =
            SmaFrames::prepare(&fb, &fa, &fb, &fa, &cfg).expect("prepare flipped");
        let r = track_all_sequential(&frames, &cfg, region).expect("seq");
        let rf = track_all_sequential(&flipped, &cfg, region).expect("seq flipped");
        let m = cfg.margin();
        for y in m..(H - m) {
            for x in m..(W - m) {
                let a = r.estimates.at(x, y);
                let b = rf.estimates.at(W - 1 - x, y);
                prop_assert_eq!(a.valid, b.valid, "validity at ({},{})", x, y);
                if !a.valid {
                    continue;
                }
                // Mirroring reverses summation order inside every window,
                // so agreement is up to round-off, not bit-exact.
                prop_assert!(
                    (a.displacement.u + b.displacement.u).abs() < 1e-3,
                    "u at ({},{}): {} vs mirrored {}", x, y,
                    a.displacement.u, b.displacement.u
                );
                prop_assert!(
                    (a.displacement.v - b.displacement.v).abs() < 1e-3,
                    "v at ({},{}): {} vs mirrored {}", x, y,
                    a.displacement.v, b.displacement.v
                );
            }
        }
    }

    #[test]
    fn ncc_brightness_affine_invariance(
        gain in 0.25f64..4.0,
        offset in -10.0f64..10.0,
        phase in 0.0f64..6.0,
    ) {
        let left = Grid::from_fn(48, 48, |x, y| scene(x as i64, y as i64, phase));
        let right = Grid::from_fn(48, 48, |x, y| scene(x as i64 + 3, y as i64, phase));
        let adjusted = right.map(|&v| (gain * v as f64 + offset) as f32);
        for &(x, y) in &[(20usize, 20usize), (24, 30), (30, 16)] {
            for d in -4isize..=4 {
                let s0 = ncc_score(&left, &right, x, y, d, 3);
                let s1 = ncc_score(&left, &adjusted, x, y, d, 3);
                prop_assert!(
                    (s0 - s1).abs() < 1e-4,
                    "({},{},{}): {} vs {} under gain {} offset {}",
                    x, y, d, s0, s1, gain, offset
                );
            }
            // The winner must not move either.
            let m0 = best_disparity(&left, &right, x, y, 0, 4, 3);
            let m1 = best_disparity(&left, &adjusted, x, y, 0, 4, 3);
            prop_assert!(
                (m0.disparity - m1.disparity).abs() < 0.05,
                "winner moved at ({},{}): {} vs {}", x, y, m0.disparity, m1.disparity
            );
        }
    }

    #[test]
    fn segmentation_is_an_implementation_detail(
        z_rows in 1usize..=5,
        phase in 0.0f64..6.0,
    ) {
        let cfg = SmaConfig::small_test(MotionModel::SemiFluid);
        let region = Region::Interior { margin: cfg.margin() };
        let (_, _, frames) = frames_at(0, 0, phase, &cfg);
        let seq = track_all_sequential(&frames, &cfg, region).expect("seq");
        let seg =
            track_all_segmented(&frames, &cfg, region, z_rows).expect("segmented");
        prop_assert!(
            diff_results(&seq, &seg).bit_identical(),
            "exact segmented driver diverged at z_rows = {}", z_rows
        );
    }
}

#[test]
fn maspar_answer_is_independent_of_pe_array_shape() {
    use maspar_sim::machine::{MachineConfig, MasPar, ReadoutScheme};
    use sma_core::maspar_driver::track_on_maspar;

    let cfg = SmaConfig::small_test(MotionModel::Continuous);
    let region = Region::Interior {
        margin: cfg.margin(),
    };
    let before = Grid::from_fn(W, H, |x, y| scene(x as i64, y as i64, 1.3));
    let after = Grid::from_fn(W, H, |x, y| scene(x as i64 - 1, y as i64, 1.3));
    let run = |edge: usize| {
        let mut machine = MasPar::new(MachineConfig {
            nxproc: edge,
            nyproc: edge,
            ..MachineConfig::goddard_mp2()
        });
        track_on_maspar(
            &mut machine,
            &before,
            &after,
            &before,
            &after,
            &cfg,
            region,
            ReadoutScheme::Raster,
        )
        .expect("maspar run")
        .result
    };
    let small = run(4);
    let large = run(16);
    assert!(
        diff_results(&small, &large).bit_identical(),
        "MasPar result depends on the PE array shape"
    );
}
