//! Sub-pixel hypothesis refinement.
//!
//! The hypothesis search is an integer grid, so every estimate carries up
//! to half a pixel of quantization — the visible error floor in the
//! fractional-drift experiments (sea ice, the 2.5 px/frame eyewall).
//! Fitting a two-dimensional quadratic to the error surface around the
//! winning hypothesis and taking its vertex recovers the fractional
//! part, exactly as the ASA substrate's 1-D parabolic disparity
//! refinement does along scan lines. This is in the spirit of §6's
//! "improving the accuracy of the estimated motion field".

use sma_grid::Vec2;

use crate::config::SmaConfig;
use crate::motion::{evaluate_hypothesis, MotionEstimate, SmaFrames};

/// The 3 x 3 error patch around a winning hypothesis.
#[derive(Debug, Clone, Copy)]
pub struct ErrorPatch {
    /// Errors `e[dy + 1][dx + 1]` for offsets `(dx, dy) in [-1, 1]^2`
    /// around the winner; `f64::INFINITY` marks unsolvable hypotheses.
    pub e: [[f64; 3]; 3],
}

impl ErrorPatch {
    /// Vertex of the least-squares quadratic fit to the patch, clamped
    /// to `[-0.5, 0.5]^2` (a vertex outside the cell means the integer
    /// winner was not a genuine local minimum — trust it no further than
    /// its cell). Returns `None` if any neighbor is unsolvable or the
    /// fit is degenerate (flat or non-convex surface).
    pub fn vertex(&self) -> Option<(f64, f64)> {
        for row in &self.e {
            for &v in row {
                if !v.is_finite() {
                    return None;
                }
            }
        }
        // Separable 1-D parabola fits through the central cross — the
        // same estimator the stereo matcher uses per axis. (A full 2-D
        // quadratic fit adds cross terms the 3 x 3 stencil can't pin
        // down reliably when the surface is anisotropic.)
        let ex = (self.e[1][0], self.e[1][1], self.e[1][2]);
        let ey = (self.e[0][1], self.e[1][1], self.e[2][1]);
        let dx = parabola_vertex(ex.0, ex.1, ex.2)?;
        let dy = parabola_vertex(ey.0, ey.1, ey.2)?;
        Some((dx.clamp(-0.5, 0.5), dy.clamp(-0.5, 0.5)))
    }
}

/// Vertex offset of the parabola through `(-1, e_m), (0, e_0), (+1, e_p)`;
/// `None` when the curvature is non-positive (no interior minimum).
fn parabola_vertex(e_m: f64, e_0: f64, e_p: f64) -> Option<f64> {
    let curvature = e_m - 2.0 * e_0 + e_p;
    if curvature <= 1e-300 {
        return None;
    }
    Some(0.5 * (e_m - e_p) / curvature)
}

/// Track one pixel and refine the winning displacement to sub-pixel
/// precision. Falls back to the integer estimate when the error surface
/// around the winner is incomplete or non-convex.
pub fn track_pixel_subpixel(
    frames: &SmaFrames,
    cfg: &SmaConfig,
    x: usize,
    y: usize,
) -> MotionEstimate {
    let ns = cfg.nzs as isize;
    // Integer search, remembering the winning *hypothesis* offset (the
    // error surface lives on the hypothesis grid even when the reported
    // semi-fluid displacement is refined).
    let mut best = MotionEstimate::invalid();
    let mut best_hyp = (0isize, 0isize);
    for oy in -ns..=ns {
        for ox in -ns..=ns {
            if let Some((affine, error)) = evaluate_hypothesis(frames, cfg, x, y, ox, oy) {
                if error < best.error {
                    best = MotionEstimate {
                        displacement: Vec2::new(affine.x0 as f32, affine.y0 as f32),
                        affine,
                        error,
                        valid: true,
                    };
                    best_hyp = (ox, oy);
                }
            }
        }
    }
    if !best.valid {
        return best;
    }
    // Gather the 3 x 3 error patch around the winner.
    let mut patch = ErrorPatch {
        e: [[f64::INFINITY; 3]; 3],
    };
    for dy in -1isize..=1 {
        for dx in -1isize..=1 {
            let (ox, oy) = (best_hyp.0 + dx, best_hyp.1 + dy);
            patch.e[(dy + 1) as usize][(dx + 1) as usize] = if dx == 0 && dy == 0 {
                best.error
            } else {
                evaluate_hypothesis(frames, cfg, x, y, ox, oy)
                    .map(|(_, e)| e)
                    .unwrap_or(f64::INFINITY)
            };
        }
    }
    if let Some((fx, fy)) = patch.vertex() {
        best.displacement = Vec2::new(
            best.displacement.u + fx as f32,
            best.displacement.v + fy as f32,
        );
        best.affine.x0 += fx;
        best.affine.y0 += fy;
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MotionModel;
    use crate::motion::track_pixel;
    use sma_grid::warp::translate;
    use sma_grid::{BorderPolicy, Grid};

    fn wavy(w: usize, h: usize) -> Grid<f32> {
        Grid::from_fn(w, h, |x, y| {
            let (xf, yf) = (x as f32, y as f32);
            (xf * 0.45).sin() * 2.0 + (yf * 0.35).cos() * 1.5 + (xf * 0.12 + yf * 0.21).sin() * 3.0
        })
    }

    #[test]
    fn parabola_vertex_math() {
        // e = (x - 0.3)^2 sampled at -1, 0, 1.
        let f = |x: f64| (x - 0.3) * (x - 0.3);
        let v = parabola_vertex(f(-1.0), f(0.0), f(1.0)).unwrap();
        assert!((v - 0.3).abs() < 1e-12);
        // Flat surface: no vertex.
        assert!(parabola_vertex(1.0, 1.0, 1.0).is_none());
        // Maximum (concave): no vertex.
        assert!(parabola_vertex(0.0, 1.0, 0.0).is_none());
    }

    #[test]
    fn integer_shift_stays_integer() {
        let cfg = SmaConfig::small_test(MotionModel::Continuous);
        let before = wavy(32, 32);
        let after = translate(&before, -1.0, 0.0, BorderPolicy::Clamp);
        let frames = SmaFrames::prepare(&before, &after, &before, &after, &cfg).expect("prepare");
        let est = track_pixel_subpixel(&frames, &cfg, 16, 16);
        assert!(est.valid);
        assert!(
            (est.displacement.u - 1.0).abs() < 0.15,
            "u {}",
            est.displacement.u
        );
        assert!(est.displacement.v.abs() < 0.15, "v {}", est.displacement.v);
    }

    #[test]
    fn fractional_shift_recovered_better_than_integer() {
        let cfg = SmaConfig::small_test(MotionModel::Continuous);
        let before = wavy(36, 36);
        let after = translate(&before, -1.5, 0.0, BorderPolicy::Clamp);
        let frames = SmaFrames::prepare(&before, &after, &before, &after, &cfg).expect("prepare");

        let mut int_err = 0.0f32;
        let mut sub_err = 0.0f32;
        let mut n = 0;
        for y in 14..22 {
            for x in 14..22 {
                let i = track_pixel(&frames, &cfg, x, y);
                let s = track_pixel_subpixel(&frames, &cfg, x, y);
                assert!(i.valid && s.valid);
                int_err += (i.displacement - Vec2::new(1.5, 0.0)).magnitude();
                sub_err += (s.displacement - Vec2::new(1.5, 0.0)).magnitude();
                n += 1;
            }
        }
        int_err /= n as f32;
        sub_err /= n as f32;
        // Integer grid is stuck at >= 0.5 px error for a x.5 shift; the
        // refinement must cut that substantially.
        assert!(int_err > 0.4, "integer error {int_err} (sanity)");
        assert!(
            sub_err < 0.6 * int_err,
            "sub-pixel {sub_err} should beat integer {int_err}"
        );
    }

    #[test]
    fn untrackable_pixel_stays_invalid() {
        // Armed faults would swap the invalid result for a fallback.
        let _faults = sma_fault::exclusive();
        let cfg = SmaConfig::small_test(MotionModel::Continuous);
        let flat = Grid::filled(32, 32, 1.0f32);
        let frames = SmaFrames::prepare(&flat, &flat, &flat, &flat, &cfg).expect("prepare");
        let est = track_pixel_subpixel(&frames, &cfg, 16, 16);
        assert!(!est.valid);
    }

    #[test]
    fn refinement_never_leaves_the_cell() {
        let cfg = SmaConfig::small_test(MotionModel::Continuous);
        let before = wavy(32, 32);
        let after = translate(&before, -0.4, -1.3, BorderPolicy::Clamp);
        let frames = SmaFrames::prepare(&before, &after, &before, &after, &cfg).expect("prepare");
        let i = track_pixel(&frames, &cfg, 16, 16);
        let s = track_pixel_subpixel(&frames, &cfg, 16, 16);
        assert!((s.displacement.u - i.displacement.u).abs() <= 0.5 + 1e-6);
        assert!((s.displacement.v - i.displacement.v).abs() <= 0.5 + 1e-6);
    }
}
