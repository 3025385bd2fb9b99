//! Adaptive hierarchical motion estimation (§6: "adaptive hierarchical
//! non-square template and search windows").
//!
//! Like the ASA stereo substrate's coarse-to-fine disparity search, the
//! motion search can run on an image pyramid: estimate flow at a coarse
//! level with a small search window (where large motions shrink), double
//! and up-project, then refine with a small residual search at each finer
//! level. The effective search radius is `nzs * 2^(levels-1)` while the
//! per-level cost stays that of the small window — the "adaptive" part is
//! that fine levels only explore a residual neighborhood around the
//! coarse prediction.

use sma_fault::{GridError, SmaError};
use sma_grid::pyramid::{downsample, upsample_to};
use sma_grid::{BorderPolicy, FlowField, Grid, Vec2};

use crate::config::SmaConfig;
use crate::motion::SmaFrames;
use crate::sequential::Region;

/// Inputs at one pyramid level.
#[derive(Debug, Clone)]
struct LevelData {
    intensity_before: Grid<f32>,
    intensity_after: Grid<f32>,
    surface_before: Grid<f32>,
    surface_after: Grid<f32>,
}

impl LevelData {
    fn coarser(&self) -> LevelData {
        LevelData {
            intensity_before: downsample(&self.intensity_before),
            intensity_after: downsample(&self.intensity_after),
            surface_before: downsample(&self.surface_before),
            surface_after: downsample(&self.surface_after),
        }
    }
}

/// Coarse-to-fine SMA: `levels` pyramid levels, each tracked with `cfg`'s
/// (small) search window; coarse flow is doubled and used to pre-warp the
/// *after* frames at the next finer level, so each level only estimates
/// the residual motion. Returns the composed dense flow at full
/// resolution.
///
/// # Errors
/// [`SmaError::Config`] if `levels == 0`;
/// [`GridError::ShapeMismatch`] if the frame shapes differ;
/// [`GridError::EmptyRegion`] if the frames are too small for `cfg`'s
/// margins at the finest level.
pub fn track_hierarchical(
    intensity_before: &Grid<f32>,
    intensity_after: &Grid<f32>,
    surface_before: &Grid<f32>,
    surface_after: &Grid<f32>,
    cfg: &SmaConfig,
    levels: usize,
) -> Result<FlowField, SmaError> {
    if levels == 0 {
        return Err(SmaError::Config("need at least one pyramid level".into()));
    }
    let expected = intensity_before.dims();
    for got in [
        intensity_after.dims(),
        surface_before.dims(),
        surface_after.dims(),
    ] {
        if got != expected {
            return Err(GridError::ShapeMismatch { expected, got }.into());
        }
    }

    // Build the level stack (finest first).
    let mut stack = vec![LevelData {
        intensity_before: intensity_before.clone(),
        intensity_after: intensity_after.clone(),
        surface_before: surface_before.clone(),
        surface_after: surface_after.clone(),
    }];
    for _ in 1..levels {
        let prev = stack.last().expect("non-empty stack");
        let min_dim = prev
            .intensity_before
            .width()
            .min(prev.intensity_before.height());
        if min_dim / 2 < 2 * cfg.margin() + 4 {
            break; // adaptive depth: stop before margins eat the level
        }
        stack.push(prev.coarser());
    }

    // Coarse-to-fine.
    let coarsest = stack.len() - 1;
    let (cw, ch) = stack[coarsest].intensity_before.dims();
    let mut flow = FlowField::zeros(cw, ch);
    for k in (0..stack.len()).rev() {
        let level = &stack[k];
        let (w, h) = level.intensity_before.dims();
        if k != coarsest {
            // Up-project: resample and double the coarse flow.
            let up_u = upsample_to(&flow.u_plane(), w, h);
            let up_v = upsample_to(&flow.v_plane(), w, h);
            flow = FlowField::from_fn(w, h, |x, y| {
                Vec2::new(2.0 * up_u.at(x, y), 2.0 * up_v.at(x, y))
            });
        }
        // Adaptive search: instead of warping frames (which smears the
        // after-frame geometry at staircase boundaries), each pixel's
        // hypothesis window is re-centered on the rounded coarse
        // prediction — the "adaptive search window" of §6. The frames at
        // this level are untouched originals.
        let frames = SmaFrames::prepare(
            &level.intensity_before,
            &level.intensity_after,
            &level.surface_before,
            &level.surface_after,
            cfg,
        )?;
        let result = track_with_prior(&frames, cfg, &flow)?;
        let residual = filled_flow(&result);
        flow = residual; // track_with_prior returns absolute displacements
                         // Smooth the composed field: per-level estimates are quantized to
                         // the integer hypothesis grid, and the resulting staircase would
                         // otherwise create warp artifacts at the next finer level.
        flow = smooth_flow(&flow);
    }
    Ok(flow)
}

/// Binomial smoothing of both flow components.
fn smooth_flow(flow: &FlowField) -> FlowField {
    let u = sma_grid::filter::binomial_smooth(&flow.u_plane(), BorderPolicy::Clamp);
    let v = sma_grid::filter::binomial_smooth(&flow.v_plane(), BorderPolicy::Clamp);
    FlowField::from_fn(flow.width(), flow.height(), |x, y| {
        Vec2::new(u.at(x, y), v.at(x, y))
    })
}

/// Track every interior pixel with the hypothesis window re-centered on
/// the rounded per-pixel prior — the coarse-to-fine "adaptive search".
/// Returned displacements are absolute (prior + residual). Pixels whose
/// center was quarantined (NaN/Inf in the input) are left invalid so the
/// [`filled_flow`] median covers them instead of a repaired-data fit.
fn track_with_prior(
    frames: &SmaFrames,
    cfg: &SmaConfig,
    prior: &FlowField,
) -> Result<crate::sequential::SmaResult, SmaError> {
    use crate::motion::{evaluate_hypothesis, MotionEstimate};
    let (w, h) = frames.dims();
    let margin = cfg.margin();
    let bounds = Region::Interior { margin }.bounds_checked(w, h)?;
    let ns = cfg.nzs as isize;
    let rows: Vec<(usize, Vec<MotionEstimate>)> = (bounds.y0..=bounds.y1)
        .map(|y| {
            let row = (bounds.x0..=bounds.x1)
                .map(|x| {
                    if !frames.validity.is_valid(x, y) {
                        return MotionEstimate::invalid();
                    }
                    let p = prior.at(x, y);
                    let (cx, cy) = (p.u.round() as isize, p.v.round() as isize);
                    let mut best = MotionEstimate::invalid();
                    for oy in cy - ns..=cy + ns {
                        for ox in cx - ns..=cx + ns {
                            if let Some((affine, error)) =
                                evaluate_hypothesis(frames, cfg, x, y, ox, oy)
                            {
                                if error < best.error {
                                    best = MotionEstimate {
                                        displacement: Vec2::new(affine.x0 as f32, affine.y0 as f32),
                                        affine,
                                        error,
                                        valid: true,
                                    };
                                }
                            }
                        }
                    }
                    best
                })
                .collect();
            (y, row)
        })
        .collect();
    let mut estimates = sma_grid::Grid::filled(w, h, MotionEstimate::invalid());
    for (y, row) in rows {
        for (i, est) in row.into_iter().enumerate() {
            estimates.set(bounds.x0 + i, y, est);
        }
    }
    Ok(crate::sequential::SmaResult {
        estimates,
        region: bounds,
    })
}

/// The result's flow with untracked/invalid pixels replaced by the
/// component-wise median of the valid estimates (zero if none).
fn filled_flow(result: &crate::sequential::SmaResult) -> FlowField {
    let mut us: Vec<f32> = Vec::new();
    let mut vs: Vec<f32> = Vec::new();
    for (x, y) in result.region.pixels() {
        let e = result.estimates.at(x, y);
        if e.valid {
            us.push(e.displacement.u);
            vs.push(e.displacement.v);
        }
    }
    let median = |v: &mut Vec<f32>| -> f32 {
        if v.is_empty() {
            return 0.0;
        }
        let mid = v.len() / 2;
        v.sort_by(|a, b| a.total_cmp(b));
        v[mid]
    };
    let fallback = Vec2::new(median(&mut us), median(&mut vs));
    let (w, h) = result.estimates.dims();
    FlowField::from_fn(w, h, |x, y| {
        let e = result.estimates.at(x, y);
        if e.valid {
            e.displacement
        } else {
            fallback
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MotionModel;
    use sma_grid::warp::translate;

    fn wavy(w: usize, h: usize) -> Grid<f32> {
        Grid::from_fn(w, h, |x, y| {
            let (xf, yf) = (x as f32, y as f32);
            (xf * 0.23).sin() * 2.0 + (yf * 0.17).cos() * 1.5 + (xf * 0.06 + yf * 0.09).sin() * 3.0
        })
    }

    #[test]
    fn single_level_matches_flat_tracking() {
        let cfg = SmaConfig::small_test(MotionModel::Continuous);
        let before = wavy(40, 40);
        let after = translate(&before, -1.0, 0.0, BorderPolicy::Clamp);
        let flow = track_hierarchical(&before, &after, &before, &after, &cfg, 1).expect("track");
        // Interior must report (1, 0).
        let m = cfg.margin() + 2;
        for y in m..40 - m {
            for x in m..40 - m {
                let v = flow.at(x, y);
                assert!(
                    (v.u - 1.0).abs() < 0.6 && v.v.abs() < 0.6,
                    "({x},{y}): {v:?}"
                );
            }
        }
    }

    #[test]
    fn hierarchy_recovers_motion_beyond_flat_search() {
        // A 5-pixel shift with a +-2 search: impossible flat, easy with
        // 2-3 pyramid levels (5/4 = 1.25 px at the coarsest).
        let cfg = SmaConfig::small_test(MotionModel::Continuous);
        let before = wavy(72, 72);
        let after = translate(&before, -5.0, 0.0, BorderPolicy::Clamp);

        let flat = track_hierarchical(&before, &after, &before, &after, &cfg, 1).expect("flat");
        let hier = track_hierarchical(&before, &after, &before, &after, &cfg, 3).expect("hier");

        let score = |f: &FlowField| {
            let mut err = 0.0f32;
            let mut n = 0;
            for y in 24..48 {
                for x in 24..48 {
                    err += (f.at(x, y) - Vec2::new(5.0, 0.0)).magnitude();
                    n += 1;
                }
            }
            err / n as f32
        };
        let e_flat = score(&flat);
        let e_hier = score(&hier);
        assert!(
            e_hier < 0.5 * e_flat,
            "hierarchical error {e_hier} should crush flat {e_flat}"
        );
        assert!(
            e_hier < 1.0,
            "hierarchical should land within a pixel, got {e_hier}"
        );
    }

    #[test]
    fn adaptive_depth_stops_on_small_frames() {
        // Requesting many levels on a small frame must not panic — the
        // stack depth adapts.
        let cfg = SmaConfig::small_test(MotionModel::Continuous);
        let before = wavy(36, 36);
        let after = translate(&before, -1.0, -1.0, BorderPolicy::Clamp);
        let flow = track_hierarchical(&before, &after, &before, &after, &cfg, 6).expect("track");
        assert_eq!(flow.dims(), (36, 36));
    }
}
