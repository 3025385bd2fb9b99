//! Coarse-to-fine hierarchical disparity estimation.
//!
//! "The disparity estimates at the coarse level will typically provide
//! more reliable correspondence information but will be lacking detailed
//! surface structures. The disparity estimates at finer levels are more
//! noisy but will be more accurate using the coarse-to-fine approach."
//! (§2.1). Each level searches a small residual range around the
//! up-projected coarse estimate; the coarsest level carries the full
//! search burden where the image (and the disparity) is smallest.

use sma_grid::pyramid::{upsample_to, Pyramid};
use sma_grid::{BorderPolicy, Grid};

use crate::ncc_pruned::best_disparity_pruned;

static LEVELS_REFINED: sma_obs::Counter = sma_obs::Counter::new("stereo.levels_refined");
static PIXELS_MATCHED: sma_obs::Counter = sma_obs::Counter::new("stereo.pixels_matched");

/// Parameters of one hierarchical matching run.
#[derive(Debug, Clone, Copy)]
pub struct MatchParams {
    /// Number of pyramid levels ("typically four levels").
    pub levels: usize,
    /// Template half-width for correlation (the "stereo-analysis
    /// template"; its size "determines the starting resolution level").
    pub template_n: usize,
    /// Full search range (+- pixels) at the coarsest level.
    pub coarse_range: usize,
    /// Residual search range (+- pixels) at each finer level.
    pub refine_range: usize,
    /// Minimum NCC score to accept a match; weaker pixels keep the
    /// up-projected coarse estimate.
    pub min_score: f64,
}

impl Default for MatchParams {
    fn default() -> Self {
        Self {
            levels: 4,
            template_n: 3,
            coarse_range: 8,
            refine_range: 2,
            min_score: 0.3,
        }
    }
}

/// Dense disparity between a rectified pair by coarse-to-fine correlation.
///
/// Each level is matched in raster order; per-pixel work is
/// independent, so the result does not depend on the visit order.
///
/// # Panics
/// Panics if the images have different shapes or `levels == 0`.
pub fn match_hierarchical(left: &Grid<f32>, right: &Grid<f32>, params: MatchParams) -> Grid<f32> {
    assert_eq!(left.dims(), right.dims(), "stereo pair shape mismatch");
    assert!(params.levels > 0, "need at least one pyramid level");
    let _span = sma_obs::span("hierarchical_match");

    // Cap the pyramid depth so the coarsest level is still meaningfully
    // larger than the correlation window — matching an 8x8 level with a
    // 7x7 template plus a +-8 search is pure border noise, and a wrong
    // coarse estimate is *doubled* at every finer level.
    let min_dim = left.width().min(left.height());
    let min_coarse = (4 * params.template_n + 4).max(16);
    let mut max_levels = 1usize;
    while max_levels < params.levels && (min_dim >> max_levels) >= min_coarse {
        max_levels += 1;
    }
    let lp = Pyramid::build(left, max_levels);
    let rp = Pyramid::build(right, max_levels);
    let levels = lp.num_levels().min(rp.num_levels());

    // Start from a zero disparity estimate at the coarsest level.
    let coarsest = levels - 1;
    let (cw, ch) = lp.level(coarsest).dims();
    let mut disparity = Grid::filled(cw, ch, 0.0f32);

    for k in (0..levels).rev() {
        let l = lp.level(k);
        let r = rp.level(k);
        if k != coarsest {
            // Up-project: double the disparity values onto the finer grid.
            let up = upsample_to(&disparity, l.width(), l.height());
            disparity = up.map(|&d| d * 2.0);
        }
        let range = if k == coarsest {
            params.coarse_range
        } else {
            params.refine_range
        };
        // Never search beyond a quarter of the level width: wider offsets
        // correlate mostly clamped border content.
        let range = range.min((l.width() / 4).max(1));
        let _level_span = sma_obs::span("refine_level");
        LEVELS_REFINED.incr();
        PIXELS_MATCHED.add((l.width() * l.height()) as u64);
        sma_obs::trace::counter("stereo.level_pixels", (l.width() * l.height()) as u64);
        disparity = refine_level(l, r, &disparity, range, params);
    }
    disparity
}

/// One level of refinement: search `+-range` around the prior at every
/// pixel.
fn refine_level(
    left: &Grid<f32>,
    right: &Grid<f32>,
    prior: &Grid<f32>,
    range: usize,
    params: MatchParams,
) -> Grid<f32> {
    let (w, h) = left.dims();
    Grid::from_fn(w, h, |x, y| {
        let p = prior.at(x, y);
        let center = p.round() as isize;
        let m = best_disparity_pruned(left, right, x, y, center, range, params.template_n);
        if m.score >= params.min_score {
            // Keep the sub-pixel fraction of the prior when the
            // refinement only confirms the integer estimate.
            m.disparity
        } else {
            p
        }
    })
}

/// Consistency check: warp `right` by the disparity and report the RMS
/// intensity residual against `left` over the interior (a cheap quality
/// metric for tests and diagnostics).
pub fn warp_residual(left: &Grid<f32>, right: &Grid<f32>, disparity: &Grid<f32>) -> f32 {
    let warped = sma_grid::warp::warp_by_disparity(right, disparity, BorderPolicy::Clamp);
    let (w, h) = left.dims();
    let m = 4usize.min(w / 4).min(h / 4);
    let mut ss = 0.0f64;
    let mut n = 0usize;
    for y in m..h - m {
        for x in m..w - m {
            let d = (left.at(x, y) - warped.at(x, y)) as f64;
            ss += d * d;
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        (ss / n as f64).sqrt() as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sma_grid::warp::translate;

    /// Aperiodic smooth test texture: hashed per-pixel noise, binomially
    /// smoothed twice so bilinear warps and sub-pixel matching behave.
    /// (Periodic sin/modular patterns alias the correlation search.)
    fn textured(w: usize, h: usize) -> Grid<f32> {
        let noise = Grid::from_fn(w, h, |x, y| {
            let mut v = (x as u64).wrapping_mul(0x9E3779B97F4A7C15)
                ^ (y as u64).wrapping_mul(0xC2B2AE3D27D4EB4F);
            v ^= v >> 29;
            v = v.wrapping_mul(0xBF58476D1CE4E5B9);
            v ^= v >> 32;
            (v % 1024) as f32 / 1024.0 * 8.0
        });
        let s = sma_grid::filter::binomial_smooth(&noise, BorderPolicy::Reflect);
        sma_grid::filter::binomial_smooth(&s, BorderPolicy::Reflect)
    }

    #[test]
    fn recovers_uniform_shift() {
        let left = textured(64, 64);
        let right = translate(&left, 5.0, 0.0, BorderPolicy::Clamp);
        let d = match_hierarchical(&left, &right, MatchParams::default());
        // right(x) = left(x + 5), so the template at x matches right at
        // x + d with d = -5.
        let mut mean = 0.0f32;
        let mut n = 0;
        for y in 12..52 {
            for x in 12..52 {
                mean += d.at(x, y);
                n += 1;
            }
        }
        mean /= n as f32;
        assert!((mean + 5.0).abs() < 0.5, "mean disparity {mean}, want -5");
    }

    #[test]
    fn shift_exceeding_fine_range_needs_hierarchy() {
        // A 12-pixel shift is far beyond refine_range = 2 but within the
        // coarse search at 1/8 resolution (12/8 = 1.5 px).
        let left = textured(96, 96);
        let right = translate(&left, -12.0, 0.0, BorderPolicy::Clamp);
        let d = match_hierarchical(&left, &right, MatchParams::default());
        let center = d.at(48, 48);
        assert!((center - 12.0).abs() < 1.0, "got {center}, want 12");
    }

    #[test]
    fn zero_disparity_for_identical_views() {
        let img = textured(48, 48);
        let d = match_hierarchical(&img, &img, MatchParams::default());
        for y in 8..40 {
            for x in 8..40 {
                assert!(
                    d.at(x, y).abs() < 0.3,
                    "nonzero disparity {} at ({x},{y})",
                    d.at(x, y)
                );
            }
        }
    }

    #[test]
    fn spatially_varying_disparity() {
        // Disparity ramp: d_true(x) = -x/16 (max 4 px over 64).
        let left = textured(64, 64);
        let disp_true = Grid::from_fn(64, 64, |x, _| x as f32 / 16.0);
        let right =
            sma_grid::warp::warp_by_disparity(&left, &disp_true.map(|&d| -d), BorderPolicy::Clamp);
        // right(x) = left(x - d_true): matching left(x) to right(x + d)
        // finds d = +d_true.
        let d = match_hierarchical(&left, &right, MatchParams::default());
        let mut err = 0.0f32;
        let mut n = 0;
        for y in 12..52 {
            for x in 12..52 {
                err += (d.at(x, y) - disp_true.at(x, y)).abs();
                n += 1;
            }
        }
        err /= n as f32;
        assert!(err < 0.6, "mean abs disparity error {err}");
    }

    #[test]
    fn warp_residual_improves_with_correct_disparity() {
        let left = textured(64, 64);
        let right = translate(&left, 4.0, 0.0, BorderPolicy::Clamp);
        let zero = Grid::filled(64, 64, 0.0f32);
        let d = match_hierarchical(&left, &right, MatchParams::default());
        let r0 = warp_residual(&left, &right, &zero);
        let r1 = warp_residual(&left, &right, &d);
        assert!(r1 < 0.3 * r0, "residual {r1} should beat unwarped {r0}");
    }

    #[test]
    fn textureless_regions_inherit_coarse_prior() {
        // Left half textured and shifted; right half flat. The flat half
        // must not produce wild disparities.
        let left = Grid::from_fn(64, 64, |x, y| {
            if x < 32 {
                textured(64, 64).at(x, y)
            } else {
                1.0
            }
        });
        let right = translate(&left, 2.0, 0.0, BorderPolicy::Clamp);
        let d = match_hierarchical(&left, &right, MatchParams::default());
        for y in 8..56 {
            for x in 40..60 {
                assert!(
                    d.at(x, y).abs() < 8.0,
                    "wild disparity {} in flat zone",
                    d.at(x, y)
                );
            }
        }
    }
}
