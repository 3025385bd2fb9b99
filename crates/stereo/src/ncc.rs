//! Normalized cross-correlation matching along scan lines.
//!
//! The ASA is "correlation-based" and the views are rectified so
//! "epipolar lines become parallel to scan lines": correspondence search
//! is one-dimensional, over integer disparities along a row, scored by
//! zero-mean normalized cross-correlation (invariant to local brightness
//! gain/offset differences between the two satellite cameras), with a
//! parabolic sub-pixel refinement around the best integer disparity.

use sma_grid::{BorderPolicy, Grid};

/// Minimum template variance for a meaningful correlation score; flatter
/// (textureless) templates return [`NEUTRAL_SCORE`] (no evidence).
///
/// Shared with the pruned search in [`crate::ncc_pruned`], whose
/// variance bracket around this threshold decides when a window must
/// take the reference's neutral branch.
pub const MIN_VARIANCE: f64 = 1e-8;

/// Score reported for windows with no correlation evidence (textureless,
/// or numerically degenerate).
pub const NEUTRAL_SCORE: f64 = 0.0;

/// Zero-mean NCC between the `(2n+1)^2` template centered at `(x, y)` in
/// `left` and the window centered at `(x + d, y)` in `right`.
/// Returns a score in `[-1, 1]`; 0 for textureless windows.
pub fn ncc_score(
    left: &Grid<f32>,
    right: &Grid<f32>,
    x: usize,
    y: usize,
    d: isize,
    n: usize,
) -> f64 {
    let ni = n as isize;
    let mut sl = 0.0f64;
    let mut sr = 0.0f64;
    let count = ((2 * n + 1) * (2 * n + 1)) as f64;
    for dy in -ni..=ni {
        for dx in -ni..=ni {
            sl += left.at_clamped(x as isize + dx, y as isize + dy, BorderPolicy::Clamp) as f64;
            sr +=
                right.at_clamped(x as isize + dx + d, y as isize + dy, BorderPolicy::Clamp) as f64;
        }
    }
    let ml = sl / count;
    let mr = sr / count;
    let mut cov = 0.0f64;
    let mut vl = 0.0f64;
    let mut vr = 0.0f64;
    for dy in -ni..=ni {
        for dx in -ni..=ni {
            let a =
                left.at_clamped(x as isize + dx, y as isize + dy, BorderPolicy::Clamp) as f64 - ml;
            let b = right.at_clamped(x as isize + dx + d, y as isize + dy, BorderPolicy::Clamp)
                as f64
                - mr;
            cov += a * b;
            vl += a * a;
            vr += b * b;
        }
    }
    // NaN-safe: a non-finite variance (NaN pixels that escaped the
    // input quarantine) must take the neutral branch, so test the
    // *acceptance* condition — `NaN >= x` is false, `NaN < x` is not.
    if !(vl >= MIN_VARIANCE && vr >= MIN_VARIANCE) {
        if vl.is_nan() || vr.is_nan() {
            sma_fault::note_natural_degradation();
        }
        return NEUTRAL_SCORE;
    }
    let score = cov / (vl * vr).sqrt();
    if score.is_finite() {
        score
    } else {
        sma_fault::note_natural_degradation();
        NEUTRAL_SCORE
    }
}

/// Result of a 1-D disparity search at one pixel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Match {
    /// Sub-pixel disparity estimate.
    pub disparity: f32,
    /// NCC score of the best integer disparity.
    pub score: f64,
}

/// Search integer disparities `d` in `center - range ..= center + range`
/// and return the best match with parabolic sub-pixel refinement.
/// Textureless pixels return disparity `center` with score 0.
pub fn best_disparity(
    left: &Grid<f32>,
    right: &Grid<f32>,
    x: usize,
    y: usize,
    center: isize,
    range: usize,
    n: usize,
) -> Match {
    let mut best_d = center;
    let mut best_s = f64::NEG_INFINITY;
    let mut scores: Vec<f64> = Vec::with_capacity(2 * range + 1);
    for d in center - range as isize..=center + range as isize {
        let s = ncc_score(left, right, x, y, d, n);
        // total_cmp: deterministic total order even against NaN (which
        // ncc_score never returns today, but the selection must not
        // silently depend on that).
        if s.total_cmp(&best_s).is_gt() {
            best_s = s;
            best_d = d;
        }
        scores.push(s);
    }
    if best_s <= 0.0 {
        // No correlation evidence anywhere in the search range.
        return Match {
            disparity: center as f32,
            score: 0.0,
        };
    }
    // Parabolic refinement using the neighbors of the best integer d,
    // when both neighbors are inside the searched range.
    let idx = (best_d - (center - range as isize)) as usize;
    let disparity = if idx > 0 && idx + 1 < scores.len() {
        let (s_minus, s0, s_plus) = (scores[idx - 1], scores[idx], scores[idx + 1]);
        let denom = s_minus - 2.0 * s0 + s_plus;
        if denom.abs() > 1e-12 {
            let offset = 0.5 * (s_minus - s_plus) / denom;
            best_d as f32 + (offset as f32).clamp(-0.5, 0.5)
        } else {
            best_d as f32
        }
    } else {
        best_d as f32
    };
    Match {
        disparity,
        score: best_s,
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
    fn perfect_match_scores_one() {
        let img = textured(32, 32);
        let s = ncc_score(&img, &img, 16, 16, 0, 3);
        assert!((s - 1.0).abs() < 1e-9);
    }

    #[test]
    fn gain_and_offset_invariance() {
        let img = textured(32, 32);
        let transformed = img.map(|&v| 2.5 * v + 10.0);
        let s = ncc_score(&img, &transformed, 16, 16, 0, 3);
        assert!(
            (s - 1.0).abs() < 1e-6,
            "NCC must ignore gain/offset, got {s}"
        );
    }

    #[test]
    fn inverted_pattern_scores_minus_one() {
        let img = textured(32, 32);
        let neg = img.map(|&v| -v);
        let s = ncc_score(&img, &neg, 16, 16, 0, 3);
        assert!((s + 1.0).abs() < 1e-6);
    }

    #[test]
    fn textureless_scores_zero() {
        let flat = Grid::filled(16, 16, 5.0f32);
        let img = textured(16, 16);
        assert_eq!(ncc_score(&flat, &img, 8, 8, 0, 2), 0.0);
        assert_eq!(ncc_score(&img, &flat, 8, 8, 0, 2), 0.0);
    }

    #[test]
    fn zero_variance_scores_neutral_at_every_disparity() {
        // One flat view (zero variance) against one textured view, both
        // ways round: every candidate disparity takes the neutral branch
        // and returns the shared constant, not a score that merely
        // happens to be zero.
        let flat = Grid::filled(32, 32, 2.0f32);
        let img = textured(32, 32);
        for d in -2isize..=2 {
            assert_eq!(ncc_score(&flat, &img, 16, 16, d, 3), NEUTRAL_SCORE, "d={d}");
            assert_eq!(ncc_score(&img, &flat, 16, 16, d, 3), NEUTRAL_SCORE, "d={d}");
        }
    }

    #[test]
    fn finds_integer_shift() {
        let left = textured(48, 48);
        // right(x) = left(x - 3): template at x matches right at x + 3,
        // i.e. true disparity +3 everywhere.
        let right = translate(&left, -3.0, 0.0, BorderPolicy::Clamp);
        for &(x, y) in &[(20usize, 20usize), (24, 16), (16, 30)] {
            let m = best_disparity(&left, &right, x, y, 0, 6, 3);
            assert!(
                (m.disparity - 3.0).abs() < 0.2,
                "at ({x},{y}): {}",
                m.disparity
            );
            assert!(m.score > 0.9);
        }
    }

    #[test]
    fn finds_subpixel_shift() {
        let left = Grid::from_fn(48, 48, |x, y| {
            (x as f32 * 0.5).sin() * 4.0 + (y as f32 * 0.3).cos() * 2.0
        });
        let right = translate(&left, -2.5, 0.0, BorderPolicy::Clamp);
        let m = best_disparity(&left, &right, 24, 24, 0, 6, 4);
        assert!(
            (m.disparity - 2.5).abs() < 0.3,
            "subpixel estimate {}",
            m.disparity
        );
    }

    #[test]
    fn search_centered_on_prior() {
        let left = textured(64, 64);
        let right = translate(&left, -10.0, 0.0, BorderPolicy::Clamp);
        // Range 3 around prior 9 still brackets the true disparity 10.
        let m = best_disparity(&left, &right, 32, 32, 9, 3, 3);
        assert!((m.disparity - 10.0).abs() < 0.3);
    }

    #[test]
    fn textureless_returns_prior() {
        let flat = Grid::filled(32, 32, 1.0f32);
        let m = best_disparity(&flat, &flat, 16, 16, 4, 3, 3);
        assert_eq!(m.disparity, 4.0);
        assert_eq!(m.score, 0.0);
    }

    #[test]
    fn negative_disparity_found() {
        let left = textured(48, 48);
        let right = translate(&left, 4.0, 0.0, BorderPolicy::Clamp);
        let m = best_disparity(&left, &right, 24, 24, 0, 6, 3);
        assert!((m.disparity + 4.0).abs() < 0.2, "got {}", m.disparity);
    }
}
