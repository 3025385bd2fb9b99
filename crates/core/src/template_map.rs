//! Step 1 — template mappings `Fcont` and `Fsemi`.
//!
//! For a tracked pixel with hypothesis displacement `(x0, y0)`:
//!
//! * the **continuous** mapping (eq. 2) sends template pixel `p` to
//!   `p + (x0, y0)` — the whole template translates coherently;
//! * the **semi-fluid** mapping (eq. 9) lets each template pixel refine
//!   independently: `Fsemi(p) = argmin over s in eta_ss` of the
//!   discriminant-matching error between the intensity surface patch at
//!   `p` (before) and at `p + (x0, y0) + s` (after), where the error
//!   (eqs. 10–11) compares the discriminant `D = z_xx z_yy - z_xy^2` of
//!   locally fitted quadratic patches over the `(2 NsT + 1)^2` semi-fluid
//!   template. "When Nss = 0 then Fsemi reduces to the mapping Fcont."

use sma_grid::Grid;

/// Discriminant-matching score between the semi-fluid template around
/// `p = (px, py)` in the *before* discriminant plane and around
/// `q = (qx, qy)` in the *after* plane: the paper's eq. (10) error,
/// implemented as the sum over the `(2 nst + 1)^2` window of squared
/// discriminant changes `(D' - D)^2` (the measure of "changes of a small
/// intensity surface patch"). Border pixels clamp.
pub fn discriminant_match_score(
    disc_before: &Grid<f32>,
    disc_after: &Grid<f32>,
    px: isize,
    py: isize,
    qx: isize,
    qy: isize,
    nst: usize,
) -> f64 {
    let n = nst as isize;
    if let Some(score) = interior_match_score(disc_before, disc_after, px, py, qx, qy, n) {
        return score;
    }
    let mut score = 0.0f64;
    for dv in -n..=n {
        for du in -n..=n {
            let d0 = clamped(disc_before, px + du, py + dv) as f64;
            let d1 = clamped(disc_after, qx + du, qy + dv) as f64;
            let diff = d1 - d0;
            score += diff * diff;
        }
    }
    score
}

/// Lane-chunked fast path for [`discriminant_match_score`]: when both
/// windows sit fully inside their planes the border clamp is a no-op, so
/// each window row is a contiguous slice. Squared differences are
/// evaluated in 8-wide lane blocks; the `score +=` adds stay in `du`
/// order, so the result is bit-identical to the clamped scalar sweep.
/// Returns `None` when either window touches a border (the caller falls
/// back to the clamped path).
fn interior_match_score(
    disc_before: &Grid<f32>,
    disc_after: &Grid<f32>,
    px: isize,
    py: isize,
    qx: isize,
    qy: isize,
    n: isize,
) -> Option<f64> {
    let inside = |g: &Grid<f32>, x: isize, y: isize| {
        x - n >= 0 && x + n < g.width() as isize && y - n >= 0 && y + n < g.height() as isize
    };
    if !inside(disc_before, px, py) || !inside(disc_after, qx, qy) {
        return None;
    }
    const L: usize = sma_grid::simd::LANES;
    let side = (2 * n + 1) as usize;
    sma_grid::simd::note_rows(side, side);
    let mut score = 0.0f64;
    for dv in -n..=n {
        let r0 = &disc_before.row((py + dv) as usize)[(px - n) as usize..][..side];
        let r1 = &disc_after.row((qy + dv) as usize)[(qx - n) as usize..][..side];
        let mut i = 0usize;
        while i + L <= side {
            let mut t = [0.0f64; L];
            for l in 0..L {
                let diff = r1[i + l] as f64 - r0[i + l] as f64;
                t[l] = diff * diff;
            }
            for v in t {
                score += v;
            }
            i += L;
        }
        while i < side {
            let diff = r1[i] as f64 - r0[i] as f64;
            score += diff * diff;
            i += 1;
        }
    }
    Some(score)
}

#[inline]
fn clamped(g: &Grid<f32>, x: isize, y: isize) -> f32 {
    let cx = x.clamp(0, g.width() as isize - 1) as usize;
    let cy = y.clamp(0, g.height() as isize - 1) as usize;
    g.at(cx, cy)
}

/// The semi-fluid correspondence of one template pixel: search the
/// `(2 nss + 1)^2` neighborhood of the translated position
/// `(px + x0, py + y0)` for the best discriminant match, returning the
/// winning *after* position and its score. `nss = 0` returns the
/// translated position itself (the `Fcont` reduction).
#[allow(clippy::too_many_arguments)] // mirrors the paper's parameter list
pub fn semifluid_correspondence(
    disc_before: &Grid<f32>,
    disc_after: &Grid<f32>,
    px: isize,
    py: isize,
    x0: isize,
    y0: isize,
    nss: usize,
    nst: usize,
) -> ((isize, isize), f64) {
    let base = (px + x0, py + y0);
    if nss == 0 {
        let s = discriminant_match_score(disc_before, disc_after, px, py, base.0, base.1, nst);
        return (base, s);
    }
    let n = nss as isize;
    let mut best_pos = base;
    let mut best_score = f64::INFINITY;
    for sy in -n..=n {
        for sx in -n..=n {
            let q = (base.0 + sx, base.1 + sy);
            let s = discriminant_match_score(disc_before, disc_after, px, py, q.0, q.1, nst);
            // Strict less-than: ties break toward the earlier (row-major)
            // candidate, keeping the search deterministic.
            if s < best_score {
                best_score = s;
                best_pos = q;
            }
        }
    }
    (best_pos, best_score)
}

/// Precomputed discriminant-match scores for one pixel over the extended
/// displacement window — the §4.1 optimization: "computing the error term
/// in (10) for all pixels in a `(2Nzs + 2Nss + 1) x (2Nzs + 2Nss + 1)`
/// neighborhood centered around the pixel being tracked, and then
/// applying a `(2Nss + 1) x (2Nss + 1)` window centered on each pixel
/// within the `(2Nzs + 1) x (2Nzs + 1)` neighborhood and performing the
/// minimization".
#[derive(Debug, Clone)]
pub struct ScorePlane {
    /// Extended half-width `nzs + nss`.
    pub reach: usize,
    /// Row-major `(2 reach + 1)^2` scores, indexed by displacement.
    pub scores: Vec<f64>,
}

impl ScorePlane {
    /// Compute all scores `S(p, delta)` for displacements
    /// `delta in [-(nzs + nss), nzs + nss]^2` of template pixel `p`.
    pub fn compute(
        disc_before: &Grid<f32>,
        disc_after: &Grid<f32>,
        px: isize,
        py: isize,
        nzs: usize,
        nss: usize,
        nst: usize,
    ) -> Self {
        let reach = nzs + nss;
        let r = reach as isize;
        let side = 2 * reach + 1;
        let mut scores = Vec::with_capacity(side * side);
        for dy in -r..=r {
            for dx in -r..=r {
                scores.push(discriminant_match_score(
                    disc_before,
                    disc_after,
                    px,
                    py,
                    px + dx,
                    py + dy,
                    nst,
                ));
            }
        }
        Self { reach, scores }
    }

    /// Score at displacement `(dx, dy)`.
    ///
    /// # Panics
    /// Panics if the displacement exceeds the reach.
    pub fn at(&self, dx: isize, dy: isize) -> f64 {
        let r = self.reach as isize;
        assert!(
            dx.abs() <= r && dy.abs() <= r,
            "displacement outside score plane"
        );
        let side = 2 * self.reach + 1;
        self.scores[((dy + r) as usize) * side + (dx + r) as usize]
    }

    /// The sliding-window minimization: for hypothesis displacement
    /// `(x0, y0)` with `|x0|, |y0| <= nzs`, find the best semi-fluid
    /// refinement within `(2 nss + 1)^2` — identical to
    /// [`semifluid_correspondence`] but reading precomputed scores.
    /// Returns the winning displacement (absolute, relative to `p`) and
    /// score.
    pub fn minimize(&self, x0: isize, y0: isize, nss: usize) -> ((isize, isize), f64) {
        let n = nss as isize;
        let mut best = ((x0, y0), f64::INFINITY);
        for sy in -n..=n {
            for sx in -n..=n {
                let s = self.at(x0 + sx, y0 + sy);
                if s < best.1 {
                    best = ((x0 + sx, y0 + sy), s);
                }
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A discriminant plane with a single distinctive bump.
    fn bump_plane(w: usize, h: usize, cx: usize, cy: usize) -> Grid<f32> {
        Grid::from_fn(w, h, |x, y| {
            let dx = x as f32 - cx as f32;
            let dy = y as f32 - cy as f32;
            (-(dx * dx + dy * dy) / 4.0).exp()
        })
    }

    #[test]
    fn perfect_alignment_scores_zero() {
        let d = bump_plane(16, 16, 8, 8);
        let s = discriminant_match_score(&d, &d, 8, 8, 8, 8, 2);
        assert_eq!(s, 0.0);
        let off = discriminant_match_score(&d, &d, 8, 8, 10, 8, 2);
        assert!(off > 0.0);
    }

    #[test]
    fn semifluid_search_finds_true_shift() {
        // The bump moves by (+1, +1); translation hypothesis (0, 0) plus
        // a 3x3 semi-fluid search must land on (+1, +1).
        let before = bump_plane(16, 16, 8, 8);
        let after = bump_plane(16, 16, 9, 9);
        let ((qx, qy), score) = semifluid_correspondence(&before, &after, 8, 8, 0, 0, 1, 2);
        assert_eq!((qx, qy), (9, 9));
        assert!(score < 1e-9);
    }

    #[test]
    fn nss_zero_reduces_to_continuous() {
        // "When Nss = 0 then Fsemi reduces to the mapping Fcont."
        let before = bump_plane(16, 16, 8, 8);
        let after = bump_plane(16, 16, 9, 9);
        let ((qx, qy), _) = semifluid_correspondence(&before, &after, 8, 8, 2, 0, 0, 2);
        assert_eq!(
            (qx, qy),
            (10, 8),
            "Nss = 0 must return the translated position"
        );
    }

    #[test]
    fn ties_break_deterministically() {
        let flat = Grid::filled(16, 16, 0.0f32);
        // All scores equal (zero): the first candidate in row-major order
        // of the 3x3 search — offset (-1, -1) — wins.
        let ((qx, qy), s) = semifluid_correspondence(&flat, &flat, 8, 8, 0, 0, 1, 2);
        assert_eq!(s, 0.0);
        assert_eq!((qx, qy), (7, 7));
    }

    #[test]
    fn score_plane_matches_direct_computation() {
        let before = bump_plane(20, 20, 10, 10);
        let after = bump_plane(20, 20, 11, 9);
        let plane = ScorePlane::compute(&before, &after, 10, 10, 2, 1, 2);
        for dy in -3isize..=3 {
            for dx in -3isize..=3 {
                let direct = discriminant_match_score(&before, &after, 10, 10, 10 + dx, 10 + dy, 2);
                assert!((plane.at(dx, dy) - direct).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn sliding_minimization_equals_direct_search() {
        let before = bump_plane(20, 20, 10, 10);
        let after = bump_plane(20, 20, 11, 9);
        let plane = ScorePlane::compute(&before, &after, 10, 10, 2, 1, 2);
        for y0 in -2isize..=2 {
            for x0 in -2isize..=2 {
                let (pos_a, score_a) = plane.minimize(x0, y0, 1);
                let (pos_b, score_b) =
                    semifluid_correspondence(&before, &after, 10, 10, x0, y0, 1, 2);
                // Direct search returns absolute positions; the plane
                // returns displacements relative to p = (10, 10).
                assert_eq!((10 + pos_a.0, 10 + pos_a.1), pos_b, "at ({x0},{y0})");
                assert!((score_a - score_b).abs() < 1e-12);
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside score plane")]
    fn score_plane_bounds_checked() {
        let d = bump_plane(16, 16, 8, 8);
        let plane = ScorePlane::compute(&d, &d, 8, 8, 1, 1, 2);
        let _ = plane.at(5, 0);
    }

    /// Both paths of the score — the interior lane kernel and the
    /// clamped sweep at borders — must be bit-identical to a clamped
    /// brute-force sum, for windows narrower and wider than a lane block.
    #[test]
    fn simd_match_score_is_bit_identical_to_scalar() {
        let before = Grid::from_fn(21, 17, |x, y| {
            ((x as f32 * 0.7).sin() + (y as f32 * 0.9).cos()) * (1.0 + x as f32 * 0.03)
        });
        let after = Grid::from_fn(21, 17, |x, y| {
            ((x as f32 * 0.7 + 0.4).sin() - (y as f32 * 0.9).sin()) * (1.0 - y as f32 * 0.02)
        });
        let at = |g: &Grid<f32>, x: isize, y: isize| {
            let cx = x.clamp(0, g.width() as isize - 1) as usize;
            let cy = y.clamp(0, g.height() as isize - 1) as usize;
            g.at(cx, cy) as f64
        };
        // nst spanning lane widths: side = 3, 7, 9, 11.
        for nst in [1usize, 3, 4, 5] {
            let n = nst as isize;
            for (px, py, qx, qy) in [
                (10, 8, 10, 8),   // interior / interior
                (10, 8, 12, 7),   // interior, shifted interior
                (0, 0, 10, 8),    // before window clamps
                (10, 8, 20, 16),  // after window clamps
                (-3, -2, 25, 30), // both fully outside
            ] {
                let mut brute = 0.0f64;
                for dv in -n..=n {
                    for du in -n..=n {
                        let diff = at(&after, qx + du, qy + dv) - at(&before, px + du, py + dv);
                        brute += diff * diff;
                    }
                }
                let score = discriminant_match_score(&before, &after, px, py, qx, qy, nst);
                assert_eq!(
                    brute.to_bits(),
                    score.to_bits(),
                    "nst {nst} p ({px},{py}) q ({qx},{qy})"
                );
            }
        }
    }
}
