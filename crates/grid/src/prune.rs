//! Bound kernels for the pruned-search fast path.
//!
//! The pruned driver family (`sma_core::pruned`) rejects hypothesis
//! offsets *before* building their full moment planes by comparing an
//! **admissible lower bound** on each candidate's minimized error
//! against the running best. The bound machinery lives here, beside the
//! summed-area tables it is built from:
//!
//! * [`DecimatedMoments`] — a summed-area table over the **stride-2
//!   even lattice** of a channel plane. A window sum over the even
//!   sub-lattice of a template window is a *subset* of the full window
//!   sum, and a sum of squared residuals over a subset of samples can
//!   never exceed the sum over all of them — which is exactly why the
//!   decimated lattice (and not a blurred pyramid level, whose samples
//!   are *mixtures*) yields an admissible bound.
//! * [`inv3`] / [`quad_min`] — the closed-form minimum of a 3-variable
//!   least-squares quadratic `theta^T A theta - 2 theta^T b + c`,
//!   namely `c - b^T A^-1 b`, clamped at zero. The SMA normal equations
//!   decouple into two such 3 x 3 blocks, so one of these evaluations
//!   on decimated sums bounds a candidate's full 6-parameter minimum
//!   from below, and two on full sums ([`inv3_spd`], [`quad_form`])
//!   give that minimum in closed form.
//!
//! The runtime toggle (`SMA_PRUNE=off`, or [`set_enabled`]) disarms the
//! screen; the pruned driver then runs a plain raster sweep over every
//! hypothesis offset. The equivalence tests replay scenes under both
//! settings and assert that not one output bit moves.

use std::sync::atomic::{AtomicU8, Ordering};

/// Toggle state: 0 = uninitialized (consult `SMA_PRUNE`), 1 = off,
/// 2 = on.
static STATE: AtomicU8 = AtomicU8::new(0);

/// True when the candidate screen is enabled (the default).
///
/// First call consults the `SMA_PRUNE` environment variable: `off`/`0`
/// disables the screen, `on`/`1` (or unset) enables it
/// (case-insensitive, surrounding whitespace ignored). Anything else
/// warns once on stderr and keeps the default — a typo must not
/// silently change which search a run used.
#[inline]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        1 => false,
        2 => true,
        _ => {
            let on = match std::env::var("SMA_PRUNE") {
                Ok(v) => match v.trim().to_ascii_lowercase().as_str() {
                    "off" | "0" => false,
                    "on" | "1" | "" => true,
                    _ => {
                        sma_obs::env::warn_misparse(
                            "SMA_PRUNE",
                            &v,
                            "on|off (or 1|0)",
                            "candidate screen stays on",
                        );
                        true
                    }
                },
                Err(_) => true,
            };
            STATE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
            on
        }
    }
}

/// Set the toggle programmatically (the prune-on == prune-off identity
/// tests use this to replay scenes with the screen disarmed).
pub fn set_enabled(on: bool) {
    STATE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

/// A summed-area table over the stride-2 even lattice of a `K`-channel
/// plane: coarse cell `(cx, cy)` holds the channel values of fine pixel
/// `(2 cx, 2 cy)`, so any rectangle sum over the coarse table is the sum
/// over the even-coordinate subset of the corresponding fine rectangle
/// — at a quarter of the build cost of the full-resolution table.
///
/// The table is **zero-padded** — `(cw + 1) x (ch + 1)` cells with a
/// permanent zero row 0 and column 0 — so a window sum is four
/// branch-free lookups at indices that [`DecimatedMoments::even_rect`]
/// computes once per window, and [`DecimatedMoments::fill`] refills the
/// same buffer (the pruned driver keeps one table per row band and
/// refills it per hypothesis offset, down to the band's last window row
/// with [`DecimatedMoments::fill_rows`]). The pad supplies the literal
/// `0.0` a clipped [`crate::MomentIntegral::rect_sum`] substitutes, and
/// each cell accumulates in [`crate::MomentIntegral::from_fn`]'s order,
/// so every sum is bit-identical to the unpadded table's.
#[derive(Debug, Clone)]
pub struct DecimatedMoments<const K: usize> {
    cells: Vec<[f64; K]>,
    cw: usize,
    ch: usize,
    fine_w: usize,
    fine_h: usize,
}

/// The four padded-table corner indices of one even-lattice window,
/// hoisted out of per-offset loops: the window's position depends only
/// on the pixel and the template radius, never on what the table holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvenWindow {
    top_left: usize,
    top_right: usize,
    bottom_left: usize,
    bottom_right: usize,
}

impl<const K: usize> DecimatedMoments<K> {
    /// An all-zero table for a `w x h` fine plane, ready to
    /// [`fill`](Self::fill).
    pub fn new(w: usize, h: usize) -> Self {
        let cw = w.div_ceil(2).max(1);
        let ch = h.div_ceil(2).max(1);
        Self {
            cells: vec![[0.0f64; K]; (cw + 1) * (ch + 1)],
            cw,
            ch,
            fine_w: w,
            fine_h: h,
        }
    }

    /// Build from a per-fine-pixel channel function, sampled on the
    /// even lattice of a `w x h` plane in one pass.
    pub fn from_fn(w: usize, h: usize, f: impl FnMut(usize, usize) -> [f64; K]) -> Self {
        let mut d = Self::new(w, h);
        d.fill(f);
        d
    }

    /// Refill every cell from `f`, sampled at the even fine pixels
    /// `(2 cx, 2 cy)` in raster order; only the zero pad persists.
    pub fn fill(&mut self, f: impl FnMut(usize, usize) -> [f64; K]) {
        self.fill_rows(self.fine_h, f);
    }

    /// Refill only the cells that windows over the top `fine_rows` rows
    /// of the fine plane read: the coarse rows holding even fine rows
    /// below `fine_rows`. A cell depends only on the samples above and
    /// left of it, so those cells equal a full [`fill`](Self::fill)'s
    /// bit for bit; the rows below keep stale values that such windows
    /// never read.
    pub fn fill_rows(&mut self, fine_rows: usize, mut f: impl FnMut(usize, usize) -> [f64; K]) {
        let cw1 = self.cw + 1;
        for cy in 0..fine_rows.div_ceil(2).min(self.ch) {
            let (done, rest) = self.cells.split_at_mut((cy + 1) * cw1);
            let above = &done[cy * cw1 + 1..];
            let mut row_sum = [0.0f64; K];
            for (cx, (cell, up)) in rest[1..cw1].iter_mut().zip(above).enumerate() {
                let v = f(2 * cx, 2 * cy);
                for k in 0..K {
                    row_sum[k] += v[k];
                    cell[k] = row_sum[k] + up[k];
                }
            }
        }
    }

    /// Dimensions of the fine plane the lattice was sampled from.
    pub fn fine_dims(&self) -> (usize, usize) {
        (self.fine_w, self.fine_h)
    }

    /// Corner indices of the even-coordinate subset of the fine
    /// rectangle with inclusive corners `(x0, y0)` and `(x1, y1)`, clipped
    /// to the plane. `None` when the rectangle contains no even lattice
    /// point (an empty rectangle, or one a single odd column or row wide).
    pub fn even_rect(
        &self,
        (x0, y0): (usize, usize),
        (x1, y1): (usize, usize),
    ) -> Option<EvenWindow> {
        let x1 = x1.min(self.fine_w.saturating_sub(1));
        let y1 = y1.min(self.fine_h.saturating_sub(1));
        // Even x in [x0, x1]  <=>  coarse cx in [ceil(x0/2), floor(x1/2)];
        // padded column c + 1 holds coarse column c, column 0 is the pad.
        let cx0 = x0.div_ceil(2);
        let cy0 = y0.div_ceil(2);
        let cx1 = x1 / 2;
        let cy1 = y1 / 2;
        if cx0 > cx1 || cy0 > cy1 {
            return None;
        }
        let cw1 = self.cw + 1;
        Some(EvenWindow {
            top_left: cy0 * cw1 + cx0,
            top_right: cy0 * cw1 + cx1 + 1,
            bottom_left: (cy1 + 1) * cw1 + cx0,
            bottom_right: (cy1 + 1) * cw1 + cx1 + 1,
        })
    }

    /// Per-channel sum over a window from [`even_rect`](Self::even_rect)
    /// of a table with the same dimensions, with `rect_sum`'s
    /// `((a - b) - c) + d` corner grouping.
    #[inline]
    pub fn sum(&self, win: &EvenWindow) -> [f64; K] {
        let a = &self.cells[win.bottom_right];
        let b = &self.cells[win.bottom_left];
        let c = &self.cells[win.top_right];
        let d = &self.cells[win.top_left];
        let mut out = [0.0f64; K];
        for k in 0..K {
            out[k] = ((a[k] - b[k]) - c[k]) + d[k];
        }
        out
    }
}

/// Relative determinant tolerance below which a 3 x 3 system is treated
/// as singular (the pixel is then unscreenable and its bound degrades
/// to zero, which never rejects anything).
pub const DET_RTOL: f64 = 1e-12;

/// Invert a symmetric 3 x 3 matrix (row-major) by the adjugate, or
/// `None` when the determinant is non-finite or small relative to the
/// matrix scale. The caller treats `None` as "no usable bound".
pub fn inv3(m: &[f64; 9]) -> Option<[f64; 9]> {
    inv3_det(m).map(|(inv, _)| inv)
}

/// [`inv3`] of a symmetric matrix that is positive definite with a
/// margin, with its *Hadamard ratio* `m00 m11 m22 / det`: the reciprocal
/// determinant of the unit-diagonal scaling `D^-1/2 M D^-1/2`, which is
/// at least 1 and bounds that scaling's smallest eigenvalue from below
/// by `1 / (2.25 ratio)` (its eigenvalues sum to 3). `None` unless every
/// diagonal entry is positive, every off-diagonal entry is smaller in
/// magnitude than the geometric mean of its two diagonal entries (the
/// scaling's off-diagonal entries lie in `(-1, 1)`), and [`inv3`]
/// succeeds with a positive determinant.
pub fn inv3_spd(m: &[f64; 9]) -> Option<([f64; 9], f64)> {
    let (d0, d1, d2) = (m[0], m[4], m[8]);
    let diagonal = d0 > 0.0 && d1 > 0.0 && d2 > 0.0;
    let bounded = m[1] * m[1] < d0 * d1 && m[2] * m[2] < d0 * d2 && m[5] * m[5] < d1 * d2;
    if !(diagonal && bounded) {
        return None;
    }
    let (inv, det) = inv3_det(m)?;
    (det > 0.0).then(|| (inv, d0 * d1 * d2 / det))
}

/// [`inv3`] and the determinant it divided by.
fn inv3_det(m: &[f64; 9]) -> Option<([f64; 9], f64)> {
    let c00 = m[4] * m[8] - m[5] * m[7];
    let c01 = m[5] * m[6] - m[3] * m[8];
    let c02 = m[3] * m[7] - m[4] * m[6];
    let det = m[0] * c00 + m[1] * c01 + m[2] * c02;
    // Scale from the row 1-norms: det of a well-conditioned matrix is
    // comparable to their product; a det far below it is numerically
    // singular no matter the absolute magnitudes.
    let scale = (m[0].abs() + m[1].abs() + m[2].abs())
        * (m[3].abs() + m[4].abs() + m[5].abs())
        * (m[6].abs() + m[7].abs() + m[8].abs());
    if !det.is_finite() || !scale.is_finite() || det.abs() <= DET_RTOL * scale {
        return None;
    }
    let inv = [
        c00 / det,
        (m[2] * m[7] - m[1] * m[8]) / det,
        (m[1] * m[5] - m[2] * m[4]) / det,
        c01 / det,
        (m[0] * m[8] - m[2] * m[6]) / det,
        (m[2] * m[3] - m[0] * m[5]) / det,
        c02 / det,
        (m[1] * m[6] - m[0] * m[7]) / det,
        (m[0] * m[4] - m[1] * m[3]) / det,
    ];
    inv.iter().all(|v| v.is_finite()).then_some((inv, det))
}

/// The minimum of the least-squares quadratic
/// `theta^T A theta - 2 theta^T b + c` over `theta`, given `A^-1`:
/// `c - b^T A^-1 b`, clamped at zero (the quadratic is a sum of squared
/// residuals, so its true minimum is non-negative). Non-finite
/// intermediates collapse to `0.0` — a vacuous bound that rejects
/// nothing, never an unsound one.
#[inline]
pub fn quad_min(c: f64, b: &[f64; 3], inv: &[f64; 9]) -> f64 {
    let m = c - quad_form(b, inv);
    if m.is_finite() {
        m.max(0.0)
    } else {
        0.0
    }
}

/// The quadratic form `b^T A^-1 b`, given `A^-1`: the amount the
/// minimum of `theta^T A theta - 2 theta^T b + c` lies below `c`.
#[inline]
pub fn quad_form(b: &[f64; 3], inv: &[f64; 9]) -> f64 {
    let ib0 = inv[0] * b[0] + inv[1] * b[1] + inv[2] * b[2];
    let ib1 = inv[3] * b[0] + inv[4] * b[1] + inv[5] * b[2];
    let ib2 = inv[6] * b[0] + inv[7] * b[1] + inv[8] * b[2];
    b[0] * ib0 + b[1] * ib1 + b[2] * ib2
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::integral::MomentIntegral;

    /// The even window of the `(2 n + 1)^2` template centered at
    /// `(cx, cy)`, clipped to the plane.
    fn centered<const K: usize>(
        d: &DecimatedMoments<K>,
        cx: usize,
        cy: usize,
        n: usize,
    ) -> Option<EvenWindow> {
        d.even_rect(
            (cx.saturating_sub(n), cy.saturating_sub(n)),
            (cx + n, cy + n),
        )
    }

    fn centered_sum<const K: usize>(
        d: &DecimatedMoments<K>,
        cx: usize,
        cy: usize,
        n: usize,
    ) -> Option<[f64; K]> {
        centered(d, cx, cy, n).map(|win| d.sum(&win))
    }

    fn chan(x: usize, y: usize) -> [f64; 2] {
        let v = ((x * 13 + y * 7) % 11) as f64;
        [v * 0.5 - 2.0, (x as f64 - y as f64) * 0.25]
    }

    #[test]
    fn decimated_sums_match_even_lattice_brute_force() {
        for (w, h) in [(9usize, 7usize), (16, 16), (33, 5), (1, 1)] {
            let d = DecimatedMoments::<2>::from_fn(w, h, chan);
            for &(cx, cy, n) in &[(4usize, 3usize, 2usize), (0, 0, 3), (8, 6, 1), (2, 2, 0)] {
                if cx >= w || cy >= h {
                    continue;
                }
                let mut want = [0.0f64; 2];
                let mut count = 0usize;
                for y in cy.saturating_sub(n)..=(cy + n).min(h - 1) {
                    for x in cx.saturating_sub(n)..=(cx + n).min(w - 1) {
                        if x % 2 == 0 && y % 2 == 0 {
                            let v = chan(x, y);
                            want[0] += v[0];
                            want[1] += v[1];
                            count += 1;
                        }
                    }
                }
                match centered_sum(&d, cx, cy, n) {
                    Some(got) => {
                        assert!(count > 0);
                        for k in 0..2 {
                            assert!(
                                (got[k] - want[k]).abs() < 1e-9,
                                "({cx},{cy}) n={n} ch {k}: {got:?} vs {want:?}"
                            );
                        }
                    }
                    None => assert_eq!(count, 0, "({cx},{cy}) n={n}"),
                }
            }
        }
    }

    #[test]
    fn padded_sums_are_bit_identical_to_the_unpadded_integral() {
        // The zero pad must reproduce `MomentIntegral::rect_sum` over the
        // coarse lattice to the bit, clipped windows included.
        for (w, h) in [(9usize, 7usize), (16, 16), (17, 11), (33, 5), (1, 1)] {
            let d = DecimatedMoments::<2>::from_fn(w, h, chan);
            let r = MomentIntegral::<2>::from_fn(w.div_ceil(2), h.div_ceil(2), |cx, cy| {
                chan(2 * cx, 2 * cy)
            });
            for n in 0..4usize {
                for cy in 0..h {
                    for cx in 0..w {
                        let x0 = cx.saturating_sub(n).div_ceil(2);
                        let y0 = cy.saturating_sub(n).div_ceil(2);
                        let x1 = (cx + n).min(w - 1) / 2;
                        let y1 = (cy + n).min(h - 1) / 2;
                        let got = centered_sum(&d, cx, cy, n);
                        if x0 > x1 || y0 > y1 {
                            assert!(got.is_none(), "({cx},{cy}) n={n} of {w}x{h}");
                            continue;
                        }
                        let want = r.rect_sum(x0, y0, x1, y1);
                        let got = got.expect("window has even samples");
                        for k in 0..2 {
                            assert_eq!(
                                got[k].to_bits(),
                                want[k].to_bits(),
                                "({cx},{cy}) n={n} ch {k} of {w}x{h}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn refill_replaces_every_cell() {
        // A refilled table must equal a fresh build: nothing but the pad
        // survives from the previous contents.
        let mut d = DecimatedMoments::<2>::from_fn(11, 9, |x, y| [x as f64, -(y as f64)]);
        d.fill(chan);
        let fresh = DecimatedMoments::<2>::from_fn(11, 9, chan);
        for (cx, cy, n) in [(0usize, 0usize, 2usize), (5, 4, 3), (10, 8, 1), (6, 2, 0)] {
            let win = centered(&d, cx, cy, n).expect("even samples");
            assert_eq!(win, centered(&fresh, cx, cy, n).expect("even samples"));
            assert_eq!(d.sum(&win), fresh.sum(&win), "({cx},{cy}) n={n}");
        }
    }

    #[test]
    fn row_limited_fill_matches_a_full_fill_above_its_extent() {
        // Windows whose fine rows end above `fine_rows` must read the
        // same bits from a partial refill (over stale contents) as from a
        // full build.
        let (w, h) = (13usize, 15usize);
        let fresh = DecimatedMoments::<2>::from_fn(w, h, chan);
        for fine_rows in [1usize, 2, 5, 8, 15] {
            let mut d = DecimatedMoments::<2>::from_fn(w, h, |x, y| [y as f64, x as f64 * 3.0]);
            d.fill_rows(fine_rows, chan);
            for n in 0..4usize {
                for cy in 0..h {
                    if (cy + n).min(h - 1) >= fine_rows {
                        continue;
                    }
                    for cx in 0..w {
                        if let Some(win) = centered(&d, cx, cy, n) {
                            assert_eq!(
                                d.sum(&win).map(f64::to_bits),
                                fresh.sum(&win).map(f64::to_bits),
                                "rows {fine_rows} ({cx},{cy}) n={n}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn even_rect_sums_match_even_lattice_brute_force() {
        // Rectangles of every parity, clipped ones and empty ones: the
        // sum is the even-coordinate subset of the clipped rectangle, and
        // `None` exactly when that subset is empty.
        let (w, h) = (13usize, 11usize);
        let d = DecimatedMoments::<2>::from_fn(w, h, chan);
        for x0 in 0..w + 2 {
            for x1 in [x0.saturating_sub(1), x0, x0 + 1, x0 + 4, w + 3] {
                for (y0, y1) in [(0usize, 0usize), (1, 1), (3, 8), (2, 3), (6, 40), (5, 4)] {
                    let mut want = [0.0f64; 2];
                    let mut count = 0usize;
                    for y in (y0..=y1.min(h - 1)).filter(|y| y % 2 == 0) {
                        for x in (x0..=x1.min(w - 1)).filter(|x| x % 2 == 0) {
                            let v = chan(x, y);
                            want[0] += v[0];
                            want[1] += v[1];
                            count += 1;
                        }
                    }
                    let tag = format!("[{x0}, {x1}] x [{y0}, {y1}]");
                    match d.even_rect((x0, y0), (x1, y1)) {
                        Some(win) => {
                            assert!(count > 0, "{tag}");
                            let got = d.sum(&win);
                            for k in 0..2 {
                                assert!((got[k] - want[k]).abs() < 1e-9, "{tag} ch {k}");
                            }
                        }
                        None => assert_eq!(count, 0, "{tag}"),
                    }
                }
            }
        }
    }

    #[test]
    fn inv3_spd_reports_the_hadamard_ratio_and_rejects_indefinite() {
        // Identity: ratio 1. A diagonal scaling leaves the ratio at 1.
        let (inv, r) = inv3_spd(&[1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]).expect("spd");
        assert_eq!((inv[0], inv[4], inv[8], r), (1.0, 1.0, 1.0, 1.0));
        let (_, r) = inv3_spd(&[4.0, 0.0, 0.0, 0.0, 1e-6, 0.0, 0.0, 0.0, 9e8]).expect("spd");
        assert!((r - 1.0).abs() < 1e-12, "{r}");
        // Near-collinear columns: positive definite, ratio ~ 1 / (1 - rho^2).
        for eps in [1e-2, 1e-4, 1e-6] {
            let rho = 1.0 - eps;
            let m = [1.0, rho, 0.0, rho, 1.0, 0.0, 0.0, 0.0, 1.0];
            let (inv, r) = inv3_spd(&m).expect("spd");
            let want = 1.0 / (1.0 - rho * rho);
            assert!((r / want - 1.0).abs() < 1e-6, "eps {eps}: {r} vs {want}");
            assert_eq!(inv3(&m), Some(inv));
        }
        // Indefinite with a positive diagonal and positive determinant
        // (eigenvalues 5, -1, -1), a zero diagonal entry, a negative one,
        // and a singular matrix: all rejected.
        for m in [
            [1.0, 2.0, 2.0, 2.0, 1.0, 2.0, 2.0, 2.0, 1.0],
            [0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
            [1.0, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0, 0.0, 1.0],
            [1.0, 1.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0, 1.0],
        ] {
            assert!(inv3_spd(&m).is_none(), "{m:?}");
        }
    }

    #[test]
    fn quad_min_is_c_minus_the_quad_form() {
        let a = [4.0, 1.0, -0.5, 1.0, 3.0, 0.25, -0.5, 0.25, 2.0];
        let inv = inv3(&a).expect("invertible");
        let b = [1.0, -2.0, 0.5];
        assert_eq!(quad_min(7.0, &b, &inv), 7.0 - quad_form(&b, &inv));
        assert!(quad_form(&b, &inv) > 0.0);
    }

    #[test]
    fn odd_pixel_zero_window_has_no_even_samples() {
        let d = DecimatedMoments::<1>::from_fn(8, 8, |x, y| [(x + y) as f64]);
        assert!(centered_sum(&d, 3, 3, 0).is_none());
        assert!(centered_sum(&d, 4, 4, 0).is_some());
    }

    #[test]
    fn inv3_inverts_well_conditioned_matrices() {
        let m = [4.0, 1.0, -0.5, 1.0, 3.0, 0.25, -0.5, 0.25, 2.0];
        let inv = inv3(&m).expect("invertible");
        for i in 0..3 {
            for j in 0..3 {
                let mut s = 0.0;
                for k in 0..3 {
                    s += m[i * 3 + k] * inv[k * 3 + j];
                }
                let want = if i == j { 1.0 } else { 0.0 };
                assert!((s - want).abs() < 1e-12, "({i},{j}): {s}");
            }
        }
    }

    #[test]
    fn inv3_rejects_singular_and_non_finite() {
        // Rank-2: third row is the sum of the first two.
        let m = [1.0, 2.0, 3.0, 2.0, 5.0, 1.0, 3.0, 7.0, 4.0];
        assert!(inv3(&m).is_none());
        let mut nf = m;
        nf[0] = f64::NAN;
        assert!(inv3(&nf).is_none());
        // Scale invariance: a tiny well-conditioned matrix still inverts.
        let tiny = [4e-30, 1e-30, 0.0, 1e-30, 3e-30, 0.0, 0.0, 0.0, 2e-30];
        assert!(inv3(&tiny).is_some());
    }

    #[test]
    fn quad_min_is_the_quadratic_minimum() {
        let a = [4.0, 1.0, -0.5, 1.0, 3.0, 0.25, -0.5, 0.25, 2.0];
        let b = [1.0, -2.0, 0.5];
        let c = 7.0;
        let inv = inv3(&a).expect("invertible");
        let m = quad_min(c, &b, &inv);
        // Sample the quadratic around the analytic argmin: no sampled
        // value may fall below the closed-form minimum.
        let argmin = [
            inv[0] * b[0] + inv[1] * b[1] + inv[2] * b[2],
            inv[3] * b[0] + inv[4] * b[1] + inv[5] * b[2],
            inv[6] * b[0] + inv[7] * b[1] + inv[8] * b[2],
        ];
        let eval = |t: &[f64; 3]| {
            let mut q = c;
            for i in 0..3 {
                let mut row = 0.0;
                for j in 0..3 {
                    row += a[i * 3 + j] * t[j];
                }
                q += t[i] * row - 2.0 * t[i] * b[i];
            }
            q
        };
        assert!((eval(&argmin) - m).abs() < 1e-9);
        for dx in [-0.3, 0.0, 0.4] {
            for dy in [-0.2, 0.1] {
                let t = [argmin[0] + dx, argmin[1] + dy, argmin[2] - dx * dy];
                assert!(eval(&t) + 1e-12 >= m);
            }
        }
    }

    #[test]
    fn quad_min_clamps_at_zero_and_absorbs_non_finite() {
        let inv = inv3(&[1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]).expect("identity");
        // c smaller than b^T b: exact-arithmetic negative, clamped.
        assert_eq!(quad_min(1.0, &[2.0, 0.0, 0.0], &inv), 0.0);
        assert_eq!(quad_min(f64::NAN, &[0.0; 3], &inv), 0.0);
        assert_eq!(quad_min(1.0, &[f64::INFINITY, 0.0, 0.0], &inv), 0.0);
    }

    #[test]
    fn toggle_round_trips() {
        let prev = enabled();
        set_enabled(false);
        assert!(!enabled());
        set_enabled(true);
        assert!(enabled());
        set_enabled(prev);
    }
}
