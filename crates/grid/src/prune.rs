//! Bound kernels for the pruned-search fast path.
//!
//! The pruned driver (`sma_core::pruned`) rejects hypothesis offsets
//! *before* building their full moment planes by comparing an
//! **admissible lower bound** on each candidate's minimized error
//! against the running best. The bound machinery lives here, beside the
//! summed-area tables it is built from:
//!
//! * [`BinnedMoments`] — a summed-area table over **2 x 2 pixel bins**
//!   of a channel plane. A window over whole bins sums every pixel of a
//!   bin-aligned rectangle, so it is the full-resolution sum over a
//!   *subset* of a larger template window. A sum of squared residuals
//!   over a subset of samples can never exceed the sum over all of them,
//!   which is why summed samples (and not a blurred pyramid level, whose
//!   samples are *mixtures*) yield an admissible bound.
//! * [`inv3_spd`] / [`quad_form`] — the inverse of a positive definite
//!   3 x 3 block with its conditioning, and the quadratic form
//!   `b^T A^-1 b`: the minimum of `theta^T A theta - 2 theta^T b + c` is
//!   `c - b^T A^-1 b`. The SMA normal equations decouple into two such
//!   3 x 3 blocks, so two of these give a window's minimized error in
//!   closed form.
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

/// A summed-area table over **2 x 2 pixel bins** of a `K`-channel
/// plane: bin `(bx, by)` holds the sum of the channel values of pixels
/// `(2 bx .. 2 bx + 1, 2 by .. 2 by + 1)`, formed as
/// `(v(2bx, 2by) + v(2bx+1, 2by)) + (v(2bx, 2by+1) + v(2bx+1, 2by+1))`,
/// so a window sum over whole bins is the sum over every pixel of the
/// corresponding bin-aligned pixel rectangle — full resolution, at a
/// quarter of the prefix-sum cost of a per-pixel table. The channels are
/// summed samples, not a blurred signal: a bin-aligned window holds
/// exactly the samples a per-pixel table would sum over it.
///
/// The table covers the `w / 2 x h / 2` whole bins (an odd last pixel
/// column or row is never binned) and is **zero-padded** — a permanent
/// zero row 0 and column 0 — so a window sum is four branch-free lookups
/// at the indices a [`BinWindow`] computes once per window.
/// [`BinnedMoments::fill_rows`] refills the same buffer down to a bin
/// row (the pruned driver refills one table per hypothesis offset, down
/// to the last row its windows read).
#[derive(Debug, Clone)]
pub struct BinnedMoments<const K: usize> {
    cells: Vec<Bin<K>>,
    bw: usize,
    bh: usize,
    /// The two pixel rows of the bin row being filled, `2 bw` wide.
    rows: [Vec<[f64; K]>; 2],
}

/// One padded table cell, aligned to a 64-byte cache line so an
/// eight-channel corner lookup touches exactly one line.
#[derive(Debug, Clone, Copy)]
#[repr(C, align(64))]
struct Bin<const K: usize>([f64; K]);

/// The four padded-table corner indices of one bin-aligned window,
/// hoisted out of per-offset loops: the window's position depends only
/// on its bins and the table's size, never on what the table holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BinWindow {
    top_left: usize,
    top_right: usize,
    bottom_left: usize,
    bottom_right: usize,
}

impl BinWindow {
    /// The window over bins `bx0 ..= bx1` by `by0 ..= by1` — pixels
    /// `2 bx0 ..= 2 bx1 + 1` by `2 by0 ..= 2 by1 + 1` — of the table
    /// [`BinnedMoments::new`] makes for a `w x h` plane. `None` for an
    /// empty window or one that reaches past the table's whole bins.
    pub fn new(
        (w, h): (usize, usize),
        (bx0, by0): (usize, usize),
        (bx1, by1): (usize, usize),
    ) -> Option<Self> {
        let (bw, bh) = (w / 2, h / 2);
        if bx0 > bx1 || by0 > by1 || bx1 >= bw || by1 >= bh {
            return None;
        }
        // Padded column c + 1 holds bin column c; column 0 is the pad.
        let bw1 = bw + 1;
        Some(Self {
            top_left: by0 * bw1 + bx0,
            top_right: by0 * bw1 + bx1 + 1,
            bottom_left: (by1 + 1) * bw1 + bx0,
            bottom_right: (by1 + 1) * bw1 + bx1 + 1,
        })
    }
}

impl<const K: usize> BinnedMoments<K> {
    /// An all-zero table for a `w x h` pixel plane, ready to
    /// [`fill_rows`](Self::fill_rows).
    pub fn new(w: usize, h: usize) -> Self {
        let (bw, bh) = (w / 2, h / 2);
        Self {
            cells: vec![Bin([0.0f64; K]); (bw + 1) * (bh + 1)],
            bw,
            bh,
            rows: [vec![[0.0f64; K]; 2 * bw], vec![[0.0f64; K]; 2 * bw]],
        }
    }

    /// The `(bw, bh)` whole bins the table covers.
    pub fn bins(&self) -> (usize, usize) {
        (self.bw, self.bh)
    }

    /// Refill the top `bin_rows` bin rows (all of them from `h / 2` up).
    /// `row(y, out)` writes the channel values of pixels `0 .. out.len()`
    /// of pixel row `y` (`out` is `2 (w / 2)` long); it is called for
    /// pixel rows `2 by` and `2 by + 1` of every bin row `by` in turn. A
    /// cell depends only on the bins above and left of it, so those rows
    /// equal a full fill's bit for bit; the rows below keep stale values
    /// that windows above them never read.
    pub fn fill_rows(&mut self, bin_rows: usize, mut row: impl FnMut(usize, &mut [[f64; K]])) {
        let bw1 = self.bw + 1;
        let [r0, r1] = &mut self.rows;
        for by in 0..bin_rows.min(self.bh) {
            row(2 * by, r0.as_mut_slice());
            row(2 * by + 1, r1.as_mut_slice());
            let (done, rest) = self.cells.split_at_mut((by + 1) * bw1);
            let above = &done[by * bw1 + 1..];
            let mut row_sum = [0.0f64; K];
            for (((cell, up), top), bottom) in rest[1..bw1]
                .iter_mut()
                .zip(above)
                .zip(r0.chunks_exact(2))
                .zip(r1.chunks_exact(2))
            {
                for k in 0..K {
                    row_sum[k] += (top[0][k] + top[1][k]) + (bottom[0][k] + bottom[1][k]);
                    cell.0[k] = row_sum[k] + up.0[k];
                }
            }
        }
    }

    /// Per-channel sum over a [`BinWindow`] made for this table's pixel
    /// dimensions, with the `((a - b) - c) + d` corner grouping of every
    /// summed-area table in the workspace.
    #[inline]
    pub fn sum(&self, win: &BinWindow) -> [f64; K] {
        let a = &self.cells[win.bottom_right].0;
        let b = &self.cells[win.bottom_left].0;
        let c = &self.cells[win.top_right].0;
        let d = &self.cells[win.top_left].0;
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

/// The inverse of a symmetric 3 x 3 matrix (row-major, by the adjugate)
/// that is positive definite with a
/// margin, with its *Hadamard ratio* `m00 m11 m22 / det`: the reciprocal
/// determinant of the unit-diagonal scaling `D^-1/2 M D^-1/2`, which is
/// at least 1 and bounds that scaling's smallest eigenvalue from below
/// by `1 / (2.25 ratio)` (its eigenvalues sum to 3). `None` unless every
/// diagonal entry is positive, every off-diagonal entry is smaller in
/// magnitude than the geometric mean of its two diagonal entries (the
/// scaling's off-diagonal entries lie in `(-1, 1)`), and the
/// determinant is positive, finite and not small relative to the matrix
/// scale ([`DET_RTOL`]).
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

/// The adjugate inverse of a 3 x 3 matrix and the determinant it divided
/// by, or `None` when the determinant is non-finite or small relative to
/// the matrix scale.
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

    fn chan(x: usize, y: usize) -> [f64; 2] {
        let v = ((x * 13 + y * 7) % 11) as f64;
        [v * 0.5 - 2.0, (x as f64 - y as f64) * 0.25]
    }

    /// Fills `out` with pixel row `y` of `f`.
    fn rows_of(f: impl Fn(usize, usize) -> [f64; 2]) -> impl FnMut(usize, &mut [[f64; 2]]) {
        move |y, out| {
            for (x, o) in out.iter_mut().enumerate() {
                *o = f(x, y);
            }
        }
    }

    fn binned(w: usize, h: usize, f: impl Fn(usize, usize) -> [f64; 2]) -> BinnedMoments<2> {
        let mut d = BinnedMoments::new(w, h);
        d.fill_rows(h / 2, rows_of(f));
        d
    }

    #[test]
    fn binned_window_sums_match_brute_force() {
        // Every bin-aligned window of even and odd frame sizes: the sum
        // over every pixel of the window's rectangle, and `None` exactly
        // for empty windows and ones past the whole bins.
        for (w, h) in [
            (9usize, 7usize),
            (16, 16),
            (17, 11),
            (33, 5),
            (1, 1),
            (2, 3),
        ] {
            let d = binned(w, h, chan);
            assert_eq!(d.bins(), (w / 2, h / 2));
            for bx0 in 0..=w / 2 {
                for bx1 in bx0.saturating_sub(1)..=w / 2 {
                    for (by0, by1) in [(0usize, 0usize), (1, 2), (0, h / 2), (2, 1), (h / 2, h / 2)]
                    {
                        let tag = format!("{w}x{h} bins [{bx0}, {bx1}] x [{by0}, {by1}]");
                        let inside = bx0 <= bx1 && by0 <= by1 && bx1 < w / 2 && by1 < h / 2;
                        let Some(win) = BinWindow::new((w, h), (bx0, by0), (bx1, by1)) else {
                            assert!(!inside, "{tag}");
                            continue;
                        };
                        assert!(inside, "{tag}");
                        let mut want = [0.0f64; 2];
                        for y in 2 * by0..=2 * by1 + 1 {
                            for x in 2 * bx0..=2 * bx1 + 1 {
                                let v = chan(x, y);
                                want[0] += v[0];
                                want[1] += v[1];
                            }
                        }
                        let got = d.sum(&win);
                        for k in 0..2 {
                            assert!((got[k] - want[k]).abs() < 1e-9, "{tag} ch {k}: {got:?}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn a_bin_pairs_within_each_row_first() {
        // The one bin of a 2 x 2 plane (and of a 3 x 3 one, whose odd
        // last row and column are never binned) is the documented sum,
        // bit for bit.
        for side in [2usize, 3] {
            let d = binned(side, side, chan);
            let win = BinWindow::new((side, side), (0, 0), (0, 0)).expect("bin");
            let want: [f64; 2] = std::array::from_fn(|k| {
                (chan(0, 0)[k] + chan(1, 0)[k]) + (chan(0, 1)[k] + chan(1, 1)[k])
            });
            assert_eq!(
                d.sum(&win).map(f64::to_bits),
                want.map(f64::to_bits),
                "{side}"
            );
        }
    }

    #[test]
    fn refill_replaces_every_cell() {
        // A refilled table must equal a fresh build: nothing but the pad
        // survives from the previous contents.
        let (w, h) = (11usize, 9usize);
        let mut d = binned(w, h, |x, y| [x as f64, -(y as f64)]);
        d.fill_rows(h / 2, rows_of(chan));
        let fresh = binned(w, h, chan);
        for by0 in 0..h / 2 {
            for by1 in by0..h / 2 {
                for bx0 in 0..w / 2 {
                    for bx1 in bx0..w / 2 {
                        let win = BinWindow::new((w, h), (bx0, by0), (bx1, by1)).expect("window");
                        assert_eq!(
                            d.sum(&win).map(f64::to_bits),
                            fresh.sum(&win).map(f64::to_bits),
                            "[{bx0}, {bx1}] x [{by0}, {by1}]"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn row_limited_fill_matches_a_full_fill_above_its_extent() {
        // Windows whose bins end above `bin_rows` must read the same bits
        // from a partial refill (over stale contents) as from a full
        // build, and the partial fill must not read pixel rows below it.
        let (w, h) = (13usize, 15usize);
        let fresh = binned(w, h, chan);
        for bin_rows in [0usize, 1, 2, 5, 7, 9] {
            let mut d = binned(w, h, |x, y| [y as f64, x as f64 * 3.0]);
            let mut deepest = None;
            d.fill_rows(bin_rows, |y, out| {
                deepest = deepest.max(Some(y));
                rows_of(chan)(y, out);
            });
            assert_eq!(
                deepest,
                (bin_rows.min(h / 2) * 2).checked_sub(1),
                "rows {bin_rows}"
            );
            for by1 in 0..bin_rows.min(h / 2) {
                for by0 in 0..=by1 {
                    for (bx0, bx1) in [(0usize, 0usize), (0, w / 2 - 1), (2, 4), (5, 5)] {
                        let win = BinWindow::new((w, h), (bx0, by0), (bx1, by1)).expect("window");
                        assert_eq!(
                            d.sum(&win).map(f64::to_bits),
                            fresh.sum(&win).map(f64::to_bits),
                            "rows {bin_rows} [{bx0}, {bx1}] x [{by0}, {by1}]"
                        );
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
            assert_eq!(inv3_det(&m).map(|(inv, _)| inv), Some(inv));
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
    fn quad_form_gives_the_quadratic_minimum() {
        let a = [4.0, 1.0, -0.5, 1.0, 3.0, 0.25, -0.5, 0.25, 2.0];
        let b = [1.0, -2.0, 0.5];
        let c = 7.0;
        let (inv, _) = inv3_spd(&a).expect("spd");
        let m = c - quad_form(&b, &inv);
        assert!(quad_form(&b, &inv) > 0.0);
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
    fn inv3_inverts_well_conditioned_matrices() {
        let m = [4.0, 1.0, -0.5, 1.0, 3.0, 0.25, -0.5, 0.25, 2.0];
        let (inv, _) = inv3_det(&m).expect("invertible");
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
        assert!(inv3_det(&m).is_none());
        let mut nf = m;
        nf[0] = f64::NAN;
        assert!(inv3_det(&nf).is_none());
        // Scale invariance: a tiny well-conditioned matrix still inverts.
        let tiny = [4e-30, 1e-30, 0.0, 1e-30, 3e-30, 0.0, 0.0, 0.0, 2e-30];
        assert!(inv3_spd(&tiny).is_some());
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
