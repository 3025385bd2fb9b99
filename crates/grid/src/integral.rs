//! Multi-channel summed-area tables.
//!
//! The SMA fast path sums per-template-pixel moment contributions over
//! every tracked pixel's template window; a summed-area table turns each
//! `(2n+1)^2` window sum into four corner lookups. This is a host-side
//! optimization of the same flavor as the paper's §4.1 precompute —
//! trading memory for the elimination of redundant window work.

use crate::grid::Grid;

/// A summed-area table over `K` channels at once: one prefix-sum pass
/// over a `[f64; K]`-valued plane, after which any rectangular sum of
/// all `K` channels is four corner lookups.
///
/// This is the storage form of the SMA fast path's *moment planes*: the
/// per-template-pixel contributions to the normal-equation moments
/// (`A^T A`, `A^T b`, `b^T b` terms) are plane-valued, and every tracked
/// pixel's system is the sum of those contributions over its template
/// window — a window sum per channel, O(1) here instead of O(T^2).
#[derive(Debug, Clone)]
pub struct MomentIntegral<const K: usize> {
    table: Grid<[f64; K]>,
}

impl<const K: usize> MomentIntegral<K> {
    /// Build from a per-pixel channel function in one pass.
    pub fn from_fn(w: usize, h: usize, mut f: impl FnMut(usize, usize) -> [f64; K]) -> Self {
        let mut table = Grid::filled(w, h, [0.0f64; K]);
        for y in 0..h {
            let mut row_sum = [0.0f64; K];
            for x in 0..w {
                let v = f(x, y);
                let above = if y > 0 { table.at(x, y - 1) } else { [0.0; K] };
                let mut cell = [0.0f64; K];
                for k in 0..K {
                    row_sum[k] += v[k];
                    cell[k] = row_sum[k] + above[k];
                }
                table.set(x, y, cell);
            }
        }
        Self { table }
    }

    /// Build from an existing channel plane.
    pub fn build(plane: &Grid<[f64; K]>) -> Self {
        let (w, h) = plane.dims();
        Self::from_fn(w, h, |x, y| plane.at(x, y))
    }

    /// Dimensions of the underlying plane.
    pub fn dims(&self) -> (usize, usize) {
        self.table.dims()
    }

    /// Per-channel sum over the inclusive rectangle `[x0, x1] x [y0, y1]`,
    /// clipped to the plane.
    ///
    /// # Panics
    /// Panics if `x0 > x1` or `y0 > y1`.
    pub fn rect_sum(&self, x0: usize, y0: usize, x1: usize, y1: usize) -> [f64; K] {
        assert!(x0 <= x1 && y0 <= y1, "degenerate rectangle");
        let (w, h) = self.table.dims();
        let x1 = x1.min(w - 1);
        let y1 = y1.min(h - 1);
        let a = self.table.at(x1, y1);
        let b = if x0 > 0 {
            self.table.at(x0 - 1, y1)
        } else {
            [0.0; K]
        };
        let c = if y0 > 0 {
            self.table.at(x1, y0 - 1)
        } else {
            [0.0; K]
        };
        let d = if x0 > 0 && y0 > 0 {
            self.table.at(x0 - 1, y0 - 1)
        } else {
            [0.0; K]
        };
        let mut out = [0.0f64; K];
        for k in 0..K {
            out[k] = a[k] - b[k] - c[k] + d[k];
        }
        out
    }

    /// Per-channel sum over the `(2n+1)^2` window centered at `(cx, cy)`,
    /// clipped to the plane.
    pub fn window_sum(&self, cx: usize, cy: usize, n: usize) -> [f64; K] {
        let x0 = cx.saturating_sub(n);
        let y0 = cy.saturating_sub(n);
        self.rect_sum(x0, y0, cx + n, cy + n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn img() -> Grid<f32> {
        Grid::from_fn(9, 7, |x, y| ((x * 13 + y * 7) % 11) as f32)
    }

    fn brute_sum(g: &Grid<f32>, x0: usize, y0: usize, x1: usize, y1: usize) -> f64 {
        let mut s = 0.0;
        for y in y0..=y1.min(g.height() - 1) {
            for x in x0..=x1.min(g.width() - 1) {
                s += g.at(x, y) as f64;
            }
        }
        s
    }

    /// The single-channel table of `g`.
    fn table(g: &Grid<f32>) -> MomentIntegral<1> {
        MomentIntegral::<1>::from_fn(g.width(), g.height(), |x, y| [g.at(x, y) as f64])
    }

    /// In-range pixels of the `(2n+1)^2` window centered at `(cx, cy)`,
    /// as the window sum of an all-ones plane.
    fn window_area(g: &Grid<f32>, cx: usize, cy: usize, n: usize) -> f64 {
        MomentIntegral::<1>::from_fn(g.width(), g.height(), |_, _| [1.0]).window_sum(cx, cy, n)[0]
    }

    #[test]
    fn rect_sums_match_brute_force() {
        let g = img();
        let it = table(&g);
        for (x0, y0, x1, y1) in [(0, 0, 8, 6), (2, 1, 5, 4), (3, 3, 3, 3), (0, 2, 8, 2)] {
            assert!((it.rect_sum(x0, y0, x1, y1)[0] - brute_sum(&g, x0, y0, x1, y1)).abs() < 1e-9);
        }
    }

    #[test]
    fn window_sums_clip_at_borders() {
        let g = img();
        let it = table(&g);
        // Corner window 5x5 centered at (0, 0): only 3x3 pixels exist.
        assert_eq!(window_area(&g, 0, 0, 2), 9.0);
        assert!((it.window_sum(0, 0, 2)[0] - brute_sum(&g, 0, 0, 2, 2)).abs() < 1e-9);
        // Interior window has full area.
        assert_eq!(window_area(&g, 4, 3, 2), 25.0);
    }

    #[test]
    #[should_panic(expected = "degenerate rectangle")]
    fn inverted_rect_rejected() {
        let it = table(&img());
        let _ = it.rect_sum(5, 0, 2, 3);
    }

    #[test]
    fn windows_flush_against_each_border() {
        // A window whose edge lands *exactly* on an image border takes
        // the boundary branch of every corner lookup — the classic
        // off-by-one site. Exercise all four borders with a full-size
        // (unclipped) window and check against brute force.
        let g = img(); // 9 x 7
        let it = table(&g);
        let n = 2usize;
        let cases = [
            (n, 3, "left"),                 // x0 == 0 exactly
            (8 - n, 3, "right"),            // x1 == w-1 exactly
            (4, n, "top"),                  // y0 == 0 exactly
            (4, 6 - n, "bottom"),           // y1 == h-1 exactly
            (n, n, "top-left"),             // both low edges flush
            (8 - n, 6 - n, "bottom-right"), // both high edges flush
        ];
        for (cx, cy, which) in cases {
            assert_eq!(window_area(&g, cx, cy, n), 25.0, "{which} window clipped");
            let want = brute_sum(&g, cx - n, cy - n, cx + n, cy + n);
            assert!(
                (it.window_sum(cx, cy, n)[0] - want).abs() < 1e-9,
                "{which} flush window at ({cx},{cy})"
            );
        }
    }

    #[test]
    fn one_by_one_grid() {
        let mi = MomentIntegral::<2>::from_fn(1, 1, |_, _| [1.0, -2.0]);
        assert_eq!(mi.window_sum(0, 0, 2), [1.0, -2.0]);
    }

    #[test]
    fn single_row_and_single_column_grids() {
        // Degenerate aspect ratios hit the y-only / x-only boundary
        // branches in isolation.
        let row = Grid::from_fn(7, 1, |x, _| x as f32);
        let it = table(&row);
        assert!((it.rect_sum(0, 0, 6, 0)[0] - 21.0).abs() < 1e-12);
        assert!((it.window_sum(3, 0, 1)[0] - 9.0).abs() < 1e-12); // 2+3+4
        assert_eq!(window_area(&row, 3, 0, 1), 3.0);
        assert_eq!(window_area(&row, 0, 0, 1), 2.0); // clipped left
        let col = Grid::from_fn(1, 7, |_, y| y as f32);
        let ic = table(&col);
        assert!((ic.window_sum(0, 3, 1)[0] - 9.0).abs() < 1e-12);
        assert_eq!(window_area(&col, 0, 6, 1), 2.0); // clipped bottom
    }

    #[test]
    fn moment_integral_matches_per_channel_brute_force() {
        let chan = |x: usize, y: usize| -> [f64; 3] {
            let v = (x * 13 + y * 7) % 11;
            [v as f64, (v * v) as f64, x as f64 - y as f64]
        };
        let mi = MomentIntegral::<3>::from_fn(9, 7, chan);
        for (x0, y0, x1, y1) in [(0, 0, 8, 6), (2, 1, 5, 4), (3, 3, 3, 3), (0, 2, 20, 2)] {
            let got = mi.rect_sum(x0, y0, x1, y1);
            let mut want = [0.0f64; 3];
            for y in y0..=y1.min(6) {
                for x in x0..=x1.min(8) {
                    let v = chan(x, y);
                    for k in 0..3 {
                        want[k] += v[k];
                    }
                }
            }
            for k in 0..3 {
                assert!(
                    (got[k] - want[k]).abs() < 1e-9,
                    "rect ({x0},{y0})-({x1},{y1}) channel {k}: {got:?} vs {want:?}"
                );
            }
        }
    }

    #[test]
    fn moment_integral_window_matches_brute_force() {
        let g = img();
        let multi = table(&g);
        for &(cx, cy, n) in &[(0usize, 0usize, 2usize), (4, 3, 2), (8, 6, 1), (4, 3, 0)] {
            let want = brute_sum(
                &g,
                cx.saturating_sub(n),
                cy.saturating_sub(n),
                cx + n,
                cy + n,
            );
            assert!((multi.window_sum(cx, cy, n)[0] - want).abs() < 1e-9);
        }
    }

    #[test]
    fn moment_integral_build_equals_from_fn() {
        let plane = Grid::from_fn(6, 5, |x, y| [x as f64 * 0.5, y as f64 * -1.25]);
        let a = MomentIntegral::<2>::build(&plane);
        let b = MomentIntegral::<2>::from_fn(6, 5, |x, y| plane.at(x, y));
        assert_eq!(a.dims(), (6, 5));
        for y in 0..5 {
            for x in 0..6 {
                assert_eq!(a.rect_sum(0, 0, x, y), b.rect_sum(0, 0, x, y));
            }
        }
    }
}
