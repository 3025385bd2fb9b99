//! Least-squares quadratic patch fitting.
//!
//! Two functionally identical paths:
//!
//! * [`fit_patch_ge`] — the paper-faithful kernel: build the 6 x 6 normal
//!   equations for the window and solve with Gaussian elimination. This
//!   is the per-pixel cost the paper counts ("over one million separate
//!   Gaussian-eliminations").
//! * [`FitContext`] + [`fit_patch`] — exploits the fact that for a fixed
//!   window geometry the normal matrix `A^T A` is a constant *moment
//!   matrix* (it depends only on the window offsets, not on pixel
//!   position or data). Its inverse is precomputed once, so the per-pixel
//!   work collapses to accumulating `A^T b` and one 6 x 6 mat-vec. The
//!   benches quantify what this saves — an ablation on the paper's choice
//!   to pay the full elimination per pixel.

use sma_grid::{BorderPolicy, Grid};
use sma_linalg::gauss::solve6;
use sma_linalg::{SMat, SolveError};

use crate::quadratic::QuadraticPatch;

/// The fixed monomial basis row for local offset `(u, v)`:
/// `[u^2, v^2, uv, u, v, 1]`.
#[inline]
fn basis(u: f64, v: f64) -> [f64; 6] {
    [u * u, v * v, u * v, u, v, 1.0]
}

/// Fit a quadratic patch to the `(2n+1) x (2n+1)` window of `z` centered
/// at `(x, y)`, building and solving the 6 x 6 system by Gaussian
/// elimination (the paper's kernel). Border pixels are resolved with
/// `policy`.
///
/// Returns [`SolveError::Singular`] only if the window is degenerate,
/// which cannot happen for `n >= 1` with distinct offsets — but the
/// signature keeps the error explicit because callers in the SMA driver
/// treat singular fits as untrackable pixels.
pub fn fit_patch_ge(
    z: &Grid<f32>,
    x: usize,
    y: usize,
    n: usize,
    policy: BorderPolicy,
) -> Result<QuadraticPatch, SolveError> {
    // A^T A is symmetric: accumulate the upper triangle only (21 of 36
    // entries) and mirror before the solve — same sums, ~40% fewer
    // multiply-adds in the hot window loop.
    let mut ata = [0.0f64; 36];
    let mut atb = [0.0f64; 6];
    let ni = n as isize;
    for dv in -ni..=ni {
        for du in -ni..=ni {
            let row = basis(du as f64, dv as f64);
            let zv = z.at_clamped(x as isize + du, y as isize + dv, policy) as f64;
            for r in 0..6 {
                for c in r..6 {
                    ata[r * 6 + c] += row[r] * row[c];
                }
                atb[r] += row[r] * zv;
            }
        }
    }
    for r in 0..6 {
        for c in (r + 1)..6 {
            ata[c * 6 + r] = ata[r * 6 + c];
        }
    }
    solve6(&mut ata, &mut atb)?;
    Ok(QuadraticPatch::from_coeffs(&atb))
}

/// Precomputed solver for a fixed window half-width: the inverse of the
/// window's moment matrix.
#[derive(Debug, Clone)]
pub struct FitContext {
    n: usize,
    /// Row-major inverse of the 6x6 moment matrix.
    inv: [f64; 36],
}

impl FitContext {
    /// Precompute the inverse moment matrix for windows of half-width `n`.
    ///
    /// # Panics
    /// Panics if `n == 0` — a single-pixel window cannot determine six
    /// coefficients.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "surface fit window must be at least 3x3 (n >= 1)");
        match Self::try_new(n) {
            Ok(ctx) => ctx,
            // The moment matrix of a (2n+1)^2 window with n >= 1 is
            // always nonsingular, so this arm is unreachable; keep the
            // checked constructor for callers that propagate instead.
            Err(e) => unreachable!("window moment matrix is nonsingular: {e}"),
        }
    }

    /// Checked variant of [`FitContext::new`]: returns the solver error
    /// instead of panicking if `n == 0` or the moment matrix could not
    /// be inverted.
    pub fn try_new(n: usize) -> Result<Self, SolveError> {
        if n == 0 {
            return Err(SolveError::Singular);
        }
        // Accumulate the moment matrix M = sum over offsets of row row^T.
        let mut m = SMat::zeros(6);
        let ni = n as isize;
        for dv in -ni..=ni {
            for du in -ni..=ni {
                let row = basis(du as f64, dv as f64);
                for r in 0..6 {
                    for c in 0..6 {
                        m.add(r, c, row[r] * row[c]);
                    }
                }
            }
        }
        // Invert by solving against the six unit vectors.
        let mut inv = [0.0f64; 36];
        for col in 0..6 {
            let mut e = vec![0.0f64; 6];
            e[col] = 1.0;
            let x = sma_linalg::gauss::solve(&m, &e)?;
            for r in 0..6 {
                inv[r * 6 + col] = x[r];
            }
        }
        Ok(Self { n, inv })
    }

    /// Window half-width this context was built for.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Fit the patch at `(x, y)` using the precomputed inverse: only the
    /// `A^T b` accumulation and a 6 x 6 mat-vec per pixel.
    pub fn fit(&self, z: &Grid<f32>, x: usize, y: usize, policy: BorderPolicy) -> QuadraticPatch {
        let mut atb = [0.0f64; 6];
        let ni = self.n as isize;
        for dv in -ni..=ni {
            for du in -ni..=ni {
                let row = basis(du as f64, dv as f64);
                let zv = z.at_clamped(x as isize + du, y as isize + dv, policy) as f64;
                for r in 0..6 {
                    atb[r] += row[r] * zv;
                }
            }
        }
        let mut c = [0.0f64; 6];
        for (r, cr) in c.iter_mut().enumerate() {
            for (k, &bk) in atb.iter().enumerate() {
                *cr += self.inv[r * 6 + k] * bk;
            }
        }
        QuadraticPatch::from_coeffs(&c)
    }
}

/// Fit a patch with a fresh context (convenience; prefer reusing a
/// [`FitContext`] in loops).
pub fn fit_patch(
    z: &Grid<f32>,
    x: usize,
    y: usize,
    n: usize,
    policy: BorderPolicy,
) -> QuadraticPatch {
    FitContext::new(n).fit(z, x, y, policy)
}

/// Fit a patch at every pixel, sequentially.
pub fn fit_all_seq(z: &Grid<f32>, n: usize, policy: BorderPolicy) -> Grid<QuadraticPatch> {
    let ctx = FitContext::new(n);
    Grid::from_fn(z.width(), z.height(), |x, y| ctx.fit(z, x, y, policy))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sample an exact quadratic onto a grid (global coordinates).
    fn quad_grid(w: usize, h: usize) -> Grid<f32> {
        Grid::from_fn(w, h, |x, y| {
            let (xf, yf) = (x as f32, y as f32);
            0.05 * xf * xf - 0.02 * yf * yf + 0.01 * xf * yf + 0.3 * xf - 0.7 * yf + 5.0
        })
    }

    #[test]
    fn exact_quadratic_recovered_interior() {
        let z = quad_grid(16, 16);
        // At pixel (8, 8) the local expansion of the global quadratic has
        // gradient (2*0.05*8 + 0.01*8 + 0.3, -2*0.02*8 + 0.01*8 - 0.7).
        let p = fit_patch_ge(&z, 8, 8, 2, BorderPolicy::Clamp).unwrap();
        let gx_true = 2.0 * 0.05 * 8.0 + 0.01 * 8.0 + 0.3;
        let gy_true = -2.0 * 0.02 * 8.0 + 0.01 * 8.0 - 0.7;
        let (gx, gy) = p.gradient();
        assert!((gx - gx_true).abs() < 1e-4, "{gx} vs {gx_true}");
        assert!((gy - gy_true).abs() < 1e-4, "{gy} vs {gy_true}");
        let (zxx, zyy, zxy) = p.hessian();
        assert!((zxx - 0.1).abs() < 1e-4);
        assert!((zyy + 0.04).abs() < 1e-4);
        assert!((zxy - 0.01).abs() < 1e-4);
        assert!((p.eval(0.0, 0.0) - z.at(8, 8) as f64).abs() < 1e-3);
    }

    #[test]
    fn context_path_matches_ge_path() {
        let z = quad_grid(20, 20);
        let ctx = FitContext::new(2);
        for &(x, y) in &[(5, 5), (10, 3), (17, 17), (0, 0), (19, 0)] {
            let a = fit_patch_ge(&z, x, y, 2, BorderPolicy::Reflect).unwrap();
            let b = ctx.fit(&z, x, y, BorderPolicy::Reflect);
            for (ca, cb) in a.coeffs().iter().zip(b.coeffs().iter()) {
                assert!((ca - cb).abs() < 1e-8, "{ca} vs {cb} at ({x},{y})");
            }
        }
    }

    #[test]
    fn flat_surface_fits_flat() {
        let z = Grid::filled(10, 10, 4.0f32);
        let p = fit_patch_ge(&z, 5, 5, 2, BorderPolicy::Clamp).unwrap();
        assert!(p.gradient().0.abs() < 1e-9);
        assert!(p.gradient().1.abs() < 1e-9);
        assert!((p.c0 - 4.0).abs() < 1e-9);
        assert!(p.discriminant().abs() < 1e-9);
    }

    #[test]
    fn paper_5x5_window() {
        // Table 1: surface fitting uses Nz = 2, i.e. 5x5 windows.
        let z = quad_grid(12, 12);
        let ctx = FitContext::new(2);
        assert_eq!(ctx.n(), 2);
        let p = ctx.fit(&z, 6, 6, BorderPolicy::Clamp);
        assert!((p.hessian().0 - 0.1).abs() < 1e-4);
    }

    #[test]
    fn noisy_fit_smooths() {
        // Deterministic +-0.5 checker noise on a plane: balanced noise
        // cancels in the symmetric window.
        let z = Grid::from_fn(16, 16, |x, y| {
            let noise = if (x + y) % 2 == 0 { 0.5 } else { -0.5 };
            2.0 * x as f32 + noise
        });
        let p = fit_patch_ge(&z, 8, 8, 2, BorderPolicy::Clamp).unwrap();
        assert!((p.gradient().0 - 2.0).abs() < 0.1);
        assert!(p.gradient().1.abs() < 0.1);
    }

    #[test]
    #[should_panic(expected = "at least 3x3")]
    fn degenerate_window_rejected() {
        let _ = FitContext::new(0);
    }
}
