//! Per-pixel geometric variables.
//!
//! The SMA error functional (eqs. 4–5) consumes, at every pixel of both
//! frames:
//!
//! * the unit normal components `[n_i, n_j, n_k]`,
//! * the first-fundamental-form coefficients `E = 1 + z_x^2`,
//!   `G = 1 + z_y^2`,
//! * the gradient `(z_x, z_y)` itself (the `dz/dx`, `dz/dy` factors),
//!
//! and the semi-fluid mapping additionally needs the discriminant `D`
//! of the *intensity* surface. The paper computes these once per frame
//! ("Local surface patches are fit for each pixel in both the intensity
//! and surface images at both time steps") — the "Compute geometric
//! variables" row of Table 2. [`GeomField::compute_par`] is that pass.

use sma_grid::{BorderPolicy, Grid};
use sma_linalg::Vec3;

use crate::fit::FitContext;

/// One per pixel per [`GeomField`] pass; `SmaFrames::prepare` runs four
/// passes (geometry and discriminant, before and after), so a full
/// prepare contributes exactly `4 * w * h` — the `surface_fit_ges` row
/// of the analytic workload model.
static PATCH_FITS: sma_obs::Counter = sma_obs::Counter::new("surface.patch_fits");

/// The per-pixel geometric variables extracted from a fitted quadratic
/// patch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeomVars {
    /// Unit-normal component `n_i` (x).
    pub ni: f64,
    /// Unit-normal component `n_j` (y).
    pub nj: f64,
    /// Unit-normal component `n_k` (z, out of surface).
    pub nk: f64,
    /// First-fundamental-form coefficient `E = 1 + z_x^2`.
    pub e: f64,
    /// First-fundamental-form coefficient `G = 1 + z_y^2`.
    pub g: f64,
    /// Surface gradient `z_x` at the pixel.
    pub zx: f64,
    /// Surface gradient `z_y` at the pixel.
    pub zy: f64,
    /// Discriminant `D = z_xx z_yy - z_xy^2` of the local patch.
    pub d: f64,
}

impl Default for GeomVars {
    /// The geometric variables of a flat horizontal surface.
    fn default() -> Self {
        Self {
            ni: 0.0,
            nj: 0.0,
            nk: 1.0,
            e: 1.0,
            g: 1.0,
            zx: 0.0,
            zy: 0.0,
            d: 0.0,
        }
    }
}

impl GeomVars {
    /// Unit normal as a vector.
    pub fn normal(&self) -> Vec3 {
        Vec3::new(self.ni, self.nj, self.nk)
    }
}

/// Dense plane of geometric variables for one frame.
#[derive(Debug, Clone, PartialEq)]
pub struct GeomField {
    vars: Grid<GeomVars>,
}

impl GeomField {
    /// Compute geometric variables at every pixel of `z` by fitting
    /// `(2n+1) x (2n+1)` quadratic patches. Per-pixel work is
    /// independent, as in the SIMD formulation where every PE fits its
    /// own patch in lockstep, so a split over rows would not change a
    /// bit. Today the loop runs in raster order on the calling thread.
    pub fn compute_par(z: &Grid<f32>, n: usize, policy: BorderPolicy) -> Self {
        let _span = sma_obs::span("geom_field");
        PATCH_FITS.add((z.width() * z.height()) as u64);
        let ctx = FitContext::new(n);
        let vars = Grid::from_fn(z.width(), z.height(), |x, y| {
            Self::vars_from_patch(&ctx, z, x, y, policy)
        });
        Self { vars }
    }

    fn vars_from_patch(
        ctx: &FitContext,
        z: &Grid<f32>,
        x: usize,
        y: usize,
        policy: BorderPolicy,
    ) -> GeomVars {
        let p = ctx.fit(z, x, y, policy);
        // Non-finite data that escaped the input quarantine yields a
        // non-finite fit; degrade that pixel to flat-surface geometry
        // (the exact values a constant patch produces) rather than let
        // NaN normals poison every window the pixel participates in.
        if !p.coeffs().iter().all(|c| c.is_finite()) {
            sma_fault::note_natural_degradation();
            return GeomVars::default();
        }
        let n = p.unit_normal();
        GeomVars {
            ni: n.i,
            nj: n.j,
            nk: n.k,
            e: p.e_coeff(),
            g: p.g_coeff(),
            zx: p.cx,
            zy: p.cy,
            d: p.discriminant(),
        }
    }

    /// Field dimensions `(width, height)`.
    pub fn dims(&self) -> (usize, usize) {
        self.vars.dims()
    }

    /// Geometric variables at `(x, y)`.
    ///
    /// # Panics
    /// Panics if out of bounds.
    #[inline]
    pub fn at(&self, x: usize, y: usize) -> GeomVars {
        self.vars.at(x, y)
    }

    /// Geometric variables at signed coordinates, clamping to the border.
    #[inline]
    pub fn at_clamped(&self, x: isize, y: isize) -> GeomVars {
        let (w, h) = self.vars.dims();
        let cx = x.clamp(0, w as isize - 1) as usize;
        let cy = y.clamp(0, h as isize - 1) as usize;
        self.vars.at(cx, cy)
    }

    /// Underlying grid of variables.
    pub fn as_grid(&self) -> &Grid<GeomVars> {
        &self.vars
    }

    /// Extract the discriminant plane (used by the semi-fluid mapping).
    pub fn discriminant_plane(&self) -> Grid<f32> {
        self.vars.map(|v| v.d as f32)
    }

    /// Extract the `n_k` plane.
    pub fn nk_plane(&self) -> Grid<f32> {
        self.vars.map(|v| v.nk as f32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_surface_all_defaults() {
        let z = Grid::filled(12, 12, 3.0f32);
        let f = GeomField::compute_par(&z, 2, BorderPolicy::Clamp);
        let v = f.at(6, 6);
        assert!((v.nk - 1.0).abs() < 1e-9);
        assert!(v.ni.abs() < 1e-9 && v.nj.abs() < 1e-9);
        assert!((v.e - 1.0).abs() < 1e-9);
        assert!((v.g - 1.0).abs() < 1e-9);
        assert!(v.d.abs() < 1e-9);
    }

    #[test]
    fn ramp_surface_tilts_normal() {
        // z = x: normal = (-1, 0, 1)/sqrt(2), E = 2, G = 1.
        let z = Grid::from_fn(16, 16, |x, _| x as f32);
        let f = GeomField::compute_par(&z, 2, BorderPolicy::Clamp);
        let v = f.at(8, 8);
        let s = 1.0 / 2.0f64.sqrt();
        assert!((v.ni + s).abs() < 1e-6);
        assert!((v.nk - s).abs() < 1e-6);
        assert!((v.e - 2.0).abs() < 1e-6);
        assert!((v.g - 1.0).abs() < 1e-6);
        assert!((v.zx - 1.0).abs() < 1e-6);
    }

    #[test]
    fn paraboloid_has_positive_discriminant() {
        let z = Grid::from_fn(16, 16, |x, y| {
            let (u, v) = (x as f32 - 8.0, y as f32 - 8.0);
            0.1 * (u * u + v * v)
        });
        let f = GeomField::compute_par(&z, 2, BorderPolicy::Clamp);
        let v = f.at(8, 8);
        // zxx = zyy = 0.2, zxy = 0 -> D = 0.04.
        assert!((v.d - 0.04).abs() < 1e-4);
        // Normal at the apex points straight up.
        assert!((v.nk - 1.0).abs() < 1e-6);
    }

    #[test]
    fn clamped_access_at_borders() {
        let z = Grid::from_fn(8, 8, |x, _| x as f32);
        let f = GeomField::compute_par(&z, 2, BorderPolicy::Clamp);
        assert_eq!(f.at_clamped(-3, 4), f.at(0, 4));
        assert_eq!(f.at_clamped(12, 4), f.at(7, 4));
    }

    #[test]
    fn normal_vector_is_unit() {
        let z = Grid::from_fn(16, 16, |x, y| {
            (x as f32 * 0.7).sin() * 3.0 + (y as f32 * 0.5).cos()
        });
        let f = GeomField::compute_par(&z, 2, BorderPolicy::Reflect);
        for y in 0..16 {
            for x in 0..16 {
                let n = f.at(x, y).normal();
                assert!(
                    (n.norm() - 1.0).abs() < 1e-9,
                    "non-unit normal at ({x},{y})"
                );
            }
        }
    }
}
