//! Property tests: the surface fit must recover exact quadratics, respect
//! symmetries and produce unit normals everywhere.

use proptest::prelude::*;
use sma_grid::{BorderPolicy, Grid};
use sma_surface::{fit_patch_ge, FitContext, GeomField, QuadraticPatch};

/// Sample an arbitrary global quadratic onto a grid.
fn quad_grid(w: usize, h: usize, c: &[f64; 6]) -> Grid<f32> {
    Grid::from_fn(w, h, |x, y| {
        let (u, v) = (x as f64, y as f64);
        (c[0] * u * u + c[1] * v * v + c[2] * u * v + c[3] * u + c[4] * v + c[5]) as f32
    })
}

proptest! {
    /// Fitting an exact quadratic recovers its local expansion: the
    /// Hessian is position-independent and must match the global one.
    #[test]
    fn exact_quadratic_hessian_recovered(
        cxx in -0.05f64..0.05, cyy in -0.05f64..0.05, cxy in -0.05f64..0.05,
        cx in -1.0f64..1.0, cy in -1.0f64..1.0, c0 in -10.0f64..10.0,
        n in 1usize..4
    ) {
        let coeffs = [cxx, cyy, cxy, cx, cy, c0];
        let z = quad_grid(24, 24, &coeffs);
        let p = fit_patch_ge(&z, 12, 12, n, BorderPolicy::Clamp).unwrap();
        let (zxx, zyy, zxy) = p.hessian();
        // f32 sampling of the grid limits achievable precision.
        prop_assert!((zxx - 2.0 * cxx).abs() < 1e-3);
        prop_assert!((zyy - 2.0 * cyy).abs() < 1e-3);
        prop_assert!((zxy - cxy).abs() < 1e-3);
    }

    /// The gradient of the local fit matches the analytic gradient of the
    /// global quadratic at the fit center.
    #[test]
    fn exact_quadratic_gradient_recovered(
        cxx in -0.02f64..0.02, cyy in -0.02f64..0.02,
        cx in -1.0f64..1.0, cy in -1.0f64..1.0,
        px in 4usize..20, py in 4usize..20
    ) {
        let coeffs = [cxx, cyy, 0.0, cx, cy, 0.0];
        let z = quad_grid(24, 24, &coeffs);
        let p = fit_patch_ge(&z, px, py, 2, BorderPolicy::Clamp).unwrap();
        let gx_true = 2.0 * cxx * px as f64 + cx;
        let gy_true = 2.0 * cyy * py as f64 + cy;
        prop_assert!((p.gradient().0 - gx_true).abs() < 2e-3);
        prop_assert!((p.gradient().1 - gy_true).abs() < 2e-3);
    }

    /// Fast (precomputed-moment) and faithful (Gaussian-elimination) fit
    /// paths agree on arbitrary data, at every pixel including borders.
    #[test]
    fn fit_paths_agree(seed in 0u64..500, n in 1usize..4) {
        let z = Grid::from_fn(16, 16, |x, y| {
            (((x * 31 + y * 17) as u64 ^ seed).wrapping_mul(2654435761) % 256) as f32
        });
        let ctx = FitContext::new(n);
        for &(x, y) in &[(0usize, 0usize), (8, 8), (15, 15), (0, 8), (15, 0)] {
            let a = fit_patch_ge(&z, x, y, n, BorderPolicy::Reflect).unwrap();
            let b = ctx.fit(&z, x, y, BorderPolicy::Reflect);
            for (ca, cb) in a.coeffs().iter().zip(b.coeffs().iter()) {
                prop_assert!((ca - cb).abs() < 1e-6 * (1.0 + ca.abs()));
            }
        }
    }

    /// Adding a constant to the surface shifts only c0; the geometry
    /// (normal, E, G, discriminant) is translation invariant.
    #[test]
    fn geometry_invariant_to_height_offset(offset in -100.0f32..100.0, seed in 0u64..200) {
        let z = Grid::from_fn(12, 12, |x, y| {
            (((x * 13 + y * 29) as u64 ^ seed) % 32) as f32 * 0.25
        });
        let z_off = z.map(|v| v + offset);
        let a = GeomField::compute_par(&z, 2, BorderPolicy::Reflect);
        let b = GeomField::compute_par(&z_off, 2, BorderPolicy::Reflect);
        for y in 0..12 {
            for x in 0..12 {
                let (va, vb) = (a.at(x, y), b.at(x, y));
                prop_assert!((va.ni - vb.ni).abs() < 1e-5);
                prop_assert!((va.e - vb.e).abs() < 1e-4);
                prop_assert!((va.d - vb.d).abs() < 1e-4);
            }
        }
    }

    /// Mirroring the surface in x negates z_x and n_i but preserves E, G
    /// and D at mirrored positions.
    #[test]
    fn geometry_mirror_symmetry(seed in 0u64..200) {
        let w = 13usize;
        let z = Grid::from_fn(w, 9, |x, y| {
            (((x * 7 + y * 11) as u64 ^ seed) % 16) as f32
        });
        let zm = Grid::from_fn(w, 9, |x, y| z.at(w - 1 - x, y));
        let a = GeomField::compute_par(&z, 2, BorderPolicy::Reflect);
        let b = GeomField::compute_par(&zm, 2, BorderPolicy::Reflect);
        for y in 0..9 {
            for x in 0..w {
                let (va, vb) = (a.at(x, y), b.at(w - 1 - x, y));
                prop_assert!((va.zx + vb.zx).abs() < 1e-6);
                prop_assert!((va.ni + vb.ni).abs() < 1e-6);
                prop_assert!((va.e - vb.e).abs() < 1e-6);
                prop_assert!((va.g - vb.g).abs() < 1e-6);
                prop_assert!((va.d - vb.d).abs() < 1e-6);
            }
        }
    }

    /// Patch evaluation agrees with its own gradient by finite differences
    /// at arbitrary offsets (internal consistency of QuadraticPatch).
    #[test]
    fn patch_gradient_consistent(
        cxx in -1.0f64..1.0, cyy in -1.0f64..1.0, cxy in -1.0f64..1.0,
        cx in -2.0f64..2.0, cy in -2.0f64..2.0,
        u in -3.0f64..3.0, v in -3.0f64..3.0
    ) {
        let p = QuadraticPatch { cxx, cyy, cxy, cx, cy, c0: 0.0 };
        let h = 1e-5;
        let (gx, gy) = p.gradient_at(u, v);
        let nx = (p.eval(u + h, v) - p.eval(u - h, v)) / (2.0 * h);
        let ny = (p.eval(u, v + h) - p.eval(u, v - h)) / (2.0 * h);
        prop_assert!((gx - nx).abs() < 1e-6 * (1.0 + gx.abs()));
        prop_assert!((gy - ny).abs() < 1e-6 * (1.0 + gy.abs()));
    }
}
