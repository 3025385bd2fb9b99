//! Step 2 — motion-parameter estimation and the hypothesis error.
//!
//! For a tracked pixel and one hypothesis displacement, the error (eq. 3)
//!
//! ```text
//! eps(x, y; x^, y^) = sum over template pixels of eps_1^2 + eps_2^2
//! ```
//!
//! "can be evaluated by measuring the difference between the observed and
//! expected behavior of the surface normals" (eqs. 4–5). Under the
//! small-deformation local affine model (eq. 6), the surface gradient
//! `g = (z_x, z_y)` transforms to first order as
//!
//! ```text
//! g' = g + (a_k, b_k) - A^T g,     A = [[a_i, b_i], [a_j, b_j]]
//! ```
//!
//! (the graph-surface normal is `(-g, 1)/|.|`, so this *is* the expected
//! behaviour of the normals; the observed after-motion gradient comes
//! from the unit normal `[n_i', n_j', n_k']` at the mapped template pixel
//! as `g_obs = (-n_i'/n_k', -n_j'/n_k')`). The residuals are weighted by
//! the first-fundamental-form coefficients exactly as eqs. (4)–(5)
//! weight their terms:
//!
//! ```text
//! eps_1 = (g'_x - g_obs_x) / E        E = 1 + z_x^2
//! eps_2 = (g'_y - g_obs_y) / G        G = 1 + z_y^2
//! ```
//!
//! Both residuals are linear in the six parameters, so "differentiating
//! with respect to the six unknown motion parameters and setting the six
//! first partial derivatives to zero ... leads to another system of
//! linear equations that were solved using Gaussian-elimination".

use std::sync::Arc;

use sma_fault::{GridError, SmaError};
use sma_grid::{BorderPolicy, Grid, ValidityMask, Vec2};
use sma_linalg::gauss::solve6;
use sma_surface::{GeomField, GeomVars};

use crate::affine::LocalAffine;
use crate::config::{MotionModel, SmaConfig};
use crate::template_map::semifluid_correspondence;

/// One per `(pixel, hypothesis)` evaluation — `pixels * (2 Nzs + 1)^2`
/// for a full-region run, the `hyp_ges` row of the analytic workload.
pub(crate) static HYPOTHESES: sma_obs::Counter = sma_obs::Counter::new("sma.hypotheses_evaluated");
/// One per 6 x 6 Gaussian elimination; all drivers funnel through
/// [`solve_samples`], so exact, fastpath and precomputed paths agree.
pub(crate) static GE_SOLVES: sma_obs::Counter = sma_obs::Counter::new("sma.ge_solves");
/// Template error terms accumulated — `(2 NzT + 1)^2` per exact-kernel
/// hypothesis, the `hyp_terms` row of the analytic workload. The
/// moment-plane fast path pays corner lookups instead of terms, so it
/// leaves this counter alone.
static TEMPLATE_TERMS: sma_obs::Counter = sma_obs::Counter::new("sma.template_terms");

/// The derived planes of *one* frame, computed once and shareable by
/// every pair the frame participates in. On an N-frame sequence, frame
/// `t` serves both pairs `(t-1, t)` and `(t, t+1)`; preparing artifacts
/// per frame instead of per pair halves the preparation work (the
/// streaming engine in `sma-stream` caches these by frame id).
///
/// All planes are `Arc`-shared so assembling a [`SmaFrames`] pair from
/// two artifact sets copies pointers, not pixels.
#[derive(Debug, Clone)]
pub struct FrameArtifacts {
    /// Quarantined (NaN/Inf-repaired) intensity plane.
    pub intensity: Arc<Grid<f32>>,
    /// Quarantined surface plane.
    pub surface: Arc<Grid<f32>>,
    /// Validity of this frame's two input planes (intensity ∩ surface).
    pub validity: Arc<ValidityMask>,
    /// Geometric variables of the surface (window `Nz`).
    pub geo: Arc<GeomField>,
    /// Discriminant plane of the intensity surface (window
    /// `max(NsT, 1)`).
    pub disc: Arc<Grid<f32>>,
    /// Non-finite pixels repaired while quarantining this frame.
    pub quarantined: u64,
}

impl FrameArtifacts {
    /// Compute one frame's derived planes: quarantine both input planes,
    /// fit the surface geometry, and extract the intensity discriminant.
    /// This is exactly the per-frame half of [`SmaFrames::prepare`], so
    /// a pair assembled from two artifact sets is bit-identical to the
    /// pairwise preparation.
    ///
    /// # Errors
    /// [`GridError::ShapeMismatch`] if the two planes disagree in shape;
    /// [`SmaError::Config`] if `cfg` is invalid.
    pub fn prepare(
        intensity: &Grid<f32>,
        surface: &Grid<f32>,
        cfg: &SmaConfig,
    ) -> Result<Self, SmaError> {
        if surface.dims() != intensity.dims() {
            return Err(GridError::ShapeMismatch {
                expected: intensity.dims(),
                got: surface.dims(),
            }
            .into());
        }
        cfg.validate().map_err(SmaError::Config)?;
        let _span = sma_obs::span("frame_artifacts");

        let (i, mask_i, q_i) = sma_grid::quarantine(intensity);
        let (s, mask_s, q_s) = sma_grid::quarantine(surface);
        let quarantined = q_i + q_s;
        if quarantined > 0 {
            sma_fault::note_quarantined(quarantined);
        }
        let validity = mask_i.intersect(&mask_s);

        let policy = BorderPolicy::Clamp;
        let geo = GeomField::compute_par(&s, cfg.nz, policy);
        // Semi-fluid discriminants always use the *intensity* surface
        // with the semi-fluid surface-patch window ("using the intensity
        // image", §2.3; NsT doubles as the surface-patch size, §4.3).
        let disc = GeomField::compute_par(&i, cfg.nst.max(1), policy).discriminant_plane();
        Ok(Self {
            intensity: Arc::new(i),
            surface: Arc::new(s),
            validity: Arc::new(validity),
            geo: Arc::new(geo),
            disc: Arc::new(disc),
            quarantined,
        })
    }

    /// Frame dimensions.
    pub fn dims(&self) -> (usize, usize) {
        self.geo.dims()
    }

    /// Approximate heap bytes held by these artifacts (the cache-charge
    /// unit of the streaming engine): intensity + surface + discriminant
    /// f32 planes, the validity bitmap, and the geometry field's seven
    /// f64 variables per pixel.
    pub fn resident_bytes(&self) -> usize {
        Self::estimate_bytes(self.dims().0, self.dims().1)
    }

    /// [`resident_bytes`](Self::resident_bytes) as a pure function of
    /// the frame dimensions, so admission control can cost a sequence
    /// *before* preparing any of its frames.
    pub fn estimate_bytes(w: usize, h: usize) -> usize {
        // GeomVars: zx, zy, e, g, ni, nj, nk — 7 f64 per pixel, plus the
        // intensity + surface + discriminant f32 planes and the validity
        // bitmap.
        w * h * (3 * 4 + 1 + 7 * 8)
    }
}

/// Everything the per-pixel kernels need about one frame pair, computed
/// once ("Local surface patches are fit for each pixel in both the
/// intensity and surface images at both time steps" — the Table 2
/// "Surface fit" and "Compute geometric variables" phases).
///
/// All planes are `Arc`-shared: a pair assembled by the streaming
/// engine ([`SmaFrames::from_artifacts`]) references the per-frame
/// artifact planes directly, and cloning an `SmaFrames` copies pointers
/// only. Shared references deref-coerce to the plain plane types, so
/// kernels read the fields exactly as before.
#[derive(Debug, Clone)]
pub struct SmaFrames {
    /// Geometric variables of the *surface* at `t`.
    pub geo_before: Arc<GeomField>,
    /// Geometric variables of the surface at `t+1`.
    pub geo_after: Arc<GeomField>,
    /// Discriminant plane of the *intensity* surface at `t` (semi-fluid
    /// matching input).
    pub disc_before: Arc<Grid<f32>>,
    /// Discriminant plane of the intensity surface at `t+1`.
    pub disc_after: Arc<Grid<f32>>,
    /// Surface map at `t` (for `z0`).
    pub surface_before: Arc<Grid<f32>>,
    /// Surface map at `t+1`.
    pub surface_after: Arc<Grid<f32>>,
    /// Which input pixels carried finite data: pixels where *any* of the
    /// four input planes held a NaN/Inf are quarantined (repaired by
    /// neighbor interpolation before processing) and marked invalid
    /// here. All-valid for clean inputs.
    pub validity: Arc<ValidityMask>,
}

impl SmaFrames {
    /// Fit all surface patches and extract geometric variables for a
    /// frame pair. `intensity_*` drive the semi-fluid discriminants;
    /// `surface_*` drive the normals (pass the intensity images as
    /// surfaces for monocular sequences, as §2 prescribes).
    ///
    /// Non-finite (NaN/Inf) input pixels are *quarantined*: repaired by
    /// the mean of their finite 8-neighbors and recorded in
    /// [`SmaFrames::validity`] so downstream stages know which estimates
    /// rest on reconstructed data. Clean inputs pass through
    /// bit-identically.
    ///
    /// # Errors
    /// [`GridError::ShapeMismatch`] if the four grids don't share one
    /// shape; [`SmaError::Config`] if `cfg` is invalid.
    pub fn prepare(
        intensity_before: &Grid<f32>,
        intensity_after: &Grid<f32>,
        surface_before: &Grid<f32>,
        surface_after: &Grid<f32>,
        cfg: &SmaConfig,
    ) -> Result<Self, SmaError> {
        let expected = intensity_before.dims();
        for got in [intensity_after.dims(), surface_after.dims()] {
            if got != expected {
                return Err(GridError::ShapeMismatch { expected, got }.into());
            }
        }
        let _span = sma_obs::span("sma_prepare");
        // Per-frame halves (quarantine + geometry + discriminant); the
        // streaming engine computes these once per *frame* and reuses
        // them for both adjacent pairs — this pairwise entry point is
        // simply the uncached composition of the same two halves.
        let before = FrameArtifacts::prepare(intensity_before, surface_before, cfg)?;
        let after = FrameArtifacts::prepare(intensity_after, surface_after, cfg)?;
        Self::from_artifacts(&before, &after)
    }

    /// Assemble a frame pair from two per-frame artifact sets, sharing
    /// every plane (pointer copies only). Bit-identical to
    /// [`SmaFrames::prepare`] on the same inputs by construction —
    /// `prepare` is implemented on top of this.
    ///
    /// # Errors
    /// [`GridError::ShapeMismatch`] if the frames disagree in shape.
    pub fn from_artifacts(
        before: &FrameArtifacts,
        after: &FrameArtifacts,
    ) -> Result<Self, SmaError> {
        if after.dims() != before.dims() {
            return Err(GridError::ShapeMismatch {
                expected: before.dims(),
                got: after.dims(),
            }
            .into());
        }
        // A pixel is valid for the pair only if valid in all four input
        // planes (intersection is commutative and associative, so the
        // per-frame grouping matches the original four-way intersect).
        // Two all-valid frames share one all-valid mask without
        // allocating a new plane.
        let validity = if before.validity.is_all_valid() {
            if after.validity.is_all_valid() {
                Arc::clone(&before.validity)
            } else {
                Arc::clone(&after.validity)
            }
        } else if after.validity.is_all_valid() {
            Arc::clone(&before.validity)
        } else {
            Arc::new(before.validity.intersect(&after.validity))
        };
        Ok(Self {
            geo_before: Arc::clone(&before.geo),
            geo_after: Arc::clone(&after.geo),
            disc_before: Arc::clone(&before.disc),
            disc_after: Arc::clone(&after.disc),
            surface_before: Arc::clone(&before.surface),
            surface_after: Arc::clone(&after.surface),
            validity,
        })
    }

    /// Frame dimensions.
    pub fn dims(&self) -> (usize, usize) {
        self.geo_before.dims()
    }
}

/// The per-pixel output: best hypothesis displacement plus the fitted
/// affine deformation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MotionEstimate {
    /// Winning displacement `(x0, y0)` in pixels.
    pub displacement: Vec2,
    /// Fitted local affine transformation (includes the displacement as
    /// its translation part).
    pub affine: LocalAffine,
    /// Minimized error of the winning hypothesis (eq. 3).
    pub error: f64,
    /// False if no hypothesis produced a solvable system (degenerate,
    /// textureless surface) — the pixel is untrackable.
    pub valid: bool,
}

impl MotionEstimate {
    /// The untrackable-pixel sentinel.
    pub fn invalid() -> Self {
        Self {
            displacement: Vec2::ZERO,
            affine: LocalAffine::default(),
            error: f64::INFINITY,
            valid: false,
        }
    }
}

/// Scratch row data for one template pixel (kept so the error can be
/// re-evaluated after the solve without re-fetching geometry).
///
/// Note the paper's reduction (§4.2): of the after-motion normal, only
/// two numbers matter per mapping — here the observed gradient pair
/// `(gx_obs, gy_obs)`, mirroring the paper's "(n_i'^2 + n_j'^2) and
/// n_k'" two-float template-mapping store.
#[derive(Debug, Clone, Copy)]
pub struct TemplateSample {
    /// Surface gradient `z_x` before motion.
    pub zx: f64,
    /// Surface gradient `z_y` before motion.
    pub zy: f64,
    /// `1 / E` weight.
    pub inv_e: f64,
    /// `1 / G` weight.
    pub inv_g: f64,
    /// Observed after-motion gradient `g_x`.
    pub gx_obs: f64,
    /// Observed after-motion gradient `g_y`.
    pub gy_obs: f64,
}

impl TemplateSample {
    /// Build from the before/after geometric variables.
    pub fn from_geometry(before: GeomVars, after: GeomVars) -> Self {
        // Observed gradient after motion from the observed unit normal:
        // g = (-n_i/n_k, -n_j/n_k); n_k > 0 for graph surfaces.
        let gx_obs = -after.ni / after.nk;
        let gy_obs = -after.nj / after.nk;
        Self {
            zx: before.zx,
            zy: before.zy,
            inv_e: 1.0 / before.e,
            inv_g: 1.0 / before.g,
            gx_obs,
            gy_obs,
        }
    }

    /// The two weighted residuals at the given parameters.
    fn residuals(&self, p: &[f64; 6]) -> (f64, f64) {
        let [ai, bi, aj, bj, ak, bk] = *p;
        let pred_x = self.zx + ak - (ai * self.zx + aj * self.zy);
        let pred_y = self.zy + bk - (bi * self.zx + bj * self.zy);
        (
            (pred_x - self.gx_obs) * self.inv_e,
            (pred_y - self.gy_obs) * self.inv_g,
        )
    }
}

/// Evaluate one hypothesis: select the template mapping (Step 1), fit
/// the six motion parameters (Step 2) and return `(affine, error)`;
/// `None` if the 6 x 6 system is singular (degenerate neighborhood).
pub fn evaluate_hypothesis(
    frames: &SmaFrames,
    cfg: &SmaConfig,
    x: usize,
    y: usize,
    ox: isize,
    oy: isize,
) -> Option<(LocalAffine, f64)> {
    let mut samples: Vec<TemplateSample> = Vec::with_capacity(cfg.template_window().area());
    evaluate_hypothesis_into(frames, cfg, x, y, ox, oy, &mut samples)
}

/// [`evaluate_hypothesis`] writing into a caller-provided scratch buffer,
/// so a hypothesis loop reuses one allocation instead of allocating a
/// template-sized `Vec` per hypothesis ((2 Nzs + 1)^2 allocations per
/// pixel in the hot loop otherwise).
pub(crate) fn evaluate_hypothesis_into(
    frames: &SmaFrames,
    cfg: &SmaConfig,
    x: usize,
    y: usize,
    ox: isize,
    oy: isize,
    samples: &mut Vec<TemplateSample>,
) -> Option<(LocalAffine, f64)> {
    HYPOTHESES.incr();
    let nt = cfg.nzt as isize;
    samples.clear();

    // Step 1 + geometry gathering.
    for dv in -nt..=nt {
        for du in -nt..=nt {
            let px = x as isize + du;
            let py = y as isize + dv;
            let before = frames.geo_before.at_clamped(px, py);
            let (qx, qy) = match cfg.model {
                MotionModel::Continuous => (px + ox, py + oy),
                MotionModel::SemiFluid => {
                    semifluid_correspondence(
                        &frames.disc_before,
                        &frames.disc_after,
                        px,
                        py,
                        ox,
                        oy,
                        cfg.nss,
                        cfg.nst,
                    )
                    .0
                }
            };
            let after = frames.geo_after.at_clamped(qx, qy);
            samples.push(TemplateSample::from_geometry(before, after));
        }
    }

    let (solution, error) = solve_samples(samples)?;
    // The reported displacement is the *center pixel's* correspondence:
    // under the semi-fluid model the hypothesis is refined by the
    // center's own semi-fluid match (eq. 8's correspondences come from
    // the template mapping, not the raw hypothesis), so the estimate
    // resolves motion to within the semi-fluid search rather than the
    // coarser hypothesis grid.
    let (rx, ry) = refined_displacement(frames, cfg, x, y, ox, oy);
    let z0 = surface_delta(frames, x, y, rx, ry);
    Some((
        LocalAffine::from_params(&solution, rx as f64, ry as f64, z0),
        error,
    ))
}

/// The center pixel's correspondence displacement under hypothesis
/// `(ox, oy)`: the hypothesis itself for `Fcont`, the semi-fluid
/// refinement of it for `Fsemi`.
pub(crate) fn refined_displacement(
    frames: &SmaFrames,
    cfg: &SmaConfig,
    x: usize,
    y: usize,
    ox: isize,
    oy: isize,
) -> (isize, isize) {
    match cfg.model {
        MotionModel::Continuous => (ox, oy),
        MotionModel::SemiFluid => {
            let ((qx, qy), _) = semifluid_correspondence(
                &frames.disc_before,
                &frames.disc_after,
                x as isize,
                y as isize,
                ox,
                oy,
                cfg.nss,
                cfg.nst,
            );
            (qx - x as isize, qy - y as isize)
        }
    }
}

/// Step 2 on gathered template samples: accumulate the weighted normal
/// equations, solve by 6 x 6 Gaussian elimination, and evaluate the
/// minimized error (eq. 3). Shared by the direct and precomputed paths
/// so they are bit-identical. Residual rows (coefficients in order
/// `[a_i, b_i, a_j, b_j, a_k, b_k]`):
///
/// ```text
/// eps_1: [-zx, 0, -zy, 0, 1, 0] * inv_e, target (gx_obs - zx) * inv_e
/// eps_2: [0, -zx, 0, -zy, 0, 1] * inv_g, target (gy_obs - zy) * inv_g
/// ```
pub(crate) fn solve_samples(samples: &[TemplateSample]) -> Option<([f64; 6], f64)> {
    GE_SOLVES.incr();
    TEMPLATE_TERMS.add(samples.len() as u64);
    // A^T A is symmetric and the two residual rows have complementary
    // sparsity (eps_1 touches the even parameters, eps_2 the odd ones),
    // so only 12 of the 36 entries are structurally nonzero — accumulate
    // those upper-triangle entries and mirror before the solve. Products
    // commute exactly in IEEE arithmetic, so this is bit-identical to
    // the dense accumulation at ~40% fewer multiply-adds.
    //
    // Samples accumulate one at a time, in order: this kernel feeds the
    // sequential driver, whose output is the stored conformance oracle.
    // A plain loop, because its lane-blocked form measured no faster
    // (DESIGN.md §12).
    let mut ata = [0.0f64; 36];
    let mut atb = [0.0f64; 6];
    for s in samples {
        let (zx_e, zy_e, b1, inv_e) = (
            -s.zx * s.inv_e,
            -s.zy * s.inv_e,
            (s.gx_obs - s.zx) * s.inv_e,
            s.inv_e,
        );
        let (zx_g, zy_g, b2, inv_g) = (
            -s.zx * s.inv_g,
            -s.zy * s.inv_g,
            (s.gy_obs - s.zy) * s.inv_g,
            s.inv_g,
        );
        // eps_1 row [zx_e, 0, zy_e, 0, inv_e, 0].
        ata[0] += zx_e * zx_e;
        ata[2] += zx_e * zy_e;
        ata[4] += zx_e * inv_e;
        ata[14] += zy_e * zy_e;
        ata[16] += zy_e * inv_e;
        ata[28] += inv_e * inv_e;
        atb[0] += zx_e * b1;
        atb[2] += zy_e * b1;
        atb[4] += inv_e * b1;
        // eps_2 row [0, zx_g, 0, zy_g, 0, inv_g].
        ata[7] += zx_g * zx_g;
        ata[9] += zx_g * zy_g;
        ata[11] += zx_g * inv_g;
        ata[21] += zy_g * zy_g;
        ata[23] += zy_g * inv_g;
        ata[35] += inv_g * inv_g;
        atb[1] += zx_g * b2;
        atb[3] += zy_g * b2;
        atb[5] += inv_g * b2;
    }
    for i in 0..6 {
        for j in (i + 1)..6 {
            ata[j * 6 + i] = ata[i * 6 + j];
        }
    }
    // Saved before solve6's in-place elimination destroys them: the
    // translation-only fallback needs the raw sums sum(ie^2), sum(ig^2).
    let (sum_ie2, sum_ig2) = (ata[28], ata[35]);
    let mut solution = atb;
    if solve6(&mut ata, &mut solution).is_err() {
        // Degradation ladder, armed runs only: a singular system
        // (textureless or fault-poisoned neighborhood) falls back to the
        // translation-only model. Its normal equations are diagonal —
        // a_k = sum(ie^2 (gx_obs - zx)) / sum(ie^2), b_k analogous —
        // which is exactly atb[4] / sum(ie^2) and atb[5] / sum(ig^2) of
        // the already-accumulated system. Disarmed runs keep reporting
        // the pixel untrackable, preserving bit-identical baseline
        // output.
        if !sma_fault::enabled() || sum_ie2 <= 0.0 || sum_ig2 <= 0.0 {
            return None;
        }
        sma_fault::note_natural_degradation();
        solution = [0.0, 0.0, 0.0, 0.0, atb[4] / sum_ie2, atb[5] / sum_ig2];
    }

    let mut error = 0.0f64;
    for s in samples {
        let (e1, e2) = s.residuals(&solution);
        error += e1 * e1 + e2 * e2;
    }
    Some((solution, error))
}

/// `z0`: surface value change between the tracked pixel and its
/// hypothesized position.
pub(crate) fn surface_delta(frames: &SmaFrames, x: usize, y: usize, ox: isize, oy: isize) -> f64 {
    let (w, h) = frames.surface_before.dims();
    let qx = (x as isize + ox).clamp(0, w as isize - 1) as usize;
    let qy = (y as isize + oy).clamp(0, h as isize - 1) as usize;
    frames.surface_after.at(qx, qy) as f64 - frames.surface_before.at(x, y) as f64
}

/// Track one pixel: evaluate every hypothesis in the z-search window and
/// return the minimizer (eq. 7's minimization). Ties break toward the
/// earlier hypothesis in row-major search order, keeping results
/// deterministic across drivers.
pub fn track_pixel(frames: &SmaFrames, cfg: &SmaConfig, x: usize, y: usize) -> MotionEstimate {
    let ns = cfg.nzs as isize;
    let mut samples: Vec<TemplateSample> = Vec::with_capacity(cfg.template_window().area());
    track_pixel_rows(
        frames,
        cfg,
        x,
        y,
        -ns,
        ns,
        MotionEstimate::invalid(),
        &mut samples,
    )
}

/// [`track_pixel`] restricted to hypothesis rows `oy in [oy0, oy1]`,
/// folding into a caller-carried running best. Processing row segments
/// in ascending `oy` order reproduces [`track_pixel`] bit-identically
/// (strict-less comparison, row-major order within a segment) — this is
/// the checkpointable unit of the §4.3 segmented MasPar schedule.
#[allow(clippy::too_many_arguments)] // segment bounds + running state
pub(crate) fn track_pixel_rows(
    frames: &SmaFrames,
    cfg: &SmaConfig,
    x: usize,
    y: usize,
    oy0: isize,
    oy1: isize,
    mut best: MotionEstimate,
    samples: &mut Vec<TemplateSample>,
) -> MotionEstimate {
    let ns = cfg.nzs as isize;
    for oy in oy0..=oy1 {
        for ox in -ns..=ns {
            if let Some((affine, error)) =
                evaluate_hypothesis_into(frames, cfg, x, y, ox, oy, samples)
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use sma_grid::warp::translate;

    /// A smooth, textured surface with rich normal variation.
    fn wavy(w: usize, h: usize) -> Grid<f32> {
        Grid::from_fn(w, h, |x, y| {
            let (xf, yf) = (x as f32, y as f32);
            (xf * 0.45).sin() * 2.0 + (yf * 0.35).cos() * 1.5 + (xf * 0.12 + yf * 0.21).sin() * 3.0
        })
    }

    fn frames_for_shift(dx: f32, dy: f32, cfg: &SmaConfig) -> SmaFrames {
        let before = wavy(40, 40);
        // The scene moves by (dx, dy): frame t+1 at q holds frame t at
        // q - (dx, dy).
        let after = translate(&before, -dx, -dy, BorderPolicy::Clamp);
        SmaFrames::prepare(&before, &after, &before, &after, cfg).expect("prepare")
    }

    #[test]
    fn zero_motion_is_found_with_zero_error() {
        let cfg = SmaConfig::small_test(MotionModel::Continuous);
        let frames = frames_for_shift(0.0, 0.0, &cfg);
        let est = track_pixel(&frames, &cfg, 20, 20);
        assert!(est.valid);
        assert_eq!(est.displacement, Vec2::ZERO);
        assert!(est.error < 1e-9, "error {}", est.error);
        assert!(est.affine.deformation_magnitude() < 1e-6);
    }

    #[test]
    fn integer_translation_recovered_continuous() {
        let cfg = SmaConfig::small_test(MotionModel::Continuous);
        let frames = frames_for_shift(2.0, -1.0, &cfg);
        let est = track_pixel(&frames, &cfg, 20, 20);
        assert!(est.valid);
        assert_eq!(est.displacement, Vec2::new(2.0, -1.0));
    }

    #[test]
    fn integer_translation_recovered_semifluid() {
        let cfg = SmaConfig::small_test(MotionModel::SemiFluid);
        let frames = frames_for_shift(1.0, 2.0, &cfg);
        let est = track_pixel(&frames, &cfg, 20, 20);
        assert!(est.valid);
        assert_eq!(est.displacement, Vec2::new(1.0, 2.0));
    }

    #[test]
    fn flat_surface_is_untrackable() {
        // Armed faults would swap the invalid result for a fallback.
        let _faults = sma_fault::exclusive();
        let cfg = SmaConfig::small_test(MotionModel::Continuous);
        let flat = Grid::filled(32, 32, 1.0f32);
        let frames = SmaFrames::prepare(&flat, &flat, &flat, &flat, &cfg).expect("prepare");
        let est = track_pixel(&frames, &cfg, 16, 16);
        assert!(!est.valid, "flat surfaces must report untrackable");
        assert!(est.error.is_infinite());
    }

    #[test]
    fn correct_hypothesis_beats_wrong_ones() {
        let cfg = SmaConfig::small_test(MotionModel::Continuous);
        let frames = frames_for_shift(1.0, 0.0, &cfg);
        let (_, err_right) = evaluate_hypothesis(&frames, &cfg, 20, 20, 1, 0).unwrap();
        let (_, err_wrong) = evaluate_hypothesis(&frames, &cfg, 20, 20, -2, 2).unwrap();
        assert!(
            err_right < 0.5 * err_wrong,
            "right {err_right} should be well under wrong {err_wrong}"
        );
    }

    #[test]
    fn affine_absorbs_uniform_tilt_change() {
        // Frame t+1 adds a linear ramp (uniform gradient change): a_k and
        // b_k must absorb it with near-zero residual at zero displacement.
        let cfg = SmaConfig::small_test(MotionModel::Continuous);
        let before = wavy(40, 40);
        let after = Grid::from_fn(40, 40, |x, y| {
            before.at(x, y) + 0.3 * x as f32 - 0.2 * y as f32
        });
        let frames = SmaFrames::prepare(&before, &after, &before, &after, &cfg).expect("prepare");
        let (affine, error) = evaluate_hypothesis(&frames, &cfg, 20, 20, 0, 0).unwrap();
        assert!((affine.ak - 0.3).abs() < 0.05, "ak {}", affine.ak);
        assert!((affine.bk + 0.2).abs() < 0.05, "bk {}", affine.bk);
        let (_, error_unmodelled) = {
            // For comparison: the same pair but with a nonlinear change
            // cannot be absorbed.
            let bumpy = Grid::from_fn(40, 40, |x, y| {
                before.at(x, y) + ((x * y) as f32 * 0.05).sin()
            });
            let f2 = SmaFrames::prepare(&before, &bumpy, &before, &bumpy, &cfg).expect("prepare");
            evaluate_hypothesis(&f2, &cfg, 20, 20, 0, 0).unwrap()
        };
        assert!(
            error < 0.1 * error_unmodelled,
            "{error} vs {error_unmodelled}"
        );
    }

    #[test]
    fn estimates_are_deterministic() {
        let cfg = SmaConfig::small_test(MotionModel::SemiFluid);
        let frames = frames_for_shift(1.0, 1.0, &cfg);
        let a = track_pixel(&frames, &cfg, 18, 22);
        let b = track_pixel(&frames, &cfg, 18, 22);
        assert_eq!(a, b);
    }

    #[test]
    fn z0_tracks_surface_change() {
        let cfg = SmaConfig::small_test(MotionModel::Continuous);
        let before = wavy(40, 40);
        let after = before.map(|v| v + 5.0); // whole surface rises by 5
        let frames = SmaFrames::prepare(&before, &after, &before, &after, &cfg).expect("prepare");
        let (affine, _) = evaluate_hypothesis(&frames, &cfg, 20, 20, 0, 0).unwrap();
        assert!((affine.z0 - 5.0).abs() < 1e-4);
    }
}
