//! O(1)-per-hypothesis matching via moment-plane integral images.
//!
//! Step 2's normal equations are *sums over the template window* of
//! per-template-pixel quantities. Writing the two weighted residual rows
//! of `motion::solve_samples` out (coefficients in solver order
//! `[a_i, b_i, a_j, b_j, a_k, b_k]`, with `ie = 1/E`, `ig = 1/G`):
//!
//! ```text
//! r1 = ie * [-zx, 0, -zy, 0, 1, 0]     b1 = ie * (gx_obs - zx)
//! r2 = ig * [0, -zx, 0, -zy, 0, 1]     b2 = ig * (gy_obs - zy)
//! ```
//!
//! every entry of `A^T A`, `A^T b` and `b^T b` is a window sum of a
//! product of *per-pixel planes*. Two structural facts make this an
//! integral-image problem:
//!
//! 1. **`A^T A` is hypothesis-independent.** Its 12 structurally nonzero
//!    entries involve only before-frame geometry (`zx`, `zy`, `ie`,
//!    `ig`), so twelve *static* moment planes summed over the template
//!    window give the full matrix for every hypothesis at once.
//! 2. **`A^T b` and `b^T b` are linear/quadratic in the mapped
//!    gradient.** Under one hypothesis offset the observed gradient
//!    `(gx_obs, gy_obs)` of template pixel `p` depends only on `(p, o)`
//!    (the §4.1 sharing observation), so eight *per-offset* moment
//!    planes capture everything hypothesis-dependent.
//!
//! Build summed-area tables ([`MomentIntegral`]) over those planes and
//! each tracked pixel's 6 x 6 system assembles from **four corner
//! lookups per moment** — O(1) per hypothesis instead of O(T^2). The
//! minimized error follows from the same moments via the least-squares
//! identity `eps = theta^T A^T A theta - 2 theta^T A^T b + b^T b`.
//!
//! Pixels whose template window crosses the frame border fall back to
//! the exact kernel ([`track_pixel`]): window clamping
//! breaks the rectangular-sum identity there. Interior results agree
//! with the exact kernels to floating-point association order (the
//! equivalence suite pins displacements exactly and parameters/errors to
//! 1e-6 relative).

use sma_fault::{FaultSite, SmaError};
use sma_grid::{Grid, MomentIntegral, Vec2};

use crate::affine::LocalAffine;
use crate::config::SmaConfig;
use crate::motion::{
    refined_displacement, surface_delta, track_pixel, MotionEstimate, SmaFrames, GE_SOLVES,
    HYPOTHESES,
};
use crate::precompute::mapped_gradient;
use crate::sequential::{Region, SmaResult};
use sma_linalg::gauss::solve6;

/// Pixels whose template window crossed the frame edge and silently
/// took the exact O(T^2) kernel — the previously invisible slow path.
static BORDER_FALLBACK: sma_obs::Counter = sma_obs::Counter::new("fastpath.border_fallback_pixels");
/// Pixels served by the O(1) moment-lookup path.
static INTERIOR_FAST: sma_obs::Counter = sma_obs::Counter::new("fastpath.interior_pixels");
/// Summed-area-table corner lookups (4 per window-sum, one window-sum
/// for the static moments plus one per hypothesis offset).
static CORNER_LOOKUPS: sma_obs::Counter = sma_obs::Counter::new("fastpath.corner_lookups");
/// Per-offset moment planes built (one per hypothesis offset).
static OFFSET_PLANES: sma_obs::Counter = sma_obs::Counter::new("fastpath.offset_planes_built");
/// Pixels whose best and runner-up hypothesis errors were closer than
/// the near-tie margin and were re-evaluated with the exact kernel.
static NEAR_TIE_REROUTE: sma_obs::Counter = sma_obs::Counter::new("fastpath.near_tie_pixels");

/// Absolute term of the near-tie margin (see [`NEAR_TIE_REL`]).
pub const NEAR_TIE_ABS: f64 = 2e-9;
/// Relative term of the near-tie margin. The moment-path error agrees
/// with the exact kernel only to the declared contract bound
/// (`1e-9 + 1e-6 * rel`, see the equivalence tests), so when the winning
/// hypothesis beats the runner-up by less than *twice* that bound the
/// reassociated arithmetic cannot be trusted to order the two the same
/// way the exact kernel would — the winner could flip. Such pixels are
/// re-evaluated with the exact kernel, which makes the fast path's
/// displacement (and entire estimate, for those pixels) identical to the
/// sequential reference *by construction* instead of by luck. The
/// conformance matrix (`sma-conform`) relies on this guard for its
/// `displacement_exact` contract.
pub const NEAR_TIE_REL: f64 = 2e-6;

/// True when `best` and `runner_up` are too close for the moment path's
/// error precision to decide the winner. This is the *single* re-route
/// predicate shared by every moment-path driver (scalar, and the pruned
/// driver via [`crate::simd`]): hoisting it here guarantees the two
/// families cannot drift apart on which pixels take the exact kernel.
pub fn near_tie(best: f64, runner_up: f64) -> bool {
    runner_up.is_finite()
        && (runner_up - best) <= NEAR_TIE_ABS + NEAR_TIE_REL * best.abs().max(runner_up.abs())
}

/// Number of static moment channels (the 12 nonzero `A^T A` entries).
pub const STATIC_CHANNELS: usize = 12;
/// Number of per-offset moment channels (6 for `A^T b`, 2 for `b^T b`).
pub const OFFSET_CHANNELS: usize = 8;

/// The hypothesis-independent moment store: one summed-area table over
/// the twelve static channels, plus the six raw per-pixel factors the
/// per-offset planes are products of (so offset-plane construction costs
/// two multiplies per channel, no geometry re-fetch).
pub(crate) struct StaticMoments {
    /// SAT over `S0..S11` (see [`static_channels`]).
    pub(crate) sat: MomentIntegral<STATIC_CHANNELS>,
    /// Per-pixel raw factors `[zx*ie^2, zy*ie^2, ie^2, zx*ig^2, zy*ig^2,
    /// ig^2]` feeding the offset channels.
    pub(crate) factors: Grid<[f64; 6]>,
}

/// The twelve static channels of one pixel, from before-frame geometry:
///
/// ```text
/// S0 = zx^2 ie^2   S1 = zx zy ie^2   S2 = zx ie^2
/// S3 = zy^2 ie^2   S4 = zy ie^2      S5 = ie^2
/// S6 = zx^2 ig^2   S7 = zx zy ig^2   S8 = zx ig^2
/// S9 = zy^2 ig^2   S10 = zy ig^2     S11 = ig^2
/// ```
pub(crate) fn static_channels(factors: &[f64; 6], zx: f64, zy: f64) -> [f64; STATIC_CHANNELS] {
    let [zx_e2, zy_e2, ie2, zx_g2, zy_g2, ig2] = *factors;
    [
        zx * zx_e2,
        zy * zx_e2,
        zx_e2,
        zy * zy_e2,
        zy_e2,
        ie2,
        zx * zx_g2,
        zy * zx_g2,
        zx_g2,
        zy * zy_g2,
        zy_g2,
        ig2,
    ]
}

impl StaticMoments {
    pub(crate) fn compute(frames: &SmaFrames) -> Self {
        let (w, h) = frames.dims();
        let factors = Grid::from_fn(w, h, |x, y| {
            let g = frames.geo_before.at(x, y);
            let ie2 = (1.0 / g.e) * (1.0 / g.e);
            let ig2 = (1.0 / g.g) * (1.0 / g.g);
            [g.zx * ie2, g.zy * ie2, ie2, g.zx * ig2, g.zy * ig2, ig2]
        });
        let sat = MomentIntegral::from_fn(w, h, |x, y| {
            let g = frames.geo_before.at(x, y);
            static_channels(&factors.at(x, y), g.zx, g.zy)
        });
        Self { sat, factors }
    }
}

/// Build the per-offset moment SAT for hypothesis offset `(ox, oy)`.
/// Channels, with `(gx, gy)` the mapped observed gradient:
///
/// ```text
/// T0 = zx ie^2 gx   T1 = zy ie^2 gx   T2 = ie^2 gx
/// T3 = zx ig^2 gy   T4 = zy ig^2 gy   T5 = ig^2 gy
/// T6 = ie^2 gx^2    T7 = ig^2 gy^2
/// ```
pub(crate) fn offset_moments(
    frames: &SmaFrames,
    cfg: &SmaConfig,
    stat: &StaticMoments,
    ox: isize,
    oy: isize,
) -> MomentIntegral<OFFSET_CHANNELS> {
    let (w, h) = frames.dims();
    MomentIntegral::from_fn(w, h, |x, y| {
        let (gx, gy) = mapped_gradient(frames, cfg, x as isize, y as isize, ox, oy);
        let [zx_e2, zy_e2, ie2, zx_g2, zy_g2, ig2] = stat.factors.at(x, y);
        [
            zx_e2 * gx,
            zy_e2 * gx,
            ie2 * gx,
            zx_g2 * gy,
            zy_g2 * gy,
            ig2 * gy,
            ie2 * gx * gx,
            ig2 * gy * gy,
        ]
    })
}

/// Expand the twelve static window sums into the full symmetric
/// `A^T A` in solver layout (row-major 6 x 6). Shared by the scalar
/// per-hypothesis solve below and the lane kernels' per-pixel
/// factorization ([`crate::simd`]), so both assemble the same matrix
/// bit for bit.
pub(crate) fn ata_from_static(s: &[f64; STATIC_CHANNELS]) -> [f64; 36] {
    let mut ata = [0.0f64; 36];
    ata[0] = s[0]; //   (ai, ai)
    ata[2] = s[1]; //   (ai, aj)
    ata[4] = -s[2]; //  (ai, ak)
    ata[14] = s[3]; //  (aj, aj)
    ata[16] = -s[4]; // (aj, ak)
    ata[28] = s[5]; //  (ak, ak)
    ata[7] = s[6]; //   (bi, bi)
    ata[9] = s[7]; //   (bi, bj)
    ata[11] = -s[8]; // (bi, bk)
    ata[21] = s[9]; //  (bj, bj)
    ata[23] = -s[10]; //(bj, bk)
    ata[35] = s[11]; // (bk, bk)
    for i in 0..6 {
        for j in (i + 1)..6 {
            ata[j * 6 + i] = ata[i * 6 + j];
        }
    }
    ata
}

/// The hypothesis-dependent right-hand side `A^T b` from the static and
/// offset window sums (solver layout). Shared with the lane kernels.
pub(crate) fn atb_from_moments(s: &[f64; STATIC_CHANNELS], t: &[f64; OFFSET_CHANNELS]) -> [f64; 6] {
    [
        s[0] - t[0],
        s[7] - t[3],
        s[1] - t[1],
        s[9] - t[4],
        t[2] - s[2],
        t[5] - s[10],
    ]
}

/// The hypothesis-dependent `b^T b` scalar from the static and offset
/// window sums. Shared with the lane kernels.
pub(crate) fn btb_from_moments(s: &[f64; STATIC_CHANNELS], t: &[f64; OFFSET_CHANNELS]) -> f64 {
    let [a, b] = btb_halves(s, t);
    a + b
}

/// The a-block and b-block halves of [`btb_from_moments`], each the
/// constant term of its block's 3 x 3 quadratic.
pub(crate) fn btb_halves(s: &[f64; STATIC_CHANNELS], t: &[f64; OFFSET_CHANNELS]) -> [f64; 2] {
    [t[6] - 2.0 * t[0] + s[0], t[7] - 2.0 * t[4] + s[9]]
}

/// `eps = theta^T A^T A theta - 2 theta^T A^T b + b^T b`, clamping the
/// cancellation noise floor at zero (the true minimum is >= 0). The quad
/// loop is deliberately *dense* (all 36 terms): a structured zero-skip
/// would diverge from the scalar path whenever `sol` carries a
/// non-finite value (`0.0 * inf` is NaN, skipped terms are not). Shared
/// with the lane kernels.
pub(crate) fn moment_error(ata: &[f64; 36], atb: &[f64; 6], btb: f64, sol: &[f64; 6]) -> f64 {
    let mut quad = 0.0f64;
    for i in 0..6 {
        let mut row = 0.0f64;
        for j in 0..6 {
            row += ata[i * 6 + j] * sol[j];
        }
        quad += sol[i] * (row - 2.0 * atb[i]);
    }
    (quad + btb).max(0.0)
}

/// Assemble and solve one pixel's normal equations from its summed
/// static and offset moments; returns the parameter vector and the
/// minimized error, or `None` when the system is singular (degenerate,
/// textureless neighborhood — matching the exact kernel's outcome).
fn solve_moments(
    s: &[f64; STATIC_CHANNELS],
    t: &[f64; OFFSET_CHANNELS],
) -> Option<([f64; 6], f64)> {
    HYPOTHESES.incr();
    GE_SOLVES.incr();
    let ata = ata_from_static(s);
    let atb = atb_from_moments(s, t);
    let btb = btb_from_moments(s, t);

    let mut m = ata;
    let mut sol = atb;
    if solve6(&mut m, &mut sol).is_err() {
        // Armed-mode translation-only fallback, mirroring
        // `motion::solve_samples`: a_k = sum(ie^2 (gx - zx)) / sum(ie^2)
        // is atb[4] / s[5] in moment space (b_k analogous). Disarmed
        // runs keep the pixel untrackable.
        if !sma_fault::enabled() || s[5] <= 0.0 || s[11] <= 0.0 {
            return None;
        }
        sma_fault::note_natural_degradation();
        sol = [0.0, 0.0, 0.0, 0.0, atb[4] / s[5], atb[5] / s[11]];
    }

    Some((sol, moment_error(&ata, &atb, btb, &sol)))
}

/// Track every pixel of `region` with the integral-image fast path.
/// Interior pixels (template window fully inside the
/// frame) use the O(1)-per-hypothesis moment lookups; border pixels fall
/// back to the exact kernel.
///
/// # Errors
/// [`sma_fault::GridError::EmptyRegion`] if the region is empty for the
/// frame size.
pub fn track_all_integral(
    frames: &SmaFrames,
    cfg: &SmaConfig,
    region: Region,
) -> Result<SmaResult, SmaError> {
    let _span = sma_obs::span("track_integral");
    let (w, h) = frames.dims();
    let bounds = region.bounds_checked(w, h)?;
    crate::cancel::checkpoint()?;
    let ns = cfg.nzs as isize;
    let nt = cfg.nzt;
    let template = cfg.template_window();

    let mut best: Grid<MotionEstimate> = Grid::filled(w, h, MotionEstimate::invalid());

    // Border pixels: the template window crosses the frame edge, so the
    // rectangular-sum identity does not hold — use the exact kernel.
    // Under an armed fault harness, pixels whose moment-plane window
    // sums are poisoned (FaultSite::MomentPlane) join the same exact-
    // kernel route: the re-route fully restores the exact result, so
    // each such injection is *recovered*.
    let mut border: Vec<(usize, usize)> = bounds
        .pixels()
        .filter(|&(x, y)| !template.fits_at(x, y, w, h))
        .collect();
    BORDER_FALLBACK.add(border.len() as u64);
    sma_obs::atlas::mark_batch(sma_obs::atlas::AtlasChannel::BorderFallback, &border);
    let mut poisoned: std::collections::HashSet<(usize, usize)> = std::collections::HashSet::new();
    if sma_fault::enabled() {
        for (x, y) in bounds.pixels() {
            if template.fits_at(x, y, w, h) {
                if let Some(token) =
                    sma_fault::inject(FaultSite::MomentPlane, sma_fault::key2(x as u64, y as u64))
                {
                    token.recovered();
                    poisoned.insert((x, y));
                }
            }
        }
        // Deterministic processing order for the re-routed pixels.
        let mut rerouted: Vec<(usize, usize)> = poisoned.iter().copied().collect();
        rerouted.sort_unstable();
        border.extend(rerouted);
    }
    // Border pixels (and poisoned-plane re-routes) are served by the
    // exact kernel: both dispatch planes of the telemetry atlas.
    sma_obs::atlas::mark_batch(sma_obs::atlas::AtlasChannel::DispatchExact, &border);
    crate::cancel::checkpoint()?;
    for &(x, y) in &border {
        best.set(x, y, track_pixel(frames, cfg, x, y));
    }

    let interior: Vec<(usize, usize)> = bounds
        .pixels()
        .filter(|&(x, y)| template.fits_at(x, y, w, h) && !poisoned.contains(&(x, y)))
        .collect();
    INTERIOR_FAST.add(interior.len() as u64);
    sma_obs::atlas::mark_batch(sma_obs::atlas::AtlasChannel::DispatchIntegral, &interior);
    if interior.is_empty() {
        return Ok(SmaResult {
            estimates: best,
            region: bounds,
        });
    }

    let stat = {
        let _span = sma_obs::span("static_moments");
        StaticMoments::compute(frames)
    };

    // Every offset's moment plane is built up front and stays resident
    // for the whole sweep.
    crate::cancel::checkpoint()?;
    let offsets: Vec<(isize, isize)> = (-ns..=ns)
        .flat_map(|oy| (-ns..=ns).map(move |ox| (ox, oy)))
        .collect();
    OFFSET_PLANES.add(offsets.len() as u64);
    let planes: Vec<MomentIntegral<OFFSET_CHANNELS>> = {
        let _span = sma_obs::span("offset_planes");
        offsets
            .iter()
            .map(|&(ox, oy)| offset_moments(frames, cfg, &stat, ox, oy))
            .collect()
    };

    // One pixel's best estimate and runner-up error over every offset,
    // in ascending raster order. A runner-up of `-inf` marks a pixel
    // that already holds an exact-kernel result (corrupt-sum re-route).
    let evaluate = |x: usize, y: usize| -> (MotionEstimate, f64) {
        let mut local_best = MotionEstimate::invalid();
        let mut local_second = f64::INFINITY;
        // 4 SAT corners for the static window-sum, 4 more per offset.
        CORNER_LOOKUPS.add(4 * (1 + offsets.len()) as u64);
        let s = stat.sat.window_sum(x, y, nt);
        if !s.iter().all(|v| v.is_finite()) {
            // Corrupted moment data (hostile input that slipped past
            // quarantine): re-route the pixel through the exact
            // kernel, which rebuilds its sums from raw geometry.
            sma_fault::note_natural_degradation();
            return (track_pixel(frames, cfg, x, y), f64::NEG_INFINITY);
        }
        for (oi, &(ox, oy)) in offsets.iter().enumerate() {
            let t = planes[oi].window_sum(x, y, nt);
            if !t.iter().all(|v| v.is_finite()) {
                sma_fault::note_natural_degradation();
                return (track_pixel(frames, cfg, x, y), f64::NEG_INFINITY);
            }
            if let Some((params, error)) = solve_moments(&s, &t) {
                if error < local_best.error {
                    local_second = local_best.error;
                    let (rx, ry) = refined_displacement(frames, cfg, x, y, ox, oy);
                    let z0 = surface_delta(frames, x, y, rx, ry);
                    local_best = MotionEstimate {
                        displacement: Vec2::new(rx as f32, ry as f32),
                        affine: LocalAffine::from_params(&params, rx as f64, ry as f64, z0),
                        error,
                        valid: true,
                    };
                } else if error < local_second {
                    local_second = error;
                }
            }
        }
        (local_best, local_second)
    };

    // Near-tie guard: where the moment path's winning margin is inside
    // the noise band of its own error precision, the argmin is not
    // trustworthy — re-evaluate those pixels with the exact kernel so
    // the winner (and the whole estimate) matches the sequential
    // reference by construction.
    let mut ties: Vec<(usize, usize)> = Vec::new();
    for &(x, y) in &interior {
        let (est, second) = evaluate(x, y);
        if est.valid && near_tie(est.error, second) {
            ties.push((x, y));
        }
        best.set(x, y, est);
    }
    NEAR_TIE_REROUTE.add(ties.len() as u64);
    // Re-routed ties are ultimately served by the exact kernel, so they
    // land in both the near-tie density and exact-dispatch planes.
    sma_obs::atlas::mark_batch(sma_obs::atlas::AtlasChannel::NearTie, &ties);
    sma_obs::atlas::mark_batch(sma_obs::atlas::AtlasChannel::DispatchExact, &ties);
    crate::cancel::checkpoint()?;
    for &(x, y) in &ties {
        best.set(x, y, track_pixel(frames, cfg, x, y));
    }

    Ok(SmaResult {
        estimates: best,
        region: bounds,
    })
}

/// Interior pixels served by the translation-only shed level.
static TRANSLATION_PIXELS: sma_obs::Counter = sma_obs::Counter::new("fastpath.translation_pixels");

/// The bottom rung of the load-shedding ladder: translation-only
/// `Fcont` matching on the moment planes.
///
/// Instead of solving the full 6 x 6 affine system per hypothesis, the
/// parameter vector is fixed to the diagonal translation solution
/// `a_k = atb[4] / S5`, `b_k = atb[5] / S11` (the same closed form the
/// armed-mode singular fallback uses), and the hypothesis error is the
/// usual least-squares identity evaluated at that vector. One moment
/// plane is resident at a time, no 6 x 6 solves, no near-tie exact
/// re-route — this is a **documented degraded mode** for saturated
/// tenants, not a conformance driver: border pixels (whose template
/// window crosses the frame edge) are left invalid rather than routed
/// through the exact kernel, and results are comparable but not
/// bit-identical to the full ladder. Deterministic for fixed inputs,
/// like every other driver.
///
/// # Errors
/// [`sma_fault::GridError::EmptyRegion`] if the region is empty for the
/// frame size; [`SmaError::DeadlineExceeded`] at a cancellation point.
pub fn track_all_translation_only(
    frames: &SmaFrames,
    cfg: &SmaConfig,
    region: Region,
) -> Result<SmaResult, SmaError> {
    let _span = sma_obs::span("track_translation_only");
    let (w, h) = frames.dims();
    let bounds = region.bounds_checked(w, h)?;
    crate::cancel::checkpoint()?;
    let ns = cfg.nzs as isize;
    let nt = cfg.nzt;
    let template = cfg.template_window();

    let mut best: Grid<MotionEstimate> = Grid::filled(w, h, MotionEstimate::invalid());
    let interior: Vec<(usize, usize)> = bounds
        .pixels()
        .filter(|&(x, y)| template.fits_at(x, y, w, h))
        .collect();
    TRANSLATION_PIXELS.add(interior.len() as u64);
    sma_obs::atlas::mark_batch(sma_obs::atlas::AtlasChannel::DispatchIntegral, &interior);
    if interior.is_empty() {
        return Ok(SmaResult {
            estimates: best,
            region: bounds,
        });
    }

    let stat = {
        let _span = sma_obs::span("static_moments");
        StaticMoments::compute(frames)
    };

    for oy in -ns..=ns {
        crate::cancel::checkpoint()?;
        for ox in -ns..=ns {
            OFFSET_PLANES.incr();
            let plane = offset_moments(frames, cfg, &stat, ox, oy);
            for &(x, y) in &interior {
                HYPOTHESES.incr();
                CORNER_LOOKUPS.add(8);
                let s = stat.sat.window_sum(x, y, nt);
                let t = plane.window_sum(x, y, nt);
                if s[5] <= 0.0 || s[11] <= 0.0 {
                    continue;
                }
                let ata = ata_from_static(&s);
                let atb = atb_from_moments(&s, &t);
                let btb = btb_from_moments(&s, &t);
                let sol = [0.0, 0.0, 0.0, 0.0, atb[4] / s[5], atb[5] / s[11]];
                let error = moment_error(&ata, &atb, btb, &sol);
                if error.is_finite() && error < best.at(x, y).error {
                    let (rx, ry) = refined_displacement(frames, cfg, x, y, ox, oy);
                    let z0 = surface_delta(frames, x, y, rx, ry);
                    best.set(
                        x,
                        y,
                        MotionEstimate {
                            displacement: Vec2::new(rx as f32, ry as f32),
                            affine: LocalAffine::from_params(&sol, rx as f64, ry as f64, z0),
                            error,
                            valid: true,
                        },
                    );
                }
            }
        }
    }

    Ok(SmaResult {
        estimates: best,
        region: bounds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MotionModel;
    use crate::motion::{evaluate_hypothesis, TemplateSample};
    use crate::sequential::track_all_sequential;
    use sma_grid::warp::translate;
    use sma_grid::BorderPolicy;

    fn wavy(w: usize, h: usize) -> Grid<f32> {
        Grid::from_fn(w, h, |x, y| {
            let (xf, yf) = (x as f32, y as f32);
            (xf * 0.45).sin() * 2.0 + (yf * 0.35).cos() * 1.5 + (xf * 0.12 + yf * 0.21).sin() * 3.0
        })
    }

    fn frames_for_shift(dx: f32, dy: f32, cfg: &SmaConfig) -> SmaFrames {
        let before = wavy(30, 30);
        let after = translate(&before, -dx, -dy, BorderPolicy::Clamp);
        SmaFrames::prepare(&before, &after, &before, &after, cfg).expect("prepare")
    }

    /// The moment assembly must reproduce the sample-loop normal
    /// equations: same solution and error (up to association order) for
    /// a single interior pixel and hypothesis.
    #[test]
    fn moments_match_sample_accumulation() {
        let cfg = SmaConfig::small_test(MotionModel::Continuous);
        let f = frames_for_shift(1.0, 0.0, &cfg);
        let stat = StaticMoments::compute(&f);
        let (x, y) = (15usize, 14usize);
        for (ox, oy) in [(0isize, 0isize), (1, 0), (-2, 2)] {
            let t = offset_moments(&f, &cfg, &stat, ox, oy);
            let (params, error) = solve_moments(
                &stat.sat.window_sum(x, y, cfg.nzt),
                &t.window_sum(x, y, cfg.nzt),
            )
            .expect("solvable");
            let (affine, exact_error) = evaluate_hypothesis(&f, &cfg, x, y, ox, oy).unwrap();
            let exact = affine.params();
            for k in 0..6 {
                assert!(
                    (params[k] - exact[k]).abs() <= 1e-9 + 1e-6 * exact[k].abs(),
                    "param {k}: {} vs {}",
                    params[k],
                    exact[k]
                );
            }
            assert!(
                (error - exact_error).abs() <= 1e-9 + 1e-6 * exact_error.abs(),
                "error {error} vs {exact_error} at offset ({ox},{oy})"
            );
        }
    }

    /// The static channel factorization against a direct per-sample
    /// computation of the A^T A entries.
    #[test]
    fn static_channels_are_ata_entries() {
        let s = TemplateSample {
            zx: 0.7,
            zy: -0.3,
            inv_e: 0.9,
            inv_g: 0.8,
            gx_obs: 0.5,
            gy_obs: 0.1,
        };
        let factors = [
            s.zx * s.inv_e * s.inv_e,
            s.zy * s.inv_e * s.inv_e,
            s.inv_e * s.inv_e,
            s.zx * s.inv_g * s.inv_g,
            s.zy * s.inv_g * s.inv_g,
            s.inv_g * s.inv_g,
        ];
        let ch = static_channels(&factors, s.zx, s.zy);
        let r1 = [-s.zx * s.inv_e, 0.0, -s.zy * s.inv_e, 0.0, s.inv_e, 0.0];
        let r2 = [0.0, -s.zx * s.inv_g, 0.0, -s.zy * s.inv_g, 0.0, s.inv_g];
        let entry = |i: usize, j: usize| r1[i] * r1[j] + r2[i] * r2[j];
        let expected = [
            entry(0, 0),
            entry(0, 2),
            -entry(0, 4),
            entry(2, 2),
            -entry(2, 4),
            entry(4, 4),
            entry(1, 1),
            entry(1, 3),
            -entry(1, 5),
            entry(3, 3),
            -entry(3, 5),
            entry(5, 5),
        ];
        for k in 0..12 {
            assert!((ch[k] - expected[k]).abs() < 1e-12, "channel {k}");
        }
    }

    #[test]
    fn translation_only_recovers_uniform_shift() {
        let cfg = SmaConfig::small_test(MotionModel::Continuous);
        let f = frames_for_shift(1.0, 1.0, &cfg);
        let region = Region::Interior { margin: 10 };
        let shed = track_all_translation_only(&f, &cfg, region).expect("translation-only");
        let mut right = 0usize;
        let mut total = 0usize;
        for (x, y) in shed.region.pixels() {
            let e = shed.estimates.at(x, y);
            assert!(e.valid, "interior pixel ({x},{y}) must track");
            total += 1;
            if (e.displacement.u - 1.0).abs() < 0.51 && (e.displacement.v - 1.0).abs() < 0.51 {
                right += 1;
            }
        }
        // A degraded mode, not an exact one: most pixels still land on
        // the true displacement for a pure translation.
        assert!(
            right * 10 >= total * 9,
            "translation-only found the shift at {right}/{total} pixels"
        );
    }

    #[test]
    fn cancelled_token_aborts_drivers_with_deadline_error() {
        let cfg = SmaConfig::small_test(MotionModel::Continuous);
        let f = frames_for_shift(1.0, 0.0, &cfg);
        let region = Region::Interior { margin: 10 };
        let token = crate::cancel::CancelToken::new();
        token.cancel(7, 3);
        let _g = crate::cancel::install(token);
        let expected = Err(SmaError::DeadlineExceeded {
            elapsed_ms: 7,
            budget_ms: 3,
        });
        assert_eq!(track_all_integral(&f, &cfg, region).map(|_| ()), expected);
        assert_eq!(
            track_all_translation_only(&f, &cfg, region).map(|_| ()),
            expected
        );
        assert_eq!(track_all_sequential(&f, &cfg, region).map(|_| ()), expected);
        assert_eq!(
            crate::pruned::track_all_pruned(&f, &cfg, region).map(|_| ()),
            expected
        );
        assert_eq!(
            crate::precompute::track_all_segmented(&f, &cfg, region, 2).map(|_| ()),
            expected
        );
    }

    #[test]
    fn fastpath_tracks_known_shift() {
        let cfg = SmaConfig::small_test(MotionModel::Continuous);
        let f = frames_for_shift(2.0, -1.0, &cfg);
        let r = track_all_integral(&f, &cfg, Region::Interior { margin: 10 }).expect("fastpath");
        for (x, y) in r.region.pixels() {
            let e = r.estimates.at(x, y);
            assert!(e.valid, "({x},{y})");
            assert_eq!(e.displacement, Vec2::new(2.0, -1.0), "({x},{y})");
        }
    }

    #[test]
    fn fastpath_matches_sequential_displacements() {
        for model in [MotionModel::Continuous, MotionModel::SemiFluid] {
            let cfg = SmaConfig::small_test(model);
            let f = frames_for_shift(1.0, 1.0, &cfg);
            let region = Region::Interior { margin: 10 };
            let exact = track_all_sequential(&f, &cfg, region).expect("sequential");
            let fast = track_all_integral(&f, &cfg, region).expect("fastpath");
            for (x, y) in exact.region.pixels() {
                let a = exact.estimates.at(x, y);
                let b = fast.estimates.at(x, y);
                assert_eq!(a.valid, b.valid, "({x},{y})");
                assert_eq!(a.displacement, b.displacement, "({x},{y})");
                assert!(
                    (a.error - b.error).abs() <= 1e-9 + 1e-6 * a.error.abs(),
                    "error at ({x},{y}): {} vs {}",
                    a.error,
                    b.error
                );
            }
        }
    }

    #[test]
    fn border_pixels_fall_back_to_exact_kernel() {
        let cfg = SmaConfig::small_test(MotionModel::Continuous);
        let f = frames_for_shift(1.0, 0.0, &cfg);
        let exact = track_all_sequential(&f, &cfg, Region::Full).expect("sequential");
        let fast = track_all_integral(&f, &cfg, Region::Full).expect("fastpath");
        let (w, h) = f.dims();
        let template = cfg.template_window();
        let mut checked = 0usize;
        for (x, y) in exact.region.pixels() {
            if !template.fits_at(x, y, w, h) {
                assert_eq!(
                    exact.estimates.at(x, y),
                    fast.estimates.at(x, y),
                    "({x},{y})"
                );
                checked += 1;
            }
        }
        assert!(checked > 0, "test must exercise border pixels");
    }

    #[test]
    fn flat_surface_untrackable_in_fastpath() {
        // Armed faults would swap the invalid result for a fallback.
        let _faults = sma_fault::exclusive();
        let cfg = SmaConfig::small_test(MotionModel::Continuous);
        let flat = Grid::filled(30, 30, 1.0f32);
        let f = SmaFrames::prepare(&flat, &flat, &flat, &flat, &cfg).expect("prepare");
        let r = track_all_integral(&f, &cfg, Region::Interior { margin: 10 }).expect("fastpath");
        for (x, y) in r.region.pixels() {
            assert!(!r.estimates.at(x, y).valid, "({x},{y})");
        }
    }

    #[test]
    fn near_tie_predicate_margins() {
        // Comfortable margins are not ties.
        assert!(!near_tie(1.0, 1.1));
        assert!(!near_tie(0.0, 1e-8));
        // Inside the absolute band near zero.
        assert!(near_tie(0.0, 1e-9));
        // Inside the relative band at scale.
        assert!(near_tie(1.0, 1.0 + 1e-6));
        assert!(!near_tie(1.0, 1.0 + 1e-5));
        // No runner-up (infinity init) or exact-kernel sentinel
        // (neg-infinity): never a tie.
        assert!(!near_tie(0.5, f64::INFINITY));
        assert!(!near_tie(0.5, f64::NEG_INFINITY));
        assert!(!near_tie(0.5, f64::NAN));
    }
}
