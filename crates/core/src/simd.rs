//! The lane-friendly moment kernels the pruned driver
//! ([`crate::pruned`]) evaluates candidates with, bit-identical to the
//! scalar fast path.
//!
//! Three structural wins over [`crate::fastpath`], with **zero** change
//! in output bits:
//!
//! 1. **Amortized solves.** `A^T A` depends only on the pixel's static
//!    window sums, never the hypothesis — so it is factored *once per
//!    pixel* ([`sma_linalg::gauss::Lu6`], which replays `solve6`'s exact
//!    elimination sequence) and each of the `(2 Nzs + 1)^2` hypotheses
//!    costs one forward/back substitution instead of a full Gaussian
//!    elimination.
//! 2. **Hoisted gradient planes.** The observed after-motion gradient
//!    `(-n_i/n_k, -n_j/n_k)` is a pure function of the after-frame
//!    geometry, but the scalar path re-divides per (pixel, offset).
//!    Here both gradient planes are divided once; under the continuous
//!    model each offset then reads them by clamped row shifts.
//! 3. **One resident, cell-interleaved offset plane.** Hypotheses are
//!    evaluated offset-at-a-time against a single reused padded SAT
//!    whose cells each hold all eight channels (`[f64; 8]`, one cache
//!    line): the zero pad row/column makes every corner lookup
//!    branch-free, a window sum reads four cells, and a build streams one
//!    contiguous row of cells per image row. The moment store never
//!    holds more than one offset — the scalar path allocates one
//!    `MomentIntegral` per offset per segment.
//!
//! Bit-identity is by construction, kernel by kernel: identical channel
//! products in identical order, identical per-channel prefix-sum
//! association (interleaving changes where a sum is stored, not how it
//! is formed), corner lookups with the same `((a - b) - c) + d` grouping
//! (the zero pad substitutes the same literal `0.0` the scalar branches
//! produce), and an LU apply proven (and tested) bit-equal to `solve6`.
//! The conformance matrix pins the pruned driver's contract against the
//! scalar integral family at run time.

use sma_grid::prune::inv3_spd;
use sma_grid::{Grid, Vec2};
use sma_linalg::gauss::Lu6;

use crate::affine::LocalAffine;
use crate::config::{MotionModel, SmaConfig};
use crate::fastpath::{
    ata_from_static, atb_from_moments, btb_from_moments, moment_error, StaticMoments,
    OFFSET_CHANNELS, STATIC_CHANNELS,
};
use crate::motion::{refined_displacement, surface_delta, track_pixel, MotionEstimate, SmaFrames};
use crate::template_map::semifluid_correspondence;

/// Per-pixel hypothesis-independent state: static window sums, the LU
/// factorization of `A^T A` (`None` = singular, which `solve6` would
/// report for *every* hypothesis of this pixel), and the inverted a- and
/// b-blocks the pruned driver's tight screen reads. `A^T A` itself (288
/// bytes) is not kept: [`eval_candidate`] re-expands it from `s` with
/// `ata_from_static`, as the factorization does.
pub(crate) struct PixelSystem {
    pub(crate) s: [f64; STATIC_CHANNELS],
    pub(crate) lu: Option<Lu6>,
    pub(crate) blocks: Option<BlockInverses>,
}

/// The two decoupled 3 x 3 blocks of a pixel's `A^T A`, inverted:
/// `A_a = [[S0, S1, -S2], [S1, S3, -S4], [-S2, -S4, S5]]` (parameters
/// `a_i, a_j, a_k`) and `A_b = [[S6, S7, -S8], [S7, S9, -S10], [-S8,
/// -S10, S11]]` (`b_i, b_j, b_k`), each positive definite with a margin
/// ([`sma_grid::prune::inv3_spd`]), and `kappa`, the larger of their two
/// Hadamard ratios: the condition estimate the tight screen's guard
/// scales with.
pub(crate) struct BlockInverses {
    pub(crate) inv_a: [f64; 9],
    pub(crate) inv_b: [f64; 9],
    pub(crate) kappa: f64,
}

impl BlockInverses {
    /// Both blocks of the static sums `s`, when both are positive
    /// definite with a margin.
    fn of(s: &[f64; STATIC_CHANNELS]) -> Option<Self> {
        let (inv_a, kappa_a) = inv3_spd(&[
            s[0], s[1], -s[2], //
            s[1], s[3], -s[4], //
            -s[2], -s[4], s[5],
        ])?;
        let (inv_b, kappa_b) = inv3_spd(&[
            s[6], s[7], -s[8], //
            s[7], s[9], -s[10], //
            -s[8], -s[10], s[11],
        ])?;
        Some(Self {
            inv_a,
            inv_b,
            kappa: kappa_a.max(kappa_b),
        })
    }
}

/// Per-pixel running search state, carried across the pruned driver's
/// candidate visits, whatever order they come in.
pub(crate) struct EvalState {
    pub(crate) best: MotionEstimate,
    /// Runner-up error (`inf` = none yet, `-inf` = pixel already holds
    /// an exact-kernel result and skips the rest of the search).
    pub(crate) second: f64,
    pub(crate) done: bool,
}

/// One offset's eight moment channels as one *padded, cell-interleaved*
/// SAT: `(w + 1) x (h + 1)` cells, each holding all eight channel prefix
/// sums of one pixel, with a permanent zero row 0 and column 0 so the
/// four-corner window lookup needs no boundary branches — the pad
/// supplies the same literal `0.0` the scalar `rect_sum` substitutes.
/// A window sum therefore reads four cells (four cache lines) instead of
/// 32 scattered table entries, and a build writes one contiguous row of
/// cells per image row. The buffer is built once and refilled per
/// offset; only the pad cells persist between fills.
pub(crate) struct OffsetPlanes {
    cells: Vec<Cell>,
    w1: usize,
    /// Mapped-gradient scratch rows, reused by every build.
    gx_row: Vec<f64>,
    gy_row: Vec<f64>,
}

/// One SAT cell: the eight channel prefix sums of one pixel, aligned to
/// a 64-byte cache line so every corner lookup touches exactly one line.
#[derive(Clone, Copy)]
#[repr(C, align(64))]
struct Cell([f64; OFFSET_CHANNELS]);

impl OffsetPlanes {
    pub(crate) fn new(w: usize, h: usize) -> Self {
        Self {
            cells: vec![Cell([0.0; OFFSET_CHANNELS]); (w + 1) * (h + 1)],
            w1: w + 1,
            gx_row: vec![0.0; w],
            gy_row: vec![0.0; w],
        }
    }

    /// The `(w, h)` image size the table was made for.
    pub(crate) fn dims(&self) -> (usize, usize) {
        (self.w1 - 1, self.cells.len() / self.w1 - 1)
    }

    /// Fill the table for hypothesis offset `(ox, oy)` over the image's
    /// top-left `cols x rows` block (see [`sat_extent`]). A SAT cell
    /// depends only on the pixels above and left of it, so the block's
    /// cells are exactly those of a full build; cells outside it keep
    /// stale values that no window inside the extent reads. The per-pixel
    /// channel products and the prefix accumulation order match
    /// [`sma_grid::MomentIntegral::from_fn`] exactly.
    #[allow(clippy::too_many_arguments)] // per-pair statics + offset + extent
    pub(crate) fn build(
        &mut self,
        frames: &SmaFrames,
        cfg: &SmaConfig,
        stat: &StaticMoments,
        gx_plane: &Grid<f64>,
        gy_plane: &Grid<f64>,
        (ox, oy): (isize, isize),
        (cols, rows): (usize, usize),
    ) {
        let (w, h) = frames.dims();
        let w1 = self.w1;
        let gx_row = &mut self.gx_row[..cols];
        let gy_row = &mut self.gy_row[..cols];
        for y in 0..rows {
            match cfg.model {
                MotionModel::Continuous => {
                    // The mapped gradient of (x, y) under (ox, oy) is the
                    // gradient plane at clamp(x + ox), clamp(y + oy):
                    // one clamped row pick plus a shifted contiguous
                    // copy with replicated edges.
                    let sy = (y as isize + oy).clamp(0, h as isize - 1) as usize;
                    shift_row(gx_plane.row(sy), ox, gx_row);
                    shift_row(gy_plane.row(sy), ox, gy_row);
                }
                MotionModel::SemiFluid => {
                    // Each pixel refines its correspondence through the
                    // discriminant search; the gradient planes then
                    // supply the same division results the scalar
                    // `mapped_gradient` computes at the mapped point.
                    for x in 0..cols {
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
                        let cx = qx.clamp(0, w as isize - 1) as usize;
                        let cy = qy.clamp(0, h as isize - 1) as usize;
                        gx_row[x] = gx_plane.at(cx, cy);
                        gy_row[x] = gy_plane.at(cx, cy);
                    }
                }
            }
            sma_grid::simd::note_rows(1, cols);
            // Row y of the image is padded row y + 1; its cells add the
            // running row sums to the finished cells of padded row y.
            let (done, rest) = self.cells.split_at_mut((y + 1) * w1);
            let above = &done[y * w1 + 1..];
            let mut row_sum = [0.0f64; OFFSET_CHANNELS];
            for (((cell, up), f), (&gx, &gy)) in rest[1..=cols]
                .iter_mut()
                .zip(above)
                .zip(stat.factors.row(y))
                .zip(gx_row.iter().zip(gy_row.iter()))
            {
                let [zx_e2, zy_e2, ie2, zx_g2, zy_g2, ig2] = *f;
                let t2 = ie2 * gx;
                let t5 = ig2 * gy;
                let v = [
                    zx_e2 * gx,
                    zy_e2 * gx,
                    t2,
                    zx_g2 * gy,
                    zy_g2 * gy,
                    t5,
                    t2 * gx,
                    t5 * gy,
                ];
                for k in 0..OFFSET_CHANNELS {
                    row_sum[k] += v[k];
                    cell.0[k] = row_sum[k] + up.0[k];
                }
            }
        }
    }

    /// Branch-free four-corner window sum of all channels over the
    /// `(2 nt + 1)^2` window at `(x, y)` — interior pixels only (the
    /// caller guarantees `x >= nt`, `y >= nt`). Same corner grouping as
    /// the scalar `rect_sum`.
    #[inline]
    pub(crate) fn window_sum(&self, x: usize, y: usize, nt: usize) -> [f64; OFFSET_CHANNELS] {
        let w1 = self.w1;
        let top = (y - nt) * w1;
        let bot = (y + nt + 1) * w1;
        let l = x - nt;
        let r = x + nt + 1;
        let a = &self.cells[bot + r].0;
        let b = &self.cells[bot + l].0;
        let c = &self.cells[top + r].0;
        let d = &self.cells[top + l].0;
        let mut out = [0.0f64; OFFSET_CHANNELS];
        for k in 0..OFFSET_CHANNELS {
            out[k] = ((a[k] - b[k]) - c[k]) + d[k];
        }
        out
    }
}

/// Per-pixel static phase of the pruned driver: the
/// static window sums, the LU factorization of `A^T A` (counted on
/// `factorizations`) and, where it factors, the inverted blocks, plus
/// the pixel's initial search state. Non-finite static sums re-route the
/// pixel through the exact kernel at once and mark it done — the scalar
/// path takes the same route at its first evaluation.
pub(crate) fn prefactor(
    frames: &SmaFrames,
    cfg: &SmaConfig,
    stat: &StaticMoments,
    (x, y): (usize, usize),
    factorizations: &'static sma_obs::Counter,
) -> (PixelSystem, EvalState) {
    let s = stat.sat.window_sum(x, y, cfg.nzt);
    if !s.iter().all(|v| v.is_finite()) {
        sma_fault::note_natural_degradation();
        return (
            PixelSystem {
                s,
                lu: None,
                blocks: None,
            },
            EvalState {
                best: track_pixel(frames, cfg, x, y),
                second: f64::NEG_INFINITY,
                done: true,
            },
        );
    }
    factorizations.incr();
    let lu = Lu6::factor(&ata_from_static(&s)).ok();
    let blocks = lu.as_ref().and_then(|_| BlockInverses::of(&s));
    (
        PixelSystem { s, lu, blocks },
        EvalState {
            best: MotionEstimate::invalid(),
            second: f64::INFINITY,
            done: false,
        },
    )
}

/// Evaluate hypothesis `(ox, oy)` for interior pixel `(x, y)` from the
/// candidate's offset window sums `t` (read once by the caller from the
/// offset's resident [`OffsetPlanes`]), updating the pixel's running best
/// and runner-up in place. Every candidate the pruned driver evaluates,
/// in its screened sweep or its raster sweep, goes through this one
/// function, so an evaluation yields the same bits whatever the order
/// candidates are visited in.
///
/// Returns `true` when the candidate took the moment evaluation — one
/// hypothesis and one solve, which the caller adds to
/// `sma.hypotheses_evaluated` and `sma.ge_solves` once per call, so
/// concurrent row bands do not contend on the shared counters — and
/// `false` when a non-finite window sum sent the pixel to the exact
/// kernel (which counts its own hypotheses).
#[inline]
pub(crate) fn eval_candidate(
    frames: &SmaFrames,
    cfg: &SmaConfig,
    (x, y): (usize, usize),
    sys: &PixelSystem,
    st: &mut EvalState,
    (ox, oy): (isize, isize),
    t: &[f64; OFFSET_CHANNELS],
) -> bool {
    if !t.iter().all(|v| v.is_finite()) {
        sma_fault::note_natural_degradation();
        st.best = track_pixel(frames, cfg, x, y);
        st.second = f64::NEG_INFINITY;
        st.done = true;
        return false;
    }
    let s = &sys.s;
    let atb = atb_from_moments(s, t);
    let btb = btb_from_moments(s, t);
    let sol = match &sys.lu {
        Some(lu) => {
            let mut b = atb;
            lu.solve(&mut b);
            b
        }
        None => {
            // Singular pixel: `solve6` fails for every hypothesis of this
            // pixel, so the armed-mode translation-only fallback (or the
            // disarmed skip) applies uniformly.
            if !sma_fault::enabled() || s[5] <= 0.0 || s[11] <= 0.0 {
                return true;
            }
            sma_fault::note_natural_degradation();
            [0.0, 0.0, 0.0, 0.0, atb[4] / s[5], atb[5] / s[11]]
        }
    };
    let error = moment_error(&ata_from_static(s), &atb, btb, &sol);
    if error < st.best.error {
        st.second = st.best.error;
        let (rx, ry) = refined_displacement(frames, cfg, x, y, ox, oy);
        let z0 = surface_delta(frames, x, y, rx, ry);
        st.best = MotionEstimate {
            displacement: Vec2::new(rx as f32, ry as f32),
            affine: LocalAffine::from_params(&sol, rx as f64, ry as f64, z0),
            error,
            valid: true,
        };
    } else if error < st.second {
        st.second = error;
    }
    true
}

/// The observed after-motion gradient planes `(-n_i/n_k, -n_j/n_k)`,
/// divided once per pixel of the after frame (win 2 of the module docs).
pub(crate) fn gradient_planes(frames: &SmaFrames) -> (Grid<f64>, Grid<f64>) {
    let (w, h) = frames.dims();
    let gx = Grid::from_fn(w, h, |x, y| {
        let a = frames.geo_after.at(x, y);
        -a.ni / a.nk
    });
    let gy = Grid::from_fn(w, h, |x, y| {
        let a = frames.geo_after.at(x, y);
        -a.nj / a.nk
    });
    (gx, gy)
}

/// `dst[x] = src[clamp(x + ox)]` for every `x < dst.len()` (at most
/// `src.len()`): contiguous interior copy, replicated edges — the
/// lane-friendly form of a clamped shifted row read.
pub(crate) fn shift_row(src: &[f64], ox: isize, dst: &mut [f64]) {
    let w = src.len();
    let n = dst.len();
    let lo = ((-ox).max(0) as usize).min(n);
    let hi = ((w as isize - ox).clamp(0, n as isize) as usize).max(lo);
    dst[..lo].fill(src[0]);
    if hi > lo {
        let s0 = (lo as isize + ox) as usize;
        dst[lo..hi].copy_from_slice(&src[s0..s0 + (hi - lo)]);
    }
    dst[hi..].fill(src[w - 1]);
}

/// The `(cols, rows)` image block an offset plane must cover so that the
/// `(2 nt + 1)^2` window of every pixel in `pixels` reads only built
/// cells: one past the largest window column and row.
pub(crate) fn sat_extent(
    pixels: impl Iterator<Item = (usize, usize)>,
    nt: usize,
) -> (usize, usize) {
    pixels.fold((0, 0), |(c, r), (x, y)| {
        (c.max(x + nt + 1), r.max(y + nt + 1))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MotionModel;
    use crate::fastpath::offset_moments;
    use sma_grid::warp::translate;
    use sma_grid::BorderPolicy;

    fn wavy(w: usize, h: usize) -> Grid<f32> {
        Grid::from_fn(w, h, |x, y| {
            let (xf, yf) = (x as f32, y as f32);
            (xf * 0.45).sin() * 2.0 + (yf * 0.35).cos() * 1.5 + (xf * 0.12 + yf * 0.21).sin() * 3.0
        })
    }

    #[test]
    fn shift_row_matches_clamped_reads() {
        let src: Vec<f64> = (0..13).map(|i| i as f64 * 1.5 - 3.0).collect();
        for n in [13usize, 9, 1] {
            let mut dst = vec![0.0f64; n];
            for ox in [-20isize, -5, -1, 0, 1, 7, 20] {
                shift_row(&src, ox, &mut dst);
                for x in 0..n {
                    let want = src[(x as isize + ox).clamp(0, 12) as usize];
                    assert_eq!(dst[x].to_bits(), want.to_bits(), "n={n} ox={ox} x={x}");
                }
            }
        }
    }

    #[test]
    fn interleaved_planes_match_moment_integral_windows() {
        // The cell-interleaved padded table against the scalar path's
        // `MomentIntegral<8>`, bit for bit: every width residue mod 8,
        // both models, one buffer refilled across offsets, and every
        // window that fits — so windows flush against all four pad
        // edges are included.
        for model in [MotionModel::Continuous, MotionModel::SemiFluid] {
            let cfg = SmaConfig::small_test(model);
            for w in 9..=17usize {
                let h = 12;
                let before = wavy(w, h);
                let after = translate(&before, -1.0, 0.5, BorderPolicy::Clamp);
                let f =
                    SmaFrames::prepare(&before, &after, &before, &after, &cfg).expect("prepare");
                let stat = StaticMoments::compute(&f);
                let (gx_plane, gy_plane) = gradient_planes(&f);
                let mut planes = OffsetPlanes::new(w, h);
                for (ox, oy) in [(-2isize, -1isize), (0, 0), (1, 2)] {
                    planes.build(&f, &cfg, &stat, &gx_plane, &gy_plane, (ox, oy), (w, h));
                    let want = offset_moments(&f, &cfg, &stat, ox, oy);
                    for nt in [0usize, 1, 3, 5] {
                        for y in nt..h - nt {
                            for x in nt..w - nt {
                                let got = planes.window_sum(x, y, nt);
                                let exp = want.window_sum(x, y, nt);
                                for k in 0..OFFSET_CHANNELS {
                                    assert_eq!(
                                        got[k].to_bits(),
                                        exp[k].to_bits(),
                                        "{model:?} w={w} offset ({ox},{oy}) nt={nt} ({x},{y}) ch {k}"
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}
