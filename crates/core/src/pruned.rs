//! The pruned-search fastpath driver — the production matcher: an
//! admissible block screen plus early termination in one seed-first
//! sweep, split across the free CPUs, building exact offset planes only
//! where a candidate survives the screen, on the [`crate::simd`] lane
//! kernels, bit-identical to the integral block.
//!
//! An exhaustive sweep evaluates every pixel against every
//! hypothesis offset — `(2 Nzs + 1)^2` O(1) moment evaluations per
//! pixel, plus one full 8-channel offset SAT *build* per offset. This
//! driver cuts both counts in four moves:
//!
//! 1. **A full-resolution lower bound per 2 x 2 block, before any plane
//!    is built.** For each frame-aligned 2 x 2 pixel block `(x / 2,
//!    y / 2)` and each offset it computes a *lower bound* on the
//!    minimized hypothesis error of every member pixel. The block's
//!    window is the bin-aligned part of its members' common template
//!    window, pixels `[2 (bx - r), 2 (bx + r) + 1]` (rows alike, `r =
//!    (nt - 1) / 2`; for odd `nt` exactly the common window), so it is a
//!    subset of each member's window, and a sum of squared residuals over
//!    a subset is at most the sum over the whole. The normal equations
//!    decouple into an a-block and a b-block (`err = err_a + err_b`), so
//!    the bound is the sum of both blocks' closed-form 3 x 3 minima over
//!    the block window: its static sums come from the static SAT (both
//!    blocks inverted once per call, [`sma_grid::prune::inv3_spd`]), its
//!    eight offset sums from a [`sma_grid::prune::BinnedMoments`] table
//!    over 2 x 2 pixel bins of the offset-channel products, refilled per
//!    offset at a quarter of the prefix-sum cost of a full plane. The
//!    bins sum samples, they do not blur them, so the window sums are
//!    full-resolution sums. Each block's *seed* — its bound argmin, the
//!    screen's displacement estimate — is folded into the fill; it is the
//!    seed of each member pixel. A block without a window (`nt = 0`) or
//!    with a block matrix [`sma_grid::prune::inv3_spd`] rejects or
//!    conditioned beyond `TIGHT_KAPPA_MAX` gets bound 0, which rejects
//!    nothing.
//! 2. **Seed-first single sweep.** Offsets are then visited once each:
//!    the distinct seed offsets first (most-seeded pixels first), then the
//!    rest in ascending raster order. At each offset a pixel takes the
//!    candidate if the offset is its seed or its block's bound passes the
//!    pixel's threshold; otherwise the candidate is skipped for good.
//!    The sweep walks blocks, each with the largest threshold of its
//!    searching members, and decides per member only where the bound
//!    passes that maximum. Meeting the seed early drives each pixel's
//!    best down at once, which makes the screen selective for everything
//!    visited later.
//! 3. **Safe termination, not approximate termination.** A candidate is
//!    skipped only when its block's deflated bound exceeds
//!    `(best + NEAR_TIE_ABS) / (1 - NEAR_TIE_REL)` — strictly outside
//!    the shared near-tie band around the running best — plus the
//!    pixel's own slack. The deflation is derived, not sampled
//!    (DESIGN.md §16): the bound's own rounding (`BLOCK_GUARD_REL`) per
//!    (block, offset), and per pixel, independent of the offset, the
//!    rounding of the block's and the member's window sums at the
//!    member's minimizer and the member's LU gap (`Screen::slack`). The
//!    winner can never be skipped (its true error is below every
//!    incumbent), no skipped candidate can change the near-tie verdict
//!    (it is provably outside the band around the final best), and every
//!    *evaluated* candidate goes through one evaluation
//!    ([`crate::simd`]'s `eval_candidate`: same plane SAT, same LU
//!    solve) — the same bits whatever the visit order. Output is
//!    therefore bit-identical to the driver's own raster sweep and to
//!    [`crate::fastpath`] by construction; the conformance matrix pins it
//!    at run time.
//! 4. **Exact planes only for survivors.** An offset's full plane is
//!    built — into one reused `OffsetPlanes` buffer, and only over the
//!    block the surviving windows read — when at least one pixel takes
//!    the candidate there, and every taken candidate is evaluated. On the
//!    paper's windows that is a few percent of the offsets on Florida and
//!    about an eighth on Luis, with ~1.6 LU evaluations per pixel.
//!
//! This module alone decides whether to screen. The screen arms only
//! where it pays and is provably safe: continuous model (the semi-fluid
//! correspondence search prices every sample of the bound table like an
//! exact-kernel sample), at least [`PRUNE_MIN_HYPOTHESES`] hypotheses,
//! the `SMA_PRUNE` toggle on, and a one-pass global scan confirming every
//! screen input is finite and bounded (which rules out the mid-search
//! non-finite-sum re-route, so the visit *order* cannot change which
//! exact-kernel fallback fires). Otherwise the driver runs a plain raster
//! sweep — every offset ascending, one resident plane — and the prune-off
//! equivalence tests assert not one output bit moves either way.
//!
//! **Bands.** With the screen armed, a call runs on one band per CPU
//! that no other thread calling this driver (or running one of its
//! bands) holds, and on none under `MIN_BAND_ROWS` interior rows, so a
//! serving pool with a worker per CPU runs one band per call. Unscreened,
//! a call runs one band. Band 0 runs on the calling thread, the rest on
//! `std::thread::scope` threads (or on the caller, should a spawn fail)
//! that share the pair's read-only static tables. A call runs in two
//! phases. In the first, each band factorizes the pixels of its row band
//! and fills the block bounds of one contiguous range of hypothesis
//! offsets for every block of the call — its chunk of one offset-major
//! bound table — keeping each block's seed over its range; the caller
//! merges the range seeds in range order with strict `<` (the first
//! minimum in raster order, whatever the band count) and counts the
//! pixels seeded at each offset into the one visit order of move 2. In
//! the second, every band searches its row band in that order. The row
//! cuts balance pixel counts: a SAT cell is a prefix sum from the frame
//! origin, so a band builds its planes from row 0 down to its last window
//! row, but only for the few offsets its survivors need. Each pixel meets
//! the same candidates in the same order, against the same bounds, as
//! with one band, so neither the output bits nor the per-pixel counters
//! depend on the band count. The buffers live in a scratch owned by the
//! calling thread and are reused across calls, and each band polls the
//! call's cancellation token (captured once: it is thread-local) at
//! every offset.

use std::cell::Cell;
use std::cmp::Reverse;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

use sma_fault::{FaultSite, SmaError};
use sma_grid::prune::{inv3_spd, quad_form, BinWindow, BinnedMoments};
use sma_grid::Grid;

use crate::cancel::CancelToken;
use crate::config::{MotionModel, SmaConfig};
use crate::fastpath::{
    atb_from_moments, btb_halves, near_tie, static_channels, StaticMoments, NEAR_TIE_ABS,
    NEAR_TIE_REL, OFFSET_CHANNELS, STATIC_CHANNELS,
};
use crate::motion::{track_pixel, MotionEstimate, SmaFrames, GE_SOLVES, HYPOTHESES};
use crate::sequential::{Region, SmaResult};
use crate::simd::{
    eval_candidate, fill_binned, gradient_planes, prefactor, sat_extent, EvalState, OffsetPlanes,
    PixelSystem,
};

/// Border pixels routed to the exact kernel (window crosses the edge).
static PRUNED_BORDER: sma_obs::Counter = sma_obs::Counter::new("pruned.border_fallback_pixels");
/// Interior pixels served by the pruned moment path.
static PRUNED_INTERIOR: sma_obs::Counter = sma_obs::Counter::new("pruned.interior_pixels");
/// Distinct offsets whose full plane was built in a call: an offset
/// counts once when any row band built its plane (a band builds each
/// offset's plane at most once, and only when one of its pixels is
/// evaluated there), so this stays at or below `(2 Nzs + 1)^2`. It
/// does not count the rows a lower band rebuilds above its own: SAT
/// cells are prefix sums from the frame origin, so every band fills its
/// plane from row 0 down to its last window row.
static PRUNED_PLANES: sma_obs::Counter = sma_obs::Counter::new("pruned.offset_planes_built");
/// Per-pixel `A^T A` LU factorizations (one per interior pixel).
static PRUNED_FACTORIZATIONS: sma_obs::Counter = sma_obs::Counter::new("pruned.lu_factorizations");
/// Pixels re-routed to the exact kernel by the shared near-tie guard.
static PRUNED_NEAR_TIE: sma_obs::Counter = sma_obs::Counter::new("pruned.near_tie_pixels");
/// Row bands the interior was split into, summed over calls (`1` per
/// call on a one-CPU host, on a small frame, unscreened, or while other
/// matcher threads hold the other CPUs).
static PRUNED_BANDS: sma_obs::Counter = sma_obs::Counter::new("pruned.bands");
/// Candidates never evaluated: at its offset's turn in the sweep, the
/// candidate was not its pixel's seed and its block's bound exceeded the
/// pixel's threshold. With `sma.hypotheses_evaluated` it sums to the
/// live pixels times the offsets. The non-vacuity tests pin this above
/// zero so the screen cannot silently degrade to an exhaustive sweep.
static CANDIDATES_SKIPPED: sma_obs::Counter = sma_obs::Counter::new("prune.candidates_skipped");

/// Minimum hypothesis count (`(2 nzs + 1)^2`) for the screen to pay for
/// itself: the bound fill costs roughly one binned SAT per offset, and
/// a 3 x 3 sweep has too few candidates to reject for that to win back.
/// On 96² Florida and Luis analogs (median of 15 alternating rounds,
/// identical output bits throughout) the screened sweep read 0.88–1.02×
/// the raster sweep's speed at 3 x 3, 1.12–1.28× at 5 x 5 and 1.83–2.60×
/// at 9 x 9 and 15 x 15.
pub const PRUNE_MIN_HYPOTHESES: usize = 25;

/// Fewest interior rows a row band may have. On a 2-CPU Xeon VM (median
/// of 10 alternating rounds per case), two bands against one read 1.07×
/// slower at 4 rows per band (Florida 15 x 15 search, 40² frames) but
/// 1.12× faster at 5 (Luis 9 x 9 search, 32²), 1.07–1.23× faster at 8–9
/// rows (5 x 5 search at 32², Luis 40², Florida 48²) and 1.14–1.5× at 13
/// rows and more. 10 keeps clear of the crossover and leaves 32² frames
/// at 5 x 5 search (18 interior rows, `serve_report --small`'s scenes) on
/// one band, with no spawn.
const MIN_BAND_ROWS: usize = 10;

/// Magnitude ceiling for the screen-arming scan. With every per-pixel
/// screen input below this, each moment channel is at most a cubic
/// product (`<= 1e180`) and every whole-frame prefix sum stays below
/// ~`1e185` — comfortably finite — so no window sum in *either* the
/// pruned or the exhaustive driver can go non-finite mid-search.
const SCREEN_MAX_MAGNITUDE: f64 = 1e60;

/// Absolute deflation of the block bound, absorbing accumulation noise
/// around zero.
const LB_GUARD_ABS: f64 = 1e-9;
/// Multiplicative safety factor on the block bound: it absorbs the
/// second-order terms the guard's derivation drops (products of
/// roundings, and the computed Hadamard ratios standing in for exact
/// ones), at the cost of not rejecting candidates within 0.1 % of the
/// threshold — which the near-tie band would have re-routed anyway.
const LB_SAFETY_REL: f64 = 1e-3;
/// Hadamard-ratio ceiling of the screen: a block or a pixel whose a- or
/// b-block has a larger ratio ([`sma_grid::prune::inv3_spd`]) gets no
/// screen (bound 0, or infinite slack). The guard's derivation (DESIGN.md
/// §16) needs the ratio far below `~3e13`; at 1e8 its first-order terms
/// stay below 1e-5 relative.
const TIGHT_KAPPA_MAX: f64 = 1e8;
/// Guard of the block bound's own closed form, per unit of the block's
/// Hadamard ratio and of pre-cancellation magnitude: the adjugate
/// inverses and the quadratic forms err by at most `128 u kappa q` and
/// the final additions by `2 u mag` (`u = 2^-53`, DESIGN.md §16), so
/// `130 u kappa mag` bounds it. This is `256 u`.
const BLOCK_GUARD_REL: f64 = 128.0 * f64::EPSILON;
/// A member pixel's LU gap per unit of its Hadamard ratio and of its
/// bound on `c_a + c_b`: evaluating the dense error at the LU solution
/// errs below the closed-form minimum by at most `473 u kappa (q_a +
/// q_b) + 2 u mag <= 477 u kappa (c_a + c_b)` (DESIGN.md §16). This is
/// `512 u`.
const LU_GAP_REL: f64 = 256.0 * f64::EPSILON;
/// Window-sum roundings the guard covers per channel, each within
/// `4 gamma_N` of the frame's absolute channel sum (four prefix corners
/// of at most `N = w + h + 8` rounded additions each): the block's
/// static and binned sums, the member's static and plane sums, and one
/// more for the per-pixel products.
const SUM_ROUNDINGS: f64 = 17.0;

/// A candidate with a bound above `skip_threshold(best)` is *strictly*
/// outside the near-tie band around the running best: even if it were
/// evaluated, it could neither win nor trigger (or suppress) the
/// near-tie re-route. `best = inf` (no incumbent yet) skips nothing.
#[inline]
fn skip_threshold(best: f64) -> f64 {
    if best.is_finite() {
        (best + NEAR_TIE_ABS) / (1.0 - NEAR_TIE_REL)
    } else {
        f64::INFINITY
    }
}

/// A pixel's cached sweep threshold: [`skip_threshold`] of its running
/// best plus its guard `slack`, or NaN once the pixel is done (it holds
/// an exact-kernel result and takes no further candidates, evaluated or
/// skipped).
fn search_threshold(st: &EvalState, slack: f64) -> f64 {
    if st.done {
        f64::NAN
    } else {
        skip_threshold(st.best.error) + slack
    }
}

/// The a-block `[[S0, S1, -S2], [S1, S3, -S4], [-S2, -S4, S5]]`
/// (parameters `a_i, a_j, a_k`) and the b-block `[[S6, S7, -S8], [S7,
/// S9, -S10], [-S8, -S10, S11]]` (`b_i, b_j, b_k`) of `A^T A`, from the
/// static window sums.
fn blocks_of(s: &[f64; STATIC_CHANNELS]) -> [[f64; 9]; 2] {
    [
        [s[0], s[1], -s[2], s[1], s[3], -s[4], -s[2], -s[4], s[5]],
        [s[6], s[7], -s[8], s[7], s[9], -s[10], -s[8], -s[10], s[11]],
    ]
}

/// Both blocks of `s` inverted, with the larger of their Hadamard
/// ratios, when both are positive definite with a margin and that ratio
/// is at most [`TIGHT_KAPPA_MAX`].
fn inverted_blocks(s: &[f64; STATIC_CHANNELS]) -> Option<([[f64; 9]; 2], [f64; 2])> {
    let [a, b] = blocks_of(s);
    let (inv_a, kappa_a) = inv3_spd(&a)?;
    let (inv_b, kappa_b) = inv3_spd(&b)?;
    (kappa_a.max(kappa_b) <= TIGHT_KAPPA_MAX).then_some(([inv_a, inv_b], [kappa_a, kappa_b]))
}

/// The screen of one frame-aligned 2 x 2 pixel block: its window's
/// corners in the binned table, its static window sums, both inverted
/// blocks and the larger of their Hadamard ratios.
struct BlockSystem {
    win: BinWindow,
    s: [f64; STATIC_CHANNELS],
    inv: [[f64; 9]; 2],
    kappa: f64,
}

impl BlockSystem {
    /// The block's deflated lower bound from its window's offset sums
    /// `t`: the a- and b-blocks' closed-form minima, from the terms the
    /// LU evaluation forms (`atb_from_moments`, `btb_halves`), less the
    /// closed form's own rounding guard. Neither block is clamped at
    /// zero: the members' LU errors clamp only their sums.
    #[inline]
    fn bound(&self, t: &[f64; OFFSET_CHANNELS]) -> f64 {
        let atb = atb_from_moments(&self.s, t);
        let [c_a, c_b] = btb_halves(&self.s, t);
        let q_a = quad_form(&[atb[0], atb[2], atb[4]], &self.inv[0]);
        let q_b = quad_form(&[atb[1], atb[3], atb[5]], &self.inv[1]);
        let raw = (c_a - q_a) + (c_b - q_b);
        let mag = c_a.abs() + q_a.abs() + c_b.abs() + q_b.abs();
        (raw - (LB_GUARD_ABS + BLOCK_GUARD_REL * self.kappa * mag)) * (1.0 - LB_SAFETY_REL)
    }
}

/// The armed screen's per-call state, read by every band: the grid of
/// 2 x 2 blocks over the bounding box of the interior, and the guard's
/// per-call constants.
struct Screen {
    /// The grid's top-left block `(bx0, by0)`; block `(bx, by)` has index
    /// `(by - by0) * nbx + (bx - bx0)`.
    origin: (usize, usize),
    nbx: usize,
    /// Per block: its system, or `None` for bound 0.
    blocks: Vec<Option<BlockSystem>>,
    /// Bin rows a fill must cover: one past the last block window's.
    bin_rows: usize,
    /// The largest `|gx|` and `|gy|` of the gradient planes, which bound
    /// every mapped gradient.
    g_max: [f64; 2],
    /// Per static and per offset channel, the rounding budget of the
    /// window sums ([`SUM_ROUNDINGS`] `gamma_N` times a bound on the
    /// frame's absolute channel sum).
    eps_s: [f64; STATIC_CHANNELS],
    eps_t: [f64; OFFSET_CHANNELS],
}

impl Screen {
    /// The block grid over `interior` (raster order, non-empty) with each
    /// block's static sums and inverted blocks, and the guard constants.
    fn new(
        frames: &SmaFrames,
        cfg: &SmaConfig,
        stat: &StaticMoments,
        (gx_plane, gy_plane): (&Grid<f64>, &Grid<f64>),
        interior: &[(usize, usize)],
    ) -> Self {
        let (w, h) = frames.dims();
        let (bx0, bx1) = interior.iter().fold((usize::MAX, 0), |(lo, hi), &(x, _)| {
            (lo.min(x / 2), hi.max(x / 2))
        });
        let by0 = interior[0].1 / 2;
        let by1 = interior[interior.len() - 1].1 / 2;
        let nbx = bx1 - bx0 + 1;
        // No common window exists at `nt = 0`.
        let r = cfg.nzt.checked_sub(1).map(|n| n / 2);
        let blocks = (0..nbx * (by1 - by0 + 1))
            .map(|b| {
                let (bx, by) = (bx0 + b % nbx, by0 + b / nbx);
                let r = r?;
                let lo = (bx.checked_sub(r)?, by.checked_sub(r)?);
                let win = BinWindow::new((w, h), lo, (bx + r, by + r))?;
                let s = stat
                    .sat
                    .rect_sum(2 * lo.0, 2 * lo.1, 2 * (bx + r) + 1, 2 * (by + r) + 1);
                let (inv, kappa) = inverted_blocks(&s)?;
                Some(BlockSystem {
                    win,
                    s,
                    inv,
                    kappa: kappa[0].max(kappa[1]),
                })
            })
            .collect();
        let g_max = [gx_plane, gy_plane].map(|g| g.iter().fold(0.0f64, |m, v| m.max(v.abs())));
        let mut sum_s = [0.0f64; STATIC_CHANNELS];
        let mut sum_f = [0.0f64; 6];
        for y in 0..h {
            for (x, f) in stat.factors.row(y).iter().enumerate() {
                let g = frames.geo_before.at(x, y);
                for (acc, v) in sum_s.iter_mut().zip(static_channels(f, g.zx, g.zy)) {
                    *acc += v.abs();
                }
                for (acc, v) in sum_f.iter_mut().zip(f) {
                    *acc += v.abs();
                }
            }
        }
        let [gx, gy] = g_max;
        let sum_t = [
            gx * sum_f[0],
            gx * sum_f[1],
            gx * sum_f[2],
            gy * sum_f[3],
            gy * sum_f[4],
            gy * sum_f[5],
            gx * gx * sum_f[2],
            gy * gy * sum_f[5],
        ];
        let nu = (w + h + 8) as f64 * (0.5 * f64::EPSILON);
        let budget = SUM_ROUNDINGS * nu / (1.0 - nu);
        Self {
            origin: (bx0, by0),
            nbx,
            blocks,
            bin_rows: r.map_or(0, |r| by1 + r + 1),
            g_max,
            eps_s: sum_s.map(|v| budget * v),
            eps_t: sum_t.map(|v| budget * v),
        }
    }

    /// Index of pixel `(x, y)`'s block in the grid.
    fn block_of(&self, (x, y): (usize, usize)) -> usize {
        (y / 2 - self.origin.1) * self.nbx + (x / 2 - self.origin.0)
    }

    /// The offset-independent part of a member pixel's guard, which
    /// [`search_threshold`] adds to its threshold (DESIGN.md §16): the
    /// rounding of the block's and the member's window sums at the
    /// member's minimizer, and the member's LU gap with `q <= c <= (G_x
    /// sqrt(S5) + sqrt(S0))^2 + (G_y sqrt(S11) + sqrt(S9))^2`. Infinite —
    /// the pixel is never skipped — without an LU factor or usable blocks.
    fn slack(&self, sys: &PixelSystem) -> f64 {
        let s = &sys.s;
        let Some((_, [kappa_a, kappa_b])) = sys.lu.as_ref().and_then(|_| inverted_blocks(s)) else {
            return f64::INFINITY;
        };
        let [gx, gy] = self.g_max;
        let sums = self.sum_rounding(s, 0, [0, 1, 2, 6], kappa_a, gx)
            + self.sum_rounding(s, 6, [3, 4, 5, 7], kappa_b, gy);
        let c =
            (gx * s[5].sqrt() + s[0].sqrt()).powi(2) + (gy * s[11].sqrt() + s[9].sqrt()).powi(2);
        sums + LU_GAP_REL * kappa_a.max(kappa_b) * c
    }

    /// One block's window-sum rounding at the member's minimizer: block
    /// `o` (static channels `o .. o + 6`, offset channels `t`: the three
    /// linear ones and the square), Hadamard ratio `kappa` and gradient
    /// bound `g`. The minimizer lies within `sqrt(2.25 kappa g^2 S_(o+5)
    /// / S_d)`, along each diagonal entry `S_d`, of the parameters at
    /// which every residual is the mapped gradient alone, and each
    /// channel's rounding scales with its monomial there.
    fn sum_rounding(
        &self,
        s: &[f64; STATIC_CHANNELS],
        o: usize,
        t: [usize; 4],
        kappa: f64,
        g: f64,
    ) -> f64 {
        let reach = 2.25 * kappa * g * g * s[o + 5];
        let [p, q, z] = [s[o], s[o + 3], s[o + 5]].map(|d| (reach / d).sqrt());
        let (es, et) = (&self.eps_s, &self.eps_t);
        es[o] * p * p
            + es[o + 3] * q * q
            + es[o + 5] * z * z
            + 2.0 * (es[o + 1] * p * q + es[o + 2] * p * z + es[o + 4] * q * z)
            + 2.0 * (et[t[0]] * p + et[t[1]] * q + et[t[2]] * z)
            + et[t[3]]
    }
}

/// True when every per-pixel input the screen (and the offset planes)
/// consumes is finite and within [`SCREEN_MAX_MAGNITUDE`] — the
/// precondition under which no window sum can go non-finite, so the
/// reordered search provably fires the same fallbacks as the raster
/// sweep.
fn screen_inputs_bounded(
    frames: &SmaFrames,
    stat: &StaticMoments,
    gx_plane: &Grid<f64>,
    gy_plane: &Grid<f64>,
) -> bool {
    let (w, h) = frames.dims();
    let ok = |v: f64| v.is_finite() && v.abs() <= SCREEN_MAX_MAGNITUDE;
    for y in 0..h {
        for x in 0..w {
            let g = frames.geo_before.at(x, y);
            if !ok(g.zx) || !ok(g.zy) || !ok(gx_plane.at(x, y)) || !ok(gy_plane.at(x, y)) {
                return false;
            }
            if !stat.factors.at(x, y).iter().all(|&f| ok(f)) {
                return false;
            }
        }
    }
    true
}

/// CPUs this process may run on, read once. `available_parallelism`
/// honours the affinity mask, so under `taskset -c 0` this is 1.
fn cpus() -> usize {
    static CPUS: OnceLock<usize> = OnceLock::new();
    *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Row bands worth running over an interior `height` rows tall: one per
/// CPU, none shorter than [`MIN_BAND_ROWS`], and one when the screen is
/// off — an unscreened sweep builds every offset's plane, and a lower
/// band rebuilds its plane from row 0, so on `hotpath_report`'s large
/// scene (2-CPU Xeon VM) two unscreened bands read 31.8 ms against one
/// band's 31.1 ms.
fn useful_bands(height: usize, screened: bool) -> usize {
    if screened {
        cpus().min(height / MIN_BAND_ROWS).max(1)
    } else {
        1
    }
}

/// Threads of this process that keep a CPU busy with the pruned driver:
/// every live thread that has called it (a serving pool's workers stay
/// counted between frames, while they prepare the next one) and every
/// band thread now running. A bare count that publishes no other data.
static BUSY: AtomicUsize = AtomicUsize::new(0);

/// Counts its thread in [`BUSY`] from the thread's first pruned call
/// until the thread exits.
struct MatcherThread;

impl Drop for MatcherThread {
    fn drop(&mut self) {
        BUSY.fetch_sub(1, Ordering::AcqRel);
    }
}

thread_local! {
    static MATCHER: MatcherThread = {
        BUSY.fetch_add(1, Ordering::AcqRel);
        MatcherThread
    };
}

/// Band threads a call wanting `want` bands may spawn beside its caller
/// while `busy` threads hold the `cpus`: one per CPU nobody holds.
fn spare_bands(busy: usize, cpus: usize, want: usize) -> usize {
    cpus.saturating_sub(busy).min(want.saturating_sub(1))
}

/// The band threads one call may spawn, held in [`BUSY`] until dropped.
/// Concurrent callers share the CPUs this way instead of each spawning
/// one band per CPU: with as many matcher threads as CPUs, every call
/// runs one band on its caller.
struct BandClaim(usize);

impl BandClaim {
    /// Count the calling thread as a matcher thread, then claim up to
    /// `want - 1` band threads beside it ([`spare_bands`]).
    fn take(want: usize) -> Self {
        // A thread already tearing down its thread-locals stays uncounted.
        let _ = MATCHER.try_with(|_| ());
        let mut got = 0;
        // The update closure always returns `Some`, so it cannot fail.
        let _ = BUSY.fetch_update(Ordering::AcqRel, Ordering::Acquire, |busy| {
            got = spare_bands(busy, cpus(), want);
            Some(busy + got)
        });
        Self(got)
    }

    /// The call's band count: the caller's band and the claimed threads.
    fn bands(&self) -> usize {
        self.0 + 1
    }
}

impl Drop for BandClaim {
    fn drop(&mut self) {
        BUSY.fetch_sub(self.0, Ordering::AcqRel);
    }
}

/// Boundaries of at most `n` contiguous row bands over raster-ordered
/// `pixels`, as indices into it (first `0`, last `pixels.len()`), each
/// band at least one row: band `k` starts at the first row that begins
/// at or after pixel `k * len / n`, so the bands hold about equal pixel
/// counts.
fn split_bands(pixels: &[(usize, usize)], n: usize) -> Vec<usize> {
    if pixels.is_empty() {
        return vec![0, 0];
    }
    // Index of each row's first pixel.
    let starts: Vec<usize> = (0..pixels.len())
        .filter(|&i| i == 0 || pixels[i].1 != pixels[i - 1].1)
        .collect();
    let rows = starts.len();
    let n = n.clamp(1, rows);
    let mut cuts = vec![0];
    for k in 1..n {
        let row = starts
            .partition_point(|&s| s < k * pixels.len() / n)
            .clamp(cuts[k - 1] + 1, rows - (n - k));
        cuts.push(row);
    }
    let mut cuts: Vec<usize> = cuts.into_iter().map(|r| starts[r]).collect();
    cuts.push(pixels.len());
    cuts
}

/// What one call did, summed over its bands.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Tally {
    /// Row bands the interior was split into.
    bands: usize,
    /// Candidates that took the moment evaluation.
    evaluated: u64,
    /// Candidates the screen skipped.
    skipped: u64,
    /// Distinct offsets whose plane some band built.
    planes_built: u64,
    /// Pixels the near-tie guard re-routed to the exact kernel.
    near_ties: u64,
}

/// The pair's read-only inputs, shared by every band.
struct Shared<'a> {
    frames: &'a SmaFrames,
    cfg: &'a SmaConfig,
    stat: StaticMoments,
    gx_plane: Grid<f64>,
    gy_plane: Grid<f64>,
    /// The block grid and guard constants; `Some` exactly when the
    /// screen is armed.
    screen: Option<Screen>,
    /// Hypothesis offsets in ascending raster order.
    offsets: Vec<(isize, isize)>,
    /// The calling thread's cancellation token, captured once: a band
    /// thread cannot see the caller's thread-local token.
    cancel: Option<CancelToken>,
}

impl<'a> Shared<'a> {
    /// The shared static phase: the moment SAT, the hoisted gradient
    /// planes and, where the screen arms (see the module docs), its
    /// block grid over `interior`.
    fn new(
        frames: &'a SmaFrames,
        cfg: &'a SmaConfig,
        interior: &[(usize, usize)],
        cancel: Option<CancelToken>,
    ) -> Self {
        let static_span = sma_obs::span("pruned_static");
        let stat = StaticMoments::compute(frames);
        let (gx_plane, gy_plane) = gradient_planes(frames);
        drop(static_span);
        let side = 2 * cfg.nzs + 1;
        let screen_on = cfg.model == MotionModel::Continuous
            && side * side >= PRUNE_MIN_HYPOTHESES
            && !interior.is_empty()
            && sma_grid::prune::enabled()
            && screen_inputs_bounded(frames, &stat, &gx_plane, &gy_plane);
        let screen = screen_on.then(|| {
            let _screen_span = sma_obs::span("pruned_screen");
            Screen::new(frames, cfg, &stat, (&gx_plane, &gy_plane), interior)
        });
        let ns = cfg.nzs as isize;
        Self {
            frames,
            cfg,
            stat,
            gx_plane,
            gy_plane,
            screen,
            offsets: (-ns..=ns)
                .flat_map(|oy| (-ns..=ns).map(move |ox| (ox, oy)))
                .collect(),
            cancel,
        }
    }

    /// A band's cancellation point, polled once per offset.
    fn poll(&self) -> Result<(), SmaError> {
        match &self.cancel {
            Some(t) if t.is_cancelled() => Err(t.error()),
            _ => Ok(()),
        }
    }
}

/// `slot`'s value, first replaced by `make()` unless it `fits`.
fn reuse<T>(slot: &mut Option<T>, fits: impl Fn(&T) -> bool, make: impl FnOnce() -> T) -> &mut T {
    if !slot.as_ref().is_some_and(fits) {
        *slot = None;
    }
    slot.get_or_insert_with(make)
}

/// One band's working buffers. They live in the calling thread's
/// [`SCRATCH`] and are reused across calls, so a band thread allocates
/// nothing and repeated calls do not churn the heap.
#[derive(Default)]
struct Band {
    systems: Vec<PixelSystem>,
    states: Vec<EvalState>,
    /// Per pixel: the offset-independent part of its guard
    /// ([`Screen::slack`]), added to its threshold.
    slack: Vec<f64>,
    /// Per pixel: its 2 x 2 block's index in the call's block grid.
    block_of: Vec<usize>,
    /// The blocks the band's pixels belong to, in grid order: each
    /// block's grid index and the range of its members in `members`.
    blocks: Vec<(usize, Range<usize>)>,
    /// The band's pixel indices grouped by block.
    members: Vec<usize>,
    /// Per band block: the largest threshold of its searching members
    /// and how many of them are searching.
    block_thr: Vec<(f64, u64)>,
    /// Phase one: per grid block, its smallest bound over the band's
    /// offset range and that bound's offset index.
    seeds: Vec<(f64, usize)>,
    /// Per pixel: its cached sweep threshold ([`search_threshold`]).
    thr: Vec<f64>,
    /// Pixels evaluated at the current offset.
    todo: Vec<usize>,
    /// Band blocks with a member evaluated at the current offset.
    touched: Vec<usize>,
    /// Per offset: whether the band built that offset's plane.
    built: Vec<bool>,
    planes: Option<OffsetPlanes>,
    binned: Option<BinnedMoments<OFFSET_CHANNELS>>,
    /// Shifted gradient rows for the binned fill.
    gather: [Vec<f64>; 2],
    evaluated: u64,
    skipped: u64,
}

/// The calling thread's buffers for one call: the bands', the
/// offset-major bound table `lb[oi * nb + b]` (over its first `n_off *
/// nb` entries; it only grows, and every call overwrites the entries it
/// reads) and the merged per-block seeds.
#[derive(Default)]
struct Scratch {
    bands: Vec<Band>,
    lb: Vec<f64>,
    seeds: Vec<(f64, usize)>,
}

thread_local! {
    /// The calling thread's buffers (see [`Scratch`]).
    static SCRATCH: Cell<Scratch> = const {
        Cell::new(Scratch {
            bands: Vec::new(),
            lb: Vec::new(),
            seeds: Vec::new(),
        })
    };
}

/// The largest threshold among `members` still searching, and their
/// count (`-inf` and 0 when none is).
fn block_threshold(thr: &[f64], members: &[usize]) -> (f64, u64) {
    members
        .iter()
        .map(|&i| thr[i])
        .filter(|t| !t.is_nan())
        .fold((f64::NEG_INFINITY, 0), |(m, n), t| (m.max(t), n + 1))
}

impl Band {
    /// Phase one: the per-pixel factorizations and guard slacks of the
    /// band's `pixels` and, with the screen armed, the deflated bound of
    /// every block at each offset of `range`, written offset-major into
    /// `lb` (the range's chunk of the call's table), with each block's
    /// seed over the range.
    fn prepare(
        &mut self,
        sh: &Shared,
        pixels: &[(usize, usize)],
        range: Range<usize>,
        lb: &mut [f64],
    ) -> Result<(), SmaError> {
        let (frames, cfg) = (sh.frames, sh.cfg);
        self.evaluated = 0;
        self.skipped = 0;
        self.built.clear();
        self.built.resize(sh.offsets.len(), false);
        self.seeds.clear();
        self.block_of.clear();
        self.blocks.clear();
        self.members.clear();
        let static_span = sma_obs::span("pruned_static");
        self.systems.clear();
        self.states.clear();
        self.slack.clear();
        for &p in pixels {
            let (sys, st) = prefactor(frames, cfg, &sh.stat, p, &PRUNED_FACTORIZATIONS);
            self.slack
                .push(sh.screen.as_ref().map_or(0.0, |scr| scr.slack(&sys)));
            self.systems.push(sys);
            self.states.push(st);
        }
        drop(static_span);
        let Some(screen) = &sh.screen else {
            return Ok(());
        };

        // The band's blocks and their members, in grid order.
        self.block_of
            .extend(pixels.iter().map(|&p| screen.block_of(p)));
        self.members.extend(0..pixels.len());
        let block_of = &self.block_of;
        self.members.sort_by_key(|&i| block_of[i]);
        let mut start = 0;
        for run in self.members.chunk_by(|&i, &j| block_of[i] == block_of[j]) {
            self.blocks
                .push((block_of[run[0]], start..start + run.len()));
            start += run.len();
        }

        // One deflated bound per (offset, block) over the band's range,
        // from one binned table refilled per offset down to the last
        // block window's row. Each block's seed over the range — the
        // offset with the smallest bound, strict `<` so the first in
        // raster order wins ties — folds into the fill.
        let _screen_span = sma_obs::span("pruned_screen");
        let (w, h) = frames.dims();
        let nb = screen.blocks.len();
        self.seeds.resize(nb, (f64::INFINITY, 0));
        let binned = reuse(
            &mut self.binned,
            |b| b.bins() == (w / 2, h / 2),
            || BinnedMoments::new(w, h),
        );
        let planes = (&sh.gx_plane, &sh.gy_plane);
        for (oi, out) in range.zip(lb.chunks_mut(nb)) {
            sh.poll()?;
            fill_binned(
                binned,
                &sh.stat,
                planes,
                sh.offsets[oi],
                screen.bin_rows,
                &mut self.gather,
            );
            for ((b, sys), seed) in out.iter_mut().zip(&screen.blocks).zip(&mut self.seeds) {
                *b = sys
                    .as_ref()
                    .map_or(0.0, |sys| sys.bound(&binned.sum(&sys.win)));
                if *b < seed.0 {
                    *seed = (*b, oi);
                }
            }
        }
        Ok(())
    }

    /// Phase two: visit the offsets in the call's `order`. At each, a
    /// pixel takes the candidate if the screen is off, the offset is its
    /// block's seed (`seeds`, merged over all ranges) or its block's bound
    /// (`lb`) passes the pixel's threshold (cached per pixel, renewed
    /// after each evaluation); a block whose bound exceeds the largest
    /// threshold of its searching members skips them all at once. The
    /// offset's plane is built into the band's one resident buffer, over
    /// the block the taken windows read, only when some pixel takes it,
    /// and every taken candidate is evaluated.
    fn search(
        &mut self,
        sh: &Shared,
        pixels: &[(usize, usize)],
        order: &[usize],
        lb: &[f64],
        seeds: &[(f64, usize)],
    ) -> Result<(), SmaError> {
        let (frames, cfg) = (sh.frames, sh.cfg);
        let (w, h) = frames.dims();
        let screened = sh.screen.is_some();
        let planes = reuse(
            &mut self.planes,
            |p| p.dims() == (w, h),
            || OffsetPlanes::new(w, h),
        );
        self.thr.clear();
        self.thr.extend(
            self.states
                .iter()
                .zip(&self.slack)
                .map(|(st, &slack)| search_threshold(st, slack)),
        );
        self.block_thr.clear();
        self.block_thr.extend(
            self.blocks
                .iter()
                .map(|(_, m)| block_threshold(&self.thr, &self.members[m.clone()])),
        );
        let nb = seeds.len();
        for &oi in order {
            sh.poll()?;
            let (ox, oy) = sh.offsets[oi];
            self.todo.clear();
            self.touched.clear();
            if screened {
                let col = &lb[oi * nb..(oi + 1) * nb];
                for (j, ((b, members), &(max_thr, live))) in
                    self.blocks.iter().zip(&self.block_thr).enumerate()
                {
                    if live == 0 {
                        continue;
                    }
                    let (bound, seeded) = (col[*b], seeds[*b].1 == oi);
                    if !seeded && bound > max_thr {
                        self.skipped += live;
                        continue;
                    }
                    let first = self.todo.len();
                    for &i in &self.members[members.clone()] {
                        let t = self.thr[i];
                        if t.is_nan() {
                            continue;
                        }
                        if !seeded && bound > t {
                            self.skipped += 1;
                        } else {
                            self.todo.push(i);
                        }
                    }
                    if self.todo.len() > first {
                        self.touched.push(j);
                    }
                }
            } else {
                self.todo
                    .extend((0..pixels.len()).filter(|&i| !self.thr[i].is_nan()));
            }
            if self.todo.is_empty() {
                continue;
            }
            let extent = sat_extent(self.todo.iter().map(|&i| pixels[i]), cfg.nzt);
            let plane_span = sma_obs::span("pruned_offset_planes");
            planes.build(
                frames,
                cfg,
                &sh.stat,
                &sh.gx_plane,
                &sh.gy_plane,
                (ox, oy),
                extent,
            );
            drop(plane_span);
            self.built[oi] = true;
            let _eval_span = sma_obs::span("pruned_eval");
            for &i in &self.todo {
                let (x, y) = pixels[i];
                let t = planes.window_sum(x, y, cfg.nzt);
                let st = &mut self.states[i];
                if eval_candidate(frames, cfg, (x, y), &self.systems[i], st, (ox, oy), &t) {
                    self.evaluated += 1;
                }
                self.thr[i] = search_threshold(st, self.slack[i]);
            }
            for &j in &self.touched {
                let members = &self.members[self.blocks[j].1.clone()];
                self.block_thr[j] = block_threshold(&self.thr, members);
            }
        }
        Ok(())
    }
}

/// Run `work` on every job: job 0 on the calling thread, the others on
/// scoped threads, each inside a `pruned_band` span so its spans stay
/// attributed. A job whose thread cannot be spawned (a thread limit
/// reached, say) runs on the caller after job 0 — no band's output
/// depends on the thread that runs it. Returns the first error in job
/// order; a job's panic is re-raised on the caller.
fn on_bands<J: Send>(
    jobs: Vec<J>,
    work: impl Fn(J) -> Result<(), SmaError> + Sync,
) -> Result<(), SmaError> {
    // Each job, taken by whichever thread runs it: its own, or the
    // caller's when the spawn failed.
    let slots: Vec<Mutex<Option<J>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let run = |i: usize| {
        // A slot is locked only to `take` its job, which cannot panic, so
        // a poisoned slot still holds a valid job.
        let job = slots[i]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        job.map_or(Ok(()), &work)
    };
    std::thread::scope(|s| {
        let run = &run;
        let spawned: Vec<_> = (1..slots.len())
            .map(|i| {
                std::thread::Builder::new()
                    .name("pruned-band".into())
                    .spawn_scoped(s, move || {
                        let _band_span = sma_obs::span("pruned_band");
                        run(i)
                    })
            })
            .collect();
        let mut out = run(0);
        for (i, handle) in (1..).zip(spawned) {
            let band = match handle {
                Ok(h) => h
                    .join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload)),
                Err(_) => run(i),
            };
            out = out.and(band);
        }
        out
    })
}

/// Merge the bands' range seeds into `seeds`, one per block: in range
/// order with strict `<`, so each block keeps the first offset, in
/// raster order, with its smallest bound — whatever the band count.
fn merge_seeds(bands: &[Band], nb: usize, seeds: &mut Vec<(f64, usize)>) {
    seeds.clear();
    seeds.resize(nb, (f64::INFINITY, 0));
    for band in bands {
        for (seed, &s) in seeds.iter_mut().zip(&band.seeds) {
            if s.0 < seed.0 {
                *seed = s;
            }
        }
    }
}

/// The one visit order every band follows: the distinct seed offsets of
/// the still-searching pixels, most-seeded first, then the rest
/// ascending. Unscreened, no pixel is seeded and the order is the
/// ascending raster order of every other driver, so strict-less winner
/// updates agree with theirs.
fn visit_order(bands: &[Band], seeds: &[(f64, usize)], n_off: usize) -> Vec<usize> {
    let mut seeded = vec![0usize; n_off];
    for band in bands {
        for (&b, st) in band.block_of.iter().zip(&band.states) {
            if !st.done {
                seeded[seeds[b].1] += 1;
            }
        }
    }
    let mut order: Vec<usize> = (0..n_off).filter(|&oi| seeded[oi] > 0).collect();
    order.sort_by_key(|&oi| Reverse(seeded[oi]));
    order.extend((0..n_off).filter(|&oi| seeded[oi] == 0));
    order
}

/// Both phases over `cuts.len() - 1` bands drawn from `scratch`: the
/// bands factorize their row bands and fill one offset range each of the
/// bound table, the caller merges the seeds into the [`visit_order`],
/// and the bands search their row bands in it, so each pixel meets the
/// same candidates in the same order whatever the band count. The tally
/// counts the work the bands did even when the sweep stopped early, so
/// a cancelled call still reports it.
fn sweep(
    sh: &Shared,
    pixels: &[(usize, usize)],
    cuts: &[usize],
    scratch: &mut Scratch,
) -> (Tally, Result<(), SmaError>) {
    let n = cuts.len() - 1;
    if scratch.bands.len() < n {
        scratch.bands.resize_with(n, Band::default);
    }
    let Scratch { bands, lb, seeds } = scratch;
    let bands = &mut bands[..n];
    let n_off = sh.offsets.len();
    let nb = sh.screen.as_ref().map_or(0, |s| s.blocks.len());
    if lb.len() < n_off * nb {
        lb.resize(n_off * nb, 0.0);
    }
    let lb = &mut lb[..n_off * nb];
    // Band `k` fills offsets `k n_off / n ..` of every block: one
    // contiguous chunk of the offset-major table.
    let mut jobs = Vec::with_capacity(n);
    let mut rest = &mut *lb;
    for (k, (band, c)) in bands.iter_mut().zip(cuts.windows(2)).enumerate() {
        let range = k * n_off / n..(k + 1) * n_off / n;
        let (chunk, tail) = std::mem::take(&mut rest).split_at_mut(range.len() * nb);
        rest = tail;
        jobs.push((band, &pixels[c[0]..c[1]], range, chunk));
    }
    let swept = on_bands(jobs, |(band, px, range, chunk)| {
        band.prepare(sh, px, range, chunk)
    })
    .and_then(|()| {
        merge_seeds(bands, nb, seeds);
        let order = visit_order(bands, seeds, n_off);
        let (lb, seeds): (&[f64], &[(f64, usize)]) = (lb, seeds);
        let jobs = bands
            .iter_mut()
            .zip(cuts.windows(2))
            .map(|(band, c)| (band, &pixels[c[0]..c[1]]))
            .collect();
        on_bands(jobs, |(band, px)| band.search(sh, px, &order, lb, seeds))
    });
    let tally = Tally {
        bands: n,
        evaluated: bands.iter().map(|b| b.evaluated).sum(),
        skipped: bands.iter().map(|b| b.skipped).sum(),
        planes_built: (0..n_off)
            .filter(|&oi| bands.iter().any(|b| b.built[oi]))
            .count() as u64,
        near_ties: 0, // the caller's guard counts them after the sweep
    };
    (tally, swept)
}

/// Track every pixel of `region` with the pruned-search moment path.
/// Output is bit-identical to [`crate::fastpath::track_all_integral`] by
/// construction, screened or not and for any band count — see the
/// module docs; the conformance matrix pins the contract at run time.
///
/// # Errors
/// [`sma_fault::GridError::EmptyRegion`] if the region is empty for the
/// frame size; [`SmaError::DeadlineExceeded`] once the calling thread's
/// cancellation token is cancelled.
pub fn track_all_pruned(
    frames: &SmaFrames,
    cfg: &SmaConfig,
    region: Region,
) -> Result<SmaResult, SmaError> {
    track_banded(frames, cfg, region, None).map(|(result, _)| result)
}

/// [`track_all_pruned`] over `bands` row bands (`None`: as many of the
/// [`useful_bands`] as a [`BandClaim`] grants), returning the call's own
/// tallies beside the result.
fn track_banded(
    frames: &SmaFrames,
    cfg: &SmaConfig,
    region: Region,
    bands: Option<usize>,
) -> Result<(SmaResult, Tally), SmaError> {
    let _span = sma_obs::span("track_pruned");
    let (w, h) = frames.dims();
    let bounds = region.bounds_checked(w, h)?;
    crate::cancel::checkpoint()?;
    let template = cfg.template_window();

    let mut best: Grid<MotionEstimate> = Grid::filled(w, h, MotionEstimate::invalid());

    // Border + fault-poisoned pixels route to the exact kernel, exactly
    // as in the other fastpath drivers (same injection sites, same keys,
    // same deterministic ordering).
    let mut border: Vec<(usize, usize)> = bounds
        .pixels()
        .filter(|&(x, y)| !template.fits_at(x, y, w, h))
        .collect();
    PRUNED_BORDER.add(border.len() as u64);
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
        let mut rerouted: Vec<(usize, usize)> = poisoned.iter().copied().collect();
        rerouted.sort_unstable();
        border.extend(rerouted);
    }
    sma_obs::atlas::mark_batch(sma_obs::atlas::AtlasChannel::DispatchExact, &border);
    crate::cancel::checkpoint()?;
    for &(x, y) in &border {
        best.set(x, y, track_pixel(frames, cfg, x, y));
    }

    let interior: Vec<(usize, usize)> = bounds
        .pixels()
        .filter(|&(x, y)| template.fits_at(x, y, w, h) && !poisoned.contains(&(x, y)))
        .collect();
    PRUNED_INTERIOR.add(interior.len() as u64);
    sma_obs::atlas::mark_batch(sma_obs::atlas::AtlasChannel::DispatchPruned, &interior);
    let (Some(&(_, top)), Some(&(_, bottom))) = (interior.first(), interior.last()) else {
        let result = SmaResult {
            estimates: best,
            region: bounds,
        };
        return Ok((result, Tally::default()));
    };

    let shared = Shared::new(frames, cfg, &interior, crate::cancel::current());
    let claim = BandClaim::take(useful_bands(bottom - top + 1, shared.screen.is_some()));
    let cuts = split_bands(&interior, bands.unwrap_or(claim.bands()));
    let mut scratch = SCRATCH.take();
    let (tally, swept) = sweep(&shared, &interior, &cuts, &mut scratch);
    drop(claim);
    HYPOTHESES.add(tally.evaluated);
    GE_SOLVES.add(tally.evaluated);
    CANDIDATES_SKIPPED.add(tally.skipped);
    PRUNED_PLANES.add(tally.planes_built);
    PRUNED_BANDS.add(tally.bands as u64);

    // Shared near-tie guard: identical predicate, identical re-route.
    // The screen never skips a candidate inside the band around the
    // final best, so the observed runner-up classifies each pixel
    // exactly as an exhaustive sweep would.
    let mut ties: Vec<(usize, usize)> = Vec::new();
    if swept.is_ok() {
        for (band, c) in scratch.bands.iter().zip(cuts.windows(2)) {
            for (&(x, y), st) in interior[c[0]..c[1]].iter().zip(&band.states) {
                best.set(x, y, st.best);
                if st.best.valid && near_tie(st.best.error, st.second) {
                    ties.push((x, y));
                }
            }
        }
    }
    SCRATCH.set(scratch);
    swept?;
    let tally = Tally {
        near_ties: ties.len() as u64,
        ..tally
    };
    PRUNED_NEAR_TIE.add(tally.near_ties);
    sma_obs::atlas::mark_batch(sma_obs::atlas::AtlasChannel::NearTie, &ties);
    sma_obs::atlas::mark_batch(sma_obs::atlas::AtlasChannel::DispatchExact, &ties);
    for &(x, y) in &ties {
        best.set(x, y, track_pixel(frames, cfg, x, y));
    }

    let result = SmaResult {
        estimates: best,
        region: bounds,
    };
    Ok((result, tally))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MotionModel;
    use crate::fastpath::track_all_integral;
    use crate::simd::OffsetPlanes;
    use sma_grid::warp::translate;
    use sma_grid::{BorderPolicy, Vec2};
    use sma_satdata::{florida_thunderstorm_analog, hurricane_luis_analog, SceneSequence};
    use std::sync::Mutex;

    /// Serializes the tests that flip the global `SMA_PRUNE` toggle, so
    /// one test's disarmed window never leaks into another's armed
    /// assertion.
    static TOGGLE: Mutex<()> = Mutex::new(());

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

    /// Frames whose after-image is the wavy surface *analytically*
    /// re-evaluated at `(x + dx, y + dy)`: exact correspondence at every
    /// pixel, no clamp band. The translate-based fixture breaks
    /// correspondence in a border band, which legitimately leaves those
    /// pixels with large best errors and therefore wide-open skip
    /// thresholds — fine for identity tests, but it would mask the
    /// laziness the pruning claims to deliver on clean interiors (the
    /// shape the bench scenarios measure via `Region::Interior`).
    fn analytic_shift_frames(dx: i32, dy: i32, cfg: &SmaConfig) -> SmaFrames {
        let f = |x: f32, y: f32| {
            (x * 0.45).sin() * 2.0 + (y * 0.35).cos() * 1.5 + (x * 0.12 + y * 0.21).sin() * 3.0
        };
        surface_frames(30, f, (dx as f32, dy as f32), cfg)
    }

    #[test]
    fn pruned_driver_is_bit_identical_to_integral() {
        // The load-bearing equivalence: every estimate field must match
        // the scalar integral driver to the bit, both models (SemiFluid
        // runs the raster sweep), full region including the border
        // fallback ring.
        for model in [MotionModel::Continuous, MotionModel::SemiFluid] {
            let cfg = SmaConfig::small_test(model);
            let f = frames_for_shift(1.0, 1.0, &cfg);
            let region = Region::Full;
            let scalar = track_all_integral(&f, &cfg, region).expect("fastpath");
            let pruned = track_all_pruned(&f, &cfg, region).expect("pruned");
            for (x, y) in scalar.region.pixels() {
                assert_eq!(
                    scalar.estimates.at(x, y),
                    pruned.estimates.at(x, y),
                    "{model:?} ({x},{y})"
                );
            }
        }
    }

    #[test]
    fn pruned_tracks_known_shift() {
        let cfg = SmaConfig::small_test(MotionModel::Continuous);
        let f = frames_for_shift(2.0, -1.0, &cfg);
        let r = track_all_pruned(&f, &cfg, Region::Interior { margin: 10 }).expect("pruned");
        for (x, y) in r.region.pixels() {
            let e = r.estimates.at(x, y);
            assert!(e.valid, "({x},{y})");
            assert_eq!(e.displacement, Vec2::new(2.0, -1.0), "({x},{y})");
        }
    }

    #[test]
    fn flat_surface_untrackable_in_pruned_path() {
        // Singular per-pixel systems: the screen is unscreenable
        // (inv_a = None, bound 0) and every hypothesis is evaluated
        // and skipped, matching the scalar outcome. Armed faults would
        // turn the skip into the translation-only fallback, so hold the
        // fault-state lock against the test that arms them.
        let _faults = sma_fault::exclusive();
        let cfg = SmaConfig::small_test(MotionModel::Continuous);
        let flat = Grid::filled(30, 30, 1.0f32);
        let f = SmaFrames::prepare(&flat, &flat, &flat, &flat, &cfg).expect("prepare");
        let r = track_all_pruned(&f, &cfg, Region::Interior { margin: 10 }).expect("pruned");
        for (x, y) in r.region.pixels() {
            assert!(!r.estimates.at(x, y).valid, "({x},{y})");
        }
    }

    #[test]
    fn screen_toggle_identity_and_non_vacuity() {
        // One test owns the global SMA_PRUNE toggle (no concurrent test
        // may race it): with the screen armed the driver must actually
        // skip candidates (non-vacuity — the gate perf claim is
        // meaningless otherwise), and disarming it must not move one
        // output bit.
        let cfg = SmaConfig::small_test(MotionModel::Continuous);
        let f = analytic_shift_frames(2, -1, &cfg);
        // Interior region, as the bench scenarios run: pixels whose
        // search windows cross the frame edge have no true
        // correspondence, so their best error — and with it the skip
        // threshold — stays legitimately wide open, masking laziness.
        let region = Region::Interior {
            margin: cfg.margin(),
        };
        let _toggle = TOGGLE.lock().unwrap_or_else(|e| e.into_inner());
        // Counters only record while observability is armed.
        sma_obs::set_level(sma_obs::ObsLevel::Summary);
        let skipped0 = sma_obs::metrics::snapshot().counter("prune.candidates_skipped");
        let planes0 = sma_obs::metrics::snapshot().counter("pruned.offset_planes_built");
        sma_grid::prune::set_enabled(true);
        let on = track_all_pruned(&f, &cfg, region).expect("pruned on");
        let skipped = sma_obs::metrics::snapshot().counter("prune.candidates_skipped") - skipped0;
        let planes = sma_obs::metrics::snapshot().counter("pruned.offset_planes_built") - planes0;
        assert!(
            skipped > 0,
            "screen rejected no candidate on a shifted scene"
        );
        assert!(
            planes < 25,
            "plane builds degenerated to the exhaustive sweep ({planes} planes)"
        );
        sma_grid::prune::set_enabled(false);
        let off = track_all_pruned(&f, &cfg, region).expect("pruned off");
        sma_grid::prune::set_enabled(true);
        for (x, y) in on.region.pixels() {
            assert_eq!(on.estimates.at(x, y), off.estimates.at(x, y), "({x},{y})");
        }
    }

    #[test]
    fn simd_toggle_off_still_bit_identical() {
        // SMA_SIMD=off routes the *grid* kernels back to scalar loops;
        // the driver's own moment path must not care.
        let cfg = SmaConfig::small_test(MotionModel::Continuous);
        let f = frames_for_shift(1.0, 0.0, &cfg);
        let region = Region::Interior { margin: 10 };
        sma_grid::simd::set_enabled(false);
        let off = track_all_pruned(&f, &cfg, region).expect("simd off");
        sma_grid::simd::set_enabled(true);
        let on = track_all_pruned(&f, &cfg, region).expect("simd on");
        for (x, y) in on.region.pixels() {
            assert_eq!(on.estimates.at(x, y), off.estimates.at(x, y), "({x},{y})");
        }
    }

    /// The first pair of `seq`, prepared under `cfg`.
    fn first_pair(seq: &SceneSequence, cfg: &SmaConfig) -> SmaFrames {
        SmaFrames::prepare(
            &seq.frames[0].intensity,
            &seq.frames[1].intensity,
            seq.surface(0),
            seq.surface(1),
            cfg,
        )
        .expect("prepare")
    }

    /// Every bit of one estimate: displacement, the nine affine terms,
    /// the error and the validity flag.
    fn estimate_bits(e: &MotionEstimate) -> [u64; 13] {
        let a = &e.affine;
        [
            u64::from(e.displacement.u.to_bits()),
            u64::from(e.displacement.v.to_bits()),
            a.ai.to_bits(),
            a.bi.to_bits(),
            a.aj.to_bits(),
            a.bj.to_bits(),
            a.ak.to_bits(),
            a.bk.to_bits(),
            a.x0.to_bits(),
            a.y0.to_bits(),
            a.z0.to_bits(),
            e.error.to_bits(),
            u64::from(e.valid),
        ]
    }

    fn assert_bits_equal(want: &SmaResult, got: &SmaResult, tag: &str) {
        assert_eq!(want.region, got.region, "{tag}: region");
        for (x, y) in want.region.pixels() {
            assert_eq!(
                estimate_bits(&want.estimates.at(x, y)),
                estimate_bits(&got.estimates.at(x, y)),
                "{tag}: diverged at ({x},{y})"
            );
        }
    }

    #[test]
    fn band_count_changes_no_bit_and_no_tally() {
        // The paper-window analogs (Florida 15 x 15, Luis 9 x 9 search)
        // with the screen on and off, and the semi-fluid raster sweep,
        // each disarmed and with faults armed at rate 0: 2, 3 and 7 bands
        // must reproduce the 1-band run to the bit, and its evaluated,
        // skipped, built-plane and near-tie tallies; the 1-band run must
        // match the integral driver to the bit.
        let _faults = sma_fault::exclusive();
        let _toggle = TOGGLE.lock().unwrap_or_else(|e| e.into_inner());
        // The semi-fluid correspondence search prices every plane cell
        // like an exact-kernel sample, so its case runs on a 32² crop of
        // the Luis scene (12 interior rows, still enough for 7 bands).
        let cases = [
            (
                "florida",
                florida_thunderstorm_analog(64, 2, 11),
                SmaConfig::goes9_florida(),
            ),
            (
                "luis",
                hurricane_luis_analog(64, 2, 12),
                SmaConfig::hurricane_luis(),
            ),
            (
                "luis semi-fluid",
                hurricane_luis_analog(32, 2, 12),
                SmaConfig::small_test(MotionModel::SemiFluid),
            ),
        ];
        for (name, seq, cfg) in &cases {
            let f = first_pair(seq, cfg);
            let region = Region::Interior {
                margin: cfg.margin(),
            };
            for armed in [false, true] {
                if armed {
                    sma_fault::install(0x5EED, 0.0);
                }
                let integral = track_all_integral(&f, cfg, region).expect("integral");
                for screen in [true, false] {
                    sma_grid::prune::set_enabled(screen);
                    let tag = format!("{name} screen {screen} armed {armed}");
                    let (one, t1) = track_banded(&f, cfg, region, Some(1)).expect("1 band");
                    assert_eq!(t1.bands, 1, "{tag}");
                    assert_bits_equal(&integral, &one, &format!("{tag}: 1 band vs integral"));
                    let screened = screen && cfg.model == MotionModel::Continuous;
                    assert_eq!(t1.skipped > 0, screened, "{tag}: skipped {}", t1.skipped);
                    for n in [2, 3, 7] {
                        let (got, tn) = track_banded(&f, cfg, region, Some(n)).expect("bands");
                        assert_eq!(tn.bands, n, "{tag}");
                        assert_bits_equal(&one, &got, &format!("{tag}: {n} bands vs 1"));
                        assert_eq!(
                            (tn.evaluated, tn.skipped, tn.planes_built, tn.near_ties),
                            (t1.evaluated, t1.skipped, t1.planes_built, t1.near_ties),
                            "{tag}: {n} bands' tallies vs 1"
                        );
                    }
                }
                sma_grid::prune::set_enabled(true);
                sma_fault::disarm();
            }
        }
    }

    #[test]
    fn identity_cuts_split_blocks() {
        // `band_count_changes_no_bit_and_no_tally` shows nothing about
        // blocks unless some of its screened cuts fall inside a 2 x 2
        // block: a band starting on an odd row shares its first block
        // row with the band above. At 3 bands the Florida cuts fall on
        // even rows and a Luis cut on an odd one; at 7 both split blocks.
        for n in [3, 7] {
            let mut split = 0;
            for cfg in [SmaConfig::goes9_florida(), SmaConfig::hurricane_luis()] {
                let interior: Vec<(usize, usize)> = Region::Interior {
                    margin: cfg.margin(),
                }
                .bounds_checked(64, 64)
                .expect("region")
                .pixels()
                .collect();
                let cuts = split_bands(&interior, n);
                split += cuts[1..n]
                    .iter()
                    .filter(|&&c| interior[c].1 % 2 == 1)
                    .count();
            }
            assert!(split > 0, "no {n}-band cut splits a block");
        }
    }

    #[test]
    fn cancellation_reaches_every_band() {
        // A cancelled token installed on the calling thread, captured as
        // `track_banded` captures it, must stop every band of a 3-band
        // sweep, spawned ones included, at its first offset: factorized,
        // but with no bound filled and no block seeded. The sweep is
        // entered directly because `track_banded`'s entry checkpoint
        // would return before any band exists.
        let _toggle = TOGGLE.lock().unwrap_or_else(|e| e.into_inner());
        let cfg = SmaConfig::goes9_florida();
        let f = first_pair(&florida_thunderstorm_analog(64, 2, 11), &cfg);
        let (w, h) = f.dims();
        let interior: Vec<(usize, usize)> = Region::Interior {
            margin: cfg.margin(),
        }
        .bounds_checked(w, h)
        .expect("region")
        .pixels()
        .collect();
        let cuts = split_bands(&interior, 3);
        let token = crate::cancel::CancelToken::new();
        token.cancel(7, 5);
        let _g = crate::cancel::install(token);
        let shared = Shared::new(&f, &cfg, &interior, crate::cancel::current());
        assert!(shared.screen.is_some(), "the screen must arm here");
        let mut scratch = Scratch::default();
        let (tally, swept) = sweep(&shared, &interior, &cuts, &mut scratch);
        assert_eq!(
            swept,
            Err(SmaError::DeadlineExceeded {
                elapsed_ms: 7,
                budget_ms: 5,
            })
        );
        assert_eq!(
            (tally.bands, tally.evaluated, tally.planes_built),
            (3, 0, 0)
        );
        for (i, band) in scratch.bands.iter().enumerate() {
            assert_eq!(band.systems.len(), cuts[i + 1] - cuts[i], "band {i}");
            assert!(
                band.seeds.iter().all(|s| s.0.is_infinite()),
                "band {i} seeded"
            );
        }
    }

    #[test]
    fn band_claims_share_the_cpus() {
        // One band thread per CPU no matcher or band thread holds, never
        // more than the call wants beside its caller.
        assert_eq!(spare_bands(1, 2, 2), 1); // a lone caller on 2 CPUs
        assert_eq!(spare_bands(2, 2, 2), 0); // a 2-worker pool on 2 CPUs
        assert_eq!(spare_bands(9, 8, 8), 0); // 8 workers and a main thread
        assert_eq!(spare_bands(3, 8, 8), 5);
        assert_eq!(spare_bands(1, 8, 3), 2);
        assert_eq!(spare_bands(1, 8, 1), 0);
        assert_eq!(spare_bands(1, 8, 0), 0);
        // A claim counts its caller and holds its band threads until it
        // drops, whatever other tests hold meanwhile.
        let claim = BandClaim::take(cpus());
        assert!(claim.bands() <= cpus());
        assert!(BUSY.load(Ordering::Acquire) > claim.0);
        assert_eq!(BandClaim::take(1).bands(), 1);
    }

    #[test]
    fn a_worker_per_cpu_runs_one_band_each() {
        // A pool with a worker per CPU: each worker counts from its first
        // call until it exits, so once all have called (the first barrier)
        // and while none has exited (the second), no call may spawn a band
        // thread, whatever other tests hold.
        let n = cpus();
        let barrier = std::sync::Barrier::new(n);
        std::thread::scope(|s| {
            for _ in 0..n {
                s.spawn(|| {
                    drop(BandClaim::take(1));
                    barrier.wait();
                    let bands = BandClaim::take(n).bands();
                    barrier.wait();
                    assert_eq!(bands, 1);
                });
            }
        });
    }

    #[test]
    fn bands_cover_the_rows_evenly() {
        // Contiguous, row-aligned, non-empty bands over every pixel, at
        // most one row apart in height.
        let pixels: Vec<(usize, usize)> = (16..80)
            .flat_map(|y| (16..80).map(move |x| (x, y)))
            .collect();
        for n in [1usize, 2, 3, 7, 64, 100] {
            let cuts = split_bands(&pixels, n);
            assert_eq!(cuts.len(), n.min(64) + 1, "n={n}");
            assert_eq!((cuts[0], cuts[cuts.len() - 1]), (0, pixels.len()));
            let rows: Vec<usize> = cuts.windows(2).map(|c| (c[1] - c[0]) / 64).collect();
            for (c, r) in cuts.windows(2).zip(&rows) {
                assert!(c[1] > c[0] && c[0] % 64 == 0 && *r >= 1, "n={n} {cuts:?}");
            }
            let (lo, hi) = (rows.iter().min(), rows.iter().max());
            assert!(
                hi.zip(lo).is_some_and(|(h, l)| h - l <= 1),
                "n={n} {rows:?}"
            );
        }
        assert_eq!(split_bands(&[], 3), vec![0, 0]);
    }

    /// Frames whose surface and intensity are `z` at `(x, y)` before
    /// and at `(x + dx, y + dy)` after.
    fn surface_frames(
        w: usize,
        z: impl Fn(f32, f32) -> f32,
        (dx, dy): (f32, f32),
        cfg: &SmaConfig,
    ) -> SmaFrames {
        let before = Grid::from_fn(w, w, |x, y| z(x as f32, y as f32));
        let after = Grid::from_fn(w, w, |x, y| z(x as f32 + dx, y as f32 + dy));
        SmaFrames::prepare(&before, &after, &before, &after, cfg).expect("prepare")
    }

    /// What [`assert_bounds_admissible`] checked.
    #[derive(Debug)]
    struct Checked {
        /// Candidates compared.
        candidates: usize,
        /// Of those, the ones the screen could skip: their block bound
        /// less their pixel's slack is positive.
        screened: usize,
        /// The smallest ratio of LU error to bound among those.
        min_ratio: f64,
        /// The largest Hadamard ratio among pixels with a finite slack.
        max_kappa: f64,
    }

    /// Every interior candidate's moment error, computed by
    /// `eval_candidate` exhaustively over all offsets, must lie at or
    /// above its block's stored bound less its pixel's slack — the
    /// quantity the sweep compares with the pixel's skip threshold.
    /// Phase one runs in one offset range. Holds the toggle lock, so the
    /// screen is armed.
    fn assert_bounds_admissible(f: &SmaFrames, cfg: &SmaConfig, tag: &str) -> Checked {
        let _toggle = TOGGLE.lock().unwrap_or_else(|e| e.into_inner());
        let (w, h) = f.dims();
        let template = cfg.template_window();
        let pixels: Vec<(usize, usize)> = Region::Full
            .bounds_checked(w, h)
            .expect("region")
            .pixels()
            .filter(|&(x, y)| template.fits_at(x, y, w, h))
            .collect();
        let sh = Shared::new(f, cfg, &pixels, None);
        let nb = sh
            .screen
            .as_ref()
            .expect("the screen must arm")
            .blocks
            .len();
        let n_off = sh.offsets.len();
        let mut lb = vec![0.0; n_off * nb];
        let mut band = Band::default();
        band.prepare(&sh, &pixels, 0..n_off, &mut lb)
            .expect("prepare");
        let mut planes = OffsetPlanes::new(w, h);
        let mut checked = Checked {
            candidates: 0,
            screened: 0,
            min_ratio: f64::INFINITY,
            max_kappa: 0.0,
        };
        for (sys, slack) in band.systems.iter().zip(&band.slack) {
            if let (true, Some((_, kappa))) = (slack.is_finite(), inverted_blocks(&sys.s)) {
                checked.max_kappa = checked.max_kappa.max(kappa[0]).max(kappa[1]);
            }
        }
        for (oi, &(ox, oy)) in sh.offsets.iter().enumerate() {
            let (stat, gx, gy) = (&sh.stat, &sh.gx_plane, &sh.gy_plane);
            planes.build(f, cfg, stat, gx, gy, (ox, oy), (w, h));
            for (i, &(x, y)) in pixels.iter().enumerate() {
                let t = planes.window_sum(x, y, cfg.nzt);
                let mut st = EvalState {
                    best: MotionEstimate::invalid(),
                    second: f64::INFINITY,
                    done: false,
                };
                let sys = &band.systems[i];
                let evaluated = eval_candidate(f, cfg, (x, y), sys, &mut st, (ox, oy), &t);
                if band.states[i].done || !evaluated || !st.best.valid {
                    continue;
                }
                let err = st.best.error;
                let bound = lb[oi * nb + band.block_of[i]] - band.slack[i];
                assert!(
                    bound <= err,
                    "{tag}: ({x},{y}) offset ({ox},{oy}) error {err:e} below its bound {bound:e}"
                );
                checked.candidates += 1;
                if bound > 0.0 {
                    checked.screened += 1;
                    checked.min_ratio = checked.min_ratio.min(err / bound);
                }
            }
        }
        checked
    }

    /// A smooth, richly textured surface drawn from `seed`.
    fn textured_surface(seed: u64) -> impl Fn(f32, f32) -> f32 {
        let s = (seed % 1000) as f32 * 0.013;
        move |x, y| {
            (x * (0.41 + 0.05 * s)).sin() * 2.0
                + (y * 0.33 + s).cos() * 1.5
                + (x * 0.13 + y * 0.21 + 3.0 * s).sin() * 3.0
        }
    }

    /// Template radii the admissibility tests sweep: no common window at
    /// 0, a lone bin at 1, and even radii, whose block window is a
    /// bin-aligned part of the common window.
    const RADII: [usize; 8] = [0, 1, 2, 3, 4, 5, 7, 10];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(10))]

        #[test]
        fn bounds_are_admissible_on_random_scenes(
            seed in 0u64..10_000,
            dx in -2.0f32..2.0,
            dy in -2.0f32..2.0,
            wide in 0usize..2,
            extra in 0usize..3,
        ) {
            for nt in RADII {
                let cfg = SmaConfig {
                    nzt: nt,
                    nzs: 2 + wide,
                    ..SmaConfig::small_test(MotionModel::Continuous)
                };
                // Odd frame sizes: the last pixel row and column are
                // never binned.
                let side = 2 * cfg.margin() + 5 + 2 * extra;
                let f = surface_frames(side, textured_surface(seed), (dx, dy), &cfg);
                let c = assert_bounds_admissible(&f, &cfg, &format!("seed {seed} nt {nt}"));
                // A one-pixel template leaves every system singular.
                proptest::prop_assert!((nt == 0) == (c.candidates == 0), "nt {nt}: {c:?}");
                proptest::prop_assert!((nt == 0) == (c.screened == 0), "nt {nt}: {c:?}");
            }
        }
    }

    #[test]
    fn bounds_are_admissible_on_near_collinear_gradients() {
        // Surfaces that are nearly a function of one direction, `g(x +
        // 0.6 y) + eps h(x, y)`, so `zy ~ 0.6 zx` across every window,
        // and nearly a plane, `0.5 x + 0.3 y + eps h(x, y)`, so `zx`,
        // `zy` and the constant column nearly align: both blocks are
        // ill-conditioned but invertible, for blocks and pixels alike.
        let h = |x: f32, y: f32| (x * 0.37).sin() * (y * 0.29).cos() + (x * 0.11 - y * 0.23).sin();
        let mut max_kappa = 0.0f64;
        for nt in [3usize, 4] {
            let cfg = SmaConfig {
                nzt: nt,
                ..SmaConfig::small_test(MotionModel::Continuous)
            };
            let side = 2 * cfg.margin() + 15;
            for eps in [1e-1f32, 1e-2, 1e-3] {
                let ridge =
                    move |x: f32, y: f32| ((x + 0.6 * y) * 0.31).sin() * 4.0 + eps * h(x, y);
                let plane = move |x: f32, y: f32| 0.5 * x + 0.3 * y + eps * h(x, y);
                for shift in [(1.0, -1.0), (0.4, 0.7)] {
                    let f = surface_frames(side, ridge, shift, &cfg);
                    let c = assert_bounds_admissible(&f, &cfg, &format!("ridge nt {nt} eps {eps}"));
                    max_kappa = max_kappa.max(c.max_kappa);
                }
                for shift in [(1.0, 0.0), (-0.6, 0.3)] {
                    let f = surface_frames(side, plane, shift, &cfg);
                    let c = assert_bounds_admissible(&f, &cfg, &format!("plane nt {nt} eps {eps}"));
                    max_kappa = max_kappa.max(c.max_kappa);
                }
            }
        }
        assert!(
            max_kappa > 1e4,
            "no ill-conditioned block was exercised: {max_kappa:e}"
        );
    }

    #[test]
    fn skip_threshold_brackets_the_near_tie_band() {
        // Any error strictly above the threshold is outside the
        // near-tie band of `best`: near_tie(best, e) must be false.
        for best in [0.0, 1e-9, 1.0, 1e6] {
            let thr = skip_threshold(best);
            for e in [thr * 1.0000001 + 1e-12, thr * 2.0, thr + 1.0] {
                assert!(
                    !near_tie(best, e),
                    "best={best} thr={thr} e={e} still in band"
                );
            }
        }
        assert_eq!(skip_threshold(f64::INFINITY), f64::INFINITY);
    }
}
