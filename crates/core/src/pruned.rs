//! The pruned-search fastpath driver — the production matcher: a
//! two-level admissible screen plus early termination in one seed-first
//! sweep, split into row bands that run on the free CPUs, each over a
//! single resident offset plane, on the [`crate::simd`] lane kernels,
//! bit-identical to the integral block.
//!
//! An exhaustive sweep evaluates every pixel against every
//! hypothesis offset — `(2 Nzs + 1)^2` O(1) moment evaluations per
//! pixel, plus one full 8-channel offset SAT *build* per offset. This
//! driver cuts the evaluations in four moves and keeps the moment store
//! at one plane per band:
//!
//! 1. **Coarse screening bound, per 2 x 2 block.** For each frame-aligned
//!    2 x 2 pixel block `(x / 2, y / 2)` and each offset it computes a
//!    *lower bound* on the minimized hypothesis error of every member
//!    pixel from summed-area tables over the **stride-2 even lattice**
//!    ([`sma_grid::prune::DecimatedMoments`], a quarter of the build
//!    cost of the full planes). The normal equations decouple into an
//!    a-block and a b-block (`err = err_a + err_b`, both sums of squared
//!    residuals), and the even-lattice terms of the block's *common*
//!    template window — the intersection of its members' windows — are a
//!    subset of each member's full-window terms of `err_a`, so
//!    `err >= err_a >= min over theta_a of the even-subset quadratic`
//!    — a closed 3 x 3 form ([`sma_grid::prune::quad_min`]). Decimation
//!    (keeping samples) rather than blurring (mixing them) is what makes
//!    the coarse level *admissible*. Only the a-block is screened here:
//!    the coarse bound need not be tight, since move 4 tightens it, but
//!    it runs for every (block, offset), so one 4-channel lookup plus one
//!    3 x 3 quadratic per block is what it may cost. The bounds are
//!    filled offset-major from one zero-padded decimated table refilled
//!    per offset, with each block's window corners computed once, and
//!    each block's *seed* — its bound argmin, the coarse level's
//!    displacement estimate — is folded into the fill; it is the seed of
//!    each member pixel.
//! 2. **Seed-first single sweep.** Offsets are then visited once each:
//!    the distinct seed offsets first (most-seeded pixels first), then the
//!    rest in ascending raster order. At each offset a pixel takes the
//!    candidate if the offset is its seed or its block's bound passes the
//!    skip threshold of its running best; otherwise the candidate is
//!    skipped for good. Meeting the seed early drives each pixel's best
//!    down at once, which makes both screens selective for everything
//!    visited later. The offset's plane is built — into the band's one
//!    reused `OffsetPlanes` buffer, and only over the block the taken
//!    windows read — when at least one of the band's pixels takes it,
//!    so a band builds each plane at most once and holds one plane at a
//!    time.
//! 3. **Safe termination, not approximate termination.** A candidate is
//!    skipped only when a deflated bound exceeds
//!    `(best + NEAR_TIE_ABS) / (1 - NEAR_TIE_REL)` — strictly outside
//!    the shared near-tie band around the running best. The winner can
//!    never be skipped (its true error is below every incumbent), no
//!    skipped candidate can change the near-tie verdict (it is provably
//!    outside the band around the final best), and every *evaluated*
//!    candidate goes through one evaluation ([`crate::simd`]'s
//!    `eval_candidate`: same plane SAT, same LU solve) — the same bits
//!    whatever the visit order. Output is therefore bit-identical to
//!    the driver's own raster sweep and to [`crate::fastpath`] by
//!    construction; the conformance matrix pins it at run time.
//! 4. **Tight screening bound, after the plane is built.** A taken
//!    candidate that is not its pixel's seed reads its eight window sums
//!    once, and its error follows in closed form from them: the sum of
//!    the a- and b-blocks' 3 x 3 minima, from the inverted blocks
//!    [`crate::simd`]'s `prefactor` keeps per pixel. In exact arithmetic
//!    that sum *is* the LU path's error, so its guard is derived, not
//!    sampled: it covers the rounding gap between the two computations,
//!    which grows with the blocks' conditioning (`TIGHT_GUARD_REL`,
//!    DESIGN.md §16). A pixel with a block that is not positive definite
//!    with a margin, or that is conditioned beyond `TIGHT_KAPPA_MAX`,
//!    has no tight screen. A candidate whose tight bound exceeds the
//!    threshold is skipped like a coarse skip; the rest go through
//!    `eval_candidate` with the same sums. On the paper's windows this
//!    leaves ~1.5 of the 81–225 candidates per pixel to the LU
//!    evaluation, against ~15 that pass the coarse screen.
//!
//! This module alone decides whether to screen. The screen arms only
//! where it pays and is provably safe: continuous model (the semi-fluid
//! correspondence search prices each decimated sample like a full one,
//! erasing the build saving), at least [`PRUNE_MIN_HYPOTHESES`]
//! hypotheses, the `SMA_PRUNE` toggle on, and a one-pass global scan
//! confirming every screen input is finite and bounded (which rules out
//! the mid-search non-finite-sum re-route, so the visit *order* cannot
//! change which exact-kernel fallback fires). Otherwise the driver runs
//! a plain raster sweep — every offset ascending, one resident plane —
//! and the prune-off equivalence tests assert not one output bit moves
//! either way.
//!
//! **Row bands.** With the screen armed, the interior pixels are split
//! into contiguous row bands: one per CPU that no other thread calling
//! this driver (or running one of its bands) holds, and none under
//! `MIN_BAND_ROWS` rows, so a serving pool with a worker per CPU runs
//! one band per call. Unscreened, a call runs one band. Band 0 runs on
//! the calling thread, the rest on `std::thread::scope` threads (or on
//! the caller, should a spawn fail) that share the pair's read-only
//! static tables. A SAT cell is a prefix sum from the frame origin, and
//! a band-local table would round its window sums differently, so every
//! band fills its offset plane and its decimated bound table from row 0
//! down to its own last window row — which is why the cuts balance a
//! modelled cost (`PREFIX_COST`) rather than the pixel count. A call
//! runs in two phases: the bands factorize their pixels and fill their
//! block bounds, block seeds and per-pixel seed histograms (a block a
//! cut splits is computed by both of its bands, to the same bits); the
//! caller sums the histograms into the one visit order of move 2; then
//! every band searches in that order. Each pixel therefore meets the
//! same candidates in the same order, against the same bounds, as with
//! one band, so neither the output bits nor the per-pixel counters
//! depend on the band count. The bands' buffers live in a
//! scratch owned by the calling thread and are reused across calls, and
//! each band polls the call's cancellation token (captured once: it is
//! thread-local) at every offset.

use std::cell::Cell;
use std::cmp::Reverse;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

use sma_fault::{FaultSite, SmaError};
use sma_grid::prune::{inv3, quad_form, quad_min, DecimatedMoments, EvenWindow};
use sma_grid::Grid;

use crate::cancel::CancelToken;
use crate::config::{MotionModel, SmaConfig};
use crate::fastpath::{
    atb_from_moments, btb_halves, near_tie, static_channels, StaticMoments, NEAR_TIE_ABS,
    NEAR_TIE_REL, OFFSET_CHANNELS,
};
use crate::motion::{track_pixel, MotionEstimate, SmaFrames, GE_SOLVES, HYPOTHESES};
use crate::sequential::{Region, SmaResult};
use crate::simd::{
    eval_candidate, gradient_planes, prefactor, sat_extent, EvalState, OffsetPlanes, PixelSystem,
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
/// Candidates never fully evaluated: at its offset's turn in the sweep,
/// the candidate was not its pixel's seed and either its block's coarse
/// bound or, once the offset's plane was built, its own tight bound
/// exceeded the skip threshold of the pixel's running best. With
/// `sma.hypotheses_evaluated` it sums to the live pixels times the
/// offsets. The non-vacuity tests pin this above zero so the screen
/// cannot silently degrade to an exhaustive sweep.
static CANDIDATES_SKIPPED: sma_obs::Counter = sma_obs::Counter::new("prune.candidates_skipped");
/// The part of `prune.candidates_skipped` the tight screen skipped:
/// candidates that passed their block's coarse bound, had their window
/// sums read from the built plane, and were rejected by the closed-form
/// bound before the LU evaluation.
static TIGHT_SKIPPED: sma_obs::Counter = sma_obs::Counter::new("pruned.tight_skipped");

/// Minimum hypothesis count (`(2 nzs + 1)^2`) for the screen to pay for
/// itself: the bound fill costs roughly one decimated SAT per offset, and
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

/// Modelled cost of one frame pixel of a band's rebuilt row prefix (per
/// offset, its plane and bound table refill every row from 0 down to the
/// band's last window row), relative to one of the band's own interior
/// pixels (factorization, bounds, evaluations). Two-band calls on 96²
/// Florida and Luis analogs were fastest with weights of 0.25–0.5 (0:
/// 1.1–1.2× slower, 1–2: 1.1–1.3× slower). Re-measured once the tight
/// screen left the search mostly plane builds (medians of six
/// alternating rounds, each against 0.35): weights 0, 0.2, 0.5 and 1
/// read 1.09, 1.04, 0.98 and 1.05× on Florida and 1.12, 1.06, 1.10 and
/// 1.09× on Luis.
const PREFIX_COST: f64 = 0.35;

/// Magnitude ceiling for the screen-arming scan. With every per-pixel
/// screen input below this, each moment channel is at most a cubic
/// product (`<= 1e180`) and every whole-frame prefix sum stays below
/// ~`1e185` — comfortably finite — so no window sum in *either* the
/// pruned or the exhaustive driver can go non-finite mid-search.
const SCREEN_MAX_MAGNITUDE: f64 = 1e60;

/// Absolute deflation of both bounds, absorbing accumulation noise
/// around zero.
const LB_GUARD_ABS: f64 = 1e-9;
/// Relative deflation of the block bound against the *pre-cancellation*
/// magnitude of its subset `b^T b` term (`t6 - 2 t0 + s0` cancels
/// heavily on well-matched candidates, so the noise scales with the
/// summands, not the result).
const LB_GUARD_REL: f64 = 5e-12;
/// Multiplicative safety factor on both bounds. The block bound's 3 x 3
/// quadratic admits conditioning up to
/// [`sma_grid::prune::DET_RTOL`]`^-1`, which can amplify relative
/// rounding noise to ~1e-4; deflating by 1e-3 keeps the stored bound a
/// true lower bound with an order of margin, at the cost of not
/// rejecting candidates within 0.1 % of the threshold — which the
/// near-tie band would have re-routed anyway.
const LB_SAFETY_REL: f64 = 1e-3;
/// Hadamard-ratio ceiling of the tight screen: a pixel whose a- or
/// b-block has a larger ratio ([`crate::simd::BlockInverses`]) is always
/// LU-evaluated. The guard's derivation (DESIGN.md §16) needs the ratio
/// far below `~3e13`; at 1e8 its first-order terms stay below 1e-5
/// relative, and beyond it the guard (`>= 1e-5` of the pre-cancellation
/// magnitude) leaves little of a well-matched candidate's bound anyway.
const TIGHT_KAPPA_MAX: f64 = 1e8;
/// Tight-bound guard per unit of Hadamard ratio and of pre-cancellation
/// magnitude. DESIGN.md §16 bounds the gap between the closed form and
/// the error [`eval_candidate`] computes from the same window sums by
/// `610 u kappa mag` (`u = 2^-53`, the unit roundoff): `128 u kappa` from
/// the adjugate inverses and the quadratic forms, `473 u kappa` from
/// evaluating the dense 36-term error at the LU solution, whatever that
/// solution's accuracy, and `4 u` from the final additions. This is
/// `1024 u`; the admissibility tests saw gaps of at most `3.4 u kappa
/// mag`.
const TIGHT_GUARD_REL: f64 = 512.0 * f64::EPSILON;

/// Decimated offset channels screened by the bound: the a-block terms
/// `[T0, T1, T2, T6]` of the eight fastpath offset channels.
const A_CHANNELS: usize = 4;
/// Decimated static channels screened by the bound: `S0..S5`, the
/// a-block of `A^T A`.
const STATIC_A_CHANNELS: usize = 6;

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
/// best, or NaN once the pixel is done (it holds an exact-kernel result
/// and takes no further candidates, evaluated or skipped).
fn search_threshold(st: &EvalState) -> f64 {
    if st.done {
        f64::NAN
    } else {
        skip_threshold(st.best.error)
    }
}

/// Coarse screening state of one frame-aligned 2 x 2 pixel block
/// `(x / 2, y / 2)`: the hoisted corners of the even lattice of the
/// block's common template window (the intersection of its members'
/// windows), its static subset sums and the inverted a-block. A block
/// without one (no even sample, or a singular a-block) is unscreenable —
/// its bound is zero, which rejects nothing.
struct BlockScreen {
    win: EvenWindow,
    inv_a: [f64; 9],
    s_sub: [f64; 3],
}

/// The tight screen's lower bound on a candidate's moment error, from
/// its pixel's inverted blocks and the candidate's offset window sums
/// `t`: the a- and b-blocks' closed-form minima, from the very rounded
/// terms the LU evaluation forms (`atb_from_moments`, `btb_halves`),
/// deflated by a guard that covers the rounding gap to the error
/// [`eval_candidate`] computes (see [`TIGHT_GUARD_REL`]). Neither block
/// is clamped at zero:
/// the LU error clamps only their sum. `-inf`, which rejects nothing,
/// for a pixel without usable blocks; NaN sums give NaN, which rejects
/// nothing either.
#[inline]
fn tight_bound(sys: &PixelSystem, t: &[f64; OFFSET_CHANNELS]) -> f64 {
    let Some(b) = sys.blocks.as_ref().filter(|b| b.kappa <= TIGHT_KAPPA_MAX) else {
        return f64::NEG_INFINITY;
    };
    let atb = atb_from_moments(&sys.s, t);
    let [c_a, c_b] = btb_halves(&sys.s, t);
    let q_a = quad_form(&[atb[0], atb[2], atb[4]], &b.inv_a);
    let q_b = quad_form(&[atb[1], atb[3], atb[5]], &b.inv_b);
    let raw = (c_a - q_a) + (c_b - q_b);
    let mag = c_a.abs() + q_a.abs() + c_b.abs() + q_b.abs();
    let guard = LB_GUARD_ABS + TIGHT_GUARD_REL * b.kappa * mag;
    (raw - guard) * (1.0 - LB_SAFETY_REL)
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
/// band at least one row. The cuts minimize the largest modelled band
/// cost: a band pays for its own pixels and for the `w`-wide row prefix
/// it rebuilds down to its last window row ([`PREFIX_COST`]), so upper
/// bands take more rows than lower ones.
fn split_bands(pixels: &[(usize, usize)], n: usize, w: usize, nt: usize) -> Vec<usize> {
    if pixels.is_empty() {
        return vec![0, 0];
    }
    // Index of each row's first pixel, then the end.
    let mut starts: Vec<usize> = (0..pixels.len())
        .filter(|&i| i == 0 || pixels[i].1 != pixels[i - 1].1)
        .collect();
    let rows = starts.len();
    starts.push(pixels.len());
    let n = n.clamp(1, rows);
    // Cost of a band over rows `a..b`.
    let cost = |a: usize, b: usize| {
        let prefix = (pixels[starts[b] - 1].1 + nt + 1) * w;
        (starts[b] - starts[a]) as f64 + PREFIX_COST * prefix as f64
    };
    // Greedy cuts under a cost ceiling, leaving every later band a row.
    let cuts = |ceiling: f64| {
        let mut cuts = vec![0];
        for k in 1..n {
            let a = cuts[k - 1];
            let mut b = a + 1;
            while b + (n - k) < rows && cost(a, b + 1) <= ceiling {
                b += 1;
            }
            cuts.push(b);
        }
        cuts.push(rows);
        cuts
    };
    // The last band's cost falls as the ceiling rises: bisect for the
    // smallest ceiling it meets too.
    let (mut lo, mut hi) = (0.0, cost(0, rows));
    for _ in 0..48 {
        let mid = 0.5 * (lo + hi);
        let c = cuts(mid);
        if cost(c[n - 1], rows) <= mid {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    cuts(hi).into_iter().map(|r| starts[r]).collect()
}

/// What one call did, summed over its bands.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Tally {
    /// Row bands the interior was split into.
    bands: usize,
    /// Candidates that took the moment evaluation.
    evaluated: u64,
    /// Candidates the screen skipped, at either level.
    skipped: u64,
    /// The part of `skipped` the tight screen skipped.
    tight_skipped: u64,
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
    /// Even-lattice static sums; `Some` exactly when the screen is armed.
    dec_static: Option<DecimatedMoments<STATIC_A_CHANNELS>>,
    /// Hypothesis offsets in ascending raster order.
    offsets: Vec<(isize, isize)>,
    /// The calling thread's cancellation token, captured once: a band
    /// thread cannot see the caller's thread-local token.
    cancel: Option<CancelToken>,
}

impl<'a> Shared<'a> {
    /// The shared static phase: the moment SAT, the hoisted gradient
    /// planes and, where the screen arms (see the module docs), the
    /// even-lattice static table.
    fn new(frames: &'a SmaFrames, cfg: &'a SmaConfig, cancel: Option<CancelToken>) -> Self {
        let (w, h) = frames.dims();
        let static_span = sma_obs::span("pruned_static");
        let stat = StaticMoments::compute(frames);
        let (gx_plane, gy_plane) = gradient_planes(frames);
        drop(static_span);
        let side = 2 * cfg.nzs + 1;
        let screen_on = cfg.model == MotionModel::Continuous
            && side * side >= PRUNE_MIN_HYPOTHESES
            && sma_grid::prune::enabled()
            && screen_inputs_bounded(frames, &stat, &gx_plane, &gy_plane);
        let dec_static = screen_on.then(|| {
            let _screen_span = sma_obs::span("pruned_screen");
            DecimatedMoments::from_fn(w, h, |x, y| {
                let g = frames.geo_before.at(x, y);
                let ch = static_channels(&stat.factors.at(x, y), g.zx, g.zy);
                [ch[0], ch[1], ch[2], ch[3], ch[4], ch[5]]
            })
        });
        let ns = cfg.nzs as isize;
        Self {
            frames,
            cfg,
            stat,
            gx_plane,
            gy_plane,
            dec_static,
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

/// One row band's working buffers. They live in the calling thread's
/// [`SCRATCH`] and are reused across calls, so a band thread allocates
/// nothing and repeated calls do not churn the heap.
#[derive(Default)]
struct Band {
    systems: Vec<PixelSystem>,
    states: Vec<EvalState>,
    /// Per pixel: its 2 x 2 block's index in the band's block grid, the
    /// blocks of the bounding box of the band's pixels in raster order.
    block_of: Vec<usize>,
    /// Per block: its coarse screen.
    screens: Vec<Option<BlockScreen>>,
    /// Deflated block bounds, offset-major: `lb[oi * nb + b]` over the
    /// first `n_off * nb` entries. The buffer only grows: every call
    /// overwrites the entries it reads.
    lb: Vec<f64>,
    /// Per block: its smallest bound and that bound's offset index, the
    /// seed of each of its pixels.
    seeds: Vec<(f64, usize)>,
    /// Per pixel: its cached sweep threshold ([`search_threshold`]).
    thr: Vec<f64>,
    /// Pixels evaluated at the current offset.
    todo: Vec<usize>,
    /// Per offset: the band's still-searching pixels seeded there.
    seeded: Vec<usize>,
    /// Per offset: whether the band built that offset's plane.
    built: Vec<bool>,
    planes: Option<OffsetPlanes>,
    dec: Option<DecimatedMoments<A_CHANNELS>>,
    evaluated: u64,
    skipped: u64,
    tight_skipped: u64,
}

thread_local! {
    /// The calling thread's row-band buffers (see [`Band`]).
    static SCRATCH: Cell<Vec<Band>> = const { Cell::new(Vec::new()) };
}

impl Band {
    /// Phase one: the band's per-pixel factorizations and, with the
    /// screen armed, one deflated lower bound per (offset, 2 x 2 block)
    /// and each block's seed, tallied per pixel into the band's seed
    /// histogram. A block the band cut splits is computed by both bands
    /// it touches, to the same bits: its window depends only on its
    /// coordinates, and both bands fill their tables down to its last
    /// row.
    fn prepare(&mut self, sh: &Shared, pixels: &[(usize, usize)]) -> Result<(), SmaError> {
        let (frames, cfg) = (sh.frames, sh.cfg);
        let n_off = sh.offsets.len();
        let np = pixels.len();
        self.evaluated = 0;
        self.skipped = 0;
        self.tight_skipped = 0;
        self.built.clear();
        self.built.resize(n_off, false);
        self.seeded.clear();
        self.seeded.resize(n_off, 0);
        self.seeds.clear();
        let static_span = sma_obs::span("pruned_static");
        self.systems.clear();
        self.states.clear();
        for &p in pixels {
            let (sys, st) = prefactor(frames, cfg, &sh.stat, p, &PRUNED_FACTORIZATIONS);
            self.systems.push(sys);
            self.states.push(st);
        }
        drop(static_span);
        let Some(dec_static) = &sh.dec_static else {
            return Ok(());
        };
        if np == 0 {
            return Ok(());
        }

        // The band's blocks: the frame-aligned 2 x 2 blocks over the
        // bounding box of its pixels (raster order puts the top row
        // first and the bottom row last).
        let _screen_span = sma_obs::span("pruned_screen");
        let nt = cfg.nzt;
        let (bx0, bx1) = pixels.iter().fold((usize::MAX, 0), |(lo, hi), &(x, _)| {
            (lo.min(x / 2), hi.max(x / 2))
        });
        let (by0, by1) = (pixels[0].1 / 2, pixels[np - 1].1 / 2);
        let nbx = bx1 - bx0 + 1;
        let nb = nbx * (by1 - by0 + 1);
        self.block_of.clear();
        self.block_of.extend(
            pixels
                .iter()
                .map(|&(x, y)| (y / 2 - by0) * nbx + (x / 2 - bx0)),
        );

        // Even-lattice static sums, the inverted a-block and the hoisted
        // window corners, per block. The common window of members
        // `2 bx` and `2 bx + 1` spans columns `2 bx + 1 - nt ..= 2 bx +
        // nt` (rows alike): inside each member's window, and inside the
        // frame since some member's window is.
        self.screens.clear();
        self.screens.extend((0..nb).map(|b| {
            let (bx, by) = (bx0 + b % nbx, by0 + b / nbx);
            let win = dec_static.even_rect(
                (
                    (2 * bx + 1).saturating_sub(nt),
                    (2 * by + 1).saturating_sub(nt),
                ),
                (2 * bx + nt, 2 * by + nt),
            )?;
            let s = dec_static.sum(&win);
            let a = [
                s[0], s[1], -s[2], //
                s[1], s[3], -s[4], //
                -s[2], -s[4], s[5],
            ];
            Some(BlockScreen {
                win,
                inv_a: inv3(&a)?,
                s_sub: [s[0], s[1], s[2]],
            })
        }));

        // One deflated lower bound per (offset, block), offset-major,
        // from one decimated a-channel table refilled per offset down to
        // the band's last window row. Each block's seed — the offset
        // with the smallest bound, strict `<` so the first in raster
        // order wins ties — folds into the fill.
        let (w, h) = frames.dims();
        let (stat, gx_plane) = (&sh.stat, &sh.gx_plane);
        let dec = reuse(
            &mut self.dec,
            |d| d.fine_dims() == (w, h),
            || DecimatedMoments::new(w, h),
        );
        let rows = sat_extent(pixels.iter().copied(), nt).1;
        if self.lb.len() < n_off * nb {
            self.lb.resize(n_off * nb, 0.0);
        }
        self.seeds.resize(nb, (f64::INFINITY, 0));
        let lb = &mut self.lb[..n_off * nb];
        for (oi, (&(ox, oy), out)) in sh.offsets.iter().zip(lb.chunks_mut(nb)).enumerate() {
            sh.poll()?;
            dec.fill_rows(rows, |x, y| {
                let sx = (x as isize + ox).clamp(0, w as isize - 1) as usize;
                let sy = (y as isize + oy).clamp(0, h as isize - 1) as usize;
                let gx = gx_plane.at(sx, sy);
                let [zx_e2, zy_e2, ie2, _, _, _] = stat.factors.at(x, y);
                let t2 = ie2 * gx;
                [zx_e2 * gx, zy_e2 * gx, t2, t2 * gx]
            });
            for ((b, scr), seed) in out.iter_mut().zip(&self.screens).zip(&mut self.seeds) {
                *b = match scr {
                    Some(scr) => {
                        let t = dec.sum(&scr.win);
                        let s = &scr.s_sub;
                        let atb_a = [s[0] - t[0], s[1] - t[1], t[2] - s[2]];
                        let btb_a = t[3] - 2.0 * t[0] + s[0];
                        let raw = quad_min(btb_a, &atb_a, &scr.inv_a);
                        let guard =
                            LB_GUARD_ABS + LB_GUARD_REL * (t[3].abs() + 2.0 * t[0].abs() + s[0]);
                        ((raw - guard) * (1.0 - LB_SAFETY_REL)).max(0.0)
                    }
                    None => 0.0,
                };
                if *b < seed.0 {
                    *seed = (*b, oi);
                }
            }
        }
        for (&b, st) in self.block_of.iter().zip(&self.states) {
            if !st.done {
                self.seeded[self.seeds[b].1] += 1;
            }
        }
        Ok(())
    }

    /// Phase two: visit the offsets in the call's `order`. At each, a
    /// pixel takes the candidate if the screen is off, the offset is its
    /// block's seed, or its block's bound passes the skip threshold of the
    /// pixel's running best (cached per pixel, renewed after each
    /// evaluation); the offset's plane is built into the band's one
    /// resident buffer, over the block the taken windows read, only when
    /// some pixel takes it. Each taken candidate's window sums are read
    /// once: off its seed, a tight bound above the threshold skips it,
    /// and otherwise it is evaluated from the same sums.
    fn search(
        &mut self,
        sh: &Shared,
        pixels: &[(usize, usize)],
        order: &[usize],
    ) -> Result<(), SmaError> {
        let (frames, cfg) = (sh.frames, sh.cfg);
        let (w, h) = frames.dims();
        let np = pixels.len();
        let screened = sh.dec_static.is_some();
        let planes = reuse(
            &mut self.planes,
            |p| p.dims() == (w, h),
            || OffsetPlanes::new(w, h),
        );
        self.thr.clear();
        self.thr.extend(self.states.iter().map(search_threshold));
        for &oi in order {
            sh.poll()?;
            let (ox, oy) = sh.offsets[oi];
            self.todo.clear();
            if screened {
                let nb = self.seeds.len();
                let col = &self.lb[oi * nb..(oi + 1) * nb];
                for (i, (&t, &b)) in self.thr.iter().zip(&self.block_of).enumerate() {
                    if t.is_nan() {
                        continue;
                    }
                    if col[b] > t && self.seeds[b].1 != oi {
                        self.skipped += 1;
                    } else {
                        self.todo.push(i);
                    }
                }
            } else {
                self.todo.extend((0..np).filter(|&i| !self.thr[i].is_nan()));
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
                let sys = &self.systems[i];
                if screened
                    && self.seeds[self.block_of[i]].1 != oi
                    && tight_bound(sys, &t) > self.thr[i]
                {
                    self.skipped += 1;
                    self.tight_skipped += 1;
                    continue;
                }
                let st = &mut self.states[i];
                if eval_candidate(frames, cfg, (x, y), sys, st, (ox, oy), &t) {
                    self.evaluated += 1;
                }
                self.thr[i] = search_threshold(st);
            }
        }
        Ok(())
    }
}

/// Run `work` over every band and its slice of `pixels` (`cuts` are the
/// slice boundaries): band 0 on the calling thread, the others on scoped
/// threads, each inside a `pruned_band` span so its spans stay
/// attributed. A band whose thread cannot be spawned (a thread limit
/// reached, say) runs on the caller after band 0 — no band's output
/// depends on the thread that runs it. Returns the first error in band
/// order; a band's panic is re-raised on the caller.
fn on_bands(
    bands: &mut [Band],
    pixels: &[(usize, usize)],
    cuts: &[usize],
    work: impl Fn(&mut Band, &[(usize, usize)]) -> Result<(), SmaError> + Sync,
) -> Result<(), SmaError> {
    // Each band's job, taken by whichever thread runs it: its own, or
    // the caller's when the spawn failed.
    let jobs: Vec<_> = bands
        .iter_mut()
        .zip(cuts.windows(2))
        .map(|(band, c)| Mutex::new(Some((band, &pixels[c[0]..c[1]]))))
        .collect();
    let run = |i: usize| {
        // A slot is locked only to `take` its job, which cannot panic, so
        // a poisoned slot still holds a valid job.
        let job = jobs[i]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        job.map_or(Ok(()), |(band, px)| work(band, px))
    };
    std::thread::scope(|s| {
        let run = &run;
        let spawned: Vec<_> = (1..jobs.len())
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

/// The one visit order every band follows, from the bands' summed seed
/// histograms: the distinct seed offsets, most-seeded first, then the
/// rest ascending. Unscreened, no pixel is seeded and the order is the
/// ascending raster order of every other driver, so strict-less winner
/// updates agree with theirs.
fn visit_order(bands: &[Band], n_off: usize) -> Vec<usize> {
    let mut seeded = vec![0usize; n_off];
    for band in bands {
        for (total, &k) in seeded.iter_mut().zip(&band.seeded) {
            *total += k;
        }
    }
    let mut order: Vec<usize> = (0..n_off).filter(|&oi| seeded[oi] > 0).collect();
    order.sort_by_key(|&oi| Reverse(seeded[oi]));
    order.extend((0..n_off).filter(|&oi| seeded[oi] == 0));
    order
}

/// Both phases over `cuts.len() - 1` bands drawn from `scratch`, with the
/// caller computing the [`visit_order`] between them, so each pixel meets
/// the same candidates in the same order whatever the band count. The
/// tally counts the work the bands did even when the sweep stopped
/// early, so a cancelled call still reports it.
fn sweep(
    sh: &Shared,
    pixels: &[(usize, usize)],
    cuts: &[usize],
    scratch: &mut Vec<Band>,
) -> (Tally, Result<(), SmaError>) {
    let n = cuts.len() - 1;
    if scratch.len() < n {
        scratch.resize_with(n, Band::default);
    }
    let bands = &mut scratch[..n];
    let n_off = sh.offsets.len();
    let swept = on_bands(bands, pixels, cuts, |band, px| band.prepare(sh, px)).and_then(|()| {
        let order = visit_order(bands, n_off);
        on_bands(bands, pixels, cuts, |band, px| band.search(sh, px, &order))
    });
    let tally = Tally {
        bands: n,
        evaluated: bands.iter().map(|b| b.evaluated).sum(),
        skipped: bands.iter().map(|b| b.skipped).sum(),
        tight_skipped: bands.iter().map(|b| b.tight_skipped).sum(),
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

    let shared = Shared::new(frames, cfg, crate::cancel::current());
    let claim = BandClaim::take(useful_bands(bottom - top + 1, shared.dec_static.is_some()));
    let cuts = split_bands(&interior, bands.unwrap_or(claim.bands()), w, cfg.nzt);
    let mut scratch = SCRATCH.take();
    let (tally, swept) = sweep(&shared, &interior, &cuts, &mut scratch);
    drop(claim);
    HYPOTHESES.add(tally.evaluated);
    GE_SOLVES.add(tally.evaluated);
    CANDIDATES_SKIPPED.add(tally.skipped);
    TIGHT_SKIPPED.add(tally.tight_skipped);
    PRUNED_PLANES.add(tally.planes_built);
    PRUNED_BANDS.add(tally.bands as u64);

    // Shared near-tie guard: identical predicate, identical re-route.
    // The screen never skips a candidate inside the band around the
    // final best, so the observed runner-up classifies each pixel
    // exactly as an exhaustive sweep would.
    let mut ties: Vec<(usize, usize)> = Vec::new();
    if swept.is_ok() {
        for (band, c) in scratch.iter().zip(cuts.windows(2)) {
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
                let cuts = split_bands(&interior, n, 64, cfg.nzt);
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
        // but with no bound filled and no pixel seeded. The sweep is
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
        let cuts = split_bands(&interior, 3, w, cfg.nzt);
        let token = crate::cancel::CancelToken::new();
        token.cancel(7, 5);
        let _g = crate::cancel::install(token);
        let shared = Shared::new(&f, &cfg, crate::cancel::current());
        assert!(shared.dec_static.is_some(), "the screen must arm here");
        let mut scratch = Vec::new();
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
        for (i, band) in scratch.iter().enumerate() {
            assert_eq!(band.systems.len(), cuts[i + 1] - cuts[i], "band {i}");
            assert!(band.seeded.iter().all(|&k| k == 0), "band {i} seeded");
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
    fn bands_cover_the_rows_and_lean_upward() {
        // Contiguous, row-aligned, non-empty bands over every pixel;
        // an upper band rebuilds a shorter prefix, so it takes at least
        // as many rows as the band below it.
        let pixels: Vec<(usize, usize)> = (16..80)
            .flat_map(|y| (16..80).map(move |x| (x, y)))
            .collect();
        for n in [1usize, 2, 3, 7, 64, 100] {
            let cuts = split_bands(&pixels, n, 96, 7);
            assert_eq!(cuts.len(), n.min(64) + 1, "n={n}");
            assert_eq!((cuts[0], cuts[cuts.len() - 1]), (0, pixels.len()));
            let rows: Vec<usize> = cuts.windows(2).map(|c| (c[1] - c[0]) / 64).collect();
            for (c, r) in cuts.windows(2).zip(&rows) {
                assert!(c[1] > c[0] && c[0] % 64 == 0 && *r >= 1, "n={n} {cuts:?}");
            }
            assert!(rows.windows(2).all(|r| r[0] >= r[1]), "n={n} {rows:?}");
        }
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
    #[derive(Debug, Default)]
    struct Checked {
        /// Candidates with a usable tight bound.
        tight: usize,
        /// Of those, the ones whose tight bound lies within 1 % of the
        /// error: the closed form is the LU error, less its guard.
        tight_within_1pc: usize,
        /// Candidates with a positive block bound.
        coarse: usize,
        /// The largest Hadamard ratio among pixels the tight screen
        /// serves.
        max_kappa: f64,
    }

    /// Every interior candidate's moment error, computed by
    /// `eval_candidate` exhaustively over all offsets, must lie at or
    /// above both the block bound its band stored and the tight bound
    /// from the candidate's window sums. Holds the toggle lock, so the
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
        let sh = Shared::new(f, cfg, None);
        assert!(sh.dec_static.is_some(), "{tag}: the screen must arm");
        let mut band = Band::default();
        band.prepare(&sh, &pixels).expect("prepare");
        let nb = band.seeds.len();
        let mut planes = OffsetPlanes::new(w, h);
        let mut checked = Checked::default();
        for sys in band.systems.iter().filter_map(|s| s.blocks.as_ref()) {
            if sys.kappa <= TIGHT_KAPPA_MAX {
                checked.max_kappa = checked.max_kappa.max(sys.kappa);
            }
        }
        for (oi, &(ox, oy)) in sh.offsets.iter().enumerate() {
            let (stat, gx, gy) = (&sh.stat, &sh.gx_plane, &sh.gy_plane);
            planes.build(f, cfg, stat, gx, gy, (ox, oy), (w, h));
            for (i, &(x, y)) in pixels.iter().enumerate() {
                let sys = &band.systems[i];
                let t = planes.window_sum(x, y, cfg.nzt);
                let mut st = EvalState {
                    best: MotionEstimate::invalid(),
                    second: f64::INFINITY,
                    done: false,
                };
                let evaluated = eval_candidate(f, cfg, (x, y), sys, &mut st, (ox, oy), &t);
                if band.states[i].done || !evaluated || !st.best.valid {
                    continue;
                }
                let err = st.best.error;
                let what = format!("{tag}: ({x},{y}) offset ({ox},{oy}) error {err:e}");
                let coarse = band.lb[oi * nb + band.block_of[i]];
                assert!(coarse <= err, "{what}: block bound {coarse:e}");
                checked.coarse += usize::from(coarse > 0.0);
                let tight = tight_bound(sys, &t);
                assert!(tight <= err, "{what}: tight bound {tight:e}");
                if tight.is_finite() {
                    checked.tight += 1;
                    checked.tight_within_1pc += usize::from(tight >= 0.99 * err);
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

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(10))]

        #[test]
        fn bounds_are_admissible_on_random_scenes(
            seed in 0u64..10_000,
            dx in -2.0f32..2.0,
            dy in -2.0f32..2.0,
            wide in 0u8..2,
        ) {
            let cfg = if wide == 1 {
                SmaConfig { nzs: 3, ..SmaConfig::small_test(MotionModel::Continuous) }
            } else {
                SmaConfig::small_test(MotionModel::Continuous)
            };
            let f = surface_frames(28, textured_surface(seed), (dx, dy), &cfg);
            let c = assert_bounds_admissible(&f, &cfg, &format!("seed {seed}"));
            proptest::prop_assert!(c.tight > 0 && c.coarse > 0, "{c:?}");
            proptest::prop_assert!(2 * c.tight_within_1pc > c.tight, "{c:?}");
        }
    }

    #[test]
    fn bounds_are_admissible_on_near_collinear_gradients() {
        // Surfaces that are nearly a function of one direction, `g(x +
        // 0.6 y) + eps h(x, y)`, so `zy ~ 0.6 zx` across every window,
        // and nearly a plane, `0.5 x + 0.3 y + eps h(x, y)`, so `zx`,
        // `zy` and the constant column nearly align: both blocks are
        // ill-conditioned but invertible, down to Hadamard ratios near
        // the tight screen's ceiling.
        let cfg = SmaConfig::small_test(MotionModel::Continuous);
        let h = |x: f32, y: f32| (x * 0.37).sin() * (y * 0.29).cos() + (x * 0.11 - y * 0.23).sin();
        let mut max_kappa = 0.0f64;
        for eps in [1e-1f32, 1e-2, 1e-3] {
            let ridge = move |x: f32, y: f32| ((x + 0.6 * y) * 0.31).sin() * 4.0 + eps * h(x, y);
            let plane = move |x: f32, y: f32| 0.5 * x + 0.3 * y + eps * h(x, y);
            for (name, shift) in [("ridge", (1.0, -1.0)), ("ridge", (0.4, 0.7))] {
                let f = surface_frames(28, ridge, shift, &cfg);
                let c = assert_bounds_admissible(&f, &cfg, &format!("{name} eps {eps}"));
                max_kappa = max_kappa.max(c.max_kappa);
            }
            for shift in [(1.0, 0.0), (-0.6, 0.3)] {
                let f = surface_frames(28, plane, shift, &cfg);
                let c = assert_bounds_admissible(&f, &cfg, &format!("plane eps {eps}"));
                max_kappa = max_kappa.max(c.max_kappa);
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
