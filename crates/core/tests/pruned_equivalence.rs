//! Property equivalence for the pruned-search driver.
//!
//! Everything here pins *bit* identity: the pruned driver reorders the
//! hypothesis sweep and skips candidates only when an admissible lower
//! bound proves them outside the near-tie band, so against the scalar
//! integral sweep — and against its own run with the screen disarmed —
//! not one output bit may move. The corpus leans on the scenes where a wrong
//! bound or a sloppy tie rule would actually surface:
//!
//! * frames whose width is not a multiple of the 8-wide SIMD lane (the
//!   pruned eval loop shares the lane kernels' remainder handling);
//! * frames so small every pixel sits in the border band (the screen
//!   never arms; the exact-fallback ring must still match);
//! * zero-variance windows (singular systems, unscreenable pixels);
//! * a block of non-finite input that preparation quarantines;
//! * periodic scenes where whole families of offsets tie to the bit
//!   (the skip threshold must keep every near-tie candidate alive and
//!   the seed-first sweep must reproduce raster tie-breaking);
//! * the paper's own windows (Florida 15 x 15, Luis 9 x 9 search) on
//!   the paper-shaped satdata scenes, where seeds scatter over many
//!   offsets and the sweep's visit order differs most from raster order.

use proptest::prelude::*;
use sma_core::sequential::{Region, SmaResult};
use sma_core::{
    track_all_integral, track_all_pruned, MotionEstimate, MotionModel, SmaConfig, SmaFrames,
};
use sma_grid::warp::translate;
use sma_grid::{BorderPolicy, Grid};
use sma_satdata::{florida_thunderstorm_analog, hurricane_luis_analog, SceneSequence};
use std::sync::Mutex;

/// Serializes the tests that flip the global `SMA_PRUNE` toggle, so one
/// test's disarmed window can never leak into another's armed
/// assertion. (Identity tests that only read the ambient state don't
/// need it: they hold under either setting.)
static TOGGLE: Mutex<()> = Mutex::new(());

/// A deterministic, richly textured surface parameterized by seed.
fn textured(w: usize, h: usize, seed: u64) -> Grid<f32> {
    Grid::from_fn(w, h, |x, y| {
        let s = seed as f32 * 0.017;
        let (xf, yf) = (x as f32, y as f32);
        (xf * (0.43 + s * 0.01)).sin() * 2.0
            + (yf * 0.31 + s).cos() * 1.5
            + (xf * 0.13 + yf * 0.21 + s).sin() * 3.0
    })
}

/// Prepared frame pair with the after-view translated by `(dx, dy)`.
fn shifted(before: &Grid<f32>, dx: f32, dy: f32, cfg: &SmaConfig) -> SmaFrames {
    let after = translate(before, -dx, -dy, BorderPolicy::Clamp);
    SmaFrames::prepare(before, &after, before, &after, cfg).expect("prepare")
}

/// Asserts pruned matches the scalar integral sweep on every pixel of
/// `region`, to the bit.
fn assert_matches_integral(f: &SmaFrames, cfg: &SmaConfig, region: Region, tag: &str) {
    let integral = track_all_integral(f, cfg, region).expect("integral");
    let pruned = track_all_pruned(f, cfg, region).expect("pruned");
    for (x, y) in integral.region.pixels() {
        assert_eq!(
            integral.estimates.at(x, y),
            pruned.estimates.at(x, y),
            "{tag}: pruned diverged at ({x},{y})"
        );
    }
}

/// Replays the same pruned run with the screen armed and disarmed and
/// asserts bit identity; restores the armed default afterwards.
fn assert_toggle_identity(f: &SmaFrames, cfg: &SmaConfig, region: Region, tag: &str) {
    let _guard = TOGGLE.lock().unwrap_or_else(|e| e.into_inner());
    sma_grid::prune::set_enabled(true);
    let on = track_all_pruned(f, cfg, region).expect("pruned on");
    sma_grid::prune::set_enabled(false);
    let off = track_all_pruned(f, cfg, region).expect("pruned off");
    sma_grid::prune::set_enabled(true);
    for (x, y) in on.region.pixels() {
        assert_eq!(
            on.estimates.at(x, y),
            off.estimates.at(x, y),
            "{tag}: screen toggle moved a bit at ({x},{y})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Randomized scenes, both motion models, frame widths straddling
    /// the 8-lane boundary (the 25..41 range covers every residue mod
    /// 8), sub-pixel shifts, full region including the border ring.
    #[test]
    fn pruned_matches_integral_on_random_scenes(
        w in 25usize..41,
        h in 24usize..34,
        seed in 0u64..1000,
        dxq in -6i32..7,
        dyq in -6i32..7,
        semi in 0u8..2,
    ) {
        let model = if semi == 1 { MotionModel::SemiFluid } else { MotionModel::Continuous };
        let cfg = SmaConfig::small_test(model);
        let f = shifted(&textured(w, h, seed), dxq as f32 * 0.5, dyq as f32 * 0.5, &cfg);
        assert_matches_integral(&f, &cfg, Region::Full, "random scene");
    }

    /// The same randomized corpus, pinned against the disarmed screen:
    /// prune-on and prune-off replay to identical bits.
    #[test]
    fn screen_toggle_is_identity_on_random_scenes(
        w in 25usize..41,
        h in 24usize..34,
        seed in 0u64..1000,
        dxq in -4i32..5,
        dyq in -4i32..5,
    ) {
        let cfg = SmaConfig::small_test(MotionModel::Continuous);
        let f = shifted(&textured(w, h, seed), dxq as f32 * 0.5, dyq as f32 * 0.5, &cfg);
        assert_toggle_identity(&f, &cfg, Region::Full, "random scene");
    }
}

/// A frame too small for any interior pixel: with the small-test
/// margins (nzt + nzs + nz = 7) a 13 x 13 frame is all border band, so
/// the pruned driver's exact-fallback ring carries every pixel and the
/// screen never sees a candidate.
#[test]
fn all_border_tile_matches_integral() {
    let cfg = SmaConfig::small_test(MotionModel::Continuous);
    let f = shifted(&textured(13, 13, 7), 1.0, 0.0, &cfg);
    assert_matches_integral(&f, &cfg, Region::Full, "all-border tile");
    assert_toggle_identity(&f, &cfg, Region::Full, "all-border tile");
}

/// Zero-variance windows everywhere: every per-pixel system is
/// singular, the screen is unscreenable (no finite bound exists), and
/// every hypothesis must still be evaluated and rejected exactly as the
/// integral sweep rejects it.
#[test]
fn zero_variance_windows_match_integral() {
    let cfg = SmaConfig::small_test(MotionModel::Continuous);
    let flat = Grid::filled(28, 28, 2.5f32);
    let f = SmaFrames::prepare(&flat, &flat, &flat, &flat, &cfg).expect("prepare");
    assert_matches_integral(&f, &cfg, Region::Full, "flat scene");
    assert_toggle_identity(&f, &cfg, Region::Full, "flat scene");
}

/// Adversarial near-ties: a period-2 scene aliases the search, so every
/// offset of even displacement produces a bit-identical error. The skip
/// threshold must keep all of them alive (they are exact ties with the
/// winner, well inside the near-tie band) and the seed-first sweep
/// must crown the same winner raster order would.
#[test]
fn periodic_near_ties_match_integral() {
    let cfg = SmaConfig::small_test(MotionModel::Continuous);
    let before = Grid::from_fn(32, 32, |x, y| {
        (std::f32::consts::PI * x as f32).cos() * 2.0 + y as f32 * 0.05
    });
    let f = shifted(&before, 1.0, 0.0, &cfg);
    assert_matches_integral(&f, &cfg, Region::Full, "period-2 scene");
    assert_toggle_identity(&f, &cfg, Region::Full, "period-2 scene");
}

/// Diagonal periodic ties plus a flat stripe: mixes unscreenable rows
/// into a tie-heavy scene, so skip decisions, singular fallbacks and
/// the sweep's visit order all fire within one run.
#[test]
fn mixed_ties_and_flat_stripe_match_integral() {
    let cfg = SmaConfig::small_test(MotionModel::Continuous);
    let before = Grid::from_fn(33, 31, |x, y| {
        if (12..16).contains(&y) {
            1.0
        } else {
            (std::f32::consts::PI * (x as f32 + y as f32) * 0.5).sin() * 3.0
        }
    });
    let f = shifted(&before, -1.0, 1.0, &cfg);
    assert_matches_integral(&f, &cfg, Region::Full, "mixed scene");
    assert_toggle_identity(&f, &cfg, Region::Full, "mixed scene");
}

/// A quarantined block: an 8 x 8 patch of NaN pixels that preparation
/// repairs and masks. The repaired neighbourhood must leave the pruned
/// driver bit-identical to the integral sweep and to its own unscreened
/// run.
#[test]
fn quarantined_nan_block_matches_integral() {
    let cfg = SmaConfig::small_test(MotionModel::Continuous);
    let mut before = Grid::from_fn(28, 28, |x, y| {
        (x as f32 * 0.37).sin() * (y as f32 * 0.23).cos()
    });
    for y in 8..16 {
        for x in 8..16 {
            before.set(x, y, f32::NAN);
        }
    }
    let after = Grid::from_fn(28, 28, |x, y| before.at(x.saturating_sub(1), y));
    let f = SmaFrames::prepare(&before, &after, &before, &after, &cfg).expect("prepare");
    assert_matches_integral(&f, &cfg, Region::Full, "quarantined block");
    assert_toggle_identity(&f, &cfg, Region::Full, "quarantined block");
}

/// Every bit of one estimate: displacement, the nine affine terms, the
/// error and the validity flag.
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

/// Asserts two results agree on every estimate of `want`'s region, bit
/// for bit.
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

/// The first two pairs of `seq` at the paper's windows, interior region:
/// pruned must equal the scalar integral sweep bit for bit with the
/// screen armed and disarmed.
fn assert_paper_windows(seq: &SceneSequence, cfg: &SmaConfig, tag: &str) {
    let region = Region::Interior {
        margin: cfg.margin(),
    };
    for t in 0..2 {
        let f = SmaFrames::prepare(
            &seq.frames[t].intensity,
            &seq.frames[t + 1].intensity,
            seq.surface(t),
            seq.surface(t + 1),
            cfg,
        )
        .expect("prepare");
        let integral = track_all_integral(&f, cfg, region).expect("integral");
        let _guard = TOGGLE.lock().unwrap_or_else(|e| e.into_inner());
        sma_grid::prune::set_enabled(true);
        let on = track_all_pruned(&f, cfg, region).expect("pruned");
        sma_grid::prune::set_enabled(false);
        let off = track_all_pruned(&f, cfg, region).expect("pruned off");
        sma_grid::prune::set_enabled(true);
        for (got, which) in [(&on, "pruned"), (&off, "pruned, screen off")] {
            assert_bits_equal(
                &integral,
                got,
                &format!("{tag} pair {t}: {which} vs integral"),
            );
        }
    }
}

/// GOES-9 Florida at the paper's 15 x 15 search and template.
#[test]
fn florida_paper_windows_match_integral() {
    let cfg = SmaConfig::goes9_florida();
    assert_paper_windows(&florida_thunderstorm_analog(64, 3, 11), &cfg, "florida");
}

/// Hurricane Luis at the paper's 9 x 9 search, 11 x 11 template.
#[test]
fn luis_paper_windows_match_integral() {
    let cfg = SmaConfig::hurricane_luis();
    assert_paper_windows(&hurricane_luis_analog(64, 3, 12), &cfg, "luis");
}
