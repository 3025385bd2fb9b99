//! The pruned driver's build invariant and screen cutover, read off the
//! obs counters.
//!
//! * On the paper's windows one call builds each hypothesis offset's
//!   moment plane at most once, so `pruned.offset_planes_built` never
//!   exceeds `(2 Nzs + 1)^2` per call, while the screen still skips
//!   candidates — at both levels: the tight screen skips candidates the
//!   block bound let through, and at most three candidates per interior
//!   pixel take the LU evaluation.
//! * The driver owns the decision to screen: below
//!   [`PRUNE_MIN_HYPOTHESES`] (a 3 x 3 sweep) it runs the raster sweep,
//!   skipping nothing and building every plane; at 5 x 5 the screen
//!   arms. Output is bit-identical to the integral path either way.
//!
//! The obs counters are process-global, so these checks live in a test
//! binary of their own and serialize on one lock: no concurrently
//! running test can add to the counters between two snapshots.

use std::sync::Mutex;

use sma_core::pruned::PRUNE_MIN_HYPOTHESES;
use sma_core::sequential::{Region, SmaResult};
use sma_core::{track_all_integral, track_all_pruned, SmaConfig, SmaFrames};
use sma_satdata::{florida_thunderstorm_analog, hurricane_luis_analog, SceneSequence};

static SERIAL: Mutex<()> = Mutex::new(());

fn counter(name: &str) -> u64 {
    sma_obs::metrics::snapshot().counter(name)
}

fn pair(seq: &SceneSequence, t: usize, cfg: &SmaConfig) -> SmaFrames {
    SmaFrames::prepare(
        &seq.frames[t].intensity,
        &seq.frames[t + 1].intensity,
        seq.surface(t),
        seq.surface(t + 1),
        cfg,
    )
    .expect("prepare")
}

/// What one pruned call counted.
struct Counts {
    planes: u64,
    skipped: u64,
    tight_skipped: u64,
    evaluated: u64,
    interior: u64,
}

/// One pruned call's result with its [`Counts`].
fn pruned_counts(f: &SmaFrames, cfg: &SmaConfig, region: Region) -> (SmaResult, Counts) {
    let names = [
        "pruned.offset_planes_built",
        "prune.candidates_skipped",
        "pruned.tight_skipped",
        "sma.hypotheses_evaluated",
        "pruned.interior_pixels",
    ];
    let before = names.map(counter);
    let result = track_all_pruned(f, cfg, region).expect("pruned");
    let [planes, skipped, tight_skipped, evaluated, interior] = {
        let mut after = names.map(counter);
        for (a, b) in after.iter_mut().zip(before) {
            *a -= b;
        }
        after
    };
    let counts = Counts {
        planes,
        skipped,
        tight_skipped,
        evaluated,
        interior,
    };
    (result, counts)
}

#[test]
fn each_offset_plane_is_built_at_most_once_per_call() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    sma_obs::set_level(sma_obs::ObsLevel::Summary);
    sma_grid::prune::set_enabled(true);
    let scenes = [
        (
            "florida",
            SmaConfig::goes9_florida(),
            florida_thunderstorm_analog(64, 3, 11),
        ),
        (
            "luis",
            SmaConfig::hurricane_luis(),
            hurricane_luis_analog(64, 3, 12),
        ),
    ];
    for (tag, cfg, seq) in &scenes {
        let side = 2 * cfg.nzs as u64 + 1;
        let region = Region::Interior {
            margin: cfg.margin(),
        };
        for t in 0..2 {
            let f = pair(seq, t, cfg);
            let (_, c) = pruned_counts(&f, cfg, region);
            let what = format!("{tag} pair {t}");
            assert!(c.planes >= 1, "{what}: no plane built");
            assert!(
                c.planes <= side * side,
                "{what}: {} planes built for {} offsets",
                c.planes,
                side * side
            );
            assert!(c.skipped > 0, "{what}: the screen skipped nothing");
            assert!(
                c.tight_skipped > 0,
                "{what}: the tight screen skipped nothing"
            );
            assert!(
                c.evaluated <= 3 * c.interior,
                "{what}: {} evaluations over {} interior pixels",
                c.evaluated,
                c.interior
            );
        }
    }
}

#[test]
fn screen_arms_at_the_hypothesis_cutover() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    sma_obs::set_level(sma_obs::ObsLevel::Summary);
    sma_grid::prune::set_enabled(true);
    let seq = hurricane_luis_analog(64, 3, 12);
    for nzs in [1usize, 2] {
        let cfg = SmaConfig {
            nzs,
            ..SmaConfig::hurricane_luis()
        };
        let hypotheses = (2 * nzs + 1) * (2 * nzs + 1);
        let region = Region::Interior {
            margin: cfg.margin(),
        };
        let f = pair(&seq, 0, &cfg);
        let (pruned, c) = pruned_counts(&f, &cfg, region);
        if hypotheses < PRUNE_MIN_HYPOTHESES {
            assert_eq!(
                (c.skipped, c.tight_skipped),
                (0, 0),
                "{hypotheses} hypotheses: the screen armed"
            );
            assert_eq!(
                c.planes, hypotheses as u64,
                "{hypotheses} hypotheses: the raster sweep builds every plane"
            );
        } else {
            assert!(
                c.skipped > 0,
                "{hypotheses} hypotheses: the screen skipped nothing"
            );
        }
        let integral = track_all_integral(&f, &cfg, region).expect("integral");
        assert_eq!(
            pruned.estimates, integral.estimates,
            "{hypotheses} hypotheses: pruned vs integral"
        );
    }
}
