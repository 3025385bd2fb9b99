//! The pruned driver's build invariant on the paper's windows: one call
//! builds each hypothesis offset's moment plane at most once, so
//! `pruned.offset_planes_built` never exceeds `(2 Nzs + 1)^2` per call,
//! while the screen still skips candidates.
//!
//! The obs counters are process-global, so this check lives in a test
//! binary of its own with a single test: no concurrently running test
//! can add to the counters between the two snapshots.

use sma_core::sequential::Region;
use sma_core::{track_all_pruned, track_all_pruned_parallel, SmaConfig, SmaFrames};
use sma_satdata::{florida_thunderstorm_analog, hurricane_luis_analog};

#[test]
fn each_offset_plane_is_built_at_most_once_per_call() {
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
            let f = SmaFrames::prepare(
                &seq.frames[t].intensity,
                &seq.frames[t + 1].intensity,
                seq.surface(t),
                seq.surface(t + 1),
                cfg,
            )
            .expect("prepare");
            for parallel in [false, true] {
                let counter = |name: &str| sma_obs::metrics::snapshot().counter(name);
                let planes0 = counter("pruned.offset_planes_built");
                let skipped0 = counter("prune.candidates_skipped");
                if parallel {
                    track_all_pruned_parallel(&f, cfg, region).expect("pruned par");
                } else {
                    track_all_pruned(&f, cfg, region).expect("pruned");
                }
                let planes = counter("pruned.offset_planes_built") - planes0;
                let skipped = counter("prune.candidates_skipped") - skipped0;
                let what = format!("{tag} pair {t} parallel={parallel}");
                assert!(planes >= 1, "{what}: no plane built");
                assert!(
                    planes <= side * side,
                    "{what}: {planes} planes built for {} offsets",
                    side * side
                );
                assert!(skipped > 0, "{what}: the screen skipped nothing");
            }
        }
    }
}
