//! The load-shedding degrade step.
//!
//! Every tenant runs the production pruned driver. A semi-fluid tenant
//! has one cheaper step below it: the translation-only driver, which
//! fixes each hypothesis's affine parameters to the translation
//! solution instead of re-routing near-ties through the exact kernel
//! (comparable, not bit-identical output). A continuous tenant has no
//! cheaper step — the pruned driver is the fastest way to track an
//! `Fcont` pair — so it stays on the top rung, and work it cannot
//! afford is shed outright.
//!
//! Pressure is *byte* pressure: the tenant's fair-share cache shard
//! relative to what a resident pair needs. That signal is fixed at
//! admission time — a pure function of the admission sequence and each
//! tenant's motion model, not of scheduling — so a tenant's degrade
//! level (and therefore its output bits) is reproducible run to run.

use sma_core::sequential::Region;
use sma_core::sequential::SmaResult;
use sma_core::{
    track_all_pruned, track_all_translation_only, MotionModel, SmaConfig, SmaError, SmaFrames,
};

/// One rung of the degrade ladder, top first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradeLevel {
    /// The production pruned driver ([`sma_core::track_all_pruned`]).
    Pruned,
    /// Translation-only matching
    /// ([`sma_core::track_all_translation_only`]) — the semi-fluid
    /// step; comparable, not bit-identical.
    TranslationOnly,
}

impl DegradeLevel {
    /// The next rung down for a tenant of motion model `model`: only a
    /// semi-fluid tenant steps from [`DegradeLevel::Pruned`] to
    /// [`DegradeLevel::TranslationOnly`]. `None` where there is no
    /// cheaper rung.
    pub fn lower(self, model: MotionModel) -> Option<Self> {
        match (self, model) {
            (DegradeLevel::Pruned, MotionModel::SemiFluid) => Some(DegradeLevel::TranslationOnly),
            _ => None,
        }
    }

    /// Run this rung's driver.
    ///
    /// # Errors
    /// Propagates the driver's error, including
    /// [`SmaError::DeadlineExceeded`] from a cancellation point.
    pub fn run(
        self,
        frames: &SmaFrames,
        cfg: &SmaConfig,
        region: Region,
    ) -> Result<SmaResult, SmaError> {
        match self {
            DegradeLevel::Pruned => track_all_pruned(frames, cfg, region),
            DegradeLevel::TranslationOnly => track_all_translation_only(frames, cfg, region),
        }
    }
}

/// The level (and shed decision) byte pressure dictates for a tenant of
/// motion model `model`. `needed_bytes` is a resident pair (two
/// frame-artifact sets); `shard_bytes` is the tenant's fair share. Past
/// 2x oversubscription a tenant takes its cheaper rung, if its model
/// has one; past 4x alternate pairs are shed as well.
pub fn level_for_pressure(
    model: MotionModel,
    needed_bytes: usize,
    shard_bytes: usize,
) -> (DegradeLevel, bool) {
    let level = match DegradeLevel::Pruned.lower(model) {
        Some(lower) if 2 * shard_bytes < needed_bytes => lower,
        _ => DegradeLevel::Pruned,
    };
    let shed = 4 * shard_bytes < needed_bytes;
    (level, shed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_steps_down_and_bottoms_out() {
        assert_eq!(
            DegradeLevel::Pruned.lower(MotionModel::SemiFluid),
            Some(DegradeLevel::TranslationOnly)
        );
        assert_eq!(DegradeLevel::Pruned.lower(MotionModel::Continuous), None);
        for model in [MotionModel::Continuous, MotionModel::SemiFluid] {
            assert_eq!(DegradeLevel::TranslationOnly.lower(model), None);
        }
    }

    #[test]
    fn pressure_maps_to_rungs() {
        use DegradeLevel::{Pruned, TranslationOnly};
        // needed/shard at 1, 2 and 4, and just past each.
        let shard = 100;
        let cases = [
            (100, Pruned, Pruned, false),
            (101, Pruned, Pruned, false),
            (200, Pruned, Pruned, false),
            (201, Pruned, TranslationOnly, false),
            (400, Pruned, TranslationOnly, false),
            (401, Pruned, TranslationOnly, true),
        ];
        for (needed, cont, semi, shed) in cases {
            assert_eq!(
                level_for_pressure(MotionModel::Continuous, needed, shard),
                (cont, shed),
                "Fcont at {needed}/{shard}"
            );
            assert_eq!(
                level_for_pressure(MotionModel::SemiFluid, needed, shard),
                (semi, shed),
                "Fsemi at {needed}/{shard}"
            );
        }
    }

    #[test]
    fn rungs_run_their_drivers() {
        use sma_grid::Grid;

        let cfg = SmaConfig::small_test(MotionModel::Continuous);
        let before = Grid::from_fn(28, 28, |x, y| {
            (x as f32 * 0.37).sin() * (y as f32 * 0.23).cos() + 0.01 * (x + 2 * y) as f32
        });
        let after = Grid::from_fn(28, 28, |x, y| before.at(x.saturating_sub(1), y));
        let frames = SmaFrames::prepare(&before, &after, &before, &after, &cfg).expect("prepare");
        let region = Region::Interior {
            margin: cfg.margin(),
        };
        let run = |level: DegradeLevel| level.run(&frames, &cfg, region).expect("rung");
        let same_bits = |a: &SmaResult, b: &SmaResult, what: &str| {
            assert_eq!(a.region, b.region, "{what}: region");
            for (x, y) in a.region.pixels() {
                let (ea, eb) = (a.estimates.at(x, y), b.estimates.at(x, y));
                assert_eq!(ea, eb, "{what} at ({x},{y})");
                assert_eq!(
                    ea.error.to_bits(),
                    eb.error.to_bits(),
                    "{what} at ({x},{y})"
                );
            }
        };
        let top = track_all_pruned(&frames, &cfg, region).expect("pruned");
        same_bits(&run(DegradeLevel::Pruned), &top, "pruned rung");
        let shed = track_all_translation_only(&frames, &cfg, region).expect("translation-only");
        same_bits(
            &run(DegradeLevel::TranslationOnly),
            &shed,
            "translation-only rung",
        );
    }
}
