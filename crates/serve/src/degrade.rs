//! The load-shedding degrade ladder.
//!
//! A saturated tenant's frames step down the ladder before any frame is
//! dropped: the pruned driver's SIMD lane kernels first give way to the
//! integral fast path (bit-identical output, less lane bookkeeping),
//! then to the translation-only Fcont driver (a strict subset of the
//! hypothesis space — cheaper by the affine-refinement factor,
//! comparable but not bit-identical output). Only past the bottom rung
//! are pairs shed outright. Each rung calls its own driver.
//!
//! Pressure is *byte* pressure: the tenant's fair-share cache shard
//! relative to what a resident pair needs. That signal is fixed at
//! admission time — a pure function of the admission sequence, not of
//! scheduling — so a tenant's degrade level (and therefore its output
//! bits) is reproducible run to run.

use sma_core::sequential::Region;
use sma_core::sequential::SmaResult;
use sma_core::{
    track_all_integral, track_all_pruned, track_all_translation_only, SmaConfig, SmaError,
    SmaFrames,
};

/// One rung of the degrade ladder, top first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradeLevel {
    /// Full-speed SIMD lane kernels: the pruned driver
    /// ([`sma_core::track_all_pruned`]).
    Simd,
    /// Integral-image fast path ([`sma_core::track_all_integral`]) —
    /// bit-identical to the top rung, no lane kernels.
    Integral,
    /// Translation-only Fcont ([`sma_core::track_all_translation_only`])
    /// — the shedding fallback; comparable, not bit-identical.
    TranslationOnly,
}

impl DegradeLevel {
    /// Ladder position, 0 at the top.
    pub fn depth(self) -> u8 {
        match self {
            DegradeLevel::Simd => 0,
            DegradeLevel::Integral => 1,
            DegradeLevel::TranslationOnly => 2,
        }
    }

    /// The next rung down, `None` at the bottom.
    pub fn lower(self) -> Option<Self> {
        match self {
            DegradeLevel::Simd => Some(DegradeLevel::Integral),
            DegradeLevel::Integral => Some(DegradeLevel::TranslationOnly),
            DegradeLevel::TranslationOnly => None,
        }
    }

    /// Stable name for reports and counters.
    pub fn name(self) -> &'static str {
        match self {
            DegradeLevel::Simd => "simd",
            DegradeLevel::Integral => "integral",
            DegradeLevel::TranslationOnly => "translation_only",
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
            DegradeLevel::Simd => track_all_pruned(frames, cfg, region),
            DegradeLevel::Integral => track_all_integral(frames, cfg, region),
            DegradeLevel::TranslationOnly => track_all_translation_only(frames, cfg, region),
        }
    }
}

/// The level (and shed decision) byte pressure dictates, starting from
/// `base`. `needed_bytes` is a resident pair (two frame-artifact sets);
/// `shard_bytes` is the tenant's fair share. One rung down per doubling
/// of oversubscription; past 4x even the bottom rung cannot keep up
/// with the recompute traffic, so alternate pairs are shed.
pub fn level_for_pressure(
    base: DegradeLevel,
    needed_bytes: usize,
    shard_bytes: usize,
) -> (DegradeLevel, bool) {
    let steps = if shard_bytes >= needed_bytes {
        0
    } else if 2 * shard_bytes >= needed_bytes {
        1
    } else {
        2
    };
    let mut level = base;
    for _ in 0..steps {
        level = level.lower().unwrap_or(level);
    }
    let shed = 4 * shard_bytes < needed_bytes;
    (level, shed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_steps_down_and_bottoms_out() {
        assert_eq!(DegradeLevel::Simd.lower(), Some(DegradeLevel::Integral));
        assert_eq!(
            DegradeLevel::Integral.lower(),
            Some(DegradeLevel::TranslationOnly)
        );
        assert_eq!(DegradeLevel::TranslationOnly.lower(), None);
        assert!(DegradeLevel::Simd.depth() < DegradeLevel::TranslationOnly.depth());
    }

    #[test]
    fn pressure_maps_to_rungs() {
        let base = DegradeLevel::Simd;
        assert_eq!(
            level_for_pressure(base, 100, 100),
            (DegradeLevel::Simd, false)
        );
        assert_eq!(
            level_for_pressure(base, 100, 60),
            (DegradeLevel::Integral, false)
        );
        assert_eq!(
            level_for_pressure(base, 100, 40),
            (DegradeLevel::TranslationOnly, false)
        );
        assert_eq!(
            level_for_pressure(base, 100, 20),
            (DegradeLevel::TranslationOnly, true)
        );
    }

    #[test]
    fn rungs_run_their_drivers() {
        use sma_core::MotionModel;
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
        // The top two rungs differ in speed only.
        same_bits(
            &run(DegradeLevel::Simd),
            &run(DegradeLevel::Integral),
            "simd vs integral rung",
        );
        // The bottom rung is the translation-only driver.
        let shed = track_all_translation_only(&frames, &cfg, region).expect("translation-only");
        same_bits(
            &run(DegradeLevel::TranslationOnly),
            &shed,
            "translation-only rung",
        );
    }

    #[test]
    fn degraded_base_saturates_at_bottom() {
        let (level, shed) = level_for_pressure(DegradeLevel::TranslationOnly, 100, 40);
        assert_eq!(level, DegradeLevel::TranslationOnly);
        assert!(!shed);
    }
}
