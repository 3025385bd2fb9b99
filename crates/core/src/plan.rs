//! The production entry point.
//!
//! [`track_all_planner_with`] is the matcher a production caller names:
//! it runs the pruned driver ([`crate::pruned::track_all_pruned`]) over
//! the given region. The pruned driver makes every remaining execution
//! choice itself — whether to arm its screen (continuous-model sweeps
//! of at least [`crate::pruned::PRUNE_MIN_HYPOTHESES`] hypotheses), how
//! many row bands to run, and the exact-kernel fallback for pixels whose
//! template window crosses the frame edge — so the entry point has no
//! knob left to set.
//!
//! The paper's §4.3 segmentation by hypothesis rows exists because an
//! MP-2 PE holds 64 KB; it stays with the drivers that reproduce the
//! paper ([`crate::precompute`] and [`crate::maspar_driver`], budgeted by
//! [`maspar_sim::memory::MemoryBudget`]). A host keeps one resident
//! offset plane per row band and needs no segmentation.

use sma_fault::SmaError;

use crate::config::SmaConfig;
use crate::motion::SmaFrames;
use crate::pruned::track_all_pruned;
use crate::sequential::{Region, SmaResult};

/// The production entry point's knobs. There are none: every choice is
/// the pruned driver's own (see the module docs). The type stays so a
/// caller that spells out `PlannerKnobs::default()` keeps its call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlannerKnobs {}

/// Track every pixel of `region` with the production matcher, the
/// pruned driver. Bit-identical to [`track_all_pruned`] on any region.
///
/// # Errors
/// As [`track_all_pruned`]: [`sma_fault::GridError::EmptyRegion`] if the
/// region is empty, [`SmaError::DeadlineExceeded`] at a cancellation
/// point.
pub fn track_all_planner_with(
    frames: &SmaFrames,
    cfg: &SmaConfig,
    region: Region,
    _knobs: PlannerKnobs,
) -> Result<SmaResult, SmaError> {
    track_all_pruned(frames, cfg, region)
}
