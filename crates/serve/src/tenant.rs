//! Tenant sequences and per-pair outcomes.

use std::sync::Arc;

use sma_core::sequential::Region;
use sma_core::sequential::SmaResult;
use sma_core::{FrameArtifacts, SmaConfig, SmaError};
use sma_grid::Grid;
use sma_satdata::SceneSequence;

use crate::degrade::DegradeLevel;

/// One frame's owned input planes, `Arc`-shared so worker threads can
/// hold them without copying.
#[derive(Debug, Clone)]
pub struct FramePlanes {
    /// Intensity image.
    pub intensity: Arc<Grid<f32>>,
    /// Surface input (height map for stereo sequences, the intensity
    /// itself for monocular ones).
    pub surface: Arc<Grid<f32>>,
}

/// One tenant's sequence: the unit of admission.
#[derive(Debug, Clone)]
pub struct TenantSeq {
    /// Display name carried into reports and counters.
    pub name: String,
    /// Frames in order; pair `t` is `(t, t+1)`.
    pub frames: Vec<FramePlanes>,
    /// Tracking configuration.
    pub cfg: SmaConfig,
    /// Region tracked per pair.
    pub region: Region,
}

impl TenantSeq {
    /// A tenant over explicit frames.
    pub fn new(name: impl Into<String>, frames: Vec<FramePlanes>, cfg: SmaConfig) -> Self {
        let region = Region::Interior {
            margin: cfg.margin(),
        };
        Self {
            name: name.into(),
            frames,
            cfg,
            region,
        }
    }

    /// A tenant over a satdata [`SceneSequence`] (planes are copied
    /// into `Arc`s once).
    pub fn from_scene(name: impl Into<String>, seq: &SceneSequence, cfg: SmaConfig) -> Self {
        let frames = (0..seq.len())
            .map(|t| FramePlanes {
                intensity: Arc::new(seq.frames[t].intensity.clone()),
                surface: Arc::new(seq.surface(t).clone()),
            })
            .collect();
        Self::new(name, frames, cfg)
    }

    /// Number of adjacent pairs (frames - 1; 0 for a degenerate
    /// sequence).
    pub fn num_pairs(&self) -> usize {
        self.frames.len().saturating_sub(1)
    }

    /// Dimensions of frame 0 (the admission model's sizing frame).
    pub fn dims(&self) -> (usize, usize) {
        self.frames.first().map_or((0, 0), |f| f.intensity.dims())
    }

    /// Bytes one frame-artifact set will occupy, from
    /// [`FrameArtifacts::estimate_bytes`] — a pure function of the
    /// dimensions, so admission can cost the sequence before preparing
    /// anything.
    pub fn frame_bytes(&self) -> usize {
        let (w, h) = self.dims();
        FrameArtifacts::estimate_bytes(w, h)
    }
}

/// How one pair ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PairStatus {
    /// Completed on the top rung ([`DegradeLevel::Pruned`]).
    Ok,
    /// A semi-fluid pair completed on
    /// [`DegradeLevel::TranslationOnly`], by byte pressure or after an
    /// overrun on the top rung.
    Degraded,
    /// Shed: no result, by backpressure or a deadline overrun on the
    /// tenant's lowest rung.
    DroppedShed,
    /// Failed with a non-transient error.
    Failed(SmaError),
    /// Skipped while the tenant's circuit was open.
    CircuitSkipped,
}

/// Per-pair record in a [`TenantReport`].
#[derive(Debug, Clone)]
pub struct FrameOutcome {
    /// Pair index `t` (frames `t`, `t+1`).
    pub pair: usize,
    /// Terminal status.
    pub status: PairStatus,
    /// Level the final attempt ran at (`None` when nothing ran).
    pub level: Option<DegradeLevel>,
    /// Attempts consumed (1 = no retries).
    pub attempts: u32,
    /// Wall-clock latency of the pair, milliseconds.
    pub latency_ms: u64,
}

/// Everything the service produced for one tenant.
#[derive(Debug)]
pub struct TenantReport {
    /// Tenant id (admission order).
    pub tenant: usize,
    /// Tenant name.
    pub name: String,
    /// Per-pair results, `None` where no result was produced.
    pub results: Vec<Option<SmaResult>>,
    /// Per-pair outcome records, in pair order.
    pub outcomes: Vec<FrameOutcome>,
    /// The shard budget the tenant ended with.
    pub shard_bytes: usize,
    /// Level its pressure model assigned.
    pub level: DegradeLevel,
    /// Whether alternate pairs were shed.
    pub shed: bool,
}

impl TenantReport {
    /// Count of outcomes with the given coarse status name (see
    /// [`PairStatus`]): `"ok"`, `"degraded"`, `"dropped"`, `"failed"`,
    /// `"skipped"`.
    pub fn count(&self, status: &str) -> usize {
        self.outcomes
            .iter()
            .filter(|o| {
                matches!(
                    (&o.status, status),
                    (PairStatus::Ok, "ok")
                        | (PairStatus::Degraded, "degraded")
                        | (PairStatus::DroppedShed, "dropped")
                        | (PairStatus::Failed(_), "failed")
                        | (PairStatus::CircuitSkipped, "skipped")
                )
            })
            .count()
    }
}
