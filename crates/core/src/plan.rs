//! The adaptive execution planner: one plan/execute engine over the
//! driver entry points.
//!
//! The paper's §4.3 memory model and the MasPar mapping dictate *where*
//! each strategy wins — the moment fast path when the planes fit,
//! hypothesis-row segmentation when they do not, the exact kernel where
//! the template window crosses the frame edge (the fast path would
//! re-route every such pixel anyway). This module turns those choices
//! into data:
//!
//! * [`Strategy`] — a name for each static driver a plan can assign;
//! * [`ExecutionPlanner`] — tiles the tracked region and picks a
//!   per-tile [`Strategy`] from the §4.3 [`MemoryBudget`], the tile's
//!   border geometry, and (optionally) the observed near-tie density
//!   fed back from the [`sma_obs::atlas`] telemetry planes;
//! * [`track_all_planner`] — the planner as a plain driver entry point,
//!   registered in the conformance matrix as `planner_auto`.
//!
//! Whether to screen candidates is the pruned driver's own decision
//! ([`crate::pruned`] arms its screen on continuous-model sweeps of at
//! least [`crate::pruned::PRUNE_MIN_HYPOTHESES`] hypotheses and runs a
//! plain raster sweep otherwise), so the planner's interior strategy is
//! simply the pruned driver, or the scalar integral path when
//! [`PlannerKnobs::allow_simd`] is off.
//!
//! ## Determinism contract
//!
//! The planner is a conformance-gated driver, so its output bits must
//! not depend on any runtime toggle (observability level, trace
//! capture, armed-at-rate-0 faults, the SIMD lane switch). The plan is
//! therefore a pure function of `(frames, cfg, region, knobs,
//! feedback)`: the atlas is consulted **only** through an explicitly
//! attached [`PlanFeedback`] — never read ambiently — and every
//! feedback-induced reassignment moves a tile between conformance-clean
//! strategies, so any plan stays within the declared cross-family ULP
//! contract.
//!
//! ## Bit-identity by construction
//!
//! Every per-pixel computation in this codebase is independent of the
//! tracked region (moment planes are whole-frame; the near-tie re-route
//! and border fallback are per-pixel predicates), so a strategy run
//! over a tile rectangle produces, for each tile pixel, exactly the
//! bits the same strategy produces over any enclosing region. The
//! executor exploits this twice: a uniform plan collapses to one driver
//! call over the whole region, and a mixed plan runs each distinct
//! moment strategy once over the bounding box of its tiles and copies
//! the assigned rectangles out. Exact-strategy tiles run the reference
//! per-pixel loop directly (the sequential driver *is* that loop).
//! Consequently, under default knobs the planner is bit-identical to
//! the pruned driver on any region — interior tiles take the pruned
//! strategy, and an all-border tile's exact loop matches the driver's
//! own border fallback pixel for pixel.
//!
//! Cancellation checkpoints ([`crate::cancel::checkpoint`]) run between
//! tiles and strategy groups, so a served pair aborts at tile
//! granularity; fault-ledger accounting rides inside the per-tile
//! drivers, which already record recovered re-routes and degraded
//! solves per injection site.

use maspar_sim::memory::{MemoryBudget, GODDARD_PE_MEMORY_BYTES};
use sma_fault::SmaError;
use sma_grid::{Grid, WindowBounds};
use sma_obs::atlas::{AtlasChannel, AtlasSnapshot};

use crate::config::SmaConfig;
use crate::fastpath::{
    track_all_integral, track_all_integral_segmented, track_all_translation_only,
};
use crate::motion::{track_pixel, MotionEstimate, SmaFrames};
use crate::pruned::track_all_pruned;
use crate::sequential::{track_all_sequential, Region, SmaResult};

/// PE-array edge of the Goddard MP-2 (16,384 PEs as a 128 x 128 grid) —
/// the machine shape the planner's §4.3 budget is derived for.
pub const GODDARD_PE_EDGE: usize = 128;

/// One uniform execution strategy — a name for each static driver a
/// plan can assign, so a plan is plain data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// The sequential exact reference ([`track_all_sequential`]).
    Sequential,
    /// Moment-plane integral fast path ([`track_all_integral`]).
    Integral,
    /// Fast path with hypothesis-row segmentation
    /// ([`track_all_integral_segmented`]).
    IntegralSegmented {
        /// Hypothesis rows of moment planes resident per segment.
        z_rows: usize,
    },
    /// The pruned-search fast path on the SIMD lane kernels
    /// ([`track_all_pruned`]), which screens its candidates wherever
    /// that pays. Bit-identical to the integral family by construction.
    Pruned,
    /// Translation-only Fcont degraded mode
    /// ([`track_all_translation_only`]).
    TranslationOnly,
}

impl Strategy {
    /// Stable display name (used in plans, reports and tests).
    pub fn name(self) -> &'static str {
        match self {
            Strategy::Sequential => "sequential",
            Strategy::Integral => "integral",
            Strategy::IntegralSegmented { .. } => "integral_seg",
            Strategy::Pruned => "pruned",
            Strategy::TranslationOnly => "translation_only",
        }
    }

    /// Whether this strategy evaluates the exact per-template summation
    /// (as opposed to a moment-plane reduction).
    pub fn is_exact(self) -> bool {
        self == Strategy::Sequential
    }

    /// Track every pixel of `region` with this strategy's driver.
    ///
    /// # Errors
    /// Propagates the underlying driver's [`SmaError`] (empty region,
    /// cancellation, ...).
    pub fn run(
        self,
        frames: &SmaFrames,
        cfg: &SmaConfig,
        region: Region,
    ) -> Result<SmaResult, SmaError> {
        match self {
            Strategy::Sequential => track_all_sequential(frames, cfg, region),
            Strategy::Integral => track_all_integral(frames, cfg, region),
            Strategy::IntegralSegmented { z_rows } => {
                track_all_integral_segmented(frames, cfg, region, z_rows)
            }
            Strategy::Pruned => track_all_pruned(frames, cfg, region),
            Strategy::TranslationOnly => track_all_translation_only(frames, cfg, region),
        }
    }
}

/// The planner's tunable surface. The serve layer's backpressure ladder
/// re-targets these knobs instead of hand-picking driver enums: one
/// rung down disallows the SIMD lane kernels, the bottom rung forces
/// translation-only.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlannerKnobs {
    /// Tile edge in pixels (the last row/column of tiles truncates to
    /// the region). Minimum 1.
    pub tile: usize,
    /// Permit the pruned driver's SIMD lane kernels on interior tiles;
    /// off plans the scalar integral fast path there instead. The two
    /// are bit-identical, so this is a pure wall-clock knob.
    pub allow_simd: bool,
    /// Force the translation-only degraded mode everywhere (the
    /// shedding rung — comparable, not bit-identical output).
    pub translation_only: bool,
    /// Hypothesis rows per segment; `None` derives the depth from the
    /// §4.3 budget (unsegmented when it fits).
    pub z_rows: Option<usize>,
    /// Per-PE memory for the budget model (§4.3's 64 KB by default).
    pub pe_memory_bytes: usize,
    /// A tile whose observed near-tie count reaches this fraction of
    /// its area is re-planned onto the exact kernel: the fast path
    /// would pay the moment lookups *and* re-route those pixels through
    /// the exact kernel anyway.
    pub near_tie_exact_fraction: f64,
}

impl Default for PlannerKnobs {
    fn default() -> Self {
        Self {
            tile: 16,
            allow_simd: true,
            translation_only: false,
            z_rows: None,
            pe_memory_bytes: GODDARD_PE_MEMORY_BYTES,
            near_tie_exact_fraction: 0.25,
        }
    }
}

/// Observed per-tile telemetry the planner may steer by — an owned copy
/// of the [`sma_obs::atlas`] planes, attached *explicitly* so the plan
/// never depends on ambient observability state (the determinism
/// contract in the module docs).
#[derive(Debug, Clone)]
pub struct PlanFeedback {
    snapshot: AtlasSnapshot,
}

impl PlanFeedback {
    /// Wrap an atlas snapshot as planner feedback.
    pub fn from_snapshot(snapshot: AtlasSnapshot) -> Self {
        Self { snapshot }
    }

    /// Feedback from the currently armed atlas, if any. This is the one
    /// sanctioned place the planner touches the atlas, and the caller
    /// opts in by attaching the result.
    pub fn from_atlas() -> Option<Self> {
        sma_obs::atlas::snapshot().map(Self::from_snapshot)
    }

    /// Observed near-tie re-routes inside the inclusive pixel
    /// rectangle (conservative: partial atlas-tile overlaps count the
    /// whole atlas tile).
    pub fn near_ties_in(&self, b: WindowBounds) -> u64 {
        self.snapshot
            .rect_total(AtlasChannel::NearTie, b.x0, b.y0, b.x1, b.y1)
    }
}

/// Why a tile got its strategy (plan introspection and reports).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanReason {
    /// Interior tile on the preferred moment family.
    Interior,
    /// No pixel's template window fits the frame — the moment identity
    /// never applies, so the exact kernel runs directly.
    AllBorder,
    /// Observed near-tie density crossed the knob threshold.
    NearTieDense,
    /// The §4.3 budget forces hypothesis-row segmentation.
    SegmentedBudget,
    /// Even one hypothesis row of moment planes does not fit — the
    /// exact kernel needs no plane store at all.
    MemoryStarved,
    /// The translation-only knob is set (shedding rung).
    Shedding,
}

/// One tile of an [`ExecutionPlan`].
#[derive(Debug, Clone, Copy)]
pub struct TilePlan {
    /// The tile's pixel rectangle (inclusive).
    pub bounds: WindowBounds,
    /// The strategy serving it.
    pub strategy: Strategy,
    /// Why.
    pub reason: PlanReason,
}

/// A complete plan: tiles covering the tracked region exactly.
#[derive(Debug, Clone)]
pub struct ExecutionPlan {
    /// The tracked rectangle.
    pub region: WindowBounds,
    /// Per-tile assignments, row-major.
    pub tiles: Vec<TilePlan>,
}

impl ExecutionPlan {
    /// The single strategy shared by every tile, if the plan is
    /// uniform.
    pub fn uniform_strategy(&self) -> Option<Strategy> {
        let first = self.tiles.first()?.strategy;
        self.tiles
            .iter()
            .all(|t| t.strategy == first)
            .then_some(first)
    }

    /// `(strategy name, tile count)` census, in first-seen order.
    pub fn census(&self) -> Vec<(&'static str, usize)> {
        let mut out: Vec<(&'static str, usize)> = Vec::new();
        for t in &self.tiles {
            match out.iter_mut().find(|(n, _)| *n == t.strategy.name()) {
                Some((_, c)) => *c += 1,
                None => out.push((t.strategy.name(), 1)),
            }
        }
        out
    }
}

/// The cost-model-driven planner (see module docs). Build one with
/// [`ExecutionPlanner::default`], adjust [`PlannerKnobs`], optionally
/// attach [`PlanFeedback`], then [`ExecutionPlanner::run`] (or
/// [`ExecutionPlanner::plan`] + [`ExecutionPlanner::execute_plan`] to
/// inspect the plan first).
#[derive(Debug, Clone, Default)]
pub struct ExecutionPlanner {
    /// Tunable planning surface.
    pub knobs: PlannerKnobs,
    /// Observed telemetry to steer by (explicitly attached; `None`
    /// plans from geometry and the memory budget alone).
    pub feedback: Option<PlanFeedback>,
}

impl ExecutionPlanner {
    /// A planner with the given knobs and no feedback.
    pub fn with_knobs(knobs: PlannerKnobs) -> Self {
        Self {
            knobs,
            feedback: None,
        }
    }

    /// Attach observed telemetry (builder style).
    #[must_use]
    pub fn with_feedback(mut self, feedback: PlanFeedback) -> Self {
        self.feedback = Some(feedback);
        self
    }

    /// The §4.3 memory budget for a `w x h` frame folded onto the
    /// Goddard PE array at the knobs' per-PE memory.
    pub fn budget_for(&self, w: usize, h: usize, cfg: &SmaConfig) -> MemoryBudget {
        MemoryBudget {
            xvr: w.div_ceil(GODDARD_PE_EDGE).max(1),
            yvr: h.div_ceil(GODDARD_PE_EDGE).max(1),
            nzs: cfg.nzs,
            nst: cfg.nst,
            nss: cfg.nss,
            pe_memory_bytes: self.knobs.pe_memory_bytes,
        }
    }

    /// The moment-family strategy the budget admits: the pruned driver
    /// (or the integral path when `allow_simd` is off) when the full
    /// plane store fits, hypothesis-row segmentation when it does not,
    /// the exact kernel when even one row is too large (it needs no
    /// plane store).
    fn moment_strategy(&self, budget: &MemoryBudget, cfg: &SmaConfig) -> (Strategy, PlanReason) {
        let k = &self.knobs;
        let full = 2 * cfg.nzs + 1;
        let z = match k.z_rows {
            Some(z) if z > 0 => z.min(full),
            _ => match budget.fastpath_max_segment_rows() {
                Some(z) => z,
                None => return (Strategy::Sequential, PlanReason::MemoryStarved),
            },
        };
        if z < full {
            // Only the scalar integral family has a segmented variant.
            return (
                Strategy::IntegralSegmented { z_rows: z },
                PlanReason::SegmentedBudget,
            );
        }
        let s = if k.allow_simd {
            Strategy::Pruned
        } else {
            Strategy::Integral
        };
        (s, PlanReason::Interior)
    }

    /// Tile the region and assign strategies. Pure in `(frames, cfg,
    /// region, knobs, feedback)` — see the determinism contract.
    ///
    /// # Errors
    /// [`sma_fault::GridError::EmptyRegion`] if the region is empty for
    /// the frame.
    pub fn plan(
        &self,
        frames: &SmaFrames,
        cfg: &SmaConfig,
        region: Region,
    ) -> Result<ExecutionPlan, SmaError> {
        let (w, h) = frames.dims();
        let bounds = region.bounds_checked(w, h)?;
        let tile = self.knobs.tile.max(1);
        let nzt = cfg.nzt;
        // The rectangle where the template window fits (empty when the
        // frame is smaller than the template).
        let interior = (2 * nzt < w && 2 * nzt < h).then(|| WindowBounds {
            x0: nzt,
            y0: nzt,
            x1: w - 1 - nzt,
            y1: h - 1 - nzt,
        });
        let budget = self.budget_for(w, h, cfg);
        let (moment, moment_reason) = self.moment_strategy(&budget, cfg);

        let mut tiles = Vec::new();
        let mut ty = bounds.y0;
        while ty <= bounds.y1 {
            let y1 = (ty + tile - 1).min(bounds.y1);
            let mut tx = bounds.x0;
            while tx <= bounds.x1 {
                let x1 = (tx + tile - 1).min(bounds.x1);
                let tb = WindowBounds {
                    x0: tx,
                    y0: ty,
                    x1,
                    y1,
                };
                let (strategy, reason) = self.classify(tb, interior, moment, moment_reason);
                tiles.push(TilePlan {
                    bounds: tb,
                    strategy,
                    reason,
                });
                tx = x1 + 1;
            }
            ty = y1 + 1;
        }
        Ok(ExecutionPlan {
            region: bounds,
            tiles,
        })
    }

    fn classify(
        &self,
        tb: WindowBounds,
        interior: Option<WindowBounds>,
        moment: Strategy,
        moment_reason: PlanReason,
    ) -> (Strategy, PlanReason) {
        if self.knobs.translation_only {
            return (Strategy::TranslationOnly, PlanReason::Shedding);
        }
        // All-border tile: no pixel's template fits, so every pixel
        // would take the fast path's exact fallback anyway — plan the
        // exact kernel directly and skip the moment machinery.
        let overlaps_interior = interior
            .is_some_and(|i| tb.x0 <= i.x1 && i.x0 <= tb.x1 && tb.y0 <= i.y1 && i.y0 <= tb.y1);
        if !overlaps_interior {
            return (Strategy::Sequential, PlanReason::AllBorder);
        }
        if moment.is_exact() {
            return (moment, moment_reason);
        }
        if let Some(fb) = &self.feedback {
            let area = tb.area() as f64;
            let ties = fb.near_ties_in(tb) as f64;
            if area > 0.0 && ties >= self.knobs.near_tie_exact_fraction * area {
                // A near-tie-dense tile pays the moment lookups and
                // then re-routes most pixels through the exact kernel;
                // going exact directly does the work once.
                return (Strategy::Sequential, PlanReason::NearTieDense);
            }
        }
        (moment, moment_reason)
    }

    /// Execute a plan built by [`ExecutionPlanner::plan`] over the same
    /// `(frames, cfg)`. Per-tile output is bit-identical to the tile's
    /// strategy run over the tile rectangle alone (see module docs).
    ///
    /// # Errors
    /// Propagates per-strategy driver errors and
    /// [`SmaError::DeadlineExceeded`] from the inter-tile checkpoints.
    pub fn execute_plan(
        &self,
        frames: &SmaFrames,
        cfg: &SmaConfig,
        plan: &ExecutionPlan,
    ) -> Result<SmaResult, SmaError> {
        let _span = sma_obs::span("track_planner");
        let (w, h) = frames.dims();
        // A uniform plan is one driver call over the whole region —
        // the common case (all-interior regions) pays zero mosaic
        // overhead, which is what keeps the planner at parity with the
        // best static driver.
        if let Some(s) = plan.uniform_strategy() {
            return s.run(frames, cfg, Region::Rect(plan.region));
        }
        let mut estimates = Grid::filled(w, h, MotionEstimate::invalid());

        // Exact tiles: the reference per-pixel loop, written directly
        // into the shared output (the sequential driver is exactly this
        // loop, so the bits match it by definition).
        for t in plan.tiles.iter().filter(|t| t.strategy.is_exact()) {
            crate::cancel::checkpoint()?;
            sma_obs::atlas::mark_rect(
                AtlasChannel::DispatchExact,
                t.bounds.x0,
                t.bounds.y0,
                t.bounds.x1,
                t.bounds.y1,
            );
            for (x, y) in t.bounds.pixels() {
                estimates.set(x, y, track_pixel(frames, cfg, x, y));
            }
        }

        // Moment / translation tiles: group by strategy, run each
        // distinct strategy once over the bounding box of its tiles
        // (whole-frame plane builds amortize across the group), then
        // copy the assigned rectangles out.
        let mut groups: Vec<(Strategy, Vec<WindowBounds>)> = Vec::new();
        for t in plan.tiles.iter().filter(|t| !t.strategy.is_exact()) {
            match groups.iter_mut().find(|(s, _)| *s == t.strategy) {
                Some((_, v)) => v.push(t.bounds),
                None => groups.push((t.strategy, vec![t.bounds])),
            }
        }
        for (strategy, rects) in groups {
            crate::cancel::checkpoint()?;
            let mut bbox = rects[0];
            for r in &rects[1..] {
                bbox.x0 = bbox.x0.min(r.x0);
                bbox.y0 = bbox.y0.min(r.y0);
                bbox.x1 = bbox.x1.max(r.x1);
                bbox.y1 = bbox.y1.max(r.y1);
            }
            let part = strategy.run(frames, cfg, Region::Rect(bbox))?;
            for r in rects {
                for (x, y) in r.pixels() {
                    estimates.set(x, y, part.estimates.at(x, y));
                }
            }
        }
        Ok(SmaResult {
            estimates,
            region: plan.region,
        })
    }

    /// Plan and execute in one call.
    ///
    /// # Errors
    /// Propagates [`ExecutionPlanner::plan`] and
    /// [`ExecutionPlanner::execute_plan`] errors.
    pub fn run(
        &self,
        frames: &SmaFrames,
        cfg: &SmaConfig,
        region: Region,
    ) -> Result<SmaResult, SmaError> {
        let plan = self.plan(frames, cfg, region)?;
        self.execute_plan(frames, cfg, &plan)
    }
}

/// The planner as a plain driver entry point: default knobs, no
/// feedback (the conformance-registered `planner_auto` configuration).
///
/// # Errors
/// [`sma_fault::GridError::EmptyRegion`] if the region is empty;
/// propagates per-tile driver errors.
pub fn track_all_planner(
    frames: &SmaFrames,
    cfg: &SmaConfig,
    region: Region,
) -> Result<SmaResult, SmaError> {
    ExecutionPlanner::default().run(frames, cfg, region)
}

/// [`track_all_planner`] with explicit knobs (the serve degrade ladder's
/// entry point).
///
/// # Errors
/// As [`track_all_planner`].
pub fn track_all_planner_with(
    frames: &SmaFrames,
    cfg: &SmaConfig,
    region: Region,
    knobs: PlannerKnobs,
) -> Result<SmaResult, SmaError> {
    ExecutionPlanner::with_knobs(knobs).run(frames, cfg, region)
}
