//! The adaptive execution planner: one plan/execute engine over every
//! driver entry point.
//!
//! The paper's §4.3 memory model and the MasPar mapping dictate *where*
//! each strategy wins — the integral fast path when the moment planes
//! fit, hypothesis-row segmentation when they do not, the exact kernel
//! where the template window crosses the frame edge (the fast path
//! would re-route every such pixel anyway) — but historically those
//! choices were frozen into nine sibling drivers picked by the caller.
//! This module turns them into data:
//!
//! * [`Driver`] — the one trait every entry point is reachable through
//!   (the nine static drivers via [`Strategy`], the simulated machine
//!   via [`MasparDriver`], the planner itself via [`ExecutionPlanner`]);
//! * [`ExecutionPlanner`] — tiles the tracked region and picks a
//!   per-tile [`Strategy`] from the §4.3
//!   [`MemoryBudget`](maspar_sim::memory::MemoryBudget), the tile's
//!   border geometry, and (optionally) the observed near-tie density
//!   fed back from the [`sma_obs::atlas`] telemetry planes;
//! * [`track_all_planner`] — the planner as a plain driver entry point,
//!   registered in the conformance matrix as `planner_auto`.
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
//! the SIMD fast path on any region — interior tiles take the SIMD
//! strategy, and an all-border tile's exact loop matches the fast
//! path's own border fallback pixel for pixel.
//!
//! Cancellation checkpoints ([`crate::cancel::checkpoint`]) run between
//! tiles and strategy groups, so a served pair aborts at tile
//! granularity; fault-ledger accounting rides inside the per-tile
//! drivers, which already record recovered re-routes and degraded
//! solves per injection site.

use maspar_sim::machine::{MachineConfig, MasPar, ReadoutScheme};
use maspar_sim::memory::{MemoryBudget, GODDARD_PE_MEMORY_BYTES};
use sma_fault::{GridError, SmaError};
use sma_grid::{Grid, WindowBounds};
use sma_obs::atlas::{AtlasChannel, AtlasSnapshot};

use crate::config::{MotionModel, SmaConfig};
use crate::fastpath::{
    track_all_integral, track_all_integral_parallel, track_all_integral_segmented,
    track_all_translation_only,
};
use crate::maspar_driver::track_on_maspar;
use crate::motion::{track_pixel, MotionEstimate, SmaFrames};
use crate::parallel::track_all_parallel;
use crate::precompute::track_all_segmented;
use crate::sequential::{track_all_sequential, Region, SmaResult};
use crate::simd::{track_all_simd, track_all_simd_parallel};

/// PE-array edge of the Goddard MP-2 (16,384 PEs as a 128 x 128 grid) —
/// the machine shape the planner's §4.3 budget is derived for.
pub const GODDARD_PE_EDGE: usize = 128;

/// Tracked-pixel count below which the planner prefers the sequential
/// variant of a family even when the `parallel` knob is on: the
/// row-parallel drivers' per-row dispatch (and, on a real rayon,
/// thread fan-out) is pure overhead on small regions — the bench
/// scenarios up to 96 x 96 all run faster sequentially — and the
/// parallel/sequential pair of every family is bit-identical, so the
/// cutover affects wall-clock only, never output bits.
pub const PARALLEL_MIN_AREA: usize = 1 << 15;

/// Minimum hypothesis count (`(2 nzs + 1)^2`) for the pruned-search
/// strategy to be worth its screening overhead: the coarse bound pass
/// costs roughly one extra decimated SAT per offset, which only pays
/// for itself when there are enough candidates to reject. The hotpath
/// bench puts the cutover below a 5 x 5 sweep — the pruned driver is
/// ~2.5x faster than the exhaustive SIMD sweep even on the small
/// 25-hypothesis scenario, since most offsets' planes never build —
/// so only genuinely tiny sweeps (3 x 3) keep the plain SIMD strategy.
pub const PRUNE_MIN_HYPOTHESES: usize = 25;

/// One uniform execution strategy — a name for each static driver entry
/// point, so a plan is plain data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// The sequential exact reference ([`track_all_sequential`]).
    Sequential,
    /// Rayon row-parallel exact driver ([`track_all_parallel`]).
    Parallel,
    /// §4.1/§4.3 precompute with hypothesis-row segmentation
    /// ([`track_all_segmented`]).
    Segmented {
        /// Hypothesis rows per resident segment.
        z_rows: usize,
    },
    /// Moment-plane integral fast path, sequential
    /// ([`track_all_integral`]).
    Integral,
    /// Fast path, Rayon row-parallel ([`track_all_integral_parallel`]).
    IntegralParallel,
    /// Fast path with hypothesis-row segmentation
    /// ([`track_all_integral_segmented`]).
    IntegralSegmented {
        /// Hypothesis rows of moment planes resident per segment.
        z_rows: usize,
    },
    /// SIMD lane-kernel fast path, sequential ([`track_all_simd`]).
    Simd,
    /// SIMD fast path, Rayon row-parallel
    /// ([`track_all_simd_parallel`]).
    SimdParallel,
    /// Pruned-search fast path, sequential
    /// ([`crate::pruned::track_all_pruned`]): SIMD kernels plus
    /// coarse-lattice candidate ordering and admissible early
    /// termination. Bit-identical to the SIMD family by construction.
    Pruned,
    /// Pruned-search fast path, Rayon row-parallel
    /// ([`crate::pruned::track_all_pruned_parallel`]).
    PrunedParallel,
    /// Translation-only Fcont degraded mode
    /// ([`track_all_translation_only`]).
    TranslationOnly,
}

impl Strategy {
    /// Stable display name (used in plans, reports and tests).
    pub fn name(self) -> &'static str {
        match self {
            Strategy::Sequential => "sequential",
            Strategy::Parallel => "parallel",
            Strategy::Segmented { .. } => "segmented",
            Strategy::Integral => "integral",
            Strategy::IntegralParallel => "integral_par",
            Strategy::IntegralSegmented { .. } => "integral_seg",
            Strategy::Simd => "simd",
            Strategy::SimdParallel => "simd_par",
            Strategy::Pruned => "pruned",
            Strategy::PrunedParallel => "pruned_par",
            Strategy::TranslationOnly => "translation_only",
        }
    }

    /// Whether this strategy evaluates the exact per-template summation
    /// (as opposed to a moment-plane reduction).
    pub fn is_exact(self) -> bool {
        matches!(
            self,
            Strategy::Sequential | Strategy::Parallel | Strategy::Segmented { .. }
        )
    }
}

/// The one interface every SMA driver is reachable through. All nine
/// static entry points share the `(frames, cfg, region)` signature;
/// implementors that need more (the simulated machine needs the raw
/// input planes, the planner carries knobs and feedback) hold it as
/// state.
pub trait Driver {
    /// Stable display / metrics name.
    fn name(&self) -> &'static str;

    /// Track every pixel of `region`.
    ///
    /// # Errors
    /// Propagates the underlying driver's [`SmaError`] (empty region,
    /// machine memory breach, cancellation, ...).
    fn run(
        &self,
        frames: &SmaFrames,
        cfg: &SmaConfig,
        region: Region,
    ) -> Result<SmaResult, SmaError>;
}

impl Driver for Strategy {
    fn name(&self) -> &'static str {
        Strategy::name(*self)
    }

    fn run(
        &self,
        frames: &SmaFrames,
        cfg: &SmaConfig,
        region: Region,
    ) -> Result<SmaResult, SmaError> {
        match *self {
            Strategy::Sequential => track_all_sequential(frames, cfg, region),
            Strategy::Parallel => track_all_parallel(frames, cfg, region),
            Strategy::Segmented { z_rows } => track_all_segmented(frames, cfg, region, z_rows),
            Strategy::Integral => track_all_integral(frames, cfg, region),
            Strategy::IntegralParallel => track_all_integral_parallel(frames, cfg, region),
            Strategy::IntegralSegmented { z_rows } => {
                track_all_integral_segmented(frames, cfg, region, z_rows)
            }
            Strategy::Simd => track_all_simd(frames, cfg, region),
            Strategy::SimdParallel => track_all_simd_parallel(frames, cfg, region),
            Strategy::Pruned => crate::pruned::track_all_pruned(frames, cfg, region),
            Strategy::PrunedParallel => {
                crate::pruned::track_all_pruned_parallel(frames, cfg, region)
            }
            Strategy::TranslationOnly => track_all_translation_only(frames, cfg, region),
        }
    }
}

/// The simulated-machine driver behind the [`Driver`] trait. §4.2's
/// folding starts from the raw input planes (the machine prepares its
/// own bundle on the PE array), so the adapter carries them alongside
/// the machine shape and read-out scheme.
pub struct MasparDriver<'a> {
    /// Intensity plane at `t`.
    pub intensity_before: &'a Grid<f32>,
    /// Intensity plane at `t+1`.
    pub intensity_after: &'a Grid<f32>,
    /// Surface plane at `t`.
    pub surface_before: &'a Grid<f32>,
    /// Surface plane at `t+1`.
    pub surface_after: &'a Grid<f32>,
    /// Machine shape and cost model; a fresh machine is built per run.
    pub machine: MachineConfig,
    /// PE read-out scheme (§4.2 — must not change results).
    pub readout: ReadoutScheme,
}

impl Driver for MasparDriver<'_> {
    fn name(&self) -> &'static str {
        "maspar"
    }

    fn run(
        &self,
        frames: &SmaFrames,
        cfg: &SmaConfig,
        region: Region,
    ) -> Result<SmaResult, SmaError> {
        // The prepared bundle and the raw planes must describe the same
        // frames; dimensions are the cheap invariant we can check.
        if frames.dims() != self.intensity_before.dims() {
            return Err(GridError::ShapeMismatch {
                expected: frames.dims(),
                got: self.intensity_before.dims(),
            }
            .into());
        }
        let mut machine = MasPar::new(self.machine);
        track_on_maspar(
            &mut machine,
            self.intensity_before,
            self.intensity_after,
            self.surface_before,
            self.surface_after,
            cfg,
            region,
            self.readout,
        )
        .map(|report| report.result)
    }
}

/// The planner's tunable surface. The serve layer's backpressure ladder
/// re-targets these knobs instead of hand-picking driver enums: one
/// rung down disallows the SIMD family, the bottom rung forces
/// translation-only.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlannerKnobs {
    /// Tile edge in pixels (the last row/column of tiles truncates to
    /// the region). Minimum 1.
    pub tile: usize,
    /// Permit the SIMD lane-kernel fast path.
    pub allow_simd: bool,
    /// Permit the pruned-search fast path on top of the SIMD kernels
    /// (candidate ordering + admissible early termination). Only
    /// reachable when `allow_simd` is also on; the pruned family is
    /// bit-identical to SIMD, so toggling this can never change output
    /// bits — it is a pure wall-clock knob.
    pub allow_pruned: bool,
    /// Permit the scalar integral fast path (also the segmented moment
    /// fallback when the budget forces chunking).
    pub allow_integral: bool,
    /// Force the translation-only degraded mode everywhere (the
    /// shedding rung — comparable, not bit-identical output).
    pub translation_only: bool,
    /// Use Rayon row-parallel variants for moment strategies.
    pub parallel: bool,
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
            allow_pruned: true,
            allow_integral: true,
            translation_only: false,
            parallel: true,
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

    /// Whether the plan should use the row-parallel variants for a
    /// region of `area` tracked pixels: only when the knob allows it
    /// AND the region is large enough that the per-row dispatch
    /// overhead (and thread fan-out, on a real rayon) is amortized.
    /// Below the threshold the sequential variants are measurably
    /// *faster* — on the bench scenarios (up to 96 x 96) row-parallel
    /// SIMD loses to sequential SIMD outright — and the
    /// parallel/sequential pair of every family is bit-identical, so
    /// this choice can never change output bits.
    fn use_parallel(&self, area: usize) -> bool {
        self.knobs.parallel && area >= PARALLEL_MIN_AREA
    }

    /// The moment-family strategy the budget admits: unsegmented SIMD or
    /// integral when the full plane store fits, hypothesis-row
    /// segmentation when it does not, the exact kernel when even one
    /// row is too large (it needs no plane store).
    fn moment_strategy(
        &self,
        budget: &MemoryBudget,
        cfg: &SmaConfig,
        area: usize,
    ) -> (Strategy, PlanReason) {
        let k = &self.knobs;
        if !k.allow_simd && !k.allow_integral {
            return (self.exact_strategy(area), PlanReason::Interior);
        }
        let full = 2 * cfg.nzs + 1;
        let z = match k.z_rows {
            Some(z) if z > 0 => z.min(full),
            _ => match budget.fastpath_max_segment_rows() {
                Some(z) => z,
                None => return (self.exact_strategy(area), PlanReason::MemoryStarved),
            },
        };
        if z < full {
            // Only the scalar integral family has a segmented variant;
            // the segment loop itself is row-parallel inside.
            return (
                Strategy::IntegralSegmented { z_rows: z },
                PlanReason::SegmentedBudget,
            );
        }
        let parallel = self.use_parallel(area);
        let search_span = 2 * cfg.nzs + 1;
        let s = if k.allow_simd {
            // The pruned family rides on the SIMD kernels and only arms
            // its screen under the continuous model, so it is preferred
            // exactly where it can win: big-enough hypothesis
            // neighborhoods on continuous-model configs. It is
            // bit-identical to SIMD, so the preference is a pure
            // wall-clock choice.
            if k.allow_pruned
                && cfg.model == MotionModel::Continuous
                && search_span * search_span >= PRUNE_MIN_HYPOTHESES
            {
                if parallel {
                    Strategy::PrunedParallel
                } else {
                    Strategy::Pruned
                }
            } else if parallel {
                Strategy::SimdParallel
            } else {
                Strategy::Simd
            }
        } else if parallel {
            Strategy::IntegralParallel
        } else {
            Strategy::Integral
        };
        (s, PlanReason::Interior)
    }

    fn exact_strategy(&self, area: usize) -> Strategy {
        if self.use_parallel(area) {
            Strategy::Parallel
        } else {
            Strategy::Sequential
        }
    }

    /// Tile the region and assign strategies. Pure in `(frames, cfg,
    /// region, knobs, feedback)` — see the determinism contract.
    ///
    /// # Errors
    /// [`GridError::EmptyRegion`] if the region is empty for the frame.
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
        // Parallelism pays off (or not) at the scale of the whole
        // tracked region — strategy groups execute over bounding boxes,
        // not single tiles — so the cutover uses the region area.
        let area = bounds.area();
        let (moment, moment_reason) = self.moment_strategy(&budget, cfg, area);

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
                return (self.exact_strategy(tb.area()), PlanReason::NearTieDense);
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

impl Driver for ExecutionPlanner {
    fn name(&self) -> &'static str {
        "planner_auto"
    }

    fn run(
        &self,
        frames: &SmaFrames,
        cfg: &SmaConfig,
        region: Region,
    ) -> Result<SmaResult, SmaError> {
        ExecutionPlanner::run(self, frames, cfg, region)
    }
}

/// The planner as a plain driver entry point: default knobs, no
/// feedback (the conformance-registered `planner_auto` configuration).
///
/// # Errors
/// [`GridError::EmptyRegion`] if the region is empty; propagates
/// per-tile driver errors.
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
