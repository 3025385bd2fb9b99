//! The MasPar driver: SMA executed against the simulated MP-2.
//!
//! "The parallel implementation was designed to track all pixels in the
//! mem-th memory layer in parallel and then repeat the process for each
//! layer" (§4). This driver does exactly that against `maspar-sim`:
//!
//! 1. the frame planes are **folded** onto the PE array with the 2-D
//!    hierarchical mapping (charged to the ledger as load traffic);
//! 2. template neighborhoods are **fetched through a read-out scheme**
//!    (snake or raster-scan, §4.2), with every transfer charged;
//! 3. pixels are tracked **layer by layer**, all PEs in lockstep within
//!    a layer (host-parallel over the PEs of a layer, which is the
//!    simulator's stand-in for SIMD lockstep);
//! 4. the result is **bit-identical to the sequential baseline** — the
//!    paper's §5.1 correctness claim, which the tests assert.
//!
//! Compute-phase *timing* is the business of [`crate::timing`] (the
//! machine is simulated functionally, not cycle by cycle); this driver's
//! ledger carries the communication costs, which is where the mapping
//! and read-out design decisions show up.

use maspar_sim::machine::{MasPar, ReadoutScheme};
use maspar_sim::memory::MemoryBudget;
use maspar_sim::readout::ReadoutStats;
use sma_fault::{FaultSite, MasParError, SmaError};
use sma_grid::Grid;

use crate::config::SmaConfig;
use crate::motion::{track_pixel_rows, MotionEstimate, SmaFrames};
use crate::sequential::{Region, SmaResult};

/// Retry budget for one `(layer, segment)` unit after an injected PE
/// fault or memory-budget breach, before the segment's hypothesis rows
/// are abandoned (the affected pixels keep their best-so-far from other
/// segments).
const SEGMENT_RETRIES: u32 = 3;

/// Largest measured per-PE resident footprint of any run (bytes): the
/// four folded frame planes plus one §4.3 template-mapping segment and
/// the working buffer. Must never exceed the [`MemoryBudget`] prediction.
static PE_BYTES_HIGH_WATER: sma_obs::HighWater =
    sma_obs::HighWater::new("maspar.pe_bytes_high_water");

/// Report of one machine run.
#[derive(Debug)]
pub struct MasparRunReport {
    /// The motion result (identical to the sequential baseline).
    pub result: SmaResult,
    /// Read-out statistics of the template-neighborhood fetch sweep.
    pub readout: ReadoutStats,
    /// Number of memory layers processed (`xvr * yvr`).
    pub layers: usize,
    /// The PE memory budget of this configuration, with the §4.3
    /// segmentation decision.
    pub memory: MemoryBudget,
    /// Segments the hypothesis area was chunked into (1 = unsegmented).
    pub segments: usize,
    /// Measured per-PE resident bytes of this run: the four folded frame
    /// planes actually held, plus the largest §4.3 template-mapping
    /// segment and the working buffer the scheme would allocate. Bounded
    /// above by [`MemoryBudget::total_bytes`] at the chosen segment size
    /// (the budget additionally reserves the full 15-plane per-pixel
    /// state and fixed overhead).
    pub pe_bytes_high_water: usize,
    /// `(layer, segment)` units that were re-run after an injected PE
    /// fault or memory breach (checkpoint/resume; zero when disarmed).
    pub segment_retries: usize,
    /// `(layer, segment)` units abandoned after exhausting
    /// `SEGMENT_RETRIES`; their pixels keep the best-so-far estimate
    /// from the segments that did complete (zero when disarmed).
    pub segments_lost: usize,
}

/// Run the SMA on the machine. The four input planes are folded onto the
/// PE array, neighborhood traffic goes through `scheme`, and tracking
/// proceeds layer by layer, hypothesis-row segment by segment. Under an
/// armed fault harness, an injected PE fault or memory breach retries
/// the affected `(layer, segment)` unit up to `SEGMENT_RETRIES` times
/// before abandoning it (checkpoint/resume: completed segments are never
/// re-run, and abandoned segments only cost their hypothesis rows).
///
/// # Errors
/// [`MasParError::MemoryBudgetExceeded`] when a frame plane or the fully
/// segmented §4.3 store cannot fit PE memory; [`SmaError::Grid`] for
/// mismatched frame shapes or an empty region.
#[allow(clippy::too_many_arguments)] // mirrors the paper's parameter list
pub fn track_on_maspar(
    machine: &mut MasPar,
    intensity_before: &Grid<f32>,
    intensity_after: &Grid<f32>,
    surface_before: &Grid<f32>,
    surface_after: &Grid<f32>,
    cfg: &SmaConfig,
    region: Region,
    scheme: ReadoutScheme,
) -> Result<MasparRunReport, SmaError> {
    let _span = sma_obs::span("maspar_track");
    // Phase: load frames onto the PE array.
    let f_ib = machine.fold("Load frames", intensity_before)?;
    let f_ia = machine.fold("Load frames", intensity_after)?;
    let f_sb = machine.fold("Load frames", surface_before)?;
    let f_sa = machine.fold("Load frames", surface_after)?;
    let mapping = f_sb.mapping();
    let layers = mapping.layers();

    // The memory budget / segmentation decision (§4.3).
    let memory = machine.memory_budget(mapping.xvr(), mapping.yvr(), cfg.nzs, cfg.nst, cfg.nss);
    let z_rows = memory
        .max_segment_rows()
        .ok_or(MasParError::MemoryBudgetExceeded {
            needed_bytes: memory.total_bytes(1),
            available_bytes: machine.config().pe_memory_bytes,
        })?;
    let segments = (2 * cfg.nzs + 1).div_ceil(z_rows);

    // Measured per-PE residency: the four folded planes this driver holds
    // plus the template-mapping segment and working buffer the §4.3
    // scheme allocates at the chosen segment size.
    let pe_bytes_high_water = 4 * f_ib.bytes_per_pe()
        + memory.template_mapping_bytes(z_rows)
        + memory.working_buffer_bytes();
    PE_BYTES_HIGH_WATER.record(pe_bytes_high_water as u64);

    // The algorithm consumes machine-resident data: unfold from the
    // folded planes (every pixel passes through the PE mapping).
    let frames = SmaFrames::prepare(
        &f_ib.unfold(),
        &f_ia.unfold(),
        &f_sb.unfold(),
        &f_sa.unfold(),
        cfg,
    )?;

    // Phase: template-neighborhood read-out sweep over the surface plane
    // (the communication pattern of the hypothesis matching), charged to
    // the ledger under the configured scheme. The sweep also serves as a
    // machine-level verification that folded delivery is correct.
    // The reference is the raw unfolded plane (not the quarantined copy
    // in `frames`): the machine ships whatever the tape held, NaN holes
    // included, so the comparison is bit-level. With the fault harness
    // armed an injected X-net/router fault may legitimately deliver a
    // corrupted value — those events are ledgered, so the machine-level
    // verification stands down.
    let reference = f_sb.unfold();
    let (w, h) = reference.dims();
    let readout = machine.fetch_windows(
        "Template read-out",
        &f_sb,
        cfg.nzt.min(w / 4).min(h / 4),
        scheme,
        |x, y, dx, dy, v| {
            let sx = (x as isize + dx).rem_euclid(w as isize) as usize;
            let sy = (y as isize + dy).rem_euclid(h as isize) as usize;
            debug_assert!(
                v.to_bits() == reference.at(sx, sy).to_bits() || sma_fault::enabled(),
                "read-out delivered a wrong value"
            );
        },
    );

    // Track layer by layer: all pixels of layer `mem` in lockstep, and —
    // per §4.3 — hypothesis-row segment by segment within the layer. The
    // per-pixel running best is the checkpoint state: a segment that must
    // be re-run after an injected fault restarts from the estimates
    // already accumulated, never from scratch.
    let bounds = region.bounds_checked(w, h)?;
    sma_obs::atlas::mark_rect(
        sma_obs::atlas::AtlasChannel::DispatchExact,
        bounds.x0,
        bounds.y0,
        bounds.x1,
        bounds.y1,
    );
    let ns = cfg.nzs as isize;
    let mut estimates = Grid::filled(w, h, MotionEstimate::invalid());
    let mut segment_retries = 0usize;
    let mut segments_lost = 0usize;
    for mem in 0..layers {
        let layer_pixels: Vec<(usize, usize)> = bounds
            .pixels()
            .filter(|&(x, y)| mapping.to_pe(x, y).2 == mem)
            .collect();
        let mut seg = 0u64;
        let mut row0 = -ns;
        while row0 <= ns {
            crate::cancel::checkpoint()?;
            let row1 = (row0 + z_rows as isize - 1).min(ns);
            // Fault gate for this (layer, segment) unit: an injected PE
            // fault or memory breach voids the attempt; retry with a
            // fresh draw until the budget runs out.
            let mut attempt = 0u32;
            let run_segment = loop {
                let key = sma_fault::key3(mem as u64, seg, attempt as u64);
                let pe = sma_fault::inject(FaultSite::PeFault, key);
                let memf = sma_fault::inject(FaultSite::PeMemory, key);
                if pe.is_none() && memf.is_none() {
                    break true;
                }
                let retry = attempt < SEGMENT_RETRIES;
                for token in [pe, memf].into_iter().flatten() {
                    if retry {
                        token.recovered();
                    } else {
                        token.degraded();
                    }
                }
                if retry {
                    segment_retries += 1;
                    attempt += 1;
                } else {
                    segments_lost += 1;
                    break false;
                }
            };
            if run_segment {
                let tracked: Vec<((usize, usize), MotionEstimate)> = layer_pixels
                    .iter()
                    .map(|&(x, y)| {
                        let mut samples = Vec::with_capacity(cfg.template_window().area());
                        let best = track_pixel_rows(
                            &frames,
                            cfg,
                            x,
                            y,
                            row0,
                            row1,
                            estimates.at(x, y),
                            &mut samples,
                        );
                        ((x, y), best)
                    })
                    .collect();
                for ((x, y), est) in tracked {
                    estimates.set(x, y, est);
                }
            }
            seg += 1;
            row0 = row1 + 1;
        }
    }

    Ok(MasparRunReport {
        result: SmaResult {
            estimates,
            region: bounds,
        },
        readout,
        layers,
        memory,
        segments,
        pe_bytes_high_water,
        segment_retries,
        segments_lost,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MotionModel;
    use crate::sequential::track_all_sequential;
    use maspar_sim::machine::MachineConfig;
    use sma_grid::warp::translate;
    use sma_grid::BorderPolicy;

    fn wavy(w: usize, h: usize) -> Grid<f32> {
        Grid::from_fn(w, h, |x, y| {
            let (xf, yf) = (x as f32, y as f32);
            (xf * 0.45).sin() * 2.0 + (yf * 0.35).cos() * 1.5 + (xf * 0.12 + yf * 0.21).sin() * 3.0
        })
    }

    fn small_machine() -> MasPar {
        MasPar::new(MachineConfig {
            nxproc: 8,
            nyproc: 8,
            ..MachineConfig::goddard_mp2()
        })
    }

    /// §5.1: "The parallel algorithm obtained the same result as the
    /// sequential implementation" — on the machine, layer by layer.
    #[test]
    fn maspar_equals_sequential() {
        let cfg = SmaConfig::small_test(MotionModel::SemiFluid);
        let before = wavy(24, 24);
        let after = translate(&before, -1.0, 0.0, BorderPolicy::Clamp);
        let mut machine = small_machine();
        let region = Region::Interior { margin: 9 };
        let report = track_on_maspar(
            &mut machine,
            &before,
            &after,
            &before,
            &after,
            &cfg,
            region,
            ReadoutScheme::Raster,
        )
        .expect("maspar run");
        let frames = SmaFrames::prepare(&before, &after, &before, &after, &cfg).expect("prepare");
        let reference = track_all_sequential(&frames, &cfg, region).expect("sequential");
        for (x, y) in reference.region.pixels() {
            assert_eq!(
                reference.estimates.at(x, y),
                report.result.estimates.at(x, y),
                "at ({x},{y})"
            );
        }
        assert_eq!(report.layers, 9); // 24/8 = 3 -> 3x3 layers
        assert_eq!(report.segments, 1);
        assert_eq!(report.segment_retries, 0);
        assert_eq!(report.segments_lost, 0);
    }

    #[test]
    fn ledger_charges_load_and_readout() {
        let cfg = SmaConfig::small_test(MotionModel::Continuous);
        let before = wavy(16, 16);
        let after = before.clone();
        let mut machine = small_machine();
        track_on_maspar(
            &mut machine,
            &before,
            &after,
            &before,
            &after,
            &cfg,
            Region::Interior { margin: 7 },
            ReadoutScheme::Raster,
        )
        .expect("maspar run");
        let ledger = machine.ledger();
        let load = ledger.phase("Load frames").expect("load phase charged");
        assert_eq!(load.mem_bytes_direct, 4.0 * 16.0 * 16.0 * 4.0);
        let readout = ledger.phase("Template read-out").expect("read-out charged");
        assert!(readout.xnet_bytes > 0.0);
    }

    #[test]
    fn snake_charges_memory_moves_raster_does_not() {
        let cfg = SmaConfig::small_test(MotionModel::Continuous);
        let before = wavy(16, 16);
        let run = |scheme| {
            let mut machine = small_machine();
            let report = track_on_maspar(
                &mut machine,
                &before,
                &before,
                &before,
                &before,
                &cfg,
                Region::Interior { margin: 7 },
                scheme,
            )
            .expect("maspar run");
            (report.readout, machine)
        };
        let (snake, _) = run(ReadoutScheme::Snake);
        let (raster, _) = run(ReadoutScheme::Raster);
        assert!(snake.mem_moves > 0);
        assert_eq!(raster.mem_moves, 0);
    }

    /// Regression pin for the §4.3 accounting: the measured per-PE
    /// high-water of a real run must never exceed the [`MemoryBudget`]
    /// prediction at the chosen segment size (and must fit the PE).
    #[test]
    fn high_water_never_exceeds_budget_prediction() {
        let cfg = SmaConfig::small_test(MotionModel::SemiFluid);
        let before = wavy(24, 24);
        let after = translate(&before, 1.0, -1.0, BorderPolicy::Clamp);
        let mut machine = small_machine();
        let report = track_on_maspar(
            &mut machine,
            &before,
            &after,
            &before,
            &after,
            &cfg,
            Region::Interior { margin: 9 },
            ReadoutScheme::Raster,
        )
        .expect("maspar run");
        let z = report.memory.max_segment_rows().expect("run fit memory");
        assert!(report.pe_bytes_high_water > 0);
        assert!(
            report.pe_bytes_high_water <= report.memory.total_bytes(z),
            "measured {} B/PE exceeds budget prediction {} B/PE",
            report.pe_bytes_high_water,
            report.memory.total_bytes(z)
        );
        assert!(report.pe_bytes_high_water <= machine.config().pe_memory_bytes);
    }

    #[test]
    fn frederic_on_goddard_is_unsegmented() {
        // Verify the §4.3 decision through the driver's own budget: the
        // Table 2 configuration fits PE memory without segmentation.
        let machine = MasPar::goddard_mp2();
        let cfg = SmaConfig::hurricane_frederic();
        let b = machine.memory_budget(4, 4, cfg.nzs, cfg.nst, cfg.nss);
        assert!(b.unsegmented_fits());
        assert_eq!(b.num_segments(), Some(1));
    }
}
