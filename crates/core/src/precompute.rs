//! §4.1 template-mapping precomputation and §4.3 segmentation.
//!
//! Two observations drive the paper's optimization:
//!
//! 1. **Sharing across overlapping templates.** "Since we track all
//!    pixels ... the corresponding template neighborhoods overlap each
//!    other. To avoid recomputing the template mapping (9) for
//!    overlapping pixels ... it is more efficient to pre-compute the
//!    template mapping for all pixels", one mapping per pixel per
//!    hypothesis offset — the mapping of template pixel `p` under
//!    hypothesis offset `o` depends only on `(p, o)`, not on which
//!    tracked pixel's template `p` sits in.
//! 2. **Reduction to two floats.** "each template mapping could be
//!    represented by storing the three normal components ... But the
//!    minimization of (3) can be shown to be a function of only
//!    (n_i'^2 + n_j'^2) and n_k'." In our formulation the two floats are
//!    the observed after-motion gradient `(gx_obs, gy_obs)`.
//!
//! Even reduced, the full store is too big for PE memory (67.7 KB for a
//! 23 x 23 search at 16 px/PE — over the 64 KB budget), so it is
//! **segmented by hypothesis rows**: "The data chunks or segments are in
//! multiples of rows of the search or hypothesis neighborhood ... Each
//! segment can be independently computed and processed ... The segment
//! can then be discarded and the next chunk computed ... Once all the
//! segments are processed, the equivalent minimization of (7) is
//! complete." [`track_all_segmented`] implements exactly that loop and
//! is bit-identical to the sequential baseline.

use sma_fault::SmaError;
use sma_grid::{Grid, Vec2};

use crate::affine::LocalAffine;
use crate::config::{MotionModel, SmaConfig};
use crate::motion::{solve_samples, MotionEstimate, SmaFrames, TemplateSample};
use crate::sequential::{Region, SmaResult};
use crate::template_map::semifluid_correspondence;

/// Mapping planes materialized by the segmented store (one per hypothesis
/// offset per segment; the quantity §4.3's memory accounting bounds).
static SEGMENT_PLANES: sma_obs::Counter = sma_obs::Counter::new("sma.precompute.planes_built");

/// The precomputed mapping planes for one segment of hypothesis rows:
/// for each offset `o` in the segment, a plane of per-pixel
/// `(gx_obs, gy_obs)` pairs (plus the before-geometry, shared).
struct SegmentStore {
    /// Hypothesis offsets `(ox, oy)` covered, in row-major search order.
    offsets: Vec<(isize, isize)>,
    /// One plane per offset: `(gx_obs, gy_obs)` per pixel.
    planes: Vec<Grid<(f64, f64)>>,
}

impl SegmentStore {
    /// Precompute the mapping planes for hypothesis rows
    /// `oy in [row0, row1]` (inclusive), full `ox` range.
    fn compute(frames: &SmaFrames, cfg: &SmaConfig, row0: isize, row1: isize) -> Self {
        let _span = sma_obs::span("precompute_planes");
        let ns = cfg.nzs as isize;
        let (w, h) = frames.dims();
        let offsets: Vec<(isize, isize)> = (row0..=row1)
            .flat_map(|oy| (-ns..=ns).map(move |ox| (ox, oy)))
            .collect();
        SEGMENT_PLANES.add(offsets.len() as u64);
        let planes: Vec<Grid<(f64, f64)>> = offsets
            .iter()
            .map(|&(ox, oy)| {
                Grid::from_fn(w, h, |x, y| {
                    mapped_gradient(frames, cfg, x as isize, y as isize, ox, oy)
                })
            })
            .collect();
        Self { offsets, planes }
    }

    /// Bytes this segment's planes occupy per pixel (two f64 per offset
    /// per pixel here; the MP-2 implementation stored two f32 — see
    /// `maspar_sim::memory` for the PE-side accounting).
    #[cfg(test)]
    fn bytes_per_pixel(&self) -> usize {
        self.planes.len() * 16
    }
}

/// The observed after-motion gradient of template pixel `(px, py)` under
/// hypothesis offset `(ox, oy)` — through the semi-fluid mapping for
/// `Fsemi`, pure translation for `Fcont`. Shared with the integral-image
/// fast path so both consume identical mapping planes.
pub(crate) fn mapped_gradient(
    frames: &SmaFrames,
    cfg: &SmaConfig,
    px: isize,
    py: isize,
    ox: isize,
    oy: isize,
) -> (f64, f64) {
    let (qx, qy) = match cfg.model {
        MotionModel::Continuous => (px + ox, py + oy),
        MotionModel::SemiFluid => {
            semifluid_correspondence(
                &frames.disc_before,
                &frames.disc_after,
                px,
                py,
                ox,
                oy,
                cfg.nss,
                cfg.nst,
            )
            .0
        }
    };
    let after = frames.geo_after.at_clamped(qx, qy);
    (-after.ni / after.nk, -after.nj / after.nk)
}

/// Track all pixels with the precomputed-and-segmented scheme:
/// hypothesis rows are processed `z_rows` at a time, each segment's
/// mapping planes are computed, consumed and discarded, and each pixel's
/// running best hypothesis survives across segments. Results are
/// bit-identical to [`crate::sequential::track_all_sequential`].
///
/// # Errors
/// [`SmaError::Config`] if `z_rows == 0`;
/// [`sma_fault::GridError::EmptyRegion`] if the region is empty.
pub fn track_all_segmented(
    frames: &SmaFrames,
    cfg: &SmaConfig,
    region: Region,
    z_rows: usize,
) -> Result<SmaResult, SmaError> {
    if z_rows == 0 {
        return Err(SmaError::Config(
            "segment must contain at least one hypothesis row".into(),
        ));
    }
    let _span = sma_obs::span("track_segmented");
    let (w, h) = frames.dims();
    let bounds = region.bounds_checked(w, h)?;
    sma_obs::atlas::mark_rect(
        sma_obs::atlas::AtlasChannel::DispatchExact,
        bounds.x0,
        bounds.y0,
        bounds.x1,
        bounds.y1,
    );
    let ns = cfg.nzs as isize;
    let nt = cfg.nzt as isize;

    let mut best: Grid<MotionEstimate> = Grid::filled(w, h, MotionEstimate::invalid());

    // Segment loop over hypothesis rows.
    let mut row0 = -ns;
    while row0 <= ns {
        crate::cancel::checkpoint()?;
        let row1 = (row0 + z_rows as isize - 1).min(ns);
        let store = SegmentStore::compute(frames, cfg, row0, row1);

        // Hypothesis matching against this segment, all pixels.
        let updated: Vec<((usize, usize), MotionEstimate)> = bounds
            .pixels()
            .map(|(x, y)| {
                let mut local_best = best.at(x, y);
                // Scratch buffer shared across this pixel's hypotheses.
                let mut samples = Vec::with_capacity(cfg.template_window().area());
                for (oi, &(ox, oy)) in store.offsets.iter().enumerate() {
                    let plane = &store.planes[oi];
                    samples.clear();
                    for dv in -nt..=nt {
                        for du in -nt..=nt {
                            let px = x as isize + du;
                            let py = y as isize + dv;
                            let before = frames.geo_before.at_clamped(px, py);
                            let (gx_obs, gy_obs) = plane_at_clamped(plane, px, py);
                            samples.push(TemplateSample {
                                zx: before.zx,
                                zy: before.zy,
                                inv_e: 1.0 / before.e,
                                inv_g: 1.0 / before.g,
                                gx_obs,
                                gy_obs,
                            });
                        }
                    }
                    if let Some((params, error)) = solve_samples(&samples) {
                        if error < local_best.error {
                            let (rx, ry) =
                                crate::motion::refined_displacement(frames, cfg, x, y, ox, oy);
                            let z0 = {
                                let qx = (x as isize + rx).clamp(0, w as isize - 1) as usize;
                                let qy = (y as isize + ry).clamp(0, h as isize - 1) as usize;
                                frames.surface_after.at(qx, qy) as f64
                                    - frames.surface_before.at(x, y) as f64
                            };
                            local_best = MotionEstimate {
                                displacement: Vec2::new(rx as f32, ry as f32),
                                affine: LocalAffine::from_params(&params, rx as f64, ry as f64, z0),
                                error,
                                valid: true,
                            };
                        }
                    }
                }
                ((x, y), local_best)
            })
            .collect();
        for ((x, y), est) in updated {
            best.set(x, y, est);
        }
        // Segment discarded here (dropped), exactly as on the PE.
        row0 = row1 + 1;
    }

    Ok(SmaResult {
        estimates: best,
        region: bounds,
    })
}

/// Host-side bytes one segment of `z_rows` hypothesis rows occupies, for
/// diagnostics ("the key observation is that the template mapping data
/// can be segmented by hypothesis or search area").
pub fn segment_bytes(frames: &SmaFrames, cfg: &SmaConfig, z_rows: usize) -> usize {
    let (w, h) = frames.dims();
    let store_offsets = z_rows * (2 * cfg.nzs + 1);
    store_offsets * 16 * w * h
}

#[inline]
fn plane_at_clamped(plane: &Grid<(f64, f64)>, x: isize, y: isize) -> (f64, f64) {
    let cx = x.clamp(0, plane.width() as isize - 1) as usize;
    let cy = y.clamp(0, plane.height() as isize - 1) as usize;
    plane.at(cx, cy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequential::track_all_sequential;
    use sma_grid::warp::translate;
    use sma_grid::BorderPolicy;

    fn wavy(w: usize, h: usize) -> Grid<f32> {
        Grid::from_fn(w, h, |x, y| {
            let (xf, yf) = (x as f32, y as f32);
            (xf * 0.45).sin() * 2.0 + (yf * 0.35).cos() * 1.5 + (xf * 0.12 + yf * 0.21).sin() * 3.0
        })
    }

    fn frames(cfg: &SmaConfig) -> SmaFrames {
        let before = wavy(26, 26);
        let after = translate(&before, -1.0, -1.0, BorderPolicy::Clamp);
        SmaFrames::prepare(&before, &after, &before, &after, cfg).expect("prepare")
    }

    /// "Once all the segments are processed, the equivalent minimization
    /// of (7) is complete" — segmented must equal unsegmented must equal
    /// sequential, for every segment size.
    #[test]
    fn segmented_equals_sequential_all_chunk_sizes() {
        let cfg = SmaConfig::small_test(MotionModel::SemiFluid);
        let f = frames(&cfg);
        let region = Region::Interior { margin: 9 };
        let reference = track_all_sequential(&f, &cfg, region).expect("sequential");
        for z_rows in [1usize, 2, 3, 5, 7] {
            let seg = track_all_segmented(&f, &cfg, region, z_rows).expect("segmented");
            for (x, y) in reference.region.pixels() {
                assert_eq!(
                    reference.estimates.at(x, y),
                    seg.estimates.at(x, y),
                    "Z = {z_rows} at ({x},{y})"
                );
            }
        }
    }

    #[test]
    fn segmented_equals_sequential_continuous() {
        let cfg = SmaConfig::small_test(MotionModel::Continuous);
        let f = frames(&cfg);
        let region = Region::Interior { margin: 8 };
        let reference = track_all_sequential(&f, &cfg, region).expect("sequential");
        let seg = track_all_segmented(&f, &cfg, region, 2).expect("segmented");
        for (x, y) in reference.region.pixels() {
            assert_eq!(reference.estimates.at(x, y), seg.estimates.at(x, y));
        }
    }

    #[test]
    fn segment_memory_scales_with_rows() {
        let cfg = SmaConfig::small_test(MotionModel::SemiFluid);
        let f = frames(&cfg);
        let one = segment_bytes(&f, &cfg, 1);
        let three = segment_bytes(&f, &cfg, 3);
        assert_eq!(three, 3 * one);
        // One row of the 5-wide search on a 26x26 frame: 5 * 16 * 676.
        assert_eq!(one, 5 * 16 * 26 * 26);
        // And the store's own accounting agrees.
        let store = SegmentStore::compute(&f, &cfg, -2, -2);
        assert_eq!(store.bytes_per_pixel() * 26 * 26, one);
        assert_eq!(store.offsets.len(), 5);
    }

    #[test]
    fn zero_segment_rejected() {
        let cfg = SmaConfig::small_test(MotionModel::Continuous);
        let f = frames(&cfg);
        let err = track_all_segmented(&f, &cfg, Region::Interior { margin: 8 }, 0)
            .expect_err("z_rows = 0 must be rejected");
        assert!(err.to_string().contains("at least one hypothesis row"));
    }
}
