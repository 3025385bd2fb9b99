//! Integration tests for the observability counters of the SMA drivers.
//!
//! These run in their own process (integration-test binary), so enabling
//! the obs level here cannot pollute the crate's unit tests. The tests
//! share global counters, so they serialize on a mutex and assert on
//! snapshot *deltas*.

use std::sync::Mutex;

use sma_core::fastpath::track_all_integral;
use sma_core::motion::SmaFrames;
use sma_core::precompute::track_all_segmented;
use sma_core::sequential::Region;
use sma_core::timing::SmaWorkload;
use sma_core::{track_all_sequential, MotionModel, SmaConfig};
use sma_grid::warp::translate;
use sma_grid::{BorderPolicy, Grid};

static SERIAL: Mutex<()> = Mutex::new(());

fn wavy(w: usize, h: usize) -> Grid<f32> {
    Grid::from_fn(w, h, |x, y| {
        let (xf, yf) = (x as f32, y as f32);
        (xf * 0.45).sin() * 2.0 + (yf * 0.35).cos() * 1.5 + (xf * 0.12 + yf * 0.21).sin() * 3.0
    })
}

fn frames(cfg: &SmaConfig, side: usize) -> SmaFrames {
    let before = wavy(side, side);
    let after = translate(&before, -1.0, 0.0, BorderPolicy::Clamp);
    SmaFrames::prepare(&before, &after, &before, &after, cfg).expect("prepare")
}

fn counter(name: &str) -> u64 {
    sma_obs::metrics::snapshot().counter(name)
}

/// Sequential tracking over the full frame must match the analytic
/// operation counts of the timing model exactly.
#[test]
fn sequential_full_region_matches_analytic_workload() {
    let _guard = SERIAL.lock().unwrap();
    sma_obs::set_level(sma_obs::ObsLevel::Summary);
    let cfg = SmaConfig::small_test(MotionModel::Continuous);
    let side = 20usize;
    let f = frames(&cfg, side);
    let workload = SmaWorkload::from_config(&cfg, side, side);

    let hyp0 = counter("sma.hypotheses_evaluated");
    let ge0 = counter("sma.ge_solves");
    let terms0 = counter("sma.template_terms");
    track_all_sequential(&f, &cfg, Region::Full).expect("sequential");
    assert_eq!(counter("sma.hypotheses_evaluated") - hyp0, workload.hyp_ges);
    assert_eq!(counter("sma.ge_solves") - ge0, workload.hyp_ges);
    assert_eq!(counter("sma.template_terms") - terms0, workload.hyp_terms);
}

/// The fast path's border/interior split must cover the tracked region
/// exactly once, and the segmented driver must build every mapping plane
/// of the search area.
#[test]
fn fastpath_and_segmented_counters_cover_region() {
    let _guard = SERIAL.lock().unwrap();
    sma_obs::set_level(sma_obs::ObsLevel::Summary);
    let cfg = SmaConfig::small_test(MotionModel::Continuous);
    let f = frames(&cfg, 32);
    let region = Region::Interior { margin: 9 };
    let bounds = region.bounds(32, 32).unwrap();

    let border0 = counter("fastpath.border_fallback_pixels");
    let interior0 = counter("fastpath.interior_pixels");
    track_all_integral(&f, &cfg, region).expect("fastpath");
    let border = counter("fastpath.border_fallback_pixels") - border0;
    let interior = counter("fastpath.interior_pixels") - interior0;
    assert_eq!(
        border + interior,
        bounds.area() as u64,
        "border + interior must partition the tracked region"
    );

    let planes0 = counter("sma.precompute.planes_built");
    track_all_segmented(&f, &cfg, region, 2).expect("segmented");
    assert_eq!(
        counter("sma.precompute.planes_built") - planes0,
        cfg.hypotheses_per_pixel() as u64,
        "segmented driver must build one plane per hypothesis offset"
    );
}
