//! Quickstart: generate a small cloud scene, track it with the SMA
//! algorithm, and check the estimate against the generator's ground
//! truth.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use sma::core::motion::SmaFrames;
use sma::core::sequential::Region;
use sma::core::{track_all_sequential, MotionModel, SmaConfig};
use sma::grid::io::ascii_quiver;
use sma::satdata::hurricane_luis_analog;
use sma::satdata::tracers::{pick_tracers, tracer_points};

fn main() {
    // 1. A small monocular hurricane sequence (64 x 64, two frames) with
    //    known per-pixel motion. Rapid-scan style: ~1 px/frame.
    let seq = hurricane_luis_analog(64, 2, 2024);
    let truth = &seq.truth_flows[0];
    println!("scene: {} {}x{}", seq.name, seq.dims().0, seq.dims().1);

    // 2. Configure the SMA. Small windows suit the small frame; the
    //    full-scale presets (SmaConfig::hurricane_frederic() etc.) are
    //    the paper's Tables 1 and 3.
    let cfg = SmaConfig::small_test(MotionModel::Continuous);

    // 3. Prepare frames (surface fitting + geometric variables) and
    //    track. Monocular sequences use intensity as a digital surface,
    //    exactly as the paper's §2 prescribes.
    let frames = SmaFrames::prepare(
        &seq.frames[0].intensity,
        &seq.frames[1].intensity,
        seq.surface(0),
        seq.surface(1),
        &cfg,
    )
    .expect("prepare");
    let margin = cfg.margin() + 2;
    let result = track_all_sequential(&frames, &cfg, Region::Interior { margin }).expect("track");
    println!(
        "tracked {} pixels, {:.1}% valid, mean error {:.4}",
        result.region.area(),
        100.0 * result.valid_fraction(),
        result.mean_error()
    );

    // 4. Score against ground truth — dense, and at 32 tracer points
    //    (the paper's manual-wind-barb protocol).
    let flow = result.flow();
    let pts: Vec<(usize, usize)> = result.region.pixels().collect();
    let dense = flow.compare_at(truth, &pts);
    println!("dense   vs truth: {dense}");

    let tracers = pick_tracers(&seq.frames[0].intensity, truth, 32, 0.3, 4, margin, 7);
    let stats = flow.compare_at(truth, &tracer_points(&tracers));
    println!("tracers vs truth: {stats}");
    println!(
        "paper criterion (RMS < 1 px): {}",
        if stats.subpixel() { "PASS" } else { "FAIL" }
    );

    // 5. A coarse look at the recovered motion field.
    println!("\nrecovered flow (every 6th pixel):");
    print!("{}", ascii_quiver(&flow, 6));
}
