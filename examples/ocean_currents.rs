//! Ocean-current tracking — one of the application domains the paper's
//! abstract names ("remotely sensed objects such as clouds, atmospheric
//! aerosols and gases, polar sea ice, or ocean currents").
//!
//! Tracks an SST-like texture advected by a field of mesoscale eddies,
//! derives the rotational structure (vorticity straight from the fitted
//! affine parameters), and checks each eddy's sense of rotation against
//! the generator.
//!
//! ```sh
//! cargo run --release --example ocean_currents
//! ```

use sma::core::analysis::vorticity_plane;
use sma::core::motion::SmaFrames;
use sma::core::sequential::Region;
use sma::core::{track_all_sequential, MotionModel, SmaConfig};
use sma::grid::io::ascii_quiver;
use sma::satdata::ocean::{ocean_current_analog, EddyField};

fn main() {
    let size = 96usize;
    let seed = 7u64;
    let seq = ocean_current_analog(size, 2, seed);
    let field = EddyField::generate(size, 4, seed);
    println!(
        "ocean-current analog: {size}x{size}, {} eddies over a ({:+.1}, {:+.1}) px/frame background current",
        field.eddies.len(),
        field.background.u,
        field.background.v
    );

    let cfg = SmaConfig::small_test(MotionModel::Continuous);
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
    let flow = result.flow();
    let pts: Vec<(usize, usize)> = result.region.pixels().collect();
    let stats = flow.compare_at(&seq.truth_flows[0], &pts);
    println!("dense accuracy vs truth: {stats}");
    println!(
        "paper criterion (RMS < 1 px): {}",
        if stats.subpixel() { "PASS" } else { "FAIL" }
    );

    // Eddy senses from the estimated vorticity: average the vorticity
    // plane over each eddy's core and compare the sign with the
    // generator's rotation sense.
    let vor = vorticity_plane(&result);
    println!("\neddy rotation senses (mean vorticity over each core):");
    for (i, e) in field.eddies.iter().enumerate() {
        let mut sum = 0.0f64;
        let mut n = 0usize;
        for (x, y) in result.region.pixels() {
            let dx = x as f32 - e.cx;
            let dy = y as f32 - e.cy;
            if (dx * dx + dy * dy).sqrt() < e.rmax {
                sum += vor.at(x, y) as f64;
                n += 1;
            }
        }
        if n == 0 {
            continue;
        }
        let mean = sum / n as f64;
        let detected = if mean > 0.0 { 1.0 } else { -1.0 };
        println!(
            "  eddy {i}: truth sense {:+.0}, detected {:+.0} (mean vorticity {:+.4}) {}",
            e.sense,
            detected,
            mean,
            if detected == e.sense as f64 {
                "OK"
            } else {
                "MISS"
            }
        );
    }

    println!("\nrecovered flow (every 8th pixel):");
    print!("{}", ascii_quiver(&flow, 8));
}
