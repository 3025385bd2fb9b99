//! GOES-9 Florida thunderstorm analog (§5.2, Fig. 6): monocular
//! rapid-scan convection tracked with the continuous model over several
//! timesteps, visualized as a coarse quiver field per step.
//!
//! ```sh
//! cargo run --release --example thunderstorm
//! ```

use sma::core::motion::SmaFrames;
use sma::core::sequential::Region;
use sma::core::{track_all_sequential, MotionModel, SmaConfig};
use sma::grid::io::{ascii_quiver, write_pgm};
use sma::satdata::florida_thunderstorm_analog;

fn main() {
    // §5.2: 49 rapid-scan frames; we process 4 timesteps of an 80 x 80
    // analog (Fig. 6 shows "four out of 48 time steps").
    let timesteps = 4usize;
    let seq = florida_thunderstorm_analog(80, timesteps + 1, 1995);
    println!(
        "scene: {} ({} frames, interval {} min, monocular)",
        seq.name,
        seq.len(),
        seq.interval_minutes
    );

    // Table 3's structure (continuous model; template = search) scaled
    // to the frame.
    let cfg = SmaConfig {
        model: MotionModel::Continuous,
        nz: 2,
        nzs: 3,
        nzt: 3,
        nss: 0,
        nst: 2,
    };
    let margin = cfg.margin() + 2;
    let out_dir = std::path::Path::new("target/thunderstorm");
    std::fs::create_dir_all(out_dir).expect("create output dir");

    for t in 0..timesteps {
        // Monocular: intensity is the digital surface (paper §2).
        let frames = SmaFrames::prepare(
            &seq.frames[t].intensity,
            &seq.frames[t + 1].intensity,
            seq.surface(t),
            seq.surface(t + 1),
            &cfg,
        )
        .expect("prepare");
        let result =
            track_all_sequential(&frames, &cfg, Region::Interior { margin }).expect("track");
        let flow = result.flow();
        let pts: Vec<(usize, usize)> = result.region.pixels().collect();
        let stats = flow.compare_at(&seq.truth_flows[t], &pts);
        println!(
            "\n== timestep {t} -> {}: valid {:.1}%, vs truth {stats}",
            t + 1,
            100.0 * result.valid_fraction()
        );
        // Fig. 6 visualizes every 10th pixel; our frames are 6.4x
        // smaller, so sample every 5th for a similar density.
        print!("{}", ascii_quiver(&flow, 5));
        write_pgm(
            out_dir.join(format!("intensity_t{t}.pgm")),
            &seq.frames[t].intensity,
        )
        .unwrap();
        write_pgm(
            out_dir.join(format!("flow_mag_t{t}.pgm")),
            &flow.magnitude_plane(),
        )
        .unwrap();
    }
    println!("\nwrote PGM frames to {}", out_dir.display());
}
