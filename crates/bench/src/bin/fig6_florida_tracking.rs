//! Regenerate **Fig. 6** — "Cloud tracking results for GOES-9 Florida
//! thunderstorm rapid scan imagery showing four timesteps" — on the
//! synthetic Florida analog: dense continuous-model flow fields at four
//! timesteps, visualized every Nth pixel over cloudy regions (the paper
//! shows "every 10th pixel and over cloudy regions"), scored against
//! the generator's ground truth.
//!
//! ```sh
//! cargo run --release -p sma-bench --bin fig6_florida_tracking
//! ```

use sma_core::motion::SmaFrames;
use sma_core::sequential::Region;
use sma_core::{track_all_sequential, MotionModel, SmaConfig};
use sma_grid::io::ascii_quiver;
use sma_grid::{FlowField, Vec2};
use sma_satdata::florida_thunderstorm_analog;

fn main() {
    // Fig. 6 shows 4 of 48 steps; we generate 9 frames and show steps
    // 0, 2, 4, 6 (about the same relative spacing).
    let seq = florida_thunderstorm_analog(96, 9, 1995);
    let cfg = SmaConfig {
        model: MotionModel::Continuous,
        nz: 2,
        nzs: 3,
        nzt: 3,
        nss: 0,
        nst: 2,
    };
    let margin = cfg.margin() + 2;

    println!("Fig. 6 — GOES-9 Florida thunderstorm cloud tracking (synthetic analog)");
    println!(
        "  {} frames at {} min; continuous model; dense flow at every pixel,",
        seq.len(),
        seq.interval_minutes
    );
    println!("  visualized every 6th pixel over cloudy regions (paper: every 10th)\n");

    for &t in &[0usize, 2, 4, 6] {
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

        // Mask to cloudy regions like the paper's visualization.
        let cloudy = FlowField::from_fn(96, 96, |x, y| {
            if seq.frames[t].intensity.at(x, y) > 0.45 {
                flow.at(x, y)
            } else {
                Vec2::ZERO
            }
        });
        let pts: Vec<(usize, usize)> = result
            .region
            .pixels()
            .filter(|&(x, y)| seq.frames[t].intensity.at(x, y) > 0.45)
            .collect();
        let stats = flow.compare_at(&seq.truth_flows[t], &pts);
        println!(
            "== timestep {t} (t+{} min): cloudy-pixel accuracy {stats}",
            t as f32 * seq.interval_minutes
        );
        print!("{}", ascii_quiver(&cloudy, 6));
        println!();
    }
    println!("shape check: steering flow dominates clear-sky-adjacent cloud; divergent");
    println!("outflow rings the convective cores (the '>' field bends around cells).");
}
