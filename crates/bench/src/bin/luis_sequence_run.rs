//! The §5 Hurricane Luis *dense sequence* experiment, executed: a long
//! monocular rapid-scan sequence tracked pair by pair (scaled to 64 x 64
//! and 24 frames so it runs in seconds), with frames staged through the
//! simulated MPDA exactly as the 490-frame GOES-9 run was.
//!
//! ```sh
//! cargo run --release -p sma-bench --bin luis_sequence_run
//! ```

use maspar_sim::mpda::{Mpda, MpdaConfig};
use sma_core::motion::SmaFrames;
use sma_core::sequential::Region;
use sma_core::{track_all_sequential, MotionModel, SmaConfig};
use sma_satdata::hurricane_luis_analog;

fn main() {
    let frames_count = 24usize;
    let size = 64usize;
    let seq = hurricane_luis_analog(size, frames_count, 1995);
    println!(
        "Luis dense-sequence run: {} frames of {size}x{size} at {} min (scaled from 490 x 512^2)",
        seq.len(),
        seq.interval_minutes
    );

    // Stage all frames through the MPDA, as the real run did.
    let mut mpda = Mpda::new(MpdaConfig::goddard());
    for (t, f) in seq.frames.iter().enumerate() {
        mpda.write(&format!("luis_t{t}"), &f.intensity);
    }
    println!(
        "staged {} frames on the MPDA: {:.4} s of disk time at 30 MB/s",
        mpda.num_frames(),
        mpda.io_seconds()
    );

    // Track every consecutive pair (continuous model, like the paper's
    // Luis run), reading frames back from the MPDA.
    let cfg = SmaConfig::small_test(MotionModel::Continuous);
    let margin = cfg.margin() + 2;
    let mut worst_rms = 0.0f32;
    let mut sum_rms = 0.0f32;
    let started = std::time::Instant::now();
    for t in 0..seq.len() - 1 {
        let before = mpda.read(&format!("luis_t{t}")).expect("staged frame");
        let after = mpda
            .read(&format!("luis_t{}", t + 1))
            .expect("staged frame");
        let frames = SmaFrames::prepare(&before, &after, &before, &after, &cfg).expect("prepare");
        let result =
            track_all_sequential(&frames, &cfg, Region::Interior { margin }).expect("track");
        let pts: Vec<(usize, usize)> = result.region.pixels().collect();
        let stats = result.flow().compare_at(&seq.truth_flows[t], &pts);
        sum_rms += stats.rms_endpoint;
        worst_rms = worst_rms.max(stats.rms_endpoint);
        if t % 6 == 0 {
            println!(
                "  pair {t:>2}: rms {:.3} px, {:.1}% valid",
                stats.rms_endpoint,
                100.0 * result.valid_fraction()
            );
        }
    }
    let pairs = (seq.len() - 1) as f32;
    println!(
        "tracked {} pairs in {:.1} s host time: mean RMS {:.3} px, worst {:.3} px (criterion < 1 px: {})",
        pairs as usize,
        started.elapsed().as_secs_f64(),
        sum_rms / pairs,
        worst_rms,
        if worst_rms < 1.0 { "PASS" } else { "FAIL" }
    );
    println!(
        "total MPDA traffic after read-back: {:.4} s ({} reads + {} writes charged)",
        mpda.io_seconds(),
        2 * (seq.len() - 1),
        seq.len()
    );
}
