//! Hurricane Frederic analog: the paper's full §5.1 pipeline at reduced
//! scale — stereo pairs -> ASA cloud-top heights -> semi-fluid motion
//! tracking -> comparison against 32 "wind barb" tracers.
//!
//! ```sh
//! cargo run --release --example hurricane_stereo
//! ```

use sma::core::motion::SmaFrames;
use sma::core::sequential::Region;
use sma::core::{track_all_sequential, MotionModel, SmaConfig};
use sma::grid::io::{format_wind_barbs, write_pgm};
use sma::satdata::hurricane_frederic_analog;
use sma::satdata::tracers::{pick_tracers, tracer_points};
use sma::stereo::{Asa, AsaConfig};

fn main() {
    // §5.1's dataset: four stereo pairs. We use the first two timesteps
    // at 96 x 96 (the algorithmics are size-independent; the paper's
    // 512 x 512 is a cost-model question — see the bench binaries).
    let seq = hurricane_frederic_analog(96, 2, 1979);
    println!(
        "scene: {} (stereo, interval {} min)",
        seq.name, seq.interval_minutes
    );

    // --- Stereo analysis (ASA substrate) -----------------------------
    let asa = Asa::new(AsaConfig::default());
    let mut heights = Vec::new();
    for t in 0..2 {
        let pair = seq.stereo_pair(t).expect("stereo sequence");
        let out = asa.run(&pair.left, &pair.right);
        let err = pair
            .disparity_to_height(&out.disparity)
            .rms_diff(&seq.frames[t].height);
        println!(
            "ASA t={t}: warp residual {:.4}, height RMS vs truth {:.3}",
            out.residual, err
        );
        heights.push(pair.disparity_to_height(&out.disparity));
    }

    // --- Semi-fluid motion analysis -----------------------------------
    // Structure of Table 1, scaled to the frame: semi-fluid model with
    // search/template windows shrunk from 13/121 to fit 96 px.
    let cfg = SmaConfig {
        model: MotionModel::SemiFluid,
        nz: 2,
        nzs: 3,
        nzt: 5,
        nss: 1,
        nst: 2,
    };
    let frames = SmaFrames::prepare(
        &seq.frames[0].intensity,
        &seq.frames[1].intensity,
        &heights[0],
        &heights[1],
        &cfg,
    )
    .expect("prepare");
    let margin = cfg.margin() + 2;
    let result = track_all_sequential(&frames, &cfg, Region::Interior { margin }).expect("track");
    println!(
        "SMA: tracked {} px, {:.1}% valid",
        result.region.area(),
        100.0 * result.valid_fraction()
    );

    // --- Wind-barb comparison (the paper's accuracy protocol) ---------
    let truth = &seq.truth_flows[0];
    let tracers = pick_tracers(&seq.frames[0].intensity, truth, 32, 0.5, 5, margin, 912);
    let flow = result.flow();
    let stats = flow.compare_at(truth, &tracer_points(&tracers));
    println!("32-tracer comparison: {stats}");
    println!(
        "paper criterion (RMS < 1 px): {}",
        if stats.subpixel() { "PASS" } else { "FAIL" }
    );

    // Wind-barb table for the first eight tracers.
    let rows: Vec<(usize, usize, f32, f32)> = tracers
        .iter()
        .take(8)
        .map(|t| {
            let v = flow.at(t.x, t.y);
            (t.x, t.y, v.u, v.v)
        })
        .collect();
    println!(
        "\nestimated wind barbs (first 8):\n{}",
        format_wind_barbs(&rows)
    );

    // Dump visual artifacts next to the target dir.
    let out = std::path::Path::new("target/hurricane_stereo");
    std::fs::create_dir_all(out).expect("create output dir");
    write_pgm(out.join("intensity_t0.pgm"), &seq.frames[0].intensity).unwrap();
    write_pgm(out.join("asa_height_t0.pgm"), &heights[0]).unwrap();
    write_pgm(out.join("flow_magnitude.pgm"), &flow.magnitude_plane()).unwrap();
    println!("wrote PGM visualizations to {}", out.display());
}
