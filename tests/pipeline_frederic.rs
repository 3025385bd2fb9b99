//! End-to-end §5.1 pipeline: synthetic GOES stereo pairs -> ASA height
//! maps -> semi-fluid motion analysis -> wind-barb accuracy, asserting
//! the paper's accuracy claim (RMS < 1 px vs the 32 reference vectors).
//! Its parallel == sequential claim is carried by the simulated MP-2
//! driver (`tests/drivers_and_machine.rs`).

use sma::core::motion::SmaFrames;
use sma::core::sequential::{track_all_sequential, Region};
use sma::core::{MotionModel, SmaConfig};
use sma::satdata::hurricane_frederic_analog;
use sma::satdata::tracers::{pick_tracers, tracer_points};
use sma::stereo::{Asa, AsaConfig};

fn asa_heights(seq: &sma::satdata::SceneSequence) -> Vec<sma::grid::Grid<f32>> {
    let asa = Asa::new(AsaConfig::default());
    (0..2)
        .map(|t| {
            let pair = seq.stereo_pair(t).expect("stereo sequence");
            let out = asa.run(&pair.left, &pair.right);
            pair.disparity_to_height(&out.disparity)
        })
        .collect()
}

#[test]
fn stereo_to_semifluid_tracking_is_subpixel_at_tracers() {
    let seq = hurricane_frederic_analog(96, 2, 1979);
    let heights = asa_heights(&seq);

    // ASA heights must track the generator's truth to ~1.5 km on a
    // 0-10 km field.
    for (t, h) in heights.iter().enumerate() {
        let rms = h.rms_diff(&seq.frames[t].height);
        assert!(rms < 2.0, "ASA height RMS {rms} at t={t}");
    }

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
    assert!(
        result.valid_fraction() > 0.9,
        "valid {}",
        result.valid_fraction()
    );

    // The paper's protocol: 32 manually-tracked wind barbs; RMS < 1 px.
    let truth = &seq.truth_flows[0];
    let tracers = pick_tracers(&seq.frames[0].intensity, truth, 32, 0.5, 5, margin, 912);
    assert_eq!(tracers.len(), 32, "scene must support 32 tracers");
    let stats = result.flow().compare_at(truth, &tracer_points(&tracers));
    assert!(
        stats.subpixel(),
        "RMS {} px >= 1 px against the 32 reference vectors",
        stats.rms_endpoint
    );
}
