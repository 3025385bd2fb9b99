//! The paper's other application domains (abstract: "polar sea ice, or
//! ocean currents"): SMA tracking on the ocean-eddy and sea-ice analogs.

use sma::core::ext::classify::{classify_and_clean, classify_by_height};
use sma::core::motion::SmaFrames;
use sma::core::sequential::Region;
use sma::core::{track_all_sequential, MotionModel, SmaConfig};
use sma::satdata::ocean::{ocean_current_analog, sea_ice_analog, IceField};

#[test]
fn ocean_eddies_track_subpixel() {
    let seq = ocean_current_analog(64, 2, 8);
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
    assert!(result.valid_fraction() > 0.95);
    let pts: Vec<(usize, usize)> = result.region.pixels().collect();
    let stats = result.flow().compare_at(&seq.truth_flows[0], &pts);
    assert!(
        stats.subpixel(),
        "ocean dense RMS {} px",
        stats.rms_endpoint
    );
}

#[test]
fn sea_ice_floes_track_with_semifluid() {
    // Floes are rigid but independent — the fragmented-motion case. Track
    // with the semi-fluid model and score only on-floe pixels (open water
    // is textureless and legitimately untrackable).
    let seq = sea_ice_analog(72, 2, 3);
    let cfg = SmaConfig::small_test(MotionModel::SemiFluid);
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
    let truth = &seq.truth_flows[0];
    // Score well inside floes (margin from floe edges: truth is nonzero
    // and the pixel stays on the same floe through the step).
    let pts: Vec<(usize, usize)> = result
        .region
        .pixels()
        .filter(|&(x, y)| {
            truth.at(x, y).magnitude() > 0.3 && seq.frames[0].intensity.at(x, y) > 0.5
        })
        .collect();
    assert!(
        pts.len() > 100,
        "need enough on-floe pixels, got {}",
        pts.len()
    );
    let stats = result.flow().compare_at(truth, &pts);
    // This is deliberately a hard case: floes drift by *fractional*
    // amounts on an integer hypothesis grid (quantization alone costs up
    // to ~0.7 px), frame t+1 is bilinearly resampled (slightly blurred
    // vs frame t), and every floe edge is a hard discontinuity. Locking
    // each floe to its own drift within the quantization cell means
    // RMS well under the 2 px search radius and mean near 1 px.
    assert!(
        stats.rms_endpoint < 1.5,
        "sea-ice RMS {} px",
        stats.rms_endpoint
    );
    assert!(
        stats.mean_endpoint < 1.2,
        "sea-ice mean {} px",
        stats.mean_endpoint
    );
    // Direction sanity: the mean estimated flow over each floe's pixels
    // correlates positively with its drift.
    let mut dot = 0.0f32;
    for &(x, y) in &pts {
        dot += result.flow().at(x, y).dot(&truth.at(x, y));
    }
    assert!(dot > 0.0, "estimated flow anti-correlates with floe drifts");
}

#[test]
fn floe_classification_cleans_per_floe() {
    // Classify by brightness (each floe has its own brightness level in
    // the generator) and verify class cleaning keeps floes independent.
    let field = IceField::generate(64, 3, 12);
    let img = field.render(64, 0.0, 12);
    let flow = field.visible_flow(64, 0.0);
    // Water = class 0, ice = class 1.
    let classes = classify_by_height(&img, &[0.4]);
    let (cleaned, _) = classify_and_clean(&flow, &classes, 2, 10.0);
    // With a huge tolerance nothing snaps; structure is preserved.
    for ((x, y), v) in cleaned.enumerate() {
        assert_eq!(v, flow.at(x, y));
    }
}
