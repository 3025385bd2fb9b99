//! Cross-crate tests of the §6 extensions on satellite-analog scenes.

use sma::core::ext::classify::{classify_and_clean, classify_by_height};
use sma::core::ext::hierarchy::track_hierarchical;
use sma::core::ext::regularize::{fill_invalid, vector_median_filter};
use sma::core::motion::SmaFrames;
use sma::core::sequential::Region;
use sma::core::{track_all_sequential, MotionModel, SmaConfig};
use sma::grid::{Grid, Vec2};
use sma::satdata::hurricane_luis_analog;
use sma::stereo::coupled::{refine_disparity_with_motion, temporal_consistency};

#[test]
fn hierarchical_tracking_on_hurricane_scene() {
    // Speed the vortex up beyond the flat search window; the hierarchy
    // must still land sub-pixel over a dense interior sample.
    let seq = hurricane_luis_analog(96, 2, 5);
    let cfg = SmaConfig::small_test(MotionModel::Continuous);
    // Scale the scene's truth up 3x by resampling frame t+1 from a
    // 3x-advected generator run: simplest is three generator steps.
    let seq3 = hurricane_luis_analog(96, 4, 5);
    let flow3 = {
        // Truth over three steps ~ 3x the static per-step field for this
        // slowly varying vortex.
        let f = &seq3.truth_flows[0];
        sma::grid::FlowField::from_fn(96, 96, |x, y| f.at(x, y) * 3.0)
    };
    let hier = track_hierarchical(
        &seq3.frames[0].intensity,
        &seq3.frames[3].intensity,
        seq3.surface(0),
        seq3.surface(3),
        &cfg,
        3,
    )
    .expect("track");
    let mut err = 0.0f32;
    let mut n = 0;
    for y in 30..66 {
        for x in 30..66 {
            err += (hier.at(x, y) - flow3.at(x, y)).magnitude();
            n += 1;
        }
    }
    err /= n as f32;
    assert!(
        err < 1.0,
        "hierarchical mean error {err} px over 3-step motion"
    );
    drop(seq);
}

#[test]
fn median_filter_cleans_sma_output() {
    let seq = hurricane_luis_analog(64, 2, 11);
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
    let mut flow = result.flow();
    // Inject impulse outliers, then clean.
    for k in 0..6 {
        flow.set(20 + 4 * k, 25, Vec2::new(9.0, -9.0));
    }
    let cleaned = vector_median_filter(&flow, 1);
    let truth = &seq.truth_flows[0];
    let pts: Vec<(usize, usize)> = result.region.pixels().collect();
    let before = flow.compare_at(truth, &pts);
    let after = cleaned.compare_at(truth, &pts);
    assert!(
        after.rms_endpoint < before.rms_endpoint,
        "{} vs {}",
        after.rms_endpoint,
        before.rms_endpoint
    );
    assert!(after.subpixel());
}

#[test]
fn fill_invalid_completes_dense_field() {
    let seq = hurricane_luis_analog(64, 2, 3);
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
    let valid = result.estimates.map(|e| e.valid);
    let (filled, ok) = fill_invalid(&result.flow(), &valid, 64);
    // The whole frame (including margins) becomes valid.
    assert!(ok.iter().all(|&v| v), "field not fully filled");
    assert_eq!(filled.dims(), (64, 64));
}

#[test]
fn classification_respects_layer_membership_on_heights() {
    let heights = Grid::from_fn(32, 32, |_, y| if y < 16 { 3.0f32 } else { 9.0 });
    let classes = classify_by_height(&heights, &[6.0]);
    let flow = sma::grid::FlowField::from_fn(32, 32, |_, y| {
        if y < 16 {
            Vec2::new(1.0, 0.0)
        } else {
            Vec2::new(-1.0, 0.0)
        }
    });
    let (clean, snapped) = classify_and_clean(&flow, &classes, 2, 0.5);
    assert_eq!(snapped, 0, "coherent decks need no snapping");
    assert_eq!(clean.at(5, 5), Vec2::new(1.0, 0.0));
    assert_eq!(clean.at(5, 20), Vec2::new(-1.0, 0.0));
}

#[test]
fn coupled_stereo_improves_on_scene_heights() {
    // Heights advect with the truth flow; corrupt the t+1 estimate and
    // verify the motion-coupled fusion recovers.
    let seq = hurricane_luis_analog(64, 2, 21);
    let d0 = seq.surface(0).clone();
    let d1 = seq.surface(1).clone();
    let flow = &seq.truth_flows[0];
    let noisy = Grid::from_fn(64, 64, |x, y| {
        d1.at(x, y) + if (x + y) % 2 == 0 { 0.05 } else { -0.05 }
    });
    let fused = refine_disparity_with_motion(&d0, &noisy, flow, 0.5);
    assert!(fused.rms_diff(&d1) < noisy.rms_diff(&d1));
    // And the consistency metric prefers the true flow over a wrong one.
    let right = temporal_consistency(&d0, &d1, flow);
    let wrong_flow = sma::grid::FlowField::uniform(64, 64, Vec2::new(3.0, -3.0));
    let wrong = temporal_consistency(&d0, &d1, &wrong_flow);
    assert!(right < wrong);
}
