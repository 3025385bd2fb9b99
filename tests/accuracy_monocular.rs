//! Accuracy on the monocular rapid-scan analogs (Luis, Florida): dense
//! sub-pixel RMS against the generator's ground truth — a stronger
//! version of the paper's 32-point validation.

use sma::core::motion::SmaFrames;
use sma::core::sequential::Region;
use sma::core::{track_all_sequential, MotionModel, SmaConfig};
use sma::satdata::{florida_thunderstorm_analog, hurricane_luis_analog};

#[test]
fn luis_analog_dense_subpixel() {
    let seq = hurricane_luis_analog(64, 2, 2024);
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
        stats.count > 1000,
        "need a dense sample, got {}",
        stats.count
    );
    assert!(stats.subpixel(), "dense RMS {} px", stats.rms_endpoint);
}

#[test]
fn florida_analog_tracks_multiple_timesteps() {
    // Fig. 6's format: consecutive timesteps, each tracked densely.
    let seq = florida_thunderstorm_analog(64, 4, 1995);
    let cfg = SmaConfig {
        model: MotionModel::Continuous,
        nz: 2,
        nzs: 3,
        nzt: 3,
        nss: 0,
        nst: 2,
    };
    let margin = cfg.margin() + 2;
    for t in 0..3 {
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
        let pts: Vec<(usize, usize)> = result.region.pixels().collect();
        let stats = result.flow().compare_at(&seq.truth_flows[t], &pts);
        assert!(
            stats.rms_endpoint < 1.0,
            "timestep {t}: dense RMS {} px",
            stats.rms_endpoint
        );
    }
}

#[test]
fn semifluid_beats_continuous_on_multilayer_decks() {
    // The SMA model's raison d'etre: independently moving cloud decks
    // fragment the correspondence field; the semi-fluid template mapping
    // should cope at least as well as the continuous one at deck
    // boundaries. We compare mean endpoint error over all pixels.
    use sma::grid::Vec2;
    use sma::satdata::layers::{CloudLayer, LayeredScene};

    let scene = LayeredScene {
        layers: vec![
            CloudLayer::generate(64, 64, 5, 0.55, 10.0, Vec2::new(1.0, 0.0)),
            CloudLayer::generate(64, 64, 9, 0.40, 5.0, Vec2::new(-1.0, 0.0)),
        ],
        background: 0.1,
    };
    let next = scene.step();
    let (i0, h0) = scene.composite();
    let (i1, h1) = next.composite();
    let truth = scene.visible_flow();

    let run = |model: MotionModel| {
        let cfg = SmaConfig::small_test(model);
        let frames = SmaFrames::prepare(&i0, &i1, &h0, &h1, &cfg).expect("prepare");
        let margin = cfg.margin() + 2;
        let result =
            track_all_sequential(&frames, &cfg, Region::Interior { margin }).expect("track");
        let pts: Vec<(usize, usize)> = result
            .region
            .pixels()
            .filter(|&(x, y)| truth.at(x, y).magnitude() > 0.1)
            .collect();
        result.flow().compare_at(&truth, &pts)
    };
    let semi = run(MotionModel::SemiFluid);
    let cont = run(MotionModel::Continuous);
    assert!(
        semi.mean_endpoint <= cont.mean_endpoint * 1.1,
        "semi-fluid ({}) should not lose to continuous ({}) on fragmented motion",
        semi.mean_endpoint,
        cont.mean_endpoint
    );
}
