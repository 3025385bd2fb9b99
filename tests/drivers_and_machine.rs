//! Cross-crate driver equivalence and machine-level checks on satellite
//! analog data: sequential == segmented == MasPar (the paper's §5.1
//! claim, carried by the simulated MP-2 driver), plus the ledger/memory
//! behavior of the machine run.

use sma::core::maspar_driver::track_on_maspar;
use sma::core::motion::SmaFrames;
use sma::core::precompute::track_all_segmented;
use sma::core::sequential::{track_all_sequential, Region};
use sma::core::{MotionModel, SmaConfig};
use sma::maspar::machine::{MachineConfig, MasPar, ReadoutScheme};
use sma::satdata::hurricane_luis_analog;

fn scene_frames(cfg: &SmaConfig) -> (sma::satdata::SceneSequence, SmaFrames) {
    let seq = hurricane_luis_analog(48, 2, 99);
    let frames = SmaFrames::prepare(
        &seq.frames[0].intensity,
        &seq.frames[1].intensity,
        seq.surface(0),
        seq.surface(1),
        cfg,
    )
    .expect("prepare");
    (seq, frames)
}

#[test]
fn all_exact_drivers_agree() {
    let cfg = SmaConfig::small_test(MotionModel::SemiFluid);
    let (seq_data, frames) = scene_frames(&cfg);
    let region = Region::Interior {
        margin: cfg.margin() + 4,
    };

    let reference = track_all_sequential(&frames, &cfg, region).expect("track");
    let segmented = track_all_segmented(&frames, &cfg, region, 2).expect("track");

    let mut machine = MasPar::new(MachineConfig {
        nxproc: 8,
        nyproc: 8,
        ..MachineConfig::goddard_mp2()
    });
    let maspar = track_on_maspar(
        &mut machine,
        &seq_data.frames[0].intensity,
        &seq_data.frames[1].intensity,
        seq_data.surface(0),
        seq_data.surface(1),
        &cfg,
        region,
        ReadoutScheme::Raster,
    )
    .expect("maspar run");

    for (x, y) in reference.region.pixels() {
        let r = reference.estimates.at(x, y);
        assert_eq!(
            r,
            segmented.estimates.at(x, y),
            "segmented differs at ({x},{y})"
        );
        assert_eq!(
            r,
            maspar.result.estimates.at(x, y),
            "maspar differs at ({x},{y})"
        );
    }
}

#[test]
fn readout_schemes_give_identical_results() {
    let cfg = SmaConfig::small_test(MotionModel::Continuous);
    let (seq_data, _) = scene_frames(&cfg);
    let region = Region::Interior {
        margin: cfg.margin() + 4,
    };
    let run = |scheme| {
        let mut machine = MasPar::new(MachineConfig {
            nxproc: 8,
            nyproc: 8,
            ..MachineConfig::goddard_mp2()
        });
        track_on_maspar(
            &mut machine,
            &seq_data.frames[0].intensity,
            &seq_data.frames[1].intensity,
            seq_data.surface(0),
            seq_data.surface(1),
            &cfg,
            region,
            scheme,
        )
        .expect("maspar run")
    };
    let snake = run(ReadoutScheme::Snake);
    let raster = run(ReadoutScheme::Raster);
    for (x, y) in snake.result.region.pixels() {
        assert_eq!(
            snake.result.estimates.at(x, y),
            raster.result.estimates.at(x, y)
        );
    }
    // §4.2's cost asymmetry: snake pays memory-queue moves.
    assert!(snake.readout.mem_moves > 0);
    assert_eq!(raster.readout.mem_moves, 0);
}

#[test]
fn machine_ledger_reflects_frame_traffic() {
    let cfg = SmaConfig::small_test(MotionModel::Continuous);
    let (seq_data, _) = scene_frames(&cfg);
    let mut machine = MasPar::new(MachineConfig {
        nxproc: 8,
        nyproc: 8,
        ..MachineConfig::goddard_mp2()
    });
    let _ = track_on_maspar(
        &mut machine,
        &seq_data.frames[0].intensity,
        &seq_data.frames[1].intensity,
        seq_data.surface(0),
        seq_data.surface(1),
        &cfg,
        Region::Interior {
            margin: cfg.margin() + 4,
        },
        ReadoutScheme::Raster,
    )
    .expect("maspar run");
    let load = machine.ledger().phase("Load frames").expect("load charged");
    assert_eq!(load.mem_bytes_direct, 4.0 * 48.0 * 48.0 * 4.0);
    assert!(machine.total_seconds() > 0.0);
}
