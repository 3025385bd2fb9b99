//! Cheap in-`cargo test` slice of the conformance gate.
//!
//! The full matrix (all drivers x runtime combos x corpus, plus oracle
//! replay) lives in the `conform_report` binary; this test keeps a
//! one-case version inside the ordinary test suite so a divergence
//! breaks `cargo test` even when nobody runs the report.

use sma_conform::corpus::{corpus, CorpusTier};
use sma_conform::driver::{DriverKind, RuntimeCombo, ALL_COMBOS, ALL_DRIVERS};
use sma_conform::matrix::check_pair;
use sma_conform::oracle::{result_planes, CaseSnapshot};
use sma_stream::{FrameSource, StreamEngine};

#[test]
fn one_case_matrix_honors_every_contract() {
    let cases = corpus(true);
    let case = cases
        .iter()
        .find(|c| c.name == "wavy-shift-cont")
        .expect("small corpus case");
    assert_eq!(case.tier, CorpusTier::Small);
    let frames = case.frames().expect("prepare");
    // The same case's frame bundle assembled by the streaming engine
    // (the case as a two-frame sequence): every driver must treat the
    // streamed pair as indistinguishable from the pairwise one, so the
    // contract matrix runs over the cross product of both preparations.
    let mut engine = StreamEngine::with_goddard_budget(
        vec![
            FrameSource {
                intensity: &case.intensity_before,
                surface: &case.surface_before,
            },
            FrameSource {
                intensity: &case.intensity_after,
                surface: &case.surface_after,
            },
        ],
        case.cfg,
    );
    let streamed = engine.pair(0).expect("streamed pair");
    // The reference, the two paper drivers, the scalar moment-identity
    // reference and the production matcher.
    assert_eq!(ALL_DRIVERS.len(), 5);
    let results: Vec<_> = ALL_DRIVERS
        .iter()
        .flat_map(|d| {
            [
                (*d, "pairwise", d.run(case, &frames).expect("driver run")),
                (*d, "streamed", d.run(case, &streamed).expect("driver run")),
            ]
        })
        .collect();
    for (i, (da, pa, ra)) in results.iter().enumerate() {
        for (db, pb, rb) in &results[i + 1..] {
            let v = check_pair(*da, *db, ra, rb);
            assert!(
                v.within_contract,
                "{} ({pa}) vs {} ({pb}) violated its contract: {:?}",
                da.name(),
                db.name(),
                v.first_violation
            );
        }
    }
    // Same driver, streamed vs pairwise preparation: bit-identical.
    for pair in results.chunks(2) {
        let diff = sma_conform::diff::diff_results(&pair[0].2, &pair[1].2);
        assert!(
            diff.bit_identical(),
            "{}: streamed preparation changed output bits: {:?}",
            pair[0].0.name(),
            diff.first
        );
    }
}

#[test]
fn runtime_combos_do_not_change_output_bits() {
    let cases = corpus(true);
    let case = &cases[0];
    let mut reference = None;
    for combo in ALL_COMBOS {
        let result = combo
            .with(|| {
                let frames = case.frames()?;
                DriverKind::Sequential.run(case, &frames)
            })
            .expect("run under combo");
        match &reference {
            None => reference = Some(result),
            Some(r) => {
                let diff = sma_conform::diff::diff_results(r, &result);
                assert!(
                    diff.bit_identical(),
                    "combo {combo:?} changed output bits: {:?}",
                    diff.first
                );
            }
        }
    }
    // Keep the loop honest about coverage.
    assert_eq!(ALL_COMBOS.len(), 5);
    let _ = RuntimeCombo {
        obs: false,
        faults_armed: false,
        trace: false,
    };
}

#[test]
fn oracle_snapshot_round_trips_through_container() {
    let cases = corpus(true);
    let case = &cases[0];
    let frames = case.frames().expect("prepare");
    let result = DriverKind::Sequential
        .run(case, &frames)
        .expect("sequential");
    let (w, h) = case.dims();
    let snap = CaseSnapshot {
        case_name: case.name.to_string(),
        width: w as u32,
        height: h as u32,
        planes: result_planes(&result),
    };
    let bytes = snap.encode();
    let back = CaseSnapshot::decode(&bytes).expect("decode");
    assert_eq!(back.case_name, snap.case_name);
    assert_eq!(back.planes.len(), snap.planes.len());
    for (a, b) in snap.planes.iter().zip(&back.planes) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.raw, b.raw, "plane {} round-trip", a.name);
    }
}
