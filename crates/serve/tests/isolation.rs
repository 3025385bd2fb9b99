//! The standing tenant-isolation test.
//!
//! Eight tenants share one service under an armed fault sweep. One of
//! them is deliberately poisoned (alternating frame shapes, so every
//! pair fails non-transiently) and must be circuit-broken; every other
//! tenant's result stream must be **bit-identical** to a solo
//! `sma-stream` replay of the same sequence — the isolation contract
//! the service layer is built around. The fault ledger and the service
//! ledger must both balance, and the host byte budget must never be
//! breached.
//!
//! Determinism under the armed sweep rests on three properties pinned
//! here: keyed injection (a fault's decision depends only on
//! `(site, key, seed, rate)`, never on thread timing), transient
//! retries re-running pure functions at the same level, and per-tenant
//! shards (no cross-tenant cache keys).

use std::sync::Arc;

use sma_core::sequential::Region;
use sma_core::{track_all_pruned, MotionModel, SmaConfig};
use sma_satdata::florida_thunderstorm_analog;
use sma_serve::{PairStatus, ServeConfig, SmaService, TenantSeq};
use sma_stream::{FrameSource, StreamEngine};

fn cfg() -> SmaConfig {
    SmaConfig::small_test(MotionModel::Continuous)
}

fn poisoned_tenant(name: &str, frames: usize) -> TenantSeq {
    let planes = (0..frames)
        .map(|t| {
            let size = if t % 2 == 0 { 40 } else { 32 };
            let g = Arc::new(sma_grid::Grid::from_fn(size, size, |x, y| {
                (x as f32 * 0.3).sin() + (y as f32 * 0.2).cos()
            }));
            sma_serve::FramePlanes {
                intensity: Arc::clone(&g),
                surface: g,
            }
        })
        .collect();
    TenantSeq::new(name, planes, cfg())
}

#[test]
fn tenants_bit_identical_to_solo_replay_under_armed_fault_storm() {
    // Global fault state: serialize against every other armed test.
    let _x = sma_fault::exclusive();
    sma_fault::install(0x5EA7_B017, 0.05);
    sma_fault::reset_ledger();

    let cfg = cfg();
    let poison_id = 3usize;
    let mut scfg = ServeConfig::new(16 * sma_core::FrameArtifacts::estimate_bytes(40, 40));
    scfg.workers = 3;
    // Transients (worker death, spurious deadline firings) at 5% per
    // attempt: a generous retry budget keeps the chance of exhausting
    // it negligible, and the fixed seed makes the run reproducible.
    scfg.max_retries = 4;
    scfg.circuit_k = 3;
    scfg.circuit_cooldown_polls = 2;

    let mut svc = SmaService::new(scfg);
    let mut sequences = Vec::new();
    for i in 0..8usize {
        if i == poison_id {
            sequences.push(None);
            svc.submit(poisoned_tenant("poison", 6))
                .expect("poisoned admitted");
        } else {
            let seq = florida_thunderstorm_analog(40, 3, 100 + i as u64);
            svc.submit(TenantSeq::from_scene(format!("t{i}"), &seq, cfg))
                .expect("clean admitted");
            sequences.push(Some(seq));
        }
    }
    // 16 frame-sets over 8 tenants: fair share = 2 sets, everyone on
    // the top rung — the clean tenants' outputs carry no degradation.
    for i in 0..8 {
        let (_, level, shed) = svc.placement(i).expect("placed");
        assert_eq!(level, sma_serve::DegradeLevel::Pruned);
        assert!(!shed);
    }
    let shard_bytes = svc.placement(0).expect("placed").0;
    let out = svc.run();

    // The poisoned tenant was quarantined...
    let p = &out.tenants[poison_id];
    assert!(p.count("failed") >= 3, "outcomes {:?}", p.outcomes);
    assert!(p.count("skipped") >= 1, "outcomes {:?}", p.outcomes);
    assert!(p.results.iter().all(Option::is_none));
    assert!(p
        .outcomes
        .iter()
        .all(|o| matches!(o.status, PairStatus::Failed(_) | PairStatus::CircuitSkipped)));

    // ...while every clean tenant's stream is bit-identical to a solo
    // replay through the streaming engine, still under the same armed
    // installation (keyed core-level faults fire identically).
    for (i, seq) in sequences.iter().enumerate() {
        let Some(seq) = seq else { continue };
        let frames: Vec<FrameSource<'_>> = (0..seq.len())
            .map(|t| FrameSource {
                intensity: &seq.frames[t].intensity,
                surface: seq.surface(t),
            })
            .collect();
        let region = Region::Interior {
            margin: cfg.margin(),
        };
        let mut engine = StreamEngine::new(frames, cfg, shard_bytes).with_pipelining(false);
        let solo = engine
            .run(|_, pair| track_all_pruned(pair, &cfg, region))
            .expect("solo replay");
        let report = &out.tenants[i];
        assert_eq!(report.results.len(), solo.len());
        for (t, (served, solo)) in report.results.iter().zip(&solo).enumerate() {
            let served = served.as_ref().expect("clean tenant result");
            assert_eq!(served.region, solo.region);
            for (x, y) in served.region.pixels() {
                assert_eq!(
                    served.estimates.at(x, y),
                    solo.estimates.at(x, y),
                    "tenant {i} pair {t} diverged at ({x},{y})"
                );
            }
        }
        for o in &report.outcomes {
            assert_eq!(o.status, PairStatus::Ok, "tenant {i} saw {o:?}");
        }
    }

    // Both ledgers balance; the host budget was never breached.
    assert!(out.ledger.balanced(), "{:?}", out.ledger);
    assert_eq!(out.ledger.budget_breaches, 0);
    assert!(out.host_high_water_bytes <= out.host_budget_bytes);
    assert_eq!(out.host_resident_bytes, 0);
    let fl = sma_fault::ledger();
    assert!(fl.balanced(), "fault ledger unbalanced: {fl:?}");
    // The sweep must actually have fired — a vacuous pass (0 injections)
    // would mean the seed/rate stopped exercising the recovery paths.
    assert!(fl.injected > 0, "fault sweep fired nothing: {fl:?}");
    assert!(
        out.ledger.retries > 0,
        "no transient retries under the sweep: {:?}",
        out.ledger
    );
    sma_fault::clear();
}
