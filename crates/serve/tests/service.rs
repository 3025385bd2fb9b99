//! Service behaviour: admission, fair-share placement, the degrade
//! step, shedding, deadlines and circuit breaking.

use std::sync::Arc;

use sma_core::sequential::Region;
use sma_core::{
    track_all_pruned, track_all_translation_only, FrameArtifacts, MotionModel, SmaConfig, SmaError,
    SmaFrames,
};
use sma_grid::Grid;
use sma_satdata::florida_thunderstorm_analog;
use sma_serve::{
    BreakerState, DegradeLevel, FramePlanes, PairStatus, ServeConfig, SmaService, TenantSeq,
};
use sma_stream::{sequence_frames, StreamEngine};

fn cfg() -> SmaConfig {
    SmaConfig::small_test(MotionModel::Continuous)
}

fn semi() -> SmaConfig {
    SmaConfig::small_test(MotionModel::SemiFluid)
}

fn fb(size: usize) -> usize {
    FrameArtifacts::estimate_bytes(size, size)
}

/// A tenant over a real satdata sequence (used by tests that run).
fn scene_tenant(name: &str, size: usize, frames: usize, seed: u64) -> TenantSeq {
    TenantSeq::from_scene(
        name,
        &florida_thunderstorm_analog(size, frames, seed),
        cfg(),
    )
}

/// A tenant over flat frames (admission-only tests: never runs).
fn flat_tenant(name: &str, size: usize, frames: usize) -> TenantSeq {
    let planes = (0..frames)
        .map(|t| {
            let g = Arc::new(Grid::from_fn(size, size, |x, y| {
                (x as f32 * 0.31 + y as f32 * 0.17 + t as f32).sin()
            }));
            FramePlanes {
                intensity: Arc::clone(&g),
                surface: g,
            }
        })
        .collect();
    TenantSeq::new(name, planes, cfg())
}

/// Frames that alternate dimensions, so every adjacent pair fails
/// assembly with a shape mismatch — the poisoned tenant.
fn poisoned_tenant(name: &str, frames: usize) -> TenantSeq {
    let planes = (0..frames)
        .map(|t| {
            let size = if t % 2 == 0 { 40 } else { 24 };
            let g = Arc::new(Grid::from_fn(size, size, |x, y| {
                (x as f32 * 0.3).sin() + (y as f32 * 0.2).cos()
            }));
            FramePlanes {
                intensity: Arc::clone(&g),
                surface: g,
            }
        })
        .collect();
    TenantSeq::new(name, planes, cfg())
}

#[test]
fn admission_rejects_past_queue_capacity() {
    let mut scfg = ServeConfig::new(100 * fb(40));
    scfg.queue_capacity_pairs = 3;
    let mut svc = SmaService::new(scfg);
    svc.submit(flat_tenant("a", 40, 3)).expect("2 pairs fit");
    let err = svc.submit(flat_tenant("b", 40, 3)).expect_err("4 > 3");
    match err {
        SmaError::Overloaded {
            queued_pairs,
            queue_capacity,
            ..
        } => {
            assert_eq!((queued_pairs, queue_capacity), (2, 3));
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }
    let s = svc.ledger_snapshot();
    assert_eq!((s.admitted, s.rejected), (1, 1));
}

#[test]
fn admission_rejects_when_fair_share_cannot_hold_a_frame() {
    // Budget holds one tenant at 1.5 frame-sets; a second tenant would
    // shrink everyone to 0.75 sets — below the thrash floor.
    let mut svc = SmaService::new(ServeConfig::new(3 * fb(40) / 2));
    let id = svc.submit(flat_tenant("a", 40, 3)).expect("fits alone");
    let (shard, level, shed) = svc.placement(id).expect("placed");
    assert_eq!(shard, 3 * fb(40) / 2);
    // 2 frame-sets needed, 1.5 available: under 2x, the top rung.
    assert_eq!(level, DegradeLevel::Pruned);
    assert!(!shed);
    let err = svc.submit(flat_tenant("b", 40, 3)).expect_err("too small");
    match err {
        SmaError::Overloaded {
            needed_bytes,
            available_bytes,
            ..
        } => {
            assert_eq!(needed_bytes, fb(40));
            assert_eq!(available_bytes, 3 * fb(40) / 4);
            assert!(available_bytes < needed_bytes);
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }
}

#[test]
fn fair_shares_only_shrink_and_degrade_with_oversubscription() {
    // One big tenant (64px = 4x the bytes of 32px) sharing with small
    // continuous ones: every admission shrinks all shards to the new
    // fair share and re-derives the placement deterministically. Past
    // 2x only a semi-fluid big tenant steps down.
    for (big_cfg, pressed) in [
        (cfg(), DegradeLevel::Pruned),
        (semi(), DegradeLevel::TranslationOnly),
    ] {
        let budget = 4 * fb(64);
        let mut svc = SmaService::new(ServeConfig::new(budget));
        let frames = flat_tenant("big", 64, 3).frames;
        let big = svc
            .submit(TenantSeq::new("big", frames, big_cfg))
            .expect("big");
        assert_eq!(
            svc.placement(big).expect("big placed"),
            (budget, DegradeLevel::Pruned, false)
        );
        for i in 0..7 {
            svc.submit(flat_tenant(&format!("s{i}"), 32, 3))
                .expect("small");
        }
        // 8 tenants: fair = budget/8 = 2*fb(32) = fb(64)/2. Big needs
        // 2*fb(64): 4x oversubscribed exactly — not yet shed.
        let (shard, level, shed) = svc.placement(big).expect("big placed");
        assert_eq!(shard, budget / 8);
        assert_eq!(level, pressed);
        assert!(!shed);
        // Ninth tenant pushes the big one past 4x: alternate pairs shed.
        svc.submit(flat_tenant("s7", 32, 3)).expect("small");
        let (_, level, shed) = svc.placement(big).expect("big placed");
        assert_eq!(level, pressed);
        assert!(shed);
        // The small tenants (their 2 sets vs 8/9 of 2 sets) stay on the
        // top rung.
        let (_, level, shed) = svc.placement(1).expect("small placed");
        assert_eq!(level, DegradeLevel::Pruned);
        assert!(!shed);
    }
}

#[test]
fn unsaturated_tenants_complete_every_pair_at_base() {
    let mut svc = SmaService::new(ServeConfig::new(20 * fb(40)));
    svc.submit(scene_tenant("a", 40, 3, 5)).expect("a");
    svc.submit(scene_tenant("b", 40, 3, 9)).expect("b");
    let out = svc.run();
    assert_eq!(out.tenants.len(), 2);
    for report in &out.tenants {
        assert_eq!(report.outcomes.len(), 2);
        for o in &report.outcomes {
            assert_eq!(o.status, PairStatus::Ok, "tenant {}", report.name);
            assert_eq!(o.level, Some(DegradeLevel::Pruned));
            assert_eq!(o.attempts, 1);
        }
        assert!(report.results.iter().all(Option::is_some));
    }
    let l = out.ledger;
    assert_eq!(l.pairs_completed, 4);
    assert_eq!(l.shed_requested, 0);
    assert!(l.balanced(), "{l:?}");
    assert_eq!(l.budget_breaches, 0);
    assert_eq!(out.host_resident_bytes, 0, "shards cleared");
    assert!(out.host_high_water_bytes <= out.host_budget_bytes);
    assert!(out.host_high_water_bytes > 0, "the cache was used");
}

#[test]
fn saturated_tenants_keep_the_top_rung_below_2x_and_balance() {
    // Two tenants on a 3-set budget: fair = 1.5 sets each against a
    // resident pair of 2 — under 2x, so both models stay on the top
    // rung. Equal-size tenants never pass 2x: admission floors every
    // share at one set.
    let mut svc = SmaService::new(ServeConfig::new(3 * fb(40)));
    svc.submit(scene_tenant("a", 40, 3, 5)).expect("a");
    svc.submit(TenantSeq::from_scene(
        "b",
        &florida_thunderstorm_analog(40, 3, 9),
        semi(),
    ))
    .expect("b");
    let out = svc.run();
    for report in &out.tenants {
        assert_eq!(report.level, DegradeLevel::Pruned);
        for o in &report.outcomes {
            assert_eq!(o.status, PairStatus::Ok, "tenant {}", report.name);
            assert_eq!(o.level, Some(DegradeLevel::Pruned));
        }
        assert!(report.results.iter().all(Option::is_some));
    }
    let l = out.ledger;
    assert_eq!(l.pairs_completed, 4);
    assert_eq!(l.shed_requested, 0);
    assert!(l.balanced(), "{l:?}");
    assert_eq!(l.budget_breaches, 0);
}

/// A 64px tenant `big` (id 0) among seven 32px continuous ones on a
/// budget of four 64px frame-sets: fair = fb(64)/2 against a resident
/// pair of 2*fb(64) — exactly 4x for the big tenant, 1x for the rest.
fn four_x_service(big: TenantSeq) -> SmaService {
    let mut svc = SmaService::new(ServeConfig::new(4 * fb(64)));
    svc.submit(big).expect("big");
    for i in 0..7 {
        svc.submit(scene_tenant(&format!("s{i}"), 32, 3, 20 + i as u64))
            .expect("small");
    }
    svc
}

#[test]
fn continuous_tenant_at_4x_pressure_stays_on_the_top_rung() {
    // A continuous tenant has no cheaper rung: it completes every pair
    // on the pruned driver, bit-identical to a solo replay at its shard.
    let cfg = cfg();
    let seq = florida_thunderstorm_analog(64, 3, 3);
    let svc = four_x_service(TenantSeq::from_scene("big", &seq, cfg));
    let (shard, level, shed) = svc.placement(0).expect("placed");
    assert_eq!((level, shed), (DegradeLevel::Pruned, false));
    let out = svc.run();
    let report = &out.tenants[0];
    for o in &report.outcomes {
        assert_eq!(o.status, PairStatus::Ok, "{o:?}");
        assert_eq!(o.level, Some(DegradeLevel::Pruned));
    }
    let region = Region::Interior {
        margin: cfg.margin(),
    };
    let solo = StreamEngine::new(sequence_frames(&seq), cfg, shard)
        .with_pipelining(false)
        .run(|_, pair| track_all_pruned(pair, &cfg, region))
        .expect("solo replay");
    assert_eq!(report.results.len(), solo.len());
    for (t, (served, solo)) in report.results.iter().zip(&solo).enumerate() {
        let served = served.as_ref().expect("result");
        assert_eq!(served.region, solo.region);
        for (x, y) in served.region.pixels() {
            assert_eq!(
                served.estimates.at(x, y),
                solo.estimates.at(x, y),
                "pair {t} diverged at ({x},{y})"
            );
        }
    }
    let l = out.ledger;
    assert_eq!(l.pairs_completed, 16);
    assert_eq!(l.shed_requested, 0);
    assert!(l.balanced(), "{l:?}");
    assert_eq!(l.budget_breaches, 0);
}

#[test]
fn semifluid_tenant_at_4x_pressure_runs_translation_only() {
    // The same layout with a semi-fluid big tenant: past 2x it takes
    // the translation-only step, and each result is that driver's on
    // the same pair.
    let cfg = semi();
    let seq = florida_thunderstorm_analog(64, 3, 3);
    let svc = four_x_service(TenantSeq::from_scene("big", &seq, cfg));
    let (_, level, shed) = svc.placement(0).expect("placed");
    assert_eq!((level, shed), (DegradeLevel::TranslationOnly, false));
    let out = svc.run();
    let report = &out.tenants[0];
    let region = Region::Interior {
        margin: cfg.margin(),
    };
    for (t, (o, served)) in report.outcomes.iter().zip(&report.results).enumerate() {
        assert_eq!(o.status, PairStatus::Degraded, "{o:?}");
        assert_eq!(o.level, Some(DegradeLevel::TranslationOnly));
        let frames = SmaFrames::prepare(
            &seq.frames[t].intensity,
            &seq.frames[t + 1].intensity,
            seq.surface(t),
            seq.surface(t + 1),
            &cfg,
        )
        .expect("prepare");
        let direct = track_all_translation_only(&frames, &cfg, region).expect("driver");
        let served = served.as_ref().expect("result");
        assert_eq!(served.region, direct.region);
        for (x, y) in served.region.pixels() {
            assert_eq!(
                served.estimates.at(x, y),
                direct.estimates.at(x, y),
                "pair {t} at ({x},{y})"
            );
        }
    }
    let l = out.ledger;
    assert_eq!(l.shed_requested, 2);
    assert_eq!(l.frames_degraded, 2);
    assert_eq!(l.pairs_dropped_shed, 0);
    assert!(l.balanced(), "{l:?}");
    assert_eq!(l.budget_breaches, 0);
}

#[test]
fn shed_tenant_drops_alternate_pairs_before_any_base_work() {
    // 1 big (64px) + 8 small (32px) continuous tenants on a
    // 4-big-set budget: the ninth admission pushes the big tenant past
    // 4x — alternate pairs shed, the rest on the top rung (a
    // continuous tenant has no cheaper one).
    let budget = 4 * fb(64);
    let mut svc = SmaService::new(ServeConfig::new(budget));
    let big = svc.submit(scene_tenant("big", 64, 3, 3)).expect("big");
    for i in 0..8 {
        svc.submit(scene_tenant(&format!("s{i}"), 32, 3, 20 + i as u64))
            .expect("small");
    }
    let (_, level, shed) = svc.placement(big).expect("placed");
    assert_eq!(level, DegradeLevel::Pruned);
    assert!(shed);
    let out = svc.run();
    let big_report = &out.tenants[big];
    assert!(big_report.shed);
    assert_eq!(big_report.outcomes[0].status, PairStatus::Ok);
    assert_eq!(big_report.outcomes[0].level, Some(DegradeLevel::Pruned));
    assert_eq!(big_report.outcomes[1].status, PairStatus::DroppedShed);
    assert_eq!(big_report.outcomes[1].level, None, "no worker time");
    assert!(big_report.results[0].is_some());
    assert!(big_report.results[1].is_none());
    let l = out.ledger;
    // Big: 1 completed + 1 dropped; 8 small x 2 pairs completed.
    assert_eq!(l.pairs_completed, 17);
    assert_eq!(l.shed_requested, 1);
    assert_eq!(l.frames_degraded, 0);
    assert_eq!(l.pairs_dropped_shed, 1);
    assert!(l.balanced(), "{l:?}");
    assert_eq!(l.budget_breaches, 0);
}

#[test]
fn zero_deadline_walks_the_ladder_then_drops() {
    // deadline_ms = Some(0) pre-cancels every attempt synchronously —
    // the deterministic deadline path. A continuous pair has no cheaper
    // rung and is shed after one attempt; a semi-fluid pair steps
    // Pruned -> TranslationOnly and is then shed.
    let mut scfg = ServeConfig::new(10 * fb(40));
    scfg.deadline_ms = Some(0);
    let mut svc = SmaService::new(scfg);
    svc.submit(scene_tenant("a", 40, 3, 5)).expect("a");
    svc.submit(TenantSeq::from_scene(
        "semi",
        &florida_thunderstorm_analog(40, 3, 9),
        semi(),
    ))
    .expect("semi");
    let out = svc.run();
    for (report, (level, attempts)) in out.tenants.iter().zip([
        (DegradeLevel::Pruned, 1),
        (DegradeLevel::TranslationOnly, 2),
    ]) {
        for o in &report.outcomes {
            assert_eq!(o.status, PairStatus::DroppedShed, "{}", report.name);
            assert_eq!(o.level, Some(level), "{}", report.name);
            assert_eq!(
                o.attempts, attempts,
                "{}: one attempt per rung",
                report.name
            );
        }
        assert!(report.results.iter().all(Option::is_none));
    }
    let l = out.ledger;
    assert_eq!(l.deadline_cancelled, 6);
    assert_eq!(l.pairs_completed, 0);
    assert_eq!(l.shed_requested, 4);
    assert_eq!(l.pairs_dropped_shed, 4);
    assert!(l.balanced(), "{l:?}");
}

#[test]
fn live_watchdog_terminates_and_balances() {
    // A 1 ms deadline on real work: some attempts are cancelled by the
    // actual watchdog thread, some complete. Whatever interleaving
    // happens, the service terminates, the ledger balances, and every
    // pair completes on the top rung or is shed (never Failed: deadline
    // overruns are not faults; never Degraded: these tenants are
    // continuous and have no cheaper rung).
    let mut scfg = ServeConfig::new(10 * fb(40));
    scfg.deadline_ms = Some(1);
    let mut svc = SmaService::new(scfg);
    svc.submit(scene_tenant("a", 40, 4, 5)).expect("a");
    svc.submit(scene_tenant("b", 40, 4, 9)).expect("b");
    let out = svc.run();
    for report in &out.tenants {
        assert_eq!(report.outcomes.len(), 3);
        for o in &report.outcomes {
            assert!(
                matches!(o.status, PairStatus::Ok | PairStatus::DroppedShed),
                "unexpected outcome {o:?}"
            );
        }
    }
    assert!(out.ledger.balanced(), "{:?}", out.ledger);
    assert_eq!(out.ledger.frames_failed, 0);
}

#[test]
fn poisoned_tenant_is_circuit_broken_without_touching_its_neighbour() {
    let mut scfg = ServeConfig::new(20 * fb(40));
    scfg.circuit_k = 3;
    scfg.circuit_cooldown_polls = 2;
    let mut svc = SmaService::new(scfg);
    let clean = svc.submit(scene_tenant("clean", 40, 3, 5)).expect("clean");
    let poison = svc.submit(poisoned_tenant("poison", 6)).expect("poison");
    let out = svc.run();

    let p = &out.tenants[poison];
    assert_eq!(p.outcomes.len(), 5);
    for o in &p.outcomes[..3] {
        match &o.status {
            PairStatus::Failed(SmaError::Grid(_)) => {}
            other => panic!("expected shape-mismatch failure, got {other:?}"),
        }
    }
    for o in &p.outcomes[3..] {
        assert_eq!(o.status, PairStatus::CircuitSkipped);
    }
    assert!(p.results.iter().all(Option::is_none));

    let c = &out.tenants[clean];
    for o in &c.outcomes {
        assert_eq!(o.status, PairStatus::Ok, "clean tenant perturbed");
    }
    assert!(c.results.iter().all(Option::is_some));

    let l = out.ledger;
    assert_eq!(l.frames_failed, 3);
    assert_eq!(l.circuit_skipped, 2);
    assert_eq!(l.shed_requested, 0);
    assert!(l.balanced(), "{l:?}");
    // The breaker state machine itself is unit-tested; here we only
    // confirm the names exist in the public surface.
    assert_ne!(BreakerState::Open, BreakerState::Closed);
}
