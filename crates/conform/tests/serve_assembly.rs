//! The sixth conformance angle: multi-tenant service assembly.
//!
//! The first five angles (driver-pair matrix, runtime combos, golden
//! oracle, near-tie gate, metamorphic invariants — DESIGN.md §10) all
//! replay a case through a *driver*. This one replays the corpus
//! through the *service*: every small-tier case becomes a tenant of one
//! shared `SmaService`, and each tenant's result must be bit-identical
//! to the pairwise pruned driver run of the same case. Admission, cache
//! sharding, scheduling, and report assembly may move *when* and
//! *where* a pair is computed — never one output bit.

use std::sync::Arc;

use sma_conform::corpus::{corpus, CorpusTier};
use sma_conform::diff::diff_results;
use sma_conform::driver::DriverKind;
use sma_serve::{FramePlanes, PairStatus, ServeConfig, SmaService, TenantSeq};

#[test]
fn serve_assembled_corpus_matches_pairwise_drivers() {
    let cases = corpus(true);
    let small: Vec<_> = cases
        .iter()
        .filter(|c| c.tier == CorpusTier::Small)
        .collect();
    assert!(!small.is_empty(), "small corpus tier must not be empty");

    // Budget sized so every tenant's fair share holds a resident pair:
    // the pressure model places everyone at the base SIMD level with no
    // shedding, which is what the bit-identity contract requires.
    let max_frame_bytes = small
        .iter()
        .map(|c| {
            let (w, h) = c.dims();
            sma_core::FrameArtifacts::estimate_bytes(w, h)
        })
        .max()
        .expect("non-empty corpus");
    let mut cfg = ServeConfig::new(2 * max_frame_bytes * small.len());
    cfg.workers = 2;

    let mut svc = SmaService::new(cfg);
    for case in &small {
        let frames = vec![
            FramePlanes {
                intensity: Arc::new(case.intensity_before.clone()),
                surface: Arc::new(case.surface_before.clone()),
            },
            FramePlanes {
                intensity: Arc::new(case.intensity_after.clone()),
                surface: Arc::new(case.surface_after.clone()),
            },
        ];
        let mut tenant = TenantSeq::new(case.name, frames, case.cfg);
        // Track exactly what the pairwise drivers track.
        tenant.region = case.region;
        svc.submit(tenant).expect("corpus case admitted");
    }
    let out = svc.run();

    for (case, report) in small.iter().zip(&out.tenants) {
        assert_eq!(report.name, case.name);
        assert_eq!(report.outcomes.len(), 1);
        assert_eq!(
            report.outcomes[0].status,
            PairStatus::Ok,
            "case {} did not complete at the base level",
            case.name
        );
        let served = report.results[0].as_ref().expect("served result");
        let frames = case.frames().expect("pairwise prepare");
        let reference = DriverKind::FastpathPruned
            .run(case, &frames)
            .expect("pairwise pruned driver");
        let diff = diff_results(served, &reference);
        assert!(
            diff.bit_identical(),
            "case {}: service assembly changed output bits: {:?}",
            case.name,
            diff.first
        );
    }
    assert!(out.ledger.balanced());
    assert_eq!(out.ledger.budget_breaches, 0);
}
