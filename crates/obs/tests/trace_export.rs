//! Structural gates for the flight recorder and its Chrome trace export.
//!
//! The recorder's rings, the recording flag and the span registry are
//! process-global, so everything runs inside one ordered test: phases
//! share state deliberately and reset between themselves.

#![cfg(feature = "enabled")]

use sma_obs::trace::{self, TRACE_RING_CAPACITY};
use sma_obs::{set_level, span, ObsLevel};

#[test]
fn flight_recorder_exports_valid_cross_thread_chrome_trace() {
    set_level(ObsLevel::Summary);

    // Phase 1: recording off — span guards run but nothing is captured.
    trace::set_recording(false);
    {
        let _g = span("trace_test_disabled");
    }
    let check = trace::validate_chrome_json(&trace::chrome_json()).expect("empty trace valid");
    assert_eq!(check.spans, 0, "disabled recording captured spans");
    assert_eq!(trace::events_dropped(), 0);

    // Phase 2: a cross-thread forest. Three named workers plus the main
    // thread, each with a three-deep span nest, plus counter samples and
    // a tagged instant.
    trace::set_recording(true);
    {
        let _root = span("trace_test_main");
        {
            let _mid = span("trace_test_mid");
            let _leaf = span("trace_test_leaf");
        }
        trace::counter("trace_test.counter", 42);
        trace::instant_with("trace_test.instant", "site_a");
    }
    let workers: Vec<_> = (0..3)
        .map(|i| {
            std::thread::Builder::new()
                .name(format!("trace-worker-{i}"))
                .spawn(|| {
                    let _root = span("trace_test_worker");
                    for _ in 0..4 {
                        let _leaf = span("trace_test_worker_leaf");
                    }
                    trace::counter("trace_test.worker_counter", 7);
                })
                .expect("spawn worker")
        })
        .collect();
    for w in workers {
        w.join().expect("join worker");
    }

    let json = trace::chrome_json();
    let check = trace::validate_chrome_json(&json).expect("trace structurally valid");
    // 3 main spans + 3 workers * (1 root + 4 leaves) = 18 span pairs.
    assert_eq!(check.spans, 18, "span pair count");
    assert!(
        check.threads >= 4,
        "expected main + 3 workers, saw {} threads",
        check.threads
    );
    assert!(check.max_depth >= 3, "nesting depth lost: {check:?}");
    assert!(json.contains("\"C\""), "counter samples missing");
    assert!(json.contains("\"i\""), "instant missing");
    assert!(json.contains("site_a"), "instant detail missing");
    assert!(
        json.contains("trace-worker-0"),
        "thread_name metadata missing"
    );

    // Latency percentiles come from the same spans, keyed by path.
    let lat = trace::latency_summary();
    let leaf = lat
        .iter()
        .find(|l| l.path == "trace_test_worker/trace_test_worker_leaf")
        .expect("worker leaf path in latency summary");
    assert_eq!(leaf.count, 12, "4 leaves on each of 3 workers");
    assert!(leaf.p50_us <= leaf.p95_us && leaf.p95_us <= leaf.p99_us);
    let root = lat
        .iter()
        .find(|l| l.path == "trace_test_main")
        .expect("main root path");
    assert_eq!(root.count, 1);

    // Phase 3: threads spawned one after another under one name (as the
    // pruned driver spawns its row bands per call) share one ring: the
    // export names the thread once, and keeps every thread's spans.
    for _ in 0..3 {
        std::thread::Builder::new()
            .name("trace-respawned".into())
            .spawn(|| {
                let _s = span("trace_test_respawned");
            })
            .expect("spawn worker")
            .join()
            .expect("join worker");
    }
    let json = trace::chrome_json();
    assert_eq!(
        json.matches("trace-respawned").count(),
        1,
        "one ring per retired thread name"
    );
    let respawned = trace::latency_summary()
        .into_iter()
        .find(|l| l.path == "trace_test_respawned")
        .expect("respawned spans recorded");
    assert_eq!(respawned.count, 3);

    // Phase 4: overflow drops whole (oldest) spans; the export stays
    // balanced and bounded.
    trace::reset();
    for _ in 0..(TRACE_RING_CAPACITY + 100) {
        let _s = span("trace_test_flood");
    }
    assert!(
        trace::events_dropped() >= 100,
        "ring overflow not counted: {}",
        trace::events_dropped()
    );
    let check = trace::validate_chrome_json(&trace::chrome_json()).expect("overflowed trace valid");
    assert!(check.spans <= TRACE_RING_CAPACITY);
    assert!(check.spans > 0);

    // Phase 5: reset clears events and drop counts.
    trace::reset();
    assert_eq!(trace::events_dropped(), 0);
    let check = trace::validate_chrome_json(&trace::chrome_json()).expect("reset trace valid");
    assert_eq!(check.spans, 0);

    trace::set_recording(false);
}

#[test]
fn validator_rejects_malformed_traces() {
    // Unbalanced: B without E.
    let unbalanced = r#"{"traceEvents": [
        {"name": "a", "ph": "B", "ts": 1, "pid": 1, "tid": 1}
    ]}"#;
    assert!(trace::validate_chrome_json(unbalanced)
        .unwrap_err()
        .contains("unclosed"));

    // Mismatched close name.
    let mismatched = r#"{"traceEvents": [
        {"name": "a", "ph": "B", "ts": 1, "pid": 1, "tid": 1},
        {"name": "b", "ph": "E", "ts": 2, "pid": 1, "tid": 1}
    ]}"#;
    assert!(trace::validate_chrome_json(mismatched)
        .unwrap_err()
        .contains("closes"));

    // Backwards timestamps on one thread.
    let backwards = r#"{"traceEvents": [
        {"name": "a", "ph": "B", "ts": 5, "pid": 1, "tid": 1},
        {"name": "a", "ph": "E", "ts": 4, "pid": 1, "tid": 1}
    ]}"#;
    assert!(trace::validate_chrome_json(backwards)
        .unwrap_err()
        .contains("backwards"));

    // E with no matching B at all.
    let orphan = r#"{"traceEvents": [
        {"name": "a", "ph": "E", "ts": 1, "pid": 1, "tid": 1}
    ]}"#;
    assert!(trace::validate_chrome_json(orphan)
        .unwrap_err()
        .contains("empty stack"));

    assert!(trace::validate_chrome_json("not json").is_err());
    assert!(trace::validate_chrome_json("{}")
        .unwrap_err()
        .contains("traceEvents"));
}
