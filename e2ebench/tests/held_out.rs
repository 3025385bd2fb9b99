//! Held-out-seed coverage: every workload at its reduced size, on a seed
//! the benchmark was not tuned with. Each metric must be present with a
//! unit, the gates must pass, each workload's premise must hold, and the
//! top layer of the stage table must be the same as on the tuning seed.

use std::sync::Mutex;

use sma_e2ebench::{run, Options, Outcome, Workload};

/// Seed used while the benchmark was written.
const TUNING_SEED: u64 = 1;
/// A seed never used while writing it.
const HELD_OUT_SEED: u64 = 0x5EED_2026;

/// `run` drives process-global observability state; one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn small(workload: Workload, seed: u64, trace: bool) -> Outcome {
    let _guard = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    run(&Options {
        workload,
        seed,
        seconds: 0.5,
        trace,
        small: true,
    })
}

/// `(name, unit)` of every metric listed under `section` in the
/// repository's `BENCHMARK.json`, in file order.
fn contract(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to e2ebench/");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    let field = |entry: &str, key: &str| -> String {
        let at = entry.find(&format!("\"{key}\": \"")).expect("key present") + key.len() + 5;
        entry[at..at + entry[at..].find('"').expect("value closes")].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

/// The run reports exactly the contract's metrics, with its units.
fn assert_metrics(o: &Outcome, section: &str, what: &str) {
    let got: Vec<(String, String)> = o
        .metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect();
    assert_eq!(got, contract(section), "{what}: {section} metrics");
    for m in &o.metrics {
        assert!(m.value.is_finite(), "{what}: {} = {}", m.name, m.value);
    }
}

#[test]
fn every_metric_is_reported_with_its_unit_on_a_held_out_seed() {
    for w in Workload::ALL {
        let e2e = small(w, HELD_OUT_SEED, false);
        assert!(e2e.correct, "{}: {}", w.name(), e2e.report);
        assert_eq!(e2e.failed, 0);
        assert_metrics(&e2e, "end_to_end", w.name());
        for m in &e2e.metrics {
            assert!(m.value > 0.0, "{}: end-to-end {} is 0", w.name(), m.name);
        }
        let traced = small(w, HELD_OUT_SEED, true);
        assert!(traced.correct, "{}: {}", w.name(), traced.report);
        assert_metrics(&traced, "per_layer", w.name());
    }
}

#[test]
fn workload_premises_hold_on_a_held_out_seed() {
    for w in Workload::ALL {
        let o = small(w, HELD_OUT_SEED, true);
        let v = |n: &str| o.metric(n).expect("present").value;
        assert!(v("match.prune_skip_frac") > 0.5, "{}: screen", w.name());
        assert!(v("match.reroute_frac") < 1e-3, "{}: re-routes", w.name());
        assert!(v("obs.stage_coverage") >= 0.95, "{}: coverage", w.name());
        match w {
            Workload::FloridaCont => assert_eq!(v("artifacts.prepares_per_frame"), 1.0),
            Workload::LuisTight => {
                assert!(v("artifacts.prepares_per_frame") > 1.0);
                assert!(v("stream.evictions_per_pair") > 0.0);
            }
        }
    }
}

#[test]
fn top_layer_is_unchanged_on_a_held_out_seed() {
    for w in Workload::ALL {
        let top = |seed| {
            small(w, seed, true)
                .stages
                .expect("traced run has a stage table")
                .top_layer()
        };
        let tuned = top(TUNING_SEED);
        assert_eq!(tuned, Some("match"), "{}", w.name());
        assert_eq!(top(HELD_OUT_SEED), tuned, "{}", w.name());
    }
}
