//! End-to-end benchmark of the SMA streaming pipeline.
//!
//! One process streams paper-shaped satdata sequences through the
//! production path — [`sma_stream::StreamEngine`] with pipelining on and
//! the execution planner with default knobs as the matcher — checks every
//! flow bit for bit against an untimed naive replay, scores accuracy
//! against satdata truth, and reports host-normalized times (see
//! [`probe`]). A traced run adds the per-layer numbers and a stage table.
//! `README.md` in this directory documents workloads and metrics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod host;
mod probe;
mod run;
mod stats;
mod trace;
mod workload;

pub use host::fingerprint_json;
pub use run::{run, Metric, Options, Outcome};
pub use trace::{StageRow, StageTable};
pub use workload::Workload;

/// The result line: one JSON object with exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_json(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}
