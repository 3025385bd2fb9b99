//! Zero-dependency observability for the SMA reproduction.
//!
//! The paper's whole §4–§5 argument is quantitative — operation counts,
//! X-net fetch costs, the 64 KB-per-PE memory formula — so the pipeline
//! carries its own cost monitoring instead of relying on one-off bench
//! binaries. This crate is the substrate: no external dependencies (the
//! workspace builds offline against `vendor/` shims, so no `tracing`),
//! `std` only, and a feature-gated no-op mode that compiles every entry
//! point away.
//!
//! Three pieces:
//!
//! * **Spans** ([`span()`]): hierarchical wall-clock timers. Guards push a
//!   name onto a thread-local stack; on drop the `/`-joined path is
//!   aggregated into a process-global registry, so timings from every
//!   thread land in the same tree.
//! * **Metrics** ([`metrics::Counter`], [`metrics::HighWater`],
//!   [`metrics::Histogram`]): statically-declared atomics that register
//!   themselves on first touch. Counting only happens when the runtime
//!   level is above [`ObsLevel::Off`], so untouched test binaries pay one
//!   relaxed atomic load per call site and record nothing.
//! * **Exporters** ([`report::render`], [`json::MetricsDoc`]): a
//!   human-readable nested timing tree, and a versioned `METRICS_*.json`
//!   schema shared by every bench binary (see [`json::SCHEMA_VERSION`]).
//! * **Flight recorder** ([`trace`]): bounded per-thread ring buffers of
//!   closed spans, counter samples and instants, exported as Chrome
//!   trace-event / Perfetto JSON (`SMA_TRACE=out.json`) with per-stage
//!   p50/p95/p99 latency built on the histogram buckets.
//! * **Telemetry atlas** ([`atlas`]): per-tile spatial planes (near-tie
//!   density, border fallback, exact/integral/pruned dispatch, quarantine
//!   sites, per-frame cache hit/miss) feeding the `trace_report`
//!   heatmaps.
//!
//! Runtime verbosity is env-filtered via `SMA_OBS`:
//!
//! | value     | effect                                                   |
//! |-----------|----------------------------------------------------------|
//! | `off`     | nothing recorded (default when the variable is unset)    |
//! | `summary` | spans + metrics aggregated silently; read via snapshots  |
//! | `spans`   | `summary`, plus one stderr line as each span closes      |
//! | `trace`   | `spans`, plus a stderr line as each span opens           |
//!
//! Compile-time kill switch: build this crate with
//! `--no-default-features` and [`span()`] returns a zero-sized guard,
//! [`metrics::Counter::add`] is an empty `#[inline]` body, and
//! [`level`] is a `const`-foldable `Off`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod atlas;
pub mod env;
pub mod json;
mod level;
pub mod metrics;
pub mod report;
pub mod scoped;
pub mod span;
pub mod trace;

pub use level::{level, set_level, ObsLevel};
pub use metrics::{Counter, HighWater, Histogram};
pub use span::{span, SpanGuard};

/// True when the runtime level records anything at all.
///
/// Call sites use this to skip building expensive diagnostic values
/// (string formatting, large snapshots) when observability is off. With
/// the `enabled` feature off this is a `const false` and the guarded
/// block is dead code.
#[inline]
pub fn active() -> bool {
    level() != ObsLevel::Off
}
