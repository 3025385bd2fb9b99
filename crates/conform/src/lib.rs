//! `sma-conform` — the cross-driver differential conformance harness.
//!
//! The paper's §5.1 correctness claim is that the MasPar mapping
//! (eqs. 12–13), the snake/raster read-out, and hypothesis-row
//! segmentation compute the *same* SMA answer as the sequential
//! formulation. This crate turns that claim (and its modern extensions:
//! the integral-image fast path and its pruned production matcher, the
//! obs and fault layers) into enforced contracts over five drivers:
//!
//! * [`oracle`] — versioned, RLE-compressed golden snapshots of the
//!   reference driver's flow/height/label planes for the fixed corpus;
//! * [`corpus`] — the deterministic `satdata` scenes everything replays;
//! * [`driver`] — the driver roster (each driver is the reference,
//!   reproduces the paper, or is the production matcher) and the
//!   runtime obs/fault combos;
//! * [`diff`] — bit-level and ULP-distance comparison;
//! * [`matrix`] — the pairwise equivalence matrix and its declared
//!   contracts (bit-identical vs ULP-bounded);
//! * [`stages`] — per-stage bisection (pyramid → ASA → surface fit →
//!   Fcont → Fsemi → label) for first-divergence attribution.
//!
//! The `conform_report` binary drives all of it and emits
//! `METRICS_conform.json`; CI fails on any oracle drift or contract
//! violation. See DESIGN.md §10 for the contract rationale.

#![warn(missing_docs)]

pub mod codec;
pub mod corpus;
pub mod diff;
pub mod driver;
pub mod matrix;
pub mod oracle;
pub mod stages;

/// Corpus cases replayed.
pub static CASES_RUN: sma_obs::Counter = sma_obs::Counter::new("conform.cases");
/// Individual driver executions (drivers x combos x cases).
pub static DRIVER_RUNS: sma_obs::Counter = sma_obs::Counter::new("conform.driver_runs");
/// Driver pairs checked against their contract.
pub static PAIRS_CHECKED: sma_obs::Counter = sma_obs::Counter::new("conform.pairs_checked");
/// Pairs that were not bit-identical (within contract or not).
pub static PAIRS_DIVERGED: sma_obs::Counter = sma_obs::Counter::new("conform.pairs_diverged");
/// Contract violations (the gate failure condition).
pub static CONTRACT_VIOLATIONS: sma_obs::Counter =
    sma_obs::Counter::new("conform.contract_violations");
/// Oracle planes compared bit-level.
pub static ORACLE_PLANES: sma_obs::Counter = sma_obs::Counter::new("conform.oracle_planes");
/// Oracle planes that drifted.
pub static ORACLE_DRIFT: sma_obs::Counter = sma_obs::Counter::new("conform.oracle_drift");
