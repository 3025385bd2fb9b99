//! # sma-serve
//!
//! Multi-tenant SMA service: N tenant sequences multiplexed over a
//! fixed worker pool, with every tenant's artifact cache a shard of one
//! host-level byte budget (the paper's §4.3 aggregate per-PE slack,
//! generalised from [`maspar_sim::memory::MemoryBudget::pe_slack_bytes`]
//! via [`sma_stream::goddard_cache_budget`]).
//!
//! The robustness surface:
//!
//! * **Admission control** ([`service::SmaService::submit`]) — a
//!   sequence is admitted only if the byte model (fair share holds at
//!   least one frame-artifact set, costed by
//!   [`sma_core::FrameArtifacts::estimate_bytes`] without preparing
//!   anything) and the queue-depth model say it fits; otherwise the
//!   typed [`sma_fault::SmaError::Overloaded`].
//! * **Backpressure + load shedding** ([`degrade`]) — past 2x byte
//!   pressure a semi-fluid tenant steps from the pruned driver to the
//!   cheaper translation-only driver; a continuous tenant, which has no
//!   cheaper driver, stays on the pruned one. Past 4x alternate pairs
//!   are dropped. Every shed/degrade decision is balance-checked in the
//!   service ledger ([`ledger::ServeLedgerSnapshot::balanced`]).
//! * **Per-frame deadlines** — a watchdog cancels work past its budget
//!   through the cooperative [`sma_core::cancel`] points; a semi-fluid
//!   pair that overruns gets one more attempt on the translation-only
//!   step, any other overrunning pair is shed. Transient faults
//!   (injected worker death, injected deadline overrun) are retried
//!   with bounded exponential backoff.
//! * **Tenant isolation** ([`breaker`]) — a poisoned or fault-storming
//!   tenant is circuit-broken (quarantined after K consecutive
//!   failures, half-open probe recovery) without perturbing other
//!   tenants: each tenant's result stream is bit-identical to a solo
//!   [`sma_stream::StreamEngine`] replay, pinned by a standing test and
//!   a conformance angle.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod breaker;
pub mod config;
pub mod degrade;
pub mod ledger;
pub mod service;
pub mod tenant;

pub use breaker::{BreakerState, CircuitBreaker};
pub use config::ServeConfig;
pub use degrade::{level_for_pressure, DegradeLevel};
pub use ledger::{ServeLedger, ServeLedgerSnapshot};
pub use service::{ServeOutcome, SmaService, TENANT_SCOPE};
pub use tenant::{FrameOutcome, FramePlanes, PairStatus, TenantReport, TenantSeq};
