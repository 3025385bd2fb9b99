//! Service-level accounting with a decision/outcome balance invariant.
//!
//! Every load-shedding *decision* (running a semi-fluid pair on the
//! translation-only step, or dropping a pair) must be balanced by
//! exactly one shedding *outcome*:
//!
//! ```text
//! shed_requested == frames_degraded + pairs_dropped_shed
//! ```
//!
//! `shed_requested` counts on the decision side — once per pair, the
//! moment the scheduler, the pressure map or a deadline overrun commits
//! the pair to a fate below the top rung. The outcome side counts where
//! the pair actually landed: completed on the translation-only step
//! ([`ServeLedger::frames_degraded`], semi-fluid pairs only) or
//! produced no result ([`ServeLedger::pairs_dropped_shed`]). Failures
//! and circuit skips live *outside* the invariant — they are fault
//! outcomes, not shedding outcomes — mirroring how the fault crate's
//! own ledger balances `injected == recovered + degraded`.

use std::sync::atomic::{AtomicU64, Ordering};

static ADMITTED: sma_obs::Counter = sma_obs::Counter::new("serve.tenants_admitted");
static REJECTED: sma_obs::Counter = sma_obs::Counter::new("serve.tenants_rejected");
static PAIRS_COMPLETED: sma_obs::Counter = sma_obs::Counter::new("serve.pairs_completed");
static SHED_REQUESTED: sma_obs::Counter = sma_obs::Counter::new("serve.shed_requested");
static FRAMES_DEGRADED: sma_obs::Counter = sma_obs::Counter::new("serve.frames_degraded");
static PAIRS_DROPPED: sma_obs::Counter = sma_obs::Counter::new("serve.pairs_dropped_shed");
static FRAMES_FAILED: sma_obs::Counter = sma_obs::Counter::new("serve.frames_failed");
static CIRCUIT_SKIPPED: sma_obs::Counter = sma_obs::Counter::new("serve.circuit_skipped");
static DEADLINE_CANCELLED: sma_obs::Counter = sma_obs::Counter::new("serve.deadline_cancelled");
static RETRIES: sma_obs::Counter = sma_obs::Counter::new("serve.retries");
static BUDGET_BREACHES: sma_obs::Counter = sma_obs::Counter::new("serve.budget_breaches");

macro_rules! ledger_fields {
    ($($(#[$doc:meta])* $field:ident => $obs:ident),* $(,)?) => {
        /// Atomic service counters (one instance per service, plus
        /// process-wide `serve.*` obs mirrors).
        #[derive(Debug, Default)]
        pub struct ServeLedger {
            $($(#[$doc])* $field: AtomicU64,)*
        }

        /// Point-in-time copy of a [`ServeLedger`].
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct ServeLedgerSnapshot {
            $($(#[$doc])* pub $field: u64,)*
        }

        impl ServeLedger {
            $(
                /// Increment this counter (and its obs mirror).
                pub fn $field(&self, n: u64) {
                    self.$field.fetch_add(n, Ordering::Relaxed);
                    $obs.add(n);
                }
            )*

            /// The current totals.
            pub fn snapshot(&self) -> ServeLedgerSnapshot {
                ServeLedgerSnapshot {
                    $($field: self.$field.load(Ordering::Relaxed),)*
                }
            }
        }
    };
}

ledger_fields! {
    /// Tenants admitted by the byte/queue model.
    admitted => ADMITTED,
    /// Tenants refused with `Overloaded`.
    rejected => REJECTED,
    /// Pairs that produced a result (at any level).
    pairs_completed => PAIRS_COMPLETED,
    /// Shedding decisions: pairs committed to run below the top rung
    /// or be dropped (once per pair).
    shed_requested => SHED_REQUESTED,
    /// Shed-flagged pairs that completed on the translation-only step.
    frames_degraded => FRAMES_DEGRADED,
    /// Shed-flagged pairs that produced no result.
    pairs_dropped_shed => PAIRS_DROPPED,
    /// Pairs that failed with a non-transient error (outside the
    /// shedding invariant).
    frames_failed => FRAMES_FAILED,
    /// Pairs skipped because the tenant's circuit was open.
    circuit_skipped => CIRCUIT_SKIPPED,
    /// Watchdog cancellations (real deadline overruns, not injected).
    deadline_cancelled => DEADLINE_CANCELLED,
    /// Retry attempts beyond each pair's first.
    retries => RETRIES,
    /// Observations of the host meter above the host budget (the
    /// zero-breach acceptance gate).
    budget_breaches => BUDGET_BREACHES,
}

impl ServeLedgerSnapshot {
    /// The decision/outcome balance invariant (see module docs).
    pub fn balanced(&self) -> bool {
        self.shed_requested == self.frames_degraded + self.pairs_dropped_shed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_increments_and_balance() {
        let l = ServeLedger::default();
        l.admitted(2);
        l.shed_requested(3);
        l.frames_degraded(2);
        l.pairs_dropped_shed(1);
        l.frames_failed(5);
        let s = l.snapshot();
        assert_eq!(s.admitted, 2);
        assert!(s.balanced(), "{s:?}");
        l.shed_requested(1);
        assert!(!l.snapshot().balanced());
    }
}
