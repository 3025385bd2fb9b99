//! Service configuration.

/// First retry backoff in milliseconds; doubles per attempt.
const BACKOFF_BASE_MS: u64 = 1;
/// Backoff ceiling in milliseconds.
const BACKOFF_CAP_MS: u64 = 8;

/// Tuning knobs of one [`SmaService`](crate::service::SmaService).
///
/// The only required figure is the host cache budget — everything else
/// has conservative defaults sized for the test corpus. The budget is
/// the §4.3-derived aggregate slack (normally
/// [`sma_stream::goddard_cache_budget`]); every admitted tenant's cache
/// shard is a fair share of it, and admission refuses sequences the
/// share cannot hold.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Worker threads processing frame pairs.
    pub workers: usize,
    /// Host-level artifact-cache budget in bytes, split fair-share
    /// across admitted tenants.
    pub host_budget_bytes: usize,
    /// Upper bound on the total frame pairs queued across tenants;
    /// admission past it returns
    /// [`SmaError::Overloaded`](sma_core::SmaError::Overloaded).
    pub queue_capacity_pairs: usize,
    /// Per-frame wall-clock budget. `None` disables the watchdog;
    /// `Some(0)` cancels every attempt synchronously (the deterministic
    /// configuration the deadline tests use).
    pub deadline_ms: Option<u64>,
    /// Retry budget for *transient* faults (injected worker death,
    /// injected deadline overrun) per pair.
    pub max_retries: u32,
    /// Consecutive non-transient failures before a tenant's circuit
    /// opens.
    pub circuit_k: u32,
    /// Scheduling polls a tenant's open circuit skips before the
    /// half-open probe. Measured in polls, not wall-clock, so breaker
    /// traces are deterministic.
    pub circuit_cooldown_polls: u32,
}

impl ServeConfig {
    /// Defaults around the given host cache budget.
    pub fn new(host_budget_bytes: usize) -> Self {
        Self {
            workers: 2,
            host_budget_bytes,
            queue_capacity_pairs: 256,
            deadline_ms: None,
            max_retries: 2,
            circuit_k: 3,
            circuit_cooldown_polls: 4,
        }
    }

    /// The backoff before retry number `attempt` (1-based):
    /// `1 ms * 2^(attempt-1)` capped at 8 ms.
    pub fn backoff_ms(attempt: u32) -> u64 {
        let exp = attempt.saturating_sub(1).min(16);
        BACKOFF_BASE_MS
            .saturating_mul(1u64 << exp)
            .min(BACKOFF_CAP_MS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        assert_eq!(ServeConfig::backoff_ms(1), 1);
        assert_eq!(ServeConfig::backoff_ms(2), 2);
        assert_eq!(ServeConfig::backoff_ms(3), 4);
        assert_eq!(ServeConfig::backoff_ms(4), 8);
        assert_eq!(ServeConfig::backoff_ms(9), 8, "capped");
    }
}
