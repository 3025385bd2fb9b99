//! The deterministic keyed fault injector.
//!
//! Every potential fault is one *decision* identified by `(site, key)`.
//! The decision draws from a ChaCha8 keystream seeded from the global
//! seed, the site's salt, and the caller's key — never from shared RNG
//! state — so the outcome is a pure function of the configuration and
//! the decision's identity. Threads may evaluate pixels in any order;
//! the fault pattern is identical every run.

use crate::ledger;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Once;

/// Where in the pipeline a fault can fire (the fault taxonomy of
/// DESIGN.md §9).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// A router `route_send` message is dropped in flight.
    RouterSend,
    /// A router `route_fetch` reply is dropped in flight.
    RouterFetch,
    /// An X-net mesh fetch suffers a single-bit flip.
    XnetFetch,
    /// A PE's working set transiently breaches the §4.3 memory budget.
    PeMemory,
    /// A PE fails mid-segment during `track_on_maspar`.
    PeFault,
    /// A moment-plane window sum is read back corrupted (fastpath).
    MomentPlane,
    /// An input-layer pixel block drops out in `satdata` (sensor gap).
    InputDropout,
    /// A frame's deadline budget is (simulated as) overrun: the service
    /// treats the attempt as cancelled by the watchdog.
    DeadlineOverrun,
    /// A service worker dies mid-frame; the frame is retried on the
    /// pool.
    WorkerDeath,
}

impl FaultSite {
    /// Every site, in ledger order.
    pub const ALL: [FaultSite; 9] = [
        FaultSite::RouterSend,
        FaultSite::RouterFetch,
        FaultSite::XnetFetch,
        FaultSite::PeMemory,
        FaultSite::PeFault,
        FaultSite::MomentPlane,
        FaultSite::InputDropout,
        FaultSite::DeadlineOverrun,
        FaultSite::WorkerDeath,
    ];

    /// Stable index into per-site ledger slots.
    pub(crate) fn idx(self) -> usize {
        match self {
            FaultSite::RouterSend => 0,
            FaultSite::RouterFetch => 1,
            FaultSite::XnetFetch => 2,
            FaultSite::PeMemory => 3,
            FaultSite::PeFault => 4,
            FaultSite::MomentPlane => 5,
            FaultSite::InputDropout => 6,
            FaultSite::DeadlineOverrun => 7,
            FaultSite::WorkerDeath => 8,
        }
    }

    /// Human-readable site name (also the `fault.site.*` counter
    /// suffix).
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::RouterSend => "router_send",
            FaultSite::RouterFetch => "router_fetch",
            FaultSite::XnetFetch => "xnet_fetch",
            FaultSite::PeMemory => "pe_memory",
            FaultSite::PeFault => "pe_fault",
            FaultSite::MomentPlane => "moment_plane",
            FaultSite::InputDropout => "input_dropout",
            FaultSite::DeadlineOverrun => "deadline_overrun",
            FaultSite::WorkerDeath => "worker_death",
        }
    }

    /// Per-site seed salt: distinct large odd constants so two sites
    /// never share a keystream even for equal caller keys.
    fn salt(self) -> u64 {
        match self {
            FaultSite::RouterSend => 0x9e37_79b9_7f4a_7c15,
            FaultSite::RouterFetch => 0xbf58_476d_1ce4_e5b9,
            FaultSite::XnetFetch => 0x94d0_49bb_1331_11eb,
            FaultSite::PeMemory => 0xd6e8_feb8_6659_fd93,
            FaultSite::PeFault => 0xa076_1d64_78bd_642f,
            FaultSite::MomentPlane => 0xe703_7ed1_a0b4_28db,
            FaultSite::InputDropout => 0x8ebc_6af0_9c88_c6e3,
            FaultSite::DeadlineOverrun => 0xc2b2_ae3d_27d4_eb4f,
            FaultSite::WorkerDeath => 0x1656_67b1_9e37_79f9,
        }
    }
}

// Global configuration. ARMED: 0 = uninitialised (read SMA_FAULTS on
// first use), 1 = disarmed, 2 = armed. Seed and rate are only read when
// armed, and are always stored before ARMED is raised to 2.
static ARMED: AtomicU8 = AtomicU8::new(0);
static SEED: AtomicU64 = AtomicU64::new(0);
static RATE_BITS: AtomicU64 = AtomicU64::new(0);
static ENV_INIT: Once = Once::new();

const STATE_UNINIT: u8 = 0;
const STATE_DISARMED: u8 = 1;
const STATE_ARMED: u8 = 2;

fn init_from_env() {
    ENV_INIT.call_once(|| {
        // Respect an install()/clear() that beat the first env read.
        if ARMED.load(Ordering::Acquire) != STATE_UNINIT {
            return;
        }
        match std::env::var("SMA_FAULTS") {
            Ok(v) => match parse(&v) {
                Some((seed, fault_rate)) => {
                    SEED.store(seed, Ordering::Relaxed);
                    RATE_BITS.store(fault_rate.to_bits(), Ordering::Relaxed);
                    ARMED.store(STATE_ARMED, Ordering::Release);
                }
                None => {
                    // A typo'd knob must not silently disarm a fault
                    // sweep: say so once, then stay disarmed as
                    // documented. The empty string reads as unset.
                    if !v.trim().is_empty() {
                        sma_obs::env::warn_misparse(
                            "SMA_FAULTS",
                            &v,
                            "<seed>[:<rate>] (decimal u64 seed, rate in [0,1])",
                            "fault injection stays disarmed",
                        );
                    }
                    ARMED.store(STATE_DISARMED, Ordering::Release);
                }
            },
            Err(_) => ARMED.store(STATE_DISARMED, Ordering::Release),
        }
    });
}

/// Parse a `<seed>:<rate>` knob. Seed is a decimal `u64`; rate a float
/// clamped to `[0, 1]`. A bare `<seed>` means rate 0 (armed, no
/// injection). Unparseable input disarms.
fn parse(v: &str) -> Option<(u64, f64)> {
    let v = v.trim();
    if v.is_empty() {
        return None;
    }
    let (seed_s, rate_s) = match v.split_once(':') {
        Some((s, r)) => (s, Some(r)),
        None => (v, None),
    };
    let seed: u64 = seed_s.trim().parse().ok()?;
    let fault_rate = match rate_s {
        Some(r) => r.trim().parse::<f64>().ok()?.clamp(0.0, 1.0),
        None => 0.0,
    };
    if fault_rate.is_nan() {
        return None;
    }
    Some((seed, fault_rate))
}

/// Arm the injector programmatically (overrides `SMA_FAULTS`).
///
/// `fault_rate` is clamped to `[0, 1]`. Arming with rate 0 enables the
/// degradation ladder without firing any faults — the configuration the
/// bit-identity tests compare against a disarmed run.
pub fn install(seed: u64, fault_rate: f64) {
    SEED.store(seed, Ordering::Relaxed);
    RATE_BITS.store(fault_rate.clamp(0.0, 1.0).to_bits(), Ordering::Relaxed);
    ARMED.store(STATE_ARMED, Ordering::Release);
}

/// Disarm the injector (overrides `SMA_FAULTS`): no faults fire and
/// semantic-changing fallbacks switch off.
pub fn clear() {
    ARMED.store(STATE_DISARMED, Ordering::Release);
}

/// Alias for [`clear`] that reads better at call sites pairing it with
/// [`install`].
pub fn disarm() {
    clear();
}

/// True when the harness is armed (via `SMA_FAULTS` or [`install`]).
/// Armed mode also gates the semantic-changing degradations.
pub fn enabled() -> bool {
    if ARMED.load(Ordering::Acquire) == STATE_UNINIT {
        init_from_env();
    }
    ARMED.load(Ordering::Acquire) == STATE_ARMED
}

/// The armed seed, if armed.
pub fn seed() -> Option<u64> {
    enabled().then(|| SEED.load(Ordering::Relaxed))
}

/// The armed injection rate, if armed.
pub fn rate() -> Option<f64> {
    enabled().then(|| f64::from_bits(RATE_BITS.load(Ordering::Relaxed)))
}

/// SplitMix64 finalizer: the bit mixer behind the key helpers.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Combine two values into one decision key.
pub fn key2(a: u64, b: u64) -> u64 {
    mix(a ^ mix(b))
}

/// Combine three values into one decision key.
pub fn key3(a: u64, b: u64, c: u64) -> u64 {
    key2(a, key2(b, c))
}

/// Draw the decision stream for `(seed, site, key)`: a fresh ChaCha8
/// keystream per decision, so outcomes are order-independent.
fn decision_rng(seed: u64, site: FaultSite, key: u64) -> ChaCha8Rng {
    let mut bytes = [0u8; 32];
    bytes[0..8].copy_from_slice(&seed.to_le_bytes());
    bytes[8..16].copy_from_slice(&site.salt().to_le_bytes());
    bytes[16..24].copy_from_slice(&key.to_le_bytes());
    bytes[24..32].copy_from_slice(&mix(seed ^ key).to_le_bytes());
    ChaCha8Rng::from_seed(bytes)
}

/// Map a `u64` draw to a uniform `f64` in `[0, 1)`.
fn unit(draw: u64) -> f64 {
    (draw >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// An unresolved injected fault. The holder must declare the outcome:
/// [`recovered`](FaultToken::recovered) when a retry or re-route
/// restored the exact result, [`degraded`](FaultToken::degraded) when a
/// fallback produced a lesser one. Dropping an unresolved token counts
/// as degraded, so the ledger invariant
/// `injected == recovered + degraded` holds even on early-exit paths.
#[must_use = "resolve the fault as recovered() or degraded()"]
#[derive(Debug)]
pub struct FaultToken {
    site: FaultSite,
    resolved: bool,
}

impl FaultToken {
    /// The site this fault fired at.
    pub fn site(&self) -> FaultSite {
        self.site
    }

    /// The fault was fully absorbed: a retry/re-route restored the
    /// exact result.
    pub fn recovered(mut self) {
        self.resolved = true;
        ledger::record_recovered(self.site);
    }

    /// The fault was absorbed by a fallback that changed the result.
    pub fn degraded(mut self) {
        self.resolved = true;
        ledger::record_degraded(self.site);
    }
}

impl Drop for FaultToken {
    fn drop(&mut self) {
        if !self.resolved {
            ledger::record_degraded(self.site);
        }
    }
}

/// Decide whether the fault at `(site, key)` fires under the current
/// configuration. Returns a token (already counted as injected) when it
/// does.
pub fn inject(site: FaultSite, key: u64) -> Option<FaultToken> {
    inject_with_draw(site, key).map(|(token, _)| token)
}

/// Like [`inject`], but also returns one extra keystream word for
/// payload decisions (which bit to flip, which retry salt to use)
/// without the caller needing its own RNG.
pub fn inject_with_draw(site: FaultSite, key: u64) -> Option<(FaultToken, u64)> {
    if !enabled() {
        return None;
    }
    let fault_rate = f64::from_bits(RATE_BITS.load(Ordering::Relaxed));
    if fault_rate <= 0.0 {
        return None;
    }
    let mut rng = decision_rng(SEED.load(Ordering::Relaxed), site, key);
    if unit(rng.next_u64()) >= fault_rate {
        return None;
    }
    ledger::record_injected(site);
    Some((
        FaultToken {
            site,
            resolved: false,
        },
        rng.next_u64(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_seed_rate_pairs() {
        assert_eq!(parse("42:0.25"), Some((42, 0.25)));
        assert_eq!(parse("7"), Some((7, 0.0)));
        assert_eq!(parse(" 9 : 2.0 "), Some((9, 1.0))); // clamped
        assert_eq!(parse("-1:0.5"), None);
        assert_eq!(parse("x:0.5"), None);
        assert_eq!(parse("5:huh"), None);
        assert_eq!(parse(""), None);
    }

    #[test]
    fn decisions_are_deterministic_and_keyed() {
        let _g = crate::exclusive();
        install(1234, 0.5);
        crate::reset_ledger();
        let a: Vec<bool> = (0..256)
            .map(|k| {
                inject(FaultSite::RouterSend, k)
                    .map(|t| t.degraded())
                    .is_some()
            })
            .collect();
        let b: Vec<bool> = (0..256)
            .map(|k| {
                inject(FaultSite::RouterSend, k)
                    .map(|t| t.degraded())
                    .is_some()
            })
            .collect();
        assert_eq!(a, b, "same seed+site+key must agree");
        let fired = a.iter().filter(|&&f| f).count();
        assert!(fired > 64 && fired < 192, "rate 0.5 fired {fired}/256");

        // A different site decorrelates even with equal keys.
        let c: Vec<bool> = (0..256)
            .map(|k| {
                inject(FaultSite::XnetFetch, k)
                    .map(|t| t.degraded())
                    .is_some()
            })
            .collect();
        assert_ne!(a, c);
        clear();
    }

    #[test]
    fn rate_bounds() {
        let _g = crate::exclusive();
        install(9, 0.0);
        assert!(inject(FaultSite::PeFault, 3).is_none());
        install(9, 1.0);
        crate::reset_ledger();
        for k in 0..32 {
            inject(FaultSite::PeFault, k)
                .expect("rate 1 always fires")
                .recovered();
        }
        let snap = crate::ledger();
        assert_eq!(snap.injected, 32);
        assert_eq!(snap.recovered, 32);
        clear();
        assert!(inject(FaultSite::PeFault, 3).is_none());
    }

    #[test]
    fn dropped_token_counts_as_degraded() {
        let _g = crate::exclusive();
        install(5, 1.0);
        crate::reset_ledger();
        {
            let _t = inject(FaultSite::MomentPlane, 11).expect("fires");
            // dropped unresolved
        }
        let snap = crate::ledger();
        assert_eq!(snap.injected, 1);
        assert_eq!(snap.degraded, 1);
        assert_eq!(snap.injected, snap.recovered + snap.degraded);
        clear();
    }

    #[test]
    fn extra_draw_is_stable() {
        let _g = crate::exclusive();
        install(77, 1.0);
        crate::reset_ledger();
        let (t1, d1) = inject_with_draw(FaultSite::XnetFetch, 42).expect("fires");
        t1.recovered();
        let (t2, d2) = inject_with_draw(FaultSite::XnetFetch, 42).expect("fires");
        t2.recovered();
        assert_eq!(d1, d2);
        clear();
    }

    #[test]
    fn key_helpers_mix() {
        assert_ne!(key2(0, 1), key2(1, 0));
        assert_ne!(key3(1, 2, 3), key3(3, 2, 1));
        assert_ne!(mix(0), 0);
    }
}
