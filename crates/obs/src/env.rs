//! One-time misparse warnings for the `SMA_*` environment knobs.
//!
//! Every runtime knob in the workspace (`SMA_OBS`, `SMA_FAULTS`,
//! `SMA_PRUNE`, `SMA_TRACE`) follows the same contract: an unrecognised
//! value must never silently change behaviour — it falls back to the
//! documented default *and* says so on stderr exactly once per process.
//! This module is the shared implementation so the four knobs stay
//! consistent; it is compiled unconditionally (even with the `enabled`
//! feature off) because a misconfigured knob is exactly the situation
//! where the user needs the hint.

use std::collections::BTreeSet;
use std::sync::Mutex;

/// Variables that have already warned in this process.
static WARNED: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());

/// Warn on stderr — once per `var` per process — that `value` was not
/// understood, naming the accepted spellings and the fallback behaviour
/// actually taken. Returns `true` when the warning was emitted (first
/// call for this variable), `false` when it was suppressed as a repeat.
pub fn warn_misparse(var: &'static str, value: &str, accepted: &str, fallback: &str) -> bool {
    let mut warned = WARNED
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if !warned.insert(var) {
        return false;
    }
    eprintln!(
        "[sma-obs] unrecognized {var} value {value:?}; accepted values are {accepted} — {fallback}"
    );
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warns_once_per_variable() {
        // Keys private to this test so parallel tests cannot interfere.
        assert!(warn_misparse("SMA_TEST_A", "huh", "on|off", "stays off"));
        assert!(!warn_misparse("SMA_TEST_A", "huh2", "on|off", "stays off"));
        assert!(warn_misparse("SMA_TEST_B", "huh", "on|off", "stays off"));
        assert!(!warn_misparse("SMA_TEST_B", "huh", "on|off", "stays off"));
    }
}
