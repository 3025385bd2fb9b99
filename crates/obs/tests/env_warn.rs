//! The env-misparse warning contract across its production call sites.
//!
//! `sma_obs::env::warn_misparse` is the single shared implementation
//! behind every `SMA_*` knob's typo warning — `SMA_OBS` (obs level
//! init), `SMA_FAULTS` (fault-harness arming), `SMA_PRUNE` (the pruned
//! driver's candidate screen) and `SMA_TRACE`. This test pins the
//! once-per-variable dedupe for the two variables that historically had
//! *separate* warning helpers (the obs copy and the fault/serve copy),
//! using the exact variable names those call sites pass, against the one
//! shared registry.
//!
//! Neither variable is set in the test environment, so the library init
//! paths cannot have consumed the registry keys before this test runs.

use sma_obs::env::warn_misparse;

#[test]
fn production_vars_warn_exactly_once_each() {
    assert!(
        std::env::var_os("SMA_OBS").is_none() && std::env::var_os("SMA_FAULTS").is_none(),
        "test requires SMA_OBS/SMA_FAULTS unset so init paths don't pre-warn"
    );

    // The obs call site (level.rs): first misparse warns ...
    assert!(warn_misparse(
        "SMA_OBS",
        "verbos",
        "off|summary|spans|trace (or 0|1|2|3)",
        "observability stays off",
    ));
    // ... and every repeat — even with a different bad value — is
    // suppressed.
    assert!(!warn_misparse(
        "SMA_OBS",
        "all",
        "off|summary|spans|trace (or 0|1|2|3)",
        "observability stays off",
    ));

    // The fault call site (injector.rs) shares the registry but has its
    // own key: it still gets its one warning ...
    assert!(warn_misparse(
        "SMA_FAULTS",
        "yes",
        "<seed>[:<rate>] (decimal u64 seed, rate in [0,1])",
        "fault injection stays disarmed",
    ));
    // ... exactly once.
    assert!(!warn_misparse(
        "SMA_FAULTS",
        "yes",
        "<seed>[:<rate>] (decimal u64 seed, rate in [0,1])",
        "fault injection stays disarmed",
    ));

    // Cross-variable independence: one variable warning does not consume
    // another's slot (regression guard for the pre-dedupe era where the
    // two copies kept separate, inconsistent state).
    assert!(!warn_misparse("SMA_OBS", "verbos", "off", "stays off"));
    assert!(!warn_misparse("SMA_FAULTS", "yes", "<seed>", "disarmed"));
}
