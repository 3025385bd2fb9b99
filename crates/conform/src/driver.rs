//! The driver grid: every SMA driver variant the harness replays, plus
//! the runtime obs/fault combinations each one must be insensitive to.
//!
//! Each of the five drivers has one reason to exist: `sequential` is
//! the reference; `segmented` and `maspar` reproduce the paper's
//! §4.1/§4.3 segmentation and the MP-2 mapping; `fastpath` is the scalar
//! moment-identity reference; `fastpath_pruned` is the production
//! matcher.

use maspar_sim::machine::{MachineConfig, MasPar, ReadoutScheme};
use sma_core::fastpath::track_all_integral;
use sma_core::maspar_driver::{track_on_maspar, MasparRunReport};
use sma_core::motion::SmaFrames;
use sma_core::precompute::track_all_segmented;
use sma_core::sequential::SmaResult;
use sma_core::{track_all_pruned, track_all_sequential, SmaError};

use crate::corpus::ConformCase;

/// Hypothesis-row chunk used by the segmented driver (2 of the
/// `2 * nzs + 1` rows per segment — forces multi-segment checkpointing
/// on every corpus case).
pub const SEGMENT_Z_ROWS: usize = 2;

/// PE array edge for the simulated MasPar runs (8 x 8 keeps layer counts
/// meaningful on the small corpus frames).
pub const MASPAR_EDGE: usize = 8;

/// One driver variant under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DriverKind {
    /// The sequential reference baseline.
    Sequential,
    /// §4.1/§4.3 precompute + hypothesis-row segmentation.
    Segmented,
    /// Simulated MP-2 (`track_on_maspar`, raster read-out).
    Maspar,
    /// Moment-plane integral-image fast path.
    Fastpath,
    /// Pruned-search fast path on the SIMD lane kernels (amortized 6 x 6
    /// factorization, hoisted gradient planes, one resident offset
    /// plane): coarse-lattice candidate ordering plus admissible early
    /// termination where the screen pays, a raster sweep elsewhere.
    FastpathPruned,
}

/// Every driver variant, in matrix order (the reference first).
pub const ALL_DRIVERS: [DriverKind; 5] = [
    DriverKind::Sequential,
    DriverKind::Segmented,
    DriverKind::Maspar,
    DriverKind::Fastpath,
    DriverKind::FastpathPruned,
];

/// Numerical family of a driver. Members of one family share per-pixel
/// arithmetic and evaluation order, so they owe each other bit
/// identity; pairs that cross families reassociate at least one
/// reduction and carry the declared ULP contract instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Family {
    /// Exact per-template summation (the paper's baseline arithmetic).
    Exact,
    /// Moment-plane summed-area-table fast path.
    Integral,
    /// Pruned-search fast path on the lane kernels: candidate ordering
    /// plus admissible early termination. Bit-identical to `Integral`
    /// *by construction* (the lane kernels keep every accumulation
    /// order, and skipped candidates are provably outside the near-tie
    /// band), but the plane construction order differs, so the
    /// *declared* cross-family contract stays ULP-bounded.
    Pruned,
}

impl DriverKind {
    /// Stable display / metrics name.
    pub fn name(self) -> &'static str {
        match self {
            DriverKind::Sequential => "sequential",
            DriverKind::Segmented => "segmented",
            DriverKind::Maspar => "maspar",
            DriverKind::Fastpath => "fastpath",
            DriverKind::FastpathPruned => "fastpath_pruned",
        }
    }

    /// The driver's numerical family (see [`Family`]).
    pub fn family(self) -> Family {
        match self {
            DriverKind::Sequential | DriverKind::Segmented | DriverKind::Maspar => Family::Exact,
            DriverKind::Fastpath => Family::Integral,
            DriverKind::FastpathPruned => Family::Pruned,
        }
    }

    /// True for the summed-area-table variants (ULP-bounded contract
    /// against the exact family; each family is bit-identical within
    /// itself).
    pub fn is_fastpath(self) -> bool {
        self.family() != Family::Exact
    }

    /// Run this driver on a prepared case.
    ///
    /// # Errors
    /// Propagates the driver's [`SmaError`] (empty region, machine
    /// memory breach, ...).
    pub fn run(self, case: &ConformCase, frames: &SmaFrames) -> Result<SmaResult, SmaError> {
        match self {
            DriverKind::Sequential => track_all_sequential(frames, &case.cfg, case.region),
            DriverKind::Segmented => {
                track_all_segmented(frames, &case.cfg, case.region, SEGMENT_Z_ROWS)
            }
            DriverKind::Maspar => {
                run_maspar(case, ReadoutScheme::Raster).map(|report| report.result)
            }
            DriverKind::Fastpath => track_all_integral(frames, &case.cfg, case.region),
            DriverKind::FastpathPruned => track_all_pruned(frames, &case.cfg, case.region),
        }
    }
}

/// Run the MasPar driver on a fresh simulated machine with the given
/// read-out scheme (the scheme must not change results — one of the
/// gates the report asserts).
///
/// # Errors
/// Propagates [`track_on_maspar`] failures.
pub fn run_maspar(case: &ConformCase, scheme: ReadoutScheme) -> Result<MasparRunReport, SmaError> {
    let mut machine = MasPar::new(MachineConfig {
        nxproc: MASPAR_EDGE,
        nyproc: MASPAR_EDGE,
        ..MachineConfig::goddard_mp2()
    });
    track_on_maspar(
        &mut machine,
        &case.intensity_before,
        &case.intensity_after,
        &case.surface_before,
        &case.surface_after,
        &case.cfg,
        case.region,
        scheme,
    )
}

/// A runtime feature combination. The `obs` and `fault` cargo features
/// are compile-time, but both layers are runtime-togglable inside one
/// binary: observability through its level filter and the fault harness
/// by arming it at rate 0 (every injection site evaluates its gate but
/// nothing fires). The conformance claim is that none of the toggles may
/// change a single output bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeCombo {
    /// Observability recording on (`summary` level) or `off`.
    pub obs: bool,
    /// Fault harness armed at rate 0 vs fully disarmed.
    pub faults_armed: bool,
    /// Flight-recorder span/counter capture on vs off.
    pub trace: bool,
}

/// The five runtime combinations every driver is replayed under: the
/// obs x faults square, and an obs run with the flight recorder
/// capturing — tracing must not change a single output bit either.
pub const ALL_COMBOS: [RuntimeCombo; 5] = [
    RuntimeCombo {
        obs: false,
        faults_armed: false,
        trace: false,
    },
    RuntimeCombo {
        obs: true,
        faults_armed: false,
        trace: false,
    },
    RuntimeCombo {
        obs: false,
        faults_armed: true,
        trace: false,
    },
    RuntimeCombo {
        obs: true,
        faults_armed: true,
        trace: false,
    },
    RuntimeCombo {
        obs: true,
        faults_armed: false,
        trace: true,
    },
];

/// Deterministic seed for armed-rate-0 runs (the seed is irrelevant at
/// rate 0 but pinned anyway so reruns are identical by construction).
pub const COMBO_FAULT_SEED: u64 = 42;

impl RuntimeCombo {
    /// Stable display name: the set flags joined by `+` in the order
    /// `obs`, `faults0`, `trace` (e.g. `obs+faults0`), or `plain` when
    /// none is set.
    pub fn name(self) -> String {
        let set: Vec<&str> = [
            (self.obs, "obs"),
            (self.faults_armed, "faults0"),
            (self.trace, "trace"),
        ]
        .into_iter()
        .filter_map(|(on, flag)| on.then_some(flag))
        .collect();
        if set.is_empty() {
            "plain".to_string()
        } else {
            set.join("+")
        }
    }

    /// Run `f` with this combination installed, restoring the previous
    /// obs level and trace recording and disarming the fault harness
    /// afterwards.
    pub fn with<T>(self, f: impl FnOnce() -> T) -> T {
        let prev = sma_obs::level();
        let prev_trace = sma_obs::trace::recording();
        sma_obs::set_level(if self.obs {
            sma_obs::ObsLevel::Summary
        } else {
            sma_obs::ObsLevel::Off
        });
        sma_obs::trace::set_recording(self.trace);
        if self.faults_armed {
            sma_fault::install(COMBO_FAULT_SEED, 0.0);
        } else {
            sma_fault::disarm();
        }
        let out = f();
        sma_fault::disarm();
        sma_obs::trace::set_recording(prev_trace);
        sma_obs::set_level(prev);
        out
    }
}
