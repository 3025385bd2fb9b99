//! The pairwise equivalence matrix: which driver pairs must be
//! bit-identical, which carry a declared tolerance contract, and the
//! verdict machinery that checks a live pair against its contract.

use sma_core::sequential::SmaResult;
use sma_grid::WindowBounds;

use crate::diff::{diff_results, Divergence, ResultDiff};
use crate::driver::DriverKind;

/// Tolerance contract for the fast path against the exact family (and
/// the reassociation-equivalent fast-path variants against each other
/// where scheduling differs). The bounds are *declared* here and
/// *enforced* everywhere the matrix runs; loosening one is an oracle
/// event requiring a CHANGES.md note.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UlpBound {
    /// Winning hypothesis (integer displacement) and validity must agree
    /// exactly — reassociation may move an error value, never the argmin
    /// (near-ties re-route through the exact kernel; see
    /// `fastpath::NEAR_TIE_ABS` / `fastpath::NEAR_TIE_REL`).
    pub displacement_exact: bool,
    /// `|e_a - e_b| <= error_abs + error_rel * max(|e_a|, |e_b|)` for
    /// the minimized error plane.
    pub error_abs: f64,
    /// Relative term of the error bound.
    pub error_rel: f64,
    /// Absolute term of the per-parameter affine bound.
    pub params_abs: f64,
    /// Relative term of the affine bound.
    pub params_rel: f64,
}

/// The fast-path-vs-exact contract: displacement and validity exact;
/// error within `1e-9 + 1e-6 * rel` (the PR 1 equivalence-test bound);
/// affine parameters within `1e-6 + 1e-4 * rel` (solver-input
/// reassociation amplified by the 6 x 6 system's conditioning).
pub const FASTPATH_BOUND: UlpBound = UlpBound {
    displacement_exact: true,
    error_abs: 1e-9,
    error_rel: 1e-6,
    params_abs: 1e-6,
    params_rel: 1e-4,
};

/// What a driver pair owes each other.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Contract {
    /// Every output bit equal over the tracked region.
    BitIdentical,
    /// Same winner, numerically bounded planes.
    UlpBounded(UlpBound),
}

/// The declared contract for a driver pair.
///
/// The exact family (`sequential`/`segmented`/`maspar`) evaluates
/// identical per-pixel arithmetic in identical order — work
/// distribution and read-out never touch the sums — so it is
/// bit-identical (the paper's §5.1 claim). The fast-path families
/// reassociate the template reduction through moment planes, so any
/// pair that crosses a family boundary is ULP-bounded; variants within
/// one family share per-pixel arithmetic and are bit-identical among
/// themselves. The pruned driver is bit-identical to the scalar
/// integral family *by construction* (lane chunking never reorders an
/// accumulation), but its declared cross-family contract stays
/// ULP-bounded so the declaration does not depend on that stronger
/// claim holding on every future input.
pub fn contract_for(a: DriverKind, b: DriverKind) -> Contract {
    if a.family() == b.family() {
        Contract::BitIdentical
    } else {
        Contract::UlpBounded(FASTPATH_BOUND)
    }
}

/// Verdict for one ordered driver pair on one corpus case.
#[derive(Debug, Clone)]
pub struct PairVerdict {
    /// Left driver.
    pub a: DriverKind,
    /// Right driver.
    pub b: DriverKind,
    /// Declared contract.
    pub contract: Contract,
    /// Whether the pair was bit-identical (stronger than the contract
    /// may require).
    pub bit_identical: bool,
    /// Whether the pair satisfied its contract.
    pub within_contract: bool,
    /// Bit-level diff detail.
    pub diff: ResultDiff,
    /// First scalar exceeding the contract (equals `diff.first` for
    /// bit-identical contracts).
    pub first_violation: Option<Divergence>,
}

fn within(bound_abs: f64, bound_rel: f64, a: f64, b: f64) -> bool {
    // NaN on either side can never satisfy a numeric bound.
    (a - b).abs() <= bound_abs + bound_rel * a.abs().max(b.abs())
}

/// Check one pair of live results against the declared contract.
pub fn check_pair(
    a_kind: DriverKind,
    b_kind: DriverKind,
    a: &SmaResult,
    b: &SmaResult,
) -> PairVerdict {
    let contract = contract_for(a_kind, b_kind);
    let diff = diff_results(a, b);
    let bit_identical = diff.bit_identical();
    let (within_contract, first_violation) = match contract {
        Contract::BitIdentical => (bit_identical, diff.first.clone()),
        Contract::UlpBounded(bound) => check_ulp_bound(&bound, a, b, intersect(a.region, b.region)),
    };
    PairVerdict {
        a: a_kind,
        b: b_kind,
        contract,
        bit_identical,
        within_contract,
        diff,
        first_violation,
    }
}

fn intersect(a: WindowBounds, b: WindowBounds) -> WindowBounds {
    WindowBounds {
        x0: a.x0.max(b.x0),
        y0: a.y0.max(b.y0),
        x1: a.x1.min(b.x1),
        y1: a.y1.min(b.y1),
    }
}

fn check_ulp_bound(
    bound: &UlpBound,
    a: &SmaResult,
    b: &SmaResult,
    region: WindowBounds,
) -> (bool, Option<Divergence>) {
    for (x, y) in region.pixels() {
        let ea = a.estimates.at(x, y);
        let eb = b.estimates.at(x, y);
        let fail = |plane: &str, a_bits: u64, b_bits: u64| {
            Some(Divergence {
                plane: plane.to_string(),
                x,
                y,
                a_bits,
                b_bits,
            })
        };
        if ea.valid != eb.valid {
            return (
                false,
                fail("valid", u64::from(ea.valid), u64::from(eb.valid)),
            );
        }
        if !ea.valid {
            continue;
        }
        if bound.displacement_exact {
            let (da, db) = (ea.displacement, eb.displacement);
            if da.u.to_bits() != db.u.to_bits() {
                return (
                    false,
                    fail("flow.u", da.u.to_bits() as u64, db.u.to_bits() as u64),
                );
            }
            if da.v.to_bits() != db.v.to_bits() {
                return (
                    false,
                    fail("flow.v", da.v.to_bits() as u64, db.v.to_bits() as u64),
                );
            }
        }
        if !within(bound.error_abs, bound.error_rel, ea.error, eb.error) {
            return (false, fail("error", ea.error.to_bits(), eb.error.to_bits()));
        }
        let (pa, pb) = (ea.affine.params(), eb.affine.params());
        for (i, pname) in ["ai", "bi", "aj", "bj", "ak", "bk"].iter().enumerate() {
            if !within(bound.params_abs, bound.params_rel, pa[i], pb[i]) {
                return (
                    false,
                    fail(&format!("affine.{pname}"), pa[i].to_bits(), pb[i].to_bits()),
                );
            }
        }
    }
    (true, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::DriverKind as D;

    #[test]
    fn exact_family_pairs_are_bit_contracts() {
        for a in [D::Sequential, D::Segmented, D::Maspar] {
            for b in [D::Sequential, D::Segmented, D::Maspar] {
                assert_eq!(contract_for(a, b), Contract::BitIdentical);
            }
        }
    }

    #[test]
    fn fastpath_crossing_pairs_are_ulp_contracts() {
        for exact in [D::Sequential, D::Segmented, D::Maspar] {
            for fast in [D::Fastpath, D::FastpathPruned] {
                assert!(
                    matches!(contract_for(exact, fast), Contract::UlpBounded(_)),
                    "{exact:?} vs {fast:?}"
                );
                assert_eq!(contract_for(exact, fast), contract_for(fast, exact));
            }
        }
        // The scalar fast path owes itself bit identity.
        assert_eq!(
            contract_for(D::Fastpath, D::Fastpath),
            Contract::BitIdentical
        );
    }

    /// Pin the pruned driver's declared contracts: bit-identical to
    /// itself, ULP-bounded against everyone else. (It is bit-identical
    /// to the scalar integral family by construction; the declared
    /// contract deliberately does not lean on that stronger claim.)
    #[test]
    fn pruned_driver_contracts_are_pinned() {
        assert_eq!(
            contract_for(D::FastpathPruned, D::FastpathPruned),
            Contract::BitIdentical
        );
        for other in crate::driver::ALL_DRIVERS {
            if other == D::FastpathPruned {
                continue;
            }
            assert_eq!(
                contract_for(D::FastpathPruned, other),
                Contract::UlpBounded(FASTPATH_BOUND),
                "vs {other:?}"
            );
        }
        assert!(D::FastpathPruned.is_fastpath());
    }

    #[test]
    fn within_handles_zero_and_nan() {
        assert!(within(1e-9, 1e-6, 0.0, 0.0));
        assert!(within(1e-9, 1e-6, 1.0, 1.0 + 1e-7));
        assert!(!within(1e-9, 1e-6, 1.0, 1.1));
        assert!(!within(1e-9, 1e-6, f64::NAN, 1.0));
        assert!(!within(1e-9, 1e-6, f64::NAN, f64::NAN));
    }
}
