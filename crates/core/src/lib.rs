//! # sma-core
//!
//! The Semi-fluid Motion Analysis (SMA) algorithm of Palaniappan,
//! Kambhamettu, Hasler & Goldgof, as parallelized in the IPPS 1996 paper.
//!
//! ## The algorithm (paper §2.2–2.3)
//!
//! For every pixel `(x, y)` of frame `t`, search a
//! `(2 Nzs + 1)^2` *hypothesis neighborhood* in frame `t+1`. For each
//! hypothesis `(x^, y^)`:
//!
//! * **Step 1 — select template mapping.** Every pixel of the
//!   `(2 NzT + 1)^2` *z-template* around `(x, y)` is put in
//!   correspondence with frame `t+1`: under the **continuous** model
//!   `Fcont` (eq. 2) by pure translation with the hypothesis; under the
//!   **semi-fluid** model `Fsemi` (eq. 9) each template pixel
//!   independently refines its correspondence within a small
//!   `(2 Nss + 1)^2` search by matching the *discriminant* of locally
//!   fitted quadratic intensity patches (eqs. 10–11) — relaxing local
//!   continuity so patches may fragment, which is what tracks fluid
//!   cloud deformation and multi-layer decks.
//! * **Step 2 — compute motion parameters.** The local affine
//!   transformation (eq. 6) with six parameters
//!   `{a_i, b_i, a_j, b_j, a_k, b_k}` is fitted by minimizing the
//!   surface-normal behaviour error (eqs. 3–5) — a linear least-squares
//!   problem solved by 6 x 6 Gaussian elimination.
//!
//! The hypothesis with the smallest minimized error wins; its
//! displacement plus affine parameters are the non-rigid motion estimate
//! at `(x, y)`.
//!
//! ## Drivers
//!
//! Each driver is the reference, reproduces the paper, or is the
//! production path:
//!
//! * [`sequential`] — the reference implementation ("a sequential
//!   (un-optimized) version ... was used to form a baseline for comparing
//!   the correctness of the parallel algorithm results");
//! * [`maspar_driver`] — execution against the `maspar-sim` machine
//!   (folded data, read-out neighborhood fetching, cost ledger): the
//!   paper's parallel algorithm, result-identical to [`sequential`];
//! * [`precompute`] — §4.1's shared template-mapping precomputation with
//!   the extended-window sliding minimization, and §4.3's segmentation
//!   by hypothesis rows;
//! * [`fastpath`] — O(1)-per-hypothesis matching: the normal equations
//!   factor into moment planes whose summed-area tables answer every
//!   tracked pixel's template sums in four corner lookups per moment
//!   (the scalar moment-identity reference);
//! * [`pruned`] — the production matcher: one seed-first sweep over
//!   the hypothesis offsets that rejects candidates by an admissible
//!   coarse decimated-lattice lower bound on the hypothesis error,
//!   building each offset's plane at most once, into one resident
//!   buffer, only where a candidate survives; below its cutover it runs
//!   a plain raster sweep — bit-identical to [`fastpath`] either way;
//! * [`simd`] — the pruned driver's kernels, built on the
//!   [`sma_grid::simd`] 8-wide lane kernels: the 6×6 factorization
//!   amortized per pixel and one resident, cell-interleaved 8-channel
//!   offset plane;
//! * [`timing`] — the calibrated workload/rate model that regenerates
//!   the paper's Tables 2 and 4, Fig. 4 and the speed-up headlines;
//! * [`plan`] — the production entry point,
//!   [`plan::track_all_planner_with`], which calls [`pruned`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod affine;
pub mod analysis;
pub mod cancel;
pub mod config;
pub mod ext;
pub mod fastpath;
pub mod maspar_driver;
pub mod motion;
pub mod plan;
pub mod precompute;
pub mod pruned;
pub mod sequential;
pub mod simd;
pub mod template_map;
pub mod timing;

pub use affine::LocalAffine;
pub use config::{MotionModel, SmaConfig};
pub use fastpath::{track_all_integral, track_all_translation_only};
pub use motion::{FrameArtifacts, MotionEstimate, SmaFrames};
pub use plan::{track_all_planner_with, PlannerKnobs};
pub use pruned::track_all_pruned;
pub use sequential::track_all_sequential;
pub use sma_fault::{GridError, LedgerSnapshot, MasParError, SmaError, StereoError};
