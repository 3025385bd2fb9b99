//! # sma-grid
//!
//! Two-dimensional grid containers and image operations shared by every
//! layer of the Semi-Fluid Motion Analysis (SMA) reproduction.
//!
//! The paper (Palaniappan et al., IPPS 1996) operates on `M x N` arrays of
//! pixels: intensity images `I(x, y, t)`, surface (cloud-top height) maps
//! `z(x, y, t)` and dense motion fields. This crate provides:
//!
//! * [`Grid`] — a dense row-major 2-D container with checked and border-
//!   policy-aware access ([`BorderPolicy`]);
//! * [`window`] — centered square/rectangular neighborhood iteration, the
//!   `(2N+1) x (2N+1)` windows the paper's every step is phrased in;
//! * [`filter`] — separable convolution, Gaussian and binomial smoothing,
//!   central-difference gradients;
//! * [`integral`] — multi-channel summed-area tables for O(1) window
//!   sums (the SMA fast path's moment planes);
//! * [`prune`] — summed-area tables over 2 x 2 pixel bins and 3 x 3
//!   quadratic-minimum kernels backing the pruned-search driver's
//!   admissible candidate bounds;
//! * [`pyramid`] — the multi-resolution image pyramid used by the ASA
//!   stereo substrate's coarse-to-fine search;
//! * [`validity`] — NaN/Inf input quarantine with per-pixel validity
//!   masks (the fault-tolerance layer's input gate);
//! * [`warp`] — bilinear sampling and warping by disparity / flow, used to
//!   align stereo views and advect synthetic scenes;
//! * [`flow`] — dense motion ([`flow::FlowField`]) and sparse tracer
//!   representations plus comparison statistics (RMS endpoint error — the
//!   paper's accuracy metric against 32 manual wind barbs);
//! * [`io`] — PGM image and CSV plane output for visual inspection.
//!
//! Everything is `f32`-centric (the MP-2's fast path was single precision;
//! the paper quotes 6.3 GFlops single vs 2.4 GFlops double) but [`Grid`]
//! itself is generic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod border;
pub mod filter;
pub mod flow;
pub mod grid;
pub mod integral;
pub mod io;
pub mod prune;
pub mod pyramid;
pub mod simd;
pub mod validity;
pub mod warp;
pub mod window;

pub use border::BorderPolicy;
pub use flow::{FlowField, FlowStats, Vec2};
pub use grid::Grid;
pub use integral::MomentIntegral;
pub use validity::{quarantine, ValidityMask};
pub use window::{CenteredWindow, WindowBounds};

/// Convenience alias for the single-precision planes used throughout the
/// reproduction (intensity images, surface maps, per-pixel geometric
/// variable planes).
pub type Plane = Grid<f32>;
