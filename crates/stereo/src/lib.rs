//! # sma-stereo
//!
//! The Automatic Stereo Analysis (ASA) substrate.
//!
//! Paper §2.1: "We have used an existing correlation-based Automatic
//! Stereo Analysis (ASA) algorithm ... the multiresolution, hierarchical
//! and coarse-to-fine based searching for identifying stereo
//! correspondences. In the multiresolution approach the ASA uses the
//! coarse disparity estimates to warp or transform one view into the
//! other thereby successively estimating smaller disparities at finer
//! resolutions of the hierarchy. ... image matching is done at several
//! different resolutions, typically four levels to produce the final
//! dense disparity or depth maps."
//!
//! Pipeline:
//!
//! 1. build Gaussian pyramids of both rectified views ([`sma_grid::pyramid`]);
//! 2. at the coarsest level, run a full correlation search along scan
//!    lines ([`ncc`]);
//! 3. at each finer level, upsample and double the disparity estimate,
//!    warp the right view by it, and search a small residual range;
//! 4. convert the final dense disparity to cloud-top heights using the
//!    satellite viewing geometry ([`geometry`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asa;
pub mod coupled;
pub mod geometry;
pub mod hierarchical;
pub mod ncc;
pub mod ncc_pruned;

pub use asa::{Asa, AsaConfig};
pub use geometry::SatelliteGeometry;
pub use hierarchical::match_hierarchical;
pub use ncc::{best_disparity, ncc_score};
pub use ncc_pruned::best_disparity_pruned;
