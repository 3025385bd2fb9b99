//! # maspar-sim
//!
//! A simulator of the MasPar MP-2 massively parallel SIMD computer — the
//! hardware substrate of the paper (§3), reproduced in software so the
//! parallelization scheme (data mapping, X-net neighborhood fetching,
//! PE-memory segmentation) can be executed, verified and costed without
//! the 1996 machine.
//!
//! What the paper describes, and where it lives here:
//!
//! | Paper | Module |
//! |---|---|
//! | 16384 PEs in a 128 x 128 mesh under an Array Control Unit (Fig. 1) | [`mod@array`] |
//! | 8-way X-net mesh with toroidal wrap, 23 GB/s aggregate | [`xnet`] |
//! | 3-stage global router, 1.3 GB/s (18x slower than X-net) | [`router`] |
//! | 2-D hierarchical data mapping, eqs. (12)-(13), Fig. 2 | [`mapping`] |
//! | Snake read-out (Fig. 3) and raster-scan bounding-box read-out (§4.2) | [`readout`] |
//! | 64 KB/PE memory budget and the §4.3 segmentation formula | [`memory`] |
//! | Machine timing constants (§3.1) and the SGI sequential baseline | [`cost`] |
//! | ACU lockstep instruction programs with per-instruction costing | [`acu`] |
//! | RAID-3 8-way striped parallel disk arrays, 30 MB/s (§3.1) | [`mpda`] |
//! | The assembled machine facade | [`machine`] |
//!
//! The simulator executes *lockstep* plural operations over the PE array
//! (functionally exact, executed on the calling host thread) while a
//! [`cost::CostLedger`] charges every operation to the published MP-2
//! bandwidth/throughput figures. Timing tables (paper Tables 2 and 4) are
//! regenerated from the ledger, not from host wall-clock — the host is a
//! different machine; the ledger is the MP-2.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod acu;
pub mod array;
pub mod cost;
pub mod machine;
pub mod mapping;
pub mod memory;
pub mod mpda;
pub mod readout;
pub mod router;
pub mod xnet;

pub use array::{PeArray, PluralVar};
pub use cost::{CostLedger, Mp2CostModel, SgiCostModel};
pub use machine::{MachineConfig, MasPar};
pub use mapping::{DataMapping, FoldedImage, MappingKind};
pub use memory::MemoryBudget;
pub use xnet::Direction;
