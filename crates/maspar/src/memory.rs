//! PE memory accounting and template-mapping segmentation (§4.3).
//!
//! "One of the bottlenecks while designing the parallel implementation
//! was the memory constraint of 64 KB per PE. ... even storing just two
//! floating point numbers for each precomputed template mapping for a
//! relatively small search area of 23 x 23 and with 16 pixel elements
//! stored per PE would still require 67.7 KB per PE which exceeds the
//! available 1.0 GB of data memory. So the total space required to store
//! the precomputed template mappings will need to be segmented or
//! chunked. ... the key observation is that the template mapping data can
//! be segmented by hypothesis or search area. The data chunks or segments
//! are in multiples of rows of the search or hypothesis neighborhood with
//! each row containing (2Nzs + 1) template mappings."
//!
//! [`MemoryBudget`] reproduces that accounting: the footprint of the
//! resident per-pixel state, the segmented template-mapping store
//! (`Z` hypothesis rows at a time), and the working buffers, against the
//! 64 KB (configurable) PE memory.

/// Bytes of PE data memory on the Goddard MP-2 ("configured with 64 KB
/// per PE for an aggregate total of one gigabyte").
pub const GODDARD_PE_MEMORY_BYTES: usize = 64 * 1024;

/// Bytes per single-precision float (the implementation's storage type).
const F32: usize = 4;

/// The PE memory budget of one SMA run.
#[derive(Debug, Clone, Copy)]
pub struct MemoryBudget {
    /// Pixels per PE along x (`xvr`).
    pub xvr: usize,
    /// Pixels per PE along y (`yvr`).
    pub yvr: usize,
    /// Hypothesis / z-search half-width `Nzs`.
    pub nzs: usize,
    /// Semi-fluid template half-width `NsT` (= surface-patch `Nz` in the
    /// implementation: "we have chosen the same size for the fluid-
    /// template and surface-patch neighborhood i.e. Nz = NsT").
    pub nst: usize,
    /// Semi-fluid search half-width `Nss`.
    pub nss: usize,
    /// Available PE memory in bytes.
    pub pe_memory_bytes: usize,
}

impl MemoryBudget {
    /// Memory layers per PE.
    pub fn layers(&self) -> usize {
        self.xvr * self.yvr
    }

    /// Bytes of *resident* per-pixel state: the paper's parallel driver
    /// keeps, per tracked pixel, the two intensity images, two surface
    /// maps, and the per-pixel geometric variables of both frames
    /// (normal components, E, G, gradient, discriminant — 15 planes in
    /// the paper's count: `15 x xvr x yvr x 4` bytes is the leading term
    /// of the §4.3 expression).
    pub fn resident_state_bytes(&self) -> usize {
        15 * self.layers() * F32
    }

    /// Bytes to store the precomputed template mappings for `z_rows`
    /// hypothesis rows: each row holds `(2 Nzs + 1)` mappings, each
    /// mapping needs just two floats per tracked pixel — "the
    /// minimization of (3) can be shown to be a function of only
    /// `(n_i'^2 + n_j'^2)` and `n_k'`".
    pub fn template_mapping_bytes(&self, z_rows: usize) -> usize {
        2 * F32 * z_rows * (2 * self.nzs + 1) * self.layers()
    }

    /// Bytes for the unsegmented store (`Z = 2 Nzs + 1`, all hypothesis
    /// rows at once — the configuration Table 2 was measured with).
    pub fn unsegmented_template_bytes(&self) -> usize {
        self.template_mapping_bytes(2 * self.nzs + 1)
    }

    /// Working-buffer bytes: the larger of (a) the semi-fluid scratch —
    /// the extended error plane over `(2 NsT + 1 + 2 Nss)^2` pixels of
    /// double-width accumulators plus the `(2 Nss + 1)^2` minimization
    /// window, or (b) the per-row error accumulation of the hypothesis
    /// matching: one error term per tracked pixel per hypothesis in the
    /// current row (`xvr * yvr * (2 Nzs + 1)` floats).
    pub fn working_buffer_bytes(&self) -> usize {
        let semi_fluid =
            8 * (2 * self.nst + 1 + 2 * self.nss).pow(2) + 4 * (2 * self.nss + 1).pow(2);
        let row_errors = F32 * self.layers() * (2 * self.nzs + 1);
        semi_fluid.max(row_errors)
    }

    /// Fixed runtime overhead the paper's expression carries (+288
    /// bytes): ACU-broadcast constants, loop state, stack.
    pub const FIXED_OVERHEAD_BYTES: usize = 288;

    /// Total PE bytes required when the template store holds `z_rows`
    /// hypothesis rows.
    pub fn total_bytes(&self, z_rows: usize) -> usize {
        self.resident_state_bytes()
            + self.template_mapping_bytes(z_rows)
            + self.working_buffer_bytes()
            + Self::FIXED_OVERHEAD_BYTES
    }

    /// The largest segment size `Z` (hypothesis rows per chunk) that fits
    /// the PE memory, or `None` if even `Z = 1` does not fit.
    pub fn max_segment_rows(&self) -> Option<usize> {
        let full = 2 * self.nzs + 1;
        (1..=full)
            .rev()
            .find(|&z| self.total_bytes(z) <= self.pe_memory_bytes)
    }

    /// Number of segments (chunks) the hypothesis area must be processed
    /// in: `ceil((2 Nzs + 1) / Z)`. `None` if the configuration cannot
    /// run at all.
    pub fn num_segments(&self) -> Option<usize> {
        self.max_segment_rows()
            .map(|z| (2 * self.nzs + 1).div_ceil(z))
    }

    /// Whether the unsegmented run (Table 2's `Z = 2 Nzs + 1`) fits.
    pub fn unsegmented_fits(&self) -> bool {
        self.total_bytes(2 * self.nzs + 1) <= self.pe_memory_bytes
    }

    // --- Streaming sequence-cache accounting ---------------------------
    //
    // A sequence run keeps *derived frame artifacts* (quarantined
    // planes, validity masks, geometry fields, discriminants) alive
    // across adjacent pairs so frame t is prepared once, not twice. That cache competes for the
    // same machine memory the §4.3 model budgets per PE: whatever a PE
    // does not need for its resident state, segmented template store and
    // working buffers is slack, and the aggregate slack across the PE
    // array is the machine-wide headroom the cross-pair cache may occupy.

    /// PEs of the Goddard MP-2 ("16,384 processing elements").
    pub const GODDARD_NUM_PES: usize = 16 * 1024;

    /// Per-PE bytes left over once the segmented run is resident: PE
    /// memory minus [`MemoryBudget::total_bytes`] at the largest segment
    /// that fits. Zero if the configuration cannot run at all.
    pub fn pe_slack_bytes(&self) -> usize {
        self.max_segment_rows()
            .map(|z| self.pe_memory_bytes - self.total_bytes(z))
            .unwrap_or(0)
    }

    /// Byte budget for the streaming artifact cache: the §4.3 per-PE
    /// accounting extended across the machine — aggregate slack over
    /// `n_pes` PEs. The cache's resident high-water must stay at or
    /// under this bound.
    pub fn stream_cache_bytes(&self, n_pes: usize) -> usize {
        self.pe_slack_bytes() * n_pes
    }

    /// How many cached frames of `frame_bytes` each the streaming cache
    /// budget admits on an `n_pes` machine (floor; zero when a single
    /// frame exceeds the budget).
    pub fn stream_cache_frames(&self, n_pes: usize, frame_bytes: usize) -> usize {
        if frame_bytes == 0 {
            return 0;
        }
        self.stream_cache_bytes(n_pes) / frame_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's §4.3 example: a 23 x 23 search area with 16 pixels per
    /// PE needs 67.7 KB just for the template mappings — over the 64 KB
    /// budget.
    #[test]
    fn paper_23x23_example_exceeds_64kb() {
        let b = MemoryBudget {
            xvr: 4,
            yvr: 4,
            nzs: 11, // 2*11 + 1 = 23
            nst: 2,
            nss: 1,
            pe_memory_bytes: GODDARD_PE_MEMORY_BYTES,
        };
        let bytes = b.unsegmented_template_bytes();
        // 2 floats x 4 bytes x 23^2 x 16 = 67712 bytes = 67.7 KB.
        assert_eq!(bytes, 67_712);
        assert!(bytes > GODDARD_PE_MEMORY_BYTES);
        assert!(!b.unsegmented_fits());
        // Segmentation rescues it.
        let z = b.max_segment_rows().expect("segmented run must fit");
        assert!((1..23).contains(&z));
        assert!(b.total_bytes(z) <= GODDARD_PE_MEMORY_BYTES);
    }

    /// Table 2's Frederic run was *not* segmented: "The template mapping
    /// data was not segmented during this run i.e. Z = 2Nzs + 1" with
    /// Nzs = 6 (13 x 13 search).
    #[test]
    fn frederic_unsegmented_fits() {
        let b = MemoryBudget {
            xvr: 4,
            yvr: 4,
            nzs: 6,
            nst: 2,
            nss: 1,
            pe_memory_bytes: GODDARD_PE_MEMORY_BYTES,
        };
        // 2 x 4 x 13^2 x 16 = 21632 bytes for mappings; well under 64 KB.
        assert_eq!(b.unsegmented_template_bytes(), 21_632);
        assert!(b.unsegmented_fits(), "total {} bytes", b.total_bytes(13));
        assert_eq!(b.num_segments(), Some(1));
    }

    #[test]
    fn paper_segment_definition_two_rows() {
        // "Defining each segment as 2 rows of the (2Nzs+1) x (2Nzs+1)
        // pixel hypothesis neighborhood": check 2-row chunks fit the
        // 23 x 23 case.
        let b = MemoryBudget {
            xvr: 4,
            yvr: 4,
            nzs: 11,
            nst: 2,
            nss: 1,
            pe_memory_bytes: GODDARD_PE_MEMORY_BYTES,
        };
        assert!(b.total_bytes(2) <= GODDARD_PE_MEMORY_BYTES);
        // 2-row segments -> ceil(23/2) = 12 chunks.
        assert_eq!((2 * b.nzs + 1).div_ceil(2), 12);
    }

    #[test]
    fn totals_are_monotonic_in_rows() {
        let b = MemoryBudget {
            xvr: 4,
            yvr: 4,
            nzs: 6,
            nst: 2,
            nss: 1,
            pe_memory_bytes: GODDARD_PE_MEMORY_BYTES,
        };
        let mut prev = 0;
        for z in 1..=13 {
            let t = b.total_bytes(z);
            assert!(t > prev);
            prev = t;
        }
    }

    #[test]
    fn impossible_budget_returns_none() {
        let b = MemoryBudget {
            xvr: 8,
            yvr: 8,
            nzs: 30,
            nst: 2,
            nss: 1,
            pe_memory_bytes: 4 * 1024, // 4 KB toy budget
        };
        assert_eq!(b.max_segment_rows(), None);
        assert_eq!(b.num_segments(), None);
    }

    #[test]
    fn more_layers_need_more_segments() {
        let mk = |xvr: usize| MemoryBudget {
            xvr,
            yvr: xvr,
            nzs: 11,
            nst: 2,
            nss: 1,
            pe_memory_bytes: GODDARD_PE_MEMORY_BYTES,
        };
        let s4 = mk(2).num_segments().unwrap(); // 4 layers
        let s16 = mk(4).num_segments().unwrap(); // 16 layers
        assert!(s16 >= s4);
    }

    #[test]
    fn stream_cache_budget_is_aggregate_slack() {
        let b = MemoryBudget {
            xvr: 4,
            yvr: 4,
            nzs: 6,
            nst: 2,
            nss: 1,
            pe_memory_bytes: GODDARD_PE_MEMORY_BYTES,
        };
        let z = b.max_segment_rows().unwrap();
        let slack = GODDARD_PE_MEMORY_BYTES - b.total_bytes(z);
        assert_eq!(b.pe_slack_bytes(), slack);
        assert_eq!(
            b.stream_cache_bytes(MemoryBudget::GODDARD_NUM_PES),
            slack * MemoryBudget::GODDARD_NUM_PES
        );
        // Frederic-size frames comfortably fit the aggregate slack.
        let frame = 512 * 512 * 4 * 3;
        assert!(b.stream_cache_frames(MemoryBudget::GODDARD_NUM_PES, frame) >= 2);
        assert_eq!(b.stream_cache_frames(MemoryBudget::GODDARD_NUM_PES, 0), 0);
    }

    #[test]
    fn impossible_config_has_zero_stream_budget() {
        let b = MemoryBudget {
            xvr: 8,
            yvr: 8,
            nzs: 30,
            nst: 2,
            nss: 1,
            pe_memory_bytes: 4 * 1024,
        };
        assert_eq!(b.pe_slack_bytes(), 0);
        assert_eq!(b.stream_cache_bytes(MemoryBudget::GODDARD_NUM_PES), 0);
        assert_eq!(
            b.stream_cache_frames(MemoryBudget::GODDARD_NUM_PES, 1024),
            0
        );
    }

    #[test]
    fn working_buffer_covers_both_uses() {
        let b = MemoryBudget {
            xvr: 4,
            yvr: 4,
            nzs: 6,
            nst: 2,
            nss: 1,
            pe_memory_bytes: GODDARD_PE_MEMORY_BYTES,
        };
        // Semi-fluid scratch for NsT=2, Nss=1: 8*(5+2)^2 + 4*3^2 = 428.
        // Row errors: 4*16*13 = 832 -> working buffer = 832.
        assert_eq!(b.working_buffer_bytes(), 832);
    }
}
