//! Property equivalence: the grid crate's SIMD lane kernels against
//! their scalar references, over randomized shapes — in particular
//! widths that are not multiples of the 8-wide lane count, where the
//! scalar-tail handling must still be bit-identical.

use proptest::prelude::*;
use sma_grid::filter::binomial_smooth;
use sma_grid::simd;
use sma_grid::{BorderPolicy, Grid};

/// Deterministic pseudo-random f32 from a seed and position (full
/// dynamic range without flushing to zero, no RNG state needed).
fn val(seed: u64, i: usize) -> f32 {
    let mix = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(i as u64)
        .wrapping_mul(0xbf58_476d_1ce4_e5b9);
    ((mix >> 40) as f32 / 16_777_216.0 - 0.5) * 8.0
}

fn textured(w: usize, h: usize, seed: u64) -> Grid<f32> {
    Grid::from_fn(w, h, |x, y| val(seed, y * w + x))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The fused downsample (row/column convolution only at surviving
    /// even indices) is bit-identical to smooth-then-decimate.
    #[test]
    fn fused_downsample_matches_smooth_then_decimate(
        w in 1usize..40,
        h in 1usize..40,
        seed in 0u64..1000,
    ) {
        let img = textured(w, h, seed);
        let fused = simd::downsample_fused(&img);
        let sm = binomial_smooth(&img, BorderPolicy::Reflect);
        let (w2, h2) = (w.div_ceil(2), h.div_ceil(2));
        prop_assert_eq!(fused.dims(), (w2, h2));
        for y in 0..h2 {
            for x in 0..w2 {
                prop_assert_eq!(
                    fused.at(x, y).to_bits(),
                    sm.at(2 * x, 2 * y).to_bits(),
                    "({}, {})", x, y
                );
            }
        }
    }
}
