//! Lane-chunked (8-wide) f32 kernels.
//!
//! The paper's target machine was a 16K-PE SIMD array; on a modern CPU
//! the analogue of the PE array is the vector lane. The kernels here are
//! written as explicit 8-wide chunks with a portable scalar tail — plain
//! stable Rust, no intrinsics, no new dependencies — so the compiler can
//! keep each lane independent and vectorize, while every kernel stays
//! **bit-identical** to its scalar reference: per-lane arithmetic is the
//! exact per-pixel expression of the scalar path, and any reduction
//! preserves the scalar accumulation order.
//!
//! A lane loop is kept only where it measured faster than the plain
//! loop it would replace; each call site runs one loop, and tests pin
//! that loop bit for bit to a plain scalar reference.

use crate::border::BorderPolicy;
use crate::filter::BINOMIAL_5;
use crate::grid::Grid;

/// Lane width of every chunked kernel.
pub const LANES: usize = 8;

/// 8-wide lane operations executed (one count per full chunk of
/// [`LANES`] elements handed to a kernel).
static LANES_USED: sma_obs::Counter = sma_obs::Counter::new("simd.lanes_used");
/// Elements processed by the portable scalar tails (row length mod 8).
static SCALAR_TAIL: sma_obs::Counter = sma_obs::Counter::new("simd.scalar_tail");

/// Record the lane/tail split of `rows` kernel rows of `len` elements
/// each, in one add per counter.
#[inline]
pub fn note_rows(rows: usize, len: usize) {
    LANES_USED.add((rows * (len / LANES)) as u64);
    SCALAR_TAIL.add((rows * (len % LANES)) as u64);
}

/// Fused smooth-and-decimate by 2 (the kernel behind
/// [`crate::pyramid::downsample`]), bit-identical to
/// `binomial_smooth(img, Reflect)` sampled at even pixels: the row
/// convolution is evaluated only at even columns (for every row), then
/// the column convolution only at even rows — half the row work and
/// three quarters of the column work of smoothing the whole image
/// first, before lane parallelism.
///
/// Per output pixel the five taps accumulate in kernel-index order into
/// an `acc` that starts at zero, exactly like `convolve_rows` /
/// `convolve_cols`; border taps resolve through the same
/// [`BorderPolicy::Reflect`] arithmetic. Identical inputs, identical
/// operation order — identical bits.
pub fn downsample_fused(img: &Grid<f32>) -> Grid<f32> {
    let (w, h) = img.dims();
    let w2 = w.div_ceil(2);
    let h2 = h.div_ceil(2);
    let reflect =
        |v: isize, n: usize| -> usize { BorderPolicy::Reflect.resolve_axis(v, n).unwrap_or(0) };

    // Row pass at even columns, every row: tmp[(x2, y)] = row-convolved
    // image at (2 * x2, y).
    let mut tmp = Grid::filled(w2, h, 0.0f32);
    // Interior output columns: all five taps of source column 2 * x2
    // in range.
    let lo = 1usize.min(w2);
    let hi = if w >= 3 { ((w - 3) / 2 + 1).min(w2) } else { 0 };
    for y in 0..h {
        let src = img.row(y);
        let dst = tmp.row_mut(y);
        for x2 in 0..lo.min(w2) {
            let mut acc = 0.0f32;
            for (i, &kv) in BINOMIAL_5.iter().enumerate() {
                acc += kv * src[reflect(2 * x2 as isize + i as isize - 2, w)];
            }
            dst[x2] = acc;
        }
        if hi > lo {
            note_rows(1, hi - lo);
            let mut x2 = lo;
            while x2 + LANES <= hi {
                let mut acc = [0.0f32; LANES];
                for (i, &kv) in BINOMIAL_5.iter().enumerate() {
                    let base = 2 * x2 + i - 2;
                    for l in 0..LANES {
                        acc[l] += kv * src[base + 2 * l];
                    }
                }
                dst[x2..x2 + LANES].copy_from_slice(&acc);
                x2 += LANES;
            }
            while x2 < hi {
                let mut acc = 0.0f32;
                let base = 2 * x2 - 2;
                for (i, &kv) in BINOMIAL_5.iter().enumerate() {
                    acc += kv * src[base + i];
                }
                dst[x2] = acc;
                x2 += 1;
            }
        }
        for x2 in hi.max(lo)..w2 {
            let mut acc = 0.0f32;
            for (i, &kv) in BINOMIAL_5.iter().enumerate() {
                acc += kv * src[reflect(2 * x2 as isize + i as isize - 2, w)];
            }
            dst[x2] = acc;
        }
    }

    // Column pass at even rows: out[(x2, y2)] = column-convolved tmp at
    // (x2, 2 * y2), reflecting row indices against the full height.
    let mut out = Grid::filled(w2, h2, 0.0f32);
    for y2 in 0..h2 {
        let yc = 2 * y2 as isize;
        let rows: [&[f32]; 5] = [
            tmp.row(reflect(yc - 2, h)),
            tmp.row(reflect(yc - 1, h)),
            tmp.row(reflect(yc, h)),
            tmp.row(reflect(yc + 1, h)),
            tmp.row(reflect(yc + 2, h)),
        ];
        let dst = out.row_mut(y2);
        note_rows(1, w2);
        let chunks = w2 / LANES;
        for c in 0..chunks {
            let o = c * LANES;
            let mut acc = [0.0f32; LANES];
            for (i, &kv) in BINOMIAL_5.iter().enumerate() {
                let r = rows[i];
                for l in 0..LANES {
                    acc[l] += kv * r[o + l];
                }
            }
            dst[o..o + LANES].copy_from_slice(&acc);
        }
        for x2 in chunks * LANES..w2 {
            let mut acc = 0.0f32;
            for (i, &kv) in BINOMIAL_5.iter().enumerate() {
                acc += kv * rows[i][x2];
            }
            dst[x2] = acc;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::binomial_smooth;

    #[test]
    fn fused_downsample_is_bit_identical_to_scalar_reference() {
        // Non-multiple-of-8 widths, odd dims, tiny grids: the fused path
        // must match smooth-then-decimate bit for bit everywhere.
        for (w, h) in [
            (1usize, 1usize),
            (2, 3),
            (5, 5),
            (9, 7),
            (16, 16),
            (33, 21),
            (40, 6),
        ] {
            let img = Grid::from_fn(w, h, |x, y| {
                ((x * 31 + y * 17) % 23) as f32 * 0.4 - 3.0 + (x as f32 * 0.3).sin()
            });
            let sm = binomial_smooth(&img, BorderPolicy::Reflect);
            let scalar = Grid::from_fn(w.div_ceil(2), h.div_ceil(2), |x, y| sm.at(2 * x, 2 * y));
            let fused = downsample_fused(&img);
            assert_eq!(fused.dims(), scalar.dims(), "{w}x{h}");
            for y in 0..scalar.height() {
                for x in 0..scalar.width() {
                    assert_eq!(
                        fused.at(x, y).to_bits(),
                        scalar.at(x, y).to_bits(),
                        "({x},{y}) of {w}x{h}: {} vs {}",
                        fused.at(x, y),
                        scalar.at(x, y)
                    );
                }
            }
        }
    }
}
