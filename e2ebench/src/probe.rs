//! The fixed host reference probe.
//!
//! The benchmark host is a shared 2-vCPU machine whose speed swings by
//! up to ~1.8x on a seconds scale. Every timed interval is bracketed by
//! this probe — run right before and right after it, never inside — and
//! reported as `interval * PROBE_NOMINAL_MS / mean(adjacent probes)`,
//! i.e. at a nominal host speed. The probe's work is fixed and its
//! buffers are allocated once: a 5-point Jacobi stencil over two
//! L2-resident f32 planes, a strided pass over a 16 MiB array, and f64
//! summed-area-table builds with 15 x 15 window sums (the arithmetic
//! shape of the moment path). The last part was added because, in an
//! interleaved study of both workloads on the 2-vCPU host, it tracked
//! their pass times best; see `README.md`. The probe is the benchmark's
//! own code, so a faster program never makes the probe faster.

use std::hint::black_box;
use std::time::Instant;

/// Nominal probe duration in milliseconds: the median probe time on the
/// reference host (Intel Xeon, 2 vCPUs, 4 MiB L2 per core). Normalized
/// times read as milliseconds or seconds at that host's speed.
pub const PROBE_NOMINAL_MS: f64 = 8.0;

/// Stencil plane edge: two 256 x 256 f32 planes (512 KiB) sit in L2.
const EDGE: usize = 256;
/// Jacobi sweeps per probe.
const SWEEPS: usize = 12;
/// Strided-pass array: 16 MiB of u64.
const BIG_WORDS: usize = (16 << 20) / 8;
/// One load per 64-byte cache line.
const STRIDE: usize = 8;
/// Strided passes per probe.
const PASSES: usize = 2;
/// Summed-area-table plane edge (f64, 128 KiB).
const SAT_EDGE: usize = 128;
/// Window half-width of the summed-area-table sums (15 x 15 windows).
const SAT_HALF: usize = 7;
/// Summed-area-table builds per probe.
const SAT_REPS: usize = 80;

/// The probe's buffers, allocated once.
pub struct Probe {
    init: Vec<f32>,
    a: Vec<f32>,
    b: Vec<f32>,
    big: Vec<u64>,
    plane: Vec<f64>,
    sat: Vec<f64>,
}

impl Default for Probe {
    fn default() -> Self {
        Self::new()
    }
}

impl Probe {
    /// Allocate and touch every buffer, so no probe pays first-touch
    /// page faults.
    pub fn new() -> Self {
        let init: Vec<f32> = (0..EDGE * EDGE)
            .map(|i| {
                let (x, y) = (i % EDGE, i / EDGE);
                if x == 0 || y == 0 || x == EDGE - 1 || y == EDGE - 1 {
                    1.0
                } else {
                    ((x * 7 + y * 13) % 17) as f32 / 17.0
                }
            })
            .collect();
        let big = (0..BIG_WORDS as u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9))
            .collect();
        let plane = (0..SAT_EDGE * SAT_EDGE)
            .map(|i| (i % 97) as f64 / 97.0)
            .collect();
        let mut probe = Self {
            a: init.clone(),
            b: init.clone(),
            init,
            big,
            plane,
            sat: vec![0.0; (SAT_EDGE + 1) * (SAT_EDGE + 1)],
        };
        probe.work();
        probe
    }

    /// Run the probe once; returns its wall time in milliseconds.
    pub fn measure(&mut self) -> f64 {
        let t = Instant::now();
        black_box(self.work());
        t.elapsed().as_secs_f64() * 1e3
    }

    /// The fixed work: identical inputs every call.
    fn work(&mut self) -> f64 {
        self.a.copy_from_slice(&self.init);
        self.b.copy_from_slice(&self.init);
        for _ in 0..SWEEPS {
            jacobi(&self.a, &mut self.b);
            std::mem::swap(&mut self.a, &mut self.b);
        }
        let mut sum = 0u64;
        for pass in 0..PASSES as u64 {
            for &w in self.big.iter().step_by(STRIDE) {
                sum = sum.wrapping_add(w ^ pass);
            }
        }
        let mut windows = 0.0;
        for rep in 0..SAT_REPS {
            windows += sat_windows(&self.plane, &mut self.sat, 1.0 + rep as f64 * 1e-3);
        }
        f64::from(self.a[EDGE * EDGE / 2 + EDGE / 2]) + black_box(sum) as f64 + windows
    }
}

/// Build the summed-area table of `plane * gain`, then sum every
/// interior 15 x 15 window through four corner lookups.
fn sat_windows(plane: &[f64], sat: &mut [f64], gain: f64) -> f64 {
    let n = SAT_EDGE;
    let w = n + 1;
    for y in 0..n {
        let mut row = 0.0;
        for x in 0..n {
            row += plane[y * n + x] * gain;
            sat[(y + 1) * w + x + 1] = sat[y * w + x + 1] + row;
        }
    }
    let side = 2 * SAT_HALF + 1;
    let mut acc = 0.0;
    for y in 0..=n - side {
        for x in 0..=n - side {
            acc += sat[(y + side) * w + x + side] - sat[y * w + x + side] - sat[(y + side) * w + x]
                + sat[y * w + x];
        }
    }
    acc
}

/// One 5-point Jacobi sweep of the interior of `src` into `dst`.
fn jacobi(src: &[f32], dst: &mut [f32]) {
    for y in 1..EDGE - 1 {
        let row = y * EDGE;
        for x in 1..EDGE - 1 {
            let i = row + x;
            dst[i] = 0.2 * (src[i] + src[i - 1] + src[i + 1] + src[i - EDGE] + src[i + EDGE]);
        }
    }
}

/// Scale factor from a raw interval to nominal host speed, given the
/// probes taken right before and right after it.
pub fn factor(before_ms: f64, after_ms: f64) -> f64 {
    PROBE_NOMINAL_MS / (0.5 * (before_ms + after_ms))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_is_deterministic_work() {
        let mut p = Probe::new();
        let a = p.work();
        let b = p.work();
        assert_eq!(a.to_bits(), b.to_bits());
        assert!(p.measure() > 0.0);
    }

    #[test]
    fn factor_scales_to_nominal() {
        assert!((factor(PROBE_NOMINAL_MS, PROBE_NOMINAL_MS) - 1.0).abs() < 1e-12);
        assert!((factor(2.0 * PROBE_NOMINAL_MS, 2.0 * PROBE_NOMINAL_MS) - 0.5).abs() < 1e-12);
    }
}
