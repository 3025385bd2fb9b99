//! Input-pixel quarantine and validity masks.
//!
//! Operational satellite imagery arrives with dropouts: dead scan
//! lines, saturated detectors, transmission gaps. Upstream of the SMA
//! pipeline these appear as NaN/Inf pixels, and a single non-finite
//! value poisons every window sum it touches. [`quarantine`] repairs a
//! plane — each non-finite pixel is replaced by the mean of its finite
//! 8-neighbors (or 0 when fully surrounded by bad pixels) — and returns
//! a [`ValidityMask`] recording which pixels were repaired so
//! downstream consumers can discount them.
//!
//! On a clean plane [`quarantine`] touches nothing and returns the
//! input unchanged — zero-fault runs stay bit-identical.

use crate::grid::Grid;

/// Count of non-finite pixels repaired across all quarantine passes.
static QUARANTINED: sma_obs::Counter = sma_obs::Counter::new("grid.validity.quarantined");

/// A per-pixel validity bitmap paired with a plane of the same shape.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidityMask {
    mask: Grid<bool>,
}

impl ValidityMask {
    /// An all-valid mask of the given shape.
    pub fn all_valid(width: usize, height: usize) -> Self {
        Self {
            mask: Grid::filled(width, height, true),
        }
    }

    /// Mask dimensions `(width, height)`.
    pub fn dims(&self) -> (usize, usize) {
        self.mask.dims()
    }

    /// Whether the pixel at `(x, y)` held finite data.
    #[inline]
    pub fn is_valid(&self, x: usize, y: usize) -> bool {
        self.mask.at(x, y)
    }

    /// Mark `(x, y)` invalid.
    pub fn invalidate(&mut self, x: usize, y: usize) {
        self.mask.set(x, y, false);
    }

    /// Number of invalid pixels.
    pub fn count_invalid(&self) -> usize {
        self.mask.iter().filter(|&&v| !v).count()
    }

    /// Fraction of valid pixels (1.0 for a clean plane).
    pub fn fraction_valid(&self) -> f64 {
        let (w, h) = self.mask.dims();
        if w * h == 0 {
            return 1.0;
        }
        1.0 - self.count_invalid() as f64 / (w * h) as f64
    }

    /// True when every pixel is valid.
    pub fn is_all_valid(&self) -> bool {
        self.mask.iter().all(|&v| v)
    }

    /// Merge with another mask of the same shape: a pixel is valid only
    /// if valid in both.
    ///
    /// # Panics
    /// Panics if the shapes differ.
    pub fn intersect(&self, other: &ValidityMask) -> ValidityMask {
        assert_eq!(self.dims(), other.dims(), "validity mask shape mismatch");
        let (w, h) = self.dims();
        ValidityMask {
            mask: Grid::from_fn(w, h, |x, y| self.mask.at(x, y) && other.mask.at(x, y)),
        }
    }
}

/// Repair non-finite pixels of `img`, returning the cleaned plane, the
/// validity mask, and the number of pixels quarantined. Clean inputs
/// return an unmodified clone and an all-valid mask.
pub fn quarantine(img: &Grid<f32>) -> (Grid<f32>, ValidityMask, u64) {
    let (w, h) = img.dims();
    let mut mask = ValidityMask::all_valid(w, h);
    let mut bad: Vec<(usize, usize)> = Vec::new();
    for y in 0..h {
        for x in 0..w {
            if !img.at(x, y).is_finite() {
                mask.invalidate(x, y);
                bad.push((x, y));
            }
        }
    }
    if bad.is_empty() {
        return (img.clone(), mask, 0);
    }
    // The telemetry atlas records *where* inputs were untrustworthy.
    sma_obs::atlas::mark_batch(sma_obs::atlas::AtlasChannel::Quarantine, &bad);

    // Repair from the original plane so the result is independent of
    // repair order; a bad pixel whose whole neighborhood is bad gets 0.
    let mut out = img.clone();
    for &(x, y) in &bad {
        let mut sum = 0.0f64;
        let mut count = 0u32;
        for dy in -1isize..=1 {
            for dx in -1isize..=1 {
                if (dx, dy) == (0, 0) {
                    continue;
                }
                let cx = x as isize + dx;
                let cy = y as isize + dy;
                if cx < 0 || cy < 0 || cx >= w as isize || cy >= h as isize {
                    continue;
                }
                let v = img.at(cx as usize, cy as usize);
                if v.is_finite() {
                    sum += v as f64;
                    count += 1;
                }
            }
        }
        let repaired = if count > 0 {
            (sum / count as f64) as f32
        } else {
            0.0
        };
        out.set(x, y, repaired);
    }
    QUARANTINED.add(bad.len() as u64);
    (out, mask, bad.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_plane_untouched() {
        let img = Grid::from_fn(8, 8, |x, y| (x * 3 + y) as f32);
        let (out, mask, n) = quarantine(&img);
        assert_eq!(n, 0);
        assert!(mask.is_all_valid());
        assert_eq!(mask.fraction_valid(), 1.0);
        for (a, b) in img.iter().zip(out.iter()) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "clean pixels must be bit-identical"
            );
        }
    }

    #[test]
    fn nan_and_inf_repaired_from_neighbors() {
        let mut img = Grid::filled(8, 8, 2.0f32);
        img.set(3, 3, f32::NAN);
        img.set(5, 5, f32::INFINITY);
        img.set(0, 0, f32::NEG_INFINITY);
        let (out, mask, n) = quarantine(&img);
        assert_eq!(n, 3);
        assert_eq!(mask.count_invalid(), 3);
        assert!(!mask.is_valid(3, 3));
        assert!(mask.is_valid(4, 4));
        for &v in out.iter() {
            assert!(v.is_finite());
        }
        assert_eq!(out.at(3, 3), 2.0, "mean of finite neighbors");
        assert_eq!(out.at(0, 0), 2.0, "corner repaired from 3 neighbors");
    }

    #[test]
    fn fully_bad_neighborhood_repairs_to_zero() {
        let img = Grid::filled(4, 4, f32::NAN);
        let (out, mask, n) = quarantine(&img);
        assert_eq!(n, 16);
        assert_eq!(mask.count_invalid(), 16);
        for &v in out.iter() {
            assert_eq!(v, 0.0);
        }
    }

    #[test]
    fn repair_is_order_independent() {
        // Two adjacent NaNs: each repairs from the *original* finite
        // neighbors only, not from each other's repaired value.
        let mut img = Grid::filled(6, 6, 4.0f32);
        img.set(2, 2, f32::NAN);
        img.set(3, 2, f32::NAN);
        let (out, _, _) = quarantine(&img);
        assert_eq!(out.at(2, 2), 4.0);
        assert_eq!(out.at(3, 2), 4.0);
    }

    #[test]
    fn intersect_combines() {
        let mut a = ValidityMask::all_valid(4, 4);
        let mut b = ValidityMask::all_valid(4, 4);
        a.invalidate(1, 1);
        b.invalidate(2, 2);
        let c = a.intersect(&b);
        assert!(!c.is_valid(1, 1));
        assert!(!c.is_valid(2, 2));
        assert!(c.is_valid(0, 0));
        assert_eq!(c.count_invalid(), 2);
    }
}
