//! Multi-resolution image pyramids.
//!
//! The ASA stereo substrate is "multiresolution, hierarchical and
//! coarse-to-fine" (paper §2.1): matching starts at a coarse level where
//! disparities are small and reliable, then each finer level refines the
//! up-projected estimate. The paper uses "typically four levels".
//!
//! [`Pyramid::build`] smooths with the 5-tap binomial kernel and decimates
//! by 2 per level (Burt–Adelson Gaussian pyramid).

use crate::border::BorderPolicy;
use crate::grid::Grid;
use crate::warp::sample_bilinear;

static PYRAMID_BUILDS: sma_obs::Counter = sma_obs::Counter::new("grid.pyramid.builds");
static PYRAMID_LEVELS: sma_obs::Counter = sma_obs::Counter::new("grid.pyramid.levels");
/// Bytes of pyramid levels allocated by construction (the copied level
/// 0 plus every decimated level).
static PYRAMID_BYTES_OWNED: sma_obs::Counter = sma_obs::Counter::new("grid.pyramid.bytes_owned");

/// A Gaussian image pyramid; `levels[0]` is full resolution.
#[derive(Debug, Clone)]
pub struct Pyramid {
    levels: Vec<Grid<f32>>,
}

impl Pyramid {
    /// Build an `n_levels` pyramid over `img`. Level `k` has dimensions
    /// `ceil(w / 2^k) x ceil(h / 2^k)`. Construction stops early if a level
    /// would fall below 2 pixels on either axis, so the result may have
    /// fewer than `n_levels` levels. Level 0 is a copy of `img`.
    ///
    /// # Panics
    /// Panics if `n_levels == 0` or the image is empty.
    pub fn build(img: &Grid<f32>, n_levels: usize) -> Self {
        assert!(n_levels > 0, "pyramid needs at least one level");
        assert!(!img.is_empty(), "pyramid of empty image");
        let _span = sma_obs::span("pyramid_build");
        PYRAMID_BYTES_OWNED.add((img.len() * std::mem::size_of::<f32>()) as u64);
        let mut levels = vec![img.clone()];
        while levels.len() < n_levels {
            let prev = &levels[levels.len() - 1];
            if prev.width() < 4 || prev.height() < 4 {
                break;
            }
            let next = downsample(prev);
            PYRAMID_BYTES_OWNED.add((next.len() * std::mem::size_of::<f32>()) as u64);
            levels.push(next);
        }
        PYRAMID_BUILDS.incr();
        PYRAMID_LEVELS.add(levels.len() as u64);
        Self { levels }
    }

    /// Number of levels actually built.
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// Level `k` (0 = finest).
    ///
    /// # Panics
    /// Panics if `k` is out of range.
    pub fn level(&self, k: usize) -> &Grid<f32> {
        &self.levels[k]
    }

    /// Iterate from coarsest to finest — the order coarse-to-fine search
    /// visits levels.
    pub fn coarse_to_fine(&self) -> impl Iterator<Item = (usize, &Grid<f32>)> {
        self.levels.iter().enumerate().rev()
    }
}

/// Smooth-and-decimate by 2: output dims `ceil(w/2) x ceil(h/2)`, taking
/// every even-indexed pixel of the binomially smoothed image.
///
/// Runs [`crate::simd::downsample_fused`], which skips the odd
/// columns/rows the decimation would discard and is bit-identical to
/// smoothing with `binomial_smooth(img, Reflect)` and then sampling.
pub fn downsample(img: &Grid<f32>) -> Grid<f32> {
    crate::simd::downsample_fused(img)
}

/// Bilinear upsampling to an explicit target size. Values are sampled at
/// the source coordinates `x * (sw / tw)` so that upsampling a decimated
/// grid approximately inverts [`downsample`]'s index mapping.
pub fn upsample_to(img: &Grid<f32>, tw: usize, th: usize) -> Grid<f32> {
    assert!(tw > 0 && th > 0, "upsample to empty target");
    let sx = img.width() as f32 / tw as f32;
    let sy = img.height() as f32 / th as f32;
    Grid::from_fn(tw, th, |x, y| {
        sample_bilinear(img, x as f32 * sx, y as f32 * sy, BorderPolicy::Clamp)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(w: usize, h: usize) -> Grid<f32> {
        Grid::from_fn(w, h, |x, y| x as f32 + 2.0 * y as f32)
    }

    #[test]
    fn four_levels_of_512_like_paper() {
        // The paper's ASA uses typically four resolution levels on 512x512.
        let img = ramp(64, 64); // scaled-down stand-in
        let p = Pyramid::build(&img, 4);
        assert_eq!(p.num_levels(), 4);
        assert_eq!(p.level(0).dims(), (64, 64));
        assert_eq!(p.level(1).dims(), (32, 32));
        assert_eq!(p.level(2).dims(), (16, 16));
        assert_eq!(p.level(3).dims(), (8, 8));
    }

    #[test]
    fn odd_dimensions_round_up() {
        let img = ramp(9, 5);
        let p = Pyramid::build(&img, 2);
        assert_eq!(p.level(1).dims(), (5, 3));
    }

    #[test]
    fn stops_before_degenerate_levels() {
        let img = ramp(8, 8);
        let p = Pyramid::build(&img, 10);
        // 8 -> 4 -> 2, and 2 < 4 stops further decimation.
        assert_eq!(p.num_levels(), 3);
    }

    #[test]
    fn coarse_to_fine_order() {
        let img = ramp(32, 32);
        let p = Pyramid::build(&img, 3);
        let order: Vec<usize> = p.coarse_to_fine().map(|(k, _)| k).collect();
        assert_eq!(order, vec![2, 1, 0]);
    }

    #[test]
    fn downsample_preserves_constant() {
        let img = Grid::filled(16, 16, 7.0f32);
        let d = downsample(&img);
        for &v in d.iter() {
            assert!((v - 7.0).abs() < 1e-5);
        }
    }

    #[test]
    fn downsample_approximately_preserves_ramp() {
        // A linear ramp decimated by 2 should sample the smoothed ramp at
        // even indices: value ~ 2x (slope doubles in index space).
        let img = Grid::from_fn(32, 32, |x, _| x as f32);
        let d = downsample(&img);
        for y in 1..d.height() - 1 {
            for x in 1..d.width() - 1 {
                assert!((d.at(x, y) - 2.0 * x as f32).abs() < 0.5);
            }
        }
    }

    #[test]
    fn upsample_inverts_downsample_for_smooth_data() {
        let img = Grid::from_fn(32, 32, |x, y| {
            (x as f32 * 0.2).sin() + (y as f32 * 0.15).cos()
        });
        let d = downsample(&img);
        let u = upsample_to(&d, 32, 32);
        // Smooth content round-trips within a modest tolerance.
        assert!(img.rms_diff(&u) < 0.08, "rms {}", img.rms_diff(&u));
    }

    #[test]
    #[should_panic(expected = "at least one level")]
    fn zero_levels_rejected() {
        let _ = Pyramid::build(&ramp(8, 8), 0);
    }
}
