//! Relaxation labeling of the motion field (§6: "improving the accuracy
//! of the estimated motion field by using ... relaxation labeling").
//!
//! Classic probabilistic relaxation over discrete displacement labels:
//! each pixel holds a probability distribution over the `(2Nzs+1)^2`
//! hypothesis displacements, initialized from the SMA errors
//! (`p ~ exp(-err / T)`), then iteratively updated by neighborhood
//! support — a label gains probability when neighbors assign high
//! probability to *compatible* (similar) displacements. Smooth regions
//! converge to coherent labels while genuine motion boundaries survive
//! (compatibility decays with displacement difference rather than
//! forbidding it).

use sma_grid::{FlowField, Grid, Vec2};

/// Parameters of the relaxation process.
#[derive(Debug, Clone, Copy)]
pub struct RelaxationParams {
    /// Softmax temperature converting errors to initial probabilities
    /// (relative to the per-pixel minimum error).
    pub temperature: f64,
    /// Compatibility length scale in pixels: support decays as
    /// `exp(-|d_i - d_j|^2 / scale^2)`.
    pub compatibility_scale: f64,
    /// Update rounds (3–8 typical).
    pub iterations: usize,
}

impl Default for RelaxationParams {
    fn default() -> Self {
        Self {
            temperature: 1.0,
            compatibility_scale: 1.5,
            iterations: 5,
        }
    }
}

/// Per-pixel label set: the candidate displacements with their errors.
#[derive(Debug, Clone)]
pub struct LabelSet {
    /// Candidate displacements (same order at every pixel).
    pub labels: Vec<Vec2>,
    /// Per-pixel error of each label, `errors[pixel_index][label_index]`;
    /// `f64::INFINITY` marks unsolvable hypotheses.
    pub errors: Grid<Vec<f64>>,
}

impl LabelSet {
    /// Initial probabilities from errors: `exp(-(err - min) / T)`,
    /// normalized; pixels with no finite error get a uniform
    /// distribution.
    fn initial_probabilities(&self, temperature: f64) -> Grid<Vec<f64>> {
        self.errors.map(|errs| {
            let min = errs.iter().copied().fold(f64::INFINITY, f64::min);
            if !min.is_finite() {
                return vec![1.0 / errs.len() as f64; errs.len()];
            }
            let mut p: Vec<f64> = errs
                .iter()
                .map(|&e| (-(e - min) / temperature).exp())
                .collect();
            let s: f64 = p.iter().sum();
            for v in &mut p {
                *v /= s;
            }
            p
        })
    }
}

/// Run probabilistic relaxation and return the refined flow (each pixel's
/// maximum-probability label after the final round).
pub fn relax_labels(set: &LabelSet, params: RelaxationParams) -> FlowField {
    let (w, h) = set.errors.dims();
    let nl = set.labels.len();
    // Precompute pairwise label compatibilities.
    let mut compat = vec![0.0f64; nl * nl];
    for i in 0..nl {
        for j in 0..nl {
            let d = set.labels[i] - set.labels[j];
            let r2 = (d.magnitude() as f64).powi(2);
            compat[i * nl + j] =
                (-r2 / (params.compatibility_scale * params.compatibility_scale)).exp();
        }
    }

    let mut p = set.initial_probabilities(params.temperature);
    for _ in 0..params.iterations {
        let next = Grid::from_fn(w, h, |x, y| {
            // Neighborhood support for each label.
            let mut support = vec![0.0f64; nl];
            let mut neighbors = 0usize;
            for dy in -1isize..=1 {
                for dx in -1isize..=1 {
                    if dx == 0 && dy == 0 {
                        continue;
                    }
                    let sx = x as isize + dx;
                    let sy = y as isize + dy;
                    if sx < 0 || sy < 0 || sx as usize >= w || sy as usize >= h {
                        continue;
                    }
                    neighbors += 1;
                    let q = p.get(sx as usize, sy as usize).expect("in range");
                    for (i, s) in support.iter_mut().enumerate() {
                        let mut acc = 0.0;
                        for (j, &qj) in q.iter().enumerate() {
                            acc += compat[i * nl + j] * qj;
                        }
                        *s += acc;
                    }
                }
            }
            let cur = p.get(x, y).expect("in range");
            if neighbors == 0 {
                return cur.clone();
            }
            // Standard relaxation update: p_i <- p_i * s_i / sum.
            let mut updated: Vec<f64> = cur
                .iter()
                .zip(support.iter())
                .map(|(&pi, &si)| pi * (si / neighbors as f64))
                .collect();
            let total: f64 = updated.iter().sum();
            if total > 0.0 {
                for v in &mut updated {
                    *v /= total;
                }
            }
            updated
        });
        p = next;
    }

    FlowField::from_fn(w, h, |x, y| {
        let probs = p.get(x, y).expect("in range");
        let best = probs
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap_or(0);
        set.labels[best]
    })
}

/// Build a [`LabelSet`] by evaluating every hypothesis at every pixel of
/// a region (the dense error volume the SMA search computes anyway).
///
/// # Errors
/// [`sma_fault::GridError::EmptyRegion`] if the region is empty for the
/// frame size.
pub fn label_set_from_frames(
    frames: &crate::motion::SmaFrames,
    cfg: &crate::config::SmaConfig,
    region: crate::sequential::Region,
) -> Result<LabelSet, sma_fault::SmaError> {
    let (w, h) = frames.dims();
    let bounds = region.bounds_checked(w, h)?;
    let ns = cfg.nzs as isize;
    let labels: Vec<Vec2> = (-ns..=ns)
        .flat_map(|oy| (-ns..=ns).map(move |ox| Vec2::new(ox as f32, oy as f32)))
        .collect();
    let rows: Vec<Vec<Vec<f64>>> = (0..h)
        .map(|y| {
            (0..w)
                .map(|x| {
                    if !bounds.contains(x, y) {
                        return vec![f64::INFINITY; labels.len()];
                    }
                    labels
                        .iter()
                        .map(|l| {
                            crate::motion::evaluate_hypothesis(
                                frames,
                                cfg,
                                x,
                                y,
                                l.u as isize,
                                l.v as isize,
                            )
                            .map(|(_, e)| e)
                            .unwrap_or(f64::INFINITY)
                        })
                        .collect()
                })
                .collect()
        })
        .collect();
    Ok(LabelSet {
        labels,
        errors: Grid::from_vec(w, h, rows.into_iter().flatten().collect()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic label set: labels {(0,0), (1,0)}, with errors favoring
    /// (1, 0) everywhere except a few noisy pixels that prefer (0, 0).
    fn noisy_set(w: usize, h: usize, noisy: &[(usize, usize)]) -> LabelSet {
        let labels = vec![Vec2::ZERO, Vec2::new(1.0, 0.0)];
        let errors = Grid::from_fn(w, h, |x, y| {
            if noisy.contains(&(x, y)) {
                vec![0.1, 2.0] // prefers the wrong label, weakly
            } else {
                vec![2.0, 0.1]
            }
        });
        LabelSet { labels, errors }
    }

    #[test]
    fn relaxation_flips_isolated_outliers() {
        let set = noisy_set(9, 9, &[(4, 4)]);
        // The outlier's prior odds are exp(1.9) ~ 6.7:1 and each round
        // multiplies the odds by the ~1.4:1 neighborhood support ratio,
        // so ~8 rounds flip it.
        let params = RelaxationParams {
            iterations: 10,
            ..RelaxationParams::default()
        };
        let flow = relax_labels(&set, params);
        assert_eq!(
            flow.at(4, 4),
            Vec2::new(1.0, 0.0),
            "outlier must join its neighborhood"
        );
        assert_eq!(flow.at(1, 1), Vec2::new(1.0, 0.0));
    }

    #[test]
    fn relaxation_preserves_coherent_regions() {
        // Left half prefers (0,0), right half (1,0): a genuine motion
        // boundary, not noise — relaxation must keep both regions.
        let labels = vec![Vec2::ZERO, Vec2::new(1.0, 0.0)];
        let errors = Grid::from_fn(12, 12, |x, _| {
            if x < 6 {
                vec![0.1, 2.0]
            } else {
                vec![2.0, 0.1]
            }
        });
        let set = LabelSet { labels, errors };
        let flow = relax_labels(&set, RelaxationParams::default());
        assert_eq!(flow.at(2, 6), Vec2::ZERO);
        assert_eq!(flow.at(9, 6), Vec2::new(1.0, 0.0));
    }

    #[test]
    fn unsolvable_pixels_inherit_neighborhood() {
        let labels = vec![Vec2::ZERO, Vec2::new(1.0, 0.0)];
        let errors = Grid::from_fn(7, 7, |x, y| {
            if (x, y) == (3, 3) {
                vec![f64::INFINITY, f64::INFINITY]
            } else {
                vec![2.0, 0.1]
            }
        });
        let set = LabelSet { labels, errors };
        let flow = relax_labels(&set, RelaxationParams::default());
        assert_eq!(flow.at(3, 3), Vec2::new(1.0, 0.0));
    }

    #[test]
    fn end_to_end_on_translated_scene() {
        use crate::config::MotionModel;
        use crate::motion::SmaFrames;
        use crate::sequential::Region;
        use sma_grid::warp::translate;
        use sma_grid::BorderPolicy;

        let cfg = crate::config::SmaConfig::small_test(MotionModel::Continuous);
        let before = Grid::from_fn(26, 26, |x, y| {
            let (xf, yf) = (x as f32, y as f32);
            (xf * 0.45).sin() * 2.0 + (yf * 0.35).cos() * 1.5 + (xf * 0.12 + yf * 0.21).sin() * 3.0
        });
        let after = translate(&before, -1.0, 0.0, BorderPolicy::Clamp);
        let frames = SmaFrames::prepare(&before, &after, &before, &after, &cfg).expect("prepare");
        let region = Region::Interior { margin: 10 };
        let set = label_set_from_frames(&frames, &cfg, region).expect("label set");
        let flow = relax_labels(&set, RelaxationParams::default());
        // Interior pixels settle on the true label (1, 0).
        for y in 11..15 {
            for x in 11..15 {
                assert_eq!(flow.at(x, y), Vec2::new(1.0, 0.0), "at ({x},{y})");
            }
        }
    }

    #[test]
    fn probabilities_stay_normalized() {
        let set = noisy_set(6, 6, &[]);
        let p = set.initial_probabilities(1.0);
        for (_, probs) in p.enumerate() {
            let s: f64 = probs.iter().sum();
            assert!((s - 1.0).abs() < 1e-12);
        }
    }
}
