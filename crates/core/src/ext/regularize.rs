//! Motion-field regularization and post-processing (§6: "relaxation
//! labeling or regularization, and post processing the motion field").
//!
//! Two classic, shape-preserving smoothers for dense flow fields:
//!
//! * [`vector_median_filter`] — each vector is replaced by the window
//!   member minimizing the summed L2 distance to all others (the vector
//!   median), which removes impulse outliers without averaging across
//!   motion boundaries;
//! * [`weighted_smooth`] — confidence-weighted local averaging (inverse
//!   hypothesis error as confidence), a one-shot Jacobi step of
//!   membrane regularization that respects untrackable pixels;
//! * [`fill_invalid`] — propagate estimates into untrackable (invalid)
//!   pixels from their valid neighbors, the usual post-pass before
//!   visualizing a dense field.

use sma_grid::{FlowField, Grid, Vec2};

/// Vector median filter over `(2n+1)^2` windows. Border windows clip.
pub fn vector_median_filter(flow: &FlowField, n: usize) -> FlowField {
    let (w, h) = flow.dims();
    let ni = n as isize;
    FlowField::from_fn(w, h, |x, y| {
        let mut members: Vec<Vec2> = Vec::with_capacity((2 * n + 1) * (2 * n + 1));
        for dy in -ni..=ni {
            for dx in -ni..=ni {
                let sx = x as isize + dx;
                let sy = y as isize + dy;
                if sx >= 0 && sy >= 0 && (sx as usize) < w && (sy as usize) < h {
                    members.push(flow.at(sx as usize, sy as usize));
                }
            }
        }
        // The vector median: member with least total distance to others.
        let mut best = members[0];
        let mut best_cost = f32::INFINITY;
        for &cand in &members {
            let cost: f32 = members.iter().map(|m| (cand - *m).magnitude()).sum();
            if cost < best_cost {
                best_cost = cost;
                best = cand;
            }
        }
        best
    })
}

/// Confidence-weighted smoothing: one relaxation step of
/// `v <- (1 - lambda) v + lambda * weighted-mean(neighbors)`, where each
/// neighbor's weight is its confidence. Pixels with zero confidence
/// contribute nothing; a pixel with no confident neighbors keeps its
/// value.
///
/// # Panics
/// Panics if shapes differ or `lambda` is outside `[0, 1]`.
pub fn weighted_smooth(flow: &FlowField, confidence: &Grid<f32>, lambda: f32) -> FlowField {
    assert_eq!(flow.dims(), confidence.dims(), "confidence shape mismatch");
    assert!((0.0..=1.0).contains(&lambda), "lambda must be in [0, 1]");
    let (w, h) = flow.dims();
    FlowField::from_fn(w, h, |x, y| {
        let mut sum = Vec2::ZERO;
        let mut wsum = 0.0f32;
        for dy in -1isize..=1 {
            for dx in -1isize..=1 {
                if dx == 0 && dy == 0 {
                    continue;
                }
                let sx = x as isize + dx;
                let sy = y as isize + dy;
                if sx >= 0 && sy >= 0 && (sx as usize) < w && (sy as usize) < h {
                    let c = confidence.at(sx as usize, sy as usize);
                    sum = sum + flow.at(sx as usize, sy as usize) * c;
                    wsum += c;
                }
            }
        }
        let v = flow.at(x, y);
        if wsum <= 0.0 {
            v
        } else {
            let mean = sum * (1.0 / wsum);
            v * (1.0 - lambda) + mean * lambda
        }
    })
}

/// Confidence plane from per-pixel hypothesis errors: `1 / (1 + err)`
/// for valid pixels, 0 for invalid ones.
pub fn confidence_from_errors(errors: &Grid<f64>, valid: &Grid<bool>) -> Grid<f32> {
    errors.zip_map(
        valid,
        |&e, &ok| if ok { (1.0 / (1.0 + e)) as f32 } else { 0.0 },
    )
}

/// Fill invalid pixels by iterated neighborhood averaging of valid ones
/// (`passes` rounds; each round marks filled pixels valid). Isolated
/// invalid islands fill from their rims inward.
pub fn fill_invalid(
    flow: &FlowField,
    valid: &Grid<bool>,
    passes: usize,
) -> (FlowField, Grid<bool>) {
    assert_eq!(flow.dims(), valid.dims(), "validity shape mismatch");
    let mut f = flow.clone();
    let mut ok = valid.clone();
    // Double-buffered relaxation: the back buffers are allocated once
    // and refreshed from the fronts each pass (a memcpy, no per-pass
    // clone), written only at newly-filled pixels, then swapped in.
    let mut next_f = flow.clone();
    let mut next_ok = valid.clone();
    for _ in 0..passes {
        next_f.copy_from(&f);
        next_ok.as_mut_slice().copy_from_slice(ok.as_slice());
        let changed = fill_pass(&f, &ok, &mut next_f, &mut next_ok);
        std::mem::swap(&mut f, &mut next_f);
        std::mem::swap(&mut ok, &mut next_ok);
        if !changed {
            break;
        }
    }
    (f, ok)
}

/// One relaxation pass of [`fill_invalid`]: a plain loop, because its
/// lane-chunked form measured slower (DESIGN.md §12).
fn fill_pass(
    f: &FlowField,
    ok: &Grid<bool>,
    next_f: &mut FlowField,
    next_ok: &mut Grid<bool>,
) -> bool {
    let (w, h) = f.dims();
    let mut changed = false;
    for y in 0..h {
        for x in 0..w {
            if ok.at(x, y) {
                continue;
            }
            let mut sum = Vec2::ZERO;
            let mut n = 0u32;
            for dy in -1isize..=1 {
                for dx in -1isize..=1 {
                    let sx = x as isize + dx;
                    let sy = y as isize + dy;
                    if sx >= 0
                        && sy >= 0
                        && (sx as usize) < w
                        && (sy as usize) < h
                        && ok.at(sx as usize, sy as usize)
                    {
                        sum = sum + f.at(sx as usize, sy as usize);
                        n += 1;
                    }
                }
            }
            if n > 0 {
                next_f.set(x, y, sum * (1.0 / n as f32));
                next_ok.set(x, y, true);
                changed = true;
            }
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_removes_impulse_outlier() {
        let mut flow = FlowField::uniform(9, 9, Vec2::new(1.0, 0.0));
        flow.set(4, 4, Vec2::new(-10.0, 10.0)); // impulse
        let out = vector_median_filter(&flow, 1);
        assert_eq!(out.at(4, 4), Vec2::new(1.0, 0.0));
        // And the uniform background is untouched.
        assert_eq!(out.at(1, 1), Vec2::new(1.0, 0.0));
    }

    #[test]
    fn median_preserves_motion_boundary() {
        // Two half-planes moving oppositely: the median must not blur
        // across the boundary (unlike a mean filter).
        let flow = FlowField::from_fn(10, 10, |x, _| {
            if x < 5 {
                Vec2::new(1.0, 0.0)
            } else {
                Vec2::new(-1.0, 0.0)
            }
        });
        let out = vector_median_filter(&flow, 1);
        for y in 0..10 {
            assert_eq!(out.at(3, y), Vec2::new(1.0, 0.0));
            assert_eq!(out.at(6, y), Vec2::new(-1.0, 0.0));
        }
    }

    #[test]
    fn smoothing_is_identity_at_lambda_zero() {
        let flow = FlowField::from_fn(6, 6, |x, y| Vec2::new(x as f32, y as f32));
        let conf = Grid::filled(6, 6, 1.0f32);
        let out = weighted_smooth(&flow, &conf, 0.0);
        for ((x, y), v) in out.enumerate() {
            assert_eq!(v, flow.at(x, y));
        }
    }

    #[test]
    fn smoothing_pulls_outlier_toward_neighbors() {
        let mut flow = FlowField::uniform(7, 7, Vec2::new(2.0, 0.0));
        flow.set(3, 3, Vec2::new(8.0, 0.0));
        let conf = Grid::filled(7, 7, 1.0f32);
        let out = weighted_smooth(&flow, &conf, 0.5);
        assert!(out.at(3, 3).u < 6.0);
        assert!(out.at(3, 3).u > 2.0);
    }

    #[test]
    fn zero_confidence_neighbors_are_ignored() {
        let flow = FlowField::from_fn(5, 5, |x, _| {
            if x == 2 {
                Vec2::new(1.0, 0.0)
            } else {
                Vec2::new(100.0, 0.0)
            }
        });
        let conf = Grid::from_fn(5, 5, |x, _| if x == 2 { 1.0f32 } else { 0.0 });
        let out = weighted_smooth(&flow, &conf, 1.0);
        // Pixel (2, 2)'s confident neighbors are only (2, 1) and (2, 3).
        assert_eq!(out.at(2, 2), Vec2::new(1.0, 0.0));
    }

    #[test]
    fn confidence_plane_formula() {
        let err = Grid::from_vec(2, 1, vec![0.0f64, 3.0]);
        let ok = Grid::from_vec(2, 1, vec![true, false]);
        let c = confidence_from_errors(&err, &ok);
        assert_eq!(c.at(0, 0), 1.0);
        assert_eq!(c.at(1, 0), 0.0);
    }

    #[test]
    fn fill_invalid_propagates_inward() {
        let flow = FlowField::from_fn(7, 7, |x, y| {
            if x == 3 && y == 3 {
                Vec2::ZERO
            } else {
                Vec2::new(1.0, 1.0)
            }
        });
        let valid = Grid::from_fn(7, 7, |x, y| !(x == 3 && y == 3));
        let (filled, ok) = fill_invalid(&flow, &valid, 2);
        assert!(ok.at(3, 3));
        assert!((filled.at(3, 3) - Vec2::new(1.0, 1.0)).magnitude() < 1e-6);
    }

    /// The pre-double-buffering `fill_invalid`: fresh clones every
    /// pass. Kept as the oracle for the buffer-swap rewrite.
    fn fill_invalid_reference(
        flow: &FlowField,
        valid: &Grid<bool>,
        passes: usize,
    ) -> (FlowField, Grid<bool>) {
        let (w, h) = flow.dims();
        let mut f = flow.clone();
        let mut ok = valid.clone();
        for _ in 0..passes {
            let mut next_f = f.clone();
            let mut next_ok = ok.clone();
            let mut changed = false;
            for y in 0..h {
                for x in 0..w {
                    if ok.at(x, y) {
                        continue;
                    }
                    let mut sum = Vec2::ZERO;
                    let mut n = 0u32;
                    for dy in -1isize..=1 {
                        for dx in -1isize..=1 {
                            let sx = x as isize + dx;
                            let sy = y as isize + dy;
                            if sx >= 0
                                && sy >= 0
                                && (sx as usize) < w
                                && (sy as usize) < h
                                && ok.at(sx as usize, sy as usize)
                            {
                                sum = sum + f.at(sx as usize, sy as usize);
                                n += 1;
                            }
                        }
                    }
                    if n > 0 {
                        next_f.set(x, y, sum * (1.0 / n as f32));
                        next_ok.set(x, y, true);
                        changed = true;
                    }
                }
            }
            f = next_f;
            ok = next_ok;
            if !changed {
                break;
            }
        }
        (f, ok)
    }

    #[test]
    fn fill_invalid_double_buffer_matches_clone_per_pass_reference() {
        // Irregular validity pattern with islands, rims, and a border
        // hole; every pass count from "no-op" through "converged".
        let flow = FlowField::from_fn(13, 11, |x, y| {
            Vec2::new((x as f32 * 0.7).sin() * 3.0, (y as f32 * 1.3).cos() * 2.0)
        });
        let valid = Grid::from_fn(13, 11, |x, y| (x * 7 + y * 5 + x * y) % 4 != 0);
        for passes in 0..=8 {
            let (fa, oa) = fill_invalid(&flow, &valid, passes);
            let (fb, ob) = fill_invalid_reference(&flow, &valid, passes);
            assert_eq!(fa, fb, "flow diverged at passes={passes}");
            assert_eq!(oa, ob, "validity diverged at passes={passes}");
        }
    }

    #[test]
    fn fill_invalid_converges_on_large_hole() {
        let flow = FlowField::from_fn(9, 9, |x, y| {
            if (2..7).contains(&x) && (2..7).contains(&y) {
                Vec2::ZERO
            } else {
                Vec2::new(2.0, 0.0)
            }
        });
        let valid = Grid::from_fn(9, 9, |x, y| !((2..7).contains(&x) && (2..7).contains(&y)));
        let (filled, ok) = fill_invalid(&flow, &valid, 10);
        for y in 0..9 {
            for x in 0..9 {
                assert!(ok.at(x, y), "unfilled at ({x},{y})");
                assert!((filled.at(x, y).u - 2.0).abs() < 1e-4);
            }
        }
    }
}
