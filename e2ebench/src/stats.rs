//! Order statistics over timing samples.

/// Sorted copy of `xs` (NaN-free input).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// First and third quartiles (inclusive linear interpolation).
fn quartiles(xs: &[f64]) -> (f64, f64) {
    let v = sorted(xs);
    let at = |q: f64| -> f64 {
        if v.is_empty() {
            return 0.0;
        }
        let pos = q * (v.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    };
    (at(0.25), at(0.75))
}

/// Interquartile range as a share of the median; 0 when the median is 0.
pub fn iqr_share(xs: &[f64]) -> f64 {
    let m = median(xs);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(xs);
    (q3 - q1) / m
}

/// Samples that must lie beyond a reported tail value.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile with at least [`TAIL_BEYOND`] samples beyond
/// it: the value at rank `n - TAIL_BEYOND - 1` of the sorted samples,
/// with its percentile `100 (n - TAIL_BEYOND) / n`. With too few samples
/// it falls back to the maximum (percentile 100).
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let v = sorted(xs);
    let n = v.len();
    if n == 0 {
        return (0.0, 0.0);
    }
    if n <= TAIL_BEYOND {
        return (v[n - 1], 100.0);
    }
    (
        v[n - TAIL_BEYOND - 1],
        100.0 * (n - TAIL_BEYOND) as f64 / n as f64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles() {
        let xs = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median(&xs), 3.0);
        assert_eq!(quartiles(&xs), (2.0, 4.0));
        assert_eq!(median(&[1.0, 2.0]), 1.5);
        assert!((iqr_share(&xs) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let (v, pct) = tail(&xs);
        assert_eq!(v, 90.0);
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), TAIL_BEYOND);
        assert_eq!(pct, 90.0);
        assert_eq!(tail(&[3.0, 1.0]), (3.0, 100.0));
    }
}
