//! Order statistics over per-rep samples.

/// First quartile, median and third quartile of `xs`, computed exactly as
/// Python's `statistics.quantiles(xs, n=4)` (its default "exclusive"
/// method), so the numbers printed here match the ones a reader recomputes
/// from the committed run files.
///
/// # Panics
/// Panics on an empty sample or a NaN.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    assert!(!xs.is_empty(), "quartiles of an empty sample");
    let mut d = xs.to_vec();
    d.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
    let ld = d.len();
    if ld == 1 {
        return [d[0]; 3];
    }
    let (n, m) = (4i64, ld as i64 + 1);
    let mut out = [0.0; 3];
    for (i, q) in (1..n).zip(out.iter_mut()) {
        let j = (i * m / n).clamp(1, ld as i64 - 1);
        // Negative or past-`n` deltas extrapolate, as Python does for
        // samples too small to bracket a quartile.
        let delta = (i * m - j * n) as f64;
        let (lo, hi) = (d[j as usize - 1], d[j as usize]);
        *q = (lo * (n as f64 - delta) + hi * delta) / n as f64;
    }
    out
}

/// The median of `xs` (the middle quartile).
pub fn median(xs: &[f64]) -> f64 {
    quartiles(xs)[1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([4, 1, 3, 2, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0, 5.0]), [1.5, 3.0, 4.5]);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), [7.5, 15.0, 22.5]);
        // statistics.quantiles([1, 2, 3, 4, 100, 7], n=4) == [1.75, 3.5, 30.25]
        assert_eq!(
            quartiles(&[1.0, 2.0, 3.0, 4.0, 100.0, 7.0]),
            [1.75, 3.5, 30.25]
        );
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }
}
