//! Order statistics for the ledger's timings.

/// The median of `xs` (mean of the middle pair for even lengths); 0 for
/// an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First and third quartile, computed like Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method), so
/// the spreads the ledger prints match the ones its consumers compute.
/// Fewer than two samples give `(x, x)` or `(0, 0)`.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let s = sorted(xs);
    match s.len() {
        0 => (0.0, 0.0),
        1 => (s[0], s[0]),
        n => {
            let m = (n + 1) as f64;
            let cut = |i: f64| {
                let pos = i * m / 4.0;
                let j = (pos.floor() as usize).clamp(1, n - 1);
                let delta = pos - j as f64;
                s[j - 1] + (s[j] - s[j - 1]) * delta
            };
            (cut(1.0), cut(3.0))
        }
    }
}

/// Median absolute deviation from the median.
pub fn mad(xs: &[f64]) -> f64 {
    let m = median(xs);
    let dev: Vec<f64> = xs.iter().map(|x| (x - m).abs()).collect();
    median(&dev)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_lengths() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), (1.25, 3.75));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: with
        // two samples the exclusive method extrapolates.
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }

    #[test]
    fn mad_ignores_one_outlier() {
        assert_eq!(mad(&[1.0, 2.0, 3.0, 4.0, 100.0]), 1.0);
    }
}
