//! Order statistics for latency samples and run-to-run spreads.

/// The percentiles a tail is reported at, highest first.
const LADDER: [f64; 8] = [99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0];

/// Samples a percentile must leave beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// The highest percentile on the ladder with at least [`MIN_BEYOND`]
/// samples beyond it, for `n` samples — or an error when even the median
/// does not qualify.
pub fn highest_qualifying(n: usize) -> Result<f64, String> {
    if n == 0 {
        return Err("no samples".into());
    }
    LADDER
        .iter()
        .copied()
        .find(|p| beyond(n, *p) >= MIN_BEYOND)
        .ok_or_else(|| {
            format!(
                "{n} samples: no percentile has {MIN_BEYOND} samples beyond it (need at least {})",
                2 * MIN_BEYOND
            )
        })
}

/// Samples strictly above the nearest-rank `p`th percentile of `n`.
fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// Nearest-rank position (1-based) of the `p`th percentile of `n` samples,
/// in integer arithmetic on tenths of a percent so that ranks land
/// exactly (`99.9 / 100 * 10_000` is not 9990 in floating point).
fn rank(n: usize, p: f64) -> usize {
    let tenths = (p * 10.0).round() as usize;
    (tenths * n).div_ceil(1000).clamp(1, n)
}

/// The nearest-rank `p`th percentile of `samples` (need not be sorted).
/// Always one of the samples, so it carries the clock's full resolution.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), p) - 1]
}

/// Quartiles `(q1, median, q3)` exactly as Python's
/// `statistics.quantiles(values, n=4)` computes them (the default
/// `exclusive` method), so spreads read the same here and in any script
/// that checks them. A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of no values");
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    if ld == 1 {
        return (data[0], data[0], data[0]);
    }
    let n = 4i64;
    let m = ld as i64 + 1;
    let q = |i: i64| {
        let j = (i * m / n).clamp(1, ld as i64 - 1);
        // Negative when the clamp pulled `j` up: Python extrapolates too.
        let delta = (i * m - j * n) as f64;
        let j = j as usize;
        (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64
    };
    (q(1), q(2), q(3))
}

/// `(q3 - q1) / median`: the spread a bound is compared against.
pub fn iqr_share(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn highest_percentile_leaves_ten_samples_beyond() {
        // 20 samples: the median leaves 10 beyond, p75 only 5.
        assert_eq!(highest_qualifying(20), Ok(50.0));
        assert_eq!(highest_qualifying(39), Ok(50.0));
        assert_eq!(highest_qualifying(40), Ok(75.0));
        assert_eq!(highest_qualifying(100), Ok(90.0));
        assert_eq!(highest_qualifying(200), Ok(95.0));
        assert_eq!(highest_qualifying(500), Ok(98.0));
        assert_eq!(highest_qualifying(1000), Ok(99.0));
        assert_eq!(highest_qualifying(10_000), Ok(99.9));
        for n in [20usize, 57, 133, 999, 4000] {
            let p = highest_qualifying(n).unwrap();
            assert!(beyond(n, p) >= MIN_BEYOND, "n={n} p={p}");
        }
    }

    #[test]
    fn too_few_samples_is_an_error() {
        assert!(highest_qualifying(0).is_err());
        assert!(highest_qualifying(19).is_err());
    }

    #[test]
    fn nearest_rank_percentile_is_a_sample() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.9), 100.0);
        assert_eq!(percentile(&[7.5], 50.0), 7.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0, 2.0, 4.0]), (1.5, 3.0, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert!((iqr_share(&v) - 5.5 / 5.5).abs() < 1e-12);
    }
}
