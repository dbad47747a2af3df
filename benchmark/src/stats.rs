//! Order statistics: latency percentiles, medians and quartiles.

/// Fewest samples that must lie strictly beyond a reported tail percentile.
/// A percentile with fewer samples past it is one outlier, not a tail.
pub const MIN_BEYOND: usize = 10;

/// A tail percentile with the sample count behind it.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Tail {
    /// The percentile's value.
    pub value: f64,
    /// Samples in the set.
    pub samples: usize,
    /// Samples strictly above the percentile's rank.
    pub beyond: usize,
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `samples`.
///
/// Refuses (returns `Err`) when fewer than [`MIN_BEYOND`] samples lie past
/// the percentile's rank: p99 needs at least 1000 samples.
pub fn percentile(samples: &[f64], p: f64) -> Result<Tail, String> {
    let n = samples.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    let beyond = n.saturating_sub(rank);
    if n == 0 || rank == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "p{p} of {n} samples has {beyond} beyond it; at least {MIN_BEYOND} are needed"
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(Tail {
        value: sorted[rank - 1],
        samples: n,
        beyond,
    })
}

/// Median (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartiles, computed as Python's
/// `statistics.quantiles(values, n=4)` does (the "exclusive" method), so a
/// spread read here matches one read by any script over the same runs.
/// A single value is its own quartiles.
///
/// # Panics
/// Panics on an empty slice.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    if len == 1 {
        return (v[0], v[0]);
    }
    let n = 4usize;
    let m = len + 1;
    let q = |i: usize| {
        let j = (i * m / n).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
    };
    (q(1), q(3))
}

/// Interquartile distance as a share of the median (0 when the median is 0).
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let med = median(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_refuses_fewer_than_ten_beyond() {
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert!(
            percentile(&v, 99.0).is_err(),
            "999 samples leave 9 beyond p99"
        );
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = percentile(&v, 99.0).expect("1000 samples leave 10 beyond");
        assert_eq!((t.value, t.samples, t.beyond), (990.0, 1000, 10));
    }

    #[test]
    fn nearest_rank_median_and_unsorted_input() {
        let v: Vec<f64> = (0..100).rev().map(f64::from).collect();
        let t = percentile(&v, 50.0).unwrap();
        assert_eq!((t.value, t.beyond), (49.0, 50));
        assert!(percentile(&[], 50.0).is_err());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
    }
}
