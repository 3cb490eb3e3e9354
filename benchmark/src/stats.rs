//! Order statistics the harness reports.

/// Median of `v` (mean of the middle two for an even count). Sorts in place.
pub fn median(v: &mut [f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile of an ascending slice: the smallest sample with at
/// least `q` of the samples at or below it.
pub fn quantile<T: Copy>(sorted: &[T], q: f64) -> T {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// (max - min) / median: the run-to-run spread printed next to each median.
pub fn rel_range(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    let med = median(&mut s);
    if med == 0.0 {
        return 0.0;
    }
    (s[s.len() - 1] - s[0]) / med
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_known_vectors() {
        assert_eq!(median(&mut [3.0]), 3.0);
        assert_eq!(median(&mut [5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.5), 50);
        assert_eq!(quantile(&v, 0.99), 99);
        assert_eq!(quantile(&v, 1.0), 100);
        assert_eq!(quantile(&v, 0.0), 1);
        assert_eq!(quantile(&[7u32, 9], 0.5), 7);
        assert_eq!(quantile(&[7u32, 9], 0.51), 9);
    }

    #[test]
    fn rel_range_of_known_vector() {
        assert_eq!(rel_range(&[90.0, 100.0, 110.0]), 0.2);
        assert_eq!(rel_range(&[0.0, 0.0]), 0.0);
    }
}
