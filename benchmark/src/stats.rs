//! Order statistics over timing samples. No first-party calls.

/// Median of `v` (mean of the two middle values for an even count).
/// Sorts in place; `NaN` for an empty slice.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_unstable_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median of integer samples (nanoseconds, counts).
pub fn median_u64(v: &mut [u64]) -> f64 {
    let mut f: Vec<f64> = v.iter().map(|&x| x as f64).collect();
    median(&mut f)
}

/// 1-based nearest rank of percentile `p` among `n ≥ 1` samples. The
/// epsilon keeps `1000 × 0.99` at rank 990 despite binary rounding.
fn rank(n: usize, p: f64) -> usize {
    ((n as f64 * p - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile `p` (0 < p ≤ 1) of an ascending slice.
pub fn percentile_sorted(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// The highest percentile the sample supports: the largest of
/// p50/p90/p99/p99.9/p99.99 that still has at least ten samples beyond
/// it. Returns `(p, value)`, or `None` below twenty samples (not even the
/// median has ten beyond it).
pub fn tail_sorted(sorted: &[u64]) -> Option<(f64, u64)> {
    const LADDER: [f64; 5] = [0.5, 0.9, 0.99, 0.999, 0.9999];
    let n = sorted.len();
    LADDER.iter().rev().find(|&&p| n >= rank(n, p) + 10).map(|&p| (p, percentile_sorted(sorted, p)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&mut []).is_nan());
        assert_eq!(median_u64(&mut [9, 1, 5]), 5.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 0.5), 50);
        assert_eq!(percentile_sorted(&v, 0.99), 99);
        assert_eq!(percentile_sorted(&v, 1.0), 100);
        assert_eq!(percentile_sorted(&[], 0.5), 0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let upto = |n: u64| (1..=n).collect::<Vec<u64>>();
        // 19 samples: rank(p50) = 10, only 9 beyond.
        assert_eq!(tail_sorted(&upto(19)), None);
        // 20 samples: p50 has exactly ten beyond; p90 has two.
        assert_eq!(tail_sorted(&upto(20)), Some((0.5, 10)));
        // 100 samples: p90 leaves ten beyond, p99 leaves one.
        assert_eq!(tail_sorted(&upto(100)), Some((0.9, 90)));
        // 1000 samples: p99 leaves exactly ten beyond.
        assert_eq!(tail_sorted(&upto(1000)), Some((0.99, 990)));
        assert_eq!(tail_sorted(&upto(999)), Some((0.9, 900)));
        // 100 000 samples: p99.99 leaves exactly ten beyond.
        assert_eq!(tail_sorted(&upto(100_000)), Some((0.9999, 99_990)));
    }
}
