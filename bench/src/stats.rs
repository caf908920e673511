//! Order statistics the harness reports: medians, the tail percentile a
//! sample can support, per-block values, and the quartile spread the
//! repeatability check uses.

/// Percentile grid a tail is chosen from, in hundredths of a percent so
/// the "samples beyond" count is exact integer arithmetic.
const TAIL_GRID: [u64; 6] = [5_000, 9_000, 9_500, 9_900, 9_990, 9_999];

/// Samples that must lie beyond a percentile for it to be reported.
const MIN_BEYOND: u64 = 10;

/// Median of `values` (mean of the two middle values for even counts).
/// Panics on an empty slice — callers only pass measured samples.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0..=100) of an ascending-sorted slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest percentile of [`TAIL_GRID`] that still has at least ten of
/// `n` samples beyond it; 50 when the sample supports nothing higher.
pub fn tail_percentile(n: usize) -> f64 {
    let best = TAIL_GRID
        .iter()
        .copied()
        .filter(|p| n as u64 * (10_000 - p) >= MIN_BEYOND * 10_000)
        .max()
        .unwrap_or(TAIL_GRID[0]);
    best as f64 / 100.0
}

/// One value per block: the slowest rank's busy seconds for that block
/// divided by the calls in a block, in microseconds. Blocks some rank
/// never finished (an abandoned repetition) are dropped.
pub fn block_call_us(per_rank_block_secs: &[Vec<f64>], calls_per_block: usize) -> Vec<f64> {
    let blocks = per_rank_block_secs.iter().map(Vec::len).min().unwrap_or(0);
    (0..blocks)
        .map(|b| {
            let slowest = per_rank_block_secs.iter().map(|r| r[b]).fold(0.0, f64::max);
            slowest * 1e6 / calls_per_block as f64
        })
        .collect()
}

/// First, second and third quartile as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// gives them — the driver's spread is computed this way.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Interquartile distance as a share of the median.
pub fn iqr_share(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // Fewer than 20 samples: nothing above the median has 10 beyond.
        assert_eq!(tail_percentile(12), 50.0);
        assert_eq!(tail_percentile(19), 50.0);
        // 100 samples: p90 has exactly 10 beyond, p95 only 5.
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(199), 90.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(1_000), 99.0);
        assert_eq!(tail_percentile(10_000), 99.9);
        assert_eq!(tail_percentile(1_000_000), 99.99);
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50.0);
        assert_eq!(percentile_sorted(&v, 90.0), 90.0);
        assert_eq!(percentile_sorted(&v, 100.0), 100.0);
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
    }

    #[test]
    fn block_value_is_slowest_rank_per_call() {
        // Rank 1 is slower on block 0, rank 0 on block 1; rank 1 never
        // finished block 2, so it is dropped.
        let per_rank = vec![vec![0.010, 0.030, 0.010], vec![0.020, 0.010]];
        let blocks = block_call_us(&per_rank, 10);
        assert_eq!(blocks.len(), 2);
        assert!((blocks[0] - 2_000.0).abs() < 1e-9);
        assert!((blocks[1] - 3_000.0).abs() < 1e-9);
        assert_eq!(median(&blocks), 2_500.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([2, 4, 4, 5, 7, 9, 10], n=4) == [4, 5, 9]
        assert_eq!(
            quartiles(&[2.0, 4.0, 4.0, 5.0, 7.0, 9.0, 10.0]),
            [4.0, 5.0, 9.0]
        );
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
    }
}
