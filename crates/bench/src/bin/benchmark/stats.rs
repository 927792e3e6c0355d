//! Order statistics shared by the workloads and `compare`, and the
//! latency histogram of a measured window.

/// The nearest-rank `p`-th percentile of `sorted` (ascending); 0 when
/// empty.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sub-buckets per power of two in a [`Histogram`].
const SUB: u64 = 64;

/// A histogram of nanosecond latencies with [`SUB`] buckets per power of
/// two, so a percentile is within 1/64 of the exact one. Its size is
/// fixed whatever the throughput, so `peak_rss_mb` measures the program
/// rather than the number of samples.
#[derive(Debug)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            counts: vec![0; Histogram::bucket(u64::MAX) + 1],
            total: 0,
        }
    }
}

impl Histogram {
    /// The bucket of `v`: exact below [`SUB`], then `SUB` equal buckets
    /// per power of two.
    fn bucket(v: u64) -> usize {
        if v < SUB {
            return v as usize;
        }
        let shift = 63 - v.leading_zeros() - SUB.trailing_zeros();
        ((shift as u64 + 1) * SUB + ((v >> shift) - SUB)) as usize
    }

    /// The lowest value of bucket `i` and the bucket's width.
    fn bounds(i: usize) -> (f64, f64) {
        let i = i as u64;
        if i < SUB {
            return (i as f64, 1.0);
        }
        let shift = i / SUB - 1;
        let width = (1u64 << shift) as f64;
        ((SUB + i % SUB) as f64 * width, width)
    }

    pub fn record(&mut self, v: u64) {
        self.counts[Histogram::bucket(v)] += 1;
        self.total += 1;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    /// The nearest-rank `p`-th percentile, placed within its bucket by
    /// rank; NaN when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.total == 0 {
            return f64::NAN;
        }
        let rank = ((p / 100.0) * self.total as f64).ceil().max(1.0) as u64;
        let mut below = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            if below + c >= rank {
                let (low, width) = Histogram::bounds(i);
                return low + width * ((rank - below) as f64 - 0.5) / c as f64;
            }
            below += c;
        }
        unreachable!("rank {rank} lies within {} samples", self.total)
    }
}

/// The median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles by the "exclusive" method, the default of
/// Python's `statistics.quantiles(values, n=4)`, so spreads printed
/// here match spreads computed from the same numbers there.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn histogram_percentiles_are_within_a_sixty_fourth() {
        let mut h = Histogram::default();
        let v: Vec<u64> = (1..=200_000u64).map(|i| i * i % 9_999_991).collect();
        for &x in &v {
            h.record(x);
        }
        let mut sorted = v.clone();
        sorted.sort_unstable();
        for p in [1.0, 25.0, 50.0, 90.0, 99.0, 100.0] {
            let exact = percentile(&sorted, p) as f64;
            let got = h.percentile(p);
            assert!(
                (got - exact).abs() <= exact / 64.0 + 1.0,
                "p{p}: {got} vs {exact}"
            );
        }
        assert_eq!(h.count(), 200_000);
        h.record(u64::MAX);
        assert!(h.percentile(100.0) > 9e18);
        assert!(Histogram::default().percentile(50.0).is_nan());
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 50.0), 500);
        assert_eq!(percentile(&v, 99.0), 990);
        assert_eq!(percentile(&[7], 99.0), 7);
        assert_eq!(percentile(&[], 50.0), 0);
    }
}
