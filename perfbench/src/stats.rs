//! Quantiles that carry their sample count, and the median of a
//! `Sproutd` latency histogram read with sub-bucket resolution.

use sprout::LatencyHistogram;

/// A quantile is reported only when at least this many samples lie beyond
/// it: p99 needs 1,000 samples and p999 needs 10,000.
const MIN_BEYOND: f64 = 10.0;

/// One quantile of a sample, with the sample count it rests on.
#[derive(Debug, Clone, Copy)]
pub struct Quantile {
    pub q: f64,
    pub count: usize,
    /// `None` when fewer than ten samples lie beyond `q`.
    pub value: Option<f64>,
}

impl Quantile {
    fn new(q: f64, count: usize, value: impl FnOnce() -> f64) -> Self {
        let supported = count > 0 && count as f64 * (1.0 - q) >= MIN_BEYOND;
        Quantile {
            q,
            count,
            value: supported.then(value),
        }
    }

    /// `p50=0.1234 ms (n=16000)`, or `p999=suppressed (n=900)`.
    pub fn describe(&self, unit: &str) -> String {
        let percent = format!("{:.1}", self.q * 100.0);
        let label = format!("p{}", percent.trim_end_matches(".0").replace('.', ""));
        match self.value {
            Some(v) => format!("{label}={v:.4} {unit} (n={})", self.count),
            None => format!(
                "{label}=suppressed (n={}, needs >= {} samples beyond it)",
                self.count, MIN_BEYOND
            ),
        }
    }
}

/// Nearest-rank quantile of `samples` (sorted in place).
pub fn quantile(samples: &mut [f64], q: f64) -> Quantile {
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    Quantile::new(q, n, || {
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        samples[rank - 1]
    })
}

/// Median of a run's few repeated readings (mean of the middle two for an
/// even count).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The `q`-quantile of a `Sproutd` histogram in microseconds.
///
/// `LatencyHistogram::quantile_us` returns the floor of the bucket holding
/// the target rank, so on its own it moves in steps of up to 6.25%. This
/// locates the ranks that bucket holds (by probing `quantile_us` rank by
/// rank with binary search) and interpolates linearly inside it, the usual
/// reading of a quantile from a histogram.
pub fn histogram_quantile(h: &LatencyHistogram, q: f64) -> Quantile {
    let n = h.count();
    Quantile::new(q, n as usize, || {
        let at = |rank: u64| h.quantile_us((rank as f64 - 0.5) / n as f64);
        let target = ((q * n as f64).ceil() as u64).clamp(1, n);
        let floor = at(target);
        // First rank whose bucket floor is `floor`, then first rank past it.
        let first = partition(1, target, |r| at(r) >= floor);
        let past = partition(target, n + 1, |r| r > n || at(r) > floor);
        let width = bucket_width(floor as u64) as f64;
        let inside = (past - first) as f64;
        floor + width * ((target - first) as f64 + 0.5) / inside
    })
}

/// Smallest `r` in `[lo, hi]` with `pred(r)`, for a monotone `pred` that
/// holds at `hi`.
fn partition(mut lo: u64, mut hi: u64, pred: impl Fn(u64) -> bool) -> u64 {
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// Width of the histogram bucket whose floor is `floor_us`: 1 µs below
/// 16 µs, then 16 buckets per power of two.
fn bucket_width(floor_us: u64) -> u64 {
    if floor_us < 16 {
        1
    } else {
        1 << (63 - floor_us.leading_zeros() - 4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_need_ten_samples_beyond_them() {
        let mut v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert!(quantile(&mut v, 0.99).value.is_none());
        v.push(1000.0);
        assert_eq!(quantile(&mut v, 0.99).value, Some(990.0));
        assert!(quantile(&mut v, 0.999).value.is_none());
        assert_eq!(quantile(&mut v, 0.5).value, Some(500.0));
    }

    #[test]
    fn histogram_median_lands_inside_its_bucket() {
        let mut h = LatencyHistogram::new();
        for v in 100..=300u64 {
            h.record(v);
        }
        let p50 = histogram_quantile(&h, 0.5).value.unwrap();
        assert!((190.0..=210.0).contains(&p50), "p50 = {p50}");
        let mut one = LatencyHistogram::new();
        for _ in 0..40 {
            one.record(20);
        }
        let p50 = histogram_quantile(&one, 0.5).value.unwrap();
        assert!((20.0..21.0).contains(&p50), "p50 = {p50}");
    }
}
