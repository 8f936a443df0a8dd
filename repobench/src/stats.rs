//! Order statistics shared by the workloads and the steadiness command.

use std::time::Duration;

/// Median of `values` (mean of the two middle values for even counts),
/// matching Python's `statistics.median`. `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// First, second and third quartile by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the default `exclusive` method),
/// so the spreads printed here are the spreads the acceptance rule uses.
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let data = sorted(values);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let n = 4usize;
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64;
    }
    Some(out)
}

/// Sub-buckets per power of two: 2^10, a relative resolution of 0.1 %.
const SUB_BITS: u32 = 10;

/// A latency histogram with log-linear buckets. Its footprint is fixed
/// (untouched buckets stay unmapped zero pages), so a run's memory does
/// not grow with the number of requests it measures.
pub struct Hist {
    counts: Vec<u64>,
    total: u64,
}

impl Hist {
    pub fn new() -> Hist {
        Hist {
            counts: vec![0; (64 - SUB_BITS as usize + 1) << SUB_BITS],
            total: 0,
        }
    }

    fn index(ns: u64) -> usize {
        let e = 63 - ns.max(1).leading_zeros();
        if e < SUB_BITS {
            ns as usize
        } else {
            let mantissa = (ns >> (e - SUB_BITS)) as usize & ((1 << SUB_BITS) - 1);
            ((e - SUB_BITS + 1) as usize) << SUB_BITS | mantissa
        }
    }

    /// Midpoint of bucket `i`, in nanoseconds.
    fn midpoint(i: usize) -> f64 {
        let (hi, lo) = (i >> SUB_BITS, (i & ((1 << SUB_BITS) - 1)) as u64);
        if hi <= 1 {
            return i as f64;
        }
        let e = hi as u32 + SUB_BITS - 1;
        let width = 1u64 << (e - SUB_BITS);
        ((1u64 << e) | (lo << (e - SUB_BITS))) as f64 + (width - 1) as f64 / 2.0
    }

    pub fn record(&mut self, elapsed: Duration) {
        let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.counts[Self::index(ns)] += 1;
        self.total += 1;
    }

    pub fn merge(&mut self, other: &Hist) {
        for (i, &c) in other.counts.iter().enumerate().filter(|(_, &c)| c != 0) {
            self.counts[i] += c;
        }
        self.total += other.total;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    /// Nearest-rank percentile (`q` in `(0, 1]`) in microseconds, at the
    /// midpoint of its bucket; `NaN` when empty.
    pub fn percentile_us(&self, q: f64) -> f64 {
        if self.total == 0 {
            return f64::NAN;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::midpoint(i) / 1e3;
            }
        }
        unreachable!("rank <= total")
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn histogram_percentiles_within_bucket_resolution() {
        let mut h = Hist::new();
        for us in 1..=1000u64 {
            h.record(Duration::from_micros(us));
        }
        assert_eq!(h.count(), 1000);
        for (q, exact) in [(0.5, 500.0), (0.9, 900.0), (1.0, 1000.0)] {
            let got = h.percentile_us(q);
            assert!((got - exact).abs() / exact < 1e-3, "q={q}: {got}");
        }
        let mut small = Hist::new();
        small.record(Duration::from_nanos(700));
        let mut merged = Hist::new();
        merged.merge(&small);
        merged.merge(&h);
        assert_eq!(merged.count(), 1001);
        assert_eq!(merged.percentile_us(1e-4), 0.7);
        assert!(Hist::new().percentile_us(0.5).is_nan());
    }
}
