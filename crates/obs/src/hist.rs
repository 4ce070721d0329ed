//! Fixed-bucket cumulative histogram over `u64` observations.
//!
//! Bucket bounds are chosen at construction and never change, so two
//! runs that observe the same sequence of values produce identical
//! histograms — no adaptive resizing, no floating-point accumulation.

/// A histogram with fixed upper bounds.
///
/// `counts[i]` is the number of observations `<= bounds[i]`; the last
/// slot (`counts[bounds.len()]`) is the overflow bucket (`+Inf`).
/// Counts are *per-bucket* internally; cumulative counts are derived
/// when rendering Prometheus `_bucket` series.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    bounds: Vec<u64>,
    counts: Vec<u64>,
    sum: u128,
    count: u64,
}

impl Histogram {
    /// A histogram with the given strictly increasing upper bounds.
    pub fn new(bounds: &[u64]) -> Self {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            sum: 0,
            count: 0,
        }
    }

    /// Exponential bounds `start, start*factor, ...` (`len` of them).
    pub fn exponential(start: u64, factor: u64, len: usize) -> Self {
        let mut bounds = Vec::with_capacity(len);
        let mut b = start.max(1);
        for _ in 0..len {
            bounds.push(b);
            b = b.saturating_mul(factor.max(2));
        }
        bounds.dedup();
        Histogram::new(&bounds)
    }

    /// Folds one observation.
    pub fn observe(&mut self, value: u64) {
        let idx = self.bounds.partition_point(|&b| b < value);
        self.counts[idx] += 1;
        self.sum += u128::from(value);
        self.count += 1;
    }

    /// Folds another histogram with the *same bounds* into this one.
    /// Histograms with different bucket layouts are rejected (`false`)
    /// rather than silently mis-binned.
    pub fn merge_from(&mut self, other: &Histogram) -> bool {
        if self.bounds != other.bounds {
            return false;
        }
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine = mine.saturating_add(*theirs);
        }
        self.sum = self.sum.saturating_add(other.sum);
        self.count = self.count.saturating_add(other.count);
        true
    }

    /// Bucket-resolution estimate of the `q`-quantile (`0.0..=1.0`): the
    /// smallest configured upper bound whose cumulative count covers the
    /// quantile.  When the quantile falls in the overflow (`+Inf`)
    /// bucket the largest finite bound is returned — a lower bound on
    /// the true value.  `None` when the histogram is empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        #[expect(
            clippy::cast_possible_truncation,
            reason = "q is clamped to [0, 1], so the rank is at most count"
        )]
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut acc = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            acc = acc.saturating_add(c);
            if acc >= rank {
                return Some(match self.bounds.get(i) {
                    Some(&b) => b,
                    None => self.bounds.last().copied().unwrap_or(u64::MAX),
                });
            }
        }
        self.bounds.last().copied()
    }

    /// The configured upper bounds (exclusive of `+Inf`).
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Per-bucket (non-cumulative) counts; last slot is `+Inf`.
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Cumulative counts aligned with [`Histogram::bounds`] plus a
    /// final `+Inf` entry equal to [`Histogram::count`].
    pub fn cumulative(&self) -> Vec<u64> {
        let mut acc = 0u64;
        self.counts
            .iter()
            .map(|&c| {
                acc += c;
                acc
            })
            .collect()
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_inclusive_upper_bounds() {
        let mut h = Histogram::new(&[1, 10, 100]);
        for v in [0, 1, 2, 10, 11, 100, 101, 5000] {
            h.observe(v);
        }
        assert_eq!(h.bucket_counts(), &[2, 2, 2, 2]);
        assert_eq!(h.cumulative(), vec![2, 4, 6, 8]);
        assert_eq!(h.count(), 8);
        assert_eq!(h.sum(), 5225u128);
    }

    #[test]
    fn merge_requires_identical_bounds_and_sums_everything() {
        let mut a = Histogram::new(&[1, 10, 100]);
        let mut b = Histogram::new(&[1, 10, 100]);
        for v in [0, 5, 50] {
            a.observe(v);
        }
        for v in [7, 5000] {
            b.observe(v);
        }
        assert!(a.merge_from(&b));
        assert_eq!(a.count(), 5);
        assert_eq!(a.sum(), 5062u128);
        assert_eq!(a.cumulative(), vec![1, 3, 4, 5]);
        let c = Histogram::new(&[1, 2]);
        assert!(!a.merge_from(&c), "foreign bucket layout rejected");
        assert_eq!(a.count(), 5, "rejected merge left counts untouched");
    }

    #[test]
    fn quantiles_report_bucket_upper_bounds() {
        let mut h = Histogram::new(&[10, 100, 1_000]);
        assert_eq!(h.quantile(0.5), None, "empty histogram has no quantile");
        for v in [1, 2, 3, 50, 60, 70, 80, 90, 500, 5_000] {
            h.observe(v);
        }
        assert_eq!(h.quantile(0.0), Some(10));
        assert_eq!(h.quantile(0.5), Some(100));
        assert_eq!(h.quantile(0.9), Some(1_000));
        // The 99th percentile lands in the overflow bucket: the largest
        // finite bound is reported as a lower bound.
        assert_eq!(h.quantile(0.99), Some(1_000));
    }

    #[test]
    fn exponential_bounds_saturate_without_panicking() {
        let h = Histogram::exponential(1, 10, 25);
        assert!(h.bounds().windows(2).all(|w| w[0] < w[1]));
        let mut h2 = Histogram::exponential(1, 10, 6);
        assert_eq!(h2.bounds(), &[1, 10, 100, 1_000, 10_000, 100_000]);
        h2.observe(u64::MAX);
        assert_eq!(h2.bucket_counts()[6], 1);
    }
}
