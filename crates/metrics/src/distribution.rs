//! Wait-time distributions: empirical CDFs and log-bucketed histograms.
//!
//! Averages and maxima (the paper's headline measures) hide the shape in
//! between; the excessive-wait thresholds are percentile-based.  This
//! module provides the empirical distribution machinery behind both, and
//! an ASCII rendering for reports.

use sbs_sim::JobRecord;
use sbs_workload::time::{Time, HOUR, MINUTE};
use serde::{Deserialize, Serialize};

/// An empirical distribution of per-job wait times.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WaitDistribution {
    /// Sorted wait samples in seconds.
    sorted: Vec<Time>,
}

impl WaitDistribution {
    /// Builds the distribution over `records`.
    pub fn over<'a>(records: impl IntoIterator<Item = &'a JobRecord>) -> WaitDistribution {
        let mut sorted: Vec<Time> = records.into_iter().map(|r| r.wait()).collect();
        sorted.sort_unstable();
        WaitDistribution { sorted }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the distribution is empty.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Empirical CDF: the fraction of jobs with `wait <= t` (0 for an
    /// empty distribution).
    pub fn cdf(&self, t: Time) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let below = self.sorted.partition_point(|&w| w <= t);
        below as f64 / self.sorted.len() as f64
    }

    /// Nearest-rank quantile, `0 < q <= 1`.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the nearest rank is clamped to the sample count below"
    )]
    pub fn quantile(&self, q: f64) -> Time {
        assert!(q > 0.0 && q <= 1.0, "quantile out of range: {q}");
        if self.sorted.is_empty() {
            return 0;
        }
        let rank = (q * self.sorted.len() as f64).ceil() as usize;
        self.sorted[rank.clamp(1, self.sorted.len()) - 1]
    }

    /// The standard log-spaced wait buckets used by the renderer: 0,
    /// <=1 min, <=10 min, <=1 h, <=4 h, <=12 h, <=48 h, beyond.
    pub const BUCKET_EDGES: [Time; 6] = [MINUTE, 10 * MINUTE, HOUR, 4 * HOUR, 12 * HOUR, 48 * HOUR];

    /// Bucket labels matching [`Self::histogram`].
    pub const BUCKET_LABELS: [&'static str; 8] = [
        "0", "<=1m", "<=10m", "<=1h", "<=4h", "<=12h", "<=48h", ">48h",
    ];

    /// Job counts per bucket (zero-wait jobs get their own bucket — on a
    /// lightly loaded machine most jobs start immediately and that mass
    /// matters).
    pub fn histogram(&self) -> [usize; 8] {
        let mut out = [0usize; 8];
        for &w in &self.sorted {
            let idx = if w == 0 {
                0
            } else {
                match Self::BUCKET_EDGES.iter().position(|&e| w <= e) {
                    Some(i) => i + 1,
                    None => 7,
                }
            };
            out[idx] += 1;
        }
        out
    }

    /// Renders the histogram as an ASCII bar chart.
    pub fn render(&self, width: usize) -> String {
        let hist = self.histogram();
        let max = hist.iter().copied().max().unwrap_or(0).max(1);
        let mut out = String::new();
        for (label, &count) in Self::BUCKET_LABELS.iter().zip(&hist) {
            let bar = "#".repeat(count * width / max);
            let pct = if self.sorted.is_empty() {
                0.0
            } else {
                100.0 * count as f64 / self.sorted.len() as f64
            };
            out.push_str(&format!("{label:>6} |{bar:<width$}| {pct:5.1}%\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sbs_workload::job::JobId;

    fn record(id: u32, wait: Time) -> JobRecord {
        JobRecord {
            id: JobId(id),
            submit: 0,
            start: wait,
            end: wait + HOUR,
            nodes: 1,
            runtime: HOUR,
            requested: HOUR,
            r_star: HOUR,
            user: 0,
            in_window: true,
        }
    }

    #[test]
    fn cdf_and_quantiles_of_a_known_set() {
        let rs: Vec<JobRecord> = (1..=10).map(|i| record(i, i as Time * MINUTE)).collect();
        let d = WaitDistribution::over(&rs);
        assert_eq!(d.len(), 10);
        assert_eq!(d.cdf(0), 0.0);
        assert_eq!(d.cdf(5 * MINUTE), 0.5);
        assert_eq!(d.cdf(HOUR), 1.0);
        assert_eq!(d.quantile(0.5), 5 * MINUTE);
        assert_eq!(d.quantile(1.0), 10 * MINUTE);
    }

    #[test]
    fn histogram_buckets_are_exhaustive() {
        let waits: [Time; 6] = [0, 30, 5 * MINUTE, 2 * HOUR, 24 * HOUR, 100 * HOUR];
        let rs: Vec<JobRecord> = waits.iter().zip(0..).map(|(&w, i)| record(i, w)).collect();
        let hist = WaitDistribution::over(&rs).histogram();
        assert_eq!(hist.iter().sum::<usize>(), 6);
        assert_eq!(hist[0], 1); // zero
        assert_eq!(hist[1], 1); // <=1m
        assert_eq!(hist[2], 1); // <=10m
        assert_eq!(hist[4], 1); // <=4h
        assert_eq!(hist[6], 1); // <=48h
        assert_eq!(hist[7], 1); // >48h
    }

    #[test]
    fn render_shows_every_bucket_row() {
        let rs = [record(0, 0), record(1, HOUR)];
        let text = WaitDistribution::over(&rs).render(20);
        assert_eq!(text.lines().count(), 8);
        assert!(text.contains("50.0%"));
    }

    #[test]
    fn empty_distribution_is_harmless() {
        let d = WaitDistribution::over([]);
        assert!(d.is_empty());
        assert_eq!(d.cdf(100), 0.0);
        assert_eq!(d.quantile(0.98), 0);
        assert_eq!(d.histogram().iter().sum::<usize>(), 0);
    }

    proptest! {
        /// CDF is monotone and consistent with the quantile function.
        #[test]
        fn cdf_quantile_duality(waits in proptest::collection::vec(0u64..1_000_000, 1..80)) {
            let rs: Vec<JobRecord> =
                waits.iter().zip(0..).map(|(&w, i)| record(i, w)).collect();
            let d = WaitDistribution::over(&rs);
            // Monotone CDF.
            let ts: Vec<Time> = (0..10).map(|i| i * 120_000).collect();
            for pair in ts.windows(2) {
                prop_assert!(d.cdf(pair[0]) <= d.cdf(pair[1]));
            }
            // quantile(q) is the smallest wait with cdf >= q.
            for q in [0.25, 0.5, 0.9, 0.98, 1.0] {
                let t = d.quantile(q);
                prop_assert!(d.cdf(t) >= q - 1e-9);
                if t > 0 {
                    prop_assert!(d.cdf(t - 1) < q + 1e-9);
                }
            }
        }
    }
}
