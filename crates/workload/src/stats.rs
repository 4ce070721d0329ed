//! Descriptive statistics of a workload — used by the table harnesses,
//! examples, and anyone sanity-checking a generated or parsed trace.

use crate::generator::Workload;
use crate::profile::{range_of_nodes, NODE_RANGES};
use crate::time::Time;
use serde::{Deserialize, Serialize};

/// Summary statistics over the in-window jobs of a workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadStats {
    /// Number of in-window jobs.
    pub jobs: usize,
    /// Offered load (`sum(N x T) / (capacity x window)`).
    pub offered_load: f64,
    /// Mean inter-arrival time in seconds.
    pub mean_interarrival: f64,
    /// Runtime percentiles `[p10, p50, p90, p100]` in seconds.
    pub runtime_percentiles: [Time; 4],
    /// Node-count percentiles `[p10, p50, p90, p100]`.
    pub node_percentiles: [u32; 4],
    /// Mean requested/actual runtime ratio (over-estimation factor).
    pub mean_overestimate: f64,
    /// Share of jobs per Table 3 node range (fractions summing to ~1).
    pub range_job_share: [f64; 8],
    /// Share of processor demand per Table 3 node range.
    pub range_demand_share: [f64; 8],
}

fn percentile_of<T: Copy + Ord>(sorted: &[T], p: f64) -> T {
    debug_assert!(!sorted.is_empty());
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the nearest rank is clamped to the slice length below"
    )]
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

impl WorkloadStats {
    /// Computes the summary.  Returns `None` for a workload with no
    /// in-window jobs.
    pub fn over(workload: &Workload) -> Option<WorkloadStats> {
        let jobs: Vec<_> = workload.in_window().collect();
        if jobs.is_empty() {
            return None;
        }
        let n = jobs.len();
        let mut runtimes: Vec<Time> = jobs.iter().map(|j| j.runtime).collect();
        runtimes.sort_unstable();
        let mut nodes: Vec<u32> = jobs.iter().map(|j| j.nodes).collect();
        nodes.sort_unstable();
        let submits: Vec<Time> = jobs.iter().map(|j| j.submit).collect();
        let span = submits.last().expect("non-empty") - submits[0];
        let mean_interarrival = if n > 1 {
            span as f64 / (n - 1) as f64
        } else {
            0.0
        };
        let mean_overestimate = jobs
            .iter()
            .map(|j| j.requested as f64 / j.runtime as f64)
            .sum::<f64>()
            / n as f64;

        let total_demand: f64 = jobs.iter().map(|j| j.demand() as f64).sum();
        let mut range_job_share = [0.0f64; 8];
        let mut range_demand_share = [0.0f64; 8];
        for j in &jobs {
            let r = range_of_nodes(j.nodes);
            range_job_share[r] += 1.0 / n as f64;
            if total_demand > 0.0 {
                range_demand_share[r] += j.demand() as f64 / total_demand;
            }
        }

        Some(WorkloadStats {
            jobs: n,
            offered_load: workload.offered_load(),
            mean_interarrival,
            runtime_percentiles: [
                percentile_of(&runtimes, 10.0),
                percentile_of(&runtimes, 50.0),
                percentile_of(&runtimes, 90.0),
                *runtimes.last().expect("non-empty"),
            ],
            node_percentiles: [
                percentile_of(&nodes, 10.0),
                percentile_of(&nodes, 50.0),
                percentile_of(&nodes, 90.0),
                *nodes.last().expect("non-empty"),
            ],
            mean_overestimate,
            range_job_share,
            range_demand_share,
        })
    }

    /// Renders a compact human-readable summary.
    pub fn summary(&self) -> String {
        let mut out = format!(
            "{} jobs, load {:.2}, mean inter-arrival {:.0}s, runtime p50 {}s p90 {}s, \
             nodes p50 {} p90 {}, mean over-estimate {:.1}x\n",
            self.jobs,
            self.offered_load,
            self.mean_interarrival,
            self.runtime_percentiles[1],
            self.runtime_percentiles[2],
            self.node_percentiles[1],
            self.node_percentiles[2],
            self.mean_overestimate,
        );
        for (i, (lo, hi)) in NODE_RANGES.iter().enumerate() {
            out.push_str(&format!(
                "  N {:>3}-{:<3}: {:5.1}% of jobs, {:5.1}% of demand\n",
                lo,
                hi,
                100.0 * self.range_job_share[i],
                100.0 * self.range_demand_share[i],
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{random_workload, RandomWorkloadCfg, WorkloadBuilder};
    use crate::system::Month;

    #[test]
    fn stats_over_generated_month_are_sane() {
        let w = WorkloadBuilder::month(Month::Oct03).span_scale(0.2).build();
        let s = WorkloadStats::over(&w).expect("non-empty");
        assert!(s.jobs > 400);
        assert!((0.4..1.1).contains(&s.offered_load));
        assert!(s.mean_overestimate >= 1.0);
        assert!(s.runtime_percentiles[1] <= s.runtime_percentiles[2]);
        assert!(s.node_percentiles[3] <= 128);
        let total: f64 = s.range_job_share.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        let demand_total: f64 = s.range_demand_share.iter().sum();
        assert!((demand_total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_window_yields_none() {
        let mut w = random_workload(RandomWorkloadCfg::default(), 1);
        w.window = (0, 0);
        assert!(WorkloadStats::over(&w).is_none());
    }

    #[test]
    fn summary_renders_all_ranges() {
        let w = random_workload(
            RandomWorkloadCfg {
                capacity: 128,
                ..Default::default()
            },
            2,
        );
        let s = WorkloadStats::over(&w).expect("non-empty");
        let text = s.summary();
        assert_eq!(text.lines().count(), 9); // header + 8 ranges
    }
}
