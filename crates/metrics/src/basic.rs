//! Wait and slowdown statistics.

use sbs_sim::JobRecord;
use sbs_workload::time::{to_hours, Time};
use serde::{Deserialize, Serialize};

/// Aggregate wait/slowdown statistics over a set of job records.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WaitStats {
    /// Number of jobs aggregated.
    pub jobs: usize,
    /// Mean wait in hours.
    pub avg_wait_h: f64,
    /// Maximum wait in hours.
    pub max_wait_h: f64,
    /// Mean bounded slowdown (1-minute floor).
    pub avg_bounded_slowdown: f64,
    /// Mean turnaround in hours.
    pub avg_turnaround_h: f64,
}

impl WaitStats {
    /// Computes the statistics over `records` (typically the in-window
    /// records of a run).  All-zero for an empty set.
    pub fn over<'a>(records: impl IntoIterator<Item = &'a JobRecord>) -> WaitStats {
        let mut jobs = 0usize;
        let mut wait_sum: u128 = 0;
        let mut wait_max: Time = 0;
        let mut bsld_sum = 0.0;
        let mut turn_sum: u128 = 0;
        for r in records {
            jobs += 1;
            let w = r.wait();
            wait_sum += w as u128;
            wait_max = wait_max.max(w);
            bsld_sum += r.bounded_slowdown();
            turn_sum += r.turnaround() as u128;
        }
        if jobs == 0 {
            return WaitStats {
                jobs: 0,
                avg_wait_h: 0.0,
                max_wait_h: 0.0,
                avg_bounded_slowdown: 0.0,
                avg_turnaround_h: 0.0,
            };
        }
        WaitStats {
            jobs,
            avg_wait_h: wait_sum as f64 / jobs as f64 / 3_600.0,
            max_wait_h: to_hours(wait_max),
            avg_bounded_slowdown: bsld_sum / jobs as f64,
            avg_turnaround_h: turn_sum as f64 / jobs as f64 / 3_600.0,
        }
    }
}

/// The `p`-th percentile wait (0 < p <= 100) over `records`, in seconds,
/// using the nearest-rank definition (the paper's 98th-percentile
/// threshold).  Returns 0 for an empty set.
#[expect(
    clippy::cast_possible_truncation,
    reason = "the nearest rank is clamped to the sample count below"
)]
pub fn percentile_wait<'a>(records: impl IntoIterator<Item = &'a JobRecord>, p: f64) -> Time {
    assert!(p > 0.0 && p <= 100.0, "percentile out of range: {p}");
    let mut waits: Vec<Time> = records.into_iter().map(|r| r.wait()).collect();
    if waits.is_empty() {
        return 0;
    }
    waits.sort_unstable();
    let rank = ((p / 100.0) * waits.len() as f64).ceil() as usize;
    waits[rank.clamp(1, waits.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbs_workload::job::JobId;
    use sbs_workload::time::HOUR;

    fn record(id: u32, wait: Time, runtime: Time) -> JobRecord {
        JobRecord {
            id: JobId(id),
            submit: 0,
            start: wait,
            end: wait + runtime,
            nodes: 1,
            runtime,
            requested: runtime,
            r_star: runtime,
            user: 0,
            in_window: true,
        }
    }

    #[test]
    fn stats_over_known_set() {
        let rs = [
            record(0, 0, HOUR),
            record(1, HOUR, HOUR),
            record(2, 2 * HOUR, HOUR),
        ];
        let s = WaitStats::over(&rs);
        assert_eq!(s.jobs, 3);
        assert!((s.avg_wait_h - 1.0).abs() < 1e-12);
        assert_eq!(s.max_wait_h, 2.0);
        // slowdowns: 1, 2, 3 -> mean 2
        assert!((s.avg_bounded_slowdown - 2.0).abs() < 1e-12);
        assert!((s.avg_turnaround_h - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_set_is_all_zero() {
        let s = WaitStats::over([]);
        assert_eq!(s.jobs, 0);
        assert_eq!(s.avg_wait_h, 0.0);
    }

    #[test]
    fn percentile_nearest_rank() {
        let rs: Vec<JobRecord> = (1..=100).map(|i| record(i, i as Time * 60, HOUR)).collect();
        assert_eq!(percentile_wait(&rs, 98.0), 98 * 60);
        assert_eq!(percentile_wait(&rs, 100.0), 100 * 60);
        assert_eq!(percentile_wait(&rs, 1.0), 60);
        assert_eq!(percentile_wait(&rs, 0.5), 60);
    }

    #[test]
    fn percentile_small_sets() {
        let rs = [record(0, 500, HOUR)];
        assert_eq!(percentile_wait(&rs, 98.0), 500);
        assert_eq!(percentile_wait([], 98.0), 0);
    }
}
