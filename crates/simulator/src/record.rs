//! Completed-job records — the raw material every performance measure is
//! computed from.

use sbs_workload::job::{bounded_slowdown, JobId};
use sbs_workload::time::Time;
use serde::{Deserialize, Serialize};

/// Everything measured about one completed job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct JobRecord {
    /// Job identity.
    pub id: JobId,
    /// Submission time.
    pub submit: Time,
    /// Start time chosen by the policy.
    pub start: Time,
    /// Completion time (`start + runtime`).
    pub end: Time,
    /// Nodes used.
    pub nodes: u32,
    /// Actual runtime `T`.
    pub runtime: Time,
    /// Requested runtime `R`.
    pub requested: Time,
    /// The runtime the scheduler planned with (`R*`): actual or
    /// requested, depending on the run's configuration.
    pub r_star: Time,
    /// Submitting user (0 = unknown).
    pub user: u32,
    /// Whether the job was submitted inside the measurement window
    /// (warm-up and cool-down jobs carry `false` and are excluded from
    /// all statistics, per Section 4).
    pub in_window: bool,
}

impl JobRecord {
    /// Wait time (`start - submit`).
    pub fn wait(&self) -> Time {
        self.start.saturating_sub(self.submit)
    }

    /// Turnaround (`end - submit`).
    pub fn turnaround(&self) -> Time {
        self.end.saturating_sub(self.submit)
    }

    /// The paper's bounded slowdown (1-minute runtime floor).
    pub fn bounded_slowdown(&self) -> f64 {
        bounded_slowdown(self.wait(), self.runtime)
    }

    /// Wait in excess of threshold `t` (zero when `wait <= t`) — the
    /// per-job *normalized excessive wait* of Section 4.
    pub fn excess_wait(&self, threshold: Time) -> Time {
        self.wait().saturating_sub(threshold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbs_workload::time::HOUR;

    fn record(submit: Time, start: Time, runtime: Time) -> JobRecord {
        JobRecord {
            id: JobId(1),
            submit,
            start,
            end: start + runtime,
            nodes: 4,
            runtime,
            requested: runtime,
            r_star: runtime,
            user: 0,
            in_window: true,
        }
    }

    #[test]
    fn derived_measures() {
        let r = record(100, 400, HOUR);
        assert_eq!(r.wait(), 300);
        assert_eq!(r.turnaround(), 300 + HOUR);
        assert!((r.bounded_slowdown() - (300.0 + 3600.0) / 3600.0).abs() < 1e-12);
    }

    #[test]
    fn excess_wait_clamps_at_zero() {
        let r = record(0, 2 * HOUR, HOUR);
        assert_eq!(r.excess_wait(HOUR), HOUR);
        assert_eq!(r.excess_wait(2 * HOUR), 0);
        assert_eq!(r.excess_wait(3 * HOUR), 0);
    }
}
