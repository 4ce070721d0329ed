//! The normalized excessive-wait measure family.
//!
//! The *normalized excessive wait* of a job w.r.t. a threshold `t` is its
//! wait in excess of `t` (zero when `wait <= t`).  The paper evaluates
//! each policy against two per-month thresholds taken from FCFS-backfill
//! in the same month: its **maximum wait** (`E^max_fcfs-bf`) and its
//! **98th-percentile wait** (`E^98%_fcfs-bf`).  By construction
//! FCFS-backfill itself has zero total `E^max_fcfs-bf`.

use sbs_sim::JobRecord;
use sbs_workload::time::Time;
use serde::{Deserialize, Serialize};

/// Excessive-wait statistics w.r.t. one threshold (Figure 4(e)-(h)).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExcessStats {
    /// The threshold used, in seconds.
    pub threshold: Time,
    /// Total excessive wait over all jobs, in hours.
    pub total_h: f64,
    /// Number of jobs with a positive excessive wait.
    pub jobs_with_excess: usize,
    /// Average excessive wait over those jobs, in hours (0 if none).
    pub avg_h: f64,
}

impl ExcessStats {
    /// Computes the family over `records` w.r.t. `threshold` seconds.
    pub fn over<'a>(
        records: impl IntoIterator<Item = &'a JobRecord>,
        threshold: Time,
    ) -> ExcessStats {
        let mut total: u128 = 0;
        let mut count = 0usize;
        for r in records {
            let e = r.excess_wait(threshold);
            if e > 0 {
                total += e as u128;
                count += 1;
            }
        }
        let total_h = total as f64 / 3_600.0;
        ExcessStats {
            threshold,
            total_h,
            jobs_with_excess: count,
            avg_h: if count > 0 {
                total_h / count as f64
            } else {
                0.0
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sbs_workload::job::JobId;
    use sbs_workload::time::HOUR;

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
    fn known_values() {
        let rs = [record(0, HOUR), record(1, 3 * HOUR), record(2, 5 * HOUR)];
        let e = ExcessStats::over(&rs, 2 * HOUR);
        assert_eq!(e.jobs_with_excess, 2);
        assert!((e.total_h - 4.0).abs() < 1e-12); // 1 h + 3 h
        assert!((e.avg_h - 2.0).abs() < 1e-12);
    }

    #[test]
    fn threshold_at_max_wait_gives_zero() {
        // The defining property: a policy has zero excess w.r.t. its own
        // maximum wait.
        let rs = [record(0, HOUR), record(1, 7 * HOUR)];
        let e = ExcessStats::over(&rs, 7 * HOUR);
        assert_eq!(e.jobs_with_excess, 0);
        assert_eq!(e.total_h, 0.0);
        assert_eq!(e.avg_h, 0.0);
    }

    proptest! {
        /// total = count x avg, monotone decreasing in the threshold.
        #[test]
        fn identities(waits in proptest::collection::vec(0u64..500_000, 1..50),
                      t1 in 0u64..300_000, dt in 0u64..300_000) {
            let rs: Vec<JobRecord> =
                waits.iter().zip(0..).map(|(&w, i)| record(i, w)).collect();
            let a = ExcessStats::over(&rs, t1);
            let b = ExcessStats::over(&rs, t1 + dt);
            prop_assert!((a.total_h - a.avg_h * a.jobs_with_excess as f64).abs() < 1e-9);
            prop_assert!(b.total_h <= a.total_h + 1e-9);
            prop_assert!(b.jobs_with_excess <= a.jobs_with_excess);
        }
    }
}
