//! Decision-point logging.
//!
//! When enabled ([`crate::SimConfig::log_decisions`]), the engine
//! records one [`DecisionRecord`] per decision point: the time, the
//! state the policy saw, and what it started.  This is the observability
//! layer for debugging policies ("why did nothing start at t?") and the
//! raw material for queue-dynamics analyses beyond the built-in
//! time-weighted average.

use sbs_workload::job::JobId;
use sbs_workload::time::Time;
use serde::{Deserialize, Serialize};

/// What one decision point looked like.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DecisionRecord {
    /// Decision time.
    pub now: Time,
    /// Waiting jobs when the policy ran.
    pub queue_len: usize,
    /// Running jobs at the time.
    pub running: usize,
    /// Free nodes at the time.
    pub free_nodes: u32,
    /// Jobs the policy started.
    pub started: Vec<JobId>,
}

/// A complete decision log with analysis helpers.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DecisionLog {
    /// Records in simulation order.
    pub records: Vec<DecisionRecord>,
}

impl DecisionLog {
    /// Number of decision points logged.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Decision points at which at least one job started.
    pub fn productive(&self) -> usize {
        self.records
            .iter()
            .filter(|r| !r.started.is_empty())
            .count()
    }

    /// The largest queue observed and when.
    pub fn peak_queue(&self) -> Option<(Time, usize)> {
        self.records
            .iter()
            .map(|r| (r.now, r.queue_len))
            .max_by_key(|&(_, q)| q)
    }

    /// Decision points where the machine had idle nodes, jobs were
    /// waiting, and still nothing started — the "blocked head" states
    /// backfill exists to reduce.  (Legitimate under reservations, but a
    /// high fraction flags a passive policy.)
    pub fn idle_blocked(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.free_nodes > 0 && r.queue_len > 0 && r.started.is_empty())
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(now: Time, queue_len: usize, free: u32, started: Vec<u32>) -> DecisionRecord {
        DecisionRecord {
            now,
            queue_len,
            running: 1,
            free_nodes: free,
            started: started.into_iter().map(JobId).collect(),
        }
    }

    #[test]
    fn analysis_helpers() {
        let log = DecisionLog {
            records: vec![
                record(0, 3, 4, vec![1, 2]),
                record(100, 5, 0, vec![]),
                record(200, 9, 2, vec![]), // idle + blocked
                record(300, 1, 8, vec![3]),
            ],
        };
        assert_eq!(log.len(), 4);
        assert_eq!(log.productive(), 2);
        assert_eq!(log.peak_queue(), Some((200, 9)));
        assert_eq!(log.idle_blocked(), 1);
    }

    #[test]
    fn empty_log() {
        let log = DecisionLog::default();
        assert!(log.is_empty());
        assert_eq!(log.peak_queue(), None);
        assert_eq!(log.idle_blocked(), 0);
    }
}
