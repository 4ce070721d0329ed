//! Machine state: which jobs run where (well, *how many* nodes — the
//! machine is a homogeneous pool, so no placement is modelled, exactly
//! as in the paper).

use crate::avail::AvailabilityProfile;
use sbs_workload::job::{Job, JobId};
use sbs_workload::time::Time;

/// A job currently executing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunningJob {
    /// The job itself.
    pub job: Job,
    /// When it started.
    pub start: Time,
    /// When the *scheduler* expects it to end (`start + R*`).  The actual
    /// end is `start + job.runtime`, which is never later than this when
    /// `R* = R >= T`, and equal when `R* = T`.
    pub pred_end: Time,
}

impl RunningJob {
    /// Actual completion time.
    pub fn end(&self) -> Time {
        self.start.saturating_add(self.job.runtime)
    }

    /// The order of [`Cluster::by_predicted_end`].
    fn end_key(&self) -> (Time, JobId) {
        (self.pred_end, self.job.id)
    }
}

/// The space-shared machine: a counter of free nodes plus the running
/// set, kept in two orders.
#[derive(Debug, Clone)]
pub struct Cluster {
    capacity: u32,
    free: u32,
    running: Vec<RunningJob>,
    /// The same jobs sorted by `(pred_end, id)`, so a decision's skyline
    /// is built in one pass without sorting.
    by_end: Vec<RunningJob>,
}

impl Cluster {
    /// An empty machine of `capacity` nodes at time 0.
    pub fn new(capacity: u32) -> Self {
        assert!(capacity > 0);
        Cluster {
            capacity,
            free: capacity,
            running: Vec::new(),
            by_end: Vec::new(),
        }
    }

    /// Machine size.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Currently free nodes.
    pub fn free_nodes(&self) -> u32 {
        self.free
    }

    /// The running set, in the order of a `Vec` that each start or
    /// re-admission pushes onto and each [`Self::finish`] `swap_remove`s
    /// from: start order only until the first completion.  This order is
    /// observable and must not change: queue answers render it,
    /// snapshots store it, and the benchmark's pinned `fleet-steady`
    /// digest hashes those answers.
    pub fn running(&self) -> &[RunningJob] {
        &self.running
    }

    /// The running set sorted by predicted end, then id: the order
    /// policies see as [`crate::SchedContext::running`].
    pub(crate) fn by_predicted_end(&self) -> &[RunningJob] {
        &self.by_end
    }

    /// Adds `r` to both orders.
    fn insert(&mut self, r: RunningJob) {
        self.free -= r.job.nodes;
        self.running.push(r);
        let at = self.by_end.partition_point(|x| x.end_key() < r.end_key());
        self.by_end.insert(at, r);
    }

    /// Starts `job` at `now` with predicted runtime `r_star`.
    ///
    /// # Panics
    ///
    /// Panics if the job does not fit — the engine validates policy
    /// decisions with this.
    pub fn start(&mut self, job: Job, now: Time, r_star: Time) {
        assert!(
            job.nodes <= self.free,
            "policy over-committed: {} needs {} nodes, {} free",
            job.id,
            job.nodes,
            self.free
        );
        self.insert(RunningJob {
            job,
            start: now,
            pred_end: now.saturating_add(r_star),
        });
    }

    /// Re-admits a job that was already running (snapshot recovery),
    /// preserving its original start and predicted end instead of
    /// restarting its reservation from scratch.
    ///
    /// # Panics
    ///
    /// Panics if the job does not fit or is already present.
    pub fn admit(&mut self, job: Job, start: Time, pred_end: Time) {
        assert!(
            job.nodes <= self.free,
            "recovery over-committed: {} needs {} nodes, {} free",
            job.id,
            job.nodes,
            self.free
        );
        assert!(
            self.running.iter().all(|r| r.job.id != job.id),
            "{} re-admitted twice",
            job.id
        );
        self.insert(RunningJob {
            job,
            start,
            pred_end,
        });
    }

    /// Removes a finished job and frees its nodes, returning its record.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not running.
    pub fn finish(&mut self, id: JobId) -> RunningJob {
        let idx = self
            .running
            .iter()
            .position(|r| r.job.id == id)
            .unwrap_or_else(|| panic!("{id} is not running"));
        let r = self.running.swap_remove(idx);
        let first = self.by_end.partition_point(|x| x.end_key() < r.end_key());
        let at = self.by_end[first..]
            .iter()
            .position(|x| *x == r)
            .expect("every running job is in the predicted-end index");
        self.by_end.remove(first + at);
        self.free += r.job.nodes;
        r
    }

    /// The availability profile at `now`, from the scheduler's predicted
    /// completion times.
    pub fn profile(&self, now: Time) -> AvailabilityProfile {
        AvailabilityProfile::from_running(
            now,
            self.capacity,
            self.by_end.iter().map(|r| (r.pred_end, r.job.nodes)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sbs_workload::time::HOUR;

    fn job(id: u32, nodes: u32, runtime: Time) -> Job {
        Job::new(JobId(id), 0, nodes, runtime, runtime)
    }

    #[test]
    fn start_and_finish_track_free_nodes() {
        let mut c = Cluster::new(8);
        c.start(job(1, 5, HOUR), 100, HOUR);
        assert_eq!(c.free_nodes(), 3);
        c.start(job(2, 3, HOUR), 100, 2 * HOUR);
        assert_eq!(c.free_nodes(), 0);
        let r = c.finish(JobId(1));
        assert_eq!(r.end(), 100 + HOUR);
        assert_eq!(c.free_nodes(), 5);
    }

    #[test]
    #[should_panic(expected = "over-committed")]
    fn over_commit_is_a_policy_bug() {
        let mut c = Cluster::new(4);
        c.start(job(1, 3, HOUR), 0, HOUR);
        c.start(job(2, 2, HOUR), 0, HOUR);
    }

    #[test]
    fn profile_reflects_predictions_not_actuals() {
        let mut c = Cluster::new(8);
        // Actual runtime 1 h but predicted 2 h (R* = R mode).
        c.start(job(1, 8, HOUR), 0, 2 * HOUR);
        let p = c.profile(0);
        assert_eq!(p.earliest_start(1, 10, 0), 2 * HOUR);
    }

    proptest! {
        /// Under random start/admit/finish sequences `running()` keeps
        /// the order of a plain push/`swap_remove` `Vec`, and the
        /// predicted-end index is exactly that set sorted by
        /// `(pred_end, id)`.  Predicted ends are coarse so they tie, and
        /// ids arrive out of order.
        #[test]
        fn predicted_end_index_tracks_the_running_set(
            ops in proptest::collection::vec((0u8..3, 0u32..40, 1u32..9, 0u64..6), 1..60),
        ) {
            let mut c = Cluster::new(32);
            let mut model: Vec<RunningJob> = Vec::new();
            for (kind, id, nodes, t) in ops {
                let fresh = model.iter().all(|r| r.job.id.0 != id);
                match kind {
                    0 | 1 if fresh && nodes <= c.free_nodes() => {
                        let j = job(id, nodes, 100 * t + 1);
                        let (start, pred_end) = (500 - 100 * t, 500 + 100 * t);
                        if kind == 0 {
                            c.start(j, start, pred_end - start);
                        } else {
                            c.admit(j, start, pred_end);
                        }
                        model.push(RunningJob { job: j, start, pred_end });
                    }
                    2 if !model.is_empty() => {
                        let gone = model.swap_remove(id as usize % model.len());
                        prop_assert_eq!(c.finish(gone.job.id), gone);
                    }
                    _ => {}
                }
                prop_assert_eq!(c.running(), &model[..]);
                let mut sorted = model.clone();
                sorted.sort_by_key(RunningJob::end_key);
                prop_assert_eq!(c.by_predicted_end(), &sorted[..]);
                let busy: u32 = model.iter().map(|r| r.job.nodes).sum();
                prop_assert_eq!(c.free_nodes(), 32 - busy);
            }
        }
    }
}
