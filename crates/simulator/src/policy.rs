//! The scheduling-policy interface.

use crate::avail::AvailabilityProfile;
use crate::cluster::RunningJob;
use sbs_workload::job::{bounded_slowdown, Job, JobId};
use sbs_workload::time::Time;

/// A queued job as seen by the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitingJob {
    /// The job (the scheduler may read `submit` and `nodes`; it must not
    /// read `runtime` directly — that is the simulator's ground truth).
    pub job: Job,
    /// The runtime the scheduler plans with (`R*`): actual or requested
    /// depending on the experiment's knowledge mode.
    pub r_star: Time,
}

impl WaitingJob {
    /// Time waited so far at `now`.
    pub fn wait(&self, now: Time) -> Time {
        now.saturating_sub(self.job.submit)
    }

    /// Current bounded slowdown estimate at `now` using `R*` — the
    /// paper's `lxf` priority/branching value (largest first).
    pub fn xfactor(&self, now: Time) -> f64 {
        bounded_slowdown(self.wait(now), self.r_star)
    }
}

/// Snapshot of machine and queue state handed to a policy at one decision
/// point.
#[derive(Debug)]
pub struct SchedContext<'a> {
    /// Current simulation time.
    pub now: Time,
    /// Machine size in nodes.
    pub capacity: u32,
    /// Nodes free right now.
    pub free_nodes: u32,
    /// Waiting jobs in arrival order (FCFS order).
    pub queue: &'a [WaitingJob],
    /// Running jobs, ordered by predicted end, then id, as
    /// [`crate::SchedulerCore`] hands them over; [`Self::profile`] then
    /// needs no sort.  Any other order gives the same profile.
    pub running: &'a [RunningJob],
}

impl SchedContext<'_> {
    /// Availability profile from the running set's predicted completion
    /// times: one pass over [`Self::running`].
    pub fn profile(&self) -> AvailabilityProfile {
        AvailabilityProfile::from_running(
            self.now,
            self.capacity,
            self.running.iter().map(|r| (r.pred_end, r.job.nodes)),
        )
    }

    /// The waiting time of the job that has been queued the longest —
    /// the paper's *dynamic target wait bound* (Section 5.2).
    pub fn longest_wait(&self) -> Time {
        self.queue
            .iter()
            .map(|w| w.wait(self.now))
            .max()
            .unwrap_or(0)
    }
}

/// A non-preemptive scheduling policy.
///
/// At each decision point the engine calls [`decide`](Self::decide); the
/// policy returns the ids of queued jobs to start *now* (possibly none).
/// The engine enforces that each returned id is queued and that the
/// combined node demand fits in the free nodes.
pub trait Policy {
    /// Display name used in reports, e.g. `"FCFS-backfill"` or
    /// `"DDS/lxf/dynB"`.
    fn name(&self) -> String;

    /// Chooses which waiting jobs to start at `ctx.now`.
    fn decide(&mut self, ctx: &SchedContext<'_>) -> Vec<JobId>;

    /// Turns per-decision trace collection on or off.  Policies without
    /// internal telemetry ignore this; the engine calls it once with
    /// the recorder's enabled state so disabled recording costs nothing
    /// in `decide`.
    fn set_tracing(&mut self, _on: bool) {}

    /// Takes the internal telemetry of the most recent `decide` call.
    /// Returns `None` when tracing is off or the policy records
    /// nothing.
    fn take_trace(&mut self) -> Option<sbs_obs::PolicyTrace> {
        None
    }
}

/// Blanket impl so `&mut P` can be passed where a policy is expected.
impl<P: Policy + ?Sized> Policy for &mut P {
    fn name(&self) -> String {
        (**self).name()
    }
    fn decide(&mut self, ctx: &SchedContext<'_>) -> Vec<JobId> {
        (**self).decide(ctx)
    }
    fn set_tracing(&mut self, on: bool) {
        (**self).set_tracing(on)
    }
    fn take_trace(&mut self) -> Option<sbs_obs::PolicyTrace> {
        (**self).take_trace()
    }
}

/// Blanket impl for boxed policies (trait objects).
impl<P: Policy + ?Sized> Policy for Box<P> {
    fn name(&self) -> String {
        (**self).name()
    }
    fn decide(&mut self, ctx: &SchedContext<'_>) -> Vec<JobId> {
        (**self).decide(ctx)
    }
    fn set_tracing(&mut self, on: bool) {
        (**self).set_tracing(on)
    }
    fn take_trace(&mut self) -> Option<sbs_obs::PolicyTrace> {
        (**self).take_trace()
    }
}

/// The simplest useful policy: strict FCFS **without** backfill — start
/// the head of the queue whenever it fits, never look past it.
///
/// Not evaluated in the paper (it is dominated by FCFS-backfill) but
/// invaluable as a known-simple baseline in tests.
#[derive(Debug, Default, Clone)]
pub struct StrictFcfs;

impl Policy for StrictFcfs {
    fn name(&self) -> String {
        "FCFS (no backfill)".into()
    }

    fn decide(&mut self, ctx: &SchedContext<'_>) -> Vec<JobId> {
        let mut free = ctx.free_nodes;
        let mut starts = Vec::new();
        for w in ctx.queue {
            if w.job.nodes <= free {
                free -= w.job.nodes;
                starts.push(w.job.id);
            } else {
                break; // strict order: never skip the head
            }
        }
        starts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbs_workload::time::HOUR;

    fn waiting(id: u32, submit: Time, nodes: u32, r_star: Time) -> WaitingJob {
        WaitingJob {
            job: Job::new(JobId(id), submit, nodes, r_star, r_star),
            r_star,
        }
    }

    #[test]
    fn xfactor_is_bounded_slowdown_of_current_wait() {
        let w = waiting(1, 0, 1, HOUR);
        assert_eq!(w.xfactor(HOUR), 2.0);
        assert_eq!(w.xfactor(0), 1.0);
    }

    #[test]
    fn longest_wait_is_the_dynamic_bound() {
        let queue = [waiting(1, 50, 1, HOUR), waiting(2, 20, 1, HOUR)];
        let ctx = SchedContext {
            now: 100,
            capacity: 4,
            free_nodes: 4,
            queue: &queue,
            running: &[],
        };
        assert_eq!(ctx.longest_wait(), 80);
    }

    #[test]
    fn strict_fcfs_never_skips_the_head() {
        let queue = [waiting(1, 0, 4, HOUR), waiting(2, 1, 1, HOUR)];
        let ctx = SchedContext {
            now: 10,
            capacity: 4,
            free_nodes: 2, // head does not fit, second would
            queue: &queue,
            running: &[],
        };
        assert_eq!(StrictFcfs.decide(&ctx), Vec::<JobId>::new());
    }

    #[test]
    fn strict_fcfs_starts_prefix_that_fits() {
        let queue = [
            waiting(1, 0, 2, HOUR),
            waiting(2, 1, 1, HOUR),
            waiting(3, 2, 4, HOUR),
        ];
        let ctx = SchedContext {
            now: 10,
            capacity: 4,
            free_nodes: 4,
            queue: &queue,
            running: &[],
        };
        assert_eq!(StrictFcfs.decide(&ctx), vec![JobId(1), JobId(2)]);
    }
}
