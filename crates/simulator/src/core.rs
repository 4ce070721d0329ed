//! The reusable decision-point state machine.
//!
//! [`SchedulerCore`] owns everything the scheduler's world consists of —
//! the machine ([`Cluster`]), the wait queue, the departure calendar,
//! completed-job records and the decision counters — and exposes the
//! event-level operations the paper's methodology is built from:
//! advance time, absorb departures, submit arrivals, run one scheduling
//! decision.
//!
//! Two drivers share it:
//!
//! * [`crate::engine::simulate`] replays a whole workload against a
//!   virtual clock (batch mode, every experiment in the paper);
//! * the `sbs-service` daemon feeds it live submissions against either a
//!   virtual or a wall clock (online mode).
//!
//! Keeping the state transitions in one place is what makes the
//! daemon-vs-batch parity test meaningful: both modes execute literally
//! the same code for every decision point.

use crate::cluster::Cluster;
use crate::policy::{Policy, SchedContext, WaitingJob};
use crate::record::JobRecord;
use crate::tracelog::{DecisionLog, DecisionRecord};
use sbs_workload::job::{Job, JobId, RuntimeKnowledge};
use sbs_workload::time::Time;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The scheduler's complete world state between decision points.
pub struct SchedulerCore {
    cluster: Cluster,
    queue: Vec<WaitingJob>,
    /// Σ nodes × requested runtime over `queue`, kept at each queue edit
    /// (wrapping, so it is exactly the sum whenever that fits in a u64).
    queued_node_seconds: u64,
    /// Departures as (actual end, job id); ids make ties deterministic.
    departures: BinaryHeap<Reverse<(Time, u32)>>,
    records: Vec<JobRecord>,
    window: (Time, Time),
    decisions: u64,
    policy_nanos: u64,
    now: Time,
    knowledge: RuntimeKnowledge,
    /// Correlation id of the request driving the next decision (`0` =
    /// not request-scoped; batch simulation never sets it).
    corr: u64,
}

impl SchedulerCore {
    /// An empty machine of `capacity` nodes at time 0.
    ///
    /// `window` is the measurement window stamped onto job records
    /// (`in_window`); use `(0, Time::MAX)` when everything counts.
    pub fn new(capacity: u32, knowledge: RuntimeKnowledge, window: (Time, Time)) -> Self {
        SchedulerCore {
            cluster: Cluster::new(capacity),
            queue: Vec::new(),
            queued_node_seconds: 0,
            departures: BinaryHeap::new(),
            records: Vec::new(),
            window,
            decisions: 0,
            policy_nanos: 0,
            now: 0,
            knowledge,
            corr: 0,
        }
    }

    /// Sets the correlation id stamped onto subsequent decision traces.
    /// The daemon calls this once per protocol request; batch
    /// simulation leaves it 0, which keeps virtual-mode trace bytes
    /// unchanged.
    pub fn set_correlation(&mut self, corr: u64) {
        self.corr = corr;
    }

    /// Current scheduler time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Machine size.
    pub fn capacity(&self) -> u32 {
        self.cluster.capacity()
    }

    /// Currently free nodes.
    pub fn free_nodes(&self) -> u32 {
        self.cluster.free_nodes()
    }

    /// The wait queue, in submission order.
    pub fn queue(&self) -> &[WaitingJob] {
        &self.queue
    }

    /// Waiting demand in node-seconds: each queued job's nodes ×
    /// requested runtime, summed.  O(1): the sum is kept as the queue
    /// changes.
    pub fn queued_node_seconds(&self) -> u64 {
        self.queued_node_seconds
    }

    /// The running set.
    pub fn running(&self) -> &[crate::cluster::RunningJob] {
        self.cluster.running()
    }

    /// Hands out the completed-job records not yet taken, in completion
    /// order, and forgets them: an online driver folds each one and keeps
    /// no history.  A batch run never calls this, so [`Self::finish`]
    /// returns every record.
    pub fn drain_records(&mut self) -> std::vec::Drain<'_, JobRecord> {
        self.records.drain(..)
    }

    /// Decision points executed so far.
    pub fn decisions(&self) -> u64 {
        self.decisions
    }

    /// Wall-clock nanoseconds spent inside `Policy::decide` so far.
    pub fn policy_nanos(&self) -> u64 {
        self.policy_nanos
    }

    /// Earliest scheduled departure, if any job is running.
    pub fn next_departure(&self) -> Option<Time> {
        self.departures.peek().map(|Reverse((t, _))| *t)
    }

    /// Advances the clock to `t` (monotone).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `t` is in the past.
    pub fn advance_to(&mut self, t: Time) {
        debug_assert!(t >= self.now, "time went backwards: {t} < {}", self.now);
        self.now = t;
    }

    /// Completes every job whose departure time equals the current time,
    /// freeing nodes and appending records.
    /// Returns how many jobs finished.
    pub fn complete_due(&mut self) -> usize {
        let mut finished = 0;
        while let Some(&Reverse((t, id))) = self.departures.peek() {
            if t != self.now {
                break;
            }
            self.departures.pop();
            let done = self.cluster.finish(JobId(id));
            let (w0, w1) = self.window;
            self.records.push(JobRecord {
                id: done.job.id,
                submit: done.job.submit,
                start: done.start,
                end: self.now,
                nodes: done.job.nodes,
                runtime: done.job.runtime,
                requested: done.job.requested,
                r_star: done.pred_end.saturating_sub(done.start),
                user: done.job.user,
                in_window: done.job.submit >= w0 && done.job.submit < w1,
            });
            finished += 1;
        }
        finished
    }

    /// Enqueues `job`, deriving `R*` from the knowledge mode.  The job's
    /// `submit` field is trusted as its submission time.
    pub fn submit(&mut self, job: Job) {
        let r_star = job.r_star(self.knowledge);
        self.enqueue(WaitingJob { job, r_star });
    }

    /// Removes a waiting job from the queue.  Returns the job if it was
    /// queued; running or unknown jobs are untouched (`None`).
    pub fn cancel(&mut self, id: JobId) -> Option<Job> {
        let idx = self.queue.iter().position(|w| w.job.id == id)?;
        Some(self.dequeue(idx).job)
    }

    /// Appends `w` to the queue, adding its demand.
    fn enqueue(&mut self, w: WaitingJob) {
        self.queued_node_seconds = self.queued_node_seconds.wrapping_add(demand(&w.job));
        self.queue.push(w);
    }

    /// Removes the queue entry at `idx`, subtracting its demand.
    fn dequeue(&mut self, idx: usize) -> WaitingJob {
        let w = self.queue.remove(idx);
        self.queued_node_seconds = self.queued_node_seconds.wrapping_sub(demand(&w.job));
        w
    }

    /// Runs one decision point: snapshots the context, calls the policy,
    /// validates and applies its starts, and schedules their departures.
    /// Returns the started job ids, in the policy's start order.
    ///
    /// # Panics
    ///
    /// Panics if the policy starts a job that is not queued or that does
    /// not fit in the free nodes — a policy bug, loudly.
    pub fn decide<P: Policy + ?Sized>(
        &mut self,
        policy: &mut P,
        log: Option<&mut DecisionLog>,
    ) -> Vec<JobId> {
        self.decide_traced(policy, log, &mut sbs_obs::NullRecorder)
    }

    /// [`Self::decide`] with a telemetry recorder: when the recorder is
    /// enabled, one [`sbs_obs::DecisionTrace`] (pre-start queue/machine
    /// snapshot plus the policy's own telemetry) is folded into it per
    /// decision.  With a [`sbs_obs::NullRecorder`] this is `decide`.
    ///
    /// # Panics
    ///
    /// As [`Self::decide`]: panics on a policy starting a non-queued or
    /// non-fitting job.
    pub fn decide_traced<P: Policy + ?Sized>(
        &mut self,
        policy: &mut P,
        log: Option<&mut DecisionLog>,
        recorder: &mut dyn sbs_obs::Recorder,
    ) -> Vec<JobId> {
        self.decisions += 1;
        let ctx = SchedContext {
            now: self.now,
            capacity: self.cluster.capacity(),
            free_nodes: self.cluster.free_nodes(),
            queue: &self.queue,
            running: self.cluster.by_predicted_end(),
        };
        #[expect(
            clippy::disallowed_methods,
            reason = "policy-latency telemetry only; the measurement is reported, never read back into a scheduling decision"
        )]
        let t0 = std::time::Instant::now();
        let starts = policy.decide(&ctx);
        #[expect(
            clippy::cast_possible_truncation,
            reason = "one decision takes far less than 584 years of nanoseconds"
        )]
        let elapsed_ns = t0.elapsed().as_nanos() as u64;
        self.policy_nanos += elapsed_ns;
        if let Some(log) = log {
            log.records.push(DecisionRecord {
                now: self.now,
                queue_len: self.queue.len(),
                running: self.cluster.running().len(),
                free_nodes: self.cluster.free_nodes(),
                started: starts.clone(),
            });
        }
        if recorder.enabled() {
            let clamp = |n: usize| u32::try_from(n).unwrap_or(u32::MAX);
            recorder.record_decision(sbs_obs::DecisionTrace {
                seq: self.decisions,
                now: self.now,
                queue_depth: clamp(self.queue.len()),
                running: clamp(self.cluster.running().len()),
                free_nodes: self.cluster.free_nodes(),
                started: starts.iter().map(|id| id.0).collect(),
                policy: policy.take_trace(),
                // The recorder drops this in virtual mode; see
                // `sbs_obs::TimeMode`.
                wall_ns: elapsed_ns,
                corr: self.corr,
            });
        }
        for &id in &starts {
            let idx = self
                .queue
                .iter()
                .position(|w| w.job.id == id)
                .unwrap_or_else(|| panic!("policy started non-queued job {id}"));
            let w = self.dequeue(idx);
            self.cluster.start(w.job, self.now, w.r_star); // panics if over-committed
            self.departures
                .push(Reverse((self.now + w.job.runtime, w.job.id.0)));
        }
        starts
    }

    /// Recovery: restores a waiting job exactly as snapshotted (its `R*`
    /// is preserved rather than re-derived, so a restart cannot change
    /// what the scheduler believes about it).
    pub fn restore_waiting(&mut self, job: Job, r_star: Time) {
        self.enqueue(WaitingJob { job, r_star });
    }

    /// Recovery: re-admits a job that was running when the snapshot was
    /// taken, at its original start and predicted end, and re-schedules
    /// its departure at the original completion time.
    ///
    /// # Panics
    ///
    /// Panics if the job does not fit (a corrupt or foreign snapshot).
    pub fn restore_running(&mut self, job: Job, start: Time, pred_end: Time) {
        self.cluster.admit(job, start, pred_end);
        self.departures
            .push(Reverse((start.saturating_add(job.runtime), job.id.0)));
    }

    /// Tears the core down into `(records, decisions, policy_nanos)`.
    pub fn finish(self) -> (Vec<JobRecord>, u64, u64) {
        (self.records, self.decisions, self.policy_nanos)
    }
}

/// One job's demand: nodes × requested runtime, in node-seconds.
fn demand(job: &Job) -> u64 {
    u64::from(job.nodes).saturating_mul(job.requested)
}

impl std::fmt::Debug for SchedulerCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SchedulerCore")
            .field("now", &self.now)
            .field("queued", &self.queue.len())
            .field("running", &self.cluster.running().len())
            .field("free_nodes", &self.cluster.free_nodes())
            .field("decisions", &self.decisions)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::StrictFcfs;
    use sbs_workload::time::HOUR;

    fn job(id: u32, submit: Time, nodes: u32, runtime: Time) -> Job {
        Job::new(JobId(id), submit, nodes, runtime, runtime)
    }

    #[test]
    fn submit_decide_complete_round_trip() {
        let mut core = SchedulerCore::new(8, RuntimeKnowledge::Actual, (0, Time::MAX));
        core.submit(job(0, 0, 4, HOUR));
        let started = core.decide(&mut StrictFcfs, None);
        assert_eq!(started, vec![JobId(0)]);
        assert_eq!(core.free_nodes(), 4);
        assert_eq!(core.next_departure(), Some(HOUR));
        core.advance_to(HOUR);
        assert_eq!(core.complete_due(), 1);
        let records: Vec<JobRecord> = core.drain_records().collect();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].start, 0);
        assert_eq!(core.drain_records().count(), 0, "taken records are gone");
        assert_eq!(core.free_nodes(), 8);
    }

    #[test]
    fn cancel_removes_only_queued_jobs() {
        let mut core = SchedulerCore::new(2, RuntimeKnowledge::Actual, (0, Time::MAX));
        core.submit(job(0, 0, 2, HOUR));
        core.submit(job(1, 0, 2, HOUR));
        core.decide(&mut StrictFcfs, None); // job 0 starts, job 1 waits
        assert!(core.cancel(JobId(0)).is_none(), "running: not cancellable");
        assert_eq!(core.cancel(JobId(1)).map(|j| j.id), Some(JobId(1)));
        assert!(core.cancel(JobId(1)).is_none(), "already gone");
        assert!(core.queue().is_empty());
    }

    #[test]
    fn restore_reproduces_the_departure_calendar() {
        let mut core = SchedulerCore::new(8, RuntimeKnowledge::Actual, (0, Time::MAX));
        core.advance_to(500);
        core.restore_running(job(7, 0, 3, 2 * HOUR), 100, 100 + 2 * HOUR);
        core.restore_waiting(job(8, 400, 2, HOUR), HOUR);
        assert_eq!(core.free_nodes(), 5);
        assert_eq!(core.next_departure(), Some(100 + 2 * HOUR));
        assert_eq!(core.queue().len(), 1);
        assert_eq!(core.queue()[0].r_star, HOUR);
        // The restored world keeps scheduling normally.
        core.advance_to(100 + 2 * HOUR);
        assert_eq!(core.complete_due(), 1);
        let started = core.decide(&mut StrictFcfs, None);
        assert_eq!(started, vec![JobId(8)]);
    }

    /// Starts every queued job that fits, in queue order: unlike strict
    /// FCFS it takes jobs out of the middle of the queue.
    struct FirstFit;
    impl Policy for FirstFit {
        fn name(&self) -> String {
            "first-fit".into()
        }
        fn decide(&mut self, ctx: &SchedContext<'_>) -> Vec<JobId> {
            let mut free = ctx.free_nodes;
            let mut starts = Vec::new();
            for w in ctx.queue {
                if w.job.nodes <= free {
                    free -= w.job.nodes;
                    starts.push(w.job.id);
                }
            }
            starts
        }
    }

    proptest::proptest! {
        /// Under random submit / cancel / decide / restore sequences the
        /// kept demand equals the sum recomputed over the queue after
        /// every step.
        #[test]
        fn queued_node_seconds_tracks_the_queue(
            ops in proptest::collection::vec((0u8..4, 0u32..64, 1u32..17, 1u64..5), 1..80),
        ) {
            let mut core = SchedulerCore::new(16, RuntimeKnowledge::Actual, (0, Time::MAX));
            let mut next_id = 0;
            for (kind, pick, nodes, hours) in ops {
                let fresh = Job::new(JobId(next_id), core.now(), nodes, hours * HOUR, 2 * hours * HOUR);
                match kind {
                    0 => {
                        core.submit(fresh);
                        next_id += 1;
                    }
                    1 => {
                        core.cancel(JobId(pick % (next_id + 1)));
                    }
                    2 => {
                        if let Some(t) = core.next_departure() {
                            core.advance_to(t);
                            core.complete_due();
                        }
                        core.decide(&mut FirstFit, None);
                    }
                    _ => {
                        core.restore_waiting(fresh, hours * HOUR);
                        next_id += 1;
                    }
                }
                let recomputed: u64 = core
                    .queue()
                    .iter()
                    .map(|w| u64::from(w.job.nodes) * w.job.requested)
                    .sum();
                proptest::prop_assert_eq!(core.queued_node_seconds(), recomputed);
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-queued")]
    fn foreign_starts_are_rejected() {
        let mut core = SchedulerCore::new(8, RuntimeKnowledge::Actual, (0, Time::MAX));
        struct Rogue;
        impl Policy for Rogue {
            fn name(&self) -> String {
                "rogue".into()
            }
            fn decide(&mut self, _: &SchedContext<'_>) -> Vec<JobId> {
                vec![JobId(99)]
            }
        }
        core.decide(&mut Rogue, None);
    }
}
