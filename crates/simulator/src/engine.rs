//! The discrete-event simulation loop.
//!
//! Faithful to the paper's methodology (Section 4):
//!
//! * the scheduler runs at every job **arrival and departure** (decision
//!   points);
//! * jobs are non-preemptible and rigid;
//! * each monthly simulation includes a warm-up and cool-down period;
//!   statistics cover only jobs submitted inside the measurement window;
//! * the scheduler plans with `R*` (actual or requested runtime); the
//!   simulated machine of course runs jobs for their *actual* runtime.
//!
//! The engine cross-checks every policy decision (jobs must be queued,
//! node demand must fit) and asserts that the simulation drains — a
//! policy that strands jobs is a bug, loudly.

use crate::core::SchedulerCore;
use crate::policy::Policy;
use crate::record::JobRecord;
use crate::tracelog::DecisionLog;
use sbs_workload::generator::Workload;
use sbs_workload::job::RuntimeKnowledge;
use sbs_workload::time::Time;

/// Simulation options.
#[derive(Debug)]
pub struct SimConfig {
    /// Runtime knowledge mode: `R* = T` (paper default) or `R* = R`
    /// (Section 6.4).
    pub knowledge: RuntimeKnowledge,
    /// Record one [`DecisionRecord`] per decision point in
    /// [`SimResult::decision_log`] (off by default; costs memory
    /// proportional to the number of events).
    pub log_decisions: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            knowledge: RuntimeKnowledge::Actual,
            log_decisions: false,
        }
    }
}

/// Output of one simulation run.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Name of the policy that produced this run.
    pub policy: String,
    /// One record per completed job (including warm-up/cool-down jobs,
    /// flagged via [`JobRecord::in_window`]).
    pub records: Vec<JobRecord>,
    /// The measurement window.
    pub window: (Time, Time),
    /// Machine size.
    pub capacity: u32,
    /// Number of decision points executed.
    pub decisions: u64,
    /// Time-weighted average queue length over the window (Fig. 4(d)).
    pub avg_queue_length: f64,
    /// Node utilization over the window: busy node-time / capacity.
    pub utilization: f64,
    /// Wall-clock nanoseconds spent inside `Policy::decide` (scheduling
    /// overhead; the paper reports 30-65 ms per decision for 1K-8K
    /// nodes).
    pub policy_nanos: u64,
    /// Per-decision log when [`SimConfig::log_decisions`] was set.
    pub decision_log: Option<DecisionLog>,
}

impl SimResult {
    /// Iterates the in-window records (the ones statistics are over).
    pub fn in_window(&self) -> impl Iterator<Item = &JobRecord> {
        self.records.iter().filter(|r| r.in_window)
    }
}

/// Runs `policy` over `workload` and returns the per-job records and
/// aggregate counters.
///
/// # Panics
///
/// Panics on any policy protocol violation: starting an unknown or
/// already-started job, over-committing nodes, or leaving jobs unstarted
/// when the simulation drains.
pub fn simulate(workload: &Workload, policy: impl Policy, cfg: SimConfig) -> SimResult {
    simulate_traced(workload, policy, cfg, &mut sbs_obs::NullRecorder)
}

/// [`simulate`] with a telemetry recorder: every decision point is also
/// folded into `recorder` (see [`SchedulerCore::decide_traced`]).  The
/// policy's own tracing is switched to the recorder's enabled state up
/// front, so a [`sbs_obs::NullRecorder`] makes this identical to
/// [`simulate`] — same schedule, no trace-assembly cost.
///
/// # Panics
///
/// As [`simulate`].
pub fn simulate_traced(
    workload: &Workload,
    mut policy: impl Policy,
    cfg: SimConfig,
    recorder: &mut dyn sbs_obs::Recorder,
) -> SimResult {
    let (w0, w1) = workload.window;
    policy.set_tracing(recorder.enabled());
    let mut core = SchedulerCore::new(workload.capacity, cfg.knowledge, workload.window);
    let mut next_arrival = 0usize;
    let mut decision_log = cfg.log_decisions.then(DecisionLog::default);
    let mut queue_area: u128 = 0;
    let mut last_t: Time = 0;

    loop {
        let arrival_t = workload.jobs.get(next_arrival).map(|j| j.submit);
        let departure_t = core.next_departure();
        let now = match (arrival_t, departure_t) {
            (Some(a), Some(d)) => a.min(d),
            (Some(a), None) => a,
            (None, Some(d)) => d,
            (None, None) => break,
        };

        // Time-weighted queue length, clipped to the window.
        let lo = last_t.max(w0);
        let hi = now.min(w1);
        if hi > lo {
            queue_area += core.queue().len() as u128 * hi.saturating_sub(lo) as u128;
        }
        core.advance_to(now);
        last_t = now;

        // Departures first (free the nodes), then arrivals, then decide.
        core.complete_due();
        while let Some(job) = workload.jobs.get(next_arrival) {
            if job.submit != now {
                break;
            }
            next_arrival += 1;
            core.submit(*job);
        }
        core.decide_traced(&mut policy, decision_log.as_mut(), recorder);
    }

    assert!(
        core.queue().is_empty(),
        "policy stranded {} jobs in the queue",
        core.queue().len()
    );
    assert!(core.running().is_empty(), "running set not drained");
    let (mut records, decisions, policy_nanos) = core.finish();
    assert_eq!(records.len(), workload.jobs.len(), "lost job records");
    records.sort_by_key(|r| (r.submit, r.id));

    // Utilization over the window, exact from the records.
    let busy: u128 = records
        .iter()
        .map(|r| {
            let lo = r.start.max(w0);
            let hi = r.end.min(w1);
            if hi > lo {
                hi.saturating_sub(lo) as u128 * r.nodes as u128
            } else {
                0
            }
        })
        .sum();
    let window_len = (w1 - w0) as u128;
    let utilization = if window_len > 0 {
        busy as f64 / (window_len * workload.capacity as u128) as f64
    } else {
        0.0
    };
    let avg_queue_length = if window_len > 0 {
        queue_area as f64 / window_len as f64
    } else {
        0.0
    };

    SimResult {
        policy: policy.name(),
        records,
        window: (w0, w1),
        capacity: workload.capacity,
        decisions,
        avg_queue_length,
        utilization,
        policy_nanos,
        decision_log,
    }
}

/// Asserts the physical invariants every correct simulation satisfies.
/// Exposed so integration and property tests can validate any policy's
/// output in one call.
///
/// Checks: starts never precede submits, completions are exact
/// (`end = start + runtime`), and the node capacity is never exceeded at
/// any instant.
pub fn check_invariants(result: &SimResult) {
    for r in &result.records {
        assert!(r.start >= r.submit, "{}: started before submit", r.id);
        assert_eq!(
            r.end,
            r.start + r.runtime,
            "{}: preempted or stretched",
            r.id
        );
        assert!(r.nodes <= result.capacity, "{}: wider than machine", r.id);
    }
    // Capacity at every start/end boundary via an event sweep.
    let mut events: Vec<(Time, i64)> = Vec::with_capacity(result.records.len() * 2);
    for r in &result.records {
        events.push((r.start, r.nodes as i64));
        events.push((r.end, -(r.nodes as i64)));
    }
    events.sort();
    let mut busy = 0i64;
    for (t, delta) in events {
        busy += delta;
        assert!(
            busy <= result.capacity as i64,
            "capacity exceeded at t={t}: {busy} > {}",
            result.capacity
        );
        assert!(busy >= 0, "negative occupancy at t={t}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{SchedContext, StrictFcfs};
    use sbs_workload::generator::{random_workload, RandomWorkloadCfg};
    use sbs_workload::job::{Job, JobId};
    use sbs_workload::time::HOUR;

    fn tiny_workload(jobs: Vec<Job>, capacity: u32) -> Workload {
        let end = jobs.iter().map(|j| j.submit).max().unwrap_or(0) + 1;
        Workload {
            jobs,
            capacity,
            window: (0, end),
            runtime_limit: 24 * HOUR,
            month: None,
        }
    }

    #[test]
    fn single_job_runs_immediately() {
        let w = tiny_workload(vec![Job::new(JobId(0), 100, 4, HOUR, HOUR)], 8);
        let r = simulate(&w, StrictFcfs, SimConfig::default());
        check_invariants(&r);
        assert_eq!(r.records.len(), 1);
        assert_eq!(r.records[0].start, 100);
        assert_eq!(r.records[0].end, 100 + HOUR);
        assert_eq!(r.records[0].wait(), 0);
    }

    #[test]
    fn contention_queues_second_job() {
        let w = tiny_workload(
            vec![
                Job::new(JobId(0), 0, 8, HOUR, HOUR),
                Job::new(JobId(1), 10, 8, HOUR, HOUR),
            ],
            8,
        );
        let r = simulate(&w, StrictFcfs, SimConfig::default());
        check_invariants(&r);
        assert_eq!(r.records[1].start, HOUR);
        assert_eq!(r.records[1].wait(), HOUR - 10);
    }

    #[test]
    fn decision_points_are_arrivals_and_departures() {
        let w = tiny_workload(
            vec![
                Job::new(JobId(0), 0, 1, HOUR, HOUR),
                Job::new(JobId(1), 50, 1, HOUR, HOUR),
            ],
            8,
        );
        let r = simulate(&w, StrictFcfs, SimConfig::default());
        // 2 arrivals + 2 distinct departures = 4 decision points.
        assert_eq!(r.decisions, 4);
    }

    #[test]
    fn simultaneous_events_share_one_decision_point() {
        let w = tiny_workload(
            vec![
                Job::new(JobId(0), 0, 1, 100, 100),
                Job::new(JobId(1), 100, 1, 100, 100), // arrives as job 0 departs
            ],
            8,
        );
        let r = simulate(&w, StrictFcfs, SimConfig::default());
        assert_eq!(r.decisions, 3);
        // Departure processed before arrival: job 1 sees the free node.
        assert_eq!(r.records[1].wait(), 0);
    }

    #[test]
    fn window_filtering_marks_warmup_jobs() {
        let mut w = tiny_workload(
            vec![
                Job::new(JobId(0), 0, 1, 100, 100),
                Job::new(JobId(1), 2_000, 1, 100, 100),
            ],
            8,
        );
        w.window = (1_000, 3_000);
        let r = simulate(&w, StrictFcfs, SimConfig::default());
        assert!(!r.records[0].in_window);
        assert!(r.records[1].in_window);
        assert_eq!(r.in_window().count(), 1);
    }

    #[test]
    fn requested_knowledge_sets_predictions_not_actuals() {
        let w = tiny_workload(vec![Job::new(JobId(0), 0, 4, HOUR, 4 * HOUR)], 8);
        let r = simulate(
            &w,
            StrictFcfs,
            SimConfig {
                knowledge: RuntimeKnowledge::Requested,
                ..Default::default()
            },
        );
        // The job still *runs* for its actual runtime.
        assert_eq!(r.records[0].end, HOUR);
    }

    #[test]
    fn utilization_and_queue_length_account_the_window() {
        // One 8-node, 1000 s job on an 8-node machine, window 0..2000:
        // utilization 50%; queue is always empty.
        let w = tiny_workload(vec![Job::new(JobId(0), 0, 8, 1_000, 1_000)], 8);
        let mut w = w;
        w.window = (0, 2_000);
        let r = simulate(&w, StrictFcfs, SimConfig::default());
        assert!((r.utilization - 0.5).abs() < 1e-9);
        assert_eq!(r.avg_queue_length, 0.0);
    }

    #[test]
    fn queue_length_is_time_weighted() {
        // Machine busy 0..1000 with job 0; job 1 waits 500..1000 (half
        // the window) => average queue length 0.5.
        let mut w = tiny_workload(
            vec![
                Job::new(JobId(0), 0, 8, 1_000, 1_000),
                Job::new(JobId(1), 500, 8, 1_000, 1_000),
            ],
            8,
        );
        w.window = (0, 1_000);
        let r = simulate(&w, StrictFcfs, SimConfig::default());
        assert!(
            (r.avg_queue_length - 0.5).abs() < 1e-9,
            "got {}",
            r.avg_queue_length
        );
    }

    #[test]
    fn decision_log_captures_every_decision_point() {
        let w = tiny_workload(
            vec![
                Job::new(JobId(0), 0, 8, 1_000, 1_000),
                Job::new(JobId(1), 500, 8, 1_000, 1_000),
            ],
            8,
        );
        let cfg = SimConfig {
            log_decisions: true,
            ..Default::default()
        };
        let r = simulate(&w, StrictFcfs, cfg);
        let log = r.decision_log.expect("logging enabled");
        assert_eq!(log.len() as u64, r.decisions);
        // Job 1 arrives while the machine is full: an unproductive
        // decision with zero free nodes (not idle-blocked).
        assert_eq!(log.idle_blocked(), 0);
        assert_eq!(log.productive(), 2);
        assert_eq!(log.peak_queue().expect("non-empty").1, 1);
        // Off by default.
        let r = simulate(&w, StrictFcfs, SimConfig::default());
        assert!(r.decision_log.is_none());
    }

    #[test]
    fn random_workloads_preserve_invariants() {
        for seed in 0..8 {
            let w = random_workload(RandomWorkloadCfg::default(), seed);
            let r = simulate(&w, StrictFcfs, SimConfig::default());
            check_invariants(&r);
            assert_eq!(r.records.len(), w.jobs.len());
        }
    }

    /// A policy that tries to start a job twice — must panic.
    struct DoubleStart;
    impl Policy for DoubleStart {
        fn name(&self) -> String {
            "double-start".into()
        }
        fn decide(&mut self, ctx: &SchedContext<'_>) -> Vec<JobId> {
            ctx.queue
                .iter()
                .flat_map(|w| [w.job.id, w.job.id])
                .collect()
        }
    }

    #[test]
    #[should_panic(expected = "non-queued job")]
    fn double_start_is_rejected() {
        let w = tiny_workload(vec![Job::new(JobId(0), 0, 1, 100, 100)], 8);
        let _ = simulate(&w, DoubleStart, SimConfig::default());
    }

    /// A policy that never starts anything — must be caught as stranding.
    struct DoNothing;
    impl Policy for DoNothing {
        fn name(&self) -> String {
            "do-nothing".into()
        }
        fn decide(&mut self, _: &SchedContext<'_>) -> Vec<JobId> {
            Vec::new()
        }
    }

    #[test]
    #[should_panic(expected = "stranded")]
    fn stranding_jobs_is_rejected() {
        let w = tiny_workload(vec![Job::new(JobId(0), 0, 1, 100, 100)], 8);
        let _ = simulate(&w, DoNothing, SimConfig::default());
    }
}
