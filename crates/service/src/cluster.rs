//! One cluster's scheduler world.
//!
//! [`Cluster`] wraps a [`SchedulerCore`] and any [`PolicySpec`]: the
//! state machine, the policy, the decision recorder, completed-job
//! aggregates, snapshots, and the slow-decision incident ring — and the
//! body of every tenant-scoped protocol op ([`Cluster::handle`]).  It is
//! deliberately clock-agnostic: every entry point takes the current
//! scheduler time as an argument, so the same code runs under a wall
//! clock (production) and a virtual clock (tests, and the
//! daemon-vs-batch parity suite).
//!
//! A cluster owns nothing of the *serving edge* — no event journal, no
//! correlation source, no request-latency histogram (see
//! [`crate::edge`]).  The fleet front end (`sbs-fleet`, which is
//! what `sbs serve` runs) stores bare clusters behind its one edge.
//!
//! ## Parity with the batch simulator
//!
//! The batch engine groups events per timestamp: all departures at `t`
//! complete, then all arrivals at `t` join the queue, then the policy
//! runs *once*.  The cluster reproduces exactly that grouping for its
//! live submissions: a submission at time `t` first replays every
//! pending departure strictly before `t` (each its own decision point),
//! then advances to `t`, completes departures due at `t`, enqueues the
//! job, and runs one decision.  Because both drivers execute
//! [`SchedulerCore`] for every transition, a virtual-clock cluster fed a
//! workload one job at a time produces byte-identical schedules to
//! [`sbs_sim::simulate`] (see the fleet crate's e2e tests).

use crate::edge::op_event;
use crate::metrics::tenant_text;
use crate::protocol::{error_response, Request, SubmitSpec};
use crate::snapshot::{RunningEntry, Snapshot, WaitingEntry};
use crate::witness;
use sbs_core::PolicySpec;
use sbs_obs::{DecisionTrace, ObsConfig, Tally, TimeMode, TraceMeta, TraceRecorder};
use sbs_sim::{Policy, SchedulerCore};
use sbs_workload::job::{Job, JobId, RuntimeKnowledge};
use sbs_workload::time::Time;
use serde_json::{json, Value};
use std::collections::VecDeque;
use std::path::PathBuf;
use std::time::Duration;

/// One cluster's configuration.  The fleet builds one per tenant from
/// its own config (`tenant_config`).
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Machine size in nodes.
    pub capacity: u32,
    /// The scheduling policy to run.
    pub spec: PolicySpec,
    /// Runtime-knowledge mode for deriving `R*` (paper default: actual).
    pub knowledge: RuntimeKnowledge,
    /// Per-decision wall-clock deadline for search policies (anytime
    /// search); ignored by heuristic policies.
    pub deadline: Option<Duration>,
    /// Where to write snapshots; `None` disables persistence.  When to
    /// write is the caller's call (the fleet's `snapshot_every`); see
    /// [`Cluster::unsnapshotted`].
    pub snapshot_path: Option<PathBuf>,
    /// Append `sbs-trace/v1` JSONL decision traces here; `None` keeps
    /// telemetry in memory only.
    pub trace_log: Option<PathBuf>,
    /// Slow-decision thresholds and the time mode incidents render in.
    pub obs: ObsConfig,
}

impl ServiceConfig {
    /// A config with the workspace defaults.
    pub fn new(capacity: u32, spec: PolicySpec) -> Self {
        ServiceConfig {
            capacity,
            spec,
            knowledge: RuntimeKnowledge::Actual,
            deadline: None,
            snapshot_path: None,
            trace_log: None,
            obs: ObsConfig::default(),
        }
    }
}

/// The former name of [`Cluster`], kept for its one user: the
/// `service.daemon.*` probe in `benchmark/src/fleet_steady.rs`.
pub type Daemon = Cluster;

/// Captured slow-decision incidents kept in memory (oldest evicted).
pub const INCIDENT_RING_CAPACITY: usize = 64;

/// One captured slow decision: what tripped the threshold and the full
/// decision trace (policy telemetry included).
#[derive(Debug, Clone, PartialEq)]
pub struct Incident {
    /// Human-readable trigger, e.g. `"wall_ns 1200000 >= 1000000"`.
    pub reason: String,
    /// The offending decision.
    pub decision: DecisionTrace,
}

impl Incident {
    /// Encodes for `sbs incidents` and `/statusz?incidents=1`.
    /// `include_wall` must be `false` under a virtual clock so the
    /// bytes stay run-to-run identical.
    pub fn to_value(&self, include_wall: bool) -> Value {
        json!({
            "reason": self.reason.as_str(),
            "decision": self.decision.to_value(include_wall),
        })
    }
}

/// Builds the policy `spec` names, tracing from the first decision (the
/// cluster always records: its recorder is its tally).  A search policy
/// gets the per-decision `deadline`; the others decide instantly.
fn build_policy(spec: &PolicySpec, deadline: Option<Duration>) -> Box<dyn Policy + Send> {
    let mut policy: Box<dyn Policy + Send> = match (spec.build_search(), deadline) {
        (Some(search), Some(d)) => Box::new(search.with_deadline(d)),
        _ => spec.build(),
    };
    policy.set_tracing(true);
    policy
}

/// One cluster's scheduler world (see the module docs).
pub struct Cluster {
    core: SchedulerCore,
    policy: Box<dyn Policy + Send>,
    /// The decision recorder, and through it the cluster's [`Tally`].
    recorder: TraceRecorder,
    cfg: ServiceConfig,
    next_id: u32,
    /// Decisions since the last rendered snapshot.
    unsnapshotted: u64,
    draining: bool,
    /// Captured slow decisions, oldest evicted beyond
    /// [`INCIDENT_RING_CAPACITY`].
    incidents: VecDeque<Incident>,
}

impl Cluster {
    /// Builds the cluster; recovers from `cfg.snapshot_path` when a
    /// snapshot exists there.
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn new(cfg: ServiceConfig) -> Result<Self, String> {
        witness::assert_no_shard("Cluster::new");
        match cfg.snapshot_path.as_ref().filter(|p| p.exists()) {
            Some(path) => {
                let snap = Snapshot::load(path)?;
                Self::from_snapshot(cfg.clone(), &snap)
            }
            None => Ok(Self::fresh(cfg)),
        }
    }

    /// Builds the cluster's wall-clock recorder, attaching the JSONL
    /// trace sink when one is configured.  Sink failures are reported
    /// and telemetry degrades to in-memory aggregation — a bad trace
    /// path must not stop the scheduler.
    fn build_recorder(cfg: &ServiceConfig, policy: &dyn Policy) -> TraceRecorder {
        let mut recorder = TraceRecorder::new(
            TimeMode::Wall,
            TraceMeta {
                mode: String::new(),
                policy: policy.name(),
                capacity: cfg.capacity,
                source: "daemon".into(),
            },
        );
        if let Some(path) = &cfg.trace_log {
            witness::assert_no_shard("the trace sink's open");
            let opened = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .and_then(|f| recorder.attach_sink(Box::new(f)));
            if let Err(e) = opened {
                eprintln!("trace log {} unavailable: {e}", path.display());
            }
        }
        recorder
    }

    /// A cluster starting from an empty machine at time 0.
    pub fn fresh(cfg: ServiceConfig) -> Self {
        let core = SchedulerCore::new(cfg.capacity, cfg.knowledge, (0, Time::MAX));
        Self::around(core, cfg, 0)
    }

    /// Rebuilds the cluster's world from a snapshot: waiting jobs re-queue
    /// with their recorded `R*`, running jobs re-admit at their original
    /// start (so reservations resume *remaining*, not restarted), and the
    /// id counter carries over.  The tally does not: every served count
    /// restarts at 0 with the process, as a Prometheus counter does.
    pub fn from_snapshot(cfg: ServiceConfig, snap: &Snapshot) -> Result<Self, String> {
        if snap.capacity != cfg.capacity {
            return Err(format!(
                "snapshot is for a {}-node machine, daemon configured for {}",
                snap.capacity, cfg.capacity
            ));
        }
        let mut core = SchedulerCore::new(cfg.capacity, cfg.knowledge, (0, Time::MAX));
        for r in &snap.running {
            core.restore_running(r.job, r.start, r.pred_end);
        }
        for w in &snap.waiting {
            core.restore_waiting(w.job, w.r_star);
        }
        core.advance_to(snap.now);
        Ok(Self::around(core, cfg, snap.next_id))
    }

    /// A cluster around `core` whose next job id is `next_id`.
    fn around(core: SchedulerCore, cfg: ServiceConfig, next_id: u32) -> Self {
        let policy = build_policy(&cfg.spec, cfg.deadline);
        let recorder = Self::build_recorder(&cfg, policy.as_ref());
        Cluster {
            core,
            policy,
            recorder,
            cfg,
            next_id,
            unsnapshotted: 0,
            draining: false,
            incidents: VecDeque::with_capacity(INCIDENT_RING_CAPACITY),
        }
    }

    /// Current scheduler time.
    pub fn now(&self) -> Time {
        self.core.now()
    }

    /// True once a drain or shutdown has stopped admissions.
    pub fn draining(&self) -> bool {
        self.draining
    }

    /// Folds freshly completed jobs into the tally and drops their
    /// records, counts the decision toward the snapshot cadence and
    /// checks it for an incident.  It writes nothing: the caller may
    /// hold a lock around the cluster.
    fn after_decision(&mut self) {
        let tally = self.recorder.tally_mut();
        for r in self.core.drain_records() {
            tally.complete(r.wait());
        }
        self.unsnapshotted += 1;
        self.capture_incident();
    }

    /// Checks the decision just recorded against the slow-decision
    /// thresholds and keeps it in the incident ring when it trips one.
    fn capture_incident(&mut self) {
        let wall_limit = self
            .cfg
            .obs
            .slow_wall_ms
            .map(|ms| ms.saturating_mul(1_000_000));
        let nodes_limit = self.cfg.obs.slow_nodes_left;
        if wall_limit.is_none() && nodes_limit.is_none() {
            return;
        }
        let Some(d) = self.recorder.last() else {
            return;
        };
        let nodes_left = d.search().map_or(0, |s| s.nodes_left_at_deadline);
        let mut reasons = Vec::new();
        if let Some(limit) = wall_limit.filter(|&l| d.wall_ns >= l) {
            reasons.push(format!("wall_ns {} >= {limit}", d.wall_ns));
        }
        if let Some(limit) = nodes_limit.filter(|&l| nodes_left >= l) {
            reasons.push(format!("nodes_left {nodes_left} >= {limit}"));
        }
        if !reasons.is_empty() {
            let incident = Incident {
                reason: reasons.join("; "),
                decision: d.clone(),
            };
            if self.incidents.len() == INCIDENT_RING_CAPACITY {
                self.incidents.pop_front();
            }
            self.incidents.push_back(incident);
            self.recorder.tally_mut().incidents += 1;
        }
    }

    /// Replays every pending departure strictly before `t`, each as its
    /// own decision point — exactly the batch engine's event grouping.
    fn run_until(&mut self, t: Time) {
        while let Some(d) = self.core.next_departure() {
            if d >= t {
                break;
            }
            self.core.advance_to(d);
            self.core.complete_due();
            self.core
                .decide_traced(self.policy.as_mut(), None, &mut self.recorder);
            self.after_decision();
        }
    }

    /// Advances the world to `t` with no new arrival: departures before
    /// `t` replay as usual, and departures exactly at `t` trigger one
    /// decision.  No-op when `t` is in the past.
    pub fn poll_to(&mut self, t: Time) {
        if t <= self.core.now() {
            return;
        }
        self.run_until(t);
        if t > self.core.now() {
            self.core.advance_to(t);
            if self.core.complete_due() > 0 {
                self.core
                    .decide_traced(self.policy.as_mut(), None, &mut self.recorder);
                self.after_decision();
            }
        }
    }

    /// Submits a job at time `at` (clamped to be monotone) and runs one
    /// decision point.  Returns the assigned id and whether the job
    /// started immediately.
    pub fn submit_at(
        &mut self,
        at: Time,
        nodes: u32,
        runtime: Time,
        requested: Option<Time>,
        user: u32,
    ) -> Result<(JobId, bool), String> {
        if self.draining {
            return Err("daemon is draining; submissions are closed".into());
        }
        if nodes > self.core.capacity() {
            return Err(format!(
                "job needs {nodes} nodes, machine has {}",
                self.core.capacity()
            ));
        }
        let at = at.max(self.core.now());
        let requested = requested.unwrap_or(runtime).max(runtime);
        self.run_until(at);
        self.core.advance_to(at);
        self.core.complete_due();
        let id = JobId(self.next_id);
        self.next_id += 1;
        let job = Job::new(id, at, nodes, runtime, requested).with_user(user);
        self.core.submit(job);
        let started = self
            .core
            .decide_traced(self.policy.as_mut(), None, &mut self.recorder)
            .contains(&id);
        self.after_decision();
        Ok((id, started))
    }

    /// Cancels a waiting job.  Running jobs are not preemptible (the
    /// paper's machine model), so they report `false`.
    pub fn cancel(&mut self, id: JobId) -> bool {
        self.core.cancel(id).is_some()
    }

    /// Waiting-queue demand: `(jobs, node_seconds)`, each job counting
    /// its nodes × requested runtime.  The fleet front end reads this
    /// for quota and fairshare admission checks.
    pub fn queue_demand(&self) -> (usize, u64) {
        (self.core.queue().len(), self.core.queued_node_seconds())
    }

    /// Stops admissions and fast-forwards the departure calendar until
    /// the machine is empty.  Returns `(completed, leftover)`; leftover
    /// is non-zero only if the policy refuses to start waiting jobs on an
    /// otherwise idle machine.
    pub fn drain(&mut self) -> (usize, usize) {
        self.draining = true;
        let mut completed = 0;
        loop {
            if let Some(d) = self.core.next_departure() {
                self.core.advance_to(d);
                completed += self.core.complete_due();
                self.core
                    .decide_traced(self.policy.as_mut(), None, &mut self.recorder);
                self.after_decision();
            } else if !self.core.queue().is_empty() {
                // Nothing running but work waiting (possible after
                // cancels): give the policy one more decision; if it
                // still starts nothing, report the stall instead of
                // spinning.
                let started =
                    self.core
                        .decide_traced(self.policy.as_mut(), None, &mut self.recorder);
                self.after_decision();
                if started.is_empty() {
                    break;
                }
            } else {
                break;
            }
        }
        (completed, self.core.queue().len())
    }

    /// The queue and running set as a JSON value.
    pub fn queue_view(&self) -> Value {
        let queue: Vec<Value> = self
            .core
            .queue()
            .iter()
            .map(|w| {
                json!({
                    "id": w.job.id.0,
                    "submit": w.job.submit,
                    "nodes": w.job.nodes,
                    "r_star": w.r_star,
                    "user": w.job.user,
                })
            })
            .collect();
        let running: Vec<Value> = self
            .core
            .running()
            .iter()
            .map(|r| {
                json!({
                    "id": r.job.id.0,
                    "nodes": r.job.nodes,
                    "start": r.start,
                    "pred_end": r.pred_end,
                    "user": r.job.user,
                })
            })
            .collect();
        json!({
            "ok": true,
            "now": self.core.now(),
            "free_nodes": self.core.free_nodes(),
            "capacity": self.core.capacity(),
            "queue": Value::Array(queue),
            "running": Value::Array(running),
        })
    }

    /// Every count this cluster has folded (decisions, search, completed
    /// jobs, admissions, incidents): what its views report.
    pub fn tally(&self) -> &Tally {
        self.recorder.tally()
    }

    /// The scheduler state machine: the machine as it stands now.
    pub fn core(&self) -> &SchedulerCore {
        &self.core
    }

    /// The exposition `/metrics?cluster=ID` serves.
    pub fn metrics_text(&self) -> String {
        tenant_text(self.tally(), &self.core)
    }

    /// Flushes the trace sink, if one is attached.
    pub fn flush_traces(&mut self) -> std::io::Result<()> {
        self.recorder.flush()
    }

    /// The incident ring encoded for `incidents` answers and
    /// `/statusz?incidents=1`, oldest first (wall durations only in
    /// wall mode, so virtual-clock bytes stay run-to-run identical).
    pub fn incidents_value(&self) -> Vec<Value> {
        let include_wall = self.cfg.obs.event_mode == TimeMode::Wall;
        self.incidents
            .iter()
            .map(|i| i.to_value(include_wall))
            .collect()
    }

    /// Stamps `corr` as the correlation id for the operations that
    /// follow (the fleet front end mints at its own edge and hands the
    /// id down through this).
    pub fn set_correlation(&mut self, corr: u64) {
        self.core.set_correlation(corr);
    }

    /// The cluster's complete state as a snapshot.
    pub fn snapshot(&mut self) -> Snapshot {
        Snapshot {
            now: self.core.now(),
            capacity: self.core.capacity(),
            next_id: self.next_id,
            policy: self.policy.name(),
            waiting: self
                .core
                .queue()
                .iter()
                .map(|w| WaitingEntry {
                    job: w.job,
                    r_star: w.r_star,
                })
                .collect(),
            running: self
                .core
                .running()
                .iter()
                .map(|r| RunningEntry {
                    job: r.job,
                    start: r.start,
                    pred_end: r.pred_end,
                })
                .collect(),
        }
    }

    /// Decision points since the last [`Cluster::render_snapshot`]: the
    /// fleet writes a snapshot once this reaches its `snapshot_every`.
    pub fn unsnapshotted(&self) -> u64 {
        self.unsnapshotted
    }

    /// Renders a snapshot plus the path it should be written to,
    /// without touching the filesystem, or `None` when persistence is
    /// disabled.  Resets the dirty-operation counter, so the caller is
    /// expected to actually write the result (see
    /// [`Snapshot::save`]).  This split lets callers that hold a lock
    /// around the cluster capture state under the lock and do the file
    /// I/O after releasing it.
    pub fn render_snapshot(&mut self) -> Option<(Snapshot, PathBuf)> {
        let path = self.cfg.snapshot_path.clone()?;
        let snap = self.snapshot();
        self.unsnapshotted = 0;
        Some((snap, path))
    }

    /// Runs one tenant-scoped protocol request at scheduler time `at`
    /// under whatever correlation id is stamped on the core, admitting
    /// every job.  Returns the answer and how many jobs it admitted.
    pub fn handle(&mut self, req: Request, at: Time) -> (Value, u64) {
        self.handle_admitted(req, at, |_, _| Ok(()))
    }

    /// [`Cluster::handle`] behind an admission check: `admit` sees the
    /// cluster and each job before it is submitted, and a job it refuses
    /// is answered with its error (the fleet's quotas plug in here).
    /// `metrics`, `snapshot` and `shutdown` speak for the whole server,
    /// so a cluster answers them with a typed error.
    pub fn handle_admitted(
        &mut self,
        req: Request,
        at: Time,
        mut admit: impl FnMut(&Cluster, &SubmitSpec) -> Result<(), String>,
    ) -> (Value, u64) {
        match req {
            Request::Submit {
                nodes,
                runtime,
                requested,
                user,
                submit,
            } => {
                let spec = SubmitSpec {
                    nodes,
                    runtime,
                    requested,
                    user,
                    submit,
                };
                let out = self.admit_one(&spec, at, &mut admit);
                let admitted = u64::from(out.is_ok());
                self.count_admissions(admitted, 1);
                let mut v = job_answer(out);
                if let Value::Object(map) = &mut v {
                    map.insert("now".into(), Value::from(self.core.now()));
                }
                (v, admitted)
            }
            Request::SubmitBatch { jobs } => {
                let mut results = Vec::with_capacity(jobs.len());
                let mut accepted = 0u64;
                for spec in &jobs {
                    let out = self.admit_one(spec, at, &mut admit);
                    accepted += u64::from(out.is_ok());
                    results.push(job_answer(out));
                }
                self.count_admissions(accepted, jobs.len() as u64);
                let v = json!({
                    "ok": true,
                    "now": self.core.now(),
                    "accepted": accepted,
                    "results": Value::Array(results),
                });
                (v, accepted)
            }
            Request::Cancel { id } => {
                self.poll_to(at);
                let cancelled = self.cancel(JobId(id));
                (json!({ "ok": true, "cancelled": cancelled }), 0)
            }
            Request::Queue => {
                self.poll_to(at);
                (self.queue_view(), 0)
            }
            Request::Drain => {
                self.poll_to(at);
                let (completed, leftover) = self.drain();
                (drain_response(completed, leftover, self.core.now()), 0)
            }
            Request::Incidents => {
                self.poll_to(at);
                let v = incidents_response(self.incidents_value(), self.tally().incidents);
                (v, 0)
            }
            Request::Metrics | Request::Snapshot | Request::Shutdown => {
                let op = op_event(&req).0;
                (
                    error_response(&format!("{op:?} is a server op, not a cluster op")),
                    0,
                )
            }
        }
    }

    /// Counts `admitted` of `offered` jobs as submitted, the rest as
    /// rejected.
    fn count_admissions(&mut self, admitted: u64, offered: u64) {
        let tally = self.recorder.tally_mut();
        tally.submitted += admitted;
        tally.rejected += offered - admitted;
    }

    /// Runs `admit`, then submits the job at its own time or `at`.
    fn admit_one(
        &mut self,
        spec: &SubmitSpec,
        at: Time,
        admit: &mut impl FnMut(&Cluster, &SubmitSpec) -> Result<(), String>,
    ) -> Result<(JobId, bool), String> {
        admit(self, spec)?;
        let t = spec.submit.unwrap_or(at);
        self.submit_at(t, spec.nodes, spec.runtime, spec.requested, spec.user)
    }
}

/// One submitted job's answer, inside a `submit` or a `submit_batch`.
fn job_answer(out: Result<(JobId, bool), String>) -> Value {
    match out {
        Ok((id, started)) => json!({ "ok": true, "id": id.0, "started": started }),
        Err(e) => error_response(&e),
    }
}

/// The answer to a `drain`, for one cluster or a whole fleet.
pub fn drain_response(completed: usize, leftover: usize, now: Time) -> Value {
    json!({
        "ok": true,
        "completed": completed,
        "leftover": leftover,
        "now": now,
    })
}

/// The answer to an `incidents` read, for one cluster or a whole fleet.
pub fn incidents_response(items: Vec<Value>, captured: u64) -> Value {
    json!({
        "ok": true,
        "captured": captured,
        "incidents": Value::Array(items),
    })
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("core", &self.core)
            .field("next_id", &self.next_id)
            .field("draining", &self.draining)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_oldest_beyond_capacity() {
        let mut cfg = ServiceConfig::new(4, PolicySpec::FcfsBackfill);
        cfg.obs.slow_wall_ms = Some(0); // every decision is an incident
        let mut c = Cluster::fresh(cfg);
        assert!(c.incidents_value().is_empty());
        let submits = INCIDENT_RING_CAPACITY as u64 + 5;
        for at in 0..submits {
            c.submit_at(at, 1, 1, None, 0).expect("submit");
        }
        assert_eq!(c.tally().incidents, c.tally().decisions);
        let kept = c.incidents_value();
        assert_eq!(kept.len(), INCIDENT_RING_CAPACITY);
        let seq = |i: &Value| i["decision"]["seq"].as_u64();
        let newest = c.tally().decisions;
        assert_eq!(
            seq(&kept[0]),
            Some(newest + 1 - INCIDENT_RING_CAPACITY as u64)
        );
        assert_eq!(kept.last().and_then(seq), Some(newest), "oldest first");
    }

    #[test]
    fn a_tenant_keeps_no_completed_record() {
        let mut c = Cluster::fresh(ServiceConfig::new(8, PolicySpec::FcfsBackfill));
        for at in 0..50_000u32 {
            c.submit_at(u64::from(at) * 10, 1 + at % 4, 15, None, 0)
                .expect("submit");
            assert_eq!(c.core.drain_records().count(), 0, "after submit {at}");
        }
        let completed = c.tally().wait_seconds.count();
        assert!(completed > 49_000, "{completed}");
        let (drained, leftover) = c.drain();
        assert_eq!((drained as u64, leftover), (50_000 - completed, 0));
        assert_eq!(c.tally().wait_seconds.count(), 50_000);
        assert_eq!(c.core.drain_records().count(), 0);
    }
}
