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
//! correlation source, no request-latency histogram, no status window
//! (see [`crate::edge`]).  The fleet front end (`sbs-fleet`, which is
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
use crate::metrics::MetricsView;
use crate::protocol::{error_response, Request, SubmitSpec};
use crate::snapshot::{CompletedStats, RunningEntry, Snapshot, WaitingEntry};
use sbs_core::{PolicySpec, SearchPolicy};
use sbs_obs::{
    DecisionTrace, Histogram, ObsConfig, RingBuffer, StatusSample, TimeMode, TraceMeta,
    TraceRecorder,
};
use sbs_sim::{Policy, SchedulerCore};
use sbs_workload::job::{Job, JobId, RuntimeKnowledge};
use sbs_workload::time::Time;
use serde_json::{json, Value};
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
    /// Wait beyond this threshold counts as excessive in the metrics.
    pub excess_threshold: Time,
    /// Where to write snapshots; `None` disables persistence.
    pub snapshot_path: Option<PathBuf>,
    /// Auto-snapshot every N decision points (0 = only on demand and at
    /// shutdown).
    pub snapshot_every: u64,
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
            excess_threshold: 0,
            snapshot_path: None,
            snapshot_every: 0,
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

/// The built policy, kept concrete for search so the daemon can read
/// [`SearchPolicy::totals`] for the metrics endpoint.
enum DaemonPolicy {
    Search(Box<SearchPolicy>),
    Other(Box<dyn Policy + Send>),
}

impl DaemonPolicy {
    fn build(spec: &PolicySpec, deadline: Option<Duration>) -> Self {
        let mut policy = match spec.build_search() {
            Some(search) => DaemonPolicy::Search(Box::new(match deadline {
                Some(d) => search.with_deadline(d),
                None => search,
            })),
            // Non-search policies decide instantly and ignore the
            // deadline.
            None => DaemonPolicy::Other(spec.build()),
        };
        // The daemon always records telemetry (it feeds /metrics), so
        // policies trace from the first decision on.
        policy.as_dyn().set_tracing(true);
        policy
    }

    fn as_dyn(&mut self) -> &mut dyn Policy {
        match self {
            DaemonPolicy::Search(p) => p.as_mut(),
            DaemonPolicy::Other(p) => p.as_mut(),
        }
    }

    fn search_nodes(&self) -> u64 {
        match self {
            DaemonPolicy::Search(p) => p.totals().nodes,
            DaemonPolicy::Other(_) => 0,
        }
    }

    fn deadline_truncations(&self) -> u64 {
        match self {
            DaemonPolicy::Search(p) => p.totals().deadline_truncations,
            DaemonPolicy::Other(_) => 0,
        }
    }

    fn name(&mut self) -> String {
        self.as_dyn().name()
    }
}

/// One cluster's scheduler world (see the module docs).
pub struct Cluster {
    core: SchedulerCore,
    policy: DaemonPolicy,
    recorder: TraceRecorder,
    cfg: ServiceConfig,
    next_id: u32,
    completed: CompletedStats,
    /// Records already folded into `completed`.
    completed_seen: usize,
    /// Decisions carried over from a recovered snapshot.
    base_decisions: u64,
    /// Decisions since the last snapshot write.
    unsnapshotted: u64,
    draining: bool,
    /// Captured slow decisions, oldest evicted.
    incidents: RingBuffer<Incident>,
    /// Incidents captured over the cluster's lifetime (ring evictions
    /// included).
    incidents_total: u64,
    /// Highest recorder-ring `seq` already scanned for incidents.
    incident_checked: u64,
}

impl Cluster {
    /// Builds the cluster; recovers from `cfg.snapshot_path` when a
    /// snapshot exists there.
    pub fn new(cfg: ServiceConfig) -> Result<Self, String> {
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
    fn build_recorder(cfg: &ServiceConfig, policy: &mut DaemonPolicy) -> TraceRecorder {
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
        Self::around(core, cfg, 0, CompletedStats::default(), 0)
    }

    /// Rebuilds the cluster's world from a snapshot: waiting jobs re-queue
    /// with their recorded `R*`, running jobs re-admit at their original
    /// start (so reservations resume *remaining*, not restarted), and the
    /// id counter and completed-job aggregates carry over.
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
        Ok(Self::around(
            core,
            cfg,
            snap.next_id,
            snap.completed,
            snap.decisions,
        ))
    }

    /// A cluster around `core`, carrying over what a snapshot records.
    fn around(
        core: SchedulerCore,
        cfg: ServiceConfig,
        next_id: u32,
        completed: CompletedStats,
        base_decisions: u64,
    ) -> Self {
        let mut policy = DaemonPolicy::build(&cfg.spec, cfg.deadline);
        let recorder = Self::build_recorder(&cfg, &mut policy);
        Cluster {
            core,
            policy,
            recorder,
            cfg,
            next_id,
            completed,
            completed_seen: 0,
            base_decisions,
            unsnapshotted: 0,
            draining: false,
            incidents: RingBuffer::new(INCIDENT_RING_CAPACITY),
            incidents_total: 0,
            incident_checked: 0,
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

    /// Completed-job records (the daemon-side analogue of
    /// [`sbs_sim::SimResult::records`]).
    pub fn records(&self) -> &[sbs_sim::JobRecord] {
        self.core.records()
    }

    /// Folds freshly completed jobs into the metrics aggregates and
    /// counts the decision toward the auto-snapshot cadence.
    fn after_decision(&mut self) {
        let threshold = self.cfg.excess_threshold;
        // `completed_seen` only ever trails `records().len()`, but an
        // out-of-range slice would abort the daemon; degrade to "no new
        // completions" instead.
        let fresh = self
            .core
            .records()
            .get(self.completed_seen..)
            .unwrap_or(&[]);
        for r in fresh {
            let (wait, excess) = (r.wait(), r.excess_wait(threshold));
            self.completed.absorb(wait, excess);
            sbs_obs::Recorder::observe(&mut self.recorder, "sbs_wait_seconds", wait);
            sbs_obs::Recorder::observe(&mut self.recorder, "sbs_excess_wait_seconds", excess);
        }
        self.completed_seen = self.core.records().len();
        self.unsnapshotted += 1;
        self.capture_incidents();
        if self.cfg.snapshot_every > 0 && self.unsnapshotted >= self.cfg.snapshot_every {
            // Best effort: an unwritable snapshot path must not take the
            // scheduler down mid-decision.
            #[expect(
                clippy::let_underscore_must_use,
                reason = "proven best-effort path — a failed periodic snapshot must not abort the decision loop; the next interval retries"
            )]
            let _ = self.save_snapshot();
        }
    }

    /// Scans fresh recorder-ring entries against the slow-decision
    /// thresholds and snapshots offenders into the incident ring.
    fn capture_incidents(&mut self) {
        let wall_limit = self
            .cfg
            .obs
            .slow_wall_ms
            .map(|ms| ms.saturating_mul(1_000_000));
        let nodes_limit = self.cfg.obs.slow_nodes_left;
        if wall_limit.is_none() && nodes_limit.is_none() {
            return;
        }
        let already = self.incident_checked;
        let mut checked = already;
        let mut fresh: Vec<Incident> = Vec::new();
        for d in self.recorder.ring().iter() {
            if d.seq <= already {
                continue;
            }
            checked = checked.max(d.seq);
            let nodes_left = d
                .policy
                .as_ref()
                .and_then(|p| p.search.as_ref())
                .map(|s| s.nodes_left_at_deadline)
                .unwrap_or(0);
            let mut reasons = Vec::new();
            if let Some(limit) = wall_limit.filter(|&l| d.wall_ns >= l) {
                reasons.push(format!("wall_ns {} >= {limit}", d.wall_ns));
            }
            if let Some(limit) = nodes_limit.filter(|&l| nodes_left >= l) {
                reasons.push(format!("nodes_left {nodes_left} >= {limit}"));
            }
            if !reasons.is_empty() {
                fresh.push(Incident {
                    reason: reasons.join("; "),
                    decision: d.clone(),
                });
            }
        }
        self.incident_checked = checked;
        for incident in fresh {
            self.incidents_total += 1;
            self.incidents.push(incident);
        }
    }

    /// The cumulative counters as they stand right now.  (A cluster
    /// refuses nothing it counts: `rejected` is the fleet's to fill.)
    pub fn status_sample(&self) -> StatusSample {
        StatusSample {
            at: self.core.now(),
            submitted: u64::from(self.next_id),
            rejected: 0,
            decisions: self.base_decisions + self.core.decisions(),
            queue_depth: self.core.queue().len() as u64,
            search_nodes: self.policy.search_nodes(),
            completed: self.completed.count,
            deadline_truncations: self.policy.deadline_truncations(),
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
                .decide_traced(self.policy.as_dyn(), None, &mut self.recorder);
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
                    .decide_traced(self.policy.as_dyn(), None, &mut self.recorder);
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
            .decide_traced(self.policy.as_dyn(), None, &mut self.recorder)
            .contains(&id);
        self.after_decision();
        Ok((id, started))
    }

    /// Cancels a waiting job.  Running jobs are not preemptible (the
    /// paper's machine model), so they report `false`.
    pub fn cancel(&mut self, id: JobId) -> bool {
        self.core.cancel(id).is_some()
    }

    /// Waiting-queue demand: `(jobs, node_seconds)` summed over the
    /// queue (each job's nodes × requested runtime).  The fleet front
    /// end reads this for quota and fairshare admission checks.
    pub fn queue_demand(&self) -> (usize, u64) {
        let node_seconds = self
            .core
            .queue()
            .iter()
            .map(|w| u64::from(w.job.nodes).saturating_mul(w.job.requested))
            .sum();
        (self.core.queue().len(), node_seconds)
    }

    /// Stops admissions and fast-forwards the departure calendar until
    /// the machine is empty.  Returns `(completed, leftover)`; leftover
    /// is non-zero only if the policy refuses to start waiting jobs on an
    /// otherwise idle machine.
    pub fn drain(&mut self) -> (usize, usize) {
        self.draining = true;
        let before = self.core.records().len();
        loop {
            if let Some(d) = self.core.next_departure() {
                self.core.advance_to(d);
                self.core.complete_due();
                self.core
                    .decide_traced(self.policy.as_dyn(), None, &mut self.recorder);
                self.after_decision();
            } else if !self.core.queue().is_empty() {
                // Nothing running but work waiting (possible after
                // cancels): give the policy one more decision; if it
                // still starts nothing, report the stall instead of
                // spinning.
                let started =
                    self.core
                        .decide_traced(self.policy.as_dyn(), None, &mut self.recorder);
                self.after_decision();
                if started.is_empty() {
                    break;
                }
            } else {
                break;
            }
        }
        (self.core.records().len() - before, self.core.queue().len())
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

    /// A point-in-time metrics sample.
    pub fn metrics(&self) -> MetricsView {
        MetricsView {
            now: self.core.now(),
            queue_depth: self.core.queue().len(),
            running_jobs: self.core.running().len(),
            free_nodes: self.core.free_nodes(),
            capacity: self.core.capacity(),
            decisions: self.base_decisions + self.core.decisions(),
            search_nodes: self.policy.search_nodes(),
            policy_nanos: self.core.policy_nanos(),
            completed: self.completed,
        }
    }

    /// The exposition text `/metrics` serves: typed counter/histogram
    /// families joined with the recorder's aggregates.
    pub fn metrics_text(&self) -> String {
        self.metrics().render_with(&self.recorder)
    }

    /// Flushes the trace sink, if one is attached.
    pub fn flush_traces(&mut self) -> std::io::Result<()> {
        self.recorder.flush()
    }

    /// Incidents captured over the cluster's lifetime, ring evictions
    /// included.
    pub fn incidents_total(&self) -> u64 {
        self.incidents_total
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

    /// Per-decision wall time, `None` before the first decision.
    pub fn decision_wall(&self) -> Option<&Histogram> {
        self.recorder
            .histograms()
            .find(|(name, _)| *name == "sbs_decision_wall_nanos")
            .map(|(_, h)| h)
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
            completed: self.completed,
            decisions: self.base_decisions + self.core.decisions(),
        }
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

    /// Writes a snapshot to the configured path, if any.  Returns the
    /// path written.
    pub fn save_snapshot(&mut self) -> Result<Option<PathBuf>, String> {
        let Some((snap, path)) = self.render_snapshot() else {
            return Ok(None);
        };
        snap.save(&path)
            .map_err(|e| format!("snapshot write failed: {e}"))?;
        Ok(Some(path))
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
                let v = incidents_response(self.incidents_value(), self.incidents_total);
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
