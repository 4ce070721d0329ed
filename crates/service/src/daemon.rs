//! The online scheduler daemon.
//!
//! [`Daemon`] wraps a [`SchedulerCore`] and any [`PolicySpec`] behind the
//! protocol of [`crate::protocol`].  It is deliberately clock-agnostic:
//! every entry point takes the current scheduler time as an argument, so
//! the same code runs under a wall clock (production) and a virtual
//! clock (tests, and the daemon-vs-batch parity suite).
//!
//! ## Parity with the batch simulator
//!
//! The batch engine groups events per timestamp: all departures at `t`
//! complete, then all arrivals at `t` join the queue, then the policy
//! runs *once*.  The daemon reproduces exactly that grouping for its
//! live submissions: a submission at time `t` first replays every
//! pending departure strictly before `t` (each its own decision point),
//! then advances to `t`, completes departures due at `t`, enqueues the
//! job, and runs one decision.  Because both drivers execute
//! [`SchedulerCore`] for every transition, a virtual-clock daemon fed a
//! workload one job at a time produces byte-identical schedules to
//! [`sbs_sim::simulate`] (see the crate's e2e tests).

use crate::metrics::MetricsView;
use crate::protocol::{error_response, CorrelationSource, Request};
use crate::snapshot::{CompletedStats, RunningEntry, Snapshot, WaitingEntry};
use sbs_core::{PolicySpec, SearchPolicy};
use sbs_obs::{
    DecisionTrace, Event, EventJournal, Histogram, RingBuffer, Severity, TimeMode, TraceMeta,
    TraceRecorder,
};
use sbs_sim::{Policy, SchedulerCore};
use sbs_workload::job::{Job, JobId, RuntimeKnowledge};
use sbs_workload::time::Time;
use serde_json::{json, Value};
use std::path::PathBuf;
use std::time::Duration;

/// Captured slow-decision incidents kept in memory (oldest evicted).
pub const INCIDENT_RING_CAPACITY: usize = 64;

/// Self-scrape status samples kept in memory (oldest evicted).
pub const STATUS_WINDOW_CAPACITY: usize = 32;

/// Rotation threshold for the event journal when none is configured.
pub const DEFAULT_EVENT_LOG_MAX_BYTES: u64 = 4 << 20;

/// Daemon configuration.
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
    /// Serve the pre-typing all-gauge `/metrics` text instead of the
    /// typed counter/histogram exposition.
    pub compat_metrics: bool,
    /// Emit operational events into the `sbs-events/v1` journal.
    pub events: bool,
    /// Rotating journal sink; `None` keeps events in the in-memory ring.
    pub event_log: Option<PathBuf>,
    /// Rotation threshold for the event log, in bytes.
    pub event_log_max_bytes: u64,
    /// Journal time mode: `Virtual` omits wall durations so two
    /// identical virtual-clock runs journal byte-identical files.
    pub event_mode: TimeMode,
    /// A decision whose wall time reaches this many milliseconds is
    /// captured as a slow-decision incident (`Some(0)` captures every
    /// decision — useful in smoke tests).
    pub slow_wall_ms: Option<u64>,
    /// A decision whose `nodes_left_at_deadline` reaches this is
    /// captured as a slow-decision incident.
    pub slow_nodes_left: Option<u64>,
    /// Self-scrape sampling window length in scheduler seconds.
    pub status_window: Time,
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
            compat_metrics: false,
            events: true,
            event_log: None,
            event_log_max_bytes: DEFAULT_EVENT_LOG_MAX_BYTES,
            event_mode: TimeMode::Wall,
            slow_wall_ms: None,
            slow_nodes_left: None,
            status_window: 60,
        }
    }

    /// Sets the anytime-search deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Enables snapshots at `path`, auto-saved every `every` decisions.
    pub fn with_snapshots(mut self, path: PathBuf, every: u64) -> Self {
        self.snapshot_path = Some(path);
        self.snapshot_every = every;
        self
    }

    /// Appends decision traces to `path` as `sbs-trace/v1` JSONL.
    pub fn with_trace_log(mut self, path: PathBuf) -> Self {
        self.trace_log = Some(path);
        self
    }

    /// Serves the legacy all-gauge metrics text.
    pub fn with_compat_metrics(mut self, on: bool) -> Self {
        self.compat_metrics = on;
        self
    }

    /// Turns the event journal on or off.
    pub fn with_events(mut self, on: bool) -> Self {
        self.events = on;
        self
    }

    /// Writes `sbs-events/v1` JSONL to `path`, rotating at `max_bytes`.
    pub fn with_event_log(mut self, path: PathBuf, max_bytes: u64) -> Self {
        self.event_log = Some(path);
        self.event_log_max_bytes = max_bytes;
        self
    }

    /// Sets the journal time mode (virtual-clock daemons pass
    /// [`TimeMode::Virtual`] to keep journal bytes deterministic).
    pub fn with_event_mode(mut self, mode: TimeMode) -> Self {
        self.event_mode = mode;
        self
    }

    /// Sets the slow-decision capture thresholds.
    pub fn with_slow_thresholds(mut self, wall_ms: Option<u64>, nodes_left: Option<u64>) -> Self {
        self.slow_wall_ms = wall_ms;
        self.slow_nodes_left = nodes_left;
        self
    }
}

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

/// Cumulative counters sampled at one status-window boundary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct StatusSample {
    at: Time,
    decisions: u64,
    search_nodes: u64,
    completed: u64,
    deadline_truncations: u64,
}

impl StatusSample {
    fn to_value(self) -> Value {
        json!({
            "at": self.at,
            "decisions": self.decisions,
            "search_nodes": self.search_nodes,
            "completed": self.completed,
            "deadline_truncations": self.deadline_truncations,
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

/// The long-running scheduler service.
pub struct Daemon {
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
    /// The `sbs-events/v1` operational journal.
    journal: EventJournal,
    /// Correlation ids for requests arriving directly at this daemon
    /// (fleet-routed requests carry the fleet's id instead).
    corr_source: CorrelationSource,
    /// Captured slow decisions, oldest evicted.
    incidents: RingBuffer<Incident>,
    /// Incidents captured over the daemon's lifetime (ring evictions
    /// included).
    incidents_total: u64,
    /// Highest recorder-ring `seq` already scanned for incidents.
    incident_checked: u64,
    /// Wall nanoseconds per submit-shaped request, fed by the server
    /// loop at the protocol edge.
    submit_wall: Histogram,
    /// Self-scrape samples at status-window boundaries.
    windows: RingBuffer<StatusSample>,
    /// Next scheduler time at which to take a status sample.
    next_window: Time,
}

impl Daemon {
    /// Builds the daemon; recovers from `cfg.snapshot_path` when a
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

    /// Builds the daemon's wall-clock recorder, attaching the JSONL
    /// trace sink when one is configured.  Sink failures are reported
    /// and telemetry degrades to in-memory aggregation — a bad trace
    /// path must not stop the scheduler.
    fn build_recorder(
        cfg: &ServiceConfig,
        policy: &mut DaemonPolicy,
        capacity: u32,
    ) -> TraceRecorder {
        let mut recorder = TraceRecorder::new(
            TimeMode::Wall,
            TraceMeta {
                mode: String::new(),
                policy: policy.name(),
                capacity,
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

    /// Builds the daemon's event journal.  Like the trace sink, a bad
    /// journal path degrades to the in-memory ring with a notice — it
    /// never stops the scheduler.
    fn build_journal(cfg: &ServiceConfig) -> EventJournal {
        if !cfg.events {
            return EventJournal::disabled(cfg.event_mode);
        }
        let mut journal = EventJournal::new(cfg.event_mode);
        if let Some(path) = &cfg.event_log {
            if let Err(e) = journal.open_rotating(path.clone(), cfg.event_log_max_bytes) {
                eprintln!("event log {} unavailable: {e}", path.display());
            }
        }
        journal
    }

    /// A daemon starting from an empty machine at time 0.
    pub fn fresh(cfg: ServiceConfig) -> Self {
        let mut policy = DaemonPolicy::build(&cfg.spec, cfg.deadline);
        let recorder = Self::build_recorder(&cfg, &mut policy, cfg.capacity);
        let journal = Self::build_journal(&cfg);
        let next_window = cfg.status_window.max(1);
        Daemon {
            core: SchedulerCore::new(cfg.capacity, cfg.knowledge, (0, Time::MAX)),
            policy,
            recorder,
            cfg,
            next_id: 0,
            completed: CompletedStats::default(),
            completed_seen: 0,
            base_decisions: 0,
            unsnapshotted: 0,
            draining: false,
            journal,
            corr_source: CorrelationSource::new(),
            incidents: RingBuffer::new(INCIDENT_RING_CAPACITY),
            incidents_total: 0,
            incident_checked: 0,
            submit_wall: Histogram::exponential(1_000, 10, 7),
            windows: RingBuffer::new(STATUS_WINDOW_CAPACITY),
            next_window,
        }
    }

    /// Rebuilds the daemon's world from a snapshot: waiting jobs re-queue
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
        let mut policy = DaemonPolicy::build(&cfg.spec, cfg.deadline);
        let recorder = Self::build_recorder(&cfg, &mut policy, cfg.capacity);
        let journal = Self::build_journal(&cfg);
        let window = cfg.status_window.max(1);
        let next_window = (snap.now / window).saturating_add(1).saturating_mul(window);
        Ok(Daemon {
            core,
            policy,
            recorder,
            cfg,
            next_id: snap.next_id,
            completed: snap.completed,
            completed_seen: 0,
            base_decisions: snap.decisions,
            unsnapshotted: 0,
            draining: false,
            journal,
            corr_source: CorrelationSource::new(),
            incidents: RingBuffer::new(INCIDENT_RING_CAPACITY),
            incidents_total: 0,
            incident_checked: 0,
            submit_wall: Histogram::exponential(1_000, 10, 7),
            windows: RingBuffer::new(STATUS_WINDOW_CAPACITY),
            next_window,
        })
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
        self.maybe_sample();
        if self.cfg.snapshot_every > 0 && self.unsnapshotted >= self.cfg.snapshot_every {
            // Best effort: an unwritable snapshot path must not take the
            // scheduler down mid-decision.
            // sbs-lint: allow(result-dropped): proven best-effort path — a failed periodic snapshot must not abort the decision loop; the next interval retries
            let _ = self.save_snapshot();
        }
    }

    /// Scans fresh recorder-ring entries against the slow-decision
    /// thresholds and snapshots offenders into the incident ring.
    fn capture_incidents(&mut self) {
        let wall_limit = self.cfg.slow_wall_ms.map(|ms| ms.saturating_mul(1_000_000));
        let nodes_limit = self.cfg.slow_nodes_left;
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
            if self.journal.enabled() {
                self.journal.emit(
                    Event::new(Severity::Warn, "daemon", "slow_decision")
                        .at(incident.decision.now)
                        .corr(incident.decision.corr)
                        .detail("seq", incident.decision.seq),
                );
            }
            self.incidents_total += 1;
            self.incidents.push(incident);
        }
    }

    /// Takes a self-scrape sample once scheduler time crosses a
    /// status-window boundary.
    fn maybe_sample(&mut self) {
        let window = self.cfg.status_window.max(1);
        let now = self.core.now();
        if now < self.next_window {
            return;
        }
        let sample = self.live_sample();
        self.windows.push(sample);
        self.next_window = (now / window).saturating_add(1).saturating_mul(window);
    }

    /// The cumulative counters as they stand right now.
    fn live_sample(&self) -> StatusSample {
        StatusSample {
            at: self.core.now(),
            decisions: self.base_decisions + self.core.decisions(),
            search_nodes: self.policy.search_nodes(),
            completed: self.completed.count,
            deadline_truncations: self.policy.deadline_truncations(),
        }
    }

    /// `(deadline_hit_rate, search_nodes_per_sec)` over the sampled
    /// windows — oldest retained sample to now; lifetime when no window
    /// has closed yet.
    fn rates(&self) -> (f64, f64) {
        let newest = self.live_sample();
        let oldest = self.windows.iter().next().copied().unwrap_or_default();
        let decisions = newest.decisions.saturating_sub(oldest.decisions);
        let truncations = newest
            .deadline_truncations
            .saturating_sub(oldest.deadline_truncations);
        let span = newest.at.saturating_sub(oldest.at);
        let nodes = newest.search_nodes.saturating_sub(oldest.search_nodes);
        let hit_rate = if decisions > 0 {
            truncations as f64 / decisions as f64
        } else {
            0.0
        };
        let nodes_per_sec = if span > 0 {
            nodes as f64 / span as f64
        } else {
            0.0
        };
        (hit_rate, nodes_per_sec)
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
        self.maybe_sample();
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
    /// families joined with the recorder's aggregates, or the legacy
    /// all-gauge text under `--compat-metrics`.
    pub fn metrics_text(&self) -> String {
        if self.cfg.compat_metrics {
            self.metrics().render_compat()
        } else {
            self.metrics().render_with(&self.recorder)
        }
    }

    /// The daemon's telemetry recorder (read-only).
    pub fn recorder(&self) -> &TraceRecorder {
        &self.recorder
    }

    /// Flushes the trace sink, if one is attached.
    pub fn flush_traces(&mut self) -> std::io::Result<()> {
        self.recorder.flush()
    }

    /// The daemon's event journal (read-only).
    pub fn journal(&self) -> &EventJournal {
        &self.journal
    }

    /// Flushes the event-journal sink, if one is attached.
    pub fn flush_events(&mut self) {
        self.journal.flush();
    }

    /// Captured slow-decision incidents, oldest first.
    pub fn incidents(&self) -> &RingBuffer<Incident> {
        &self.incidents
    }

    /// Incidents captured over the daemon's lifetime, ring evictions
    /// included.
    pub fn incidents_total(&self) -> u64 {
        self.incidents_total
    }

    /// Deadline-truncated decisions so far (0 for non-search policies).
    pub fn deadline_truncations(&self) -> u64 {
        self.policy.deadline_truncations()
    }

    /// The submit-latency histogram fed by the protocol edge.
    pub fn submit_latency(&self) -> &Histogram {
        &self.submit_wall
    }

    /// Folds one measured request latency when the line is
    /// submit-shaped.  The substring check is a deliberate pre-parse
    /// heuristic — cheap enough for every request, and an operator
    /// histogram tolerates the rare false positive from a `"submit"`
    /// payload field.
    pub fn observe_submit_ns(&mut self, line: &str, ns: u64) {
        if line.contains("\"submit") {
            self.submit_wall.observe(ns);
        }
    }

    /// Stamps `corr` as the correlation id for the operations that
    /// follow (the fleet front end mints at its own edge and hands the
    /// id down through this).
    pub fn set_correlation(&mut self, corr: u64) {
        self.core.set_correlation(corr);
    }

    /// Liveness/readiness JSON for `GET /healthz`.  `ok` (and the HTTP
    /// status) reports readiness: not draining and not overloaded.
    pub fn healthz_value(&self) -> Value {
        let queue_depth = self.core.queue().len() as u64;
        let overloaded = queue_depth > 8 * u64::from(self.core.capacity());
        let ready = !self.draining && !overloaded;
        json!({
            "ok": ready,
            "ready": ready,
            "draining": self.draining,
            "overloaded": overloaded,
            "now": self.core.now(),
            "queue_depth": queue_depth,
        })
    }

    /// Operational JSON for `GET /statusz`.
    pub fn statusz_value(&mut self, include_incidents: bool) -> Value {
        let (deadline_hit_rate, nodes_per_sec) = self.rates();
        let windows: Vec<Value> = self.windows.iter().map(|s| s.to_value()).collect();
        let include_wall = self.cfg.event_mode == TimeMode::Wall;
        let submit_latency = json!({
            "p50": self.submit_wall.quantile(0.50).unwrap_or(0),
            "p99": self.submit_wall.quantile(0.99).unwrap_or(0),
            "p999": self.submit_wall.quantile(0.999).unwrap_or(0),
            "count": self.submit_wall.count(),
        });
        let events = json!({
            "emitted": self.journal.emitted(),
            "filtered": self.journal.filtered(),
        });
        let mut v = json!({
            "schema": "sbs-statusz/v1",
            "now": self.core.now(),
            "policy": self.policy.name(),
            "capacity": self.core.capacity(),
            "free_nodes": self.core.free_nodes(),
            "queue_depth": self.core.queue().len() as u64,
            "running": self.core.running().len() as u64,
            "draining": self.draining,
            "submitted": u64::from(self.next_id),
            "decisions": self.base_decisions + self.core.decisions(),
            "completed": self.completed.count,
            "search_nodes": self.policy.search_nodes(),
            "deadline_hit_rate": deadline_hit_rate,
            "search_nodes_per_sec": nodes_per_sec,
            "submit_latency_ns": submit_latency,
            "events": events,
            "incidents_captured": self.incidents_total,
            "windows": Value::Array(windows),
        });
        if include_incidents {
            let items: Vec<Value> = self
                .incidents
                .iter()
                .map(|i| i.to_value(include_wall))
                .collect();
            if let Value::Object(m) = &mut v {
                m.insert("incidents".into(), Value::Array(items));
            }
        }
        v
    }

    /// The daemon's complete state as a snapshot.
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
    /// around the daemon capture state under the lock and do the file
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

    /// Dispatches one protocol request at scheduler time `at`, minting
    /// a fresh correlation id at this daemon's edge.  Returns the
    /// response and whether the daemon should shut down.
    pub fn handle(&mut self, req: Request, at: Time) -> (Value, bool) {
        let corr = self.corr_source.mint();
        self.handle_correlated(req, at, corr)
    }

    /// Like [`Daemon::handle`] but runs under a caller-minted
    /// correlation id (the fleet front end mints once per routed
    /// request).  The id is threaded into every decision the request
    /// triggers, journaled, and echoed back as `"corr"`.
    pub fn handle_correlated(&mut self, req: Request, at: Time, corr: u64) -> (Value, bool) {
        let (kind, severity) = match &req {
            Request::Submit { .. } => ("submit", Severity::Debug),
            Request::SubmitBatch { .. } => ("submit_batch", Severity::Debug),
            Request::Cancel { .. } => ("cancel", Severity::Debug),
            Request::Queue => ("queue", Severity::Debug),
            Request::Metrics => ("metrics", Severity::Debug),
            Request::Incidents => ("incidents", Severity::Debug),
            Request::Drain => ("drain", Severity::Info),
            Request::Snapshot => ("snapshot", Severity::Info),
            Request::Shutdown => ("shutdown", Severity::Info),
        };
        self.core.set_correlation(corr);
        let (mut v, stop) = self.dispatch(req, at);
        self.core.set_correlation(0);
        let ok = v.get("ok").and_then(Value::as_bool).unwrap_or(false);
        if let Value::Object(m) = &mut v {
            m.insert("corr".into(), corr.into());
        }
        if self.journal.enabled() {
            let severity = if ok { severity } else { Severity::Error };
            let mut event = Event::new(severity, "daemon", kind)
                .at(self.core.now())
                .corr(corr)
                .detail("queue_depth", self.core.queue().len() as u64);
            if let Some(id) = v.get("id").and_then(Value::as_u64) {
                event = event.detail("id", id);
            }
            if let Some(accepted) = v.get("accepted").and_then(Value::as_u64) {
                event = event.detail("accepted", accepted);
            }
            self.journal.emit(event);
        }
        (v, stop)
    }

    /// The op dispatch proper, running under whatever correlation id is
    /// already stamped on the core.
    fn dispatch(&mut self, req: Request, at: Time) -> (Value, bool) {
        match req {
            Request::Submit {
                nodes,
                runtime,
                requested,
                user,
                submit,
            } => {
                let t = submit.unwrap_or(at);
                match self.submit_at(t, nodes, runtime, requested, user) {
                    Ok((id, started)) => (
                        json!({
                            "ok": true,
                            "id": id.0,
                            "now": self.core.now(),
                            "started": started,
                        }),
                        false,
                    ),
                    Err(e) => (error_response(&e), false),
                }
            }
            Request::SubmitBatch { jobs } => {
                let mut results = Vec::with_capacity(jobs.len());
                let mut accepted = 0u64;
                for spec in jobs {
                    let t = spec.submit.unwrap_or(at);
                    match self.submit_at(t, spec.nodes, spec.runtime, spec.requested, spec.user) {
                        Ok((id, started)) => {
                            accepted += 1;
                            results.push(json!({
                                "ok": true,
                                "id": id.0,
                                "started": started,
                            }));
                        }
                        Err(e) => results.push(error_response(&e)),
                    }
                }
                (
                    json!({
                        "ok": true,
                        "now": self.core.now(),
                        "accepted": accepted,
                        "results": Value::Array(results),
                    }),
                    false,
                )
            }
            Request::Cancel { id } => {
                self.poll_to(at);
                let cancelled = self.cancel(JobId(id));
                (json!({ "ok": true, "cancelled": cancelled }), false)
            }
            Request::Queue => {
                self.poll_to(at);
                (self.queue_view(), false)
            }
            Request::Metrics => {
                self.poll_to(at);
                (json!({ "ok": true, "text": self.metrics_text() }), false)
            }
            Request::Drain => {
                self.poll_to(at);
                let (completed, leftover) = self.drain();
                (
                    json!({
                        "ok": true,
                        "completed": completed,
                        "leftover": leftover,
                        "now": self.core.now(),
                    }),
                    false,
                )
            }
            Request::Snapshot => {
                self.poll_to(at);
                match self.save_snapshot() {
                    Ok(Some(path)) => (
                        json!({ "ok": true, "path": path.display().to_string() }),
                        false,
                    ),
                    Ok(None) => (error_response("no snapshot path configured"), false),
                    Err(e) => (error_response(&e), false),
                }
            }
            Request::Incidents => {
                self.poll_to(at);
                let include_wall = self.cfg.event_mode == TimeMode::Wall;
                let items: Vec<Value> = self
                    .incidents
                    .iter()
                    .map(|i| i.to_value(include_wall))
                    .collect();
                (
                    json!({
                        "ok": true,
                        "captured": self.incidents_total,
                        "incidents": Value::Array(items),
                    }),
                    false,
                )
            }
            Request::Shutdown => {
                self.poll_to(at);
                let saved = self.save_snapshot();
                let mut v = json!({ "ok": true });
                if let (Value::Object(map), Ok(Some(path))) = (&mut v, saved) {
                    map.insert("snapshot".into(), Value::from(path.display().to_string()));
                }
                (v, true)
            }
        }
    }
}

impl std::fmt::Debug for Daemon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Daemon")
            .field("core", &self.core)
            .field("next_id", &self.next_id)
            .field("draining", &self.draining)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbs_core::{Branching, SearchAlgo};
    use sbs_workload::time::HOUR;

    fn daemon(capacity: u32) -> Daemon {
        Daemon::fresh(ServiceConfig::new(capacity, PolicySpec::FcfsBackfill))
    }

    #[test]
    fn submit_runs_one_decision_and_starts_fitting_jobs() {
        let mut d = daemon(8);
        let (id, started) = d.submit_at(100, 4, HOUR, None, 0).expect("submit");
        assert_eq!(id, JobId(0));
        assert!(started);
        assert_eq!(d.now(), 100);
        let (id2, started2) = d.submit_at(100, 8, HOUR, None, 0).expect("submit");
        assert_eq!(id2, JobId(1));
        assert!(!started2, "8 nodes cannot fit next to 4 on 8");
    }

    #[test]
    fn oversized_and_draining_submissions_are_rejected() {
        let mut d = daemon(8);
        assert!(d.submit_at(0, 9, HOUR, None, 0).is_err());
        d.drain();
        assert!(d.submit_at(0, 1, HOUR, None, 0).is_err());
    }

    #[test]
    fn departures_between_submissions_replay_as_decision_points() {
        let mut d = daemon(8);
        d.submit_at(0, 8, HOUR, None, 0).expect("submit");
        d.submit_at(10, 8, HOUR, None, 0).expect("submit"); // waits
                                                            // Submitting long after both jobs' departures replays them.
        let (_, started) = d.submit_at(3 * HOUR, 8, HOUR, None, 0).expect("submit");
        assert!(started, "machine drained by then");
        assert_eq!(d.records().len(), 2);
        assert_eq!(d.records()[0].end, HOUR);
        assert_eq!(
            d.records()[1].start,
            HOUR,
            "queued job started at departure"
        );
    }

    #[test]
    fn drain_completes_everything() {
        let mut d = daemon(8);
        for i in 0..5 {
            d.submit_at(i * 10, 4, HOUR, None, 0).expect("submit");
        }
        let (completed, leftover) = d.drain();
        assert_eq!(completed, 5);
        assert_eq!(leftover, 0);
        assert_eq!(d.metrics().completed.count, 5);
    }

    #[test]
    fn snapshot_round_trip_restores_the_same_world() {
        let mut d = daemon(8);
        d.submit_at(0, 4, 2 * HOUR, Some(3 * HOUR), 1)
            .expect("submit");
        d.submit_at(50, 8, HOUR, None, 2).expect("submit"); // waits
        let snap = d.snapshot();
        assert_eq!(snap.waiting.len(), 1);
        assert_eq!(snap.running.len(), 1);

        let cfg = ServiceConfig::new(8, PolicySpec::FcfsBackfill);
        let mut d2 = Daemon::from_snapshot(cfg, &snap).expect("restore");
        assert_eq!(d2.now(), d.now());
        assert_eq!(d2.snapshot(), snap, "snapshot of the restore is identical");

        // Both worlds evolve identically from here.
        let (a, _) = d.drain();
        let (b, _) = d2.drain();
        assert_eq!(a, b);
        assert_eq!(
            d.records().last().map(|r| (r.id, r.start, r.end)),
            d2.records().last().map(|r| (r.id, r.start, r.end)),
        );
    }

    #[test]
    fn capacity_mismatch_is_rejected_on_restore() {
        let mut d = daemon(8);
        let snap = d.snapshot();
        let err = Daemon::from_snapshot(ServiceConfig::new(16, PolicySpec::FcfsBackfill), &snap)
            .unwrap_err();
        assert!(err.contains("8-node"));
    }

    #[test]
    fn handle_dispatches_the_full_protocol() {
        let mut d = daemon(8);
        let (v, stop) = d.handle(
            Request::Submit {
                nodes: 2,
                runtime: HOUR,
                requested: None,
                user: 0,
                submit: Some(5),
            },
            0,
        );
        assert!(!stop);
        assert_eq!(v["ok"], true);
        assert_eq!(v["id"].as_u64(), Some(0));
        assert_eq!(v["started"], true);

        let (v, _) = d.handle(Request::Queue, 5);
        assert_eq!(v["running"].as_array().map(Vec::len), Some(1));

        let (v, _) = d.handle(Request::Cancel { id: 0 }, 5);
        assert_eq!(v["cancelled"], false, "running jobs cannot be cancelled");

        let (v, _) = d.handle(Request::Metrics, 5);
        assert!(v["text"].as_str().unwrap().contains("sbs_running_jobs 1"));

        let (v, _) = d.handle(Request::Drain, 5);
        assert_eq!(v["completed"].as_u64(), Some(1));

        let (v, stop) = d.handle(Request::Shutdown, 5);
        assert_eq!(v["ok"], true);
        assert!(stop);
    }

    #[test]
    fn batched_submit_reports_per_job_results_in_one_response() {
        use crate::protocol::SubmitSpec;
        let mut d = daemon(8);
        let spec = |nodes: u32| SubmitSpec {
            nodes,
            runtime: HOUR,
            requested: None,
            user: 0,
            submit: Some(10),
        };
        let (v, stop) = d.handle(
            Request::SubmitBatch {
                jobs: vec![spec(4), spec(9), spec(4)],
            },
            0,
        );
        assert!(!stop);
        assert_eq!(v["ok"], true);
        assert_eq!(v["accepted"].as_u64(), Some(2));
        let results = v["results"].as_array().expect("results array");
        assert_eq!(results.len(), 3);
        assert_eq!(results[0]["started"], true);
        assert_eq!(results[1]["ok"], false, "9 nodes never fit on 8");
        assert_eq!(results[2]["started"], true);
        // Batch parity: the same jobs one-at-a-time give identical ids.
        assert_eq!(results[0]["id"].as_u64(), Some(0));
        assert_eq!(results[2]["id"].as_u64(), Some(1));
    }

    #[test]
    fn search_policies_report_expanded_nodes() {
        let mut d = Daemon::fresh(ServiceConfig::new(8, PolicySpec::dds_lxf_dynb(1_000)));
        d.submit_at(0, 8, HOUR, None, 0).expect("submit");
        d.submit_at(1, 4, HOUR, None, 1).expect("submit");
        d.submit_at(2, 4, 2 * HOUR, None, 2).expect("submit");
        assert!(d.metrics().search_nodes > 0);
        let (completed, leftover) = d.drain();
        assert_eq!((completed, leftover), (3, 0));
    }

    #[test]
    fn portfolio_policy_reports_expanded_nodes_and_deadline_truncations() {
        // The race is built through `build_search()` like every other
        // search policy, so /metrics and /statusz see its totals and it
        // takes the per-decision deadline as its shared budget.
        let spec = PolicySpec::search_dynb(SearchAlgo::Portfolio, Branching::Lxf, 100_000);
        let mut d = Daemon::fresh(ServiceConfig::new(8, spec).with_deadline(Duration::ZERO));
        d.submit_at(0, 8, 2 * HOUR, None, 0).expect("submit");
        for at in 1..=9 {
            d.submit_at(at, 1, HOUR, None, 0).expect("submit");
        }
        assert!(d.deadline_truncations() > 0);
        assert!(d.statusz_value(false)["search_nodes"].as_u64() > Some(0));
        let text = d.metrics_text();
        let scraped = text
            .lines()
            .find_map(|l| l.strip_prefix("sbs_search_nodes_total "))
            .and_then(|v| v.parse::<u64>().ok());
        assert!(
            scraped > Some(0),
            "/metrics under-reports the race: {scraped:?}"
        );
        let (completed, leftover) = d.drain();
        assert_eq!((completed, leftover), (10, 0));
    }

    #[test]
    fn live_metrics_text_validates_and_carries_search_families() {
        let mut d = Daemon::fresh(ServiceConfig::new(8, PolicySpec::dds_lxf_dynb(1_000)));
        d.submit_at(0, 8, HOUR, None, 0).expect("submit");
        d.submit_at(1, 4, HOUR, None, 1).expect("submit");
        d.drain();
        let text = d.metrics_text();
        sbs_obs::expo::validate(&text).expect("live /metrics text validates");
        assert!(text.contains("# TYPE sbs_decisions_total counter\n"));
        assert!(text.contains("# TYPE sbs_search_leaves_total counter\n"));
        assert!(text.contains("# TYPE sbs_queue_depth_at_decision histogram\n"));
        assert!(text.contains("# TYPE sbs_wait_seconds histogram\n"));
        assert!(text.contains("sbs_wait_seconds_count 2\n"));
        assert!(text.contains("# TYPE sbs_decision_wall_nanos histogram\n"));
    }

    #[test]
    fn compat_metrics_serve_the_all_gauge_text() {
        let mut d = Daemon::fresh(
            ServiceConfig::new(8, PolicySpec::dds_lxf_dynb(1_000)).with_compat_metrics(true),
        );
        d.submit_at(0, 4, HOUR, None, 0).expect("submit");
        let text = d.metrics_text();
        assert_eq!(text.matches("# TYPE").count(), 13);
        assert_eq!(text.matches(" gauge\n").count(), 13);
        assert!(!text.contains("_bucket"));
    }

    #[test]
    fn handle_mints_dense_correlation_ids_and_stamps_decisions() {
        let mut d = Daemon::fresh(ServiceConfig::new(8, PolicySpec::dds_lxf_dynb(500)));
        let submit = |t: u64| Request::Submit {
            nodes: 2,
            runtime: HOUR,
            requested: None,
            user: 0,
            submit: Some(t),
        };
        let (v, _) = d.handle(submit(0), 0);
        assert_eq!(v["corr"].as_u64(), Some(1));
        let (v, _) = d.handle(submit(1), 1);
        assert_eq!(v["corr"].as_u64(), Some(2));
        // The second submit's decision carries its request id end to end.
        let last = d.recorder().ring().iter().last().expect("decision traced");
        assert_eq!(last.corr, 2);
        let search = last
            .policy
            .as_ref()
            .and_then(|p| p.search.as_ref())
            .expect("search trace");
        assert_eq!(search.trace_id, 2, "policy stamped the request id");
        // Decisions not triggered by a request stay unscoped.
        d.poll_to(2 * HOUR);
        let last = d
            .recorder()
            .ring()
            .iter()
            .last()
            .expect("departure decision");
        assert_eq!(last.corr, 0);
    }

    #[test]
    fn slow_decision_thresholds_fill_the_incident_ring() {
        let cfg = ServiceConfig::new(8, PolicySpec::dds_lxf_dynb(500))
            .with_slow_thresholds(None, Some(0));
        let mut d = Daemon::fresh(cfg);
        d.submit_at(0, 4, HOUR, None, 0).expect("submit");
        d.submit_at(1, 8, HOUR, None, 1).expect("submit");
        assert!(
            d.incidents().iter().count() >= 2,
            "every decision trips Some(0)"
        );
        let (v, _) = d.handle(Request::Incidents, 1);
        assert_eq!(v["ok"], true);
        assert!(v["captured"].as_u64().unwrap_or(0) >= 2);
        let items = v["incidents"].as_array().expect("incident array");
        assert_eq!(items.len(), v["captured"].as_u64().unwrap() as usize);
        assert!(items[0]["reason"].as_str().unwrap().contains("nodes_left"));
        assert!(items[0]["decision"]["seq"].as_u64().is_some());
        // A journal Warn event was emitted per incident.
        assert!(d
            .journal()
            .ring()
            .any(|e| e.kind == "slow_decision" && e.severity == sbs_obs::Severity::Warn));
    }

    #[test]
    fn healthz_reports_draining_and_statusz_carries_the_status_fields() {
        let mut d = Daemon::fresh(ServiceConfig::new(8, PolicySpec::dds_lxf_dynb(500)));
        d.submit_at(0, 4, HOUR, None, 0).expect("submit");
        let h = d.healthz_value();
        assert_eq!(h["ok"], true);
        assert_eq!(h["draining"], false);
        d.observe_submit_ns(r#"{"op":"submit","nodes":1,"runtime":60}"#, 5_000);
        d.observe_submit_ns(r#"{"op":"queue"}"#, 5_000);
        let s = d.statusz_value(false);
        assert_eq!(s["schema"].as_str(), Some("sbs-statusz/v1"));
        assert_eq!(s["submit_latency_ns"]["count"].as_u64(), Some(1));
        assert!(s["submit_latency_ns"]["p99"].as_u64().unwrap() >= 5_000);
        assert!(s["decisions"].as_u64().unwrap() >= 1);
        assert!(s.get("incidents").is_none(), "incidents are opt-in");
        assert!(d.statusz_value(true).get("incidents").is_some());
        d.drain();
        // Hour-long jobs crossed many 60s window boundaries.
        let s = d.statusz_value(false);
        assert!(!s["windows"].as_array().unwrap().is_empty());
        let h = d.healthz_value();
        assert_eq!(h["ok"], false, "draining daemons are not ready");
        assert_eq!(h["draining"], true);
    }

    #[test]
    fn virtual_mode_event_journals_are_byte_identical_across_runs() {
        let dir = std::env::temp_dir().join(format!("sbs-daemon-events-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let run = |name: &str| -> String {
            let path = dir.join(name);
            // sbs-lint: allow(result-dropped): best-effort cleanup of a prior run's fixture
            let _ = std::fs::remove_file(&path);
            let cfg = ServiceConfig::new(8, PolicySpec::dds_lxf_dynb(500))
                .with_event_mode(TimeMode::Virtual)
                .with_event_log(path.clone(), 1 << 20);
            let mut d = Daemon::fresh(cfg);
            // Debug-level submits are below the default Info floor; raise
            // verbosity so the journal carries per-request events too.
            d.journal.set_min_severity(Severity::Debug);
            for t in 0..4u64 {
                let (v, _) = d.handle(
                    Request::Submit {
                        nodes: 4,
                        runtime: HOUR,
                        requested: None,
                        user: 0,
                        submit: Some(t),
                    },
                    t,
                );
                assert_eq!(v["ok"], true);
            }
            let (v, _) = d.handle(Request::Drain, 4);
            assert_eq!(v["ok"], true);
            d.flush_events();
            let text = std::fs::read_to_string(&path).expect("journal file");
            // sbs-lint: allow(result-dropped): best-effort cleanup
            let _ = std::fs::remove_file(&path);
            text
        };
        let a = run("a.jsonl");
        let b = run("b.jsonl");
        assert_eq!(a, b, "virtual-mode journals must be byte-identical");
        assert!(
            a.lines().count() >= 6,
            "meta line plus one event per request"
        );
        let meta: serde_json::Value = serde_json::from_str(a.lines().next().unwrap()).unwrap();
        assert_eq!(meta["schema"].as_str(), Some(sbs_obs::EVENT_SCHEMA));
        assert_eq!(meta["mode"].as_str(), Some("virtual"));
        assert!(
            !a.contains("wall_ns"),
            "virtual journals omit wall durations"
        );
        assert!(a.contains("\"kind\":\"submit\""));
        assert!(a.contains("\"kind\":\"drain\""));
    }

    #[test]
    fn trace_log_captures_wall_mode_decisions() {
        let dir = std::env::temp_dir().join(format!("sbs-daemon-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("daemon-trace.jsonl");
        // sbs-lint: allow(result-dropped): best-effort cleanup of a prior run's fixture
        let _ = std::fs::remove_file(&path);
        let mut d = Daemon::fresh(
            ServiceConfig::new(8, PolicySpec::dds_lxf_dynb(1_000)).with_trace_log(path.clone()),
        );
        d.submit_at(0, 4, HOUR, None, 0).expect("submit");
        d.submit_at(1, 8, HOUR, None, 1).expect("submit");
        d.drain();
        d.flush_traces().expect("flush");
        let text = std::fs::read_to_string(&path).expect("trace log");
        let meta_line = text.lines().next().expect("meta line");
        let meta =
            sbs_obs::TraceMeta::from_value(&serde_json::from_str(meta_line).expect("meta parses"))
                .expect("schema accepted");
        assert_eq!(meta.mode, "wall");
        assert!(meta.policy.contains("DDS"));
        assert!(text.lines().count() > 1, "decisions recorded");
        assert!(
            text.lines().nth(1).expect("decision").contains("wall_ns"),
            "wall mode serializes wall_ns"
        );
        // sbs-lint: allow(result-dropped): best-effort cleanup
        let _ = std::fs::remove_file(&path);
    }
}
