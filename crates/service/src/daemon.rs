//! The single-cluster online scheduler daemon.
//!
//! [`Daemon`] is one [`Cluster`] behind one serving [`Edge`]: the
//! cluster owns the scheduler world and the body of every protocol op;
//! the daemon mints a correlation id per request, runs the op, journals
//! the outcome, and keeps the `/statusz` self-scrape window.  Everything
//! a cluster can do is reachable through the daemon (it dereferences to
//! its cluster); the three entry points that run decisions —
//! [`Daemon::submit_at`], [`Daemon::poll_to`], [`Daemon::drain`] — are
//! wrapped so slow decisions reach the journal and the window is
//! sampled however the daemon is driven.

use crate::cluster::Cluster;
use crate::edge::{op_event, Edge};
use crate::protocol::{CorrelationSource, Request};
use crate::snapshot::Snapshot;
use sbs_core::PolicySpec;
use sbs_obs::{Event, EventJournal, ObsConfig, Severity};
use sbs_workload::job::{JobId, RuntimeKnowledge};
use sbs_workload::time::Time;
use serde_json::{json, Value};
use std::path::PathBuf;
use std::time::Duration;

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
    /// Event journal and slow-decision capture.
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

    /// Sets the event-journal and slow-decision configuration.
    pub fn with_obs(mut self, obs: ObsConfig) -> Self {
        self.obs = obs;
        self
    }
}

/// The long-running single-cluster scheduler service.
#[derive(Debug)]
pub struct Daemon {
    cluster: Cluster,
    edge: Edge,
    /// Correlation ids, minted once per request.
    corr: CorrelationSource,
    /// How many of the cluster's lifetime incidents are journaled.
    incidents_journaled: u64,
}

impl std::ops::Deref for Daemon {
    type Target = Cluster;

    fn deref(&self) -> &Cluster {
        &self.cluster
    }
}

impl std::ops::DerefMut for Daemon {
    fn deref_mut(&mut self) -> &mut Cluster {
        &mut self.cluster
    }
}

impl Daemon {
    /// Builds the daemon; recovers from `cfg.snapshot_path` when a
    /// snapshot exists there.
    pub fn new(cfg: ServiceConfig) -> Result<Self, String> {
        Cluster::new(cfg).map(Self::around)
    }

    /// A daemon starting from an empty machine at time 0.
    pub fn fresh(cfg: ServiceConfig) -> Self {
        Self::around(Cluster::fresh(cfg))
    }

    /// Rebuilds the daemon's world from a snapshot (see
    /// [`Cluster::from_snapshot`]).
    pub fn from_snapshot(cfg: ServiceConfig, snap: &Snapshot) -> Result<Self, String> {
        Cluster::from_snapshot(cfg, snap).map(Self::around)
    }

    fn around(cluster: Cluster) -> Self {
        Daemon {
            edge: Edge::new(cluster.obs(), cluster.now()),
            cluster,
            corr: CorrelationSource::new(),
            incidents_journaled: 0,
        }
    }

    /// Settles the edge after the cluster ran decisions: one Warn
    /// `slow_decision` event per incident captured since the last call
    /// (those still in the ring), and a status sample if scheduler time
    /// crossed a window boundary.
    fn settle(&mut self) {
        let total = self.cluster.incidents_total();
        let fresh = total.saturating_sub(self.incidents_journaled) as usize;
        self.incidents_journaled = total;
        if fresh > 0 && self.edge.journal.enabled() {
            let ring = self.cluster.incidents();
            for incident in ring.iter().skip(ring.len().saturating_sub(fresh)) {
                self.edge.journal.emit(
                    Event::new(Severity::Warn, "daemon", "slow_decision")
                        .at(incident.decision.now)
                        .corr(incident.decision.corr)
                        .detail("seq", incident.decision.seq),
                );
            }
        }
        if self.edge.window.due(self.cluster.now()) {
            self.edge.window.push(self.cluster.status_sample());
        }
    }

    /// [`Cluster::poll_to`], then settles the edge.
    pub fn poll_to(&mut self, t: Time) {
        self.cluster.poll_to(t);
        self.settle();
    }

    /// [`Cluster::submit_at`], then settles the edge.
    pub fn submit_at(
        &mut self,
        at: Time,
        nodes: u32,
        runtime: Time,
        requested: Option<Time>,
        user: u32,
    ) -> Result<(JobId, bool), String> {
        let out = self.cluster.submit_at(at, nodes, runtime, requested, user);
        self.settle();
        out
    }

    /// [`Cluster::drain`], then settles the edge.
    pub fn drain(&mut self) -> (usize, usize) {
        let out = self.cluster.drain();
        self.settle();
        out
    }

    /// The daemon's event journal (read-only).
    pub fn journal(&self) -> &EventJournal {
        &self.edge.journal
    }

    /// Flushes the event-journal sink, if one is attached.
    pub fn flush_events(&mut self) {
        self.edge.journal.flush();
    }

    /// Folds one measured request latency when the line is
    /// submit-shaped (see [`Edge::observe_request_ns`]).
    pub fn observe_submit_ns(&mut self, line: &str, ns: u64) {
        self.edge.observe_request_ns(line, ns);
    }

    /// Operational JSON for `GET /statusz`.
    pub fn statusz_value(&mut self, include_incidents: bool) -> Value {
        let m = self.cluster.metrics();
        let live = self.cluster.status_sample();
        let mut v = json!({
            "schema": "sbs-statusz/v1",
            "now": m.now,
            "policy": self.cluster.policy_name(),
            "capacity": m.capacity,
            "free_nodes": m.free_nodes,
            "queue_depth": live.queue_depth,
            "running": m.running_jobs as u64,
            "draining": self.cluster.draining(),
            "submitted": live.submitted,
            "decisions": live.decisions,
            "completed": live.completed,
            "search_nodes": live.search_nodes,
            "incidents_captured": self.cluster.incidents_total(),
        });
        self.edge.status_into(&live, &mut v);
        if let (true, Value::Object(m)) = (include_incidents, &mut v) {
            m.insert(
                "incidents".into(),
                Value::Array(self.cluster.incidents_value()),
            );
        }
        v
    }

    /// Dispatches one protocol request at scheduler time `at` under a
    /// fresh correlation id: the id is threaded into every decision the
    /// request triggers, journaled, and echoed back as `"corr"`.
    /// Returns the response and whether the daemon should shut down.
    pub fn handle(&mut self, req: Request, at: Time) -> (Value, bool) {
        let corr = self.corr.mint();
        let kind = op_event(&req);
        self.cluster.set_correlation(corr);
        let (mut v, stop) = self.cluster.dispatch(req, at);
        self.cluster.set_correlation(0);
        self.settle();
        if let Value::Object(m) = &mut v {
            m.insert("corr".into(), corr.into());
        }
        let depth = self.cluster.status_sample().queue_depth;
        self.edge.journal_request(
            "daemon",
            kind,
            &v,
            self.cluster.now(),
            ("queue_depth", depth),
        );
        (v, stop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbs_core::{Branching, SearchAlgo};
    use sbs_obs::TimeMode;
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
            .with_obs(ObsConfig::default().with_slow_thresholds(None, Some(0)));
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
            let cfg = ServiceConfig::new(8, PolicySpec::dds_lxf_dynb(500)).with_obs(
                ObsConfig::default()
                    .with_event_mode(TimeMode::Virtual)
                    .with_event_log(path.clone(), 1 << 20),
            );
            let mut d = Daemon::fresh(cfg);
            // Debug-level submits are below the default Info floor; raise
            // verbosity so the journal carries per-request events too.
            d.edge.journal.set_min_severity(Severity::Debug);
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
