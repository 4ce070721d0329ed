//! The serving edge: what sits between the wire and the cluster(s).
//!
//! An [`Edge`] is the operator surface of one server — the
//! `sbs-events/v1` journal and the request-latency histogram — plus the
//! one request-kind table and the one request-journaling function,
//! which holds the journal's rule.  The fleet front end
//! (`sbs-fleet`) holds one, behind a leaf mutex, in front of all its
//! tenants.  Request correlation ids come from a
//! [`crate::CorrelationSource`] the fleet keeps beside its edge, so
//! minting never takes the edge's lock.

use crate::protocol::Request;
use sbs_obs::{Event, EventJournal, Histogram, ObsConfig, Severity};
use sbs_workload::time::Time;
use serde_json::{json, Value};

/// Journal and latency histogram of one server.
#[derive(Debug)]
pub struct Edge {
    /// The `sbs-events/v1` operational journal.
    pub journal: EventJournal,
    /// Wall nanoseconds per submit-shaped request, measured at the
    /// protocol edge.
    submit_wall: Histogram,
}

impl Edge {
    /// An edge whose journal `cfg` configures.
    pub fn new(cfg: &ObsConfig) -> Self {
        Edge {
            journal: cfg.build_journal(),
            submit_wall: Histogram::exponential(1_000, 10, 7),
        }
    }

    /// Folds one measured request latency when the line is
    /// submit-shaped.  The substring check is a deliberate pre-parse
    /// heuristic — cheap enough for every request, and an operator
    /// histogram tolerates the rare false positive from a `"submit"`
    /// payload field.
    pub fn observe_request_ns(&mut self, line: &str, ns: u64) {
        if line.contains("\"submit") {
            self.submit_wall.observe(ns);
        }
    }

    /// Journals one request outcome by the journal's one rule: a
    /// request is written if and only if it is a `lifecycle` op (at
    /// `Info`) or its response says `"ok": false` (at `Error`); any
    /// other is counted as filtered.  `scope` names who answered,
    /// `gauge` is the one load figure the scope reports with every
    /// request.
    pub fn journal_request(
        &mut self,
        scope: &str,
        (kind, lifecycle): (&str, bool),
        response: &Value,
        at: Time,
        (gauge, level): (&str, u64),
    ) {
        let ok = response.get("ok") != Some(&Value::Bool(false));
        if !self.journal.admits(lifecycle || !ok) {
            return;
        }
        let severity = if ok { Severity::Info } else { Severity::Error };
        let corr = response.get("corr").and_then(Value::as_u64).unwrap_or(0);
        let event = Event::new(severity, scope, kind)
            .at(at)
            .corr(corr)
            .detail(gauge, level);
        self.journal.emit(event);
    }

    /// Writes the edge's share of a `/statusz` document into `doc`:
    /// submit latency and the journal's counters.
    pub fn status_into(&self, doc: &mut Value) {
        if let Value::Object(m) = doc {
            m.insert(
                "submit_latency_ns".into(),
                quantiles_value(&self.submit_wall),
            );
            m.insert(
                "events".into(),
                json!({
                    "emitted": self.journal.emitted(),
                    "filtered": self.journal.filtered(),
                }),
            );
        }
    }
}

/// A latency histogram as the status documents spell it: `p50`, `p99`,
/// `p999` and `count`.
fn quantiles_value(hist: &Histogram) -> Value {
    let q = |q: f64| hist.quantile(q).unwrap_or(0);
    json!({
        "p50": q(0.50),
        "p99": q(0.99),
        "p999": q(0.999),
        "count": hist.count(),
    })
}

/// Journal event kind for one request type, and whether it is a
/// lifecycle op (journaled even when it succeeds).
pub fn op_event(req: &Request) -> (&'static str, bool) {
    match req {
        Request::Submit { .. } => ("submit", false),
        Request::SubmitBatch { .. } => ("submit_batch", false),
        Request::Cancel { .. } => ("cancel", false),
        Request::Queue => ("queue", false),
        Request::Metrics => ("metrics", false),
        Request::Incidents => ("incidents", false),
        Request::Drain => ("drain", true),
        Request::Snapshot => ("snapshot", true),
        Request::Shutdown => ("shutdown", true),
    }
}
