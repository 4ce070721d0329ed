//! The serving edge: what sits between the wire and the cluster(s).
//!
//! An [`Edge`] is the operator surface of one server — the
//! `sbs-events/v1` journal, the request-latency histogram and the
//! `/statusz` self-scrape window — plus the one request-kind → severity
//! table and the one request-journaling function.  The fleet front end
//! (`sbs-fleet`) holds one, behind a leaf mutex, in front of all its
//! tenants.  Request correlation ids come from a
//! [`crate::CorrelationSource`] the fleet keeps beside its edge, so
//! minting never takes the edge's lock.

use crate::protocol::Request;
use sbs_obs::status::{quantiles_value, Rates};
use sbs_obs::{Event, EventJournal, Histogram, ObsConfig, Severity, StatusSample, StatusWindow};
use sbs_workload::time::Time;
use serde_json::{json, Value};

/// Journal, latency histogram and status window of one server.
#[derive(Debug)]
pub struct Edge {
    /// The `sbs-events/v1` operational journal.
    pub journal: EventJournal,
    /// Wall nanoseconds per submit-shaped request, measured at the
    /// protocol edge.
    submit_wall: Histogram,
    /// Self-scrape samples at status-window boundaries.
    pub window: StatusWindow,
}

impl Edge {
    /// An edge for a server whose scheduler time starts at `now`.
    pub fn new(cfg: &ObsConfig, now: Time) -> Self {
        Edge {
            journal: cfg.build_journal(),
            submit_wall: Histogram::exponential(1_000, 10, 7),
            window: StatusWindow::starting_at(now),
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

    /// Journals one request outcome: `kind` at its base severity, or at
    /// `Error` when the response says `"ok": false`.  `scope` names who
    /// answered, `gauge` is the one load figure the scope reports with
    /// every request.
    pub fn journal_request(
        &mut self,
        scope: &str,
        (kind, severity): (&str, Severity),
        response: &Value,
        at: Time,
        (gauge, level): (&str, u64),
    ) {
        if !self.journal.enabled() {
            return;
        }
        let ok = response.get("ok") != Some(&Value::Bool(false));
        let field = |key: &str| response.get(key).and_then(Value::as_u64);
        let severity = if ok { severity } else { Severity::Error };
        let mut event = Event::new(severity, scope, kind)
            .at(at)
            .corr(field("corr").unwrap_or(0))
            .detail(gauge, level);
        for key in ["id", "accepted"] {
            if let Some(n) = field(key) {
                event = event.detail(key, n);
            }
        }
        self.journal.emit(event);
    }

    /// Writes the edge's share of a `/statusz` document into `doc` —
    /// windowed rates up to the `live` counters, submit latency, journal
    /// counters and the sample ring — and returns the rates.
    pub fn status_into(&self, live: &StatusSample, doc: &mut Value) -> Rates {
        let rates = self.window.rates(live);
        if let Value::Object(m) = doc {
            m.insert("deadline_hit_rate".into(), rates.deadline_hit_rate.into());
            m.insert(
                "search_nodes_per_sec".into(),
                rates.search_nodes_per_sec.into(),
            );
            m.insert(
                "submit_latency_ns".into(),
                quantiles_value(Some(&self.submit_wall), true),
            );
            m.insert(
                "events".into(),
                json!({
                    "emitted": self.journal.emitted(),
                    "filtered": self.journal.filtered(),
                }),
            );
            m.insert("windows".into(), self.window.to_value());
        }
        rates
    }
}

/// Journal event kind and base severity for one request type.
pub fn op_event(req: &Request) -> (&'static str, Severity) {
    match req {
        Request::Submit { .. } => ("submit", Severity::Debug),
        Request::SubmitBatch { .. } => ("submit_batch", Severity::Debug),
        Request::Cancel { .. } => ("cancel", Severity::Debug),
        Request::Queue => ("queue", Severity::Debug),
        Request::Metrics => ("metrics", Severity::Debug),
        Request::Incidents => ("incidents", Severity::Debug),
        Request::Drain => ("drain", Severity::Info),
        Request::Snapshot => ("snapshot", Severity::Info),
        Request::Shutdown => ("shutdown", Severity::Info),
    }
}
