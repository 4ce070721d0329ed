//! The newline-delimited JSON protocol.
//!
//! One request per line, one JSON object per request, answered by one
//! JSON object per line.  Every request carries an `"op"` field:
//!
//! ```text
//! {"op":"submit","nodes":4,"runtime":3600}              -> {"ok":true,"id":0,...}
//! {"op":"cancel","id":0}                                -> {"ok":true,"cancelled":true}
//! {"op":"queue"}                                        -> {"ok":true,"now":...,"queue":[...],"running":[...]}
//! {"op":"metrics"}                                      -> {"ok":true,"text":"..."}
//! {"op":"drain"}                                        -> {"ok":true,"completed":N}
//! {"op":"snapshot"}                                     -> {"ok":true,"path":"..."}
//! {"op":"shutdown"}                                     -> {"ok":true}
//! ```
//!
//! `submit` accepts optional `requested` (seconds, defaults to
//! `runtime`), `user`, and — on virtual-clock daemons only — an explicit
//! `submit` time.  `runtime`, `requested` and `submit` are capped at
//! [`MAX_SECONDS`].  Unknown fields are ignored; malformed requests get
//! `{"ok":false,"error":"..."}` and the connection stays open.
//!
//! Two fleet extensions ride on the same line format:
//!
//! ```text
//! {"op":"submit_batch","jobs":[{"nodes":4,"runtime":60},...]}  -> {"ok":true,"ids":[...],...}
//! {"op":"submit","cluster":"alpha","nodes":4,"runtime":60}     -> routed to tenant "alpha"
//! ```
//!
//! Any request may carry a `"cluster"` routing field (extracted by
//! [`parse_routed`]); a request without one goes to the `default`
//! tenant.  Batches are capped at [`MAX_BATCH`] jobs per request.

use sbs_workload::time::Time;
use serde_json::Value;
use std::sync::atomic::{AtomicU64, Ordering};

/// Largest number of jobs one `submit_batch` request may carry.
pub const MAX_BATCH: usize = 1024;

/// Largest `runtime`, `requested` or `submit` a request may carry, in
/// seconds: 2^40, about 34,800 years.  Far past any real job or clock,
/// and small enough that what the scheduler adds up from them (a start
/// plus a runtime, a clock run past millions of such jobs) stays inside
/// `u64` — an unchecked runtime near `u64::MAX` would wrap its predicted
/// end to before its start.
pub const MAX_SECONDS: Time = 1 << 40;

/// Mints correlation ids at the protocol edge.
///
/// Every request that reaches a daemon gets the next id from the owning
/// front end's source; the id is threaded through the scheduler core and
/// search policies, stamped into decision traces and journal events, and
/// echoed back to the client as `"corr"` so one request can be followed
/// fleet → shard → daemon → search.  Ids start at 1: `0` everywhere
/// means "not request-scoped" (batch simulation), which keeps virtual
/// trace bytes identical to pre-correlation runs.
///
/// The counter is a plain sequence, not a synchronization point — no
/// other memory is published under it — so `Relaxed` suffices.
#[derive(Debug, Default)]
pub struct CorrelationSource(AtomicU64);

impl CorrelationSource {
    /// A fresh source; the first minted id is 1.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the next nonzero correlation id.
    pub fn mint(&self) -> u64 {
        self.0.fetch_add(1, Ordering::Relaxed) + 1
    }
}

/// One job inside a `submit_batch` request (same fields as `submit`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubmitSpec {
    /// Requested node count.
    pub nodes: u32,
    /// Actual runtime (the daemon simulates execution).
    pub runtime: Time,
    /// User-requested runtime; defaults to `runtime`.
    pub requested: Option<Time>,
    /// Submitting user id.
    pub user: u32,
    /// Explicit submission time (virtual-clock daemons only).
    pub submit: Option<Time>,
}

/// A decoded protocol request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Enqueue a job.
    Submit {
        /// Requested node count.
        nodes: u32,
        /// Actual runtime (the daemon simulates execution).
        runtime: Time,
        /// User-requested runtime; defaults to `runtime`.
        requested: Option<Time>,
        /// Submitting user id.
        user: u32,
        /// Explicit submission time (virtual-clock daemons only).
        submit: Option<Time>,
    },
    /// Enqueue many jobs at once; answered by one response per batch.
    SubmitBatch {
        /// The jobs, in submission order.
        jobs: Vec<SubmitSpec>,
    },
    /// Remove a waiting job.
    Cancel {
        /// The id returned by `submit`.
        id: u32,
    },
    /// Queue and running-set view.
    Queue,
    /// Plaintext metrics.
    Metrics,
    /// Stop admitting work and fast-forward until everything completes.
    Drain,
    /// Force a state snapshot to disk.
    Snapshot,
    /// Captured slow-decision incidents (bounded, newest last).
    Incidents,
    /// Snapshot (if configured) and stop the daemon.
    Shutdown,
}

fn get_u64(v: &Value, key: &str) -> Result<Option<u64>, String> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(f) => f
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("field {key:?} must be a non-negative integer")),
    }
}

fn require_u64(v: &Value, key: &str) -> Result<u64, String> {
    get_u64(v, key)?.ok_or_else(|| format!("missing field {key:?}"))
}

/// [`get_u64`] for a time field, bounded by [`MAX_SECONDS`].
fn get_seconds(v: &Value, key: &str) -> Result<Option<Time>, String> {
    match get_u64(v, key)? {
        Some(t) if t > MAX_SECONDS => Err(format!(
            "field {key:?} must be at most {MAX_SECONDS} seconds (2^40)"
        )),
        t => Ok(t),
    }
}

/// Parses the submit-shaped fields of `v` into a [`SubmitSpec`].
fn parse_submit_spec(v: &Value) -> Result<SubmitSpec, String> {
    let nodes = u32::try_from(require_u64(v, "nodes")?)
        .ok()
        .filter(|&n| n > 0)
        .ok_or("\"nodes\" must be in 1..=2^32-1")?;
    let runtime = get_seconds(v, "runtime")?.ok_or("missing field \"runtime\"")?;
    if runtime == 0 {
        return Err("\"runtime\" must be positive".into());
    }
    Ok(SubmitSpec {
        nodes,
        runtime,
        requested: get_seconds(v, "requested")?,
        user: u32::try_from(get_u64(v, "user")?.unwrap_or(0)).unwrap_or(u32::MAX),
        submit: get_seconds(v, "submit")?,
    })
}

fn parse_value(v: &Value) -> Result<Request, String> {
    let op = v
        .get("op")
        .and_then(Value::as_str)
        .ok_or("missing field \"op\"")?;
    match op {
        "submit" => {
            let spec = parse_submit_spec(v)?;
            Ok(Request::Submit {
                nodes: spec.nodes,
                runtime: spec.runtime,
                requested: spec.requested,
                user: spec.user,
                submit: spec.submit,
            })
        }
        "submit_batch" => {
            let jobs = v
                .get("jobs")
                .and_then(Value::as_array)
                .ok_or("missing field \"jobs\" (array)")?;
            if jobs.is_empty() {
                return Err("\"jobs\" must not be empty".into());
            }
            if jobs.len() > MAX_BATCH {
                return Err(format!(
                    "\"jobs\" holds {} entries; the batch cap is {MAX_BATCH}",
                    jobs.len()
                ));
            }
            let mut specs = Vec::with_capacity(jobs.len());
            for (i, j) in jobs.iter().enumerate() {
                specs.push(parse_submit_spec(j).map_err(|e| format!("jobs[{i}]: {e}"))?);
            }
            Ok(Request::SubmitBatch { jobs: specs })
        }
        "cancel" => {
            let id = u32::try_from(require_u64(v, "id")?).map_err(|_| "\"id\" out of range")?;
            Ok(Request::Cancel { id })
        }
        "queue" => Ok(Request::Queue),
        "metrics" => Ok(Request::Metrics),
        "drain" => Ok(Request::Drain),
        "snapshot" => Ok(Request::Snapshot),
        "incidents" => Ok(Request::Incidents),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!("unknown op {other:?}")),
    }
}

/// Parses one request line plus its optional `"cluster"` routing field.
///
/// The fleet picks a tenant by the routing field before dispatch.
pub fn parse_routed(line: &str) -> Result<(Option<String>, Request), String> {
    let v: Value = serde_json::from_str(line).map_err(|e| e.to_string())?;
    let cluster = match v.get("cluster") {
        None | Some(Value::Null) => None,
        Some(Value::String(s)) => {
            validate_cluster_id(s)?;
            Some(s.clone())
        }
        Some(_) => return Err("field \"cluster\" must be a string".into()),
    };
    Ok((cluster, parse_value(&v)?))
}

/// Checks that a cluster id is usable as a routing key and a metrics
/// label value: non-empty, at most 64 bytes, `[A-Za-z0-9_.-]` only.
pub fn validate_cluster_id(id: &str) -> Result<(), String> {
    if id.is_empty() {
        return Err("\"cluster\" must not be empty".into());
    }
    if id.len() > 64 {
        return Err("\"cluster\" longer than 64 bytes".into());
    }
    if !id
        .bytes()
        .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    {
        return Err("\"cluster\" may only contain [A-Za-z0-9_.-]".into());
    }
    Ok(())
}

/// The standard failure envelope.
pub fn error_response(message: &str) -> Value {
    serde_json::json!({ "ok": false, "error": message })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The request a line carries, its routing field set aside.
    fn parse_request(line: &str) -> Result<Request, String> {
        parse_routed(line).map(|(_, req)| req)
    }

    #[test]
    fn submit_accepts_minimal_and_full_forms() {
        let r = parse_request(r#"{"op":"submit","nodes":4,"runtime":3600}"#).unwrap();
        assert_eq!(
            r,
            Request::Submit {
                nodes: 4,
                runtime: 3600,
                requested: None,
                user: 0,
                submit: None
            }
        );
        let r = parse_request(
            r#"{"op":"submit","nodes":1,"runtime":60,"requested":120,"user":7,"submit":500}"#,
        )
        .unwrap();
        assert_eq!(
            r,
            Request::Submit {
                nodes: 1,
                runtime: 60,
                requested: Some(120),
                user: 7,
                submit: Some(500)
            }
        );
    }

    #[test]
    fn malformed_requests_are_described() {
        for (line, needle) in [
            ("{", "JSON"),
            (r#"{"nodes":1}"#, "op"),
            (r#"{"op":"warp"}"#, "unknown op"),
            (r#"{"op":"submit","runtime":60}"#, "nodes"),
            (r#"{"op":"submit","nodes":0,"runtime":60}"#, "nodes"),
            (r#"{"op":"submit","nodes":1,"runtime":0}"#, "runtime"),
            (r#"{"op":"submit","nodes":1,"runtime":-5}"#, "runtime"),
            (r#"{"op":"cancel"}"#, "id"),
        ] {
            let err = parse_request(line).unwrap_err();
            assert!(err.contains(needle), "{line}: {err}");
        }
    }

    #[test]
    fn time_fields_beyond_the_bound_are_rejected_by_name() {
        // Used to be acknowledged: the job started and its predicted end
        // wrapped to before its start.
        for field in ["runtime", "requested", "submit"] {
            for bad in [MAX_SECONDS + 1, 18_446_744_073_709_551_000, u64::MAX] {
                let line = format!(r#"{{"op":"submit","nodes":4,"runtime":60,"{field}":{bad}}}"#);
                let err = parse_request(&line).unwrap_err();
                assert!(err.contains(&format!("{field:?}")), "{line}: {err}");
                assert!(err.contains("at most"), "{line}: {err}");
                let batch = format!(
                    r#"{{"op":"submit_batch","jobs":[{{"nodes":4,"runtime":60,"{field}":{bad}}}]}}"#
                );
                let err = parse_request(&batch).unwrap_err();
                assert!(
                    err.contains("jobs[0]") && err.contains(field),
                    "{batch}: {err}"
                );
            }
        }
        let at_bound = format!(
            r#"{{"op":"submit","nodes":1,"runtime":{MAX_SECONDS},"requested":{MAX_SECONDS},"submit":{MAX_SECONDS}}}"#
        );
        assert!(matches!(
            parse_request(&at_bound),
            Ok(Request::Submit {
                runtime: MAX_SECONDS,
                ..
            })
        ));
    }

    #[test]
    fn simple_ops_parse() {
        assert_eq!(parse_request(r#"{"op":"queue"}"#).unwrap(), Request::Queue);
        assert_eq!(parse_request(r#"{"op":"drain"}"#).unwrap(), Request::Drain);
        assert_eq!(
            parse_request(r#"{"op":"incidents"}"#).unwrap(),
            Request::Incidents
        );
        assert_eq!(
            parse_request(r#"{"op":"shutdown"}"#).unwrap(),
            Request::Shutdown
        );
    }

    #[test]
    fn correlation_ids_are_dense_and_nonzero() {
        let src = CorrelationSource::new();
        assert_eq!(src.mint(), 1);
        assert_eq!(src.mint(), 2);
        assert_eq!(src.mint(), 3);
    }

    #[test]
    fn submit_batch_parses_and_enforces_the_cap() {
        let r = parse_request(
            r#"{"op":"submit_batch","jobs":[{"nodes":4,"runtime":60},{"nodes":1,"runtime":30,"user":2}]}"#,
        )
        .unwrap();
        match r {
            Request::SubmitBatch { jobs } => {
                assert_eq!(jobs.len(), 2);
                assert_eq!(jobs[0].nodes, 4);
                assert_eq!(jobs[1].user, 2);
            }
            other => panic!("expected SubmitBatch, got {other:?}"),
        }
        // Per-entry errors carry the offending index.
        let err = parse_request(
            r#"{"op":"submit_batch","jobs":[{"nodes":1,"runtime":60},{"nodes":0,"runtime":60}]}"#,
        )
        .unwrap_err();
        assert!(err.contains("jobs[1]"), "{err}");
        // Empty and oversized batches are rejected.
        assert!(parse_request(r#"{"op":"submit_batch","jobs":[]}"#).is_err());
        let huge = format!(
            r#"{{"op":"submit_batch","jobs":[{}]}}"#,
            vec![r#"{"nodes":1,"runtime":1}"#; MAX_BATCH + 1].join(",")
        );
        let err = parse_request(&huge).unwrap_err();
        assert!(err.contains("batch cap"), "{err}");
    }

    #[test]
    fn cluster_routing_is_extracted_and_validated() {
        let (cluster, r) =
            parse_routed(r#"{"op":"submit","cluster":"alpha-1","nodes":2,"runtime":60}"#).unwrap();
        assert_eq!(cluster.as_deref(), Some("alpha-1"));
        assert!(matches!(r, Request::Submit { nodes: 2, .. }));
        // No cluster field -> unrouted.
        let (cluster, _) = parse_routed(r#"{"op":"queue"}"#).unwrap();
        assert_eq!(cluster, None);
        // Bad cluster ids are typed errors, not routing surprises.
        for line in [
            r#"{"op":"queue","cluster":7}"#,
            r#"{"op":"queue","cluster":""}"#,
            r#"{"op":"queue","cluster":"has space"}"#,
            r#"{"op":"queue","cluster":"quo\"te"}"#,
        ] {
            assert!(parse_routed(line).is_err(), "{line} should be rejected");
        }
        let long = format!(r#"{{"op":"queue","cluster":"{}"}}"#, "x".repeat(65));
        assert!(parse_routed(&long).is_err());
    }
}
