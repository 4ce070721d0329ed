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
//! {"op":"snapshot"}                                     -> {"ok":true,"path":"<snapshot dir>"}
//! {"op":"shutdown"}                                     -> {"ok":true}, plus "path" as above when snapshots are on
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
//!
//! A line is read in one pass by `serde_json`'s pull [`Reader`], the
//! same grammar `serde_json::from_str` builds its trees on, so a line
//! that does not parse gets that parser's error text and byte offset.
//! The pass builds no `Value`: each field the protocol knows lands in
//! its own slot, a later duplicate key overwrites an earlier one, and
//! every other value is skipped with its syntax and depth still
//! checked.  Only once the whole line has parsed, trailing bytes
//! included, are the slots checked: `cluster` first, then `op`, then
//! the op's own fields in a fixed order.  A line that is not an object
//! has none of the fields, so it answers `missing field "op"`.

use sbs_workload::time::Time;
use serde_json::{Item, Reader, Value};
use std::borrow::Cow;
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

    /// A source that resumes past `last`, the largest id a log of an
    /// earlier run holds: the first minted id is `last + 1`.
    pub fn after(last: u64) -> Self {
        CorrelationSource(AtomicU64::new(last))
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

/// What a request field held, as the checks read it: absent or `null`,
/// a non-negative integer, or anything else.
#[derive(Debug, Clone, Copy, Default)]
enum Num {
    #[default]
    Absent,
    U64(u64),
    Other,
}

impl Num {
    fn read(r: &mut Reader<'_>) -> Result<Num, serde_json::Error> {
        Ok(match r.item()? {
            Item::Null => Num::Absent,
            Item::Number(n) => n.as_u64().map_or(Num::Other, Num::U64),
            other => {
                r.skip_rest(other)?;
                Num::Other
            }
        })
    }

    fn get(self, key: &str) -> Result<Option<u64>, String> {
        match self {
            Num::Absent => Ok(None),
            Num::U64(n) => Ok(Some(n)),
            Num::Other => Err(format!("field {key:?} must be a non-negative integer")),
        }
    }

    fn require(self, key: &str) -> Result<u64, String> {
        self.get(key)?
            .ok_or_else(|| format!("missing field {key:?}"))
    }

    /// [`Num::get`] for a time field, bounded by [`MAX_SECONDS`].
    fn seconds(self, key: &str) -> Result<Option<Time>, String> {
        match self.get(key)? {
            Some(t) if t > MAX_SECONDS => Err(format!(
                "field {key:?} must be at most {MAX_SECONDS} seconds (2^40)"
            )),
            t => Ok(t),
        }
    }
}

/// A string field: absent or `null`, a string, or anything else.
#[derive(Debug, Default)]
enum Text<'a> {
    #[default]
    Absent,
    Str(Cow<'a, str>),
    Other,
}

impl<'a> Text<'a> {
    fn read(r: &mut Reader<'a>) -> Result<Text<'a>, serde_json::Error> {
        Ok(match r.item()? {
            Item::Null => Text::Absent,
            Item::Str(s) => Text::Str(s),
            other => {
                r.skip_rest(other)?;
                Text::Other
            }
        })
    }
}

/// The submit-shaped fields of one object: a `submit` request, or one
/// `submit_batch` job.
#[derive(Debug, Default)]
struct SpecFields {
    nodes: Num,
    runtime: Num,
    requested: Num,
    user: Num,
    submit: Num,
}

impl SpecFields {
    fn slot(&mut self, key: &str) -> Option<&mut Num> {
        match key {
            "nodes" => Some(&mut self.nodes),
            "runtime" => Some(&mut self.runtime),
            "requested" => Some(&mut self.requested),
            "user" => Some(&mut self.user),
            "submit" => Some(&mut self.submit),
            _ => None,
        }
    }

    /// Reads one `jobs` element; one that is not an object has none of
    /// the fields.
    fn read(r: &mut Reader<'_>) -> Result<SpecFields, serde_json::Error> {
        let mut spec = SpecFields::default();
        match r.item()? {
            Item::Object(mut obj) => {
                while let Some(key) = r.key(&mut obj)? {
                    match spec.slot(&key) {
                        Some(slot) => *slot = Num::read(r)?,
                        None => r.skip()?,
                    }
                }
            }
            other => r.skip_rest(other)?,
        }
        Ok(spec)
    }

    /// Checks the fields in a fixed order: the first failing one names
    /// the error.
    fn parse(&self) -> Result<SubmitSpec, String> {
        let nodes = u32::try_from(self.nodes.require("nodes")?)
            .ok()
            .filter(|&n| n > 0)
            .ok_or("\"nodes\" must be in 1..=2^32-1")?;
        let runtime = self
            .runtime
            .seconds("runtime")?
            .ok_or("missing field \"runtime\"")?;
        if runtime == 0 {
            return Err("\"runtime\" must be positive".into());
        }
        Ok(SubmitSpec {
            nodes,
            runtime,
            requested: self.requested.seconds("requested")?,
            user: u32::try_from(self.user.get("user")?.unwrap_or(0)).unwrap_or(u32::MAX),
            submit: self.submit.seconds("submit")?,
        })
    }
}

/// A `jobs` array: its length, and the fields of its first
/// [`MAX_BATCH`] elements (a longer batch is refused by its length).
#[derive(Debug, Default)]
struct Jobs {
    len: usize,
    specs: Vec<SpecFields>,
}

impl Jobs {
    /// `None` when the value is not an array.
    fn read(r: &mut Reader<'_>) -> Result<Option<Jobs>, serde_json::Error> {
        let mut arr = match r.item()? {
            Item::Array(arr) => arr,
            other => {
                r.skip_rest(other)?;
                return Ok(None);
            }
        };
        let mut jobs = Jobs::default();
        while r.element(&mut arr)? {
            if jobs.len < MAX_BATCH {
                jobs.specs.push(SpecFields::read(r)?);
            } else {
                r.skip()?;
            }
            jobs.len += 1;
        }
        Ok(Some(jobs))
    }
}

/// Every field a request line may carry, read in one pass.  A later
/// duplicate key overwrites an earlier one.
#[derive(Debug, Default)]
struct Fields<'a> {
    op: Text<'a>,
    cluster: Text<'a>,
    id: Num,
    jobs: Option<Jobs>,
    spec: SpecFields,
}

impl<'a> Fields<'a> {
    /// Reads the line's one value, and checks that nothing follows it.
    /// A line that is not an object has none of the fields.
    fn read(line: &'a str) -> Result<Fields<'a>, serde_json::Error> {
        let mut r = Reader::new(line);
        let mut f = Fields::default();
        match r.item()? {
            Item::Object(mut obj) => {
                while let Some(key) = r.key(&mut obj)? {
                    match &*key {
                        "op" => f.op = Text::read(&mut r)?,
                        "cluster" => f.cluster = Text::read(&mut r)?,
                        "id" => f.id = Num::read(&mut r)?,
                        "jobs" => f.jobs = Jobs::read(&mut r)?,
                        other => match f.spec.slot(other) {
                            Some(slot) => *slot = Num::read(&mut r)?,
                            None => r.skip()?,
                        },
                    }
                }
            }
            other => r.skip_rest(other)?,
        }
        r.finish()?;
        Ok(f)
    }

    fn request(self) -> Result<Request, String> {
        let Text::Str(op) = self.op else {
            return Err("missing field \"op\"".into());
        };
        match &*op {
            "submit" => {
                let spec = self.spec.parse()?;
                Ok(Request::Submit {
                    nodes: spec.nodes,
                    runtime: spec.runtime,
                    requested: spec.requested,
                    user: spec.user,
                    submit: spec.submit,
                })
            }
            "submit_batch" => {
                let jobs = self.jobs.ok_or("missing field \"jobs\" (array)")?;
                if jobs.len == 0 {
                    return Err("\"jobs\" must not be empty".into());
                }
                if jobs.len > MAX_BATCH {
                    return Err(format!(
                        "\"jobs\" holds {} entries; the batch cap is {MAX_BATCH}",
                        jobs.len
                    ));
                }
                let mut specs = Vec::with_capacity(jobs.len);
                for (i, j) in jobs.specs.iter().enumerate() {
                    specs.push(j.parse().map_err(|e| format!("jobs[{i}]: {e}"))?);
                }
                Ok(Request::SubmitBatch { jobs: specs })
            }
            "cancel" => {
                let id =
                    u32::try_from(self.id.require("id")?).map_err(|_| "\"id\" out of range")?;
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
}

/// Parses one request line plus its optional `"cluster"` routing field.
///
/// The fleet picks a tenant by the routing field before dispatch.  The
/// whole line is read first, so a syntax error anywhere in it wins over
/// a field error; then `cluster` is checked, then `op`, then the op's
/// own fields.
pub fn parse_routed(line: &str) -> Result<(Option<String>, Request), String> {
    let mut f = Fields::read(line).map_err(|e| e.to_string())?;
    let cluster = match std::mem::take(&mut f.cluster) {
        Text::Absent => None,
        Text::Str(s) => {
            validate_cluster_id(&s)?;
            Some(s.into_owned())
        }
        Text::Other => return Err("field \"cluster\" must be a string".into()),
    };
    Ok((cluster, f.request()?))
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
mod tests;
