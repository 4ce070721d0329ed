//! Daemon state snapshots.
//!
//! A snapshot is one JSON document capturing everything needed to resume
//! scheduling after a restart: the clock, the wait queue (with each
//! job's already-derived `R*`), the running set (with original starts
//! and predicted ends, so reservations resume *remaining*, not
//! restarted), the id counter, and the completed-job accumulator behind
//! the metrics endpoint.
//!
//! Rendering uses the workspace JSON layer's sorted object keys, so a
//! snapshot of a given state is byte-identical no matter which code path
//! wrote it.  Files are written through [`write_atomic`]: a crash
//! mid-write leaves the previous snapshot intact.

use sbs_workload::job::{Job, JobId};
use sbs_workload::time::Time;
use serde_json::{json, Value};
use std::io::Write as _;
use std::path::Path;

/// Format version stamped into every snapshot.
pub const SNAPSHOT_VERSION: u64 = 1;

/// Aggregates over completed jobs (survives restarts via snapshots).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompletedStats {
    /// Completed-job count.
    pub count: u64,
    /// Summed wait seconds.
    pub total_wait: u64,
    /// Largest single wait.
    pub max_wait: Time,
    /// Summed excessive-wait seconds (wait beyond the daemon's target).
    pub total_excess: u64,
    /// Largest single excessive wait.
    pub max_excess: Time,
}

impl CompletedStats {
    /// Folds one completed job in.
    pub fn absorb(&mut self, wait: Time, excess: Time) {
        self.count += 1;
        self.total_wait = self.total_wait.saturating_add(wait);
        self.max_wait = self.max_wait.max(wait);
        self.total_excess = self.total_excess.saturating_add(excess);
        self.max_excess = self.max_excess.max(excess);
    }
}

/// A waiting job as snapshotted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitingEntry {
    /// The job.
    pub job: Job,
    /// The `R*` the scheduler had derived for it.
    pub r_star: Time,
}

/// A running job as snapshotted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunningEntry {
    /// The job.
    pub job: Job,
    /// When it started.
    pub start: Time,
    /// The scheduler's predicted completion time.
    pub pred_end: Time,
}

/// A complete daemon state snapshot.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Snapshot {
    /// Scheduler time when the snapshot was taken.
    pub now: Time,
    /// Machine size.
    pub capacity: u32,
    /// Next job id the daemon will assign.
    pub next_id: u32,
    /// Policy name (informational; the restart supplies its own spec).
    pub policy: String,
    /// Jobs waiting in the queue, in queue order.
    pub waiting: Vec<WaitingEntry>,
    /// Jobs running on the machine.
    pub running: Vec<RunningEntry>,
    /// Completed-job aggregates.
    pub completed: CompletedStats,
    /// Decision points executed before the snapshot.
    pub decisions: u64,
}

fn job_value(job: &Job) -> Value {
    json!({
        "id": job.id.0,
        "submit": job.submit,
        "nodes": job.nodes,
        "runtime": job.runtime,
        "requested": job.requested,
        "user": job.user,
    })
}

fn field(v: &Value, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("snapshot field {key:?} missing or not an integer"))
}

/// [`field`] for a `u32` quantity; out of range is an error, not a wrap.
fn field_u32(v: &Value, key: &str) -> Result<u32, String> {
    u32::try_from(field(v, key)?).map_err(|_| format!("snapshot field {key:?} out of range"))
}

fn job_from_value(v: &Value) -> Result<Job, String> {
    let job = Job::new(
        JobId(field_u32(v, "id")?),
        field(v, "submit")?,
        field_u32(v, "nodes")?,
        field(v, "runtime")?,
        field(v, "requested")?,
    )
    .with_user(field_u32(v, "user")?);
    Ok(job)
}

/// Replaces `path` with `bytes` so that a crash leaves either the old
/// file or the new one, never a torn mix: write a `.tmp` sibling, sync
/// it, rename it over `path`, then sync the directory so the rename
/// itself survives a power failure.  Snapshots and the fleet manifest
/// are both written through here.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    };
    std::fs::File::open(dir)?.sync_all()
}

impl Snapshot {
    /// Renders the snapshot as a JSON value.
    pub fn to_value(&self) -> Value {
        let waiting: Vec<Value> = self
            .waiting
            .iter()
            .map(|w| {
                let mut v = job_value(&w.job);
                if let Value::Object(map) = &mut v {
                    map.insert("r_star".into(), Value::from(w.r_star));
                }
                v
            })
            .collect();
        let running: Vec<Value> = self
            .running
            .iter()
            .map(|r| {
                let mut v = job_value(&r.job);
                if let Value::Object(map) = &mut v {
                    map.insert("start".into(), Value::from(r.start));
                    map.insert("pred_end".into(), Value::from(r.pred_end));
                }
                v
            })
            .collect();
        json!({
            "version": SNAPSHOT_VERSION,
            "now": self.now,
            "capacity": self.capacity,
            "next_id": self.next_id,
            "policy": self.policy.as_str(),
            "waiting": Value::Array(waiting),
            "running": Value::Array(running),
            "completed": json!({
                "count": self.completed.count,
                "total_wait": self.completed.total_wait,
                "max_wait": self.completed.max_wait,
                "total_excess": self.completed.total_excess,
                "max_excess": self.completed.max_excess,
            }),
            "decisions": self.decisions,
        })
    }

    /// Reconstructs a snapshot from its JSON form.
    pub fn from_value(v: &Value) -> Result<Self, String> {
        let version = field(v, "version")?;
        if version != SNAPSHOT_VERSION {
            return Err(format!(
                "snapshot version {version} not supported (expected {SNAPSHOT_VERSION})"
            ));
        }
        let list = |key: &str| -> Result<&Vec<Value>, String> {
            v.get(key)
                .and_then(Value::as_array)
                .ok_or_else(|| format!("snapshot field {key:?} missing or not an array"))
        };
        let mut waiting = Vec::new();
        for w in list("waiting")? {
            waiting.push(WaitingEntry {
                job: job_from_value(w)?,
                r_star: field(w, "r_star")?,
            });
        }
        let mut running = Vec::new();
        for r in list("running")? {
            running.push(RunningEntry {
                job: job_from_value(r)?,
                start: field(r, "start")?,
                pred_end: field(r, "pred_end")?,
            });
        }
        let c = v
            .get("completed")
            .ok_or("snapshot field \"completed\" missing")?;
        Ok(Snapshot {
            now: field(v, "now")?,
            capacity: field_u32(v, "capacity")?,
            next_id: field_u32(v, "next_id")?,
            policy: v
                .get("policy")
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_string(),
            waiting,
            running,
            completed: CompletedStats {
                count: field(c, "count")?,
                total_wait: field(c, "total_wait")?,
                max_wait: field(c, "max_wait")?,
                total_excess: field(c, "total_excess")?,
                max_excess: field(c, "max_excess")?,
            },
            decisions: field(v, "decisions")?,
        })
    }

    /// Writes the snapshot to `path` atomically (see [`write_atomic`]).
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        // Snapshot values are built from plain scheduler state and cannot
        // fail to serialize today; if that ever changes, surface it as an
        // io::Error on this best-effort path instead of panicking the
        // daemon mid-decision.
        let mut text = serde_json::to_string_pretty(&self.to_value())
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        text.push('\n');
        write_atomic(path, text.as_bytes())
    }

    /// Loads a snapshot from `path`.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let v: Value = serde_json::from_str(&text).map_err(|e| e.to_string())?;
        Self::from_value(&v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        let job = |id: u32, submit: Time| Job::new(JobId(id), submit, 2, 600, 900).with_user(3);
        let mut completed = CompletedStats::default();
        completed.absorb(100, 0);
        completed.absorb(500, 200);
        Snapshot {
            now: 5_000,
            capacity: 128,
            next_id: 9,
            policy: "DDS/lxf/dynB".into(),
            waiting: vec![WaitingEntry {
                job: job(7, 4_800),
                r_star: 600,
            }],
            running: vec![RunningEntry {
                job: job(5, 4_000),
                start: 4_100,
                pred_end: 4_700,
            }],
            completed,
            decisions: 17,
        }
    }

    #[test]
    fn value_round_trip_is_lossless() {
        let s = sample();
        let back = Snapshot::from_value(&s.to_value()).expect("round trip");
        assert_eq!(back, s);
    }

    #[test]
    fn file_round_trip_is_lossless_and_atomic() {
        let dir = std::env::temp_dir().join("sbs-snapshot-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.json");
        let s = sample();
        s.save(&path).expect("save");
        assert!(
            !path.with_extension("tmp").exists(),
            "temp file left behind"
        );
        assert_eq!(Snapshot::load(&path).expect("load"), s);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn atomic_writes_replace_whole_files_and_leave_no_temp_behind() {
        let dir = std::env::temp_dir().join(format!("sbs-atomic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("doc.json");
        write_atomic(&path, b"first, and longer\n").expect("first write");
        write_atomic(&path, b"second\n").expect("second write");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "second\n");
        assert!(
            !path.with_extension("tmp").exists(),
            "temp file left behind"
        );
        let missing = dir.join("no-such-dir").join("doc.json");
        assert!(write_atomic(&missing, b"x").is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rendering_is_deterministic() {
        let a = serde_json::to_string(&sample().to_value()).unwrap();
        let b = serde_json::to_string(&sample().to_value()).unwrap();
        assert_eq!(a, b);
        assert!(a.contains("\"version\":1"));
    }

    #[test]
    fn foreign_versions_are_rejected() {
        let mut v = sample().to_value();
        if let Value::Object(map) = &mut v {
            map.insert("version".into(), Value::from(99u64));
        }
        let err = Snapshot::from_value(&v).unwrap_err();
        assert!(err.contains("version 99"));
    }
}
