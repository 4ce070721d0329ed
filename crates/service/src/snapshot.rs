//! Daemon state snapshots.
//!
//! A snapshot is one JSON document capturing everything needed to resume
//! scheduling after a restart: the clock, the wait queue (with each
//! job's already-derived `R*`), the running set (with original starts
//! and predicted ends, so reservations resume *remaining*, not
//! restarted) and the id counter: the schedule, and nothing the metrics
//! endpoint counts.  Every served count restarts with the process.
//!
//! Rendering uses the workspace JSON layer's sorted object keys, so a
//! snapshot of a given state is byte-identical no matter which code path
//! wrote it.  Files are written through [`write_atomic`]: a crash
//! mid-write leaves the previous snapshot intact.

use crate::witness;
use sbs_workload::job::{Job, JobId};
use sbs_workload::time::Time;
use serde_json::{json, Value};
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Format version stamped into every snapshot.
pub const SNAPSHOT_VERSION: u64 = 1;

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
/// file or the new one, never a torn mix: write a temp sibling, sync
/// it, rename it over `path`, then sync the directory so the rename
/// itself survives a power failure.  Each call has a temp name of its
/// own (pid plus a counter), so concurrent writers of one path never
/// share a temp file: the last rename wins whole.  Every snapshot is
/// written through here.  Debug builds panic
/// when the caller holds a shard lock (see [`crate::witness`]).
#[cfg_attr(debug_assertions, track_caller)]
#[expect(
    clippy::disallowed_methods,
    reason = "the workspace's one fsync site, behind the witness's no-shard assertion"
)]
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    static TEMPS: AtomicU64 = AtomicU64::new(0);
    witness::assert_no_shard("write_atomic");
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(
        ".{}.{}.tmp",
        std::process::id(),
        TEMPS.fetch_add(1, Ordering::Relaxed)
    ));
    let tmp = std::path::PathBuf::from(tmp);
    let replaced = std::fs::File::create(&tmp)
        .and_then(|mut f| f.write_all(bytes).and_then(|()| f.sync_all()))
        .and_then(|()| std::fs::rename(&tmp, path));
    if replaced.is_err() {
        // Unique names would pile up: a failed write takes its temp
        // file with it.
        #[expect(
            clippy::let_underscore_must_use,
            reason = "proven best-effort path — the write's own error is the one reported, and the temp file may never have been created"
        )]
        let _ = std::fs::remove_file(&tmp);
    }
    replaced?;
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
        })
    }

    /// Reconstructs a snapshot from its JSON form.  Keys it does not
    /// read are ignored, so older snapshots, which also carry
    /// `completed` and `decisions`, still load.
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
        })
    }

    /// Writes the snapshot to `path` atomically (see [`write_atomic`]).
    #[cfg_attr(debug_assertions, track_caller)]
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

    /// Loads a snapshot from `path`.  Debug builds panic when the
    /// caller holds a shard lock (see [`crate::witness`]).
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn load(path: &Path) -> Result<Self, String> {
        witness::assert_no_shard("Snapshot::load");
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
        }
    }

    #[test]
    fn value_round_trip_is_lossless() {
        let s = sample();
        let mut v = s.to_value();
        let back = Snapshot::from_value(&v).expect("round trip");
        assert_eq!(back, s);
        // A snapshot that still carries the retired tally keys loads.
        if let Value::Object(m) = &mut v {
            let older = json!({"count": 2, "total_wait": 600, "max_wait": 500,
                               "total_excess": 200, "max_excess": 200});
            m.insert("completed".into(), older);
            m.insert("decisions".into(), Value::from(17u64));
        }
        assert_eq!(Snapshot::from_value(&v).expect("older snapshot"), s);
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
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, ["doc.json"], "temp file left behind");
        let missing = dir.join("no-such-dir").join("doc.json");
        assert!(write_atomic(&missing, b"x").is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_writers_of_one_path_never_tear_or_fail() {
        // Two threads replacing one file: with a shared temp name one
        // writer's rename takes the other's temp file away (`ENOENT`)
        // or publishes a file the other is still writing.
        let dir = std::env::temp_dir().join(format!("sbs-atomic-race-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("doc.json");
        let payload = |writer: usize, call: usize| {
            format!("{writer} {call} {}\n", "x".repeat(64 << (call % 5)))
        };
        const CALLS: usize = 100;
        // Both writers start each call together, and make every call
        // even after a failed one, so neither waits alone.
        let together = std::sync::Barrier::new(2);
        let failed: Vec<String> = std::thread::scope(|s| {
            let writers: Vec<_> = (0..2)
                .map(|w| {
                    let (path, together) = (&path, &together);
                    s.spawn(move || {
                        (0..CALLS)
                            .filter_map(|i| {
                                together.wait();
                                let written = write_atomic(path, payload(w, i).as_bytes());
                                written.err().map(|e| format!("writer {w}, call {i}: {e}"))
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            writers
                .into_iter()
                .flat_map(|w| w.join().unwrap())
                .collect()
        });
        assert!(failed.is_empty(), "{failed:?}");
        let last = std::fs::read_to_string(&path).unwrap();
        assert!(
            (0..2).any(|w| (0..CALLS).any(|i| payload(w, i) == last)),
            "torn file: {} bytes",
            last.len()
        );
        let left: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert_eq!(left.len(), 1, "temp files left behind");
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
