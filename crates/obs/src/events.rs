//! The `sbs-events/v1` operational event journal.
//!
//! Where `sbs-trace/v1` captures *every* decision for offline analysis,
//! the event journal is the always-on operational log: counted,
//! appending, rotating (on-disk JSONL), and cheap enough to leave
//! attached in production.  It writes by one rule, which the serving
//! edge applies: a request is written if and only if it is a lifecycle
//! op (`drain`, `snapshot`, `shutdown`, at [`Severity::Info`]) or its
//! answer is `ok:false` (at [`Severity::Error`]).  Every other request
//! is counted as filtered before its event is even built
//! ([`EventJournal::admits`]), so routine traffic costs one branch per
//! request — the same contract the [`crate::Recorder`] gives the
//! decision hot path.
//!
//! Determinism: like the trace sink, the journal never reads a clock.
//! Timestamps are injected scheduler time and sequence numbers are
//! assigned in emission order, so two identical Virtual-mode runs
//! produce byte-identical journals (pinned by a test below).

use crate::sink::TimeMode;
use serde_json::{Map, Value};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Schema identifier stamped into every journal's meta line.
pub const EVENT_SCHEMA: &str = "sbs-events/v1";

/// Severity of one journal event: what kind of request wrote it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Severity {
    /// A lifecycle landmark: drain, snapshot, shutdown.
    #[default]
    Info,
    /// A failed request: malformed, rejected, or naming an unknown
    /// cluster.
    Error,
}

impl Severity {
    /// Wire form (lowercase).
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Error => "error",
        }
    }
}

/// One journal event.  `seq` is assigned by the journal at emission;
/// everything else is supplied by the caller.
#[derive(Debug, Clone, Default)]
pub struct Event {
    /// Journal-assigned emission sequence number (1-based).
    pub seq: u64,
    /// Scheduler time the event happened at (injected, never read from
    /// a clock here).
    pub now: u64,
    /// Severity level.
    pub severity: Severity,
    /// Request correlation id (`0` = not request-scoped).
    pub corr: u64,
    /// Emitting subsystem or tenant (`"daemon"`, `"fleet"`, a cluster
    /// id, ...).
    pub scope: String,
    /// Event kind (`"submit"`, `"slow_decision"`, `"drain"`, ...).
    pub kind: String,
    /// Numeric payload, serialized as a sorted-key object.
    pub detail: Vec<(String, u64)>,
}

impl Event {
    /// Builds an event (sans `seq`, which the journal assigns).
    pub fn new(severity: Severity, scope: &str, kind: &str) -> Event {
        Event {
            severity,
            scope: scope.to_string(),
            kind: kind.to_string(),
            ..Event::default()
        }
    }

    /// Sets the scheduler timestamp.
    pub fn at(mut self, now: u64) -> Event {
        self.now = now;
        self
    }

    /// Sets the request correlation id.
    pub fn corr(mut self, corr: u64) -> Event {
        self.corr = corr;
        self
    }

    /// Appends one numeric detail field.
    pub fn detail(mut self, key: &str, value: u64) -> Event {
        self.detail.push((key.to_string(), value));
        self
    }

    /// Serializes to the JSONL value (sorted keys; `corr` only when
    /// nonzero).
    pub fn to_value(&self) -> Value {
        let mut m = Map::new();
        m.insert("seq".into(), self.seq.into());
        m.insert("now".into(), self.now.into());
        m.insert("sev".into(), self.severity.as_str().into());
        if self.corr != 0 {
            m.insert("corr".into(), self.corr.into());
        }
        m.insert("scope".into(), self.scope.as_str().into());
        m.insert("kind".into(), self.kind.as_str().into());
        if !self.detail.is_empty() {
            let mut d = Map::new();
            for (k, v) in &self.detail {
                d.insert(k.clone(), (*v).into());
            }
            m.insert("detail".into(), Value::Object(d));
        }
        Value::Object(m)
    }
}

/// Rotation threshold of the event log, in bytes.
pub const DEFAULT_EVENT_LOG_MAX_BYTES: u64 = 4 << 20;

/// What a serving edge is told about its journal and its slow-decision
/// capture.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObsConfig {
    /// Emit operational events into the edge's `sbs-events/v1` journal.
    /// (A fleet has one journal, at the fleet edge; its tenants carry
    /// none, so a tenant's slow decision is an incident, not an event.)
    pub events: bool,
    /// Appending, rotating journal sink, cut at
    /// [`DEFAULT_EVENT_LOG_MAX_BYTES`]; `None` keeps only the journal's
    /// counters.
    pub event_log: Option<PathBuf>,
    /// Journal time mode, stated in the meta line: which clock the
    /// events' `now` reads.
    pub event_mode: TimeMode,
    /// A decision whose wall time reaches this many milliseconds is
    /// captured as a slow-decision incident (`Some(0)` captures every
    /// decision — useful in smoke tests).
    pub slow_wall_ms: Option<u64>,
    /// A decision whose `nodes_left_at_deadline` reaches this is
    /// captured as a slow-decision incident.
    pub slow_nodes_left: Option<u64>,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            events: true,
            event_log: None,
            event_mode: TimeMode::Wall,
            slow_wall_ms: None,
            slow_nodes_left: None,
        }
    }
}

impl ObsConfig {
    /// Appends `sbs-events/v1` JSONL to `path`, rotating at
    /// [`DEFAULT_EVENT_LOG_MAX_BYTES`].
    pub fn with_event_log(mut self, path: PathBuf) -> Self {
        self.event_log = Some(path);
        self
    }

    /// Sets the journal time mode (virtual-clock daemons pass
    /// [`TimeMode::Virtual`]).
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

    /// Builds the edge's journal.  A bad journal path degrades to a
    /// journal without a sink, with a notice — it never stops the
    /// scheduler.
    pub fn build_journal(&self) -> EventJournal {
        if !self.events {
            return EventJournal::disabled(self.event_mode);
        }
        let mut journal = EventJournal::new(self.event_mode);
        if let Some(path) = &self.event_log {
            if let Err(e) = journal.open_rotating(path.clone(), DEFAULT_EVENT_LOG_MAX_BYTES) {
                eprintln!("event log {} unavailable: {e}", path.display());
            }
        }
        journal
    }
}

/// The appending, rotating event journal.
///
/// Counts what it writes and what it filters (for `/statusz`), and
/// writes the events to a JSONL sink with size-based rotation when one
/// is attached.  All writes are best-effort: a failing disk degrades
/// telemetry, never the scheduler.
pub struct EventJournal {
    mode: TimeMode,
    enabled: bool,
    /// Events journaled so far; the last one's `seq`.
    emitted: u64,
    filtered: u64,
    sink: Option<Box<dyn Write + Send>>,
    /// `(path, max_bytes)` when the sink is a rotating file.
    rotate: Option<(PathBuf, u64)>,
    /// Bytes in the sink's file, the ones before it was opened included.
    written: u64,
}

impl std::fmt::Debug for EventJournal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventJournal")
            .field("mode", &self.mode)
            .field("enabled", &self.enabled)
            .field("emitted", &self.emitted)
            .field("filtered", &self.filtered)
            .finish_non_exhaustive()
    }
}

impl EventJournal {
    /// An enabled journal with no sink yet.
    pub fn new(mode: TimeMode) -> EventJournal {
        EventJournal {
            mode,
            enabled: true,
            emitted: 0,
            filtered: 0,
            sink: None,
            rotate: None,
            written: 0,
        }
    }

    /// A fully disabled journal: every emit is a single branch.
    pub fn disabled(mode: TimeMode) -> EventJournal {
        let mut j = EventJournal::new(mode);
        j.enabled = false;
        j
    }

    /// Attaches a JSONL sink and writes the schema meta line.
    pub fn attach_sink(&mut self, sink: Box<dyn Write + Send>) {
        self.sink = Some(sink);
        self.written = 0;
        self.write_meta();
    }

    /// Opens `path` for append as a rotating sink capped at `max_bytes`
    /// per file, and writes this run's meta line.  A restart keeps the
    /// journal of the run before it (the one that explains a crash);
    /// the bytes already there count toward the cap.
    pub fn open_rotating(&mut self, path: PathBuf, max_bytes: u64) -> std::io::Result<()> {
        let (file, len) = open_append(&path)?;
        self.rotate = Some((path, max_bytes.max(1024)));
        self.attach_sink(Box::new(std::io::BufWriter::new(file)));
        self.written += len;
        Ok(())
    }

    fn write_meta(&mut self) {
        let mode = match self.mode {
            TimeMode::Virtual => "virtual",
            TimeMode::Wall => "wall",
        };
        let mut m = Map::new();
        m.insert("schema".into(), EVENT_SCHEMA.into());
        m.insert("mode".into(), mode.into());
        self.write_line(&Value::Object(m));
    }

    fn write_line(&mut self, value: &Value) {
        if let Some(w) = &mut self.sink {
            let line = serde_json::to_string(value).unwrap_or_default();
            #[expect(
                clippy::let_underscore_must_use,
                reason = "telemetry writes are best-effort by contract — a failing disk degrades the journal, never the scheduler"
            )]
            let _ = writeln!(w, "{line}");
            self.written += line.len() as u64 + 1;
        }
    }

    /// Whether a request's event is to be written: `write` is the
    /// edge's rule (a lifecycle op, or a failed request).  A request
    /// not written is counted as filtered here, so a caller that builds
    /// its event only on `true` formats nothing it drops.
    pub fn admits(&mut self, write: bool) -> bool {
        self.filtered += u64::from(self.enabled && !write);
        self.enabled && write
    }

    /// Emits one event: assigns the sequence number and writes it to
    /// the sink (rotating when the size cap is crossed).
    pub fn emit(&mut self, event: Event) {
        if !self.enabled {
            return;
        }
        self.emitted += 1;
        if self.sink.is_some() {
            let event = Event {
                seq: self.emitted,
                ..event
            };
            self.write_line(&event.to_value());
            self.maybe_rotate();
        }
    }

    /// Rotates `path` to `path.1` and reopens a fresh file once the
    /// size cap is crossed.  Best-effort: on any failure the current
    /// sink is kept and rotation is retried at the next emit.
    fn maybe_rotate(&mut self) {
        let Some((path, max)) = self.rotate.clone() else {
            return;
        };
        if self.written < max {
            return;
        }
        self.flush();
        self.sink = None;
        let mut rotated = path.clone().into_os_string();
        rotated.push(".1");
        #[expect(
            clippy::let_underscore_must_use,
            reason = "telemetry rotation is best-effort — losing the history file is preferable to losing the daemon"
        )]
        let _ = std::fs::rename(&path, &rotated);
        if let Ok((file, len)) = open_append(&path) {
            self.attach_sink(Box::new(std::io::BufWriter::new(file)));
            self.written += len;
        }
    }

    /// Flushes the sink (best-effort).
    pub fn flush(&mut self) {
        if let Some(w) = &mut self.sink {
            #[expect(
                clippy::let_underscore_must_use,
                reason = "telemetry writes are best-effort by contract"
            )]
            let _ = w.flush();
        }
    }

    /// Events journaled so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Requests counted but not written.
    pub fn filtered(&self) -> u64 {
        self.filtered
    }
}

/// Opens `path` for append, creating it; returns the file and its
/// current length.
fn open_append(path: &Path) -> std::io::Result<(std::fs::File, u64)> {
    let file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    let len = file.metadata()?.len();
    Ok((file, len))
}

/// How much of a log's end [`last_corr`] reads: a few hundred lines of
/// either log.
const CORR_TAIL_BYTES: u64 = 64 << 10;

/// The largest `corr` among the last lines of an appended JSONL log —
/// an `sbs-events/v1` journal or an `sbs-trace/v1` decision log — so a
/// restarted front end can mint past it.  0 when the file is missing,
/// unreadable or names no `corr` there.  Ids are minted in increasing
/// order, so the newest lines hold the largest.
pub fn last_corr(path: &Path) -> u64 {
    use std::io::{Read, Seek, SeekFrom};
    let Ok(mut file) = std::fs::File::open(path) else {
        return 0;
    };
    let from = file
        .metadata()
        .map_or(0, |m| m.len().saturating_sub(CORR_TAIL_BYTES));
    let mut tail = Vec::new();
    if file.seek(SeekFrom::Start(from)).is_err() || file.read_to_end(&mut tail).is_err() {
        return 0;
    }
    let text = String::from_utf8_lossy(&tail);
    text.lines()
        // A tail that starts mid-file starts mid-line.
        .skip(usize::from(from > 0))
        .filter_map(|line| serde_json::from_str::<Value>(line).ok())
        .filter_map(|v| v.get("corr").and_then(Value::as_u64))
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    /// A `Write` handle into shared memory, so tests can read back what
    /// the journal wrote (same pattern as the trace-sink tests).
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().expect("buf lock").extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Drives `j` with a sink attached; returns the event lines it
    /// wrote (the meta line dropped).
    fn sunk(mut j: EventJournal) -> (EventJournal, Vec<Value>) {
        let buf = SharedBuf::default();
        j.attach_sink(Box::new(buf.clone()));
        drive(&mut j);
        let bytes = buf.0.lock().expect("buf lock").clone();
        let text = String::from_utf8(bytes).expect("utf8 journal");
        let events = text
            .lines()
            .skip(1)
            .map(|l| serde_json::from_str(l).expect("json"))
            .collect();
        (j, events)
    }

    /// A lifecycle event, a routine request the rule filters, and a
    /// failed request.
    fn drive(journal: &mut EventJournal) {
        journal.emit(
            Event::new(Severity::Info, "daemon", "drain")
                .at(0)
                .detail("clusters", 1),
        );
        assert!(!journal.admits(false), "a routine submit is not written");
        if journal.admits(true) {
            journal.emit(
                Event::new(Severity::Error, "daemon", "reject")
                    .at(12)
                    .corr(3),
            );
        }
    }

    #[test]
    fn skipped_requests_are_counted_not_written() {
        let (j, events) = sunk(EventJournal::new(TimeMode::Virtual));
        assert_eq!(j.emitted(), 2);
        assert_eq!(j.filtered(), 1, "the routine request is counted");
        let kinds: Vec<_> = events.iter().filter_map(|e| e["kind"].as_str()).collect();
        assert_eq!(kinds, ["drain", "reject"]);
        // Sequence numbers are dense over written events.
        let seqs: Vec<_> = events.iter().filter_map(|e| e["seq"].as_u64()).collect();
        assert_eq!(seqs, [1, 2]);
    }

    #[test]
    fn disabled_journal_is_a_single_branch() {
        let (j, events) = sunk(EventJournal::disabled(TimeMode::Virtual));
        assert_eq!(j.emitted(), 0);
        assert_eq!(j.filtered(), 0);
        assert!(events.is_empty(), "{events:?}");
    }

    #[test]
    fn virtual_mode_journals_are_byte_deterministic() {
        let render = || {
            let buf = SharedBuf::default();
            let mut j = EventJournal::new(TimeMode::Virtual);
            j.attach_sink(Box::new(buf.clone()));
            drive(&mut j);
            j.flush();
            let bytes = buf.0.lock().expect("buf lock").clone();
            String::from_utf8(bytes).expect("utf8 journal")
        };
        let a = render();
        let b = render();
        assert_eq!(a, b, "identical runs must serialize identical journals");
        let head = a.lines().next().expect("meta line");
        assert_eq!(head, r#"{"mode":"virtual","schema":"sbs-events/v1"}"#);
    }

    #[test]
    fn events_round_trip_through_the_wire_form() {
        let buf = SharedBuf::default();
        let mut j = EventJournal::new(TimeMode::Wall);
        j.attach_sink(Box::new(buf.clone()));
        j.emit(
            Event::new(Severity::Error, "c07", "cancel")
                .at(99)
                .corr(41)
                .detail("clusters", 7),
        );
        // corr is omitted when zero so existing golden bytes never shift.
        j.emit(Event::new(Severity::Info, "fleet", "shutdown"));
        let text = String::from_utf8(buf.0.lock().expect("buf lock").clone()).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines,
            [
                r#"{"mode":"wall","schema":"sbs-events/v1"}"#,
                r#"{"corr":41,"detail":{"clusters":7},"kind":"cancel","now":99,"scope":"c07","seq":1,"sev":"error"}"#,
                r#"{"kind":"shutdown","now":0,"scope":"fleet","seq":2,"sev":"info"}"#,
            ]
        );
    }

    /// A fresh directory for one file-backed test.
    fn fresh_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sbs-events-{name}-{}", std::process::id()));
        #[expect(
            clippy::let_underscore_must_use,
            reason = "a leftover from an earlier run may or may not exist"
        )]
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    #[test]
    fn rotation_renames_and_reopens_at_the_size_cap() {
        let dir = fresh_dir("rot");
        let path = dir.join("events.jsonl");
        let mut j = EventJournal::new(TimeMode::Virtual);
        j.open_rotating(path.clone(), 1024).expect("open");
        for i in 0..64 {
            j.emit(
                Event::new(Severity::Info, "daemon", "tick")
                    .at(i)
                    .detail("filler", i),
            );
        }
        j.flush();
        let rotated = dir.join("events.jsonl.1");
        assert!(rotated.exists(), "size cap triggers a rotation");
        let head = std::fs::read_to_string(&path).expect("read fresh file");
        assert!(
            head.lines()
                .next()
                .unwrap_or_default()
                .contains(EVENT_SCHEMA),
            "fresh file restates the meta line: {head}"
        );
        #[expect(
            clippy::let_underscore_must_use,
            reason = "test cleanup is best-effort"
        )]
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_reopened_journal_appends_and_counts_the_bytes_already_there() {
        let dir = fresh_dir("append");
        let path = dir.join("events.jsonl");
        let run = |kind: &str, events: u64| {
            let mut j = EventJournal::new(TimeMode::Virtual);
            j.open_rotating(path.clone(), 1024).expect("open");
            for i in 0..events {
                j.emit(Event::new(Severity::Info, "fleet", kind).at(i));
            }
            j.flush();
        };
        run("first", 3);
        run("second", 3);
        let text = std::fs::read_to_string(&path).expect("read journal");
        let kinds: Vec<&str> = text
            .lines()
            .map(|l| {
                if l.contains(EVENT_SCHEMA) {
                    "meta"
                } else if l.contains("first") {
                    "first"
                } else {
                    "second"
                }
            })
            .collect();
        assert_eq!(
            kinds,
            ["meta", "first", "first", "first", "meta", "second", "second", "second"],
            "both runs' events survive, each after its own meta line"
        );
        // Rotation still fires at the cap, counting the earlier run's
        // bytes: a third run crosses 1 KiB well before 1 KiB of its own.
        let before = text.len() as u64;
        let per_event = before / 8 + 1;
        run("third", (1024 - before) / per_event + 2);
        assert!(
            dir.join("events.jsonl.1").exists(),
            "the cap counts what the file held when it was opened"
        );
        #[expect(
            clippy::let_underscore_must_use,
            reason = "test cleanup is best-effort"
        )]
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn last_corr_reads_the_newest_ids_of_a_long_log() {
        let dir = fresh_dir("last-corr");
        let path = dir.join("events.jsonl");
        assert_eq!(last_corr(&path), 0, "a missing log holds no id");
        let mut j = EventJournal::new(TimeMode::Virtual);
        j.open_rotating(path.clone(), u64::MAX).expect("open");
        // Far more than the tail that is read, then a line without one.
        for corr in 1..=5_000 {
            j.emit(Event::new(Severity::Error, "fleet", "invalid").corr(corr));
        }
        j.emit(Event::new(Severity::Info, "fleet", "drain"));
        j.flush();
        assert!(std::fs::metadata(&path).expect("log").len() > CORR_TAIL_BYTES);
        assert_eq!(last_corr(&path), 5_000);
        // A fresh run's meta line alone adds nothing.
        EventJournal::new(TimeMode::Virtual)
            .open_rotating(path.clone(), u64::MAX)
            .expect("reopen");
        assert_eq!(last_corr(&path), 5_000);
        #[expect(
            clippy::let_underscore_must_use,
            reason = "test cleanup is best-effort"
        )]
        let _ = std::fs::remove_dir_all(&dir);
    }
}
