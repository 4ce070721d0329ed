//! The `sbs-events/v1` operational event journal.
//!
//! Where `sbs-trace/v1` captures *every* decision for offline analysis,
//! the event journal is the always-on operational log: severity-leveled,
//! bounded (in-memory ring), rotating (on-disk JSONL), and cheap enough
//! to leave attached in production.  Routine traffic emits at
//! [`Severity::Debug`] and is filtered before any formatting happens, so
//! an "enabled but quiet" journal costs one branch per event site — the
//! same contract the [`crate::Recorder`] gives the decision hot path.
//!
//! Determinism: like the trace sink, the journal never reads a clock.
//! Timestamps are injected scheduler time, sequence numbers are assigned
//! in emission order, and wall durations are serialized only in
//! [`TimeMode::Wall`] — so two identical Virtual-mode runs produce
//! byte-identical journals (pinned by a test below).

use crate::ring::RingBuffer;
use crate::sink::TimeMode;
use serde_json::{Map, Value};
use std::io::Write;
use std::path::PathBuf;

/// Schema identifier stamped into every journal's meta line.
pub const EVENT_SCHEMA: &str = "sbs-events/v1";

/// Events the in-memory ring retains.
const EVENT_RING_CAPACITY: usize = 256;

/// Severity level of one journal event, ordered `Debug < Info < Warn <
/// Error`.  Events below the journal's minimum severity are filtered
/// before any allocation or formatting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Per-request chatter (submits, admissions); filtered by default.
    Debug,
    /// Lifecycle landmarks: startup, drain, snapshot, shutdown.
    #[default]
    Info,
    /// Degradation worth an operator's glance: slow decisions,
    /// journal rotation, quota pressure.
    Warn,
    /// Failed operations: malformed requests, rejected submits,
    /// snapshot write failures.
    Error,
}

impl Severity {
    /// Wire form (lowercase).
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Debug => "debug",
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Error => "error",
        }
    }

    /// Parses the wire form; unknown strings map to `Info` (tolerant
    /// reader, same policy as the trace decoder).
    pub fn parse(s: &str) -> Severity {
        match s {
            "debug" => Severity::Debug,
            "warn" => Severity::Warn,
            "error" => Severity::Error,
            _ => Severity::Info,
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
    /// Wall duration attached to the event, if any; serialized only in
    /// [`TimeMode::Wall`] so Virtual-mode journals stay deterministic.
    pub wall_ns: u64,
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

    /// Attaches a wall duration (only serialized in Wall mode).
    pub fn wall(mut self, wall_ns: u64) -> Event {
        self.wall_ns = wall_ns;
        self
    }

    /// Serializes to the JSONL value (sorted keys; `wall_ns` only when
    /// `include_wall`, `corr` only when nonzero).
    pub fn to_value(&self, include_wall: bool) -> Value {
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
        if include_wall && self.wall_ns != 0 {
            m.insert("wall_ns".into(), self.wall_ns.into());
        }
        Value::Object(m)
    }

    /// Tolerant decoder for journal lines (missing fields default).
    pub fn from_value(v: &Value) -> Event {
        let get = |k: &str| v.get(k).and_then(Value::as_u64).unwrap_or(0);
        let s = |k: &str| {
            v.get(k)
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_string()
        };
        let mut detail = Vec::new();
        if let Some(Value::Object(d)) = v.get("detail") {
            for (k, dv) in d {
                detail.push((k.clone(), dv.as_u64().unwrap_or(0)));
            }
        }
        Event {
            seq: get("seq"),
            now: get("now"),
            severity: Severity::parse(v.get("sev").and_then(Value::as_str).unwrap_or("info")),
            corr: get("corr"),
            scope: s("scope"),
            kind: s("kind"),
            detail,
            wall_ns: get("wall_ns"),
        }
    }
}

/// Rotation threshold for the event log when none is given.
pub const DEFAULT_EVENT_LOG_MAX_BYTES: u64 = 4 << 20;

/// What a serving edge is told about its journal and its slow-decision
/// capture.  The single-cluster daemon and the fleet embed the same
/// struct, so both are configured — and their journal built — one way.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObsConfig {
    /// Emit operational events into the edge's `sbs-events/v1` journal.
    /// (A fleet has one journal, at the fleet edge; its tenants carry
    /// none, so a tenant's slow decision is an incident, not an event.)
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
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            events: true,
            event_log: None,
            event_log_max_bytes: DEFAULT_EVENT_LOG_MAX_BYTES,
            event_mode: TimeMode::Wall,
            slow_wall_ms: None,
            slow_nodes_left: None,
        }
    }
}

impl ObsConfig {
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

    /// Builds the edge's journal.  A bad journal path degrades to the
    /// in-memory ring with a notice — it never stops the scheduler.
    pub fn build_journal(&self) -> EventJournal {
        if !self.events {
            return EventJournal::disabled(self.event_mode);
        }
        let mut journal = EventJournal::new(self.event_mode);
        if let Some(path) = &self.event_log {
            if let Err(e) = journal.open_rotating(path.clone(), self.event_log_max_bytes) {
                eprintln!("event log {} unavailable: {e}", path.display());
            }
        }
        journal
    }
}

/// The bounded, rotating, severity-leveled event journal.
///
/// Always holds an in-memory ring of the most recent accepted events
/// (for `/statusz` and `sbs incidents`-style introspection); optionally
/// mirrors them to a JSONL sink with size-based rotation.  All writes
/// are best-effort: a failing disk degrades telemetry, never the
/// scheduler.
pub struct EventJournal {
    mode: TimeMode,
    min_severity: Severity,
    enabled: bool,
    seq: u64,
    emitted: u64,
    filtered: u64,
    ring: RingBuffer<Event>,
    sink: Option<Box<dyn Write + Send>>,
    /// `(path, max_bytes)` when the sink is a rotating file.
    rotate: Option<(PathBuf, u64)>,
    written: u64,
}

impl std::fmt::Debug for EventJournal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventJournal")
            .field("mode", &self.mode)
            .field("min_severity", &self.min_severity)
            .field("enabled", &self.enabled)
            .field("emitted", &self.emitted)
            .field("filtered", &self.filtered)
            .finish_non_exhaustive()
    }
}

impl EventJournal {
    /// An enabled journal (ring only, no sink) filtering below
    /// [`Severity::Info`].
    pub fn new(mode: TimeMode) -> EventJournal {
        EventJournal {
            mode,
            min_severity: Severity::Info,
            enabled: true,
            seq: 0,
            emitted: 0,
            filtered: 0,
            ring: RingBuffer::new(EVENT_RING_CAPACITY),
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

    /// Whether the journal accepts events at all.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Lowers or raises the severity floor.
    pub fn set_min_severity(&mut self, min: Severity) {
        self.min_severity = min;
    }

    /// The current severity floor.
    pub fn min_severity(&self) -> Severity {
        self.min_severity
    }

    /// Attaches a JSONL sink and writes the schema meta line.
    pub fn attach_sink(&mut self, sink: Box<dyn Write + Send>) {
        self.sink = Some(sink);
        self.written = 0;
        self.write_meta();
    }

    /// Opens `path` (truncating — each run owns its journal; rotation
    /// keeps history) as a rotating sink capped at `max_bytes` per file.
    pub fn open_rotating(&mut self, path: PathBuf, max_bytes: u64) -> std::io::Result<()> {
        let file = std::fs::File::create(&path)?;
        self.rotate = Some((path, max_bytes.max(1024)));
        self.attach_sink(Box::new(std::io::BufWriter::new(file)));
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
        m.insert("min_severity".into(), self.min_severity.as_str().into());
        let line = serde_json::to_string(&Value::Object(m)).unwrap_or_default();
        if let Some(w) = &mut self.sink {
            // sbs-lint: allow(result-dropped): telemetry writes are best-effort by contract — a failing disk degrades the journal, never the scheduler
            let _ = writeln!(w, "{line}");
            self.written += line.len() as u64 + 1;
        }
    }

    /// Emits one event: assigns the sequence number, filters by
    /// severity, appends to the ring, and mirrors to the sink (rotating
    /// when the size cap is crossed).
    pub fn emit(&mut self, event: Event) {
        if !self.enabled || event.severity < self.min_severity {
            self.filtered += u64::from(self.enabled);
            return;
        }
        self.seq += 1;
        let mut event = event;
        event.seq = self.seq;
        if self.sink.is_some() {
            let include_wall = self.mode == TimeMode::Wall;
            let line = serde_json::to_string(&event.to_value(include_wall)).unwrap_or_default();
            if let Some(w) = &mut self.sink {
                // sbs-lint: allow(result-dropped): telemetry writes are best-effort by contract — a failing disk degrades the journal, never the scheduler
                let _ = writeln!(w, "{line}");
                self.written += line.len() as u64 + 1;
            }
            self.maybe_rotate();
        }
        self.ring.push(event);
        self.emitted += 1;
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
        // sbs-lint: allow(result-dropped): telemetry rotation is best-effort — losing the history file is preferable to losing the daemon
        let _ = std::fs::rename(&path, &rotated);
        if let Ok(file) = std::fs::File::create(&path) {
            self.attach_sink(Box::new(std::io::BufWriter::new(file)));
        }
    }

    /// Flushes the sink (best-effort).
    pub fn flush(&mut self) {
        if let Some(w) = &mut self.sink {
            // sbs-lint: allow(result-dropped): telemetry writes are best-effort by contract
            let _ = w.flush();
        }
    }

    /// Most recent accepted events, oldest first.
    pub fn ring(&self) -> impl Iterator<Item = &Event> {
        self.ring.iter()
    }

    /// Events accepted (ring + sink) so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Events filtered below the severity floor.
    pub fn filtered(&self) -> u64 {
        self.filtered
    }

    /// The journal's time mode.
    pub fn mode(&self) -> TimeMode {
        self.mode
    }
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

    fn drive(journal: &mut EventJournal) {
        journal.emit(
            Event::new(Severity::Info, "daemon", "start")
                .at(0)
                .detail("capacity", 128),
        );
        journal.emit(
            Event::new(Severity::Debug, "daemon", "submit")
                .at(5)
                .corr(1),
        );
        journal.emit(
            Event::new(Severity::Warn, "daemon", "slow_decision")
                .at(9)
                .corr(2)
                .detail("nodes_left", 400)
                .wall(7_000_000),
        );
        journal.emit(
            Event::new(Severity::Error, "daemon", "reject")
                .at(12)
                .corr(3),
        );
    }

    #[test]
    fn severity_floor_filters_before_the_ring() {
        let mut j = EventJournal::new(TimeMode::Virtual);
        drive(&mut j);
        assert_eq!(j.emitted(), 3, "the Debug event is filtered");
        assert_eq!(j.filtered(), 1);
        let kinds: Vec<&str> = j.ring().map(|e| e.kind.as_str()).collect();
        assert_eq!(kinds, ["start", "slow_decision", "reject"]);
        // Sequence numbers are dense over accepted events.
        let seqs: Vec<u64> = j.ring().map(|e| e.seq).collect();
        assert_eq!(seqs, [1, 2, 3]);
    }

    #[test]
    fn disabled_journal_is_a_single_branch() {
        let mut j = EventJournal::disabled(TimeMode::Virtual);
        drive(&mut j);
        assert_eq!(j.emitted(), 0);
        assert_eq!(j.filtered(), 0);
        assert_eq!(j.ring().count(), 0);
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
        assert!(head.contains("\"schema\":\"sbs-events/v1\""), "{head}");
        assert!(head.contains("\"mode\":\"virtual\""), "{head}");
        // Virtual mode omits wall durations entirely.
        assert!(!a.contains("wall_ns"), "{a}");
        // Wall mode serializes them.
        let buf = SharedBuf::default();
        let mut j = EventJournal::new(TimeMode::Wall);
        j.attach_sink(Box::new(buf.clone()));
        drive(&mut j);
        j.flush();
        let wall = String::from_utf8(buf.0.lock().expect("buf lock").clone()).expect("utf8");
        assert!(wall.contains("\"wall_ns\":7000000"), "{wall}");
    }

    #[test]
    fn events_round_trip_through_the_wire_form() {
        let e = Event::new(Severity::Warn, "c07", "slow_decision")
            .at(99)
            .corr(41)
            .detail("nodes_left", 7)
            .wall(123);
        let v = e.to_value(true);
        let back = Event::from_value(&v);
        assert_eq!(back.now, 99);
        assert_eq!(back.corr, 41);
        assert_eq!(back.severity, Severity::Warn);
        assert_eq!(back.scope, "c07");
        assert_eq!(back.detail, vec![("nodes_left".to_string(), 7)]);
        assert_eq!(back.wall_ns, 123);
        // corr is omitted when zero so existing golden bytes never shift.
        let quiet = Event::new(Severity::Info, "daemon", "start").to_value(false);
        assert!(quiet.get("corr").is_none());
        assert!(quiet.get("wall_ns").is_none());
    }

    #[test]
    fn rotation_renames_and_reopens_at_the_size_cap() {
        let dir = std::env::temp_dir().join(format!("sbs-events-rot-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
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
        // sbs-lint: allow(result-dropped): test cleanup is best-effort
        let _ = std::fs::remove_dir_all(&dir);
    }
}
