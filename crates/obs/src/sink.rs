//! The live recorder: counters, histograms, ring buffer, JSONL sink.

use crate::hist::Histogram;
use crate::record::{DecisionTrace, TraceMeta};
use crate::ring::RingBuffer;
use crate::Recorder;
use std::collections::BTreeMap;
use std::io::Write;

/// How the recorder treats time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeMode {
    /// Simulation: the only clock is the injected virtual clock, wall
    /// durations are dropped, output is byte-deterministic.
    Virtual,
    /// Daemon: wall durations are folded and serialized.
    Wall,
}

/// Default ring-buffer capacity (recent decisions kept in memory).
pub const DEFAULT_RING_CAPACITY: usize = 256;

/// The real [`Recorder`]: folds every decision into counters and
/// fixed-bucket histograms, keeps a bounded ring of recent decisions,
/// and optionally appends `sbs-trace/v1` JSONL lines to a sink.
pub struct TraceRecorder {
    mode: TimeMode,
    meta: TraceMeta,
    counters: BTreeMap<&'static str, u64>,
    hists: BTreeMap<&'static str, Histogram>,
    spans: BTreeMap<String, u64>,
    ring: RingBuffer<DecisionTrace>,
    sink: Option<Box<dyn Write + Send>>,
}

impl std::fmt::Debug for TraceRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceRecorder")
            .field("mode", &self.mode)
            .field("decisions", &self.counter("sbs_decisions_total"))
            .field("sink", &self.sink.is_some())
            .finish()
    }
}

impl TraceRecorder {
    /// A recorder with no sink (in-memory aggregation only).
    pub fn new(mode: TimeMode, meta: TraceMeta) -> Self {
        let mut meta = meta;
        meta.mode = match mode {
            TimeMode::Virtual => "virtual".to_string(),
            TimeMode::Wall => "wall".to_string(),
        };
        TraceRecorder {
            mode,
            meta,
            counters: BTreeMap::new(),
            hists: BTreeMap::new(),
            spans: BTreeMap::new(),
            ring: RingBuffer::new(DEFAULT_RING_CAPACITY),
            sink: None,
        }
    }

    /// Attaches a JSONL sink and writes the meta line immediately.
    pub fn attach_sink(&mut self, mut sink: Box<dyn Write + Send>) -> std::io::Result<()> {
        let line = serde_json::to_string(&self.meta.to_value()).unwrap_or_default();
        writeln!(sink, "{line}")?;
        self.sink = Some(sink);
        Ok(())
    }

    /// The recorder's time mode.
    pub fn mode(&self) -> TimeMode {
        self.mode
    }

    /// The meta header this recorder stamps on its sink.
    pub fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    /// Current value of a counter (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// All counters, sorted by name.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(&k, &v)| (k, v))
    }

    /// All histograms, sorted by name.
    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &Histogram)> + '_ {
        self.hists.iter().map(|(&k, v)| (k, v))
    }

    /// Merged span weights accumulated across all decisions.
    pub fn spans(&self) -> impl Iterator<Item = (&str, u64)> + '_ {
        self.spans.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// The bounded window of recent decisions.
    pub fn ring(&self) -> &RingBuffer<DecisionTrace> {
        &self.ring
    }

    /// Flushes the sink, if any.
    pub fn flush(&mut self) -> std::io::Result<()> {
        match &mut self.sink {
            Some(s) => s.flush(),
            None => Ok(()),
        }
    }

    fn hist(&mut self, name: &'static str, value: u64) {
        self.hists
            .entry(name)
            .or_insert_with(|| bounds_for(name))
            .observe(value);
    }

    fn bump(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(name).or_insert(0) += delta;
    }

    fn fold(&mut self, d: &DecisionTrace) {
        self.bump("sbs_decisions_total", 1);
        self.bump("sbs_jobs_started_total", d.started.len() as u64);
        self.hist("sbs_queue_depth_at_decision", u64::from(d.queue_depth));
        if self.mode == TimeMode::Wall {
            self.hist("sbs_decision_wall_nanos", d.wall_ns);
        }
        let Some(p) = &d.policy else { return };
        for (path, weight) in &p.spans {
            *self.spans.entry(path.clone()).or_insert(0) += weight;
        }
        if let Some(s) = &p.search {
            self.bump("sbs_search_nodes_total", s.nodes);
            self.bump("sbs_search_leaves_total", s.leaves);
            self.bump("sbs_search_pruned_total", s.pruned);
            self.bump("sbs_search_improvements_total", s.improvements);
            self.bump("sbs_search_local_nodes_total", s.local_nodes);
            if s.exhausted {
                self.bump("sbs_search_exhausted_total", 1);
            }
            if s.budget_hit {
                self.bump("sbs_search_budget_hits_total", 1);
            }
            if s.deadline_hit {
                self.bump("sbs_search_deadline_truncations_total", 1);
                self.bump(
                    "sbs_search_deadline_nodes_left_total",
                    s.nodes_left_at_deadline,
                );
            }
            if s.fallback {
                self.bump("sbs_search_fallbacks_total", 1);
            }
            self.hist("sbs_search_nodes_per_decision", s.nodes);
            self.hist("sbs_search_nodes_to_best", s.nodes_to_best);
            self.hist("sbs_search_best_iteration", u64::from(s.best_iteration));
        }
        if let Some(b) = &p.backfill {
            self.bump("sbs_backfill_examined_total", u64::from(b.examined));
            self.bump("sbs_backfill_started_total", u64::from(b.started));
            self.bump("sbs_backfill_reserved_total", u64::from(b.reserved));
            self.bump("sbs_backfill_blocked_total", u64::from(b.blocked));
        }
    }
}

/// Fixed bucket layouts per histogram family; stable across releases so
/// dashboards and golden fixtures don't churn.
fn bounds_for(name: &str) -> Histogram {
    match name {
        "sbs_queue_depth_at_decision" => Histogram::new(&[1, 2, 4, 8, 16, 32, 64, 128, 256]),
        "sbs_search_best_iteration" => Histogram::new(&[0, 1, 2, 4, 8, 16, 32]),
        "sbs_decision_wall_nanos" => Histogram::exponential(1_000, 10, 7),
        "sbs_wait_seconds" => Histogram::new(&[60, 600, 3_600, 14_400, 43_200, 86_400, 259_200]),
        "sbs_excess_wait_seconds" => {
            Histogram::new(&[60, 600, 3_600, 14_400, 43_200, 86_400, 259_200])
        }
        // node-count shaped families and anything unrecognized
        _ => Histogram::exponential(1, 10, 6),
    }
}

impl Recorder for TraceRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn record_decision(&mut self, decision: &DecisionTrace) {
        self.fold(decision);
        if let Some(sink) = &mut self.sink {
            let value = decision.to_value(self.mode == TimeMode::Wall);
            let line = serde_json::to_string(&value).unwrap_or_default();
            // Telemetry is best-effort: a full disk must not abort the
            // scheduler, so sink errors are swallowed here and surface
            // as a short log (and a missing tail) instead.
            #[expect(
                clippy::let_underscore_must_use,
                reason = "best-effort trace sink; scheduling must not fail on I/O"
            )]
            let _ = writeln!(sink, "{line}");
        }
        self.ring.push(decision.clone());
    }

    fn add(&mut self, name: &'static str, delta: u64) {
        self.bump(name, delta);
    }

    fn observe(&mut self, name: &'static str, value: u64) {
        self.hist(name, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{PolicyTrace, SearchTrace};

    fn decision(seq: u64) -> DecisionTrace {
        DecisionTrace {
            seq,
            now: seq * 100,
            queue_depth: 3,
            running: 1,
            free_nodes: 64,
            capacity: 128,
            started: vec![u32::try_from(seq).unwrap_or(u32::MAX)],
            policy: Some(PolicyTrace {
                search: Some(SearchTrace {
                    algo: "DDS".into(),
                    nodes: 500,
                    deadline_hit: seq.is_multiple_of(2),
                    nodes_left_at_deadline: if seq.is_multiple_of(2) { 42 } else { 0 },
                    ..Default::default()
                }),
                backfill: None,
                spans: vec![("decide;search".into(), 500)],
            }),
            wall_ns: 999,
            corr: 0,
        }
    }

    #[test]
    fn folds_counters_histograms_and_spans() {
        let mut r = TraceRecorder::new(TimeMode::Virtual, TraceMeta::default());
        for seq in 1..=4 {
            r.record_decision(&decision(seq));
        }
        assert_eq!(r.counter("sbs_decisions_total"), 4);
        assert_eq!(r.counter("sbs_search_nodes_total"), 2000);
        assert_eq!(r.counter("sbs_search_deadline_truncations_total"), 2);
        assert_eq!(r.counter("sbs_search_deadline_nodes_left_total"), 84);
        assert_eq!(r.spans().collect::<Vec<_>>(), vec![("decide;search", 2000)]);
        assert_eq!(r.ring().len(), 4);
        // Virtual mode never touches the wall histogram.
        assert!(r.histograms().all(|(n, _)| n != "sbs_decision_wall_nanos"));
    }

    #[test]
    fn sink_output_is_deterministic_and_schema_stamped() {
        let run = || {
            let mut r = TraceRecorder::new(
                TimeMode::Virtual,
                TraceMeta {
                    policy: "p".into(),
                    capacity: 128,
                    source: "test".into(),
                    ..Default::default()
                },
            );
            let buf: std::sync::Arc<std::sync::Mutex<Vec<u8>>> = Default::default();
            let handle = SharedBuf(buf.clone());
            r.attach_sink(Box::new(handle)).expect("attach");
            for seq in 1..=3 {
                r.record_decision(&decision(seq));
            }
            r.flush().expect("flush");
            let bytes = buf.lock().expect("lock").clone();
            String::from_utf8(bytes).expect("utf8")
        };
        let (a, b) = (run(), run());
        assert_eq!(a, b, "identical runs must serialize identical bytes");
        let first = a.lines().next().expect("meta line");
        assert!(first.contains("\"schema\":\"sbs-trace/v1\""));
        assert!(first.contains("\"mode\":\"virtual\""));
        assert_eq!(a.lines().count(), 4);
        assert!(!a.contains("wall_ns"), "virtual logs must omit wall time");
    }

    #[derive(Clone)]
    struct SharedBuf(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().expect("lock").extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
}
