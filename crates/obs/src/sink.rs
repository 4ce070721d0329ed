//! The live recorder: the tally, the last decision, JSONL sink.

use crate::record::{DecisionTrace, TraceMeta};
use crate::tally::Tally;
use crate::Recorder;
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

/// The real [`Recorder`]: folds every decision into its [`Tally`],
/// keeps the last decision, and optionally appends `sbs-trace/v1`
/// JSONL lines to a sink.
pub struct TraceRecorder {
    mode: TimeMode,
    meta: TraceMeta,
    tally: Tally,
    last: Option<DecisionTrace>,
    sink: Option<Box<dyn Write + Send>>,
}

impl std::fmt::Debug for TraceRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceRecorder")
            .field("mode", &self.mode)
            .field("decisions", &self.tally.decisions)
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
            tally: Tally::default(),
            last: None,
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

    /// The meta header this recorder stamps on its sink.
    pub fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    /// Everything folded so far.
    pub fn tally(&self) -> &Tally {
        &self.tally
    }

    /// The tally, for the counts its owner keeps beside the decisions
    /// (completed jobs, admissions, incidents).
    pub fn tally_mut(&mut self) -> &mut Tally {
        &mut self.tally
    }

    /// The decision recorded last, `None` before the first.
    pub fn last(&self) -> Option<&DecisionTrace> {
        self.last.as_ref()
    }

    /// Flushes the sink, if any.
    pub fn flush(&mut self) -> std::io::Result<()> {
        match &mut self.sink {
            Some(s) => s.flush(),
            None => Ok(()),
        }
    }
}

impl Recorder for TraceRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn record_decision(&mut self, decision: DecisionTrace) {
        self.tally.fold(&decision, self.mode);
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
        self.last = Some(decision);
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
            started: vec![u32::try_from(seq).unwrap_or(u32::MAX)],
            policy: Some(PolicyTrace::Search(SearchTrace {
                nodes: 500,
                local_nodes: 30,
                deadline_hit: seq.is_multiple_of(2),
                nodes_left_at_deadline: if seq == 2 { 42 } else { 0 },
                ..Default::default()
            })),
            wall_ns: 999,
            corr: 0,
        }
    }

    #[test]
    fn folds_counters_histograms_and_spans() {
        let mut r = TraceRecorder::new(TimeMode::Virtual, TraceMeta::default());
        for seq in 1..=4 {
            r.record_decision(decision(seq));
        }
        let t = r.tally();
        assert_eq!(t.decisions, 4);
        assert_eq!(t.search_nodes, 2000 + 4 * 30, "tree plus hill-climb nodes");
        assert_eq!(t.search_local_nodes, 4 * 30);
        assert_eq!(
            t.search_nodes_per_decision.sum(),
            u128::from(t.search_nodes),
            "the histogram sums what the total counts"
        );
        assert_eq!(t.search_nodes_per_decision.sum(), 2_120);
        // Seq 2 is cut with budget left; seq 4 is cut with none left.
        assert_eq!(t.search_deadline_truncations, 1);
        assert_eq!(t.search_deadline_nodes_left, 42);
        assert_eq!(r.last().map(|d| d.seq), Some(4));
        // Virtual mode never folds wall time.
        assert_eq!((t.decision_wall_nanos.count(), t.policy_nanos), (0, 0));
        let mut wall = TraceRecorder::new(TimeMode::Wall, TraceMeta::default());
        wall.record_decision(decision(1));
        assert_eq!(wall.tally().decision_wall_nanos.count(), 1);
        assert_eq!(wall.tally().policy_nanos, 999);
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
                r.record_decision(decision(seq));
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
