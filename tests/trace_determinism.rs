//! Telemetry must never perturb scheduling, and virtual-clock trace
//! logs must be byte-deterministic.
//!
//! Two invariants pinned here:
//!
//! 1. `simulate_traced` with a recording [`TraceRecorder`] produces the
//!    exact same schedule as `simulate` with recording off — telemetry
//!    is observation, not behaviour.
//! 2. Two identical-seed runs write byte-identical `sbs-trace/v1` JSONL
//!    (the trace is keyed to the virtual clock; wall durations are
//!    omitted in virtual mode).

use sbs_core::prelude::*;
use sbs_obs::{TimeMode, TraceMeta, TraceRecorder};
use sbs_sim::engine::SimConfig;
use sbs_sim::{simulate, simulate_traced};
use sbs_workload::generator::{random_workload, RandomWorkloadCfg, Workload};
use std::io::Write;
use std::sync::{Arc, Mutex};

fn workload() -> Workload {
    random_workload(
        RandomWorkloadCfg {
            jobs: 150,
            ..Default::default()
        },
        23,
    )
}

/// A `Write` handle tests can keep after handing the sink away.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().expect("lock").extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn traced_run() -> (String, Vec<(u32, u64, u64)>) {
    let mut recorder = TraceRecorder::new(
        TimeMode::Virtual,
        TraceMeta {
            mode: String::new(),
            policy: "DDS/lxf/dynB".into(),
            capacity: 128,
            source: "trace_determinism".into(),
        },
    );
    let buf = SharedBuf::default();
    recorder
        .attach_sink(Box::new(buf.clone()))
        .expect("attach in-memory sink");
    let result = simulate_traced(
        &workload(),
        SearchPolicy::dds_lxf_dynb(500),
        SimConfig::default(),
        &mut recorder,
    );
    let bytes = buf.0.lock().expect("lock").clone();
    let log = String::from_utf8(bytes).expect("utf8 trace log");
    let schedule = result
        .records
        .iter()
        .map(|r| (r.id.0, r.start, r.end))
        .collect();
    (log, schedule)
}

#[test]
fn recording_does_not_change_the_schedule() {
    let (_, traced) = traced_run();
    let plain = simulate(
        &workload(),
        SearchPolicy::dds_lxf_dynb(500),
        SimConfig::default(),
    );
    let baseline: Vec<(u32, u64, u64)> = plain
        .records
        .iter()
        .map(|r| (r.id.0, r.start, r.end))
        .collect();
    assert_eq!(traced, baseline, "telemetry perturbed scheduling");
}

#[test]
fn identical_runs_write_byte_identical_trace_logs() {
    let (a, _) = traced_run();
    let (b, _) = traced_run();
    assert_eq!(a, b, "virtual-clock trace logs must be byte-identical");
    let meta = a.lines().next().expect("meta line");
    assert!(meta.contains("\"schema\":\"sbs-trace/v1\""));
    assert!(meta.contains("\"mode\":\"virtual\""));
    assert!(!a.contains("wall_ns"), "virtual logs must omit wall time");
    assert!(a.lines().count() > 1, "decisions were recorded");
    assert!(
        a.lines().skip(1).any(|l| l.contains("\"search\":{")),
        "search telemetry is inlined in decision lines"
    );
}
