//! The metric registry and the run outcome.
//!
//! `BENCHMARK.json` at the repository root is generated from the tables
//! here (`run manifest` prints it; a test keeps the two equal), so a
//! metric exists in exactly one place.

use serde_json::{json, Value};
use std::collections::BTreeMap;

/// One metric of the contract.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name, as printed and as keyed in the result line.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Allowed worsening as a share of the parent's median
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// Seconds one run is sized for (`run_seconds` of the contract).
pub const RUN_SECONDS: u64 = 10;

/// The four workloads and why each exists.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "replay-search",
        "ten months at load 0.9 under DDS/lxf/dynB: search and the availability profile do nearly all the work, event loop and fleet none",
    ),
    (
        "replay-backfill",
        "one multi-year stitched trace under three backfill policies: search is bypassed, so a search change must read no change here",
    ),
    (
        "fleet-steady",
        "in-process closed loop over 256 tenants, mixed submit/queue/cancel/metrics: routing, shard locks, quota and JSON building dominate",
    ),
    (
        "serve-tcp",
        "newline-JSON over loopback at 500/s, 10000/s and saturation: the only path through parsing, the readiness loop and sockets",
    ),
];

/// End-to-end metrics: what a user of the system sees.  Every workload
/// reports every one; README.md says what each means per workload.
pub const END_TO_END: [MetricDef; 5] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("ops_per_s", "1/s", "higher", 0.25),
    e2e("op_p50_us", "us", "lower", 0.25),
    e2e("op_p95_us", "us", "lower", 0.25),
    e2e("peak_rss_mb", "MiB", "lower", 0.15),
];

/// Per-layer metrics, from the traced run.  A metric reads 0 on a
/// workload whose traced pass never enters that code.
pub const PER_LAYER: [MetricDef; 71] = [
    layer("workload.generator.us_per_kjob", "us", "lower"),
    layer("dsearch.dds.ns_per_node", "ns", "lower"),
    layer("dsearch.lds.ns_per_node", "ns", "lower"),
    layer("dsearch.permutation.ns_per_node", "ns", "lower"),
    layer("dsearch.nodes_per_decision", "count", "lower"),
    layer("dsearch.leaves_per_knode", "count", "higher"),
    layer("dsearch.exhausted_frac", "frac", "higher"),
    layer("dsearch.fallback_frac", "frac", "lower"),
    layer("core.schedule.build_us", "us", "lower"),
    layer("core.schedule.descend_ascend_ns", "ns", "lower"),
    layer("core.policy.decide_p50_us", "us", "lower"),
    layer("core.policy.decide_p99_us", "us", "lower"),
    layer("core.policy.decide_max_us", "us", "lower"),
    layer("core.policy.share", "frac", "lower"),
    layer("simulator.avail.from_running_us", "us", "lower"),
    layer("simulator.avail.place_unplace_ns", "ns", "lower"),
    layer("simulator.avail.earliest_reserve_ns", "ns", "lower"),
    layer("simulator.core.decide_self_us", "us", "lower"),
    layer("simulator.core.submit_ns", "ns", "lower"),
    layer("simulator.core.complete_due_ns", "ns", "lower"),
    layer("simulator.core.advance_ns", "ns", "lower"),
    layer("simulator.engine.loop_share", "frac", "lower"),
    layer("simulator.engine.decisions", "count", "lower"),
    layer("backfill.fcfs.decide_p50_us", "us", "lower"),
    layer("backfill.fcfs.decide_p99_us", "us", "lower"),
    layer("backfill.lxf.decide_p50_us", "us", "lower"),
    layer("backfill.conservative.decide_p50_us", "us", "lower"),
    layer("backfill.share", "frac", "lower"),
    layer("metrics.summary.ms_per_mjob", "ms", "lower"),
    layer("quality.avg_bsld", "ratio", "lower"),
    layer("quality.max_wait_h", "h", "lower"),
    layer("obs.recorder.enabled_ratio", "ratio", "lower"),
    layer("obs.events.overhead_ratio", "ratio", "lower"),
    layer("obs.expo.metrics_text_ms", "ms", "lower"),
    layer("service.protocol.parse_ns", "ns", "lower"),
    layer("service.protocol.parse_batch16_ns", "ns", "lower"),
    layer("service.protocol.serialize_ns", "ns", "lower"),
    layer("service.daemon.submit_p50_us", "us", "lower"),
    layer("service.daemon.submit_p99_us", "us", "lower"),
    layer("service.daemon.queue_view_us", "us", "lower"),
    layer("service.daemon.cancel_us", "us", "lower"),
    layer("service.server.wake_p50_us", "us", "lower"),
    layer("service.server.per_request_us", "us", "lower"),
    layer("service.server.inproc_request_us", "us", "lower"),
    layer("service.server.sparse_p99_us", "us", "lower"),
    layer("service.server.busy_p50_us", "us", "lower"),
    layer("service.server.busy_p99_us", "us", "lower"),
    layer("service.server.sat_p99_us", "us", "lower"),
    layer("service.snapshot.render_us", "us", "lower"),
    layer("service.snapshot.save_us", "us", "lower"),
    layer("service.snapshot.restore_us", "us", "lower"),
    layer("fleet.handle.submit_p50_us", "us", "lower"),
    layer("fleet.handle.submit_p99_us", "us", "lower"),
    layer("fleet.handle.queue_p50_us", "us", "lower"),
    layer("fleet.handle.cancel_p50_us", "us", "lower"),
    layer("fleet.handle.metrics_p50_us", "us", "lower"),
    layer("fleet.route.overhead_us", "us", "lower"),
    layer("fleet.shard.contention_ratio", "ratio", "lower"),
    layer("fleet.quota.rejected_frac", "frac", "lower"),
    layer("fleet.poll_all_us", "us", "lower"),
    layer("fleet.statusz_us", "us", "lower"),
    layer("fleet.tenant_create_us", "us", "lower"),
    layer("fleet.save_snapshots_ms", "ms", "lower"),
    layer("fleet.recover_ms", "ms", "lower"),
    layer("gen.late_p99_us", "us", "lower"),
    layer("gen.backlog_max", "count", "lower"),
    layer("trace.overhead_ratio", "ratio", "lower"),
    layer("trace.spans", "count", "lower"),
    layer("hop.parse_share", "frac", "lower"),
    layer("hop.handle_share", "frac", "lower"),
    layer("hop.serialize_share", "frac", "lower"),
];

/// The contents of `BENCHMARK.json`.
pub fn manifest() -> Value {
    let metric = |m: &MetricDef| {
        let mut v = json!({ "name": m.name, "unit": m.unit, "better": m.better });
        if let (Value::Object(map), Some(b)) = (&mut v, m.bound) {
            map.insert("bound".into(), Value::from(b));
        }
        v
    };
    json!({
        "command": json!([
            "cargo", "run", "--release", "--quiet", "--offline",
            "--manifest-path", "benchmark/Cargo.toml", "--", "run"
        ]),
        "paths": json!(["benchmark"]),
        "run_seconds": RUN_SECONDS,
        "workloads": Value::Array(
            WORKLOADS.iter().map(|(n, w)| json!({ "name": *n, "why": *w })).collect()
        ),
        "end_to_end": Value::Array(END_TO_END.iter().map(metric).collect()),
        "per_layer": Value::Array(PER_LAYER.iter().map(metric).collect()),
    })
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (jobs replayed, ops issued, requests sent).
    pub attempted: u64,
    /// Operations that failed, were refused unexpectedly, or were
    /// answered wrongly.
    pub failed: u64,
    /// Whole-run checks that did not hold (oracle, digest, invariants).
    pub errors: Vec<String>,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Sample counts behind timing metrics, by metric name.
    pub samples: BTreeMap<&'static str, u64>,
    /// Free-form lines for the human report (hop sums, counts).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Sets metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Sets metric `name` and the number of samples behind it.
    pub fn set_n(&mut self, name: &'static str, value: f64, samples: u64) {
        self.set(name, value);
        self.samples.insert(name, samples);
    }

    /// Records a failed whole-run check.
    pub fn error(&mut self, what: impl Into<String>) {
        self.errors.push(what.into());
    }

    /// Whether every output was right.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    /// The metrics this run reports: every end-to-end metric untraced,
    /// every per-layer metric traced.
    pub fn defs(traced: bool) -> &'static [MetricDef] {
        if traced {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    /// The human-readable report.
    pub fn render(&self, traced: bool) -> String {
        let mut out = String::new();
        for m in Self::defs(traced) {
            let value = self.values.get(m.name).copied().unwrap_or(0.0);
            let n = self
                .samples
                .get(m.name)
                .map_or(String::new(), |n| format!("  (n={n})"));
            out.push_str(&format!(
                "  {:<40} {:>16.4} {}{}\n",
                m.name, value, m.unit, n
            ));
        }
        for note in &self.notes {
            out.push_str(&format!("  note: {note}\n"));
        }
        let failed_frac = self.failed as f64 / self.attempted.max(1) as f64;
        out.push_str(&format!(
            "  attempted {}  failed {}  failed_frac {}\n",
            self.attempted, self.failed, failed_frac
        ));
        for e in &self.errors {
            out.push_str(&format!("  WRONG: {e}\n"));
        }
        out
    }

    /// The contract's result line.  An end-to-end metric that was never
    /// set is an error in the harness, not a zero.
    pub fn result_line(&self, traced: bool) -> Result<String, String> {
        let mut metrics = serde_json::Map::new();
        for m in Self::defs(traced) {
            let value = match self.values.get(m.name) {
                Some(v) if v.is_finite() => *v,
                Some(v) => return Err(format!("metric {} is not finite: {v}", m.name)),
                None if traced => 0.0,
                None => return Err(format!("end-to-end metric {} was not measured", m.name)),
            };
            metrics.insert(m.name.into(), json!({ "value": value, "unit": m.unit }));
        }
        let line = json!({
            "correct": self.correct(),
            "attempted": self.attempted.max(1),
            "failed": self.failed,
            "metrics": Value::Object(metrics),
        });
        serde_json::to_string(&line).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.as_bytes()[0].is_ascii_alphanumeric()
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    #[test]
    fn names_units_and_bounds_meet_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(seen.insert(m.name), "{} is used twice", m.name);
            assert!(m.unit.len() <= 16 && !m.unit.is_empty(), "{}", m.unit);
            assert!(
                m.unit
                    .bytes()
                    .all(|b| b.is_ascii_alphanumeric()
                        || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-')),
                "{}",
                m.unit
            );
            assert!(matches!(m.better, "lower" | "higher"));
        }
        for (name, why) in WORKLOADS {
            assert!(valid_name(name) && seen.insert(name), "{name}");
            assert!(why.len() <= 200 && !why.contains('\n'), "{name}");
        }
        for m in END_TO_END {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25, "{}", m.name);
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        let widest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(widest),
            "set-up time gets the largest bound"
        );
    }

    #[test]
    fn the_committed_manifest_is_the_generated_one() {
        let path = crate::env::bench_dir().join("..").join("BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        let committed: Value = serde_json::from_str(&text).expect("valid JSON");
        assert_eq!(committed, manifest(), "regenerate with `run manifest`");
        assert!(text.len() <= 64 * 1024);
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome {
            attempted: 10,
            ..Default::default()
        };
        assert!(
            o.result_line(false).is_err(),
            "unmeasured end-to-end metric"
        );
        for m in END_TO_END {
            o.set(m.name, 1.5);
        }
        let v: Value = serde_json::from_str(&o.result_line(false).expect("line")).expect("json");
        let keys: Vec<&String> = v.as_object().expect("object").keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(v["correct"], true);
        assert_eq!(
            v["metrics"].as_object().expect("metrics").len(),
            END_TO_END.len()
        );
        assert_eq!(v["metrics"]["setup_s"]["unit"], "s");
        let traced: Value =
            serde_json::from_str(&o.result_line(true).expect("line")).expect("json");
        assert_eq!(
            traced["metrics"].as_object().expect("metrics").len(),
            PER_LAYER.len()
        );
        o.error("digest");
        assert!(!o.correct());
    }
}
