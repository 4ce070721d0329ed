//! The `sbs-trace/v1` record format.
//!
//! One JSONL file is a meta line (schema, mode, policy, capacity)
//! followed by one [`DecisionTrace`] object per scheduler decision.
//! Encoding goes through the workspace `serde_json` shim, whose object
//! keys are a `BTreeMap` — rendering is sorted-key and therefore
//! byte-deterministic.

use serde_json::{Map, Value};

/// Schema identifier stamped into every trace file's meta line.
pub const TRACE_SCHEMA: &str = "sbs-trace/v1";

/// File-level metadata, written once as the first JSONL line.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceMeta {
    /// `"virtual"` (simulation) or `"wall"` (daemon).
    pub mode: String,
    /// Policy label, e.g. `"DDS/lxf/dynB(L=1000)"`.
    pub policy: String,
    /// Cluster capacity in nodes.
    pub capacity: u32,
    /// Free-form source description (month spec, trace path, port).
    pub source: String,
}

impl TraceMeta {
    /// Encodes the meta line (includes the `schema` field).
    pub fn to_value(&self) -> Value {
        let mut m = Map::new();
        m.insert("schema".into(), TRACE_SCHEMA.into());
        m.insert("mode".into(), self.mode.as_str().into());
        m.insert("policy".into(), self.policy.as_str().into());
        m.insert("capacity".into(), self.capacity.into());
        m.insert("source".into(), self.source.as_str().into());
        Value::Object(m)
    }

    /// Decodes a meta line, verifying the schema identifier.
    pub fn from_value(v: &Value) -> Result<Self, String> {
        let schema = v["schema"].as_str().unwrap_or_default();
        if schema != TRACE_SCHEMA {
            return Err(format!(
                "unsupported trace schema {schema:?} (expected {TRACE_SCHEMA:?})"
            ));
        }
        Ok(TraceMeta {
            mode: v["mode"].as_str().unwrap_or_default().to_string(),
            policy: v["policy"].as_str().unwrap_or_default().to_string(),
            capacity: u32::try_from(v["capacity"].as_u64().unwrap_or(0)).unwrap_or(u32::MAX),
            source: v["source"].as_str().unwrap_or_default().to_string(),
        })
    }
}

/// Telemetry from one tree-search invocation inside a decision.  The
/// algorithm and branching order are the meta line's `policy`, and the
/// final incumbent's depth is the decision's `queue_depth` (0 after a
/// greedy fallback), so neither is repeated here.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SearchTrace {
    /// Resolved scheduling horizon omega (seconds).
    pub omega: u64,
    /// Node budget granted to the tree search.
    pub budget: u64,
    /// Nodes expanded.
    pub nodes: u64,
    /// Leaves evaluated.
    pub leaves: u64,
    /// Iterations (discrepancy levels) completed.
    pub iterations: u32,
    /// Incumbent improvements observed.
    pub improvements: u64,
    /// Node count at which the final incumbent was found.
    pub nodes_to_best: u64,
    /// Iteration during which the final incumbent was found.
    pub best_iteration: u32,
    /// Whether the tree was fully enumerated.
    pub exhausted: bool,
    /// Whether the node budget stopped the search.
    pub budget_hit: bool,
    /// Whether the wall-clock deadline stopped the search.
    pub deadline_hit: bool,
    /// Unspent budget when the deadline fired (0 otherwise).
    pub nodes_left_at_deadline: u64,
    /// Subtrees cut by the admissible prune bound.
    pub pruned: u64,
    /// Whether the greedy fallback produced the schedule.
    pub fallback: bool,
    /// Nodes spent in the hill-climbing refinement phase.
    pub local_nodes: u64,
    /// Leaves per iteration bucket (bucket = discrepancy count for LDS,
    /// mandated discrepancy depth for DDS); trailing zeros trimmed.
    pub leaf_iters: Vec<u64>,
}

impl SearchTrace {
    fn to_value(&self) -> Value {
        let mut m = Map::new();
        m.insert("omega".into(), self.omega.into());
        m.insert("budget".into(), self.budget.into());
        m.insert("nodes".into(), self.nodes.into());
        m.insert("leaves".into(), self.leaves.into());
        m.insert("iterations".into(), self.iterations.into());
        m.insert("improvements".into(), self.improvements.into());
        m.insert("nodes_to_best".into(), self.nodes_to_best.into());
        m.insert("best_iteration".into(), self.best_iteration.into());
        m.insert("exhausted".into(), self.exhausted.into());
        m.insert("budget_hit".into(), self.budget_hit.into());
        m.insert("deadline_hit".into(), self.deadline_hit.into());
        m.insert(
            "nodes_left_at_deadline".into(),
            self.nodes_left_at_deadline.into(),
        );
        m.insert("pruned".into(), self.pruned.into());
        m.insert("fallback".into(), self.fallback.into());
        m.insert("local_nodes".into(), self.local_nodes.into());
        m.insert("leaf_iters".into(), self.leaf_iters.as_slice().into());
        Value::Object(m)
    }

    fn from_value(v: &Value) -> Self {
        SearchTrace {
            omega: v["omega"].as_u64().unwrap_or(0),
            budget: v["budget"].as_u64().unwrap_or(0),
            nodes: v["nodes"].as_u64().unwrap_or(0),
            leaves: v["leaves"].as_u64().unwrap_or(0),
            iterations: narrow(&v["iterations"]),
            improvements: v["improvements"].as_u64().unwrap_or(0),
            nodes_to_best: v["nodes_to_best"].as_u64().unwrap_or(0),
            best_iteration: narrow(&v["best_iteration"]),
            exhausted: v["exhausted"].as_bool().unwrap_or(false),
            budget_hit: v["budget_hit"].as_bool().unwrap_or(false),
            deadline_hit: v["deadline_hit"].as_bool().unwrap_or(false),
            nodes_left_at_deadline: v["nodes_left_at_deadline"].as_u64().unwrap_or(0),
            pruned: v["pruned"].as_u64().unwrap_or(0),
            fallback: v["fallback"].as_bool().unwrap_or(false),
            local_nodes: v["local_nodes"].as_u64().unwrap_or(0),
            leaf_iters: v["leaf_iters"]
                .as_array()
                .map(|a| a.iter().map(|x| x.as_u64().unwrap_or(0)).collect())
                .unwrap_or_default(),
        }
    }
}

/// Telemetry from one backfill pass inside a decision.  Every queued
/// job is examined (the decision's `queue_depth`) and the ones started
/// are the decision's `started`, so only the other two outcomes are
/// stored.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BackfillTrace {
    /// Jobs granted a future reservation.
    pub reserved: u32,
    /// Jobs skipped with no reservation (blocked).
    pub blocked: u32,
}

impl BackfillTrace {
    fn to_value(self) -> Value {
        let mut m = Map::new();
        m.insert("reserved".into(), self.reserved.into());
        m.insert("blocked".into(), self.blocked.into());
        Value::Object(m)
    }

    fn from_value(v: &Value) -> Self {
        BackfillTrace {
            reserved: narrow(&v["reserved"]),
            blocked: narrow(&v["blocked"]),
        }
    }
}

/// What the policy itself observed during one `decide()` call: a
/// search policy's tree search, or a backfill policy's pass.
#[derive(Debug, Clone, PartialEq)]
pub enum PolicyTrace {
    /// Tree-search telemetry, serialized under `search`.
    Search(SearchTrace),
    /// Backfill telemetry, serialized under `backfill`.
    Backfill(BackfillTrace),
}

/// One scheduler decision point, the unit record of `sbs-trace/v1`.
/// The machine's capacity is the meta line's.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DecisionTrace {
    /// 1-based decision sequence number.
    pub seq: u64,
    /// Virtual time (seconds) of the decision.
    pub now: u64,
    /// Queue depth before any starts were applied.
    pub queue_depth: u32,
    /// Running jobs before the decision.
    pub running: u32,
    /// Free nodes before the decision.
    pub free_nodes: u32,
    /// Job ids started by this decision.
    pub started: Vec<u32>,
    /// Policy-internal telemetry, when the policy produces any.
    pub policy: Option<PolicyTrace>,
    /// Wall-clock nanoseconds spent in `decide()`.  Serialized only in
    /// wall mode — virtual-mode logs omit it for determinism.
    pub wall_ns: u64,
    /// Correlation id of the request that triggered this decision (`0`
    /// = none, e.g. offline simulation).  Serialized only when nonzero
    /// so existing golden trace bytes never shift.
    pub corr: u64,
}

impl DecisionTrace {
    /// The tree search's telemetry, when a search policy decided.
    pub fn search(&self) -> Option<&SearchTrace> {
        match &self.policy {
            Some(PolicyTrace::Search(s)) => Some(s),
            _ => None,
        }
    }

    /// Encodes one JSONL line.  `include_wall` must be `false` in
    /// virtual mode so the bytes stay run-to-run identical.
    pub fn to_value(&self, include_wall: bool) -> Value {
        let mut m = Map::new();
        m.insert("seq".into(), self.seq.into());
        m.insert("now".into(), self.now.into());
        m.insert("queue_depth".into(), self.queue_depth.into());
        m.insert("running".into(), self.running.into());
        m.insert("free_nodes".into(), self.free_nodes.into());
        m.insert("started".into(), self.started.as_slice().into());
        if let Some(p) = &self.policy {
            let (key, value) = match p {
                PolicyTrace::Search(s) => ("search", s.to_value()),
                PolicyTrace::Backfill(b) => ("backfill", b.to_value()),
            };
            m.insert(key.into(), value);
        }
        if include_wall {
            m.insert("wall_ns".into(), self.wall_ns.into());
        }
        if self.corr != 0 {
            m.insert("corr".into(), self.corr.into());
        }
        Value::Object(m)
    }

    /// Decodes one JSONL line (tolerant: missing fields default, and
    /// the keys older lines also carried are ignored).
    pub fn from_value(v: &Value) -> Self {
        let policy = match (&v["search"], &v["backfill"]) {
            (s @ Value::Object(_), _) => Some(PolicyTrace::Search(SearchTrace::from_value(s))),
            (_, b @ Value::Object(_)) => Some(PolicyTrace::Backfill(BackfillTrace::from_value(b))),
            _ => None,
        };
        DecisionTrace {
            seq: v["seq"].as_u64().unwrap_or(0),
            now: v["now"].as_u64().unwrap_or(0),
            queue_depth: narrow(&v["queue_depth"]),
            running: narrow(&v["running"]),
            free_nodes: narrow(&v["free_nodes"]),
            started: v["started"]
                .as_array()
                .map(|a| a.iter().filter_map(|x| x.as_u64()).map(clamp32).collect())
                .unwrap_or_default(),
            policy,
            wall_ns: v["wall_ns"].as_u64().unwrap_or(0),
            corr: v["corr"].as_u64().unwrap_or(0),
        }
    }
}

fn narrow(v: &Value) -> u32 {
    clamp32(v.as_u64().unwrap_or(0))
}

fn clamp32(v: u64) -> u32 {
    u32::try_from(v).unwrap_or(u32::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DecisionTrace {
        DecisionTrace {
            seq: 7,
            now: 3600,
            queue_depth: 4,
            running: 2,
            free_nodes: 96,
            started: vec![11, 12],
            policy: Some(PolicyTrace::Search(SearchTrace {
                omega: 7200,
                budget: 1000,
                nodes: 940,
                leaves: 31,
                iterations: 5,
                improvements: 3,
                nodes_to_best: 512,
                best_iteration: 2,
                exhausted: false,
                budget_hit: true,
                deadline_hit: true,
                nodes_left_at_deadline: 60,
                pruned: 17,
                fallback: false,
                local_nodes: 12,
                leaf_iters: vec![1, 8, 22],
            })),
            wall_ns: 123_456,
            corr: 41,
        }
    }

    #[test]
    fn decision_round_trips_through_json() {
        let backfill = DecisionTrace {
            policy: Some(PolicyTrace::Backfill(BackfillTrace {
                reserved: 1,
                blocked: 1,
            })),
            ..sample()
        };
        for d in [sample(), backfill] {
            let line = serde_json::to_string(&d.to_value(true)).expect("render");
            let back = DecisionTrace::from_value(&serde_json::from_str(&line).expect("parse"));
            assert_eq!(back, d);
        }
    }

    #[test]
    fn older_lines_decode_without_their_repeated_keys() {
        // A line as older recorders wrote it: capacity, spans, the
        // search's algo/branching/best_depth/trace_id and the backfill
        // pass's examined/started restate facts kept elsewhere.
        let old = r#"{"backfill":{"blocked":3,"examined":5,"reserved":1,"started":1},"capacity":128,"free_nodes":8,"now":60,"queue_depth":5,"running":2,"seq":3,"spans":[["decide;backfill",5]],"started":[9]}"#;
        let d = DecisionTrace::from_value(&serde_json::from_str(old).expect("parse"));
        assert_eq!(
            d.policy,
            Some(PolicyTrace::Backfill(BackfillTrace {
                reserved: 1,
                blocked: 3
            }))
        );
        let line = serde_json::to_string(&d.to_value(false)).expect("render");
        assert_eq!(
            line,
            r#"{"backfill":{"blocked":3,"reserved":1},"free_nodes":8,"now":60,"queue_depth":5,"running":2,"seq":3,"started":[9]}"#
        );
    }

    #[test]
    fn virtual_mode_omits_wall_time() {
        let d = sample();
        let line = serde_json::to_string(&d.to_value(false)).expect("render");
        assert!(!line.contains("wall_ns"));
        let back = DecisionTrace::from_value(&serde_json::from_str(&line).expect("parse"));
        assert_eq!(back.wall_ns, 0);
    }

    #[test]
    fn meta_round_trips_and_rejects_foreign_schemas() {
        let meta = TraceMeta {
            mode: "virtual".into(),
            policy: "DDS/lxf/dynB(L=1000)".into(),
            capacity: 128,
            source: "month 6/03".into(),
        };
        let v = meta.to_value();
        assert_eq!(v["schema"].as_str(), Some(TRACE_SCHEMA));
        assert_eq!(TraceMeta::from_value(&v).expect("roundtrip"), meta);
        let bad = serde_json::from_str("{\"schema\":\"other/v9\"}").expect("parse");
        assert!(TraceMeta::from_value(&bad).is_err());
    }
}
