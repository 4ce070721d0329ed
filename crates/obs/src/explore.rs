//! Offline trace exploration: aggregate a `sbs-trace/v1` JSONL log
//! into per-decision tables and a collapsed-stack file (`sbs trace`).
//!
//! The span weights are derived from each decision's own fields (see
//! [`crate::span`]), so the collapsed output is byte-identical across
//! runs.

use crate::record::{DecisionTrace, PolicyTrace, TraceMeta, TRACE_SCHEMA};
use crate::sink::TimeMode;
use crate::span::Spans;
use crate::tally::Tally;
use serde_json::{Map, Value};

/// Number of budget-utilization deciles in the report.
const UTIL_BUCKETS: usize = 10;

/// Aggregates computed from one trace log.
#[derive(Debug, Clone, Default)]
pub struct TraceReport {
    /// The log's meta header.
    pub meta: TraceMeta,
    /// The counts, folded exactly as a tenant's `/metrics` folds them
    /// (search nodes are tree plus hill-climb nodes; a deadline
    /// truncation is a deadline cut that left node budget unspent).
    pub tally: Tally,
    /// Leaves per iteration bucket, summed over all decisions.
    pub leaf_iters: Vec<u64>,
    /// Improvements per iteration bucket (iteration that produced each
    /// decision's final incumbent).
    pub best_iters: Vec<u64>,
    /// Decisions per budget-utilization decile (nodes/budget).
    pub budget_util: [u64; UTIL_BUCKETS],
    /// Decisions per time-to-incumbent decile (nodes_to_best/nodes).
    pub incumbent_at: [u64; UTIL_BUCKETS],
    /// Span weights summed over all decisions, for the collapsed-stack
    /// output.
    pub spans: Spans,
}

impl TraceReport {
    /// Parses and aggregates a whole JSONL log.
    ///
    /// The first line must be an `sbs-trace/v1` meta header; malformed
    /// decision lines are an error (the format is ours end to end).
    pub fn from_lines(text: &str) -> Result<Self, String> {
        Self::from_lines_filtered(text, None, None)
    }

    /// Like [`TraceReport::from_lines`], but restricted to a window of
    /// the log: `since` keeps only decisions with `seq >= since`, and
    /// `last` keeps only the final `last` of those.  This is how
    /// `sbs trace --last/--since` keeps a long-running daemon's
    /// append-mode log explorable: the log is read from its end, so
    /// with `--last` the lines before the window are never parsed.
    ///
    /// An appended log holds one segment per run, each opened by its own
    /// meta line; a later meta line must name the first one's schema,
    /// and counts as no decision.
    pub fn from_lines_filtered(
        text: &str,
        since: Option<u64>,
        last: Option<usize>,
    ) -> Result<Self, String> {
        let lines: Vec<(usize, &str)> = text
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty())
            .collect();
        let (&(_, head), body) = lines.split_first().ok_or("empty trace log")?;
        let head_value: Value =
            serde_json::from_str(head).map_err(|e| format!("meta line: {e}"))?;
        let mut report = TraceReport {
            meta: TraceMeta::from_value(&head_value)?,
            ..Default::default()
        };
        let mut kept: Vec<DecisionTrace> = Vec::new();
        for &(i, line) in body.iter().rev() {
            if last.is_some_and(|n| kept.len() >= n) {
                break;
            }
            let v: Value =
                serde_json::from_str(line).map_err(|e| format!("line {}: {e}", i + 1))?;
            if let Some(schema) = v.get("schema") {
                if schema.as_str() != Some(TRACE_SCHEMA) {
                    return Err(format!(
                        "line {}: schema {schema} differs from the first line's {TRACE_SCHEMA:?}",
                        i + 1
                    ));
                }
                continue;
            }
            let d = DecisionTrace::from_value(&v);
            if since.is_none_or(|s| d.seq >= s) {
                kept.push(d);
            }
        }
        for d in kept.iter().rev() {
            report.fold(d);
        }
        Ok(report)
    }

    fn fold(&mut self, d: &DecisionTrace) {
        self.tally.fold(d, TimeMode::Virtual);
        self.spans.record(d);
        if let Some(PolicyTrace::Search(s)) = &d.policy {
            for (i, &count) in s.leaf_iters.iter().enumerate() {
                if self.leaf_iters.len() <= i {
                    self.leaf_iters.resize(i + 1, 0);
                }
                self.leaf_iters[i] += count;
            }
            if s.improvements > 0 {
                let i = s.best_iteration as usize;
                if self.best_iters.len() <= i {
                    self.best_iters.resize(i + 1, 0);
                }
                self.best_iters[i] += 1;
                self.incumbent_at[decile(s.nodes_to_best, s.nodes)] += 1;
            }
            self.budget_util[decile(s.nodes, s.budget)] += 1;
        }
    }

    /// Decisions carrying a search trace: each observes the per-decision
    /// node histogram once.
    fn searched(&self) -> u64 {
        self.tally.search_nodes_per_decision.count()
    }

    /// Renders the human-readable report tables.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let (m, t) = (&self.meta, &self.tally);
        out.push_str(&format!(
            "trace: {} | mode {} | policy {} | capacity {}\n",
            m.source, m.mode, m.policy, m.capacity
        ));
        out.push_str(&format!(
            "decisions {} | searched {} | jobs started {}\n\n",
            t.decisions,
            self.searched(),
            t.jobs_started
        ));

        if self.searched() > 0 {
            out.push_str("search totals\n");
            out.push_str(&format!(
                "  nodes {} | leaves {} | pruned {}\n",
                t.search_nodes, t.search_leaves, t.search_pruned
            ));
            out.push_str(&format!(
                "  exhausted {} | budget-hit {} | deadline-truncated {} (nodes left {}) | greedy fallback {}\n\n",
                t.search_exhausted,
                t.search_budget_hits,
                t.search_deadline_truncations,
                t.search_deadline_nodes_left,
                t.search_fallbacks
            ));

            out.push_str("depth vs improvement (per discrepancy iteration)\n");
            out.push_str("  iter       leaves    best-found\n");
            let rows = self.leaf_iters.len().max(self.best_iters.len());
            for i in 0..rows {
                let leaves = self.leaf_iters.get(i).copied().unwrap_or(0);
                let best = self.best_iters.get(i).copied().unwrap_or(0);
                out.push_str(&format!("  {i:<4} {leaves:>12} {best:>13}\n"));
            }
            out.push('\n');

            out.push_str("budget utilization (nodes used / budget, per decision)\n");
            out.push_str(&decile_table(&self.budget_util));
            out.push('\n');

            out.push_str("time to incumbent (nodes at final best / nodes expanded)\n");
            out.push_str(&decile_table(&self.incumbent_at));
            out.push('\n');
        }

        let backfill = self.backfill();
        if backfill != [0; 4] {
            let [examined, started, reserved, blocked] = backfill;
            out.push_str("backfill outcomes\n");
            out.push_str(&format!(
                "  examined {examined} | hole-filled/started {started} | reserved {reserved} | blocked {blocked}\n\n"
            ));
        }

        if !self.spans.is_empty() {
            out.push_str("span weights (deterministic node counts)\n");
            for (path, weight) in self.spans.iter() {
                out.push_str(&format!("  {path} {weight}\n"));
            }
        }
        out
    }

    /// Renders the collapsed-stack file (flamegraph input): one
    /// `path weight` line per span, sorted by path.
    pub fn collapsed(&self) -> String {
        self.spans.collapsed()
    }

    /// Backfill totals `[examined, started, reserved, blocked]`.
    fn backfill(&self) -> [u64; 4] {
        let t = &self.tally;
        [
            t.backfill_examined,
            t.backfill_started,
            t.backfill_reserved,
            t.backfill_blocked,
        ]
    }

    /// Machine-readable aggregate (sorted keys, deterministic).
    pub fn to_json(&self) -> Value {
        let t = &self.tally;
        let mut m = Map::new();
        m.insert("schema".into(), TRACE_SCHEMA.into());
        m.insert("mode".into(), self.meta.mode.as_str().into());
        m.insert("policy".into(), self.meta.policy.as_str().into());
        m.insert("source".into(), self.meta.source.as_str().into());
        for (key, value) in [
            ("decisions", t.decisions),
            ("searched", self.searched()),
            ("started_jobs", t.jobs_started),
            ("nodes", t.search_nodes),
            ("leaves", t.search_leaves),
            ("pruned", t.search_pruned),
            ("exhausted", t.search_exhausted),
            ("budget_hits", t.search_budget_hits),
            ("deadline_hits", t.search_deadline_truncations),
            ("deadline_nodes_left", t.search_deadline_nodes_left),
            ("fallbacks", t.search_fallbacks),
        ] {
            m.insert(key.into(), value.into());
        }
        m.insert("leaf_iters".into(), self.leaf_iters.as_slice().into());
        m.insert("best_iters".into(), self.best_iters.as_slice().into());
        m.insert("budget_util".into(), self.budget_util.into());
        m.insert("incumbent_at".into(), self.incumbent_at.into());
        let bf = ["examined", "started", "reserved", "blocked"]
            .into_iter()
            .zip(self.backfill())
            .map(|(key, value)| (key.to_string(), value.into()))
            .collect();
        m.insert("backfill".into(), Value::Object(bf));
        Value::Object(m)
    }
}

/// Maps `part/whole` to a decile index 0..=9 (0 when `whole` is 0).
fn decile(part: u64, whole: u64) -> usize {
    if whole == 0 {
        return 0;
    }
    let pct = part.saturating_mul(100) / whole;
    usize::try_from((pct / 10).min(UTIL_BUCKETS as u64 - 1)).unwrap_or(0)
}

fn decile_table(buckets: &[u64; UTIL_BUCKETS]) -> String {
    let mut out = String::from("  range       decisions\n");
    for (i, &count) in buckets.iter().enumerate() {
        let lo = i * 10;
        let hi = if i == UTIL_BUCKETS - 1 { 100 } else { lo + 9 };
        out.push_str(&format!("  {lo:>3}-{hi:<3}% {count:>12}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{BackfillTrace, SearchTrace};
    use crate::sink::{TimeMode, TraceRecorder};
    use crate::Recorder;

    fn log_text() -> String {
        let mut r = TraceRecorder::new(
            TimeMode::Virtual,
            TraceMeta {
                policy: "DDS/lxf".into(),
                capacity: 128,
                source: "unit".into(),
                ..Default::default()
            },
        );
        let mut lines = vec![serde_json::to_string(&r.meta().to_value()).expect("meta")];
        for seq in 1..=3u64 {
            let d = DecisionTrace {
                seq,
                now: seq * 60,
                queue_depth: 2,
                running: 1,
                free_nodes: 32,
                started: vec![u32::try_from(seq).unwrap_or(0)],
                policy: Some(PolicyTrace::Search(SearchTrace {
                    budget: 1000,
                    nodes: 900,
                    leaves: 30,
                    improvements: 2,
                    nodes_to_best: 450,
                    best_iteration: 1,
                    leaf_iters: vec![1, 29],
                    deadline_hit: seq == 3,
                    nodes_left_at_deadline: if seq == 3 { 100 } else { 0 },
                    ..Default::default()
                })),
                wall_ns: 0,
                corr: 0,
            };
            lines.push(serde_json::to_string(&d.to_value(false)).expect("line"));
            r.record_decision(d);
        }
        lines.join("\n") + "\n"
    }

    #[test]
    fn aggregates_a_log_end_to_end() {
        let report = TraceReport::from_lines(&log_text()).expect("parse");
        assert_eq!(report.tally.decisions, 3);
        assert_eq!(report.searched(), 3);
        assert_eq!(report.tally.search_nodes, 2700);
        assert_eq!(report.leaf_iters, vec![3, 87]);
        assert_eq!(report.best_iters, vec![0, 3]);
        assert_eq!(report.tally.search_deadline_truncations, 1);
        assert_eq!(report.tally.search_deadline_nodes_left, 100);
        // 900/1000 and 450/900 both land in the 90% and 50% deciles.
        assert_eq!(report.budget_util[9], 3);
        assert_eq!(report.incumbent_at[5], 3);
        let rendered = report.render();
        assert!(rendered.contains("depth vs improvement"));
        assert!(rendered.contains("budget utilization"));
        assert!(rendered.contains("time to incumbent"));
        assert_eq!(report.collapsed(), "decide;search 2700\n");
        let json = report.to_json();
        assert_eq!(json["decisions"].as_u64(), Some(3));
    }

    #[test]
    fn last_and_since_restrict_the_window() {
        let text = log_text();
        let last = TraceReport::from_lines_filtered(&text, None, Some(2)).expect("last");
        assert_eq!(last.tally.decisions, 2);
        assert_eq!(last.tally.search_nodes, 1800);
        assert_eq!(
            last.tally.search_deadline_truncations, 1,
            "seq 3 is inside the window"
        );
        let since = TraceReport::from_lines_filtered(&text, Some(3), None).expect("since");
        assert_eq!(since.tally.decisions, 1);
        assert_eq!(since.tally.search_deadline_nodes_left, 100);
        let both = TraceReport::from_lines_filtered(&text, Some(2), Some(1)).expect("both");
        assert_eq!(both.tally.decisions, 1);
        assert_eq!(
            both.tally.search_deadline_truncations, 1,
            "last applies after since"
        );
        let all = TraceReport::from_lines_filtered(&text, None, Some(100)).expect("wide");
        assert_eq!(
            all.tally.decisions, 3,
            "a window wider than the log is a no-op"
        );
    }

    #[test]
    fn spans_are_derived_from_the_decision_fields() {
        let meta = serde_json::to_string(&TraceMeta::default().to_value()).expect("meta");
        let decision = |queue_depth, policy| DecisionTrace {
            queue_depth,
            policy: Some(policy),
            ..Default::default()
        };
        let search = |nodes, local_nodes, fallback| {
            PolicyTrace::Search(SearchTrace {
                nodes,
                local_nodes,
                fallback,
                ..Default::default()
            })
        };
        let decisions = [
            decision(4, search(40, 3, false)),
            decision(6, search(5, 0, true)),
            decision(0, search(0, 0, false)),
            decision(7, PolicyTrace::Backfill(BackfillTrace::default())),
            decision(0, PolicyTrace::Backfill(BackfillTrace::default())),
        ];
        let mut text = meta + "\n";
        for d in &decisions {
            text += &serde_json::to_string(&d.to_value(false)).expect("line");
            text.push('\n');
        }
        let report = TraceReport::from_lines(&text).expect("parse");
        // A fallback places every queued job; a pass examines every
        // queued job; zero weights add no line.
        assert_eq!(
            report.collapsed(),
            "decide;backfill 7\ndecide;fallback 6\ndecide;search 45\ndecide;search;local 3\n"
        );
        assert_eq!(report.tally.backfill_examined, 7);
    }

    #[test]
    fn a_two_segment_log_reports_the_sum_of_its_segments() {
        // A daemon's trace sink appends, and each run opens its segment
        // with a meta line.
        let one = log_text();
        let two = format!("{one}{one}");
        let single = TraceReport::from_lines(&one).expect("one segment");
        let double = TraceReport::from_lines(&two).expect("two segments");
        assert_eq!(double.tally.decisions, 2 * single.tally.decisions);
        assert_eq!(double.tally.search_nodes, 2 * single.tally.search_nodes);
        assert_eq!(double.collapsed(), "decide;search 5400\n");
        // `--last` counts decisions, not meta lines.
        let last = TraceReport::from_lines_filtered(&two, None, Some(4)).expect("last");
        assert_eq!(last.tally.decisions, 4);
        let foreign = format!("{one}{{\"schema\":\"other/v9\"}}\n");
        let err = TraceReport::from_lines(&foreign).expect_err("foreign segment");
        assert!(err.contains("line 5"), "{err}");
    }

    #[test]
    fn rejects_logs_without_a_valid_meta_header() {
        assert!(TraceReport::from_lines("").is_err());
        assert!(TraceReport::from_lines("{\"seq\":1}\n").is_err());
        assert!(TraceReport::from_lines("not json\n").is_err());
    }
}
