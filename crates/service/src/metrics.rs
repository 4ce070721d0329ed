//! Plaintext metrics in the Prometheus exposition format.
//!
//! The daemon answers both the in-protocol `{"op":"metrics"}` request
//! and plain `GET /metrics` HTTP probes with the same text, rendered
//! from a point-in-time [`MetricsView`] plus the daemon's
//! [`sbs_obs::TraceRecorder`] aggregates.
//!
//! Series are properly typed: monotone totals are `counter` families
//! (they used to be mistyped as gauges), distribution families render as
//! real `histogram`s with `_bucket`/`_sum`/`_count` series, and
//! point-in-time samples stay gauges.

use crate::snapshot::CompletedStats;
use sbs_obs::expo::Exposition;
use sbs_obs::TraceRecorder;

/// Everything the metrics endpoint reports, sampled at one instant.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsView {
    /// Scheduler time of the sample.
    pub now: u64,
    /// Jobs waiting in the queue.
    pub queue_depth: usize,
    /// Jobs currently running.
    pub running_jobs: usize,
    /// Free nodes.
    pub free_nodes: u32,
    /// Machine size.
    pub capacity: u32,
    /// Decision points executed.
    pub decisions: u64,
    /// Tree nodes expanded by the search policy (0 for heuristics).
    pub search_nodes: u64,
    /// Wall-clock nanoseconds spent inside the policy.
    pub policy_nanos: u64,
    /// Completed-job aggregates.
    pub completed: CompletedStats,
}

impl MetricsView {
    /// Mean over completed jobs, 0 when none completed.
    fn mean(&self, total: u64) -> f64 {
        if self.completed.count == 0 {
            0.0
        } else {
            total as f64 / self.completed.count as f64
        }
    }

    /// The view's own families with correct Prometheus types.
    fn exposition(&self) -> Exposition {
        let c = &self.completed;
        let mut e = Exposition::new();
        e.gauge(
            "sbs_scheduler_time_seconds",
            "Scheduler clock at sample time",
            self.now,
        );
        e.gauge(
            "sbs_queue_depth",
            "Jobs waiting in the queue",
            self.queue_depth,
        );
        e.gauge(
            "sbs_running_jobs",
            "Jobs currently running",
            self.running_jobs,
        );
        e.gauge("sbs_free_nodes", "Idle nodes", self.free_nodes);
        e.gauge("sbs_capacity_nodes", "Machine size in nodes", self.capacity);
        e.counter(
            "sbs_decisions_total",
            "Decision points executed",
            self.decisions,
        );
        e.counter(
            "sbs_search_nodes_total",
            "Search tree nodes expanded",
            self.search_nodes,
        );
        e.counter(
            "sbs_policy_seconds_total",
            "Wall-clock seconds spent inside the policy",
            format!("{:.6}", self.policy_nanos as f64 / 1e9),
        );
        e.counter("sbs_completed_jobs_total", "Jobs completed", c.count);
        e.gauge(
            "sbs_wait_seconds_mean",
            "Mean wait of completed jobs",
            format!("{:.3}", self.mean(c.total_wait)),
        );
        e.gauge(
            "sbs_wait_seconds_max",
            "Maximum wait of completed jobs",
            c.max_wait,
        );
        e
    }

    /// Renders the view's own families (no recorder aggregates).
    pub fn render(&self) -> String {
        self.exposition().render()
    }

    /// Renders the view plus the recorder's counter and histogram
    /// families.  Recorder counters whose names the view already emits
    /// (the snapshot-base-adjusted `sbs_decisions_total` and
    /// `sbs_search_nodes_total`) are skipped so no family appears twice.
    pub fn render_with(&self, recorder: &TraceRecorder) -> String {
        let mut e = self.exposition();
        let emitted: Vec<String> = e.families().iter().map(|f| f.name.clone()).collect();
        for (name, value) in recorder.counters() {
            if emitted.iter().any(|n| n == name) {
                continue;
            }
            e.counter(name, help_for(name), value);
        }
        for (name, hist) in recorder.histograms() {
            e.histogram(name, help_for(name), hist);
        }
        e.render()
    }
}

/// HELP text for recorder-sourced families.
fn help_for(name: &str) -> &'static str {
    match name {
        "sbs_jobs_started_total" => "Jobs started by scheduler decisions",
        "sbs_search_leaves_total" => "Complete schedules evaluated by the search",
        "sbs_search_pruned_total" => "Subtrees cut by the branch-and-bound prune bound",
        "sbs_search_improvements_total" => "Incumbent improvements during search",
        "sbs_search_local_nodes_total" => "Nodes spent in hill-climbing refinement",
        "sbs_search_exhausted_total" => "Decisions whose ordering tree was fully enumerated",
        "sbs_search_budget_hits_total" => "Decisions stopped by the node budget",
        "sbs_search_deadline_truncations_total" => {
            "Decisions cut by the wall-clock deadline with node budget unspent"
        }
        "sbs_search_deadline_nodes_left_total" => {
            "Node budget left unspent across deadline truncations"
        }
        "sbs_search_fallbacks_total" => "Decisions that fell back to the greedy heuristic path",
        "sbs_backfill_examined_total" => "Queue entries examined by backfill passes",
        "sbs_backfill_started_total" => "Jobs started by backfill passes",
        "sbs_backfill_reserved_total" => "Jobs granted a future reservation by backfill",
        "sbs_backfill_blocked_total" => "Jobs skipped by backfill with no reservation",
        "sbs_queue_depth_at_decision" => "Queue depth observed at each decision point",
        "sbs_decision_wall_nanos" => "Wall-clock nanoseconds per scheduler decision",
        "sbs_search_nodes_per_decision" => "Search nodes expanded per decision",
        "sbs_search_nodes_to_best" => "Nodes expanded when the final incumbent was found",
        "sbs_search_best_iteration" => "Discrepancy iteration of the final incumbent",
        "sbs_wait_seconds" => "Wait of completed jobs",
        _ => "Search telemetry",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbs_obs::expo::validate;
    use sbs_obs::{Recorder, TimeMode, TraceMeta};

    fn view() -> MetricsView {
        let mut completed = CompletedStats::default();
        completed.absorb(100);
        completed.absorb(300);
        MetricsView {
            now: 5_000,
            queue_depth: 3,
            running_jobs: 2,
            free_nodes: 10,
            capacity: 128,
            decisions: 42,
            search_nodes: 123_456,
            policy_nanos: 2_500_000_000,
            completed,
        }
    }

    #[test]
    fn renders_every_series_once_and_typed() {
        let text = view().render();
        for needle in [
            "sbs_queue_depth 3\n",
            "sbs_running_jobs 2\n",
            "sbs_free_nodes 10\n",
            "sbs_capacity_nodes 128\n",
            "sbs_decisions_total 42\n",
            "sbs_search_nodes_total 123456\n",
            "sbs_policy_seconds_total 2.500000\n",
            "sbs_completed_jobs_total 2\n",
            "sbs_wait_seconds_mean 200.000\n",
            "sbs_wait_seconds_max 300\n",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
        assert_eq!(text.matches("# TYPE").count(), 11);
        // The monotone totals are true counters now, not gauges.
        for counter in [
            "sbs_decisions_total",
            "sbs_search_nodes_total",
            "sbs_policy_seconds_total",
            "sbs_completed_jobs_total",
        ] {
            assert!(
                text.contains(&format!("# TYPE {counter} counter\n")),
                "{counter} must be typed counter in:\n{text}"
            );
        }
        validate(&text).expect("exposition validates");
    }

    #[test]
    fn recorder_families_join_without_duplicates() {
        let mut r = TraceRecorder::new(TimeMode::Wall, TraceMeta::default());
        r.add("sbs_search_leaves_total", 7);
        r.add("sbs_search_nodes_total", 99); // collides with the view's
        r.observe("sbs_wait_seconds", 120);
        r.observe("sbs_wait_seconds", 90_000);
        let text = view().render_with(&r);
        let families = validate(&text).expect("exposition validates");
        assert!(text.contains("# TYPE sbs_search_leaves_total counter\n"));
        assert!(text.contains("# TYPE sbs_wait_seconds histogram\n"));
        assert!(text.contains("sbs_wait_seconds_bucket{le=\"600\"} 1\n"));
        assert!(text.contains("sbs_wait_seconds_count 2\n"));
        // The snapshot-adjusted view value wins over the recorder's.
        assert!(text.contains("sbs_search_nodes_total 123456\n"));
        assert!(!text.contains("sbs_search_nodes_total 99"));
        assert_eq!(
            families
                .iter()
                .filter(|f| f.name == "sbs_search_nodes_total")
                .count(),
            1
        );
    }

    #[test]
    fn empty_stats_do_not_divide_by_zero() {
        let text = MetricsView::default().render();
        assert!(text.contains("sbs_wait_seconds_mean 0.000\n"));
        validate(&text).expect("exposition validates");
    }
}
