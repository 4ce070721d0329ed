//! The per-tenant tally: every count a served view reports, in typed
//! fields, folded once per decision from its [`DecisionTrace`].

use crate::hist::Histogram;
use crate::record::{DecisionTrace, PolicyTrace};
use crate::sink::TimeMode;

/// One tenant's counts and distributions.  [`crate::TraceRecorder`]
/// folds every decision in ([`Tally::fold`]); the tenant folds its
/// completed jobs in ([`Tally::complete`]) and counts its admissions and
/// incidents.  Nothing restores it: every count restarts with the
/// process.
#[expect(
    missing_docs,
    reason = "each field is documented once, by the HELP string of its family in sbs_service::metrics::FAMILIES"
)]
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tally {
    pub decisions: u64,
    pub jobs_started: u64,
    pub policy_nanos: u64,
    pub search_nodes: u64,
    pub search_leaves: u64,
    pub search_pruned: u64,
    pub search_improvements: u64,
    pub search_local_nodes: u64,
    pub search_exhausted: u64,
    pub search_budget_hits: u64,
    pub search_deadline_truncations: u64,
    pub search_deadline_nodes_left: u64,
    pub search_fallbacks: u64,
    pub backfill_examined: u64,
    pub backfill_started: u64,
    pub backfill_reserved: u64,
    pub backfill_blocked: u64,
    pub max_wait: u64,
    pub submitted: u64,
    pub rejected: u64,
    pub incidents: u64,
    pub queue_depth_at_decision: Histogram,
    pub decision_wall_nanos: Histogram,
    pub search_nodes_per_decision: Histogram,
    pub search_nodes_to_best: Histogram,
    pub search_best_iteration: Histogram,
    pub wait_seconds: Histogram,
}

impl Default for Tally {
    /// An empty tally.  The bucket layouts are fixed here, once, so
    /// dashboards and golden fixtures don't churn.
    fn default() -> Self {
        let nodes = || Histogram::exponential(1, 10, 6);
        Tally {
            decisions: 0,
            jobs_started: 0,
            policy_nanos: 0,
            search_nodes: 0,
            search_leaves: 0,
            search_pruned: 0,
            search_improvements: 0,
            search_local_nodes: 0,
            search_exhausted: 0,
            search_budget_hits: 0,
            search_deadline_truncations: 0,
            search_deadline_nodes_left: 0,
            search_fallbacks: 0,
            backfill_examined: 0,
            backfill_started: 0,
            backfill_reserved: 0,
            backfill_blocked: 0,
            max_wait: 0,
            submitted: 0,
            rejected: 0,
            incidents: 0,
            queue_depth_at_decision: Histogram::new(&[1, 2, 4, 8, 16, 32, 64, 128, 256]),
            decision_wall_nanos: Histogram::exponential(1_000, 10, 7),
            search_nodes_per_decision: nodes(),
            search_nodes_to_best: nodes(),
            search_best_iteration: Histogram::new(&[0, 1, 2, 4, 8, 16, 32]),
            wait_seconds: Histogram::new(&[60, 600, 3_600, 14_400, 43_200, 86_400, 259_200]),
        }
    }
}

impl Tally {
    /// Folds one decision in.  Wall time (the policy's and the
    /// decision's) is folded only in [`TimeMode::Wall`].
    pub fn fold(&mut self, d: &DecisionTrace, mode: TimeMode) {
        self.decisions += 1;
        self.jobs_started += d.started.len() as u64;
        self.queue_depth_at_decision
            .observe(u64::from(d.queue_depth));
        if mode == TimeMode::Wall {
            self.policy_nanos += d.wall_ns;
            self.decision_wall_nanos.observe(d.wall_ns);
        }
        match &d.policy {
            Some(PolicyTrace::Search(s)) => {
                // Tree and hill-climb nodes: the whole budget L the
                // search spent.
                self.search_nodes += s.nodes + s.local_nodes;
                self.search_leaves += s.leaves;
                self.search_pruned += s.pruned;
                self.search_improvements += s.improvements;
                self.search_local_nodes += s.local_nodes;
                self.search_exhausted += u64::from(s.exhausted);
                self.search_budget_hits += u64::from(s.budget_hit);
                if s.deadline_hit {
                    self.search_deadline_truncations += u64::from(s.nodes_left_at_deadline > 0);
                    self.search_deadline_nodes_left += s.nodes_left_at_deadline;
                }
                self.search_fallbacks += u64::from(s.fallback);
                self.search_nodes_per_decision
                    .observe(s.nodes + s.local_nodes);
                self.search_nodes_to_best.observe(s.nodes_to_best);
                self.search_best_iteration
                    .observe(u64::from(s.best_iteration));
            }
            Some(PolicyTrace::Backfill(b)) => {
                // A pass examines every queued job, and the jobs it
                // starts are the decision's.
                self.backfill_examined += u64::from(d.queue_depth);
                self.backfill_started += d.started.len() as u64;
                self.backfill_reserved += u64::from(b.reserved);
                self.backfill_blocked += u64::from(b.blocked);
            }
            None => {}
        }
    }

    /// Folds one completed job's wait in.
    pub fn complete(&mut self, wait: u64) {
        self.max_wait = self.max_wait.max(wait);
        self.wait_seconds.observe(wait);
    }
}
