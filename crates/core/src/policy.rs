//! The search-based scheduling policies (Section 2.3).
//!
//! A [`SearchPolicy`] is the combination of a search algorithm (LDS or
//! DDS), a branching heuristic (fcfs or lxf), a target wait bound (fixed
//! or dynamic) and a per-decision node budget `L`.  The paper's four
//! policies are LDS/fcfs, LDS/lxf, DDS/fcfs and DDS/lxf; its best is
//! **DDS/lxf/dynB**.

use crate::objective::{HierarchicalObjective, Objective, TargetBound};
use crate::schedule::ScheduleProblem;
use sbs_backfill::PriorityOrder;
use sbs_dsearch::{beam, dds, greedy, hill_climb, lds, random_sampling, SearchConfig};
use sbs_obs::{PolicyTrace, SearchTrace};
use sbs_sim::policy::{Policy, SchedContext};
use sbs_workload::job::JobId;
use std::sync::Arc;

/// Which search algorithm explores the ordering tree.
///
/// The paper's policies use the two complete discrepancy searches; the
/// incomplete `Random` and `Beam` baselines exist for the
/// `ablate-random` comparison ("is systematic search worth it?").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchAlgo {
    /// Limited discrepancy search (exactly-k iterations).
    Lds,
    /// Depth-bounded discrepancy search.
    Dds,
    /// Uniformly random leaf sampling (incomplete baseline).
    Random,
    /// Width-bounded beam search (incomplete baseline).
    Beam(u32),
}

impl SearchAlgo {
    /// Paper-style label (`LDS`/`DDS`; `RND`/`BEAMw` for the baselines).
    pub fn label(&self) -> String {
        match self {
            SearchAlgo::Lds => "LDS".into(),
            SearchAlgo::Dds => "DDS".into(),
            SearchAlgo::Random => "RND".into(),
            SearchAlgo::Beam(w) => format!("BEAM{w}"),
        }
    }
}

/// The branching heuristic ordering jobs at every tree node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Branching {
    /// First come, first served (arrival order).
    Fcfs,
    /// Largest current bounded slowdown first.
    Lxf,
}

impl Branching {
    /// Paper-style label (`fcfs`/`lxf`).
    pub fn label(&self) -> &'static str {
        match self {
            Branching::Fcfs => "fcfs",
            Branching::Lxf => "lxf",
        }
    }

    /// Heuristic order of the queue (indices, best first).  Both
    /// heuristics depend only on the decision time, not on the partial
    /// schedule, so the order is computed once per decision point.
    pub fn order(&self, ctx: &SchedContext<'_>) -> Vec<u32> {
        let priority = match self {
            Branching::Fcfs => PriorityOrder::Fcfs,
            Branching::Lxf => PriorityOrder::Lxf,
        };
        priority.order(ctx.queue, ctx.now)
    }
}

/// Cumulative search counters across all decision points of a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchTotals {
    /// Decision points at which a search ran (non-empty queue).
    pub decisions: u64,
    /// Total tree nodes visited.
    pub nodes: u64,
    /// Total leaves (complete schedules) evaluated.
    pub leaves: u64,
    /// Decision points whose tree was searched exhaustively.
    pub exhausted: u64,
    /// Decision points where the budget did not cover even one complete
    /// path and the policy fell back to the unbudgeted heuristic path.
    pub fallbacks: u64,
    /// Decision points whose search the wall-clock deadline cut short
    /// with node budget still unspent (see
    /// [`sbs_dsearch::SearchStats::nodes_left_at_deadline`]).
    pub deadline_truncations: u64,
    /// Total budget left unspent across all deadline truncations.
    pub deadline_nodes_left: u64,
}

/// A goal-oriented search-based scheduling policy.
#[derive(Clone)]
pub struct SearchPolicy {
    /// Search algorithm.
    pub algo: SearchAlgo,
    /// Branching heuristic.
    pub branching: Branching,
    /// Target wait bound ω.
    pub bound: TargetBound,
    /// Node budget `L` per decision point.
    pub node_limit: u64,
    /// Enable branch-and-bound pruning (extension; off = paper-faithful).
    pub prune: bool,
    /// Fraction of `L` reserved for hill-climbing from the tree search's
    /// incumbent (the paper's complete+local future work; 0 = off).
    pub local_frac: f64,
    /// Optional per-decision wall-clock deadline (anytime stop); used by
    /// the online daemon where decisions must land in bounded real time.
    pub deadline: Option<std::time::Duration>,
    objective: Arc<dyn Objective>,
    totals: SearchTotals,
    tracing: bool,
    last_trace: Option<PolicyTrace>,
}

impl SearchPolicy {
    /// Creates a policy with the paper's hierarchical objective.
    pub fn new(
        algo: SearchAlgo,
        branching: Branching,
        bound: TargetBound,
        node_limit: u64,
    ) -> Self {
        assert!(node_limit > 0, "node budget must be positive");
        SearchPolicy {
            algo,
            branching,
            bound,
            node_limit,
            prune: false,
            local_frac: 0.0,
            deadline: None,
            objective: Arc::new(HierarchicalObjective),
            totals: SearchTotals::default(),
            tracing: false,
            last_trace: None,
        }
    }

    /// The paper's headline policy: DDS / lxf / dynamic bound.
    pub fn dds_lxf_dynb(node_limit: u64) -> Self {
        Self::new(
            SearchAlgo::Dds,
            Branching::Lxf,
            TargetBound::Dynamic,
            node_limit,
        )
    }

    /// Replaces the objective (see [`crate::objective::Objective`]).
    pub fn with_objective(mut self, objective: Arc<dyn Objective>) -> Self {
        self.objective = objective;
        self
    }

    /// Enables branch-and-bound pruning of the ordering tree.
    pub fn with_prune(mut self, prune: bool) -> Self {
        self.prune = prune;
        self
    }

    /// Reserves a fraction of the node budget for hill-climbing (pairwise
    /// swaps) from the tree search's best path — the complete+local
    /// hybrid the paper lists as future work (Section 2.2).
    pub fn with_local_search(mut self, frac: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&frac),
            "local fraction must be in [0, 1)"
        );
        self.local_frac = frac;
        self
    }

    /// Caps each decision's search at a wall-clock deadline in addition
    /// to the node budget — whichever is hit first ends the search, which
    /// returns its best-so-far schedule (anytime behavior).
    pub fn with_deadline(mut self, deadline: std::time::Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Cumulative search statistics so far.
    pub fn totals(&self) -> SearchTotals {
        self.totals
    }

    /// The objective in use (shared with any clones).
    pub fn objective(&self) -> Arc<dyn Objective> {
        Arc::clone(&self.objective)
    }
}

impl Policy for SearchPolicy {
    fn name(&self) -> String {
        let hybrid = if self.local_frac > 0.0 { "+hc" } else { "" };
        format!(
            "{}{hybrid}/{}/{}",
            self.algo.label(),
            self.branching.label(),
            self.bound.label()
        )
    }

    fn decide(&mut self, ctx: &SchedContext<'_>) -> Vec<JobId> {
        if ctx.queue.is_empty() {
            return Vec::new();
        }
        let omega = self.bound.resolve(ctx);
        let mut problem = ScheduleProblem::new(
            ctx.queue,
            ctx.now,
            ctx.profile(),
            self.branching.order(ctx),
            omega,
            Arc::clone(&self.objective),
        );
        #[expect(
            clippy::cast_possible_truncation,
            reason = "float-to-int `as` saturates deterministically; the tree share is at most node_limit"
        )]
        let tree_budget = ((self.node_limit as f64) * (1.0 - self.local_frac))
            .round()
            .max(1.0) as u64;
        let cfg = SearchConfig {
            node_limit: Some(tree_budget),
            deadline: self.deadline,
            prune: self.prune,
            record_leaves: false,
        };
        let outcome = match self.algo {
            SearchAlgo::Lds => lds(&mut problem, cfg),
            SearchAlgo::Dds => dds(&mut problem, cfg),
            SearchAlgo::Random => {
                // Deterministic per-decision seed: mix the decision index
                // so repeated runs of a workload are identical.
                let seed = 0x5eed ^ (self.totals.decisions.wrapping_mul(0x9e37_79b9));
                random_sampling(&mut problem, cfg, seed)
            }
            SearchAlgo::Beam(w) => beam(&mut problem, w as usize, cfg),
        };
        let stats = outcome.stats;
        self.totals.decisions += 1;
        self.totals.nodes += stats.nodes;
        self.totals.leaves += stats.leaves;
        self.totals.exhausted += u64::from(stats.exhausted);
        if stats.deadline_hit {
            self.totals.deadline_truncations += u64::from(stats.nodes_left_at_deadline > 0);
            self.totals.deadline_nodes_left += stats.nodes_left_at_deadline;
        }

        // Spend whatever the tree search left of L on hill climbing from
        // its incumbent (no-op when local_frac = 0 or the tree was
        // exhausted within budget anyway).
        let mut local_nodes = 0u64;
        let mut chosen: Option<Vec<u32>> = None;
        if self.local_frac > 0.0 {
            if let Some((cost, path)) = outcome.best.clone() {
                let leftover = self.node_limit.saturating_sub(stats.nodes);
                if leftover >= path.len() as u64 && !stats.exhausted {
                    let climbed =
                        hill_climb(&mut problem, path, cost, SearchConfig::with_limit(leftover));
                    if let Some((_, best_path)) = climbed.best {
                        local_nodes = climbed.stats.nodes;
                        self.totals.nodes += climbed.stats.nodes;
                        self.totals.leaves += climbed.stats.leaves;
                        chosen = Some(best_path);
                    }
                }
            }
        }

        let mut fallback = false;
        let path = match chosen.or_else(|| outcome.best.map(|(_, path)| path)) {
            Some(path) => path,
            None => {
                // Budget smaller than the queue: not even the heuristic
                // path completed.  Take it unbudgeted so the policy
                // degrades to the greedy priority scheduler rather than
                // stalling.
                fallback = true;
                self.totals.fallbacks += 1;
                greedy(&mut problem, SearchConfig::default())
                    .best
                    .expect("greedy always reaches a leaf")
                    .1
            }
        };

        if self.tracing {
            let mut leaf_iters = stats.leaf_iters.to_vec();
            while leaf_iters.last() == Some(&0) {
                leaf_iters.pop();
            }
            self.last_trace = Some(PolicyTrace::Search(SearchTrace {
                omega,
                budget: tree_budget,
                nodes: stats.nodes,
                leaves: stats.leaves,
                iterations: stats.iterations,
                improvements: stats.improvements,
                nodes_to_best: stats.nodes_to_best,
                best_iteration: stats.best_iteration,
                exhausted: stats.exhausted,
                budget_hit: stats.budget_hit,
                deadline_hit: stats.deadline_hit,
                nodes_left_at_deadline: stats.nodes_left_at_deadline,
                pruned: stats.pruned,
                fallback,
                local_nodes,
                leaf_iters,
            }));
        }
        problem.starts_now(&path)
    }

    fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
        if !on {
            self.last_trace = None;
        }
    }

    fn take_trace(&mut self) -> Option<PolicyTrace> {
        self.last_trace.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbs_sim::engine::{check_invariants, simulate, SimConfig};
    use sbs_sim::policy::WaitingJob;
    use sbs_workload::generator::{random_workload, RandomWorkloadCfg, Workload};
    use sbs_workload::job::Job;
    use sbs_workload::time::{Time, HOUR};

    fn waiting(id: u32, submit: Time, nodes: u32, r_star: Time) -> WaitingJob {
        WaitingJob {
            job: Job::new(JobId(id), submit, nodes, r_star, r_star),
            r_star,
        }
    }

    #[test]
    fn names_match_the_paper() {
        assert_eq!(SearchPolicy::dds_lxf_dynb(1_000).name(), "DDS/lxf/dynB");
        assert_eq!(
            SearchPolicy::new(
                SearchAlgo::Lds,
                Branching::Fcfs,
                TargetBound::Fixed(50 * HOUR),
                1_000
            )
            .name(),
            "LDS/fcfs/w=50h"
        );
    }

    #[test]
    fn empty_queue_is_a_no_op() {
        let mut p = SearchPolicy::dds_lxf_dynb(1_000);
        let ctx = SchedContext {
            now: 0,
            capacity: 8,
            free_nodes: 8,
            queue: &[],
            running: &[],
        };
        assert!(p.decide(&ctx).is_empty());
        assert_eq!(p.totals().decisions, 0);
    }

    #[test]
    fn starts_the_best_immediate_set() {
        // 4 nodes free: short narrow jobs should start, the wide long
        // one should wait (minimizes slowdown at zero excess).
        let q = [
            waiting(0, 0, 4, 4 * HOUR),
            waiting(1, 0, 1, HOUR),
            waiting(2, 0, 1, HOUR),
        ];
        let mut p = SearchPolicy::dds_lxf_dynb(10_000);
        let ctx = SchedContext {
            now: 0,
            capacity: 4,
            free_nodes: 4,
            queue: &q,
            running: &[],
        };
        let mut starts = p.decide(&ctx);
        starts.sort_by_key(|j| j.0);
        assert_eq!(starts, vec![JobId(1), JobId(2)]);
        assert_eq!(p.totals().decisions, 1);
        assert!(p.totals().nodes > 0);
    }

    #[test]
    fn tiny_budget_falls_back_to_greedy() {
        let q: Vec<WaitingJob> = (0..6).map(|i| waiting(i, 0, 1, HOUR)).collect();
        let mut p = SearchPolicy::dds_lxf_dynb(2); // < queue length
        let ctx = SchedContext {
            now: 0,
            capacity: 8,
            free_nodes: 8,
            queue: &q,
            running: &[],
        };
        let starts = p.decide(&ctx);
        assert_eq!(starts.len(), 6, "greedy fallback still schedules");
        assert_eq!(p.totals().fallbacks, 1);
    }

    fn run(policy: SearchPolicy, w: &Workload) -> sbs_sim::SimResult {
        let r = simulate(w, policy, SimConfig::default());
        check_invariants(&r);
        r
    }

    #[test]
    fn all_four_paper_policies_complete_random_workloads() {
        let w = random_workload(
            RandomWorkloadCfg {
                jobs: 120,
                ..Default::default()
            },
            5,
        );
        for algo in [SearchAlgo::Lds, SearchAlgo::Dds] {
            for branching in [Branching::Fcfs, Branching::Lxf] {
                let p = SearchPolicy::new(algo, branching, TargetBound::Dynamic, 500);
                let r = run(p, &w);
                assert_eq!(r.records.len(), w.jobs.len());
            }
        }
    }

    #[test]
    fn pruning_preserves_behaviour_quality() {
        let w = random_workload(
            RandomWorkloadCfg {
                jobs: 150,
                ..Default::default()
            },
            11,
        );
        let plain = run(SearchPolicy::dds_lxf_dynb(1_000), &w);
        let pruned = run(SearchPolicy::dds_lxf_dynb(1_000).with_prune(true), &w);
        // Both complete; pruning only skips provably-dominated subtrees,
        // so quality should be in the same ballpark (within the same
        // budget it can differ either way — just check both are sane).
        assert_eq!(plain.records.len(), pruned.records.len());
    }

    #[test]
    fn hybrid_policy_completes_and_is_named() {
        let p = SearchPolicy::dds_lxf_dynb(1_000).with_local_search(0.5);
        assert_eq!(p.name(), "DDS+hc/lxf/dynB");
        let w = random_workload(
            RandomWorkloadCfg {
                jobs: 150,
                ..Default::default()
            },
            21,
        );
        let r = run(p, &w);
        assert_eq!(r.records.len(), w.jobs.len());
    }

    #[test]
    fn hybrid_respects_the_total_budget() {
        let w = random_workload(
            RandomWorkloadCfg {
                jobs: 120,
                ..Default::default()
            },
            8,
        );
        let mut p = SearchPolicy::dds_lxf_dynb(500).with_local_search(0.4);
        let _ = simulate(&w, &mut p, SimConfig::default());
        let t = p.totals();
        assert!(t.nodes <= t.decisions * 500, "hybrid exceeded L: {t:?}");
        assert!(t.leaves > 0);
    }

    #[test]
    #[should_panic(expected = "local fraction")]
    fn local_fraction_must_be_sub_unit() {
        let _ = SearchPolicy::dds_lxf_dynb(100).with_local_search(1.0);
    }

    #[test]
    fn tracing_captures_the_search_anatomy() {
        let q = [
            waiting(0, 0, 4, 4 * HOUR),
            waiting(1, 0, 1, HOUR),
            waiting(2, 0, 1, HOUR),
        ];
        let ctx = SchedContext {
            now: 0,
            capacity: 4,
            free_nodes: 4,
            queue: &q,
            running: &[],
        };
        let mut p = SearchPolicy::dds_lxf_dynb(10_000);
        assert!(p.take_trace().is_none(), "tracing is off by default");
        let _ = p.decide(&ctx);
        assert!(p.take_trace().is_none(), "no trace accumulates while off");

        p.set_tracing(true);
        let _ = p.decide(&ctx);
        let trace = p.take_trace().expect("trace recorded while tracing");
        assert!(p.take_trace().is_none(), "take_trace drains");
        let PolicyTrace::Search(search) = trace else {
            panic!("search policies record a search: {trace:?}");
        };
        assert_eq!(search.budget, 10_000);
        assert!(search.nodes > 0 && search.leaves > 0);
        assert!(search.improvements >= 1);
        assert!(search.nodes_to_best <= search.nodes);
        assert!(!search.fallback);
        assert_eq!(search.local_nodes, 0);
        assert_eq!(search.leaf_iters.iter().sum::<u64>(), search.leaves);
    }

    #[test]
    fn tracing_marks_the_greedy_fallback() {
        let q: Vec<WaitingJob> = (0..6).map(|i| waiting(i, 0, 1, HOUR)).collect();
        let mut p = SearchPolicy::dds_lxf_dynb(2);
        p.set_tracing(true);
        let ctx = SchedContext {
            now: 0,
            capacity: 8,
            free_nodes: 8,
            queue: &q,
            running: &[],
        };
        let _ = p.decide(&ctx);
        let Some(PolicyTrace::Search(search)) = p.take_trace() else {
            panic!("a search trace");
        };
        assert!(search.fallback);
        assert!(search.budget_hit);
    }

    #[test]
    fn deadline_truncation_feeds_the_totals() {
        let q: Vec<WaitingJob> = (0..9).map(|i| waiting(i, 0, 1, HOUR)).collect();
        let mut p = SearchPolicy::dds_lxf_dynb(100_000).with_deadline(std::time::Duration::ZERO);
        let ctx = SchedContext {
            now: 0,
            capacity: 16,
            free_nodes: 16,
            queue: &q,
            running: &[],
        };
        let _ = p.decide(&ctx);
        let t = p.totals();
        assert_eq!(t.deadline_truncations, 1);
        assert!(t.deadline_nodes_left > 0);
        assert_eq!(t.deadline_nodes_left, 100_000 - t.nodes);
    }

    #[test]
    fn omega_zero_minimizes_total_wait_level_first() {
        // With omega = 0 every second of wait is excess; a sufficiently
        // budgeted search must find a zero-wait schedule when one exists.
        let q = [waiting(0, 0, 2, HOUR), waiting(1, 0, 2, HOUR)];
        let mut p = SearchPolicy::new(
            SearchAlgo::Dds,
            Branching::Fcfs,
            TargetBound::Fixed(0),
            1_000,
        );
        let ctx = SchedContext {
            now: 0,
            capacity: 4,
            free_nodes: 4,
            queue: &q,
            running: &[],
        };
        assert_eq!(p.decide(&ctx).len(), 2);
    }
}
