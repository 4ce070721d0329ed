//! The job-ordering search problem (Section 2.2's tree).
//!
//! A tree node at depth `d` is "the `d`-th job considered for
//! scheduling"; a root-to-leaf path is a complete consideration order of
//! the waiting jobs.  **The consideration order is not the start order**:
//! descending the tree places each job at its *earliest start time*
//! against the availability profile (running jobs plus the jobs already
//! placed on the path), exactly as the paper computes schedules.
//!
//! The objective cost accumulates incrementally during descent and is
//! restored exactly on backtrack (the pre-descend cost is stored in the
//! placement stack), so evaluating a neighbouring path costs only the
//! path suffix that changed — this is what makes node budgets of 1K-100K
//! per decision affordable.
//!
//! Nodes are undone two ways (see [`sbs_sim::avail`]): probe nodes pop a
//! journal frame each on `ascend`; a heuristic tail checkpoints the
//! profile once, places without journalling, and `end_tail` rewinds the
//! profile, the unplaced list and the cost in one step.

use crate::objective::{Objective, ObjectiveCost};
use sbs_dsearch::SearchProblem;
use sbs_sim::avail::{AvailabilityProfile, Checkpoint, UndoLog};
use sbs_sim::policy::WaitingJob;
use sbs_workload::job::JobId;
use sbs_workload::time::Time;
use std::sync::Arc;

/// One job placed on the current tree path.
#[derive(Debug, Clone, Copy)]
pub struct Placement {
    /// Index into the queue slice.
    pub job: u32,
    /// Chosen (earliest feasible) start time.
    pub start: Time,
    /// Objective cost *before* this placement, for exact undo.
    prev_cost: ObjectiveCost,
    /// Remaining-jobs lower bound *before* this placement, for exact
    /// undo (floating-point subtraction is not exactly reversible).
    prev_lb: ObjectiveCost,
}

/// The search problem over orderings of one decision point's queue.
pub struct ScheduleProblem<'a> {
    jobs: &'a [WaitingJob],
    now: Time,
    omega: Time,
    objective: Arc<dyn Objective>,
    /// Queue indices in branching-heuristic order (best first).
    order: Vec<u32>,
    /// Doubly-linked list over *positions in `order`* of the unplaced
    /// jobs, with sentinel `order.len()`.  Gives O(1) heuristic-branch
    /// lookup and O(remaining) branch enumeration — the hot path of the
    /// discrepancy searches.  Inside a heuristic tail only the head
    /// (`next[sentinel]`) moves: a tail places the head each time, so
    /// restoring the head restores the whole list.
    next: Vec<u32>,
    prev: Vec<u32>,
    /// Position in `order` of each job index.
    pos_of: Vec<u32>,
    profile: AvailabilityProfile,
    /// Journal of profile edits, one frame per placement; ascend pops a
    /// frame to restore the profile exactly (no re-search, no re-merge).
    undo: UndoLog,
    /// Placement count where the open heuristic tail began, between
    /// `begin_tail` and `end_tail`.  Descends inside a tail skip the
    /// journal; the first one saves `checkpoint`.
    tail_from: Option<usize>,
    /// The profile as it was when the open tail first descended.
    checkpoint: Checkpoint,
    placed: Vec<Placement>,
    cost: ObjectiveCost,
    /// Per-job cost floor `job_cost(w, now, omega)` — every start is at
    /// or after `now` and all objectives are monotone in the start time,
    /// so this never exceeds the job's eventual contribution.
    base_cost: Vec<ObjectiveCost>,
    /// Sum of `base_cost` over the *unplaced* jobs: an admissible lower
    /// bound on what the rest of the path must still add to `cost`.
    remaining_lb: ObjectiveCost,
}

impl<'a> ScheduleProblem<'a> {
    /// Builds the problem for a decision point.
    ///
    /// * `order` — queue indices in heuristic order (first = heuristic
    ///   choice at every node);
    /// * `profile` — availability from the running set at `now`;
    /// * `omega` — the resolved target wait bound.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "list indices are at most n, which fits u32 (checked by `sentinel`)"
    )]
    pub fn new(
        jobs: &'a [WaitingJob],
        now: Time,
        profile: AvailabilityProfile,
        order: Vec<u32>,
        omega: Time,
        objective: Arc<dyn Objective>,
    ) -> Self {
        debug_assert_eq!(order.len(), jobs.len(), "order must cover the queue");
        let n = order.len();
        // Circular doubly-linked list over order positions with sentinel
        // index n: initially every position is unplaced, in order.
        let sentinel = u32::try_from(n).expect("queue length exceeds u32 range");
        let mut next = vec![0u32; n + 1];
        let mut prev = vec![0u32; n + 1];
        for i in 0..=n {
            next[i] = if i == n { 0 } else { i as u32 + 1 };
            prev[i] = if i == 0 { sentinel } else { i as u32 - 1 };
        }
        if n == 0 {
            next[0] = sentinel;
        }
        let mut pos_of = vec![0u32; n];
        for (pos, &job) in order.iter().enumerate() {
            pos_of[job as usize] = pos as u32;
        }
        let base_cost: Vec<ObjectiveCost> = jobs
            .iter()
            .map(|w| objective.job_cost(w, now, omega))
            .collect();
        let remaining_lb = base_cost
            .iter()
            .fold(ObjectiveCost::ZERO, |acc, c| ObjectiveCost {
                excess: acc.excess + c.excess,
                bsld_sum: acc.bsld_sum + c.bsld_sum,
            });
        ScheduleProblem {
            jobs,
            now,
            omega,
            objective,
            order,
            next,
            prev,
            pos_of,
            profile,
            undo: UndoLog::new(),
            tail_from: None,
            checkpoint: Checkpoint::new(),
            placed: Vec::with_capacity(n),
            cost: ObjectiveCost::ZERO,
            base_cost,
            remaining_lb,
        }
    }

    /// The linked-list sentinel index (`order.len()`, validated to fit
    /// u32 in [`Self::new`], so the fallback never triggers).
    fn sentinel(&self) -> u32 {
        u32::try_from(self.order.len()).unwrap_or(u32::MAX)
    }

    /// The placements of the current path, in consideration order.
    pub fn placements(&self) -> &[Placement] {
        &self.placed
    }

    /// Replays a complete ordering (a search result path) and returns the
    /// jobs that start at `now` under it.  Leaves the cursor at the root.
    pub fn starts_now(&mut self, path: &[u32]) -> Vec<JobId> {
        debug_assert!(self.placed.is_empty(), "cursor must be at the root");
        for &j in path {
            self.descend(j);
        }
        let starts: Vec<JobId> = self
            .placed
            .iter()
            .filter(|p| p.start == self.now)
            .map(|p| self.jobs[p.job as usize].job.id)
            .collect();
        for _ in path {
            self.ascend();
        }
        starts
    }
}

impl SearchProblem for ScheduleProblem<'_> {
    type Branch = u32;
    type Cost = ObjectiveCost;

    fn branches(&self, out: &mut Vec<u32>) {
        // Walk the unplaced linked list in heuristic order.
        let sentinel = self.sentinel();
        let mut pos = self.next[sentinel as usize];
        while pos != sentinel {
            out.push(self.order[pos as usize]);
            pos = self.next[pos as usize];
        }
    }

    fn descend(&mut self, branch: u32) {
        let w = &self.jobs[branch as usize];
        let (nodes, duration) = (w.job.nodes, w.r_star.max(1));
        let pos = self.pos_of[branch as usize] as usize;
        let start = match self.tail_from {
            None => {
                debug_assert_eq!(
                    self.next[self.prev[pos] as usize] as usize, pos,
                    "job placed twice"
                );
                // Unlink the position from the unplaced list.
                let (p, n) = (self.prev[pos], self.next[pos]);
                self.next[p as usize] = n;
                self.prev[n as usize] = p;
                self.profile
                    .place(nodes, duration, self.now, &mut self.undo)
            }
            Some(from) => {
                let head = self.sentinel() as usize;
                debug_assert_eq!(self.next[head] as usize, pos, "a tail places the list head");
                self.next[head] = self.next[pos];
                if self.placed.len() == from {
                    self.profile.checkpoint(&mut self.checkpoint);
                }
                self.profile.place_unjournalled(nodes, duration, self.now)
            }
        };
        let contribution = self.objective.job_cost(w, start, self.omega);
        self.placed.push(Placement {
            job: branch,
            start,
            prev_cost: self.cost,
            prev_lb: self.remaining_lb,
        });
        self.cost.excess += contribution.excess;
        self.cost.bsld_sum += contribution.bsld_sum;
        let base = self.base_cost[branch as usize];
        self.remaining_lb.excess -= base.excess;
        self.remaining_lb.bsld_sum -= base.bsld_sum;
    }

    fn ascend(&mut self) {
        debug_assert!(self.tail_from.is_none(), "ascend inside a tail");
        let p = self.placed.pop().expect("ascend above root");
        self.profile.unplace(&mut self.undo);
        // Relink (valid because ascends mirror descends in LIFO order).
        let pos32 = self.pos_of[p.job as usize];
        let pos = pos32 as usize;
        let (pr, nx) = (self.prev[pos], self.next[pos]);
        self.next[pr as usize] = pos32;
        self.prev[nx as usize] = pos32;
        self.cost = p.prev_cost;
        self.remaining_lb = p.prev_lb;
    }

    fn begin_tail(&mut self) {
        debug_assert!(self.tail_from.is_none(), "tails do not nest");
        self.tail_from = Some(self.placed.len());
    }

    fn end_tail(&mut self, depth: usize) {
        let from = self.placed.len() - depth;
        debug_assert_eq!(self.tail_from, Some(from), "end_tail depth mismatch");
        self.tail_from = None;
        let Some(&first) = self.placed.get(from) else {
            return; // nothing was placed, so nothing was checkpointed
        };
        self.profile.rewind(&mut self.checkpoint);
        let head = self.sentinel() as usize;
        self.next[head] = self.pos_of[first.job as usize];
        self.placed.truncate(from);
        self.cost = first.prev_cost;
        self.remaining_lb = first.prev_lb;
    }

    fn leaf_cost(&self) -> ObjectiveCost {
        self.cost
    }

    fn prune_bound(&self) -> Option<ObjectiveCost> {
        // The partial cost only grows as jobs are added, and every
        // unplaced job must still contribute at least its `now`-floor
        // (starts never precede `now`; objectives are monotone in start
        // time), so prefix + remaining floor lower-bounds every
        // completion lexicographically.  The slowdown component of the
        // running floor is maintained by floating-point subtraction and
        // may drift by an ulp; the excess component — the level that
        // decides almost all comparisons — is exact integer arithmetic.
        Some(ObjectiveCost {
            excess: self.cost.excess + self.remaining_lb.excess,
            bsld_sum: self.cost.bsld_sum + self.remaining_lb.bsld_sum,
        })
    }

    fn branch_count(&self) -> usize {
        self.order.len() - self.placed.len()
    }

    fn heuristic_branch(&self) -> Option<u32> {
        let sentinel = self.sentinel();
        let first = self.next[sentinel as usize];
        (first != sentinel).then(|| self.order[first as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::{FairshareObjective, HierarchicalObjective, RuntimeScaledBound};
    use proptest::prelude::*;
    use sbs_dsearch::{dfs, SearchConfig};
    use sbs_workload::job::Job;
    use sbs_workload::time::HOUR;
    use std::collections::BTreeMap;

    fn waiting(id: u32, submit: Time, nodes: u32, r_star: Time) -> WaitingJob {
        WaitingJob {
            job: Job::new(JobId(id), submit, nodes, r_star, r_star),
            r_star,
        }
    }

    fn problem<'a>(
        jobs: &'a [WaitingJob],
        now: Time,
        capacity: u32,
        omega: Time,
    ) -> ScheduleProblem<'a> {
        let order: Vec<u32> = (0..).take(jobs.len()).collect();
        ScheduleProblem::new(
            jobs,
            now,
            AvailabilityProfile::new(now, capacity),
            order,
            omega,
            Arc::new(HierarchicalObjective),
        )
    }

    #[test]
    fn placement_takes_earliest_start() {
        // 4-node machine: job0 (4 nodes, 1 h) fills it, job1 must wait.
        let jobs = [waiting(0, 0, 4, HOUR), waiting(1, 0, 2, HOUR)];
        let mut p = problem(&jobs, 100, 4, 0);
        p.descend(0);
        p.descend(1);
        assert_eq!(p.placements()[0].start, 100);
        assert_eq!(p.placements()[1].start, 100 + HOUR);
        // Reverse order on the sibling path: both fit? no — job0 needs
        // the full machine, so it waits for job1.
        p.ascend();
        p.ascend();
        p.descend(1);
        p.descend(0);
        assert_eq!(p.placements()[0].start, 100);
        assert_eq!(p.placements()[1].start, 100 + HOUR);
    }

    #[test]
    fn cost_restores_exactly_on_backtrack() {
        let jobs = [
            waiting(0, 0, 2, HOUR),
            waiting(1, 10, 1, 2 * HOUR),
            waiting(2, 20, 2, HOUR),
        ];
        let mut p = problem(&jobs, 50, 2, 0);
        let c0 = p.leaf_cost();
        p.descend(1);
        p.descend(0);
        let c2 = p.leaf_cost();
        p.descend(2);
        p.ascend();
        assert_eq!(p.leaf_cost(), c2);
        p.ascend();
        p.ascend();
        assert_eq!(p.leaf_cost(), c0);
    }

    #[test]
    fn consideration_order_is_not_start_order() {
        // Machine: 4 nodes. job0 wide (4n, long), job1 narrow short.
        // Considering 0 first delays 1; considering 1 first starts both
        // at now (1 backfills into... no — 0 can't start until 1 ends).
        let jobs = [waiting(0, 0, 4, 4 * HOUR), waiting(1, 0, 1, HOUR)];
        let mut p = problem(&jobs, 0, 4, 0);
        // Order (0, 1): 0 starts now, 1 at 4 h.
        p.descend(0);
        p.descend(1);
        assert_eq!(p.placements()[1].start, 4 * HOUR);
        p.ascend();
        p.ascend();
        // Order (1, 0): 1 starts now, 0 at 1 h — 0 starts *after* 1
        // even though considered... well, second; the point is the
        // schedule differs and total slowdown is lower.
        p.descend(1);
        p.descend(0);
        assert_eq!(p.placements()[0].start, 0);
        assert_eq!(p.placements()[1].start, HOUR);
    }

    #[test]
    fn exhaustive_search_finds_the_hierarchically_best_schedule() {
        // omega = 0 makes level 1 "total wait"; the optimal order starts
        // the short narrow jobs first.
        let jobs = [
            waiting(0, 0, 4, 4 * HOUR),
            waiting(1, 0, 1, HOUR),
            waiting(2, 0, 1, HOUR),
        ];
        let mut p = problem(&jobs, 0, 4, 0);
        let out = dfs(&mut p, SearchConfig::default());
        let (cost, path) = out.best.expect("searched");
        // Best schedule: jobs 1 and 2 run in parallel at t=0, job 0 at
        // 1 h (several consideration orders produce it — e.g. (1,0,2),
        // where job 2 backfills ahead of the already-placed job 0).
        // excess(=wait): job0 waits 1 h. bsld: 1 + 1 + (1h+4h)/4h.
        assert_eq!(cost.excess, HOUR);
        assert!((cost.bsld_sum - 3.25).abs() < 1e-12);
        let mut starts = p.starts_now(&path);
        starts.sort_by_key(|j| j.0);
        assert_eq!(starts, vec![JobId(1), JobId(2)]);
    }

    #[test]
    fn starts_now_reports_immediate_placements() {
        let jobs = [waiting(0, 0, 4, 4 * HOUR), waiting(1, 0, 1, HOUR)];
        let mut p = problem(&jobs, 0, 4, 0);
        let starts = p.starts_now(&[1, 0]);
        assert_eq!(starts, vec![JobId(1)]);
        // Cursor restored: can replay another path.
        let starts = p.starts_now(&[0, 1]);
        assert_eq!(starts, vec![JobId(0)]);
    }

    #[test]
    fn pruning_keeps_the_optimum_and_skips_subtrees() {
        // omega = 0 and an overloaded 2-node machine: every ordering
        // accrues excess, so the tightened bound (prefix cost + the
        // unplaced jobs' now-floors) prunes once an incumbent exists.
        let jobs = [
            waiting(0, 0, 2, 3 * HOUR),
            waiting(1, 10, 1, 2 * HOUR),
            waiting(2, 20, 2, HOUR),
            waiting(3, 30, 1, HOUR),
            waiting(4, 40, 2, 2 * HOUR),
        ];
        let full = dfs(&mut problem(&jobs, 50, 2, 0), SearchConfig::default());
        let pruned = dfs(
            &mut problem(&jobs, 50, 2, 0),
            SearchConfig {
                prune: true,
                ..Default::default()
            },
        );
        let full_best = full.best.expect("full").0;
        let pruned_best = pruned.best.expect("pruned").0;
        assert_eq!(full_best.excess, pruned_best.excess);
        assert!((full_best.bsld_sum - pruned_best.bsld_sum).abs() < 1e-9);
        assert!(pruned.stats.pruned > 0, "bound never fired");
        assert!(pruned.stats.nodes < full.stats.nodes);
    }

    /// A `ScheduleProblem` that forwards every method except
    /// `begin_tail`/`end_tail`, so its tails run the trait defaults:
    /// journalled descends undone one `ascend` at a time.
    struct PerNodeUndo<'a>(ScheduleProblem<'a>);

    impl SearchProblem for PerNodeUndo<'_> {
        type Branch = u32;
        type Cost = ObjectiveCost;

        fn branches(&self, out: &mut Vec<u32>) {
            self.0.branches(out);
        }
        fn descend(&mut self, branch: u32) {
            self.0.descend(branch);
        }
        fn ascend(&mut self) {
            self.0.ascend();
        }
        fn leaf_cost(&self) -> ObjectiveCost {
            self.0.leaf_cost()
        }
        fn max_discrepancies_below_child(&self, m: usize) -> usize {
            self.0.max_discrepancies_below_child(m)
        }
        fn prune_bound(&self) -> Option<ObjectiveCost> {
            self.0.prune_bound()
        }
        fn branch_count(&self) -> usize {
            self.0.branch_count()
        }
        fn heuristic_branch(&self) -> Option<u32> {
            self.0.heuristic_branch()
        }
    }

    type Outcome = sbs_dsearch::SearchOutcome<u32, ObjectiveCost>;

    fn dds_or_lds<P: SearchProblem<Branch = u32, Cost = ObjectiveCost>>(
        problem: &mut P,
        dds: bool,
        cfg: SearchConfig,
    ) -> Outcome {
        if dds {
            sbs_dsearch::dds(problem, cfg)
        } else {
            sbs_dsearch::lds(problem, cfg)
        }
    }

    /// Everything a search reports, with the float cost as its bits.
    fn observable(out: &Outcome) -> impl PartialEq + std::fmt::Debug + '_ {
        let best = out
            .best
            .as_ref()
            .map(|(c, path)| (c.excess, c.bsld_sum.to_bits(), path));
        (out.stats, &out.leaves, best)
    }

    proptest! {
        /// Rewinding a heuristic tail in one step (checkpoint, unjournalled
        /// placements, `end_tail`) is invisible to DDS and LDS: against
        /// the per-node journal of the trait defaults, every statistic,
        /// every leaf path in visit order and the best leaf's path and
        /// cost bits are equal, over random queues, running sets,
        /// capacities, heuristic orders and budgets.
        #[test]
        #[expect(clippy::cast_possible_truncation, reason = "test queues hold at most twelve jobs")]
        fn tail_rewind_matches_per_node_undo(
            specs in proptest::collection::vec((0u64..20_000, 1u32..1_000, 1u64..30_000, 0u32..1_000), 1..13),
            running in proptest::collection::vec((1u64..40_000, 0u32..1_000), 0..8),
            capacity in 8u32..129,
            budget in 1u64..5_001,
            omega in 0u64..10_000,
            prune in 0u8..2,
        ) {
            let now = 20_000u64;
            // Widths are drawn per mille of the machine.
            let width = |permille: u32| (capacity * permille / 1_000).max(1);
            let jobs: Vec<WaitingJob> = specs
                .iter()
                .enumerate()
                .map(|(i, &(submit, nodes, r_star, _))| waiting(i as u32, submit, width(nodes), r_star))
                .collect();
            let mut free = capacity;
            let mut held = Vec::new();
            for &(end, nodes) in &running {
                let n = (capacity * nodes / 1_000).min(free);
                if n > 0 {
                    free -= n;
                    held.push((now + end, n));
                }
            }
            // A random heuristic order: queue indices sorted by a drawn key.
            let mut order: Vec<u32> = (0..jobs.len() as u32).collect();
            order.sort_by_key(|&j| (specs[j as usize].3, j));
            let build = || {
                ScheduleProblem::new(
                    &jobs,
                    now,
                    AvailabilityProfile::from_running(now, capacity, held.iter().copied()),
                    order.clone(),
                    omega,
                    Arc::new(HierarchicalObjective),
                )
            };
            let cfg = SearchConfig {
                node_limit: Some(budget),
                record_leaves: true,
                prune: prune == 1,
                ..Default::default()
            };
            for dds in [true, false] {
                let mut fast = build();
                let rewound = dds_or_lds(&mut fast, dds, cfg);
                let per_node = dds_or_lds(&mut PerNodeUndo(build()), dds, cfg);
                prop_assert_eq!(observable(&rewound), observable(&per_node));
                // Both cursors are back at the root with a pristine cost.
                prop_assert!(fast.placements().is_empty());
                prop_assert_eq!(fast.leaf_cost().bsld_sum.to_bits(), 0.0f64.to_bits());
            }
        }

        /// The incrementally maintained path cost read by `leaf_cost`
        /// equals a from-scratch recompute via [`Objective::job_cost`]
        /// over the leaf's placements — bit-for-bit — for all three
        /// shipped objectives under both omega modes (a fixed bound and
        /// the dynamic bound resolved to the longest current wait), and
        /// the cost returns exactly to zero after unwinding to the root.
        #[test]
        #[expect(clippy::cast_possible_truncation, reason = "test queues hold at most four jobs")]
        fn incremental_leaf_cost_matches_from_scratch(
            specs in proptest::collection::vec(
                (0u64..7200, 1u32..5, 1u64..(4 * 3600)), 1..5,
            ),
            fixed_omega in 0u8..2,
        ) {
            let now = 2 * 3600u64;
            let jobs: Vec<WaitingJob> = specs
                .iter()
                .enumerate()
                .map(|(i, &(submit, nodes, r_star))| WaitingJob {
                    job: Job::new(JobId(i as u32), submit.min(now), nodes, r_star, r_star)
                        .with_user(i as u32 % 2),
                    r_star,
                })
                .collect();
            let omega = if fixed_omega == 1 {
                2 * 3600
            } else {
                // What TargetBound::Dynamic resolves to at this point.
                jobs.iter()
                    .map(|w| now.saturating_sub(w.job.submit))
                    .max()
                    .unwrap_or(0)
            };
            let objectives: Vec<Arc<dyn Objective>> = vec![
                Arc::new(HierarchicalObjective),
                Arc::new(RuntimeScaledBound { factor: 1.5 }),
                Arc::new(FairshareObjective::new(BTreeMap::from([
                    (0, 0.5),
                    (1, 2.0),
                ]))),
            ];
            for objective in objectives {
                let order: Vec<u32> = (0..jobs.len() as u32).collect();
                let mut p = ScheduleProblem::new(
                    &jobs,
                    now,
                    AvailabilityProfile::new(now, 4),
                    order,
                    omega,
                    Arc::clone(&objective),
                );
                let out = dfs(
                    &mut p,
                    SearchConfig {
                        record_leaves: true,
                        ..Default::default()
                    },
                );
                prop_assert!(out.stats.exhausted);
                for leaf in &out.leaves {
                    for &j in leaf {
                        p.descend(j);
                    }
                    // From scratch, summing in path order so the float
                    // accumulation order matches the incremental one.
                    let mut scratch = ObjectiveCost::ZERO;
                    for pl in p.placements() {
                        let c = objective.job_cost(&jobs[pl.job as usize], pl.start, omega);
                        scratch.excess += c.excess;
                        scratch.bsld_sum += c.bsld_sum;
                    }
                    let inc = p.leaf_cost();
                    prop_assert_eq!(inc.excess, scratch.excess);
                    prop_assert_eq!(inc.bsld_sum.to_bits(), scratch.bsld_sum.to_bits());
                    for _ in leaf {
                        p.ascend();
                    }
                }
                let root = p.leaf_cost();
                prop_assert_eq!(root.excess, 0);
                prop_assert_eq!(root.bsld_sum.to_bits(), 0.0f64.to_bits());
            }
        }
    }
}
