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

use crate::objective::{Objective, ObjectiveCost};
use sbs_dsearch::SearchProblem;
use sbs_sim::avail::{AvailabilityProfile, UndoLog};
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
    used: Vec<bool>,
    /// Doubly-linked list over *positions in `order`* of the unplaced
    /// jobs, with sentinel `order.len()`.  Gives O(1) heuristic-branch
    /// lookup and O(remaining) branch enumeration — the hot path of the
    /// discrepancy searches.
    next: Vec<u32>,
    prev: Vec<u32>,
    /// Position in `order` of each job index.
    pos_of: Vec<u32>,
    profile: AvailabilityProfile,
    /// Journal of profile edits, one frame per placement; ascend pops a
    /// frame to restore the profile exactly (no re-search, no re-merge).
    undo: UndoLog,
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
            used: vec![false; n],
            next,
            prev,
            pos_of,
            profile,
            undo: UndoLog::new(),
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
        debug_assert!(!self.used[branch as usize], "job placed twice");
        let start = self
            .profile
            .place(w.job.nodes, w.r_star.max(1), self.now, &mut self.undo);
        self.used[branch as usize] = true;
        // Unlink the position from the unplaced list.
        let pos = self.pos_of[branch as usize] as usize;
        let (p, n) = (self.prev[pos], self.next[pos]);
        self.next[p as usize] = n;
        self.prev[n as usize] = p;
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
        let p = self.placed.pop().expect("ascend above root");
        self.profile.unplace(&mut self.undo);
        self.used[p.job as usize] = false;
        // Relink (valid because ascends mirror descends in LIFO order).
        let pos32 = self.pos_of[p.job as usize];
        let pos = pos32 as usize;
        let (pr, nx) = (self.prev[pos], self.next[pos]);
        self.next[pr as usize] = pos32;
        self.prev[nx as usize] = pos32;
        self.cost = p.prev_cost;
        self.remaining_lb = p.prev_lb;
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
        let order: Vec<u32> = (0..jobs.len() as u32).collect();
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

    proptest! {
        /// The incrementally maintained path cost read by `leaf_cost`
        /// equals a from-scratch recompute via [`Objective::job_cost`]
        /// over the leaf's placements — bit-for-bit — for all three
        /// shipped objectives under both omega modes (a fixed bound and
        /// the dynamic bound resolved to the longest current wait), and
        /// the cost returns exactly to zero after unwinding to the root.
        #[test]
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
