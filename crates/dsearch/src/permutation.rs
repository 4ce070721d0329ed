//! A reference [`SearchProblem`] over permutations of `0..n`.
//!
//! This is the exact tree shape of the paper's Figure 1 (job orderings
//! with a static branching heuristic), with an arbitrary leaf cost
//! function.  It backs the crate's unit and property tests and the
//! Figure 1 experiment harness; the production scheduling problem in
//! `sbs-core` has the same shape but evaluates schedules incrementally.
//!
//! Two cost models are supported:
//!
//! * [`PermutationProblem::from_fn`] — an arbitrary function of the
//!   complete prefix, re-evaluated at every leaf (O(n) per leaf, but
//!   places no structure on the cost);
//! * [`PermutationProblem::from_step_fn`] — an *additive* cost whose
//!   per-item contributions accumulate in a running prefix sum during
//!   [`SearchProblem::descend`] and are restored exactly on
//!   [`SearchProblem::ascend`] (the pre-descend sum is stacked, so no
//!   floating-point subtraction is involved).  `leaf_cost` is then a
//!   read, which is the discipline the production problem follows.

use crate::problem::SearchProblem;
use std::sync::Arc;

/// Cost function over a complete (or, for pruning, partial) permutation.
pub type CostFn = Arc<dyn Fn(&[usize]) -> f64 + Send + Sync>;

/// Incremental cost: contribution of appending `item` to `prefix`
/// (the prefix *excludes* `item`; its length is the item's position).
pub type StepFn = Arc<dyn Fn(&[usize], usize) -> f64 + Send + Sync>;

/// Admissible lower bound on the total contribution of `remaining`
/// (second argument) given the current `prefix` (first argument); used
/// to tighten [`SearchProblem::prune_bound`] beyond the bare prefix sum.
pub type RemainingBoundFn = Arc<dyn Fn(&[usize], &[usize]) -> f64 + Send + Sync>;

#[derive(Clone)]
enum CostModel {
    /// Arbitrary leaf cost, recomputed from scratch at each leaf.
    Full(CostFn),
    /// Additive cost, accumulated incrementally along the path.
    Step {
        step: StepFn,
        remaining_bound: Option<RemainingBoundFn>,
        /// Running sum of contributions along the current prefix.
        running: f64,
        /// Pre-descend values of `running`, for exact restore.
        saved: Vec<f64>,
    },
}

/// Permutations of `0..n` with the identity branching heuristic
/// (ascending item index = heuristic order).
#[derive(Clone)]
pub struct PermutationProblem {
    remaining: Vec<usize>,
    prefix: Vec<usize>,
    model: CostModel,
    prefix_bound: bool,
}

impl PermutationProblem {
    /// All leaves cost zero — used when only the visit *order* matters.
    pub fn constant(n: usize) -> Self {
        Self::from_step_fn(n, |_, _| 0.0)
    }

    /// Leaf cost given by `f` over the chosen item sequence, recomputed
    /// from scratch at every leaf.
    pub fn from_fn(n: usize, f: impl Fn(&[usize]) -> f64 + Send + Sync + 'static) -> Self {
        PermutationProblem {
            remaining: (0..n).collect(),
            prefix: Vec::with_capacity(n),
            model: CostModel::Full(Arc::new(f)),
            prefix_bound: false,
        }
    }

    /// Additive leaf cost: `step(prefix, item)` is the contribution of
    /// choosing `item` after `prefix`; a leaf costs the sum of its
    /// path's contributions.  The sum is maintained incrementally, so
    /// [`SearchProblem::leaf_cost`] is O(1) and descend/ascend restore
    /// it exactly.
    pub fn from_step_fn(
        n: usize,
        step: impl Fn(&[usize], usize) -> f64 + Send + Sync + 'static,
    ) -> Self {
        PermutationProblem {
            remaining: (0..n).collect(),
            prefix: Vec::with_capacity(n),
            model: CostModel::Step {
                step: Arc::new(step),
                remaining_bound: None,
                running: 0.0,
                saved: Vec::with_capacity(n),
            },
            prefix_bound: false,
        }
    }

    /// Enables [`SearchProblem::prune_bound`].  For [`Self::from_fn`]
    /// problems the bound is the cost function applied to the current
    /// prefix — only sound when the cost is monotone non-decreasing
    /// under prefix extension.  For [`Self::from_step_fn`] problems it
    /// is the running prefix sum (sound when contributions are
    /// non-negative), plus the remaining-items bound if one was set via
    /// [`Self::with_remaining_bound`].
    pub fn with_prefix_bound(mut self) -> Self {
        self.prefix_bound = true;
        self
    }

    /// Tightens the prune bound of a [`Self::from_step_fn`] problem with
    /// an admissible lower bound on the unchosen items' total
    /// contribution (implies [`Self::with_prefix_bound`]).
    ///
    /// # Panics
    ///
    /// Panics if the problem was built with [`Self::from_fn`] (there is
    /// no incremental sum to add the bound to).
    pub fn with_remaining_bound(
        mut self,
        bound: impl Fn(&[usize], &[usize]) -> f64 + Send + Sync + 'static,
    ) -> Self {
        match &mut self.model {
            CostModel::Step {
                remaining_bound, ..
            } => *remaining_bound = Some(Arc::new(bound)),
            CostModel::Full(_) => panic!("remaining bound requires a step-cost problem"),
        }
        self.prefix_bound = true;
        self
    }

    /// The items chosen so far, root to cursor.
    pub fn prefix(&self) -> &[usize] {
        &self.prefix
    }
}

impl SearchProblem for PermutationProblem {
    type Branch = usize;
    type Cost = f64;

    fn branches(&self, out: &mut Vec<usize>) {
        out.extend_from_slice(&self.remaining);
    }

    /// # Invariant
    ///
    /// Callers must only descend branches reported available at the
    /// current cursor by [`Self::branches`] / [`Self::heuristic_branch`]
    /// — that is the [`SearchProblem`] contract every driver in this
    /// crate upholds.  A branch that is not available is a driver bug:
    /// debug builds assert, release builds skip the removal so that the
    /// matching [`Self::ascend`] still restores a consistent state
    /// instead of corrupting the remaining set.
    fn descend(&mut self, branch: usize) {
        match self.remaining.binary_search(&branch) {
            Ok(pos) => {
                self.remaining.remove(pos);
            }
            Err(_) => debug_assert!(false, "branch {branch} not available"),
        }
        if let CostModel::Step {
            step,
            running,
            saved,
            ..
        } = &mut self.model
        {
            saved.push(*running);
            *running += step(&self.prefix, branch);
        }
        self.prefix.push(branch);
    }

    /// Mirrors [`Self::descend`]: restores the item to the remaining set
    /// and the running cost to its exact pre-descend value.  Ascending
    /// above the root, or after a mismatched descend, is a driver bug —
    /// debug builds assert, release builds keep the state consistent.
    fn ascend(&mut self) {
        let Some(item) = self.prefix.pop() else {
            debug_assert!(false, "ascend above root");
            return;
        };
        match self.remaining.binary_search(&item) {
            Err(pos) => self.remaining.insert(pos, item),
            Ok(_) => debug_assert!(false, "item {item} was never removed"),
        }
        if let CostModel::Step { running, saved, .. } = &mut self.model {
            if let Some(prev) = saved.pop() {
                *running = prev;
            } else {
                debug_assert!(false, "cost stack underflow");
            }
        }
    }

    fn leaf_cost(&self) -> f64 {
        match &self.model {
            CostModel::Full(f) => f(&self.prefix),
            CostModel::Step { running, .. } => *running,
        }
    }

    fn prune_bound(&self) -> Option<f64> {
        if !self.prefix_bound {
            return None;
        }
        Some(match &self.model {
            CostModel::Full(f) => f(&self.prefix),
            CostModel::Step {
                running,
                remaining_bound,
                ..
            } => {
                running
                    + remaining_bound
                        .as_ref()
                        .map_or(0.0, |b| b(&self.prefix, &self.remaining))
            }
        })
    }

    fn branch_count(&self) -> usize {
        self.remaining.len()
    }

    fn heuristic_branch(&self) -> Option<usize> {
        self.remaining.first().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{dds, dfs, lds, SearchConfig};
    use proptest::prelude::*;

    #[test]
    fn descend_ascend_round_trips() {
        let mut p = PermutationProblem::constant(4);
        p.descend(2);
        p.descend(0);
        assert_eq!(p.prefix(), &[2, 0]);
        let mut out = Vec::new();
        p.branches(&mut out);
        assert_eq!(out, vec![1, 3]);
        p.ascend();
        p.ascend();
        let mut out = Vec::new();
        p.branches(&mut out);
        assert_eq!(out, vec![0, 1, 2, 3]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "branch 2 not available")]
    fn descending_an_unavailable_branch_asserts_in_debug() {
        let mut p = PermutationProblem::constant(3);
        p.descend(2);
        p.descend(2); // already taken: contract violation
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn descending_an_unavailable_branch_degrades_gracefully_in_release() {
        // The contract violation is tolerated: the duplicate descend
        // removes nothing, the paired ascend restores nothing, and the
        // remaining set stays consistent throughout.
        let mut p = PermutationProblem::constant(3);
        p.descend(2);
        p.descend(2);
        assert_eq!(p.prefix(), &[2, 2]);
        p.ascend();
        p.ascend();
        let mut out = Vec::new();
        p.branches(&mut out);
        assert_eq!(out, vec![0, 1, 2]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "ascend above root")]
    fn ascending_above_the_root_asserts_in_debug() {
        let mut p = PermutationProblem::constant(2);
        p.ascend();
    }

    #[test]
    fn step_costs_accumulate_and_restore_exactly() {
        // Contribution = (position + 1) * (item + 1); the running sum
        // must match a from-scratch recompute at every node, and
        // backtracking must restore bit-identical values.
        let mut p = PermutationProblem::from_step_fn(4, |prefix, item| {
            ((prefix.len() + 1) * (item + 1)) as f64
        });
        let recompute = |prefix: &[usize]| -> f64 {
            prefix
                .iter()
                .enumerate()
                .map(|(i, &x)| ((i + 1) * (x + 1)) as f64)
                .sum()
        };
        assert_eq!(p.leaf_cost(), 0.0);
        p.descend(3);
        p.descend(1);
        assert_eq!(p.leaf_cost(), recompute(p.prefix()));
        let at_depth_2 = p.leaf_cost();
        p.descend(0);
        assert_eq!(p.leaf_cost(), recompute(p.prefix()));
        p.ascend();
        assert_eq!(p.leaf_cost().to_bits(), at_depth_2.to_bits());
        p.ascend();
        p.ascend();
        assert_eq!(p.leaf_cost().to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn remaining_bound_tightens_pruning_without_losing_the_optimum() {
        // Cost = (position + 1) * (item + 1).  Every remaining item ends
        // up at position >= prefix.len(), so it contributes at least
        // (prefix.len() + 1) * (item + 1) — an admissible per-item floor
        // whose sum tightens the bare prefix bound.
        let step = |prefix: &[usize], item: usize| ((prefix.len() + 1) * (item + 1)) as f64;
        let mk = || PermutationProblem::from_step_fn(6, step);
        let full = dfs(&mut mk(), SearchConfig::default());
        let cfg = SearchConfig {
            prune: true,
            ..Default::default()
        };
        let prefix_only = dfs(&mut mk().with_prefix_bound(), cfg);
        let tightened = dfs(
            &mut mk().with_remaining_bound(|prefix, remaining| {
                let depth = prefix.len() + 1;
                remaining.iter().map(|&x| (depth * (x + 1)) as f64).sum()
            }),
            cfg,
        );
        let opt = full.best.expect("full").0;
        assert_eq!(prefix_only.best.expect("prefix").0, opt);
        assert_eq!(tightened.best.expect("tightened").0, opt);
        assert!(
            tightened.stats.nodes < prefix_only.stats.nodes,
            "remaining bound should prune strictly more ({} vs {})",
            tightened.stats.nodes,
            prefix_only.stats.nodes
        );
    }

    proptest! {
        /// LDS and DDS visit exactly the same leaf set as exhaustive DFS
        /// (all n! permutations), each exactly once, for any size and any
        /// cost landscape.
        #[test]
        fn discrepancy_searches_are_complete_and_duplicate_free(
            n in 0usize..6,
            salt in 0u64..1000,
        ) {
            let mk = || PermutationProblem::from_fn(n, move |perm| {
                perm.iter().enumerate()
                    .map(|(i, &x)| ((x as u64 + 1) * (i as u64 + salt + 1)) as f64)
                    .sum()
            });
            let cfg = SearchConfig { record_leaves: true, ..Default::default() };
            let d = dfs(&mut mk(), cfg);
            let l = lds(&mut mk(), cfg);
            let w = dds(&mut mk(), cfg);

            let canonical = |mut v: Vec<Vec<usize>>| { v.sort(); v };
            let base = canonical(d.leaves.clone());
            prop_assert_eq!(base.len(), (1..=n.max(1)).product::<usize>());
            prop_assert_eq!(&canonical(l.leaves.clone()), &base);
            prop_assert_eq!(&canonical(w.leaves.clone()), &base);

            // All three find the same optimal cost.
            let opt = d.best.expect("dfs best").0;
            prop_assert_eq!(l.best.expect("lds best").0, opt);
            prop_assert_eq!(w.best.expect("dds best").0, opt);
        }

        /// Under any node budget the algorithms never exceed it and the
        /// incumbent cost is monotone in the budget.
        #[test]
        fn budgets_are_hard_and_anytime_quality_is_monotone(
            seed in 0u64..500,
            budget in 1u64..200,
        ) {
            let mk = || PermutationProblem::from_fn(5, move |perm| {
                perm.iter().enumerate()
                    .map(|(i, &x)| ((x as u64 ^ seed) % 17 * (i as u64 + 1)) as f64)
                    .sum()
            });
            for run in [lds, dds, dfs] {
                let small = run(&mut mk(), SearchConfig::with_limit(budget));
                let large = run(&mut mk(), SearchConfig::with_limit(budget * 2));
                prop_assert!(small.stats.nodes <= budget);
                if let (Some(s), Some(l)) = (small.best_cost(), large.best_cost()) {
                    prop_assert!(l <= s, "more budget must not worsen the incumbent");
                }
            }
        }

        /// The incremental running sum of a step-cost problem equals a
        /// from-scratch recompute of the same additive cost at every
        /// leaf DFS visits, bit-for-bit.
        #[test]
        fn incremental_cost_matches_from_scratch_recompute(
            n in 1usize..6,
            salt in 0u64..1000,
        ) {
            let step = move |prefix: &[usize], item: usize| {
                (((item as u64 + 1) * (prefix.len() as u64 + salt % 7 + 1)) % 23) as f64
            };
            let mut inc = PermutationProblem::from_step_fn(n, step);
            let cfg = SearchConfig { record_leaves: true, ..Default::default() };
            let out = dfs(&mut inc, cfg);
            prop_assert!(out.stats.exhausted);
            for leaf in &out.leaves {
                let mut scratch = 0.0f64;
                for (i, &item) in leaf.iter().enumerate() {
                    scratch += step(&leaf[..i], item);
                }
                // Replay the path to read the incremental value there.
                for &item in leaf { inc.descend(item); }
                prop_assert_eq!(inc.leaf_cost().to_bits(), scratch.to_bits());
                for _ in leaf { inc.ascend(); }
            }
        }
    }
}
