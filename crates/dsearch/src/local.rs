//! Local search over complete paths, and the complete+local hybrid.
//!
//! The paper's future work (Section 2.2): "combining complete search
//! algorithms with local search, to possibly improve the solution, as
//! suggested in [Crawford 1993]".  This module provides the pieces:
//!
//! * [`evaluate_path`] — cost a full root-to-leaf branch assignment by
//!   walking the tree (each placement counts against the node budget,
//!   keeping accounting comparable with the tree searches);
//! * [`hill_climb`] — first-improvement hill climbing over the
//!   *pairwise-swap* neighbourhood of a complete path, anytime under a
//!   node budget;
//! * the `ablate-hybrid` experiment in `sbs-bench` runs DDS for part of
//!   the budget and spends the remainder hill-climbing from DDS's
//!   incumbent.
//!
//! Local search requires that any permutation of a known-valid path is
//! also a valid path — true for job-ordering trees (and permutation
//! trees in general), asserted in debug builds.

use crate::problem::{SearchConfig, SearchOutcome, SearchProblem, SearchStats};

/// Walks `path` from the root, returning its leaf cost, or `None` if the
/// budget `remaining` cannot cover it.  Always returns the cursor to the
/// root.  On success, subtracts the path length from `remaining`.
pub fn evaluate_path<P: SearchProblem>(
    problem: &mut P,
    path: &[P::Branch],
    remaining: &mut u64,
) -> Option<P::Cost> {
    if (*remaining as u128) < path.len() as u128 {
        return None;
    }
    for &b in path {
        problem.descend(b);
    }
    debug_assert_eq!(problem.branch_count(), 0, "path does not reach a leaf");
    let cost = problem.leaf_cost();
    for _ in path {
        problem.ascend();
    }
    *remaining -= path.len() as u64;
    Some(cost)
}

/// First-improvement hill climbing over pairwise swaps of `start`,
/// within `cfg.node_limit` nodes (each candidate evaluation costs
/// `path.len()` nodes).  Deterministic: neighbours are scanned in a
/// fixed order and the scan restarts after every improvement, until a
/// full sweep finds no improvement (a local optimum) or the budget runs
/// out.
pub fn hill_climb<P: SearchProblem>(
    problem: &mut P,
    start: Vec<P::Branch>,
    start_cost: P::Cost,
    cfg: SearchConfig,
) -> SearchOutcome<P::Branch, P::Cost> {
    let mut remaining = cfg.node_limit.unwrap_or(u64::MAX);
    let mut stats = SearchStats::default();
    let mut best = start;
    let mut best_cost = start_cost;
    let n = best.len();

    'sweep: loop {
        for i in 0..n {
            for j in (i + 1)..n {
                best.swap(i, j);
                let nodes_before = remaining;
                match evaluate_path(problem, &best, &mut remaining) {
                    Some(cost) => {
                        stats.nodes += nodes_before - remaining;
                        stats.leaves += 1;
                        if cost < best_cost {
                            best_cost = cost;
                            stats.iterations += 1;
                            continue 'sweep; // first improvement: restart
                        }
                        best.swap(i, j); // revert
                    }
                    None => {
                        best.swap(i, j);
                        stats.budget_hit = true;
                        break 'sweep;
                    }
                }
            }
        }
        // A full sweep without improvement: local optimum.
        stats.exhausted = true;
        break;
    }

    SearchOutcome {
        best: Some((best_cost, best)),
        stats,
        leaves: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::permutation::PermutationProblem;
    use crate::{dfs, greedy, SearchConfig};

    fn cost_fn(perm: &[usize]) -> f64 {
        perm.iter()
            .enumerate()
            .map(|(i, &x)| ((i + 1) * (x * x + 1)) as f64)
            .sum()
    }

    #[test]
    fn evaluate_path_costs_and_restores() {
        let mut p = PermutationProblem::from_fn(4, cost_fn);
        let mut budget = 10u64;
        let c = evaluate_path(&mut p, &[2, 0, 1, 3], &mut budget).expect("within budget");
        assert_eq!(budget, 6);
        assert_eq!(c, cost_fn(&[2, 0, 1, 3]));
        // Cursor back at the root: full branch list available.
        let mut out = Vec::new();
        p.branches(&mut out);
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn evaluate_path_refuses_over_budget() {
        let mut p = PermutationProblem::from_fn(4, cost_fn);
        let mut budget = 3u64;
        assert!(evaluate_path(&mut p, &[0, 1, 2, 3], &mut budget).is_none());
        assert_eq!(budget, 3, "budget untouched on refusal");
    }

    #[test]
    fn hill_climbing_improves_the_greedy_path_to_a_local_optimum() {
        let mk = || PermutationProblem::from_fn(6, cost_fn);
        let g = greedy(&mut mk(), SearchConfig::default());
        let (gc, gp) = g.best.expect("greedy leaf");
        let out = hill_climb(&mut mk(), gp, gc, SearchConfig::default());
        let (hc, _) = out.best.expect("hill climbed");
        assert!(hc <= gc);
        assert!(
            out.stats.exhausted,
            "unbudgeted climb reaches a local optimum"
        );
        // For this smooth cost, swap-local-optimum == global optimum.
        let opt = dfs(&mut mk(), SearchConfig::default()).best.expect("dfs").0;
        assert_eq!(hc, opt);
    }

    #[test]
    fn budget_is_respected() {
        let mk = || PermutationProblem::from_fn(8, cost_fn);
        let g = greedy(&mut mk(), SearchConfig::default());
        let (gc, gp) = g.best.expect("greedy leaf");
        let out = hill_climb(&mut mk(), gp.clone(), gc, SearchConfig::with_limit(40));
        assert!(out.stats.nodes <= 40);
        assert!(out.stats.budget_hit);
        // Anytime: never worse than the start.
        assert!(out.best.expect("incumbent").0 <= gc);
    }

    #[test]
    fn single_item_path_is_trivially_optimal() {
        let mk = || PermutationProblem::from_fn(1, cost_fn);
        let g = greedy(&mut mk(), SearchConfig::default());
        let (gc, gp) = g.best.expect("leaf");
        let out = hill_climb(&mut mk(), gp, gc, SearchConfig::default());
        assert_eq!(out.best.expect("done").0, gc);
        assert!(out.stats.exhausted);
    }
}
