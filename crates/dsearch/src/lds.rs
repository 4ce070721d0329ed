//! Limited discrepancy search (LDS).
//!
//! Iteration `k` visits, left to right, exactly the root-to-leaf paths
//! containing `k` discrepancies (Korf's improved LDS — the variant drawn
//! in the paper's Figure 1(b)-(c): the 0th iteration follows the
//! heuristic path, the 1st visits the six one-discrepancy paths of the
//! four-job tree, the 2nd the eleven two-discrepancy paths).
//!
//! Iterations run until the node budget is hit or an iteration finds no
//! leaf (every path has been visited).  With an exact
//! [`SearchProblem::max_discrepancies_below_child`], every leaf is
//! visited exactly once over the lifetime of the search.

use crate::problem::{BudgetExhausted, Driver, SearchConfig, SearchOutcome, SearchProblem};

/// Runs LDS on `problem` under `cfg`, returning the best leaf found.
pub fn lds<P: SearchProblem>(
    problem: &mut P,
    cfg: SearchConfig,
) -> SearchOutcome<P::Branch, P::Cost> {
    let mut driver = Driver::new(problem, cfg);
    let mut k = 0usize;
    loop {
        let leaves_before = driver.outcome.stats.leaves;
        match probe(&mut driver, k) {
            Ok(()) => {
                driver.outcome.stats.iterations += 1;
                if driver.outcome.stats.leaves == leaves_before {
                    // No path with exactly k discrepancies exists: the
                    // whole tree has been enumerated.
                    driver.outcome.stats.exhausted = true;
                    break;
                }
                k += 1;
            }
            Err(BudgetExhausted) => break,
        }
    }
    driver.finish()
}

/// The *original* Harvey-Ginsberg LDS: iteration `k` explores every
/// path with **at most** `k` discrepancies (so the heuristic path is
/// revisited every iteration, one-discrepancy paths from iteration 1 on,
/// and so forth — the redundancy Korf's variant eliminates).
///
/// Kept for completeness (the paper cites both formulations, refs \[7\]
/// and \[8\]) and for quantifying the redundancy: on an `n`-job tree the
/// original visits `sum_k sum_{j<=k} #paths(j)` leaves against the
/// improved variant's `n!`.
pub fn lds_original<P: SearchProblem>(
    problem: &mut P,
    cfg: SearchConfig,
) -> SearchOutcome<P::Branch, P::Cost> {
    let mut driver = Driver::new(problem, cfg);
    let mut k = 0usize;
    let mut prev_iteration_leaves: Option<u64> = None;
    loop {
        let leaves_before = driver.outcome.stats.leaves;
        match probe_at_most(&mut driver, k) {
            Ok(()) => {
                driver.outcome.stats.iterations += 1;
                let this_iteration = driver.outcome.stats.leaves - leaves_before;
                // Iteration k's leaf set is a superset of iteration
                // k-1's; an equal count means no new paths exist.
                if prev_iteration_leaves == Some(this_iteration) {
                    driver.outcome.stats.exhausted = true;
                    break;
                }
                prev_iteration_leaves = Some(this_iteration);
                k += 1;
            }
            Err(BudgetExhausted) => break,
        }
    }
    driver.finish()
}

/// Explores all paths below the cursor with at most `k` discrepancies
/// (the original-LDS probe: no exactness feasibility check).
fn probe_at_most<P: SearchProblem>(
    driver: &mut Driver<'_, P>,
    k: usize,
) -> Result<(), BudgetExhausted> {
    if k == 0 {
        return driver.heuristic_tail(|_, _| {});
    }
    let branches = driver.take_branches();
    if branches.is_empty() {
        driver.visit_leaf();
        driver.put_branches(branches);
        return Ok(());
    }
    let mut result = Ok(());
    for (i, &branch) in branches.iter().enumerate() {
        let cost = usize::from(i > 0);
        if cost > k {
            break;
        }
        if driver.descend(branch).is_err() {
            result = Err(BudgetExhausted);
            break;
        }
        let r = if driver.should_prune() {
            Ok(())
        } else {
            probe_at_most(driver, k - cost)
        };
        driver.ascend();
        if r.is_err() {
            result = r;
            break;
        }
    }
    driver.put_branches(branches);
    result
}

/// Explores all paths below the cursor that consume exactly `k` more
/// discrepancies.
fn probe<P: SearchProblem>(driver: &mut Driver<'_, P>, k: usize) -> Result<(), BudgetExhausted> {
    if k == 0 {
        // No discrepancies left: follow the heuristic branch straight to
        // the leaf.  O(1) per node for problems with fast accessors —
        // this is the hot path of the whole search.
        return driver.heuristic_tail(|_, _| {});
    }
    let branches = driver.take_branches();
    if branches.is_empty() {
        driver.put_branches(branches);
        return Ok(());
    }
    let m = branches.len();
    let below = driver.problem.max_discrepancies_below_child(m);
    let mut result = Ok(());
    for (i, &branch) in branches.iter().enumerate() {
        let cost = usize::from(i > 0);
        if cost > k {
            // Branches are heuristic-ordered; later ones cost the same.
            break;
        }
        let rem = k - cost;
        if rem > below {
            // Not enough choice below this child to consume `rem`.
            continue;
        }
        if driver.descend(branch).is_err() {
            result = Err(BudgetExhausted);
            break;
        }
        let r = if driver.should_prune() {
            Ok(())
        } else {
            probe(driver, rem)
        };
        driver.ascend();
        if r.is_err() {
            result = r;
            break;
        }
    }
    driver.put_branches(branches);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::permutation::PermutationProblem;

    /// Number of discrepancies of a permutation-tree path given as the
    /// sequence of chosen item ranks at each decision.
    fn discrepancies(path: &[usize], order: &[usize]) -> usize {
        // For `PermutationProblem` over identity heuristic order, a branch
        // equals the chosen item; rank = position among remaining sorted.
        let mut remaining: Vec<usize> = order.to_vec();
        let mut d = 0;
        for &chosen in path {
            let pos = remaining
                .iter()
                .position(|&x| x == chosen)
                .expect("chosen remains");
            if pos != 0 {
                d += 1;
            }
            remaining.remove(pos);
        }
        d
    }

    #[test]
    fn iteration_structure_matches_figure_1() {
        // Four jobs: iteration 0 = 1 path, 1 = 6 paths, 2 = 11 paths,
        // 3 = 6 paths (complement: 24 total).
        let mut p = PermutationProblem::constant(4);
        let out = lds(
            &mut p,
            SearchConfig {
                record_leaves: true,
                ..Default::default()
            },
        );
        assert!(out.stats.exhausted);
        assert_eq!(out.leaves.len(), 24);
        let order = [0, 1, 2, 3];
        let counts: Vec<usize> = (0..=3)
            .map(|k| {
                out.leaves
                    .iter()
                    .filter(|l| discrepancies(l, &order) == k)
                    .count()
            })
            .collect();
        assert_eq!(counts, vec![1, 6, 11, 6]);
        // Iterations are visited in ascending discrepancy order.
        let seq: Vec<usize> = out
            .leaves
            .iter()
            .map(|l| discrepancies(l, &order))
            .collect();
        let mut sorted = seq.clone();
        sorted.sort_unstable();
        assert_eq!(seq, sorted);
    }

    #[test]
    fn zeroth_iteration_is_the_heuristic_path() {
        let mut p = PermutationProblem::constant(5);
        let out = lds(
            &mut p,
            SearchConfig {
                record_leaves: true,
                ..Default::default()
            },
        );
        assert_eq!(out.leaves[0], vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn all_leaves_visited_exactly_once() {
        let mut p = PermutationProblem::constant(5);
        let out = lds(
            &mut p,
            SearchConfig {
                record_leaves: true,
                ..Default::default()
            },
        );
        assert_eq!(out.leaves.len(), 120);
        let mut set: Vec<_> = out.leaves.clone();
        set.sort();
        set.dedup();
        assert_eq!(set.len(), 120, "duplicate leaves");
    }

    #[test]
    fn budget_stops_search_and_keeps_best_so_far() {
        let mut p = PermutationProblem::from_fn(6, |perm| perm[0] as f64);
        let out = lds(&mut p, SearchConfig::with_limit(10));
        assert!(out.stats.budget_hit);
        assert!(out.stats.nodes <= 10);
        assert!(
            out.best.is_some(),
            "anytime: some leaf should have been reached"
        );
    }

    #[test]
    fn finds_the_optimum_unbudgeted() {
        // Cost = position-weighted sum; optimum is the reversed order.
        let mut p = PermutationProblem::from_fn(5, |perm| {
            perm.iter().enumerate().map(|(i, &x)| (i * x) as f64).sum()
        });
        let out = lds(&mut p, SearchConfig::default());
        let (_, best) = out.best.expect("explored");
        assert_eq!(best, vec![4, 3, 2, 1, 0]);
    }

    #[test]
    fn single_node_tree() {
        let mut p = PermutationProblem::constant(0);
        let out = lds(&mut p, SearchConfig::default());
        assert_eq!(out.stats.leaves, 1);
        assert!(out.stats.exhausted);
        assert_eq!(out.best.expect("root leaf").1, Vec::<usize>::new());
    }

    #[test]
    fn original_lds_visits_supersets_per_iteration() {
        // On the 4-job tree: iteration k visits all paths with <= k
        // discrepancies: 1, 7, 18, 24, then a redundant 24 to detect
        // exhaustion — 74 leaf visits against improved LDS's 24.
        let cfg = SearchConfig {
            record_leaves: true,
            ..Default::default()
        };
        let out = lds_original(&mut PermutationProblem::constant(4), cfg);
        assert!(out.stats.exhausted);
        assert_eq!(out.stats.leaves, 1 + 7 + 18 + 24 + 24);
        // The distinct leaf set is still all 24 permutations.
        let mut set = out.leaves.clone();
        set.sort();
        set.dedup();
        assert_eq!(set.len(), 24);
    }

    #[test]
    fn original_and_improved_lds_agree_on_the_optimum() {
        let cost = |perm: &[usize]| -> f64 {
            perm.iter()
                .enumerate()
                .map(|(i, &x)| ((i + 1) * (x + 2)) as f64)
                .sum()
        };
        let a = lds(
            &mut PermutationProblem::from_fn(5, cost),
            SearchConfig::default(),
        );
        let b = lds_original(
            &mut PermutationProblem::from_fn(5, cost),
            SearchConfig::default(),
        );
        assert_eq!(a.best.expect("improved").0, b.best.expect("original").0);
        // And the improved variant visits strictly fewer leaves.
        assert!(a.stats.leaves < b.stats.leaves);
    }

    #[test]
    fn original_lds_respects_budgets() {
        let mut p = PermutationProblem::from_fn(8, |perm| perm[0] as f64);
        let out = lds_original(&mut p, SearchConfig::with_limit(60));
        assert!(out.stats.budget_hit);
        assert!(out.stats.nodes <= 60);
        assert!(out.best.is_some());
    }

    #[test]
    fn leaf_iteration_histogram_matches_the_discrepancy_structure() {
        // Same tree as `iteration_structure_matches_figure_1`: the
        // per-iteration leaf buckets must reproduce the 1/6/11/6 split
        // without recording leaves at all.
        let mut p = PermutationProblem::constant(4);
        let out = lds(&mut p, SearchConfig::default());
        assert_eq!(out.stats.leaf_iters[..4], [1, 6, 11, 6]);
        assert_eq!(
            out.stats.leaf_iters.iter().sum::<u64>(),
            out.stats.leaves,
            "every leaf lands in exactly one iteration bucket"
        );
    }

    #[test]
    fn incumbent_telemetry_points_at_the_winning_leaf() {
        // Identity-order heuristic is pessimal for this cost, so the
        // optimum needs discrepancies: the improvement trail must end
        // at a later iteration than 0.
        let cost = |perm: &[usize]| -> f64 {
            // Ascending-with-ascending is maximal (rearrangement
            // inequality), so the identity heuristic leaf is pessimal.
            perm.iter()
                .enumerate()
                .map(|(i, &x)| ((i + 1) * x) as f64)
                .sum()
        };
        let out = lds(
            &mut PermutationProblem::from_fn(4, cost),
            SearchConfig::default(),
        );
        let stats = out.stats;
        assert!(
            stats.improvements >= 1,
            "heuristic leaf always improves on None"
        );
        assert!(stats.nodes_to_best <= stats.nodes);
        assert!(
            stats.best_iteration > 0,
            "optimum is off the heuristic path"
        );
        assert_eq!(stats.best_depth, 4, "permutation leaves sit at depth n");
    }

    #[test]
    fn deadline_truncation_reports_unspent_budget() {
        use std::time::Duration;
        // An already-expired deadline cuts the search at the first
        // amortized check (node 256); the 10K budget leaves the rest
        // on the table, and the stats must say so.
        let mut p = PermutationProblem::from_fn(9, |perm| perm[0] as f64);
        let cfg = SearchConfig {
            node_limit: Some(10_000),
            deadline: Some(Duration::ZERO),
            ..Default::default()
        };
        let out = lds(&mut p, cfg);
        assert!(out.stats.deadline_hit);
        assert!(out.stats.budget_hit);
        assert_eq!(
            out.stats.nodes_left_at_deadline,
            10_000 - out.stats.nodes,
            "unspent budget at expiry is recorded"
        );
        assert!(out.stats.nodes_left_at_deadline > 0);
        // A budget-only exhaustion leaves the field at zero.
        let mut p2 = PermutationProblem::from_fn(9, |perm| perm[0] as f64);
        let out2 = lds(&mut p2, SearchConfig::with_limit(300));
        assert!(out2.stats.budget_hit && !out2.stats.deadline_hit);
        assert_eq!(out2.stats.nodes_left_at_deadline, 0);
    }
}
