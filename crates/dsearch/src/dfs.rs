//! Exhaustive depth-first search and the pure-heuristic probe.
//!
//! [`dfs`] enumerates the tree in plain left-to-right order — the
//! brute-force baseline the discrepancy algorithms are validated against
//! (every algorithm must visit the same leaf *set*, and `dfs` without a
//! budget finds the true optimum).  [`greedy`] follows only the
//! heuristic path (iteration 0 of LDS and DDS) — the "no search at all"
//! lower envelope.

use crate::problem::{BudgetExhausted, Driver, SearchConfig, SearchOutcome, SearchProblem};

/// Exhaustive left-to-right depth-first search under `cfg`.
pub fn dfs<P: SearchProblem>(
    problem: &mut P,
    cfg: SearchConfig,
) -> SearchOutcome<P::Branch, P::Cost> {
    let mut driver = Driver::new(problem, cfg);
    if probe(&mut driver).is_ok() {
        driver.outcome.stats.exhausted = true;
    }
    driver.outcome.stats.iterations = 1;
    driver.finish()
}

fn probe<P: SearchProblem>(driver: &mut Driver<'_, P>) -> Result<(), BudgetExhausted> {
    let branches = driver.take_branches();
    if branches.is_empty() {
        driver.visit_leaf();
        driver.put_branches(branches);
        return Ok(());
    }
    let mut result = Ok(());
    for &branch in branches.iter() {
        if driver.descend(branch).is_err() {
            result = Err(BudgetExhausted);
            break;
        }
        let r = if driver.should_prune() {
            Ok(())
        } else {
            probe(driver)
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

/// Follows the heuristic (left-most) path to its leaf and returns it.
///
/// This is what a conventional greedy priority scheduler does; the search
/// policies degrade to exactly this when the node budget only covers one
/// path.
pub fn greedy<P: SearchProblem>(
    problem: &mut P,
    cfg: SearchConfig,
) -> SearchOutcome<P::Branch, P::Cost> {
    let mut driver = Driver::new(problem, cfg);
    let mut depth = 0usize;
    loop {
        // O(1) per node: no need to materialize the full branch list
        // just to take its head.
        let Some(branch) = driver.problem.heuristic_branch() else {
            driver.visit_leaf();
            break;
        };
        if driver.descend(branch).is_err() {
            break;
        }
        depth += 1;
    }
    for _ in 0..depth {
        driver.ascend();
    }
    driver.outcome.stats.iterations = 1;
    driver.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::permutation::PermutationProblem;
    use crate::{dds, lds};

    #[test]
    fn dfs_enumerates_everything_in_tree_order() {
        let mut p = PermutationProblem::constant(4);
        let out = dfs(
            &mut p,
            SearchConfig {
                record_leaves: true,
                ..Default::default()
            },
        );
        assert_eq!(out.leaves.len(), 24);
        assert!(out.stats.exhausted);
        // Tree order = lexicographic order of the chosen-item sequences.
        let mut sorted = out.leaves.clone();
        sorted.sort();
        assert_eq!(out.leaves, sorted);
    }

    #[test]
    fn all_algorithms_agree_on_the_optimum() {
        let cost = |perm: &[usize]| -> f64 {
            perm.iter()
                .enumerate()
                .map(|(i, &x)| ((i + 1) * (x * x + 3)) as f64)
                .sum()
        };
        let optimum = {
            let mut p = PermutationProblem::from_fn(6, cost);
            dfs(&mut p, SearchConfig::default()).best.expect("dfs").0
        };
        let via_lds = {
            let mut p = PermutationProblem::from_fn(6, cost);
            lds(&mut p, SearchConfig::default()).best.expect("lds").0
        };
        let via_dds = {
            let mut p = PermutationProblem::from_fn(6, cost);
            dds(&mut p, SearchConfig::default()).best.expect("dds").0
        };
        assert_eq!(optimum, via_lds);
        assert_eq!(optimum, via_dds);
    }

    #[test]
    fn greedy_returns_the_heuristic_leaf_only() {
        let mut p = PermutationProblem::constant(5);
        let out = greedy(
            &mut p,
            SearchConfig {
                record_leaves: true,
                ..Default::default()
            },
        );
        assert_eq!(out.stats.leaves, 1);
        assert_eq!(out.stats.nodes, 5);
        assert_eq!(out.best.expect("leaf").1, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn pruning_skips_subtrees_without_losing_the_optimum() {
        // PermutationProblem's prune bound is the partial-prefix cost,
        // valid for monotone costs like this sum of positives.
        let cost =
            |perm: &[usize]| -> f64 { perm.iter().enumerate().map(|(i, &x)| (i * x) as f64).sum() };
        let mut p1 = PermutationProblem::from_fn(7, cost).with_prefix_bound();
        let pruned = dfs(
            &mut p1,
            SearchConfig {
                prune: true,
                ..Default::default()
            },
        );
        let mut p2 = PermutationProblem::from_fn(7, cost);
        let full = dfs(&mut p2, SearchConfig::default());
        assert_eq!(pruned.best.expect("pruned").0, full.best.expect("full").0);
        assert!(pruned.stats.pruned > 0, "expected some pruning");
        assert!(pruned.stats.nodes < full.stats.nodes);
    }
}
