//! Depth-bounded discrepancy search (DDS).
//!
//! DDS biases its discrepancies toward the *top* of the tree, on the
//! assumption that a heuristic is most likely to err early, when the
//! least information is available (Walsh 1997).  Using the paper's
//! indexing (Section 2.2):
//!
//! * iteration 0 follows the heuristic path;
//! * iteration `i >= 1` explores exactly the paths that take **any**
//!   branch at decisions `1 .. i-1`, a **discrepancy** (non-first branch)
//!   at decision `i`, and the **heuristic** branch everywhere below.
//!
//! For the four-job tree of Figure 1 this yields 1, 3, 8 and 12 paths in
//! iterations 0-3 — every one of the 24 orderings exactly once.

use crate::problem::{BudgetExhausted, Driver, SearchConfig, SearchOutcome, SearchProblem};

/// Runs DDS on `problem` under `cfg`, returning the best leaf found.
pub fn dds<P: SearchProblem>(
    problem: &mut P,
    cfg: SearchConfig,
) -> SearchOutcome<P::Branch, P::Cost> {
    let mut driver = Driver::new(problem, cfg);
    // Deepest decision index observed (anywhere) to offer >= 2 branches;
    // iteration i can only produce leaves if some decision at depth i has
    // a discrepancy to take.  For uniform-arity-per-depth trees (such as
    // the job-ordering trees this crate is used for) the bound is exact
    // once iteration i-1 has run.
    let mut max_choice_depth = usize::MAX;
    let mut i = 0usize;
    loop {
        if i > 0 && max_choice_depth != usize::MAX && i > max_choice_depth {
            driver.outcome.stats.exhausted = true;
            break;
        }
        let leaves_before = driver.outcome.stats.leaves;
        let mut deepest_choice = 0usize;
        match probe(&mut driver, 1, i, &mut deepest_choice) {
            Ok(()) => {
                driver.outcome.stats.iterations += 1;
                max_choice_depth = if max_choice_depth == usize::MAX {
                    deepest_choice
                } else {
                    max_choice_depth.max(deepest_choice)
                };
                if i > 0 && driver.outcome.stats.leaves == leaves_before {
                    driver.outcome.stats.exhausted = true;
                    break;
                }
                i += 1;
            }
            Err(BudgetExhausted) => break,
        }
    }
    driver.finish()
}

/// Explores the iteration-`i` paths below the cursor; `decision` is the
/// 1-based index of the next decision on the current path.
fn probe<P: SearchProblem>(
    driver: &mut Driver<'_, P>,
    decision: usize,
    i: usize,
    deepest_choice: &mut usize,
) -> Result<(), BudgetExhausted> {
    // Fast path: below the discrepancy depth only the heuristic branch
    // is taken — avoid materializing the whole branch list (O(1) per
    // node for problems that override the accessors), and undo the whole
    // tail in one step.
    if decision > i {
        return driver.heuristic_tail(|problem, depth| {
            if problem.branch_count() >= 2 {
                *deepest_choice = (*deepest_choice).max(decision + depth);
            }
        });
    }
    let branches = driver.take_branches();
    if branches.is_empty() {
        // A valid iteration-i leaf must lie below the mandatory
        // discrepancy depth (always true for i = 0, handled above).
        driver.put_branches(branches);
        return Ok(());
    }
    if branches.len() >= 2 {
        *deepest_choice = (*deepest_choice).max(decision);
    }
    // Which branch ranks may be taken at this decision in iteration i.
    let (lo, hi) = if decision < i {
        (0, branches.len()) // any branch above the discrepancy depth
    } else {
        (1, branches.len()) // decision == i: mandatory discrepancy
    };
    let mut result = Ok(());
    for &branch in branches.iter().take(hi).skip(lo) {
        if driver.descend(branch).is_err() {
            result = Err(BudgetExhausted);
            break;
        }
        let r = if driver.should_prune() {
            Ok(())
        } else {
            probe(driver, decision + 1, i, deepest_choice)
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

    #[test]
    fn iteration_structure_matches_figure_1() {
        // Four jobs: iterations contribute 1, 3, 8 and 12 paths.
        let mut p = PermutationProblem::constant(4);
        let out = dds(
            &mut p,
            SearchConfig {
                record_leaves: true,
                ..Default::default()
            },
        );
        assert!(out.stats.exhausted);
        assert_eq!(out.leaves.len(), 24);
        assert_eq!(
            out.leaves[0],
            vec![0, 1, 2, 3],
            "iteration 0 = heuristic path"
        );
        // Iteration 1: branches 2, 3, 4 at the root then heuristic below
        // (paper: "0-2-1-3-4"-style paths).
        assert_eq!(out.leaves[1], vec![1, 0, 2, 3]);
        assert_eq!(out.leaves[2], vec![2, 0, 1, 3]);
        assert_eq!(out.leaves[3], vec![3, 0, 1, 2]);
        // Iteration 2 (8 paths): any root branch, discrepancy at depth 2.
        assert_eq!(out.leaves[4], vec![0, 2, 1, 3]);
        assert_eq!(out.leaves[5], vec![0, 3, 1, 2]);
        // Uniqueness of all 24.
        let mut set = out.leaves.clone();
        set.sort();
        set.dedup();
        assert_eq!(set.len(), 24);
    }

    #[test]
    fn dds_reaches_deep_heuristic_early_discrepancy_paths_before_lds() {
        // Paper Section 2.2: path 0-4-3-1-2 (discrepancies at depths one
        // and two) is the 12th leaf explored by DDS but the 18th by LDS.
        let cfg = SearchConfig {
            record_leaves: true,
            ..Default::default()
        };
        let mut p1 = PermutationProblem::constant(4);
        let dds_out = dds(&mut p1, cfg);
        let mut p2 = PermutationProblem::constant(4);
        let lds_out = crate::lds(&mut p2, cfg);
        // In 0-indexed item terms the paper's path 4-3-1-2 is [3,2,0,1].
        let target = vec![3, 2, 0, 1];
        let dds_pos = dds_out
            .leaves
            .iter()
            .position(|l| *l == target)
            .expect("dds");
        let lds_pos = lds_out
            .leaves
            .iter()
            .position(|l| *l == target)
            .expect("lds");
        assert_eq!(dds_pos + 1, 12, "DDS explores it 12th");
        assert_eq!(lds_pos + 1, 18, "LDS explores it 18th");
    }

    #[test]
    fn all_permutations_visited_once_for_various_sizes() {
        for n in 1..=6usize {
            let mut p = PermutationProblem::constant(n);
            let out = dds(
                &mut p,
                SearchConfig {
                    record_leaves: true,
                    ..Default::default()
                },
            );
            let expected: usize = (1..=n).product();
            assert_eq!(out.leaves.len(), expected, "n={n}");
            let mut set = out.leaves.clone();
            set.sort();
            set.dedup();
            assert_eq!(set.len(), expected, "n={n}: duplicates");
            assert!(out.stats.exhausted);
        }
    }

    #[test]
    fn budget_is_respected_and_anytime() {
        let mut p = PermutationProblem::from_fn(8, |perm| perm[0] as f64);
        let out = dds(&mut p, SearchConfig::with_limit(50));
        assert!(out.stats.budget_hit);
        assert!(out.stats.nodes <= 50);
        assert!(out.best.is_some());
    }

    #[test]
    fn finds_the_optimum_unbudgeted() {
        let mut p = PermutationProblem::from_fn(5, |perm| {
            perm.iter().enumerate().map(|(i, &x)| (i * x) as f64).sum()
        });
        let out = dds(&mut p, SearchConfig::default());
        assert_eq!(out.best.expect("explored").1, vec![4, 3, 2, 1, 0]);
    }

    #[test]
    fn single_node_tree() {
        let mut p = PermutationProblem::constant(0);
        let out = dds(&mut p, SearchConfig::default());
        assert_eq!(out.stats.leaves, 1);
        assert!(out.stats.exhausted);
    }
}
