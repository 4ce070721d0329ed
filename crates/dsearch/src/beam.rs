//! Beam search — the classic *incomplete* width-bounded alternative.
//!
//! Beam search keeps the `width` best partial paths per tree level,
//! scored by [`SearchProblem::prune_bound`] (the partial-cost lower
//! bound), and expands them level-synchronously.  Unlike LDS/DDS it can
//! permanently discard the subtree containing the optimum, but it
//! concentrates effort like a scheduler's intuition would — a natural
//! comparison point for the paper's complete searches, exercised by the
//! `ablate-random` experiment alongside random sampling.
//!
//! Node accounting matches the other algorithms: every `descend` costs
//! one budget node (including the replay descends needed to materialize
//! a beam candidate on the cursor-based problem interface).

use crate::problem::{BudgetExhausted, Driver, SearchConfig, SearchOutcome, SearchProblem};

/// A beam candidate: its partial-cost bound (if the problem provides
/// one) and its root path.
type Candidate<P> = (
    Option<<P as SearchProblem>::Cost>,
    Vec<<P as SearchProblem>::Branch>,
);

/// Width-bounded beam search.  Requires the problem to provide partial
/// bounds ([`SearchProblem::prune_bound`] must return `Some` at internal
/// nodes); candidates whose bound is `None` rank behind all bounded ones
/// but keep their heuristic order.
pub fn beam<P: SearchProblem>(
    problem: &mut P,
    width: usize,
    cfg: SearchConfig,
) -> SearchOutcome<P::Branch, P::Cost> {
    assert!(width >= 1, "beam width must be at least 1");
    let mut driver = Driver::new(problem, cfg);
    let mut frontier: Vec<Vec<P::Branch>> = vec![Vec::new()];

    loop {
        // Expand every frontier path by one level.
        let mut scored: Vec<Candidate<P>> = Vec::new();
        let mut any_internal = false;
        for path in frontier.drain(..) {
            match expand(&mut driver, &path, &mut scored) {
                Ok(true) => any_internal = true,
                Ok(false) => {} // path ended at a leaf; already evaluated
                Err(BudgetExhausted) => return driver.finish(),
            }
        }
        if !any_internal || scored.is_empty() {
            driver.outcome.stats.exhausted = true;
            return driver.finish();
        }
        // Keep the `width` best-bounded children (stable: ties keep
        // heuristic order; unbounded candidates sort last).
        scored.sort_by(|a, b| match (&a.0, &b.0) {
            // sbs-lint: allow(float-ordering): Cost is a generic PartialOrd; incomparable bounds fall back to Equal, and the sort is stable so ties keep heuristic order
            (Some(x), Some(y)) => x.partial_cmp(y).unwrap_or(std::cmp::Ordering::Equal),
            (Some(_), None) => std::cmp::Ordering::Less,
            (None, Some(_)) => std::cmp::Ordering::Greater,
            (None, None) => std::cmp::Ordering::Equal,
        });
        scored.truncate(width);
        frontier.extend(scored.into_iter().map(|(_, p)| p));
        driver.outcome.stats.iterations += 1;
    }
}

/// Walks down `path`, evaluates/enumerates its node, and unwinds.
/// Returns `Ok(true)` if the node was internal (children pushed to
/// `scored`), `Ok(false)` if it was a leaf (visited).
fn expand<P: SearchProblem>(
    driver: &mut Driver<'_, P>,
    path: &[P::Branch],
    scored: &mut Vec<Candidate<P>>,
) -> Result<bool, BudgetExhausted> {
    let mut depth = 0usize;
    let mut result = Ok(false);
    // Replay the prefix.
    for &b in path {
        if driver.descend(b).is_err() {
            result = Err(BudgetExhausted);
            break;
        }
        depth += 1;
    }
    if result.is_ok() {
        let branches = driver.take_branches();
        if branches.is_empty() {
            driver.visit_leaf();
        } else {
            result = Ok(true);
            for &b in branches.iter() {
                match driver.descend(b) {
                    Ok(()) => {
                        let bound = driver.problem.prune_bound();
                        let mut child = Vec::with_capacity(path.len() + 1);
                        child.extend_from_slice(path);
                        child.push(b);
                        scored.push((bound, child));
                        driver.ascend();
                    }
                    Err(BudgetExhausted) => {
                        result = Err(BudgetExhausted);
                        break;
                    }
                }
            }
        }
        driver.put_branches(branches);
    }
    for _ in 0..depth {
        driver.ascend();
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::permutation::PermutationProblem;
    use crate::{dfs, SearchConfig};

    fn cost_fn(perm: &[usize]) -> f64 {
        perm.iter()
            .enumerate()
            .map(|(i, &x)| ((i + 1) * (x + 1)) as f64)
            .sum()
    }

    fn problem(n: usize) -> PermutationProblem {
        PermutationProblem::from_fn(n, cost_fn).with_prefix_bound()
    }

    #[test]
    fn wide_beam_finds_the_optimum_of_small_trees() {
        for n in 1..=5usize {
            let optimum = dfs(&mut problem(n), SearchConfig::default())
                .best
                .expect("dfs")
                .0;
            let out = beam(&mut problem(n), 1_000, SearchConfig::default());
            assert_eq!(out.best.expect("beam").0, optimum, "n={n}");
            assert!(out.stats.exhausted);
        }
    }

    #[test]
    fn narrow_beam_is_greedy_by_partial_cost() {
        // Width 1 on this monotone cost commits to the locally cheapest
        // extension each level.
        let out = beam(&mut problem(5), 1, SearchConfig::default());
        let (_, path) = out.best.expect("beam leaf");
        assert_eq!(path.len(), 5);
        assert_eq!(out.stats.leaves, 1);
    }

    #[test]
    fn wider_beams_never_do_worse() {
        let best_of = |w: usize| {
            beam(&mut problem(7), w, SearchConfig::default())
                .best
                .expect("beam")
                .0
        };
        let (b1, b4, b32) = (best_of(1), best_of(4), best_of(32));
        assert!(b4 <= b1);
        assert!(b32 <= b4);
    }

    #[test]
    fn budget_is_respected() {
        let out = beam(&mut problem(8), 8, SearchConfig::with_limit(60));
        assert!(out.stats.nodes <= 60);
        assert!(out.stats.budget_hit || out.stats.exhausted);
    }

    #[test]
    fn unbounded_problems_fall_back_to_heuristic_order() {
        // No prefix bound: every candidate is unbounded; beam keeps the
        // first `width` in heuristic order and still reaches leaves.
        let mut p = PermutationProblem::from_fn(4, cost_fn);
        let out = beam(&mut p, 2, SearchConfig::default());
        assert!(out.best.is_some());
        assert!(out.stats.leaves >= 1);
    }

    #[test]
    #[should_panic(expected = "beam width")]
    fn zero_width_rejected() {
        let _ = beam(&mut problem(3), 0, SearchConfig::default());
    }
}
