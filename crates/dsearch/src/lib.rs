#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # sbs-dsearch
//!
//! Anytime **complete search** over ordered branching trees, implementing
//! the two discrepancy-based algorithms the paper builds its scheduling
//! policies on:
//!
//! * **LDS** — limited discrepancy search (Harvey & Ginsberg 1995), in
//!   Korf's *improved* form where iteration `k` explores exactly the
//!   paths containing `k` discrepancies (this is the variant shown in the
//!   paper's Figure 1(b)-(c));
//! * **DDS** — depth-bounded discrepancy search (Walsh 1997), whose
//!   iteration `i` mandates a discrepancy at depth `i`, allows anything
//!   above, and follows the heuristic below (Figure 1(e)-(f)).
//!
//! Both are *anytime*: they keep the best leaf found so far and can be
//! stopped after any number of visited nodes.  The paper imposes a node
//! limit `L` per scheduling decision (1K-100K) instead of a time limit;
//! [`SearchConfig::node_limit`] reproduces that.
//!
//! A search space is described by implementing [`SearchProblem`]: a
//! mutable cursor over the tree with `descend`/`ascend` moves, branch
//! enumeration ordered by the branching heuristic (the left-most branch
//! follows the heuristic; any other branch is a *discrepancy*), and leaf
//! costs compared lexicographically (or however `PartialOrd` says).
//!
//! The crate also ships an exhaustive depth-first baseline ([`dfs()`](dfs::dfs)), the
//! pure-heuristic probe ([`greedy`], = iteration 0 of either algorithm),
//! optional branch-and-bound pruning (the paper's "future work", used for
//! an ablation), and the closed-form tree-size arithmetic of Figure 1(d)
//! ([`tree`]).

pub mod dds;
pub mod deadline;
pub mod dfs;
pub mod lds;
pub mod local;
pub mod permutation;
pub mod problem;
pub mod tree;

pub use dds::dds;
pub use dfs::{dfs, greedy};
pub use lds::{lds, lds_original};
pub use local::hill_climb;
pub use problem::{
    Budget, SearchConfig, SearchOutcome, SearchProblem, SearchStats, DEADLINE_CHECK_INTERVAL,
    LEAF_ITER_BUCKETS,
};
