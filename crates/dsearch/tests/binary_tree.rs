//! The search algorithms on a *non-permutation* tree shape: a uniform
//! binary tree of configurable depth.  Validates that the generic
//! drivers (and the `max_discrepancies_below_child` override contract)
//! are not accidentally specialized to job-ordering trees, and checks
//! the textbook iteration structure:
//!
//! * LDS iteration `k` on a depth-`D` binary tree visits `C(D, k)`
//!   leaves (discrepancy = taking the right branch);
//! * DDS iteration `i >= 1` visits `2^(i-1)` leaves; iteration 0 visits
//!   one — summing to all `2^D`.

use sbs_dsearch::problem::{SearchConfig, SearchProblem};
use sbs_dsearch::{dds, dfs, lds};

/// A full binary tree of depth `depth`; branch 0 = heuristic (left),
/// branch 1 = discrepancy (right).  Leaf cost = the path read as a
/// binary number, so the heuristic path costs 0 and the all-right path
/// costs `2^depth - 1`.
struct BinaryTree {
    depth: usize,
    path: Vec<u8>,
}

impl BinaryTree {
    fn new(depth: usize) -> Self {
        BinaryTree {
            depth,
            path: Vec::with_capacity(depth),
        }
    }
}

impl SearchProblem for BinaryTree {
    type Branch = u8;
    type Cost = u64;

    fn branches(&self, out: &mut Vec<u8>) {
        if self.path.len() < self.depth {
            out.extend_from_slice(&[0, 1]);
        }
    }

    fn descend(&mut self, branch: u8) {
        self.path.push(branch);
    }

    fn ascend(&mut self) {
        self.path.pop().expect("ascend above root");
    }

    fn leaf_cost(&self) -> u64 {
        self.path.iter().fold(0u64, |acc, &b| (acc << 1) | b as u64)
    }

    /// Below a child of any internal node, every remaining level still
    /// offers a discrepancy — *not* the permutation-tree default.
    fn max_discrepancies_below_child(&self, _m: usize) -> usize {
        self.depth - self.path.len() - 1
    }

    fn branch_count(&self) -> usize {
        if self.path.len() < self.depth {
            2
        } else {
            0
        }
    }

    fn heuristic_branch(&self) -> Option<u8> {
        (self.path.len() < self.depth).then_some(0)
    }
}

fn binomial(n: u64, k: u64) -> u64 {
    if k > n {
        return 0;
    }
    (0..k).fold(1u64, |acc, i| acc * (n - i) / (i + 1))
}

fn ones(path: &[u8]) -> usize {
    path.iter().filter(|&&b| b == 1).count()
}

#[test]
fn dfs_enumerates_all_binary_strings_in_order() {
    let cfg = SearchConfig {
        record_leaves: true,
        ..Default::default()
    };
    let out = dfs(&mut BinaryTree::new(4), cfg);
    assert_eq!(out.leaves.len(), 16);
    assert!(out.stats.exhausted);
    // Tree order = numeric order of the leaf costs.
    let costs: Vec<u64> = out
        .leaves
        .iter()
        .map(|l| l.iter().fold(0, |a, &b| (a << 1) | b as u64))
        .collect();
    assert_eq!(costs, (0..16).collect::<Vec<u64>>());
}

#[test]
#[expect(clippy::cast_possible_truncation, reason = "C(7, k) is at most 35")]
fn lds_iterations_follow_binomial_counts() {
    for depth in 1..=7usize {
        let cfg = SearchConfig {
            record_leaves: true,
            ..Default::default()
        };
        let out = lds(&mut BinaryTree::new(depth), cfg);
        assert_eq!(out.leaves.len(), 1 << depth, "depth={depth}");
        // Leaves arrive in ascending discrepancy count, C(depth, k) each.
        let mut idx = 0usize;
        for k in 0..=depth {
            let expect = binomial(depth as u64, k as u64) as usize;
            let chunk = &out.leaves[idx..idx + expect];
            assert!(
                chunk.iter().all(|l| ones(l) == k),
                "depth={depth} iteration {k}: wrong discrepancy counts"
            );
            idx += expect;
        }
        assert_eq!(idx, out.leaves.len());
        assert!(out.stats.exhausted);
    }
}

#[test]
fn dds_iterations_double_in_size() {
    for depth in 1..=7usize {
        let cfg = SearchConfig {
            record_leaves: true,
            ..Default::default()
        };
        let out = dds(&mut BinaryTree::new(depth), cfg);
        assert_eq!(out.leaves.len(), 1 << depth, "depth={depth}");
        // Iteration 0: the all-left path.  Iteration i: 2^(i-1) paths
        // whose deepest... whose mandatory discrepancy sits at level i
        // (1-based) with heuristic (0) below.
        assert!(out.leaves[0].iter().all(|&b| b == 0));
        let mut idx = 1usize;
        for i in 1..=depth {
            let expect = 1usize << (i - 1);
            for leaf in &out.leaves[idx..idx + expect] {
                assert_eq!(
                    leaf[i - 1],
                    1,
                    "depth={depth} iter {i}: discrepancy at level {i}"
                );
                assert!(
                    leaf[i..].iter().all(|&b| b == 0),
                    "depth={depth} iter {i}: heuristic below the discrepancy"
                );
            }
            idx += expect;
        }
        assert_eq!(idx, out.leaves.len());
        assert!(out.stats.exhausted);
    }
}

#[test]
fn all_algorithms_find_the_zero_cost_heuristic_leaf_first() {
    for run in [lds, dds, dfs] {
        let out = run(&mut BinaryTree::new(10), SearchConfig::with_limit(10));
        assert_eq!(out.best.expect("first path within budget").0, 0);
    }
}

#[test]
fn budget_truncates_mid_iteration_without_corruption() {
    // Stop DDS partway through iteration 3 and check the cursor-returned
    // problem is reusable.
    let mut tree = BinaryTree::new(6);
    let out = dds(&mut tree, SearchConfig::with_limit(40));
    assert!(out.stats.budget_hit);
    assert!(out.stats.nodes <= 40);
    assert_eq!(tree.path.len(), 0, "cursor back at the root");
    // Re-run exhaustively on the same instance.
    let full = dds(&mut tree, SearchConfig::default());
    assert_eq!(full.stats.leaves, 64);
}
