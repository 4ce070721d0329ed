//! The search-problem abstraction and shared driver plumbing.

/// A mutable cursor over an ordered branching tree.
///
/// The driver walks the tree by calling [`branches`](Self::branches) to
/// enumerate the children of the current node (ordered by the branching
/// heuristic, best first), [`descend`](Self::descend) to move into a
/// child and [`ascend`](Self::ascend) to move back up.  `descend` and
/// `ascend` calls are always properly nested; after a full search the
/// cursor is back at the root.  A heuristic tail — the run of
/// first-branch descends from below the last discrepancy down to a leaf —
/// is bracketed by [`begin_tail`](Self::begin_tail) and undone as a unit
/// by [`end_tail`](Self::end_tail) instead of by one `ascend` per node.
///
/// By the discrepancy-search convention, taking the **first** branch
/// follows the heuristic and taking any other branch is a *discrepancy*.
pub trait SearchProblem {
    /// A branch choice (e.g. "place job 7 next").  Copied freely.
    type Branch: Copy;
    /// Leaf cost; **smaller is better**.  Typically a lexicographic
    /// tuple, hence `PartialOrd` rather than `Ord`.
    type Cost: Clone + PartialOrd;

    /// Fills `out` with the branches of the current node in heuristic
    /// order (clearing it first is the implementor's job is NOT required:
    /// the driver clears it).  Leaving `out` empty marks the node a leaf.
    fn branches(&self, out: &mut Vec<Self::Branch>);

    /// Moves the cursor into the child reached by `branch`.
    fn descend(&mut self, branch: Self::Branch);

    /// Moves the cursor back to the parent.
    fn ascend(&mut self);

    /// Cost of the current node; only called at leaves.
    fn leaf_cost(&self) -> Self::Cost;

    /// Maximum number of discrepancies obtainable strictly below a child
    /// of the current node, given the current node has `m` branches.
    ///
    /// LDS uses this for feasibility pruning so each iteration visits
    /// exactly the leaves with its discrepancy count and no dead ends.
    /// The default is the permutation-tree value: below a child the
    /// branch counts are `m-1, m-2, ..., 1`, so `m - 2` decisions still
    /// offer a discrepancy.  Trees of a different shape should override
    /// this; a safe over-estimate keeps LDS complete but lets it revisit
    /// leaves (inflating node counts).
    fn max_discrepancies_below_child(&self, m: usize) -> usize {
        m.saturating_sub(2)
    }

    /// Optional lower bound on the cost of every leaf below the current
    /// node, for branch-and-bound pruning ([`SearchConfig::prune`]).
    /// `None` (the default) disables pruning at this node.
    fn prune_bound(&self) -> Option<Self::Cost> {
        None
    }

    /// Number of branches at the current node, without materializing
    /// them.  The drivers use this together with
    /// [`heuristic_branch`](Self::heuristic_branch) on heuristic-only
    /// descents (the overwhelming majority of visited nodes in LDS/DDS),
    /// so an `O(1)` override here turns per-node cost from `O(queue)` to
    /// `O(1)`.  The default materializes the branch list.
    fn branch_count(&self) -> usize {
        let mut buf = Vec::new();
        self.branches(&mut buf);
        buf.len()
    }

    /// The first (heuristic) branch of the current node, or `None` at a
    /// leaf.  See [`branch_count`](Self::branch_count) for why overriding
    /// this matters.
    fn heuristic_branch(&self) -> Option<Self::Branch> {
        let mut buf = Vec::new();
        self.branches(&mut buf);
        buf.first().copied()
    }

    /// Opens a heuristic tail at the current node: every `descend` until
    /// the matching [`end_tail`](Self::end_tail) will be undone together,
    /// never by `ascend`.  Problems whose per-node undo is costly can
    /// switch to a cheaper bulk mode here.  The default does nothing.
    fn begin_tail(&mut self) {}

    /// Closes the tail opened by [`begin_tail`](Self::begin_tail),
    /// undoing the `depth` descends made since (`depth` may be 0 when the
    /// budget ran out at once) and leaving the cursor where the tail
    /// began.  The default ascends once per descend.
    fn end_tail(&mut self, depth: usize) {
        for _ in 0..depth {
            self.ascend();
        }
    }
}

/// A per-decision search budget: a node limit, a wall-clock deadline, or
/// both — the search stops at whichever is hit first.
///
/// Both algorithms are anytime, so on expiry the best leaf found so far
/// is returned.  The node limit is the paper's `L` (deterministic,
/// machine-independent); the deadline is the online-service extension
/// where a decision must be produced within a real-time bound.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Budget {
    /// Maximum tree nodes to visit; `None` = unbounded.
    pub node_limit: Option<u64>,
    /// Maximum wall-clock time to search; `None` = unbounded.  Checked
    /// every [`DEADLINE_CHECK_INTERVAL`] nodes and on the final node the
    /// node limit admits, so short deadlines still admit up to an
    /// interval of nodes but an expiry is always reported — even when
    /// the node limit is smaller than one interval.
    pub deadline: Option<std::time::Duration>,
}

impl Budget {
    /// A budget of `limit` tree nodes (the paper's `L`).
    pub fn nodes(limit: u64) -> Self {
        Budget {
            node_limit: Some(limit),
            deadline: None,
        }
    }

    /// No limit of any kind (exhaustive search).
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// Adds a wall-clock deadline; the search stops at the deadline or
    /// the node limit, whichever comes first.
    pub fn with_deadline(mut self, deadline: std::time::Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// How many `descend`s happen between wall-clock deadline checks.
///
/// Reading the clock per node would dominate the cost of cheap problems;
/// at realistic node costs (micro-seconds) this granularity bounds
/// deadline overshoot well below a millisecond.
pub const DEADLINE_CHECK_INTERVAL: u64 = 256;

/// Driver configuration shared by all algorithms.
#[derive(Debug, Clone, Copy, Default)]
pub struct SearchConfig {
    /// Maximum number of tree nodes to visit (the paper's `L`); each
    /// `descend` counts as one node.  `None` = unbounded.
    pub node_limit: Option<u64>,
    /// Optional wall-clock deadline for the whole search (anytime stop).
    pub deadline: Option<std::time::Duration>,
    /// Record the branch path of every evaluated leaf in
    /// [`SearchOutcome::leaves`] (used by tests and the Figure 1
    /// harness; keep off in production — it allocates per leaf).
    pub record_leaves: bool,
    /// Enable branch-and-bound pruning via
    /// [`SearchProblem::prune_bound`].
    pub prune: bool,
}

impl SearchConfig {
    /// Convenience: a config with the given node limit.
    pub fn with_limit(limit: u64) -> Self {
        SearchConfig {
            node_limit: Some(limit),
            ..Default::default()
        }
    }

    /// A config enforcing `budget` (node limit and/or deadline).
    pub fn with_budget(budget: Budget) -> Self {
        SearchConfig {
            node_limit: budget.node_limit,
            deadline: budget.deadline,
            ..Default::default()
        }
    }
}

impl From<Budget> for SearchConfig {
    fn from(budget: Budget) -> Self {
        SearchConfig::with_budget(budget)
    }
}

/// Number of per-iteration leaf buckets kept in [`SearchStats`]; the
/// last bucket absorbs all deeper iterations.
pub const LEAF_ITER_BUCKETS: usize = 16;

/// Counters describing a finished search.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Tree nodes visited (`descend` calls), the paper's budget unit.
    pub nodes: u64,
    /// Leaves evaluated.
    pub leaves: u64,
    /// Iterations fully completed (iteration 0 counts once finished).
    pub iterations: u32,
    /// The search space was fully explored (the algorithm ran out of
    /// iterations before running out of budget).
    pub exhausted: bool,
    /// The node budget was hit.
    pub budget_hit: bool,
    /// The wall-clock deadline expired (implies `budget_hit`).
    pub deadline_hit: bool,
    /// Budget still unspent when the deadline expired: a deadline cut
    /// with nodes to spare is *truncation*, distinguishable from
    /// natural budget exhaustion (where this stays 0).
    pub nodes_left_at_deadline: u64,
    /// Subtrees pruned by branch-and-bound.
    pub pruned: u64,
    /// Incumbent improvements (times a new best leaf was adopted).
    pub improvements: u64,
    /// Node count at which the final incumbent was found.
    pub nodes_to_best: u64,
    /// Iteration during which the final incumbent was found.  For LDS
    /// this is the leaf's discrepancy count; for DDS the mandated
    /// discrepancy depth.
    pub best_iteration: u32,
    /// Depth (path length) of the final incumbent leaf.
    pub best_depth: u32,
    /// Leaves evaluated per iteration (bucket = iteration index,
    /// clamped to the last bucket).  During LDS/DDS probes the current
    /// iteration equals the discrepancy parameter, so this is the
    /// discrepancy-depth histogram of evaluated leaves.
    pub leaf_iters: [u64; LEAF_ITER_BUCKETS],
    /// Correlation id of the request this search ran under (`0` when
    /// the search was not request-scoped, e.g. offline simulation).
    /// Searches never read or generate ids themselves — the owning
    /// policy stamps the id it was handed, which is what lets one
    /// daemon request be followed fleet → shard → decision → search.
    pub trace_id: u64,
}

/// Result of a search: the best leaf found (cost and root-to-leaf branch
/// path) plus statistics.
#[derive(Debug, Clone)]
pub struct SearchOutcome<B, C> {
    /// Best (lowest-cost) leaf found, if any leaf was reached.
    pub best: Option<(C, Vec<B>)>,
    /// Execution counters.
    pub stats: SearchStats,
    /// Paths of all evaluated leaves in visit order, when
    /// [`SearchConfig::record_leaves`] was set.
    pub leaves: Vec<Vec<B>>,
}

impl<B, C> SearchOutcome<B, C> {
    pub(crate) fn new() -> Self {
        SearchOutcome {
            best: None,
            stats: SearchStats::default(),
            leaves: Vec::new(),
        }
    }

    /// The cost of the best leaf, if any.
    pub fn best_cost(&self) -> Option<&C> {
        self.best.as_ref().map(|(c, _)| c)
    }
}

/// Internal driver state shared by the algorithms.
pub(crate) struct Driver<'a, P: SearchProblem> {
    pub problem: &'a mut P,
    pub cfg: SearchConfig,
    pub outcome: SearchOutcome<P::Branch, P::Cost>,
    pub path: Vec<P::Branch>,
    /// Scratch buffers for branch lists, one per depth, reused across the
    /// whole search to avoid per-node allocation.
    scratch: Vec<Vec<P::Branch>>,
    /// Wall-clock deadline for the search (the crate's only time source;
    /// see [`crate::deadline`]).
    deadline: crate::deadline::DeadlineTimer,
}

/// Signal that the node budget was exhausted; unwinds the recursion.
pub(crate) struct BudgetExhausted;

impl<'a, P: SearchProblem> Driver<'a, P> {
    pub fn new(problem: &'a mut P, cfg: SearchConfig) -> Self {
        Driver {
            problem,
            cfg,
            outcome: SearchOutcome::new(),
            path: Vec::new(),
            scratch: Vec::new(),
            deadline: crate::deadline::DeadlineTimer::starting_now(cfg.deadline),
        }
    }

    /// Takes the scratch branch buffer for the current depth, filled by
    /// the problem.  Returned via [`Self::put_branches`].
    pub fn take_branches(&mut self) -> Vec<P::Branch> {
        let mut buf = if self.scratch.is_empty() {
            Vec::new()
        } else {
            self.scratch.pop().expect("checked non-empty")
        };
        buf.clear();
        self.problem.branches(&mut buf);
        buf
    }

    /// Returns a scratch buffer after use.
    pub fn put_branches(&mut self, buf: Vec<P::Branch>) {
        self.scratch.push(buf);
    }

    /// Moves into `branch`, spending one node of budget.
    pub fn descend(&mut self, branch: P::Branch) -> Result<(), BudgetExhausted> {
        if let Some(limit) = self.cfg.node_limit {
            if self.outcome.stats.nodes >= limit {
                self.outcome.stats.budget_hit = true;
                return Err(BudgetExhausted);
            }
        }
        // Deadline checks are amortized over DEADLINE_CHECK_INTERVAL
        // nodes so the clock read never dominates cheap problems.  The
        // first check happens after one full interval, so even an
        // already-expired deadline admits that many nodes — enough for
        // the heuristic descent to reach a leaf on realistic queues,
        // preserving the anytime guarantee.  The final node the node
        // limit admits is also checked: a budget smaller than one
        // interval would otherwise never read the clock, and a search
        // that was cut short by real time must say so in its stats.
        let interval_check = self.outcome.stats.nodes > 0
            && self
                .outcome
                .stats
                .nodes
                .is_multiple_of(DEADLINE_CHECK_INTERVAL);
        let final_node = self
            .cfg
            .node_limit
            .is_some_and(|limit| self.outcome.stats.nodes + 1 >= limit);
        if self.deadline.armed() && (interval_check || final_node) && self.deadline.expired() {
            self.outcome.stats.budget_hit = true;
            self.outcome.stats.deadline_hit = true;
            // Record how much budget the deadline left on the table so
            // truncation is distinguishable from natural exhaustion.
            self.outcome.stats.nodes_left_at_deadline = self
                .cfg
                .node_limit
                .map_or(0, |limit| limit.saturating_sub(self.outcome.stats.nodes));
            return Err(BudgetExhausted);
        }
        self.outcome.stats.nodes += 1;
        self.problem.descend(branch);
        self.path.push(branch);
        Ok(())
    }

    /// Moves back to the parent.
    pub fn ascend(&mut self) {
        self.problem.ascend();
        self.path.pop();
    }

    /// Follows the heuristic branch from the cursor down to a leaf,
    /// visits it, and rewinds to the cursor in one
    /// [`SearchProblem::end_tail`].  `on_node(problem, depth)` sees every
    /// node on the way, the leaf included.  Iterative, and `O(1)` per
    /// node for problems with fast [`SearchProblem::heuristic_branch`].
    pub fn heuristic_tail(
        &mut self,
        mut on_node: impl FnMut(&P, usize),
    ) -> Result<(), BudgetExhausted> {
        self.problem.begin_tail();
        let mut depth = 0usize;
        let result = loop {
            on_node(self.problem, depth);
            let Some(branch) = self.problem.heuristic_branch() else {
                self.visit_leaf();
                break Ok(());
            };
            if let Err(e) = self.descend(branch) {
                break Err(e);
            }
            depth += 1;
        };
        self.problem.end_tail(depth);
        self.path.truncate(self.path.len() - depth);
        result
    }

    /// Evaluates the current leaf, updating the incumbent.
    pub fn visit_leaf(&mut self) {
        let stats = &mut self.outcome.stats;
        stats.leaves += 1;
        // During an LDS/DDS probe `iterations` still holds the probe's
        // discrepancy parameter (it is bumped only after the iteration
        // completes), so this buckets leaves by discrepancy depth.
        let bucket = (stats.iterations as usize).min(LEAF_ITER_BUCKETS - 1);
        stats.leaf_iters[bucket] += 1;
        let cost = self.problem.leaf_cost();
        if self.cfg.record_leaves {
            self.outcome.leaves.push(self.path.clone());
        }
        let better = match &self.outcome.best {
            None => true,
            Some((best, _)) => cost < *best,
        };
        if better {
            let stats = &mut self.outcome.stats;
            stats.improvements += 1;
            stats.nodes_to_best = stats.nodes;
            stats.best_iteration = stats.iterations;
            stats.best_depth = u32::try_from(self.path.len()).unwrap_or(u32::MAX);
            self.outcome.best = Some((cost, self.path.clone()));
        }
    }

    /// Branch-and-bound check: `true` if the subtree under the cursor
    /// cannot beat the incumbent and should be skipped.
    pub fn should_prune(&mut self) -> bool {
        if !self.cfg.prune {
            return false;
        }
        let (Some(bound), Some((best, _))) = (self.problem.prune_bound(), &self.outcome.best)
        else {
            return false;
        };
        if bound >= *best {
            self.outcome.stats.pruned += 1;
            true
        } else {
            false
        }
    }

    pub fn finish(self) -> SearchOutcome<P::Branch, P::Cost> {
        debug_assert!(self.path.is_empty(), "driver did not return to root");
        self.outcome
    }
}
