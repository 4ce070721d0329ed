//! Declarative policy specifications.
//!
//! A [`PolicySpec`] names any policy the workspace can build — the
//! paper's baselines, every search-policy configuration, and the
//! ablation variants — so experiments, tests and the CLI harness can be
//! driven by plain data.

use crate::objective::TargetBound;
use crate::policy::{Branching, SearchAlgo, SearchPolicy};
use sbs_backfill::{BackfillPolicy, PriorityOrder, SelectiveBackfill};
use sbs_sim::Policy;
use sbs_workload::time::Time;

/// A buildable scheduling policy description.
#[derive(Debug, Clone, PartialEq)]
pub enum PolicySpec {
    /// FCFS-backfill (1 reservation) — the maximum-wait envelope.
    FcfsBackfill,
    /// LXF-backfill (1 reservation) — the average-slowdown envelope.
    LxfBackfill,
    /// SJF-backfill (1 reservation) — the starvation-prone extreme.
    SjfBackfill,
    /// LXF&W-backfill with the default wait weight.
    LxfwBackfill,
    /// Selective backfill with the default starvation threshold.
    SelectiveBackfill,
    /// Priority backfill with an explicit reservation count (the
    /// reservation-count ablation).
    BackfillWithReservations {
        /// Priority order.
        order: PriorityOrder,
        /// Number of reservations.
        reservations: usize,
    },
    /// A search-based policy (Section 2.3).
    Search {
        /// LDS or DDS; an incomplete baseline (extension).
        algo: SearchAlgo,
        /// fcfs or lxf branching.
        branching: Branching,
        /// Fixed or dynamic target bound.
        bound: TargetBound,
        /// Node budget per decision point.
        node_limit: u64,
        /// Branch-and-bound pruning (extension).
        prune: bool,
    },
    /// Complete+local hybrid: tree search for part of the budget, then
    /// hill climbing from its incumbent (extension; the paper's
    /// Section 2.2 future work).
    HybridSearch {
        /// LDS or DDS.
        algo: SearchAlgo,
        /// fcfs or lxf branching.
        branching: Branching,
        /// Fixed or dynamic target bound.
        bound: TargetBound,
        /// Total node budget per decision point.
        node_limit: u64,
        /// Fraction of the budget reserved for hill climbing.
        local_frac: f64,
    },
}

impl PolicySpec {
    /// The paper's headline policy with budget `node_limit`.
    pub fn dds_lxf_dynb(node_limit: u64) -> Self {
        PolicySpec::Search {
            algo: SearchAlgo::Dds,
            branching: Branching::Lxf,
            bound: TargetBound::Dynamic,
            node_limit,
            prune: false,
        }
    }

    /// DDS/lxf with a fixed bound of `omega` seconds.
    pub fn dds_lxf_fixed(omega: Time, node_limit: u64) -> Self {
        PolicySpec::Search {
            algo: SearchAlgo::Dds,
            branching: Branching::Lxf,
            bound: TargetBound::Fixed(omega),
            node_limit,
            prune: false,
        }
    }

    /// Any search configuration with the dynamic bound.
    pub fn search_dynb(algo: SearchAlgo, branching: Branching, node_limit: u64) -> Self {
        PolicySpec::Search {
            algo,
            branching,
            bound: TargetBound::Dynamic,
            node_limit,
            prune: false,
        }
    }

    /// For the search-based variants, the concrete [`SearchPolicy`]
    /// (lets callers read [`SearchPolicy::totals`] after a run).
    pub fn build_search(&self) -> Option<SearchPolicy> {
        match *self {
            PolicySpec::Search {
                algo,
                branching,
                bound,
                node_limit,
                prune,
            } => Some(SearchPolicy::new(algo, branching, bound, node_limit).with_prune(prune)),
            PolicySpec::HybridSearch {
                algo,
                branching,
                bound,
                node_limit,
                local_frac,
            } => Some(
                SearchPolicy::new(algo, branching, bound, node_limit).with_local_search(local_frac),
            ),
            _ => None,
        }
    }

    /// Instantiates the policy.
    pub fn build(&self) -> Box<dyn Policy + Send> {
        if let Some(search) = self.build_search() {
            return Box::new(search);
        }
        match *self {
            PolicySpec::FcfsBackfill => Box::new(sbs_backfill::fcfs_backfill()),
            PolicySpec::LxfBackfill => Box::new(sbs_backfill::lxf_backfill()),
            PolicySpec::SjfBackfill => Box::new(sbs_backfill::sjf_backfill()),
            PolicySpec::LxfwBackfill => Box::new(BackfillPolicy::new(
                PriorityOrder::LxfW {
                    weight: PriorityOrder::DEFAULT_LXFW_WEIGHT,
                },
                1,
            )),
            PolicySpec::SelectiveBackfill => Box::new(SelectiveBackfill::default()),
            PolicySpec::BackfillWithReservations {
                order,
                reservations,
            } => Box::new(BackfillPolicy::new(order, reservations)),
            PolicySpec::Search { .. } | PolicySpec::HybridSearch { .. } => {
                unreachable!("handled by build_search")
            }
        }
    }

    /// Display name of the policy this spec builds.
    pub fn name(&self) -> String {
        self.build().name()
    }

    /// The three policies of the paper's headline comparison
    /// (Figures 3, 4 and 8): FCFS-backfill, LXF-backfill, DDS/lxf/dynB.
    pub fn headline_trio(node_limit: u64) -> Vec<PolicySpec> {
        vec![
            PolicySpec::FcfsBackfill,
            PolicySpec::LxfBackfill,
            PolicySpec::dds_lxf_dynb(node_limit),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbs_workload::time::HOUR;

    #[test]
    fn names_of_built_policies() {
        assert_eq!(PolicySpec::FcfsBackfill.name(), "FCFS-backfill");
        assert_eq!(PolicySpec::LxfBackfill.name(), "LXF-backfill");
        assert_eq!(PolicySpec::dds_lxf_dynb(1_000).name(), "DDS/lxf/dynB");
        assert_eq!(
            PolicySpec::dds_lxf_fixed(100 * HOUR, 1_000).name(),
            "DDS/lxf/w=100h"
        );
        assert_eq!(
            PolicySpec::BackfillWithReservations {
                order: PriorityOrder::Fcfs,
                reservations: 4
            }
            .name(),
            "FCFS-backfill/res4"
        );
    }

    #[test]
    fn headline_trio_matches_figures() {
        let names: Vec<String> = PolicySpec::headline_trio(1_000)
            .iter()
            .map(|s| s.name())
            .collect();
        assert_eq!(names, vec!["FCFS-backfill", "LXF-backfill", "DDS/lxf/dynB"]);
    }

    #[test]
    fn specs_are_buildable_and_send() {
        fn assert_send<T: Send>(_: &T) {}
        let built = PolicySpec::dds_lxf_dynb(100).build();
        assert_send(&built);
    }
}
