//! The hierarchical two-level scheduling objective (Section 2.1).
//!
//! "Schedule A is better than B if A has a smaller total excessive wait
//! time, or the two schedules have the same total excessive wait but A
//! has a lower average slowdown."
//!
//! The comparison is exactly lexicographic on
//! `(total excessive wait, average bounded slowdown)`; no weights to
//! tune — that is the point of the paper.
//!
//! The objective is open for extension (the paper's Sections 6.1 and 7
//! float runtime-dependent bounds and fairshare as future work):
//! implement [`Objective`] to redefine what a job placement costs.  This
//! module ships the paper's [`HierarchicalObjective`], the
//! runtime-scaled-bound variant ([`RuntimeScaledBound`]) and a
//! user-weighted fairshare variant ([`FairshareObjective`]).

use sbs_sim::policy::{SchedContext, WaitingJob};
use sbs_workload::job::bounded_slowdown;
use sbs_workload::time::Time;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The target wait bound ω in the first objective level.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TargetBound {
    /// A fixed bound in seconds (the paper sweeps 0-300 h, Section 5.1).
    Fixed(Time),
    /// The *dynamic* bound: the waiting time of the job that has
    /// currently been waiting the longest (Section 5.2, the `dynB`
    /// suffix).
    Dynamic,
}

impl TargetBound {
    /// Resolves the bound at a decision point.
    pub fn resolve(&self, ctx: &SchedContext<'_>) -> Time {
        match *self {
            TargetBound::Fixed(t) => t,
            TargetBound::Dynamic => ctx.longest_wait(),
        }
    }

    /// The paper's suffix for policy names: `dynB` or `w=<hours>h`.
    pub fn label(&self) -> String {
        match *self {
            TargetBound::Fixed(t) => format!("w={}h", t / 3_600),
            TargetBound::Dynamic => "dynB".to_string(),
        }
    }
}

/// Cost of a (partial or complete) schedule under the hierarchical
/// objective.  Derived `PartialOrd` is lexicographic by field order:
/// total excess first, slowdown second — precisely the paper's rule.
///
/// `excess` is in (weighted) seconds summed over jobs; `bsld_sum` is the
/// *sum* of bounded slowdowns (for a fixed job set, comparing sums is
/// equivalent to comparing averages).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct ObjectiveCost {
    /// Total excessive wait in seconds.
    pub excess: u64,
    /// Sum of bounded slowdowns.
    pub bsld_sum: f64,
}

impl ObjectiveCost {
    /// The zero cost.
    pub const ZERO: ObjectiveCost = ObjectiveCost {
        excess: 0,
        bsld_sum: 0.0,
    };

    /// Average bounded slowdown over `n` jobs.
    pub fn avg_bsld(&self, n: usize) -> f64 {
        if n == 0 {
            0.0
        } else {
            self.bsld_sum / n as f64
        }
    }

    /// A **total** order consistent with the derived lexicographic
    /// `PartialOrd` on all finite values: excess first, then
    /// `f64::total_cmp` on the slowdown sum.  Search reducers (e.g. the
    /// parallel root-split merge) must use this instead of
    /// `partial_cmp(..).unwrap()` so a NaN produced by a buggy objective
    /// mis-ranks deterministically instead of panicking mid-decision.
    pub fn total_order(&self, other: &ObjectiveCost) -> std::cmp::Ordering {
        self.excess
            .cmp(&other.excess)
            .then_with(|| self.bsld_sum.total_cmp(&other.bsld_sum))
    }
}

/// Evaluates per-job contributions to the objective.
///
/// `job_cost` is called once per job placement during the tree search
/// (and must be a pure function of its arguments — the search relies on
/// exact undo via snapshots).
pub trait Objective: Send + Sync {
    /// Cost contribution of starting `job` at `start`, given the
    /// resolved target bound `omega` for this decision point.
    fn job_cost(&self, job: &WaitingJob, start: Time, omega: Time) -> ObjectiveCost;
}

/// The paper's objective: excess = wait beyond ω, tie-break = bounded
/// slowdown.
#[derive(Debug, Clone, Copy, Default)]
pub struct HierarchicalObjective;

impl Objective for HierarchicalObjective {
    fn job_cost(&self, job: &WaitingJob, start: Time, omega: Time) -> ObjectiveCost {
        let wait = start.saturating_sub(job.job.submit);
        ObjectiveCost {
            excess: wait.saturating_sub(omega),
            bsld_sum: bounded_slowdown(wait, job.r_star),
        }
    }
}

/// An extension objective: the target bound scales with the job's own
/// runtime (`omega_j = max(omega, factor x R*_j)`), so short jobs get
/// tight bounds and long jobs proportionally looser ones.  This is the
/// "target wait bound as a function of job runtime" the paper floats in
/// Section 6.1; the `custom_objective` example exercises it.
#[derive(Debug, Clone, Copy)]
pub struct RuntimeScaledBound {
    /// Multiplier on `R*` for the per-job bound.
    pub factor: f64,
}

impl Objective for RuntimeScaledBound {
    fn job_cost(&self, job: &WaitingJob, start: Time, omega: Time) -> ObjectiveCost {
        let wait = start.saturating_sub(job.job.submit);
        #[expect(
            clippy::cast_possible_truncation,
            reason = "float-to-int `as` saturates deterministically; a saturated bound is the intended \"effectively unbounded\" behaviour"
        )]
        let per_job = omega.max((self.factor * job.r_star as f64) as Time);
        ObjectiveCost {
            excess: wait.saturating_sub(per_job),
            bsld_sum: bounded_slowdown(wait, job.r_star),
        }
    }
}

/// Fairshare extension (paper Section 7 future work: "incorporating
/// special priority and fairshare in the scheduling objective").
///
/// Each user's excessive wait is weighted: a user **over** their usage
/// share gets weight < 1 (their delays beyond ω matter less to the
/// scheduler), an under-served or prioritized user gets weight > 1.  The
/// weighted excesses stay on the first objective level, so fairness
/// trades off *within* the starvation-avoidance goal rather than against
/// average slowdown.
#[derive(Debug, Clone, Default)]
pub struct FairshareObjective {
    /// Ordered so that any iteration over users (serialization, debug
    /// output, future aggregate terms) is deterministic; lookups by key
    /// never depended on order, but `clippy.toml` bans HashMap
    /// workspace-wide.
    weights: BTreeMap<u32, f64>,
}

impl FairshareObjective {
    /// Weight applied to users absent from the table.
    pub const DEFAULT_WEIGHT: f64 = 1.0;

    /// Creates the objective from explicit per-user weights (all finite
    /// and non-negative).
    pub fn new(weights: BTreeMap<u32, f64>) -> Self {
        assert!(
            weights.values().all(|w| w.is_finite() && *w >= 0.0),
            "weights must be finite and non-negative"
        );
        FairshareObjective { weights }
    }

    /// Derives weights from observed per-user demand shares: a user with
    /// demand share `s` among `n` users gets weight `(1/n) / max(s, eps)`
    /// clamped to `[0.25, 4]` — heavy users discounted, light users
    /// boosted, all bounded so nobody is entirely unprotected.
    pub fn from_usage_shares(shares: &BTreeMap<u32, f64>) -> Self {
        let n = shares.len().max(1) as f64;
        let fair = 1.0 / n;
        let weights = shares
            .iter()
            .map(|(&u, &s)| (u, (fair / s.max(1e-9)).clamp(0.25, 4.0)))
            .collect();
        Self::new(weights)
    }

    /// The weight of `user`.
    pub fn weight(&self, user: u32) -> f64 {
        self.weights
            .get(&user)
            .copied()
            .unwrap_or(Self::DEFAULT_WEIGHT)
    }
}

impl Objective for FairshareObjective {
    #[expect(
        clippy::cast_possible_truncation,
        reason = "float-to-int `as` saturates deterministically; a weighted excess beyond u64 is unbounded in effect"
    )]
    fn job_cost(&self, job: &WaitingJob, start: Time, omega: Time) -> ObjectiveCost {
        let wait = start.saturating_sub(job.job.submit);
        let raw = wait.saturating_sub(omega) as f64;
        ObjectiveCost {
            excess: (raw * self.weight(job.job.user)).round() as u64,
            bsld_sum: bounded_slowdown(wait, job.r_star),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbs_workload::job::{Job, JobId};
    use sbs_workload::time::HOUR;

    fn waiting(submit: Time, r_star: Time, user: u32) -> WaitingJob {
        WaitingJob {
            job: Job::new(JobId(1), submit, 1, r_star, r_star).with_user(user),
            r_star,
        }
    }

    #[test]
    fn cost_ordering_is_hierarchical() {
        let a = ObjectiveCost {
            excess: 0,
            bsld_sum: 100.0,
        };
        let b = ObjectiveCost {
            excess: 1,
            bsld_sum: 1.0,
        };
        assert!(a < b, "any excess dominates any slowdown");
        let c = ObjectiveCost {
            excess: 1,
            bsld_sum: 0.5,
        };
        assert!(c < b, "ties broken by slowdown");
    }

    #[test]
    fn hierarchical_job_cost() {
        let o = HierarchicalObjective;
        // Wait 3 h, bound 2 h: 1 h excess.
        let c = o.job_cost(&waiting(0, HOUR, 0), 3 * HOUR, 2 * HOUR);
        assert_eq!(c.excess, HOUR);
        assert!((c.bsld_sum - 4.0).abs() < 1e-12);
        // Within bound: zero excess.
        let c = o.job_cost(&waiting(0, HOUR, 0), HOUR, 2 * HOUR);
        assert_eq!(c.excess, 0);
    }

    #[test]
    fn fixed_bound_labels() {
        assert_eq!(TargetBound::Fixed(50 * HOUR).label(), "w=50h");
        assert_eq!(TargetBound::Dynamic.label(), "dynB");
    }

    #[test]
    fn runtime_scaled_bound_relaxes_long_jobs() {
        let o = RuntimeScaledBound { factor: 2.0 };
        // 12 h job with a 1 h global bound: per-job bound is 24 h.
        let long = o.job_cost(&waiting(0, 12 * HOUR, 0), 20 * HOUR, HOUR);
        assert_eq!(long.excess, 0);
        // 10-minute job with the same wait: bound stays 1 h.
        let short = o.job_cost(&waiting(0, 600, 0), 20 * HOUR, HOUR);
        assert_eq!(short.excess, 19 * HOUR);
    }

    #[test]
    fn fairshare_weights_scale_excess_only() {
        let o = FairshareObjective::new(BTreeMap::from([(7, 0.5), (9, 2.0)]));
        let heavy = o.job_cost(&waiting(0, HOUR, 7), 3 * HOUR, HOUR);
        let light = o.job_cost(&waiting(0, HOUR, 9), 3 * HOUR, HOUR);
        let unknown = o.job_cost(&waiting(0, HOUR, 1), 3 * HOUR, HOUR);
        assert_eq!(heavy.excess, HOUR); // 2 h raw excess x 0.5
        assert_eq!(light.excess, 4 * HOUR); // x 2.0
        assert_eq!(unknown.excess, 2 * HOUR); // default weight 1
                                              // Slowdown term is never reweighted.
        assert_eq!(heavy.bsld_sum, light.bsld_sum);
    }

    #[test]
    fn fairshare_from_usage_shares_discounts_heavy_users() {
        let shares = BTreeMap::from([(1, 0.6), (2, 0.3), (3, 0.1)]);
        let o = FairshareObjective::from_usage_shares(&shares);
        assert!(o.weight(1) < o.weight(2));
        assert!(o.weight(2) < o.weight(3));
        assert!((0.25..=4.0).contains(&o.weight(1)));
        assert!((0.25..=4.0).contains(&o.weight(3)));
        assert_eq!(o.weight(99), FairshareObjective::DEFAULT_WEIGHT);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_weights_rejected() {
        let _ = FairshareObjective::new(BTreeMap::from([(1, -1.0)]));
    }

    #[test]
    fn avg_bsld_divides_by_job_count() {
        let c = ObjectiveCost {
            excess: 0,
            bsld_sum: 6.0,
        };
        assert_eq!(c.avg_bsld(3), 2.0);
        assert_eq!(c.avg_bsld(0), 0.0);
    }
}
