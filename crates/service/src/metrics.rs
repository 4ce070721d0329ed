//! Every per-tenant number the serving edge reports, declared once.
//!
//! Each row of [`FAMILIES`] is one number: the tenant family that
//! `GET /metrics?cluster=ID` serves, the fleet's `cluster`-labelled
//! `sbs_cluster_*` and summed `sbs_fleet_*` families, its `/statusz`
//! keys, its Prometheus type and HELP text, and how it is read from a
//! tenant's [`Tally`] (what was counted) or its [`SchedulerCore`] (the
//! machine as it stands now).  The daemon answers `/metrics?cluster=ID`
//! with [`tenant_text`]; the fleet renders its `/metrics` and `/statusz`
//! from the same rows.  Histogram bucket layouts are the tally's
//! ([`Tally::default`]).

use sbs_obs::expo::{Exposition, Sample};
use sbs_obs::{Histogram, Tally};
use sbs_sim::SchedulerCore;

/// How a family reads its value from one tenant, and its type.
#[derive(Debug, Clone, Copy)]
pub enum Read {
    /// `counter`: a monotone count.
    Counter(fn(&Tally, &SchedulerCore) -> u64),
    /// `gauge`: a level as it stands now.
    Gauge(fn(&Tally, &SchedulerCore) -> u64),
    /// `counter` kept in nanoseconds, served in seconds to six decimals.
    Seconds(fn(&Tally) -> u64),
    /// `gauge` served to three decimals.
    Decimal(fn(&Tally) -> f64),
    /// `histogram`.
    Histogram(fn(&Tally) -> &Histogram),
}

impl Read {
    /// This family's sample for one tenant.
    pub fn sample<'a>(self, tally: &'a Tally, core: &SchedulerCore) -> Sample<'a> {
        match self {
            Read::Counter(_) | Read::Gauge(_) => self.with(self.int(tally, core)),
            Read::Seconds(r) => Sample::Counter(format!("{:.6}", r(tally) as f64 / 1e9)),
            Read::Decimal(r) => Sample::Gauge(format!("{:.3}", r(tally))),
            Read::Histogram(r) => Sample::Histogram(r(tally)),
        }
    }

    /// The integer a counter or gauge reads (0 for the decimal and
    /// histogram families, which no fleet view sums).
    pub fn int(self, tally: &Tally, core: &SchedulerCore) -> u64 {
        match self {
            Read::Counter(r) | Read::Gauge(r) => r(tally, core),
            Read::Seconds(_) | Read::Decimal(_) | Read::Histogram(_) => 0,
        }
    }

    /// `value` (a reading, or a sum of readings) as this family's sample.
    pub fn with(self, value: u64) -> Sample<'static> {
        match self {
            Read::Counter(_) | Read::Seconds(_) => Sample::Counter(value.to_string()),
            Read::Gauge(_) | Read::Decimal(_) | Read::Histogram(_) => {
                Sample::Gauge(value.to_string())
            }
        }
    }
}

/// A family name and its HELP text.
pub type Name = (&'static str, &'static str);

/// One per-tenant number: every name it is served under, and how it is
/// read.
#[derive(Debug, Clone, Copy)]
pub struct Family {
    /// The tenant's own family (`GET /metrics?cluster=ID`).
    pub tenant: Option<Name>,
    /// The fleet's per-tenant family, labelled `cluster="ID"`.
    pub cluster: Option<Name>,
    /// The fleet's sum over every tenant.
    pub fleet: Option<Name>,
    /// The fleet-wide total's key in `/statusz`.
    pub total_key: Option<&'static str>,
    /// The key in each `/statusz` `per_cluster` row.
    pub row_key: Option<&'static str>,
    /// How the value is read, and its type.
    pub read: Read,
}

impl Family {
    const fn new(read: Read) -> Family {
        Family {
            tenant: None,
            cluster: None,
            fleet: None,
            total_key: None,
            row_key: None,
            read,
        }
    }

    const fn counter(read: fn(&Tally, &SchedulerCore) -> u64) -> Family {
        Family::new(Read::Counter(read))
    }

    const fn gauge(read: fn(&Tally, &SchedulerCore) -> u64) -> Family {
        Family::new(Read::Gauge(read))
    }

    const fn histogram(read: fn(&Tally) -> &Histogram) -> Family {
        Family::new(Read::Histogram(read))
    }

    const fn tenant(mut self, name: &'static str, help: &'static str) -> Family {
        self.tenant = Some((name, help));
        self
    }

    const fn cluster(mut self, name: &'static str, help: &'static str) -> Family {
        self.cluster = Some((name, help));
        self
    }

    const fn fleet(mut self, name: &'static str, help: &'static str) -> Family {
        self.fleet = Some((name, help));
        self
    }

    const fn statusz(mut self, total: Option<&'static str>, row: Option<&'static str>) -> Family {
        self.total_key = total;
        self.row_key = row;
        self
    }
}

/// Every per-tenant number, in the order each view serves its rows.
///
/// The decision count has two rows: the fleet's families list it before
/// the queue gauges, the tenant's own exposition after them, and both
/// orders are pinned by the golden files.
pub static FAMILIES: &[Family] = &[
    Family::counter(|t, _| t.submitted)
        .cluster(
            "sbs_cluster_submitted_total",
            "Jobs admitted, per tenant (capped cardinality; overflow in _other).",
        )
        .fleet(
            "sbs_fleet_submitted_total",
            "Jobs admitted across all tenants.",
        )
        .statusz(Some("submitted"), Some("submitted")),
    Family::counter(|t, _| t.rejected)
        .cluster(
            "sbs_cluster_rejected_total",
            "Submissions refused, per tenant.",
        )
        .fleet(
            "sbs_fleet_rejected_total",
            "Submissions refused by quota, fairshare, or the daemon.",
        )
        .statusz(Some("rejected"), Some("rejected")),
    Family::counter(|t, _| t.decisions)
        .cluster(
            "sbs_cluster_decisions_total",
            "Decision points executed, per tenant.",
        )
        .fleet(
            "sbs_fleet_decisions_total",
            "Decision points executed across all tenants.",
        )
        .statusz(Some("decisions"), Some("decisions")),
    Family::gauge(|_, c| c.now()).tenant(
        "sbs_scheduler_time_seconds",
        "Scheduler clock at sample time",
    ),
    Family::gauge(|_, c| c.queue().len() as u64)
        .tenant("sbs_queue_depth", "Jobs waiting in the queue")
        .cluster("sbs_cluster_queue_depth", "Waiting jobs, per tenant.")
        .fleet(
            "sbs_fleet_queue_depth",
            "Waiting jobs summed over all tenants.",
        )
        .statusz(Some("queue_depth"), Some("queue_depth")),
    Family::gauge(|_, c| c.running().len() as u64)
        .tenant("sbs_running_jobs", "Jobs currently running")
        .cluster("sbs_cluster_running_jobs", "Running jobs, per tenant.")
        .fleet(
            "sbs_fleet_running_jobs",
            "Running jobs summed over all tenants.",
        )
        .statusz(Some("running"), Some("running")),
    Family::gauge(|_, c| u64::from(c.free_nodes()))
        .tenant("sbs_free_nodes", "Idle nodes")
        .statusz(None, Some("free_nodes")),
    Family::gauge(|_, c| u64::from(c.capacity()))
        .tenant("sbs_capacity_nodes", "Machine size in nodes"),
    Family::counter(|t, _| t.decisions).tenant("sbs_decisions_total", "Decision points executed"),
    Family::counter(|t, _| t.search_nodes)
        .tenant("sbs_search_nodes_total", "Search tree nodes expanded")
        .statusz(Some("search_nodes"), None),
    Family::new(Read::Seconds(|t| t.policy_nanos)).tenant(
        "sbs_policy_seconds_total",
        "Wall-clock seconds spent inside the policy",
    ),
    Family::counter(|t, _| t.wait_seconds.count())
        .tenant("sbs_completed_jobs_total", "Jobs completed"),
    Family::new(Read::Decimal(|t| {
        let w = &t.wait_seconds;
        if w.count() == 0 {
            0.0
        } else {
            w.sum() as f64 / w.count() as f64
        }
    }))
    .tenant("sbs_wait_seconds_mean", "Mean wait of completed jobs"),
    Family::gauge(|t, _| t.max_wait)
        .tenant("sbs_wait_seconds_max", "Maximum wait of completed jobs"),
    Family::counter(|t, _| t.backfill_blocked).tenant(
        "sbs_backfill_blocked_total",
        "Jobs skipped by backfill with no reservation",
    ),
    Family::counter(|t, _| t.backfill_examined).tenant(
        "sbs_backfill_examined_total",
        "Queue entries examined by backfill passes",
    ),
    Family::counter(|t, _| t.backfill_reserved).tenant(
        "sbs_backfill_reserved_total",
        "Jobs granted a future reservation by backfill",
    ),
    Family::counter(|t, _| t.backfill_started).tenant(
        "sbs_backfill_started_total",
        "Jobs started by backfill passes",
    ),
    Family::counter(|t, _| t.jobs_started).tenant(
        "sbs_jobs_started_total",
        "Jobs started by scheduler decisions",
    ),
    Family::counter(|t, _| t.search_budget_hits).tenant(
        "sbs_search_budget_hits_total",
        "Decisions stopped by the node budget",
    ),
    Family::counter(|t, _| t.search_deadline_nodes_left).tenant(
        "sbs_search_deadline_nodes_left_total",
        "Node budget left unspent across deadline truncations",
    ),
    Family::counter(|t, _| t.search_deadline_truncations)
        .tenant(
            "sbs_search_deadline_truncations_total",
            "Decisions cut by the wall-clock deadline with node budget unspent",
        )
        .statusz(Some("deadline_truncations"), None),
    Family::counter(|t, _| t.search_exhausted).tenant(
        "sbs_search_exhausted_total",
        "Decisions whose ordering tree was fully enumerated",
    ),
    Family::counter(|t, _| t.search_fallbacks).tenant(
        "sbs_search_fallbacks_total",
        "Decisions that fell back to the greedy heuristic path",
    ),
    Family::counter(|t, _| t.search_improvements).tenant(
        "sbs_search_improvements_total",
        "Incumbent improvements during search",
    ),
    Family::counter(|t, _| t.search_leaves).tenant(
        "sbs_search_leaves_total",
        "Complete schedules evaluated by the search",
    ),
    Family::counter(|t, _| t.search_local_nodes).tenant(
        "sbs_search_local_nodes_total",
        "Nodes spent in hill-climbing refinement",
    ),
    Family::counter(|t, _| t.search_pruned).tenant(
        "sbs_search_pruned_total",
        "Subtrees cut by the branch-and-bound prune bound",
    ),
    Family::histogram(|t| &t.decision_wall_nanos)
        .tenant(
            "sbs_decision_wall_nanos",
            "Wall-clock nanoseconds per scheduler decision",
        )
        .cluster(
            "sbs_cluster_decision_wall_nanos",
            "Per-decision wall time, per tenant.",
        ),
    Family::histogram(|t| &t.queue_depth_at_decision).tenant(
        "sbs_queue_depth_at_decision",
        "Queue depth observed at each decision point",
    ),
    Family::histogram(|t| &t.search_best_iteration).tenant(
        "sbs_search_best_iteration",
        "Discrepancy iteration of the final incumbent",
    ),
    Family::histogram(|t| &t.search_nodes_per_decision).tenant(
        "sbs_search_nodes_per_decision",
        "Search nodes expanded per decision",
    ),
    Family::histogram(|t| &t.search_nodes_to_best).tenant(
        "sbs_search_nodes_to_best",
        "Nodes expanded when the final incumbent was found",
    ),
    Family::histogram(|t| &t.wait_seconds).tenant("sbs_wait_seconds", "Wait of completed jobs"),
    Family::counter(|t, _| t.incidents).statusz(Some("incidents_captured"), Some("incidents")),
];

/// One tenant's own exposition, as `GET /metrics?cluster=ID` serves it:
/// every family with a tenant name, in table order.
pub fn tenant_text(tally: &Tally, core: &SchedulerCore) -> String {
    let mut e = Exposition::new();
    for f in FAMILIES {
        if let Some((name, help)) = f.tenant {
            e.push(name, help, Vec::new(), f.read.sample(tally, core));
        }
    }
    e.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbs_core::prelude::{fcfs_backfill, Job, JobId, RuntimeKnowledge};
    use sbs_obs::expo::validate;
    use sbs_workload::time::Time;

    fn sample() -> (Tally, SchedulerCore) {
        let mut tally = Tally {
            decisions: 42,
            search_nodes: 123_456,
            policy_nanos: 2_500_000_000,
            ..Tally::default()
        };
        tally.complete(100);
        tally.complete(300);
        // Two of ten nodes free at 5,000 s: two jobs run, three wait.
        let mut core = SchedulerCore::new(10, RuntimeKnowledge::Actual, (0, Time::MAX));
        for id in 0..5 {
            core.submit(Job::new(JobId(id), 0, 4, 10_000, 10_000));
        }
        core.decide(&mut fcfs_backfill(), None);
        core.advance_to(5_000);
        (tally, core)
    }

    #[test]
    fn renders_every_series_once_and_typed() {
        let (tally, core) = sample();
        let text = tenant_text(&tally, &core);
        for needle in [
            "sbs_queue_depth 3\n",
            "sbs_running_jobs 2\n",
            "sbs_free_nodes 2\n",
            "sbs_capacity_nodes 10\n",
            "sbs_decisions_total 42\n",
            "sbs_search_nodes_total 123456\n",
            "sbs_policy_seconds_total 2.500000\n",
            "sbs_completed_jobs_total 2\n",
            "sbs_wait_seconds_mean 200.000\n",
            "sbs_wait_seconds_max 300\n",
            "sbs_wait_seconds_bucket{le=\"600\"} 2\n",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
        let tenant_rows = FAMILIES.iter().filter(|f| f.tenant.is_some()).count();
        assert_eq!(text.matches("# TYPE").count(), tenant_rows);
        // The monotone totals are true counters, not gauges.
        for counter in [
            "sbs_decisions_total",
            "sbs_search_nodes_total",
            "sbs_policy_seconds_total",
            "sbs_completed_jobs_total",
        ] {
            assert!(
                text.contains(&format!("# TYPE {counter} counter\n")),
                "{counter} must be typed counter in:\n{text}"
            );
        }
        validate(&text).expect("exposition validates");
    }

    #[test]
    fn recorder_families_join_without_duplicates() {
        // Every name and HELP string of the table is declared once, and
        // each number a family serves in two places reads the same field.
        let mut names: Vec<&str> = FAMILIES
            .iter()
            .flat_map(|f| [f.tenant, f.cluster, f.fleet])
            .flatten()
            .flat_map(|(name, help)| [name, help])
            .collect();
        let declared = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), declared, "a name or HELP string repeats");
        let (tally, core) = sample();
        let families = validate(&tenant_text(&tally, &core)).expect("exposition validates");
        assert!(families.iter().all(|f| f.name.starts_with("sbs_")));
        for f in FAMILIES {
            if f.cluster.is_some() || f.fleet.is_some() {
                assert!(
                    !matches!(f.read, Read::Seconds(_) | Read::Decimal(_)),
                    "the fleet sums integers and merges histograms only"
                );
            }
        }
    }

    #[test]
    fn empty_stats_do_not_divide_by_zero() {
        let core = SchedulerCore::new(8, RuntimeKnowledge::Actual, (0, Time::MAX));
        let text = tenant_text(&Tally::default(), &core);
        assert!(text.contains("sbs_wait_seconds_mean 0.000\n"));
        assert!(text.contains("sbs_wait_seconds_count 0\n"));
        validate(&text).expect("exposition validates");
    }
}
