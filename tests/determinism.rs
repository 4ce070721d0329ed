//! Determinism regression: the invariants the clippy bans and the
//! float-ordering scan (`tests/static_checks.rs`) enforce statically,
//! verified dynamically.
//!
//! Two identical `simulate()` runs must be *byte-identical* — same
//! per-job start times, same rendered metric tables.  This is what the
//! BTreeMap conversions (fairshare weights, per-user accumulators,
//! predictor history) and the `total_cmp` sorts buy: no run-to-run
//! drift from `HashMap` iteration order or NaN-unsafe comparators.

use sbs_core::prelude::*;
use sbs_core::FairshareObjective;
use sbs_metrics::fairness::{per_user, usage_shares};
use sbs_metrics::table::Table;
use sbs_sim::JobRecord;
use std::sync::Arc;

fn workload() -> Workload {
    WorkloadBuilder::month(Month::Jun03)
        .span_scale(0.03)
        .seed(7)
        .build()
}

/// `(id, start)` per job, in completion order — the schedule itself.
fn starts(records: &[JobRecord]) -> Vec<(u32, u64)> {
    records.iter().map(|r| (r.id.0, r.start)).collect()
}

/// Renders the per-user fairness table exactly as a report would.
fn fairness_table(records: &[JobRecord]) -> String {
    let mut t = Table::new(["user", "jobs", "avg_wait_h", "bsld", "share"]);
    for u in per_user(records) {
        t.row(&[
            u.user.to_string(),
            u.jobs.to_string(),
            format!("{:.6}", u.avg_wait_h),
            format!("{:.6}", u.avg_bounded_slowdown),
            format!("{:.6}", u.demand_share),
        ]);
    }
    t.render()
}

#[test]
fn dds_lxf_dynb_is_run_to_run_deterministic() {
    let w = workload();
    let a = simulate(&w, SearchPolicy::dds_lxf_dynb(500), SimConfig::default());
    let b = simulate(&w, SearchPolicy::dds_lxf_dynb(500), SimConfig::default());

    assert_eq!(
        starts(&a.records),
        starts(&b.records),
        "per-job start times differ between identical runs"
    );

    let (sa, sb) = (
        WaitStats::over(a.in_window()),
        WaitStats::over(b.in_window()),
    );
    assert_eq!(
        format!("{sa:?}"),
        format!("{sb:?}"),
        "aggregate wait statistics differ between identical runs"
    );
    assert_eq!(
        fairness_table(&a.records),
        fairness_table(&b.records),
        "rendered per-user metric tables differ between identical runs"
    );
}

#[test]
fn fairshare_pipeline_is_deterministic_end_to_end() {
    // The full two-phase fairshare ablation path: derive usage shares
    // from a base run, weight the objective with them, re-run.  This is
    // the path that iterated a HashMap before the BTreeMap conversion.
    let w = workload();
    let run = || {
        let base = simulate(&w, SearchPolicy::dds_lxf_dynb(300), SimConfig::default());
        let shares = usage_shares(&base.records);
        let fair = SearchPolicy::dds_lxf_dynb(300)
            .with_objective(Arc::new(FairshareObjective::from_usage_shares(&shares)));
        let result = simulate(&w, fair, SimConfig::default());
        (
            shares,
            starts(&result.records),
            fairness_table(&result.records),
        )
    };
    let (shares_a, starts_a, table_a) = run();
    let (shares_b, starts_b, table_b) = run();
    assert_eq!(shares_a, shares_b, "usage shares differ");
    assert_eq!(starts_a, starts_b, "fairshare-weighted schedule differs");
    assert_eq!(table_a, table_b, "fairshare metric tables differ");
}
