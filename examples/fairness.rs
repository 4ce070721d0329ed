//! The paper's per-user fairness extension, live.
//!
//! 1. Runs DDS/lxf/dynB on a high-load month and shows the per-user
//!    service breakdown (heavy users vs light users) plus Jain's
//!    fairness index;
//! 2. re-runs with the fairshare-weighted objective and compares.
//!
//! ```text
//! cargo run --release --example fairness
//! ```

use sbs_core::prelude::*;
use sbs_core::FairshareObjective;
use sbs_metrics::fairness::{per_user, slowdown_fairness, usage_shares};
use sbs_metrics::table::{num, Table};
use sbs_metrics::timeline::utilization_panel;
use std::sync::Arc;

fn main() {
    let workload = WorkloadBuilder::month(Month::Nov03)
        .span_scale(0.25)
        .seed(5)
        .target_load(0.9)
        .build();
    println!(
        "November-2003-like workload: {} jobs, offered load {:.2}\n",
        workload.jobs.len(),
        workload.offered_load()
    );

    // --- 1. baseline + per-user breakdown -------------------------------
    let base = simulate(
        &workload,
        SearchPolicy::dds_lxf_dynb(1_000),
        SimConfig::default(),
    );
    let base_records: Vec<_> = base.in_window().copied().collect();
    println!("== per-user service under {} ==\n", base.policy);
    let mut t = Table::new(["user", "jobs", "demand %", "avg wait (h)", "avg bsld"]);
    for u in per_user(&base_records).into_iter().take(8) {
        t.row([
            format!("u{}", u.user),
            u.jobs.to_string(),
            num(u.demand_share * 100.0, 1),
            num(u.avg_wait_h, 2),
            num(u.avg_bounded_slowdown, 2),
        ]);
    }
    println!("{}", t.render());
    println!(
        "Jain fairness over user slowdowns: {:.3}\n",
        slowdown_fairness(&base_records)
    );

    // --- 2. fairshare-weighted objective --------------------------------
    let shares = usage_shares(&base_records);
    let fair_policy = SearchPolicy::dds_lxf_dynb(1_000)
        .with_objective(Arc::new(FairshareObjective::from_usage_shares(&shares)));
    let fair = simulate(&workload, fair_policy, SimConfig::default());
    let fair_records: Vec<_> = fair.in_window().copied().collect();
    println!(
        "== fairshare objective: Jain {:.3} (was {:.3}) ==\n",
        slowdown_fairness(&fair_records),
        slowdown_fairness(&base_records)
    );

    // --- machine occupancy at a glance ----------------------------------
    println!("== machine occupancy over the window ==\n");
    print!(
        "{}",
        utilization_panel(
            &base.policy,
            &base_records,
            workload.capacity,
            workload.window,
            64
        )
    );
}
