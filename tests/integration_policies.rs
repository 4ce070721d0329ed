//! Cross-crate integration: every policy spec the workspace can build,
//! run end-to-end through the simulator on realistic (scaled) monthly
//! workloads, with physical invariants verified.

use sbs_backfill::PriorityOrder;
use sbs_core::experiment::{run_on, Scenario};
use sbs_core::prelude::*;
use sbs_core::{Branching, SearchAlgo};
use sbs_sim::engine::check_invariants;
use sbs_sim::engine::simulate as raw_simulate;

fn all_specs() -> Vec<PolicySpec> {
    vec![
        PolicySpec::FcfsBackfill,
        PolicySpec::LxfBackfill,
        PolicySpec::SjfBackfill,
        PolicySpec::LxfwBackfill,
        PolicySpec::SelectiveBackfill,
        PolicySpec::BackfillWithReservations {
            order: PriorityOrder::Fcfs,
            reservations: 4,
        },
        PolicySpec::search_dynb(SearchAlgo::Dds, Branching::Lxf, 500),
        PolicySpec::search_dynb(SearchAlgo::Dds, Branching::Fcfs, 500),
        PolicySpec::search_dynb(SearchAlgo::Lds, Branching::Lxf, 500),
        PolicySpec::search_dynb(SearchAlgo::Lds, Branching::Fcfs, 500),
        PolicySpec::dds_lxf_fixed(50 * HOUR, 500),
        PolicySpec::Search {
            algo: SearchAlgo::Dds,
            branching: Branching::Lxf,
            bound: sbs_core::TargetBound::Dynamic,
            node_limit: 500,
            prune: true,
        },
        PolicySpec::search_dynb(SearchAlgo::Portfolio, Branching::Lxf, 500),
        PolicySpec::HybridSearch {
            algo: SearchAlgo::Dds,
            branching: Branching::Lxf,
            bound: sbs_core::TargetBound::Dynamic,
            node_limit: 500,
            local_frac: 0.3,
        },
        PolicySpec::search_dynb(SearchAlgo::Random, Branching::Lxf, 500),
        PolicySpec::search_dynb(SearchAlgo::Beam(8), Branching::Lxf, 500),
    ]
}

#[test]
fn every_policy_schedules_every_scaled_month() {
    for month in [Month::Jun03, Month::Jul03, Month::Jan04] {
        let scenario = Scenario::original(month).with_scale(0.03);
        let workload = scenario.workload();
        for spec in all_specs() {
            let result = raw_simulate(
                &workload,
                spec.build(),
                SimConfig {
                    knowledge: scenario.knowledge,
                    ..Default::default()
                },
            );
            check_invariants(&result);
            assert_eq!(
                result.records.len(),
                workload.jobs.len(),
                "{}: lost jobs under {}",
                month,
                spec.name()
            );
        }
    }
}

#[test]
fn fcfs_backfill_has_zero_excess_wrt_its_own_max_by_construction() {
    let scenario = Scenario::high_load(Month::Oct03).with_scale(0.05);
    let workload = scenario.workload();
    let fcfs = run_on(&workload, &scenario, &PolicySpec::FcfsBackfill);
    let e = fcfs.excess(fcfs.max_wait());
    assert_eq!(e.total_h, 0.0);
    assert_eq!(e.jobs_with_excess, 0);
}

#[test]
fn requested_runtimes_never_break_the_schedule() {
    // R* = R mode: predictions over-estimate; everything must still run.
    let scenario = Scenario::high_load(Month::Sep03)
        .with_scale(0.04)
        .with_knowledge(RuntimeKnowledge::Requested);
    let workload = scenario.workload();
    for spec in [PolicySpec::FcfsBackfill, PolicySpec::dds_lxf_dynb(400)] {
        let result = raw_simulate(
            &workload,
            spec.build(),
            SimConfig {
                knowledge: RuntimeKnowledge::Requested,
                ..Default::default()
            },
        );
        check_invariants(&result);
    }
}

#[test]
fn search_policy_dominates_greedy_heuristic_on_its_own_objective() {
    // DDS/lxf with a real budget should not lose to its own iteration-0
    // path (the pure lxf greedy schedule = a 1-wide search) on the
    // measures the objective optimizes, summed over a month.
    let scenario = Scenario::high_load(Month::Nov03).with_scale(0.05);
    let workload = scenario.workload();
    let wide = run_on(&workload, &scenario, &PolicySpec::dds_lxf_dynb(2_000));
    // Budget so small every decision falls back to the heuristic path.
    let narrow = run_on(
        &workload,
        &scenario,
        &PolicySpec::Search {
            algo: SearchAlgo::Dds,
            branching: Branching::Lxf,
            bound: sbs_core::TargetBound::Dynamic,
            node_limit: 1,
            prune: false,
        },
    );
    // The sequential decision process means per-decision optimality does
    // not guarantee end-to-end dominance, but across a whole month the
    // searched policy must not be dramatically worse on max wait.  The
    // 2x tolerance absorbs workload-generator stream variation.
    assert!(
        wide.stats.max_wait_h <= narrow.stats.max_wait_h * 2.0 + 1.0,
        "searched {} h vs greedy {} h",
        wide.stats.max_wait_h,
        narrow.stats.max_wait_h
    );
    let t = narrow.search.expect("narrow totals");
    // L=1 completes the path only for single-job queues; every longer
    // queue must have fallen back to the greedy heuristic path.
    assert!(t.fallbacks > 0, "multi-job queues must fall back at L=1");
    assert!(t.fallbacks <= t.decisions);
}

#[test]
fn search_totals_accumulate_within_budget() {
    let scenario = Scenario::original(Month::Feb04).with_scale(0.04);
    let r = sbs_core::experiment::run(&scenario, &PolicySpec::dds_lxf_dynb(300));
    let t = r.search.expect("totals");
    assert!(t.decisions > 0);
    // Per decision, node usage can never exceed the budget.
    assert!(t.nodes <= t.decisions * 300);
    assert!(t.leaves > 0);
}

#[test]
fn online_prediction_runs_end_to_end() {
    use sbs_sim::prediction::PredictorSpec;
    let scenario = Scenario::high_load(Month::Oct03)
        .with_scale(0.05)
        .with_predictor(PredictorSpec::RecentUserAverage);
    let workload = scenario.workload();
    for spec in [PolicySpec::FcfsBackfill, PolicySpec::dds_lxf_dynb(400)] {
        let r = run_on(&workload, &scenario, &spec);
        assert_eq!(r.records.len(), workload.in_window().count());
        // Predictions must be within the request bound for every job.
        for rec in &r.records {
            assert!(
                rec.r_star >= 1 && rec.r_star <= rec.requested,
                "{}: R*={} outside [1, {}]",
                rec.id,
                rec.r_star,
                rec.requested
            );
        }
        // Prediction should beat the raw requests on average accuracy.
        let pred_err: f64 =
            r.records.iter().map(|x| x.prediction_error()).sum::<f64>() / r.records.len() as f64;
        let req_err: f64 = r
            .records
            .iter()
            .map(|x| x.requested.abs_diff(x.runtime) as f64 / x.runtime as f64)
            .sum::<f64>()
            / r.records.len() as f64;
        assert!(
            pred_err < req_err,
            "prediction error {pred_err:.2} should beat request error {req_err:.2}"
        );
    }
}

#[test]
fn lxf_branching_beats_fcfs_branching_on_slowdown() {
    // Figure 7's first finding, at reduced scale, summed over months.
    let months = [Month::Sep03, Month::Oct03, Month::Feb04];
    let mut fcfs_sum = 0.0;
    let mut lxf_sum = 0.0;
    for month in months {
        let scenario = Scenario::high_load(month).with_scale(0.08);
        let workload = scenario.workload();
        let fcfs = run_on(
            &workload,
            &scenario,
            &PolicySpec::search_dynb(SearchAlgo::Dds, Branching::Fcfs, 500),
        );
        let lxf = run_on(
            &workload,
            &scenario,
            &PolicySpec::search_dynb(SearchAlgo::Dds, Branching::Lxf, 500),
        );
        fcfs_sum += fcfs.stats.avg_bounded_slowdown;
        lxf_sum += lxf.stats.avg_bounded_slowdown;
    }
    assert!(
        lxf_sum < fcfs_sum,
        "lxf branching total slowdown {lxf_sum:.1} should beat fcfs {fcfs_sum:.1}"
    );
}

#[test]
fn selective_backfill_tracks_lxf_backfill() {
    // Paper Section 3.2: Selective-backfill performs very similarly to
    // LXF-backfill on these workloads.  At small scale we just check the
    // average waits are in the same ballpark (within 2x) and both far
    // from pathological.
    let scenario = Scenario::high_load(Month::Oct03).with_scale(0.08);
    let workload = scenario.workload();
    let lxf = run_on(&workload, &scenario, &PolicySpec::LxfBackfill);
    let sel = run_on(&workload, &scenario, &PolicySpec::SelectiveBackfill);
    let (a, b) = (
        lxf.stats.avg_wait_h.max(0.05),
        sel.stats.avg_wait_h.max(0.05),
    );
    assert!(
        a / b < 3.0 && b / a < 3.0,
        "LXF {a:.2} h vs Selective {b:.2} h"
    );
}
