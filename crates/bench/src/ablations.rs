//! Ablations beyond the paper's figures (DESIGN.md `ablate-*` entries):
//! branch-and-bound pruning (the paper's stated future work), backfill
//! reservation counts (the paper's Section 4 claim), and the paper's
//! future-work extensions.

use crate::opts::Opts;
use crate::report::Report;
use rayon::prelude::*;
use sbs_backfill::PriorityOrder;
use sbs_core::experiment::{run, run_on, RunResult, Scenario};
use sbs_core::{Branching, PolicySpec, SearchAlgo, TargetBound};
use sbs_metrics::table::{num, Table};
use sbs_workload::job::RuntimeKnowledge;
use sbs_workload::system::Month;
use serde_json::json;

fn high_load_scenario(opts: &Opts, month: Month) -> Scenario {
    Scenario::high_load(month)
        .with_scale(opts.scale)
        .with_knowledge(RuntimeKnowledge::Actual)
}

/// `ablate-bnb`: does branch-and-bound pruning help DDS within a fixed
/// node budget?  (Paper Section 7 flags pruning as future work.)
pub fn branch_and_bound(opts: &Opts) -> Report {
    let months: Vec<Month> = opts.months.clone();
    let budgets = [opts.budget(1_000), opts.budget(4_000)];
    let mut t = Table::new([
        "month",
        "L",
        "pruned?",
        "avg wait (h)",
        "max wait (h)",
        "avg bsld",
        "leaves/decision",
    ]);
    let mut data = Vec::new();
    let runs: Vec<(Month, u64, bool, RunResult)> = months
        .par_iter()
        .flat_map(|&month| {
            let scenario = high_load_scenario(opts, month);
            let workload = scenario.workload();
            let combos: Vec<(u64, bool)> = budgets
                .iter()
                .flat_map(|&l| [(l, false), (l, true)])
                .collect();
            combos
                .into_par_iter()
                .map(|(l, prune)| {
                    let spec = PolicySpec::Search {
                        algo: SearchAlgo::Dds,
                        branching: Branching::Lxf,
                        bound: TargetBound::Dynamic,
                        node_limit: l,
                        prune,
                    };
                    (month, l, prune, run_on(&workload, &scenario, &spec))
                })
                .collect::<Vec<_>>()
        })
        .collect();
    for (month, l, prune, r) in &runs {
        let totals = r.search.expect("search policy");
        let leaves_per_decision = totals.leaves as f64 / totals.decisions.max(1) as f64;
        t.row([
            month.label().to_string(),
            l.to_string(),
            if *prune { "yes" } else { "no" }.to_string(),
            num(r.stats.avg_wait_h, 2),
            num(r.stats.max_wait_h, 1),
            num(r.stats.avg_bounded_slowdown, 2),
            num(leaves_per_decision, 1),
        ]);
        data.push(json!({
            "month": month.label(), "L": *l, "prune": *prune,
            "avg_wait_h": r.stats.avg_wait_h,
            "max_wait_h": r.stats.max_wait_h,
            "avg_bounded_slowdown": r.stats.avg_bounded_slowdown,
            "leaves_per_decision": leaves_per_decision,
        }));
    }
    Report::new(
        "ablate-bnb",
        "branch-and-bound pruning vs plain DDS/lxf/dynB at equal budgets; rho=0.9",
        t.render(),
        json!(data),
    )
}

/// `ablate-res`: the paper's Section 4 remark that giving backfill more
/// than one reservation does not improve performance.
pub fn reservations(opts: &Opts) -> Report {
    let counts = [1usize, 2, 4];
    let mut t = Table::new([
        "month",
        "reservations",
        "avg wait (h)",
        "max wait (h)",
        "avg bsld",
    ]);
    let mut data = Vec::new();
    let runs: Vec<(Month, usize, RunResult)> = opts
        .months
        .par_iter()
        .flat_map(|&month| {
            let scenario = high_load_scenario(opts, month);
            let workload = scenario.workload();
            counts
                .into_par_iter()
                .map(|k| {
                    let spec = PolicySpec::BackfillWithReservations {
                        order: PriorityOrder::Fcfs,
                        reservations: k,
                    };
                    (month, k, run_on(&workload, &scenario, &spec))
                })
                .collect::<Vec<_>>()
        })
        .collect();
    for (month, k, r) in &runs {
        t.row([
            month.label().to_string(),
            k.to_string(),
            num(r.stats.avg_wait_h, 2),
            num(r.stats.max_wait_h, 1),
            num(r.stats.avg_bounded_slowdown, 2),
        ]);
        data.push(json!({
            "month": month.label(), "reservations": *k,
            "avg_wait_h": r.stats.avg_wait_h,
            "max_wait_h": r.stats.max_wait_h,
            "avg_bounded_slowdown": r.stats.avg_bounded_slowdown,
        }));
    }
    Report::new(
        "ablate-res",
        "FCFS-backfill with 1/2/4 reservations; rho=0.9 (paper: more reservations don't help)",
        t.render(),
        json!(data),
    )
}

/// `ablate-fairshare`: the fairshare objective extension (paper
/// Section 7 future work).  Phase 1 runs standard DDS/lxf/dynB and
/// derives per-user usage shares; phase 2 re-runs with excess weighted
/// by those shares.  Reported: aggregate measures plus Jain's fairness
/// index over per-user average slowdowns.
pub fn fairshare(opts: &Opts) -> Report {
    use sbs_core::objective::FairshareObjective;
    use sbs_metrics::fairness::{slowdown_fairness, usage_shares};
    use sbs_metrics::WaitStats;
    use sbs_sim::engine::{simulate, SimConfig};
    use std::sync::Arc;

    let l = opts.budget(2_000);
    let mut t = Table::new([
        "month",
        "objective",
        "avg wait (h)",
        "max wait (h)",
        "avg bsld",
        "Jain(user bsld)",
    ]);
    let mut data = Vec::new();
    let runs: Vec<(Month, &'static str, WaitStats, f64)> = opts
        .months
        .par_iter()
        .flat_map(|&month| {
            let scenario = high_load_scenario(opts, month);
            let workload = scenario.workload();
            // Phase 1: the paper's objective.
            let base = simulate(
                &workload,
                sbs_core::SearchPolicy::dds_lxf_dynb(l),
                SimConfig::default(),
            );
            let base_records: Vec<_> = base.in_window().copied().collect();
            let shares = usage_shares(&base_records);
            // Phase 2: fairshare-weighted excess.
            let fair_policy = sbs_core::SearchPolicy::dds_lxf_dynb(l)
                .with_objective(Arc::new(FairshareObjective::from_usage_shares(&shares)));
            let fair = simulate(&workload, fair_policy, SimConfig::default());
            let fair_records: Vec<_> = fair.in_window().copied().collect();
            vec![
                (
                    month,
                    "hierarchical",
                    WaitStats::over(&base_records),
                    slowdown_fairness(&base_records),
                ),
                (
                    month,
                    "fairshare",
                    WaitStats::over(&fair_records),
                    slowdown_fairness(&fair_records),
                ),
            ]
        })
        .collect();
    for (month, objective, stats, jain) in &runs {
        t.row([
            month.label().to_string(),
            objective.to_string(),
            num(stats.avg_wait_h, 2),
            num(stats.max_wait_h, 1),
            num(stats.avg_bounded_slowdown, 2),
            num(*jain, 3),
        ]);
        data.push(json!({
            "month": month.label(), "objective": *objective,
            "avg_wait_h": stats.avg_wait_h,
            "max_wait_h": stats.max_wait_h,
            "avg_bounded_slowdown": stats.avg_bounded_slowdown,
            "jain_user_bsld": *jain,
        }));
    }
    Report::new(
        "ablate-fairshare",
        format!("fairshare-weighted objective vs the paper's; DDS/lxf/dynB, rho=0.9, L={l}"),
        t.render(),
        json!(data),
    )
}

/// `ablate-predict`: runtime prediction as the `R*` source (paper
/// Section 7 future work) — DDS/lxf/dynB and FCFS-backfill under
/// `R* = R` (user requests), `R* = recent-user-average prediction` and
/// the cheating upper bound `R* = T`.
pub fn prediction(opts: &Opts) -> Report {
    use sbs_sim::prediction::PredictorSpec;
    let l = opts.budget(4_000);
    #[derive(Clone, Copy)]
    enum Mode {
        Requested,
        Predicted,
        Actual,
    }
    let modes = [Mode::Requested, Mode::Predicted, Mode::Actual];
    let mode_label = |m: &Mode| match m {
        Mode::Requested => "R*=R",
        Mode::Predicted => "R*=pred",
        Mode::Actual => "R*=T",
    };
    let mut t = Table::new([
        "month",
        "policy",
        "R* source",
        "avg wait (h)",
        "max wait (h)",
        "avg bsld",
        "mean |R*-T|/T",
    ]);
    let mut data = Vec::new();
    let runs: Vec<(Month, &'static str, RunResult)> = opts
        .months
        .par_iter()
        .flat_map(|&month| {
            modes
                .into_par_iter()
                .flat_map_iter(move |mode| {
                    [PolicySpec::FcfsBackfill, PolicySpec::dds_lxf_dynb(l)]
                        .into_iter()
                        .map(move |spec| (mode, spec))
                })
                .map(move |(mode, spec)| {
                    let mut scenario = high_load_scenario(opts, month);
                    match mode {
                        Mode::Requested => {
                            scenario = scenario.with_knowledge(RuntimeKnowledge::Requested);
                        }
                        Mode::Predicted => {
                            scenario = scenario.with_predictor(PredictorSpec::RecentUserAverage);
                        }
                        Mode::Actual => {}
                    }
                    (month, mode_label(&mode), run(&scenario, &spec))
                })
                .collect::<Vec<_>>()
        })
        .collect();
    for (month, mode, r) in &runs {
        let err = r.records.iter().map(|x| x.prediction_error()).sum::<f64>()
            / r.records.len().max(1) as f64;
        t.row([
            month.label().to_string(),
            r.policy.clone(),
            mode.to_string(),
            num(r.stats.avg_wait_h, 2),
            num(r.stats.max_wait_h, 1),
            num(r.stats.avg_bounded_slowdown, 2),
            num(err, 2),
        ]);
        data.push(json!({
            "month": month.label(), "policy": r.policy.as_str(), "mode": *mode,
            "avg_wait_h": r.stats.avg_wait_h,
            "max_wait_h": r.stats.max_wait_h,
            "avg_bounded_slowdown": r.stats.avg_bounded_slowdown,
            "mean_relative_rstar_error": err,
        }));
    }
    Report::new(
        "ablate-predict",
        format!("runtime prediction as the R* source; rho=0.9, L={l}"),
        t.render(),
        json!(data),
    )
}

/// `ablate-random`: is systematic (discrepancy) search worth it?  DDS
/// and LDS vs uniformly random leaf sampling and beam search at the same
/// node budget and objective.
pub fn random_vs_systematic(opts: &Opts) -> Report {
    let l = opts.budget(2_000);
    let algos = [
        SearchAlgo::Dds,
        SearchAlgo::Lds,
        SearchAlgo::Random,
        SearchAlgo::Beam(16),
    ];
    let mut t = Table::new([
        "month",
        "algorithm",
        "avg wait (h)",
        "max wait (h)",
        "avg bsld",
        "leaves/decision",
    ]);
    let mut data = Vec::new();
    let runs: Vec<(Month, SearchAlgo, RunResult)> = opts
        .months
        .par_iter()
        .flat_map(|&month| {
            let scenario = high_load_scenario(opts, month);
            let workload = scenario.workload();
            algos
                .into_par_iter()
                .map(|algo| {
                    let spec = PolicySpec::Search {
                        algo,
                        branching: Branching::Lxf,
                        bound: TargetBound::Dynamic,
                        node_limit: l,
                        prune: false,
                    };
                    (month, algo, run_on(&workload, &scenario, &spec))
                })
                .collect::<Vec<_>>()
        })
        .collect();
    for (month, algo, r) in &runs {
        let totals = r.search.expect("search policy");
        let leaves = totals.leaves as f64 / totals.decisions.max(1) as f64;
        t.row([
            month.label().to_string(),
            algo.label(),
            num(r.stats.avg_wait_h, 2),
            num(r.stats.max_wait_h, 1),
            num(r.stats.avg_bounded_slowdown, 2),
            num(leaves, 1),
        ]);
        data.push(json!({
            "month": month.label(), "algorithm": algo.label(),
            "avg_wait_h": r.stats.avg_wait_h,
            "max_wait_h": r.stats.max_wait_h,
            "avg_bounded_slowdown": r.stats.avg_bounded_slowdown,
            "leaves_per_decision": leaves,
        }));
    }
    Report::new(
        "ablate-random",
        format!("systematic vs random/beam search at equal budgets; lxf/dynB, rho=0.9, L={l}"),
        t.render(),
        json!(data),
    )
}

/// `ablate-hybrid`: complete search vs the complete+local hybrid (the
/// paper's Section 2.2 future work) at equal total budgets.
pub fn hybrid_local(opts: &Opts) -> Report {
    let l = opts.budget(2_000);
    let fracs = [0.0f64, 0.25, 0.5];
    let mut t = Table::new([
        "month",
        "local frac",
        "avg wait (h)",
        "max wait (h)",
        "avg bsld",
        "leaves/decision",
    ]);
    let mut data = Vec::new();
    let runs: Vec<(Month, f64, RunResult)> = opts
        .months
        .par_iter()
        .flat_map(|&month| {
            let scenario = high_load_scenario(opts, month);
            let workload = scenario.workload();
            fracs
                .into_par_iter()
                .map(|frac| {
                    let spec = if frac == 0.0 {
                        PolicySpec::dds_lxf_dynb(l)
                    } else {
                        PolicySpec::HybridSearch {
                            algo: SearchAlgo::Dds,
                            branching: Branching::Lxf,
                            bound: TargetBound::Dynamic,
                            node_limit: l,
                            local_frac: frac,
                        }
                    };
                    (month, frac, run_on(&workload, &scenario, &spec))
                })
                .collect::<Vec<_>>()
        })
        .collect();
    for (month, frac, r) in &runs {
        let totals = r.search.expect("search policy");
        let leaves = totals.leaves as f64 / totals.decisions.max(1) as f64;
        t.row([
            month.label().to_string(),
            format!("{frac:.2}"),
            num(r.stats.avg_wait_h, 2),
            num(r.stats.max_wait_h, 1),
            num(r.stats.avg_bounded_slowdown, 2),
            num(leaves, 1),
        ]);
        data.push(json!({
            "month": month.label(), "local_frac": *frac,
            "avg_wait_h": r.stats.avg_wait_h,
            "max_wait_h": r.stats.max_wait_h,
            "avg_bounded_slowdown": r.stats.avg_bounded_slowdown,
            "leaves_per_decision": leaves,
        }));
    }
    Report::new(
        "ablate-hybrid",
        format!("DDS/lxf/dynB vs the complete+local hybrid at equal budgets; rho=0.9, L={l}"),
        t.render(),
        json!(data),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Opts {
        let mut o = Opts::quick();
        o.scale = 0.04;
        o.months = vec![Month::Sep03];
        o
    }

    #[test]
    fn reservations_ablation_runs() {
        let r = reservations(&tiny());
        assert_eq!(r.data.as_array().expect("rows").len(), 3);
    }

    #[test]
    fn bnb_ablation_reports_leaf_rates() {
        let r = branch_and_bound(&tiny());
        let rows = r.data.as_array().expect("rows");
        assert_eq!(rows.len(), 4); // 2 budgets x {plain, pruned}
        assert!(rows
            .iter()
            .all(|x| x["leaves_per_decision"].as_f64().expect("num") > 0.0));
    }
}
