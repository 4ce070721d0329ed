//! Simulation experiments: Figures 2-8.

use crate::opts::Opts;
use crate::report::Report;
use rayon::prelude::*;
use sbs_core::experiment::{run_on, LoadLevel, RunResult, Scenario};
use sbs_core::{Branching, PolicySpec, SearchAlgo};
use sbs_metrics::classes::{ClassGrid, NODE_LABELS, RUNTIME_LABELS};
use sbs_metrics::table::{num, Table};
use sbs_workload::job::RuntimeKnowledge;
use sbs_workload::system::Month;
use sbs_workload::time::HOUR;
use serde_json::json;

fn scenario(opts: &Opts, month: Month, load: LoadLevel, knowledge: RuntimeKnowledge) -> Scenario {
    let mut s = Scenario::original(month)
        .with_knowledge(knowledge)
        .with_scale(opts.scale);
    s.load = load;
    s
}

/// Runs `specs(month)` on one shared workload per month, months in
/// parallel.  Results preserve spec order within each month.
fn sweep(
    opts: &Opts,
    load: LoadLevel,
    knowledge: RuntimeKnowledge,
    specs: impl Fn(Month) -> Vec<PolicySpec> + Sync,
) -> Vec<(Month, Vec<RunResult>)> {
    opts.months
        .par_iter()
        .map(|&month| {
            let s = scenario(opts, month, load, knowledge);
            let w = s.workload();
            let specs = specs(month);
            let results: Vec<RunResult> =
                specs.par_iter().map(|spec| run_on(&w, &s, spec)).collect();
            (month, results)
        })
        .collect()
}

fn month_metric_table(
    title: &str,
    rows: &[(Month, Vec<RunResult>)],
    metric: impl Fn(&RunResult) -> f64,
    digits: usize,
) -> String {
    let policies: Vec<String> = rows[0].1.iter().map(|r| r.policy.clone()).collect();
    let mut t = Table::new(std::iter::once("month".to_string()).chain(policies));
    for (month, results) in rows {
        let mut cells = vec![month.label().to_string()];
        cells.extend(results.iter().map(|r| num(metric(r), digits)));
        t.row(cells);
    }
    format!("({title})\n{}", t.render())
}

fn results_json(rows: &[(Month, Vec<RunResult>)]) -> serde_json::Value {
    let mut out = Vec::new();
    for (month, results) in rows {
        for r in results {
            let fcfs_max = results[0].max_wait();
            let e = r.excess(fcfs_max);
            out.push(json!({
                "month": month.label(),
                "policy": r.policy.as_str(),
                "jobs": r.stats.jobs,
                "avg_wait_h": r.stats.avg_wait_h,
                "max_wait_h": r.stats.max_wait_h,
                "avg_bounded_slowdown": r.stats.avg_bounded_slowdown,
                "avg_queue_length": r.avg_queue_length,
                "utilization": r.utilization,
                "excess_total_h_vs_first_policy_max": e.total_h,
            }));
        }
    }
    json!(out)
}

/// Figure 2: sensitivity of DDS/lxf to the fixed target bound ω
/// (50/100/300 h), original load, L = 1K.
pub fn fig2(opts: &Opts) -> Report {
    let l = opts.budget(1_000);
    let rows = sweep(opts, LoadLevel::Original, RuntimeKnowledge::Actual, |_| {
        vec![
            PolicySpec::dds_lxf_fixed(50 * HOUR, l),
            PolicySpec::dds_lxf_fixed(100 * HOUR, l),
            PolicySpec::dds_lxf_fixed(300 * HOUR, l),
        ]
    });
    let text = format!(
        "{}\n{}",
        month_metric_table("a: max wait (h)", &rows, |r| r.stats.max_wait_h, 1),
        month_metric_table(
            "b: avg bounded slowdown",
            &rows,
            |r| r.stats.avg_bounded_slowdown,
            2
        ),
    );
    Report::new(
        "fig2",
        format!("sensitivity to fixed target bound; DDS/lxf, R*=T, original load, L={l}"),
        text,
        results_json(&rows),
    )
}

/// The headline trio with a per-month DDS budget.
fn trio(
    l_for: impl Fn(Month) -> u64 + Copy + Sync,
) -> impl Fn(Month) -> Vec<PolicySpec> + Sync + Copy {
    move |month| {
        vec![
            PolicySpec::FcfsBackfill,
            PolicySpec::LxfBackfill,
            PolicySpec::dds_lxf_dynb(l_for(month)),
        ]
    }
}

/// Figure 3: FCFS-BF vs LXF-BF vs DDS/lxf/dynB under the original load.
pub fn fig3(opts: &Opts) -> Report {
    let l = opts.budget(1_000);
    let rows = sweep(
        opts,
        LoadLevel::Original,
        RuntimeKnowledge::Actual,
        trio(move |_| l),
    );
    let text = format!(
        "{}\n{}\n{}",
        month_metric_table("a: avg wait (h)", &rows, |r| r.stats.avg_wait_h, 2),
        month_metric_table("b: max wait (h)", &rows, |r| r.stats.max_wait_h, 1),
        month_metric_table(
            "c: avg bounded slowdown",
            &rows,
            |r| r.stats.avg_bounded_slowdown,
            2
        ),
    );
    Report::new(
        "fig3",
        format!("performance comparisons under original load; R*=T, L={l}"),
        text,
        results_json(&rows),
    )
}

/// Figure 4: the trio under high load (rho = 0.9), eight panels
/// including the excessive-wait family (thresholds from FCFS-backfill).
pub fn fig4(opts: &Opts) -> Report {
    let l = opts.budget(1_000);
    let l_jan = opts.budget(8_000);
    let rows = sweep(
        opts,
        LoadLevel::Rho(0.9),
        RuntimeKnowledge::Actual,
        trio(move |m| if m == Month::Jan04 { l_jan } else { l }),
    );

    // Per-month thresholds from FCFS-backfill (always results[0]).
    let e98 = |r: &RunResult, results: &[RunResult]| r.excess(results[0].percentile_wait(98.0));
    let emax = |r: &RunResult, results: &[RunResult]| r.excess(results[0].max_wait());

    let excess_table = |title: &str, f: &dyn Fn(&RunResult, &[RunResult]) -> f64| {
        let policies: Vec<String> = rows[0].1.iter().map(|r| r.policy.clone()).collect();
        let mut t = Table::new(std::iter::once("month".to_string()).chain(policies));
        for (month, results) in &rows {
            let mut cells = vec![month.label().to_string()];
            cells.extend(results.iter().map(|r| num(f(r, results), 1)));
            t.row(cells);
        }
        format!("({title})\n{}", t.render())
    };

    let text = format!(
        "{}\n{}\n{}\n{}\n{}\n{}\n{}\n{}",
        month_metric_table("a: avg wait (h)", &rows, |r| r.stats.avg_wait_h, 2),
        month_metric_table("b: max wait (h)", &rows, |r| r.stats.max_wait_h, 1),
        month_metric_table(
            "c: avg bounded slowdown",
            &rows,
            |r| r.stats.avg_bounded_slowdown,
            2
        ),
        month_metric_table("d: avg queue length", &rows, |r| r.avg_queue_length, 1),
        excess_table("e: total E^98%_fcfs-bf (h)", &|r, all| e98(r, all).total_h),
        excess_table("f: total E^max_fcfs-bf (h)", &|r, all| emax(r, all).total_h),
        excess_table(
            "g: # jobs with E^max_fcfs-bf",
            &|r, all| emax(r, all).jobs_with_excess as f64
        ),
        excess_table("h: avg E^max_fcfs-bf (h)", &|r, all| emax(r, all).avg_h),
    );
    Report::new(
        "fig4",
        format!(
            "performance comparisons under high load (rho=0.9); R*=T, L={l} ({} for 1/04)",
            l_jan
        ),
        text,
        results_json(&rows),
    )
}

/// Figure 5: average wait per job class (T x N grid) under each policy,
/// July 2003, rho = 0.9.
pub fn fig5(opts: &Opts) -> Report {
    let l = opts.budget(1_000);
    let mut month_opts = opts.clone();
    month_opts.months = vec![Month::Jul03];
    let rows = sweep(
        &month_opts,
        LoadLevel::Rho(0.9),
        RuntimeKnowledge::Actual,
        trio(move |_| l),
    );
    let (_, results) = &rows[0];

    let mut text = String::new();
    let mut data = Vec::new();
    for r in results {
        let grid = ClassGrid::over(&r.records);
        let mut t = Table::new(
            std::iter::once("avg wait (h)  T \\ N".to_string())
                .chain(NODE_LABELS.iter().map(|s| s.to_string())),
        );
        for (row, label) in RUNTIME_LABELS.iter().enumerate() {
            let mut cells = vec![label.to_string()];
            for col in 0..5 {
                cells.push(if grid.counts[row][col] > 0 {
                    num(grid.avg_wait_h[row][col], 1)
                } else {
                    "-".to_string()
                });
            }
            t.row(cells);
        }
        text.push_str(&format!("({})\n{}\n", r.policy, t.render()));
        data.push(json!({
            "policy": r.policy.as_str(),
            "avg_wait_h": grid.avg_wait_h,
            "counts": grid.counts,
        }));
    }
    Report::new(
        "fig5",
        format!("avg wait per job class, July 2003; R*=T, rho=0.9, L={l}"),
        text,
        json!(data),
    )
}

/// Figure 6: impact of the node budget L on DDS/lxf/dynB, January 2004,
/// rho = 0.9.
pub fn fig6(opts: &Opts) -> Report {
    let budgets: Vec<u64> = [1_000u64, 2_000, 4_000, 8_000, 10_000, 100_000]
        .iter()
        .map(|&l| opts.budget(l))
        .collect();
    let mut month_opts = opts.clone();
    month_opts.months = vec![Month::Jan04];
    let specs = {
        let budgets = budgets.clone();
        move |_| {
            let mut v = vec![PolicySpec::FcfsBackfill, PolicySpec::LxfBackfill];
            v.extend(budgets.iter().map(|&l| PolicySpec::dds_lxf_dynb(l)));
            v
        }
    };
    let rows = sweep(
        &month_opts,
        LoadLevel::Rho(0.9),
        RuntimeKnowledge::Actual,
        specs,
    );
    let (_, results) = &rows[0];
    let t_max = results[0].max_wait();

    let mut t = Table::new([
        "policy",
        "L",
        "total E^max (h)",
        "max wait (h)",
        "avg wait (h)",
        "avg bsld",
    ]);
    let mut data = Vec::new();
    for (i, r) in results.iter().enumerate() {
        let l_label = if i < 2 {
            "-".to_string()
        } else {
            budgets[i - 2].to_string()
        };
        let e = r.excess(t_max);
        t.row([
            r.policy.clone(),
            l_label.clone(),
            num(e.total_h, 1),
            num(r.stats.max_wait_h, 1),
            num(r.stats.avg_wait_h, 2),
            num(r.stats.avg_bounded_slowdown, 2),
        ]);
        data.push(json!({
            "policy": r.policy.as_str(),
            "L": l_label,
            "excess_total_h": e.total_h,
            "max_wait_h": r.stats.max_wait_h,
            "avg_wait_h": r.stats.avg_wait_h,
            "avg_bounded_slowdown": r.stats.avg_bounded_slowdown,
        }));
    }
    Report::new(
        "fig6",
        "January 2004: impact of number of nodes visited (L) on DDS/lxf/dynB; rho=0.9, R*=T",
        t.render(),
        json!(data),
    )
}

/// Figure 7: search algorithms and branching heuristics compared
/// (DDS/fcfs vs DDS/lxf vs LDS/lxf, all dynB), rho = 0.9, L = 2K.
pub fn fig7(opts: &Opts) -> Report {
    let l = opts.budget(2_000);
    let rows = sweep(
        opts,
        LoadLevel::Rho(0.9),
        RuntimeKnowledge::Actual,
        move |_| {
            vec![
                PolicySpec::FcfsBackfill, // threshold provider (not plotted in the paper panel)
                PolicySpec::search_dynb(SearchAlgo::Dds, Branching::Fcfs, l),
                PolicySpec::search_dynb(SearchAlgo::Dds, Branching::Lxf, l),
                PolicySpec::search_dynb(SearchAlgo::Lds, Branching::Lxf, l),
            ]
        },
    );
    let emax_total = |r: &RunResult, all: &[RunResult]| r.excess(all[0].max_wait()).total_h;
    let policies: Vec<String> = rows[0].1[1..].iter().map(|r| r.policy.clone()).collect();
    let mut t_b = Table::new(std::iter::once("month".to_string()).chain(policies.clone()));
    for (month, results) in &rows {
        let mut cells = vec![month.label().to_string()];
        cells.extend(results[1..].iter().map(|r| num(emax_total(r, results), 1)));
        t_b.row(cells);
    }
    let slowdown_rows: Vec<(Month, Vec<RunResult>)> = rows
        .iter()
        .map(|(m, results)| (*m, results[1..].to_vec()))
        .collect();
    let text = format!(
        "{}\n(b: total E^max_fcfs-bf (h))\n{}",
        month_metric_table(
            "a: avg bounded slowdown",
            &slowdown_rows,
            |r| r.stats.avg_bounded_slowdown,
            2
        ),
        t_b.render()
    );
    Report::new(
        "fig7",
        format!("effect of search algorithms and branching heuristics; R*=T, rho=0.9, L={l}"),
        text,
        results_json(&rows),
    )
}

/// Figure 8: inaccurate requested runtimes (R* = R), rho = 0.9, L = 4K.
pub fn fig8(opts: &Opts) -> Report {
    let l = opts.budget(4_000);
    let rows = sweep(
        opts,
        LoadLevel::Rho(0.9),
        RuntimeKnowledge::Requested,
        trio(move |_| l),
    );
    let emax_total = |r: &RunResult, all: &[RunResult]| r.excess(all[0].max_wait()).total_h;
    let policies: Vec<String> = rows[0].1.iter().map(|r| r.policy.clone()).collect();
    let mut t_d = Table::new(std::iter::once("month".to_string()).chain(policies));
    for (month, results) in &rows {
        let mut cells = vec![month.label().to_string()];
        cells.extend(results.iter().map(|r| num(emax_total(r, results), 1)));
        t_d.row(cells);
    }
    let text = format!(
        "{}\n{}\n{}\n(d: total E^max_fcfs-bf (h))\n{}",
        month_metric_table("a: avg wait (h)", &rows, |r| r.stats.avg_wait_h, 2),
        month_metric_table("b: max wait (h)", &rows, |r| r.stats.max_wait_h, 1),
        month_metric_table(
            "c: avg bounded slowdown",
            &rows,
            |r| r.stats.avg_bounded_slowdown,
            2
        ),
        t_d.render()
    );
    Report::new(
        "fig8",
        format!("performance using inaccurate requested runtimes; R*=R, rho=0.9, L={l}"),
        text,
        results_json(&rows),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_month_opts() -> Opts {
        let mut o = Opts::quick();
        o.months = vec![Month::Oct03];
        o
    }

    #[test]
    fn fig3_quick_has_three_policies_per_month() {
        let r = fig3(&one_month_opts());
        assert!(r.text.contains("DDS/lxf/dynB"));
        assert!(r.text.contains("FCFS-backfill"));
        assert_eq!(r.data.as_array().expect("rows").len(), 3);
    }

    #[test]
    fn fig4_quick_fcfs_has_zero_own_excess() {
        let r = fig4(&one_month_opts());
        let rows = r.data.as_array().expect("rows");
        let fcfs = rows
            .iter()
            .find(|x| x["policy"] == "FCFS-backfill")
            .expect("fcfs row");
        assert_eq!(fcfs["excess_total_h_vs_first_policy_max"], 0.0);
    }

    #[test]
    fn fig6_quick_improves_with_budget() {
        let mut o = Opts::quick();
        o.scale = 0.04;
        let r = fig6(&o);
        let rows = r.data.as_array().expect("rows");
        // 2 baselines + 6 budgets
        assert_eq!(rows.len(), 8);
        let first = rows[2]["excess_total_h"].as_f64().expect("num");
        let last = rows[7]["excess_total_h"].as_f64().expect("num");
        assert!(
            last <= first + 1e-9,
            "more budget should not hurt: {first} -> {last}"
        );
    }

    #[test]
    fn fig5_quick_produces_grids() {
        let mut o = Opts::quick();
        o.scale = 0.05;
        let r = fig5(&o);
        assert_eq!(r.data.as_array().expect("grids").len(), 3);
        assert!(r.text.contains("T \\ N"));
    }
}
