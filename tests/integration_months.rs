//! Qualitative reproduction checks on scaled monthly workloads: the
//! relations the paper's figures hinge on should already be visible at
//! reduced scale.  (The full-scale numbers are produced by the
//! `experiments` harness in `sbs-bench` and recorded in EXPERIMENTS.md.)

use sbs_core::experiment::{run_on, Scenario};
use sbs_core::prelude::*;

/// Scale used for the sweep tests: big enough for contention, small
/// enough to keep `cargo test` fast.
const SCALE: f64 = 0.10;

fn trio(
    scenario: &Scenario,
) -> (
    sbs_core::experiment::RunResult,
    sbs_core::experiment::RunResult,
    sbs_core::experiment::RunResult,
) {
    let workload = scenario.workload();
    let fcfs = run_on(&workload, scenario, &PolicySpec::FcfsBackfill);
    let lxf = run_on(&workload, scenario, &PolicySpec::LxfBackfill);
    let dds = run_on(&workload, scenario, &PolicySpec::dds_lxf_dynb(1_000));
    (fcfs, lxf, dds)
}

#[test]
fn figure_3_shape_lxf_beats_fcfs_on_averages() {
    // Averaged over several months: LXF-backfill improves average
    // bounded slowdown over FCFS-backfill (the paper's envelope claim).
    let months = [Month::Jun03, Month::Sep03, Month::Oct03, Month::Feb04];
    let mut fcfs_sum = 0.0;
    let mut lxf_sum = 0.0;
    for month in months {
        let scenario = Scenario::high_load(month).with_scale(SCALE);
        let (fcfs, lxf, _) = trio(&scenario);
        fcfs_sum += fcfs.stats.avg_bounded_slowdown;
        lxf_sum += lxf.stats.avg_bounded_slowdown;
    }
    assert!(
        lxf_sum < fcfs_sum,
        "LXF-BF total slowdown {lxf_sum:.1} should beat FCFS-BF {fcfs_sum:.1}"
    );
}

#[test]
fn figure_4_shape_dds_bounds_max_wait_like_fcfs() {
    // DDS/lxf/dynB's maximum wait should track FCFS-backfill (the
    // max-wait envelope), not LXF-backfill's (potentially much larger).
    let months = [Month::Sep03, Month::Oct03, Month::Nov03, Month::Feb04];
    let mut dds_sum = 0.0;
    let mut lxf_sum = 0.0;
    let mut fcfs_sum = 0.0;
    for month in months {
        let scenario = Scenario::high_load(month).with_scale(SCALE);
        let (fcfs, lxf, dds) = trio(&scenario);
        dds_sum += dds.stats.max_wait_h;
        lxf_sum += lxf.stats.max_wait_h;
        fcfs_sum += fcfs.stats.max_wait_h;
    }
    assert!(
        dds_sum <= lxf_sum.max(fcfs_sum) * 1.35,
        "DDS max-wait total {dds_sum:.1} h should not blow past the envelopes \
         (FCFS {fcfs_sum:.1} h, LXF {lxf_sum:.1} h)"
    );
}

#[test]
fn figure_4_shape_dds_improves_slowdown_over_fcfs() {
    let months = [Month::Sep03, Month::Oct03, Month::Feb04];
    let mut dds_sum = 0.0;
    let mut fcfs_sum = 0.0;
    for month in months {
        let scenario = Scenario::high_load(month).with_scale(SCALE);
        let (fcfs, _, dds) = trio(&scenario);
        dds_sum += dds.stats.avg_bounded_slowdown;
        fcfs_sum += fcfs.stats.avg_bounded_slowdown;
    }
    assert!(
        dds_sum <= fcfs_sum * 1.1,
        "DDS slowdown total {dds_sum:.1} should be at or below FCFS-BF {fcfs_sum:.1}"
    );
}

#[test]
fn higher_load_increases_pressure() {
    // rho = 0.9 must produce at least as much queueing as the original
    // load on the same month (sanity of the load-scaling machinery).
    let month = Month::Oct03;
    let orig = Scenario::original(month).with_scale(SCALE);
    let high = Scenario::high_load(month).with_scale(SCALE);
    let (fo, _, _) = trio(&orig);
    let (fh, _, _) = trio(&high);
    assert!(
        fh.avg_queue_length >= fo.avg_queue_length * 0.8,
        "high load queue {:.2} vs original {:.2}",
        fh.avg_queue_length,
        fo.avg_queue_length
    );
    assert!(fh.utilization >= fo.utilization * 0.9);
}

#[test]
fn fixed_bound_sensitivity_matches_figure_2_direction() {
    // Figure 2: the max wait grows with the fixed bound omega (50 h ->
    // 300 h); the average slowdown is much less sensitive.
    let month = Month::Oct03;
    let scenario = Scenario::high_load(month).with_scale(SCALE);
    let workload = scenario.workload();
    let w50 = run_on(
        &workload,
        &scenario,
        &PolicySpec::dds_lxf_fixed(50 * HOUR, 1_000),
    );
    let w300 = run_on(
        &workload,
        &scenario,
        &PolicySpec::dds_lxf_fixed(300 * HOUR, 1_000),
    );
    assert!(
        w50.stats.max_wait_h <= w300.stats.max_wait_h + 24.0,
        "omega=50h max wait {:.1} should not exceed omega=300h {:.1} by much",
        w50.stats.max_wait_h,
        w300.stats.max_wait_h
    );
}

#[test]
fn decisions_scale_with_jobs() {
    let scenario = Scenario::original(Month::Jun03).with_scale(SCALE);
    let workload = scenario.workload();
    let r = run_on(&workload, &scenario, &PolicySpec::FcfsBackfill);
    // Every job contributes one arrival and one departure decision point
    // (some coincide).
    let jobs = workload.jobs.len() as u64;
    assert!(r.decisions <= 2 * jobs);
    assert!(r.decisions >= jobs);
}

#[test]
fn utilization_tracks_offered_load_when_unsaturated() {
    // At original (sub-1.0) load with a capable policy, almost all
    // offered work completes within the (long) window: utilization
    // should be in the same region as the offered load.
    let scenario = Scenario::original(Month::Sep03).with_scale(0.15);
    let workload = scenario.workload();
    let offered = workload.offered_load();
    let r = run_on(&workload, &scenario, &PolicySpec::FcfsBackfill);
    assert!(
        (r.utilization - offered).abs() < 0.15,
        "utilization {:.2} vs offered {:.2}",
        r.utilization,
        offered
    );
}

#[test]
fn figure_5_shape_wide_jobs_per_policy() {
    // Figure 5's three claims on a scaled July 2003: FCFS-BF is poor for
    // short-wide jobs; LXF-BF fixes them but punishes long-wide jobs;
    // DDS sits between on both.
    use sbs_metrics::classes::ClassGrid;
    let scenario = Scenario::high_load(Month::Jul03).with_scale(0.25);
    let workload = scenario.workload();
    let grid_of = |spec: &PolicySpec| {
        let r = run_on(&workload, &scenario, spec);
        ClassGrid::over(&r.records)
    };
    let fcfs = grid_of(&PolicySpec::FcfsBackfill);
    let lxf = grid_of(&PolicySpec::LxfBackfill);
    let dds = grid_of(&PolicySpec::dds_lxf_dynb(1_000));
    // Short-wide = runtime rows 0-1, widest column; long-wide = row 4,
    // columns 3-4.  Use weighted means to be robust to empty cells.
    let mean_over = |g: &ClassGrid, cells: &[(usize, usize)]| -> f64 {
        let (mut wait, mut n) = (0.0, 0usize);
        for &(r, c) in cells {
            wait += g.avg_wait_h[r][c] * g.counts[r][c] as f64;
            n += g.counts[r][c];
        }
        if n == 0 {
            0.0
        } else {
            wait / n as f64
        }
    };
    let short_wide = [(0usize, 4usize), (1, 4)];
    let long_wide = [(4usize, 3usize), (4, 4)];
    // (2) LXF-BF improves short-wide jobs over FCFS-BF...
    assert!(
        mean_over(&lxf, &short_wide) < mean_over(&fcfs, &short_wide),
        "LXF should fix short-wide jobs"
    );
    // ...at a cost to long-wide jobs relative to DDS.
    assert!(
        mean_over(&dds, &long_wide) <= mean_over(&lxf, &long_wide) * 1.1,
        "DDS should not sacrifice long-wide jobs like LXF: dds {:.1} vs lxf {:.1}",
        mean_over(&dds, &long_wide),
        mean_over(&lxf, &long_wide)
    );
    // (3) DDS improves short-wide jobs over FCFS-BF.
    assert!(
        mean_over(&dds, &short_wide) < mean_over(&fcfs, &short_wide) * 1.1,
        "DDS should improve short-wide jobs over FCFS"
    );
}

#[test]
fn figure_2_shape_max_wait_tracks_omega() {
    // At reduced scale the absolute maxima are smaller, but the ordering
    // omega=50h <= omega=300h on max wait must hold on a loaded month.
    let scenario = Scenario::high_load(Month::Sep03).with_scale(0.15);
    let workload = scenario.workload();
    let w50 = run_on(
        &workload,
        &scenario,
        &PolicySpec::dds_lxf_fixed(50 * HOUR, 1_000),
    );
    let w300 = run_on(
        &workload,
        &scenario,
        &PolicySpec::dds_lxf_fixed(300 * HOUR, 1_000),
    );
    assert!(
        w50.stats.max_wait_h <= w300.stats.max_wait_h + 12.0,
        "tight bound {:.1} h should not exceed loose bound {:.1} h by much",
        w50.stats.max_wait_h,
        w300.stats.max_wait_h
    );
}
