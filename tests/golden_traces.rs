//! Golden-trace regression tests: a rendered metric table over the ten
//! study months under the three headline policies (FCFS-backfill,
//! LXF-backfill, DDS/lxf/dynB) and the other backfill variants
//! (conservative, selective, four reservations) is compared
//! byte-for-byte against a committed golden file, and so are the
//! backfill variants' per-decision outcome counts (jobs started,
//! reserved and blocked, as a recording `TraceRecorder` tallies them).
//!
//! The simulator is deterministic end to end (seeded workloads, ordered
//! tie-breaks, no wall-clock in the decision path), so any byte of
//! drift means observable scheduling behaviour changed.  Performance
//! work on the search hot path — incremental costing, profile undo
//! journals, buffer reuse — must never move these tables.
//!
//! To regenerate after an *intentional* behaviour change:
//!
//! ```text
//! SBS_BLESS=1 cargo test -p sbs-core --test golden_traces
//! ```
//!
//! and commit the diff under `tests/golden/` together with the change
//! that caused it.

use sbs_core::experiment::{run_on, Scenario};
use sbs_core::prelude::*;
use sbs_obs::{TimeMode, TraceMeta, TraceRecorder};
use sbs_sim::simulate_traced;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Span scale for the golden runs: contention without test-suite bloat.
const SCALE: f64 = 0.10;

/// DDS node budget per decision point.
const BUDGET: u64 = 1_000;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(name)
}

fn render_monthly_table() -> String {
    let mut out = String::new();
    writeln!(
        out,
        "# Metric table over the ten study months (high-load, span scale {SCALE},\n\
         # DDS budget {BUDGET}).  Regenerate with:\n\
         #   SBS_BLESS=1 cargo test -p sbs-core --test golden_traces"
    )
    .expect("write to string");
    writeln!(
        out,
        "{:<6} {:<22} {:>5} {:>11} {:>11} {:>11} {:>11} {:>7} {:>10} {:>10}",
        "month",
        "policy",
        "jobs",
        "avg_wait_h",
        "max_wait_h",
        "avg_bsld",
        "avg_turn_h",
        "util",
        "avg_queue",
        "decisions"
    )
    .expect("write to string");
    for month in Month::ALL {
        let scenario = Scenario::high_load(month).with_scale(SCALE);
        let workload = scenario.workload();
        let specs = [
            PolicySpec::FcfsBackfill,
            PolicySpec::LxfBackfill,
            PolicySpec::dds_lxf_dynb(BUDGET),
            PolicySpec::BackfillWithReservations {
                order: PriorityOrder::Fcfs,
                reservations: usize::MAX,
            },
            PolicySpec::SelectiveBackfill,
            PolicySpec::BackfillWithReservations {
                order: PriorityOrder::Fcfs,
                reservations: 4,
            },
        ];
        for spec in &specs {
            let r = run_on(&workload, &scenario, spec);
            writeln!(
                out,
                "{:<6} {:<22} {:>5} {:>11.4} {:>11.4} {:>11.4} {:>11.4} {:>7.4} {:>10.4} {:>10}",
                month.label(),
                r.policy,
                r.stats.jobs,
                r.stats.avg_wait_h,
                r.stats.max_wait_h,
                r.stats.avg_bounded_slowdown,
                r.stats.avg_turnaround_h,
                r.utilization,
                r.avg_queue_length,
                r.decisions
            )
            .expect("write to string");
        }
    }
    out
}

/// Every backfill pass's outcome counts over the ten study months: the
/// decisions a recording [`TraceRecorder`] folded, and the jobs those
/// passes started, reserved and left blocked.  These are the counts a
/// backfill decision reports beside its starts, so a change to how a
/// pass reaches them (not only to which jobs it starts) shows here.
fn render_backfill_outcomes() -> String {
    let mut out = String::new();
    writeln!(
        out,
        "# Backfill outcome counts over the ten study months (high-load, span\n\
         # scale {SCALE}).  Regenerate with:\n\
         #   SBS_BLESS=1 cargo test -p sbs-core --test golden_traces"
    )
    .expect("write to string");
    writeln!(
        out,
        "{:<6} {:<28} {:>9} {:>9} {:>9} {:>9}",
        "month", "policy", "decisions", "started", "reserved", "blocked"
    )
    .expect("write to string");
    let specs = [
        PolicySpec::FcfsBackfill,
        PolicySpec::LxfBackfill,
        PolicySpec::BackfillWithReservations {
            order: PriorityOrder::Fcfs,
            reservations: usize::MAX,
        },
        PolicySpec::SelectiveBackfill,
        PolicySpec::BackfillWithReservations {
            order: PriorityOrder::Fcfs,
            reservations: 4,
        },
    ];
    for month in Month::ALL {
        let scenario = Scenario::high_load(month).with_scale(SCALE);
        let workload = scenario.workload();
        for spec in &specs {
            let policy = spec.build();
            let name = policy.name();
            let mut recorder = TraceRecorder::new(
                TimeMode::Virtual,
                TraceMeta {
                    mode: String::new(),
                    policy: name.clone(),
                    capacity: workload.capacity,
                    source: "golden_traces".into(),
                },
            );
            let cfg = SimConfig {
                knowledge: scenario.knowledge,
                predictor: scenario.predictor.as_ref().map(|p| p.build()),
                ..Default::default()
            };
            let _ = simulate_traced(&workload, policy, cfg, &mut recorder);
            let t = recorder.tally();
            writeln!(
                out,
                "{:<6} {:<28} {:>9} {:>9} {:>9} {:>9}",
                month.label(),
                name,
                t.decisions,
                t.backfill_started,
                t.backfill_reserved,
                t.backfill_blocked
            )
            .expect("write to string");
        }
    }
    out
}

/// Compares `rendered` against the committed golden file, or rewrites
/// the file when `SBS_BLESS` is set.
fn assert_matches_golden(name: &str, rendered: &str) {
    let path = golden_path(name);
    if std::env::var_os("SBS_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
        std::fs::write(&path, rendered).expect("write golden file");
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with SBS_BLESS=1 to create it",
            path.display()
        )
    });
    if golden != rendered {
        let mismatch = golden
            .lines()
            .zip(rendered.lines())
            .enumerate()
            .find(|(_, (g, r))| g != r);
        match mismatch {
            Some((i, (g, r))) => panic!(
                "{} drifted at line {}:\n  golden:   {g}\n  rendered: {r}\n\
                 scheduling behaviour changed; if intentional, re-bless with SBS_BLESS=1",
                path.display(),
                i + 1
            ),
            None => panic!(
                "{} drifted in length ({} vs {} bytes); if intentional, re-bless with SBS_BLESS=1",
                path.display(),
                golden.len(),
                rendered.len()
            ),
        }
    }
}

#[test]
fn monthly_metric_tables_match_golden() {
    assert_matches_golden("monthly_metrics.txt", &render_monthly_table());
}

#[test]
fn backfill_outcome_counts_match_golden() {
    assert_matches_golden("backfill_outcomes.txt", &render_backfill_outcomes());
}
