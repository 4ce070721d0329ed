//! Direct probes of single layers, run by the traced pass on inputs the
//! workload itself produced (kept decision contexts, generated lines).
//! Each reports the median of a few repeats.

use crate::env::{pinned, pinned_f64, pinned_u64};
use crate::replay::DecisionCtx;
use crate::stats::median;
use sbs_core::objective::HierarchicalObjective;
use sbs_core::{Branching, PolicySpec, ScheduleProblem};
use sbs_dsearch::permutation::PermutationProblem;
use sbs_dsearch::{dds, lds, SearchConfig};
use sbs_obs::{TimeMode, TraceMeta, TraceRecorder};
use sbs_sim::avail::{AvailabilityProfile, UndoLog};
use sbs_sim::engine::{simulate, simulate_traced, SimConfig};
use sbs_sim::policy::SchedContext;
use serde_json::Value;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Repeats of every probe; the median is reported.
const REPEATS: usize = 5;

/// Runs `f` [`REPEATS`] times and returns the median of what it
/// returns.
pub fn median_of(mut f: impl FnMut() -> f64) -> f64 {
    let runs: Vec<f64> = (0..REPEATS).map(|_| f()).collect();
    median(&runs)
}

/// What the kept decision contexts measure when `dsearch`, the
/// schedule problem and the availability profile are called directly.
#[derive(Debug, Default)]
pub struct ContextProbe {
    /// DDS over `ScheduleProblem`, nanoseconds per visited node.
    pub dds_ns_per_node: f64,
    /// LDS over `ScheduleProblem`, nanoseconds per visited node.
    pub lds_ns_per_node: f64,
    /// DDS over a constant-cost `PermutationProblem` of the same depth:
    /// the search driver alone.
    pub permutation_ns_per_node: f64,
    /// `Branching::order` + `ScheduleProblem::new`, microseconds.
    pub build_us: f64,
    /// `AvailabilityProfile::from_running`, microseconds.
    pub from_running_us: f64,
    /// One `place` plus its `unplace`, nanoseconds.
    pub place_unplace_ns: f64,
    /// One `earliest_start` plus `reserve`, nanoseconds.
    pub earliest_reserve_ns: f64,
}

fn profile(c: &DecisionCtx) -> AvailabilityProfile {
    AvailabilityProfile::from_running(c.now, c.capacity, c.running.iter().copied())
}

fn problem(c: &DecisionCtx) -> ScheduleProblem<'_> {
    let profile = profile(c);
    let ctx = SchedContext {
        now: c.now,
        capacity: c.capacity,
        free_nodes: profile.free_at(c.now),
        queue: &c.queue,
        running: &[],
    };
    let omega = ctx.longest_wait();
    ScheduleProblem::new(
        &c.queue,
        c.now,
        profile,
        Branching::Lxf.order(&ctx),
        omega,
        Arc::new(HierarchicalObjective),
    )
}

/// Probes every layer under a search decision on the kept contexts,
/// with `budget` nodes per search.
pub fn context_probes(ctxs: &[DecisionCtx], budget: u64) -> ContextProbe {
    if ctxs.is_empty() {
        return ContextProbe::default();
    }
    let cfg = SearchConfig::with_limit(budget);
    let per = |ns: u128, count: u64| ns as f64 / count.max(1) as f64;
    let search = |algo: fn(&mut ScheduleProblem<'_>, SearchConfig) -> u64| {
        median_of(|| {
            let (mut ns, mut nodes) = (0u128, 0u64);
            for c in ctxs {
                let mut p = problem(c);
                let t0 = Instant::now();
                nodes += algo(&mut p, cfg);
                ns += t0.elapsed().as_nanos();
            }
            per(ns, nodes)
        })
    };
    let dds_ns_per_node = search(|p, cfg| black_box(dds(p, cfg)).stats.nodes);
    let lds_ns_per_node = search(|p, cfg| black_box(lds(p, cfg)).stats.nodes);
    let permutation_ns_per_node = median_of(|| {
        let (mut ns, mut nodes) = (0u128, 0u64);
        for c in ctxs {
            let mut p = PermutationProblem::constant(c.queue.len());
            let t0 = Instant::now();
            nodes += black_box(dds(&mut p, cfg)).stats.nodes;
            ns += t0.elapsed().as_nanos();
        }
        per(ns, nodes)
    });
    let build_us = median_of(|| {
        let mut ns = 0u128;
        for c in ctxs {
            let profile = profile(c);
            let ctx = SchedContext {
                now: c.now,
                capacity: c.capacity,
                free_nodes: profile.free_at(c.now),
                queue: &c.queue,
                running: &[],
            };
            let t0 = Instant::now();
            black_box(ScheduleProblem::new(
                &c.queue,
                c.now,
                profile,
                Branching::Lxf.order(&ctx),
                0,
                Arc::new(HierarchicalObjective),
            ));
            ns += t0.elapsed().as_nanos();
        }
        ns as f64 / 1e3 / ctxs.len() as f64
    });
    let from_running_us = median_of(|| {
        let t0 = Instant::now();
        for c in ctxs {
            black_box(profile(c));
        }
        t0.elapsed().as_nanos() as f64 / 1e3 / ctxs.len() as f64
    });
    // Place the whole queue in arrival order, then undo it all: the
    // search's descend/ascend pair on the profile, without the search.
    let place_unplace_ns = median_of(|| {
        let (mut ns, mut ops) = (0u128, 0u64);
        for c in ctxs {
            let mut profile = profile(c);
            let mut log = UndoLog::new();
            let t0 = Instant::now();
            for _ in 0..8 {
                for w in &c.queue {
                    black_box(profile.place(w.job.nodes, w.r_star, c.now, &mut log));
                }
                for _ in &c.queue {
                    profile.unplace(&mut log);
                }
            }
            ns += t0.elapsed().as_nanos();
            ops += 8 * c.queue.len() as u64;
        }
        per(ns, ops)
    });
    // Backfill's use of the same profile: find the earliest start and
    // reserve it, for the whole queue; the releases that restore the
    // profile are not timed.
    let earliest_reserve_ns = median_of(|| {
        let (mut ns, mut ops) = (0u128, 0u64);
        for c in ctxs {
            let mut profile = profile(c);
            let mut held = Vec::with_capacity(c.queue.len());
            for _ in 0..8 {
                let t0 = Instant::now();
                for w in &c.queue {
                    let start = profile.earliest_start(w.job.nodes, w.r_star, c.now);
                    profile.reserve(start, w.r_star, w.job.nodes);
                    held.push((start, w.r_star, w.job.nodes));
                }
                ns += t0.elapsed().as_nanos();
                ops += c.queue.len() as u64;
                while let Some((start, dur, nodes)) = held.pop() {
                    profile.release(start, dur, nodes);
                }
            }
        }
        per(ns, ops)
    });
    ContextProbe {
        dds_ns_per_node,
        lds_ns_per_node,
        permutation_ns_per_node,
        build_us,
        from_running_us,
        place_unplace_ns,
        earliest_reserve_ns,
    }
}

/// `simulate_traced` with an enabled in-memory `TraceRecorder` over
/// plain `simulate`, on the workload's pinned recorder month.
pub fn recorder_ratio(spec: &Value, seed: u64, scale: f64) -> f64 {
    let name = "replay-search";
    let pin = pinned(spec, name, "recorder_probe");
    let span = (pin["span"].as_f64().expect("recorder_probe.span") * scale).clamp(0.01, 1.0);
    let trace = crate::inputs::month_trace(
        crate::inputs::month(&pin["month"]),
        crate::inputs::sub_seed(seed, "recorder-probe", 0),
        pinned_f64(spec, name, "rho"),
        span,
    );
    let policy = || PolicySpec::dds_lxf_dynb(pinned_u64(spec, name, "node_limit")).build();
    let plain = median_of(|| {
        let t0 = Instant::now();
        black_box(simulate(&trace, policy(), SimConfig::default()));
        t0.elapsed().as_secs_f64()
    });
    let recorded = median_of(|| {
        let mut recorder = TraceRecorder::new(
            TimeMode::Virtual,
            TraceMeta {
                mode: String::new(),
                policy: "recorder probe".into(),
                capacity: trace.capacity,
                source: "sbs-benchmark".into(),
            },
        );
        let t0 = Instant::now();
        black_box(simulate_traced(
            &trace,
            policy(),
            SimConfig::default(),
            &mut recorder,
        ));
        t0.elapsed().as_secs_f64()
    });
    recorded / plain
}
