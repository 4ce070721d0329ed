//! The two replay workloads: whole traces through the simulator.
//!
//! `replay-search` replays ten months one by one (warm-up and cool-down
//! each, as in the paper) under the headline search policy;
//! `replay-backfill` replays one long stitched trace under three
//! backfill policies.  The untraced pass calls `simulate`; the traced
//! pass drives `SchedulerCore` itself, one span per call, and must
//! reproduce `simulate`'s start times exactly.

use crate::env::{pinned, pinned_f64, pinned_u64};
use crate::inputs::{depth_and_span, fnv1a, month, month_traces, months, stitch};
use crate::probes;
use crate::report::Outcome;
use crate::spans::{Name, Tracer};
use crate::stats::quantile_us;
use sbs_backfill::PriorityOrder;
use sbs_core::{PolicySpec, SearchTotals};
use sbs_metrics::{percentile_wait, ClassGrid, ExcessStats, WaitStats};
use sbs_sim::core::SchedulerCore;
use sbs_sim::engine::{check_invariants, simulate, SimConfig, SimResult};
use sbs_sim::policy::{Policy, SchedContext, WaitingJob};
use sbs_sim::{JobRecord, RuntimeKnowledge};
use sbs_workload::generator::Workload;
use sbs_workload::job::JobId;
use sbs_workload::time::Time;
use serde_json::Value;
use std::hint::black_box;
use std::time::Instant;

/// Which replay workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `replay-search`.
    Search,
    /// `replay-backfill`.
    Backfill,
}

impl Kind {
    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Search => "replay-search",
            Kind::Backfill => "replay-backfill",
        }
    }
}

/// Generated inputs of a replay: the traces and the policies each is
/// replayed under.
pub struct Inputs {
    /// Traces, replayed one after another.
    pub traces: Vec<Workload>,
    /// `(label, spec)` of every policy.
    pub policies: Vec<(&'static str, PolicySpec)>,
}

impl Inputs {
    /// Jobs generated (each is replayed once per policy).
    pub fn jobs(&self) -> usize {
        self.traces.iter().map(|t| t.jobs.len()).sum()
    }
}

/// The policies of a replay workload.
fn policies(kind: Kind, spec: &Value) -> Vec<(&'static str, PolicySpec)> {
    match kind {
        Kind::Search => vec![(
            "dds",
            PolicySpec::dds_lxf_dynb(pinned_u64(spec, kind.name(), "node_limit")),
        )],
        Kind::Backfill => vec![
            ("fcfs", PolicySpec::FcfsBackfill),
            ("lxf", PolicySpec::LxfBackfill),
            (
                "conservative",
                PolicySpec::BackfillWithReservations {
                    order: PriorityOrder::Fcfs,
                    reservations: usize::MAX,
                },
            ),
        ],
    }
}

/// Set-up: generates the traces from the seed.
pub fn setup(kind: Kind, spec: &Value, seed: u64, scale: f64) -> Inputs {
    let name = kind.name();
    let sets = pinned_f64(spec, name, "month_sets") * scale;
    let (depth, span) = depth_and_span(sets);
    let traces = month_traces(
        seed,
        name,
        &months(pinned(spec, name, "months")),
        pinned_f64(spec, name, "rho"),
        depth,
        span,
    );
    Inputs {
        traces: match kind {
            Kind::Search => traces,
            Kind::Backfill => vec![stitch(traces)],
        },
        policies: policies(kind, spec),
    }
}

/// A frozen decision point kept by the traced pass for the direct
/// `dsearch` and `AvailabilityProfile` probes.
#[derive(Debug, Clone)]
pub struct DecisionCtx {
    /// Decision time.
    pub now: Time,
    /// Machine size.
    pub capacity: u32,
    /// The waiting queue, arrival order.
    pub queue: Vec<WaitingJob>,
    /// Running set as `(predicted_end, nodes)`.
    pub running: Vec<(Time, u32)>,
}

/// Keeps the `max` deepest-queue decision contexts, looking at every
/// `every`-th decision so one long congestion episode cannot fill it.
pub struct Keeper {
    /// Contexts kept so far.
    pub kept: Vec<DecisionCtx>,
    max: usize,
    every: u64,
    seen: u64,
}

impl Keeper {
    /// An empty keeper.
    pub fn new(max: usize, every: u64) -> Self {
        Keeper {
            kept: Vec::new(),
            max,
            every: every.max(1),
            seen: 0,
        }
    }

    fn offer(&mut self, ctx: &SchedContext<'_>) {
        self.seen += 1;
        if !self.seen.is_multiple_of(self.every) || ctx.queue.len() < 2 {
            return;
        }
        let slot = if self.kept.len() < self.max {
            self.kept.len()
        } else {
            let (i, shallowest) = self
                .kept
                .iter()
                .enumerate()
                .min_by_key(|(_, c)| c.queue.len())
                .expect("max > 0");
            if ctx.queue.len() <= shallowest.queue.len() {
                return;
            }
            i
        };
        let kept = DecisionCtx {
            now: ctx.now,
            capacity: ctx.capacity,
            queue: ctx.queue.to_vec(),
            running: ctx
                .running
                .iter()
                .map(|r| (r.pred_end, r.job.nodes))
                .collect(),
        };
        if slot == self.kept.len() {
            self.kept.push(kept);
        } else {
            self.kept[slot] = kept;
        }
    }
}

/// Timing wrapper: one wall-clock sample per `decide` call, from the
/// outside.  The traced pass also reads the last call's start and end
/// (on the tracer's clock) and offers each context to the keeper.
struct Timed<'a> {
    inner: &'a mut dyn Policy,
    epoch: Instant,
    ns: Vec<u32>,
    last: (u64, u64),
    keeper: Option<&'a mut Keeper>,
}

impl Policy for Timed<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn decide(&mut self, ctx: &SchedContext<'_>) -> Vec<JobId> {
        if let Some(k) = self.keeper.as_deref_mut() {
            k.offer(ctx);
        }
        let start = self.epoch.elapsed().as_nanos() as u64;
        let starts = self.inner.decide(ctx);
        let end = self.epoch.elapsed().as_nanos() as u64;
        self.ns.push(u32::try_from(end - start).unwrap_or(u32::MAX));
        self.last = (start, end);
        starts
    }
}

/// The `sbs-metrics` summary every replay ends with; returns the pair
/// the paper judges schedules by.
fn summarize(result: &SimResult) -> WaitStats {
    let stats = WaitStats::over(result.in_window());
    let threshold = percentile_wait(result.in_window(), 98.0);
    black_box(ExcessStats::over(result.in_window(), threshold));
    black_box(ClassGrid::over(result.in_window()));
    stats
}

/// FNV digest of every record's `(id, start)`, in record order.
fn starts_digest(records: &[JobRecord]) -> u64 {
    let mut bytes = Vec::with_capacity(records.len() * 12);
    for r in records {
        bytes.extend_from_slice(&r.id.0.to_le_bytes());
        bytes.extend_from_slice(&r.start.to_le_bytes());
    }
    fnv1a(&bytes)
}

/// Span names of the traced drive loop.
struct DriveNames {
    replay: Name,
    next_departure: Name,
    advance: Name,
    complete_due: Name,
    submit: Name,
    decide: Name,
    policy: Name,
    summary: Name,
}

impl DriveNames {
    fn new(t: &mut Tracer) -> Self {
        DriveNames {
            replay: t.name("replay"),
            next_departure: t.name("simulator.core.next_departure"),
            advance: t.name("simulator.core.advance_to"),
            complete_due: t.name("simulator.core.complete_due"),
            submit: t.name("simulator.core.submit"),
            decide: t.name("simulator.core.decide"),
            policy: t.name("policy.decide"),
            summary: t.name("metrics.summary"),
        }
    }
}

/// The engine's event loop, driven from here with a span (or a tally,
/// for the sub-microsecond calls) around every `SchedulerCore` call.
fn drive_traced(
    workload: &Workload,
    policy: &mut Timed<'_>,
    t: &mut Tracer,
    n: &DriveNames,
) -> SimResult {
    let mut core = SchedulerCore::new(workload.capacity, RuntimeKnowledge::Actual, workload.window);
    let mut next_arrival = 0usize;
    let mut mark = t.now_ns();
    loop {
        let arrival = workload.jobs.get(next_arrival).map(|j| j.submit);
        let departure = core.next_departure();
        let now = match (arrival, departure) {
            (Some(a), Some(d)) => a.min(d),
            (Some(a), None) => a,
            (None, Some(d)) => d,
            (None, None) => break,
        };
        // One clock read ends a call and starts the next, so a decision
        // point costs five reads here plus the wrapper's two.
        let mut lap = |t: &mut Tracer, name: Name| {
            let at = t.now_ns();
            t.tally(name, at - mark);
            mark = at;
        };
        lap(t, n.next_departure);
        core.advance_to(now);
        lap(t, n.advance);
        core.complete_due();
        lap(t, n.complete_due);
        while let Some(job) = workload.jobs.get(next_arrival) {
            if job.submit != now {
                break;
            }
            next_arrival += 1;
            core.submit(*job);
        }
        lap(t, n.submit);
        let req = core.decisions();
        t.enter_at(n.decide, req, mark);
        core.decide(policy, None);
        let (p0, p1) = policy.last;
        t.leaf(n.policy, req, p0, p1);
        mark = t.now_ns();
        t.exit_at(mark);
    }
    assert!(
        core.queue().is_empty() && core.running().is_empty(),
        "replay did not drain"
    );
    let policy_name = policy.name();
    let (mut records, decisions, policy_nanos) = core.finish();
    records.sort_by_key(|r| (r.submit, r.id));
    SimResult {
        policy: policy_name,
        records,
        window: workload.window,
        capacity: workload.capacity,
        decisions,
        avg_queue_length: 0.0,
        utilization: 0.0,
        policy_nanos,
        decision_log: None,
    }
}

/// What one pass over all traces and policies measured.
#[derive(Default)]
pub struct Pass {
    /// Wall seconds of the timed region (replays plus summaries).
    pub wall_s: f64,
    /// Wall seconds inside the metrics summaries.
    pub summary_s: f64,
    /// Jobs replayed (jobs x policies).
    pub jobs: u64,
    /// In-window jobs behind the quality pair.
    pub in_window: u64,
    /// Decision points executed.
    pub decisions: u64,
    /// `SimResult::policy_nanos`, summed.
    pub policy_ns: u64,
    /// Per-policy decide samples, nanoseconds.
    pub decide_ns: Vec<(&'static str, Vec<u32>)>,
    /// Sum of bounded slowdowns over in-window jobs.
    pub bsld_sum: f64,
    /// Maximum wait, seconds.
    pub max_wait: f64,
    /// Search counters (zero for backfill).
    pub totals: SearchTotals,
    /// One digest of start times per (trace, policy).
    pub digests: Vec<u64>,
    /// Results that broke a physical invariant.
    pub broken: u64,
}

impl Pass {
    /// All decide samples as `u64` nanoseconds.
    pub fn all_decide_ns(&self) -> Vec<u64> {
        self.decide_ns
            .iter()
            .flat_map(|(_, v)| v.iter().map(|n| u64::from(*n)))
            .collect()
    }

    /// Average bounded slowdown over the in-window jobs.
    pub fn avg_bsld(&self) -> f64 {
        self.bsld_sum / self.in_window.max(1) as f64
    }
}

/// Replays every trace under every policy.  With a tracer the loop is
/// driven from here under spans and deep-queue contexts are kept.
pub fn run_pass(inputs: &Inputs, mut traced: Option<(&mut Tracer, &mut Keeper)>) -> Pass {
    let mut pass = Pass::default();
    let epoch = Instant::now();
    let names = traced.as_mut().map(|(t, _)| DriveNames::new(t));
    for (label, spec) in &inputs.policies {
        let mut samples = Vec::new();
        for workload in &inputs.traces {
            let mut search = spec.build_search();
            let mut boxed = search.is_none().then(|| spec.build());
            let inner: &mut dyn Policy = match (&mut search, &mut boxed) {
                (Some(s), _) => s,
                (None, Some(b)) => b,
                (None, None) => unreachable!("one of the two is built"),
            };
            let (tracer, keeper) = match traced.as_mut() {
                Some((t, k)) => (Some(&mut **t), Some(&mut **k)),
                None => (None, None),
            };
            // Traced, the wrapper reads the tracer's clock, so its span
            // lines up with the drive loop's.
            let mut timed = Timed {
                inner,
                epoch: tracer.as_ref().map_or(epoch, |t| t.epoch()),
                ns: Vec::new(),
                last: (0, 0),
                keeper,
            };
            let t0 = Instant::now();
            let result = match (tracer, &names) {
                (Some(tracer), Some(n)) => {
                    tracer.enter(n.replay, pass.digests.len() as u64);
                    let result = drive_traced(workload, &mut timed, tracer, n);
                    tracer.exit();
                    result
                }
                _ => simulate(workload, &mut timed, SimConfig::default()),
            };
            let ns = timed.ns;
            let s0 = Instant::now();
            let stats = summarize(&result);
            let s1 = Instant::now();
            pass.wall_s += (s1 - t0).as_secs_f64();
            pass.summary_s += (s1 - s0).as_secs_f64();
            if let (Some((tracer, _)), Some(n)) = (traced.as_mut(), &names) {
                let end = tracer.now_ns();
                let dur = (s1 - s0).as_nanos() as u64;
                tracer.leaf(
                    n.summary,
                    pass.digests.len() as u64,
                    end.saturating_sub(dur),
                    end,
                );
            }
            // Untimed: output checks.
            if std::panic::catch_unwind(|| check_invariants(&result)).is_err() {
                pass.broken += 1;
            }
            pass.jobs += result.records.len() as u64;
            pass.in_window += stats.jobs as u64;
            pass.decisions += result.decisions;
            pass.policy_ns += result.policy_nanos;
            pass.bsld_sum += stats.avg_bounded_slowdown * stats.jobs as f64;
            pass.max_wait = pass.max_wait.max(stats.max_wait_h * 3_600.0);
            pass.digests.push(starts_digest(&result.records));
            samples.extend(ns);
            if let Some(s) = &search {
                let t = s.totals();
                pass.totals.decisions += t.decisions;
                pass.totals.nodes += t.nodes;
                pass.totals.leaves += t.leaves;
                pass.totals.exhausted += t.exhausted;
                pass.totals.fallbacks += t.fallbacks;
            }
        }
        pass.decide_ns.push((label, samples));
    }
    pass
}

/// The fixed-seed quality canary: a short pinned month replayed under
/// the workload's policies, whatever `--seed` says.  Returns, per
/// policy, the values `workloads.json` pins exactly.
pub fn canary_values(kind: Kind, spec: &Value) -> Value {
    let pin = pinned(spec, kind.name(), "oracle");
    let trace = crate::inputs::month_trace(
        month(&pin["month"]),
        pin["seed"].as_u64().expect("oracle.seed"),
        pinned_f64(spec, kind.name(), "rho"),
        pin["span"].as_f64().expect("oracle.span"),
    );
    let mut out = serde_json::Map::new();
    for (label, policy) in policies(kind, spec) {
        let mut search = policy.build_search();
        let result = match search.as_mut() {
            Some(s) => simulate(&trace, s, SimConfig::default()),
            None => simulate(&trace, policy.build(), SimConfig::default()),
        };
        let stats = WaitStats::over(result.in_window());
        let max_wait_s = result.in_window().map(JobRecord::wait).max().unwrap_or(0);
        out.insert(
            label.to_string(),
            serde_json::json!({
                "avg_bsld": stats.avg_bounded_slowdown,
                "max_wait_s": max_wait_s,
                "decisions": result.decisions,
                "nodes": search.map_or(0, |s| s.totals().nodes),
                "starts": format!("{:016x}", starts_digest(&result.records)),
            }),
        );
    }
    Value::Object(out)
}

/// Compares the canary with its pinned values; one message per
/// mismatch.
fn canary_errors(kind: Kind, spec: &Value) -> Vec<String> {
    let expect = &pinned(spec, kind.name(), "oracle")["expect"];
    let got = canary_values(kind, spec);
    if *expect == got {
        Vec::new()
    } else {
        vec![format!(
            "{} quality canary: schedule differs from the pinned oracle: got {got}, pinned {expect}",
            kind.name()
        )]
    }
}

/// Runs one replay workload end to end.
pub fn run(kind: Kind, spec: &Value, seed: u64, scale: f64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let (inputs, setup_s) = crate::timed_setup(|| setup(kind, spec, seed, scale));
    out.set("setup_s", setup_s);
    out.set(
        "workload.generator.us_per_kjob",
        setup_s * 1e6 / (inputs.jobs() as f64 / 1e3),
    );

    let base = run_pass(&inputs, None);
    out.attempted = base.jobs;
    out.failed = base.broken;
    let mut all = base.all_decide_ns();
    let n = all.len() as u64;
    out.set("ops_per_s", base.jobs as f64 / base.wall_s);
    out.set_n("op_p50_us", quantile_us(&mut all, 0.50), n);
    out.set_n("op_p95_us", quantile_us(&mut all, 0.95), n);
    out.notes.push(format!(
        "{} jobs x {} policies, {} decisions, {:.3} s; decision mean {:.2} us; avg_bsld {:.4}, max_wait_h {:.3}",
        inputs.jobs(),
        inputs.policies.len(),
        base.decisions,
        base.wall_s,
        base.policy_ns as f64 / 1e3 / base.decisions.max(1) as f64,
        base.avg_bsld(),
        base.max_wait / 3_600.0
    ));
    out.errors.extend(canary_errors(kind, spec));

    if traced {
        let mut tracer = Tracer::new(Instant::now(), crate::SPAN_CAP);
        let mut keeper = Keeper::new(32, 16);
        let pass = run_pass(&inputs, Some((&mut tracer, &mut keeper)));
        if pass.digests != base.digests {
            out.error("traced drive loop started jobs at different times than simulate");
        }
        out.failed += pass.broken;
        layer_metrics(kind, spec, &base, &pass, &tracer, &keeper, &mut out);
        if kind == Kind::Search {
            out.set(
                "obs.recorder.enabled_ratio",
                probes::recorder_ratio(spec, seed, scale),
            );
        }
        crate::write_trace(kind.name(), &tracer, &mut out);
    }
    out.set("peak_rss_mb", crate::env::peak_rss_mb());
    out
}

/// Per-layer metrics of a replay from the traced pass and the probes.
fn layer_metrics(
    kind: Kind,
    spec: &Value,
    base: &Pass,
    traced: &Pass,
    tracer: &Tracer,
    keeper: &Keeper,
    out: &mut Outcome,
) {
    out.set("trace.overhead_ratio", traced.wall_s / base.wall_s);
    out.set("quality.avg_bsld", base.avg_bsld());
    out.set("quality.max_wait_h", base.max_wait / 3_600.0);
    let decide = tracer.agg("simulator.core.decide");
    out.set_n(
        "simulator.core.decide_self_us",
        decide.self_ns as f64 / 1e3 / decide.count.max(1) as f64,
        decide.count,
    );
    out.set(
        "simulator.core.submit_ns",
        tracer.mean_ns("simulator.core.submit"),
    );
    out.set(
        "simulator.core.complete_due_ns",
        tracer.mean_ns("simulator.core.complete_due"),
    );
    out.set(
        "simulator.core.advance_ns",
        tracer.mean_ns("simulator.core.advance_to"),
    );
    out.set("simulator.engine.decisions", base.decisions as f64);
    // Everything `simulate` does that is not the policy: core calls,
    // the loop itself, record sorting, utilisation.
    let replay_s = base.wall_s - base.summary_s;
    let policy_share = base.policy_ns as f64 / 1e9 / replay_s;
    out.set("simulator.engine.loop_share", 1.0 - policy_share);
    out.set(
        "metrics.summary.ms_per_mjob",
        base.summary_s * 1e3 / (base.jobs as f64 / 1e6),
    );
    let p = |label: &str, q: f64| {
        let mut v: Vec<u64> = traced
            .decide_ns
            .iter()
            .filter(|(l, _)| *l == label)
            .flat_map(|(_, v)| v.iter().map(|n| u64::from(*n)))
            .collect();
        (quantile_us(&mut v, q), v.len() as u64)
    };
    let budget = pinned_u64(spec, kind.name(), "probe_node_limit");
    let probe = probes::context_probes(&keeper.kept, budget);
    out.notes.push(format!(
        "{} decision contexts kept, queue depth {}..{}",
        keeper.kept.len(),
        keeper.kept.iter().map(|c| c.queue.len()).min().unwrap_or(0),
        keeper.kept.iter().map(|c| c.queue.len()).max().unwrap_or(0)
    ));
    match kind {
        Kind::Search => {
            let (p50, n) = p("dds", 0.50);
            out.set_n("core.policy.decide_p50_us", p50, n);
            out.set_n("core.policy.decide_p99_us", p("dds", 0.99).0, n);
            out.set_n("core.policy.decide_max_us", p("dds", 1.0).0, n);
            out.set("core.policy.share", policy_share);
            let t = base.totals;
            out.set(
                "dsearch.nodes_per_decision",
                t.nodes as f64 / t.decisions.max(1) as f64,
            );
            out.set(
                "dsearch.leaves_per_knode",
                t.leaves as f64 * 1e3 / t.nodes.max(1) as f64,
            );
            out.set(
                "dsearch.exhausted_frac",
                t.exhausted as f64 / t.decisions.max(1) as f64,
            );
            out.set(
                "dsearch.fallback_frac",
                t.fallbacks as f64 / t.decisions.max(1) as f64,
            );
            out.set("dsearch.dds.ns_per_node", probe.dds_ns_per_node);
            out.set("dsearch.lds.ns_per_node", probe.lds_ns_per_node);
            out.set(
                "dsearch.permutation.ns_per_node",
                probe.permutation_ns_per_node,
            );
            out.set(
                "core.schedule.descend_ascend_ns",
                probe.dds_ns_per_node - probe.permutation_ns_per_node,
            );
            out.set("core.schedule.build_us", probe.build_us);
            out.set("simulator.avail.from_running_us", probe.from_running_us);
            out.set("simulator.avail.place_unplace_ns", probe.place_unplace_ns);
        }
        Kind::Backfill => {
            let (p50, n) = p("fcfs", 0.50);
            out.set_n("backfill.fcfs.decide_p50_us", p50, n);
            out.set_n("backfill.fcfs.decide_p99_us", p("fcfs", 0.99).0, n);
            out.set_n("backfill.lxf.decide_p50_us", p("lxf", 0.50).0, n);
            out.set_n(
                "backfill.conservative.decide_p50_us",
                p("conservative", 0.50).0,
                n,
            );
            out.set("backfill.share", policy_share);
            out.set(
                "simulator.avail.earliest_reserve_ns",
                probe.earliest_reserve_ns,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs(kind: Kind) -> (Value, Inputs) {
        let spec = crate::env::load_spec().expect("workloads.json");
        let inputs = setup(kind, &spec, 11, 0.02);
        (spec, inputs)
    }

    #[test]
    fn the_traced_drive_loop_reproduces_simulate_exactly() {
        for kind in [Kind::Search, Kind::Backfill] {
            let (_, inputs) = inputs(kind);
            let base = run_pass(&inputs, None);
            let mut tracer = Tracer::new(Instant::now(), 1_000);
            let mut keeper = Keeper::new(4, 1);
            let traced = run_pass(&inputs, Some((&mut tracer, &mut keeper)));
            assert_eq!(base.digests, traced.digests, "{}", kind.name());
            assert_eq!(base.decisions, traced.decisions);
            assert_eq!(base.jobs, traced.jobs);
            assert_eq!(base.broken + traced.broken, 0);
            assert_eq!(base.avg_bsld().to_bits(), traced.avg_bsld().to_bits());
            let decide = tracer.agg("simulator.core.decide");
            assert_eq!(decide.count, traced.decisions);
            assert_eq!(tracer.agg("policy.decide").count, traced.decisions);
            assert!(decide.self_ns <= decide.total_ns - tracer.agg("policy.decide").total_ns);
            assert!(!keeper.kept.is_empty() && keeper.kept.len() <= 4);
        }
    }

    #[test]
    fn the_keeper_holds_the_deepest_queues() {
        let (_, inputs) = inputs(Kind::Backfill);
        let mut tracer = Tracer::new(Instant::now(), 0);
        let mut keeper = Keeper::new(3, 1);
        let pass = run_pass(&inputs, Some((&mut tracer, &mut keeper)));
        assert!(pass.decisions > 100);
        let mut depths: Vec<usize> = keeper.kept.iter().map(|c| c.queue.len()).collect();
        depths.sort_unstable();
        assert_eq!(depths.len(), 3);
        assert!(depths[0] >= 2, "{depths:?}");
    }

    #[test]
    fn the_pinned_oracles_hold_and_a_wrong_one_is_noticed() {
        for kind in [Kind::Search, Kind::Backfill] {
            let (spec, _) = inputs(kind);
            assert_eq!(canary_errors(kind, &spec), Vec::<String>::new());
            // The shim's Value has no IndexMut: corrupt every pinned
            // maximum wait in the text and parse it back.
            let text = serde_json::to_string(&spec).expect("spec serialises");
            let wrong = text.replace("\"max_wait_s\":", "\"max_wait_s\":1");
            let spec: Value = serde_json::from_str(&wrong).expect("still JSON");
            assert_eq!(
                canary_errors(kind, &spec).len(),
                1,
                "a wrong pin fails the run"
            );
        }
    }
}
