//! `bench-perf`: the search hot-path performance harness.
//!
//! Runs a pinned matrix — DDS/LDS x fcfs/lxf x node budgets — against
//! frozen decision points captured from fixed synthetic months, and
//! reports throughput (nodes/sec, ns/node) next to the deterministic
//! search outcome (nodes, leaves, best cost).  The output is written as
//! `BENCH_search.json` at the repo root in a stable schema so every PR
//! extends one perf trajectory; [`check`] compares a fresh run against a
//! committed baseline and fails on any change in search behaviour and on
//! throughput regressions beyond a tolerance.
//!
//! Everything except the timings is deterministic: the months, seeds,
//! capture policy and search configurations are pinned, so `nodes`,
//! `leaves` and the best costs must be identical across machines — those
//! fields double as a cheap cross-check that a perf PR did not silently
//! change search *behavior* (the golden-trace tests pin full schedules).

use sbs_core::objective::HierarchicalObjective;
use sbs_core::{Branching, ObjectiveCost, PolicySpec, ScheduleProblem, SearchAlgo};
use sbs_dsearch::{dds, lds, portfolio, SearchConfig, SearchOutcome, DEFAULT_MEMBERS};
use sbs_obs::{TimeMode, TraceMeta, TraceRecorder};
use sbs_sim::avail::AvailabilityProfile;
use sbs_sim::engine::{simulate, simulate_traced, SimConfig};
use sbs_sim::policy::{Policy, SchedContext, WaitingJob};
use sbs_workload::generator::WorkloadBuilder;
use sbs_workload::job::JobId;
use sbs_workload::system::Month;
use sbs_workload::time::{to_hours, Time};
use serde_json::{json, Value};
use std::sync::Arc;
use std::time::Instant;

/// Schema identifier stamped into every emitted document.  `v2` adds
/// the `threads` dimension and the portfolio rows; `v1` cell ids carry
/// no `/t{N}` suffix, so [`check`] treats the two schemas as disjoint.
/// DDS/LDS cells are sequential and always `/t1`; only the portfolio
/// rows sweep worker counts.
pub const SCHEMA: &str = "sbs-bench-perf/v2";

/// The pinned months decision points are captured from: one from each
/// runtime-limit regime plus the October load peak.
pub const MONTHS: [Month; 3] = [Month::Jun03, Month::Oct03, Month::Feb04];

/// The pinned per-decision node budgets (the paper's `L` sweep).
pub const BUDGETS: [u64; 3] = [1_000, 10_000, 100_000];

/// The pinned worker-thread counts of the portfolio rows.  Every PORT
/// cell runs at each count and the outcomes must be bit-identical — the
/// timing columns are the only thing the worker count may change.
pub const THREADS: [usize; 2] = [1, 4];

/// Workload seed used for every capture (arbitrary but frozen).
const CAPTURE_SEED: u64 = 42;

/// Span fraction simulated during capture; enough events to find a deep
/// queue while keeping the capture itself cheap.
const CAPTURE_SCALE: f64 = 0.12;

/// Span fraction for the recorder-overhead probe (short — the probe
/// times three full simulations per repeat).
const OVERHEAD_SCALE: f64 = 0.05;

/// Node budget for the overhead probe's search policy.
const OVERHEAD_BUDGET: u64 = 500;

/// Harness options.
#[derive(Debug, Clone)]
pub struct PerfOpts {
    /// Smoke mode: drop the 100K budget and run one timing repeat.
    pub quick: bool,
    /// Timing repeats per cell (the fastest is reported).
    pub repeats: u32,
    /// Worker-thread counts swept per portfolio cell.
    pub threads: Vec<usize>,
    /// Also run the portfolio rows (LDS+DDS+beam8+greedy race).
    pub portfolio: bool,
}

impl Default for PerfOpts {
    fn default() -> Self {
        PerfOpts {
            quick: false,
            repeats: 3,
            threads: THREADS.to_vec(),
            portfolio: true,
        }
    }
}

impl PerfOpts {
    /// The smoke configuration used by `--quick` and CI: smaller budget
    /// column, one repeat, no portfolio rows (every cell sequential).
    pub fn quick() -> Self {
        PerfOpts {
            quick: true,
            repeats: 1,
            threads: THREADS.to_vec(),
            portfolio: false,
        }
    }

    /// The budget column of the matrix under these options.
    pub fn budgets(&self) -> &'static [u64] {
        if self.quick {
            &BUDGETS[..2]
        } else {
            &BUDGETS[..]
        }
    }
}

/// A frozen decision point: everything needed to rebuild the search
/// problem a policy would solve at that instant.
pub struct DecisionSnapshot {
    /// Month the snapshot came from.
    pub month: Month,
    /// Decision time.
    pub now: Time,
    /// Machine size.
    pub capacity: u32,
    /// The waiting queue, arrival order.
    pub queue: Vec<WaitingJob>,
    /// Running set as `(predicted_end, nodes)` pairs.
    pub running: Vec<(Time, u32)>,
    /// The resolved dynamic target bound (longest current wait).
    pub omega: Time,
}

impl DecisionSnapshot {
    /// The availability profile at the decision point.
    pub fn profile(&self) -> AvailabilityProfile {
        AvailabilityProfile::from_running(self.now, self.capacity, self.running.iter().copied())
    }

    /// Builds the ordering-tree search problem for `branching`.
    pub fn problem(&self, branching: Branching) -> ScheduleProblem<'_> {
        let profile = self.profile();
        let ctx = SchedContext {
            now: self.now,
            capacity: self.capacity,
            free_nodes: profile.free_at(self.now),
            queue: &self.queue,
            running: &[],
        };
        ScheduleProblem::new(
            &self.queue,
            self.now,
            profile,
            branching.order(&ctx),
            self.omega,
            Arc::new(HierarchicalObjective),
        )
    }
}

/// Capture policy: delegates every decision to LXF-backfill while
/// remembering the decision point with the deepest queue.
struct DeepestQueueProbe {
    inner: Box<dyn Policy + Send>,
    best: Option<DecisionSnapshot>,
    month: Month,
}

impl Policy for DeepestQueueProbe {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn decide(&mut self, ctx: &SchedContext<'_>) -> Vec<JobId> {
        let depth = ctx.queue.len();
        let deeper = match &self.best {
            None => depth > 0,
            Some(s) => depth > s.queue.len(),
        };
        if deeper {
            self.best = Some(DecisionSnapshot {
                month: self.month,
                now: ctx.now,
                capacity: ctx.capacity,
                queue: ctx.queue.to_vec(),
                running: ctx
                    .running
                    .iter()
                    .map(|r| (r.pred_end, r.job.nodes))
                    .collect(),
                omega: ctx.longest_wait(),
            });
        }
        self.inner.decide(ctx)
    }
}

/// Captures the deepest-queue decision point of `month`'s pinned
/// workload under LXF-backfill.
pub fn capture(month: Month) -> DecisionSnapshot {
    let workload = WorkloadBuilder::month(month)
        .seed(CAPTURE_SEED)
        .span_scale(CAPTURE_SCALE)
        .build();
    let mut probe = DeepestQueueProbe {
        inner: PolicySpec::LxfBackfill.build(),
        best: None,
        month,
    };
    simulate(&workload, &mut probe, SimConfig::default());
    probe
        .best
        .expect("every pinned month has at least one non-empty decision point")
}

/// One cell of the matrix: deterministic outcome plus the fastest of
/// `repeats` timed runs.
pub struct CellResult {
    /// Cell month.
    pub month: Month,
    /// Algorithm label (`DDS`, `LDS`, or `PORT` for the portfolio row).
    pub algo: String,
    /// Branching heuristic.
    pub branching: Branching,
    /// Node budget `L`.
    pub budget: u64,
    /// Worker-thread count.
    pub threads: usize,
    /// Deterministic outcome of the search.
    pub outcome: SearchOutcome<u32, ObjectiveCost>,
    /// Fastest elapsed wall time over the repeats, in nanoseconds.
    pub elapsed_ns: u128,
}

impl CellResult {
    /// Stable identifier of the cell inside the document.
    pub fn id(&self) -> String {
        format!(
            "{}/{}/{}/L{}/t{}",
            self.month.label(),
            self.algo,
            self.branching.label(),
            self.budget,
            self.threads
        )
    }

    /// Visited tree nodes per second.
    pub fn nodes_per_sec(&self) -> f64 {
        if self.elapsed_ns == 0 {
            0.0
        } else {
            self.outcome.stats.nodes as f64 / (self.elapsed_ns as f64 / 1e9)
        }
    }

    /// Nanoseconds per visited tree node.
    pub fn ns_per_node(&self) -> f64 {
        if self.outcome.stats.nodes == 0 {
            0.0
        } else {
            self.elapsed_ns as f64 / self.outcome.stats.nodes as f64
        }
    }
}

/// Runs `search` `repeats` times (at least once) and returns its
/// outcome with the fastest elapsed time.  Searches are pure, so the
/// outcome must be identical across repeats — asserted here as a sanity
/// check on the harness itself.
fn fastest_of(
    repeats: u32,
    mut search: impl FnMut() -> (SearchOutcome<u32, ObjectiveCost>, u128),
) -> (SearchOutcome<u32, ObjectiveCost>, u128) {
    let (mut outcome, mut best_elapsed) = search();
    for _ in 1..repeats {
        let (out, elapsed) = search();
        assert_outcomes_agree(&outcome, &out);
        best_elapsed = best_elapsed.min(elapsed);
        outcome = out;
    }
    (outcome, best_elapsed)
}

/// Runs one sequential DDS/LDS cell: `repeats` timed searches on a
/// fresh problem each time.
pub fn run_cell(
    snapshot: &DecisionSnapshot,
    algo: SearchAlgo,
    branching: Branching,
    budget: u64,
    repeats: u32,
) -> CellResult {
    let cfg = SearchConfig::with_limit(budget);
    let (outcome, elapsed_ns) = fastest_of(repeats, || {
        let mut problem = snapshot.problem(branching);
        let t0 = Instant::now();
        let out = match algo {
            SearchAlgo::Lds => lds(&mut problem, cfg),
            SearchAlgo::Dds => dds(&mut problem, cfg),
            _ => unreachable!("the perf matrix pins LDS and DDS only"),
        };
        (out, t0.elapsed().as_nanos())
    });
    CellResult {
        month: snapshot.month,
        algo: algo.label(),
        branching,
        budget,
        threads: 1,
        outcome,
        elapsed_ns,
    }
}

/// Runs one portfolio cell (LDS+DDS+beam8+greedy race, no deadline)
/// across `threads` workers.
pub fn run_portfolio_cell(
    snapshot: &DecisionSnapshot,
    branching: Branching,
    budget: u64,
    threads: usize,
    repeats: u32,
) -> CellResult {
    let cfg = SearchConfig::with_limit(budget);
    let (outcome, elapsed_ns) = fastest_of(repeats, || {
        let factory = || snapshot.problem(branching);
        let t0 = Instant::now();
        let out = portfolio(factory, &DEFAULT_MEMBERS, cfg, threads).outcome;
        (out, t0.elapsed().as_nanos())
    });
    CellResult {
        month: snapshot.month,
        algo: SearchAlgo::Portfolio.label(),
        branching,
        budget,
        threads,
        outcome,
        elapsed_ns,
    }
}

fn assert_outcomes_agree(
    a: &SearchOutcome<u32, ObjectiveCost>,
    b: &SearchOutcome<u32, ObjectiveCost>,
) {
    assert_eq!(a.stats, b.stats, "run changed the search statistics");
    assert_eq!(
        a.best_cost().map(|c| (c.excess, c.bsld_sum.to_bits())),
        b.best_cost().map(|c| (c.excess, c.bsld_sum.to_bits())),
        "run changed the best cost"
    );
    assert_eq!(
        a.best.as_ref().map(|(_, p)| p),
        b.best.as_ref().map(|(_, p)| p),
        "run changed the best leaf path"
    );
}

/// Runs the full pinned matrix and collects the report.  Every
/// portfolio (month, budget) group runs once per thread count, and all
/// outcomes within a group are asserted bit-identical — the worker
/// count may only change the timing columns.
pub fn run_matrix(opts: &PerfOpts) -> PerfReport {
    let snapshots: Vec<DecisionSnapshot> = MONTHS.iter().map(|&m| capture(m)).collect();
    let threads = if opts.threads.is_empty() {
        THREADS.to_vec()
    } else {
        opts.threads.clone()
    };
    let mut cells: Vec<CellResult> = Vec::new();
    for snapshot in &snapshots {
        for algo in [SearchAlgo::Dds, SearchAlgo::Lds] {
            for branching in [Branching::Fcfs, Branching::Lxf] {
                for &budget in opts.budgets() {
                    cells.push(run_cell(snapshot, algo, branching, budget, opts.repeats));
                }
            }
        }
        if opts.portfolio {
            for &budget in opts.budgets() {
                let group_start = cells.len();
                for &t in &threads {
                    let cell =
                        run_portfolio_cell(snapshot, Branching::Lxf, budget, t, opts.repeats);
                    if let Some(first) = cells.get(group_start) {
                        assert_outcomes_agree(&first.outcome, &cell.outcome);
                    }
                    cells.push(cell);
                }
            }
        }
    }
    let overhead = run_overhead(opts.repeats);
    PerfReport {
        snapshots,
        cells,
        overhead,
    }
}

/// Timings from the recorder-overhead probe: one pinned short
/// simulation run three ways — (a) the plain [`simulate`] entry point,
/// (b) [`simulate_traced`] with an explicitly disabled
/// [`sbs_obs::NullRecorder`], and (c) a fully enabled in-memory
/// [`TraceRecorder`].  (a) and (b) staying within noise of each other
/// is the recorder's "zero cost when disabled" claim; the harness tests
/// assert it with [`OverheadReport::disabled_within`].
pub struct OverheadReport {
    /// Fastest plain-`simulate` run, nanoseconds.
    pub baseline_ns: u128,
    /// Fastest disabled-recorder run, nanoseconds.
    pub disabled_ns: u128,
    /// Fastest enabled-recorder run, nanoseconds.
    pub enabled_ns: u128,
    /// Decisions per run (identical across variants by construction).
    pub decisions: u64,
}

impl OverheadReport {
    /// Disabled-recorder time relative to the plain baseline (1.0 =
    /// identical).
    pub fn disabled_ratio(&self) -> f64 {
        self.disabled_ns as f64 / self.baseline_ns.max(1) as f64
    }

    /// Enabled-recorder time relative to the plain baseline.
    pub fn enabled_ratio(&self) -> f64 {
        self.enabled_ns as f64 / self.baseline_ns.max(1) as f64
    }

    /// Whether the disabled-recorder run stayed within `tolerance`
    /// fractional slowdown of the no-recorder baseline.
    pub fn disabled_within(&self, tolerance: f64) -> bool {
        self.disabled_ratio() <= 1.0 + tolerance
    }

    /// The `overhead` object of the JSON document.
    pub fn to_json(&self) -> Value {
        json!({
            // sbs-lint: allow(cast-truncation): nanoseconds of one short simulation fit u64
            "baseline_ns": self.baseline_ns as u64,
            // sbs-lint: allow(cast-truncation): nanoseconds of one short simulation fit u64
            "disabled_recorder_ns": self.disabled_ns as u64,
            // sbs-lint: allow(cast-truncation): nanoseconds of one short simulation fit u64
            "enabled_recorder_ns": self.enabled_ns as u64,
            "disabled_ratio": self.disabled_ratio(),
            "enabled_ratio": self.enabled_ratio(),
            "decisions": self.decisions,
        })
    }
}

/// Runs the recorder-overhead probe: the Jun03 workload at a short span
/// scale under the headline search policy, fastest of `repeats` per
/// variant with the variants' runs interleaved.
pub fn run_overhead(repeats: u32) -> OverheadReport {
    let workload = WorkloadBuilder::month(Month::Jun03)
        .seed(CAPTURE_SEED)
        .span_scale(OVERHEAD_SCALE)
        .build();
    let policy =
        || PolicySpec::search_dynb(SearchAlgo::Dds, Branching::Lxf, OVERHEAD_BUDGET).build();
    let mut baseline = || simulate(&workload, policy(), SimConfig::default()).decisions;
    let mut disabled = || {
        simulate_traced(
            &workload,
            policy(),
            SimConfig::default(),
            &mut sbs_obs::NullRecorder,
        )
        .decisions
    };
    let mut enabled = || {
        let mut recorder = TraceRecorder::new(
            TimeMode::Virtual,
            TraceMeta {
                mode: String::new(),
                policy: "overhead probe".into(),
                capacity: workload.capacity,
                source: "bench-perf overhead".into(),
            },
        );
        simulate_traced(&workload, policy(), SimConfig::default(), &mut recorder).decisions
    };
    let mut variants: [&mut dyn FnMut() -> u64; 3] = [&mut baseline, &mut disabled, &mut enabled];
    let mut best = [u128::MAX; 3];
    let mut decisions = 0u64;
    // Interleaved, so a burst of machine load slows every variant alike
    // instead of all the repeats of one.
    for _ in 0..repeats.max(1) {
        for (run, best) in variants.iter_mut().zip(&mut best) {
            let t0 = Instant::now();
            decisions = run();
            *best = (*best).min(t0.elapsed().as_nanos());
        }
    }
    let [baseline_ns, disabled_ns, enabled_ns] = best;
    OverheadReport {
        baseline_ns,
        disabled_ns,
        enabled_ns,
        decisions,
    }
}

/// The harness output: snapshots plus every matrix cell.
pub struct PerfReport {
    /// The captured decision points, one per pinned month.
    pub snapshots: Vec<DecisionSnapshot>,
    /// All matrix cells in a fixed order.
    pub cells: Vec<CellResult>,
    /// The recorder-overhead probe timings.
    pub overhead: OverheadReport,
}

impl PerfReport {
    /// The machine-readable `BENCH_search.json` document.
    pub fn to_json(&self) -> Value {
        let months: Vec<&str> = self.snapshots.iter().map(|s| s.month.label()).collect();
        let budgets = self
            .cells
            .iter()
            .map(|c| c.budget)
            .fold(Vec::new(), |mut v: Vec<u64>, b| {
                if !v.contains(&b) {
                    v.push(b);
                }
                v
            });
        let snapshots: Vec<Value> = self
            .snapshots
            .iter()
            .map(|s| {
                json!({
                    "month": s.month.label(),
                    "queue_depth": s.queue.len(),
                    "running_jobs": s.running.len(),
                    "omega_s": s.omega,
                })
            })
            .collect();
        let results: Vec<Value> = self
            .cells
            .iter()
            .map(|c| {
                let best = c.outcome.best_cost();
                json!({
                    "id": c.id(),
                    "month": c.month.label(),
                    "algo": c.algo,
                    "branching": c.branching.label(),
                    "budget": c.budget,
                    "threads": c.threads,
                    "nodes": c.outcome.stats.nodes,
                    "leaves": c.outcome.stats.leaves,
                    "iterations": c.outcome.stats.iterations,
                    "exhausted": c.outcome.stats.exhausted,
                    "budget_hit": c.outcome.stats.budget_hit,
                    "deadline_hit": c.outcome.stats.deadline_hit,
                    "nodes_left_at_deadline": c.outcome.stats.nodes_left_at_deadline,
                    // sbs-lint: allow(cast-truncation): nanoseconds of one search fit u64
                    "elapsed_ns": c.elapsed_ns as u64,
                    "nodes_per_sec": c.nodes_per_sec(),
                    "ns_per_node": c.ns_per_node(),
                    "best_excess_s": best.map(|b| b.excess),
                    "best_bsld_sum": best.map(|b| b.bsld_sum),
                })
            })
            .collect();
        let threads =
            self.cells
                .iter()
                .map(|c| c.threads)
                .fold(Vec::new(), |mut v: Vec<usize>, t| {
                    if !v.contains(&t) {
                        v.push(t);
                    }
                    v
                });
        let mut algos: Vec<&str> = vec!["DDS", "LDS"];
        if self.cells.iter().any(|c| c.algo == "PORT") {
            algos.push("PORT");
        }
        json!({
            "schema": SCHEMA,
            "matrix": json!({
                "months": months,
                "algos": algos,
                "branchings": json!(["fcfs", "lxf"]),
                "budgets": budgets,
                "threads": threads,
                "cores": std::thread::available_parallelism().map_or(1, |n| n.get()),
                "capture_seed": CAPTURE_SEED,
                "capture_scale": CAPTURE_SCALE,
            }),
            "snapshots": snapshots,
            "results": results,
            "overhead": self.overhead.to_json(),
        })
    }

    /// Fixed-width text table for the terminal.
    pub fn render(&self) -> String {
        let mut out = String::from("search hot-path throughput (pinned matrix)\n\n");
        for s in &self.snapshots {
            out.push_str(&format!(
                "  {}: queue depth {}, {} running, omega {:.1} h\n",
                s.month.label(),
                s.queue.len(),
                s.running.len(),
                to_hours(s.omega),
            ));
        }
        out.push('\n');
        out.push_str(&format!(
            "{:<26} {:>9} {:>8} {:>12} {:>9} {:>12} {:>12}\n",
            "cell", "nodes", "leaves", "nodes/sec", "ns/node", "best excess", "best bsld"
        ));
        for c in &self.cells {
            let best = c.outcome.best_cost();
            out.push_str(&format!(
                "{:<26} {:>9} {:>8} {:>12.0} {:>9.1} {:>12} {:>12.3}\n",
                c.id(),
                c.outcome.stats.nodes,
                c.outcome.stats.leaves,
                c.nodes_per_sec(),
                c.ns_per_node(),
                best.map_or_else(|| "-".into(), |b| b.excess.to_string()),
                best.map_or(f64::NAN, |b| b.bsld_sum),
            ));
        }
        out.push_str(&format!(
            "\nrecorder overhead ({} decisions): disabled {:.2}x, enabled {:.2}x of the no-recorder baseline\n",
            self.overhead.decisions,
            self.overhead.disabled_ratio(),
            self.overhead.enabled_ratio(),
        ));
        out
    }
}

/// The cell fields [`check`] compares exactly.  The inputs are pinned,
/// so these must be equal on every machine: a difference means the
/// search itself behaved differently.
const DETERMINISTIC_FIELDS: [&str; 9] = [
    "nodes",
    "leaves",
    "iterations",
    "exhausted",
    "budget_hit",
    "deadline_hit",
    "nodes_left_at_deadline",
    "best_excess_s",
    "best_bsld_sum",
];

/// One failed comparison found by [`check`].
#[derive(Debug, PartialEq)]
pub enum CheckFailure {
    /// `nodes_per_sec` fell more than the tolerance below the baseline.
    Slower {
        /// Cell id.
        id: String,
        /// Baseline nodes/sec.
        baseline: f64,
        /// Current nodes/sec.
        current: f64,
    },
    /// A deterministic field (nodes, leaves, best cost, ...) differs
    /// from the baseline.
    Changed {
        /// Cell id.
        id: String,
        /// The differing field.
        field: &'static str,
        /// Baseline value.
        baseline: Value,
        /// Current value.
        current: Value,
    },
}

impl std::fmt::Display for CheckFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckFailure::Slower {
                id,
                baseline,
                current,
            } => write!(f, "{id}: {baseline:.0} -> {current:.0} nodes/sec"),
            CheckFailure::Changed {
                id,
                field,
                baseline,
                current,
            } => write!(f, "{id}: {field} changed, {baseline} -> {current}"),
        }
    }
}

/// Compares `current` against a `baseline` document, cell by cell for
/// every id present in both: each deterministic field must be equal,
/// and `nodes_per_sec` must stay `>= baseline * (1 - tolerance)`.
/// Cells present in only one document are ignored (the matrix may
/// grow).  Returns the failures; empty = pass.
pub fn check(current: &Value, baseline: &Value, tolerance: f64) -> Vec<CheckFailure> {
    fn rows(doc: &Value) -> &[Value] {
        doc["results"].as_array().map_or(&[], Vec::as_slice)
    }
    let base = rows(baseline);
    let mut failures = Vec::new();
    for cur in rows(current) {
        let Some(id) = cur["id"].as_str() else {
            continue;
        };
        let Some(old) = base.iter().find(|b| b["id"].as_str() == Some(id)) else {
            continue;
        };
        for field in DETERMINISTIC_FIELDS {
            if cur[field] != old[field] {
                failures.push(CheckFailure::Changed {
                    id: id.to_string(),
                    field,
                    baseline: old[field].clone(),
                    current: cur[field].clone(),
                });
            }
        }
        if let (Some(now), Some(then)) =
            (cur["nodes_per_sec"].as_f64(), old["nodes_per_sec"].as_f64())
        {
            if now < then * (1.0 - tolerance) {
                failures.push(CheckFailure::Slower {
                    id: id.to_string(),
                    baseline: then,
                    current: now,
                });
            }
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_is_deterministic_and_non_trivial() {
        let a = capture(Month::Jun03);
        let b = capture(Month::Jun03);
        assert_eq!(a.now, b.now);
        assert_eq!(a.queue, b.queue);
        assert_eq!(a.running, b.running);
        assert_eq!(a.omega, b.omega);
        assert!(
            a.queue.len() >= 4,
            "queue depth {} too shallow for a meaningful search",
            a.queue.len()
        );
    }

    #[test]
    fn cell_outcomes_are_repeatable_and_budget_bounded() {
        let snap = capture(Month::Jun03);
        let a = run_cell(&snap, SearchAlgo::Dds, Branching::Lxf, 1_000, 2);
        let b = run_cell(&snap, SearchAlgo::Dds, Branching::Lxf, 1_000, 1);
        assert!(a.outcome.stats.nodes <= 1_000);
        assert_eq!(a.outcome.stats.nodes, b.outcome.stats.nodes);
        assert_eq!(a.outcome.stats.leaves, b.outcome.stats.leaves);
        assert!(a.nodes_per_sec() > 0.0);
        assert_eq!(a.id(), "6/03/DDS/lxf/L1000/t1");
    }

    #[test]
    fn portfolio_cells_are_thread_count_invariant() {
        let snap = capture(Month::Jun03);
        let seq = run_portfolio_cell(&snap, Branching::Lxf, 2_000, 1, 1);
        assert_eq!(seq.id(), "6/03/PORT/lxf/L2000/t1");
        for threads in [2usize, 4] {
            let par = run_portfolio_cell(&snap, Branching::Lxf, 2_000, threads, 1);
            assert_eq!(seq.outcome.stats, par.outcome.stats, "threads={threads}");
            assert_eq!(
                seq.outcome
                    .best_cost()
                    .map(|c| (c.excess, c.bsld_sum.to_bits())),
                par.outcome
                    .best_cost()
                    .map(|c| (c.excess, c.bsld_sum.to_bits())),
            );
        }
    }

    #[test]
    fn disabled_recorder_stays_within_tolerance_of_the_baseline() {
        let o = run_overhead(3);
        assert!(o.decisions > 0, "the probe must make scheduling decisions");
        assert!(o.baseline_ns > 0 && o.disabled_ns > 0 && o.enabled_ns > 0);
        // The disabled-recorder path compiles down to the plain path
        // plus one cold branch per decision; fastest-of-3 timings of an
        // identical workload must land well inside a 50% envelope.
        assert!(
            o.disabled_within(0.5),
            "disabled recorder cost {:.2}x the no-recorder baseline",
            o.disabled_ratio()
        );
    }

    #[test]
    fn check_flags_only_regressions_beyond_tolerance() {
        let doc = |speed: f64| {
            json!({
                "results": vec![
                    json!({"id": "a", "nodes_per_sec": speed}),
                    json!({"id": "b", "nodes_per_sec": 100.0}),
                ],
            })
        };
        assert!(check(&doc(100.0), &doc(100.0), 0.5).is_empty());
        assert!(check(&doc(51.0), &doc(100.0), 0.5).is_empty());
        let r = check(&doc(49.0), &doc(100.0), 0.5);
        assert_eq!(
            r,
            vec![CheckFailure::Slower {
                id: "a".into(),
                baseline: 100.0,
                current: 49.0
            }]
        );
        // Ids absent from the baseline never fail.
        let fresh = json!({
            "results": vec![json!({"id": "new", "nodes_per_sec": 1.0})],
        });
        assert!(check(&fresh, &doc(100.0), 0.5).is_empty());
    }

    #[test]
    fn check_names_the_cell_and_field_whose_search_changed() {
        let cell = |leaves: u64, bsld: f64| {
            json!({
                "id": "6/03/DDS/lxf/L1000/t1",
                "nodes": 1000,
                "leaves": leaves,
                "iterations": 2,
                "exhausted": false,
                "budget_hit": true,
                "deadline_hit": false,
                "nodes_left_at_deadline": 0,
                "nodes_per_sec": 5.0e6,
                "best_excess_s": 3600,
                "best_bsld_sum": bsld,
            })
        };
        let doc = |leaves: u64, bsld: f64| json!({ "results": vec![cell(leaves, bsld)] });
        // Equal behaviour passes, however much faster the cell got; the
        // float field survives a print/parse round trip exactly.
        let baseline: Value =
            serde_json::from_str(&serde_json::to_string(&doc(30, 12.345_678_9)).expect("print"))
                .expect("parse");
        assert!(check(&doc(30, 12.345_678_9), &baseline, 0.0).is_empty());
        let failures = check(&doc(31, 12.345_678_900_001), &baseline, 0.0);
        let fields: Vec<&str> = failures
            .iter()
            .map(|f| match f {
                CheckFailure::Changed { id, field, .. } => {
                    assert_eq!(id, "6/03/DDS/lxf/L1000/t1");
                    *field
                }
                CheckFailure::Slower { .. } => panic!("no throughput change: {f}"),
            })
            .collect();
        assert_eq!(fields, ["leaves", "best_bsld_sum"]);
        assert_eq!(
            failures[0].to_string(),
            "6/03/DDS/lxf/L1000/t1: leaves changed, 30 -> 31"
        );
    }
}
