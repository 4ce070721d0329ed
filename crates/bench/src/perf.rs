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
//!
//! The harness times the search alone.  What the decision recorder costs
//! a whole run is the judged benchmark's `obs.recorder.enabled_ratio`;
//! that recording changes no decision is pinned by the trace-determinism
//! tests.

use sbs_core::objective::HierarchicalObjective;
use sbs_core::{Branching, ObjectiveCost, PolicySpec, ScheduleProblem, SearchAlgo};
use sbs_dsearch::{dds, lds, SearchConfig, SearchOutcome};
use sbs_sim::avail::AvailabilityProfile;
use sbs_sim::engine::{simulate, SimConfig};
use sbs_sim::policy::{Policy, SchedContext, WaitingJob};
use sbs_workload::generator::WorkloadBuilder;
use sbs_workload::job::JobId;
use sbs_workload::system::Month;
use sbs_workload::time::{to_hours, Time};
use serde_json::{json, Value};
use std::sync::Arc;
use std::time::Instant;

/// Schema identifier stamped into every emitted document.  `v3` drops
/// `v2`'s `threads` dimension and portfolio rows, so cell ids lose their
/// `/t{N}` suffix; [`check`] refuses to compare documents whose schemas
/// differ.
pub const SCHEMA: &str = "sbs-bench-perf/v3";

/// The pinned months decision points are captured from: one from each
/// runtime-limit regime plus the October load peak.
pub const MONTHS: [Month; 3] = [Month::Jun03, Month::Oct03, Month::Feb04];

/// The pinned per-decision node budgets (the paper's `L` sweep).
pub const BUDGETS: [u64; 3] = [1_000, 10_000, 100_000];

/// Workload seed used for every capture (arbitrary but frozen).
const CAPTURE_SEED: u64 = 42;

/// Span fraction simulated during capture; enough events to find a deep
/// queue while keeping the capture itself cheap.
const CAPTURE_SCALE: f64 = 0.12;

/// Harness options.
#[derive(Debug, Clone)]
pub struct PerfOpts {
    /// Smoke mode: drop the 100K budget and run one timing repeat.
    pub quick: bool,
    /// Timing repeats per cell (the fastest is reported).
    pub repeats: u32,
}

impl Default for PerfOpts {
    fn default() -> Self {
        PerfOpts {
            quick: false,
            repeats: 3,
        }
    }
}

impl PerfOpts {
    /// The smoke configuration used by `--quick` and CI: smaller budget
    /// column, one repeat.
    pub fn quick() -> Self {
        PerfOpts {
            quick: true,
            repeats: 1,
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
    /// Algorithm label (`DDS` or `LDS`).
    pub algo: String,
    /// Branching heuristic.
    pub branching: Branching,
    /// Node budget `L`.
    pub budget: u64,
    /// Deterministic outcome of the search.
    pub outcome: SearchOutcome<u32, ObjectiveCost>,
    /// Fastest elapsed wall time over the repeats, in nanoseconds.
    pub elapsed_ns: u128,
}

impl CellResult {
    /// Stable identifier of the cell inside the document.
    pub fn id(&self) -> String {
        format!(
            "{}/{}/{}/L{}",
            self.month.label(),
            self.algo,
            self.branching.label(),
            self.budget
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

/// Runs one DDS/LDS cell: `repeats` timed searches on a fresh problem
/// each time.
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
        #[expect(
            clippy::disallowed_methods,
            reason = "the perf matrix measures search speed in wall time by definition"
        )]
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

/// Runs the full pinned matrix and collects the report.
pub fn run_matrix(opts: &PerfOpts) -> PerfReport {
    let snapshots: Vec<DecisionSnapshot> = MONTHS.iter().map(|&m| capture(m)).collect();
    let mut cells: Vec<CellResult> = Vec::new();
    for snapshot in &snapshots {
        for algo in [SearchAlgo::Dds, SearchAlgo::Lds] {
            for branching in [Branching::Fcfs, Branching::Lxf] {
                for &budget in opts.budgets() {
                    cells.push(run_cell(snapshot, algo, branching, budget, opts.repeats));
                }
            }
        }
    }
    PerfReport { snapshots, cells }
}

/// The harness output: snapshots plus every matrix cell.
pub struct PerfReport {
    /// The captured decision points, one per pinned month.
    pub snapshots: Vec<DecisionSnapshot>,
    /// All matrix cells in a fixed order.
    pub cells: Vec<CellResult>,
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
                    "algo": c.algo.as_str(),
                    "branching": c.branching.label(),
                    "budget": c.budget,
                    "nodes": c.outcome.stats.nodes,
                    "leaves": c.outcome.stats.leaves,
                    "iterations": c.outcome.stats.iterations,
                    "exhausted": c.outcome.stats.exhausted,
                    "budget_hit": c.outcome.stats.budget_hit,
                    "deadline_hit": c.outcome.stats.deadline_hit,
                    "nodes_left_at_deadline": c.outcome.stats.nodes_left_at_deadline,
                    "elapsed_ns": u64::try_from(c.elapsed_ns).unwrap_or(u64::MAX),
                    "nodes_per_sec": c.nodes_per_sec(),
                    "ns_per_node": c.ns_per_node(),
                    "best_excess_s": best.map(|b| b.excess),
                    "best_bsld_sum": best.map(|b| b.bsld_sum),
                })
            })
            .collect();
        json!({
            "schema": SCHEMA,
            "matrix": json!({
                "months": months,
                "algos": json!(["DDS", "LDS"]),
                "branchings": json!(["fcfs", "lxf"]),
                "budgets": budgets,
                "capture_seed": CAPTURE_SEED,
                "capture_scale": CAPTURE_SCALE,
            }),
            "snapshots": snapshots,
            "results": results,
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
    /// The documents carry different `schema` values, so their cell ids
    /// name different things and no cell can be compared.
    SchemaMismatch {
        /// Baseline schema.
        baseline: Value,
        /// Current schema.
        current: Value,
    },
    /// No cell id appears in both documents: the check compared nothing.
    NothingCompared,
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
            CheckFailure::SchemaMismatch { baseline, current } => {
                write!(
                    f,
                    "schema differs, baseline {baseline} vs current {current}"
                )
            }
            CheckFailure::NothingCompared => write!(f, "no cell id is shared with the baseline"),
        }
    }
}

/// Compares `current` against a `baseline` document, cell by cell for
/// every id present in both: each deterministic field must be equal,
/// and `nodes_per_sec` must stay `>= baseline * (1 - tolerance)`.
/// Cells present in only one document are ignored (the matrix may
/// grow), but the two `schema` values must match and at least one cell
/// must be shared.  Returns the number of cells compared on a pass.
pub fn check(
    current: &Value,
    baseline: &Value,
    tolerance: f64,
) -> Result<usize, Vec<CheckFailure>> {
    fn rows(doc: &Value) -> &[Value] {
        doc["results"].as_array().map_or(&[], Vec::as_slice)
    }
    if current["schema"] != baseline["schema"] {
        return Err(vec![CheckFailure::SchemaMismatch {
            baseline: baseline["schema"].clone(),
            current: current["schema"].clone(),
        }]);
    }
    let base = rows(baseline);
    let mut compared = 0usize;
    let mut failures = Vec::new();
    for cur in rows(current) {
        let Some(id) = cur["id"].as_str() else {
            continue;
        };
        let Some(old) = base.iter().find(|b| b["id"].as_str() == Some(id)) else {
            continue;
        };
        compared += 1;
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
    if compared == 0 {
        failures.push(CheckFailure::NothingCompared);
    }
    if failures.is_empty() {
        Ok(compared)
    } else {
        Err(failures)
    }
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
        assert_eq!(a.id(), "6/03/DDS/lxf/L1000");
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
        assert_eq!(check(&doc(100.0), &doc(100.0), 0.5), Ok(2));
        assert_eq!(check(&doc(51.0), &doc(100.0), 0.5), Ok(2));
        let r = check(&doc(49.0), &doc(100.0), 0.5);
        assert_eq!(
            r,
            Err(vec![CheckFailure::Slower {
                id: "a".into(),
                baseline: 100.0,
                current: 49.0
            }])
        );
        // Ids absent from the baseline never fail, as long as one is shared.
        let grown = json!({
            "results": vec![
                json!({"id": "a", "nodes_per_sec": 100.0}),
                json!({"id": "new", "nodes_per_sec": 1.0}),
            ],
        });
        assert_eq!(check(&grown, &doc(100.0), 0.5), Ok(1));
    }

    #[test]
    fn check_fails_when_it_compares_nothing() {
        // A v2 baseline: same cells, every id carrying the `/t1` suffix.
        let cell = |id: &str| json!({"id": id, "nodes": 1000, "nodes_per_sec": 5.0e6});
        let v2_cells = || vec![cell("6/03/DDS/lxf/L1000/t1"), cell("6/03/LDS/lxf/L1000/t1")];
        let v2 = json!({"schema": "sbs-bench-perf/v2", "results": v2_cells()});
        let v3 = json!({
            "schema": SCHEMA,
            "results": vec![cell("6/03/DDS/lxf/L1000"), cell("6/03/LDS/lxf/L1000")],
        });
        assert_eq!(check(&v3, &v3, 0.5), Ok(2));
        assert_eq!(
            check(&v3, &v2, 0.5),
            Err(vec![CheckFailure::SchemaMismatch {
                baseline: json!("sbs-bench-perf/v2"),
                current: json!(SCHEMA),
            }])
        );
        // Same schema, disjoint ids: nothing to compare is a failure too.
        let relabelled = json!({"schema": SCHEMA, "results": v2_cells()});
        assert_eq!(
            check(&v3, &relabelled, 0.5),
            Err(vec![CheckFailure::NothingCompared])
        );
    }

    #[test]
    fn check_names_the_cell_and_field_whose_search_changed() {
        let cell = |leaves: u64, bsld: f64| {
            json!({
                "id": "6/03/DDS/lxf/L1000",
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
        assert_eq!(check(&doc(30, 12.345_678_9), &baseline, 0.0), Ok(1));
        let failures = check(&doc(31, 12.345_678_900_001), &baseline, 0.0).expect_err("changed");
        let fields: Vec<&str> = failures
            .iter()
            .map(|f| match f {
                CheckFailure::Changed { id, field, .. } => {
                    assert_eq!(id, "6/03/DDS/lxf/L1000");
                    *field
                }
                _ => panic!("only the search changed: {f}"),
            })
            .collect();
        assert_eq!(fields, ["leaves", "best_bsld_sum"]);
        assert_eq!(
            failures[0].to_string(),
            "6/03/DDS/lxf/L1000: leaves changed, 30 -> 31"
        );
    }
}
