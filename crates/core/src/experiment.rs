//! Experiment orchestration: scenarios, runs, and parallel sweeps.
//!
//! A [`Scenario`] fixes everything about a simulation except the policy
//! (month, load level, runtime knowledge, workload scale and seed); a
//! [`PolicySpec`] fixes the policy.  [`run`] executes one combination;
//! [`run_matrix`] fans a whole month x policy grid out across CPU cores
//! with rayon.  Every figure/table harness in `sbs-bench` is a formatter
//! over these results.

use crate::policy::SearchTotals;
use crate::spec::PolicySpec;
use rayon::prelude::*;
use sbs_metrics::{percentile_wait, ExcessStats, WaitStats};
use sbs_sim::engine::{simulate, SimConfig};
use sbs_sim::prediction::PredictorSpec;
use sbs_sim::JobRecord;
use sbs_workload::generator::{Workload, WorkloadBuilder};
use sbs_workload::job::RuntimeKnowledge;
use sbs_workload::system::Month;
use sbs_workload::time::Time;

/// Offered-load level of a scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LoadLevel {
    /// The month's original load (Table 3).
    Original,
    /// Inter-arrival times shrunk to reach this offered load (the paper
    /// uses 0.9).
    Rho(f64),
}

impl LoadLevel {
    /// Human label (`original` / `rho=0.9`).
    pub fn label(&self) -> String {
        match self {
            LoadLevel::Original => "original".to_string(),
            LoadLevel::Rho(r) => format!("rho={r}"),
        }
    }
}

/// Everything about a simulation except the policy.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Which monthly workload.
    pub month: Month,
    /// Offered load.
    pub load: LoadLevel,
    /// `R* = T` or `R* = R`.
    pub knowledge: RuntimeKnowledge,
    /// Fraction of the month's *time span* to simulate (1.0 = the full
    /// month).  The arrival rate, mix and offered load are preserved, so
    /// scaled scenarios keep the month's contention character — tests
    /// use small fractions for speed.
    pub scale: f64,
    /// Workload RNG seed; scenarios with equal fields produce identical
    /// workloads, so policies compared within a scenario see the same
    /// trace.
    pub seed: u64,
    /// Optional online runtime predictor supplying `R*` (overrides
    /// `knowledge`; the paper's Section 7 future work).
    pub predictor: Option<PredictorSpec>,
}

impl Scenario {
    /// The month at its original load, full scale, `R* = T`.
    pub fn original(month: Month) -> Self {
        Scenario {
            month,
            load: LoadLevel::Original,
            knowledge: RuntimeKnowledge::Actual,
            scale: 1.0,
            seed: 0x5b5_0000 + month.index() as u64,
            predictor: None,
        }
    }

    /// The paper's high-load variant (`rho = 0.9`).
    pub fn high_load(month: Month) -> Self {
        Scenario {
            load: LoadLevel::Rho(0.9),
            ..Self::original(month)
        }
    }

    /// Switches the runtime-knowledge mode.
    pub fn with_knowledge(mut self, knowledge: RuntimeKnowledge) -> Self {
        self.knowledge = knowledge;
        self
    }

    /// Scales the workload down for fast runs.
    pub fn with_scale(mut self, scale: f64) -> Self {
        self.scale = scale;
        self
    }

    /// Overrides the workload seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables online runtime prediction as the `R*` source.
    pub fn with_predictor(mut self, predictor: PredictorSpec) -> Self {
        self.predictor = Some(predictor);
        self
    }

    /// Generates the scenario's workload.
    pub fn workload(&self) -> Workload {
        let mut b = WorkloadBuilder::month(self.month).seed(self.seed);
        if self.scale != 1.0 {
            b = b.span_scale(self.scale);
        }
        if let LoadLevel::Rho(rho) = self.load {
            b = b.target_load(rho);
        }
        b.build()
    }

    /// Short description for logs, e.g. `1/04 rho=0.9 R*=T`.
    pub fn label(&self) -> String {
        format!(
            "{} {} {}",
            self.month.label(),
            self.load.label(),
            self.knowledge
        )
    }
}

/// The outcome of one (scenario, policy) run, with the in-window job
/// records kept so callers can derive any further measure.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The month simulated.
    pub month: Month,
    /// Display name of the policy.
    pub policy: String,
    /// Aggregate wait/slowdown statistics over the in-window jobs.
    pub stats: WaitStats,
    /// In-window job records.
    pub records: Vec<JobRecord>,
    /// Time-weighted average queue length (Figure 4(d)).
    pub avg_queue_length: f64,
    /// Node utilization over the window.
    pub utilization: f64,
    /// Decision points executed.
    pub decisions: u64,
    /// Wall-clock nanoseconds inside the policy.
    pub policy_nanos: u64,
    /// Search counters (search policies only).
    pub search: Option<SearchTotals>,
}

impl RunResult {
    /// Excessive-wait statistics w.r.t. `threshold` seconds.
    pub fn excess(&self, threshold: Time) -> ExcessStats {
        ExcessStats::over(&self.records, threshold)
    }

    /// Maximum wait in seconds.
    pub fn max_wait(&self) -> Time {
        self.records.iter().map(|r| r.wait()).max().unwrap_or(0)
    }

    /// The `p`-th percentile wait in seconds.
    pub fn percentile_wait(&self, p: f64) -> Time {
        percentile_wait(&self.records, p)
    }
}

/// Runs one (scenario, policy) combination.
pub fn run(scenario: &Scenario, spec: &PolicySpec) -> RunResult {
    let workload = scenario.workload();
    run_on(&workload, scenario, spec)
}

/// Runs a policy on an already-generated workload (callers sweeping many
/// policies over one scenario should generate the workload once).
pub fn run_on(workload: &Workload, scenario: &Scenario, spec: &PolicySpec) -> RunResult {
    let cfg = SimConfig {
        knowledge: scenario.knowledge,
        predictor: scenario.predictor.as_ref().map(|p| p.build()),
        ..Default::default()
    };
    let (result, search) = match spec.build_search() {
        Some(mut p) => {
            let r = simulate(workload, &mut p, cfg);
            let totals = p.totals();
            (r, Some(totals))
        }
        None => (simulate(workload, spec.build(), cfg), None),
    };
    let records: Vec<JobRecord> = result.in_window().copied().collect();
    RunResult {
        month: scenario.month,
        policy: result.policy.clone(),
        stats: WaitStats::over(&records),
        records,
        avg_queue_length: result.avg_queue_length,
        utilization: result.utilization,
        decisions: result.decisions,
        policy_nanos: result.policy_nanos,
        search,
    }
}

/// Runs every (scenario, spec) pair in parallel; results are returned in
/// the same row-major order (`scenarios x specs`).
pub fn run_matrix(scenarios: &[Scenario], specs: &[PolicySpec]) -> Vec<RunResult> {
    let pairs: Vec<(usize, usize)> = (0..scenarios.len())
        .flat_map(|i| (0..specs.len()).map(move |j| (i, j)))
        .collect();
    pairs
        .into_par_iter()
        .map(|(i, j)| run(&scenarios[i], &specs[j]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbs_sim::engine::check_invariants;

    fn quick(month: Month) -> Scenario {
        Scenario::original(month).with_scale(0.04)
    }

    #[test]
    fn scenario_workloads_are_deterministic() {
        let a = quick(Month::Jun03).workload();
        let b = quick(Month::Jun03).workload();
        assert_eq!(a.jobs, b.jobs);
    }

    #[test]
    fn run_produces_in_window_stats() {
        let r = run(&quick(Month::Jun03), &PolicySpec::FcfsBackfill);
        assert!(r.stats.jobs > 50, "expected a meaningful job count");
        assert_eq!(r.policy, "FCFS-backfill");
        assert!(r.search.is_none());
        assert!(r.decisions > 0);
    }

    #[test]
    fn search_runs_report_totals() {
        let r = run(&quick(Month::Jun03), &PolicySpec::dds_lxf_dynb(200));
        let t = r.search.expect("search totals");
        assert!(t.decisions > 0);
        assert!(t.nodes > 0);
    }

    #[test]
    fn matrix_preserves_order_and_pairs() {
        let scenarios = vec![quick(Month::Jun03), quick(Month::Jul03)];
        let specs = vec![PolicySpec::FcfsBackfill, PolicySpec::LxfBackfill];
        let rs = run_matrix(&scenarios, &specs);
        assert_eq!(rs.len(), 4);
        assert_eq!(rs[0].month, Month::Jun03);
        assert_eq!(rs[0].policy, "FCFS-backfill");
        assert_eq!(rs[1].policy, "LXF-backfill");
        assert_eq!(rs[2].month, Month::Jul03);
    }

    #[test]
    fn same_scenario_gives_policies_the_same_trace() {
        // FCFS-BF's zero-excess property only holds if thresholds come
        // from the same workload: check the workload equality path.
        let s = quick(Month::Aug03);
        let fcfs = run(&s, &PolicySpec::FcfsBackfill);
        let excess = fcfs.excess(fcfs.max_wait());
        assert_eq!(excess.jobs_with_excess, 0);
        assert_eq!(excess.total_h, 0.0);
    }

    #[test]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "2% of a month of jobs is a small count"
    )]
    fn excess_and_percentiles_are_consistent() {
        let s = quick(Month::Sep03);
        let r = run(&s, &PolicySpec::LxfBackfill);
        let p98 = r.percentile_wait(98.0);
        let e = r.excess(p98);
        // At most 2% of jobs can exceed the 98th percentile.
        assert!(e.jobs_with_excess <= (r.stats.jobs as f64 * 0.02).ceil() as usize);
    }

    #[test]
    fn record_invariants_hold_for_search_policy() {
        let s = quick(Month::Oct03);
        let w = s.workload();
        let cfg = SimConfig {
            knowledge: s.knowledge,
            ..Default::default()
        };
        let sim = simulate(&w, crate::SearchPolicy::dds_lxf_dynb(300), cfg);
        check_invariants(&sim);
    }
}
