#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # sbs-core
//!
//! **Goal-oriented, search-based job scheduling** — the primary
//! contribution of *"Search-based Job Scheduling for Parallel Computer
//! Workloads"* (Vasupongayya, Chiang & Massey, IEEE Cluster 2005),
//! implemented on top of the workspace's substrates:
//!
//! * [`sbs_workload`] — jobs and (synthetic) NCSA IA-64 monthly traces;
//! * [`sbs_sim`] — the event-driven cluster simulator;
//! * [`sbs_dsearch`] — LDS/DDS discrepancy search;
//! * [`sbs_backfill`] — the FCFS-/LXF-backfill baselines;
//! * [`sbs_metrics`] — the measurement suite.
//!
//! Instead of a hand-tuned priority function, the scheduler declares a
//! **hierarchical two-level objective** ([`objective`]):
//!
//! 1. minimize the **total excessive wait** — per-job wait beyond a
//!    target bound ω, which is either fixed or *dynamic* (the current
//!    longest wait in the queue);
//! 2. tie-break by minimizing the **average bounded slowdown**.
//!
//! At every decision point, a [`policy::SearchPolicy`] explores orderings
//! of the waiting jobs ([`schedule::ScheduleProblem`]) with LDS or DDS
//! under a node budget `L`, keeps the best schedule found, and starts the
//! jobs that schedule starts *now*.  The paper's headline policy is
//! **DDS/lxf/dynB**: DDS with largest-slowdown-first branching and the
//! dynamic bound — [`policy::SearchPolicy::dds_lxf_dynb`].
//!
//! The [`experiment`] module reproduces the paper's evaluation: scenario
//! construction (month x load x runtime knowledge), policy specs, and
//! parallel sweeps; every figure/table harness in `sbs-bench` is a thin
//! formatter over it.
//!
//! ## Quick start
//!
//! ```
//! use sbs_core::prelude::*;
//!
//! // A small June-2003-like workload (5% of the month's span, same
//! // arrival rate and load).
//! let workload = WorkloadBuilder::month(Month::Jun03).span_scale(0.05).seed(1).build();
//!
//! // The paper's headline policy vs the FCFS-backfill baseline.
//! let dds = SearchPolicy::dds_lxf_dynb(1_000);
//! let fcfs = sbs_backfill::fcfs_backfill();
//!
//! let a = simulate(&workload, dds, SimConfig::default());
//! let b = simulate(&workload, fcfs, SimConfig::default());
//! let (sa, sb) = (WaitStats::over(a.in_window()), WaitStats::over(b.in_window()));
//! println!("DDS/lxf/dynB avg wait {:.2} h vs FCFS-BF {:.2} h", sa.avg_wait_h, sb.avg_wait_h);
//! ```

pub mod experiment;
pub mod objective;
pub mod policy;
pub mod schedule;
pub mod spec;

pub use objective::{FairshareObjective, Objective, ObjectiveCost, TargetBound};
pub use policy::{Branching, SearchAlgo, SearchPolicy, SearchTotals};
pub use schedule::ScheduleProblem;
pub use spec::PolicySpec;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use crate::experiment::{LoadLevel, RunResult, Scenario};
    pub use crate::objective::{Objective, ObjectiveCost, TargetBound};
    pub use crate::policy::{Branching, SearchAlgo, SearchPolicy};
    pub use crate::spec::PolicySpec;
    pub use sbs_backfill::{
        fcfs_backfill, lxf_backfill, sjf_backfill, BackfillPolicy, PriorityOrder,
    };
    pub use sbs_metrics::{percentile_wait, ExcessStats, WaitStats};
    pub use sbs_sim::{simulate, Policy, SimConfig, SimResult};
    pub use sbs_workload::job::RuntimeKnowledge;
    pub use sbs_workload::time::{hours, to_hours, HOUR, MINUTE};
    pub use sbs_workload::{Job, JobId, Month, MonthProfile, Workload, WorkloadBuilder};
}
