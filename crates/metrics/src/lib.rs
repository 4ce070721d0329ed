#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # sbs-metrics
//!
//! The paper's performance-measure suite (Section 4), computed over the
//! in-window [`JobRecord`]s of a simulation:
//!
//! * **average / maximum wait** and **average bounded slowdown** (with
//!   the 1-minute runtime floor) — [`basic::WaitStats`];
//! * **percentile waits** (the 98th percentile of FCFS-backfill defines
//!   one of the excessive-wait thresholds) — [`basic::percentile_wait`];
//! * the **normalized excessive wait** family w.r.t. a threshold `t`:
//!   total, number of jobs affected, and average over affected jobs —
//!   [`excess::ExcessStats`];
//! * **per-job-class** (runtime range x node range) average waits, the
//!   grids of Figure 5 and Table 4 — [`classes`];
//! * plain-text table rendering used by every experiment harness —
//!   [`table`].

pub mod basic;
pub mod classes;
pub mod excess;
pub mod fairness;
pub mod table;
pub mod timeline;

pub use basic::{percentile_wait, WaitStats};
pub use classes::ClassGrid;
pub use excess::ExcessStats;
pub use sbs_sim::JobRecord;
