#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # sbs-sim
//!
//! Event-driven simulation of **non-preemptive, space-shared** parallel
//! job scheduling, as used for every experiment in the paper.
//!
//! The machine is a pool of identical nodes (a node is the smallest
//! allocation unit; the NCSA IA-64 system has 128).  Jobs arrive over
//! time, wait in a queue, are started by a scheduling [`Policy`] at
//! *decision points* — each job arrival and departure — and run to
//! completion on their requested number of nodes.
//!
//! The crate provides:
//!
//! * [`avail::AvailabilityProfile`] — the free-node "skyline" over future
//!   time that both backfill and tree-search policies plan against, with
//!   `O(segments)` earliest-start queries and reversible reservations;
//! * [`policy::Policy`] — the scheduling-policy interface, fed a
//!   [`policy::SchedContext`] snapshot of queue and machine state.  The
//!   scheduler only ever sees each job's `R*` runtime (actual or
//!   requested, per the experiment's [`RuntimeKnowledge`] mode), never
//!   the future;
//! * [`engine::simulate`] — the discrete-event loop, including the
//!   paper's warm-up/cool-down measurement-window handling and
//!   time-weighted queue-length tracking (Figure 4(d)).
//!
//! The engine *verifies* policy behaviour as it goes: starting an absent
//! job, over-committing nodes, or leaving jobs stranded is a panic, so
//! every test exercising a policy is also an invariant check.

pub mod avail;
pub mod cluster;
pub mod core;
pub mod engine;
pub mod policy;
pub mod record;
pub mod tracelog;

pub use avail::AvailabilityProfile;
pub use cluster::{Cluster, RunningJob};
pub use core::SchedulerCore;
pub use engine::{simulate, simulate_traced, SimConfig, SimResult};
pub use policy::{Policy, SchedContext, WaitingJob};
pub use record::JobRecord;
pub use sbs_workload::job::RuntimeKnowledge;
