#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # sbs-backfill
//!
//! The **priority backfill** policy family — the paper's baselines and
//! the de-facto standard for non-preemptive parallel job scheduling
//! (EASY-style backfilling as shipped by Maui, LSF, PBS and LoadLeveler).
//!
//! Under priority backfill, waiting jobs are considered in priority
//! order.  A configurable number of the highest-priority jobs that cannot
//! start immediately receive *reservations* (earliest start times against
//! the availability profile); any other job may start now only if doing
//! so does not delay a reservation.  The paper uses **one** reservation
//! ("we do not find more reservations to improve the performance",
//! Section 4); the count is a parameter here, which also powers the
//! reservation-count ablation.
//!
//! Priorities provided ([`PriorityOrder`]):
//!
//! * `Fcfs` — first come, first served: the maximum-wait envelope;
//! * `Lxf` — largest (bounded) slowdown first: the average-slowdown
//!   envelope;
//! * `Sjf` — shortest job first (known to starve long jobs; kept for the
//!   starvation tests and comparisons);
//! * `LxfW` — LXF plus a small weight on waiting time (Chiang & Vernon).
//!
//! [`selective_backfill`] is Srinivasan et al.'s variant, which grants
//! reservations only to jobs whose expected slowdown crosses a
//! starvation threshold; the paper found it to behave like LXF-backfill.
//! Every variant is one [`BackfillPolicy`] loop with a different
//! reservation rule.

pub mod policy;
pub mod priority;
pub mod selective;

pub use policy::BackfillPolicy;
pub use priority::PriorityOrder;

/// FCFS-backfill with a single reservation — the paper's first baseline.
pub fn fcfs_backfill() -> BackfillPolicy {
    BackfillPolicy::new(PriorityOrder::Fcfs, 1)
}

/// LXF-backfill with a single reservation — the paper's second baseline.
pub fn lxf_backfill() -> BackfillPolicy {
    BackfillPolicy::new(PriorityOrder::Lxf, 1)
}

/// SJF-backfill with a single reservation.
pub fn sjf_backfill() -> BackfillPolicy {
    BackfillPolicy::new(PriorityOrder::Sjf, 1)
}

/// Conservative backfill: *every* blocked job gets a reservation, so a
/// backfilled job can never delay anyone ahead of it in priority order.
/// The classic alternative to EASY; not evaluated in the paper but a
/// useful reference point (trades average performance for stronger
/// guarantees).
pub fn conservative_backfill() -> BackfillPolicy {
    BackfillPolicy::new(PriorityOrder::Fcfs, usize::MAX)
}

/// Selective backfill whose starvation threshold is an xfactor of 2.
pub fn selective_backfill() -> BackfillPolicy {
    BackfillPolicy::selective()
}
