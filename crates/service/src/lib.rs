#![deny(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing,
    reason = "the daemon runs unattended: bad input must become an error response, never a dead scheduler"
)]
#![warn(missing_docs)]

//! # sbs-service
//!
//! The **online scheduler's building blocks**: one scheduler world
//! running any [`sbs_core::PolicySpec`] — the paper's search-based
//! policies included — and the newline-delimited JSON protocol and TCP
//! loop that serve it.  `sbs-fleet` puts them together: `sbs serve` is a
//! fleet, normally of one tenant.
//!
//! The batch simulator answers *"how would this policy have scheduled
//! the month?"*; this crate answers *"run that policy as the
//! scheduler."*  Both drive the same decision-point state machine
//! ([`sbs_sim::SchedulerCore`]), so a cluster's schedules are
//! byte-identical to the simulator's for the same submission sequence —
//! an invariant the e2e tests pin down.
//!
//! Pieces:
//!
//! * [`protocol`] — the wire format: `submit` / `cancel` / `queue` /
//!   `metrics` / `drain` / `snapshot` / `shutdown`, one JSON object per
//!   line;
//! * [`cluster`] — [`Cluster`] and its [`ServiceConfig`]: one scheduler
//!   world — clock-agnostic tenant-scoped op bodies on top of
//!   `SchedulerCore`, including the batch-parity event replay, snapshots
//!   and the slow-decision incident ring;
//! * [`edge`] — [`Edge`]: the operator surface of one server (event
//!   journal, request-latency histogram, request journaling);
//! * [`clock`] — wall and virtual time sources;
//! * [`snapshot`] — crash-safe JSON state snapshots and recovery;
//! * [`metrics`] — every per-tenant number the edge serves, declared
//!   once, and the tenant's Prometheus exposition;
//! * [`server`] — the event-driven TCP front end (JSON protocol and
//!   `GET /metrics` on the same port; one readiness loop that blocks in
//!   `poll(2)` over nonblocking sockets and services what is ready;
//!   bounded per-connection buffers; graceful SIGTERM drain);
//! * [`witness`] — the lock discipline, checked at run time in debug
//!   builds: every lock is taken through [`witness::lock`].
//!
//! Anytime search: give [`ServiceConfig::deadline`] a per-decision
//! wall-clock budget and search policies return their best-so-far
//! schedule when it expires (see `sbs_dsearch`'s deadline budgets).

pub mod clock;
pub mod cluster;
pub mod edge;
pub mod metrics;
pub mod protocol;
pub mod server;
pub mod snapshot;
pub mod witness;

// The witness's restatements of the retired static lock rules.
#[cfg(all(test, debug_assertions))]
mod flowrules;
#[cfg(all(test, debug_assertions))]
mod semrules;

pub use clock::{Clock, VirtualClock, WallClock};
pub use cluster::{Cluster, Daemon, Incident, ServiceConfig};
pub use edge::Edge;
pub use protocol::{parse_routed, CorrelationSource, Request, SubmitSpec};
pub use server::{HttpReply, Server, ServerHandler};
pub use snapshot::Snapshot;
