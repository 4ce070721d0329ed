#![warn(missing_docs)]

//! # sbs-service
//!
//! The **online scheduler daemon**: a long-running service that wraps
//! any [`sbs_core::PolicySpec`] — the paper's search-based policies
//! included — behind a newline-delimited JSON protocol over TCP.
//!
//! The batch simulator answers *"how would this policy have scheduled
//! the month?"*; this crate answers *"run that policy as the
//! scheduler."*  Both drive the same decision-point state machine
//! ([`sbs_sim::SchedulerCore`]), so the daemon's schedules are
//! byte-identical to the simulator's for the same submission sequence —
//! an invariant the e2e tests pin down.
//!
//! Pieces:
//!
//! * [`protocol`] — the wire format: `submit` / `cancel` / `queue` /
//!   `metrics` / `drain` / `snapshot` / `shutdown`, one JSON object per
//!   line;
//! * [`cluster`] — [`Cluster`]: one scheduler world — clock-agnostic
//!   op bodies on top of `SchedulerCore`, including the batch-parity
//!   event replay, snapshots and the slow-decision incident ring;
//! * [`edge`] — [`Edge`]: the operator surface of one server (event
//!   journal, request-latency histogram, `/statusz` window, request
//!   journaling);
//! * [`daemon`] — [`Daemon`]: one cluster behind one edge;
//! * [`clock`] — wall and virtual time sources;
//! * [`snapshot`] — crash-safe JSON state snapshots and recovery;
//! * [`metrics`] — Prometheus exposition text;
//! * [`server`] — the event-driven TCP front end (JSON protocol and
//!   `GET /metrics` on the same port; one readiness loop that blocks in
//!   `poll(2)` over nonblocking sockets and services what is ready;
//!   bounded per-connection buffers; graceful SIGTERM drain).
//!
//! Anytime search: give [`ServiceConfig::with_deadline`] a per-decision
//! wall-clock budget and search policies return their best-so-far
//! schedule when it expires (see `sbs_dsearch`'s deadline budgets).

pub mod clock;
pub mod cluster;
pub mod daemon;
pub mod edge;
pub mod metrics;
pub mod protocol;
pub mod server;
pub mod snapshot;

pub use clock::{Clock, VirtualClock, WallClock};
pub use cluster::{Cluster, Incident};
pub use daemon::{Daemon, ServiceConfig};
pub use edge::Edge;
pub use metrics::MetricsView;
pub use protocol::{parse_request, parse_routed, CorrelationSource, Request, SubmitSpec};
pub use server::{HttpReply, Server, ServerHandler};
pub use snapshot::{CompletedStats, Snapshot};
