//! # sbs-fleet — the sharded scheduler daemon behind `sbs serve`
//!
//! Hosts independent scheduler worlds ("clusters") behind one
//! newline-JSON endpoint.  Requests carry an optional `cluster` field;
//! the [`Fleet`] routes each one to its tenant's
//! [`sbs_service::Cluster`] through a deterministic FNV-1a shard hash,
//! holding exactly one shard lock per operation.  A request without a
//! `cluster` goes to the `default` tenant, so `sbs serve` is normally a
//! one-tenant fleet and single-cluster clients never name a cluster.
//!
//! On top of plain routing the fleet adds:
//!
//! - **Admission control** ([`TenantQuota`]): a per-tenant queue-depth
//!   cap, plus fairshare against an equal split of the fleet-wide
//!   pending demand (integer-only, lock-free inputs).
//! - **Bounded-cardinality metrics**: fleet-level families plus
//!   per-cluster `cluster="..."` series capped at a configurable label
//!   budget with an `_other` overflow bucket.
//! - **Per-cluster persistence**: one snapshot file per tenant, and
//!   the files are the record of which tenants exist; [`Fleet::new`]
//!   recovers every tenant with a snapshot after a crash.
//!
//! The fleet is the one [`sbs_service::ServerHandler`]: the same
//! event-driven readiness loop serves one tenant or a thousand.

#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing,
    reason = "one panic takes every tenant down: bad input must become an error response, never a dead scheduler"
)]

pub mod fleet;
pub mod quota;

pub use fleet::{Fleet, FleetConfig};
pub use quota::{FleetDemand, QuotaDenied, TenantQuota};

/// Tests of what `sbs serve` runs by default: one tenant, reached by
/// requests that name no cluster, over one [`sbs_service::Cluster`].
#[cfg(test)]
mod daemon {
    mod tests;
}
