//! Offline shim for `serde`: re-exports no-op derive macros.
//!
//! Workspace types carry `#[derive(Serialize, Deserialize)]` so that the
//! manifests (and any future swap back to the real serde) stay
//! unchanged; serialization itself is done by the value-based
//! `serde_json` shim, which does not use these traits.

#![allow(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "stands in for an upstream crate; the workspace determinism bans do not apply to it"
)]

pub use serde_derive::{Deserialize, Serialize};

/// Marker trait mirroring `serde::Serialize` (never required by the
/// workspace's JSON layer; present so trait-bound-style code compiles).
pub trait Serialize {}

/// Marker trait mirroring `serde::Deserialize`.
pub trait Deserialize<'de> {}
