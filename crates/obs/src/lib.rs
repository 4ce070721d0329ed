//! Deterministic telemetry for the search-based scheduler.
//!
//! The crate is std-only and never reads a clock: every timestamp and
//! weight it handles is *injected* by the caller (virtual simulation
//! time from the engine, wall time from the daemon's sanctioned clock
//! sites).  That is what keeps recording compatible with the repo's
//! determinism contract — with a [`TraceRecorder`] in
//! [`TimeMode::Virtual`] mode, two identical simulation runs fold and
//! serialize byte-identical telemetry.
//!
//! Layers, bottom to top:
//!
//! - [`Histogram`]: fixed-bucket cumulative histogram over `u64` values.
//! - [`DecisionTrace`] et al.: the schema-versioned (`sbs-trace/v1`)
//!   per-decision record, JSONL-encodable; each fact it holds is stored
//!   once, and what follows from it is left to the reader.
//! - [`Recorder`]: the zero-cost-when-disabled hook the scheduler core
//!   calls once per decision; [`NullRecorder`] is the disabled impl.
//! - [`Tally`]: every per-tenant count and distribution a served view
//!   reports, in typed fields, folded once per decision.
//! - [`TraceRecorder`]: the real sink — the tally, the last decision,
//!   optional JSONL writer.
//! - [`expo`]: Prometheus text exposition (render, parse, validate).
//! - [`explore`]: offline aggregation of a JSONL log into tables and a
//!   collapsed-stack file (`sbs trace`) whose span weights it derives
//!   from the decisions' deterministic counts.
//! - [`EventJournal`]: the `sbs-events/v1` operational journal, which
//!   writes the lifecycle ops and the failed requests and counts the
//!   rest — counters plus an appending, rotating JSONL sink, built from
//!   the [`ObsConfig`] a serving edge embeds.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod events;
pub mod explore;
pub mod expo;
mod hist;
mod record;
mod sink;
mod span;
mod tally;

pub use events::{
    tail_max, Event, EventJournal, ObsConfig, Severity, DEFAULT_EVENT_LOG_MAX_BYTES, EVENT_SCHEMA,
};
pub use explore::TraceReport;
pub use hist::Histogram;
pub use record::{BackfillTrace, DecisionTrace, PolicyTrace, SearchTrace, TraceMeta, TRACE_SCHEMA};
pub use sink::{TimeMode, TraceRecorder};
pub use span::Spans;
pub use tally::Tally;

/// Per-decision telemetry hook.
///
/// The scheduler core calls [`Recorder::record_decision`] exactly once
/// per decision point; producers gate all trace *assembly* on
/// [`Recorder::enabled`], so with a [`NullRecorder`] the hot path pays
/// one branch and nothing else.
pub trait Recorder {
    /// Whether this recorder wants traces at all.  Callers must skip
    /// trace assembly when this is `false`.
    fn enabled(&self) -> bool {
        false
    }

    /// Folds one completed decision into the recorder, which keeps it.
    fn record_decision(&mut self, _decision: DecisionTrace) {}
}

/// The disabled recorder: every method is a no-op and
/// [`Recorder::enabled`] is `false`.
pub struct NullRecorder;

impl Recorder for NullRecorder {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_recorder_is_disabled() {
        let mut r = NullRecorder;
        assert!(!r.enabled());
        r.record_decision(DecisionTrace::default());
    }
}
