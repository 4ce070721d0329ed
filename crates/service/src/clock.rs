//! Time sources for the daemon.
//!
//! The scheduler core measures time in seconds ([`Time`]); the daemon
//! maps those onto either real time ([`WallClock`]) or an explicitly
//! driven virtual timeline ([`VirtualClock`]).  The virtual clock is
//! what makes the daemon deterministic enough to compare byte-for-byte
//! against the batch simulator.

use sbs_workload::time::Time;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A monotone source of scheduler time.
pub trait Clock: Send {
    /// Current scheduler time.
    fn now(&self) -> Time;

    /// Moves the clock forward to `t` (no-op when `t` is in the past).
    /// Returns `false` for clocks that cannot be steered (wall clocks) —
    /// callers treat explicit event times as unsupported then.
    fn advance_to(&self, t: Time) -> bool;
}

/// Real time, anchored so that daemon start-up corresponds to scheduler
/// time `origin` (snapshot recovery restarts later than zero).
pub struct WallClock {
    epoch: Instant,
    origin: Time,
}

impl WallClock {
    /// A wall clock whose current reading is `origin`.
    #[expect(
        clippy::disallowed_methods,
        reason = "the daemon's injectable wall clock is the one sanctioned real-time source"
    )]
    pub fn starting_at(origin: Time) -> Self {
        WallClock {
            epoch: Instant::now(),
            origin,
        }
    }
}

impl Clock for WallClock {
    fn now(&self) -> Time {
        self.origin.saturating_add(self.epoch.elapsed().as_secs())
    }

    fn advance_to(&self, _: Time) -> bool {
        false
    }
}

/// An explicitly advanced clock; reads are monotone because writers can
/// only move it forward.  Cheap to clone and share across threads.
#[derive(Clone, Default)]
pub struct VirtualClock(Arc<AtomicU64>);

impl VirtualClock {
    /// A virtual clock starting at `origin`.
    pub fn starting_at(origin: Time) -> Self {
        VirtualClock(Arc::new(AtomicU64::new(origin)))
    }
}

impl Clock for VirtualClock {
    fn now(&self) -> Time {
        self.0.load(Ordering::SeqCst)
    }

    fn advance_to(&self, t: Time) -> bool {
        self.0.fetch_max(t, Ordering::SeqCst);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_clock_is_monotone() {
        let c = VirtualClock::starting_at(100);
        assert_eq!(c.now(), 100);
        assert!(c.advance_to(500));
        assert_eq!(c.now(), 500);
        c.advance_to(300); // backwards: ignored
        assert_eq!(c.now(), 500);
    }

    #[test]
    fn wall_clock_reports_origin_and_refuses_steering() {
        let c = WallClock::starting_at(10_000);
        assert!(c.now() >= 10_000);
        assert!(!c.advance_to(99_999));
    }
}
