//! The one sanctioned wall-clock read in the search crate.
//!
//! Everything in `sbs-dsearch` is deterministic **except** the anytime
//! deadline: "stop searching after 50 ms" is real time by definition,
//! and no injectable virtual clock can express it without lying.  The
//! two `Instant` reads that implement it live here — and only here — so
//! the `wall-clock` lint keeps the rest of the search code honest: a
//! clock read anywhere else in this crate is a bug, because it would
//! make *which leaf wins* depend on machine speed rather than only on
//! *when the search stops*.
//!
//! The driver checks the deadline every
//! [`DEADLINE_CHECK_INTERVAL`](crate::problem::DEADLINE_CHECK_INTERVAL)
//! nodes and keeps the best-so-far leaf on expiry, so a deadline can
//! truncate a search but never reorder it.

use std::time::{Duration, Instant};

/// A wall-clock deadline for an anytime search, armed at construction.
#[derive(Debug, Clone, Copy)]
pub struct DeadlineTimer {
    expires_at: Option<Instant>,
}

impl DeadlineTimer {
    /// A timer expiring `deadline` from now; `None` never expires.
    #[expect(
        clippy::disallowed_methods,
        reason = "the anytime deadline is real time by definition; this module is the crate's single sanctioned read site"
    )]
    pub fn starting_now(deadline: Option<Duration>) -> Self {
        DeadlineTimer {
            expires_at: deadline.map(|d| Instant::now() + d),
        }
    }

    /// True once the deadline has passed.  Costs a clock read; callers
    /// amortize it over many search nodes.
    #[expect(
        clippy::disallowed_methods,
        reason = "the expiry check is the deadline feature itself, isolated here so search logic stays clock-free"
    )]
    pub fn expired(&self) -> bool {
        match self.expires_at {
            Some(at) => Instant::now() >= at,
            None => false,
        }
    }

    /// True when a deadline is armed at all (lets the driver skip the
    /// amortized check entirely for node-budget-only searches).
    pub fn armed(&self) -> bool {
        self.expires_at.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_timers_never_expire() {
        let t = DeadlineTimer::starting_now(None);
        assert!(!t.armed());
        assert!(!t.expired());
    }

    #[test]
    fn zero_deadline_expires_immediately() {
        let t = DeadlineTimer::starting_now(Some(Duration::ZERO));
        assert!(t.armed());
        assert!(t.expired());
    }

    #[test]
    fn generous_deadline_does_not_expire_yet() {
        let t = DeadlineTimer::starting_now(Some(Duration::from_secs(3600)));
        assert!(t.armed());
        assert!(!t.expired());
    }
}
