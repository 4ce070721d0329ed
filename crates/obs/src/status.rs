//! The self-scrape status window behind `/statusz`.
//!
//! A serving edge (the single-cluster daemon, or the fleet front end)
//! keeps one [`StatusWindow`]: a bounded ring of cumulative-counter
//! [`StatusSample`]s taken whenever scheduler time crosses a
//! [`STATUS_WINDOW`] boundary.  Windowed rates are differences between
//! the oldest retained sample and the live counters
//! ([`StatusWindow::rates`]).  A
//! fleet's sample is the field-wise sum of its tenants' samples
//! ([`StatusSample::absorb`]), so both edges share every line here.

use crate::{Histogram, RingBuffer};
use serde_json::{json, Value};

/// Self-scrape sampling window length in scheduler seconds.
pub const STATUS_WINDOW: u64 = 60;

/// Self-scrape status samples kept in memory (oldest evicted).
pub const STATUS_WINDOW_CAPACITY: usize = 32;

/// Cumulative counters as they stood at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatusSample {
    /// Scheduler time of the sample.
    pub at: u64,
    /// Jobs admitted.
    pub submitted: u64,
    /// Submissions refused.
    pub rejected: u64,
    /// Decision points executed.
    pub decisions: u64,
    /// Jobs waiting (a gauge, summed across tenants).
    pub queue_depth: u64,
    /// Search tree nodes expanded.
    pub search_nodes: u64,
    /// Jobs completed.
    pub completed: u64,
    /// Decisions cut short by the wall-clock deadline.
    pub deadline_truncations: u64,
}

impl StatusSample {
    /// Adds `other` field by field; `at` becomes the later of the two.
    pub fn absorb(&mut self, other: &StatusSample) {
        self.at = self.at.max(other.at);
        self.submitted += other.submitted;
        self.rejected += other.rejected;
        self.decisions += other.decisions;
        self.queue_depth += other.queue_depth;
        self.search_nodes += other.search_nodes;
        self.completed += other.completed;
        self.deadline_truncations += other.deadline_truncations;
    }

    /// One `windows[]` row of a status document.
    pub fn to_value(self) -> Value {
        json!({
            "at": self.at,
            "submitted": self.submitted,
            "rejected": self.rejected,
            "decisions": self.decisions,
            "queue_depth": self.queue_depth,
            "search_nodes": self.search_nodes,
            "completed": self.completed,
            "deadline_truncations": self.deadline_truncations,
        })
    }
}

/// Windowed rates between the oldest retained sample and now.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rates {
    /// Deadline-truncated decisions per decision.
    pub deadline_hit_rate: f64,
    /// Search nodes expanded per scheduler second.
    pub search_nodes_per_sec: f64,
    /// Jobs admitted per scheduler second.
    pub submitted_per_sec: f64,
}

/// The sample ring plus the next boundary at which to sample.
#[derive(Debug, Clone)]
pub struct StatusWindow {
    samples: RingBuffer<StatusSample>,
    next: u64,
}

/// The first window boundary strictly after `now`.
fn boundary_after(now: u64) -> u64 {
    let w = STATUS_WINDOW;
    (now / w).saturating_add(1).saturating_mul(w)
}

impl StatusWindow {
    /// An empty window whose first sample falls due at the first
    /// boundary after `now`.
    pub fn starting_at(now: u64) -> Self {
        StatusWindow {
            samples: RingBuffer::new(STATUS_WINDOW_CAPACITY),
            next: boundary_after(now),
        }
    }

    /// Whether scheduler time `now` has crossed the next boundary.
    pub fn due(&self, now: u64) -> bool {
        now >= self.next
    }

    /// Records `sample` and moves the boundary past it.
    pub fn push(&mut self, sample: StatusSample) {
        self.next = boundary_after(sample.at);
        self.samples.push(sample);
    }

    /// Rates from the oldest retained sample to `live` (lifetime rates
    /// while no window has closed yet); 0 where the span or the decision
    /// count is empty.
    pub fn rates(&self, live: &StatusSample) -> Rates {
        let oldest = self.samples.iter().next().copied().unwrap_or_default();
        let per = |delta: u64, over: u64| {
            if over > 0 {
                delta as f64 / over as f64
            } else {
                0.0
            }
        };
        let span = live.at.saturating_sub(oldest.at);
        Rates {
            deadline_hit_rate: per(
                live.deadline_truncations
                    .saturating_sub(oldest.deadline_truncations),
                live.decisions.saturating_sub(oldest.decisions),
            ),
            search_nodes_per_sec: per(live.search_nodes.saturating_sub(oldest.search_nodes), span),
            submitted_per_sec: per(live.submitted.saturating_sub(oldest.submitted), span),
        }
    }

    /// The retained samples, oldest first, as `windows[]` rows.
    pub fn to_value(&self) -> Value {
        Value::Array(self.samples.iter().map(|s| s.to_value()).collect())
    }
}

/// A latency histogram as the status documents spell it: `p50`, `p99`,
/// (with `tail`) `p999`, and `count`; all zero for `None`.
pub fn quantiles_value(hist: Option<&Histogram>, tail: bool) -> Value {
    let mut v = json!({
        "p50": hist.and_then(|h| h.quantile(0.50)).unwrap_or(0),
        "p99": hist.and_then(|h| h.quantile(0.99)).unwrap_or(0),
        "count": hist.map_or(0, Histogram::count),
    });
    if let (true, Value::Object(m)) = (tail, &mut v) {
        let p999 = hist.and_then(|h| h.quantile(0.999)).unwrap_or(0);
        m.insert("p999".into(), p999.into());
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(at: u64, decisions: u64, truncations: u64, nodes: u64) -> StatusSample {
        StatusSample {
            at,
            decisions,
            deadline_truncations: truncations,
            search_nodes: nodes,
            ..StatusSample::default()
        }
    }

    #[test]
    fn samples_fall_due_at_boundaries_and_rates_span_the_ring() {
        let mut w = StatusWindow::starting_at(130);
        assert!(!w.due(179) && w.due(180));
        // Lifetime rates until the first window closes.
        let r = w.rates(&sample(100, 10, 5, 400));
        assert_eq!((r.deadline_hit_rate, r.search_nodes_per_sec), (0.5, 4.0));
        w.push(sample(200, 10, 5, 400));
        assert!(!w.due(239) && w.due(240));
        let r = w.rates(&sample(300, 30, 10, 1_400));
        assert_eq!((r.deadline_hit_rate, r.search_nodes_per_sec), (0.25, 10.0));
        assert_eq!(w.to_value().as_array().map(Vec::len), Some(1));
        // An empty span divides nothing.
        assert_eq!(w.rates(&sample(200, 10, 5, 400)).search_nodes_per_sec, 0.0);
    }

    #[test]
    fn a_fleet_sample_is_the_sum_of_its_tenants() {
        let mut total = sample(10, 1, 0, 7);
        total.absorb(&sample(5, 2, 1, 3));
        assert_eq!(total, sample(10, 3, 1, 10));
    }
}
