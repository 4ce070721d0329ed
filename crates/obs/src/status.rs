//! The counters behind `/statusz`.
//!
//! A serving edge reports cumulative counters only; a reader that wants
//! a rate (`sbs top`) takes the difference between two documents it
//! fetched.  A fleet's [`StatusSample`] is the field-wise sum of its
//! tenants' samples ([`StatusSample::absorb`]), and [`quantiles_value`]
//! is the one latency renderer.

use crate::Histogram;
use serde_json::{json, Value};

/// Cumulative counters as they stood at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatusSample {
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
    /// Decisions cut short by the wall-clock deadline.
    pub deadline_truncations: u64,
}

impl StatusSample {
    /// Adds `other` field by field.
    pub fn absorb(&mut self, other: &StatusSample) {
        self.submitted += other.submitted;
        self.rejected += other.rejected;
        self.decisions += other.decisions;
        self.queue_depth += other.queue_depth;
        self.search_nodes += other.search_nodes;
        self.deadline_truncations += other.deadline_truncations;
    }
}

/// A latency histogram as the status documents spell it: `p50`, `p99`,
/// `p999` and `count`; all zero for `None`.
pub fn quantiles_value(hist: Option<&Histogram>) -> Value {
    let q = |q: f64| hist.and_then(|h| h.quantile(q)).unwrap_or(0);
    json!({
        "p50": q(0.50),
        "p99": q(0.99),
        "p999": q(0.999),
        "count": hist.map_or(0, Histogram::count),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(decisions: u64, truncations: u64, nodes: u64) -> StatusSample {
        StatusSample {
            decisions,
            deadline_truncations: truncations,
            search_nodes: nodes,
            ..StatusSample::default()
        }
    }

    #[test]
    fn a_fleet_sample_is_the_sum_of_its_tenants() {
        let mut total = sample(1, 0, 7);
        total.absorb(&sample(2, 1, 3));
        assert_eq!(total, sample(3, 1, 10));
    }
}
