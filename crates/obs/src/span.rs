//! Flamegraph spans derived from each decision's own fields.
//!
//! A decision line carries no span list: every weight is a
//! deterministic count the line already states (never time), so the
//! collapsed output (`root;child weight`, the input of `flamegraph.pl`)
//! is byte-identical across runs:
//!
//! - `decide;search`: the tree search's `nodes`;
//! - `decide;search;local`: its hill-climb `local_nodes`;
//! - `decide;fallback`: `queue_depth` after a greedy fallback, which
//!   places every queued job;
//! - `decide;backfill`: `queue_depth`, the jobs a pass examines.

use crate::record::{DecisionTrace, PolicyTrace};
use std::collections::BTreeMap;

/// Span weights summed over decisions, keyed by full path.
#[derive(Debug, Clone, Default)]
pub struct Spans(BTreeMap<&'static str, u64>);

impl Spans {
    /// Adds the spans derived from one decision.
    pub fn record(&mut self, d: &DecisionTrace) {
        let depth = u64::from(d.queue_depth);
        match &d.policy {
            Some(PolicyTrace::Search(s)) => {
                self.add("decide;search", s.nodes);
                self.add("decide;search;local", s.local_nodes);
                if s.fallback {
                    self.add("decide;fallback", depth);
                }
            }
            Some(PolicyTrace::Backfill(_)) => self.add("decide;backfill", depth),
            None => {}
        }
    }

    /// Adds `weight` to the span at `path`; a zero weight adds no line.
    fn add(&mut self, path: &'static str, weight: u64) {
        if weight > 0 {
            *self.0.entry(path).or_insert(0) += weight;
        }
    }

    /// True when no decision has added a weight.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The `(path, weight)` pairs, sorted by path.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.0.iter().map(|(&path, &weight)| (path, weight))
    }

    /// Renders the collapsed-stack file: one `path weight` line per
    /// span, sorted by path.
    pub fn collapsed(&self) -> String {
        self.iter()
            .map(|(path, weight)| format!("{path} {weight}\n"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{BackfillTrace, SearchTrace};

    fn search(queue_depth: u32, nodes: u64, local_nodes: u64, fallback: bool) -> DecisionTrace {
        DecisionTrace {
            queue_depth,
            policy: Some(PolicyTrace::Search(SearchTrace {
                nodes,
                local_nodes,
                fallback,
                ..Default::default()
            })),
            ..Default::default()
        }
    }

    #[test]
    fn exit_records_the_full_path() {
        let mut s = Spans::default();
        // decide itself carries no self-weight, so it has no line.
        s.record(&search(4, 40, 3, false));
        assert_eq!(
            s.iter().collect::<Vec<_>>(),
            vec![("decide;search", 40), ("decide;search;local", 3)]
        );
        let mut b = Spans::default();
        b.record(&DecisionTrace {
            queue_depth: 7,
            policy: Some(PolicyTrace::Backfill(BackfillTrace::default())),
            ..Default::default()
        });
        assert_eq!(b.iter().collect::<Vec<_>>(), vec![("decide;backfill", 7)]);
    }

    #[test]
    fn collapsed_rendering_merges_and_sorts() {
        let mut s = Spans::default();
        s.record(&search(6, 5, 0, true));
        s.record(&search(0, 0, 0, false));
        s.record(&search(2, 10, 1, false));
        assert_eq!(
            s.collapsed(),
            "decide;fallback 6\ndecide;search 15\ndecide;search;local 1\n"
        );
        assert!(Spans::default().collapsed().is_empty());
    }
}
