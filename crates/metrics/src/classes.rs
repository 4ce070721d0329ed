//! Per-job-class breakdowns.
//!
//! Figure 5 plots the average wait for a 5x5 grid of job classes —
//! five actual-runtime ranges (up to 10 min, 1 h, 4 h, 8 h and beyond)
//! by five node ranges (1, 2-8, 9-32, 33-64, 65-128).  This module
//! computes it from job records.

use sbs_sim::JobRecord;
use sbs_workload::time::{Time, HOUR, MINUTE};

/// Upper bounds (inclusive) of Figure 5's runtime rows; the last row is
/// unbounded.
pub const RUNTIME_EDGES: [Time; 4] = [10 * MINUTE, HOUR, 4 * HOUR, 8 * HOUR];

/// Row labels for Figure 5's runtime axis.
pub const RUNTIME_LABELS: [&str; 5] = ["<=10m", "10m-1h", "1h-4h", "4h-8h", ">8h"];

/// Figure 5's node-range columns, as inclusive bounds.
pub const FIG5_NODE_RANGES: [(u32, u32); 5] = [(1, 1), (2, 8), (9, 32), (33, 64), (65, 128)];

/// Column labels for Figure 5's node axis.
pub const NODE_LABELS: [&str; 5] = ["1", "2-8", "9-32", "33-64", "65-128"];

/// Index of the Figure 5 runtime row containing `runtime`.
pub fn runtime_row(runtime: Time) -> usize {
    RUNTIME_EDGES
        .iter()
        .position(|&e| runtime <= e)
        .unwrap_or(RUNTIME_EDGES.len())
}

/// Index of the Figure 5 node column containing `nodes`.
pub fn node_col(nodes: u32) -> usize {
    FIG5_NODE_RANGES
        .iter()
        .position(|&(lo, hi)| nodes >= lo && nodes <= hi)
        .unwrap_or_else(|| panic!("node count out of range: {nodes}"))
}

/// A populated Figure 5 grid: job counts and average waits per class.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassGrid {
    /// Jobs per (runtime row, node column) class.
    pub counts: [[usize; 5]; 5],
    /// Average wait in hours per class (0 where empty).
    pub avg_wait_h: [[f64; 5]; 5],
}

impl ClassGrid {
    /// Builds the grid over `records`.
    pub fn over<'a>(records: impl IntoIterator<Item = &'a JobRecord>) -> ClassGrid {
        let mut counts = [[0usize; 5]; 5];
        let mut sums = [[0u128; 5]; 5];
        for r in records {
            let row = runtime_row(r.runtime);
            let col = node_col(r.nodes);
            counts[row][col] += 1;
            sums[row][col] += r.wait() as u128;
        }
        let mut avg = [[0.0f64; 5]; 5];
        for row in 0..5 {
            for col in 0..5 {
                if counts[row][col] > 0 {
                    avg[row][col] = sums[row][col] as f64 / counts[row][col] as f64 / 3_600.0;
                }
            }
        }
        ClassGrid {
            counts,
            avg_wait_h: avg,
        }
    }

    /// Total jobs in the grid.
    pub fn total(&self) -> usize {
        self.counts.iter().flatten().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbs_workload::job::JobId;

    fn record(id: u32, nodes: u32, runtime: Time, wait: Time) -> JobRecord {
        JobRecord {
            id: JobId(id),
            submit: 0,
            start: wait,
            end: wait + runtime,
            nodes,
            runtime,
            requested: runtime,
            r_star: runtime,
            user: 0,
            in_window: true,
        }
    }

    #[test]
    fn rows_and_cols_partition() {
        assert_eq!(runtime_row(5 * MINUTE), 0);
        assert_eq!(runtime_row(10 * MINUTE), 0);
        assert_eq!(runtime_row(HOUR), 1);
        assert_eq!(runtime_row(3 * HOUR), 2);
        assert_eq!(runtime_row(8 * HOUR), 3);
        assert_eq!(runtime_row(12 * HOUR), 4);
        for n in 1..=128 {
            let c = node_col(n);
            let (lo, hi) = FIG5_NODE_RANGES[c];
            assert!(n >= lo && n <= hi);
        }
    }

    #[test]
    fn grid_averages() {
        let rs = [
            record(0, 1, 5 * MINUTE, HOUR),
            record(1, 1, 5 * MINUTE, 3 * HOUR),
            record(2, 64, 10 * HOUR, 2 * HOUR),
        ];
        let g = ClassGrid::over(&rs);
        assert_eq!(g.total(), 3);
        assert_eq!(g.counts[0][0], 2);
        assert!((g.avg_wait_h[0][0] - 2.0).abs() < 1e-12);
        assert_eq!(g.counts[4][3], 1);
        assert!((g.avg_wait_h[4][3] - 2.0).abs() < 1e-12);
        assert_eq!(g.counts[2][1], 0);
        assert_eq!(g.avg_wait_h[2][1], 0.0);
    }

    #[test]
    fn empty_records_are_safe() {
        let g = ClassGrid::over([]);
        assert_eq!(g.total(), 0);
    }
}
