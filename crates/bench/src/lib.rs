#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # sbs-bench
//!
//! The experiment harness: one function per table/figure of the paper's
//! evaluation, each returning a [`report::Report`] with the same
//! rows/series the paper plots, rendered as fixed-width text plus a
//! machine-readable JSON payload.  [`EXPERIMENTS`] lists them; `sbs
//! experiments` is their command line, and EXPERIMENTS.md records their
//! output full-scale next to the paper's values.
//!
//! All experiments accept an [`opts::Opts`] with a span-scale knob so
//! the entire suite can be smoke-tested quickly (`--quick`) and run
//! full-scale for the record.

pub mod ablations;
pub mod figures;
pub mod opts;
pub mod perf;
pub mod report;
pub mod tables;

use opts::Opts;
use report::Report;

/// Runs one experiment.
pub type Experiment = fn(&Opts) -> Report;

/// Every experiment, in DESIGN.md order: `(id, what it reproduces, run)`.
#[rustfmt::skip]
pub const EXPERIMENTS: [(&str, &str, Experiment); 15] = [
    ("fig1d", "Fig. 1(d): search tree size vs waiting jobs", |_| tables::fig1d()),
    ("table2", "Table 2: capacity and job limits on IA-64", |_| tables::table2()),
    ("table3", "Table 3: monthly job mix, paper vs generated", tables::table3),
    ("table4", "Table 4: actual runtime mix, paper vs generated", tables::table4),
    ("fig2", "Fig. 2: sensitivity to a fixed target bound", figures::fig2),
    ("fig3", "Fig. 3: policies under the original load", figures::fig3),
    ("fig4", "Fig. 4: policies under high load (rho = 0.9)", figures::fig4),
    ("fig5", "Fig. 5: average wait per job class, July 2003", figures::fig5),
    ("fig6", "Fig. 6: January 2004 vs the node budget L", figures::fig6),
    ("fig7", "Fig. 7: search algorithms and branching heuristics", figures::fig7),
    ("fig8", "Fig. 8: inaccurate requested runtimes (R* = R)", figures::fig8),
    ("ablate-bnb", "branch-and-bound pruning vs plain DDS", ablations::branch_and_bound),
    ("ablate-res", "FCFS-backfill with 1, 2 and 4 reservations", ablations::reservations),
    ("ablate-hybrid", "DDS vs the complete + local hybrid", ablations::hybrid_local),
    ("ablate-fairshare", "fairshare-weighted objective vs the paper's", ablations::fairshare),
];

/// The experiment with this id.
pub fn experiment(id: &str) -> Option<Experiment> {
    EXPERIMENTS
        .iter()
        .find(|(e, ..)| *e == id)
        .map(|&(_, _, run)| run)
}
