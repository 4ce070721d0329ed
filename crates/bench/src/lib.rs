#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # sbs-bench
//!
//! The experiment harness: one function per table/figure of the paper's
//! evaluation, each returning a [`report::Report`] with the same
//! rows/series the paper plots, rendered as fixed-width text plus a
//! machine-readable JSON payload.  The `experiments` binary is a thin
//! CLI over these functions; EXPERIMENTS.md records their output
//! full-scale next to the paper's values.
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

use report::Report;

/// All experiment ids, in DESIGN.md order.
pub const ALL_EXPERIMENTS: [&str; 17] = [
    "fig1d",
    "table2",
    "table3",
    "table4",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "ablate-bnb",
    "ablate-res",
    "ablate-hybrid",
    "ablate-random",
    "ablate-predict",
    "ablate-fairshare",
];

/// Runs an experiment by id.
pub fn run_experiment(id: &str, opts: &opts::Opts) -> Option<Report> {
    Some(match id {
        "fig1d" => tables::fig1d(),
        "table2" => tables::table2(),
        "table3" => tables::table3(opts),
        "table4" => tables::table4(opts),
        "fig2" => figures::fig2(opts),
        "fig3" => figures::fig3(opts),
        "fig4" => figures::fig4(opts),
        "fig5" => figures::fig5(opts),
        "fig6" => figures::fig6(opts),
        "fig7" => figures::fig7(opts),
        "fig8" => figures::fig8(opts),
        "ablate-bnb" => ablations::branch_and_bound(opts),
        "ablate-res" => ablations::reservations(opts),
        "ablate-hybrid" => ablations::hybrid_local(opts),
        "ablate-random" => ablations::random_vs_systematic(opts),
        "ablate-predict" => ablations::prediction(opts),
        "ablate-fairshare" => ablations::fairshare(opts),
        _ => return None,
    })
}
