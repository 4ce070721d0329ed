//! Harness options.

use sbs_workload::system::Month;

/// Options shared by all experiments.
#[derive(Debug, Clone, PartialEq)]
pub struct Opts {
    /// Fraction of each month's span to simulate (1.0 = paper scale).
    pub scale: f64,
    /// Months to include (defaults to all ten).
    pub months: Vec<Month>,
    /// Scale node budgets `L` by this factor (1.0 = the paper's values);
    /// `--quick` lowers it together with the span.
    pub budget_scale: f64,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            scale: 1.0,
            months: Month::ALL.to_vec(),
            budget_scale: 1.0,
        }
    }
}

impl Opts {
    /// The smoke-test configuration used by `--quick` and the harness's
    /// own tests: 6% of each month, budgets at 1/4.
    pub fn quick() -> Self {
        Opts {
            scale: 0.06,
            budget_scale: 0.25,
            ..Default::default()
        }
    }

    /// A node budget scaled by `budget_scale` (minimum 50 nodes).
    #[expect(
        clippy::cast_possible_truncation,
        reason = "float-to-int `as` saturates deterministically; budgets are bounded by the paper's node limits"
    )]
    pub fn budget(&self, paper_l: u64) -> u64 {
        ((paper_l as f64 * self.budget_scale) as u64).max(50)
    }
}
