//! Monthly workload profiles transcribed from the paper.
//!
//! The NCSA traces themselves are not publicly available; what the paper
//! publishes — and what its analysis of policy behaviour leans on — are
//! the per-month aggregates of Tables 3 and 4:
//!
//! * **Table 3**: number of jobs, offered load (processor demand as a
//!   fraction of monthly capacity) and, for eight requested-node ranges,
//!   the share of jobs and of processor demand in each range;
//! * **Table 4**: for five coarser node classes, the fraction of all jobs
//!   whose actual runtime is short (`T <= 1 h`) and long (`T > 5 h`).
//!
//! [`MonthProfile`] carries exactly this information; the synthetic
//! generator ([`crate::generator`]) consumes it.  The `table3`/`table4`
//! experiment harnesses print the realized mix of the generated traces
//! next to these targets.

use crate::system::Month;
use serde::{Deserialize, Serialize};

/// The eight requested-node ranges of Table 3, as inclusive bounds.
pub const NODE_RANGES: [(u32, u32); 8] = [
    (1, 1),
    (2, 2),
    (3, 4),
    (5, 8),
    (9, 16),
    (17, 32),
    (33, 64),
    (65, 128),
];

/// The five coarser node classes of Table 4, as inclusive bounds.
pub const NODE_CLASSES: [(u32, u32); 5] = [(1, 1), (2, 2), (3, 8), (9, 32), (33, 128)];

/// Maps a Table 3 range index (0..8) to its Table 4 class index (0..5).
pub fn class_of_range(range: usize) -> usize {
    match range {
        0 => 0,
        1 => 1,
        2 | 3 => 2,
        4 | 5 => 3,
        6 | 7 => 4,
        _ => panic!("node range index out of bounds: {range}"),
    }
}

/// Index of the Table 4 node class containing `nodes`.
pub fn class_of_nodes(nodes: u32) -> usize {
    NODE_CLASSES
        .iter()
        .position(|&(lo, hi)| nodes >= lo && nodes <= hi)
        .unwrap_or_else(|| panic!("node count out of range: {nodes}"))
}

/// Index of the Table 3 node range containing `nodes`.
pub fn range_of_nodes(nodes: u32) -> usize {
    NODE_RANGES
        .iter()
        .position(|&(lo, hi)| nodes >= lo && nodes <= hi)
        .unwrap_or_else(|| panic!("node count out of range: {nodes}"))
}

/// Job-count and processor-demand share of one requested-node range
/// (one cell pair of Table 3), in percent of the monthly totals.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RangeMix {
    /// Percent of the month's jobs requesting a node count in this range.
    pub jobs_pct: f64,
    /// Percent of the month's processor demand (`N x T`) from this range.
    pub demand_pct: f64,
}

/// Actual-runtime mix of one Table 4 node class: percent **of all jobs in
/// the month** that fall in this class and are short / long.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClassRuntimeMix {
    /// Percent of all jobs with nodes in this class and `T <= 1 h`.
    pub short_pct: f64,
    /// Percent of all jobs with nodes in this class and `T > 5 h`.
    pub long_pct: f64,
}

/// Aggregate description of one monthly NCSA/IA-64 workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MonthProfile {
    /// Which month this profile describes.
    pub month: Month,
    /// Total number of jobs submitted during the month (Table 3 "Total").
    pub total_jobs: u32,
    /// Offered load: total processor demand as a fraction of the machine's
    /// processor time over the month (Table 3 "Total" row, e.g. `0.82`).
    pub load: f64,
    /// Per-node-range job/demand shares (Table 3), indexed like
    /// [`NODE_RANGES`].
    pub ranges: [RangeMix; 8],
    /// Per-node-class runtime mix (Table 4), indexed like
    /// [`NODE_CLASSES`].
    pub runtime_mix: [ClassRuntimeMix; 5],
}

impl MonthProfile {
    /// The profile of a given study month.
    pub fn of(month: Month) -> &'static MonthProfile {
        &ALL_PROFILES[month.index()]
    }

    /// Target total processor demand in node-seconds for a machine with
    /// `capacity` nodes.
    pub fn target_demand(&self, capacity: u32) -> f64 {
        self.load * capacity as f64 * self.month.seconds() as f64
    }

    /// Conditional probability that a job in Table 4 node class `class`
    /// is short (`T <= 1 h`), given the class job share implied by
    /// Table 3.  Clamped to `[0, 1]` against rounding noise in the paper's
    /// percentages.
    pub fn p_short_given_class(&self, class: usize) -> f64 {
        let class_jobs = self.class_jobs_pct(class);
        if class_jobs <= 0.0 {
            return 0.0;
        }
        (self.runtime_mix[class].short_pct / class_jobs).clamp(0.0, 1.0)
    }

    /// Conditional probability that a job in node class `class` is long
    /// (`T > 5 h`); see [`Self::p_short_given_class`].  The pair is
    /// jointly clamped so `P(short) + P(long) <= 1`.
    pub fn p_long_given_class(&self, class: usize) -> f64 {
        let p_short = self.p_short_given_class(class);
        let class_jobs = self.class_jobs_pct(class);
        if class_jobs <= 0.0 {
            return 0.0;
        }
        (self.runtime_mix[class].long_pct / class_jobs).clamp(0.0, 1.0 - p_short)
    }

    /// Percent of the month's jobs in Table 4 node class `class`, summed
    /// from the Table 3 ranges it contains.
    pub fn class_jobs_pct(&self, class: usize) -> f64 {
        (0..8)
            .filter(|&r| class_of_range(r) == class)
            .map(|r| self.ranges[r].jobs_pct)
            .sum()
    }
}

macro_rules! month_profile {
    ($month:ident, $jobs:expr, $load:expr,
     jobs: [$($jp:expr),* $(,)?], demand: [$($dp:expr),* $(,)?],
     short: [$($sp:expr),* $(,)?], long: [$($lp:expr),* $(,)?]) => {{
        let jobs_pct = [$($jp),*];
        let demand_pct = [$($dp),*];
        let short_pct = [$($sp),*];
        let long_pct = [$($lp),*];
        let mut ranges = [RangeMix { jobs_pct: 0.0, demand_pct: 0.0 }; 8];
        let mut i = 0;
        while i < 8 {
            ranges[i] = RangeMix { jobs_pct: jobs_pct[i], demand_pct: demand_pct[i] };
            i += 1;
        }
        let mut runtime_mix = [ClassRuntimeMix { short_pct: 0.0, long_pct: 0.0 }; 5];
        let mut c = 0;
        while c < 5 {
            runtime_mix[c] = ClassRuntimeMix { short_pct: short_pct[c], long_pct: long_pct[c] };
            c += 1;
        }
        MonthProfile {
            month: Month::$month,
            total_jobs: $jobs,
            load: $load,
            ranges,
            runtime_mix,
        }
    }};
}

/// All ten monthly profiles, in chronological order (index =
/// [`Month::index`]).
///
/// Values are verbatim from Tables 3 and 4 of the paper; per-month range
/// percentages sum to 99-101% due to the paper's rounding.
pub static ALL_PROFILES: std::sync::LazyLock<[MonthProfile; 10]> = std::sync::LazyLock::new(|| {
    [
        month_profile!(Jun03, 2191, 0.82,
            jobs:   [26.7, 11.3, 29.8,  6.3,  8.5, 10.5,  3.7,  2.4],
            demand: [ 0.3,  0.1,  1.3,  1.1, 23.0, 37.4, 21.7, 14.6],
            short:  [24.9, 11.1, 34.7,  6.2,  3.0],
            long:   [ 0.3,  0.0,  0.7,  7.0,  1.7]),
        month_profile!(Jul03, 1399, 0.89,
            jobs:   [26.2,  9.1,  6.9, 18.4,  7.9, 13.2,  8.4,  8.5],
            demand: [ 0.5,  0.2,  0.4,  3.6,  6.7, 16.9, 21.3, 49.7],
            short:  [20.9,  7.7, 18.5, 13.4,  9.4],
            long:   [ 2.4,  0.4,  3.0,  5.0,  4.6]),
        month_profile!(Aug03, 3220, 0.79,
            jobs:   [74.6,  5.4,  1.3,  4.9,  4.9,  4.6,  1.8,  2.1],
            demand: [ 1.7,  0.7,  0.1,  3.5,  9.6, 30.8, 17.9, 35.5],
            short:  [68.8,  4.3,  4.7,  4.6,  1.8],
            long:   [ 2.5,  0.7,  1.0,  3.5,  1.4]),
        month_profile!(Sep03, 3056, 0.72,
            jobs:   [58.0, 10.4,  6.4,  5.8,  6.6,  8.4,  1.1,  2.9],
            demand: [ 3.1,  0.5,  0.5,  4.3,  8.8, 35.4, 12.4, 34.6],
            short:  [42.6,  9.8,  9.9, 10.9,  2.4],
            long:   [ 3.9,  0.4,  1.3,  2.9,  1.2]),
        month_profile!(Oct03, 4149, 0.71,
            jobs:   [53.8, 20.5,  5.8,  8.8,  5.5,  3.6,  1.6,  0.3],
            demand: [ 4.7,  6.6,  1.6, 10.1, 17.3, 25.3, 24.1, 10.2],
            short:  [37.5,  8.3, 10.1,  4.9,  0.7],
            long:   [ 4.1,  3.1,  2.1,  3.3,  0.8]),
        month_profile!(Nov03, 3446, 0.73,
            jobs:   [60.1, 17.4,  4.9,  5.3,  3.6,  4.1,  3.7,  0.8],
            demand: [ 8.0,  3.7,  0.9,  4.4, 11.6, 11.1, 37.0, 23.3],
            short:  [33.7, 12.5,  6.8,  5.1,  2.1],
            long:   [ 8.7,  4.4,  1.4,  1.9,  1.6]),
        month_profile!(Dec03, 3517, 0.74,
            jobs:   [64.1, 12.5,  6.8,  3.5,  3.7,  5.9,  2.7,  0.9],
            demand: [11.0,  5.1,  7.6,  2.1,  9.5, 18.9, 39.7,  6.1],
            short:  [36.0,  6.5,  6.2,  7.0,  1.7],
            long:   [14.0,  4.4,  2.7,  1.7,  1.0]),
        month_profile!(Jan04, 3154, 0.73,
            jobs:   [39.0, 18.3,  8.0,  4.6,  9.2, 18.1,  1.7,  1.2],
            demand: [12.0,  8.8,  5.3,  3.7, 17.3, 17.9, 17.1, 18.0],
            short:  [12.9,  6.0,  7.1, 20.5,  1.9],
            long:   [23.1,  5.0,  2.4,  1.5,  0.7]),
        month_profile!(Feb04, 3969, 0.74,
            jobs:   [44.1, 31.8, 10.0,  4.5,  4.6,  2.5,  1.7,  0.8],
            demand: [ 7.7,  9.9, 11.7,  7.0, 18.8, 20.3,  8.1, 16.4],
            short:  [34.1, 20.5,  9.9,  4.6,  1.9],
            long:   [ 6.8,  3.6,  3.3,  1.7,  0.3]),
        month_profile!(Mar04, 3468, 0.75,
            jobs:   [57.5, 13.1, 10.3,  7.6,  5.8,  2.3,  1.6,  1.7],
            demand: [ 2.8,  4.6,  8.3,  7.7, 37.6, 16.8,  6.3, 15.9],
            short:  [53.2, 10.1, 13.9,  4.5,  2.5],
            long:   [ 3.0,  2.6,  3.2,  2.9,  0.3]),
    ]
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_and_classes_partition_node_counts() {
        for n in 1..=128u32 {
            let r = range_of_nodes(n);
            let (lo, hi) = NODE_RANGES[r];
            assert!(n >= lo && n <= hi);
            assert_eq!(class_of_range(r), class_of_nodes(n));
        }
    }

    #[test]
    fn range_percentages_sum_to_about_100() {
        for p in ALL_PROFILES.iter() {
            let jobs: f64 = p.ranges.iter().map(|r| r.jobs_pct).sum();
            let demand: f64 = p.ranges.iter().map(|r| r.demand_pct).sum();
            assert!(
                (97.0..=105.0).contains(&jobs),
                "{}: jobs sum {jobs}",
                p.month
            );
            assert!(
                (97.0..=105.0).contains(&demand),
                "{}: demand sum {demand}",
                p.month
            );
        }
    }

    #[test]
    fn runtime_mix_totals_match_paper_all_row() {
        // Table 4's "all" row: sum over classes of short/long percentages.
        let expect_short = [80.0, 69.9, 84.1, 75.6, 61.6, 60.2, 57.4, 48.4, 71.0, 84.1];
        let expect_long = [9.8, 15.4, 9.1, 9.7, 13.4, 18.0, 23.8, 32.7, 15.8, 12.0];
        for (i, p) in ALL_PROFILES.iter().enumerate() {
            let s: f64 = p.runtime_mix.iter().map(|c| c.short_pct).sum();
            let l: f64 = p.runtime_mix.iter().map(|c| c.long_pct).sum();
            assert!((s - expect_short[i]).abs() < 0.15, "{}: short {s}", p.month);
            assert!((l - expect_long[i]).abs() < 0.15, "{}: long {l}", p.month);
        }
    }

    #[test]
    fn conditional_probabilities_are_valid() {
        for p in ALL_PROFILES.iter() {
            for c in 0..5 {
                let s = p.p_short_given_class(c);
                let l = p.p_long_given_class(c);
                assert!(
                    (0.0..=1.0).contains(&s),
                    "{} class {c}: P(short)={s}",
                    p.month
                );
                assert!(
                    (0.0..=1.0).contains(&l),
                    "{} class {c}: P(long)={l}",
                    p.month
                );
                assert!(s + l <= 1.0 + 1e-9, "{} class {c}: {s}+{l} > 1", p.month);
            }
        }
    }

    #[test]
    fn loads_match_table_3() {
        assert_eq!(MonthProfile::of(Month::Jul03).load, 0.89);
        assert_eq!(MonthProfile::of(Month::Oct03).load, 0.71);
        assert_eq!(MonthProfile::of(Month::Jun03).total_jobs, 2191);
        assert_eq!(MonthProfile::of(Month::Jan04).total_jobs, 3154);
    }

    #[test]
    fn july_03_is_dominated_by_the_largest_jobs() {
        // Paper Section 3.1: the largest jobs (N > 64) account for ~50% of
        // the demand and 8.5% of the jobs in July 2003 — the feature that
        // makes 7/03 hard for every policy.
        let p = MonthProfile::of(Month::Jul03);
        assert_eq!(p.ranges[7].demand_pct, 49.7);
        assert_eq!(p.ranges[7].jobs_pct, 8.5);
    }

    #[test]
    fn january_04_is_long_job_heavy() {
        // Paper Section 3.1: 32.7% of 1/04 jobs are long (T > 5 h), the
        // majority one-node, plus 20.5% medium-wide short jobs.
        let p = MonthProfile::of(Month::Jan04);
        let total_long: f64 = p.runtime_mix.iter().map(|c| c.long_pct).sum();
        assert!((total_long - 32.7).abs() < 0.05);
        assert_eq!(p.runtime_mix[0].long_pct, 23.1);
        assert_eq!(p.runtime_mix[3].short_pct, 20.5);
    }
}
