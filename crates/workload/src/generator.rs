//! Synthetic trace generation.
//!
//! [`WorkloadBuilder`] turns a [`MonthProfile`] (the paper's Tables 3-4
//! aggregates) into a concrete, seeded job trace:
//!
//! 1. **Counts.** Jobs are apportioned to the eight requested-node ranges
//!    by Table 3's job shares (largest-remainder rounding, so the counts
//!    are deterministic).
//! 2. **Node counts.** Within a range, node counts are sampled with a
//!    bias toward powers of two (the dominant request pattern on real
//!    machines).
//! 3. **Runtime classes.** Each job draws a runtime class — short
//!    (`T <= 1 h`), medium (`1 h < T <= 5 h`) or long (`T > 5 h`) — from
//!    Table 4's per-node-class conditional probabilities.
//! 4. **Runtimes & demand calibration.** Runtimes start log-uniform within
//!    their class bounds, then are iteratively rescaled (clamped to the
//!    class bounds so the Table 4 mix is preserved *exactly*) until the
//!    range's processor demand matches Table 3's demand share.  If the
//!    class bounds make the target unreachable, node counts within the
//!    range are nudged upward as a secondary lever, and any residual gap
//!    is reported in the realized statistics rather than hidden.
//! 5. **Arrivals.** A Poisson process over warm-up week + month +
//!    cool-down week (conditionally uniform order statistics).  The
//!    paper's high-load experiments (`rho = 0.9`) shrink inter-arrival
//!    times by `original_load / 0.9`, exactly as in Section 4.
//! 6. **Requests.** Requested runtimes come from the
//!    [`crate::estimates`] model.

use crate::estimates::sample_requested;
use crate::job::{Job, JobId};
use crate::profile::{class_of_range, MonthProfile, NODE_RANGES};
use crate::system::Month;
use crate::time::{Time, HOUR, WEEK};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Runtime-class bounds in seconds: short `(LO_SHORT..=1h)`, medium
/// `(1h..=5h)`, long `(5h..=limit)`.
const SHORT_LO: Time = 30;
const SHORT_HI: Time = HOUR;
const MID_HI: Time = 5 * HOUR;

/// A complete synthetic trace plus the metadata needed to simulate and
/// measure it.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Jobs sorted by ascending submit time; ids follow submission order.
    pub jobs: Vec<Job>,
    /// Machine size in nodes.
    pub capacity: u32,
    /// Measurement window `[start, end)`: statistics are computed over
    /// jobs submitted within it (the month); everything before is warm-up,
    /// everything after is cool-down (Section 4).
    pub window: (Time, Time),
    /// Queue runtime limit in force.
    pub runtime_limit: Time,
    /// Month this trace models, when generated from a study profile.
    pub month: Option<Month>,
}

impl Workload {
    /// Offered load of the jobs submitted inside the measurement window:
    /// `sum(N x T) / (capacity x window_length)`.
    pub fn offered_load(&self) -> f64 {
        let (w0, w1) = self.window;
        if w1 <= w0 {
            return 0.0;
        }
        let demand: u64 = self.in_window().map(|j| j.demand()).sum();
        demand as f64 / (self.capacity as f64 * (w1 - w0) as f64)
    }

    /// Iterates over the jobs submitted inside the measurement window.
    pub fn in_window(&self) -> impl Iterator<Item = &Job> {
        let (w0, w1) = self.window;
        self.jobs
            .iter()
            .filter(move |j| j.submit >= w0 && j.submit < w1)
    }

    /// Checks the structural invariants every generated or parsed trace
    /// must satisfy; returns a description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        let mut prev = 0;
        for j in &self.jobs {
            if j.submit < prev {
                return Err(format!("{}: submits not sorted", j.id));
            }
            prev = j.submit;
            if j.nodes == 0 || j.nodes > self.capacity {
                return Err(format!("{}: {} nodes exceeds capacity", j.id, j.nodes));
            }
            if j.runtime == 0 {
                return Err(format!("{}: zero runtime", j.id));
            }
            if j.requested < j.runtime {
                return Err(format!("{}: requested < runtime", j.id));
            }
        }
        Ok(())
    }
}

/// Builder for synthetic monthly workloads.  See the module docs for the
/// generation pipeline.
#[derive(Debug, Clone)]
pub struct WorkloadBuilder {
    profile: &'static MonthProfile,
    capacity: u32,
    seed: u64,
    target_load: Option<f64>,
    span_scale: f64,
}

impl WorkloadBuilder {
    /// Starts a builder for one of the ten study months with the paper's
    /// defaults: 128 nodes, one-week warm-up and cool-down, a seed derived
    /// from the month.
    pub fn month(month: Month) -> Self {
        WorkloadBuilder {
            profile: MonthProfile::of(month),
            capacity: 128,
            seed: 0x5b5_0000 + month.index() as u64,
            target_load: None,
            span_scale: 1.0,
        }
    }

    /// Overrides the RNG seed (every distinct seed gives an independent
    /// trace with the same aggregate mix).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Requests the paper's artificial high-load variant: inter-arrival
    /// times are shrunk so the offered load becomes `rho` (Section 4 uses
    /// `rho = 0.9`).
    pub fn target_load(mut self, rho: f64) -> Self {
        assert!(rho > 0.0 && rho < 1.5, "implausible target load {rho}");
        self.target_load = Some(rho);
        self
    }

    /// Overrides the machine size (tests use small machines; the range
    /// mix is re-normalized over the ranges that fit).
    pub fn capacity(mut self, nodes: u32) -> Self {
        assert!(nodes > 0);
        self.capacity = nodes;
        self
    }

    /// Shrinks the simulated *time span* to a fraction of the month
    /// (jobs, warm-up and cool-down shrink proportionally; the arrival
    /// rate, job mix and offered load are preserved).  This is the right
    /// way to build fast test workloads that keep the month's contention
    /// character.
    pub fn span_scale(mut self, frac: f64) -> Self {
        assert!(frac > 0.0 && frac <= 1.0, "span fraction must be in (0, 1]");
        self.span_scale = frac;
        self
    }

    /// Generates the trace.
    pub fn build(&self) -> Workload {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let p = self.profile;
        #[expect(
            clippy::cast_possible_truncation,
            reason = "a scaled month or week is at most an unscaled one (frac <= 1)"
        )]
        let scaled = |t: Time| (t as f64 * self.span_scale).round() as Time;
        let month_secs = scaled(p.month.seconds());
        // The paper's one-week warm-up and cool-down, both scaled with the span.
        let edge = scaled(WEEK);
        let monthly_jobs = ((p.total_jobs as f64) * self.span_scale).round().max(1.0);
        let limit = p.month.runtime_limit();
        let span = edge.saturating_add(month_secs).saturating_add(edge);

        // Total job count over the whole span at the month's arrival rate.
        #[expect(
            clippy::cast_possible_truncation,
            reason = "a few months of jobs at the profile rate"
        )]
        let n_total = (monthly_jobs * (span as f64 / month_secs as f64)).round() as usize;

        // -- 1. apportion jobs to node ranges (largest remainder) --------
        let usable: Vec<usize> = (0..8)
            .filter(|&r| NODE_RANGES[r].0 <= self.capacity)
            .collect();
        let jobs_weight: f64 = usable.iter().map(|&r| p.ranges[r].jobs_pct).sum();
        let counts = largest_remainder(
            n_total,
            &usable
                .iter()
                .map(|&r| p.ranges[r].jobs_pct / jobs_weight)
                .collect::<Vec<_>>(),
        );

        // -- 2-4. per-range templates with demand calibration ------------
        let total_demand = p.load * self.capacity as f64 * span as f64;
        let demand_weight: f64 = usable.iter().map(|&r| p.ranges[r].demand_pct).sum();
        let mut templates: Vec<(u32, Time)> = Vec::with_capacity(n_total);
        for (slot, &r) in usable.iter().enumerate() {
            let n_jobs = counts[slot];
            if n_jobs == 0 {
                continue;
            }
            let target = total_demand * p.ranges[r].demand_pct / demand_weight;
            templates.extend(self.range_templates(&mut rng, r, n_jobs, target, limit));
        }

        // -- 5. arrivals: order statistics over the span ------------------
        templates.shuffle(&mut rng);
        let mut arrivals: Vec<Time> = (0..templates.len())
            .map(|_| rng.gen_range(0..span))
            .collect();
        arrivals.sort_unstable();

        // High-load variant: compress time by original_load / rho.
        let compress = match self.target_load {
            Some(rho) => p.load / rho,
            None => 1.0,
        };
        #[expect(
            clippy::cast_possible_truncation,
            reason = "compression scales arrival times by at most a small factor"
        )]
        let scale = |t: Time| (t as f64 * compress).round() as Time;
        let window = (scale(edge), scale(edge.saturating_add(month_secs)));

        // User population: a Zipf-like distribution (a few heavy users
        // dominate, as in real traces); user ids start at 1.
        let n_users = (templates.len() / 40).clamp(5, 200);
        let user_weights: Vec<f64> = (1..=n_users).map(|k| 1.0 / k as f64).collect();
        let weight_sum: f64 = user_weights.iter().sum();

        let jobs: Vec<Job> = arrivals
            .into_iter()
            .zip(templates)
            .enumerate()
            .map(|(i, (arrival, (nodes, runtime)))| {
                let requested = sample_requested(&mut rng, runtime, limit);
                let mut pick = rng.gen::<f64>() * weight_sum;
                let mut user = u32::try_from(n_users).unwrap_or(u32::MAX);
                for (k, w) in user_weights.iter().enumerate() {
                    pick -= w;
                    if pick <= 0.0 {
                        user = u32::try_from(k + 1).unwrap_or(u32::MAX);
                        break;
                    }
                }
                let id = JobId(u32::try_from(i).unwrap_or(u32::MAX));
                Job::new(id, scale(arrival), nodes, runtime, requested).with_user(user)
            })
            .collect();

        let w = Workload {
            jobs,
            capacity: self.capacity,
            window,
            runtime_limit: limit,
            month: Some(p.month),
        };
        debug_assert_eq!(w.validate(), Ok(()));
        w
    }

    /// Generates `(nodes, runtime)` templates for `n_jobs` jobs in node
    /// range `r`, calibrated toward `target` node-seconds of demand.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "fitted runtimes and node counts are clamped to their class bounds"
    )]
    fn range_templates(
        &self,
        rng: &mut StdRng,
        r: usize,
        n_jobs: usize,
        target: f64,
        limit: Time,
    ) -> Vec<(u32, Time)> {
        let (lo, hi_raw) = NODE_RANGES[r];
        let hi = hi_raw.min(self.capacity);
        let class = class_of_range(r);
        let p_short = self.profile.p_short_given_class(class);
        let p_long = self.profile.p_long_given_class(class);

        let mut nodes: Vec<u32> = (0..n_jobs).map(|_| sample_nodes(rng, lo, hi)).collect();
        let classes: Vec<RuntimeClass> = (0..n_jobs)
            .map(|_| {
                let u: f64 = rng.gen();
                if u < p_short {
                    RuntimeClass::Short
                } else if u < p_short + p_long {
                    RuntimeClass::Long
                } else {
                    RuntimeClass::Medium
                }
            })
            .collect();
        let mut runtimes: Vec<Time> = classes
            .iter()
            .map(|c| log_uniform(rng, c.bounds(limit)))
            .collect();

        // Iterative proportional fitting of runtimes within class bounds.
        for _ in 0..16 {
            let demand: f64 = nodes
                .iter()
                .zip(&runtimes)
                .map(|(&n, &t)| n as f64 * t as f64)
                .sum();
            if demand <= 0.0 {
                break;
            }
            let ratio = target / demand;
            if (ratio - 1.0).abs() < 0.01 {
                break;
            }
            for (t, c) in runtimes.iter_mut().zip(&classes) {
                let (b_lo, b_hi) = c.bounds(limit);
                *t = ((*t as f64 * ratio).round() as Time).clamp(b_lo, b_hi);
            }
        }

        // Secondary lever: if class bounds cap the demand below target,
        // shift node counts toward the top of the range.
        let demand: f64 = nodes
            .iter()
            .zip(&runtimes)
            .map(|(&n, &t)| n as f64 * t as f64)
            .sum();
        if demand > 0.0 && target / demand > 1.05 && hi > lo {
            let boost = (target / demand).min(hi as f64 / lo as f64);
            for n in &mut nodes {
                *n = (((*n as f64) * boost).round() as u32).clamp(lo, hi);
            }
        }

        nodes.into_iter().zip(runtimes).collect()
    }
}

/// Actual-runtime classes of Table 4 (plus the implicit medium band).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RuntimeClass {
    Short,
    Medium,
    Long,
}

impl RuntimeClass {
    /// Inclusive runtime bounds of the class under runtime limit `limit`.
    fn bounds(self, limit: Time) -> (Time, Time) {
        match self {
            RuntimeClass::Short => (SHORT_LO, SHORT_HI),
            RuntimeClass::Medium => (SHORT_HI + 1, MID_HI.min(limit)),
            RuntimeClass::Long => ((MID_HI + 1).min(limit), limit),
        }
    }
}

/// Samples a node count in `[lo, hi]` with a bias toward powers of two
/// (and the range endpoints), the dominant pattern in production traces.
fn sample_nodes<R: Rng + ?Sized>(rng: &mut R, lo: u32, hi: u32) -> u32 {
    if lo == hi {
        return lo;
    }
    if rng.gen_bool(0.6) {
        let mut candidates: Vec<u32> = (0..=7u32)
            .map(|e| 1u32 << e)
            .filter(|&v| v >= lo && v <= hi)
            .collect();
        if !candidates.contains(&hi) {
            candidates.push(hi);
        }
        *candidates.choose(rng).expect("non-empty candidate set")
    } else {
        rng.gen_range(lo..=hi)
    }
}

/// Log-uniform sample over an inclusive integer interval.
#[expect(
    clippy::cast_possible_truncation,
    reason = "the sample is clamped to [lo, hi] below"
)]
fn log_uniform<R: Rng + ?Sized>(rng: &mut R, (lo, hi): (Time, Time)) -> Time {
    if lo >= hi {
        return lo;
    }
    let (a, b) = ((lo as f64).ln(), (hi as f64).ln());
    let t = (a + rng.gen::<f64>() * (b - a)).exp().round() as Time;
    t.clamp(lo, hi)
}

/// Apportions `total` items to weights (that sum to ~1) with the largest
/// remainder method, guaranteeing the counts sum to `total`.
fn largest_remainder(total: usize, weights: &[f64]) -> Vec<usize> {
    let raw: Vec<f64> = weights.iter().map(|w| w * total as f64).collect();
    #[expect(
        clippy::cast_possible_truncation,
        reason = "each share is at most total, a usize"
    )]
    let mut counts: Vec<usize> = raw.iter().map(|x| x.floor() as usize).collect();
    let assigned: usize = counts.iter().sum();
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by(|&a, &b| {
        let fa = raw[a] - raw[a].floor();
        let fb = raw[b] - raw[b].floor();
        fb.total_cmp(&fa).then(a.cmp(&b))
    });
    for &i in order.iter().take(total.saturating_sub(assigned)) {
        counts[i] += 1;
    }
    counts
}

/// Configuration for [`random_workload`], a small unconstrained generator
/// used by tests and property tests across the workspace.
#[derive(Debug, Clone, Copy)]
pub struct RandomWorkloadCfg {
    /// Number of jobs.
    pub jobs: usize,
    /// Machine size.
    pub capacity: u32,
    /// Arrivals are uniform over `[0, span)`.
    pub span: Time,
    /// Runtimes are log-uniform over `[min_runtime, max_runtime]`.
    pub min_runtime: Time,
    /// See `min_runtime`.
    pub max_runtime: Time,
}

impl Default for RandomWorkloadCfg {
    fn default() -> Self {
        RandomWorkloadCfg {
            jobs: 200,
            capacity: 32,
            span: 2 * crate::time::DAY,
            min_runtime: 60,
            max_runtime: 8 * HOUR,
        }
    }
}

/// Generates a small random workload without profile calibration —
/// handy for unit/property tests of the simulator and policies.
pub fn random_workload(cfg: RandomWorkloadCfg, seed: u64) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut arrivals: Vec<Time> = (0..cfg.jobs).map(|_| rng.gen_range(0..cfg.span)).collect();
    arrivals.sort_unstable();
    let jobs = arrivals
        .into_iter()
        .enumerate()
        .map(|(i, submit)| {
            let nodes = rng.gen_range(1..=cfg.capacity);
            let runtime = log_uniform(&mut rng, (cfg.min_runtime, cfg.max_runtime));
            let requested = sample_requested(&mut rng, runtime, cfg.max_runtime);
            Job::new(
                JobId(u32::try_from(i).unwrap_or(u32::MAX)),
                submit,
                nodes,
                runtime,
                requested,
            )
            .with_user(rng.gen_range(1..=8))
        })
        .collect();
    Workload {
        jobs,
        capacity: cfg.capacity,
        window: (0, cfg.span),
        runtime_limit: cfg.max_runtime,
        month: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{class_of_nodes, range_of_nodes};

    #[test]
    fn largest_remainder_sums_to_total() {
        let counts = largest_remainder(10, &[0.55, 0.25, 0.2]);
        assert_eq!(counts.iter().sum::<usize>(), 10);
        assert_eq!(counts, vec![6, 2, 2]);
        // Degenerate weights still sum correctly.
        let counts = largest_remainder(7, &[1.0]);
        assert_eq!(counts, vec![7]);
    }

    #[test]
    fn generated_month_respects_structure() {
        let w = WorkloadBuilder::month(Month::Jun03).build();
        assert_eq!(w.validate(), Ok(()));
        assert_eq!(w.capacity, 128);
        let (w0, w1) = w.window;
        assert_eq!(w0, WEEK);
        assert_eq!(w1, WEEK + Month::Jun03.seconds());
        // All runtimes respect the month's 12 h limit.
        assert!(w.jobs.iter().all(|j| j.runtime <= 12 * HOUR));
        assert!(w.jobs.iter().all(|j| j.requested <= 12 * HOUR));
    }

    #[test]
    fn generated_month_has_the_right_job_count() {
        let w = WorkloadBuilder::month(Month::Sep03).build();
        let in_window = w.in_window().count();
        let expected = MonthProfile::of(Month::Sep03).total_jobs as f64;
        // Poisson thinning into the window: expect within ~5%.
        assert!(
            (in_window as f64 - expected).abs() / expected < 0.05,
            "got {in_window}, expected ~{expected}"
        );
    }

    #[test]
    fn generated_load_matches_profile() {
        for month in [Month::Jun03, Month::Oct03, Month::Jan04] {
            let w = WorkloadBuilder::month(month).build();
            let target = MonthProfile::of(month).load;
            let got = w.offered_load();
            assert!(
                (got - target).abs() / target < 0.15,
                "{month}: load {got:.3} vs target {target:.3}"
            );
        }
    }

    #[test]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a month of seconds fits u64"
    )]
    fn high_load_variant_scales_offered_load() {
        let w = WorkloadBuilder::month(Month::Oct03)
            .target_load(0.9)
            .build();
        let got = w.offered_load();
        assert!(
            (got - 0.9).abs() < 0.12,
            "rho=0.9 variant measured {got:.3}"
        );
        // Window shrinks with the compression factor.
        let f = MonthProfile::of(Month::Oct03).load / 0.9;
        let expect_len = (Month::Oct03.seconds() as f64 * f).round() as Time;
        assert!((w.window.1 - w.window.0).abs_diff(expect_len) <= 2);
    }

    #[test]
    fn node_range_mix_tracks_table_3() {
        let w = WorkloadBuilder::month(Month::Aug03).build();
        let n = w.jobs.len() as f64;
        let mut got = [0usize; 8];
        for j in &w.jobs {
            got[range_of_nodes(j.nodes)] += 1;
        }
        for (r, &count) in got.iter().enumerate() {
            let expect = MonthProfile::of(Month::Aug03).ranges[r].jobs_pct / 100.0;
            let have = count as f64 / n;
            assert!(
                (have - expect).abs() < 0.02,
                "range {r}: {have:.3} vs {expect:.3}"
            );
        }
    }

    #[test]
    fn runtime_class_mix_tracks_table_4() {
        let p = MonthProfile::of(Month::Jan04);
        let w = WorkloadBuilder::month(Month::Jan04).build();
        let n = w.jobs.len() as f64;
        // Fraction of all jobs that are class-0 (one-node) long jobs:
        // the paper's standout 23.1% figure for 1/04.
        let long_one_node = w
            .jobs
            .iter()
            .filter(|j| class_of_nodes(j.nodes) == 0 && j.runtime > 5 * HOUR)
            .count() as f64
            / n;
        assert!(
            (long_one_node * 100.0 - p.runtime_mix[0].long_pct).abs() < 3.0,
            "1/04 one-node long share {:.1}% vs {:.1}%",
            long_one_node * 100.0,
            p.runtime_mix[0].long_pct
        );
    }

    #[test]
    fn same_seed_reproduces_same_trace() {
        let a = WorkloadBuilder::month(Month::Feb04).seed(42).build();
        let b = WorkloadBuilder::month(Month::Feb04).seed(42).build();
        assert_eq!(a.jobs, b.jobs);
        let c = WorkloadBuilder::month(Month::Feb04).seed(43).build();
        assert_ne!(a.jobs, c.jobs);
    }

    #[test]
    fn random_workload_is_valid() {
        let w = random_workload(RandomWorkloadCfg::default(), 1);
        assert_eq!(w.validate(), Ok(()));
        assert_eq!(w.jobs.len(), 200);
    }

    #[test]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a month of seconds fits u64"
    )]
    fn span_scaling_preserves_load_and_rate() {
        let full = WorkloadBuilder::month(Month::Oct03).build();
        let scaled = WorkloadBuilder::month(Month::Oct03).span_scale(0.1).build();
        assert_eq!(scaled.validate(), Ok(()));
        // Offered load is preserved up to the sampling noise of the
        // much smaller trace (a few heavy jobs can move a 3-day window's
        // load by ~0.1).
        assert!(
            (scaled.offered_load() - full.offered_load()).abs() < 0.2,
            "scaled load {:.3} vs full {:.3}",
            scaled.offered_load(),
            full.offered_load()
        );
        // Window is ~10% of the month.
        let expect = (Month::Oct03.seconds() as f64 * 0.1).round() as Time;
        assert!((scaled.window.1 - scaled.window.0).abs_diff(expect) <= 2);
        // Job count ~10% of the month's.
        let n = scaled.in_window().count() as f64;
        let target = MonthProfile::of(Month::Oct03).total_jobs as f64 * 0.1;
        assert!((n - target).abs() / target < 0.15, "{n} vs {target}");
    }

    #[test]
    fn span_scaling_composes_with_high_load() {
        let w = WorkloadBuilder::month(Month::Sep03)
            .span_scale(0.15)
            .target_load(0.9)
            .build();
        let got = w.offered_load();
        assert!(
            (got - 0.9).abs() < 0.15,
            "rho=0.9 scaled variant measured {got:.3}"
        );
    }

    #[test]
    fn small_capacity_renormalizes_ranges() {
        let w = WorkloadBuilder::month(Month::Jun03).capacity(16).build();
        assert!(w.jobs.iter().all(|j| j.nodes <= 16));
        assert_eq!(w.validate(), Ok(()));
    }
}
