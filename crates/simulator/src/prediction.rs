//! Online job-runtime prediction (paper Section 7 future work:
//! "applying job runtime prediction techniques to improve the accuracy
//! of estimated job runtime for scheduling").
//!
//! A [`RuntimePredictor`] replaces the scheduler's `R*` source: instead
//! of trusting the user's request (`R* = R`) or cheating with the actual
//! runtime (`R* = T`), the engine asks the predictor at every arrival
//! and shows it every completion.  Predictions may *under*-estimate; the
//! availability profile treats overdue predictions as "ends imminently",
//! and reservations are recomputed at every decision point, so
//! correctness never depends on prediction accuracy.
//!
//! [`RecentUserAverage`] implements the well-known recent-jobs
//! technique (Tsafrir, Etsion & Feitelson, TPDS 2007): predict the mean
//! of the user's last few actual runtimes, capped by the request.

use sbs_workload::job::Job;
use sbs_workload::time::Time;
use std::collections::BTreeMap;

/// An online runtime predictor driven by the simulation engine.
pub trait RuntimePredictor: Send {
    /// Predicted runtime for an arriving job.  The job's `requested`
    /// runtime is the system-enforced upper bound; predictions are
    /// clamped into `[1, job.requested]` by the engine.
    fn predict(&mut self, job: &Job) -> Time;

    /// Observes a completed job (its actual runtime is now known).
    fn observe(&mut self, job: &Job);

    /// Display name for reports.
    fn name(&self) -> String;
}

/// Mean of the user's most recent actual runtimes, capped by the
/// request; a fixed fraction of the request for users with no history.
#[derive(Debug, Clone)]
pub struct RecentUserAverage {
    window: usize,
    fallback_frac: f64,
    history: BTreeMap<u32, Vec<Time>>,
}

impl RecentUserAverage {
    /// The literature's sweet spot: the last two jobs.
    pub const DEFAULT_WINDOW: usize = 2;
    /// Fallback prediction for unseen users as a fraction of the
    /// request.
    pub const DEFAULT_FALLBACK: f64 = 0.5;

    /// Creates the predictor (`window >= 1`, `0 < fallback_frac <= 1`).
    pub fn new(window: usize, fallback_frac: f64) -> Self {
        assert!(window >= 1, "window must be at least 1");
        assert!(
            fallback_frac > 0.0 && fallback_frac <= 1.0,
            "fallback fraction must be in (0, 1]"
        );
        RecentUserAverage {
            window,
            fallback_frac,
            history: BTreeMap::new(),
        }
    }
}

impl Default for RecentUserAverage {
    fn default() -> Self {
        Self::new(Self::DEFAULT_WINDOW, Self::DEFAULT_FALLBACK)
    }
}

impl RuntimePredictor for RecentUserAverage {
    #[expect(
        clippy::cast_possible_truncation,
        reason = "float-to-int `as` saturates deterministically and the result is clamped to [1, requested] below"
    )]
    fn predict(&mut self, job: &Job) -> Time {
        let prediction = match self.history.get(&job.user) {
            Some(recent) if !recent.is_empty() => {
                let sum: u128 = recent.iter().map(|&t| t as u128).sum();
                // A mean of u64 samples always fits back in u64.
                Time::try_from(sum / recent.len() as u128).unwrap_or(Time::MAX)
            }
            _ => (job.requested as f64 * self.fallback_frac) as Time,
        };
        prediction.clamp(1, job.requested)
    }

    fn observe(&mut self, job: &Job) {
        let recent = self.history.entry(job.user).or_default();
        recent.push(job.runtime);
        if recent.len() > self.window {
            recent.remove(0);
        }
    }

    fn name(&self) -> String {
        format!("recent-{}-avg", self.window)
    }
}

/// Data-driven predictor description, so experiment scenarios stay
/// plain comparable data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PredictorSpec {
    /// [`RecentUserAverage`] with the default window and fallback.
    RecentUserAverage,
}

impl PredictorSpec {
    /// Instantiates the predictor.
    pub fn build(&self) -> Box<dyn RuntimePredictor> {
        match self {
            PredictorSpec::RecentUserAverage => Box::new(RecentUserAverage::default()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbs_workload::job::JobId;
    use sbs_workload::time::HOUR;

    fn job(id: u32, user: u32, runtime: Time, requested: Time) -> Job {
        Job::new(JobId(id), 0, 1, runtime, requested).with_user(user)
    }

    #[test]
    fn unseen_users_get_the_fallback_fraction() {
        let mut p = RecentUserAverage::default();
        let j = job(1, 42, HOUR, 4 * HOUR);
        assert_eq!(p.predict(&j), 2 * HOUR);
    }

    #[test]
    fn history_drives_predictions_and_window_slides() {
        let mut p = RecentUserAverage::new(2, 0.5);
        p.observe(&job(1, 7, HOUR, 4 * HOUR));
        p.observe(&job(2, 7, 3 * HOUR, 4 * HOUR));
        // Mean of last two: 2 h.
        assert_eq!(p.predict(&job(3, 7, HOUR, 12 * HOUR)), 2 * HOUR);
        // A third observation evicts the first.
        p.observe(&job(3, 7, 3 * HOUR, 4 * HOUR));
        assert_eq!(p.predict(&job(4, 7, HOUR, 12 * HOUR)), 3 * HOUR);
        // Other users are unaffected.
        assert_eq!(p.predict(&job(5, 8, HOUR, 4 * HOUR)), 2 * HOUR);
    }

    #[test]
    fn predictions_are_capped_by_the_request() {
        let mut p = RecentUserAverage::default();
        p.observe(&job(1, 7, 10 * HOUR, 12 * HOUR));
        p.observe(&job(2, 7, 10 * HOUR, 12 * HOUR));
        assert_eq!(p.predict(&job(3, 7, HOUR, 2 * HOUR)), 2 * HOUR);
    }

    #[test]
    fn spec_builds_named_predictor() {
        let p = PredictorSpec::RecentUserAverage.build();
        assert_eq!(p.name(), "recent-2-avg");
    }

    #[test]
    #[should_panic(expected = "window")]
    fn zero_window_rejected() {
        let _ = RecentUserAverage::new(0, 0.5);
    }
}
