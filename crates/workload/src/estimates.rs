//! User requested-runtime model.
//!
//! The paper (Section 6.4) re-evaluates every policy with the scheduler
//! using *user-provided requested runtimes* (`R* = R`) instead of actual
//! runtimes, noting that "user-estimated runtimes are known to be
//! inaccurate" (their refs [1, 10]: Chiang et al., Mu'alem & Feitelson).
//! Since the trace's `R` column is unavailable, this module generates
//! requested runtimes with the empirically documented shape:
//!
//! * requests are never below the actual runtime (jobs exceeding their
//!   request are killed, so surviving trace records have `R >= T`),
//! * most users over-estimate heavily — the over-estimation factor `R/T`
//!   has a mode near 1 and a heavy tail out to an order of magnitude,
//! * users pick round values from a small "menu" (15 min, 1 h, 2 h, ...,
//!   the queue limit), producing the characteristic spikes at round
//!   numbers and at the runtime limit.

use crate::time::{Time, HOUR, MINUTE};
use rand::Rng;

/// The menu of round request values users typically pick from, in
/// ascending order.  Values above the queue limit are ignored at sampling
/// time.
pub const REQUEST_MENU: [Time; 14] = [
    5 * MINUTE,
    10 * MINUTE,
    15 * MINUTE,
    30 * MINUTE,
    HOUR,
    2 * HOUR,
    3 * HOUR,
    4 * HOUR,
    6 * HOUR,
    8 * HOUR,
    10 * HOUR,
    12 * HOUR,
    18 * HOUR,
    24 * HOUR,
];

/// Fraction of users assumed to request (nearly) exactly their runtime.
const P_ACCURATE: f64 = 0.15;

/// Largest over-estimation factor sampled (log-uniform tail `1..=MAX`).
const MAX_FACTOR: f64 = 10.0;

/// Samples a requested runtime for a job with actual runtime `runtime`
/// under queue runtime limit `limit`.
///
/// Guarantees `runtime <= result <= max(limit, runtime)`.
pub fn sample_requested<R: Rng + ?Sized>(rng: &mut R, runtime: Time, limit: Time) -> Time {
    debug_assert!(runtime > 0);
    let factor = if rng.gen_bool(P_ACCURATE) {
        1.0
    } else {
        // Log-uniform over [1, MAX_FACTOR]: density concentrated at small
        // factors with a heavy tail, matching published estimate studies.
        MAX_FACTOR.powf(rng.gen::<f64>())
    };
    #[expect(
        clippy::cast_possible_truncation,
        reason = "float-to-int `as` saturates deterministically; the estimate is rounded onto the menu below"
    )]
    let raw = ((runtime as f64 * factor).ceil() as Time).max(runtime);
    round_to_menu(raw, runtime, limit)
}

/// Rounds a raw request up to the next menu value, clamped to
/// `[runtime, limit]` (or to `runtime` itself when `runtime > limit`,
/// which cannot happen for generated jobs but keeps the function total).
fn round_to_menu(raw: Time, runtime: Time, limit: Time) -> Time {
    let ceiling = limit.max(runtime);
    let menu_pick = REQUEST_MENU
        .iter()
        .copied()
        .find(|&m| m >= raw && m <= ceiling)
        .unwrap_or(ceiling);
    menu_pick.clamp(runtime, ceiling)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn requests_are_valid_and_bounded() {
        let mut rng = StdRng::seed_from_u64(7);
        let limit = 12 * HOUR;
        for _ in 0..5_000 {
            let t = rng.gen_range(30..=limit);
            let r = sample_requested(&mut rng, t, limit);
            assert!(r >= t, "request {r} below runtime {t}");
            assert!(r <= limit, "request {r} above limit");
        }
    }

    #[test]
    fn requests_land_on_menu_or_limit() {
        let mut rng = StdRng::seed_from_u64(11);
        let limit = 24 * HOUR;
        for _ in 0..2_000 {
            let t = rng.gen_range(60..=4 * HOUR);
            let r = sample_requested(&mut rng, t, limit);
            assert!(
                REQUEST_MENU.contains(&r) || r == limit || r == t,
                "request {r} not a menu value"
            );
        }
    }

    #[test]
    fn over_estimation_is_the_common_case() {
        let mut rng = StdRng::seed_from_u64(3);
        let limit = 12 * HOUR;
        let n = 20_000;
        let mut over = 0usize;
        let mut sum_factor = 0.0;
        for _ in 0..n {
            let t = 30 * MINUTE;
            let r = sample_requested(&mut rng, t, limit);
            if r > t {
                over += 1;
            }
            sum_factor += r as f64 / t as f64;
        }
        let frac_over = over as f64 / n as f64;
        assert!(
            frac_over > 0.6,
            "only {frac_over:.2} of requests over-estimate"
        );
        let mean_factor = sum_factor / n as f64;
        assert!(
            (1.5..=6.0).contains(&mean_factor),
            "mean over-estimation factor {mean_factor:.2} implausible"
        );
    }

    #[test]
    fn runtime_at_limit_requests_limit() {
        let mut rng = StdRng::seed_from_u64(5);
        let limit = 12 * HOUR;
        for _ in 0..100 {
            assert_eq!(sample_requested(&mut rng, limit, limit), limit);
        }
    }

    #[test]
    fn menu_is_sorted() {
        assert!(REQUEST_MENU.windows(2).all(|w| w[0] < w[1]));
    }
}
