//! Simulation time.
//!
//! All simulation clocks, waits and runtimes are whole seconds stored in a
//! `u64`.  Integer time keeps every experiment bit-reproducible across
//! platforms; floating point is only introduced at the measurement layer
//! (average waits, slowdowns, ...).

/// A point in (or length of) simulated time, in seconds.
pub type Time = u64;

/// One minute in seconds.
pub const MINUTE: Time = 60;
/// One hour in seconds.
pub const HOUR: Time = 3_600;
/// One day in seconds.
pub const DAY: Time = 86_400;
/// One week in seconds.
pub const WEEK: Time = 7 * DAY;

/// Converts a (possibly fractional) number of hours to seconds, rounding to
/// the nearest second.
///
/// ```
/// use sbs_workload::time::{hours, HOUR};
/// assert_eq!(hours(2.0), 2 * HOUR);
/// assert_eq!(hours(0.5), 1_800);
/// ```
#[expect(
    clippy::cast_possible_truncation,
    reason = "float-to-int `as` saturates deterministically; durations here are hours, not epochs"
)]
pub fn hours(h: f64) -> Time {
    debug_assert!(h >= 0.0, "negative duration");
    (h * HOUR as f64).round() as Time
}

/// Converts seconds to fractional hours.
///
/// ```
/// use sbs_workload::time::{to_hours, HOUR};
/// assert_eq!(to_hours(3 * HOUR), 3.0);
/// ```
pub fn to_hours(t: Time) -> f64 {
    t as f64 / HOUR as f64
}

/// Renders a duration as a compact human-readable string (`"2h30m"`,
/// `"45s"`, `"3d04h"`), used by report tables and examples.
pub fn fmt_duration(t: Time) -> String {
    if t >= DAY {
        format!("{}d{:02}h", t / DAY, (t % DAY) / HOUR)
    } else if t >= HOUR {
        format!("{}h{:02}m", t / HOUR, (t % HOUR) / MINUTE)
    } else if t >= MINUTE {
        format!("{}m{:02}s", t / MINUTE, t % MINUTE)
    } else {
        format!("{t}s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hour_conversions_round_trip() {
        for h in [0.0, 0.25, 1.0, 12.0, 300.0] {
            assert!((to_hours(hours(h)) - h).abs() < 1e-3, "h={h}");
        }
    }

    #[test]
    fn fractional_hours_round_to_nearest_second() {
        assert_eq!(hours(1.0 / 3600.0), 1);
        assert_eq!(hours(0.2 / 3600.0), 0);
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(45), "45s");
        assert_eq!(fmt_duration(2 * MINUTE + 5), "2m05s");
        assert_eq!(fmt_duration(2 * HOUR + 30 * MINUTE), "2h30m");
        assert_eq!(fmt_duration(3 * DAY + 4 * HOUR), "3d04h");
    }

    #[test]
    fn constants_are_consistent() {
        assert_eq!(HOUR, 60 * MINUTE);
        assert_eq!(DAY, 24 * HOUR);
        assert_eq!(WEEK, 7 * DAY);
    }
}
