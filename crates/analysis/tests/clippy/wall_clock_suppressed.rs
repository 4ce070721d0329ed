//! Fixture: the same clock reads, each under a justified `#[expect]`.
//! Expected: no diagnostics.
use std::time::SystemTime;

#[expect(
    clippy::disallowed_methods,
    reason = "latency telemetry only, never read back into a decision"
)]
pub fn telemetry_stamp() -> std::time::Instant {
    std::time::Instant::now()
}

#[expect(clippy::disallowed_methods, reason = "boot banner, display only")]
pub fn banner_time() -> SystemTime {
    SystemTime::now()
}
