//! Fixture: production code reading the wall clock fires clippy's
//! `disallowed_methods` under the workspace clippy.toml.
//! Expected: line 7 and line 11.
use std::time::SystemTime;

pub fn decision_timestamp() -> std::time::Instant {
    std::time::Instant::now()
}

pub fn submit_time() -> SystemTime {
    SystemTime::now()
}
