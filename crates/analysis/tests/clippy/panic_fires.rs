//! Fixture: every panic path the daemon crates deny, under the header
//! `crates/service` and `crates/fleet` carry.  Expected: line 13
//! (unwrap), line 14 (expect), line 16 (panic!), line 18 (bare index).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing,
    reason = "the daemon runs unattended"
)]

pub fn handle(q: &[u32], found: Option<u32>) -> u32 {
    let a = found.unwrap();
    let b = found.expect("present");
    if q.is_empty() {
        panic!("empty queue");
    }
    let first = q[0];
    a + b + first
}
