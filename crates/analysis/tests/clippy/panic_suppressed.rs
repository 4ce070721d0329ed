//! Fixture: panic paths silenced by justified `#[expect]`s under the
//! daemon header.  Expected: no diagnostics.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing,
    reason = "the daemon runs unattended"
)]

pub fn handle(q: &[u32], found: Option<u32>) -> u32 {
    #[expect(
        clippy::indexing_slicing,
        reason = "emptiness checked in the same expression; get() would hide the invariant"
    )]
    let first = if q.is_empty() { 0 } else { q[0] };
    let found = found.or(Some(first));
    #[expect(
        clippy::unwrap_used,
        reason = "`or(Some(..))` one line up, cannot be None"
    )]
    found.unwrap()
}
