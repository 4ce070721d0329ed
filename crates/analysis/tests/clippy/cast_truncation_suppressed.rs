//! cast-truncation suppressed fixture: every lossy cast carries a
//! justified `#[expect]`.  Expected: no diagnostics.
pub type Time = u64;

#[expect(
    clippy::cast_possible_truncation,
    reason = "x is a node count bounded by the machine size"
)]
pub fn narrow(x: u64) -> u32 {
    x as u32
}

#[expect(
    clippy::cast_possible_truncation,
    reason = "float-to-int `as` saturates deterministically here"
)]
pub fn fraction(x: f64) -> Time {
    x as Time
}
