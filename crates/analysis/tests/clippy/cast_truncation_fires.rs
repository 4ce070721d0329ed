//! cast-truncation firing fixture: lossy `as` casts fire clippy's
//! `cast_possible_truncation`, through type aliases too.  Expected:
//! line 8 and line 12.  A sign change is `cast_sign_loss`, which the
//! workspace does not enable, and a widening cast is lossless.
pub type Time = u64;

pub fn narrow(x: u64) -> u32 {
    x as u32
}

pub fn fraction(x: f64) -> Time {
    x as Time
}

pub fn sign_change(x: i64) -> u64 {
    x as u64
}

pub fn widen_is_fine(x: u32) -> u64 {
    x as u64
}
