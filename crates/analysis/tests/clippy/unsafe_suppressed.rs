//! Fixture: a justified unsafe block under `deny`, the way
//! `crates/service` admits its two signal fns.  Expected: no diagnostics.
#![deny(unsafe_code)]

#[expect(
    unsafe_code,
    reason = "libc signal registration has no safe std equivalent; handler only stores an atomic"
)]
pub fn install_handler() {
    unsafe {
        register();
    }
}

extern "C" {
    fn register();
}
