//! Fixture: an unsafe block under the `#![forbid(unsafe_code)]` every
//! library crate carries.  Expected: line 7.
#![forbid(unsafe_code)]

pub fn peek(r: &u32) -> u32 {
    let p: *const u32 = r;
    unsafe { *p }
}
