//! Fixture: a justified HashSet stays silent.  Expected: no diagnostics.

pub fn membership(xs: &[u32]) -> usize {
    #[expect(
        clippy::disallowed_types,
        reason = "pure membership check, iteration order never observed"
    )]
    let seen: std::collections::HashSet<u32> = xs.iter().copied().collect();
    seen.len()
}
