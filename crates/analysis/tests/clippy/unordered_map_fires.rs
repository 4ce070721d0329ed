//! Fixture: HashMap/HashSet fire clippy's `disallowed_types` under the
//! workspace clippy.toml.  Expected: line 5 (HashMap) and line 8 (HashSet).

pub fn tally(xs: &[u32]) -> usize {
    let mut seen = std::collections::HashMap::new();
    for &x in xs {
        *seen.entry(x).or_insert(0u32) += 1;
        drop(std::collections::HashSet::from([x]));
    }
    seen.len()
}
