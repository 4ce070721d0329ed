//! `lock-ordering`: nested acquisitions that invert an order observed
//! elsewhere in the workspace.
//!
//! If one function locks A then B and another locks B then A, two
//! threads can deadlock.  [`crate::flowrules::lock_edges`] collects
//! every nested acquisition the workspace makes, from the same guard
//! liveness and call summaries the other lock rules use; this rule flags
//! an edge whose reverse also exists, at the inner acquisition of each
//! side.  The fleet relies on it for the leaf `Edge` lock: no code path
//! may take a shard lock while holding it.  Lock identity is the
//! receiver's field/path key; unresolvable receivers never match.

use crate::rules::{Ctx, Finding};

/// Flags each nested acquisition in this file whose reverse order is
/// observed anywhere in the workspace.
pub(crate) fn check_lock_ordering(ctx: &Ctx) -> Vec<Finding> {
    let mut out = Vec::new();
    for e in ctx.lock_edges {
        if e.file != ctx.rel_path || e.outer == e.inner {
            continue;
        }
        // This nested acquisition inverts an order observed elsewhere?
        let inverted = ctx
            .lock_edges
            .iter()
            .find(|o| o.outer == e.inner && o.inner == e.outer);
        if let Some(other) = inverted {
            out.push(Finding {
                line: e.line,
                col: e.col,
                message: format!(
                    "acquires `{}` while holding `{}`, but {}:{} acquires them in \
                     the opposite order — a deadlock precursor; pick one canonical \
                     order and refactor the other site",
                    e.inner, e.outer, other.file, other.line
                ),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use crate::engine::{lint_sources, SourceFile};
    use crate::LintConfig;

    /// Lints (path, src) pairs as one workspace and returns the
    /// lock-ordering findings in the first file as (line, message).
    fn run(files: &[(&str, &str)]) -> Vec<(u32, String)> {
        let sources: Vec<SourceFile> = files
            .iter()
            .map(|(rel, src)| SourceFile {
                rel: rel.to_string(),
                source: src.to_string(),
            })
            .collect();
        lint_sources(&sources, &LintConfig::default())
            .into_iter()
            .filter(|d| d.path == files[0].0 && d.rule == "lock-ordering")
            .map(|d| (d.line, d.message))
            .collect()
    }

    #[test]
    fn lock_ordering_flags_inversions_across_files() {
        let hits = run(&[
            (
                "svc/a.rs",
                "fn f(a: M, b: M) {\n let g = a.lock();\n let h = b.lock();\n}\n",
            ),
            (
                "svc/b.rs",
                "fn g(a: M, b: M) {\n let h = b.lock();\n let g = a.lock();\n}\n",
            ),
        ]);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].0, 3);
        assert!(hits[0].1.contains("svc/b.rs:3"), "{}", hits[0].1);
    }

    #[test]
    fn lock_ordering_silent_on_consistent_order() {
        let hits = run(&[
            (
                "svc/a.rs",
                "fn f(a: M, b: M) {\n let g = a.lock();\n let h = b.lock();\n}\n",
            ),
            (
                "svc/b.rs",
                "fn g(a: M, b: M) {\n let g = a.lock();\n let h = b.lock();\n}\n",
            ),
        ]);
        assert!(hits.is_empty(), "{hits:?}");
    }
}
