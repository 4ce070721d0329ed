//! The rule registry and the one token-level rule.
//!
//! Every rule sees the same per-file [`Ctx`]: the masked token stream
//! (so a token rule never fires inside a comment or string literal),
//! the parse tree, the interprocedural layer and the lock-order edges.
//! Scoping (which crates a rule polices) lives in `lint.toml`, not here
//! — rules only know how to recognize a violation.

use crate::flowrules::LockEdge;
use crate::lexer::{Token, TokenKind};
use crate::parse::File;
use crate::summaries::Interp;

/// One rule violation at a source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// 1-based line.
    pub line: u32,
    /// 1-based byte column.
    pub col: u32,
    /// Human-readable description of the violation.
    pub message: String,
}

/// Everything a rule sees for one file.
pub struct Ctx<'a> {
    /// Workspace-relative path of the file under analysis.
    pub rel_path: &'a str,
    /// The file's masked token stream.
    pub tokens: &'a [Token],
    /// The file's parse tree.
    pub ast: &'a File,
    /// The call graph plus per-function effect summaries, built once
    /// per lint run.
    pub interp: &'a Interp<'a>,
    /// Every nested lock acquisition in the linted files.
    pub lock_edges: &'a [LockEdge],
}

/// A rule: its identity plus its checker.
pub struct RuleDef {
    /// The name used in `lint.toml` sections and `allow(...)`.
    pub name: &'static str,
    /// Scans one file (with workspace context) for violations.
    pub check: fn(&Ctx) -> Vec<Finding>,
}

/// Every rule the analyzer knows, in reporting order.  DESIGN.md
/// "Static checks" says which invariant each one guards.
pub const RULES: &[RuleDef] = &[
    RuleDef {
        name: "float-ordering",
        check: check_float_ordering,
    },
    RuleDef {
        name: "lock-ordering",
        check: crate::semrules::check_lock_ordering,
    },
    RuleDef {
        name: "lock-across-blocking",
        check: crate::flowrules::check_lock_across_blocking,
    },
    RuleDef {
        name: "double-lock",
        check: crate::flowrules::check_double_lock,
    },
];

/// Looks a rule up by name.
pub fn rule_by_name(name: &str) -> Option<&'static RuleDef> {
    RULES.iter().find(|r| r.name == name)
}

fn punct_at(tokens: &[Token], i: usize, b: u8) -> bool {
    matches!(tokens.get(i), Some(t) if t.kind == TokenKind::Punct(b))
}

/// `.partial_cmp(` — float keys must use a total order.  A token rule
/// because a clippy `disallowed-methods` ban on `PartialOrd::partial_cmp`
/// also fires inside every `#[derive(PartialOrd)]`.
fn check_float_ordering(ctx: &Ctx) -> Vec<Finding> {
    let tokens = ctx.tokens;
    let mut out = Vec::new();
    for (i, t) in tokens.iter().enumerate().skip(1) {
        if t.kind == TokenKind::Ident
            && t.text == "partial_cmp"
            && punct_at(tokens, i - 1, b'.')
            && punct_at(tokens, i + 1, b'(')
        {
            out.push(Finding {
                line: t.line,
                col: t.col,
                message: "partial_cmp on search/decision keys mis-orders or panics on \
                          NaN; use f64::total_cmp (or a hand-written total Ord) so \
                          tie-breaking is exact"
                    .to_string(),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use crate::engine::lint_source;
    use crate::LintConfig;

    fn findings(src: &str) -> usize {
        lint_source("x/src/lib.rs", src, &LintConfig::default()).len()
    }

    #[test]
    fn float_ordering_fires_on_partial_cmp_calls_only() {
        assert_eq!(findings("fn f() { a.partial_cmp(&b); }"), 1);
        assert_eq!(findings("fn f() { a.total_cmp(&b); }"), 0);
        assert_eq!(findings("fn partial_cmp() {}"), 0);
        assert_eq!(findings("use std::cmp::PartialOrd;"), 0);
    }
}
