//! The rule registry and its one rule.
//!
//! A rule sees one file's masked token stream (so it never fires inside
//! a comment or string literal).  Scoping (which crates a rule polices)
//! lives in `lint.toml`, not here — rules only know how to recognize a
//! violation.

use crate::lexer::{Token, TokenKind};

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

/// A rule: its identity plus its checker.
pub struct RuleDef {
    /// The name used in `lint.toml` sections and `allow(...)`.
    pub name: &'static str,
    /// Scans one file's masked tokens for violations.
    pub check: fn(&[Token]) -> Vec<Finding>,
}

/// Every rule the analyzer knows, in reporting order.  DESIGN.md
/// "Static checks" says which invariant each one guards.
pub const RULES: &[RuleDef] = &[RuleDef {
    name: "float-ordering",
    check: check_float_ordering,
}];

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
fn check_float_ordering(tokens: &[Token]) -> Vec<Finding> {
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
