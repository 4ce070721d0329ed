//! The lint engine: file walking, rule scoping, test-code exemption and
//! inline suppressions.
//!
//! ## Suppressions
//!
//! ```text
//! // sbs-lint: allow(float-ordering): generic PartialOrd key, stable sort
//! xs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(Ordering::Equal));
//! ```
//!
//! A suppression names one or more rules and **must** carry a
//! justification after the closing parenthesis (separated by `:`); a
//! bare `allow(...)`, or one naming an unknown rule, is itself a
//! diagnostic.  A trailing suppression applies to its own line, a
//! standalone one to the next line with code.
//!
//! ## Test code
//!
//! The rules police production code.  `#[cfg(test)]` items (the
//! workspace's inline test modules) are skipped entirely, as are files
//! under directories named in `[scan] skip_dirs` (`tests/`, `benches/`,
//! `examples/`, `fixtures/`).

use crate::config::LintConfig;
use crate::lexer::{mask, tokenize, Comment, Token, TokenKind};
use crate::rules::{rule_by_name, RULES};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// One reported problem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based byte column.
    pub col: u32,
    /// The rule that fired (or `invalid-suppression`).
    pub rule: String,
    /// What went wrong and what to do instead.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}:{} {} {}",
            self.path, self.line, self.col, self.rule, self.message
        )
    }
}

/// A parsed `sbs-lint: allow(...)` comment.
#[derive(Debug, Clone)]
struct Suppression {
    rules: Vec<String>,
    target_line: Option<u32>,
    justified: bool,
    comment_line: u32,
}

/// One file handed to the in-memory lint API.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub rel: String,
    /// The file's full source text.
    pub source: String,
}

/// Per-file suppression/test-range state shared by all rules.
struct FileState {
    test_ranges: Vec<(u32, u32)>,
    /// Line → rules suppressed there (justified suppressions only).
    allowed: BTreeMap<u32, Vec<String>>,
    /// Diagnostics about the suppressions themselves.
    supp_diags: Vec<Diagnostic>,
}

impl FileState {
    fn new(rel_path: &str, comments: &[Comment], tokens: &[Token]) -> FileState {
        let mut fs = FileState {
            test_ranges: cfg_test_ranges(tokens),
            allowed: BTreeMap::new(),
            supp_diags: Vec::new(),
        };
        // Suppression syntax problems are diagnostics themselves (outside
        // test code): an unjustified or unknown allow must not pass
        // silently.
        for s in parse_suppressions(comments, tokens) {
            if fs.in_test(s.comment_line) {
                continue;
            }
            let mut problems = Vec::new();
            if !s.justified {
                problems.push(
                    "allow(...) without a justification; write \
                     `sbs-lint: allow(<rule>): <why this is sound>`"
                        .to_string(),
                );
            }
            for r in s.rules.iter().filter(|r| rule_by_name(r).is_none()) {
                problems.push(format!("allow({r}) names an unknown rule"));
            }
            for message in problems {
                fs.supp_diags.push(Diagnostic {
                    path: rel_path.to_string(),
                    line: s.comment_line,
                    col: 1,
                    rule: "invalid-suppression".to_string(),
                    message,
                });
            }
            if let (true, Some(line)) = (s.justified, s.target_line) {
                fs.allowed.entry(line).or_default().extend(s.rules);
            }
        }
        fs
    }

    fn in_test(&self, line: u32) -> bool {
        self.test_ranges
            .iter()
            .any(|&(a, b)| line >= a && line <= b)
    }

    fn is_allowed(&self, line: u32, rule: &str) -> bool {
        self.allowed
            .get(&line)
            .is_some_and(|rs| rs.iter().any(|r| r == rule))
    }
}

/// Lints one file's source text under `cfg`.  `rel_path` is the
/// workspace-relative path used for rule scoping and reporting.
pub fn lint_source(rel_path: &str, source: &str, cfg: &LintConfig) -> Vec<Diagnostic> {
    lint_sources(
        &[SourceFile {
            rel: rel_path.to_string(),
            source: source.to_string(),
        }],
        cfg,
    )
}

/// Lints a set of in-memory sources, in order.
pub fn lint_sources(files: &[SourceFile], cfg: &LintConfig) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for f in files {
        let masked = mask(&f.source);
        let tokens = tokenize(&masked.text);
        let fs = FileState::new(&f.rel, &masked.comments, &tokens);
        let mut diags = fs.supp_diags.clone();
        for rule in RULES.iter().filter(|r| cfg.applies(r.name, &f.rel)) {
            for found in (rule.check)(&tokens) {
                if fs.in_test(found.line) || fs.is_allowed(found.line, rule.name) {
                    continue;
                }
                diags.push(Diagnostic {
                    path: f.rel.clone(),
                    line: found.line,
                    col: found.col,
                    rule: rule.name.to_string(),
                    message: found.message,
                });
            }
        }
        diags.sort_by(|a, b| (a.line, a.col, &a.rule).cmp(&(b.line, b.col, &b.rule)));
        out.extend(diags);
    }
    out
}

/// Extracts `sbs-lint: allow(...)` suppressions from comments and
/// resolves each to the line it covers.
fn parse_suppressions(comments: &[Comment], tokens: &[Token]) -> Vec<Suppression> {
    let mut out = Vec::new();
    for c in comments {
        let Some(rest) = c.text.trim().strip_prefix("sbs-lint:") else {
            continue;
        };
        let rest = rest.trim();
        let Some(args) = rest.strip_prefix("allow").map(str::trim_start) else {
            // Unknown directive: surface as an unjustified suppression so
            // typos like `sbs-lint: alow(...)` cannot silence anything.
            out.push(Suppression {
                rules: Vec::new(),
                target_line: None,
                justified: false,
                comment_line: c.line,
            });
            continue;
        };
        let (rules_part, tail) = match args.strip_prefix('(').and_then(|a| a.split_once(')')) {
            Some((inner, tail)) => (inner, tail),
            None => ("", args),
        };
        let rules: Vec<String> = rules_part
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty())
            .collect();
        let justification = tail.trim_start().strip_prefix(':').map(str::trim);
        let justified = !rules.is_empty() && justification.is_some_and(|j| !j.is_empty());
        let target_line = if c.standalone {
            tokens.iter().map(|t| t.line).find(|&l| l > c.line)
        } else {
            Some(c.line)
        };
        out.push(Suppression {
            rules,
            target_line,
            justified,
            comment_line: c.line,
        });
    }
    out
}

/// Line ranges (inclusive) of `#[cfg(test)]` items.
fn cfg_test_ranges(tokens: &[Token]) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if let Some(end) = match_cfg_test_attr(tokens, i) {
            let start_line = tokens[i].line;
            let item_end = skip_item(tokens, end);
            let end_line = tokens
                .get(item_end.saturating_sub(1))
                .map_or(start_line, |t| t.line);
            out.push((start_line, end_line));
            i = item_end;
        } else {
            i += 1;
        }
    }
    out
}

fn punct(tokens: &[Token], i: usize, b: u8) -> bool {
    matches!(tokens.get(i), Some(t) if t.kind == TokenKind::Punct(b))
}

fn ident(tokens: &[Token], i: usize, text: &str) -> bool {
    matches!(tokens.get(i), Some(t) if t.kind == TokenKind::Ident && t.text == text)
}

/// If `tokens[i..]` starts `#[cfg(test)]` (whitespace-insensitive),
/// returns the index just past the closing `]`.
fn match_cfg_test_attr(tokens: &[Token], i: usize) -> Option<usize> {
    if punct(tokens, i, b'#')
        && punct(tokens, i + 1, b'[')
        && ident(tokens, i + 2, "cfg")
        && punct(tokens, i + 3, b'(')
        && ident(tokens, i + 4, "test")
        && punct(tokens, i + 5, b')')
        && punct(tokens, i + 6, b']')
    {
        Some(i + 7)
    } else {
        None
    }
}

/// Skips one item starting at `i` (more attributes, visibility, then a
/// braced body or a `;`-terminated item).  Returns the index just past
/// the item.
fn skip_item(tokens: &[Token], mut i: usize) -> usize {
    // Further attributes.
    while punct(tokens, i, b'#') && punct(tokens, i + 1, b'[') {
        let mut depth = 0usize;
        i += 1;
        while i < tokens.len() {
            if punct(tokens, i, b'[') {
                depth += 1;
            } else if punct(tokens, i, b']') {
                depth -= 1;
                if depth == 0 {
                    i += 1;
                    break;
                }
            }
            i += 1;
        }
    }
    // Walk to the first top-level `{` or `;`, then past the balanced
    // block if it was a brace.  (`<`/`>` are not counted — `->` and
    // comparisons make them unreliable; `;` cannot appear inside
    // generics anyway.)
    let mut paren = 0i32;
    while i < tokens.len() {
        match tokens[i].kind {
            TokenKind::Punct(b'(') | TokenKind::Punct(b'[') => paren += 1,
            TokenKind::Punct(b')') | TokenKind::Punct(b']') => paren -= 1,
            TokenKind::Punct(b';') if paren <= 0 => return i + 1,
            TokenKind::Punct(b'{') => {
                let mut depth = 0usize;
                while i < tokens.len() {
                    if punct(tokens, i, b'{') {
                        depth += 1;
                    } else if punct(tokens, i, b'}') {
                        depth -= 1;
                        if depth == 0 {
                            return i + 1;
                        }
                    }
                    i += 1;
                }
                return i;
            }
            _ => {}
        }
        i += 1;
    }
    i
}

/// Recursively collects `.rs` files under `dir`, skipping `skip_dirs`
/// names and dotfiles, in sorted (deterministic) order.
fn collect_rs_files(dir: &Path, skip: &[String], out: &mut Vec<PathBuf>) -> Result<(), String> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default();
        if name.starts_with('.') {
            continue;
        }
        if path.is_dir() {
            if skip.iter().any(|s| s == name) {
                continue;
            }
            collect_rs_files(&path, skip, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn read_as_source(root: &Path, path: &Path) -> Result<SourceFile, String> {
    let rel = path
        .strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/");
    let source = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Ok(SourceFile { rel, source })
}

/// Lints the whole workspace rooted at `root` under `cfg`: every `.rs`
/// file under `[scan] roots` outside `skip_dirs`.
pub fn lint_workspace(root: &Path, cfg: &LintConfig) -> Result<Vec<Diagnostic>, String> {
    let mut paths = Vec::new();
    for r in &cfg.roots {
        let dir = root.join(r);
        if dir.is_dir() {
            collect_rs_files(&dir, &cfg.skip_dirs, &mut paths)?;
        }
    }
    lint_files(root, &paths, cfg)
}

/// Lints explicit files (workspace-relative or absolute) under `cfg`.
pub fn lint_files(
    root: &Path,
    files: &[PathBuf],
    cfg: &LintConfig,
) -> Result<Vec<Diagnostic>, String> {
    let mut sources = Vec::with_capacity(files.len());
    for f in files {
        sources.push(read_as_source(root, &root.join(f))?);
    }
    Ok(lint_sources(&sources, cfg))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diags(src: &str) -> Vec<Diagnostic> {
        lint_source("x/src/lib.rs", src, &LintConfig::default())
    }

    #[test]
    fn fires_and_reports_position() {
        let d = diags("fn f() {\n    let o = a.partial_cmp(&b);\n}\n");
        assert_eq!(d.len(), 1);
        assert_eq!((d[0].line, d[0].rule.as_str()), (2, "float-ordering"));
        assert_eq!(d[0].col, 15);
    }

    #[test]
    fn trailing_suppression_covers_its_line() {
        let d = diags(
            "let o = a.partial_cmp(&b); // sbs-lint: allow(float-ordering): integer keys only\n",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn standalone_suppression_covers_the_next_code_line() {
        let d = diags(
            "// sbs-lint: allow(float-ordering): integer keys only\nlet o = a.partial_cmp(&b);\n",
        );
        assert!(d.is_empty(), "{d:?}");
        // ... but not the line after it.
        let d = diags(
            "// sbs-lint: allow(float-ordering): integer keys\nlet x = 1;\nlet o = a.partial_cmp(&b);\n",
        );
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn suppression_without_justification_is_a_diagnostic() {
        let d = diags("// sbs-lint: allow(float-ordering)\nlet o = a.partial_cmp(&b);\n");
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(d.iter().any(|x| x.rule == "invalid-suppression"));
        assert!(d.iter().any(|x| x.rule == "float-ordering"));
    }

    #[test]
    fn suppression_of_unknown_rule_is_a_diagnostic() {
        // A typo, and a rule that has moved to clippy.
        for rule in ["float-ordring", "wall-clock"] {
            let d = diags(&format!("// sbs-lint: allow({rule}): reason\nlet x = 1;\n"));
            assert_eq!(d.len(), 1, "{d:?}");
            assert_eq!(d[0].rule, "invalid-suppression");
            assert!(d[0].message.contains("unknown rule"));
        }
    }

    #[test]
    fn suppressions_only_silence_the_named_rule() {
        // `double-lock` is a retired rule (the lock witness replaced
        // it): naming it is an error and silences nothing.
        let d = diags(
            "// sbs-lint: allow(double-lock): single-threaded setup\nlet o = a.partial_cmp(&b);\n",
        );
        let rules: Vec<&str> = d.iter().map(|x| x.rule.as_str()).collect();
        assert_eq!(rules, ["invalid-suppression", "float-ordering"], "{d:?}");
    }

    #[test]
    fn multi_rule_allows_work() {
        // Each name in the list counts: the known one silences its
        // finding, the unknown one is reported.
        let d = diags(
            "fn f() {\n// sbs-lint: allow(float-ordering, double-lock): test harness shim\nlet t = (a.partial_cmp(&b), m.lock(), m.lock());\n}\n",
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "invalid-suppression");
        assert!(d[0].message.contains("allow(double-lock)"), "{d:?}");
    }

    #[test]
    fn cfg_test_modules_are_exempt() {
        let src = "fn real() {}\n\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        a.partial_cmp(&b);\n    }\n}\n";
        assert!(diags(src).is_empty());
        // The same code outside the module fires.
        let src2 = "fn real() { a.partial_cmp(&b); }\n";
        assert_eq!(diags(src2).len(), 1);
    }

    #[test]
    fn code_after_a_test_module_is_still_linted() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { a.partial_cmp(&b); }\n}\n\nfn late() { c.partial_cmp(&d); }\n";
        let d = diags(src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 6);
    }

    #[test]
    fn scoping_by_path_prefix() {
        let mut cfg = LintConfig::default();
        cfg.scopes.insert(
            "float-ordering".to_string(),
            vec!["crates/core/".to_string()],
        );
        let src = "fn f() { a.partial_cmp(&b); }\n";
        assert_eq!(lint_source("crates/core/src/lib.rs", src, &cfg).len(), 1);
        assert!(lint_source("crates/cli/src/lib.rs", src, &cfg).is_empty());
    }

    #[test]
    fn diagnostics_render_grep_style() {
        let d = diags("fn f() { a.partial_cmp(&b) }\n");
        let line = d[0].to_string();
        assert!(line.starts_with("x/src/lib.rs:1:"), "{line}");
        assert!(line.contains("float-ordering"));
    }
}
