//! `lint.toml` — the workspace lint configuration.
//!
//! The crate is dependency-free, so this module ships a
//! tiny TOML-subset reader sufficient for the lint config: `[section]`
//! headers (dotted names allowed), `key = "string"` and
//! `key = ["a", "b"]` entries, `#` comments, blank lines.  Anything
//! fancier (multi-line arrays, tables-in-arrays, non-string values) is
//! rejected loudly rather than misread.

use std::collections::BTreeMap;
use std::path::Path;

/// The whole lint configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintConfig {
    /// Directory trees to scan, relative to the workspace root.
    pub roots: Vec<String>,
    /// Directory *names* skipped wherever they appear (test trees,
    /// fixtures, build output).
    pub skip_dirs: Vec<String>,
    /// Path prefixes (workspace-relative, `/`-separated) each rule is
    /// limited to, keyed by rule name.  A rule without an entry runs on
    /// the whole scanned tree.
    pub scopes: BTreeMap<String, Vec<String>>,
    /// `lock-across-blocking`'s call list; `None` keeps the built-in
    /// [`crate::flowrules::DEFAULT_BLOCKING`].
    pub blocking_calls: Option<Vec<String>>,
}

impl Default for LintConfig {
    fn default() -> Self {
        LintConfig {
            roots: vec!["crates".to_string()],
            skip_dirs: ["tests", "benches", "examples", "fixtures", "target"]
                .map(String::from)
                .to_vec(),
            scopes: BTreeMap::new(),
            blocking_calls: None,
        }
    }
}

impl LintConfig {
    /// True when `rule` applies to `rel_path`.
    pub fn applies(&self, rule: &str, rel_path: &str) -> bool {
        self.scopes
            .get(rule)
            .is_none_or(|scope| scope.iter().any(|p| rel_path.starts_with(p)))
    }

    /// Reads and parses `path`.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Self::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Parses the TOML-subset text.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut cfg = LintConfig::default();
        let mut section = String::new();
        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|r| r.strip_suffix(']')) {
                section = name.trim().to_string();
                let rule = section.strip_prefix("rules.");
                if section != "scan" && rule.is_none_or(|r| crate::rule_by_name(r).is_none()) {
                    return Err(format!("line {lineno}: unknown section {section:?}"));
                }
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!("line {lineno}: expected `key = value`"));
            };
            let key = key.trim();
            let values = parse_value(value.trim()).map_err(|e| format!("line {lineno}: {e}"))?;
            match (section.as_str(), key) {
                ("scan", "roots") => cfg.roots = values,
                ("scan", "skip_dirs") => cfg.skip_dirs = values,
                ("rules.lock-across-blocking", "blocking_calls") => {
                    cfg.blocking_calls = Some(values)
                }
                (s, "scope") if s.starts_with("rules.") => {
                    cfg.scopes.insert(s["rules.".len()..].to_string(), values);
                }
                (s, other) => return Err(format!("line {lineno}: unknown key {other:?} in [{s}]")),
            }
        }
        Ok(cfg)
    }
}

/// Removes a `#` comment, respecting quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    for (i, b) in line.bytes().enumerate() {
        match b {
            b'"' => in_string = !in_string,
            b'#' if !in_string => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Parses `"string"` or `["a", "b"]` into a vector of strings.
fn parse_value(v: &str) -> Result<Vec<String>, String> {
    if let Some(inner) = v.strip_prefix('[').and_then(|r| r.strip_suffix(']')) {
        let inner = inner.trim();
        if inner.is_empty() {
            return Ok(Vec::new());
        }
        inner
            .split(',')
            .map(|item| parse_string(item.trim()))
            .collect()
    } else {
        Ok(vec![parse_string(v)?])
    }
}

fn parse_string(v: &str) -> Result<String, String> {
    v.strip_prefix('"')
        .and_then(|r| r.strip_suffix('"'))
        .map(String::from)
        .ok_or_else(|| format!("expected a quoted string, got {v:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sections_arrays_and_comments() {
        let cfg = LintConfig::parse(
            r#"
# workspace lint config
[scan]
roots = ["crates"]          # only first-party code
skip_dirs = ["tests", "fixtures"]

[rules.float-ordering]
scope = ["crates/core/src/", "crates/dsearch/src/"]
"#,
        )
        .expect("parse");
        assert_eq!(cfg.roots, ["crates"]);
        assert_eq!(cfg.skip_dirs, ["tests", "fixtures"]);
        assert!(cfg.applies("float-ordering", "crates/core/src/lib.rs"));
        assert!(!cfg.applies("float-ordering", "crates/cli/src/lib.rs"));
        assert!(cfg.applies("double-lock", "anything/x.rs"), "unscoped");
    }

    #[test]
    fn rule_list_knobs_parse_and_unknown_keys_still_fail() {
        let cfg = LintConfig::parse(
            "[rules.lock-across-blocking]\n\
             blocking_calls = [\"recv\", \"write_all\"]\n",
        )
        .expect("parse");
        assert_eq!(cfg.blocking_calls.unwrap(), ["recv", "write_all"]);
        assert!(LintConfig::default().blocking_calls.is_none());
        assert!(
            LintConfig::parse("[rules.double-lock]\nblocking_calls = []\n")
                .unwrap_err()
                .contains("unknown key")
        );
    }

    #[test]
    fn malformed_lines_are_rejected_with_line_numbers() {
        assert!(LintConfig::parse("[scan]\nroots = unquoted\n")
            .unwrap_err()
            .contains("line 2"));
        assert!(LintConfig::parse("[mystery]\nx = \"1\"\n")
            .unwrap_err()
            .contains("unknown section"));
        assert!(LintConfig::parse("[rules.wall-clock]\nscope = []\n")
            .unwrap_err()
            .contains("unknown section"));
        assert!(LintConfig::parse("loose = \"1\"\n").is_err());
    }
}
