//! Fixture-based self-tests: every rule has a firing fixture and a
//! suppressed fixture, plus lexer edge cases that must stay silent.
//!
//! Fixtures are linted with the default config (no scoping), so every
//! rule applies to every fixture — exactly the worst case for false
//! positives.
//!
//! The token-level bans that are clippy and rustc lints keep their
//! fixture pairs under `tests/clippy/`: each is compiled by
//! `clippy-driver` with the workspace's `clippy.toml` and
//! `[workspace.lints]`, so a config edit that stops a ban from firing
//! fails here, not only in the CI clippy job.

use sbs_analysis::{lint_source, LintConfig};
use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// Lints a fixture and returns `(line, rule)` pairs.
fn lint_fixture(name: &str) -> Vec<(u32, String)> {
    lint_source(name, &fixture(name), &LintConfig::default())
        .into_iter()
        .map(|d| (d.line, d.rule))
        .collect()
}

fn assert_silent(name: &str) {
    let d = lint_fixture(name);
    assert!(d.is_empty(), "{name}: expected no diagnostics, got {d:?}");
}

#[test]
fn float_ordering_fires() {
    assert_eq!(
        lint_fixture("float_ordering_fires.rs"),
        vec![(5, "float-ordering".to_string())]
    );
}

#[test]
fn float_ordering_suppressed() {
    assert_silent("float_ordering_suppressed.rs");
}

#[test]
fn lock_ordering_fires() {
    // Both sides of the inverted pair are flagged, at the inner
    // acquisition of each.
    assert_eq!(
        lint_fixture("lock_ordering_fires.rs"),
        vec![
            (12, "lock-ordering".to_string()),
            (19, "lock-ordering".to_string()),
        ]
    );
}

#[test]
fn lock_ordering_suppressed() {
    assert_silent("lock_ordering_suppressed.rs");
}

// ----- flow-sensitive rules (CFG + dataflow) -------------------------

#[test]
fn lock_across_blocking_fires() {
    assert_eq!(
        lint_fixture("lock_across_blocking_fires.rs"),
        vec![(12, "lock-across-blocking".to_string())]
    );
}

#[test]
fn lock_across_blocking_suppressed() {
    assert_silent("lock_across_blocking_suppressed.rs");
}

#[test]
fn double_lock_fires() {
    assert_eq!(
        lint_fixture("double_lock_fires.rs"),
        vec![(11, "double-lock".to_string())]
    );
}

#[test]
fn double_lock_suppressed() {
    assert_silent("double_lock_suppressed.rs");
}

#[test]
fn guard_passed_to_fn_fires() {
    // The guard for `state` is moved into `flush_under`, whose summary
    // says it blocks (`out.flush()`); the finding lands on the passing
    // call, not inside the callee.
    assert_eq!(
        lint_fixture("guard_passed_to_fn_fires.rs"),
        vec![(18, "lock-across-blocking".to_string())]
    );
}

#[test]
fn guard_passed_to_fn_suppressed() {
    assert_silent("guard_passed_to_fn_suppressed.rs");
}

#[test]
fn interprocedural_layer_leaves_intraprocedural_verdicts_unchanged() {
    // Differential check: the summary-aware lifts may only ADD findings
    // where a resolved callee carries an effect. On the intraprocedural
    // flow fixtures the verdicts must stay identical — same rule, same
    // line, nothing extra, and the suppressed twins stay silent.
    let cases: [(&str, u32, &str); 2] = [
        ("lock_across_blocking_fires.rs", 12, "lock-across-blocking"),
        ("double_lock_fires.rs", 11, "double-lock"),
    ];
    for (name, line, rule) in cases {
        assert_eq!(
            lint_fixture(name),
            vec![(line, rule.to_string())],
            "{name}: interprocedural layer changed the verdict"
        );
    }
    for name in [
        "lock_across_blocking_suppressed.rs",
        "double_lock_suppressed.rs",
    ] {
        assert_silent(name);
    }
}

#[test]
fn flow_findings_carry_exact_positions() {
    // The acceptance check for the seeded-bug drill: the firing
    // fixture's diagnostic renders grep-style with the exact line:col
    // of the blocking call, not of the acquisition.
    let d = lint_source(
        "lock_across_blocking_fires.rs",
        &fixture("lock_across_blocking_fires.rs"),
        &LintConfig::default(),
    );
    let first = d.first().expect("fixture fires").to_string();
    assert!(
        first.starts_with("lock_across_blocking_fires.rs:12:9"),
        "unexpected rendering: {first}"
    );
}

#[test]
fn lexer_edge_cases_never_fire() {
    // Raw strings containing `partial_cmp` and `.lock()`, `//` inside
    // string literals, nested `/* /* */ */` comments, tricky char
    // literals and lifetimes: all must be invisible to every rule.
    assert_silent("lexer_edge_cases.rs");
}

#[test]
fn diagnostics_carry_exact_positions() {
    // The acceptance check for "reintroduce a violation, get the right
    // file:line back": render the float-ordering finding grep-style.
    let d = lint_source(
        "float_ordering_fires.rs",
        &fixture("float_ordering_fires.rs"),
        &LintConfig::default(),
    );
    let first = d.first().expect("fixture fires").to_string();
    assert!(
        first.starts_with("float_ordering_fires.rs:5:"),
        "unexpected rendering: {first}"
    );
    assert!(first.contains("float-ordering"), "{first}");
}

// ----- token bans enforced by clippy and rustc ----------------------

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// `key = "value"` pairs of one `[section]` of a TOML file.
fn toml_section(path: &Path, section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let header = format!("[{section}]");
    text.lines()
        .map(str::trim)
        .skip_while(|l| *l != header)
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter_map(|l| l.split_once('='))
        .map(|(k, v)| (k.trim().to_string(), v.trim().trim_matches('"').to_string()))
        .collect()
}

/// The toolchain's `clippy-driver`: cargo runs tests with `CARGO` set
/// to its own binary, and clippy ships beside it.
fn clippy_driver() -> PathBuf {
    std::env::var_os("CARGO")
        .map(PathBuf::from)
        .and_then(|cargo| cargo.parent().map(|bin| bin.join("clippy-driver")))
        .filter(|p| p.is_file())
        .unwrap_or_else(|| PathBuf::from("clippy-driver"))
}

/// The value of `"key":` in a rustc JSON diagnostic, from `from` on.
fn json_after<'a>(line: &'a str, from: usize, key: &str) -> Option<&'a str> {
    let at = from + line[from..].find(&format!("\"{key}\":"))? + key.len() + 3;
    Some(&line[at..])
}

/// Compiles `tests/clippy/<name>` as a library under clippy with the
/// workspace lint configuration and returns `(line, lint)` pairs, one
/// per diagnostic that points into the file.
fn clippy_fixture(name: &str) -> Vec<(u32, String)> {
    let root = workspace_root();
    let src = format!("{}/tests/clippy/{name}", env!("CARGO_MANIFEST_DIR"));
    let krate = name.trim_end_matches(".rs");
    let out = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("clippy-fixtures")
        .join(krate);
    let edition = toml_section(&root.join("Cargo.toml"), "workspace.package")
        .into_iter()
        .find(|(k, _)| k == "edition")
        .map(|(_, v)| v)
        .expect("workspace edition");
    let mut cmd = Command::new(clippy_driver());
    cmd.env("CLIPPY_CONF_DIR", &root)
        .args([
            "--edition",
            &edition,
            "--crate-type",
            "lib",
            "--crate-name",
            krate,
        ])
        .args(["--emit", "metadata", "--error-format", "json", "--out-dir"])
        .arg(&out)
        .arg(&src);
    for table in ["rust", "clippy"] {
        for (lint, level) in toml_section(
            &root.join("Cargo.toml"),
            &format!("workspace.lints.{table}"),
        ) {
            let lint = if table == "clippy" {
                format!("clippy::{lint}")
            } else {
                lint
            };
            cmd.arg(format!("--{level}={lint}"));
        }
    }
    let run = cmd
        .output()
        .unwrap_or_else(|e| panic!("{}: {e}", clippy_driver().display()));
    let stderr = String::from_utf8_lossy(&run.stderr);
    let mut found = Vec::new();
    for line in stderr
        .lines()
        .filter(|l| l.contains("\"$message_type\":\"diagnostic\""))
    {
        // rustc serializes `code` before `spans`, so the first of each
        // belongs to the top-level diagnostic.
        let code = json_after(line, 0, "code")
            .and_then(|v| v.strip_prefix("{\"code\":\""))
            .and_then(|v| v.split('"').next())
            .unwrap_or("");
        let spans = line.find("\"spans\":").expect("spans field");
        if line[spans..].starts_with("\"spans\":[]") {
            continue; // a summary such as "2 warnings emitted"
        }
        let line_no = json_after(line, spans, "line_start")
            .and_then(|v| v.split(|c: char| !c.is_ascii_digit()).next())
            .and_then(|v| v.parse().ok())
            .expect("line_start");
        found.push((line_no, code.to_string()));
    }
    found
}

fn lints(pairs: &[(u32, &str)]) -> Vec<(u32, String)> {
    pairs.iter().map(|&(l, r)| (l, r.to_string())).collect()
}

fn assert_clippy_silent(name: &str) {
    let d = clippy_fixture(name);
    assert!(d.is_empty(), "{name}: expected no diagnostics, got {d:?}");
}

#[test]
fn wall_clock_fires() {
    assert_eq!(
        clippy_fixture("wall_clock_fires.rs"),
        lints(&[
            (7, "clippy::disallowed_methods"),
            (11, "clippy::disallowed_methods")
        ])
    );
}

#[test]
fn wall_clock_suppressed() {
    assert_clippy_silent("wall_clock_suppressed.rs");
}

#[test]
fn unordered_map_fires() {
    assert_eq!(
        clippy_fixture("unordered_map_fires.rs"),
        lints(&[
            (5, "clippy::disallowed_types"),
            (8, "clippy::disallowed_types")
        ])
    );
}

#[test]
fn unordered_map_suppressed() {
    assert_clippy_silent("unordered_map_suppressed.rs");
}

#[test]
fn panic_fires() {
    assert_eq!(
        clippy_fixture("panic_fires.rs"),
        lints(&[
            (13, "clippy::unwrap_used"),
            (14, "clippy::expect_used"),
            (16, "clippy::panic"),
            (18, "clippy::indexing_slicing"),
        ])
    );
    // The fixture's header is the daemon crates' own.
    for krate in ["service", "fleet"] {
        let lib =
            std::fs::read_to_string(workspace_root().join(format!("crates/{krate}/src/lib.rs")))
                .expect("daemon lib.rs");
        for lint in ["unwrap_used", "expect_used", "panic", "indexing_slicing"] {
            assert!(
                lib.contains(&format!("clippy::{lint},")),
                "{krate} does not deny {lint}"
            );
        }
    }
}

#[test]
fn panic_suppressed() {
    assert_clippy_silent("panic_suppressed.rs");
}

#[test]
fn forbid_unsafe_fires() {
    assert_eq!(
        clippy_fixture("unsafe_fires.rs"),
        lints(&[(7, "unsafe_code")])
    );
    // Every library crate carries the attribute the fixture does;
    // `service` denies instead, to admit its two signal fns.
    let crates = std::fs::read_dir(workspace_root().join("crates")).expect("crates/");
    for dir in crates.map(|e| e.expect("dir entry").path()) {
        let lib = dir.join("src/lib.rs");
        let text =
            std::fs::read_to_string(&lib).unwrap_or_else(|e| panic!("{}: {e}", lib.display()));
        assert!(
            text.contains("#![forbid(unsafe_code)]") || text.contains("#![deny(unsafe_code)]"),
            "{} admits unsafe code",
            lib.display()
        );
    }
}

#[test]
fn forbid_unsafe_suppressed() {
    assert_clippy_silent("unsafe_suppressed.rs");
}

#[test]
fn result_dropped_fires() {
    assert_eq!(
        clippy_fixture("result_dropped_fires.rs"),
        lints(&[
            (9, "clippy::let_underscore_must_use"),
            (10, "unused_must_use")
        ])
    );
}

#[test]
fn result_dropped_suppressed() {
    assert_clippy_silent("result_dropped_suppressed.rs");
}

#[test]
fn cast_truncation_fires() {
    assert_eq!(
        clippy_fixture("cast_truncation_fires.rs"),
        lints(&[
            (8, "clippy::cast_possible_truncation"),
            (12, "clippy::cast_possible_truncation"),
        ])
    );
}

#[test]
fn cast_truncation_suppressed() {
    assert_clippy_silent("cast_truncation_suppressed.rs");
}
