//! Static checks that run in tier-1.
//!
//! **Float ordering.**  `partial_cmp` on a float key is `None` on NaN,
//! which breaks the exact tie-breaking of the paper's hierarchical
//! objective.  The scan below fails on every `.partial_cmp(` call in the
//! `src/` trees of [`SCOPE`], outside comments, literals and
//! `#[cfg(test)]` items, unless its line or the line above carries a
//! justified `// sbs-lint: allow(float-ordering): <why>`.  An allow with
//! no justification, or naming another rule, fails too.  Clippy cannot
//! do this: a `disallowed-methods` ban on `partial_cmp` also fires
//! inside every `#[derive(PartialOrd)]`.
//!
//! **Clippy and rustc bans.**  Each ban in `clippy.toml` and
//! `[workspace.lints]` has a fixture pair under `static_checks/clippy/`
//! that `clippy-driver` compiles with the workspace configuration, so a
//! config edit that stops a ban from firing fails here.

use std::path::{Path, PathBuf};
use std::process::Command;

/// The crates whose `src/` trees the float-ordering scan walks.
const SCOPE: &[&str] = &[
    "core",
    "dsearch",
    "metrics",
    "backfill",
    "simulator",
    "obs",
    "workload",
];

const RULE: &str = "float-ordering";

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

// ----- the float-ordering scan --------------------------------------

/// Splits `src` into its code and its comments: each is `src` with the
/// rest blanked to spaces (literals are in neither) and every newline
/// kept, so lines and byte columns still match `src`.
fn split(src: &str) -> (Vec<u8>, Vec<u8>) {
    let s = src.as_bytes();
    let (mut code, mut notes) = (s.to_vec(), s.to_vec());
    blank(&mut notes);
    let mut i = 0;
    while i < s.len() {
        let word_start = i == 0 || !(s[i - 1].is_ascii_alphanumeric() || s[i - 1] == b'_');
        let (end, comment) = match (s[i], s.get(i + 1).copied().unwrap_or(b' ')) {
            (b'/', b'/') => (closed_by(s, i, b"\n", false), true),
            (b'/', b'*') => (block_end(s, i), true),
            (b'\'', _) => (char_end(s, i).unwrap_or(i), false),
            (b'b', b'\'') if word_start => (char_end(s, i + 1).unwrap_or(i), false),
            (b'"' | b'b' | b'r', _) if word_start => (string_end(s, i).unwrap_or(i), false),
            _ => (i, false), // code, a lifetime's quote or a raw identifier
        };
        blank(&mut code[i..end]);
        if comment {
            notes[i..end].copy_from_slice(&s[i..end]);
        }
        i = end.max(i + 1);
    }
    (code, notes)
}

fn blank(bytes: &mut [u8]) {
    for b in bytes.iter_mut().filter(|b| **b != b'\n') {
        *b = b' ';
    }
}

/// The end of `close`'s first match from `i` on, skipping `\x` escapes
/// if `escapes`; the end of `s` if there is none.
fn closed_by(s: &[u8], mut i: usize, close: &[u8], escapes: bool) -> usize {
    while i < s.len() && !s[i..].starts_with(close) {
        i += if escapes && s[i] == b'\\' { 2 } else { 1 };
    }
    s.len().min(i + close.len())
}

/// The end of the block comment opening at `i`, nested ones included.
fn block_end(s: &[u8], i: usize) -> usize {
    let mut j = i + 2;
    while j < s.len() && !s[j..].starts_with(b"*/") {
        let nested = s[j..].starts_with(b"/*");
        j = if nested { block_end(s, j) } else { j + 1 };
    }
    s.len().min(j + 2)
}

/// The end of the string literal (plain, byte, raw or raw byte) opening
/// at `i`, or `None` when `i` starts an identifier.
fn string_end(s: &[u8], i: usize) -> Option<usize> {
    let raw = s[i..].starts_with(b"r") || s[i..].starts_with(b"br");
    let quote = i + usize::from(s[i] == b'b') + usize::from(raw);
    let hashes = s[quote..].iter().take_while(|&&b| b == b'#').count();
    let close = [&b"\""[..], &s[quote..quote + hashes]].concat();
    let opens = s.get(quote + hashes) == Some(&b'"');
    opens.then(|| closed_by(s, quote + hashes + 1, &close, !raw))
}

/// The end of the char literal opening at `i`, or `None` when the quote
/// starts a lifetime.  As in rustc, a literal is one code point or one
/// escape, then the closing quote.
fn char_end(s: &[u8], i: usize) -> Option<usize> {
    let body = s.get(i + 1..)?;
    let closing = |b: &u8| *b == b'\'' || *b == b'\n';
    let len = match body.first()? {
        b'\\' => 2 + body.get(2..)?.iter().position(closing)?,
        b'\n' => return None,
        _ => 1 + body[1..].iter().take_while(|&&b| b & 0xC0 == 0x80).count(),
    };
    (body.get(len) == Some(&b'\'')).then_some(i + len + 2)
}

/// Blanks each `#[cfg(test)]` item: the attribute, any attributes after
/// it, and the item through its `;` or its matching `}`.
fn blank_cfg_test(code: &mut [u8], notes: &mut [u8]) {
    const ATTR: &[u8] = b"#[cfg(test)]";
    while let Some(start) = code.windows(ATTR.len()).position(|w| w == ATTR) {
        let mut depth = 0;
        let end = (start + ATTR.len()..code.len()).find(|&j| {
            depth += match code[j] {
                b'(' | b'[' | b'{' => 1,
                b')' | b']' | b'}' => -1,
                _ => 0,
            };
            depth == 0 && (code[j] == b';' || code[j] == b'}')
        });
        let end = end.map_or(code.len(), |j| j + 1);
        blank(&mut code[start..end]);
        blank(&mut notes[start..end]);
    }
}

/// The findings in one file, each as `path:line:col rule`: every
/// `.partial_cmp(` call not covered by an allow, and every bad allow.
fn check(path: &str, src: &str) -> Vec<String> {
    let (mut code, mut notes) = split(src);
    blank_cfg_test(&mut code, &mut notes);
    let code = String::from_utf8_lossy(&code);
    let notes = String::from_utf8_lossy(&notes);
    let (mut found, mut allowed_above) = (Vec::new(), false);
    for (n, (code, note)) in code.lines().zip(notes.lines()).enumerate() {
        let comment = note.trim_start();
        let body = comment.trim_start_matches(['/', '*', '!']).trim_start();
        let mut allowed = false;
        if let Some(directive) = body.strip_prefix("sbs-lint:") {
            let allow = directive.trim().strip_prefix("allow(");
            let (rules, why) = allow.and_then(|a| a.split_once("):")).unwrap_or_default();
            let rules: Vec<&str> = rules.split(',').map(str::trim).collect();
            let justified = !why.trim().is_empty();
            allowed = justified && rules.contains(&RULE);
            if !justified || rules.iter().any(|r| *r != RULE) {
                let col = note.len() - comment.len() + 1;
                found.push(format!("{path}:{}:{col} invalid-suppression", n + 1));
            }
        }
        for (col, name) in code.match_indices("partial_cmp") {
            let (before, after) = (&code[..col], &code[col + name.len()..]);
            let call = before.trim_end().ends_with('.') && after.trim_start().starts_with('(');
            if call && !allowed && !allowed_above {
                found.push(format!("{path}:{}:{} {RULE}", n + 1, col + 1));
            }
        }
        allowed_above = allowed;
    }
    found
}

/// The findings in `crates/<c>/src` under `root` for each `c` in
/// `scope`, paths relative to `root`.  A tree with no `.rs` file is an
/// error, so a renamed crate cannot turn the scan into a no-op.
fn scan(root: &Path, scope: &[&str]) -> Result<Vec<String>, String> {
    let mut found = Vec::new();
    for c in scope {
        let (mut dirs, mut files) = (vec![root.join(format!("crates/{c}/src"))], vec![]);
        while let Some(dir) = dirs.pop() {
            for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
                let p = entry.path();
                if p.is_dir() {
                    dirs.push(p);
                } else if p.extension().is_some_and(|e| e == "rs") {
                    files.push(p);
                }
            }
        }
        if files.is_empty() {
            return Err(format!("crates/{c}/src holds no .rs file; update SCOPE"));
        }
        files.sort();
        for f in files {
            let rel = f.strip_prefix(root).expect("under root").display();
            found.extend(check(&rel.to_string(), &read(&f)));
        }
    }
    Ok(found)
}

#[test]
fn lint_runs_clean_on_this_workspace() {
    let found = scan(&workspace_root(), SCOPE).unwrap_or_else(|e| panic!("{e}"));
    let fix = format!("use f64::total_cmp, or justify with `// sbs-lint: allow({RULE}): <why>`");
    assert!(found.is_empty(), "{fix}:\n{}", found.join("\n"));
}

#[test]
fn a_vanished_scope_fails_loudly() {
    let err = scan(&workspace_root(), &["core", "gone"]).expect_err("no crates/gone");
    assert_eq!(err, "crates/gone/src holds no .rs file; update SCOPE");
}

#[test]
fn lint_reports_reintroduced_violations_with_positions() {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("static-checks-reseeded");
    std::fs::create_dir_all(root.join("crates/x/src")).expect("mkdir");
    let src = "pub fn cmp(a: f64, b: f64) -> bool {\n    a.partial_cmp(&b).is_some()\n}\n";
    std::fs::write(root.join("crates/x/src/lib.rs"), src).expect("source");
    let want = ["crates/x/src/lib.rs:2:7 float-ordering"];
    assert_eq!(scan(&root, &["x"]), Ok(want.map(String::from).to_vec()));
}

/// One `#[test]` per entry: `check` over the source, as file `f.rs`,
/// must report exactly the findings listed after it.
macro_rules! cases {
    ($($name:ident: $src:expr => [$($want:expr),*];)*) => {$(
        #[test]
        fn $name() {
            let want: &[&str] = &[$($want),*];
            assert_eq!(check("f.rs", $src), want);
        }
    )*};
}

cases! {
    float_ordering_fires: include_str!("static_checks/float/float_ordering_fires.rs") => ["f.rs:5:25 float-ordering"];
    float_ordering_suppressed: include_str!("static_checks/float/float_ordering_suppressed.rs") => [];
    lexer_edge_cases_never_fire: include_str!("static_checks/float/lexer_edge_cases.rs") => [];
    diagnostics_carry_exact_positions: "let s = 'é'; a.partial_cmp(&b);" => ["f.rs:1:17 float-ordering"];
    float_ordering_fires_on_partial_cmp_calls_only:
        "a . partial_cmp (&b); a.total_cmp(&b); a.partial_cmp_by(b); PartialOrd::partial_cmp(&a, &b);\nfn partial_cmp(&self) {} use std::cmp::PartialOrd;" => ["f.rs:1:5 float-ordering"];
    fires_and_reports_position: "fn f() {\n    let o = a.partial_cmp(&b);\n}\n" => ["f.rs:2:15 float-ordering"];
    diagnostics_render_grep_style: "fn f() { a.partial_cmp(&b) }" => ["f.rs:1:12 float-ordering"];
    trailing_suppression_covers_its_line: "a.partial_cmp(&b); // sbs-lint: allow(float-ordering): integer keys" => [];
    standalone_suppression_covers_the_next_code_line:
        "// sbs-lint: allow(float-ordering): integer keys\na.partial_cmp(&b);\n// sbs-lint: allow(float-ordering): integer keys\nlet x = 1;\na.partial_cmp(&b);" => ["f.rs:5:3 float-ordering"];
    suppression_without_justification_is_a_diagnostic:
        "// sbs-lint: allow(float-ordering)\na.partial_cmp(&b);\nc.partial_cmp(&d); // sbs-lint: allow(float-ordering):  \nx(); /* sbs-lint: alow(float-ordering): typo */"
        => ["f.rs:1:1 invalid-suppression", "f.rs:2:3 float-ordering", "f.rs:3:20 invalid-suppression", "f.rs:3:3 float-ordering", "f.rs:4:6 invalid-suppression"];
    suppression_of_unknown_rule_is_a_diagnostic:
        "// sbs-lint: allow(float-ordring): typo\n// sbs-lint: allow(wall-clock): moved to clippy" => ["f.rs:1:1 invalid-suppression", "f.rs:2:1 invalid-suppression"];
    suppressions_only_silence_the_named_rule:
        "// sbs-lint: allow(double-lock): retired\na.partial_cmp(&b);" => ["f.rs:1:1 invalid-suppression", "f.rs:2:3 float-ordering"];
    multi_rule_allows_work:
        "// sbs-lint: allow(float-ordering, double-lock): shim\na.partial_cmp(&b);" => ["f.rs:1:1 invalid-suppression"];
    cfg_test_modules_are_exempt:
        "#[cfg(test)]\n#[allow(x)]\nmod tests {\n    fn t() { a.partial_cmp(&b); } // sbs-lint: allow()\n}\n#[cfg(test)]\nuse x::y;\na.partial_cmp(&b);" => ["f.rs:8:3 float-ordering"];
    code_after_a_test_module_is_still_linted:
        "#[cfg(test)]\nmod tests {\n    fn t(x: [u8; 2]) { a.partial_cmp(&b); }\n}\nfn late() { c.partial_cmp(&d); }\n" => ["f.rs:5:15 float-ordering"];
    block_comment_spanning_lines_keeps_line_count: "x\n/* one\ntwo */\ny.partial_cmp(z)" => ["f.rs:4:3 float-ordering"];
    line_comments_are_masked_and_collected:
        concat!(r#"let s = "// sbs-lint: allow(float-ordering): in a string"; a.partial_cmp(&b);"#, "\n// c.partial_cmp(d)\ne.partial_cmp(f); // sbs-lint: allow(float-ordering): g.partial_cmp(h)") => ["f.rs:1:62 float-ordering"];
    nested_block_comments_mask_fully: "a /* outer /* inner */ x.partial_cmp(y) */ b.partial_cmp(c)" => ["f.rs:1:46 float-ordering"];
    strings_hide_their_interiors: r#"let s = "a.partial_cmp(b) // no comment"; t.partial_cmp(u)"# => ["f.rs:1:45 float-ordering"];
    escaped_quotes_do_not_end_strings: r#"let s = "\" a.partial_cmp(b) \\"; t.partial_cmp(u)"# => ["f.rs:1:37 float-ordering"];
    raw_strings_with_hashes: r###"let s = r#"x "quoted" a.partial_cmp(b)"#; t.partial_cmp(u)"### => ["f.rs:1:45 float-ordering"];
    raw_identifiers_stay_code: "let r#type = r#x.partial_cmp(y);" => ["f.rs:1:18 float-ordering"];
    byte_and_raw_byte_strings: r##"(b"a.partial_cmp(b)", b'"', br#"c.partial_cmp(d)"#, e.partial_cmp(f))"## => ["f.rs:1:55 float-ordering"];
    char_literals_vs_lifetimes: r#"fn f<'u2>(x: &'u2 str) { ('u', '\'', '\u{1F600}', 'é', '"', x.partial_cmp(y)) }"# => ["f.rs:1:64 float-ordering"];
    adjacent_lifetimes_are_not_a_char_literal: "fn f<'a, 'b>(x: &'a str) { x.partial_cmp(y) }" => ["f.rs:1:30 float-ordering"];
    identifier_ending_in_r_or_b_is_not_a_prefix: r#"let color = "u"; for x in "p" { grab.partial_cmp(y) }"# => ["f.rs:1:38 float-ordering"];
}

// ----- token bans enforced by clippy and rustc ----------------------

/// `key = "value"` pairs of one `[section]` of a TOML file.
fn toml_section(path: &Path, section: &str) -> Vec<(String, String)> {
    let text = read(path);
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

/// Compiles `static_checks/clippy/<name>` as a library under clippy
/// with the workspace lint configuration and returns `(line, lint)`
/// pairs, one per diagnostic that points into the file.
fn clippy_fixture(name: &str) -> Vec<(u32, String)> {
    let root = workspace_root();
    let src = root.join("tests/static_checks/clippy").join(name);
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
        let lib = read(&workspace_root().join(format!("crates/{krate}/src/lib.rs")));
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
        let text = read(&lib);
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
