#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! `sbs-analysis` — the one workspace check clippy cannot express.
//!
//! The paper's headline result only reproduces when every scheduling
//! decision is bit-deterministic.  The token-level determinism and
//! robustness bans (HashMap, wall-clock reads, panics in the daemon,
//! `unsafe`, dropped results, truncating casts) are clippy and rustc
//! lints, configured in the workspace `clippy.toml` and
//! `[workspace.lints]`.  This crate keeps one token rule:
//!
//! * `float-ordering` — `.partial_cmp(` on search keys ([`rules`]): a
//!   clippy `disallowed-methods` ban would also fire inside every
//!   `#[derive(PartialOrd)]`.
//!
//! The daemon's lock discipline (one shard lock per operation, no I/O
//! under it, the edge lock a leaf) is not checked here: the lock
//! witness in `sbs_service::witness` checks it at run time in every
//! debug build, tier-1 tests included.
//!
//! The pipeline: a small real Rust lexer ([`lexer`]) so nothing fires
//! inside strings or comments, the rule over its tokens, scoping from
//! the workspace-root `lint.toml` ([`config`]), and justified inline
//! suppressions plus the test-code exemption ([`engine`]).
//!
//! Run it as `cargo run --release -p sbs-analysis`.

pub mod config;
pub mod engine;
pub mod lexer;
pub mod rules;

pub use config::LintConfig;
pub use engine::{lint_files, lint_source, lint_sources, lint_workspace, Diagnostic, SourceFile};
pub use rules::{rule_by_name, Finding, RULES};

use std::path::{Path, PathBuf};

/// Name of the workspace configuration file.
pub const CONFIG_FILE: &str = "lint.toml";

/// Walks upward from `start` to the first directory containing
/// `lint.toml`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    start
        .ancestors()
        .find(|d| d.join(CONFIG_FILE).is_file())
        .map(Path::to_path_buf)
}

/// The `sbs-analysis [--root DIR] [FILE...]` command line.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct LintArgs {
    /// `--root DIR`; `None` means the nearest ancestor holding
    /// `lint.toml`.
    pub root: Option<PathBuf>,
    /// Files to lint, relative to the root; empty means the workspace.
    pub files: Vec<PathBuf>,
}

/// Parses the command line (without the program name).  `--help` is an
/// error too, so the caller prints the usage either way.
pub fn parse_args(args: impl IntoIterator<Item = String>) -> Result<LintArgs, String> {
    let mut out = LintArgs::default();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => out.root = Some(PathBuf::from(it.next().ok_or("--root needs a value")?)),
            "--help" | "-h" => return Err("help requested".to_string()),
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag:?}")),
            _ => out.files.push(PathBuf::from(a)),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lint_subcommand_parses() {
        let args = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = args("--root /tmp/ws crates/core/src/lib.rs").expect("parse");
        assert_eq!(a.root.as_deref(), Some(Path::new("/tmp/ws")));
        assert_eq!(a.files, [PathBuf::from("crates/core/src/lib.rs")]);
        assert_eq!(args("").expect("parse"), LintArgs::default());
        assert!(args("--bogus").is_err());
        assert!(args("--root").is_err());
    }

    #[test]
    fn lint_runs_clean_on_this_workspace() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let cfg = LintConfig::load(&root.join(CONFIG_FILE)).expect("lint.toml loads");
        let diags = lint_workspace(&root, &cfg).expect("workspace walk");
        let rendered: Vec<String> = diags.iter().map(ToString::to_string).collect();
        assert!(
            rendered.is_empty(),
            "the workspace must lint clean:\n{}",
            rendered.join("\n")
        );
    }

    #[test]
    fn lint_reports_reintroduced_violations_with_positions() {
        // Reintroduce a NaN-unaware comparison in a scratch workspace
        // and check the diagnostic carries the exact file:line:col back.
        let dir = std::env::temp_dir().join(format!("sbs_analysis_lint_{}", std::process::id()));
        std::fs::create_dir_all(dir.join("crates/x/src")).expect("mkdir");
        std::fs::write(dir.join(CONFIG_FILE), "[scan]\nroots = [\"crates\"]\n").expect("config");
        std::fs::write(
            dir.join("crates/x/src/lib.rs"),
            "pub fn cmp(a: f64, b: f64) -> bool {\n    a.partial_cmp(&b).is_some()\n}\n",
        )
        .expect("source");
        let cfg = LintConfig::load(&dir.join(CONFIG_FILE)).expect("config loads");
        let diags = lint_workspace(&dir, &cfg).expect("walk");
        std::fs::remove_dir_all(&dir).expect("cleanup");
        let rendered: Vec<String> = diags.iter().map(ToString::to_string).collect();
        assert_eq!(rendered.len(), 1, "{rendered:?}");
        assert!(
            rendered[0].starts_with("crates/x/src/lib.rs:2:7 float-ordering"),
            "{rendered:?}"
        );
    }
}
