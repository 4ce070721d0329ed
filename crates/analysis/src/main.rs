//! The `sbs-analysis` binary.
//!
//! ```text
//! sbs-analysis [--root DIR] [FILE...]
//! ```
//!
//! Without FILE arguments it lints every file `lint.toml` names; with
//! them, just those files (relative to the root).  Prints one
//! `file:line:col rule message` line per finding.  Exits 0 when clean,
//! 1 on any finding, 2 on usage or config errors.

use sbs_analysis::{
    find_workspace_root, lint_files, lint_workspace, parse_args, LintArgs, LintConfig, CONFIG_FILE,
};
use std::process::ExitCode;

const USAGE: &str = "usage: sbs-analysis [--root DIR] [FILE...]
  lints the workspace (or just FILEs) for float-ordering;
  DIR defaults to the nearest ancestor holding lint.toml
";

fn main() -> ExitCode {
    match run(std::env::args().skip(1).collect()) {
        Ok(0) => ExitCode::SUCCESS,
        Ok(n) => {
            eprintln!("sbs-analysis: {n} finding(s)");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("sbs-analysis: {e}");
            eprint!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Lints what `args` name and returns the number of findings printed.
fn run(args: Vec<String>) -> Result<usize, String> {
    let LintArgs { root, files } = parse_args(args)?;
    let root = match root {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
            find_workspace_root(&cwd)
                .ok_or_else(|| format!("no {CONFIG_FILE} found above {}", cwd.display()))?
        }
    };
    let cfg = LintConfig::load(&root.join(CONFIG_FILE))?;
    let diags = if files.is_empty() {
        lint_workspace(&root, &cfg)?
    } else {
        lint_files(&root, &files, &cfg)?
    };
    for d in &diags {
        println!("{d}");
    }
    Ok(diags.len())
}
