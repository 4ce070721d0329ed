//! The judged benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- run \
//!     [--workload W] [--seed S] [--seconds T] [--trace 0|1 | --traced] [--quick] [--repeat N]
//! ```
//!
//! With `--workload` the workload runs in this process (which is then
//! that workload's own process) and the last line of standard output is
//! the contract's result object.  Without it every workload runs in a
//! child process of its own, so peak memory is per workload.  See
//! `benchmark/README.md`.

mod env;
mod fleet_steady;
mod inputs;
mod openloop;
mod probes;
mod replay;
mod report;
mod serve_tcp;
mod spans;
mod stats;

use report::{Outcome, END_TO_END, RUN_SECONDS, WORKLOADS};
use serde_json::Value;
use std::process::ExitCode;
use std::time::Instant;

/// Full span records kept per traced pass; totals cover every span.
pub const SPAN_CAP: usize = 200_000;

/// Runs set-up several times and returns the last product with the
/// median wall time: at least three times, and on until a third of a
/// second has been spent (or 25 runs), so a set-up of milliseconds is
/// still reported steadily.
pub fn timed_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::new();
    loop {
        let t0 = Instant::now();
        let product = setup();
        times.push(t0.elapsed().as_secs_f64());
        let spent: f64 = times.iter().sum();
        if times.len() >= 3 && (spent >= 0.3 || times.len() >= 25) {
            return (product, stats::median(&times));
        }
        drop(product);
    }
}

/// Writes the traced pass's spans to `benchmark/out/trace-<workload>.jsonl`
/// and loads the file back as a check.
pub fn write_trace(workload: &str, tracer: &spans::Tracer, out: &mut Outcome) {
    let path = env::out_dir().join(format!("trace-{workload}.jsonl"));
    let written = tracer.write_jsonl(&path).map_err(|e| e.to_string());
    match written.and_then(|n| spans::load_and_check(&path).map(|m| (n, m))) {
        Ok((n, m)) if n == m => {
            out.set("trace.spans", tracer.records().len() as f64);
            out.notes
                .push(format!("{n} trace lines in {}", path.display()));
        }
        Ok((n, m)) => out.error(format!("trace file: wrote {n} lines, loaded {m}")),
        Err(e) => out.error(format!("trace file: {e}")),
    }
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    quick: bool,
    repeat: usize,
}

fn usage() -> String {
    "usage: sbs-benchmark run [--workload W] [--seed S] [--seconds T] [--trace 0|1] [--traced] [--quick] [--repeat N]\n       sbs-benchmark manifest | pin".into()
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 42,
        seconds: RUN_SECONDS as f64,
        traced: false,
        quick: false,
        repeat: 1,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.iter().any(|(n, _)| n == w) {
                    return Err(format!("unknown workload {w:?}"));
                }
                a.workload = Some(w.clone());
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                a.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--traced" => a.traced = true,
            "--quick" => a.quick = true,
            "--repeat" => {
                a.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if a.repeat == 0 {
                    return Err("--repeat must be at least 1".into());
                }
            }
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    Ok(a)
}

impl Args {
    /// The common factor every pinned count is multiplied by: counts
    /// are sized for `RUN_SECONDS`, `--seconds` scales them linearly,
    /// `--quick` divides them by twenty.
    fn scale(&self) -> f64 {
        let s = self.seconds / RUN_SECONDS as f64;
        if self.quick {
            s / 20.0
        } else {
            s
        }
    }
}

/// Runs one workload in this process and prints its report and result
/// line.
fn run_here(workload: &str, args: &Args, spec: &Value, profile: &str) -> ExitCode {
    let generators = env::pinned_u64(spec, workload, "generators") as usize;
    let connections = spec[workload]["connections"]["value"].as_u64().unwrap_or(0) as usize;
    if let Err(e) = env::check_generators(generators.max(connections)) {
        eprintln!("sbs-benchmark: {e}");
        return ExitCode::from(2);
    }
    println!(
        "workload {workload}  seed {}  scale {}  traced {}  generators {generators}  nproc {}",
        args.seed,
        args.scale(),
        args.traced,
        env::nproc()
    );
    println!(
        "rustc {}  profile.release [{profile}]  revision {}",
        env::rustc_version(),
        env::git_revision()
    );
    let scale = args.scale();
    let out = match workload {
        "replay-search" => replay::run(replay::Kind::Search, spec, args.seed, scale, args.traced),
        "replay-backfill" => {
            replay::run(replay::Kind::Backfill, spec, args.seed, scale, args.traced)
        }
        "fleet-steady" => fleet_steady::run(spec, args.seed, scale, args.traced),
        "serve-tcp" => serve_tcp::run(spec, args.seed, scale, args.traced),
        _ => unreachable!("validated by parse"),
    };
    print!("{}", out.render(args.traced));
    match out.result_line(args.traced) {
        Ok(line) => {
            println!("{line}");
            if out.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("sbs-benchmark: {e}");
            ExitCode::from(1)
        }
    }
}

/// Runs `workload` in a child process of its own and returns its parsed
/// result line (echoing its report unless `quiet`).
fn run_child(workload: &str, seed: u64, args: &Args, quiet: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["run", "--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.traced { "1" } else { "0" }]);
    if args.quick {
        cmd.arg("--quick");
    }
    let output = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning {workload}: {e}"))?;
    let text = String::from_utf8_lossy(&output.stdout);
    if !quiet {
        print!("{text}");
    }
    let last = text.lines().last().unwrap_or_default();
    let v: Value = serde_json::from_str(last)
        .map_err(|e| format!("{workload}: no result line ({e}); exit {}", output.status))?;
    if !output.status.success() || v["correct"] != true {
        return Err(format!(
            "{workload} seed {seed}: wrong answer or failed run ({})",
            output.status
        ));
    }
    Ok(v)
}

/// Runs every selected workload `repeat` times, each in its own child
/// process and each repeat with the next seed, then prints min, median,
/// max and quartile distance per end-to-end metric and flags any whose
/// spread exceeds its bound.
fn run_children(args: &Args) -> ExitCode {
    let selected: Vec<&str> = WORKLOADS
        .iter()
        .map(|(n, _)| *n)
        .filter(|n| args.workload.as_deref().is_none_or(|w| w == *n))
        .collect();
    let mut ok = true;
    for workload in selected {
        let mut runs = Vec::new();
        for r in 0..args.repeat {
            let seed = args.seed + r as u64;
            match run_child(workload, seed, args, args.repeat > 1) {
                Ok(v) => {
                    if args.repeat > 1 {
                        println!("{workload} seed {seed}: ok");
                    }
                    runs.push(v);
                }
                Err(e) => {
                    eprintln!("sbs-benchmark: {e}");
                    ok = false;
                }
            }
        }
        if args.repeat > 1 && runs.len() >= 2 && !args.traced {
            println!("{workload}: {} runs, seeds {}..", runs.len(), args.seed);
            println!(
                "  {:<14} {:>14} {:>14} {:>14} {:>9} {:>7}",
                "metric", "min", "median", "max", "spread", "bound"
            );
            for m in END_TO_END {
                let values: Vec<f64> = runs
                    .iter()
                    .filter_map(|v| v["metrics"][m.name]["value"].as_f64())
                    .collect();
                let (_, med, _) = stats::quartiles(&values);
                let spread = stats::spread(&values);
                let bound = m.bound.unwrap_or(0.0);
                // setup_s is judged on its median only.
                let flag = if spread > bound && m.name != "setup_s" {
                    ok = false;
                    "  EXCEEDS BOUND"
                } else if spread > bound / 3.0 {
                    "  (above a third of the bound)"
                } else {
                    ""
                };
                println!(
                    "  {:<14} {:>14.4} {:>14.4} {:>14.4} {:>9.4} {:>7.2}{flag}",
                    m.name,
                    values.iter().copied().fold(f64::INFINITY, f64::min),
                    med,
                    values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                    spread,
                    bound
                );
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let fail = |e: String| {
        eprintln!("sbs-benchmark: {e}");
        ExitCode::from(2)
    };
    match argv.first().map(String::as_str) {
        Some("manifest") => {
            match serde_json::to_string_pretty(&report::manifest()) {
                Ok(text) => println!("{text}"),
                Err(e) => return fail(e.to_string()),
            }
            ExitCode::SUCCESS
        }
        Some("pin") => match env::load_spec() {
            Ok(spec) => {
                println!(
                    "replay-search oracle.expect: {}",
                    replay::canary_values(replay::Kind::Search, &spec)
                );
                println!(
                    "replay-backfill oracle.expect: {}",
                    replay::canary_values(replay::Kind::Backfill, &spec)
                );
                println!(
                    "fleet-steady oracle.expect: {}",
                    fleet_steady::canary_value(&spec)
                );
                println!(
                    "serve-tcp oracle.expect: {}",
                    serve_tcp::canary_value(&spec)
                );
                ExitCode::SUCCESS
            }
            Err(e) => fail(e),
        },
        Some("run") => {
            let args = match parse(&argv[1..]) {
                Ok(a) => a,
                Err(e) => return fail(e),
            };
            let profile = match env::check_release_profile() {
                Ok(p) => p,
                Err(e) => return fail(e),
            };
            let spec = match env::load_spec() {
                Ok(s) => s,
                Err(e) => return fail(e),
            };
            match (&args.workload, args.repeat) {
                (Some(w), 1) => run_here(w, &args, &spec, &profile),
                _ => run_children(&args),
            }
        }
        _ => fail(usage()),
    }
}
