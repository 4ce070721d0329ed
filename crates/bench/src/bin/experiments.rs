//! Regenerates the paper's tables and figures.
//!
//! ```text
//! experiments <id>... [--quick] [--scale F] [--budget-scale F]
//!             [--months 6/03,7/03] [--out DIR]
//! experiments all [flags]
//! experiments list
//! ```
//!
//! * `--quick` — 6% span scale, budgets at 1/4: smoke-tests the whole
//!   suite in a couple of minutes.
//! * `--scale F` — custom span scale (1.0 = the paper's full months).
//! * `--out DIR` — also write `<id>.txt` and `<id>.json` per experiment.

use sbs_bench::opts::Opts;
use sbs_bench::{run_experiment, ALL_EXPERIMENTS};
use sbs_workload::system::Month;
use std::io::Write;

fn usage() -> ! {
    eprintln!(
        "usage: experiments <id>...|all|list [--quick] [--scale F] \
         [--budget-scale F] [--months M,M,...] [--out DIR]\n\
         ids: {}",
        ALL_EXPERIMENTS.join(", ")
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let mut ids: Vec<String> = Vec::new();
    let mut opts = Opts::default();
    let mut out_dir: Option<std::path::PathBuf> = None;

    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        let mut take_value = || {
            i += 1;
            args.get(i).cloned().unwrap_or_else(|| usage())
        };
        match arg.as_str() {
            "--quick" => {
                let months = opts.months.clone();
                opts = Opts::quick();
                opts.months = months;
            }
            "--scale" => opts.scale = take_value().parse().unwrap_or_else(|_| usage()),
            "--budget-scale" => {
                opts.budget_scale = take_value().parse().unwrap_or_else(|_| usage())
            }
            "--months" => {
                opts.months = take_value()
                    .split(',')
                    .map(|m| Month::parse(m).unwrap_or_else(|| usage()))
                    .collect();
            }
            "--out" => out_dir = Some(std::path::PathBuf::from(take_value())),
            "list" => {
                for id in ALL_EXPERIMENTS {
                    println!("{id}");
                }
                return;
            }
            "all" => ids.extend(ALL_EXPERIMENTS.iter().map(|s| s.to_string())),
            _ if arg.starts_with('-') => usage(),
            _ => ids.push(arg.clone()),
        }
        i += 1;
    }
    if ids.is_empty() {
        usage();
    }
    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir).expect("create output directory");
    }

    for id in &ids {
        #[expect(
            clippy::disallowed_methods,
            reason = "the harness reports how long each experiment took; nothing reads it back"
        )]
        let started = std::time::Instant::now();
        let Some(report) = run_experiment(id, &opts) else {
            eprintln!("unknown experiment: {id}");
            std::process::exit(2);
        };
        let elapsed = started.elapsed();
        println!("{}", report.render());
        println!(
            "[{} completed in {:.1}s at scale {}]\n",
            id,
            elapsed.as_secs_f64(),
            opts.scale
        );
        if let Some(dir) = &out_dir {
            let mut txt =
                std::fs::File::create(dir.join(format!("{id}.txt"))).expect("create txt output");
            txt.write_all(report.render().as_bytes())
                .expect("write txt");
            let json = serde_json::to_string_pretty(&report.data).expect("serialize");
            std::fs::write(dir.join(format!("{id}.json")), json).expect("write json");
        }
    }
}
