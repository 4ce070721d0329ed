//! `sbs` — one front end for the simulator (`simulate`), the online
//! daemon (`serve`) and its clients (`submit`, `queue`, `incidents`,
//! `top`), the decision-log explorer (`trace`), the search perf matrix
//! (`bench-perf`), the paper's evaluation (`experiments`), and the
//! `policies`, `months` and `help` listings.  `sbs help` shows every
//! command and flag.  A usage error exits 2 and prints the failing
//! command's help block; a run error exits 1.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match sbs_cli::parse_args(&args) {
        Ok(cmd) => match cmd.run() {
            Ok(output) => print!("{output}"),
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        },
        Err(e) => {
            let usage = sbs_cli::usage(args.first().map(String::as_str));
            eprintln!("error: {e}\n\n{usage}");
            std::process::exit(2);
        }
    }
}
