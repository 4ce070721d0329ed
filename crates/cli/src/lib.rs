#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Implementation of the `sbs` command-line tool (kept in a library so
//! the argument parser and runner are unit-testable).
//!
//! Every command is one row of `COMMANDS` and every flag one constant in
//! `flags`, declared once: `sbs help`, the usage block printed after an
//! error, the flag errors, validation and dispatch all read them.

use flags::*;
use sbs_backfill::PriorityOrder;
use sbs_bench::{experiment, opts::Opts, EXPERIMENTS};
use sbs_core::{Branching, PolicySpec, SearchAlgo, TargetBound};
use sbs_metrics::table::{num, Table};
use sbs_metrics::timeline::utilization_panel;
use sbs_metrics::{percentile_wait, ExcessStats, WaitStats};
use sbs_sim::engine::{simulate, SimConfig};
use sbs_sim::JobRecord;
use sbs_workload::generator::{Workload, WorkloadBuilder};
use sbs_workload::job::RuntimeKnowledge;
use sbs_workload::swf;
use sbs_workload::system::Month;
use sbs_workload::time::{to_hours, DAY};
use std::collections::BTreeMap;
use std::str::FromStr;

/// What a flag's value must be.  `Int` and `Real` carry an interval such
/// as `[1, 65535]` or `(0, inf)`: the parser checks values against it and
/// the out-of-range error quotes it.  `Months` is a comma-separated list.
#[derive(Debug)]
enum Kind {
    Switch,
    Text,
    Int(&'static str),
    Real(&'static str),
    Choice(&'static [&'static str]),
    Policy,
    Month,
    Months,
}

/// One flag, declared once and listed by every command that takes it.
#[derive(Debug)]
struct Flag {
    name: &'static str,
    /// The value's placeholder in the help; empty for a switch.
    meta: &'static str,
    kind: Kind,
    /// The value an absent flag takes, if any.
    default: Option<&'static str>,
    help: &'static str,
}

/// Every flag of every command.
#[rustfmt::skip]
mod flags {
    use super::{Flag, Kind::*, HEADLINE};
    const U32: &str = "[0, 4294967295]";
    const U64: &str = "[0, inf)";

    pub const MONTH: Flag = Flag { name: "--month", meta: "M", kind: Month, default: None, help: "synthetic month (6/03 .. 3/04)" };
    pub const TRACE: Flag = Flag { name: "--trace", meta: "FILE", kind: Text, default: None, help: "replay a Standard Workload Format trace instead of a month" };
    pub const CAPACITY: Flag = Flag { name: "--capacity", meta: "N", kind: Int("[1, 4294967295]"), default: Some("128"), help: "machine size in nodes: each served cluster's, or a replayed trace's (else its MaxNodes/MaxProcs header)" };
    pub const POLICY: Flag = Flag { name: "--policy", meta: "NAME", kind: Policy, default: Some(HEADLINE), help: "scheduling policy, one of `sbs policies`" };
    pub const BUDGET: Flag = Flag { name: "--budget", meta: "L", kind: Int(U64), default: Some("1000"), help: "search node budget per decision" };
    pub const LOAD: Flag = Flag { name: "--load", meta: "RHO", kind: Real("(0, 1.5)"), default: None, help: "shrink inter-arrivals to offered load RHO" };
    pub const SCALE: Flag = Flag { name: "--scale", meta: "F", kind: Real("(0, 1]"), default: None, help: "simulate this fraction of each month's span (default: all of it; 0.06 in quick mode)" };
    pub const KNOWLEDGE: Flag = Flag { name: "--knowledge", meta: "K", kind: Choice(&["actual", "requested"]), default: None, help: "the R* source (default: actual for a month, requested for a trace)" };
    pub const SEED: Flag = Flag { name: "--seed", meta: "N", kind: Int(U64), default: None, help: "workload RNG seed" };
    pub const TIMELINE: Flag = Flag { name: "--timeline", meta: "", kind: Switch, default: None, help: "print an ASCII utilization timeline" };
    pub const JSON: Flag = Flag { name: "--json", meta: "", kind: Switch, default: None, help: "machine-readable JSON instead of tables" };
    pub const TRACE_LOG: Flag = Flag { name: "--trace-log", meta: "FILE", kind: Text, default: None, help: "write an sbs-trace/v1 JSONL decision log (identical runs produce byte-identical files)" };

    pub const PORT: Flag = Flag { name: "--port", meta: "P", kind: Int("[0, 65535]"), default: Some("7070"), help: "the daemon's TCP port (serving on 0 picks a free one)" };
    pub const DEADLINE_MS: Flag = Flag { name: "--deadline-ms", meta: "D", kind: Int(U64), default: None, help: "per-decision wall-clock search deadline" };
    pub const SNAPSHOT_DIR: Flag = Flag { name: "--snapshot-dir", meta: "DIR", kind: Text, default: None, help: "one snapshot per cluster (recovers every cluster there on start)" };
    pub const SNAPSHOT_EVERY: Flag = Flag { name: "--snapshot-every", meta: "N", kind: Int(U64), default: Some("16"), help: "auto-snapshot every N decisions" };
    pub const VIRTUAL_CLOCK: Flag = Flag { name: "--virtual-clock", meta: "", kind: Switch, default: None, help: "time advances only with submitted events (testing)" };
    pub const TRACE_DIR: Flag = Flag { name: "--trace-dir", meta: "DIR", kind: Text, default: None, help: "append one sbs-trace/v1 JSONL decision log per cluster, DIR/trace-<cluster>.jsonl" };
    pub const EVENT_LOG: Flag = Flag { name: "--event-log", meta: "FILE", kind: Text, default: None, help: "append an sbs-events/v1 JSONL operational journal" };
    pub const SLOW_MS: Flag = Flag { name: "--slow-ms", meta: "D", kind: Int(U64), default: None, help: "capture decisions at/over D ms wall time as incidents (also exposed at /statusz?incidents=1)" };
    pub const SLOW_NODES_LEFT: Flag = Flag { name: "--slow-nodes-left", meta: "N", kind: Int(U64), default: None, help: "capture deadline-truncated decisions that left N+ nodes unexplored" };
    pub const MAX_CLUSTERS: Flag = Flag { name: "--max-clusters", meta: "N", kind: Int(U32), default: Some("4096"), help: "tenant cap" };
    pub const MAX_QUEUE: Flag = Flag { name: "--max-queue", meta: "N", kind: Int(U32), default: Some("0"), help: "per-tenant queue-depth quota, 0 = unlimited" };
    pub const FAIR_SLACK: Flag = Flag { name: "--fair-slack", meta: "PCT", kind: Int(U64), default: Some("0"), help: "per-tenant fairshare slack percent, 0 = off" };

    pub const COLLAPSED: Flag = Flag { name: "--collapsed", meta: "OUT", kind: Text, default: None, help: "also write a collapsed-stack span-weight file (flamegraph.pl / speedscope input)" };
    pub const LAST: Flag = Flag { name: "--last", meta: "N", kind: Int(U32), default: None, help: "aggregate only the final N decisions" };
    pub const SINCE: Flag = Flag { name: "--since", meta: "DECISION", kind: Int(U64), default: None, help: "aggregate only decisions with seq >= DECISION" };

    pub const QUICK: Flag = Flag { name: "--quick", meta: "", kind: Switch, default: None, help: "smoke mode: bench-perf drops the 100K budget and times each cell once; experiments run 6% spans at 1/4 budgets" };
    pub const REPEATS: Flag = Flag { name: "--repeats", meta: "N", kind: Int("[1, 4294967295]"), default: None, help: "timed repeats per cell, fastest wins (default 3; 1 in quick mode)" };
    pub const OUT: Flag = Flag { name: "--out", meta: "PATH", kind: Text, default: None, help: "bench-perf: where to write the JSON document (default BENCH_search.json; \"-\" skips the file); experiments: also write <id>.txt and <id>.json into this directory" };
    pub const CHECK: Flag = Flag { name: "--check", meta: "BASELINE", kind: Text, default: None, help: "compare against a baseline document: fail if any cell's search outcome (nodes, leaves, best cost, ...) differs, or its nodes/sec regressed beyond the tolerance; BASELINE may not be the output file" };
    pub const TOLERANCE: Flag = Flag { name: "--tolerance", meta: "F", kind: Real("[0, 1)"), default: Some("0.5"), help: "allowed fractional nodes/sec slowdown for the baseline check (generous: CI machines vary)" };
    pub const BUDGET_SCALE: Flag = Flag { name: "--budget-scale", meta: "F", kind: Real("(0, inf)"), default: None, help: "scale the paper's node budgets by F (default 1; 0.25 in quick mode; at least 50 nodes)" };
    pub const MONTHS: Flag = Flag { name: "--months", meta: "M,...", kind: Months, default: None, help: "the study months to run (default: all ten)" };

    pub const HOST: Flag = Flag { name: "--host", meta: "H", kind: Text, default: Some("127.0.0.1"), help: "daemon host" };
    pub const CLUSTER: Flag = Flag { name: "--cluster", meta: "C", kind: Text, default: None, help: "restrict to one cluster" };
    pub const INTERVAL: Flag = Flag { name: "--interval", meta: "MS", kind: Int("[1, inf)"), default: Some("2000"), help: "milliseconds between polls" };
    pub const ITERATIONS: Flag = Flag { name: "--iterations", meta: "N", kind: Int(U64), default: Some("0"), help: "stop after N polls, 0 = until interrupted; 1 prints a single frame to stdout" };
    pub const NODES: Flag = Flag { name: "--nodes", meta: "N", kind: Int(U32), default: None, help: "node count (required)" };
    pub const RUNTIME: Flag = Flag { name: "--runtime", meta: "S", kind: Int(U64), default: None, help: "runtime in seconds (required)" };
    pub const REQUESTED: Flag = Flag { name: "--requested", meta: "S", kind: Int(U64), default: None, help: "requested runtime (default: the runtime)" };
    pub const USER: Flag = Flag { name: "--user", meta: "U", kind: Int(U32), default: Some("0"), help: "submitting user id" };
    pub const AT: Flag = Flag { name: "--at", meta: "T", kind: Int(U64), default: None, help: "explicit submit time (virtual clock only)" };
}

const SERVE: &str = "run the online scheduler daemon.  Requests may name a \"cluster\" \
    (tenant); without one they go to the tenant \"default\", so a single-cluster client never \
    names one.  The daemon speaks newline-delimited JSON on its port and answers plain HTTP \
    `GET /metrics`, `GET /healthz` and `GET /statusz` probes on the same port \
    (`/statusz?incidents=1` inlines the captured incidents; `/metrics?cluster=ID` is one \
    cluster's own exposition).";

/// One command: its help, the flags it takes and what runs it.
#[derive(Debug)]
struct Cmd {
    name: &'static str,
    aliases: &'static [&'static str],
    /// The arguments that are not flags, as the help shows them; empty
    /// when the command takes none.
    operands: &'static str,
    /// What the command does, first in its help block.
    summary: &'static str,
    flags: &'static [&'static Flag],
    /// What no single flag can check: required flags, exclusive flags,
    /// operands.
    check: fn(&Args) -> Result<(), String>,
    run: fn(&Args) -> Result<String, String>,
}

const NONE: Cmd = Cmd {
    name: "",
    aliases: &[],
    operands: "",
    summary: "",
    flags: &[],
    check: |_| Ok(()),
    run: |_| Ok(String::new()),
};

/// Every command, in help order.
#[rustfmt::skip]
static COMMANDS: [Cmd; 12] = [
    Cmd { name: "simulate", aliases: &["sim"], summary: "simulate a synthetic month or an SWF trace and report",
          flags: &[&MONTH, &TRACE, &CAPACITY, &POLICY, &BUDGET, &LOAD, &SCALE, &KNOWLEDGE, &SEED, &TIMELINE, &JSON, &TRACE_LOG],
          check: check_simulate, run: simulate_cmd, ..NONE },
    Cmd { name: "serve", summary: SERVE,
          flags: &[&PORT, &CAPACITY, &POLICY, &BUDGET, &DEADLINE_MS, &SNAPSHOT_DIR, &SNAPSHOT_EVERY, &VIRTUAL_CLOCK,
                   &TRACE_DIR, &EVENT_LOG, &SLOW_MS, &SLOW_NODES_LEFT, &MAX_CLUSTERS, &MAX_QUEUE, &FAIR_SLACK],
          run: serve_cmd, ..NONE },
    Cmd { name: "submit", summary: "submit a job to a running daemon",
          flags: &[&HOST, &PORT, &NODES, &RUNTIME, &REQUESTED, &USER, &AT], check: check_submit, run: submit_cmd, ..NONE },
    Cmd { name: "queue", summary: "show a running daemon's queue", flags: &[&HOST, &PORT],
          run: |a| client_round_trip(a, r#"{"op":"queue"}"#), ..NONE },
    Cmd { name: "incidents", summary: "list a running daemon's captured slow-decision incidents",
          flags: &[&HOST, &PORT, &CLUSTER], run: incidents_cmd, ..NONE },
    Cmd { name: "top", summary: "poll /statusz into a terminal dashboard", flags: &[&HOST, &PORT, &INTERVAL, &ITERATIONS],
          run: top_cmd, ..NONE },
    Cmd { name: "trace", operands: "FILE", summary: "explore an sbs-trace/v1 JSONL decision log",
          flags: &[&COLLAPSED, &JSON, &LAST, &SINCE], check: check_trace, run: trace_cmd, ..NONE },
    Cmd { name: "bench-perf", summary: "run the search hot-path perf matrix", flags: &[&QUICK, &REPEATS, &OUT, &CHECK, &TOLERANCE],
          check: check_bench_perf, run: bench_perf_cmd, ..NONE },
    Cmd { name: "experiments", operands: "ID...|all|list", summary: "regenerate the paper's tables and figures",
          flags: &[&QUICK, &SCALE, &BUDGET_SCALE, &MONTHS, &OUT], check: check_experiments, run: experiments_cmd, ..NONE },
    Cmd { name: "policies", summary: "list available policy names", run: policies_cmd, ..NONE },
    Cmd { name: "months", summary: "list the study months", run: months_cmd, ..NONE },
    Cmd { name: "help", aliases: &["--help", "-h"], summary: "this text", run: |_| Ok(usage(None)), ..NONE },
];

impl Flag {
    /// Checks one value against the flag's kind and range.
    fn check(&self, v: &str) -> Result<(), String> {
        let name = self.name;
        let within = |x: Option<f64>, range: &str| match x {
            None => Err(format!("bad {name}")),
            Some(x) if in_interval(x, range) => Ok(()),
            Some(_) => Err(format!("{name} must be in {range}")),
        };
        match self.kind {
            Kind::Switch | Kind::Text => Ok(()),
            Kind::Int(range) => within(v.parse::<u64>().ok().map(|x| x as f64), range),
            Kind::Real(range) => within(v.parse().ok(), range),
            Kind::Choice(words) if words.contains(&v) => Ok(()),
            Kind::Choice(words) => Err(format!("{name} must be one of {}", words.join(", "))),
            Kind::Policy => policy_by_name(v, 0)
                .map(drop)
                .ok_or_else(|| format!("unknown policy {v:?} (try `sbs policies`)")),
            Kind::Month => month(v).map(drop),
            Kind::Months => v.split(',').try_for_each(|m| month(m).map(drop)),
        }
    }
}

/// Whether `x` lies in `range`, an interval such as `[0, 1)` or `(0, inf)`.
fn in_interval(x: f64, range: &str) -> bool {
    let inner = range.get(1..range.len() - 1).expect("a declared interval");
    let (lo, hi) = inner.split_once(", ").expect("a declared interval");
    let bound = |b: &str| b.parse::<f64>().expect("a declared interval bound");
    let (lo, hi) = (bound(lo), bound(hi));
    (x > lo || (x == lo && range.starts_with('['))) && (x < hi || (x == hi && range.ends_with(']')))
}

fn month(v: &str) -> Result<Month, String> {
    Month::parse(v).ok_or_else(|| format!("unknown month {v:?}"))
}

/// A command line parsed against its row of `COMMANDS`.
#[derive(Debug)]
pub struct Args {
    cmd: &'static Cmd,
    /// Every given flag's checked value (`""` for a switch).
    values: BTreeMap<&'static str, String>,
    /// The arguments that are not flags, in order.
    operands: Vec<String>,
}

impl Args {
    /// Runs the command, returning its stdout text.
    pub fn run(&self) -> Result<String, String> {
        (self.cmd.run)(self)
    }

    /// The flag's value, when given or defaulted.
    fn text(&self, f: &Flag) -> Option<&str> {
        self.values.get(f.name).map(String::as_str).or(f.default)
    }

    /// True when the flag was given.
    fn on(&self, f: &Flag) -> bool {
        self.values.contains_key(f.name)
    }

    /// A numeric flag's value, when given or defaulted.
    fn get<T: FromStr>(&self, f: &Flag) -> Option<T> {
        let v = self.text(f)?;
        Some(
            v.parse()
                .unwrap_or_else(|_| unreachable!("{} is checked", f.name)),
        )
    }

    /// A numeric flag's value, which its default makes always present.
    fn num<T: FromStr>(&self, f: &Flag) -> T {
        self.get(f).expect("the flag has a default")
    }
}

/// Parses a command line (program name excluded); no arguments is `help`.
pub fn parse_args(args: &[String]) -> Result<Args, String> {
    let (name, rest) = match args.split_first() {
        Some((name, rest)) => (name.as_str(), rest),
        None => ("help", &[][..]),
    };
    let cmd = command(name).ok_or_else(|| format!("unknown command {name:?}"))?;
    let mut parsed = Args {
        cmd,
        values: BTreeMap::new(),
        operands: Vec::new(),
    };
    let mut rest = rest.iter();
    while let Some(arg) = rest.next() {
        if !cmd.operands.is_empty() && !arg.starts_with('-') {
            parsed.operands.push(arg.clone());
            continue;
        }
        let Some(f) = cmd.flags.iter().find(|f| f.name == arg) else {
            return Err(format!("unknown flag {arg:?}"));
        };
        let value = match f.kind {
            Kind::Switch => String::new(),
            _ => {
                let v = rest
                    .next()
                    .ok_or_else(|| format!("{} needs a value", f.name))?;
                f.check(v)?;
                v.clone()
            }
        };
        parsed.values.insert(f.name, value);
    }
    (cmd.check)(&parsed)?;
    Ok(parsed)
}

fn command(name: &str) -> Option<&'static Cmd> {
    COMMANDS
        .iter()
        .find(|c| c.name == name || c.aliases.contains(&name))
}

/// The usage printed after an error in `name`'s command line: that
/// command's help block.  With no or an unknown command it is `sbs
/// help`, every command's block.
pub fn usage(name: Option<&str>) -> String {
    match name.and_then(command) {
        Some(cmd) => cmd.help(),
        None => COMMANDS.iter().fold(
            "sbs — search-based job scheduling simulator\n".to_string(),
            |out, c| out + "\n" + &c.help(),
        ),
    }
}

impl Cmd {
    /// The command's help block: synopsis and summary, then one entry
    /// per flag.
    fn help(&self) -> String {
        let mut out = format!("sbs {} {}", self.name, self.operands)
            .trim_end()
            .to_string();
        for alias in self.aliases {
            out.push_str(&format!(" | sbs {alias}"));
        }
        out.push('\n');
        wrap(&mut out, "  ", self.summary);
        for f in self.flags {
            let choices = match f.kind {
                Kind::Choice(words) => format!("{}: ", words.join(" | ")),
                _ => String::new(),
            };
            let default = f
                .default
                .map_or(String::new(), |d| format!(" (default {d})"));
            let lead = format!("  {} {}", f.name, f.meta);
            wrap(
                &mut out,
                &format!("{lead:<22}"),
                &format!("{choices}{}{default}", f.help),
            );
        }
        out
    }
}

/// Appends `text` word-wrapped to 78 columns, its first line after
/// `lead` and the rest indented as far.
fn wrap(out: &mut String, lead: &str, text: &str) {
    let mut line = lead.to_string();
    for word in text.split_whitespace() {
        if line.len() + word.len() >= 78 {
            out.push_str(line.trim_end());
            out.push('\n');
            line = " ".repeat(lead.len());
        }
        line.push_str(word);
        line.push(' ');
    }
    out.push_str(line.trim_end());
    out.push('\n');
}

fn check_simulate(a: &Args) -> Result<(), String> {
    match (a.on(&MONTH), a.on(&TRACE)) {
        (false, false) => Err(format!("simulate needs {} or {}", MONTH.name, TRACE.name)),
        (true, true) => Err(format!(
            "{} and {} are mutually exclusive",
            MONTH.name, TRACE.name
        )),
        _ => Ok(()),
    }
}

fn check_submit(a: &Args) -> Result<(), String> {
    match [&NODES, &RUNTIME].into_iter().find(|f| !a.on(f)) {
        Some(f) => Err(format!("submit needs {}", f.name)),
        None => Ok(()),
    }
}

fn check_trace(a: &Args) -> Result<(), String> {
    match a.operands.len() {
        0 => Err("trace needs a FILE argument".to_string()),
        1 => Ok(()),
        _ => Err("trace takes exactly one FILE".to_string()),
    }
}

/// The file bench-perf writes when no other output is named.
const BENCH_FILE: &str = "BENCH_search.json";

fn check_bench_perf(a: &Args) -> Result<(), String> {
    let out = a.text(&OUT).unwrap_or(BENCH_FILE);
    match a.text(&CHECK) {
        Some(check) if same_path(check, out) => Err(format!(
            "{} {check} is also the {} file: the run would overwrite its baseline before \
             comparing (pass {} - or another path)",
            CHECK.name, OUT.name, OUT.name
        )),
        _ => Ok(()),
    }
}

fn check_experiments(a: &Args) -> Result<(), String> {
    let known = |id: &&String| matches!(id.as_str(), "all" | "list") || experiment(id).is_some();
    match a.operands.iter().find(|id| !known(id)) {
        Some(id) => Err(format!(
            "unknown experiment {id:?} (try `sbs experiments list`)"
        )),
        None if a.operands.is_empty() => Err("experiments needs an id, all or list".to_string()),
        None => Ok(()),
    }
}

/// The headline policy, and the default of [`POLICY`].
const HEADLINE: &str = "dds-lxf-dynb";

/// Builds a policy's spec for a node budget.
type Build = fn(u64) -> PolicySpec;

/// Every policy `sbs` accepts: `(name, description, spec)`.
#[rustfmt::skip]
const POLICIES: [(&str, &str, Build); 11] = [
    ("fcfs-bf", "FCFS-backfill (1 reservation) — the max-wait envelope", |_| PolicySpec::FcfsBackfill),
    ("lxf-bf", "LXF-backfill — the average-slowdown envelope", |_| PolicySpec::LxfBackfill),
    ("sjf-bf", "SJF-backfill (starves long jobs; for comparison)", |_| PolicySpec::SjfBackfill),
    ("lxfw-bf", "LXF&W-backfill (small wait weight)", |_| PolicySpec::LxfwBackfill),
    ("selective-bf", "Selective backfill (starvation-threshold reservations)", |_| PolicySpec::SelectiveBackfill),
    ("conservative-bf", "Conservative backfill (reservations for all)",
        |_| PolicySpec::BackfillWithReservations { order: PriorityOrder::Fcfs, reservations: usize::MAX }),
    (HEADLINE, "the paper's headline search policy", |l| PolicySpec::search_dynb(SearchAlgo::Dds, Branching::Lxf, l)),
    ("dds-fcfs-dynb", "DDS with fcfs branching", |l| PolicySpec::search_dynb(SearchAlgo::Dds, Branching::Fcfs, l)),
    ("lds-lxf-dynb", "LDS with lxf branching", |l| PolicySpec::search_dynb(SearchAlgo::Lds, Branching::Lxf, l)),
    ("lds-fcfs-dynb", "LDS with fcfs branching", |l| PolicySpec::search_dynb(SearchAlgo::Lds, Branching::Fcfs, l)),
    ("dds-lxf-dynb-hc", "DDS + hill-climbing hybrid (30% local budget)", |l| PolicySpec::HybridSearch {
        algo: SearchAlgo::Dds, branching: Branching::Lxf, bound: TargetBound::Dynamic, node_limit: l, local_frac: 0.3,
    }),
];

/// Resolves a policy name to a buildable spec.
pub fn policy_by_name(name: &str, budget: u64) -> Option<PolicySpec> {
    let (_, _, spec) = POLICIES.iter().find(|(n, ..)| *n == name)?;
    Some(spec(budget))
}

/// The spec the [`POLICY`] and [`BUDGET`] flags name (checked by the parser).
fn spec(a: &Args) -> PolicySpec {
    let name = a.text(&POLICY).expect("the flag has a default");
    policy_by_name(name, a.num(&BUDGET)).expect("checked by the parser")
}

/// Whether two command-line paths name the same file, up to `.`
/// components (`./BENCH_search.json` is `BENCH_search.json`).
fn same_path(a: &str, b: &str) -> bool {
    use std::path::{Component, Path};
    fn parts(p: &str) -> impl Iterator<Item = Component<'_>> {
        Path::new(p)
            .components()
            .filter(|c| *c != Component::CurDir)
    }
    parts(a).eq(parts(b))
}

fn policies_cmd(_: &Args) -> Result<String, String> {
    let mut t = Table::new(["name", "description"]);
    for (name, desc, _) in POLICIES {
        t.row([name, desc]);
    }
    Ok(t.render())
}

fn months_cmd(_: &Args) -> Result<String, String> {
    let mut t = Table::new(["month", "jobs", "load", "runtime limit"]);
    for m in Month::ALL {
        let p = sbs_workload::MonthProfile::of(m);
        t.row([
            m.label().to_string(),
            p.total_jobs.to_string(),
            format!("{:.0}%", p.load * 100.0),
            format!("{}h", m.runtime_limit() / 3_600),
        ]);
    }
    Ok(t.render())
}

fn submit_cmd(a: &Args) -> Result<String, String> {
    let nodes: u32 = a.get(&NODES).expect("checked: required");
    let runtime: u64 = a.get(&RUNTIME).expect("checked: required");
    let mut req = format!(r#"{{"op":"submit","nodes":{nodes},"runtime":{runtime}"#);
    if let Some(r) = a.get::<u64>(&REQUESTED) {
        req.push_str(&format!(r#","requested":{r}"#));
    }
    let user: u32 = a.num(&USER);
    if user != 0 {
        req.push_str(&format!(r#","user":{user}"#));
    }
    if let Some(t) = a.get::<u64>(&AT) {
        req.push_str(&format!(r#","submit":{t}"#));
    }
    req.push('}');
    client_round_trip(a, &req)
}

fn incidents_cmd(a: &Args) -> Result<String, String> {
    let req = match a.text(&CLUSTER) {
        Some(c) => format!(
            r#"{{"op":"incidents","cluster":{}}}"#,
            serde_json::Value::from(c)
        ),
        None => r#"{"op":"incidents"}"#.to_string(),
    };
    client_round_trip(a, &req)
}

/// The experiment options the flags ask for: [`QUICK`] picks the base,
/// and the other flags override it wherever they stand.
fn experiment_opts(a: &Args) -> Opts {
    let mut opts = if a.on(&QUICK) {
        Opts::quick()
    } else {
        Opts::default()
    };
    opts.scale = a.get(&SCALE).unwrap_or(opts.scale);
    opts.budget_scale = a.get(&BUDGET_SCALE).unwrap_or(opts.budget_scale);
    if let Some(months) = a.text(&MONTHS) {
        opts.months = months.split(',').filter_map(Month::parse).collect();
    }
    opts
}

/// Runs the named experiments (`all` is every one), printing each report
/// as it finishes, or lists them.
fn experiments_cmd(a: &Args) -> Result<String, String> {
    if a.operands.iter().any(|id| id == "list") {
        let mut t = Table::new(["id", "reproduces"]);
        for (id, about, _) in EXPERIMENTS {
            t.row([id, about]);
        }
        return Ok(t.render());
    }
    let opts = experiment_opts(a);
    let out_dir = a.text(&OUT).map(std::path::Path::new);
    if let Some(dir) = out_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let all = EXPERIMENTS.map(|(id, ..)| id.to_string());
    let ids = a.operands.iter().flat_map(|id| match id.as_str() {
        "all" => &all[..],
        _ => std::slice::from_ref(id),
    });
    for id in ids {
        #[expect(
            clippy::disallowed_methods,
            reason = "the harness reports how long each experiment took; nothing reads it back"
        )]
        let started = std::time::Instant::now();
        let report = experiment(id).expect("checked by the parser")(&opts);
        let elapsed = started.elapsed();
        println!("{}", report.render());
        println!(
            "[{id} completed in {:.1}s at scale {}]\n",
            elapsed.as_secs_f64(),
            opts.scale
        );
        if let Some(dir) = out_dir {
            write(&dir.join(format!("{id}.txt")), &report.render())?;
            let json = serde_json::to_string_pretty(&report.data).expect("serialize");
            write(&dir.join(format!("{id}.json")), &json)?;
        }
    }
    Ok(String::new())
}

/// Runs the pinned search-throughput matrix, writes `BENCH_search.json`
/// and optionally checks it against a baseline ([`CHECK`]): identical
/// search behaviour per cell, nodes/sec within the tolerance.  The
/// baseline is read before the matrix runs, so a missing or malformed
/// one fails at once.
fn bench_perf_cmd(a: &Args) -> Result<String, String> {
    use sbs_bench::perf;
    let baseline = match a.text(&CHECK) {
        Some(path) => {
            let doc: serde_json::Value = serde_json::from_str(&read(path)?)
                .map_err(|e| format!("{path}: malformed baseline: {e}"))?;
            Some((path, doc))
        }
        None => None,
    };
    let mut opts = match a.on(&QUICK) {
        true => perf::PerfOpts::quick(),
        false => perf::PerfOpts::default(),
    };
    if let Some(r) = a.get(&REPEATS) {
        opts.repeats = r;
    }
    let (out_path, tolerance) = (a.text(&OUT).unwrap_or(BENCH_FILE), a.num(&TOLERANCE));
    let report = perf::run_matrix(&opts);
    let doc = report.to_json();
    let mut out = report.render();
    if out_path != "-" {
        write(out_path.as_ref(), &pretty(&doc))?;
        out.push_str(&format!("\nwrote {out_path}\n"));
    }
    if let Some((baseline_path, baseline)) = baseline {
        match perf::check(&doc, &baseline, tolerance) {
            Ok(compared) => out.push_str(&format!(
                "check vs {baseline_path}: ok, {compared} cells compared (search behaviour identical, nodes/sec tolerance {:.0}%)\n",
                tolerance * 100.0
            )),
            Err(failures) => {
                let mut msg = format!(
                    "{} check failure(s) vs {baseline_path} (nodes/sec tolerance {:.0}%):\n",
                    failures.len(),
                    tolerance * 100.0
                );
                for f in &failures {
                    msg.push_str(&format!("  {f}\n"));
                }
                return Err(msg);
            }
        }
    }
    Ok(out)
}

/// Connects to the daemon at [`HOST`] and [`PORT`].
fn connect(a: &Args) -> Result<std::net::TcpStream, String> {
    let addr = format!(
        "{}:{}",
        a.text(&HOST).unwrap_or_default(),
        a.num::<u16>(&PORT)
    );
    std::net::TcpStream::connect(&addr).map_err(|e| format!("cannot reach daemon at {addr}: {e}"))
}

/// Reads a file; the error names it.
fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}

/// Writes a file; the error names it.
fn write(path: &std::path::Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// A JSON document as indented text with a final newline.
fn pretty(doc: &serde_json::Value) -> String {
    format!(
        "{}\n",
        serde_json::to_string_pretty(doc).expect("serialize")
    )
}

/// Sends one protocol line to a running daemon and pretty-prints the
/// JSON it answers with.
fn client_round_trip(a: &Args, request: &str) -> Result<String, String> {
    use std::io::{BufRead, BufReader, Write};
    let mut stream = connect(a)?;
    writeln!(stream, "{request}").map_err(|e| e.to_string())?;
    let mut response = String::new();
    BufReader::new(stream)
        .read_line(&mut response)
        .map_err(|e| e.to_string())?;
    let v: serde_json::Value = serde_json::from_str(response.trim())
        .map_err(|e| format!("malformed daemon response: {e}"))?;
    Ok(pretty(&v))
}

/// Fetches the daemon's `/statusz` document with a raw HTTP/1.0 GET on
/// its port (the daemon answers one request per connection).
fn poll_statusz(a: &Args) -> Result<serde_json::Value, String> {
    use std::io::{Read as _, Write as _};
    let mut stream = connect(a)?;
    write!(stream, "GET /statusz HTTP/1.0\r\n\r\n").map_err(|e| e.to_string())?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| e.to_string())?;
    let body = response
        .split_once("\r\n\r\n")
        .map_or(&response[..], |(_, b)| b);
    serde_json::from_str(body.trim()).map_err(|e| format!("malformed /statusz response: {e}"))
}

/// Nanoseconds as a short human-scaled latency figure.
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Search nodes per scheduler second and the deadline-hit fraction
/// between the `prev` and `doc` frames, or over the daemon's lifetime
/// when there is no earlier frame; 0 where nothing elapsed.
fn top_rates(doc: &serde_json::Value, prev: Option<&serde_json::Value>) -> (f64, f64) {
    let n = |d: &serde_json::Value, k: &str| d[k].as_u64().unwrap_or(0);
    let delta = |k: &str| n(doc, k).saturating_sub(prev.map_or(0, |p| n(p, k)));
    let per = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    (
        per(delta("search_nodes"), delta("now")),
        per(delta("deadline_truncations"), delta("decisions")),
    )
}

/// Renders one `sbs-fleet-statusz/v1` document as a dashboard frame:
/// the header, then one table row per cluster.  Rates are over the
/// time since `prev`, the frame before it (see [`top_rates`]).
pub fn render_top(doc: &serde_json::Value, prev: Option<&serde_json::Value>) -> String {
    let n = |k: &str| doc[k].as_u64().unwrap_or(0);
    let (nodes_per_sec, deadline_hit) = top_rates(doc, prev);
    let rows = doc["per_cluster"].as_array().map_or(&[][..], Vec::as_slice);
    let free: u64 = rows.iter().filter_map(|r| r["free_nodes"].as_u64()).sum();
    let mut out = format!(
        "sbs top  t={}  policy={}  free {}/{} nodes  clusters={}  shards={}\n",
        n("now"),
        doc["policy"].as_str().unwrap_or("?"),
        free,
        n("capacity") * n("clusters"),
        n("clusters"),
        n("shards"),
    );
    out.push_str(&format!(
        "queue {}   running {}   submitted {}   decisions {}\n",
        n("queue_depth"),
        n("running"),
        n("submitted"),
        n("decisions"),
    ));
    out.push_str(&format!(
        "search {} nodes   {:.0} nodes/sec   deadline-hit {:.1}%\n",
        n("search_nodes"),
        nodes_per_sec,
        deadline_hit * 100.0,
    ));
    let lat = &doc["submit_latency_ns"];
    out.push_str(&format!(
        "submit p50 {}  p99 {}  p999 {}  ({} sampled)\n",
        fmt_ns(lat["p50"].as_u64().unwrap_or(0)),
        fmt_ns(lat["p99"].as_u64().unwrap_or(0)),
        fmt_ns(lat["p999"].as_u64().unwrap_or(0)),
        lat["count"].as_u64().unwrap_or(0),
    ));
    out.push_str(&format!(
        "events {} emitted / {} filtered   incidents {}\n",
        doc["events"]["emitted"].as_u64().unwrap_or(0),
        doc["events"]["filtered"].as_u64().unwrap_or(0),
        n("incidents_captured"),
    ));
    let columns = [
        ("queue", "queue_depth"),
        ("running", "running"),
        ("free", "free_nodes"),
        ("submitted", "submitted"),
        ("rejected", "rejected"),
        ("decisions", "decisions"),
        ("incidents", "incidents"),
    ];
    let mut t = Table::new(std::iter::once("cluster").chain(columns.map(|(title, _)| title)));
    for r in rows {
        let cell = |key: &str| r[key].as_u64().unwrap_or(0).to_string();
        let id = r["cluster"].as_str().unwrap_or("?").to_string();
        t.row(std::iter::once(id).chain(columns.map(|(_, key)| cell(key))));
    }
    out.push('\n');
    out.push_str(&t.render());
    out
}

/// Polls `/statusz` into a terminal dashboard. One iteration returns
/// the frame as the command output (scripting and CI); continuous mode
/// redraws the terminal in place every interval.
fn top_cmd(a: &Args) -> Result<String, String> {
    let iterations: u64 = a.num(&ITERATIONS);
    if iterations == 1 {
        return Ok(render_top(&poll_statusz(a)?, None));
    }
    let mut polled = 0u64;
    let mut prev = None;
    loop {
        let doc = poll_statusz(a)?;
        let frame = render_top(&doc, prev.as_ref());
        prev = Some(doc);
        // Home-then-clear so each poll repaints the same screen.
        print!("\x1b[H\x1b[2J{frame}");
        use std::io::Write as _;
        #[expect(
            clippy::let_underscore_must_use,
            reason = "a failed flush only delays this frame; the next poll repaints the screen"
        )]
        let _ = std::io::stdout().flush();
        polled += 1;
        if iterations != 0 && polled >= iterations {
            return Ok(String::new());
        }
        std::thread::sleep(std::time::Duration::from_millis(a.num(&INTERVAL)));
    }
}

/// Aggregates an `sbs-trace/v1` JSONL decision log into per-decision
/// tables (or JSON), optionally writing the collapsed-stack span file.
fn trace_cmd(a: &Args) -> Result<String, String> {
    use sbs_obs::TraceReport;
    let file = &a.operands[0];
    let report = TraceReport::from_lines_filtered(&read(file)?, a.get(&SINCE), a.get(&LAST))
        .map_err(|e| format!("{file}: {e}"))?;
    let mut out = if a.on(&JSON) {
        pretty(&report.to_json())
    } else {
        report.render()
    };
    if let Some(path) = a.text(&COLLAPSED) {
        write(path.as_ref(), &report.collapsed())?;
        out.push_str(&format!("wrote {path}\n"));
    }
    Ok(out)
}

/// Serves a fleet — normally of one tenant, `default` — on the daemon
/// port until shutdown.
fn serve_cmd(a: &Args) -> Result<String, String> {
    use sbs_fleet::{Fleet, FleetConfig, TenantQuota};
    use sbs_service::{Server, VirtualClock, WallClock};
    let spec = spec(a);
    let label = format!("sbs serve: {}", spec.name());
    let mut obs = sbs_obs::ObsConfig::default()
        .with_slow_thresholds(a.get(&SLOW_MS), a.get(&SLOW_NODES_LEFT));
    if let Some(path) = a.text(&EVENT_LOG) {
        obs = obs.with_event_log(path.into());
    }
    if a.on(&VIRTUAL_CLOCK) {
        // Virtual runs journal virtual timestamps only, keeping the
        // event log byte-deterministic across identical runs.
        obs = obs.with_event_mode(sbs_obs::TimeMode::Virtual);
    }
    let mut cfg = FleetConfig::new(a.num(&CAPACITY), spec)
        .with_max_clusters(a.num(&MAX_CLUSTERS))
        .with_quota(TenantQuota {
            max_queue: a.num(&MAX_QUEUE),
            fair_slack_percent: a.num(&FAIR_SLACK),
        })
        .with_obs(obs);
    cfg.snapshot_dir = a.text(&SNAPSHOT_DIR).map(Into::into);
    cfg.snapshot_every = a.num(&SNAPSHOT_EVERY);
    cfg.deadline = a.get(&DEADLINE_MS).map(std::time::Duration::from_millis);
    cfg.trace_dir = a.text(&TRACE_DIR).map(Into::into);
    let fleet = Fleet::new(cfg)?;
    let port: u16 = a.num(&PORT);
    let listener = std::net::TcpListener::bind(("127.0.0.1", port))
        .map_err(|e| format!("cannot bind port {port}: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    eprintln!(
        "{label} ({} clusters recovered) listening on {addr}",
        fleet.cluster_count()
    );
    let origin = fleet.now();
    let server = if a.on(&VIRTUAL_CLOCK) {
        Server::new(fleet, VirtualClock::starting_at(origin))
    } else {
        Server::new(fleet, WallClock::starting_at(origin))
    };
    server.run(listener).map_err(|e| e.to_string())?;
    Ok(format!("daemon on {addr} stopped\n"))
}

/// The month [`MONTH`] names, or `None` when a trace is replayed.
fn sim_month(a: &Args) -> Option<Month> {
    a.text(&MONTH).and_then(Month::parse)
}

fn load_workload(a: &Args) -> Result<Workload, String> {
    if let Some(path) = a.text(&TRACE) {
        let text = read(path)?;
        // A given --capacity wins over the trace's own header.
        let capacity = match swf::header_capacity(&text) {
            Some(nodes) if !a.on(&CAPACITY) => nodes,
            _ => a.num(&CAPACITY),
        };
        let mut w = swf::parse(&text, capacity).map_err(|e| e.to_string())?;
        // One-day warm-up for replays, when the trace is long enough.
        if w.window.1 - w.window.0 > 2 * DAY {
            w.window.0 = w.window.0.saturating_add(DAY);
        }
        Ok(w)
    } else {
        let month = sim_month(a).expect("checked: a month or a trace");
        let mut b = WorkloadBuilder::month(month);
        if let Some(seed) = a.get(&SEED) {
            b = b.seed(seed);
        }
        if let Some(scale) = a.get(&SCALE) {
            b = b.span_scale(scale);
        }
        if let Some(rho) = a.get(&LOAD) {
            b = b.target_load(rho);
        }
        Ok(b.build())
    }
}

fn simulate_cmd(a: &Args) -> Result<String, String> {
    let workload = load_workload(a)?;
    let cfg = SimConfig {
        knowledge: match a.text(&KNOWLEDGE) {
            Some("actual") => RuntimeKnowledge::Actual,
            Some(_) => RuntimeKnowledge::Requested,
            None if a.on(&TRACE) => RuntimeKnowledge::Requested,
            None => RuntimeKnowledge::Actual,
        },
        ..Default::default()
    };
    let policy = spec(a).build();
    let result = if let Some(path) = a.text(&TRACE_LOG) {
        use sbs_obs::{TimeMode, TraceMeta, TraceRecorder};
        let mut recorder = TraceRecorder::new(
            TimeMode::Virtual,
            TraceMeta {
                mode: String::new(),
                policy: policy.name(),
                capacity: workload.capacity,
                source: match (sim_month(a), a.text(&TRACE)) {
                    (Some(m), _) => format!("month {}", m.label()),
                    (None, Some(t)) => format!("trace {t}"),
                    (None, None) => unreachable!("checked: a month or a trace"),
                },
            },
        );
        // `File::create` truncates: rerunning with the same seed
        // rewrites a byte-identical log instead of appending.
        let file = std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?;
        recorder
            .attach_sink(Box::new(std::io::BufWriter::new(file)))
            .map_err(|e| format!("{path}: {e}"))?;
        let result = sbs_sim::simulate_traced(&workload, policy, cfg, &mut recorder);
        recorder.flush().map_err(|e| format!("{path}: {e}"))?;
        result
    } else {
        simulate(&workload, policy, cfg)
    };
    let records: Vec<JobRecord> = result.in_window().copied().collect();
    let stats = WaitStats::over(&records);
    let p98 = percentile_wait(&records, 98.0);
    let excess = ExcessStats::over(&records, p98);
    let ms_per_decision = result.policy_nanos as f64 / 1e6 / result.decisions.max(1) as f64;

    if a.on(&JSON) {
        let json = serde_json::json!({
            "policy": result.policy,
            "jobs": stats.jobs,
            "offered_load": workload.offered_load(),
            "utilization": result.utilization,
            "avg_wait_h": stats.avg_wait_h,
            "max_wait_h": stats.max_wait_h,
            "avg_bounded_slowdown": stats.avg_bounded_slowdown,
            "avg_queue_length": result.avg_queue_length,
            "p98_wait_h": to_hours(p98),
            "excess_vs_p98_total_h": excess.total_h,
            "decisions": result.decisions,
            "policy_ms_per_decision": ms_per_decision,
        });
        return Ok(pretty(&json));
    }

    let mut out = format!(
        "{} on {} jobs (offered load {:.2})\n\n",
        result.policy,
        stats.jobs,
        workload.offered_load()
    );
    let mut t = Table::new(["measure", "value"]);
    t.row(["avg wait (h)", &num(stats.avg_wait_h, 2)]);
    t.row(["max wait (h)", &num(stats.max_wait_h, 1)]);
    t.row(["98th pct wait (h)", &num(to_hours(p98), 1)]);
    t.row(["avg bounded slowdown", &num(stats.avg_bounded_slowdown, 2)]);
    t.row(["avg queue length", &num(result.avg_queue_length, 1)]);
    t.row([
        "utilization",
        &format!("{:.0}%", result.utilization * 100.0),
    ]);
    t.row(["decisions", &result.decisions.to_string()]);
    t.row(["sched overhead (ms/dec)", &num(ms_per_decision, 3)]);
    out.push_str(&t.render());
    if a.on(&TIMELINE) {
        out.push('\n');
        out.push_str(&utilization_panel(
            &result.policy,
            &records,
            workload.capacity,
            workload.window,
            64,
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    fn parsed(s: &str) -> Args {
        parse(s).unwrap_or_else(|e| panic!("{s}: {e}"))
    }

    /// One out-of-range value for every range-checked flag, with a
    /// command line that takes it.
    const OUT_OF_RANGE: [(&str, &Flag, &str); 10] = [
        ("sim --month 9/03", &SCALE, "0"),
        ("experiments fig3", &SCALE, "2"),
        ("sim --month 9/03", &LOAD, "2"),
        ("sim --trace t.swf", &CAPACITY, "0"),
        ("serve", &CAPACITY, "0"),
        ("experiments all", &BUDGET_SCALE, "-1"),
        ("bench-perf", &REPEATS, "0"),
        ("bench-perf", &TOLERANCE, "1"),
        ("top", &INTERVAL, "0"),
        ("serve", &PORT, "65536"),
    ];

    #[test]
    fn every_subcommand_spells_flag_errors_the_same_way() {
        for cmd in &COMMANDS {
            let sub = cmd.name;
            for f in cmd.flags {
                if let Some(d) = f.default {
                    assert_eq!(f.check(d), Ok(()), "{sub} {}: its default", f.name);
                }
                if let Kind::Switch = f.kind {
                    continue;
                }
                let err = parse(&format!("{sub} {}", f.name)).unwrap_err();
                assert_eq!(err, format!("{} needs a value", f.name), "{sub}");
                if let Kind::Int(_) | Kind::Real(_) = f.kind {
                    let err = parse(&format!("{sub} {} x", f.name)).unwrap_err();
                    assert_eq!(err, format!("bad {}", f.name), "{sub}");
                }
            }
            let err = parse(&format!("{sub} --y")).unwrap_err();
            assert_eq!(err, "unknown flag \"--y\"", "{sub}");
        }
        // Out of range: a typed error naming the flag and its range, for
        // every flag whose range is narrower than its type's.
        for (line, f, value) in OUT_OF_RANGE {
            let (Kind::Int(range) | Kind::Real(range)) = f.kind else {
                panic!("{} has no range", f.name)
            };
            let err = parse(&format!("{line} {} {value}", f.name)).unwrap_err();
            assert_eq!(err, format!("{} must be in {range}", f.name), "{line}");
        }
        for f in COMMANDS.iter().flat_map(|c| c.flags) {
            if let Kind::Int(range) | Kind::Real(range) = f.kind {
                let typed = ["[0, inf)", "[0, 4294967295]"].contains(&range);
                let tested = OUT_OF_RANGE.iter().any(|(_, t, _)| t.name == f.name);
                assert!(
                    typed || tested,
                    "{} {range} needs an out-of-range case",
                    f.name
                );
            }
        }
    }

    #[test]
    fn experiments_flags_do_not_depend_on_their_order() {
        let opts = |line: &str| experiment_opts(&parsed(line));
        let a = opts("experiments table2 --scale 0.5 --quick --months 7/03");
        let b = opts("experiments table2 --quick --months 7/03 --scale 0.5");
        assert_eq!(a, b);
        assert_eq!(a.scale, 0.5, "--scale overrides the quick base");
        assert_eq!(a.budget_scale, 0.25, "the quick base keeps its budgets");
        assert_eq!(a.months, vec![Month::Jul03]);
        assert_eq!(
            opts("experiments all --budget-scale 2 --quick").budget_scale,
            2.0
        );
        assert_eq!(opts("experiments all"), sbs_bench::opts::Opts::default());
    }

    #[test]
    fn experiments_check_ids_and_months_at_parse_time() {
        let err = parse("experiments all nope").expect_err("unknown id");
        assert!(err.contains("unknown experiment \"nope\""), "{err}");
        let err = parse("experiments fig3 --months 6/03,13/03").expect_err("bad month");
        assert_eq!(err, "unknown month \"13/03\"");
        for gone in ["ablate-random", "ablate-predict"] {
            let err = parse(&format!("experiments {gone}")).expect_err(gone);
            assert!(
                err.contains(&format!("unknown experiment {gone:?}")),
                "{err}"
            );
        }
        assert!(parse("experiments").is_err(), "an id, all or list");
        assert!(parse("experiments --quick").is_err(), "an id, all or list");
        for line in [
            "experiments list",
            "experiments all --quick",
            "experiments fig1d table2",
        ] {
            assert!(parse(line).is_ok(), "{line}");
        }
        let list = parsed("experiments list").run().expect("list");
        for (id, about, _) in sbs_bench::EXPERIMENTS {
            assert!(list.contains(id) && list.contains(about), "{list}");
        }
    }

    #[test]
    fn parses_serve_fleet_flags() {
        // The fleet's flags live on `serve`; `serve-fleet` is gone.
        let a = parsed(
            "serve --port 0 --capacity 64 --max-clusters 100 \
             --snapshot-dir /tmp/fleet --max-queue 32 --fair-slack 150 --virtual-clock",
        );
        assert_eq!(a.cmd.name, "serve");
        assert_eq!(a.num::<u16>(&PORT), 0);
        assert_eq!(a.num::<u32>(&CAPACITY), 64);
        assert_eq!(a.num::<usize>(&MAX_CLUSTERS), 100);
        assert_eq!(a.text(&SNAPSHOT_DIR), Some("/tmp/fleet"));
        assert_eq!(a.num::<usize>(&MAX_QUEUE), 32);
        assert_eq!(a.num::<u64>(&FAIR_SLACK), 150);
        assert!(a.on(&VIRTUAL_CLOCK));
        let err = parse("serve-fleet --port 0").expect_err("no longer a command");
        assert_eq!(err, "unknown command \"serve-fleet\"");
        assert!(!usage(None).contains("serve-fleet"));
        for gone in ["--snapshot state.json", "--trace-log t.jsonl"] {
            let err = parse(&format!("serve {gone}")).expect_err(gone);
            assert!(err.contains("unknown flag"), "{gone}: {err}");
        }
    }

    #[test]
    fn parses_observability_flags() {
        let s =
            parsed("serve --port 0 --event-log events.jsonl --slow-ms 250 --slow-nodes-left 100");
        assert_eq!(s.text(&EVENT_LOG), Some("events.jsonl"));
        assert_eq!(s.get(&SLOW_MS), Some(250u64));
        assert_eq!(s.get(&SLOW_NODES_LEFT), Some(100u64));

        let f = parsed("serve --slow-ms 50");
        assert_eq!(f.text(&EVENT_LOG), None);
        assert_eq!(f.get(&SLOW_MS), Some(50u64));
        assert_eq!(f.get::<u64>(&SLOW_NODES_LEFT), None);

        assert!(parse("serve --slow-ms many").is_err());
        assert!(parse("serve --event-log").is_err(), "needs a value");
    }

    #[test]
    fn parses_incidents_and_top() {
        let i = parsed("incidents");
        assert_eq!(i.cmd.name, "incidents");
        assert_eq!(
            (i.text(&HOST), i.num::<u16>(&PORT)),
            (Some("127.0.0.1"), 7070)
        );
        assert_eq!(i.text(&CLUSTER), None);
        let i = parsed("incidents --host h --port 9000 --cluster alpha");
        assert_eq!((i.text(&HOST), i.num::<u16>(&PORT)), (Some("h"), 9000));
        assert_eq!(i.text(&CLUSTER), Some("alpha"));

        let t = parsed("top");
        assert_eq!(t.cmd.name, "top");
        assert_eq!(
            (t.num::<u64>(&INTERVAL), t.num::<u64>(&ITERATIONS)),
            (2_000, 0),
            "defaults"
        );
        let t = parsed("top --port 8080 --interval 500 --iterations 3");
        assert_eq!(t.num::<u16>(&PORT), 8_080);
        assert_eq!(t.num::<u64>(&INTERVAL), 500);
        assert_eq!(t.num::<u64>(&ITERATIONS), 3);
        assert!(parse("top --interval 0").is_err(), "interval is positive");
        assert!(parse("incidents --bogus").is_err());
    }

    #[test]
    fn parses_trace_window_flags() {
        let t = parsed("trace run.jsonl --last 5 --since 40");
        assert_eq!(t.get(&LAST), Some(5usize));
        assert_eq!(t.get(&SINCE), Some(40u64));
        assert!(parse("trace run.jsonl --last five").is_err());
    }

    #[test]
    fn top_renders_daemon_and_fleet_status_documents() {
        // One schema: a one-tenant `sbs serve` and a multi-tenant one
        // render the same header and per-cluster table.
        let status = |rows: Vec<serde_json::Value>| {
            let mut doc = json!({
                "schema": "sbs-fleet-statusz/v1",
                "now": 120,
                "policy": "DDS/lxf/dynB",
                "capacity": 128,
                "clusters": rows.len() as u64,
                "shards": 16,
                "queue_depth": 3,
                "running": 2,
                "submitted": 11,
                "decisions": 8,
                "search_nodes": 4_200,
                "deadline_truncations": 2,
                "incidents_captured": 1,
            });
            if let serde_json::Value::Object(m) = &mut doc {
                let lat =
                    json!({"p50": 1_500, "p99": 2_000_000, "p999": 3_000_000_000u64, "count": 7});
                m.insert("submit_latency_ns".into(), lat);
                m.insert("events".into(), json!({"emitted": 4, "filtered": 9}));
                m.insert("per_cluster".into(), serde_json::Value::Array(rows));
            }
            render_top(&doc, None)
        };
        let row = |id: &str, free: u64| {
            json!({
                "cluster": id,
                "queue_depth": 1,
                "running": 2,
                "free_nodes": free,
                "submitted": 3,
                "rejected": 0,
                "decisions": 4,
                "incidents": 0,
            })
        };

        let frame = status(vec![row("default", 96)]);
        assert!(frame.contains("policy=DDS/lxf/dynB"), "{frame}");
        assert!(frame.contains("free 96/128 nodes"), "{frame}");
        assert!(frame.contains("clusters=1"), "{frame}");
        // One frame shows lifetime rates: 4200 nodes over 120 s, 2
        // truncations in 8 decisions.
        assert!(frame.contains("35 nodes/sec"), "{frame}");
        assert!(frame.contains("deadline-hit 25.0%"), "{frame}");
        assert!(frame.contains("p50 1.5us"), "{frame}");
        assert!(frame.contains("p99 2.0ms"), "{frame}");
        assert!(frame.contains("p999 3.00s"), "{frame}");
        assert!(frame.contains("4 emitted / 9 filtered"), "{frame}");
        let header = frame.lines().find(|l| l.starts_with("cluster")).unwrap();
        assert!(header.contains("free"), "{frame}");
        assert!(frame.lines().any(|l| l.starts_with("default")), "{frame}");

        let frame = status(vec![row("alpha", 100), row("beta", 28)]);
        assert!(frame.contains("free 128/256 nodes"), "{frame}");
        assert!(frame.contains("clusters=2"), "{frame}");
        assert!(frame.lines().any(|l| l.starts_with("alpha")), "{frame}");
        assert!(frame.lines().any(|l| l.starts_with("beta")), "{frame}");
    }

    #[test]
    fn top_works_out_rates_from_two_successive_frames() {
        let frame = |now: u64, decisions: u64, nodes: u64, truncations: u64| {
            json!({
                "now": now,
                "decisions": decisions,
                "search_nodes": nodes,
                "deadline_truncations": truncations,
            })
        };
        let (before, after) = (frame(100, 40, 20_000, 4), frame(160, 60, 80_000, 9));
        // (80000 - 20000) / (160 - 100) and (9 - 4) / (60 - 40).
        let text = render_top(&after, Some(&before));
        assert!(
            text.contains("1000 nodes/sec   deadline-hit 25.0%"),
            "{text}"
        );
        // Alone, the later frame reads lifetime: 80000 / 160 and 9 / 60.
        let text = render_top(&after, None);
        assert!(
            text.contains("500 nodes/sec   deadline-hit 15.0%"),
            "{text}"
        );
        // No time or no decisions between frames: the rates read 0.
        let text = render_top(&after, Some(&after));
        assert!(text.contains("0 nodes/sec   deadline-hit 0.0%"), "{text}");
    }

    #[test]
    fn parses_month_simulation() {
        let a = parsed("simulate --month 10/03 --policy lxf-bf --load 0.9 --scale 0.1");
        assert_eq!(a.cmd.name, "simulate");
        assert_eq!(sim_month(&a), Some(Month::Oct03));
        assert_eq!(a.text(&POLICY), Some("lxf-bf"));
        assert_eq!(a.get(&LOAD), Some(0.9));
        assert_eq!(a.get(&SCALE), Some(0.1));
    }

    #[test]
    fn rejects_missing_source_and_unknown_policy() {
        assert!(parse("simulate").is_err());
        assert!(parse("simulate --month 10/03 --policy nope").is_err());
        let err =
            parse("simulate --month 10/03 --policy beam-lxf-dynb").expect_err("no longer a policy");
        assert_eq!(err, "unknown policy \"beam-lxf-dynb\" (try `sbs policies`)");
        let err =
            parse("simulate --month 10/03 --knowledge predicted").expect_err("no longer a choice");
        assert_eq!(err, "--knowledge must be one of actual, requested");
        assert!(parse("simulate --month 10/03 --trace x.swf").is_err());
        assert!(parse("frobnicate").is_err());
    }

    #[test]
    fn every_listed_policy_resolves() {
        for (name, ..) in POLICIES {
            assert!(policy_by_name(name, 100).is_some(), "{name}");
        }
        assert!(policy_by_name("bogus", 100).is_none());
    }

    #[test]
    fn thread_and_portfolio_flags_are_gone_from_sim_and_serve() {
        // No command has a worker-count knob, the portfolio race is no
        // longer a policy, /metrics has one rendering, and the fleet is
        // timed by the benchmark alone (no load-generator subcommand).
        for line in [
            "sim --month 9/03 --threads 4",
            "serve --threads 2",
            "sim --month 9/03 --portfolio",
            "serve --compat-metrics",
            "bench-perf --threads 2",
            "bench-perf --portfolio",
        ] {
            let err = parse(line).expect_err(line);
            assert!(err.contains("unknown flag"), "{line}: {err}");
        }
        let err = parse("loadgen --quick --threads 4").expect_err("no longer a command");
        assert_eq!(err, "unknown command \"loadgen\"");
        assert!(!usage(None).contains("loadgen"));
        let err = parse("sim --month 9/03 --policy port-lxf-dynb").expect_err("no longer a policy");
        assert_eq!(err, "unknown policy \"port-lxf-dynb\" (try `sbs policies`)");
        assert!(parse("serve --policy bogus").is_err());
    }

    #[test]
    fn bench_perf_refuses_to_check_against_its_own_output() {
        // The default --out is BENCH_search.json: writing it first would
        // make the check compare the run against itself.
        for line in [
            "bench-perf --quick --check BENCH_search.json",
            "bench-perf --check ./BENCH_search.json",
            "bench-perf --out base.json --check base.json",
        ] {
            let err = parse(line).expect_err(line);
            assert!(
                err.contains("--check") && err.contains("--out"),
                "{line}: {err}"
            );
        }
        for line in [
            "bench-perf --out - --check BENCH_search.json",
            "bench-perf --out smoke.json --check BENCH_search.json",
            "bench-perf",
        ] {
            assert!(parse(line).is_ok(), "{line}");
        }
    }

    #[test]
    fn subcommands_render() {
        let run = |line: &str| parsed(line).run().expect(line);
        assert!(run("policies").contains("dds-lxf-dynb"));
        assert!(run("months").contains("6/03"));
        // Help lists every command and every flag it takes; the usage
        // after an error is the failing command's block alone.
        let help = run("help");
        assert!(help.starts_with("sbs — "), "{help}");
        assert_eq!(run(""), help, "no command is help");
        assert_eq!(run("--help"), help);
        for c in &COMMANDS {
            assert!(help.contains(&format!("sbs {}", c.name)), "{}", c.name);
            let block = usage(Some(c.name));
            for f in c.flags {
                assert!(block.contains(f.name), "{} {}", c.name, f.name);
            }
        }
        let serve = usage(Some("serve"));
        assert!(serve.contains("--snapshot-every N") && !serve.contains("--month"));
        assert!(usage(Some("frobnicate")).contains("sbs experiments"));
    }

    #[test]
    fn simulate_runs_end_to_end() {
        let out = parsed("simulate --month 9/03 --scale 0.03 --budget 200 --timeline")
            .run()
            .expect("simulate");
        assert!(out.contains("DDS/lxf/dynB"));
        assert!(out.contains("avg wait (h)"));
        assert!(out.contains("% busy"));
    }

    #[test]
    fn simulate_json_output_is_valid() {
        let out = parsed("simulate --month 9/03 --scale 0.03 --budget 200 --json")
            .run()
            .expect("simulate");
        let v: serde_json::Value = serde_json::from_str(&out).expect("valid json");
        assert!(v["avg_wait_h"].is_number());
        assert_eq!(v["policy"], "DDS/lxf/dynB");
    }

    #[test]
    fn parses_daemon_subcommands() {
        let s = parsed(
            "serve --port 0 --policy fcfs-bf --capacity 64 --virtual-clock --deadline-ms 50",
        );
        assert_eq!(s.num::<u16>(&PORT), 0);
        assert_eq!(s.num::<u32>(&CAPACITY), 64);
        assert!(s.on(&VIRTUAL_CLOCK));
        assert_eq!(s.get(&DEADLINE_MS), Some(50u64));
        assert_eq!(
            s.num::<u64>(&SNAPSHOT_EVERY),
            16,
            "auto-snapshot cadence default"
        );

        let a = parsed("submit --port 9999 --nodes 4 --runtime 3600 --user 2 --at 100");
        assert_eq!(a.cmd.name, "submit");
        assert_eq!(a.num::<u16>(&PORT), 9999);
        let fields = (a.get(&NODES), a.get(&RUNTIME), a.num(&USER), a.get(&AT));
        assert_eq!(fields, (Some(4u32), Some(3600u64), 2u32, Some(100u64)));

        let err = parse("submit --runtime 60").expect_err("--nodes required");
        assert_eq!(err, "submit needs --nodes");
        assert!(parse("serve --policy nope").is_err());
        let c = parsed("queue --host 10.0.0.1");
        assert_eq!(c.cmd.name, "queue");
        assert_eq!(c.text(&HOST), Some("10.0.0.1"));
    }

    #[test]
    fn submit_and_queue_round_trip_against_a_live_daemon() {
        use sbs_fleet::{Fleet, FleetConfig};
        use sbs_service::{Server, VirtualClock};
        let spec = policy_by_name("fcfs-bf", 100).expect("known policy");
        let fleet = Fleet::new(FleetConfig::new(8, spec)).expect("fleet");
        let server = Server::new(fleet, VirtualClock::default());
        let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).expect("bind");
        let port = listener.local_addr().expect("addr").port();
        let stop = server.shutdown_flag();
        let handle = std::thread::spawn(move || server.run(listener));

        let out = parsed(&format!(
            "submit --port {port} --nodes 4 --runtime 3600 --user 1 --at 10"
        ))
        .run()
        .expect("submit");
        let v: serde_json::Value = serde_json::from_str(&out).expect("json");
        assert_eq!(v["ok"], true);
        assert_eq!(v["id"].as_u64(), Some(0));
        assert_eq!(v["started"], true);

        let out = parsed(&format!("queue --port {port}"))
            .run()
            .expect("queue");
        let v: serde_json::Value = serde_json::from_str(&out).expect("json");
        assert_eq!(v["now"].as_u64(), Some(10));
        assert_eq!(v["running"].as_array().map(Vec::len), Some(1));

        stop.store(true, std::sync::atomic::Ordering::SeqCst);
        handle.join().expect("join").expect("server exit");
    }

    #[test]
    fn sim_alias_and_trace_flags_parse() {
        let a = parsed("sim --month 9/03 --trace-log out.jsonl");
        assert_eq!(a.cmd.name, "simulate");
        assert_eq!(a.text(&TRACE_LOG), Some("out.jsonl"));

        let s = parsed("serve --trace-dir traces");
        assert_eq!(s.text(&TRACE_DIR), Some("traces"));

        let t = parsed("trace run.jsonl --collapsed run.collapsed --json");
        assert_eq!(t.cmd.name, "trace");
        assert_eq!(t.operands, ["run.jsonl"]);
        assert_eq!(t.text(&COLLAPSED), Some("run.collapsed"));
        assert!(t.on(&JSON));

        assert!(parse("trace").is_err(), "FILE is required");
        assert!(parse("trace a.jsonl b.jsonl").is_err(), "one FILE only");
        assert!(parse("trace a.jsonl --bogus").is_err());
    }

    #[test]
    fn sim_trace_log_feeds_the_trace_explorer() {
        let log = std::env::temp_dir().join("sbs_cli_test_trace_log.jsonl");
        let collapsed = std::env::temp_dir().join("sbs_cli_test_trace_log.collapsed");
        let log_path = log.display();
        parsed(&format!(
            "sim --month 9/03 --scale 0.03 --budget 200 --trace-log {log_path}"
        ))
        .run()
        .expect("traced simulate");
        let text = std::fs::read_to_string(&log).expect("trace log written");
        assert!(text.starts_with("{\"capacity\""), "sorted-key meta line");
        assert!(text.contains("\"schema\":\"sbs-trace/v1\""));
        assert!(text.lines().count() > 1, "decision lines recorded");

        let trace = |flags: &str| parsed(&format!("trace {log_path} {flags}")).run();
        let out = trace(&format!("--collapsed {}", collapsed.display())).expect("trace explorer");
        assert!(out.contains("decisions"), "{out}");
        assert!(out.contains("depth"), "{out}");
        let stacks = std::fs::read_to_string(&collapsed).expect("collapsed file written");
        assert!(stacks.contains("decide;search"), "{stacks}");

        let out = trace("--json").expect("trace --json");
        let v: serde_json::Value = serde_json::from_str(&out).expect("valid json");
        let total = v["decisions"].as_u64().unwrap_or(0);
        assert!(total > 0, "{out}");

        // --last restricts the aggregation window.
        let out = trace("--json --last 1").expect("trace --last");
        let v: serde_json::Value = serde_json::from_str(&out).expect("valid json");
        assert_eq!(v["decisions"].as_u64(), Some(1), "{out}");

        #[expect(
            clippy::let_underscore_must_use,
            reason = "proven best-effort path — temp-file cleanup"
        )]
        let _ = std::fs::remove_file(&log);
        #[expect(
            clippy::let_underscore_must_use,
            reason = "proven best-effort path — temp-file cleanup"
        )]
        let _ = std::fs::remove_file(&collapsed);
    }

    /// `sbs trace`'s three answers (text, `--json`, `--collapsed`) for
    /// two runs of 1/04 at scale 0.02 and L = 12, as
    /// `tests/golden/trace_v1/` pins them: read from the committed logs,
    /// written when a decision line still repeated `capacity`, `spans`,
    /// the search's `algo`/`branching`/`best_depth` and the backfill
    /// pass's `examined`/`started`, and from the logs this build writes
    /// for the same runs.
    #[test]
    fn trace_answers_match_golden_for_old_and_new_logs() {
        let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../tests/golden/trace_v1");
        let tmp = std::env::temp_dir();
        let collapsed = tmp.join(format!("sbs_cli_trace_v1_{}.collapsed", std::process::id()));
        for policy in ["dds-lxf-dynb-hc", "fcfs-bf"] {
            let golden = |ext: &str| {
                std::fs::read_to_string(dir.join(format!("{policy}.{ext}"))).expect("golden file")
            };
            let old = dir.join(format!("{policy}.jsonl"));
            let new = tmp.join(format!(
                "sbs_cli_trace_v1_{policy}_{}.jsonl",
                std::process::id()
            ));
            parsed(&format!(
                "sim --month 1/04 --scale 0.02 --budget 12 --policy {policy} --trace-log {}",
                new.display()
            ))
            .run()
            .expect("traced simulate");
            let size = |p: &std::path::Path| std::fs::metadata(p).expect("log").len();
            assert!(size(&new) < size(&old), "{policy}: lines shrink");
            for log in [&old, &new] {
                let trace = |flags: &str| {
                    parsed(&format!("trace {} {flags}", log.display()))
                        .run()
                        .expect("trace")
                };
                let at = log.display();
                assert_eq!(trace(""), golden("txt"), "{at}");
                assert_eq!(trace("--json"), golden("json"), "{at}");
                trace(&format!("--collapsed {}", collapsed.display()));
                let stacks = std::fs::read_to_string(&collapsed).expect("collapsed file");
                assert_eq!(stacks, golden("collapsed"), "{at}");
            }
            #[expect(
                clippy::let_underscore_must_use,
                reason = "proven best-effort path — temp-file cleanup"
            )]
            let _ = std::fs::remove_file(&new);
        }
        #[expect(
            clippy::let_underscore_must_use,
            reason = "proven best-effort path — temp-file cleanup"
        )]
        let _ = std::fs::remove_file(&collapsed);
    }

    #[test]
    fn a_trace_replays_on_its_header_machine_size() {
        let jobs = "1 0 -1 3600 200 -1 -1 200 7200 -1 1 1 -1 -1 -1 -1 -1 -1\n\
                    2 10 -1 60 4 -1 -1 4 120 -1 1 1 -1 -1 -1 -1 -1 -1\n";
        let path = std::env::temp_dir().join(format!("sbs_cli_header_{}.swf", std::process::id()));
        let load = |text: &str, flags: &str| {
            std::fs::write(&path, text).expect("write");
            let w = load_workload(&parsed(&format!("sim --trace {} {flags}", path.display())))
                .expect("load");
            (w.capacity, w.jobs[0].nodes)
        };
        let headed = format!("; MaxNodes: 256\n{jobs}");
        assert_eq!(
            load(&headed, ""),
            (256, 200),
            "the header sizes the machine"
        );
        assert_eq!(
            load(&headed, "--capacity 128"),
            (128, 128),
            "a given size wins"
        );
        assert_eq!(load(jobs, ""), (128, 128), "no header: the default");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn trace_replay_round_trip() {
        let w = WorkloadBuilder::month(Month::Sep03)
            .span_scale(0.03)
            .build();
        let path = std::env::temp_dir().join("sbs_cli_test_trace.swf");
        std::fs::write(&path, swf::write(&w)).expect("write");
        let out = parsed(&format!(
            "simulate --trace {} --policy fcfs-bf --json",
            path.display()
        ))
        .run()
        .expect("simulate");
        let v: serde_json::Value = serde_json::from_str(&out).expect("valid json");
        assert_eq!(v["policy"], "FCFS-backfill");
    }
}
