#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Implementation of the `sbs` command-line tool (kept in a library so
//! the argument parser and runner are unit-testable).

use sbs_backfill::PriorityOrder;
use sbs_core::{Branching, PolicySpec, SearchAlgo, TargetBound};
use sbs_metrics::table::{num, Table};
use sbs_metrics::timeline::utilization_panel;
use sbs_metrics::{percentile_wait, ExcessStats, WaitStats};
use sbs_sim::engine::{simulate, SimConfig};
use sbs_sim::prediction::PredictorSpec;
use sbs_sim::JobRecord;
use sbs_workload::generator::{Workload, WorkloadBuilder};
use sbs_workload::job::RuntimeKnowledge;
use sbs_workload::swf;
use sbs_workload::system::Month;
use sbs_workload::time::{to_hours, DAY};

/// Usage text shown by `sbs` and on argument errors.
pub const USAGE: &str = "\
sbs — search-based job scheduling simulator

USAGE:
  sbs simulate (--month M | --trace FILE) [options]
                          (alias: sbs sim)
  sbs serve [options]     run the online scheduler daemon
  sbs submit [options]    submit a job to a running daemon
  sbs queue [options]     show a running daemon's queue
  sbs incidents [opts]    list captured slow-decision incidents
  sbs top [options]       poll /statusz into a terminal dashboard
  sbs trace FILE [opts]   explore an sbs-trace/v1 JSONL decision log
  sbs bench-perf          run the search hot-path perf matrix
  sbs policies            list available policy names
  sbs months              list the study months
  sbs help                this text

OPTIONS (simulate):
  --month M           synthetic month (6/03 .. 3/04)
  --trace FILE        replay a Standard Workload Format trace
  --capacity N        machine size for --trace (default 128)
  --policy NAME       scheduling policy (default dds-lxf-dynb)
  --budget L          search node budget per decision (default 1000)
  --load RHO          shrink inter-arrivals to offered load RHO
  --scale F           simulate a fraction of the month's span
  --knowledge K       actual | requested | predicted (default: actual
                      for --month, requested for --trace)
  --seed N            workload RNG seed
  --timeline          print an ASCII utilization timeline
  --json              machine-readable output
  --trace-log FILE    write an sbs-trace/v1 JSONL decision log
                      (identical runs produce byte-identical files)

OPTIONS (serve):
  Requests may name a \"cluster\" (tenant); without one they go to the
  tenant \"default\", so a single-cluster client never names one.
  --port P            TCP port (default 7070; 0 picks a free port)
  --capacity N        per-cluster machine size in nodes (default 128)
  --policy NAME       scheduling policy (default dds-lxf-dynb)
  --budget L          search node budget per decision (default 1000)
  --deadline-ms D     per-decision wall-clock search deadline
  --snapshot-dir DIR  per-cluster snapshots + manifest (recovers on start)
  --snapshot-every N  auto-snapshot every N decisions (default 16)
  --virtual-clock     time advances only with submitted events (testing)
  --trace-dir DIR     append one sbs-trace/v1 JSONL decision log per
                      cluster, DIR/trace-<cluster>.jsonl
  --event-log FILE    append an sbs-events/v1 JSONL operational journal
  --slow-ms D         capture decisions at/over D ms wall time as
                      incidents (also exposed at /statusz?incidents=1)
  --slow-nodes-left N capture deadline-truncated decisions that left N+
                      nodes unexplored
  --shards N          shard locks in the tenant map (default 16)
  --max-clusters N    tenant cap (default 4096)
  --max-queue N       per-tenant queue-depth quota (default: unlimited)
  --fair-slack PCT    per-tenant fairshare slack percent (default: off)

OPTIONS (trace):
  --collapsed OUT     also write a collapsed-stack span-weight file
                      (flamegraph.pl / speedscope input)
  --json              print the aggregates as JSON instead of tables
  --last N            aggregate only the final N decisions
  --since DECISION    aggregate only decisions with seq >= DECISION

OPTIONS (bench-perf):
  --quick             smoke mode: drop the 100K budget, 1 timing repeat
  --repeats N         timed repeats per cell, fastest wins (default 3)
  --out FILE          where to write the JSON document (default
                      BENCH_search.json; \"-\" skips the file)
  --check BASELINE    compare against a baseline document: fail if any
                      cell's search outcome (nodes, leaves, best cost,
                      ...) differs, or its nodes/sec regressed beyond
                      the tolerance; BASELINE may not be the --out file
  --tolerance F       allowed fractional slowdown for --check
                      (default 0.5 — generous, CI machines vary)

OPTIONS (submit / queue / incidents / top):
  --host H            daemon host (default 127.0.0.1)
  --port P            daemon port (default 7070)
  --cluster C         (incidents) restrict to one cluster
  --interval MS       (top) milliseconds between polls (default 2000)
  --iterations N      (top) stop after N polls; 1 prints a single
                      frame to stdout (default 0 = until interrupted)
  --nodes N           (submit) node count
  --runtime S         (submit) runtime in seconds
  --requested S       (submit) requested runtime (default: runtime)
  --user U            (submit) submitting user id
  --at T              (submit) explicit submit time (virtual clock only)

The daemon speaks newline-delimited JSON on its port and answers plain
HTTP `GET /metrics`, `GET /healthz` and `GET /statusz` probes on the
same port (`/statusz?incidents=1` inlines the captured incidents;
`/metrics?cluster=ID` is one cluster's own exposition).
";

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Run one simulation and report.
    Simulate(SimulateArgs),
    /// Run the online scheduler daemon.
    Serve(ServeArgs),
    /// Submit a job to a running daemon.
    Submit(SubmitArgs),
    /// Show a running daemon's queue.
    Queue(ConnectArgs),
    /// List a running daemon's captured slow-decision incidents.
    Incidents(IncidentsArgs),
    /// Poll a daemon's `/statusz` into a terminal dashboard.
    Top(TopArgs),
    /// Explore an `sbs-trace/v1` decision log offline.
    Trace(TraceArgs),
    /// Run the search hot-path performance matrix.
    BenchPerf(BenchPerfArgs),
    /// List policy names.
    Policies,
    /// List study months.
    Months,
    /// Print usage.
    Help,
}

/// Arguments of `sbs serve`.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeArgs {
    /// TCP port to listen on (0 = ephemeral).
    pub port: u16,
    /// Per-cluster machine size in nodes.
    pub capacity: u32,
    /// Policy name (see [`policy_by_name`]).
    pub policy: String,
    /// Search node budget.
    pub budget: u64,
    /// Per-decision wall-clock search deadline, in milliseconds.
    pub deadline_ms: Option<u64>,
    /// Directory for per-cluster snapshots and the index manifest.
    pub snapshot_dir: Option<String>,
    /// Auto-snapshot cadence in decisions.
    pub snapshot_every: u64,
    /// Drive time from submitted events instead of the wall clock.
    pub virtual_clock: bool,
    /// Directory for per-cluster `sbs-trace/v1` JSONL decision logs.
    pub trace_dir: Option<String>,
    /// Append an `sbs-events/v1` JSONL operational journal here.
    pub event_log: Option<String>,
    /// Capture decisions at or beyond this wall time (ms) as incidents.
    pub slow_ms: Option<u64>,
    /// Capture decisions with this many `nodes_left_at_deadline`.
    pub slow_nodes_left: Option<u64>,
    /// Shard locks in the tenant map.
    pub shards: usize,
    /// Tenant cap.
    pub max_clusters: usize,
    /// Per-tenant queue-depth quota (0 = unlimited).
    pub max_queue: usize,
    /// Per-tenant fairshare slack percent (0 = fairshare off).
    pub fair_slack: u64,
}

impl Default for ServeArgs {
    fn default() -> Self {
        ServeArgs {
            port: 7070,
            capacity: 128,
            policy: "dds-lxf-dynb".to_string(),
            budget: 1_000,
            deadline_ms: None,
            snapshot_dir: None,
            snapshot_every: 16,
            virtual_clock: false,
            trace_dir: None,
            event_log: None,
            slow_ms: None,
            slow_nodes_left: None,
            shards: 16,
            max_clusters: 4096,
            max_queue: 0,
            fair_slack: 0,
        }
    }
}

/// Arguments of `sbs incidents`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct IncidentsArgs {
    /// Where the daemon (or fleet) runs.
    pub connect: ConnectArgs,
    /// Restrict to one fleet cluster (fleets only).
    pub cluster: Option<String>,
}

/// Arguments of `sbs top`.
#[derive(Debug, Clone, PartialEq)]
pub struct TopArgs {
    /// Where the daemon (or fleet) runs.
    pub connect: ConnectArgs,
    /// Milliseconds between polls.
    pub interval_ms: u64,
    /// Stop after this many polls (0 = run until interrupted).
    pub iterations: u64,
}

impl Default for TopArgs {
    fn default() -> Self {
        TopArgs {
            connect: ConnectArgs::default(),
            interval_ms: 2_000,
            iterations: 0,
        }
    }
}

/// Arguments of `sbs trace`.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceArgs {
    /// The `sbs-trace/v1` JSONL file to aggregate.
    pub file: String,
    /// Also write a collapsed-stack span-weight file here.
    pub collapsed: Option<String>,
    /// Print the aggregates as JSON instead of tables.
    pub json: bool,
    /// Keep only the final N decisions.
    pub last: Option<usize>,
    /// Keep only decisions with `seq >= since`.
    pub since: Option<u64>,
}

/// Arguments of `sbs bench-perf`.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchPerfArgs {
    /// Smoke mode (drop the 100K budget, one repeat).
    pub quick: bool,
    /// Timed repeats per matrix cell; `None` = the mode's default.
    pub repeats: Option<u32>,
    /// Output path for the JSON document; `"-"` = don't write a file.
    pub out: String,
    /// Baseline document to `--check` nodes/sec against.
    pub check: Option<String>,
    /// Allowed fractional nodes/sec slowdown before `--check` fails.
    pub tolerance: f64,
}

impl Default for BenchPerfArgs {
    fn default() -> Self {
        BenchPerfArgs {
            quick: false,
            repeats: None,
            out: "BENCH_search.json".to_string(),
            check: None,
            tolerance: 0.5,
        }
    }
}

/// Connection coordinates for the client subcommands.
#[derive(Debug, Clone, PartialEq)]
pub struct ConnectArgs {
    /// Daemon host.
    pub host: String,
    /// Daemon port.
    pub port: u16,
}

impl Default for ConnectArgs {
    fn default() -> Self {
        ConnectArgs {
            host: "127.0.0.1".to_string(),
            port: 7070,
        }
    }
}

/// Arguments of `sbs submit`.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitArgs {
    /// Where the daemon runs.
    pub connect: ConnectArgs,
    /// Node count.
    pub nodes: u32,
    /// Runtime in seconds.
    pub runtime: u64,
    /// Requested runtime in seconds.
    pub requested: Option<u64>,
    /// Submitting user id.
    pub user: u32,
    /// Explicit submit time (virtual-clock daemons).
    pub at: Option<u64>,
}

/// Arguments of `sbs simulate`.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulateArgs {
    /// Synthetic month, or `None` when replaying a trace.
    pub month: Option<Month>,
    /// SWF trace path, or `None` when generating a month.
    pub trace: Option<String>,
    /// Machine size for traces.
    pub capacity: u32,
    /// Policy name (see [`policy_by_name`]).
    pub policy: String,
    /// Search node budget.
    pub budget: u64,
    /// Optional target offered load.
    pub load: Option<f64>,
    /// Span fraction.
    pub scale: f64,
    /// `R*` source.
    pub knowledge: Knowledge,
    /// Workload seed.
    pub seed: Option<u64>,
    /// Print the utilization timeline.
    pub timeline: bool,
    /// Emit JSON instead of tables.
    pub json: bool,
    /// Write an `sbs-trace/v1` JSONL decision log here.
    pub trace_log: Option<String>,
}

/// The `--knowledge` choices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Knowledge {
    /// `R* = T`.
    Actual,
    /// `R* = R`.
    Requested,
    /// `R*` from the recent-user-average predictor.
    Predicted,
    /// Pick a sensible default for the workload source.
    Default,
}

/// The policy names `sbs` accepts, with descriptions.
pub const POLICY_NAMES: [(&str, &str); 12] = [
    (
        "fcfs-bf",
        "FCFS-backfill (1 reservation) — the max-wait envelope",
    ),
    ("lxf-bf", "LXF-backfill — the average-slowdown envelope"),
    ("sjf-bf", "SJF-backfill (starves long jobs; for comparison)"),
    ("lxfw-bf", "LXF&W-backfill (small wait weight)"),
    (
        "selective-bf",
        "Selective backfill (starvation-threshold reservations)",
    ),
    (
        "conservative-bf",
        "Conservative backfill (reservations for all)",
    ),
    ("dds-lxf-dynb", "the paper's headline search policy"),
    ("dds-fcfs-dynb", "DDS with fcfs branching"),
    ("lds-lxf-dynb", "LDS with lxf branching"),
    ("lds-fcfs-dynb", "LDS with fcfs branching"),
    (
        "dds-lxf-dynb-hc",
        "DDS + hill-climbing hybrid (30% local budget)",
    ),
    ("beam-lxf-dynb", "beam search (width 16) baseline"),
];

/// Resolves a policy name to a buildable spec.
pub fn policy_by_name(name: &str, budget: u64) -> Option<PolicySpec> {
    let dynb = TargetBound::Dynamic;
    Some(match name {
        "fcfs-bf" => PolicySpec::FcfsBackfill,
        "lxf-bf" => PolicySpec::LxfBackfill,
        "sjf-bf" => PolicySpec::SjfBackfill,
        "lxfw-bf" => PolicySpec::LxfwBackfill,
        "selective-bf" => PolicySpec::SelectiveBackfill,
        "conservative-bf" => PolicySpec::BackfillWithReservations {
            order: PriorityOrder::Fcfs,
            reservations: usize::MAX,
        },
        "dds-lxf-dynb" => PolicySpec::search_dynb(SearchAlgo::Dds, Branching::Lxf, budget),
        "dds-fcfs-dynb" => PolicySpec::search_dynb(SearchAlgo::Dds, Branching::Fcfs, budget),
        "lds-lxf-dynb" => PolicySpec::search_dynb(SearchAlgo::Lds, Branching::Lxf, budget),
        "lds-fcfs-dynb" => PolicySpec::search_dynb(SearchAlgo::Lds, Branching::Fcfs, budget),
        "dds-lxf-dynb-hc" => PolicySpec::HybridSearch {
            algo: SearchAlgo::Dds,
            branching: Branching::Lxf,
            bound: dynb,
            node_limit: budget,
            local_frac: 0.3,
        },
        "beam-lxf-dynb" => PolicySpec::search_dynb(SearchAlgo::Beam(16), Branching::Lxf, budget),
        _ => return None,
    })
}

/// Resolves `--policy NAME` into a buildable spec, or the usage error
/// naming the unknown policy.
pub fn resolve_spec(policy: &str, budget: u64) -> Result<PolicySpec, String> {
    policy_by_name(policy, budget)
        .ok_or_else(|| format!("unknown policy {policy:?} (try `sbs policies`)"))
}

/// A cursor over one subcommand's arguments.  It remembers the flag it
/// last yielded, so every "needs a value" / "bad" / "unknown flag"
/// message is spelled in one place.
struct Flags<'a> {
    rest: std::slice::Iter<'a, String>,
    flag: &'a str,
}

impl<'a> Flags<'a> {
    /// Moves to the next argument and returns it.
    fn next_flag(&mut self) -> Option<&'a str> {
        self.flag = self.rest.next()?;
        Some(self.flag)
    }

    /// The current flag's value (the next argument).
    fn value(&mut self) -> Result<String, String> {
        self.rest
            .next()
            .cloned()
            .ok_or_else(|| format!("{} needs a value", self.flag))
    }

    /// The current flag's value, parsed.
    fn parsed<T: std::str::FromStr>(&mut self) -> Result<T, String> {
        self.value()?
            .parse()
            .map_err(|_| format!("bad {}", self.flag))
    }

    /// The error for a flag no match arm took.
    fn unknown(&self) -> String {
        format!("unknown flag {:?}", self.flag)
    }
}

impl ConnectArgs {
    /// Takes the current flag if it is `--host` or `--port`.
    fn take(&mut self, f: &mut Flags) -> Result<bool, String> {
        match f.flag {
            "--host" => self.host = f.value()?,
            "--port" => self.port = f.parsed()?,
            _ => return Ok(false),
        }
        Ok(true)
    }
}

impl ServeArgs {
    /// The journal and slow-decision configuration these flags ask for.
    fn obs(&self) -> sbs_obs::ObsConfig {
        let mut obs =
            sbs_obs::ObsConfig::default().with_slow_thresholds(self.slow_ms, self.slow_nodes_left);
        if let Some(path) = &self.event_log {
            obs = obs.with_event_log(path.into(), sbs_obs::DEFAULT_EVENT_LOG_MAX_BYTES);
        }
        if self.virtual_clock {
            // Virtual runs journal virtual timestamps only, keeping the
            // event log byte-deterministic across identical runs.
            obs = obs.with_event_mode(sbs_obs::TimeMode::Virtual);
        }
        obs
    }
}

/// Parses a raw argument vector.
pub fn parse_args(args: &[String]) -> Result<Command, String> {
    let Some((sub, rest)) = args.split_first() else {
        return Ok(Command::Help);
    };
    let mut f = Flags {
        rest: rest.iter(),
        flag: "",
    };
    match sub.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "policies" => Ok(Command::Policies),
        "months" => Ok(Command::Months),
        "simulate" | "sim" => {
            let mut parsed = SimulateArgs {
                month: None,
                trace: None,
                capacity: 128,
                policy: "dds-lxf-dynb".to_string(),
                budget: 1_000,
                load: None,
                scale: 1.0,
                knowledge: Knowledge::Default,
                seed: None,
                timeline: false,
                json: false,
                trace_log: None,
            };
            while let Some(flag) = f.next_flag() {
                match flag {
                    "--month" => {
                        let v = f.value()?;
                        parsed.month =
                            Some(Month::parse(&v).ok_or_else(|| format!("unknown month {v:?}"))?);
                    }
                    "--trace" => parsed.trace = Some(f.value()?),
                    "--capacity" => parsed.capacity = f.parsed()?,
                    "--policy" => parsed.policy = f.value()?,
                    "--budget" => parsed.budget = f.parsed()?,
                    "--load" => parsed.load = Some(f.parsed()?),
                    "--scale" => parsed.scale = f.parsed()?,
                    "--knowledge" => {
                        parsed.knowledge = match f.value()?.as_str() {
                            "actual" => Knowledge::Actual,
                            "requested" => Knowledge::Requested,
                            "predicted" => Knowledge::Predicted,
                            other => return Err(format!("unknown knowledge {other:?}")),
                        }
                    }
                    "--seed" => parsed.seed = Some(f.parsed()?),
                    "--timeline" => parsed.timeline = true,
                    "--json" => parsed.json = true,
                    "--trace-log" => parsed.trace_log = Some(f.value()?),
                    _ => return Err(f.unknown()),
                }
            }
            if parsed.month.is_none() && parsed.trace.is_none() {
                return Err("simulate needs --month or --trace".to_string());
            }
            if parsed.month.is_some() && parsed.trace.is_some() {
                return Err("--month and --trace are mutually exclusive".to_string());
            }
            resolve_spec(&parsed.policy, parsed.budget)?;
            Ok(Command::Simulate(parsed))
        }
        "serve" => {
            let mut parsed = ServeArgs::default();
            while let Some(flag) = f.next_flag() {
                match flag {
                    "--port" => parsed.port = f.parsed()?,
                    "--capacity" => parsed.capacity = f.parsed()?,
                    "--policy" => parsed.policy = f.value()?,
                    "--budget" => parsed.budget = f.parsed()?,
                    "--deadline-ms" => parsed.deadline_ms = Some(f.parsed()?),
                    "--snapshot-dir" => parsed.snapshot_dir = Some(f.value()?),
                    "--snapshot-every" => parsed.snapshot_every = f.parsed()?,
                    "--virtual-clock" => parsed.virtual_clock = true,
                    "--trace-dir" => parsed.trace_dir = Some(f.value()?),
                    "--event-log" => parsed.event_log = Some(f.value()?),
                    "--slow-ms" => parsed.slow_ms = Some(f.parsed()?),
                    "--slow-nodes-left" => parsed.slow_nodes_left = Some(f.parsed()?),
                    "--shards" => parsed.shards = f.parsed()?,
                    "--max-clusters" => parsed.max_clusters = f.parsed()?,
                    "--max-queue" => parsed.max_queue = f.parsed()?,
                    "--fair-slack" => parsed.fair_slack = f.parsed()?,
                    _ => return Err(f.unknown()),
                }
            }
            resolve_spec(&parsed.policy, parsed.budget)?;
            Ok(Command::Serve(parsed))
        }
        "trace" => {
            let mut file = None;
            let mut collapsed = None;
            let mut json = false;
            let mut last = None;
            let mut since = None;
            while let Some(flag) = f.next_flag() {
                match flag {
                    "--collapsed" => collapsed = Some(f.value()?),
                    "--json" => json = true,
                    "--last" => last = Some(f.parsed()?),
                    "--since" => since = Some(f.parsed()?),
                    other if other.starts_with('-') => return Err(f.unknown()),
                    positional => {
                        if file.replace(positional.to_string()).is_some() {
                            return Err("trace takes exactly one FILE".to_string());
                        }
                    }
                }
            }
            Ok(Command::Trace(TraceArgs {
                file: file.ok_or("trace needs a FILE argument")?,
                collapsed,
                json,
                last,
                since,
            }))
        }
        "submit" => {
            let mut connect = ConnectArgs::default();
            let mut nodes: Option<u32> = None;
            let mut runtime: Option<u64> = None;
            let mut requested = None;
            let mut user = 0;
            let mut at = None;
            while let Some(flag) = f.next_flag() {
                match flag {
                    "--nodes" => nodes = Some(f.parsed()?),
                    "--runtime" => runtime = Some(f.parsed()?),
                    "--requested" => requested = Some(f.parsed()?),
                    "--user" => user = f.parsed()?,
                    "--at" => at = Some(f.parsed()?),
                    _ if connect.take(&mut f)? => {}
                    _ => return Err(f.unknown()),
                }
            }
            Ok(Command::Submit(SubmitArgs {
                connect,
                nodes: nodes.ok_or("submit needs --nodes")?,
                runtime: runtime.ok_or("submit needs --runtime")?,
                requested,
                user,
                at,
            }))
        }
        "queue" => {
            let mut connect = ConnectArgs::default();
            while f.next_flag().is_some() {
                if !connect.take(&mut f)? {
                    return Err(f.unknown());
                }
            }
            Ok(Command::Queue(connect))
        }
        "incidents" => {
            let mut parsed = IncidentsArgs::default();
            while let Some(flag) = f.next_flag() {
                match flag {
                    "--cluster" => parsed.cluster = Some(f.value()?),
                    _ if parsed.connect.take(&mut f)? => {}
                    _ => return Err(f.unknown()),
                }
            }
            Ok(Command::Incidents(parsed))
        }
        "top" => {
            let mut parsed = TopArgs::default();
            while let Some(flag) = f.next_flag() {
                match flag {
                    "--interval" => {
                        parsed.interval_ms = f.parsed()?;
                        if parsed.interval_ms == 0 {
                            return Err("--interval must be positive".to_string());
                        }
                    }
                    "--iterations" => parsed.iterations = f.parsed()?,
                    _ if parsed.connect.take(&mut f)? => {}
                    _ => return Err(f.unknown()),
                }
            }
            Ok(Command::Top(parsed))
        }
        "bench-perf" => {
            let mut parsed = BenchPerfArgs::default();
            while let Some(flag) = f.next_flag() {
                match flag {
                    "--quick" => parsed.quick = true,
                    "--repeats" => parsed.repeats = Some(f.parsed()?),
                    "--out" => parsed.out = f.value()?,
                    "--check" => parsed.check = Some(f.value()?),
                    "--tolerance" => parsed.tolerance = f.parsed()?,
                    _ => return Err(f.unknown()),
                }
            }
            if !(0.0..1.0).contains(&parsed.tolerance) {
                return Err("--tolerance must be in [0, 1)".to_string());
            }
            if let Some(check) = &parsed.check {
                if same_path(check, &parsed.out) {
                    return Err(format!(
                        "--check {check} is also the --out file: the run would overwrite its \
                         baseline before comparing (pass --out - or another path)"
                    ));
                }
            }
            Ok(Command::BenchPerf(parsed))
        }
        other => Err(format!("unknown command {other:?}")),
    }
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

/// Executes a parsed command, returning its stdout text.
pub fn run(cmd: Command) -> Result<String, String> {
    match cmd {
        Command::Help => Ok(USAGE.to_string()),
        Command::Policies => {
            let mut t = Table::new(["name", "description"]);
            for (name, desc) in POLICY_NAMES {
                t.row([name, desc]);
            }
            Ok(t.render())
        }
        Command::Months => {
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
        Command::Simulate(args) => simulate_cmd(args),
        Command::Serve(args) => serve_cmd(args),
        Command::Submit(args) => {
            let mut req = format!(
                r#"{{"op":"submit","nodes":{},"runtime":{}"#,
                args.nodes, args.runtime
            );
            if let Some(r) = args.requested {
                req.push_str(&format!(r#","requested":{r}"#));
            }
            if args.user != 0 {
                req.push_str(&format!(r#","user":{}"#, args.user));
            }
            if let Some(t) = args.at {
                req.push_str(&format!(r#","submit":{t}"#));
            }
            req.push('}');
            client_round_trip(&args.connect, &req)
        }
        Command::Queue(connect) => client_round_trip(&connect, r#"{"op":"queue"}"#),
        Command::Incidents(args) => {
            let req = match &args.cluster {
                Some(c) => format!(
                    r#"{{"op":"incidents","cluster":{}}}"#,
                    serde_json::Value::from(c.as_str())
                ),
                None => r#"{"op":"incidents"}"#.to_string(),
            };
            client_round_trip(&args.connect, &req)
        }
        Command::Top(args) => top_cmd(args),
        Command::Trace(args) => trace_cmd(args),
        Command::BenchPerf(args) => bench_perf_cmd(args),
    }
}

/// Runs the pinned search-throughput matrix, writes `BENCH_search.json`
/// and optionally checks it against a baseline (`--check`): identical
/// search behaviour per cell, nodes/sec within the tolerance.  The
/// baseline is read before the matrix runs, so a missing or malformed
/// one fails at once.
fn bench_perf_cmd(args: BenchPerfArgs) -> Result<String, String> {
    use sbs_bench::perf;
    let baseline = match &args.check {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            let doc: serde_json::Value = serde_json::from_str(&text)
                .map_err(|e| format!("{path}: malformed baseline: {e}"))?;
            Some((path, doc))
        }
        None => None,
    };
    let mut opts = if args.quick {
        perf::PerfOpts::quick()
    } else {
        perf::PerfOpts::default()
    };
    if let Some(r) = args.repeats {
        opts.repeats = r.max(1);
    }
    let report = perf::run_matrix(&opts);
    let doc = report.to_json();
    let mut out = report.render();
    if args.out != "-" {
        let text = format!(
            "{}\n",
            serde_json::to_string_pretty(&doc).expect("serialize")
        );
        std::fs::write(&args.out, text).map_err(|e| format!("{}: {e}", args.out))?;
        out.push_str(&format!("\nwrote {}\n", args.out));
    }
    if let Some((baseline_path, baseline)) = baseline {
        match perf::check(&doc, &baseline, args.tolerance) {
            Ok(compared) => out.push_str(&format!(
                "check vs {baseline_path}: ok, {compared} cells compared (search behaviour identical, nodes/sec tolerance {:.0}%)\n",
                args.tolerance * 100.0
            )),
            Err(failures) => {
                let mut msg = format!(
                    "{} check failure(s) vs {baseline_path} (nodes/sec tolerance {:.0}%):\n",
                    failures.len(),
                    args.tolerance * 100.0
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

/// Sends one protocol line to a running daemon and pretty-prints the
/// JSON it answers with.
fn client_round_trip(connect: &ConnectArgs, request: &str) -> Result<String, String> {
    use std::io::{BufRead, BufReader, Write};
    let addr = format!("{}:{}", connect.host, connect.port);
    let mut stream = std::net::TcpStream::connect(&addr)
        .map_err(|e| format!("cannot reach daemon at {addr}: {e}"))?;
    writeln!(stream, "{request}").map_err(|e| e.to_string())?;
    let mut response = String::new();
    BufReader::new(stream)
        .read_line(&mut response)
        .map_err(|e| e.to_string())?;
    let v: serde_json::Value = serde_json::from_str(response.trim())
        .map_err(|e| format!("malformed daemon response: {e}"))?;
    Ok(format!(
        "{}\n",
        serde_json::to_string_pretty(&v).expect("serialize")
    ))
}

/// Issues a raw HTTP/1.0 GET against the daemon port and returns the
/// response body (the daemon answers one request per connection).
fn http_get_text(connect: &ConnectArgs, path: &str) -> Result<String, String> {
    use std::io::{Read as _, Write as _};
    let addr = format!("{}:{}", connect.host, connect.port);
    let mut stream = std::net::TcpStream::connect(&addr)
        .map_err(|e| format!("cannot reach daemon at {addr}: {e}"))?;
    write!(stream, "GET {path} HTTP/1.0\r\n\r\n").map_err(|e| e.to_string())?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| e.to_string())?;
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or(response);
    Ok(body)
}

fn poll_statusz(connect: &ConnectArgs) -> Result<serde_json::Value, String> {
    let body = http_get_text(connect, "/statusz")?;
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

/// Renders one `sbs-fleet-statusz/v1` document as a dashboard frame:
/// the header, then one table row per cluster.
pub fn render_top(doc: &serde_json::Value) -> String {
    let n = |k: &str| doc[k].as_u64().unwrap_or(0);
    let f = |k: &str| doc[k].as_f64().unwrap_or(0.0);
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
        f("search_nodes_per_sec"),
        f("deadline_hit_rate") * 100.0,
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
fn top_cmd(args: TopArgs) -> Result<String, String> {
    if args.iterations == 1 {
        return Ok(render_top(&poll_statusz(&args.connect)?));
    }
    let mut polled = 0u64;
    loop {
        let frame = render_top(&poll_statusz(&args.connect)?);
        // Home-then-clear so each poll repaints the same screen.
        print!("\x1b[H\x1b[2J{frame}");
        use std::io::Write as _;
        #[expect(
            clippy::let_underscore_must_use,
            reason = "a failed flush only delays this frame; the next poll repaints the screen"
        )]
        let _ = std::io::stdout().flush();
        polled += 1;
        if args.iterations != 0 && polled >= args.iterations {
            return Ok(String::new());
        }
        std::thread::sleep(std::time::Duration::from_millis(args.interval_ms));
    }
}

/// Aggregates an `sbs-trace/v1` JSONL decision log into per-decision
/// tables (or JSON), optionally writing the collapsed-stack span file.
fn trace_cmd(args: TraceArgs) -> Result<String, String> {
    use sbs_obs::TraceReport;
    let text = std::fs::read_to_string(&args.file).map_err(|e| format!("{}: {e}", args.file))?;
    let report = TraceReport::from_lines_filtered(&text, args.since, args.last)
        .map_err(|e| format!("{}: {e}", args.file))?;
    let mut out = if args.json {
        format!(
            "{}\n",
            serde_json::to_string_pretty(&report.to_json()).expect("serialize")
        )
    } else {
        report.render()
    };
    if let Some(path) = &args.collapsed {
        std::fs::write(path, report.collapsed()).map_err(|e| format!("{path}: {e}"))?;
        out.push_str(&format!("wrote {path}\n"));
    }
    Ok(out)
}

/// Serves a fleet — normally of one tenant, `default` — on the daemon
/// port until shutdown.
fn serve_cmd(args: ServeArgs) -> Result<String, String> {
    use sbs_fleet::{Fleet, FleetConfig, TenantQuota};
    use sbs_service::{Server, VirtualClock, WallClock};
    let spec = resolve_spec(&args.policy, args.budget).expect("validated by parse_args");
    let label = format!("sbs serve: {}", spec.name());
    let mut cfg = FleetConfig::new(args.capacity, spec)
        .with_shards(args.shards)
        .with_max_clusters(args.max_clusters)
        .with_quota(TenantQuota {
            max_queue: args.max_queue,
            fair_slack_percent: args.fair_slack,
            ..Default::default()
        })
        .with_obs(args.obs());
    cfg.snapshot_dir = args.snapshot_dir.map(Into::into);
    cfg.snapshot_every = args.snapshot_every;
    cfg.deadline = args.deadline_ms.map(std::time::Duration::from_millis);
    cfg.trace_dir = args.trace_dir.map(Into::into);
    let fleet = Fleet::new(cfg)?;
    let listener = std::net::TcpListener::bind(("127.0.0.1", args.port))
        .map_err(|e| format!("cannot bind port {}: {e}", args.port))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    eprintln!(
        "{label} ({} clusters recovered) listening on {addr}",
        fleet.cluster_count()
    );
    let origin = fleet.now();
    let server = if args.virtual_clock {
        Server::new(fleet, VirtualClock::starting_at(origin))
    } else {
        Server::new(fleet, WallClock::starting_at(origin))
    };
    server.run(listener).map_err(|e| e.to_string())?;
    Ok(format!("daemon on {addr} stopped\n"))
}

fn load_workload(args: &SimulateArgs) -> Result<Workload, String> {
    if let Some(path) = &args.trace {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let mut w = swf::parse(&text, args.capacity).map_err(|e| e.to_string())?;
        // One-day warm-up for replays, when the trace is long enough.
        if w.window.1 - w.window.0 > 2 * DAY {
            w.window.0 = w.window.0.saturating_add(DAY);
        }
        Ok(w)
    } else {
        let month = args.month.expect("validated by parse_args");
        let mut b = WorkloadBuilder::month(month);
        if let Some(seed) = args.seed {
            b = b.seed(seed);
        }
        if args.scale != 1.0 {
            b = b.span_scale(args.scale);
        }
        if let Some(rho) = args.load {
            b = b.target_load(rho);
        }
        Ok(b.build())
    }
}

fn simulate_cmd(args: SimulateArgs) -> Result<String, String> {
    let workload = load_workload(&args)?;
    let spec = resolve_spec(&args.policy, args.budget).expect("validated");
    let knowledge = match (args.knowledge, args.trace.is_some()) {
        (Knowledge::Actual, _) => RuntimeKnowledge::Actual,
        (Knowledge::Requested, _) => RuntimeKnowledge::Requested,
        (Knowledge::Predicted, _) => RuntimeKnowledge::Requested,
        (Knowledge::Default, true) => RuntimeKnowledge::Requested,
        (Knowledge::Default, false) => RuntimeKnowledge::Actual,
    };
    let cfg = SimConfig {
        knowledge,
        predictor: (args.knowledge == Knowledge::Predicted)
            .then(|| PredictorSpec::RecentUserAverage.build()),
        ..Default::default()
    };
    let policy = spec.build();
    let result = if let Some(path) = &args.trace_log {
        use sbs_obs::{TimeMode, TraceMeta, TraceRecorder};
        let mut recorder = TraceRecorder::new(
            TimeMode::Virtual,
            TraceMeta {
                mode: String::new(),
                policy: policy.name(),
                capacity: workload.capacity,
                source: match (&args.month, &args.trace) {
                    (Some(m), _) => format!("month {}", m.label()),
                    (None, Some(t)) => format!("trace {t}"),
                    (None, None) => unreachable!("validated by parse_args"),
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

    if args.json {
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
            "policy_ms_per_decision":
                result.policy_nanos as f64 / 1e6 / result.decisions.max(1) as f64,
        });
        return Ok(format!(
            "{}\n",
            serde_json::to_string_pretty(&json).expect("serialize")
        ));
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
    t.row([
        "sched overhead (ms/dec)",
        &num(
            result.policy_nanos as f64 / 1e6 / result.decisions.max(1) as f64,
            3,
        ),
    ]);
    out.push_str(&t.render());
    if args.timeline {
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

    fn parse(s: &str) -> Result<Command, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    /// Every subcommand's flags that take a value: `(subcommand, flags
    /// whose value is kept as text, flags whose value is parsed)`.
    const VALUE_FLAGS: [(&str, &str, &str); 8] = [
        (
            "simulate",
            "--month --trace --policy --knowledge --trace-log",
            "--capacity --budget --load --scale --seed",
        ),
        (
            "serve",
            "--policy --snapshot-dir --trace-dir --event-log",
            "--port --capacity --budget --deadline-ms --snapshot-every --slow-ms --slow-nodes-left \
             --shards --max-clusters --max-queue --fair-slack",
        ),
        (
            "submit",
            "--host",
            "--port --nodes --runtime --requested --user --at",
        ),
        ("queue", "--host", "--port"),
        ("incidents", "--host --cluster", "--port"),
        ("top", "--host", "--port --interval --iterations"),
        ("trace", "--collapsed", "--last --since"),
        ("bench-perf", "--out --check", "--repeats --tolerance"),
    ];

    #[test]
    fn every_subcommand_spells_flag_errors_the_same_way() {
        for (sub, text, numeric) in VALUE_FLAGS {
            for flag in text.split_whitespace().chain(numeric.split_whitespace()) {
                let err = parse(&format!("{sub} {flag}")).unwrap_err();
                assert_eq!(err, format!("{flag} needs a value"), "{sub}");
            }
            for flag in numeric.split_whitespace() {
                let err = parse(&format!("{sub} {flag} x")).unwrap_err();
                assert_eq!(err, format!("bad {flag}"), "{sub}");
            }
            let err = parse(&format!("{sub} --y")).unwrap_err();
            assert_eq!(err, "unknown flag \"--y\"", "{sub}");
        }
    }

    #[test]
    fn parses_serve_fleet_flags() {
        // The fleet's flags live on `serve`; `serve-fleet` is gone.
        let cmd = parse(
            "serve --port 0 --capacity 64 --shards 8 --max-clusters 100 \
             --snapshot-dir /tmp/fleet --max-queue 32 --fair-slack 150 --virtual-clock",
        )
        .expect("parse");
        let Command::Serve(a) = cmd else {
            panic!("not serve")
        };
        assert_eq!(a.port, 0);
        assert_eq!(a.capacity, 64);
        assert_eq!(a.shards, 8);
        assert_eq!(a.max_clusters, 100);
        assert_eq!(a.snapshot_dir.as_deref(), Some("/tmp/fleet"));
        assert_eq!(a.max_queue, 32);
        assert_eq!(a.fair_slack, 150);
        assert!(a.virtual_clock);
        let err = parse("serve-fleet --port 0").expect_err("no longer a command");
        assert_eq!(err, "unknown command \"serve-fleet\"");
        assert!(!USAGE.contains("serve-fleet"), "{USAGE}");
        for gone in ["--snapshot state.json", "--trace-log t.jsonl"] {
            let err = parse(&format!("serve {gone}")).expect_err(gone);
            assert!(err.contains("unknown flag"), "{gone}: {err}");
        }
    }

    #[test]
    fn parses_observability_flags() {
        let Command::Serve(s) =
            parse("serve --port 0 --event-log events.jsonl --slow-ms 250 --slow-nodes-left 100")
                .expect("parse")
        else {
            panic!("not serve")
        };
        assert_eq!(s.event_log.as_deref(), Some("events.jsonl"));
        assert_eq!(s.slow_ms, Some(250));
        assert_eq!(s.slow_nodes_left, Some(100));

        let Command::Serve(f) = parse("serve --slow-ms 50").expect("parse") else {
            panic!("not serve")
        };
        assert_eq!(f.event_log, None);
        assert_eq!(f.slow_ms, Some(50));
        assert_eq!(f.slow_nodes_left, None);

        assert!(parse("serve --slow-ms many").is_err());
        assert!(parse("serve --event-log").is_err(), "needs a value");
    }

    #[test]
    fn parses_incidents_and_top() {
        assert_eq!(
            parse("incidents").expect("defaults"),
            Command::Incidents(IncidentsArgs::default())
        );
        let Command::Incidents(i) =
            parse("incidents --host h --port 9000 --cluster alpha").expect("parse")
        else {
            panic!("not incidents")
        };
        assert_eq!(i.connect.host, "h");
        assert_eq!(i.connect.port, 9_000);
        assert_eq!(i.cluster.as_deref(), Some("alpha"));

        assert_eq!(
            parse("top").expect("defaults"),
            Command::Top(TopArgs::default())
        );
        let Command::Top(t) =
            parse("top --port 8080 --interval 500 --iterations 3").expect("parse")
        else {
            panic!("not top")
        };
        assert_eq!(t.connect.port, 8_080);
        assert_eq!(t.interval_ms, 500);
        assert_eq!(t.iterations, 3);
        assert!(parse("top --interval 0").is_err(), "interval is positive");
        assert!(parse("incidents --bogus").is_err());
    }

    #[test]
    fn parses_trace_window_flags() {
        let Command::Trace(t) = parse("trace run.jsonl --last 5 --since 40").expect("parse") else {
            panic!("not trace")
        };
        assert_eq!(t.last, Some(5));
        assert_eq!(t.since, Some(40));
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
                "decisions": 6,
                "search_nodes": 4_200,
                "deadline_hit_rate": 0.25,
                "search_nodes_per_sec": 1_000.0,
                "incidents_captured": 1,
            });
            if let serde_json::Value::Object(m) = &mut doc {
                let lat =
                    json!({"p50": 1_500, "p99": 2_000_000, "p999": 3_000_000_000u64, "count": 7});
                m.insert("submit_latency_ns".into(), lat);
                m.insert("events".into(), json!({"emitted": 4, "filtered": 9}));
                m.insert("per_cluster".into(), serde_json::Value::Array(rows));
            }
            render_top(&doc)
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
    fn parses_month_simulation() {
        let cmd =
            parse("simulate --month 10/03 --policy lxf-bf --load 0.9 --scale 0.1").expect("parse");
        let Command::Simulate(a) = cmd else {
            panic!("not simulate")
        };
        assert_eq!(a.month, Some(Month::Oct03));
        assert_eq!(a.policy, "lxf-bf");
        assert_eq!(a.load, Some(0.9));
        assert_eq!(a.scale, 0.1);
    }

    #[test]
    fn rejects_missing_source_and_unknown_policy() {
        assert!(parse("simulate").is_err());
        assert!(parse("simulate --month 10/03 --policy nope").is_err());
        assert!(parse("simulate --month 10/03 --trace x.swf").is_err());
        assert!(parse("frobnicate").is_err());
    }

    #[test]
    fn every_listed_policy_resolves() {
        for (name, _) in POLICY_NAMES {
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
        assert!(!USAGE.contains("loadgen"), "{USAGE}");
        let err = resolve_spec("port-lxf-dynb", 700).expect_err("no longer a policy");
        assert!(err.contains("unknown policy"), "{err}");
        assert!(resolve_spec("bogus", 100).is_err());
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
        assert!(run(Command::Policies).expect("ok").contains("dds-lxf-dynb"));
        assert!(run(Command::Months).expect("ok").contains("6/03"));
        assert!(run(Command::Help).expect("ok").contains("USAGE"));
    }

    #[test]
    fn simulate_runs_end_to_end() {
        let cmd =
            parse("simulate --month 9/03 --scale 0.03 --budget 200 --timeline").expect("parse");
        let out = run(cmd).expect("simulate");
        assert!(out.contains("DDS/lxf/dynB"));
        assert!(out.contains("avg wait (h)"));
        assert!(out.contains("% busy"));
    }

    #[test]
    fn simulate_json_output_is_valid() {
        let cmd = parse("simulate --month 9/03 --scale 0.03 --budget 200 --json").expect("parse");
        let out = run(cmd).expect("simulate");
        let v: serde_json::Value = serde_json::from_str(&out).expect("valid json");
        assert!(v["avg_wait_h"].is_number());
        assert_eq!(v["policy"], "DDS/lxf/dynB");
    }

    #[test]
    fn simulate_predicted_knowledge() {
        let cmd =
            parse("simulate --month 9/03 --scale 0.03 --budget 200 --knowledge predicted --json")
                .expect("parse");
        let out = run(cmd).expect("simulate");
        assert!(serde_json::from_str::<serde_json::Value>(&out).is_ok());
    }

    #[test]
    fn parses_daemon_subcommands() {
        let Command::Serve(s) =
            parse("serve --port 0 --policy fcfs-bf --capacity 64 --virtual-clock --deadline-ms 50")
                .expect("parse")
        else {
            panic!("not serve")
        };
        assert_eq!(s.port, 0);
        assert_eq!(s.capacity, 64);
        assert!(s.virtual_clock);
        assert_eq!(s.deadline_ms, Some(50));
        assert_eq!(s.snapshot_every, 16, "auto-snapshot cadence default");

        let Command::Submit(a) =
            parse("submit --port 9999 --nodes 4 --runtime 3600 --user 2 --at 100").expect("parse")
        else {
            panic!("not submit")
        };
        assert_eq!(a.connect.port, 9999);
        assert_eq!((a.nodes, a.runtime, a.user, a.at), (4, 3600, 2, Some(100)));

        assert!(parse("submit --runtime 60").is_err(), "--nodes required");
        assert!(parse("serve --policy nope").is_err());
        let Command::Queue(c) = parse("queue --host 10.0.0.1").expect("parse") else {
            panic!("not queue")
        };
        assert_eq!(c.host, "10.0.0.1");
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

        let connect = ConnectArgs {
            host: "127.0.0.1".to_string(),
            port,
        };
        let out = run(Command::Submit(SubmitArgs {
            connect: connect.clone(),
            nodes: 4,
            runtime: 3600,
            requested: None,
            user: 1,
            at: Some(10),
        }))
        .expect("submit");
        let v: serde_json::Value = serde_json::from_str(&out).expect("json");
        assert_eq!(v["ok"], true);
        assert_eq!(v["id"].as_u64(), Some(0));
        assert_eq!(v["started"], true);

        let out = run(Command::Queue(connect)).expect("queue");
        let v: serde_json::Value = serde_json::from_str(&out).expect("json");
        assert_eq!(v["now"].as_u64(), Some(10));
        assert_eq!(v["running"].as_array().map(Vec::len), Some(1));

        stop.store(true, std::sync::atomic::Ordering::SeqCst);
        handle.join().expect("join").expect("server exit");
    }

    #[test]
    fn sim_alias_and_trace_flags_parse() {
        let Command::Simulate(a) = parse("sim --month 9/03 --trace-log out.jsonl").expect("parse")
        else {
            panic!("not simulate")
        };
        assert_eq!(a.trace_log.as_deref(), Some("out.jsonl"));

        let Command::Serve(s) = parse("serve --trace-dir traces").expect("parse") else {
            panic!("not serve")
        };
        assert_eq!(s.trace_dir.as_deref(), Some("traces"));

        let Command::Trace(t) =
            parse("trace run.jsonl --collapsed run.collapsed --json").expect("parse")
        else {
            panic!("not trace")
        };
        assert_eq!(t.file, "run.jsonl");
        assert_eq!(t.collapsed.as_deref(), Some("run.collapsed"));
        assert!(t.json);

        assert!(parse("trace").is_err(), "FILE is required");
        assert!(parse("trace a.jsonl b.jsonl").is_err(), "one FILE only");
        assert!(parse("trace a.jsonl --bogus").is_err());
    }

    #[test]
    fn sim_trace_log_feeds_the_trace_explorer() {
        let log = std::env::temp_dir().join("sbs_cli_test_trace_log.jsonl");
        let collapsed = std::env::temp_dir().join("sbs_cli_test_trace_log.collapsed");
        let cmd = parse(&format!(
            "sim --month 9/03 --scale 0.03 --budget 200 --trace-log {}",
            log.display()
        ))
        .expect("parse");
        run(cmd).expect("traced simulate");
        let text = std::fs::read_to_string(&log).expect("trace log written");
        assert!(text.starts_with("{\"capacity\""), "sorted-key meta line");
        assert!(text.contains("\"schema\":\"sbs-trace/v1\""));
        assert!(text.lines().count() > 1, "decision lines recorded");

        let out = run(Command::Trace(TraceArgs {
            file: log.display().to_string(),
            collapsed: Some(collapsed.display().to_string()),
            json: false,
            last: None,
            since: None,
        }))
        .expect("trace explorer");
        assert!(out.contains("decisions"), "{out}");
        assert!(out.contains("depth"), "{out}");
        let stacks = std::fs::read_to_string(&collapsed).expect("collapsed file written");
        assert!(stacks.contains("decide;search"), "{stacks}");

        let out = run(Command::Trace(TraceArgs {
            file: log.display().to_string(),
            collapsed: None,
            json: true,
            last: None,
            since: None,
        }))
        .expect("trace --json");
        let v: serde_json::Value = serde_json::from_str(&out).expect("valid json");
        let total = v["decisions"].as_u64().unwrap_or(0);
        assert!(total > 0, "{out}");

        // --last restricts the aggregation window.
        let out = run(Command::Trace(TraceArgs {
            file: log.display().to_string(),
            collapsed: None,
            json: true,
            last: Some(1),
            since: None,
        }))
        .expect("trace --last");
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

    #[test]
    fn trace_replay_round_trip() {
        let w = WorkloadBuilder::month(Month::Sep03)
            .span_scale(0.03)
            .build();
        let path = std::env::temp_dir().join("sbs_cli_test_trace.swf");
        std::fs::write(&path, swf::write(&w)).expect("write");
        let cmd = parse(&format!(
            "simulate --trace {} --policy fcfs-bf --json",
            path.display()
        ))
        .expect("parse");
        let out = run(cmd).expect("simulate");
        let v: serde_json::Value = serde_json::from_str(&out).expect("valid json");
        assert_eq!(v["policy"], "FCFS-backfill");
    }
}
