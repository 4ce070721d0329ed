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
  sbs serve-fleet [opts]  run the multi-tenant fleet daemon
  sbs loadgen [options]   drive a fleet with synthetic submit streams
  sbs submit [options]    submit a job to a running daemon
  sbs queue [options]     show a running daemon's queue
  sbs incidents [opts]    list captured slow-decision incidents
  sbs top [options]       poll /statusz into a terminal dashboard
  sbs trace FILE [opts]   explore an sbs-trace/v1 JSONL decision log
  sbs lint [FILE...]      run the workspace static-analysis pass
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
  --port P            TCP port (default 7070; 0 picks a free port)
  --capacity N        machine size in nodes (default 128)
  --policy NAME       scheduling policy (default dds-lxf-dynb)
  --budget L          search node budget per decision (default 1000)
  --deadline-ms D     per-decision wall-clock search deadline
  --snapshot FILE     snapshot state to FILE (recovers from it on start)
  --snapshot-every N  auto-snapshot every N decisions (default 16)
  --virtual-clock     time advances only with submitted events (testing)
  --trace-log FILE    append an sbs-trace/v1 JSONL decision log
  --event-log FILE    append an sbs-events/v1 JSONL operational journal
  --slow-ms D         capture decisions at/over D ms wall time as
                      incidents (also exposed at /statusz?incidents=1)
  --slow-nodes-left N capture deadline-truncated decisions that left N+
                      nodes unexplored

OPTIONS (serve-fleet):
  --port P            TCP port (default 7070; 0 picks a free port)
  --capacity N        per-cluster machine size in nodes (default 128)
  --policy NAME       scheduling policy for every tenant
  --budget L          search node budget per decision (default 1000)
  --shards N          shard locks in the tenant map (default 16)
  --max-clusters N    tenant cap (default 4096)
  --snapshot-dir DIR  per-cluster snapshots + manifest (recovers on start)
  --max-queue N       per-tenant queue-depth quota (default: unlimited)
  --fair-slack PCT    per-tenant fairshare slack percent (default: off)
  --virtual-clock     time advances only with submitted events (testing)
  --event-log FILE    append the fleet's sbs-events/v1 JSONL journal
  --slow-ms D         capture slow decisions (ms) as incidents
  --slow-nodes-left N capture deadline-truncated decisions as incidents

OPTIONS (loadgen):
  --clusters N        tenant clusters driven (default 1000)
  --jobs N            jobs submitted per cluster (default 32)
  --batch N           jobs per batched submit request (default 16)
  --threads N         worker threads, cluster-disjoint (default 8)
  --seed N            stream seed (default 42)
  --capacity N        per-cluster machine size (default 64)
  --shards N          fleet shard locks (default 64)
  --tcp               drive over TCP sockets instead of in-process
  --quick             smoke mode: 64 clusters x 8 jobs on 4 threads
  --min-throughput R  fail below R sustained submits/sec (default: off)
  --out FILE          where to write the sbs-loadgen/v1 document
                      (default BENCH_service.json; \"-\" skips the file)

OPTIONS (trace):
  --collapsed OUT     also write a collapsed-stack span-weight file
                      (flamegraph.pl / speedscope input)
  --json              print the aggregates as JSON instead of tables
  --last N            aggregate only the final N decisions
  --since DECISION    aggregate only decisions with seq >= DECISION

OPTIONS (lint):
  --root DIR          workspace root (default: nearest parent directory
                      containing lint.toml); FILE arguments restrict the
                      pass to those files
  --format F          grep (default) | json | sarif; the machine formats
                      print the document to stdout and keep the findings
                      verdict in the exit code
  --update-baseline   shrink lint-baseline.toml pins to today's counts
                      (the ratchet never adds or grows a pin)
  --changed[=BASE]    lint .rs files that differ from the git base
                      (default origin/main) plus transitive call-graph
                      callers/callees of their functions; untracked
                      files included, ratchet not applied
  --explain RULE      print a rule's doc, firing example and
                      suppression syntax, then exit

OPTIONS (bench-perf):
  --quick             smoke mode: drop the 100K budget, 1 timing repeat
  --repeats N         timed repeats per cell, fastest wins (default 3)
  --threads N         time the portfolio rows at {1, N} workers
                      instead of {1, 4}
  --portfolio         force the portfolio rows (on by default; --quick
                      drops them)
  --out FILE          where to write the JSON document (default
                      BENCH_search.json; \"-\" skips the file)
  --check BASELINE    compare against a baseline document: fail if any
                      cell's search outcome (nodes, leaves, best cost,
                      ...) differs, or its nodes/sec regressed beyond
                      the tolerance
  --tolerance F       allowed fractional slowdown for --check
                      (default 0.5 — generous, CI machines vary)

OPTIONS (submit / queue / incidents / top):
  --host H            daemon host (default 127.0.0.1)
  --port P            daemon port (default 7070)
  --cluster C         (incidents) restrict to one fleet cluster
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
same port (`/statusz?incidents=1` inlines the captured incidents).
";

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Run one simulation and report.
    Simulate(SimulateArgs),
    /// Run the online scheduler daemon.
    Serve(ServeArgs),
    /// Run the multi-tenant fleet daemon.
    ServeFleet(ServeFleetArgs),
    /// Drive a fleet with synthetic submit streams.
    Loadgen(LoadgenArgs),
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
    /// Run the static-analysis pass.
    Lint(LintArgs),
    /// Run the search hot-path performance matrix.
    BenchPerf(BenchPerfArgs),
    /// List policy names.
    Policies,
    /// List study months.
    Months,
    /// Print usage.
    Help,
}

/// The flags `sbs serve` and `sbs serve-fleet` share.
#[derive(Debug, Clone, PartialEq)]
pub struct DaemonArgs {
    /// TCP port to listen on (0 = ephemeral).
    pub port: u16,
    /// (Per-cluster) machine size in nodes.
    pub capacity: u32,
    /// Policy name (see [`policy_by_name`]).
    pub policy: String,
    /// Search node budget.
    pub budget: u64,
    /// Drive time from submitted events instead of the wall clock.
    pub virtual_clock: bool,
    /// Append an `sbs-events/v1` JSONL operational journal here.
    pub event_log: Option<String>,
    /// Capture decisions at or beyond this wall time (ms) as incidents.
    pub slow_ms: Option<u64>,
    /// Capture decisions with this many `nodes_left_at_deadline`.
    pub slow_nodes_left: Option<u64>,
}

impl Default for DaemonArgs {
    fn default() -> Self {
        DaemonArgs {
            port: 7070,
            capacity: 128,
            policy: "dds-lxf-dynb".to_string(),
            budget: 1_000,
            virtual_clock: false,
            event_log: None,
            slow_ms: None,
            slow_nodes_left: None,
        }
    }
}

/// Arguments of `sbs serve`.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeArgs {
    /// The flags shared with `sbs serve-fleet`.
    pub daemon: DaemonArgs,
    /// Per-decision wall-clock search deadline, in milliseconds.
    pub deadline_ms: Option<u64>,
    /// Snapshot file path.
    pub snapshot: Option<String>,
    /// Auto-snapshot cadence in decisions.
    pub snapshot_every: u64,
    /// Append an `sbs-trace/v1` JSONL decision log here.
    pub trace_log: Option<String>,
}

/// Arguments of `sbs serve-fleet`.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeFleetArgs {
    /// The flags shared with `sbs serve`.
    pub daemon: DaemonArgs,
    /// Shard locks in the tenant map.
    pub shards: usize,
    /// Tenant cap.
    pub max_clusters: usize,
    /// Directory for per-cluster snapshots and the index manifest.
    pub snapshot_dir: Option<String>,
    /// Per-tenant queue-depth quota (0 = unlimited).
    pub max_queue: usize,
    /// Per-tenant fairshare slack percent (0 = fairshare off).
    pub fair_slack: u64,
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

/// Arguments of `sbs loadgen`.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadgenArgs {
    /// Tenant clusters driven.
    pub clusters: Option<usize>,
    /// Jobs per cluster.
    pub jobs: Option<usize>,
    /// Jobs per batched submit request.
    pub batch: Option<usize>,
    /// Worker threads.
    pub threads: Option<usize>,
    /// Stream seed.
    pub seed: Option<u64>,
    /// Per-cluster machine size.
    pub capacity: Option<u32>,
    /// Fleet shard locks.
    pub shards: Option<usize>,
    /// Drive over TCP sockets instead of in-process.
    pub tcp: bool,
    /// Smoke mode.
    pub quick: bool,
    /// Fail below this sustained submits/sec (0 = off).
    pub min_throughput: f64,
    /// Output path for the JSON document; `"-"` = don't write a file.
    pub out: String,
}

impl Default for LoadgenArgs {
    fn default() -> Self {
        LoadgenArgs {
            clusters: None,
            jobs: None,
            batch: None,
            threads: None,
            seed: None,
            capacity: None,
            shards: None,
            tcp: false,
            quick: false,
            min_throughput: 0.0,
            out: "BENCH_service.json".to_string(),
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

/// Arguments of `sbs lint`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LintArgs {
    /// Explicit workspace root; `None` = walk up to the nearest
    /// `lint.toml`.
    pub root: Option<String>,
    /// Specific files to lint; empty = the whole workspace.
    pub files: Vec<String>,
    /// Lint only files that differ from this git base
    /// (`--changed[=BASE]`; the bare flag uses `origin/main`), expanded
    /// along the call graph.
    pub changed: Option<String>,
    /// Output layer.
    pub format: LintFormat,
    /// Rewrite `lint-baseline.toml` with today's lower counts.
    pub update_baseline: bool,
    /// Print one rule's documentation card and exit (`--explain RULE`).
    pub explain: Option<String>,
}

/// Output layer of `sbs lint`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LintFormat {
    /// `file:line:col rule message` lines (the default).
    #[default]
    Grep,
    /// A JSON array of finding objects.
    Json,
    /// SARIF 2.1.0, as consumed by code-scanning CI uploads.
    Sarif,
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
    /// Sweep thread counts `{1, N}` instead of the default `{1, 4}`.
    pub threads: Option<usize>,
    /// Force the portfolio rows on (quick mode drops them by default).
    pub portfolio: bool,
}

impl Default for BenchPerfArgs {
    fn default() -> Self {
        BenchPerfArgs {
            quick: false,
            repeats: None,
            out: "BENCH_search.json".to_string(),
            check: None,
            tolerance: 0.5,
            threads: None,
            portfolio: false,
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
pub const POLICY_NAMES: [(&str, &str); 13] = [
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
    (
        "port-lxf-dynb",
        "portfolio race: lds/dds/beam8/greedy per decision, first-best-wins",
    ),
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
        "port-lxf-dynb" => PolicySpec::search_dynb(SearchAlgo::Portfolio, Branching::Lxf, budget),
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

impl DaemonArgs {
    /// Takes the current flag if `serve` and `serve-fleet` share it.
    fn take(&mut self, f: &mut Flags) -> Result<bool, String> {
        match f.flag {
            "--port" => self.port = f.parsed()?,
            "--capacity" => self.capacity = f.parsed()?,
            "--policy" => self.policy = f.value()?,
            "--budget" => self.budget = f.parsed()?,
            "--virtual-clock" => self.virtual_clock = true,
            "--event-log" => self.event_log = Some(f.value()?),
            "--slow-ms" => self.slow_ms = Some(f.parsed()?),
            "--slow-nodes-left" => self.slow_nodes_left = Some(f.parsed()?),
            _ => return Ok(false),
        }
        Ok(true)
    }

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
            let mut parsed = ServeArgs {
                daemon: DaemonArgs::default(),
                deadline_ms: None,
                snapshot: None,
                snapshot_every: 16,
                trace_log: None,
            };
            while let Some(flag) = f.next_flag() {
                match flag {
                    "--deadline-ms" => parsed.deadline_ms = Some(f.parsed()?),
                    "--snapshot" => parsed.snapshot = Some(f.value()?),
                    "--snapshot-every" => parsed.snapshot_every = f.parsed()?,
                    "--trace-log" => parsed.trace_log = Some(f.value()?),
                    _ if parsed.daemon.take(&mut f)? => {}
                    _ => return Err(f.unknown()),
                }
            }
            resolve_spec(&parsed.daemon.policy, parsed.daemon.budget)?;
            Ok(Command::Serve(parsed))
        }
        "serve-fleet" => {
            let mut parsed = ServeFleetArgs {
                daemon: DaemonArgs::default(),
                shards: 16,
                max_clusters: 4096,
                snapshot_dir: None,
                max_queue: 0,
                fair_slack: 0,
            };
            while let Some(flag) = f.next_flag() {
                match flag {
                    "--shards" => parsed.shards = f.parsed()?,
                    "--max-clusters" => parsed.max_clusters = f.parsed()?,
                    "--snapshot-dir" => parsed.snapshot_dir = Some(f.value()?),
                    "--max-queue" => parsed.max_queue = f.parsed()?,
                    "--fair-slack" => parsed.fair_slack = f.parsed()?,
                    _ if parsed.daemon.take(&mut f)? => {}
                    _ => return Err(f.unknown()),
                }
            }
            resolve_spec(&parsed.daemon.policy, parsed.daemon.budget)?;
            Ok(Command::ServeFleet(parsed))
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
        "lint" => {
            let mut parsed = LintArgs::default();
            while let Some(flag) = f.next_flag() {
                match flag {
                    "--root" => parsed.root = Some(f.value()?),
                    "--format" => {
                        parsed.format = match f.value()?.as_str() {
                            "grep" => LintFormat::Grep,
                            "json" => LintFormat::Json,
                            "sarif" => LintFormat::Sarif,
                            other => {
                                return Err(format!("unknown format {other:?} (grep|json|sarif)"))
                            }
                        };
                    }
                    "--update-baseline" => parsed.update_baseline = true,
                    "--explain" => parsed.explain = Some(f.value()?),
                    "--changed" => {
                        parsed.changed = Some(sbs_analysis::changed::DEFAULT_BASE.to_string())
                    }
                    other if other.starts_with("--changed=") => {
                        let base = &other["--changed=".len()..];
                        if base.is_empty() {
                            return Err("--changed= needs a ref (or drop the `=`)".to_string());
                        }
                        parsed.changed = Some(base.to_string());
                    }
                    other if other.starts_with('-') => return Err(f.unknown()),
                    file => parsed.files.push(file.to_string()),
                }
            }
            if parsed.changed.is_some() && !parsed.files.is_empty() {
                return Err("--changed and explicit files are mutually exclusive".to_string());
            }
            Ok(Command::Lint(parsed))
        }
        "loadgen" => {
            let mut parsed = LoadgenArgs::default();
            while let Some(flag) = f.next_flag() {
                match flag {
                    "--clusters" => parsed.clusters = Some(f.parsed()?),
                    "--jobs" => parsed.jobs = Some(f.parsed()?),
                    "--batch" => parsed.batch = Some(f.parsed()?),
                    "--threads" => parsed.threads = Some(f.parsed()?),
                    "--seed" => parsed.seed = Some(f.parsed()?),
                    "--capacity" => parsed.capacity = Some(f.parsed()?),
                    "--shards" => parsed.shards = Some(f.parsed()?),
                    "--tcp" => parsed.tcp = true,
                    "--quick" => parsed.quick = true,
                    "--min-throughput" => parsed.min_throughput = f.parsed()?,
                    "--out" => parsed.out = f.value()?,
                    _ => return Err(f.unknown()),
                }
            }
            Ok(Command::Loadgen(parsed))
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
                    "--threads" => {
                        let n: usize = f.parsed()?;
                        if n == 0 {
                            return Err("--threads must be positive".to_string());
                        }
                        parsed.threads = Some(n);
                    }
                    "--portfolio" => parsed.portfolio = true,
                    _ => return Err(f.unknown()),
                }
            }
            if !(0.0..1.0).contains(&parsed.tolerance) {
                return Err("--tolerance must be in [0, 1)".to_string());
            }
            Ok(Command::BenchPerf(parsed))
        }
        other => Err(format!("unknown command {other:?}")),
    }
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
        Command::ServeFleet(args) => serve_fleet_cmd(args),
        Command::Loadgen(args) => loadgen_cmd(args),
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
        Command::Lint(args) => lint_cmd(args),
        Command::BenchPerf(args) => bench_perf_cmd(args),
    }
}

/// Runs the pinned search-throughput matrix, writes `BENCH_search.json`
/// and optionally checks it against a baseline (`--check`): identical
/// search behaviour per cell, nodes/sec within the tolerance.
fn bench_perf_cmd(args: BenchPerfArgs) -> Result<String, String> {
    use sbs_bench::perf;
    let mut opts = if args.quick {
        perf::PerfOpts::quick()
    } else {
        perf::PerfOpts::default()
    };
    if let Some(r) = args.repeats {
        opts.repeats = r.max(1);
    }
    if let Some(n) = args.threads {
        opts.threads = if n == 1 { vec![1] } else { vec![1, n] };
    }
    if args.portfolio {
        opts.portfolio = true;
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
    if let Some(baseline_path) = &args.check {
        let text =
            std::fs::read_to_string(baseline_path).map_err(|e| format!("{baseline_path}: {e}"))?;
        let baseline: serde_json::Value = serde_json::from_str(&text)
            .map_err(|e| format!("{baseline_path}: malformed baseline: {e}"))?;
        let failures = perf::check(&doc, &baseline, args.tolerance);
        if failures.is_empty() {
            out.push_str(&format!(
                "check vs {baseline_path}: ok (search behaviour identical, nodes/sec tolerance {:.0}%)\n",
                args.tolerance * 100.0
            ));
        } else {
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
    Ok(out)
}

/// Runs the static-analysis pass; violations are an error (non-zero
/// exit) whose text carries the grep-style diagnostics.
///
/// Whole-workspace runs apply the `lint-baseline.toml` ratchet:
/// baselined findings are swallowed, anything beyond a pin fails, and
/// `--update-baseline` rewrites the file with today's lower counts.
/// With `--format json|sarif` the machine-readable document goes to
/// stdout even when findings fail the run (CI captures the document
/// and the exit code independently); grep stays the default.
/// Builds the `--explain` card for one rule from the three registries.
fn explain_card(name: &str) -> Result<String, String> {
    let found = sbs_analysis::RULES
        .iter()
        .map(|r| (r.name, r.summary, r.doc, r.example))
        .chain(
            sbs_analysis::SEM_RULES
                .iter()
                .map(|r| (r.name, r.summary, r.doc, r.example)),
        )
        .chain(
            sbs_analysis::FLOW_RULES
                .iter()
                .map(|r| (r.name, r.summary, r.doc, r.example)),
        )
        .find(|(n, ..)| *n == name);
    let Some((name, summary, doc, example)) = found else {
        return Err(format!(
            "unknown rule {name:?}; `sbs lint --root . --explain` takes one of the names \
             from sbs-analysis --list-rules"
        ));
    };
    let mut out = format!("{name} — {summary}\n\n{doc}\n\nExample (fires):\n");
    for line in example.lines() {
        out.push_str("    ");
        out.push_str(line);
        out.push('\n');
    }
    out.push_str(&format!(
        "\nSuppress one site with a justification:\n    \
         // sbs-lint: allow({name}): <why this site is safe>\n\
         Scope or configure it in lint.toml under [rules.{name}].\n"
    ));
    Ok(out)
}

fn lint_cmd(args: LintArgs) -> Result<String, String> {
    if let Some(name) = &args.explain {
        return explain_card(name);
    }
    let root = match &args.root {
        Some(r) => std::path::PathBuf::from(r),
        None => {
            let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
            sbs_analysis::find_workspace_root(&cwd).ok_or_else(|| {
                format!(
                    "no {} found above {} (pass --root)",
                    sbs_analysis::CONFIG_FILE,
                    cwd.display()
                )
            })?
        }
    };
    let diags = if let Some(base) = &args.changed {
        // Diff-scoped mode: lint files changed against the base ref
        // (plus untracked ones), expanded to their transitive
        // call-graph callers/callees — a changed callee's new effects
        // surface in callers the diff never touched.  The ratchet does
        // not apply — a shrunken file set would read pinned counts as
        // improvements.
        let cfg = sbs_analysis::LintConfig::load(&root.join(sbs_analysis::CONFIG_FILE))?;
        let files = sbs_analysis::changed_files(&root, base, &cfg)?;
        let expanded = sbs_analysis::expand_changed(&root, &files, &cfg)?;
        sbs_analysis::lint_files(&root, &expanded, &cfg)?
    } else if args.files.is_empty() {
        // Workspace mode: the committed ratchet applies.
        let raw = sbs_analysis::run_workspace_lint(&root)?;
        sbs_analysis::apply_workspace_ratchet(&root, &raw, args.update_baseline)?
    } else {
        let cfg = sbs_analysis::LintConfig::load(&root.join(sbs_analysis::CONFIG_FILE))?;
        let files: Vec<std::path::PathBuf> =
            args.files.iter().map(std::path::PathBuf::from).collect();
        sbs_analysis::lint_files(&root, &files, &cfg)?
    };
    match args.format {
        LintFormat::Grep => {
            if diags.is_empty() {
                Ok("lint clean\n".to_string())
            } else {
                let mut msg = format!("{} lint finding(s)\n", diags.len());
                for d in &diags {
                    msg.push_str(&d.to_string());
                    msg.push('\n');
                }
                Err(msg)
            }
        }
        LintFormat::Json | LintFormat::Sarif => {
            let doc = match args.format {
                LintFormat::Json => sbs_analysis::emit::to_json(&diags),
                _ => sbs_analysis::emit::to_sarif(&diags),
            };
            if diags.is_empty() {
                Ok(doc)
            } else {
                // The document still goes to stdout; the error text (and
                // exit code) carries the verdict.
                print!("{doc}");
                Err(format!("{} lint finding(s)", diags.len()))
            }
        }
    }
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

/// Renders one `/statusz` document as a dashboard frame. Both the
/// daemon (`sbs-statusz/v1`) and fleet (`sbs-fleet-statusz/v1`)
/// schemas render; fleets additionally get the per-cluster table.
pub fn render_top(doc: &serde_json::Value) -> String {
    let n = |k: &str| doc[k].as_u64().unwrap_or(0);
    let f = |k: &str| doc[k].as_f64().unwrap_or(0.0);
    let fleet = doc["schema"].as_str() == Some("sbs-fleet-statusz/v1");
    let mut out = String::new();
    if fleet {
        out.push_str(&format!(
            "sbs top — fleet  t={}  clusters={}  shards={}\n",
            n("now"),
            n("clusters"),
            n("shards"),
        ));
    } else {
        out.push_str(&format!(
            "sbs top — daemon  t={}  policy={}  free {}/{} nodes\n",
            n("now"),
            doc["policy"].as_str().unwrap_or("?"),
            n("free_nodes"),
            n("capacity"),
        ));
    }
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
    if fleet {
        if let Some(rows) = doc["per_cluster"].as_array() {
            let mut t = Table::new([
                "cluster",
                "queue",
                "running",
                "submitted",
                "rejected",
                "decisions",
                "incidents",
            ]);
            for r in rows {
                let cell = |k: &str| r[k].as_u64().unwrap_or(0).to_string();
                t.row([
                    r["cluster"].as_str().unwrap_or("?").to_string(),
                    cell("queue_depth"),
                    cell("running"),
                    cell("submitted"),
                    cell("rejected"),
                    cell("decisions"),
                    cell("incidents"),
                ]);
            }
            out.push('\n');
            out.push_str(&t.render());
        }
    }
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

/// Binds the daemon port and serves `handler`, from the scheduler time
/// it is at, until shutdown; `label` and `note` frame the "listening
/// on" line.  Returns the bound address.
fn serve_until_stopped<H: sbs_service::ServerHandler + 'static>(
    handler: H,
    args: &DaemonArgs,
    label: &str,
    note: &str,
) -> Result<std::net::SocketAddr, String> {
    use sbs_service::{Server, VirtualClock, WallClock};
    let listener = std::net::TcpListener::bind(("127.0.0.1", args.port))
        .map_err(|e| format!("cannot bind port {}: {e}", args.port))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    eprintln!("{label} listening on {addr}{note}");
    let origin = handler.now();
    let server = if args.virtual_clock {
        Server::new(handler, VirtualClock::starting_at(origin))
    } else {
        Server::new(handler, WallClock::starting_at(origin))
    };
    server.run(listener).map_err(|e| e.to_string())?;
    Ok(addr)
}

fn serve_cmd(args: ServeArgs) -> Result<String, String> {
    use sbs_service::{Daemon, ServiceConfig};
    let spec =
        resolve_spec(&args.daemon.policy, args.daemon.budget).expect("validated by parse_args");
    let label = format!("sbs-service: {}", spec.name());
    let mut cfg = ServiceConfig::new(args.daemon.capacity, spec).with_obs(args.daemon.obs());
    if let Some(ms) = args.deadline_ms {
        cfg = cfg.with_deadline(std::time::Duration::from_millis(ms));
    }
    if let Some(path) = args.snapshot {
        cfg = cfg.with_snapshots(path.into(), args.snapshot_every);
    }
    if let Some(path) = args.trace_log {
        cfg = cfg.with_trace_log(path.into());
    }
    let addr = serve_until_stopped(Daemon::new(cfg)?, &args.daemon, &label, "")?;
    Ok(format!("daemon on {addr} stopped\n"))
}

fn serve_fleet_cmd(args: ServeFleetArgs) -> Result<String, String> {
    use sbs_fleet::{Fleet, FleetConfig, TenantQuota};
    let spec =
        resolve_spec(&args.daemon.policy, args.daemon.budget).expect("validated by parse_args");
    let mut cfg = FleetConfig::new(args.daemon.capacity, spec)
        .with_shards(args.shards)
        .with_max_clusters(args.max_clusters)
        .with_quota(TenantQuota {
            max_queue: args.max_queue,
            fair_slack_percent: args.fair_slack,
            ..Default::default()
        })
        .with_obs(args.daemon.obs());
    if let Some(dir) = args.snapshot_dir {
        cfg = cfg.with_snapshot_dir(dir.into());
    }
    let fleet = Fleet::new(cfg)?;
    let label = format!("sbs-fleet: {}", args.daemon.policy);
    let note = format!(" ({} clusters recovered)", fleet.cluster_count());
    let addr = serve_until_stopped(fleet, &args.daemon, &label, &note)?;
    Ok(format!("fleet on {addr} stopped\n"))
}

/// Runs the fleet load generator, writes `BENCH_service.json`, and
/// optionally enforces a sustained-throughput floor.
fn loadgen_cmd(args: LoadgenArgs) -> Result<String, String> {
    use sbs_bench::loadgen::{self, DriveMode, LoadgenOpts};
    let mut opts = if args.quick {
        LoadgenOpts::quick()
    } else {
        LoadgenOpts::default()
    };
    if let Some(v) = args.clusters {
        opts.clusters = v.max(1);
    }
    if let Some(v) = args.jobs {
        opts.jobs_per_cluster = v.max(1);
    }
    if let Some(v) = args.batch {
        opts.batch = v.max(1);
    }
    if let Some(v) = args.threads {
        opts.threads = v.max(1);
    }
    if let Some(v) = args.seed {
        opts.seed = v;
    }
    if let Some(v) = args.capacity {
        opts.capacity = v.max(1);
    }
    if let Some(v) = args.shards {
        opts.shards = v.max(1);
    }
    if args.tcp {
        opts.mode = DriveMode::Tcp;
    }
    opts.min_throughput = args.min_throughput;
    let report = loadgen::run(&opts)?;
    let mut out = report.text;
    if args.out != "-" {
        let text = format!(
            "{}\n",
            serde_json::to_string_pretty(&report.doc).expect("serialize")
        );
        std::fs::write(&args.out, text).map_err(|e| format!("{}: {e}", args.out))?;
        out.push_str(&format!("wrote {}\n", args.out));
    }
    Ok(out)
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
    const VALUE_FLAGS: [(&str, &str, &str); 11] = [
        (
            "simulate",
            "--month --trace --policy --knowledge --trace-log",
            "--capacity --budget --load --scale --seed",
        ),
        (
            "serve",
            "--policy --snapshot --trace-log --event-log",
            "--port --capacity --budget --deadline-ms --snapshot-every --slow-ms --slow-nodes-left",
        ),
        (
            "serve-fleet",
            "--policy --snapshot-dir --event-log",
            "--port --capacity --budget --shards --max-clusters --max-queue --fair-slack --slow-ms \
             --slow-nodes-left",
        ),
        (
            "loadgen",
            "--out",
            "--clusters --jobs --batch --threads --seed --capacity --shards --min-throughput",
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
        ("lint", "--root --format --explain", ""),
        ("bench-perf", "--out --check", "--repeats --tolerance --threads"),
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
        let cmd = parse(
            "serve-fleet --port 0 --capacity 64 --shards 8 --max-clusters 100 \
             --snapshot-dir /tmp/fleet --max-queue 32 --fair-slack 150 --virtual-clock",
        )
        .expect("parse");
        let Command::ServeFleet(a) = cmd else {
            panic!("not serve-fleet")
        };
        assert_eq!(a.daemon.port, 0);
        assert_eq!(a.daemon.capacity, 64);
        assert_eq!(a.shards, 8);
        assert_eq!(a.max_clusters, 100);
        assert_eq!(a.snapshot_dir.as_deref(), Some("/tmp/fleet"));
        assert_eq!(a.max_queue, 32);
        assert_eq!(a.fair_slack, 150);
        assert!(a.daemon.virtual_clock);
        assert!(parse("serve-fleet --policy nope").is_err());
    }

    #[test]
    fn parses_observability_flags() {
        let Command::Serve(s) =
            parse("serve --port 0 --event-log events.jsonl --slow-ms 250 --slow-nodes-left 100")
                .expect("parse")
        else {
            panic!("not serve")
        };
        assert_eq!(s.daemon.event_log.as_deref(), Some("events.jsonl"));
        assert_eq!(s.daemon.slow_ms, Some(250));
        assert_eq!(s.daemon.slow_nodes_left, Some(100));

        let Command::ServeFleet(f) =
            parse("serve-fleet --event-log fleet.jsonl --slow-ms 50").expect("parse")
        else {
            panic!("not serve-fleet")
        };
        assert_eq!(f.daemon.event_log.as_deref(), Some("fleet.jsonl"));
        assert_eq!(f.daemon.slow_ms, Some(50));
        assert_eq!(f.daemon.slow_nodes_left, None);

        assert!(parse("serve --slow-ms many").is_err());
        assert!(parse("serve-fleet --event-log").is_err(), "needs a value");
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
        let lat = json!({"p50": 1_500, "p99": 2_000_000, "p999": 3_000_000_000u64, "count": 7});
        let events = json!({"emitted": 4, "filtered": 9});
        let mut daemon = json!({
            "schema": "sbs-statusz/v1",
            "now": 120,
            "policy": "DDS/lxf/dynB",
            "capacity": 128,
            "free_nodes": 96,
            "queue_depth": 3,
            "running": 2,
            "submitted": 11,
            "decisions": 6,
            "search_nodes": 4_200,
            "deadline_hit_rate": 0.25,
            "search_nodes_per_sec": 1_000.0,
            "incidents_captured": 1,
        });
        if let serde_json::Value::Object(m) = &mut daemon {
            m.insert("submit_latency_ns".into(), lat.clone());
            m.insert("events".into(), events.clone());
        }
        let frame = render_top(&daemon);
        assert!(frame.contains("daemon"), "{frame}");
        assert!(frame.contains("policy=DDS/lxf/dynB"), "{frame}");
        assert!(frame.contains("free 96/128 nodes"), "{frame}");
        assert!(frame.contains("deadline-hit 25.0%"), "{frame}");
        assert!(frame.contains("p50 1.5us"), "{frame}");
        assert!(frame.contains("p99 2.0ms"), "{frame}");
        assert!(frame.contains("p999 3.00s"), "{frame}");
        assert!(frame.contains("4 emitted / 9 filtered"), "{frame}");

        let row = json!({
            "cluster": "alpha",
            "queue_depth": 1,
            "running": 2,
            "submitted": 3,
            "rejected": 0,
            "decisions": 4,
            "incidents": 0,
        });
        let mut fleet = json!({
            "schema": "sbs-fleet-statusz/v1",
            "now": 60,
            "clusters": 1,
            "shards": 16,
            "queue_depth": 1,
            "running": 2,
            "submitted": 3,
            "decisions": 4,
            "search_nodes": 0,
            "deadline_hit_rate": 0.0,
            "search_nodes_per_sec": 0.0,
            "incidents_captured": 0,
        });
        if let serde_json::Value::Object(m) = &mut fleet {
            m.insert("submit_latency_ns".into(), lat);
            m.insert("events".into(), events);
            m.insert("per_cluster".into(), serde_json::Value::Array(vec![row]));
        }
        let frame = render_top(&fleet);
        assert!(frame.contains("fleet"), "{frame}");
        assert!(frame.contains("clusters=1"), "{frame}");
        assert!(frame.contains("alpha"), "{frame}");
        assert!(frame.contains("cluster"), "{frame}");
    }

    #[test]
    fn parses_loadgen_flags() {
        let cmd = parse(
            "loadgen --clusters 1000 --jobs 16 --batch 8 --threads 2 --seed 7 \
             --tcp --quick --min-throughput 10000 --out -",
        )
        .expect("parse");
        let Command::Loadgen(a) = cmd else {
            panic!("not loadgen")
        };
        assert_eq!(a.clusters, Some(1_000));
        assert_eq!(a.jobs, Some(16));
        assert_eq!(a.batch, Some(8));
        assert_eq!(a.threads, Some(2));
        assert_eq!(a.seed, Some(7));
        assert!(a.tcp);
        assert!(a.quick);
        assert_eq!(a.min_throughput, 10_000.0);
        assert_eq!(a.out, "-");
        assert_eq!(
            parse("loadgen").expect("defaults"),
            Command::Loadgen(LoadgenArgs::default())
        );
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
        // A policy has no worker-count knob (SBS_THREADS pins the
        // process), the race is a policy name like any other, and
        // /metrics has one rendering.
        for line in [
            "sim --month 9/03 --threads 4",
            "serve --threads 2",
            "sim --month 9/03 --portfolio",
            "serve --compat-metrics",
        ] {
            let err = parse(line).expect_err(line);
            assert!(err.contains("unknown flag"), "{line}: {err}");
        }
        assert_eq!(
            resolve_spec("port-lxf-dynb", 700).expect("listed"),
            PolicySpec::search_dynb(SearchAlgo::Portfolio, Branching::Lxf, 700),
        );
        assert!(parse("serve --policy port-lxf-dynb").is_ok());
        assert!(resolve_spec("bogus", 100).is_err());

        // bench-perf keeps both: they size its portfolio rows.
        let Command::BenchPerf(b) =
            parse("bench-perf --quick --threads 8 --portfolio").expect("parse")
        else {
            panic!("not bench-perf")
        };
        assert_eq!(b.threads, Some(8));
        assert!(b.portfolio);
        assert!(parse("bench-perf --threads 0").is_err());
    }

    #[test]
    fn simulate_runs_the_portfolio_policy_end_to_end() {
        let port =
            parse("sim --month 9/03 --scale 0.03 --budget 200 --policy port-lxf-dynb --json")
                .expect("parse");
        let v: serde_json::Value =
            serde_json::from_str(&run(port).expect("portfolio")).expect("valid json");
        // The race is deterministic at any worker count, so its
        // schedule on this slice is pinned outright.
        assert_eq!(v["policy"], "PORT/lxf/dynB");
        assert_eq!(v["jobs"].as_u64(), Some(90));
        assert_eq!(v["decisions"].as_u64(), Some(267));
        assert_eq!(v["avg_wait_h"].as_f64(), Some(1.0195617283950618));
        assert_eq!(v["max_wait_h"].as_f64(), Some(10.552222222222222));
        assert_eq!(v["avg_bounded_slowdown"].as_f64(), Some(3.12960704293012));
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
        assert_eq!(s.daemon.port, 0);
        assert_eq!(s.daemon.capacity, 64);
        assert!(s.daemon.virtual_clock);
        assert_eq!(s.deadline_ms, Some(50));

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
        use sbs_service::{Daemon, Server, ServiceConfig, VirtualClock};
        let spec = policy_by_name("fcfs-bf", 100).expect("known policy");
        let daemon = Daemon::fresh(ServiceConfig::new(8, spec));
        let server = Server::new(daemon, VirtualClock::default());
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
    fn lint_subcommand_parses() {
        let Command::Lint(a) = parse("lint --root /tmp/ws crates/core/src/lib.rs").expect("parse")
        else {
            panic!("not lint")
        };
        assert_eq!(a.root.as_deref(), Some("/tmp/ws"));
        assert_eq!(a.files, ["crates/core/src/lib.rs"]);
        assert!(parse("lint --bogus").is_err());
    }

    #[test]
    fn lint_runs_clean_on_this_workspace() {
        let root = format!("{}/../..", env!("CARGO_MANIFEST_DIR"));
        let out = run(Command::Lint(LintArgs {
            root: Some(root),
            ..LintArgs::default()
        }))
        .expect("the workspace must lint clean");
        assert_eq!(out, "lint clean\n");
    }

    #[test]
    fn lint_format_flags_parse_and_emit_sarif() {
        let Command::Lint(a) = parse("lint --format sarif --update-baseline").expect("parse")
        else {
            panic!("not lint")
        };
        assert_eq!(a.format, LintFormat::Sarif);
        assert!(a.update_baseline);
        assert!(parse("lint --format bogus").is_err());

        // A clean workspace in sarif mode returns the (empty-results)
        // document on stdout with a zero exit.
        let root = format!("{}/../..", env!("CARGO_MANIFEST_DIR"));
        let out = run(Command::Lint(LintArgs {
            root: Some(root.clone()),
            format: LintFormat::Sarif,
            ..LintArgs::default()
        }))
        .expect("clean workspace");
        assert!(out.contains("\"version\": \"2.1.0\""), "{out}");
        assert!(out.contains("sbs-analysis"), "{out}");

        let out = run(Command::Lint(LintArgs {
            root: Some(root),
            format: LintFormat::Json,
            ..LintArgs::default()
        }))
        .expect("clean workspace");
        assert!(out.trim() == "[]", "{out}");
    }

    #[test]
    fn lint_changed_flag_parses_with_and_without_base() {
        let Command::Lint(a) = parse("lint --changed").expect("parse") else {
            panic!("not lint")
        };
        assert_eq!(a.changed.as_deref(), Some("origin/main"));
        let Command::Lint(a) = parse("lint --changed=HEAD~3").expect("parse") else {
            panic!("not lint")
        };
        assert_eq!(a.changed.as_deref(), Some("HEAD~3"));
        assert!(parse("lint --changed=").is_err());
        assert!(
            parse("lint --changed foo.rs").is_err(),
            "explicit files conflict with --changed"
        );

        // Against this repo's own HEAD: the diff-scoped run must accept
        // the base and report findings only from changed files (clean
        // when the working tree lints clean).
        let root = format!("{}/../..", env!("CARGO_MANIFEST_DIR"));
        let out = run(Command::Lint(LintArgs {
            root: Some(root),
            changed: Some("HEAD".to_string()),
            ..LintArgs::default()
        }))
        .expect("changed-vs-HEAD must lint clean");
        assert_eq!(out, "lint clean\n");
    }

    #[test]
    fn lint_explain_prints_a_card_for_every_rule() {
        let Command::Lint(a) = parse("lint --explain double-lock").expect("parse") else {
            panic!("not lint")
        };
        assert_eq!(a.explain.as_deref(), Some("double-lock"));
        assert!(parse("lint --explain").is_err(), "needs a rule name");

        let all: Vec<&str> = sbs_analysis::RULES
            .iter()
            .map(|r| r.name)
            .chain(sbs_analysis::SEM_RULES.iter().map(|r| r.name))
            .chain(sbs_analysis::FLOW_RULES.iter().map(|r| r.name))
            .collect();
        assert_eq!(all.len(), 17, "{all:?}");
        for name in all {
            let out = run(Command::Lint(LintArgs {
                explain: Some(name.to_string()),
                ..LintArgs::default()
            }))
            .unwrap_or_else(|e| panic!("--explain {name}: {e}"));
            assert!(out.starts_with(&format!("{name} — ")), "{out}");
            assert!(out.contains("Example (fires):"), "{name}: no example");
            assert!(
                out.contains(&format!("// sbs-lint: allow({name}):")),
                "{name}: no suppression syntax"
            );
            assert!(
                out.contains(&format!("[rules.{name}]")),
                "{name}: no config pointer"
            );
        }
        let err = run(Command::Lint(LintArgs {
            explain: Some("no-such-rule".to_string()),
            ..LintArgs::default()
        }))
        .expect_err("unknown rule must fail");
        assert!(err.contains("unknown rule"), "{err}");
    }

    #[test]
    fn lint_reports_reintroduced_violations_with_positions() {
        // Reintroduce a wall-clock read in a scratch "workspace" and
        // check the diagnostic carries the exact file:line back.
        let dir = std::env::temp_dir().join("sbs_cli_lint_test");
        std::fs::create_dir_all(dir.join("crates/x/src")).expect("mkdir");
        std::fs::write(dir.join("lint.toml"), "[scan]\nroots = [\"crates\"]\n").expect("config");
        std::fs::write(
            dir.join("crates/x/src/lib.rs"),
            "pub fn t() -> std::time::Instant {\n    std::time::Instant::now()\n}\n",
        )
        .expect("source");
        let err = run(Command::Lint(LintArgs {
            root: Some(dir.to_string_lossy().to_string()),
            ..LintArgs::default()
        }))
        .expect_err("violation must fail the lint");
        assert!(err.contains("1 lint finding(s)"), "{err}");
        assert!(err.contains("crates/x/src/lib.rs:2:16 wall-clock"), "{err}");
    }

    #[test]
    fn sim_alias_and_trace_flags_parse() {
        let Command::Simulate(a) = parse("sim --month 9/03 --trace-log out.jsonl").expect("parse")
        else {
            panic!("not simulate")
        };
        assert_eq!(a.trace_log.as_deref(), Some("out.jsonl"));

        let Command::Serve(s) = parse("serve --trace-log d.jsonl").expect("parse") else {
            panic!("not serve")
        };
        assert_eq!(s.trace_log.as_deref(), Some("d.jsonl"));

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

        // sbs-lint: allow(result-dropped): proven best-effort path — temp-file cleanup
        let _ = std::fs::remove_file(&log);
        // sbs-lint: allow(result-dropped): proven best-effort path — temp-file cleanup
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
