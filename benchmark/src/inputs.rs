//! Inputs, generated from `--seed` during set-up.
//!
//! The program under test receives only what is built here: jobs,
//! request values and protocol lines.  Every stream derives its own
//! sub-seed from the run seed, the stream's name and an index, so the
//! same seed always gives the same inputs and a different seed changes
//! every trace.

use sbs_workload::generator::{Workload, WorkloadBuilder};
use sbs_workload::job::{Job, JobId};
use sbs_workload::system::Month;
use sbs_workload::time::Time;
use serde_json::Value;

/// Machine size every workload uses (the paper's 128-node IA-64).
pub const CAPACITY: u32 = 128;

/// SplitMix64: the op-mix and sampling generator (the benchmark's own,
/// so op sequences do not move if a workspace shim changes).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// Next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// FNV-1a, the digest and stream-name hash.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The seed of stream `stream`, element `index`, under run seed `seed`.
pub fn sub_seed(seed: u64, stream: &str, index: u64) -> u64 {
    let mut rng = Rng::new(
        seed ^ fnv1a(stream.as_bytes()).rotate_left(17) ^ index.wrapping_mul(0xd6e8_feb8_6659_fd93),
    );
    rng.next_u64()
}

/// Parses a pinned month label such as `"10/03"`.
pub fn month(v: &Value) -> Month {
    let label = v.as_str().expect("month label");
    Month::parse(label).unwrap_or_else(|| panic!("unknown month {label:?}"))
}

/// Parses a pinned month list such as `["7/03", "10/03"]`.
pub fn months(v: &Value) -> Vec<Month> {
    v.as_array()
        .expect("month list")
        .iter()
        .map(month)
        .collect()
}

/// Splits `sets` month-sets of work into a whole number of passes over
/// the month list (`depth`) and the span fraction of each month
/// (`span`, at most 1): 0.05 sets is one pass at 5% span, 8 sets is
/// eight full-span passes.
pub fn depth_and_span(sets: f64) -> (u64, f64) {
    let depth = sets.ceil().max(1.0);
    (depth as u64, (sets / depth).clamp(0.01, 1.0))
}

/// One synthetic month at offered load `rho`, `span` of its length.
pub fn month_trace(month: Month, seed: u64, rho: f64, span: f64) -> Workload {
    WorkloadBuilder::month(month)
        .seed(seed)
        .capacity(CAPACITY)
        .target_load(rho)
        .span_scale(span)
        .build()
}

/// The month traces of a replay, `depth` passes over `months`.
pub fn month_traces(
    seed: u64,
    stream: &str,
    months: &[Month],
    rho: f64,
    depth: u64,
    span: f64,
) -> Vec<Workload> {
    let mut out = Vec::new();
    for d in 0..depth {
        for (k, &m) in months.iter().enumerate() {
            let index = d * months.len() as u64 + k as u64;
            out.push(month_trace(m, sub_seed(seed, stream, index), rho, span));
        }
    }
    out
}

/// Stitches traces end to end into one long trace: each part's submit
/// times are offset past the previous part's last arrival, ids are
/// renumbered in submission order, and the window spans from the first
/// part's window start to the last part's window end.
pub fn stitch(parts: Vec<Workload>) -> Workload {
    assert!(!parts.is_empty(), "nothing to stitch");
    let capacity = parts[0].capacity;
    let mut jobs: Vec<Job> = Vec::with_capacity(parts.iter().map(|p| p.jobs.len()).sum());
    let mut offset: Time = 0;
    let mut window = (parts[0].window.0, 0);
    let mut runtime_limit = 0;
    for part in parts {
        assert_eq!(part.capacity, capacity, "stitched parts share one machine");
        let end = part
            .jobs
            .last()
            .map_or(0, |j| j.submit + 1)
            .max(part.window.1);
        window.1 = offset + part.window.1;
        runtime_limit = runtime_limit.max(part.runtime_limit);
        for mut j in part.jobs {
            j.submit += offset;
            j.id = JobId(u32::try_from(jobs.len()).expect("job count fits u32"));
            jobs.push(j);
        }
        offset += end;
    }
    let w = Workload {
        jobs,
        capacity,
        window,
        runtime_limit,
        month: None,
    };
    w.validate().expect("stitched trace is a valid workload");
    w
}

/// One tenant's submit stream: months stitched (starting at a month
/// that depends on the tenant, each with its own sub-seed) until at
/// least `jobs` jobs exist, then cut to exactly `jobs`.
pub fn tenant_stream(seed: u64, stream: &str, tenant: u64, jobs: usize, rho: f64) -> Vec<Job> {
    let mut parts = Vec::new();
    let mut have = 0;
    let mut k = 0u64;
    while have < jobs {
        let month = Month::ALL[((tenant + k) % Month::ALL.len() as u64) as usize];
        let part = month_trace(month, sub_seed(seed, stream, tenant * 64 + k), rho, 1.0);
        have += part.jobs.len();
        parts.push(part);
        k += 1;
    }
    let mut all = stitch(parts).jobs;
    all.truncate(jobs);
    all
}

/// What a fleet-steady op does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Submit the job carried by the op.
    Submit,
    /// Read the tenant's queue and running set.
    Queue,
    /// Cancel the tenant's most recently admitted job.
    Cancel,
    /// Render the fleet metrics text.
    Metrics,
}

impl OpKind {
    /// Index into per-kind tables.
    pub fn index(self) -> usize {
        self as usize
    }
}

/// One pre-generated fleet op, packed (millions are held in memory).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// Submit time (submits only).
    pub submit: Time,
    /// Actual runtime in seconds (submits only).
    pub runtime: u32,
    /// Requested runtime in seconds (submits only).
    pub requested: u32,
    /// User id (submits only).
    pub user: u32,
    /// Nodes (submits only).
    pub nodes: u16,
    /// What to do.
    pub kind: OpKind,
}

/// One tenant's op sequence.
#[derive(Debug, Clone)]
pub struct TenantOps {
    /// Cluster id, zero-padded so lexicographic order is numeric order.
    pub id: String,
    /// Ops in issue order; the first is always a submit, so the tenant
    /// exists before anything reads it.
    pub ops: Vec<Op>,
}

/// Per-mille shares of the op mix `[submit, queue, cancel, metrics]`.
pub type Mix = [u64; 4];

/// Reads a pinned per-mille mix and checks that it sums to 1000.
pub fn mix(v: &Value) -> Mix {
    let m = [
        v["submit"].as_u64().expect("mix.submit"),
        v["queue"].as_u64().expect("mix.queue"),
        v["cancel"].as_u64().expect("mix.cancel"),
        v["metrics"].as_u64().expect("mix.metrics"),
    ];
    assert_eq!(m.iter().sum::<u64>(), 1000, "op mix is given in per-mille");
    m
}

/// The op sequence of every tenant.  A tenant's sequence depends only
/// on the seed and the tenant's index — not on how tenants are later
/// divided among generator threads — which is what makes the final
/// state comparable across thread counts.
pub fn fleet_ops(
    seed: u64,
    tenants: u64,
    ops_per_tenant: usize,
    mix: Mix,
    rho: f64,
) -> Vec<TenantOps> {
    (0..tenants)
        .map(|t| {
            let mut rng = Rng::new(sub_seed(seed, "fleet-mix", t));
            let kinds: Vec<OpKind> = (0..ops_per_tenant)
                .map(|i| {
                    let u = rng.below(1000);
                    if i == 0 || u < mix[0] {
                        OpKind::Submit
                    } else if u < mix[0] + mix[1] {
                        OpKind::Queue
                    } else if u < mix[0] + mix[1] + mix[2] {
                        OpKind::Cancel
                    } else {
                        OpKind::Metrics
                    }
                })
                .collect();
            let submits = kinds.iter().filter(|k| **k == OpKind::Submit).count();
            let mut jobs = tenant_stream(seed, "fleet-jobs", t, submits, rho).into_iter();
            let ops = kinds
                .into_iter()
                .map(|kind| match kind {
                    OpKind::Submit => {
                        let j = jobs.next().expect("one job per submit");
                        Op {
                            submit: j.submit,
                            runtime: u32::try_from(j.runtime).expect("runtime fits u32"),
                            requested: u32::try_from(j.requested).expect("requested fits u32"),
                            user: j.user,
                            nodes: u16::try_from(j.nodes).expect("nodes fit u16"),
                            kind,
                        }
                    }
                    _ => Op {
                        submit: 0,
                        runtime: 0,
                        requested: 0,
                        user: 0,
                        nodes: 0,
                        kind,
                    },
                })
                .collect();
            TenantOps {
                id: format!("t{t:03}"),
                ops,
            }
        })
        .collect()
}

/// The request lines of the TCP workload: single-`submit` lines for
/// `tenants` tenants, merged into one sequence with non-decreasing
/// submit times (the server keeps one clock for all tenants).
#[derive(Debug, Clone)]
pub struct TcpInputs {
    /// Cluster ids.
    pub tenants: Vec<String>,
    /// All lines back to back, each ending in `\n`.
    bytes: Vec<u8>,
    /// End offset of each line in `bytes`.
    ends: Vec<usize>,
    /// Tenant index of each line.
    pub tenant_of: Vec<u16>,
    /// The job each line submits (the in-process probes reuse them).
    pub jobs: Vec<Job>,
}

impl TcpInputs {
    /// Number of request lines.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Line `i`, including its trailing newline.
    pub fn line(&self, i: usize) -> &[u8] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.bytes[start..self.ends[i]]
    }

    /// Line `i` as text without the newline.
    pub fn text(&self, i: usize) -> &str {
        let l = self.line(i);
        std::str::from_utf8(&l[..l.len() - 1]).expect("lines are ASCII")
    }
}

/// Renders one single-job `submit` request line (no newline).
pub fn submit_line(cluster: &str, j: &Job) -> String {
    format!(
        r#"{{"op":"submit","cluster":"{cluster}","nodes":{},"runtime":{},"requested":{},"user":{},"submit":{}}}"#,
        j.nodes, j.runtime, j.requested, j.user, j.submit
    )
}

/// Builds `total` request lines over `tenants` tenants.
pub fn tcp_lines(seed: u64, tenants: u64, total: usize, rho: f64) -> TcpInputs {
    let per_tenant = total.div_ceil(tenants as usize);
    let mut all: Vec<(Time, u16, Job)> = Vec::with_capacity(per_tenant * tenants as usize);
    for t in 0..tenants {
        for j in tenant_stream(seed, "tcp-jobs", t, per_tenant, rho) {
            all.push((j.submit, t as u16, j));
        }
    }
    all.sort_by_key(|(submit, t, j)| (*submit, *t, j.id));
    all.truncate(total);
    let ids: Vec<String> = (0..tenants).map(|t| format!("t{t:03}")).collect();
    let mut inputs = TcpInputs {
        tenants: ids,
        bytes: Vec::with_capacity(total * 112),
        ends: Vec::with_capacity(total),
        tenant_of: Vec::with_capacity(total),
        jobs: Vec::with_capacity(total),
    };
    for (_, t, j) in all {
        inputs
            .bytes
            .extend_from_slice(submit_line(&inputs.tenants[t as usize], &j).as_bytes());
        inputs.bytes.push(b'\n');
        inputs.ends.push(inputs.bytes.len());
        inputs.tenant_of.push(t);
        inputs.jobs.push(j);
    }
    inputs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stitched_traces_are_valid_and_renumbered() {
        let parts = month_traces(42, "test", &[Month::Jul03, Month::Oct03], 0.9, 2, 0.05);
        let counts: Vec<usize> = parts.iter().map(|p| p.jobs.len()).collect();
        let first_window = parts[0].window;
        let w = stitch(parts);
        assert_eq!(w.validate(), Ok(()));
        assert_eq!(w.jobs.len(), counts.iter().sum::<usize>());
        for (i, j) in w.jobs.iter().enumerate() {
            assert_eq!(j.id, JobId(i as u32), "ids follow submission order");
        }
        assert!(w.jobs.windows(2).all(|p| p[0].submit <= p[1].submit));
        assert_eq!(w.window.0, first_window.0);
        assert!(w.window.1 > first_window.1, "the window covers every part");
        assert!(w.jobs.last().expect("jobs").submit >= w.window.1 - w.window.1 / 2);
        assert_eq!(w.capacity, CAPACITY);
    }

    #[test]
    fn the_same_seed_gives_the_same_inputs_and_another_seed_does_not() {
        let a = tenant_stream(42, "s", 3, 500, 0.9);
        let b = tenant_stream(42, "s", 3, 500, 0.9);
        let c = tenant_stream(43, "s", 3, 500, 0.9);
        let d = tenant_stream(42, "s", 4, 500, 0.9);
        assert_eq!(a, b);
        assert_eq!(a.len(), 500);
        assert_ne!(a, c, "the run seed reaches the stream");
        assert_ne!(a, d, "tenants get their own streams");
        assert_ne!(sub_seed(1, "x", 0), sub_seed(1, "y", 0));
        assert_ne!(sub_seed(1, "x", 0), sub_seed(1, "x", 1));
    }

    #[test]
    fn fleet_ops_follow_the_mix_and_start_with_a_submit() {
        let ops = fleet_ops(42, 4, 2_000, [850, 100, 49, 1], 0.9);
        assert_eq!(ops.len(), 4);
        let mut counts = [0usize; 4];
        for t in &ops {
            assert_eq!(t.ops.len(), 2_000);
            assert_eq!(t.ops[0].kind, OpKind::Submit);
            let mut last = 0;
            for op in &t.ops {
                counts[op.kind.index()] += 1;
                if op.kind == OpKind::Submit {
                    assert!(op.submit >= last, "a tenant's submits move forward in time");
                    assert!(op.nodes > 0 && u32::from(op.nodes) <= CAPACITY);
                    assert!(op.requested >= op.runtime && op.runtime > 0);
                    last = op.submit;
                }
            }
        }
        let share = |k: OpKind| counts[k.index()] as f64 / 8_000.0;
        assert!((share(OpKind::Submit) - 0.85).abs() < 0.03, "{counts:?}");
        assert!((share(OpKind::Queue) - 0.10).abs() < 0.02, "{counts:?}");
        assert!((share(OpKind::Cancel) - 0.049).abs() < 0.015, "{counts:?}");
        assert_eq!(ops[1].id, "t001");
    }

    #[test]
    fn tcp_lines_are_time_ordered_and_parse_as_routed_submits() {
        let inputs = tcp_lines(42, 4, 400, 0.9);
        assert_eq!(inputs.len(), 400);
        let mut last = 0;
        for i in 0..inputs.len() {
            assert_eq!(*inputs.line(i).last().expect("byte"), b'\n');
            let (cluster, req) = sbs_service::parse_routed(inputs.text(i)).expect("valid line");
            let t = inputs.tenant_of[i] as usize;
            assert_eq!(cluster.as_deref(), Some(inputs.tenants[t].as_str()));
            match req {
                sbs_service::Request::Submit { submit, nodes, .. } => {
                    let at = submit.expect("lines steer the virtual clock");
                    assert!(at >= last, "line {i} goes back in time");
                    assert_eq!(nodes, inputs.jobs[i].nodes);
                    last = at;
                }
                other => panic!("expected a submit, got {other:?}"),
            }
        }
    }

    #[test]
    fn depth_and_span_split_work_into_whole_passes() {
        assert_eq!(depth_and_span(1.0), (1, 1.0));
        assert_eq!(depth_and_span(0.05), (1, 0.05));
        assert_eq!(depth_and_span(8.0), (8, 1.0));
        let (d, s) = depth_and_span(2.5);
        assert_eq!(d, 3);
        assert!((s - 2.5 / 3.0).abs() < 1e-12);
        assert_eq!(depth_and_span(0.0001), (1, 0.01), "span has a floor");
    }
}
