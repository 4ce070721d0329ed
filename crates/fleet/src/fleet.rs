//! The sharded multi-tenant fleet daemon.
//!
//! A [`Fleet`] maps `cluster` ids onto independent [`Cluster`]s (one
//! scheduler world per tenant) spread across [`SHARDS`] shard locks.  Routing
//! hashes the cluster id with FNV-1a — deterministic across runs, so a
//! given tenant always lands on the same shard — and every operation
//! acquires **exactly one** shard lock; cross-shard aggregates (pending
//! demand, tenant count) live in atomics, so there is no lock-order edge
//! anywhere in the crate.
//!
//! Admission runs each submit through the tenant's [`TenantQuota`]
//! (queue depth, fairshare) before the
//! cluster sees it.  `/metrics` renders per-cluster families with a
//! bounded label cardinality: the first [`FleetConfig::cluster_label_cap`]
//! cluster ids (lexicographic) get their own `cluster="..."` series and
//! everything else aggregates into `cluster="_other"`.
//!
//! Snapshots are per-cluster files, `cluster-<id>.json`, and those
//! files are the one record of which tenants exist: [`Fleet::new`]
//! recovers every tenant with a snapshot in the directory through the
//! single-cluster snapshot path.  The cadence is the fleet's: every
//! `snapshot_every` decisions a tenant's snapshot is rendered under its
//! shard lock and written once the lock drops, before the operation
//! answers, so a tenant is recoverable from its first cadence write on,
//! whichever entry point created it.
//!
//! `sbs serve` is a fleet that normally has one tenant: requests without
//! a `cluster` field go to `default`, which the first such request
//! creates, reads included.
//!
//! ## Observability
//!
//! The fleet is one serving edge in front of many clusters: it mints one
//! correlation id per routed request
//! ([`sbs_service::CorrelationSource`]), hands it down to the tenant so
//! every decision the request triggers carries it, echoes it back as
//! `"corr"`, and journals the request into the one fleet-scoped
//! `sbs-events/v1` journal.  Tenants are bare [`Cluster`]s — no journal
//! or latency histogram of their own — so a tenant's slow
//! decision is captured as an incident, not journaled.  The fleet's
//! [`Edge`] (journal, submit-latency histogram) lives behind one mutex
//! that is **only ever taken with no shard lock held**, preserving the
//! no-lock-order-edge invariant.  `GET /healthz` reports readiness (no
//! poisoned shard lock, not every tenant draining, not overloaded),
//! `GET /statusz` serves fleet-wide cumulative counters (a reader such
//! as `sbs top` works out rates from two of them), per-cluster rows
//! under the same cardinality cap as `/metrics`, and (with
//! `?incidents=1`) every tenant's captured slow decisions, and
//! `GET /metrics?cluster=ID` serves one tenant's own exposition.

use crate::quota::{FleetDemand, TenantQuota};
use sbs_core::PolicySpec;
use sbs_metrics::fairness::jain_index;
use sbs_obs::expo::{Exposition, Sample};
use sbs_obs::{last_corr, Histogram, ObsConfig};
use sbs_service::cluster::{drain_response, incidents_response};
use sbs_service::edge::op_event;
use sbs_service::metrics::{Family, Read, FAMILIES};
use sbs_service::protocol::{error_response, parse_routed, CorrelationSource, Request, SubmitSpec};
use sbs_service::server::{HttpReply, ServerHandler};
use sbs_service::witness::{self, Class, Guard};
use sbs_service::{Cluster, Edge, ServiceConfig, Snapshot};
use sbs_workload::time::Time;
use serde_json::{json, Value};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Shard locks the tenant map is spread over.  `sbs serve` runs every
/// request under its one handler lock, so more shards would buy it no
/// concurrency; in-process callers share these sixteen.
pub const SHARDS: usize = 16;

/// Tenant a request with no `cluster` field goes to, so single-cluster
/// clients never name one.
const DEFAULT_CLUSTER: &str = "default";

/// Fleet-wide configuration; every tenant shares the machine shape,
/// policy, and default quota.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Per-cluster machine size in nodes.
    pub capacity: u32,
    /// The scheduling policy every tenant runs.
    pub spec: PolicySpec,
    /// Hard cap on the number of tenants; submits to new clusters
    /// beyond it get typed errors.
    pub max_clusters: usize,
    /// Admission quota applied to each tenant.
    pub quota: TenantQuota,
    /// Directory for per-cluster snapshots, which also record which
    /// tenants exist; `None` disables persistence.
    pub snapshot_dir: Option<PathBuf>,
    /// The snapshot cadence: a tenant's snapshot is written once N
    /// decision points have passed since its last one, after the
    /// operation's shard lock drops and before it answers (0 = only on
    /// demand and at shutdown).
    pub snapshot_every: u64,
    /// Per-decision wall-clock deadline for search policies (anytime
    /// search); ignored by heuristic policies.
    pub deadline: Option<Duration>,
    /// Directory for per-tenant `sbs-trace/v1` decision logs
    /// (`trace-<cluster>.jsonl`); `None` keeps telemetry in memory.
    pub trace_dir: Option<PathBuf>,
    /// Most cluster ids that get their own `cluster="..."` metric
    /// label; the rest aggregate into `cluster="_other"`.
    pub cluster_label_cap: usize,
    /// The fleet-scoped event journal, and the slow-decision thresholds
    /// every tenant captures incidents under.
    pub obs: ObsConfig,
}

impl FleetConfig {
    /// A config with the workspace defaults.
    pub fn new(capacity: u32, spec: PolicySpec) -> Self {
        FleetConfig {
            capacity,
            spec,
            max_clusters: 4096,
            quota: TenantQuota::default(),
            snapshot_dir: None,
            snapshot_every: 0,
            deadline: None,
            trace_dir: None,
            cluster_label_cap: 32,
            obs: ObsConfig::default(),
        }
    }

    /// Sets the per-tenant admission quota.
    pub fn with_quota(mut self, quota: TenantQuota) -> Self {
        self.quota = quota;
        self
    }

    /// Enables per-cluster snapshots under `dir`.
    pub fn with_snapshot_dir(mut self, dir: PathBuf) -> Self {
        self.snapshot_dir = Some(dir);
        self
    }

    /// Caps the number of tenants.
    pub fn with_max_clusters(mut self, max: usize) -> Self {
        self.max_clusters = max.max(1);
        self
    }

    /// Turns the fleet's event journal on or off.
    pub fn with_events(mut self, on: bool) -> Self {
        self.obs.events = on;
        self
    }

    /// Sets the event-journal and slow-decision configuration.
    pub fn with_obs(mut self, obs: ObsConfig) -> Self {
        self.obs = obs;
        self
    }
}

/// One tenant: a scheduler world plus admission bookkeeping.
struct Tenant {
    cluster: Cluster,
    quota: TenantQuota,
    /// Pending node-seconds as last published into the fleet total.
    pending: u64,
}

impl Tenant {
    fn new(cluster: Cluster, quota: TenantQuota) -> Self {
        Tenant {
            cluster,
            quota,
            pending: 0,
        }
    }
}

#[derive(Default)]
struct Shard {
    tenants: BTreeMap<String, Tenant>,
}

/// Locks a shard (witness class `Shard`), recovering from poisoning
/// (see [`witness::lock`]).
#[cfg_attr(debug_assertions, track_caller)]
fn lock_shard(shard: &Mutex<Shard>) -> Guard<'_, Shard> {
    witness::lock(shard, Class::Shard)
}

/// One tenant's value of one [`FAMILIES`] row a fleet view reads — or,
/// absorbed together, several tenants'.
#[derive(Clone)]
enum Cell {
    Int(u64),
    Hist(Histogram),
}

impl Cell {
    /// The value of `f` for one tenant.
    fn read(f: &Family, c: &Cluster) -> Cell {
        match f.read {
            Read::Histogram(r) => Cell::Hist(r(c.tally()).clone()),
            read => Cell::Int(read.int(c.tally(), c.core())),
        }
    }

    /// The integer, 0 for a histogram (fleet totals carry counters only).
    fn int(&self) -> u64 {
        match self {
            Cell::Int(v) => *v,
            Cell::Hist(_) => 0,
        }
    }

    /// Adds `other` in: integers sum, histograms merge.
    fn absorb(&mut self, other: &Cell) {
        match (self, other) {
            (Cell::Int(a), Cell::Int(b)) => *a += b,
            // Every tenant's tally has the same bounds, so the merge
            // cannot be refused (it would skip, not mis-bin).
            (Cell::Hist(a), Cell::Hist(b)) => {
                a.merge_from(b);
            }
            _ => {}
        }
    }
}

/// Each tenant's admitted-job count and its [`Cell`]s, in row order,
/// keyed by cluster id.
type Stats = BTreeMap<String, (u64, Vec<Cell>)>;

/// The rows of [`FAMILIES`] a fleet view reads, in table order.
fn fleet_rows(reads: impl Fn(&Family) -> bool) -> Vec<&'static Family> {
    FAMILIES.iter().filter(|f| reads(f)).collect()
}

/// Sums every tenant's integer cells, row by row.
fn totals(stats: &Stats, rows: usize) -> Vec<u64> {
    let mut sums = vec![0u64; rows];
    for (_, cells) in stats.values() {
        for (sum, cell) in sums.iter_mut().zip(cells) {
            *sum += cell.int();
        }
    }
    sums
}

/// The multi-tenant fleet daemon.
pub struct Fleet {
    cfg: FleetConfig,
    /// Display name of the policy every tenant runs.
    policy: String,
    shards: Vec<Mutex<Shard>>,
    /// Pending node-seconds summed over every tenant (fairshare input).
    /// Orderings: DESIGN.md, "Fleet atomics".
    total_pending: AtomicU64,
    /// Latest scheduler time observed anywhere (steers virtual clocks).
    /// Orderings: DESIGN.md, "Fleet atomics".
    latest_now: AtomicU64,
    /// Live tenant count (the cluster cap, and the fairshare divisor).
    /// Orderings: DESIGN.md, "Fleet atomics".
    tenant_count: AtomicU64,
    /// Correlation ids, minted once per routed request.
    corr: CorrelationSource,
    /// The fleet's one serving edge: journal and submit-latency
    /// histogram.  Locked only with **no shard lock held** (the
    /// protocol edge journals after dispatch returns), so it adds no
    /// lock-order edge.
    edge: Mutex<Edge>,
}

impl Fleet {
    /// Builds a fleet; recovers every tenant with a `cluster-<id>.json`
    /// snapshot in `cfg.snapshot_dir`.
    pub fn new(cfg: FleetConfig) -> Result<Self, String> {
        let shards = (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect();
        // Read before the edge and the tenants append their meta lines.
        let corr = CorrelationSource::after(last_logged_corr(&cfg)?);
        let edge = Edge::new(&cfg.obs);
        let fleet = Fleet {
            policy: cfg.spec.name(),
            cfg,
            shards,
            total_pending: AtomicU64::new(0),
            latest_now: AtomicU64::new(0),
            tenant_count: AtomicU64::new(0),
            corr,
            edge: Mutex::new(edge),
        };
        // Tenants write snapshots and traces from their first decision.
        for dir in [&fleet.cfg.snapshot_dir, &fleet.cfg.trace_dir]
            .into_iter()
            .flatten()
        {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        if let Some(dir) = &fleet.cfg.snapshot_dir {
            for id in snapshot_ids(dir)? {
                fleet.recover_tenant(&id)?;
            }
        }
        Ok(fleet)
    }

    /// Number of live tenants.
    pub fn cluster_count(&self) -> u64 {
        self.tenant_count.load(Ordering::Acquire)
    }

    /// Latest scheduler time observed across all tenants.
    pub fn now(&self) -> Time {
        self.latest_now.load(Ordering::Acquire)
    }

    #[expect(
        clippy::cast_possible_truncation,
        reason = "the remainder is below shards.len(), a usize"
    )]
    fn shard_index(&self, cluster: &str) -> usize {
        // FNV-1a: deterministic across runs and processes, unlike the
        // std hasher, so a tenant always maps to the same shard.
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        for b in cluster.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
        (h % self.shards.len() as u64) as usize
    }

    #[cfg_attr(debug_assertions, track_caller)]
    fn shard_for(&self, cluster: &str) -> Option<Guard<'_, Shard>> {
        // Not `.map(lock_shard)`: through `map` the witness would
        // record a site inside `core`, not the caller.
        let shard = self.shards.get(self.shard_index(cluster))?;
        Some(lock_shard(shard))
    }

    fn tenant_config(&self, cluster: &str) -> ServiceConfig {
        let mut c = ServiceConfig::new(self.cfg.capacity, self.cfg.spec.clone());
        c.deadline = self.cfg.deadline;
        if let Some(dir) = &self.cfg.snapshot_dir {
            c.snapshot_path = Some(dir.join(format!("cluster-{cluster}.json")));
        }
        if let Some(dir) = &self.cfg.trace_dir {
            c.trace_log = Some(dir.join(format!("trace-{cluster}.jsonl")));
        }
        // A cluster reads only the slow-decision thresholds and the time
        // mode; the journal settings configure the fleet's own edge.
        c.obs = ObsConfig {
            event_log: None,
            ..self.cfg.obs.clone()
        };
        c
    }

    /// Restores one tenant from its snapshot file through the
    /// single-cluster snapshot recovery path.
    fn recover_tenant(&self, cluster: &str) -> Result<(), String> {
        let recovered = Cluster::new(self.tenant_config(cluster))?;
        let Some(mut shard) = self.shard_for(cluster) else {
            return Err("internal: no shard for cluster".into());
        };
        let mut tenant = Tenant::new(recovered, self.cfg.quota);
        self.tenant_count.fetch_add(1, Ordering::AcqRel);
        self.publish_tenant(&mut tenant);
        shard.tenants.insert(cluster.to_string(), tenant);
        Ok(())
    }

    /// Re-publishes a tenant's pending demand and scheduler time into
    /// the fleet-wide atomics (call after any cluster mutation, with the
    /// tenant's shard lock held).
    fn publish_tenant(&self, t: &mut Tenant) {
        let (_, pending) = t.cluster.queue_demand();
        if pending > t.pending {
            self.total_pending
                .fetch_add(pending - t.pending, Ordering::AcqRel);
        } else {
            self.total_pending
                .fetch_sub(t.pending - pending, Ordering::AcqRel);
        }
        t.pending = pending;
        self.latest_now.fetch_max(t.cluster.now(), Ordering::AcqRel);
    }

    /// The tenant quota's verdict on one job, against the cluster's
    /// current queue and the fleet-wide pending demand.
    fn admit(&self, quota: &TenantQuota, c: &Cluster, spec: &SubmitSpec) -> Result<(), String> {
        let (depth, pending) = c.queue_demand();
        let requested = spec.requested.unwrap_or(spec.runtime).max(spec.runtime);
        let add = u64::from(spec.nodes).saturating_mul(requested);
        let fleet = FleetDemand {
            total_pending: self.total_pending.load(Ordering::Acquire),
            tenants: self.tenant_count.load(Ordering::Acquire),
        };
        quota
            .admit(depth, pending, add, fleet)
            .map_err(|denied| denied.to_string())
    }

    /// Runs `f` on the named tenant under correlation id `corr`,
    /// creating the tenant first when `create` is set (submissions and
    /// un-routed reads create tenants; routed reads on unknown clusters
    /// are typed errors).
    ///
    /// A hit takes the shard lock once and runs `f` under it.  Only a
    /// miss drops the lock: `Cluster::new` replays any on-disk snapshot,
    /// and file I/O under the shard lock would stall every tenant on the
    /// shard, so the tenant is built unlocked and the insert re-checks
    /// under the lock in case a concurrent submit created it meanwhile.
    fn with_tenant<R>(
        &self,
        cluster: &str,
        create: bool,
        corr: u64,
        f: impl FnOnce(&Fleet, &mut Tenant) -> R,
    ) -> Result<R, String> {
        let Some(lock) = self.shards.get(self.shard_index(cluster)) else {
            return Err("internal: no shard for cluster".into());
        };
        let mut shard = lock_shard(lock);
        if let Some(tenant) = shard.tenants.get_mut(cluster) {
            let (out, due) = self.run_on(tenant, corr, f);
            drop(shard);
            write_due(due);
            return Ok(out);
        }
        drop(shard);
        if !create {
            return Err(format!("unknown cluster {cluster:?}"));
        }
        if self.tenant_count.load(Ordering::Acquire) >= self.cfg.max_clusters as u64 {
            return Err(format!(
                "cluster cap reached ({} tenants); {cluster:?} not admitted",
                self.cfg.max_clusters
            ));
        }
        let fresh = Cluster::new(self.tenant_config(cluster))?;
        let mut shard = lock_shard(lock);
        let tenant = match shard.tenants.entry(cluster.to_string()) {
            Entry::Vacant(slot) => {
                self.tenant_count.fetch_add(1, Ordering::AcqRel);
                slot.insert(Tenant::new(fresh, self.cfg.quota))
            }
            // Lost the race: `fresh` is dropped after the lock is.
            Entry::Occupied(slot) => slot.into_mut(),
        };
        let (out, due) = self.run_on(tenant, corr, f);
        drop(shard);
        write_due(due);
        Ok(out)
    }

    /// Runs `f` on `t` (whose shard lock the caller holds) under
    /// correlation id `corr`, re-publishes its demand, and returns the
    /// answer with any snapshot the cadence now owes, for the caller to
    /// write once the lock drops.
    fn run_on<R>(
        &self,
        t: &mut Tenant,
        corr: u64,
        f: impl FnOnce(&Fleet, &mut Tenant) -> R,
    ) -> (R, Option<(Snapshot, PathBuf)>) {
        t.cluster.set_correlation(corr);
        let out = f(self, t);
        t.cluster.set_correlation(0);
        self.publish_tenant(t);
        let due = self.due_snapshot(&mut t.cluster);
        (out, due)
    }

    /// The snapshot `c` owes under the cadence (`snapshot_every`
    /// decisions since its last render), rendered in memory under the
    /// caller's shard lock; the caller writes it with [`write_due`]
    /// once the lock drops, before it answers.
    fn due_snapshot(&self, c: &mut Cluster) -> Option<(Snapshot, PathBuf)> {
        let every = self.cfg.snapshot_every;
        if every == 0 || c.unsnapshotted() < every {
            return None;
        }
        c.render_snapshot()
    }

    /// Dispatches one routed request at scheduler time `at`, minting a
    /// fresh correlation id at the fleet edge; the id is threaded into
    /// every decision the request triggers inside the tenant and echoed
    /// back as `"corr"`.  Returns the response and whether the fleet
    /// should shut down.  Takes no lock but the tenant's shard lock.
    pub fn handle_routed(&self, cluster: Option<&str>, req: Request, at: Time) -> (Value, bool) {
        let corr = self.corr.mint();
        let (mut v, stop) = self.dispatch_routed(cluster, req, at, corr);
        if let Value::Object(map) = &mut v {
            map.insert("corr".into(), Value::from(corr));
        }
        (v, stop)
    }

    /// The op dispatch proper, running under a caller-minted
    /// correlation id.
    fn dispatch_routed(
        &self,
        cluster: Option<&str>,
        req: Request,
        at: Time,
        corr: u64,
    ) -> (Value, bool) {
        let id = cluster.unwrap_or(DEFAULT_CLUSTER);
        let answer = |out: Result<Value, String>| out.unwrap_or_else(|e| error_response(&e));
        match req {
            // Tenant-scoped ops are the cluster's own bodies; the fleet
            // adds quota admission.
            req @ (Request::Submit { .. } | Request::SubmitBatch { .. }) => {
                let out = self.with_tenant(id, true, corr, |fleet, t| {
                    t.cluster
                        .handle_admitted(req, at, |c, spec| fleet.admit(&t.quota, c, spec))
                        .0
                });
                (answer(out), false)
            }
            req @ (Request::Cancel { .. } | Request::Queue) => {
                let out = self.with_tenant(id, cluster.is_none(), corr, |_, t| {
                    t.cluster.handle(req, at).0
                });
                (answer(out), false)
            }
            req @ (Request::Drain | Request::Incidents) if cluster.is_some() => {
                let out = self.with_tenant(id, false, corr, |_, t| t.cluster.handle(req, at).0);
                (answer(out.map(|v| tag_incidents(v, id))), false)
            }
            Request::Metrics => {
                self.poll_all(at);
                (json!({ "ok": true, "text": self.metrics_text() }), false)
            }
            Request::Incidents => {
                self.poll_all(at);
                let (items, captured) = self.all_incidents();
                (incidents_response(items, captured), false)
            }
            Request::Drain => {
                let (done, left) = self.drain_all(corr);
                (drain_response(done, left, self.now()), false)
            }
            Request::Snapshot => match self.save_snapshots() {
                Ok(Some(dir)) => (
                    json!({ "ok": true, "path": dir.display().to_string() }),
                    false,
                ),
                Ok(None) => (error_response("no snapshot directory configured"), false),
                Err(e) => (error_response(&e), false),
            },
            Request::Shutdown => {
                let saved = self.save_snapshots();
                let mut v = json!({ "ok": true });
                if let (Value::Object(map), Ok(Some(dir))) = (&mut v, saved) {
                    map.insert("path".into(), Value::from(dir.display().to_string()));
                }
                (v, true)
            }
        }
    }

    /// Advances every tenant to time `at` (departure replay).
    pub fn poll_all(&self, at: Time) {
        let mut due = Vec::new();
        for shard in &self.shards {
            let mut s = lock_shard(shard);
            for t in s.tenants.values_mut() {
                t.cluster.poll_to(at);
                self.publish_tenant(t);
                due.extend(self.due_snapshot(&mut t.cluster));
            }
        }
        self.latest_now.fetch_max(at, Ordering::AcqRel);
        write_due(due);
    }

    /// Drains every tenant under request correlation id `corr`; returns
    /// summed `(completed, leftover)`.
    pub fn drain_all(&self, corr: u64) -> (usize, usize) {
        let (mut completed, mut leftover) = (0usize, 0usize);
        let mut due = Vec::new();
        for shard in &self.shards {
            let mut s = lock_shard(shard);
            for t in s.tenants.values_mut() {
                t.cluster.set_correlation(corr);
                let (c, l) = t.cluster.drain();
                t.cluster.set_correlation(0);
                completed += c;
                leftover += l;
                self.publish_tenant(t);
                due.extend(self.due_snapshot(&mut t.cluster));
            }
        }
        write_due(due);
        (completed, leftover)
    }

    /// Locks the fleet's edge (witness class `Edge`), recovering from
    /// poisoning.  A leaf lock: never taken with a shard lock held.
    #[cfg_attr(debug_assertions, track_caller)]
    fn edge(&self) -> Guard<'_, Edge> {
        witness::lock(&self.edge, Class::Edge)
    }

    /// Every tenant's captured incidents (tagged with their cluster id)
    /// plus the fleet-lifetime capture count.
    fn all_incidents(&self) -> (Vec<Value>, u64) {
        let mut items = Vec::new();
        let mut captured = 0u64;
        for shard in &self.shards {
            let s = lock_shard(shard);
            for (id, t) in &s.tenants {
                let mut tagged = t.cluster.incidents_value();
                tagged.iter_mut().for_each(|i| tag(i, id));
                items.extend(tagged);
                captured += t.cluster.tally().incidents;
            }
        }
        (items, captured)
    }

    /// Liveness/readiness JSON for `GET /healthz`.  Ready means all
    /// three of:
    ///
    /// - every shard lock is healthy: [`lock_shard`] recovers from
    ///   poisoning, so a poisoned shard still serves, but it signals a
    ///   panic mid-update;
    /// - not `draining`: some tenant still admits work (a fleet with no
    ///   tenant yet admits the first);
    /// - not `overloaded`: the summed queue depth is at most 8 ×
    ///   capacity × tenants.
    ///
    /// Not ready answers HTTP 503, so an operator or balancer can
    /// rotate the instance out.
    pub fn healthz_value(&self) -> Value {
        let shards = self.shards.len() as u64;
        let poisoned = self.shards.iter().filter(|s| s.is_poisoned()).count() as u64;
        let (mut tenants, mut draining, mut depth) = (0u64, 0u64, 0u64);
        for shard in &self.shards {
            let s = lock_shard(shard);
            for t in s.tenants.values() {
                tenants += 1;
                draining += u64::from(t.cluster.draining());
                depth += t.cluster.queue_demand().0 as u64;
            }
        }
        let draining = tenants > 0 && draining == tenants;
        let overloaded = depth > 8 * u64::from(self.cfg.capacity) * tenants;
        let ready = poisoned == 0 && !draining && !overloaded;
        json!({
            "ok": ready,
            "ready": ready,
            "draining": draining,
            "overloaded": overloaded,
            "shards": shards,
            "shards_poisoned": poisoned,
            "clusters": self.cluster_count(),
            "now": Fleet::now(self),
        })
    }

    /// Operational JSON for `GET /statusz`: fleet-wide cumulative
    /// counters, per-cluster rows under the metrics cardinality cap,
    /// and (with `include_incidents`) every tenant's captured incidents.
    pub fn statusz_value(&self, include_incidents: bool) -> Value {
        let rows = fleet_rows(|f| f.total_key.is_some() || f.row_key.is_some());
        let stats = self.collect_stats(&rows);
        let mut per_cluster = Vec::new();
        self.for_each_label(&stats, |id, cells| {
            let mut row = serde_json::Map::new();
            row.insert("cluster".into(), Value::from(id));
            for (f, cell) in rows.iter().zip(cells) {
                if let Some(key) = f.row_key {
                    row.insert(key.into(), Value::from(cell.int()));
                }
            }
            per_cluster.push(Value::Object(row));
        });
        let mut v = json!({
            "schema": "sbs-fleet-statusz/v1",
            "now": Fleet::now(self),
            "policy": self.policy.as_str(),
            "capacity": self.cfg.capacity,
            "shards": self.shards.len() as u64,
            "clusters": stats.len() as u64,
            "per_cluster": Value::Array(per_cluster),
        });
        if let Value::Object(m) = &mut v {
            for (f, total) in rows.iter().zip(totals(&stats, rows.len())) {
                if let Some(key) = f.total_key {
                    m.insert(key.into(), Value::from(total));
                }
            }
        }
        self.edge().status_into(&mut v);
        if let (true, Value::Object(m)) = (include_incidents, &mut v) {
            m.insert("incidents".into(), Value::Array(self.all_incidents().0));
        }
        v
    }

    /// One pass over every shard: each tenant's admitted-job count and
    /// its values of `rows`, keyed by id (shared by `/metrics` and
    /// `/statusz`).
    fn collect_stats(&self, rows: &[&Family]) -> Stats {
        let mut stats = Stats::new();
        for shard in &self.shards {
            let s = lock_shard(shard);
            for (id, t) in &s.tenants {
                let cells = rows.iter().map(|f| Cell::read(f, &t.cluster)).collect();
                stats.insert(id.clone(), (t.cluster.tally().submitted, cells));
            }
        }
        stats
    }

    /// Visits per-cluster cells under the label cap: the first
    /// `cluster_label_cap` ids (lexicographic, hence deterministic) as
    /// themselves, everything past the cap folded into one `_other`.
    fn for_each_label(&self, stats: &Stats, mut visit: impl FnMut(&str, &[Cell])) {
        let cap = self.cfg.cluster_label_cap.max(1);
        let mut other: Option<Vec<Cell>> = None;
        for (i, (id, (_, cells))) in stats.iter().enumerate() {
            if i < cap {
                visit(id, cells);
            } else if let Some(folded) = &mut other {
                folded.iter_mut().zip(cells).for_each(|(f, c)| f.absorb(c));
            } else {
                other = Some(cells.clone());
            }
        }
        if let Some(folded) = other {
            visit("_other", &folded);
        }
    }

    /// The fleet `/metrics` exposition: fleet-wide families plus
    /// per-cluster series under the cardinality cap.
    pub fn metrics_text(&self) -> String {
        let rows = fleet_rows(|f| f.cluster.is_some() || f.fleet.is_some());
        let stats = self.collect_stats(&rows);
        let mut e = Exposition::new();
        e.push(
            "sbs_fleet_shards",
            "Shard locks the tenant map is spread over.",
            Vec::new(),
            Sample::Gauge(self.shards.len().to_string()),
        );
        e.push(
            "sbs_fleet_clusters",
            "Live tenants.",
            Vec::new(),
            Sample::Gauge(stats.len().to_string()),
        );
        for (f, total) in rows.iter().zip(totals(&stats, rows.len())) {
            if let Some((name, help)) = f.fleet {
                e.push(name, help, Vec::new(), f.read.with(total));
            }
        }
        e.push(
            "sbs_fleet_pending_node_seconds",
            "Pending node-seconds summed over all tenants (fairshare input).",
            Vec::new(),
            Sample::Gauge(self.total_pending.load(Ordering::Acquire).to_string()),
        );
        let shares: Vec<f64> = stats.values().map(|(s, _)| *s as f64).collect();
        e.push(
            "sbs_fleet_fairness_jain",
            "Jain index over per-tenant admitted-job counts (1 = even).",
            Vec::new(),
            Sample::Gauge(format!("{:.6}", jain_index(&shares))),
        );
        self.for_each_label(&stats, |id, cells| {
            for (f, cell) in rows.iter().zip(cells) {
                let Some((name, help)) = f.cluster else {
                    continue;
                };
                let sample = match cell {
                    Cell::Int(v) => f.read.with(*v),
                    // A tenant's histogram series appears with its
                    // first observation.
                    Cell::Hist(h) if h.count() > 0 => Sample::Histogram(h),
                    Cell::Hist(_) => continue,
                };
                e.push(name, help, vec![("cluster".into(), id.into())], sample);
            }
        });
        e.render()
    }

    /// Writes every tenant's snapshot.  Returns the snapshot directory,
    /// or `None` when persistence is disabled.
    pub fn save_snapshots(&self) -> Result<Option<PathBuf>, String> {
        let Some(dir) = self.cfg.snapshot_dir.clone() else {
            return Ok(None);
        };
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let mut writes = Vec::new();
        for shard in &self.shards {
            let mut s = lock_shard(shard);
            for t in s.tenants.values_mut() {
                // Render in memory only: the file writes happen after
                // the shard lock drops, so a slow disk never stalls
                // every request routed to this shard.
                writes.extend(t.cluster.render_snapshot());
            }
        }
        for (snap, path) in writes {
            snap.save(&path)
                .map_err(|e| format!("snapshot write failed: {e}"))?;
        }
        Ok(Some(dir))
    }

    /// One tenant's own `/metrics` exposition (`GET /metrics?cluster=ID`).
    pub(crate) fn cluster_metrics_text(&self, cluster: &str) -> Result<String, String> {
        let shard = self
            .shard_for(cluster)
            .ok_or("internal: no shard for cluster")?;
        shard
            .tenants
            .get(cluster)
            .map(|t| t.cluster.metrics_text())
            .ok_or_else(|| format!("unknown cluster {cluster:?}"))
    }
}

/// Writes cadence snapshots rendered under a shard lock, once it has
/// dropped.
fn write_due(due: impl IntoIterator<Item = (Snapshot, PathBuf)>) {
    for (snap, path) in due {
        #[expect(
            clippy::let_underscore_must_use,
            reason = "proven best-effort path — a failed periodic snapshot must not fail the request; the next due decision retries"
        )]
        let _ = snap.save(&path);
    }
}

/// Tags one captured incident with the cluster id it came from.
fn tag(incident: &mut Value, id: &str) {
    if let Value::Object(m) = incident {
        m.insert("cluster".into(), Value::from(id));
    }
}

/// Tags every incident in a tenant's answer with its cluster id (an
/// answer without incidents passes through).
fn tag_incidents(mut answer: Value, id: &str) -> Value {
    if let Value::Object(m) = &mut answer {
        if let Some(Value::Array(items)) = m.get_mut("incidents") {
            items.iter_mut().for_each(|i| tag(i, id));
        }
    }
    answer
}

/// The tenant ids with a `cluster-<id>.json` snapshot in `dir`, sorted;
/// a write's leftover temp file (`cluster-<id>.json.<pid>.<n>.tmp`) is
/// not one.  A file whose id is not a valid cluster id is an error.
fn snapshot_ids(dir: &std::path::Path) -> Result<Vec<String>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut ids = Vec::new();
    for entry in entries {
        let name = entry.map_err(|e| e.to_string())?.file_name();
        let name = name.to_string_lossy();
        if let Some(id) = name
            .strip_prefix("cluster-")
            .and_then(|n| n.strip_suffix(".json"))
        {
            sbs_service::protocol::validate_cluster_id(id)
                .map_err(|e| format!("snapshot {name:?}: {e}"))?;
            ids.push(id.to_string());
        }
    }
    ids.sort();
    Ok(ids)
}

/// The largest correlation id the logs this fleet appends to already
/// hold: the event journal (and its rotated predecessor) and every
/// tenant's decision trace.  Correlation ids only label requests in
/// those logs; no scheduling state reads them.
fn last_logged_corr(cfg: &FleetConfig) -> Result<u64, String> {
    let mut logs = Vec::new();
    if let Some(path) = &cfg.obs.event_log {
        let mut rotated = path.clone().into_os_string();
        rotated.push(".1");
        logs.extend([path.clone(), rotated.into()]);
    }
    if let Some(dir) = cfg.trace_dir.as_ref().filter(|d| d.is_dir()) {
        let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        for entry in entries {
            let path = entry.map_err(|e| format!("{}: {e}", dir.display()))?.path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name.starts_with("trace-") && name.ends_with(".jsonl") {
                logs.push(path);
            }
        }
    }
    Ok(logs.iter().map(|p| last_corr(p)).max().unwrap_or(0))
}

impl ServerHandler for Fleet {
    fn poll_to(&mut self, at: Time) {
        Fleet::poll_all(self, at);
    }

    fn handle_line(&mut self, line: &str, at: Time) -> (Value, bool) {
        let (scope, kind, out) = match parse_routed(line) {
            Ok((cluster, req)) => {
                let kind = op_event(&req);
                let out = self.handle_routed(cluster.as_deref(), req, at);
                (cluster, kind, out)
            }
            // A malformed line is a failed request of its own kind.
            Err(e) => (None, ("invalid", false), (error_response(&e), false)),
        };
        // Journal after dispatch: every shard lock is released by now,
        // so the edge stays a leaf lock.
        self.edge().journal_request(
            scope.as_deref().unwrap_or("fleet"),
            kind,
            &out.0,
            at,
            ("clusters", self.cluster_count()),
        );
        out
    }

    fn now(&self) -> Time {
        Fleet::now(self)
    }

    /// `/healthz` answers 503 when not ready; `/statusz?incidents=1`
    /// inlines the incidents; `/metrics?cluster=ID` is that tenant's
    /// own exposition (404 for an unknown one).
    fn http_get(&mut self, path: &str, at: Time) -> HttpReply {
        ServerHandler::poll_to(self, at);
        let (route, query) = path.split_once('?').unwrap_or((path, ""));
        let mut params = query.split('&');
        match route {
            "/healthz" => {
                let v = self.healthz_value();
                let ready = v.get("ok") == Some(&Value::Bool(true));
                HttpReply::json(if ready { 200 } else { 503 }, &v)
            }
            "/statusz" => {
                let with_incidents = params.any(|kv| kv == "incidents=1");
                HttpReply::json(200, &self.statusz_value(with_incidents))
            }
            _ => match params.find_map(|kv| kv.strip_prefix("cluster=")) {
                None => HttpReply::metrics(self.metrics_text()),
                Some(id) => match self.cluster_metrics_text(id) {
                    Ok(text) => HttpReply::metrics(text),
                    Err(e) => HttpReply::json(404, &error_response(&e)),
                },
            },
        }
    }

    fn observe_request_ns(&mut self, line: &str, ns: u64) {
        self.edge().observe_request_ns(line, ns);
    }

    fn on_shutdown(&mut self) {
        #[expect(
            clippy::let_underscore_must_use,
            reason = "proven best-effort path — shutdown must complete even when the final snapshot write fails"
        )]
        let _ = self.save_snapshots();
        for shard in &self.shards {
            for t in lock_shard(shard).tenants.values_mut() {
                #[expect(
                    clippy::let_underscore_must_use,
                    reason = "proven best-effort path — a trace-sink flush failure must not block shutdown"
                )]
                let _ = t.cluster.flush_traces();
            }
        }
        self.edge().journal.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbs_obs::TimeMode;
    use sbs_workload::time::HOUR;

    fn fleet() -> Fleet {
        Fleet::new(FleetConfig::new(8, PolicySpec::FcfsBackfill)).expect("fleet")
    }

    /// The fleet journal's `(emitted, filtered)` counters.
    fn journal_counts(f: &Fleet) -> (u64, u64) {
        let edge = f.edge();
        (edge.journal.emitted(), edge.journal.filtered())
    }

    /// Submits an hour-long job into `cluster`, asserting it is admitted.
    fn admitted(f: &Fleet, cluster: &str, nodes: u32, at: Time) {
        let (v, _) = f.handle_routed(Some(cluster), submit(nodes, at), at);
        assert_eq!(v["ok"], true, "{v}");
    }

    fn submit(nodes: u32, at: Time) -> Request {
        Request::Submit {
            nodes,
            runtime: HOUR,
            requested: None,
            user: 0,
            submit: Some(at),
        }
    }

    #[test]
    fn routing_isolates_tenants_and_ids_are_per_cluster() {
        let f = fleet();
        let (v, _) = f.handle_routed(Some("alpha"), submit(4, 10), 10);
        assert_eq!(v["ok"], true);
        assert_eq!(v["id"].as_u64(), Some(0));
        let (v, _) = f.handle_routed(Some("beta"), submit(4, 10), 10);
        assert_eq!(v["id"].as_u64(), Some(0), "beta numbers independently");
        let (v, _) = f.handle_routed(Some("alpha"), submit(2, 20), 20);
        assert_eq!(v["id"].as_u64(), Some(1));
        assert_eq!(f.cluster_count(), 2);
        // Queue views are per-tenant.
        let (v, _) = f.handle_routed(Some("alpha"), Request::Queue, 20);
        assert_eq!(v["running"].as_array().map(Vec::len), Some(2));
        let (v, _) = f.handle_routed(Some("beta"), Request::Queue, 20);
        assert_eq!(v["running"].as_array().map(Vec::len), Some(1));
    }

    #[test]
    fn unrouted_requests_use_the_default_cluster() {
        let f = fleet();
        let (v, _) = f.handle_routed(None, submit(4, 0), 0);
        assert_eq!(v["ok"], true);
        let (v, _) = f.handle_routed(Some("default"), Request::Queue, 0);
        assert_eq!(v["running"].as_array().map(Vec::len), Some(1));
    }

    #[test]
    fn unknown_clusters_are_typed_errors_for_reads() {
        let f = fleet();
        for req in [Request::Queue, Request::Cancel { id: 0 }] {
            let (v, stop) = f.handle_routed(Some("ghost"), req, 0);
            assert!(!stop);
            assert_eq!(v["ok"], false);
            assert!(
                v["error"]
                    .as_str()
                    .unwrap_or_default()
                    .contains("unknown cluster"),
                "{v}"
            );
        }
        assert_eq!(f.cluster_count(), 0, "reads never create tenants");
    }

    #[test]
    fn concurrent_first_submits_create_one_tenant() {
        // Eight submits race to create the same brand-new tenant: each
        // misses, builds a cluster unlocked, and all but one lose the
        // re-checked insert, yet every job lands in the one tenant.
        let f = fleet();
        let start = std::sync::Barrier::new(8);
        let ids: Vec<u64> = std::thread::scope(|s| {
            let racers: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        let (v, _) = f.handle_routed(Some("fresh"), submit(1, 0), 0);
                        assert_eq!(v["ok"], true, "{v}");
                        v["id"].as_u64().expect("admitted id")
                    })
                })
                .collect();
            racers
                .into_iter()
                .map(|r| r.join().expect("racer"))
                .collect()
        });
        assert_eq!(f.cluster_count(), 1);
        let distinct: std::collections::BTreeSet<u64> = ids.into_iter().collect();
        assert_eq!(distinct.len(), 8, "{distinct:?}");
    }

    #[test]
    fn cluster_cap_rejects_new_tenants() {
        let f = Fleet::new(FleetConfig::new(8, PolicySpec::FcfsBackfill).with_max_clusters(2))
            .expect("fleet");
        admitted(&f, "a", 1, 0);
        admitted(&f, "b", 1, 0);
        let (v, _) = f.handle_routed(Some("c"), submit(1, 0), 0);
        assert_eq!(v["ok"], false);
        assert!(v["error"]
            .as_str()
            .unwrap_or_default()
            .contains("cluster cap"));
        // Existing tenants keep working.
        admitted(&f, "a", 1, 5);
    }

    #[test]
    fn quotas_reject_with_typed_errors_and_count_rejections() {
        let quota = TenantQuota {
            max_queue: 1,
            ..Default::default()
        };
        let f = Fleet::new(FleetConfig::new(8, PolicySpec::FcfsBackfill).with_quota(quota))
            .expect("fleet");
        // Fill the machine, then one waiter is allowed, the next is not.
        admitted(&f, "a", 8, 0);
        admitted(&f, "a", 8, 1);
        let (v, _) = f.handle_routed(Some("a"), submit(8, 2), 2);
        assert_eq!(v["ok"], false);
        assert!(v["error"]
            .as_str()
            .unwrap_or_default()
            .contains("queue depth"));
        let text = f.metrics_text();
        assert!(text.contains("sbs_fleet_rejected_total 1"), "{text}");
    }

    #[test]
    fn fairshare_caps_a_hog_once_the_fleet_has_demand() {
        let quota = TenantQuota {
            fair_slack_percent: 150,
            ..Default::default()
        };
        let f = Fleet::new(FleetConfig::new(8, PolicySpec::FcfsBackfill).with_quota(quota))
            .expect("fleet");
        // Tenant "greedy" stacks waiting demand; tenant "modest" holds a
        // little.  With two tenants, greedy's entitlement is half
        // the fleet's pending demand (×1.5 slack).
        admitted(&f, "modest", 8, 0);
        admitted(&f, "modest", 4, 0);
        admitted(&f, "greedy", 8, 0);
        let mut rejected = false;
        for _ in 0..8 {
            let (v, _) = f.handle_routed(Some("greedy"), submit(8, 0), 0);
            if v["ok"] == Value::Bool(false) {
                assert!(
                    v["error"]
                        .as_str()
                        .unwrap_or_default()
                        .contains("fairshare"),
                    "{v}"
                );
                rejected = true;
                break;
            }
        }
        assert!(rejected, "the hog was never capped");
        // The modest tenant still submits fine.
        admitted(&f, "modest", 1, 1);
    }

    #[test]
    fn batched_submit_routes_and_reports_per_job() {
        let f = fleet();
        let jobs = vec![
            SubmitSpec {
                nodes: 4,
                runtime: HOUR,
                requested: None,
                user: 0,
                submit: Some(5),
            },
            SubmitSpec {
                nodes: 9,
                runtime: HOUR,
                requested: None,
                user: 0,
                submit: Some(5),
            },
        ];
        let (v, stop) = f.handle_routed(Some("alpha"), Request::SubmitBatch { jobs }, 5);
        assert!(!stop);
        assert_eq!(v["accepted"].as_u64(), Some(1));
        assert_eq!(v["results"][0]["ok"], true);
        assert_eq!(v["results"][1]["ok"], false);
    }

    #[test]
    fn metrics_cap_folds_overflow_into_other() {
        let f = Fleet::new(FleetConfig::new(8, PolicySpec::FcfsBackfill).with_max_clusters(64))
            .map(|mut f| {
                f.cfg.cluster_label_cap = 2;
                f
            })
            .expect("fleet");
        for id in ["a", "b", "c", "d"] {
            admitted(&f, id, 2, 0);
        }
        let text = f.metrics_text();
        sbs_obs::expo::validate(&text).expect("fleet exposition validates");
        assert!(
            text.contains("sbs_cluster_submitted_total{cluster=\"a\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("sbs_cluster_submitted_total{cluster=\"b\"} 1"),
            "{text}"
        );
        assert!(!text.contains("cluster=\"c\""), "past the cap: {text}");
        assert!(
            text.contains("sbs_cluster_submitted_total{cluster=\"_other\"} 2"),
            "{text}"
        );
        assert!(text.contains("sbs_fleet_clusters 4"));
        assert!(text.contains("sbs_fleet_submitted_total 4"));
        assert!(text.contains("sbs_fleet_fairness_jain 1.000000"));
    }

    #[test]
    fn routed_responses_carry_dense_correlation_ids() {
        let f = fleet();
        let (v, _) = f.handle_routed(Some("alpha"), submit(4, 0), 0);
        assert_eq!(v["corr"].as_u64(), Some(1));
        let (v, _) = f.handle_routed(Some("beta"), Request::Queue, 0);
        assert_eq!(v["corr"].as_u64(), Some(2), "errors are correlated too");
        assert_eq!(v["ok"], false);
        let (v, _) = f.handle_routed(None, Request::Metrics, 0);
        assert_eq!(v["corr"].as_u64(), Some(3));
    }

    #[test]
    fn incidents_aggregate_across_tenants_with_cluster_tags() {
        let f = Fleet::new(
            FleetConfig::new(8, PolicySpec::FcfsBackfill)
                .with_obs(ObsConfig::default().with_slow_thresholds(Some(0), None)),
        )
        .expect("fleet");
        admitted(&f, "alpha", 4, 0);
        admitted(&f, "beta", 2, 0);
        // Fleet-wide: both tenants' captures, tagged.
        let (v, _) = f.handle_routed(None, Request::Incidents, 0);
        assert_eq!(v["ok"], true);
        assert!(v["captured"].as_u64().unwrap_or(0) >= 2, "{v}");
        let items = v["incidents"].as_array().expect("incident array");
        let mut clusters: Vec<_> = items.iter().filter_map(|i| i["cluster"].as_str()).collect();
        clusters.sort_unstable();
        clusters.dedup();
        assert_eq!(clusters, ["alpha", "beta"], "{v}");
        // Per-cluster: only that tenant's captures, decisions carry the
        // request's correlation id.
        let (v, _) = f.handle_routed(Some("alpha"), Request::Incidents, 0);
        let items = v["incidents"].as_array().expect("incident array");
        assert!(!items.is_empty());
        assert!(items.iter().all(|i| i["cluster"] == "alpha"), "{v}");
        assert!(
            items
                .iter()
                .all(|i| i["decision"]["corr"].as_u64().is_some_and(|c| c > 0)),
            "decisions carry the minting request's corr: {v}"
        );
        // Unknown clusters stay typed errors.
        let (v, _) = f.handle_routed(Some("ghost"), Request::Incidents, 0);
        assert_eq!(v["ok"], false);
    }

    #[test]
    fn incidents_reads_replay_departures_first() {
        // Job A fills the machine over [0, 10); job B queues behind it
        // and starts when A departs.  An `incidents` read at t=100 must
        // replay both departures first, like every other read (and like
        // `sbs serve`), routed or not.
        for routed in [true, false] {
            let f = Fleet::new(
                FleetConfig::new(8, PolicySpec::FcfsBackfill)
                    .with_obs(ObsConfig::default().with_slow_thresholds(Some(0), None)),
            )
            .expect("fleet");
            let job = |at: Time| Request::Submit {
                nodes: 8,
                runtime: 10,
                requested: None,
                user: 0,
                submit: Some(at),
            };
            assert_eq!(f.handle_routed(Some("c"), job(0), 0).0["started"], true);
            assert_eq!(f.handle_routed(Some("c"), job(1), 1).0["started"], false);
            let (v, _) = f.handle_routed(routed.then_some("c"), Request::Incidents, 100);
            assert_eq!(v["captured"].as_u64(), Some(4), "routed={routed}: {v}");
            let items = v["incidents"].as_array().expect("incident array");
            assert!(
                items.iter().any(|i| {
                    let d = &i["decision"];
                    d["now"].as_u64() == Some(10) && d["started"][0].as_u64() == Some(1)
                }),
                "routed={routed}: B's start at A's departure is missing: {v}"
            );
        }
    }

    #[test]
    fn healthz_reports_shard_availability() {
        let f = fleet();
        admitted(&f, "alpha", 4, 7);
        let v = f.healthz_value();
        assert_eq!(v["ok"], true);
        assert_eq!(v["ready"], true);
        assert_eq!(v["shards"].as_u64(), Some(16));
        assert_eq!(v["shards_poisoned"].as_u64(), Some(0));
        assert_eq!(v["clusters"].as_u64(), Some(1));
        assert_eq!(v["now"].as_u64(), Some(7));
    }

    #[test]
    fn statusz_aggregates_rows_rates_and_latency() {
        let mut f = Fleet::new(
            FleetConfig::new(8, PolicySpec::FcfsBackfill)
                .with_obs(ObsConfig::default().with_event_mode(TimeMode::Virtual)),
        )
        .expect("fleet");
        for (id, at) in [("alpha", 0), ("beta", 0), ("alpha", 10)] {
            admitted(&f, id, 2, at);
        }
        // The TCP edge times every request line; only submit-shaped
        // ones reach the latency histogram.
        let line = r#"{"op":"submit","cluster":"alpha","nodes":2,"runtime":60}"#;
        ServerHandler::observe_request_ns(&mut f, line, 5_000);
        ServerHandler::observe_request_ns(&mut f, r#"{"op":"queue","cluster":"alpha"}"#, 7);
        let v = f.statusz_value(false);
        assert_eq!(v["schema"], "sbs-fleet-statusz/v1");
        assert_eq!(v["clusters"].as_u64(), Some(2));
        assert_eq!(v["submitted"].as_u64(), Some(3));
        assert_eq!(v["running"].as_u64(), Some(3));
        let rows = v["per_cluster"].as_array().expect("per-cluster rows");
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0]["cluster"], "alpha");
        assert_eq!(rows[0]["submitted"].as_u64(), Some(2));
        assert_eq!(rows[1]["cluster"], "beta");
        assert_eq!(
            v["submit_latency_ns"]["count"].as_u64(),
            Some(1),
            "the queue line is not a submit"
        );
        // Counters only: a reader works out rates from two documents.
        assert_eq!(v["decisions"].as_u64(), Some(3));
        assert_eq!(v["deadline_truncations"].as_u64(), Some(0));
        for gone in ["windows", "search_nodes_per_sec", "deadline_hit_rate"] {
            assert!(v.get(gone).is_none(), "{gone}");
        }
        assert!(v.get("incidents").is_none(), "incidents only on request");
        let v = f.statusz_value(true);
        assert!(v.get("incidents").is_some());
    }

    #[test]
    fn a_fleet_sample_is_the_sum_of_its_tenants() {
        let f = fleet();
        for (id, nodes, at) in [
            ("a", 8, 0),
            ("a", 4, 1),
            ("b", 2, 1),
            ("c", 8, 2),
            ("c", 1, 3),
        ] {
            admitted(&f, id, nodes, at);
        }
        let (v, _) = f.handle_routed(Some("b"), submit(9, 4), 4);
        assert_eq!(v["ok"], false, "9 nodes never fit on 8");
        let v = f.statusz_value(false);
        let rows = v["per_cluster"].as_array().expect("per-cluster rows");
        assert_eq!(rows.len(), 3);
        for key in [
            "queue_depth",
            "running",
            "submitted",
            "rejected",
            "decisions",
        ] {
            let sum: u64 = rows.iter().filter_map(|r| r[key].as_u64()).sum();
            assert_eq!(v[key].as_u64(), Some(sum), "{key}: {v}");
        }
        assert_eq!(v["rejected"].as_u64(), Some(1));
        let text = f.metrics_text();
        for (fleet, cluster) in [
            ("sbs_fleet_submitted_total ", "sbs_cluster_submitted_total{"),
            ("sbs_fleet_rejected_total ", "sbs_cluster_rejected_total{"),
            ("sbs_fleet_decisions_total ", "sbs_cluster_decisions_total{"),
            ("sbs_fleet_queue_depth ", "sbs_cluster_queue_depth{"),
            ("sbs_fleet_running_jobs ", "sbs_cluster_running_jobs{"),
        ] {
            let value = |l: &str| l.rsplit(' ').next().and_then(|n| n.parse::<u64>().ok());
            let total = text.lines().find(|l| l.starts_with(fleet)).and_then(value);
            let sum: u64 = text
                .lines()
                .filter(|l| l.starts_with(cluster))
                .filter_map(value)
                .sum();
            assert_eq!(total, Some(sum), "{fleet}: {text}");
        }
    }

    #[test]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a nearest rank is at most the sample count"
    )]
    fn statusz_scrape_agrees_with_the_exact_percentiles() {
        let mut f = Fleet::new(FleetConfig::new(8, PolicySpec::FcfsBackfill)).expect("fleet");
        // 200 samples, fed through the TCP edge's timing hook, put the
        // exact nearest-rank p50, p99 and p999 in three different buckets.
        let samples: Vec<u64> = (0..197)
            .map(|i| 700 + 311 * i)
            .chain([450_000, 2_000_000, 40_000_000])
            .collect();
        let lines = [
            r#"{"op":"submit","cluster":"alpha","nodes":2,"runtime":60}"#,
            r#"{"op":"submit_batch","cluster":"beta","jobs":[{"nodes":1,"runtime":60}]}"#,
        ];
        for (i, &ns) in samples.iter().enumerate() {
            ServerHandler::observe_request_ns(&mut f, lines[i % 2], ns);
        }
        let v = f.statusz_value(false);
        let lat = &v["submit_latency_ns"];
        assert_eq!(lat["count"].as_u64(), Some(200), "{lat}");
        // Each reported percentile is the upper bound of the bucket that
        // holds the exact nearest-rank value (the samples ascend).
        let exact = |q: f64| samples[((q * samples.len() as f64).ceil() as usize).max(1) - 1];
        let bucket = |ns: u64| (3..=9).map(|e| 10u64.pow(e)).find(|&b| b >= ns);
        for (key, q, bound) in [
            ("p50", 0.50, 100_000),
            ("p99", 0.99, 1_000_000),
            ("p999", 0.999, 100_000_000),
        ] {
            assert_eq!(bucket(exact(q)), Some(bound), "{key}");
            assert_eq!(lat[key].as_u64(), Some(bound), "{key}: {lat}");
        }
    }

    #[test]
    fn http_get_routes_health_status_and_metrics() {
        let mut f = fleet();
        admitted(&f, "alpha", 4, 0);
        let reply = f.http_get("/healthz", 1);
        assert_eq!(reply.status, 200);
        assert_eq!(reply.content_type, "application/json");
        assert!(reply.body.contains("\"ready\":true"), "{}", reply.body);
        let reply = f.http_get("/statusz?incidents=1", 1);
        assert_eq!(reply.status, 200);
        assert!(
            reply.body.contains("\"schema\":\"sbs-fleet-statusz/v1\""),
            "{}",
            reply.body
        );
        assert!(reply.body.contains("\"incidents\""), "{}", reply.body);
        let reply = f.http_get("/metrics", 1);
        assert!(
            reply.body.contains("sbs_fleet_clusters 1"),
            "{}",
            reply.body
        );
    }

    #[test]
    fn fleet_journal_records_requests_by_severity() {
        let mut f = Fleet::new(
            FleetConfig::new(8, PolicySpec::FcfsBackfill)
                .with_obs(ObsConfig::default().with_event_mode(TimeMode::Virtual)),
        )
        .expect("fleet");
        let line = r#"{"op":"submit","cluster":"alpha","nodes":2,"runtime":3600,"submit":0}"#;
        let (v, _) = f.handle_line(line, 0);
        assert_eq!(v["ok"], true);
        // A successful submit is counted, not written.
        let (emitted, filtered) = journal_counts(&f);
        assert_eq!((emitted, filtered), (0, 1));
        let (v, _) = f.handle_line(r#"{"op":"drain"}"#, 0);
        assert_eq!(v["ok"], true);
        let (emitted, _) = journal_counts(&f);
        assert_eq!(emitted, 1, "a lifecycle op is written at Info");
        // Failed requests are written at Error, whatever their kind.
        let (v, _) = f.handle_line(r#"{"op":"queue","cluster":"ghost"}"#, 0);
        assert_eq!(v["ok"], false);
        let (emitted, _) = journal_counts(&f);
        assert_eq!(emitted, 2);
    }

    #[test]
    fn every_handled_line_is_journaled_or_counted() {
        let dir = std::env::temp_dir().join(format!("sbs-fleet-invalid-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let log = dir.join("events.jsonl");
        #[expect(
            clippy::let_underscore_must_use,
            reason = "a journal left by an earlier run may or may not exist"
        )]
        let _ = std::fs::remove_file(&log);
        let mut f = Fleet::new(
            FleetConfig::new(8, PolicySpec::FcfsBackfill).with_obs(
                ObsConfig::default()
                    .with_event_mode(TimeMode::Virtual)
                    .with_event_log(log.clone()),
            ),
        )
        .expect("fleet");
        let lines = [
            r#"{"op":"submit","nodes":2,"runtime":3600,"submit":0}"#,
            "not json",
            r#"{"op":"bogus"}"#,
            r#"{"op":"submit","nodes":99,"runtime":3600,"submit":0}"#,
            r#"{"op":"queue"}"#,
        ];
        for line in lines {
            let (_, stop) = f.handle_line(line, 0);
            assert!(!stop, "{line}");
        }
        let (emitted, filtered) = journal_counts(&f);
        assert_eq!(emitted + filtered, lines.len() as u64);
        assert_eq!((emitted, filtered), (3, 2));
        f.edge().journal.flush();
        let text = std::fs::read_to_string(&log).expect("journal");
        let invalid: Vec<&str> = text.lines().filter(|l| l.contains("invalid")).collect();
        assert_eq!(invalid.len(), 2, "{text}");
        for event in invalid {
            assert!(event.contains(r#""scope":"fleet""#), "{event}");
            assert!(event.contains(r#""sev":"error""#), "{event}");
        }
        #[expect(
            clippy::let_underscore_must_use,
            reason = "test cleanup is best-effort"
        )]
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "exposition sample values here are small integer counts"
    )]
    fn thousand_tenant_overflow_round_trips_through_the_parser() {
        let f = Fleet::new(FleetConfig::new(8, PolicySpec::FcfsBackfill)).expect("fleet");
        let total = 1_100usize;
        for i in 0..total {
            let id = format!("tenant-{i:04}");
            assert_eq!(f.handle_routed(Some(&id), submit(1, 0), 0).0["ok"], true);
        }
        let text = f.metrics_text();
        let families = sbs_obs::expo::validate(&text).expect("1K-tenant exposition validates");
        let submitted = families
            .iter()
            .find(|fam| fam.name == "sbs_cluster_submitted_total")
            .expect("per-cluster family present");
        // Exactly the cap's worth of labeled series plus `_other`.
        assert_eq!(submitted.samples.len(), 32 + 1);
        let mut labeled = 0u64;
        let mut other = 0u64;
        for s in &submitted.samples {
            let cluster = s
                .labels
                .iter()
                .find(|(k, _)| k == "cluster")
                .map(|(_, v)| v.as_str())
                .expect("cluster label");
            if cluster == "_other" {
                other += s.value as u64;
            } else {
                assert!(
                    cluster.starts_with("tenant-"),
                    "label round-trips through the parser: {cluster:?}"
                );
                labeled += s.value as u64;
            }
        }
        assert_eq!(labeled, 32);
        assert_eq!(other, (total - 32) as u64);
        assert!(text.contains(&format!("sbs_fleet_clusters {total}")));
    }

    /// One tenant's decisions since its last rendered snapshot, its
    /// state right now, and its decisions so far.
    fn tenant_state(f: &Fleet, id: &str) -> (u64, Snapshot, u64) {
        let mut shard = lock_shard(&f.shards[f.shard_index(id)]);
        let c = &mut shard.tenants.get_mut(id).expect("tenant").cluster;
        (c.unsnapshotted(), c.snapshot(), c.tally().decisions)
    }

    #[test]
    fn the_snapshot_cadence_writes_after_the_shard_lock_and_before_the_answer() {
        let dir = std::env::temp_dir().join(format!("sbs-cadence-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut cfg = FleetConfig::new(8, PolicySpec::FcfsBackfill).with_snapshot_dir(dir.clone());
        cfg.snapshot_every = 4;
        let f = Fleet::new(cfg).expect("fleet");
        let file = dir.join("cluster-alpha.json");
        admitted(&f, "alpha", 4, 0);
        // Runs one operation and checks the file against the cadence:
        // written exactly when the operation brought the tenant to 4
        // decisions since the last write, and then equal to the state
        // the operation answered from.  Counts the writes.
        let written = std::cell::RefCell::new(None);
        let step = |writes: &mut u32, op: &dyn Fn()| {
            let (before, _, decided_before) = tenant_state(&f, "alpha");
            op();
            let (after, snap, decided) = tenant_state(&f, "alpha");
            let decided = decided - decided_before;
            if before + decided >= 4 {
                assert_eq!(after, 0, "the due snapshot was rendered");
                assert_eq!(Snapshot::load(&file).expect("written"), snap);
                *written.borrow_mut() = Some(snap);
                *writes += 1;
            } else {
                assert_eq!(after, before + decided, "no write before it is due");
                let on_disk = Snapshot::load(&file).ok();
                assert_eq!(on_disk, *written.borrow(), "the file is the last write");
            }
        };
        let (mut by_requests, mut by_departures) = (0, 0);
        let mut t = 1;
        for _ in 0..6 {
            // Short jobs: a submit also replays the departures before it.
            for _ in 0..5 {
                step(&mut by_requests, &|| {
                    let job = Request::Submit {
                        nodes: 4,
                        runtime: 7,
                        requested: None,
                        user: 0,
                        submit: Some(t),
                    };
                    assert_eq!(f.handle_routed(Some("alpha"), job, t).0["ok"], true);
                });
                t += 3;
            }
            // The departure path: every job still queued or running ends.
            t += 100;
            step(&mut by_departures, &|| f.poll_all(t));
        }
        assert!(
            by_requests > 0 && by_departures > 0,
            "{by_requests} {by_departures}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tenants_created_in_process_are_recovered_from_their_snapshots() {
        let dir = std::env::temp_dir().join(format!("sbs-recover-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut cfg = FleetConfig::new(8, PolicySpec::FcfsBackfill).with_snapshot_dir(dir.clone());
        cfg.snapshot_every = 1;
        {
            let f = Fleet::new(cfg.clone()).expect("fleet");
            admitted(&f, "a", 4, 0);
        }
        assert!(dir.join("cluster-a.json").exists());
        // A write cut short leaves its temp file behind; it is no tenant.
        std::fs::write(dir.join("cluster-b.json.7.0.tmp"), "{").expect("temp file");
        let f = Fleet::new(cfg).expect("recovered fleet");
        assert_eq!(f.cluster_count(), 1);
        let (v, _) = f.handle_routed(Some("a"), Request::Queue, 0);
        assert_eq!(v["running"].as_array().map(Vec::len), Some(1), "{v}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn drain_all_and_pending_accounting_settle_to_zero() {
        let f = fleet();
        for id in ["a", "b", "c"] {
            admitted(&f, id, 8, 0);
            admitted(&f, id, 8, 1);
        }
        assert!(
            f.total_pending.load(Ordering::SeqCst) > 0,
            "waiters pending"
        );
        let (completed, leftover) = f.drain_all(0);
        assert_eq!((completed, leftover), (6, 0));
        assert_eq!(f.total_pending.load(Ordering::SeqCst), 0);
    }
}
