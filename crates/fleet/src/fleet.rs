//! The sharded multi-tenant fleet daemon.
//!
//! A [`Fleet`] maps `cluster` ids onto independent [`Cluster`]s (one
//! scheduler world per tenant) spread across N shard locks.  Routing
//! hashes the cluster id with FNV-1a — deterministic across runs, so a
//! given tenant always lands on the same shard — and every operation
//! acquires **exactly one** shard lock; cross-shard aggregates (pending
//! demand, tenant count) live in atomics, so there is no lock-order edge
//! anywhere in the crate.
//!
//! Admission runs each submit through the tenant's [`TenantQuota`]
//! (queue depth, pending node-seconds, weighted fairshare) before the
//! cluster sees it.  `/metrics` renders per-cluster families with a
//! bounded label cardinality: the first [`FleetConfig::cluster_label_cap`]
//! cluster ids (lexicographic) get their own `cluster="..."` series and
//! everything else aggregates into `cluster="_other"`.
//!
//! Snapshots are per-cluster files plus an index manifest
//! (`sbs-fleet-manifest/v1`); [`Fleet::new`] recovers every tenant
//! listed in the manifest through the single-cluster snapshot path.  The
//! manifest is rewritten whenever a request creates a tenant, so a
//! tenant that auto-snapshots (`snapshot_every`) is recoverable before
//! the next explicit save.
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
//! `sbs-events/v1` journal.  Tenants are bare [`Cluster`]s — no journal,
//! latency histogram or status window of their own — so a tenant's slow
//! decision is captured as an incident, not journaled.  The fleet's
//! [`Edge`] (journal, submit-latency histogram, status window) lives
//! behind one mutex that is **only ever taken with no shard lock held**,
//! preserving the no-lock-order-edge invariant.  `GET /healthz` reports
//! readiness (no poisoned shard lock, not every tenant draining, not
//! overloaded), `GET /statusz` serves a fleet-wide JSON aggregate,
//! per-cluster rows under the same cardinality cap as `/metrics`, and
//! (with `?incidents=1`) every tenant's captured slow decisions, and
//! `GET /metrics?cluster=ID` serves one tenant's own exposition.

use crate::quota::{FleetDemand, TenantQuota};
use sbs_core::PolicySpec;
use sbs_metrics::fairness::jain_index;
use sbs_obs::expo::Exposition;
use sbs_obs::status::quantiles_value;
use sbs_obs::{Histogram, ObsConfig, StatusSample};
use sbs_service::cluster::{drain_response, incidents_response};
use sbs_service::edge::op_event;
use sbs_service::protocol::{error_response, parse_routed, CorrelationSource, Request, SubmitSpec};
use sbs_service::server::{HttpReply, ServerHandler};
use sbs_service::snapshot::write_atomic;
use sbs_service::{Cluster, Edge, ServiceConfig};
use sbs_workload::time::Time;
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// Schema tag stamped into every fleet snapshot manifest.
pub const MANIFEST_SCHEMA: &str = "sbs-fleet-manifest/v1";

/// Tenant a request with no `cluster` field goes to, so single-cluster
/// clients never name one.
const DEFAULT_CLUSTER: &str = "default";

/// Fleet-wide configuration; every tenant shares the machine shape,
/// policy, and default quota.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of shard locks the tenant map is spread over.
    pub shards: usize,
    /// Per-cluster machine size in nodes.
    pub capacity: u32,
    /// The scheduling policy every tenant runs.
    pub spec: PolicySpec,
    /// Hard cap on the number of tenants; submits to new clusters
    /// beyond it get typed errors.
    pub max_clusters: usize,
    /// Admission quota applied to each tenant.
    pub quota: TenantQuota,
    /// Directory for per-cluster snapshots and the index manifest;
    /// `None` disables persistence.
    pub snapshot_dir: Option<PathBuf>,
    /// Each tenant auto-snapshots every N decision points (0 = only on
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
    /// Wait beyond this threshold counts as excessive in the metrics.
    pub excess_threshold: Time,
    /// The fleet-scoped event journal, and the slow-decision thresholds
    /// every tenant captures incidents under.
    pub obs: ObsConfig,
}

impl FleetConfig {
    /// A config with the workspace defaults.
    pub fn new(capacity: u32, spec: PolicySpec) -> Self {
        FleetConfig {
            shards: 16,
            capacity,
            spec,
            max_clusters: 4096,
            quota: TenantQuota::default(),
            snapshot_dir: None,
            snapshot_every: 0,
            deadline: None,
            trace_dir: None,
            cluster_label_cap: 32,
            excess_threshold: 0,
            obs: ObsConfig::default(),
        }
    }

    /// Sets the shard count (clamped to at least 1).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
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
    submitted: u64,
    rejected: u64,
}

impl Tenant {
    fn new(cluster: Cluster, quota: TenantQuota) -> Self {
        Tenant {
            cluster,
            quota,
            pending: 0,
            submitted: 0,
            rejected: 0,
        }
    }
}

#[derive(Default)]
struct Shard {
    tenants: BTreeMap<String, Tenant>,
}

/// Locks a shard, recovering from poisoning (scheduler state is
/// transition-consistent; see the server's rationale).
fn lock_shard(shard: &Mutex<Shard>) -> MutexGuard<'_, Shard> {
    shard
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// One cluster's numbers — or, absorbed together, several clusters' —
/// for the metrics exposition and the `/statusz` aggregate.
#[derive(Default)]
struct ClusterStat {
    /// The cluster's counters, with the fleet's admission counts.
    sample: StatusSample,
    running: u64,
    free_nodes: u64,
    incidents: u64,
    decision_nanos: Option<Histogram>,
}

impl ClusterStat {
    /// Adds `other` in: counters sum, decision-time histograms merge.
    fn absorb(&mut self, other: &ClusterStat) {
        self.sample.absorb(&other.sample);
        self.running += other.running;
        self.free_nodes += other.free_nodes;
        self.incidents += other.incidents;
        if let Some(h) = &other.decision_nanos {
            match &mut self.decision_nanos {
                // Every cluster records with the same bounds, so the
                // merge cannot be refused (it would skip, not mis-bin).
                Some(merged) => {
                    merged.merge_from(h);
                }
                None => self.decision_nanos = Some(h.clone()),
            }
        }
    }

    /// One `per_cluster` row of the `/statusz` document.
    fn row(&self, id: &str) -> Value {
        json!({
            "cluster": id,
            "queue_depth": self.sample.queue_depth,
            "running": self.running,
            "free_nodes": self.free_nodes,
            "submitted": self.sample.submitted,
            "rejected": self.sample.rejected,
            "decisions": self.sample.decisions,
            "incidents": self.incidents,
        })
    }
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
    /// Sum of live tenants' quota weights (fairshare input).
    /// Orderings: DESIGN.md, "Fleet atomics".
    total_weight: AtomicU64,
    /// Latest scheduler time observed anywhere (steers virtual clocks).
    /// Orderings: DESIGN.md, "Fleet atomics".
    latest_now: AtomicU64,
    /// Live tenant count (the cluster cap).
    /// Orderings: DESIGN.md, "Fleet atomics".
    tenant_count: AtomicU64,
    /// Correlation ids, minted once per routed request.
    corr: CorrelationSource,
    /// The fleet's one serving edge: journal, submit-latency histogram
    /// and status window.  Locked only with **no shard lock held** (the
    /// protocol edge journals after dispatch returns), so it adds no
    /// lock-order edge.
    edge: Mutex<Edge>,
}

impl Fleet {
    /// Builds a fleet; recovers every tenant listed in the snapshot
    /// manifest when `cfg.snapshot_dir` holds one.
    pub fn new(cfg: FleetConfig) -> Result<Self, String> {
        let shards = (0..cfg.shards.max(1))
            .map(|_| Mutex::new(Shard::default()))
            .collect();
        let edge = Edge::new(&cfg.obs, 0);
        let fleet = Fleet {
            policy: cfg.spec.name(),
            cfg,
            shards,
            total_pending: AtomicU64::new(0),
            total_weight: AtomicU64::new(0),
            latest_now: AtomicU64::new(0),
            tenant_count: AtomicU64::new(0),
            corr: CorrelationSource::new(),
            edge: Mutex::new(edge),
        };
        // Tenants write snapshots and traces from their first decision.
        for dir in [&fleet.cfg.snapshot_dir, &fleet.cfg.trace_dir]
            .into_iter()
            .flatten()
        {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        let manifest = fleet
            .cfg
            .snapshot_dir
            .as_ref()
            .map(|d| d.join("manifest.json"))
            .filter(|p| p.exists());
        if let Some(path) = manifest {
            for id in read_manifest(&path)? {
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
        (h % self.shards.len().max(1) as u64) as usize
    }

    fn shard_for(&self, cluster: &str) -> Option<MutexGuard<'_, Shard>> {
        self.shards.get(self.shard_index(cluster)).map(lock_shard)
    }

    fn tenant_config(&self, cluster: &str) -> ServiceConfig {
        let mut c = ServiceConfig::new(self.cfg.capacity, self.cfg.spec.clone());
        c.excess_threshold = self.cfg.excess_threshold;
        c.deadline = self.cfg.deadline;
        c.snapshot_every = self.cfg.snapshot_every;
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

    /// Restores one manifest-listed tenant through the single-cluster
    /// snapshot recovery path.
    fn recover_tenant(&self, cluster: &str) -> Result<(), String> {
        sbs_service::protocol::validate_cluster_id(cluster)
            .map_err(|e| format!("manifest entry {cluster:?}: {e}"))?;
        let recovered = Cluster::new(self.tenant_config(cluster))?;
        let Some(mut shard) = self.shard_for(cluster) else {
            return Err("internal: no shard for cluster".into());
        };
        if shard.tenants.contains_key(cluster) {
            return Ok(()); // duplicate manifest entry
        }
        let mut tenant = Tenant::new(recovered, self.cfg.quota);
        self.tenant_count.fetch_add(1, Ordering::AcqRel);
        self.total_weight
            .fetch_add(self.cfg.quota.weight, Ordering::AcqRel);
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
            total_weight: self.total_weight.load(Ordering::Acquire),
        };
        quota
            .admit(depth, pending, add, fleet)
            .map_err(|denied| denied.to_string())
    }

    /// Runs `f` on the named tenant under correlation id `corr`,
    /// creating the tenant first when `create` is set (submissions and
    /// un-routed reads create tenants; routed reads on unknown clusters
    /// are typed errors).
    fn with_tenant<R>(
        &self,
        cluster: &str,
        create: bool,
        corr: u64,
        f: impl FnOnce(&Fleet, &mut Tenant) -> R,
    ) -> Result<R, String> {
        // Cluster::new replays any on-disk snapshot, and file I/O under
        // the shard lock would stall every tenant on the shard — so the
        // existence check, the (lock-free) construction, and the insert
        // are three steps, with the insert re-checked under the lock in
        // case a concurrent submit created the tenant meanwhile.
        let needs_create = {
            let Some(shard) = self.shard_for(cluster) else {
                return Err("internal: no shard for cluster".into());
            };
            !shard.tenants.contains_key(cluster)
        };
        let mut fresh = None;
        if needs_create {
            if !create {
                return Err(format!("unknown cluster {cluster:?}"));
            }
            if self.tenant_count.load(Ordering::Acquire) >= self.cfg.max_clusters as u64 {
                return Err(format!(
                    "cluster cap reached ({} tenants); {cluster:?} not admitted",
                    self.cfg.max_clusters
                ));
            }
            fresh = Some(Cluster::new(self.tenant_config(cluster))?);
        }
        let Some(mut shard) = self.shard_for(cluster) else {
            return Err("internal: no shard for cluster".into());
        };
        if !shard.tenants.contains_key(cluster) {
            let Some(created) = fresh.take() else {
                return Err(format!("unknown cluster {cluster:?}"));
            };
            self.tenant_count.fetch_add(1, Ordering::AcqRel);
            self.total_weight
                .fetch_add(self.cfg.quota.weight, Ordering::AcqRel);
            shard
                .tenants
                .insert(cluster.to_string(), Tenant::new(created, self.cfg.quota));
        }
        let Some(tenant) = shard.tenants.get_mut(cluster) else {
            return Err("internal: tenant vanished under its shard lock".into());
        };
        tenant.cluster.set_correlation(corr);
        let out = f(self, tenant);
        tenant.cluster.set_correlation(0);
        self.publish_tenant(tenant);
        Ok(out)
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
            // adds quota admission and its per-tenant counters.
            req @ (Request::Submit { .. } | Request::SubmitBatch { .. }) => {
                let offered = match &req {
                    Request::SubmitBatch { jobs } => jobs.len() as u64,
                    _ => 1,
                };
                let out = self.with_tenant(id, true, corr, |fleet, t| {
                    let (v, admitted) = t
                        .cluster
                        .handle_admitted(req, at, |c, spec| fleet.admit(&t.quota, c, spec));
                    t.submitted += admitted;
                    t.rejected += offered - admitted;
                    v
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
                Ok(Some(path)) => (
                    json!({ "ok": true, "path": path.display().to_string() }),
                    false,
                ),
                Ok(None) => (error_response("no snapshot directory configured"), false),
                Err(e) => (error_response(&e), false),
            },
            Request::Shutdown => {
                let saved = self.save_snapshots();
                let mut v = json!({ "ok": true });
                if let (Value::Object(map), Ok(Some(path))) = (&mut v, saved) {
                    map.insert("manifest".into(), Value::from(path.display().to_string()));
                }
                (v, true)
            }
        }
    }

    /// Advances every tenant to time `at` (departure replay).
    pub fn poll_all(&self, at: Time) {
        for shard in &self.shards {
            let mut s = lock_shard(shard);
            for t in s.tenants.values_mut() {
                t.cluster.poll_to(at);
                self.publish_tenant(t);
            }
        }
        self.latest_now.fetch_max(at, Ordering::AcqRel);
    }

    /// Drains every tenant under request correlation id `corr`; returns
    /// summed `(completed, leftover)`.
    pub fn drain_all(&self, corr: u64) -> (usize, usize) {
        let (mut completed, mut leftover) = (0usize, 0usize);
        for shard in &self.shards {
            let mut s = lock_shard(shard);
            for t in s.tenants.values_mut() {
                t.cluster.set_correlation(corr);
                let (c, l) = t.cluster.drain();
                t.cluster.set_correlation(0);
                completed += c;
                leftover += l;
                self.publish_tenant(t);
            }
        }
        (completed, leftover)
    }

    /// Locks the fleet's edge, recovering from poisoning.  A leaf lock:
    /// never taken with a shard lock held.
    fn edge(&self) -> MutexGuard<'_, Edge> {
        self.edge
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Pushes a self-scrape sample when scheduler time has crossed the
    /// status-window boundary.
    fn maybe_sample(&self, at: Time) {
        if !self.edge().window.due(at) {
            return;
        }
        let (_, total) = self.collect_stats();
        self.edge().window.push(StatusSample { at, ..total.sample });
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
                captured += t.cluster.incidents_total();
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
            "pending_node_seconds": self.total_pending.load(Ordering::Acquire),
        })
    }

    /// Operational JSON for `GET /statusz`: fleet totals, windowed
    /// rates, per-cluster rows under the metrics cardinality cap, and
    /// (with `include_incidents`) every tenant's captured incidents.
    pub fn statusz_value(&self, include_incidents: bool) -> Value {
        let (stats, total) = self.collect_stats();
        let live = StatusSample {
            at: Fleet::now(self),
            ..total.sample
        };
        let mut rows = Vec::new();
        self.for_each_label(&stats, |id, st| rows.push(st.row(id)));
        let mut v = json!({
            "schema": "sbs-fleet-statusz/v1",
            "now": live.at,
            "policy": self.policy.as_str(),
            "capacity": self.cfg.capacity,
            "shards": self.shards.len() as u64,
            "clusters": stats.len() as u64,
            "queue_depth": live.queue_depth,
            "running": total.running,
            "submitted": live.submitted,
            "rejected": live.rejected,
            "decisions": live.decisions,
            "search_nodes": live.search_nodes,
            "pending_node_seconds": self.total_pending.load(Ordering::Acquire),
            "decision_wall_ns": quantiles_value(total.decision_nanos.as_ref(), false),
            "incidents_captured": total.incidents,
            "per_cluster": Value::Array(rows),
        });
        let rates = self.edge().status_into(&live, &mut v);
        if let Value::Object(m) = &mut v {
            m.insert("submitted_per_sec".into(), rates.submitted_per_sec.into());
            if include_incidents {
                m.insert("incidents".into(), Value::Array(self.all_incidents().0));
            }
        }
        v
    }

    /// One pass over every shard: per-cluster numbers keyed by id, and
    /// their fleet-wide total (shared by `/metrics`, `/statusz` and the
    /// status window).
    fn collect_stats(&self) -> (BTreeMap<String, ClusterStat>, ClusterStat) {
        let mut stats: BTreeMap<String, ClusterStat> = BTreeMap::new();
        let mut total = ClusterStat::default();
        for shard in &self.shards {
            let s = lock_shard(shard);
            for (id, t) in &s.tenants {
                let m = t.cluster.metrics();
                let stat = ClusterStat {
                    sample: StatusSample {
                        submitted: t.submitted,
                        rejected: t.rejected,
                        ..t.cluster.status_sample()
                    },
                    running: m.running_jobs as u64,
                    free_nodes: u64::from(m.free_nodes),
                    incidents: t.cluster.incidents_total(),
                    decision_nanos: t.cluster.decision_wall().cloned(),
                };
                total.absorb(&stat);
                stats.insert(id.clone(), stat);
            }
        }
        (stats, total)
    }

    /// Visits per-cluster numbers under the label cap: the first
    /// `cluster_label_cap` ids (lexicographic, hence deterministic) as
    /// themselves, everything past the cap folded into one `_other`.
    fn for_each_label(
        &self,
        stats: &BTreeMap<String, ClusterStat>,
        mut visit: impl FnMut(&str, &ClusterStat),
    ) {
        let cap = self.cfg.cluster_label_cap.max(1);
        let mut other: Option<ClusterStat> = None;
        for (i, (id, st)) in stats.iter().enumerate() {
            if i < cap {
                visit(id, st);
            } else {
                other.get_or_insert_with(ClusterStat::default).absorb(st);
            }
        }
        if let Some(folded) = other {
            visit("_other", &folded);
        }
    }

    /// The fleet `/metrics` exposition: fleet-wide families plus
    /// per-cluster series under the cardinality cap.
    pub fn metrics_text(&self) -> String {
        let (stats, total) = self.collect_stats();
        let mut e = Exposition::new();
        e.gauge(
            "sbs_fleet_shards",
            "Shard locks the tenant map is spread over.",
            self.shards.len(),
        );
        e.gauge("sbs_fleet_clusters", "Live tenants.", stats.len());
        e.counter(
            "sbs_fleet_submitted_total",
            "Jobs admitted across all tenants.",
            total.sample.submitted,
        );
        e.counter(
            "sbs_fleet_rejected_total",
            "Submissions refused by quota, fairshare, or the daemon.",
            total.sample.rejected,
        );
        e.counter(
            "sbs_fleet_decisions_total",
            "Decision points executed across all tenants.",
            total.sample.decisions,
        );
        e.gauge(
            "sbs_fleet_queue_depth",
            "Waiting jobs summed over all tenants.",
            total.sample.queue_depth,
        );
        e.gauge(
            "sbs_fleet_running_jobs",
            "Running jobs summed over all tenants.",
            total.running,
        );
        e.gauge(
            "sbs_fleet_pending_node_seconds",
            "Pending node-seconds summed over all tenants (fairshare input).",
            self.total_pending.load(Ordering::Acquire),
        );
        let shares: Vec<f64> = stats.values().map(|s| s.sample.submitted as f64).collect();
        e.gauge(
            "sbs_fleet_fairness_jain",
            "Jain index over per-tenant admitted-job counts (1 = even).",
            format!("{:.6}", jain_index(&shares)),
        );
        self.for_each_label(&stats, |id, st| emit_cluster(&mut e, id, st));
        e.render()
    }

    /// Writes every tenant's snapshot plus the index manifest.  Returns
    /// the manifest path, or `None` when persistence is disabled.
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
        self.save_manifest(&dir).map(Some)
    }

    /// Writes the index manifest listing every live tenant under `dir`;
    /// returns its path.
    fn save_manifest(&self, dir: &Path) -> Result<PathBuf, String> {
        let mut ids: Vec<String> = Vec::new();
        for shard in &self.shards {
            ids.extend(lock_shard(shard).tenants.keys().cloned());
        }
        ids.sort();
        let doc = json!({ "schema": MANIFEST_SCHEMA, "clusters": ids });
        let mut text = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
        text.push('\n');
        let path = dir.join("manifest.json");
        write_atomic(&path, text.as_bytes()).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(path)
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

/// Appends one cluster's labeled series to the exposition.
fn emit_cluster(e: &mut Exposition, id: &str, st: &ClusterStat) {
    let labels = |_: &str| vec![("cluster".to_string(), id.to_string())];
    e.counter_with(
        "sbs_cluster_submitted_total",
        "Jobs admitted, per tenant (capped cardinality; overflow in _other).",
        labels("c"),
        st.sample.submitted,
    );
    e.counter_with(
        "sbs_cluster_rejected_total",
        "Submissions refused, per tenant.",
        labels("c"),
        st.sample.rejected,
    );
    e.counter_with(
        "sbs_cluster_decisions_total",
        "Decision points executed, per tenant.",
        labels("c"),
        st.sample.decisions,
    );
    e.gauge_with(
        "sbs_cluster_queue_depth",
        "Waiting jobs, per tenant.",
        labels("c"),
        st.sample.queue_depth,
    );
    e.gauge_with(
        "sbs_cluster_running_jobs",
        "Running jobs, per tenant.",
        labels("c"),
        st.running,
    );
    if let Some(h) = &st.decision_nanos {
        e.histogram_with(
            "sbs_cluster_decision_wall_nanos",
            "Per-decision wall time, per tenant.",
            labels("c"),
            h,
        );
    }
}

fn read_manifest(path: &Path) -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let v: Value = serde_json::from_str(&text).map_err(|e| e.to_string())?;
    let schema = v.get("schema").and_then(Value::as_str).unwrap_or_default();
    if schema != MANIFEST_SCHEMA {
        return Err(format!(
            "manifest schema {schema:?} not supported (expected {MANIFEST_SCHEMA})"
        ));
    }
    let clusters = v
        .get("clusters")
        .and_then(Value::as_array)
        .ok_or("manifest field \"clusters\" missing or not an array")?;
    let mut ids = Vec::with_capacity(clusters.len());
    for c in clusters {
        match c.as_str() {
            Some(s) => ids.push(s.to_string()),
            None => return Err("manifest cluster entry is not a string".into()),
        }
    }
    Ok(ids)
}

impl ServerHandler for Fleet {
    fn poll_to(&mut self, at: Time) {
        Fleet::poll_all(self, at);
        self.maybe_sample(at);
    }

    fn handle_line(&mut self, line: &str, at: Time) -> (Value, bool) {
        match parse_routed(line) {
            Ok((cluster, req)) => {
                let kind = op_event(&req);
                let before = self.cluster_count();
                let out = self.handle_routed(cluster.as_deref(), req, at);
                // Journal after dispatch: every shard lock is released
                // by now, so the edge stays a leaf lock.
                let clusters = self.cluster_count();
                if let (true, Some(dir)) = (clusters > before, &self.cfg.snapshot_dir) {
                    // List the new tenant now: its own auto-snapshots
                    // are recoverable only through the manifest.
                    #[expect(
                        clippy::let_underscore_must_use,
                        reason = "proven best-effort path — the next tenant creation or save rewrites the manifest"
                    )]
                    let _ = self.save_manifest(dir);
                }
                self.edge().journal_request(
                    cluster.as_deref().unwrap_or("fleet"),
                    kind,
                    &out.0,
                    at,
                    ("clusters", clusters),
                );
                out
            }
            Err(e) => (error_response(&e), false),
        }
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
            weight: 1,
            fair_slack_percent: 150,
            ..Default::default()
        };
        let f = Fleet::new(FleetConfig::new(8, PolicySpec::FcfsBackfill).with_quota(quota))
            .expect("fleet");
        // Tenant "greedy" stacks waiting demand; tenant "modest" holds a
        // little.  With two equal weights, greedy's entitlement is half
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
        // Cross a window boundary so a sample lands in the ring.
        ServerHandler::poll_to(&mut f, 61);
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
        assert_eq!(v["windows"].as_array().map(Vec::len), Some(1));
        assert!(v.get("incidents").is_none(), "incidents only on request");
        let v = f.statusz_value(true);
        assert!(v.get("incidents").is_some());
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
        // Submits journal at Debug, below the default Info floor.
        let (emitted, filtered) = journal_counts(&f);
        assert_eq!((emitted, filtered), (0, 1));
        let (v, _) = f.handle_line(r#"{"op":"drain"}"#, 0);
        assert_eq!(v["ok"], true);
        let (emitted, _) = journal_counts(&f);
        assert_eq!(emitted, 1, "drain journals at Info");
        // Failed requests escalate to Error regardless of kind.
        let (v, _) = f.handle_line(r#"{"op":"queue","cluster":"ghost"}"#, 0);
        assert_eq!(v["ok"], false);
        let (emitted, _) = journal_counts(&f);
        assert_eq!(emitted, 2);
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
