//! `fleet-steady`: an in-process closed loop over a multi-tenant fleet.
//!
//! Generator threads own cluster-disjoint sets of tenants and call
//! `Fleet::handle_routed` directly, so the cost measured is routing,
//! the shard lock, quota admission, the tenant daemon and JSON value
//! building — no parsing, no sockets.  Every tenant's op sequence is
//! fixed at set-up, so the final state of every tenant is the same
//! however tenants are divided among threads; a digest of it is the
//! workload's output check.

use crate::env::{pinned, pinned_f64, pinned_u64, scaled};
use crate::inputs::{fleet_ops, fnv1a, mix, Op, OpKind, TenantOps, CAPACITY};
use crate::report::Outcome;
use crate::spans::Tracer;
use crate::stats::{median, quantile_us};
use sbs_core::PolicySpec;
use sbs_fleet::{Fleet, FleetConfig, TenantQuota};
use sbs_service::protocol::Request;
use sbs_service::{Daemon, ServiceConfig, Snapshot};
use sbs_workload::time::Time;
use serde_json::Value;
use std::sync::Barrier;
use std::time::Instant;

const NAME: &str = "fleet-steady";

/// How long generator threads spin before a multi-threaded drive starts
/// its clock (see `drive`).
const SPIN_UP: std::time::Duration = std::time::Duration::from_millis(1_500);

/// Generated inputs: every tenant's ops and how many of them warm up.
pub struct Inputs {
    tenants: Vec<TenantOps>,
    /// Ops per tenant issued during warm-up (tenant creation and queue
    /// fill), before timing starts.
    warm: usize,
    max_queue: usize,
}

impl Inputs {
    fn ops_per_tenant(&self) -> usize {
        self.tenants.first().map_or(0, |t| t.ops.len())
    }

    fn submits(&self) -> usize {
        self.tenants
            .iter()
            .flat_map(|t| &t.ops)
            .filter(|o| o.kind == OpKind::Submit)
            .count()
    }
}

/// What the generator knows about one tenant while it drives it.
#[derive(Debug, Clone, Default)]
struct TenantState {
    /// Id of the most recently admitted job (the cancel target).
    last_id: Option<u64>,
    /// The tenant's clock: its latest submit time.
    at: Time,
    accepted: u64,
    refused: u64,
    cancelled: u64,
    failed: u64,
}

fn config(inputs: &Inputs, events: bool) -> FleetConfig {
    FleetConfig::new(CAPACITY, PolicySpec::FcfsBackfill)
        .with_max_clusters(inputs.tenants.len())
        .with_events(events)
        .with_quota(TenantQuota {
            max_queue: inputs.max_queue,
            ..TenantQuota::default()
        })
}

fn generate(spec: &Value, seed: u64, tenants: u64, ops_per_tenant: usize) -> Inputs {
    let warm_permille = pinned_u64(spec, NAME, "warmup_permille") as usize;
    Inputs {
        tenants: fleet_ops(
            seed,
            tenants,
            ops_per_tenant,
            mix(pinned(spec, NAME, "mix_permille")),
            pinned_f64(spec, NAME, "rho"),
        ),
        warm: (ops_per_tenant * warm_permille / 1000).max(1),
        max_queue: pinned_u64(spec, NAME, "max_queue") as usize,
    }
}

fn request(op: &Op, st: &TenantState) -> (Request, Time) {
    match op.kind {
        OpKind::Submit => (
            Request::Submit {
                nodes: u32::from(op.nodes),
                runtime: Time::from(op.runtime),
                requested: Some(Time::from(op.requested)),
                user: op.user,
                submit: Some(op.submit),
            },
            op.submit,
        ),
        OpKind::Queue => (Request::Queue, st.at),
        OpKind::Cancel => (
            Request::Cancel {
                id: st.last_id.unwrap_or(0) as u32,
            },
            st.at,
        ),
        // Time 0 keeps the fleet-wide poll behind `metrics` from moving
        // tenants another thread is driving: the render is paid for, the
        // state stays a function of each tenant's own ops.
        OpKind::Metrics => (Request::Metrics, 0),
    }
}

/// Checks a response and folds it into the tenant's state.  A refusal
/// by the pinned queue-depth quota is an expected answer; anything else
/// that is not `ok` counts as failed.
fn absorb(op: &Op, v: &Value, st: &mut TenantState) {
    let ok = v["ok"] == true;
    match op.kind {
        OpKind::Submit => {
            st.at = st.at.max(op.submit);
            if ok {
                st.accepted += 1;
                st.last_id = v["id"].as_u64();
                st.failed += u64::from(st.last_id.is_none());
            } else if v["error"]
                .as_str()
                .is_some_and(|e| e.starts_with("quota: queue depth"))
            {
                st.refused += 1;
            } else {
                st.failed += 1;
            }
        }
        OpKind::Queue => st.failed += u64::from(!ok || v["queue"].as_array().is_none()),
        OpKind::Cancel => {
            st.failed += u64::from(!ok);
            st.cancelled += u64::from(v["cancelled"] == true);
        }
        OpKind::Metrics => {
            st.failed += u64::from(!ok || v["text"].as_str().is_none_or(str::is_empty))
        }
    }
}

/// One drive over ops `from..to` of every tenant.
struct Drive {
    wall_s: f64,
    /// Latency samples per op kind, nanoseconds.
    lat: [Vec<u32>; 4],
    tracer: Option<Tracer>,
}

impl Drive {
    fn ops(&self) -> u64 {
        self.lat.iter().map(|v| v.len() as u64).sum()
    }

    fn all_ns(&self) -> Vec<u64> {
        self.lat.iter().flatten().map(|n| u64::from(*n)).collect()
    }

    /// `(quantile in microseconds, samples)` of one op kind.
    fn kind_us(&self, kind: OpKind, q: f64) -> (f64, u64) {
        let mut v: Vec<u64> = self.lat[kind.index()]
            .iter()
            .map(|n| u64::from(*n))
            .collect();
        (quantile_us(&mut v, q), v.len() as u64)
    }
}

/// What one generator thread brings back: when it started and ended,
/// its latency samples per op kind, its spans.
type Shard = (Instant, Instant, [Vec<u32>; 4], Option<Tracer>);

/// Drives ops `from..to` of every tenant with `threads` generator
/// threads; thread `g` owns the tenants whose index is `g` modulo
/// `threads` and visits them round-robin.  With `trace`, every call is
/// also recorded as a span.
fn drive(
    fleet: &Fleet,
    inputs: &Inputs,
    state: &mut [TenantState],
    threads: usize,
    (from, to): (usize, usize),
    trace: Option<Instant>,
) -> Drive {
    let mut groups: Vec<Vec<(usize, &mut TenantState)>> =
        (0..threads).map(|_| Vec::new()).collect();
    for (i, st) in state.iter_mut().enumerate() {
        groups[i % threads].push((i, st));
    }
    let barrier = Barrier::new(threads);
    let results: Vec<Shard> = std::thread::scope(|scope| {
        let handles: Vec<_> = groups
            .into_iter()
            .enumerate()
            .map(|(g, mut group)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    // One generator per core, never two on one.
                    crate::env::pin_current_thread(g);
                    let per_kind = (to - from) * group.len();
                    let mut lat: [Vec<u32>; 4] = [
                        Vec::with_capacity(per_kind),
                        Vec::with_capacity(per_kind / 8),
                        Vec::with_capacity(per_kind / 16),
                        Vec::with_capacity(per_kind / 512),
                    ];
                    let mut tracer =
                        trace.map(|epoch| Tracer::new(epoch, crate::SPAN_CAP / threads));
                    let span = tracer.as_mut().map(|t| t.name("fleet.handle_routed"));
                    let clock = Instant::now();
                    // This guest is granted a second busy core only
                    // after about a second of demand (until then
                    // both threads lose half their time); ask for it
                    // before the timed region, not inside it.
                    while threads > 1 && clock.elapsed() < SPIN_UP {
                        std::hint::spin_loop();
                    }
                    barrier.wait();
                    let started = Instant::now();
                    for k in from..to {
                        for (i, st) in group.iter_mut() {
                            let tenant = &inputs.tenants[*i];
                            let op = &tenant.ops[k];
                            let (req, at) = request(op, st);
                            let t0 = clock.elapsed().as_nanos() as u64;
                            let (v, _) = fleet.handle_routed(Some(&tenant.id), req, at);
                            let t1 = clock.elapsed().as_nanos() as u64;
                            lat[op.kind.index()].push(u32::try_from(t1 - t0).unwrap_or(u32::MAX));
                            if let (Some(t), Some(name)) = (tracer.as_mut(), span) {
                                let end = t.now_ns();
                                t.leaf(
                                    name,
                                    (k * inputs.tenants.len() + *i) as u64,
                                    end - (t1 - t0),
                                    end,
                                );
                            }
                            absorb(op, &v, st);
                        }
                    }
                    (started, Instant::now(), lat, tracer)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    let start = results.iter().map(|r| r.0).min().expect("threads");
    let end = results.iter().map(|r| r.1).max().expect("threads");
    let mut out = Drive {
        wall_s: (end - start).as_secs_f64(),
        lat: Default::default(),
        tracer: None,
    };
    for (_, _, lat, tracer) in results {
        for (all, mine) in out.lat.iter_mut().zip(lat) {
            all.extend(mine);
        }
        if let Some(t) = tracer {
            match out.tracer.as_mut() {
                Some(all) => all.merge(t),
                None => out.tracer = Some(t),
            }
        }
    }
    out
}

/// A fleet with every tenant created and its queue filled.
struct Warm {
    fleet: Fleet,
    state: Vec<TenantState>,
    /// Mean microseconds of the submit that creates a tenant.
    create_us: f64,
}

fn warm_fleet(inputs: &Inputs, cfg: FleetConfig) -> Warm {
    let fleet = Fleet::new(cfg).expect("fleet config is valid");
    let mut state = vec![TenantState::default(); inputs.tenants.len()];
    let first = drive(&fleet, inputs, &mut state, 1, (0, 1), None);
    let create_us = first.wall_s * 1e6 / inputs.tenants.len().max(1) as f64;
    drive(&fleet, inputs, &mut state, 1, (1, inputs.warm), None);
    Warm {
        fleet,
        state,
        create_us,
    }
}

/// Per-tenant digests of the final state — what the generator counted
/// plus the tenant's queue and running set as the fleet reports them —
/// and one digest over all of them.
fn digest(fleet: &Fleet, inputs: &Inputs, state: &[TenantState]) -> (u64, Vec<u64>) {
    let per: Vec<u64> = inputs
        .tenants
        .iter()
        .zip(state)
        .map(|(t, st)| {
            let (mut view, _) = fleet.handle_routed(Some(&t.id), Request::Queue, st.at);
            if let Value::Object(map) = &mut view {
                map.remove("corr");
            }
            let text = format!(
                "{}|{}|{}|{}|{view}",
                t.id, st.accepted, st.refused, st.cancelled
            );
            fnv1a(text.as_bytes())
        })
        .collect();
    let bytes: Vec<u8> = per.iter().flat_map(|d| d.to_le_bytes()).collect();
    (fnv1a(&bytes), per)
}

/// Warms a fresh fleet, drives the measured ops with `threads`
/// generators and returns the drive, the fleet, the final state and
/// its digests.
fn full_run(
    inputs: &Inputs,
    warm: Warm,
    threads: usize,
    trace: Option<Instant>,
) -> (Drive, Fleet, Vec<TenantState>, (u64, Vec<u64>)) {
    let Warm {
        fleet, mut state, ..
    } = warm;
    let d = drive(
        &fleet,
        inputs,
        &mut state,
        threads,
        (inputs.warm, inputs.ops_per_tenant()),
        trace,
    );
    let dig = digest(&fleet, inputs, &state);
    (d, fleet, state, dig)
}

/// The fixed-seed canary: a small pinned fleet run whose digest
/// `workloads.json` pins, whatever `--seed` says.
pub fn canary_value(spec: &Value) -> Value {
    let pin = pinned(spec, NAME, "oracle");
    let inputs = generate(
        spec,
        pin["seed"].as_u64().expect("oracle.seed"),
        pin["tenants"].as_u64().expect("oracle.tenants"),
        pin["ops_per_tenant"]
            .as_u64()
            .expect("oracle.ops_per_tenant") as usize,
    );
    let warm = warm_fleet(&inputs, config(&inputs, true));
    let (_, _, state, (all, _)) = full_run(&inputs, warm, 1, None);
    let refused: u64 = state.iter().map(|s| s.refused).sum();
    Value::from(format!("{all:016x}/{refused}"))
}

/// Runs the workload.
pub fn run(spec: &Value, seed: u64, scale: f64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let threads = pinned_u64(spec, NAME, "generators") as usize;
    let tenants = pinned_u64(spec, NAME, "tenants");
    let ops_per_tenant = scaled(spec, NAME, "ops_per_tenant", scale, 40) as usize;
    let mut gen_s = Vec::new();
    let ((inputs, warm), setup_s) = crate::timed_setup(|| {
        let t0 = Instant::now();
        let inputs = generate(spec, seed, tenants, ops_per_tenant);
        gen_s.push(t0.elapsed().as_secs_f64());
        let warm = warm_fleet(&inputs, config(&inputs, true));
        (inputs, warm)
    });
    out.set("setup_s", setup_s);
    out.set(
        "workload.generator.us_per_kjob",
        median(&gen_s) * 1e6 / (inputs.submits() as f64 / 1e3),
    );
    out.set("fleet.tenant_create_us", warm.create_us);

    let (base, fleet, state, (all, per_tenant)) = full_run(&inputs, warm, threads, None);
    out.attempted = base.ops();
    out.failed = state.iter().map(|s| s.failed).sum();
    let mut lat = base.all_ns();
    out.set("ops_per_s", base.ops() as f64 / base.wall_s);
    out.set_n("op_p50_us", quantile_us(&mut lat, 0.50), base.ops());
    out.set_n("op_p95_us", quantile_us(&mut lat, 0.95), base.ops());
    let refused: u64 = state.iter().map(|s| s.refused).sum();
    let accepted: u64 = state.iter().map(|s| s.accepted).sum();
    out.notes.push(format!(
        "{} ops in {:.3} s on {threads} threads; {accepted} admitted, {refused} refused by quota, digest {all:016x}",
        base.ops(),
        base.wall_s
    ));

    // Output checks.  The fleet's own totals must match what the
    // generator saw answered.
    let status = fleet.statusz_value(false);
    if status["submitted"].as_u64() != Some(accepted)
        || status["rejected"].as_u64() != Some(refused)
    {
        out.error(format!(
            "fleet counts {}/{} differ from the responses' {accepted}/{refused}",
            status["submitted"], status["rejected"]
        ));
    }
    // One tenant in sixteen is replayed alone on a fresh fleet; its
    // final state must not depend on the company it kept.
    let sample = Inputs {
        tenants: inputs.tenants.iter().step_by(16).cloned().collect(),
        warm: inputs.warm,
        max_queue: inputs.max_queue,
    };
    let (_, _, _, (_, alone)) =
        full_run(&sample, warm_fleet(&sample, config(&sample, true)), 1, None);
    let together: Vec<u64> = per_tenant.iter().step_by(16).copied().collect();
    if alone != together {
        out.error("a tenant's final state depends on the other tenants driven beside it");
    }
    if scale == 1.0 {
        if let Some(pin) = pinned(spec, NAME, "digest")[seed.to_string().as_str()].as_str() {
            if pin != format!("{all:016x}") {
                out.error(format!(
                    "final-state digest {all:016x} differs from the pinned {pin}"
                ));
            }
        }
    }
    let expect = &pinned(spec, NAME, "oracle")["expect"];
    let got = canary_value(spec);
    if *expect != got {
        out.error(format!(
            "fleet canary digest {got} differs from the pinned {expect}"
        ));
    }

    if traced {
        layer_metrics(spec, &inputs, &base, (&fleet, all), threads, &mut out);
    }
    out.set("peak_rss_mb", crate::env::peak_rss_mb());
    out
}

fn layer_metrics(
    spec: &Value,
    inputs: &Inputs,
    base: &Drive,
    (fleet, base_digest): (&Fleet, u64),
    threads: usize,
    out: &mut Outcome,
) {
    for (kind, name) in [
        (OpKind::Submit, "fleet.handle.submit_p50_us"),
        (OpKind::Queue, "fleet.handle.queue_p50_us"),
        (OpKind::Cancel, "fleet.handle.cancel_p50_us"),
        (OpKind::Metrics, "fleet.handle.metrics_p50_us"),
    ] {
        let (p50, n) = base.kind_us(kind, 0.50);
        out.set_n(name, p50, n);
    }
    let (p99, n) = base.kind_us(OpKind::Submit, 0.99);
    out.set_n("fleet.handle.submit_p99_us", p99, n);
    out.set(
        "obs.expo.metrics_text_ms",
        crate::probes::median_of(|| {
            let t0 = Instant::now();
            std::hint::black_box(fleet.metrics_text());
            t0.elapsed().as_secs_f64() * 1e3
        }),
    );

    // The same ops under spans: the tracing overhead, and the same
    // final state.
    let (traced, _, state, (dig, _)) = full_run(
        inputs,
        warm_fleet(inputs, config(inputs, true)),
        threads,
        Some(Instant::now()),
    );
    out.failed += state.iter().map(|s| s.failed).sum::<u64>();
    out.set("trace.overhead_ratio", traced.wall_s / base.wall_s);
    if dig != base_digest {
        out.error("the traced pass ended in a different state");
    }
    let refused: u64 = state.iter().map(|s| s.refused).sum();
    let submitted: u64 = state.iter().map(|s| s.accepted + s.refused).sum();
    out.set(
        "fleet.quota.rejected_frac",
        refused as f64 / submitted.max(1) as f64,
    );
    if let Some(t) = &traced.tracer {
        crate::write_trace(NAME, t, out);
    }

    // One generator thread: the contention ratio, and the digest must
    // not depend on the thread count.
    let (single, _, _, (dig1, _)) =
        full_run(inputs, warm_fleet(inputs, config(inputs, true)), 1, None);
    if dig1 != base_digest {
        out.error(format!(
            "final state differs between 1 and {threads} generator threads: {dig1:016x} vs {base_digest:016x}"
        ));
    }
    let (multi_p50, _) = base.kind_us(OpKind::Submit, 0.50);
    let (single_p50, _) = single.kind_us(OpKind::Submit, 0.50);
    out.set("fleet.shard.contention_ratio", multi_p50 / single_p50);

    // Event instrumentation on and off, one thread, a pinned share of
    // the ops, alternating.
    let share = pinned_u64(spec, NAME, "events_probe_permille") as usize;
    let upto =
        (inputs.warm + (inputs.ops_per_tenant() - inputs.warm) * share / 1000).max(inputs.warm + 1);
    let mut walls = [Vec::new(), Vec::new()];
    for _ in 0..3 {
        for (slot, events) in [(0, false), (1, true)] {
            let Warm {
                fleet, mut state, ..
            } = warm_fleet(inputs, config(inputs, events));
            walls[slot]
                .push(drive(&fleet, inputs, &mut state, 1, (inputs.warm, upto), None).wall_s);
        }
    }
    out.set(
        "obs.events.overhead_ratio",
        median(&walls[1]) / median(&walls[0]),
    );

    daemon_probes(inputs, single_p50, out);
    snapshot_probes(inputs, out);
}

/// One standalone daemon fed tenant 0's ops: the cost of the tenant
/// daemon without routing, locks, quota or publishing.
fn daemon_probes(inputs: &Inputs, fleet_submit_p50_us: f64, out: &mut Outcome) {
    let tenant = &inputs.tenants[0];
    let mut daemon = Daemon::fresh(ServiceConfig::new(CAPACITY, PolicySpec::FcfsBackfill));
    let mut st = TenantState::default();
    let mut lat: [Vec<u64>; 4] = Default::default();
    for op in &tenant.ops {
        if op.kind == OpKind::Metrics {
            continue;
        }
        let (req, at) = request(op, &st);
        let t0 = Instant::now();
        let (v, _) = daemon.handle(req, at);
        lat[op.kind.index()].push(t0.elapsed().as_nanos() as u64);
        absorb(op, &v, &mut st);
    }
    out.failed += st.failed;
    let n = lat[0].len() as u64;
    let submit_p50 = quantile_us(&mut lat[0], 0.50);
    out.set_n("service.daemon.submit_p50_us", submit_p50, n);
    out.set_n(
        "service.daemon.submit_p99_us",
        quantile_us(&mut lat[0], 0.99),
        n,
    );
    out.set_n(
        "service.daemon.queue_view_us",
        quantile_us(&mut lat[1], 0.50),
        lat[1].len() as u64,
    );
    out.set_n(
        "service.daemon.cancel_us",
        quantile_us(&mut lat[2], 0.50),
        lat[2].len() as u64,
    );
    out.set("fleet.route.overhead_us", fleet_submit_p50_us - submit_p50);

    // Restart cost of that daemon: render, save, load + rebuild.  Disk
    // dependent; on record, moves no end-to-end metric.
    let dir = crate::env::out_dir().join(format!("snap-daemon-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch directory under benchmark/out");
    let path = dir.join("state.json");
    let mut snap = daemon.snapshot();
    out.set(
        "service.snapshot.render_us",
        crate::probes::median_of(|| {
            let t0 = Instant::now();
            snap = daemon.snapshot();
            t0.elapsed().as_secs_f64() * 1e6
        }),
    );
    out.set(
        "service.snapshot.save_us",
        crate::probes::median_of(|| {
            let t0 = Instant::now();
            snap.save(&path).expect("snapshot save");
            t0.elapsed().as_secs_f64() * 1e6
        }),
    );
    let mut restored = None;
    out.set(
        "service.snapshot.restore_us",
        crate::probes::median_of(|| {
            let t0 = Instant::now();
            let loaded = Snapshot::load(&path).expect("snapshot load");
            let cfg = ServiceConfig::new(CAPACITY, PolicySpec::FcfsBackfill);
            restored = Some(Daemon::from_snapshot(cfg, &loaded).expect("snapshot restore"));
            t0.elapsed().as_secs_f64() * 1e6
        }),
    );
    if restored.map(|d| d.queue_view()) != Some(daemon.queue_view()) {
        out.error("a daemon restored from its snapshot shows a different queue");
    }
    std::fs::remove_dir_all(&dir).expect("scratch directory removal");
}

/// Fleet restart cost: save every tenant's snapshot, then build a new
/// fleet on that directory; both must show the same state.
fn snapshot_probes(inputs: &Inputs, out: &mut Outcome) {
    let dir = crate::env::out_dir().join(format!("snap-fleet-{}", std::process::id()));
    let cfg = config(inputs, true).with_snapshot_dir(dir.clone());
    let Warm { fleet, state, .. } = warm_fleet(inputs, cfg.clone());
    let t0 = Instant::now();
    let saved = fleet.save_snapshots();
    out.set("fleet.save_snapshots_ms", t0.elapsed().as_secs_f64() * 1e3);
    let t0 = Instant::now();
    let recovered = Fleet::new(cfg);
    out.set("fleet.recover_ms", t0.elapsed().as_secs_f64() * 1e3);
    match (saved, recovered) {
        (Ok(Some(_)), Ok(recovered)) => {
            if digest(&fleet, inputs, &state).0 != digest(&recovered, inputs, &state).0 {
                out.error("a fleet recovered from its snapshots shows a different state");
            }
        }
        (saved, recovered) => out.error(format!(
            "fleet snapshot round trip failed: save {saved:?}, recover {:?}",
            recovered.err()
        )),
    }
    std::fs::remove_dir_all(&dir).expect("scratch directory removal");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> (Value, Inputs) {
        let spec = crate::env::load_spec().expect("workloads.json");
        let inputs = generate(&spec, 7, 6, 300);
        (spec, inputs)
    }

    #[test]
    fn the_digest_is_stable_and_independent_of_the_thread_count() {
        let (_, inputs) = tiny();
        let run = |threads| {
            let warm = warm_fleet(&inputs, config(&inputs, true));
            let (drive, _, state, digests) = full_run(&inputs, warm, threads, None);
            assert_eq!(drive.ops() as usize, 6 * (300 - inputs.warm));
            assert_eq!(state.iter().map(|s| s.failed).sum::<u64>(), 0);
            digests
        };
        let one = run(1);
        assert_eq!(one, run(1), "two identical runs end in the same state");
        // Two generators on a one-core box would be refused by the
        // harness; the property itself does not need the second core.
        assert_eq!(
            one,
            run(2),
            "the split of tenants over threads does not matter"
        );
        assert_eq!(one.1.len(), 6);
    }

    #[test]
    fn the_digest_sees_a_changed_outcome() {
        let (_, inputs) = tiny();
        let warm = warm_fleet(&inputs, config(&inputs, true));
        let (_, fleet, mut state, (all, _)) = full_run(&inputs, warm, 1, None);
        state[3].refused += 1;
        assert_ne!(digest(&fleet, &inputs, &state).0, all);
    }

    #[test]
    fn a_tenant_ends_the_same_alone_as_in_company() {
        let (_, inputs) = tiny();
        let together = full_run(&inputs, warm_fleet(&inputs, config(&inputs, true)), 1, None)
            .3
             .1;
        let alone = Inputs {
            tenants: vec![inputs.tenants[4].clone()],
            warm: inputs.warm,
            max_queue: inputs.max_queue,
        };
        let single = full_run(&alone, warm_fleet(&alone, config(&alone, true)), 1, None)
            .3
             .1;
        assert_eq!(single, vec![together[4]]);
    }

    #[test]
    fn a_wrong_oracle_is_noticed() {
        let (spec, _) = tiny();
        let pinned = &pinned(&spec, NAME, "oracle")["expect"];
        assert_eq!(
            *pinned,
            canary_value(&spec),
            "workloads.json pins the canary"
        );
        assert_ne!(*pinned, Value::from("0000000000000000/0"));
    }
}
