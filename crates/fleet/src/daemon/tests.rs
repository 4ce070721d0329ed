use crate::{Fleet, FleetConfig};
use sbs_core::PolicySpec;
use sbs_obs::{ObsConfig, TimeMode};
use sbs_service::protocol::SubmitSpec;
use sbs_service::{Cluster, Request, ServerHandler, ServiceConfig};
use sbs_workload::job::JobId;
use sbs_workload::time::{Time, HOUR};
use serde_json::Value;
use std::time::Duration;

fn cluster(capacity: u32) -> Cluster {
    Cluster::fresh(ServiceConfig::new(capacity, PolicySpec::FcfsBackfill))
}

/// What `sbs serve` runs by default: a fleet whose one tenant every
/// un-routed request reaches.
fn serve(cfg: FleetConfig) -> Fleet {
    Fleet::new(cfg).expect("fleet")
}

/// Submits an hour-long job without naming a cluster, asserting it is
/// admitted.
fn admitted(f: &Fleet, nodes: u32, at: Time) {
    let (v, _) = f.handle_routed(None, submit(nodes, at), at);
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

/// A throwaway directory under the system temp dir, empty on return.
fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("sbs-daemon-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

#[test]
fn submit_runs_one_decision_and_starts_fitting_jobs() {
    let mut d = cluster(8);
    let (id, started) = d.submit_at(100, 4, HOUR, None, 0).expect("submit");
    assert_eq!(id, JobId(0));
    assert!(started);
    assert_eq!(d.now(), 100);
    let (id2, started2) = d.submit_at(100, 8, HOUR, None, 0).expect("submit");
    assert_eq!(id2, JobId(1));
    assert!(!started2, "8 nodes cannot fit next to 4 on 8");
}

#[test]
fn oversized_and_draining_submissions_are_rejected() {
    let mut d = cluster(8);
    assert!(d.submit_at(0, 9, HOUR, None, 0).is_err());
    d.drain();
    assert!(d.submit_at(0, 1, HOUR, None, 0).is_err());
}

#[test]
fn departures_between_submissions_replay_as_decision_points() {
    let mut d = cluster(8);
    d.submit_at(0, 8, HOUR, None, 0).expect("submit");
    d.submit_at(10, 8, HOUR, None, 0).expect("submit"); // waits
                                                        // Submitting long after both jobs' departures replays them.
    let (_, started) = d.submit_at(3 * HOUR, 8, HOUR, None, 0).expect("submit");
    assert!(started, "machine drained by then");
    assert_eq!(d.records().len(), 2);
    assert_eq!(d.records()[0].end, HOUR);
    assert_eq!(
        d.records()[1].start,
        HOUR,
        "queued job started at departure"
    );
}

#[test]
fn drain_completes_everything() {
    let mut d = cluster(8);
    for i in 0..5 {
        d.submit_at(i * 10, 4, HOUR, None, 0).expect("submit");
    }
    let (completed, leftover) = d.drain();
    assert_eq!(completed, 5);
    assert_eq!(leftover, 0);
    assert_eq!(d.metrics().completed.count, 5);
}

#[test]
fn snapshot_round_trip_restores_the_same_world() {
    let mut d = cluster(8);
    d.submit_at(0, 4, 2 * HOUR, Some(3 * HOUR), 1)
        .expect("submit");
    d.submit_at(50, 8, HOUR, None, 2).expect("submit"); // waits
    let snap = d.snapshot();
    assert_eq!(snap.waiting.len(), 1);
    assert_eq!(snap.running.len(), 1);

    let cfg = ServiceConfig::new(8, PolicySpec::FcfsBackfill);
    let mut d2 = Cluster::from_snapshot(cfg, &snap).expect("restore");
    assert_eq!(d2.now(), d.now());
    assert_eq!(d2.snapshot(), snap, "snapshot of the restore is identical");

    // Both worlds evolve identically from here.
    let (a, _) = d.drain();
    let (b, _) = d2.drain();
    assert_eq!(a, b);
    assert_eq!(
        d.records().last().map(|r| (r.id, r.start, r.end)),
        d2.records().last().map(|r| (r.id, r.start, r.end)),
    );
}

#[test]
fn capacity_mismatch_is_rejected_on_restore() {
    let mut d = cluster(8);
    let snap = d.snapshot();
    let err = Cluster::from_snapshot(ServiceConfig::new(16, PolicySpec::FcfsBackfill), &snap)
        .unwrap_err();
    assert!(err.contains("8-node"));
}

#[test]
fn handle_dispatches_the_full_protocol() {
    let f = serve(FleetConfig::new(8, PolicySpec::FcfsBackfill));
    let (v, stop) = f.handle_routed(None, submit(2, 5), 0);
    assert!(!stop);
    assert_eq!(v["ok"], true);
    assert_eq!(v["id"].as_u64(), Some(0));
    assert_eq!(v["started"], true);

    let (v, _) = f.handle_routed(None, Request::Queue, 5);
    assert_eq!(v["running"].as_array().map(Vec::len), Some(1));

    let (v, _) = f.handle_routed(None, Request::Cancel { id: 0 }, 5);
    assert_eq!(v["cancelled"], false, "running jobs cannot be cancelled");

    let (v, _) = f.handle_routed(None, Request::Metrics, 5);
    let text = v["text"].as_str().unwrap();
    assert!(text.contains("sbs_fleet_running_jobs 1"), "{text}");

    let (v, _) = f.handle_routed(None, Request::Drain, 5);
    assert_eq!(v["completed"].as_u64(), Some(1));

    let (v, stop) = f.handle_routed(None, Request::Shutdown, 5);
    assert_eq!(v["ok"], true);
    assert!(stop);

    // The server-wide ops have one body, the fleet's: a bare cluster
    // refuses them by name.
    let mut c = cluster(8);
    for (req, op) in [
        (Request::Metrics, "metrics"),
        (Request::Snapshot, "snapshot"),
        (Request::Shutdown, "shutdown"),
    ] {
        let (v, admitted) = c.handle(req, 0);
        assert_eq!((v["ok"].as_bool(), admitted), (Some(false), 0), "{v}");
        assert!(v["error"].as_str().unwrap().contains(op), "{v}");
    }
}

#[test]
fn batched_submit_reports_per_job_results_in_one_response() {
    let mut d = cluster(8);
    let spec = |nodes: u32| SubmitSpec {
        nodes,
        runtime: HOUR,
        requested: None,
        user: 0,
        submit: Some(10),
    };
    let (v, admitted) = d.handle(
        Request::SubmitBatch {
            jobs: vec![spec(4), spec(9), spec(4)],
        },
        0,
    );
    assert_eq!(admitted, 2);
    assert_eq!(v["ok"], true);
    assert_eq!(v["accepted"].as_u64(), Some(2));
    let results = v["results"].as_array().expect("results array");
    assert_eq!(results.len(), 3);
    assert_eq!(results[0]["started"], true);
    assert_eq!(results[1]["ok"], false, "9 nodes never fit on 8");
    assert_eq!(results[2]["started"], true);
    // Batch parity: the same jobs one-at-a-time give identical ids.
    assert_eq!(results[0]["id"].as_u64(), Some(0));
    assert_eq!(results[2]["id"].as_u64(), Some(1));
}

#[test]
fn search_policies_report_expanded_nodes() {
    let mut d = Cluster::fresh(ServiceConfig::new(8, PolicySpec::dds_lxf_dynb(1_000)));
    d.submit_at(0, 8, HOUR, None, 0).expect("submit");
    d.submit_at(1, 4, HOUR, None, 1).expect("submit");
    d.submit_at(2, 4, 2 * HOUR, None, 2).expect("submit");
    assert!(d.metrics().search_nodes > 0);
    let (completed, leftover) = d.drain();
    assert_eq!((completed, leftover), (3, 0));
}

#[test]
fn dds_policy_reports_expanded_nodes_and_deadline_truncations() {
    // The fleet's deadline reaches each tenant's search policy through
    // `build_search()`, and the truncations and nodes it counts reach
    // /statusz and the tenant's /metrics.
    let mut cfg = FleetConfig::new(8, PolicySpec::dds_lxf_dynb(100_000));
    cfg.deadline = Some(Duration::ZERO);
    let f = serve(cfg);
    admitted(&f, 8, 0);
    for at in 1..=9 {
        let (v, _) = f.handle_routed(None, submit(1, at), at);
        assert_eq!(v["ok"], true, "{v}");
    }
    assert!(f.statusz_value(false)["search_nodes"].as_u64() > Some(0));
    let text = f.cluster_metrics_text("default").expect("tenant metrics");
    let scraped = |family: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(family)?.strip_prefix(' '))
            .and_then(|v| v.parse::<u64>().ok())
    };
    assert!(
        scraped("sbs_search_deadline_truncations_total") > Some(0),
        "{text}"
    );
    assert!(
        scraped("sbs_search_nodes_total") > Some(0),
        "/metrics under-reports the search: {text}"
    );
    let (v, _) = f.handle_routed(None, Request::Drain, 9);
    assert_eq!(
        (v["completed"].as_u64(), v["leftover"].as_u64()),
        (Some(10), Some(0))
    );
}

#[test]
fn live_metrics_text_validates_and_carries_search_families() {
    let mut f = serve(FleetConfig::new(8, PolicySpec::dds_lxf_dynb(1_000)));
    admitted(&f, 8, 0);
    admitted(&f, 4, 1);
    f.handle_routed(None, Request::Drain, 1);
    let reply = f.http_get("/metrics?cluster=default", 1);
    assert_eq!(reply.status, 200);
    let text = reply.body;
    sbs_obs::expo::validate(&text).expect("live /metrics text validates");
    assert!(text.contains("# TYPE sbs_decisions_total counter\n"));
    assert!(text.contains("# TYPE sbs_search_leaves_total counter\n"));
    assert!(text.contains("# TYPE sbs_queue_depth_at_decision histogram\n"));
    assert!(text.contains("# TYPE sbs_wait_seconds histogram\n"));
    assert!(text.contains("sbs_wait_seconds_count 2\n"));
    assert!(text.contains("# TYPE sbs_decision_wall_nanos histogram\n"));
    assert_eq!(f.http_get("/metrics?cluster=ghost", 1).status, 404);
}

#[test]
fn handle_mints_dense_correlation_ids_and_stamps_decisions() {
    // Every decision is an incident, so the ring shows each decision's
    // trace as the tenant recorded it.
    let cfg = FleetConfig::new(8, PolicySpec::dds_lxf_dynb(500))
        .with_obs(ObsConfig::default().with_slow_thresholds(Some(0), None));
    let mut f = serve(cfg);
    let (v, _) = f.handle_routed(None, submit(2, 0), 0);
    assert_eq!(v["corr"].as_u64(), Some(1));
    let (v, _) = f.handle_routed(None, submit(2, 1), 1);
    assert_eq!(v["corr"].as_u64(), Some(2));
    let last_decision = |f: &Fleet| {
        let (v, _) = f.handle_routed(None, Request::Incidents, 0);
        v["incidents"]
            .as_array()
            .expect("incidents")
            .last()
            .expect("one")["decision"]
            .clone()
    };
    // The second submit's decision carries its request id end to end.
    let last = last_decision(&f);
    assert_eq!(last["corr"].as_u64(), Some(2), "{last}");
    assert_eq!(
        last["search"]["trace_id"].as_u64(),
        Some(2),
        "policy stamped the request id: {last}"
    );
    // Decisions not triggered by a request stay unscoped.
    ServerHandler::poll_to(&mut f, 2 * HOUR);
    let last = last_decision(&f);
    assert_eq!(last["now"].as_u64(), Some(HOUR + 1), "{last}");
    assert!(last.get("corr").is_none(), "corr 0 is not rendered: {last}");
}

#[test]
fn slow_decision_thresholds_fill_the_incident_ring() {
    let cfg = FleetConfig::new(8, PolicySpec::dds_lxf_dynb(500))
        .with_obs(ObsConfig::default().with_slow_thresholds(None, Some(0)));
    let f = serve(cfg);
    admitted(&f, 4, 0);
    admitted(&f, 8, 1);
    let (v, _) = f.handle_routed(None, Request::Incidents, 1);
    assert_eq!(v["ok"], true);
    assert!(
        v["captured"].as_u64().unwrap_or(0) >= 2,
        "every decision trips Some(0): {v}"
    );
    let items = v["incidents"].as_array().expect("incident array");
    assert_eq!(items.len() as u64, v["captured"].as_u64().unwrap());
    assert!(items[0]["reason"].as_str().unwrap().contains("nodes_left"));
    assert!(items[0]["decision"]["seq"].as_u64().is_some());
    assert_eq!(items[0]["cluster"], "default");
    // The same ring is what /statusz?incidents=1 inlines.
    let s = f.statusz_value(true);
    assert_eq!(s["incidents"].as_array().map(Vec::len), Some(items.len()));
}

#[test]
fn healthz_reports_draining_and_statusz_carries_the_status_fields() {
    let mut f = serve(FleetConfig::new(8, PolicySpec::dds_lxf_dynb(500)));
    let h = f.healthz_value();
    assert_eq!(h["ok"], true, "no tenant yet: ready for the first");
    admitted(&f, 4, 0);
    let h = f.healthz_value();
    assert_eq!(h["ok"], true);
    assert_eq!(h["draining"], false);
    assert_eq!(h["overloaded"], false);
    f.observe_request_ns(r#"{"op":"submit","nodes":1,"runtime":60}"#, 5_000);
    f.observe_request_ns(r#"{"op":"queue"}"#, 5_000);
    let s = f.statusz_value(false);
    assert_eq!(s["schema"].as_str(), Some("sbs-fleet-statusz/v1"));
    assert_eq!(s["policy"].as_str(), Some("DDS/lxf/dynB"));
    assert_eq!(s["capacity"].as_u64(), Some(8));
    assert_eq!(s["per_cluster"][0]["cluster"], "default");
    assert_eq!(s["per_cluster"][0]["free_nodes"].as_u64(), Some(4));
    assert_eq!(s["submit_latency_ns"]["count"].as_u64(), Some(1));
    assert!(s["submit_latency_ns"]["p99"].as_u64().unwrap() >= 5_000);
    assert!(s["decisions"].as_u64().unwrap() >= 1);
    assert!(s.get("incidents").is_none(), "incidents are opt-in");
    assert!(f.statusz_value(true).get("incidents").is_some());
    let (v, _) = f.handle_routed(None, Request::Drain, 0);
    assert_eq!(v["ok"], true);
    // Hour-long jobs crossed many 60s window boundaries.
    ServerHandler::poll_to(&mut f, HOUR);
    let s = f.statusz_value(false);
    assert!(!s["windows"].as_array().unwrap().is_empty());
    let h = f.healthz_value();
    assert_eq!(h["ok"], false, "draining daemons are not ready");
    assert_eq!(h["draining"], true);
    assert_eq!(f.http_get("/healthz", HOUR).status, 503);

    // More than 8 × capacity waiting jobs per tenant is overload.
    let f = serve(FleetConfig::new(1, PolicySpec::FcfsBackfill));
    for at in 0..9 {
        admitted(&f, 1, at);
    }
    assert_eq!(f.healthz_value()["overloaded"], false, "8 waiting");
    admitted(&f, 1, 9);
    let h = f.healthz_value();
    assert_eq!(
        (h["overloaded"].as_bool(), h["ok"].as_bool()),
        (Some(true), Some(false))
    );
}

#[test]
fn virtual_mode_event_journals_are_byte_identical_across_runs() {
    let dir = scratch("events");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let run = |name: &str| -> String {
        let path = dir.join(name);
        let cfg = FleetConfig::new(8, PolicySpec::dds_lxf_dynb(500)).with_obs(
            ObsConfig::default()
                .with_event_mode(TimeMode::Virtual)
                .with_event_log(path.clone(), 1 << 20),
        );
        let mut f = serve(cfg);
        for t in 0..4u64 {
            // Accepted submits journal at Debug, below the Info floor;
            // refused ones at Error.
            let line = format!(r#"{{"op":"submit","nodes":4,"runtime":3600,"submit":{t}}}"#);
            assert_eq!(f.handle_line(&line, t).0["ok"], true);
            let line = format!(r#"{{"op":"submit","nodes":9,"runtime":3600,"submit":{t}}}"#);
            assert_eq!(f.handle_line(&line, t).0["ok"], false);
        }
        assert_eq!(f.handle_line(r#"{"op":"drain"}"#, 4).0["ok"], true);
        f.on_shutdown();
        std::fs::read_to_string(&path).expect("journal file")
    };
    let a = run("a.jsonl");
    let b = run("b.jsonl");
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(a, b, "virtual-mode journals must be byte-identical");
    assert_eq!(
        a.lines().count(),
        6,
        "meta line plus the four refusals and the drain: {a}"
    );
    let meta: Value = serde_json::from_str(a.lines().next().unwrap()).unwrap();
    assert_eq!(meta["schema"].as_str(), Some(sbs_obs::EVENT_SCHEMA));
    assert_eq!(meta["mode"].as_str(), Some("virtual"));
    assert!(
        !a.contains("wall_ns"),
        "virtual journals omit wall durations"
    );
    assert!(a.contains("\"kind\":\"submit\""));
    assert!(a.contains("\"kind\":\"drain\""));
    assert!(!a.contains("slow_decision"), "incidents are not journaled");
}

#[test]
fn trace_log_captures_wall_mode_decisions() {
    let dir = scratch("trace");
    let mut cfg = FleetConfig::new(8, PolicySpec::dds_lxf_dynb(1_000));
    cfg.trace_dir = Some(dir.clone());
    let mut f = serve(cfg);
    admitted(&f, 4, 0);
    admitted(&f, 8, 1);
    f.handle_routed(None, Request::Drain, 1);
    f.on_shutdown();
    let text = std::fs::read_to_string(dir.join("trace-default.jsonl")).expect("trace log");
    std::fs::remove_dir_all(&dir).ok();
    let meta_line = text.lines().next().expect("meta line");
    let meta =
        sbs_obs::TraceMeta::from_value(&serde_json::from_str(meta_line).expect("meta parses"))
            .expect("schema accepted");
    assert_eq!(meta.mode, "wall");
    assert!(meta.policy.contains("DDS"));
    assert!(text.lines().count() > 1, "decisions recorded");
    assert!(
        text.lines().nth(1).expect("decision").contains("wall_ns"),
        "wall mode serializes wall_ns"
    );
}
