//! End-to-end suites for what `sbs serve` runs:
//!
//! 1. **Batch parity** — a virtual-clock cluster fed a workload one job
//!    at a time produces exactly the per-job start times of
//!    [`sbs_sim::simulate`], because both drive the same
//!    [`sbs_sim::SchedulerCore`]; so does a one-tenant fleet fed the
//!    same jobs as un-routed protocol requests.
//! 2. **Kill and restart** — a cluster killed mid-stream and recovered
//!    from its snapshot resumes with the same queue contents and loses
//!    or duplicates no job.
//! 3. **TCP front end** — submit / queue / metrics / `GET /metrics` /
//!    shutdown over a real socket, without naming a cluster.

use sbs_core::PolicySpec;
use sbs_fleet::{Fleet, FleetConfig};
use sbs_service::{Cluster, Request, Server, ServerHandler, ServiceConfig, VirtualClock};
use sbs_sim::engine::{simulate, SimConfig};
use sbs_workload::generator::{random_workload, RandomWorkloadCfg, Workload};
use sbs_workload::job::{JobId, RuntimeKnowledge};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;

/// A small workload with *strictly increasing* submit times.
///
/// The batch engine groups all arrivals at one timestamp into a single
/// decision point; a live cluster necessarily decides per submission.
/// The two are byte-identical whenever timestamps are unique, so parity
/// is asserted on that (realistic) class of workloads.
fn staggered_workload(seed: u64) -> Workload {
    let mut w = random_workload(
        RandomWorkloadCfg {
            jobs: 120,
            capacity: 16,
            ..Default::default()
        },
        seed,
    );
    let mut last = None;
    for job in &mut w.jobs {
        let submit = match last {
            Some(prev) if job.submit <= prev => prev + 1,
            _ => job.submit,
        };
        job.submit = submit;
        last = Some(submit);
    }
    w
}

/// Each job's start time as the decision logs at `paths` record it; a
/// job started twice fails the test.
fn logged_starts(paths: &[&Path]) -> BTreeMap<u32, u64> {
    let mut starts = BTreeMap::new();
    for path in paths {
        let log = std::fs::read_to_string(path).expect("decision log");
        // The first line is the log's meta header.
        for line in log.lines().skip(1) {
            let d: serde_json::Value = serde_json::from_str(line).expect("decision line");
            for id in d["started"].as_array().expect("started ids") {
                let id = u32::try_from(id.as_u64().expect("job id")).expect("u32 id");
                let at = d["now"].as_u64().expect("decision time");
                assert_eq!(starts.insert(id, at), None, "job {id} started twice");
            }
        }
    }
    starts
}

/// Replays `workload` through a fresh virtual-clock cluster and returns
/// each job's start time as its decision log records it.
fn cluster_starts(
    workload: &Workload,
    spec: PolicySpec,
    knowledge: RuntimeKnowledge,
) -> BTreeMap<u32, u64> {
    let log = std::env::temp_dir().join(format!(
        "sbs-cluster-parity-{}-{knowledge:?}-{}.jsonl",
        spec.name().replace('/', "_"),
        std::process::id()
    ));
    std::fs::remove_file(&log).ok();
    let mut cfg = ServiceConfig::new(workload.capacity, spec);
    cfg.knowledge = knowledge;
    cfg.trace_log = Some(log.clone());
    let mut cluster = Cluster::fresh(cfg);
    for job in &workload.jobs {
        let (id, _) = cluster
            .submit_at(
                job.submit,
                job.nodes,
                job.runtime,
                Some(job.requested),
                job.user,
            )
            .expect("submit");
        assert_eq!(id, job.id, "the cluster assigns ids in submission order");
    }
    let (completed, leftover) = cluster.drain();
    assert_eq!(leftover, 0, "drain left jobs waiting");
    assert_eq!(
        cluster.tally().wait_seconds.count(),
        workload.jobs.len() as u64
    );
    assert!(completed > 0, "drain completes the jobs still running");
    cluster.flush_traces().expect("flush");
    let starts = logged_starts(&[&log]);
    std::fs::remove_file(&log).ok();
    starts
}

/// Replays `workload` through a one-tenant fleet, one un-routed
/// `submit` request per job, and returns each job's start time as the
/// tenant's decision log (`--trace-dir`) records it.
fn fleet_starts(workload: &Workload, spec: PolicySpec, tag: &str) -> BTreeMap<u32, u64> {
    let dir = std::env::temp_dir().join(format!("sbs-parity-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut cfg = FleetConfig::new(workload.capacity, spec);
    cfg.trace_dir = Some(dir.clone());
    let mut fleet = Fleet::new(cfg).expect("fleet");
    for job in &workload.jobs {
        let req = Request::Submit {
            nodes: job.nodes,
            runtime: job.runtime,
            requested: Some(job.requested),
            user: job.user,
            submit: Some(job.submit),
        };
        let (v, _) = fleet.handle_routed(None, req, job.submit);
        assert_eq!(v["id"].as_u64(), Some(u64::from(job.id.0)), "{v}");
    }
    let (v, _) = fleet.handle_routed(None, Request::Drain, 0);
    assert_eq!(v["leftover"].as_u64(), Some(0), "{v}");
    fleet.on_shutdown();
    let starts = logged_starts(&[&dir.join("trace-default.jsonl")]);
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(starts.len(), workload.jobs.len(), "every job started once");
    starts
}

/// Runs the batch simulator and returns each job's start time.
fn batch_starts(
    workload: &Workload,
    spec: PolicySpec,
    knowledge: RuntimeKnowledge,
) -> BTreeMap<u32, u64> {
    let result = simulate(
        workload,
        spec.build(),
        SimConfig {
            knowledge,
            ..Default::default()
        },
    );
    result.records.iter().map(|r| (r.id.0, r.start)).collect()
}

#[test]
fn daemon_matches_batch_simulator_for_backfill() {
    for seed in [1, 7] {
        let w = staggered_workload(seed);
        let batch = batch_starts(&w, PolicySpec::FcfsBackfill, RuntimeKnowledge::Actual);
        let live = cluster_starts(&w, PolicySpec::FcfsBackfill, RuntimeKnowledge::Actual);
        assert_eq!(batch, live, "seed {seed}: FCFS-backfill starts diverge");
        let served = fleet_starts(&w, PolicySpec::FcfsBackfill, &format!("bf{seed}"));
        assert_eq!(batch, served, "seed {seed}: the one-tenant fleet diverges");
    }
}

#[test]
fn daemon_matches_batch_simulator_for_search() {
    // The paper's headline policy, with the requested-runtime knowledge
    // mode for good measure.
    for knowledge in [RuntimeKnowledge::Actual, RuntimeKnowledge::Requested] {
        let w = staggered_workload(3);
        let spec = PolicySpec::dds_lxf_dynb(300);
        let batch = batch_starts(&w, spec.clone(), knowledge);
        let live = cluster_starts(&w, spec.clone(), knowledge);
        assert_eq!(batch, live, "{knowledge:?}: DDS/lxf/dynB starts diverge");
        // The fleet runs the paper's default knowledge mode only.
        if knowledge == RuntimeKnowledge::Actual {
            let served = fleet_starts(&w, spec, "dds");
            assert_eq!(batch, served, "the one-tenant fleet diverges");
        }
    }
}

#[test]
fn kill_and_restart_resumes_with_the_same_queue() {
    let dir = std::env::temp_dir().join("sbs-service-restart-test");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("state.json");
    let (log_before, log_after) = (dir.join("before.jsonl"), dir.join("after.jsonl"));
    for stale in [&path, &log_before, &log_after] {
        std::fs::remove_file(stale).ok();
    }

    let w = staggered_workload(11);
    let mut cfg = ServiceConfig::new(w.capacity, PolicySpec::LxfBackfill);
    cfg.snapshot_path = Some(path.clone());
    cfg.trace_log = Some(log_before.clone());
    let mut first = Cluster::new(cfg.clone()).expect("fresh cluster");
    let killed_after = 60;
    for job in &w.jobs[..killed_after] {
        first
            .submit_at(
                job.submit,
                job.nodes,
                job.runtime,
                Some(job.requested),
                job.user,
            )
            .expect("submit");
    }
    let (snap, at) = first.render_snapshot().expect("path set");
    snap.save(&at).expect("snapshot");
    let pre_kill = first.snapshot();
    let completed_before = first.tally().wait_seconds.count();
    first.flush_traces().expect("flush");
    drop(first); // the "kill": no drain, no further writes

    // Restart from disk: Cluster::new finds the snapshot at the path.
    cfg.trace_log = Some(log_after.clone());
    let mut second = Cluster::new(cfg).expect("recovered cluster");
    let resumed = second.snapshot();
    assert_eq!(resumed, pre_kill, "restart reproduces the exact state");
    assert_eq!(
        resumed.waiting.iter().map(|e| e.job.id).collect::<Vec<_>>(),
        pre_kill
            .waiting
            .iter()
            .map(|e| e.job.id)
            .collect::<Vec<_>>(),
    );

    // Feed the remainder and finish everything.
    for job in &w.jobs[killed_after..] {
        second
            .submit_at(
                job.submit,
                job.nodes,
                job.runtime,
                Some(job.requested),
                job.user,
            )
            .expect("submit");
    }
    let (_, leftover) = second.drain();
    assert_eq!(leftover, 0);
    second.flush_traces().expect("flush");

    // No job lost, none duplicated: pre-kill and post-restart starts
    // partition the workload, and so do the completions each process
    // counted (the restarted tally counts from 0).
    let started: Vec<JobId> = logged_starts(&[&log_before, &log_after])
        .into_keys()
        .map(JobId)
        .collect();
    let expected: Vec<JobId> = (0..).take(w.jobs.len()).map(JobId).collect();
    assert_eq!(started, expected, "every job started exactly once");
    assert_eq!(
        completed_before + second.tally().wait_seconds.count(),
        w.jobs.len() as u64,
        "every job completed exactly once"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn tcp_server_speaks_json_and_http() {
    let fleet = Fleet::new(FleetConfig::new(8, PolicySpec::FcfsBackfill)).expect("fleet");
    let server = Server::new(fleet, VirtualClock::default());
    let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).expect("bind");
    let addr = listener.local_addr().expect("addr");
    let handle = std::thread::spawn(move || server.run(listener));

    let send = |line: &str| -> serde_json::Value {
        let mut stream = TcpStream::connect(addr).expect("connect");
        writeln!(stream, "{line}").expect("write");
        let mut response = String::new();
        BufReader::new(stream)
            .read_line(&mut response)
            .expect("read");
        serde_json::from_str(response.trim()).expect("json response")
    };

    let v = send(r#"{"op":"submit","nodes":4,"runtime":3600,"submit":100}"#);
    assert_eq!(v["ok"], true);
    assert_eq!(v["id"].as_u64(), Some(0));
    let v = send(r#"{"op":"submit","nodes":8,"runtime":60,"submit":200}"#);
    assert_eq!(v["id"].as_u64(), Some(1));
    assert_eq!(v["started"], false, "does not fit beside job 0");

    let v = send(r#"{"op":"queue"}"#);
    assert_eq!(v["now"].as_u64(), Some(200));
    assert_eq!(v["queue"].as_array().map(Vec::len), Some(1));
    assert_eq!(v["running"].as_array().map(Vec::len), Some(1));

    let v = send(r#"{"op":"nonsense"}"#);
    assert_eq!(v["ok"], false);

    // Plain HTTP probes on the same port: the server's exposition, and
    // the tenant's own.
    let get = |path: &str| -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(stream, "GET {path} HTTP/1.0\r\n\r\n").expect("write");
        let mut body = String::new();
        stream.read_to_string(&mut body).expect("read http");
        body
    };
    let body = get("/metrics");
    assert!(body.starts_with("HTTP/1.0 200 OK"), "{body}");
    assert!(body.contains("sbs_fleet_queue_depth 1"), "{body}");
    assert!(body.contains("sbs_fleet_running_jobs 1"), "{body}");
    let body = get("/metrics?cluster=default");
    assert!(body.starts_with("HTTP/1.0 200 OK"), "{body}");
    assert!(body.contains("sbs_queue_depth 1"), "{body}");
    assert!(body.contains("sbs_running_jobs 1"), "{body}");
    let body = get("/metrics?cluster=ghost");
    assert!(body.starts_with("HTTP/1.0 404 Not Found"), "{body}");
    assert!(body.contains("unknown cluster"), "{body}");

    let v = send(r#"{"op":"drain"}"#);
    assert_eq!(v["completed"].as_u64(), Some(2));

    let v = send(r#"{"op":"shutdown"}"#);
    assert_eq!(v["ok"], true);
    handle.join().expect("join").expect("clean exit");
}
