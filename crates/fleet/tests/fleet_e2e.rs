//! End-to-end suites for the fleet daemon:
//!
//! 1. **TCP routing** — one socket, many clusters: `cluster`-tagged
//!    submits land in isolated tenants, batched submits report per-job
//!    results, unknown clusters get typed errors, and `GET /metrics`
//!    serves the fleet exposition with per-cluster labels.
//! 2. **Kill and restart** — a fleet killed after snapshotting recovers
//!    every tenant from the manifest with queues intact.
//! 3. **Concurrent callers** — tenants driven from several threads at
//!    once end in exactly the state one thread leaves.

use sbs_core::PolicySpec;
use sbs_fleet::{Fleet, FleetConfig, TenantQuota, MANIFEST_SCHEMA};
use sbs_service::protocol::Request;
use sbs_service::{Server, SubmitSpec, VirtualClock};
use serde_json::Value;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let mut dir = std::env::temp_dir();
    dir.push(format!("sbs-fleet-e2e-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn start(
    fleet: Fleet,
) -> (
    std::net::SocketAddr,
    std::thread::JoinHandle<std::io::Result<()>>,
) {
    let server = Server::new(fleet, VirtualClock::default());
    let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).expect("bind");
    let addr = listener.local_addr().expect("addr");
    (addr, std::thread::spawn(move || server.run(listener)))
}

fn send(addr: std::net::SocketAddr, line: &str) -> serde_json::Value {
    let mut stream = TcpStream::connect(addr).expect("connect");
    writeln!(stream, "{line}").expect("write");
    let mut response = String::new();
    BufReader::new(stream)
        .read_line(&mut response)
        .expect("read");
    serde_json::from_str(response.trim()).expect("json response")
}

#[test]
fn tcp_fleet_routes_clusters_batches_and_serves_labeled_metrics() {
    let fleet = Fleet::new(FleetConfig::new(8, PolicySpec::FcfsBackfill)).expect("fleet");
    let (addr, handle) = start(fleet);

    // Two tenants, one socket; job ids number independently.
    let v = send(
        addr,
        r#"{"op":"submit","cluster":"alpha","nodes":4,"runtime":3600,"submit":100}"#,
    );
    assert_eq!(v["ok"], true, "{v}");
    assert_eq!(v["id"].as_u64(), Some(0));
    let v = send(
        addr,
        r#"{"op":"submit","cluster":"beta","nodes":8,"runtime":60,"submit":100}"#,
    );
    assert_eq!(v["id"].as_u64(), Some(0), "beta numbers from zero");

    // A batch on alpha: the 9-node job cannot ever fit on 8 nodes.
    let v = send(
        addr,
        r#"{"op":"submit_batch","cluster":"alpha","jobs":[{"nodes":2,"runtime":60,"submit":150},{"nodes":9,"runtime":60,"submit":150}]}"#,
    );
    assert_eq!(v["ok"], true, "{v}");
    assert_eq!(v["accepted"].as_u64(), Some(1));
    assert_eq!(v["results"][0]["ok"], true);
    assert_eq!(v["results"][1]["ok"], false);

    // Per-cluster queue views.
    let v = send(addr, r#"{"op":"queue","cluster":"alpha"}"#);
    assert_eq!(v["running"].as_array().map(Vec::len), Some(2));
    let v = send(addr, r#"{"op":"queue","cluster":"beta"}"#);
    assert_eq!(v["running"].as_array().map(Vec::len), Some(1));

    // Unknown cluster: typed error, connection and loop survive.
    let v = send(addr, r#"{"op":"queue","cluster":"ghost"}"#);
    assert_eq!(v["ok"], false);
    assert!(
        v["error"]
            .as_str()
            .unwrap_or_default()
            .contains("unknown cluster"),
        "{v}"
    );
    // Invalid cluster id: typed error from validation, not a tenant.
    let v = send(addr, r#"{"op":"queue","cluster":"no spaces"}"#);
    assert_eq!(v["ok"], false);

    // The HTTP metrics probe serves the fleet exposition.
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(stream, "GET /metrics HTTP/1.0\r\n\r\n").expect("write");
    let mut body = String::new();
    stream.read_to_string(&mut body).expect("read http");
    assert!(body.starts_with("HTTP/1.0 200 OK"), "{body}");
    assert!(body.contains("sbs_fleet_clusters 2"), "{body}");
    assert!(
        body.contains("sbs_cluster_submitted_total{cluster=\"alpha\"} 2"),
        "{body}"
    );
    assert!(
        body.contains("sbs_cluster_rejected_total{cluster=\"alpha\"} 1"),
        "the impossible 9-node job counts as rejected: {body}"
    );
    assert!(
        body.contains("sbs_cluster_submitted_total{cluster=\"beta\"} 1"),
        "{body}"
    );

    let v = send(addr, r#"{"op":"drain"}"#);
    assert_eq!(v["ok"], true, "{v}");
    assert_eq!(v["completed"].as_u64(), Some(3), "{v}");

    let v = send(addr, r#"{"op":"shutdown"}"#);
    assert_eq!(v["ok"], true);
    handle.join().expect("join").expect("clean exit");
}

#[test]
fn killed_fleet_recovers_every_tenant_from_the_manifest() {
    let dir = temp_dir("recovery");
    let cfg = || {
        FleetConfig::new(8, PolicySpec::FcfsBackfill)
            .with_snapshot_dir(dir.clone())
            .with_quota(TenantQuota {
                max_queue: 16,
                ..Default::default()
            })
    };

    // First life: three tenants with running + waiting work, then a
    // shutdown (which snapshots the whole fleet) standing in for a kill
    // after the last checkpoint.
    {
        let (addr, handle) = start(Fleet::new(cfg()).expect("fleet"));
        for cluster in ["east", "west", "north"] {
            let v = send(
                addr,
                &format!(
                    r#"{{"op":"submit","cluster":"{cluster}","nodes":8,"runtime":3600,"submit":10}}"#
                ),
            );
            assert_eq!(v["ok"], true, "{v}");
            // A second full-width job must wait behind the first.
            let v = send(
                addr,
                &format!(
                    r#"{{"op":"submit","cluster":"{cluster}","nodes":8,"runtime":60,"submit":20}}"#
                ),
            );
            assert_eq!(v["ok"], true, "{v}");
            assert_eq!(v["started"], false, "{v}");
        }
        let v = send(addr, r#"{"op":"shutdown"}"#);
        assert_eq!(v["ok"], true, "{v}");
        handle.join().expect("join").expect("clean exit");
    }

    // The manifest lists all three tenants, sorted.
    let manifest: serde_json::Value = serde_json::from_str(
        &std::fs::read_to_string(dir.join("manifest.json")).expect("manifest exists"),
    )
    .expect("manifest parses");
    assert_eq!(manifest["schema"].as_str(), Some(MANIFEST_SCHEMA));
    let listed: Vec<&str> = manifest["clusters"]
        .as_array()
        .expect("clusters array")
        .iter()
        .filter_map(|v| v.as_str())
        .collect();
    assert_eq!(listed, ["east", "north", "west"]);
    for cluster in &listed {
        assert!(
            dir.join(format!("cluster-{cluster}.json")).exists(),
            "per-cluster snapshot for {cluster}"
        );
    }

    // Second life: a fresh process recovers all tenants with their
    // queues intact and finishes the work.
    let recovered = Fleet::new(cfg()).expect("recovered fleet");
    assert_eq!(recovered.cluster_count(), 3);
    for cluster in ["east", "west", "north"] {
        let (v, _) = recovered.handle_routed(Some(cluster), Request::Queue, 20);
        assert_eq!(
            v["running"].as_array().map(Vec::len),
            Some(1),
            "{cluster}: {v}"
        );
        assert_eq!(
            v["queue"].as_array().map(Vec::len),
            Some(1),
            "{cluster}: {v}"
        );
    }
    let (completed, leftover) = recovered.drain_all(0);
    assert_eq!(
        (completed, leftover),
        (6, 0),
        "both the restored running job and the waiter finish per tenant"
    );

    std::fs::remove_dir_all(&dir).ok();
}

const TENANTS: usize = 16;

/// Submits every tenant's fixed eight-job stream (two batches of four)
/// through `handle_routed`, the tenants split cluster-disjoint over
/// `threads` callers.  Returns each tenant's `queue` answer and the
/// fleet's `/statusz` `[submitted, rejected]`.
#[expect(
    clippy::cast_possible_truncation,
    reason = "tenant and job indices here are small"
)]
fn drive_concurrently(threads: usize) -> (Vec<Value>, [u64; 2]) {
    let quota = TenantQuota {
        max_queue: 2,
        ..Default::default()
    };
    let cfg = FleetConfig::new(8, PolicySpec::FcfsBackfill).with_quota(quota);
    let fleet = Fleet::new(cfg).expect("fleet");
    let cluster = |i: usize| format!("c{i:02}");
    let job = |i: usize, j: u64| SubmitSpec {
        nodes: 1 + (3 * i as u32 + 5 * j as u32) % 8,
        runtime: 600 * (1 + (i as u64 + j) % 5),
        requested: None,
        user: 0,
        submit: Some(300 * j),
    };
    std::thread::scope(|scope| {
        for tid in 0..threads {
            let fleet = &fleet;
            scope.spawn(move || {
                for i in (tid..TENANTS).step_by(threads) {
                    for batch in [0..4, 4..8] {
                        let at = 300 * (batch.end - 1);
                        let jobs = batch.map(|j| job(i, j)).collect();
                        let req = Request::SubmitBatch { jobs };
                        let (v, _) = fleet.handle_routed(Some(&cluster(i)), req, at);
                        assert_eq!(v["ok"], true, "{v}");
                    }
                }
            });
        }
    });
    let queues = (0..TENANTS)
        .map(|i| {
            // A read at time 0 advances no clock: it shows what the
            // submits left.  Correlation ids follow call order, so drop it.
            let (mut v, _) = fleet.handle_routed(Some(&cluster(i)), Request::Queue, 0);
            if let Value::Object(m) = &mut v {
                m.remove("corr");
            }
            v
        })
        .collect();
    let status = fleet.statusz_value(false);
    let count = |key: &str| status[key].as_u64().expect(key);
    (queues, [count("submitted"), count("rejected")])
}

#[test]
fn concurrent_callers_leave_every_tenant_as_one_caller_does() {
    let (single, totals) = drive_concurrently(1);
    let (shared, shared_totals) = drive_concurrently(4);
    for (i, (one, four)) in single.iter().zip(&shared).enumerate() {
        assert_eq!(one, four, "tenant {i}");
    }
    assert_eq!(totals, shared_totals);
    // Both admission outcomes occur, and some tenant is left with waiters.
    let [admitted, rejected] = totals;
    assert!(admitted > 0 && rejected > 0, "{totals:?}");
    assert_eq!(admitted + rejected, (TENANTS * 8) as u64);
    assert!(single
        .iter()
        .any(|q| q["queue"].as_array().is_some_and(|a| !a.is_empty())));
}
