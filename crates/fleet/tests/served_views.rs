//! Every view a fleet serves of one tenant agrees on every number the
//! views share: the tenant's own exposition (`GET /metrics?cluster=ID`),
//! its `/statusz` `per_cluster` row (and, for a one-tenant fleet, the
//! `/statusz` totals), and its `sbs_cluster_*{cluster="ID"}` series in
//! the fleet exposition — for a search tenant, a tree-plus-hill-climb
//! tenant and a backfill tenant, before and after each is restored from
//! its snapshot.  A restored tenant's counts restart at 0.

use sbs_core::{Branching, PolicySpec, SearchAlgo, TargetBound};
use sbs_fleet::{Fleet, FleetConfig};
use sbs_service::protocol::Request;
use sbs_service::ServerHandler;
use serde_json::Value;
use std::path::PathBuf;
use std::time::Duration;

const ID: &str = "t";

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sbs-views-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// The value of the sample `series` (name plus label block) in `text`.
fn sample(text: &str, series: &str) -> u64 {
    text.lines()
        .find_map(|l| l.strip_prefix(series)?.strip_prefix(' '))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no integer sample {series} in:\n{text}"))
}

fn submit_to(f: &Fleet, cluster: Option<&str>, nodes: u32, runtime: u64, at: u64) {
    let req = Request::Submit {
        nodes,
        runtime,
        requested: None,
        user: 0,
        submit: Some(at),
    };
    let (v, _) = f.handle_routed(cluster, req, at);
    assert_eq!(v["ok"], true, "{v}");
}

fn submit(f: &Fleet, nodes: u32, runtime: u64, at: u64) {
    submit_to(f, Some(ID), nodes, runtime, at);
}

/// Probes all three views at `at`, asserts they agree, and returns the
/// tenant's exposition.
fn agreeing_views(f: &mut Fleet, at: u64) -> String {
    let tenant = f.http_get(&format!("/metrics?cluster={ID}"), at).body;
    let fleet = f.http_get("/metrics", at).body;
    let status: Value = serde_json::from_str(&f.http_get("/statusz", at).body).expect("statusz");
    let row = &status["per_cluster"][0];
    assert_eq!(row["cluster"], ID, "{status}");
    let label = format!("{{cluster=\"{ID}\"}}");
    let cluster = |family: &str| sample(&fleet, &format!("{family}{label}"));
    let key = |v: &Value, k: &str| v[k].as_u64().unwrap_or_else(|| panic!("{k}: {v}"));
    for (own, row_key, labelled) in [
        (
            "sbs_decisions_total",
            "decisions",
            "sbs_cluster_decisions_total",
        ),
        ("sbs_queue_depth", "queue_depth", "sbs_cluster_queue_depth"),
        ("sbs_running_jobs", "running", "sbs_cluster_running_jobs"),
    ] {
        let n = sample(&tenant, own);
        assert_eq!(n, key(row, row_key), "{own} vs per_cluster.{row_key}");
        assert_eq!(n, cluster(labelled), "{own} vs {labelled}");
        assert_eq!(n, key(&status, row_key), "{own} vs the one-tenant total");
    }
    assert_eq!(sample(&tenant, "sbs_free_nodes"), key(row, "free_nodes"));
    let submitted = key(row, "submitted");
    assert_eq!(submitted, cluster("sbs_cluster_submitted_total"));
    assert_eq!(submitted, key(&status, "submitted"));
    assert_eq!(
        sample(&tenant, "sbs_search_nodes_total"),
        key(&status, "search_nodes")
    );
    assert_eq!(
        sample(&tenant, "sbs_search_deadline_truncations_total"),
        key(&status, "deadline_truncations")
    );
    tenant
}

/// Tree plus hill-climb nodes over every decision line of a trace log.
fn traced_nodes(path: &std::path::Path) -> (u64, u64) {
    let text = std::fs::read_to_string(path).expect("trace log");
    let mut sums = (0, 0);
    for line in text.lines().skip(1) {
        let v: Value = serde_json::from_str(line).expect("trace line");
        let search = &v["search"];
        sums.0 += search["nodes"].as_u64().unwrap_or(0);
        sums.1 += search["local_nodes"].as_u64().unwrap_or(0);
    }
    sums
}

#[test]
fn every_served_view_agrees_on_each_tenants_numbers() {
    let hybrid = PolicySpec::HybridSearch {
        algo: SearchAlgo::Dds,
        branching: Branching::Lxf,
        bound: TargetBound::Dynamic,
        node_limit: 200,
        local_frac: 0.3,
    };
    for (tag, spec, deadline) in [
        // A zero deadline cuts every search with budget left.
        (
            "search",
            PolicySpec::dds_lxf_dynb(100_000),
            Some(Duration::ZERO),
        ),
        ("hybrid", hybrid, None),
        ("backfill", PolicySpec::FcfsBackfill, None),
    ] {
        let dir = temp_dir(tag);
        let mut cfg = FleetConfig::new(8, spec).with_snapshot_dir(dir.join("snapshots"));
        cfg.trace_dir = Some(dir.join("traces"));
        cfg.deadline = deadline;
        let mut f = Fleet::new(cfg.clone()).expect("fleet");
        // One wide job holds the machine while eight narrow ones queue
        // behind it, then one of those is cancelled.
        submit(&f, 8, 100, 0);
        for i in 1..=8 {
            submit(&f, 1 + i % 3, 20 + 10 * u64::from(i), u64::from(i));
        }
        let (v, _) = f.handle_routed(Some(ID), Request::Cancel { id: 8 }, 9);
        assert_eq!(v["cancelled"], true, "{v}");
        let before = agreeing_views(&mut f, 120);
        let decisions = sample(&before, "sbs_decisions_total");
        let nodes = sample(&before, "sbs_search_nodes_total");
        match tag {
            "search" => {
                assert!(nodes > 0, "{before}");
                assert!(sample(&before, "sbs_search_deadline_truncations_total") > 0);
            }
            "hybrid" => {
                let (tree, local) = traced_nodes(&dir.join("traces").join("trace-t.jsonl"));
                assert!(local > 0, "the hybrid climbed");
                assert_eq!(nodes, tree + local, "nodes are tree plus hill-climb");
                assert_eq!(
                    sample(&before, "sbs_search_nodes_per_decision_sum"),
                    nodes,
                    "the per-decision histogram sums what the total counts"
                );
            }
            _ => assert_eq!(nodes, 0),
        }
        f.save_snapshots().expect("snapshots");
        drop(f);

        let mut f = Fleet::new(cfg).expect("restored fleet");
        let after = agreeing_views(&mut f, 120);
        assert!(decisions > 0);
        assert_eq!(
            sample(&after, "sbs_decisions_total"),
            0,
            "counts restart with the process"
        );
        submit(&f, 2, 30, 130);
        let later = agreeing_views(&mut f, 200);
        assert!(sample(&later, "sbs_decisions_total") > 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Every `(series, value)` sample of a `_total` counter or a histogram
/// `_count` in `text`.
fn counts(text: &str) -> Vec<(&str, &str)> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.rsplit_once(' '))
        .filter(|(series, _)| {
            let name = series.split('{').next().unwrap_or_default();
            name.ends_with("_total") || name.ends_with("_count")
        })
        .collect()
}

#[test]
fn a_restored_tenant_serves_every_count_from_zero() {
    let dir = temp_dir("restart");
    let cfg = FleetConfig::new(8, PolicySpec::FcfsBackfill).with_snapshot_dir(dir.clone());
    let mut f = Fleet::new(cfg.clone()).expect("fleet");
    // Three short jobs complete, a wide one runs and a second waits.
    for (i, at) in [0, 10, 20].into_iter().enumerate() {
        submit_to(&f, None, 2, 50 + 10 * i as u64, at);
    }
    submit_to(&f, None, 8, 1_000, 200);
    submit_to(&f, None, 4, 100, 210);
    let served = f.http_get("/metrics?cluster=default", 210).body;
    assert_eq!(sample(&served, "sbs_completed_jobs_total"), 3, "{served}");
    f.save_snapshots().expect("snapshots");
    drop(f);

    let mut f = Fleet::new(cfg).expect("restored fleet");
    let now = f.now();
    let served = f.http_get("/metrics?cluster=default", now).body;
    let counted = counts(&served);
    assert!(counted.len() > 20, "{served}");
    for (series, value) in counted {
        let value: f64 = value.parse().expect("a number");
        assert_eq!(value, 0.0, "{series} after a restart:\n{served}");
    }
    for at in [1_300, 1_310] {
        submit_to(&f, None, 2, 60, at);
    }
    let served = f.http_get("/metrics?cluster=default", 2_000).body;
    let completed = sample(&served, "sbs_completed_jobs_total");
    assert_eq!(completed, 4, "the two restored jobs and two new ones");
    assert_eq!(completed, sample(&served, "sbs_wait_seconds_count"));
    std::fs::remove_dir_all(&dir).ok();
}
