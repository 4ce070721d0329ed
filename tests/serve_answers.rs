//! Pins every answer of the serving edge, byte for byte.
//!
//! Two scripted virtual-time sessions run in-process against what
//! `sbs serve` runs, a [`Fleet`]: one whose requests name no cluster (the
//! one-tenant session) and one over three named tenants.  The sections
//! keep the names of the two commands that served them before `serve`
//! became a fleet: `serve` and `serve-fleet`.  Every protocol response
//! plus `/healthz`, `/statusz?incidents=1` and `/metrics` is recorded
//! into `tests/golden/serve_answers.txt`.  Only
//! wall-derived values are masked (`wall_ns`, also where an incident's
//! `reason` quotes it, `sbs_*_nanos*` and `sbs_policy_seconds_total`
//! samples); submit latencies are fed as fixed numbers, so they are
//! pinned too.
//!
//! Each `incidents` read follows a `queue` on the same tenant at the
//! same `at`, so the answers do not depend on *when* within a request
//! departures replay.
//!
//! To regenerate after an *intentional* protocol change:
//!
//! ```text
//! SBS_BLESS=1 cargo test -p sbs-fleet --test serve_answers
//! ```

use sbs_core::PolicySpec;
use sbs_fleet::{Fleet, FleetConfig};
use sbs_obs::{ObsConfig, TimeMode};
use sbs_service::ServerHandler;
use serde_json::Value;
use std::path::PathBuf;

/// One scripted step: a protocol line or an HTTP probe, at a time.
enum Step {
    Line(u64, &'static str),
    Get(u64, &'static str),
}
use Step::{Get, Line};

fn one_tenant_script() -> Vec<Step> {
    vec![
        Line(0, r#"{"op":"submit","nodes":8,"runtime":10,"submit":0}"#),
        Line(0, r#"{"op":"submit","nodes":4,"runtime":20,"submit":0}"#),
        Line(
            1,
            r#"{"op":"submit_batch","jobs":[{"nodes":2,"runtime":5,"submit":1},{"nodes":9,"runtime":5,"submit":1},{"nodes":4,"runtime":30,"user":3,"submit":1}]}"#,
        ),
        Line(2, r#"{"op":"cancel","id":2}"#),
        Line(2, r#"{"op":"cancel","id":0}"#),
        Line(2, r#"{"op":"queue"}"#),
        Line(2, r#"{"op":"incidents"}"#),
        Line(2, r#"{"op":"queue","cluster":"ghost"}"#),
        Line(2, r#"{"op":"submit","nodes":"many"}"#),
        Line(2, "not json"),
        Line(100, r#"{"op":"queue"}"#),
        Line(100, r#"{"op":"incidents"}"#),
        Get(100, "/healthz"),
        Get(100, "/statusz"),
        Line(
            100,
            r#"{"op":"submit","nodes":8,"runtime":50,"submit":100}"#,
        ),
        Line(102, r#"{"op":"drain"}"#),
        Line(150, r#"{"op":"submit","nodes":1,"runtime":5,"submit":150}"#),
        Get(200, "/healthz"),
        Get(200, "/statusz?incidents=1"),
        Get(200, "/metrics"),
        Get(200, "/metrics?cluster=default"),
    ]
}

fn fleet_script() -> Vec<Step> {
    vec![
        Line(
            0,
            r#"{"op":"submit","cluster":"a","nodes":8,"runtime":10,"submit":0}"#,
        ),
        Line(
            0,
            r#"{"op":"submit","cluster":"a","nodes":4,"runtime":20,"submit":0}"#,
        ),
        Line(
            1,
            r#"{"op":"submit_batch","cluster":"b","jobs":[{"nodes":2,"runtime":5,"submit":1},{"nodes":9,"runtime":5,"submit":1},{"nodes":8,"runtime":30,"user":3,"submit":1}]}"#,
        ),
        Line(
            1,
            r#"{"op":"submit","cluster":"c","nodes":3,"runtime":40,"submit":1}"#,
        ),
        Line(
            2,
            r#"{"op":"submit","cluster":"a","nodes":2,"runtime":5,"submit":2}"#,
        ),
        Line(2, r#"{"op":"cancel","cluster":"a","id":2}"#),
        Line(2, r#"{"op":"cancel","cluster":"a","id":0}"#),
        Line(2, r#"{"op":"queue","cluster":"a"}"#),
        Line(2, r#"{"op":"incidents","cluster":"a"}"#),
        Line(2, r#"{"op":"queue","cluster":"ghost"}"#),
        Line(2, r#"{"op":"cancel","cluster":"ghost","id":0}"#),
        Line(2, r#"{"op":"incidents","cluster":"ghost"}"#),
        Line(2, r#"{"op":"queue"}"#),
        Line(2, r#"{"op":"submit","cluster":"a","nodes":"many"}"#),
        Line(2, "not json"),
        Line(100, r#"{"op":"queue","cluster":"a"}"#),
        Line(100, r#"{"op":"incidents","cluster":"a"}"#),
        // The probe replays every tenant to t=100, so the un-routed
        // read below sees fully replayed tenants whichever way it is
        // implemented.
        Get(100, "/healthz"),
        Line(100, r#"{"op":"incidents"}"#),
        Get(100, "/statusz"),
        Line(
            100,
            r#"{"op":"submit","cluster":"a","nodes":8,"runtime":50,"submit":100}"#,
        ),
        Line(
            100,
            r#"{"op":"submit","cluster":"b","nodes":8,"runtime":50,"submit":100}"#,
        ),
        Line(102, r#"{"op":"drain","cluster":"a"}"#),
        Line(
            150,
            r#"{"op":"submit","cluster":"a","nodes":1,"runtime":5,"submit":150}"#,
        ),
        Line(150, r#"{"op":"drain"}"#),
        Line(
            150,
            r#"{"op":"submit","cluster":"c","nodes":1,"runtime":5,"submit":150}"#,
        ),
        Get(200, "/healthz"),
        Get(200, "/statusz?incidents=1"),
        Get(200, "/metrics"),
    ]
}

/// Replaces wall-derived JSON values with a fixed token.
fn mask_json(v: &mut Value) {
    match v {
        Value::Object(map) => {
            for (key, child) in map.iter_mut() {
                if key == "wall_ns" {
                    *child = Value::from("<wall>");
                } else if let Some(rest) = child.as_str().and_then(|r| r.strip_prefix("wall_ns ")) {
                    // An incident's trigger text quotes the measured time.
                    let limit = rest.split_once(' ').map_or("", |(_, tail)| tail);
                    *child = Value::from(format!("wall_ns <wall> {limit}"));
                } else {
                    mask_json(child);
                }
            }
        }
        Value::Array(items) => items.iter_mut().for_each(mask_json),
        _ => {}
    }
}

/// Replaces the sample value of wall-derived exposition series.
fn mask_metrics(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for line in text.lines() {
        let series = line.split(['{', ' ']).next().unwrap_or_default();
        let wall = !line.starts_with('#')
            && (series.contains("_nanos") || series == "sbs_policy_seconds_total");
        match line.rsplit_once(' ') {
            Some((head, _)) if wall => out.push_str(&format!("{head} <wall>")),
            _ => out.push_str(line),
        }
        out.push('\n');
    }
    out
}

/// Runs `script` against `handler`, recording every answer.
fn record(title: &str, handler: &mut dyn ServerHandler, script: &[Step], out: &mut String) {
    out.push_str(&format!("==== {title} ====\n"));
    for step in script {
        match step {
            Line(at, line) => {
                let (mut v, stop) = handler.handle_line(line, *at);
                // A fixed latency per line keeps the submit histogram
                // (and its /statusz quantiles) deterministic.
                handler.observe_request_ns(line, 5_000);
                assert!(!stop, "{line}");
                mask_json(&mut v);
                out.push_str(&format!("t={at} > {line}\n< {v}\n"));
            }
            Get(at, path) => {
                let reply = handler.http_get(path, *at);
                let body = if reply.content_type == "application/json" {
                    let mut v: Value = serde_json::from_str(&reply.body).expect("json probe body");
                    mask_json(&mut v);
                    format!("{v}\n")
                } else {
                    mask_metrics(&reply.body)
                };
                out.push_str(&format!("t={at} GET {path} -> {}\n{body}", reply.status));
            }
        }
    }
}

fn assert_matches_golden(rendered: &str) {
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/serve_answers.txt");
    if std::env::var_os("SBS_BLESS").is_some() {
        std::fs::write(&path, rendered).expect("write golden file");
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with SBS_BLESS=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        golden,
        rendered,
        "{} drifted; if intentional, re-bless with SBS_BLESS=1",
        path.display()
    );
}

#[test]
fn serve_and_serve_fleet_answers_match_golden() {
    let spec = || PolicySpec::dds_lxf_dynb(200);
    let mut out = String::new();

    let obs = ObsConfig::default()
        .with_slow_thresholds(Some(0), None)
        .with_event_mode(TimeMode::Virtual);

    let mut one = Fleet::new(FleetConfig::new(8, spec()).with_obs(obs.clone())).expect("fleet");
    record("serve", &mut one, &one_tenant_script(), &mut out);

    let mut cfg = FleetConfig::new(8, spec()).with_obs(obs);
    cfg.cluster_label_cap = 2;
    let mut fleet = Fleet::new(cfg).expect("fleet");
    record("serve-fleet", &mut fleet, &fleet_script(), &mut out);

    assert_matches_golden(&out);
}
