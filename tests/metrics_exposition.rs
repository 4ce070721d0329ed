//! Prometheus exposition roundtrip and golden-fixture tests.
//!
//! A tenant's `/metrics` text is rendered by the function the daemon
//! serves it with ([`tenant_text`]), from the tally its recorder folded,
//! then parsed back and cross-checked by `sbs_obs::expo::validate`:
//! HELP/TYPE pairing per family, counter `_total` naming, histogram
//! bucket monotonicity and cumulative counts, the `+Inf` bucket
//! equalling `_count`, and no duplicate series.  A deterministic
//! virtual-clock rendering is also pinned byte-for-byte against
//! `tests/golden/metrics.txt`.
//!
//! To regenerate after an *intentional* exposition change:
//!
//! ```text
//! SBS_BLESS=1 cargo test -p sbs-service --test metrics_exposition
//! ```

use sbs_core::prelude::*;
use sbs_obs::expo::validate;
use sbs_obs::{TimeMode, TraceMeta, TraceRecorder};
use sbs_service::metrics::tenant_text;
use sbs_sim::engine::SimConfig;
use sbs_sim::simulate_traced;
use sbs_sim::SchedulerCore;
use sbs_workload::generator::{random_workload, RandomWorkloadCfg};
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(name)
}

/// Compares `rendered` against the committed golden file, or rewrites
/// the file when `SBS_BLESS` is set.
fn assert_matches_golden(name: &str, rendered: &str) {
    let path = golden_path(name);
    if std::env::var_os("SBS_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
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

/// A seeded workload simulated under the virtual clock and rendered by
/// the function a served tenant's `/metrics` calls: every counter and
/// histogram is the recorder's fold, a pure function of the workload and
/// policy (no wall time anywhere).
fn deterministic_text() -> String {
    let workload = random_workload(
        RandomWorkloadCfg {
            jobs: 80,
            ..Default::default()
        },
        17,
    );
    let policy = SearchPolicy::dds_lxf_dynb(400);
    let mut recorder = TraceRecorder::new(
        TimeMode::Virtual,
        TraceMeta {
            mode: String::new(),
            policy: "DDS/lxf/dynB".into(),
            capacity: 128,
            source: "metrics_exposition fixture".into(),
        },
    );
    let result = simulate_traced(&workload, policy, SimConfig::default(), &mut recorder);
    for r in &result.records {
        recorder.tally_mut().complete(r.wait());
    }
    // The machine as the run left it: empty, at the end of the window.
    let mut idle = SchedulerCore::new(result.capacity, RuntimeKnowledge::Actual, (0, u64::MAX));
    idle.advance_to(result.window.1);
    tenant_text(recorder.tally(), &idle)
}

#[test]
fn exposition_roundtrips_through_the_parser() {
    let text = deterministic_text();
    let families = validate(&text).expect("rendered exposition validates");
    assert!(families.len() > 13, "recorder families joined the gauges");
    for f in &families {
        match f.kind.as_str() {
            "counter" => assert!(f.name.ends_with("_total"), "{} mistyped", f.name),
            "gauge" | "histogram" => {}
            other => panic!("unexpected TYPE {other} for {}", f.name),
        }
    }
    let hist = families
        .iter()
        .find(|f| f.name == "sbs_search_nodes_per_decision")
        .expect("per-decision node histogram present");
    assert_eq!(hist.kind, "histogram");
    let count = hist
        .samples
        .iter()
        .find(|s| s.name == "sbs_search_nodes_per_decision_count")
        .expect("_count series")
        .value;
    assert!(count > 0.0, "decisions were folded into the histogram");
}

#[test]
fn metrics_text_matches_golden() {
    assert_matches_golden("metrics.txt", &deterministic_text());
}
