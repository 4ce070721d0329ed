//! Property tests over the synthetic trace generator: every month, many
//! seeds, structural and statistical invariants.

use proptest::prelude::*;
use sbs_workload::generator::{random_workload, RandomWorkloadCfg, WorkloadBuilder};
use sbs_workload::profile::{range_of_nodes, MonthProfile};
use sbs_workload::swf;
use sbs_workload::system::Month;
use sbs_workload::time::HOUR;

fn any_month() -> impl Strategy<Value = Month> {
    (0usize..10).prop_map(|i| Month::ALL[i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Structural validity and limit compliance for any month and seed
    /// (at reduced span so the suite stays fast).
    #[test]
    fn generated_traces_are_valid(month in any_month(), seed in 0u64..10_000) {
        let w = WorkloadBuilder::month(month).span_scale(0.05).seed(seed).build();
        prop_assert_eq!(w.validate(), Ok(()));
        let limit = month.runtime_limit();
        for j in &w.jobs {
            prop_assert!(j.runtime <= limit);
            prop_assert!(j.requested <= limit);
            prop_assert!(j.nodes >= 1 && j.nodes <= 128);
        }
    }

    /// The high-load transform really compresses time: same job count,
    /// shorter window, higher load.
    #[test]
    fn high_load_compresses_not_inflates(month in any_month(), seed in 0u64..1_000) {
        let base = WorkloadBuilder::month(month).span_scale(0.05).seed(seed).build();
        let high = WorkloadBuilder::month(month)
            .span_scale(0.05)
            .seed(seed)
            .target_load(0.9)
            .build();
        prop_assert_eq!(base.jobs.len(), high.jobs.len());
        prop_assert!(high.window.1 - high.window.0 <= base.window.1 - base.window.0);
        // Identical job bodies (nodes, runtimes) — only times move.
        for (a, b) in base.jobs.iter().zip(&high.jobs) {
            prop_assert_eq!(a.nodes, b.nodes);
            prop_assert_eq!(a.runtime, b.runtime);
        }
    }

    /// SWF round-trips losslessly for every generated trace.
    #[test]
    fn swf_round_trip(month in any_month(), seed in 0u64..1_000) {
        let w = WorkloadBuilder::month(month).span_scale(0.03).seed(seed).build();
        let parsed = swf::parse(&swf::write(&w), w.capacity).expect("round trip");
        prop_assert_eq!(parsed.jobs.len(), w.jobs.len());
        for (a, b) in w.jobs.iter().zip(&parsed.jobs) {
            prop_assert_eq!(
                (a.submit, a.nodes, a.runtime, a.requested, a.user),
                (b.submit, b.nodes, b.runtime, b.requested, b.user)
            );
        }
    }

    /// Arbitrary (non-SWF) text never panics the parser.
    #[test]
    fn swf_parser_is_total(text in "[ -~\n]{0,400}") {
        #[expect(clippy::let_underscore_must_use, reason = "only totality is under test")]
        let _ = swf::parse(&text, 128);
    }

    /// The random test-workload generator respects its own config.
    #[test]
    fn random_workloads_respect_config(
        jobs in 1usize..100,
        capacity in 1u32..64,
        seed in 0u64..10_000,
    ) {
        let cfg = RandomWorkloadCfg {
            jobs,
            capacity,
            span: 86_400,
            min_runtime: 60,
            max_runtime: 4 * HOUR,
        };
        let w = random_workload(cfg, seed);
        prop_assert_eq!(w.jobs.len(), jobs);
        prop_assert_eq!(w.validate(), Ok(()));
        for j in &w.jobs {
            prop_assert!(j.nodes <= capacity);
            prop_assert!((60..=4 * HOUR).contains(&j.runtime));
        }
    }
}

/// Deterministic full-scale check (one month) that the node-range mix
/// matches Table 3 within tolerance — the generator's core calibration
/// promise.
#[test]
fn full_scale_mix_matches_table_3() {
    let month = Month::Sep03;
    let w = WorkloadBuilder::month(month).build();
    let profile = MonthProfile::of(month);
    let n = w.jobs.len() as f64;
    let mut shares = [0.0f64; 8];
    for j in &w.jobs {
        shares[range_of_nodes(j.nodes)] += 100.0 / n;
    }
    for (r, &share) in shares.iter().enumerate() {
        let target = profile.ranges[r].jobs_pct;
        assert!(
            (share - target).abs() < 2.0,
            "range {r}: {share:.1}% vs Table 3 {target:.1}%"
        );
    }
}
