//! Property-based integration tests spanning the whole stack: random
//! workloads through real policies with machine-checked invariants, and
//! optimality of the search policies against brute force on tiny queues.

use proptest::prelude::*;
use sbs_core::objective::HierarchicalObjective;
use sbs_core::{Branching, ObjectiveCost, ScheduleProblem, SearchPolicy};
use sbs_dsearch::{dfs, SearchConfig};
use sbs_sim::avail::AvailabilityProfile;
use sbs_sim::engine::{check_invariants, simulate, SimConfig};
use sbs_sim::policy::WaitingJob;
use sbs_workload::generator::{random_workload, RandomWorkloadCfg, Workload};
use sbs_workload::job::{Job, JobId};
use sbs_workload::time::{Time, HOUR};
use std::sync::Arc;

fn small_cfg(jobs: usize, capacity: u32) -> RandomWorkloadCfg {
    RandomWorkloadCfg {
        jobs,
        capacity,
        span: 86_400,
        min_runtime: 60,
        max_runtime: 6 * HOUR,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any random workload, any policy family: the simulation drains,
    /// capacity is never exceeded, nothing is preempted.
    #[test]
    fn policies_preserve_invariants_on_random_workloads(
        seed in 0u64..5_000,
        capacity in 2u32..24,
        jobs in 10usize..80,
        policy_idx in 0usize..4,
    ) {
        let w = random_workload(small_cfg(jobs, capacity), seed);
        let policy: Box<dyn sbs_sim::Policy> = match policy_idx {
            0 => Box::new(sbs_backfill::fcfs_backfill()),
            1 => Box::new(sbs_backfill::lxf_backfill()),
            2 => Box::new(SearchPolicy::dds_lxf_dynb(300)),
            _ => Box::new(SearchPolicy::new(
                sbs_core::SearchAlgo::Lds,
                Branching::Fcfs,
                sbs_core::TargetBound::Fixed(10 * HOUR),
                300,
            )),
        };
        let r = simulate(&w, policy, SimConfig::default());
        check_invariants(&r);
        prop_assert_eq!(r.records.len(), w.jobs.len());
    }

    /// On tiny queues, an unbudgeted search policy's chosen schedule must
    /// achieve the brute-force-optimal objective cost for that decision
    /// point.
    #[test]
    #[expect(clippy::cast_possible_truncation, reason = "test queues hold at most five jobs")]
    fn search_is_optimal_per_decision_on_tiny_queues(
        seed in 0u64..2_000,
        n in 1usize..6,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let capacity = 8u32;
        let now: Time = 10_000;
        let queue: Vec<WaitingJob> = (0..n)
            .map(|i| {
                let nodes = rng.gen_range(1..=capacity);
                let runtime = rng.gen_range(60..=4 * HOUR);
                let submit = rng.gen_range(0..=now);
                WaitingJob {
                    job: Job::new(JobId(i as u32), submit, nodes, runtime, runtime),
                    r_star: runtime,
                }
            })
            .collect();
        let omega = rng.gen_range(0..=2 * HOUR);
        let mk_problem = || {
            // fcfs heuristic order; the optimum is order-independent.
            let order: Vec<u32> = {
                let mut idx: Vec<u32> = (0..n as u32).collect();
                idx.sort_by_key(|&i| (queue[i as usize].job.submit, i));
                idx
            };
            ScheduleProblem::new(
                &queue,
                now,
                AvailabilityProfile::new(now, capacity),
                order,
                omega,
                Arc::new(HierarchicalObjective),
            )
        };
        let optimal: ObjectiveCost =
            dfs(&mut mk_problem(), SearchConfig::default()).best.expect("brute force").0;
        for algo_is_dds in [false, true] {
            let mut problem = mk_problem();
            let out = if algo_is_dds {
                sbs_dsearch::dds(&mut problem, SearchConfig::default())
            } else {
                sbs_dsearch::lds(&mut problem, SearchConfig::default())
            };
            let cost = out.best.expect("searched").0;
            prop_assert_eq!(cost, optimal, "algo dds={} seed={}", algo_is_dds, seed);
        }
    }

    /// Waits are conserved: total turnaround = total wait + total
    /// runtime, for every policy and workload.
    #[test]
    fn turnaround_decomposition(seed in 0u64..1_000) {
        let w = random_workload(small_cfg(40, 8), seed);
        let r = simulate(&w, sbs_backfill::lxf_backfill(), SimConfig::default());
        for rec in &r.records {
            prop_assert_eq!(rec.turnaround(), rec.wait() + rec.runtime);
        }
    }
}

/// Deterministic end-to-end repeatability: same workload + same policy
/// spec = bit-identical records.
#[test]
fn simulations_are_deterministic() {
    let w: Workload = random_workload(small_cfg(60, 16), 99);
    let a = simulate(&w, SearchPolicy::dds_lxf_dynb(500), SimConfig::default());
    let b = simulate(&w, SearchPolicy::dds_lxf_dynb(500), SimConfig::default());
    assert_eq!(a.records, b.records);
    assert_eq!(a.decisions, b.decisions);
}

/// The engine's decision cadence interacts with search: totals must line
/// up with the engine's decision count (search runs only on non-empty
/// queues).
#[test]
fn search_decisions_never_exceed_engine_decisions() {
    let w = random_workload(small_cfg(80, 8), 123);
    let mut p = SearchPolicy::dds_lxf_dynb(400);
    let r = simulate(&w, &mut p, SimConfig::default());
    assert!(p.totals().decisions <= r.decisions);
}

/// Naive reference: computes earliest-start placement of jobs (in a
/// given consideration order) by scanning free nodes second-by-second —
/// the obviously-correct O(horizon x jobs) version of what
/// `ScheduleProblem` does with the skyline profile.
fn naive_placements(
    queue: &[WaitingJob],
    order: &[u32],
    now: Time,
    capacity: u32,
    horizon: usize,
) -> Vec<Time> {
    let mut free = vec![capacity; horizon];
    let mut starts = Vec::with_capacity(order.len());
    for &j in order {
        let w = &queue[j as usize];
        #[expect(
            clippy::cast_possible_truncation,
            reason = "test runtimes are at most 120 s"
        )]
        let dur = w.r_star.max(1) as usize;
        let mut t = 0usize;
        let start = loop {
            assert!(t + dur <= horizon, "horizon too small for the test");
            match (t..t + dur).find(|&u| free[u] < w.job.nodes) {
                None => break t,
                Some(u) => t = u + 1,
            }
        };
        for slot in free.iter_mut().skip(start).take(dur) {
            *slot -= w.job.nodes;
        }
        starts.push(now + start as Time);
    }
    starts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The skyline-based schedule builder places every job exactly where
    /// the naive second-by-second reference does, for any queue and any
    /// consideration order.
    #[test]
    #[expect(clippy::cast_possible_truncation, reason = "test queues hold at most six jobs")]
    fn schedule_builder_matches_naive_reference(
        seed in 0u64..5_000,
        n in 1usize..7,
        perm_seed in 0u64..1_000,
    ) {
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let capacity = 6u32;
        let now: Time = 500;
        let queue: Vec<WaitingJob> = (0..n)
            .map(|i| {
                let nodes = rng.gen_range(1..=capacity);
                let runtime = rng.gen_range(1..=120u64);
                WaitingJob {
                    job: Job::new(JobId(i as u32), rng.gen_range(0..=now), nodes, runtime, runtime),
                    r_star: runtime,
                }
            })
            .collect();
        let mut order: Vec<u32> = (0..n as u32).collect();
        let mut perm_rng = rand::rngs::StdRng::seed_from_u64(perm_seed);
        order.shuffle(&mut perm_rng);

        let expected = naive_placements(&queue, &order, now, capacity, 2_000);

        let mut problem = ScheduleProblem::new(
            &queue,
            now,
            AvailabilityProfile::new(now, capacity),
            order.clone(),
            0,
            Arc::new(HierarchicalObjective),
        );
        for &j in &order {
            use sbs_dsearch::SearchProblem;
            problem.descend(j);
        }
        let got: Vec<Time> = problem.placements().iter().map(|p| p.start).collect();
        prop_assert_eq!(got, expected);
    }
}
