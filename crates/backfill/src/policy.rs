//! The generic priority-backfill engine.

use crate::priority::PriorityOrder;
use sbs_obs::{BackfillTrace, PolicyTrace, SpanStack};
use sbs_sim::policy::{Policy, SchedContext};
use sbs_workload::job::JobId;

/// Priority backfill: EASY (one reservation, the paper's policies),
/// `k` reservations, conservative (every blocked job), or selective
/// (every starved job, see [`crate::selective`]).
///
/// At each decision point, waiting jobs are walked in priority order
/// against the availability profile:
///
/// * a job whose earliest start is *now* starts immediately (this is the
///   backfill: any job, however low its priority, may use nodes that
///   would otherwise idle);
/// * a job that cannot start now and that the reservation rule picks has
///   its earliest start time reserved in the profile, so no later (lower
///   priority) job can delay it;
/// * remaining blocked jobs are skipped.
#[derive(Debug, Clone)]
pub struct BackfillPolicy {
    order: PriorityOrder,
    rule: Reserve,
    tracing: bool,
    last_trace: Option<PolicyTrace>,
}

/// Which blocked jobs get a reservation.
#[derive(Debug, Clone, Copy)]
enum Reserve {
    /// The first `k` in priority order (`usize::MAX`: conservative).
    First(usize),
    /// Every one whose xfactor has reached the threshold (selective).
    Starved(f64),
}

impl BackfillPolicy {
    /// Creates a backfill policy with the given priority order and
    /// number of reservations (`>= 1`; 0 would allow unbounded starvation
    /// of wide jobs and is rejected).
    pub fn new(order: PriorityOrder, reservations: usize) -> Self {
        assert!(reservations >= 1, "backfill needs at least one reservation");
        Self::with_rule(order, Reserve::First(reservations))
    }

    /// Selective backfill: LXF order, so the most-starved jobs reserve
    /// first, and a reservation for every blocked job whose xfactor has
    /// reached `threshold` (`> 1`).
    pub fn selective(threshold: f64) -> Self {
        assert!(
            threshold > 1.0,
            "threshold must exceed the minimum slowdown of 1"
        );
        Self::with_rule(PriorityOrder::Lxf, Reserve::Starved(threshold))
    }

    fn with_rule(order: PriorityOrder, rule: Reserve) -> Self {
        BackfillPolicy {
            order,
            rule,
            tracing: false,
            last_trace: None,
        }
    }

    /// The priority order in use.
    pub fn order(&self) -> PriorityOrder {
        self.order
    }
}

impl Policy for BackfillPolicy {
    fn name(&self) -> String {
        let order = self.order.label();
        match self.rule {
            Reserve::First(1) => format!("{order}-backfill"),
            Reserve::First(usize::MAX) => format!("{order}-conservative-backfill"),
            Reserve::First(k) => format!("{order}-backfill/res{k}"),
            Reserve::Starved(threshold) => format!("Selective-backfill(xf>{threshold})"),
        }
    }

    fn decide(&mut self, ctx: &SchedContext<'_>) -> Vec<JobId> {
        let mut profile = ctx.profile();
        let mut starts = Vec::new();
        let mut reserved = 0usize;
        let mut blocked = 0u32;
        for idx in self.order.order(ctx.queue, ctx.now) {
            let w = &ctx.queue[idx as usize];
            let may_reserve = match self.rule {
                Reserve::First(k) => reserved < k,
                Reserve::Starved(threshold) => w.xfactor(ctx.now) >= threshold,
            };
            // The profile starts at `now`, so a job wider than the nodes
            // free there cannot start now; if it may not reserve either,
            // its fit would only say "blocked".
            if !may_reserve && w.job.nodes > profile.free_at(ctx.now) {
                blocked += 1;
                continue;
            }
            let fit = profile.fit(w.job.nodes, w.r_star, ctx.now);
            if fit.start == ctx.now {
                profile.commit(fit);
                starts.push(w.job.id);
            } else if may_reserve {
                profile.commit(fit);
                reserved += 1;
            } else {
                // Blocked and unreserved; may backfill at a later
                // decision point.
                blocked += 1;
            }
        }
        if self.tracing {
            let clamp = |n: usize| u32::try_from(n).unwrap_or(u32::MAX);
            let examined = clamp(ctx.queue.len());
            let mut spans = SpanStack::new();
            spans.enter("decide");
            spans.enter("backfill");
            spans.exit(u64::from(examined));
            spans.exit(0);
            self.last_trace = Some(PolicyTrace {
                search: None,
                backfill: Some(BackfillTrace {
                    examined,
                    started: clamp(starts.len()),
                    reserved: clamp(reserved),
                    blocked,
                }),
                spans: spans.finish(),
            });
        }
        starts
    }

    fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
        if !on {
            self.last_trace = None;
        }
    }

    fn take_trace(&mut self) -> Option<PolicyTrace> {
        self.last_trace.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{fcfs_backfill, lxf_backfill, sjf_backfill};
    use proptest::prelude::*;
    use sbs_sim::engine::{check_invariants, simulate, SimConfig};
    use sbs_sim::policy::WaitingJob;
    use sbs_sim::SchedContext;
    use sbs_workload::generator::{random_workload, RandomWorkloadCfg, Workload};
    use sbs_workload::job::Job;
    use sbs_workload::time::{Time, HOUR};

    fn waiting(id: u32, submit: Time, nodes: u32, r_star: Time) -> WaitingJob {
        WaitingJob {
            job: Job::new(JobId(id), submit, nodes, r_star, r_star),
            r_star,
        }
    }

    fn ctx<'a>(
        now: Time,
        capacity: u32,
        free: u32,
        queue: &'a [WaitingJob],
        running: &'a [sbs_sim::RunningJob],
    ) -> SchedContext<'a> {
        SchedContext {
            now,
            capacity,
            free_nodes: free,
            queue,
            running,
        }
    }

    fn running(id: u32, nodes: u32, start: Time, pred_end: Time) -> sbs_sim::RunningJob {
        sbs_sim::RunningJob {
            job: Job::new(JobId(id), 0, nodes, pred_end - start, pred_end - start),
            start,
            pred_end,
        }
    }

    #[test]
    fn backfills_around_the_reservation() {
        // 8-node machine; 6 busy until t=1000.  Queue: wide job (8 nodes,
        // reserved at t=1000) and a short narrow job that fits both in
        // nodes (2 free) and in time (ends before 1000): it backfills.
        let run = [running(100, 6, 0, 1_000)];
        let q = [waiting(0, 10, 8, HOUR), waiting(1, 20, 2, 900)];
        let starts = fcfs_backfill().decide(&ctx(50, 8, 2, &q, &run));
        assert_eq!(starts, vec![JobId(1)]);
    }

    #[test]
    fn backfill_must_not_delay_the_reservation() {
        // Same setup, but the narrow job runs past t=1000, which would
        // delay the reserved wide job: it must NOT start.
        let run = [running(100, 6, 0, 1_000)];
        let q = [waiting(0, 10, 8, HOUR), waiting(1, 20, 2, 2_000)];
        let starts = fcfs_backfill().decide(&ctx(50, 8, 2, &q, &run));
        assert!(starts.is_empty());
    }

    #[test]
    fn backfill_that_leaves_reserved_nodes_free_is_allowed() {
        // 6 busy until 1000; wide job needs only 7 => one node is spare
        // even during the reservation, so a 1-node long job can backfill.
        let run = [running(100, 6, 0, 1_000)];
        let q = [waiting(0, 10, 7, HOUR), waiting(1, 20, 1, 50 * HOUR)];
        let starts = fcfs_backfill().decide(&ctx(50, 8, 2, &q, &run));
        assert_eq!(starts, vec![JobId(1)]);
    }

    #[test]
    fn empty_machine_starts_in_priority_order_until_full() {
        let q = [
            waiting(0, 0, 5, HOUR),
            waiting(1, 1, 5, HOUR), // does not fit after job 0
            waiting(2, 2, 3, HOUR), // fits alongside job 0
        ];
        let starts = fcfs_backfill().decide(&ctx(10, 8, 8, &q, &[]));
        assert_eq!(starts, vec![JobId(0), JobId(2)]);
    }

    #[test]
    fn lxf_priority_reorders_the_reservation() {
        // Two blocked jobs; under FCFS the earlier wide job gets the
        // reservation, under LXF the short job (higher xfactor) does.
        // At t=500: job0 xf = (490+4h)/4h ~ 1.03;
        // job1 xf = (480+10m)/10m = 1.8.
        let q = [waiting(0, 10, 8, 4 * HOUR), waiting(1, 20, 8, 600)];
        // Probe through a simulation-free check: order() decides.
        let fc = PriorityOrder::Fcfs.order(&q, 500);
        let lx = PriorityOrder::Lxf.order(&q, 500);
        assert_eq!(fc, vec![0, 1]);
        assert_eq!(lx, vec![1, 0]);
    }

    #[test]
    fn multiple_reservations_are_honored() {
        // 8-node machine, full until 1000, then one 8-node job until
        // 2000 would be reserved; with 2 reservations the second blocked
        // job is also protected from a backfill that would delay it.
        let run = [running(100, 8, 0, 1_000)];
        let q = [
            waiting(0, 10, 8, 1_000), // reserved at 1000..2000
            waiting(1, 20, 4, 1_000), // reserved at 2000..3000 (res=2)
            waiting(2, 30, 4, 5_000), // would delay job1 if started at 2000
        ];
        let mut two = BackfillPolicy::new(PriorityOrder::Fcfs, 2);
        let starts = two.decide(&ctx(500, 8, 0, &q, &run));
        assert!(starts.is_empty());
    }

    #[test]
    fn names_reflect_configuration() {
        assert_eq!(fcfs_backfill().name(), "FCFS-backfill");
        assert_eq!(lxf_backfill().name(), "LXF-backfill");
        assert_eq!(sjf_backfill().name(), "SJF-backfill");
        assert_eq!(
            BackfillPolicy::new(PriorityOrder::Lxf, 4).name(),
            "LXF-backfill/res4"
        );
        assert_eq!(
            crate::conservative_backfill().name(),
            "FCFS-conservative-backfill"
        );
    }

    #[test]
    fn conservative_backfill_blocks_any_delaying_backfill() {
        // 8-node machine, 6 busy until 1000.  Queue: a blocked 6-node
        // job (leaves 2 nodes spare during its reservation), a blocked
        // full-machine job, then a narrow long job.  Under EASY (1
        // reservation) only job 0 is protected, so the narrow job
        // backfills even though it delays job 1; under conservative
        // backfill job 1 is protected too and it must wait.
        let run = [running(100, 6, 0, 1_000)];
        let q = [
            waiting(0, 10, 6, 1_000), // reserved 1000..2000, 2 nodes spare
            waiting(1, 20, 8, 1_000), // conservative: reserved 2000..3000
            waiting(2, 30, 2, 2_500), // fits beside job 0 but pushes job 1
        ];
        let easy = fcfs_backfill().decide(&ctx(50, 8, 2, &q, &run));
        assert_eq!(easy, vec![JobId(2)], "EASY backfills the narrow job");
        let cons = crate::conservative_backfill().decide(&ctx(50, 8, 2, &q, &run));
        assert!(cons.is_empty(), "conservative protects job 1 too");
    }

    #[test]
    fn conservative_backfill_completes_random_workloads() {
        for seed in 0..3 {
            let (w, r) = full_sim(crate::conservative_backfill(), seed);
            assert_eq!(r.records.len(), w.jobs.len());
        }
    }

    #[test]
    #[should_panic(expected = "at least one reservation")]
    fn zero_reservations_rejected() {
        let _ = BackfillPolicy::new(PriorityOrder::Fcfs, 0);
    }

    #[test]
    fn tracing_counts_backfill_outcomes() {
        // Same scenario as `backfills_around_the_reservation`: the
        // narrow job hole-fills, the wide head gets the reservation.
        let run = [running(100, 6, 0, 1_000)];
        let q = [waiting(0, 10, 8, HOUR), waiting(1, 20, 2, 900)];
        let mut p = fcfs_backfill();
        let _ = p.decide(&ctx(50, 8, 2, &q, &run));
        assert!(p.take_trace().is_none(), "tracing is off by default");
        p.set_tracing(true);
        let _ = p.decide(&ctx(50, 8, 2, &q, &run));
        let t = p.take_trace().expect("trace recorded");
        let bf = t.backfill.expect("backfill counters");
        assert_eq!(
            (bf.examined, bf.started, bf.reserved, bf.blocked),
            (2, 1, 1, 0)
        );
        assert_eq!(t.spans, vec![("decide;backfill".to_string(), 2)]);
        assert!(p.take_trace().is_none(), "take_trace drains the slot");
    }

    /// The decide loop as it was before `fit`/`commit` and the skip of
    /// jobs that can neither start nor reserve: `earliest_start` plus
    /// `reserve` for every job.  The reference `decide` is checked
    /// against.
    fn reference_decide(
        policy: &BackfillPolicy,
        ctx: &SchedContext<'_>,
    ) -> (Vec<JobId>, BackfillTrace) {
        let mut profile = ctx.profile();
        let mut starts = Vec::new();
        let (mut reserved, mut blocked) = (0u32, 0u32);
        for idx in policy.order.order(ctx.queue, ctx.now) {
            let w = &ctx.queue[idx as usize];
            let start = profile.earliest_start(w.job.nodes, w.r_star, ctx.now);
            let may_reserve = match policy.rule {
                Reserve::First(k) => (reserved as usize) < k,
                Reserve::Starved(threshold) => w.xfactor(ctx.now) >= threshold,
            };
            if start == ctx.now {
                profile.reserve(start, w.r_star, w.job.nodes);
                starts.push(w.job.id);
            } else if may_reserve {
                profile.reserve(start, w.r_star, w.job.nodes);
                reserved += 1;
            } else {
                blocked += 1;
            }
        }
        #[expect(
            clippy::cast_possible_truncation,
            reason = "a queue longer than u32::MAX jobs cannot be held in memory"
        )]
        let trace = BackfillTrace {
            examined: ctx.queue.len() as u32,
            started: starts.len() as u32,
            reserved,
            blocked,
        };
        (starts, trace)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every order under every reservation rule (1, 2, 4 and
        /// unbounded reservations, and selective) starts the same jobs in
        /// the same order, with the same counters, as the reference loop.
        /// Running sets include overdue predictions; queued jobs are up
        /// to machine-wide, so many are wider than the free nodes.
        #[test]
        #[expect(clippy::cast_possible_truncation, reason = "test queues hold at most forty jobs")]
        fn decide_matches_the_reference_loop(
            capacity in 8u32..129,
            running_raw in proptest::collection::vec((1u32..129, 0u64..8_000), 0..12),
            queue_raw in proptest::collection::vec((0u64..30_000, 1u32..129, 1u64..6_000), 0..41),
        ) {
            let now: Time = 100_000;
            let mut running_jobs = Vec::new();
            let mut busy = 0;
            for (i, &(raw, end)) in running_raw.iter().enumerate() {
                let nodes = 1 + raw % capacity;
                if busy + nodes <= capacity {
                    busy += nodes;
                    // Ends below `now` are overdue predictions.
                    let pred_end = now - 1_000 + end;
                    running_jobs.push(running(1_000 + i as u32, nodes, now - 10_000, pred_end));
                }
            }
            let queue: Vec<WaitingJob> = queue_raw
                .iter()
                .enumerate()
                .map(|(i, &(back, raw, r_star))| {
                    waiting(i as u32, now - back, 1 + raw % capacity, r_star)
                })
                .collect();
            let c = ctx(now, capacity, capacity - busy, &queue, &running_jobs);
            let orders = [
                PriorityOrder::Fcfs,
                PriorityOrder::Lxf,
                PriorityOrder::Sjf,
                PriorityOrder::LxfW {
                    weight: PriorityOrder::DEFAULT_LXFW_WEIGHT,
                },
            ];
            let mut policies: Vec<BackfillPolicy> = orders
                .iter()
                .flat_map(|&o| [1, 2, 4, usize::MAX].map(|k| BackfillPolicy::new(o, k)))
                .collect();
            policies.push(crate::selective_backfill());
            for mut p in policies {
                let (want, want_trace) = reference_decide(&p, &c);
                p.set_tracing(true);
                let got = p.decide(&c);
                prop_assert_eq!(&got, &want, "{}", p.name());
                let trace = p.take_trace().and_then(|t| t.backfill);
                prop_assert_eq!(trace, Some(want_trace), "{}", p.name());
            }
        }
    }

    fn full_sim(policy: BackfillPolicy, seed: u64) -> (Workload, sbs_sim::SimResult) {
        let w = random_workload(RandomWorkloadCfg::default(), seed);
        let r = simulate(&w, policy, SimConfig::default());
        check_invariants(&r);
        (w, r)
    }

    #[test]
    fn all_variants_complete_random_workloads() {
        for seed in 0..4 {
            for policy in [
                fcfs_backfill(),
                lxf_backfill(),
                sjf_backfill(),
                BackfillPolicy::new(
                    PriorityOrder::LxfW {
                        weight: PriorityOrder::DEFAULT_LXFW_WEIGHT,
                    },
                    1,
                ),
                BackfillPolicy::new(PriorityOrder::Fcfs, 4),
            ] {
                let (w, r) = full_sim(policy, seed);
                assert_eq!(r.records.len(), w.jobs.len());
            }
        }
    }

    #[test]
    fn lxf_improves_average_slowdown_over_fcfs_under_contention() {
        // A loaded random workload: LXF-backfill should (as in the paper)
        // lower the mean bounded slowdown relative to FCFS-backfill.
        let cfg = RandomWorkloadCfg {
            jobs: 400,
            span: 2 * 86_400,
            ..Default::default()
        };
        let w = random_workload(cfg, 9);
        let fcfs = simulate(&w, fcfs_backfill(), SimConfig::default());
        let lxf = simulate(&w, lxf_backfill(), SimConfig::default());
        let mean = |r: &sbs_sim::SimResult| {
            let v: Vec<f64> = r.in_window().map(|j| j.bounded_slowdown()).collect();
            v.iter().sum::<f64>() / v.len() as f64
        };
        assert!(
            mean(&lxf) <= mean(&fcfs) * 1.05,
            "LXF {:.2} should not exceed FCFS {:.2}",
            mean(&lxf),
            mean(&fcfs)
        );
    }
}
