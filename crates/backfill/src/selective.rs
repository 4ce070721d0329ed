//! Selective backfill (Srinivasan, Kettimuthu, Subramani & Sadayappan,
//! JSSPP 2002).
//!
//! Instead of reserving for a fixed number of top-priority jobs,
//! *selective* backfill grants a reservation to **every** waiting job
//! whose expected slowdown (xfactor) has crossed a starvation threshold;
//! everything else is pure backfill.  The paper verified this variant on
//! the NCSA workloads and found it to perform "very similarly to
//! LXF-backfill" (Section 3.2) — our integration tests check exactly
//! that relationship.
//!
//! It is [`BackfillPolicy::selective`](crate::BackfillPolicy::selective):
//! the one backfill loop with its own reservation rule.

#[cfg(test)]
mod tests {
    use crate::selective_backfill;
    use sbs_sim::engine::{check_invariants, simulate, SimConfig};
    use sbs_sim::policy::{Policy, WaitingJob};
    use sbs_workload::generator::{random_workload, RandomWorkloadCfg};
    use sbs_workload::job::{Job, JobId};
    use sbs_workload::time::{Time, HOUR};

    fn waiting(id: u32, submit: Time, nodes: u32, r_star: Time) -> WaitingJob {
        WaitingJob {
            job: Job::new(JobId(id), submit, nodes, r_star, r_star),
            r_star,
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
    fn fresh_jobs_get_no_reservation() {
        // Machine busy (6 of 8) until t=1000.  A *fresh* wide job (low
        // xfactor) gets no reservation, so a long narrow job backfills
        // even though it runs past t=1000.
        let run = [running(100, 6, 0, 1_000)];
        let q = [waiting(0, 40, 8, HOUR), waiting(1, 45, 2, 3_000)];
        let starts = selective_backfill().decide(&sbs_sim::SchedContext {
            now: 50,
            capacity: 8,
            free_nodes: 2,
            queue: &q,
            running: &run,
        });
        assert_eq!(starts, vec![JobId(1)]);
    }

    #[test]
    fn starved_jobs_earn_a_reservation() {
        // The wide job has now waited long enough (xfactor >= 2): the
        // same backfill candidate must be blocked.
        let run = [running(100, 6, 0, 10_000)];
        let q = [waiting(0, 40, 8, HOUR), waiting(1, 45, 2, 30_000)];
        let now = 40 + 2 * HOUR; // wait = 2 h, r* = 1 h -> xfactor = 3
        let starts = selective_backfill().decide(&sbs_sim::SchedContext {
            now,
            capacity: 8,
            free_nodes: 2,
            queue: &q,
            running: &run,
        });
        assert!(starts.is_empty());
    }

    #[test]
    fn completes_random_workloads() {
        for seed in 0..4 {
            let w = random_workload(RandomWorkloadCfg::default(), seed);
            let r = simulate(&w, selective_backfill(), SimConfig::default());
            check_invariants(&r);
            assert_eq!(r.records.len(), w.jobs.len());
        }
    }
}
