//! Priority functions for backfill scheduling.

use sbs_sim::policy::WaitingJob;
use sbs_workload::time::{Time, HOUR};

/// A job priority order; higher priority value = considered earlier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PriorityOrder {
    /// First come, first served: earlier submission = higher priority.
    Fcfs,
    /// Largest bounded slowdown ("expansion factor") first.
    Lxf,
    /// Shortest (predicted) job first.
    Sjf,
    /// LXF plus [`LXFW_WEIGHT`] per hour of waiting — the paper's
    /// LXF&W-backfill (a very small weight, their ref \[4\]).
    LxfW,
}

/// LXF&W's additional priority per hour waited.
pub const LXFW_WEIGHT: f64 = 0.02;

impl PriorityOrder {
    /// The priority value of `job` at time `now` (higher = earlier).
    pub fn value(&self, job: &WaitingJob, now: Time) -> f64 {
        match *self {
            PriorityOrder::Fcfs => -(job.job.submit as f64),
            PriorityOrder::Lxf => job.xfactor(now),
            PriorityOrder::Sjf => -(job.r_star as f64),
            PriorityOrder::LxfW => {
                job.xfactor(now) + LXFW_WEIGHT * job.wait(now) as f64 / HOUR as f64
            }
        }
    }

    /// Returns indices into `queue` sorted by descending priority, ties
    /// broken by submission time, then id, then queue position (fully
    /// deterministic).
    pub fn order(&self, queue: &[WaitingJob], now: Time) -> Vec<u32> {
        // One packed integer key per job, compared in place.  The trailing
        // queue index makes every key distinct, so the unstable sort
        // returns what a stable sort on the first three fields would.
        let mut keyed: Vec<(u64, Time, u32, u32)> = queue
            .iter()
            .zip(0..)
            .map(|(w, i)| (descending(self.value(w, now)), w.job.submit, w.job.id.0, i))
            .collect();
        keyed.sort_unstable();
        keyed.into_iter().map(|(.., i)| i).collect()
    }

    /// Short name used in policy display names (`fcfs`, `lxf`, ...).
    pub fn label(&self) -> &'static str {
        match self {
            PriorityOrder::Fcfs => "FCFS",
            PriorityOrder::Lxf => "LXF",
            PriorityOrder::Sjf => "SJF",
            PriorityOrder::LxfW => "LXF&W",
        }
    }
}

/// An integer whose ascending order is `x`'s descending
/// [`f64::total_cmp`] order, `-0.0` ranking after `+0.0` as there.
fn descending(x: f64) -> u64 {
    let bits = x.to_bits();
    // `total_cmp`'s ascending key: a negative flips every bit, a
    // non-negative only its sign bit.
    let ascending = if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    };
    !ascending
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sbs_workload::job::{Job, JobId};

    fn waiting(id: u32, submit: Time, nodes: u32, r_star: Time) -> WaitingJob {
        WaitingJob {
            job: Job::new(JobId(id), submit, nodes, r_star, r_star),
            r_star,
        }
    }

    #[test]
    fn fcfs_orders_by_submission() {
        let q = [
            waiting(0, 300, 1, HOUR),
            waiting(1, 100, 1, HOUR),
            waiting(2, 200, 1, HOUR),
        ];
        assert_eq!(PriorityOrder::Fcfs.order(&q, 400), vec![1, 2, 0]);
    }

    #[test]
    fn lxf_prefers_high_slowdown_short_jobs() {
        // Same wait, shorter job => larger xfactor => earlier.
        let q = [waiting(0, 0, 1, 4 * HOUR), waiting(1, 0, 1, HOUR)];
        assert_eq!(PriorityOrder::Lxf.order(&q, HOUR), vec![1, 0]);
        // But a long job that waited much longer overtakes a fresh short
        // one: xfactor (40h + 4h) / 4h = 11 vs (0.5h + 1h) / 1h = 1.5.
        let now = 40 * HOUR;
        let q = [
            waiting(0, 0, 1, 4 * HOUR),
            waiting(1, now - HOUR / 2, 1, HOUR),
        ];
        let ord = PriorityOrder::Lxf.order(&q, now);
        assert_eq!(ord, vec![0, 1]);
    }

    #[test]
    fn sjf_orders_by_predicted_runtime() {
        let q = [waiting(0, 0, 1, 4 * HOUR), waiting(1, 50, 1, HOUR)];
        assert_eq!(PriorityOrder::Sjf.order(&q, 100), vec![1, 0]);
    }

    #[test]
    fn lxfw_breaks_lxf_ties_by_wait() {
        // Two identical jobs, one waited longer: pure LXF already prefers
        // it; LXF&W must agree and amplify.
        let q = [waiting(0, 100, 1, HOUR), waiting(1, 0, 1, HOUR)];
        let now = 2 * HOUR;
        let lxfw = PriorityOrder::LxfW;
        assert_eq!(lxfw.order(&q, now), vec![1, 0]);
        let d_lxf = PriorityOrder::Lxf.value(&q[1], now) - PriorityOrder::Lxf.value(&q[0], now);
        let d_lxfw = lxfw.value(&q[1], now) - lxfw.value(&q[0], now);
        assert!(d_lxfw > d_lxf);
    }

    #[test]
    fn ties_fall_back_to_submit_then_id() {
        let q = [waiting(5, 100, 1, HOUR), waiting(2, 100, 1, HOUR)];
        assert_eq!(PriorityOrder::Lxf.order(&q, 200), vec![1, 0]);
    }

    /// `order` as it was before the packed sort: a stable sort of indices
    /// by the three-way comparator.  The reference `order` is checked
    /// against.
    #[expect(clippy::cast_possible_truncation, reason = "test queues are small")]
    fn reference_order(order: PriorityOrder, queue: &[WaitingJob], now: Time) -> Vec<u32> {
        let mut idx: Vec<usize> = (0..queue.len()).collect();
        let keys: Vec<f64> = queue.iter().map(|w| order.value(w, now)).collect();
        idx.sort_by(|&a, &b| {
            keys[b]
                .total_cmp(&keys[a])
                .then(queue[a].job.submit.cmp(&queue[b].job.submit))
                .then(queue[a].job.id.cmp(&queue[b].job.id))
        });
        idx.into_iter().map(|i| i as u32).collect()
    }

    proptest! {
        /// Every order sorts exactly as the old comparator did.  Values
        /// and submits tie often, `submit = 0` makes FCFS's key `-0.0`,
        /// and ids repeat, so only the queue position breaks some ties.
        #[test]
        fn order_matches_the_comparator_sort(
            raw in proptest::collection::vec((0u64..4, 0u32..6, 1u64..4), 0..40),
            now in 0u64..4,
        ) {
            let queue: Vec<WaitingJob> = raw
                .iter()
                .map(|&(submit, id, r_star)| waiting(id, submit * HOUR, 1, r_star * HOUR / 2))
                .collect();
            let now = now * HOUR;
            for order in [
                PriorityOrder::Fcfs,
                PriorityOrder::Lxf,
                PriorityOrder::Sjf,
                PriorityOrder::LxfW,
            ] {
                prop_assert_eq!(order.order(&queue, now), reference_order(order, &queue, now));
            }
        }

        /// The packed key orders any two floats, infinities, NaNs and
        /// both zeros included, exactly as descending `total_cmp` does.
        #[test]
        fn descending_key_is_reversed_total_cmp(
            a in (0usize..12, 0u64..u64::MAX),
            b in (0usize..12, 0u64..u64::MAX),
        ) {
            let special = [0.0, -0.0, 1.0, -1.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN, -f64::NAN];
            let float = |(pick, bits): (usize, u64)| {
                special.get(pick).copied().unwrap_or(f64::from_bits(bits))
            };
            let (a, b) = (float(a), float(b));
            prop_assert_eq!(descending(a).cmp(&descending(b)), b.total_cmp(&a));
        }
    }
}
