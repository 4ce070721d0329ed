//! Algorithm portfolios: race several search strategies on the same
//! problem under one shared budget and keep the best answer.
//!
//! Discrepancy searches, beam search and the greedy probe have
//! complementary failure modes — LDS recovers from late heuristic
//! errors, DDS from early ones, beam concentrates on bound-guided
//! regions, greedy is free.  A portfolio runs a fixed member list
//! concurrently (same node limit each, one shared wall-clock deadline)
//! and adopts the best incumbent under **first-best-wins**: a later
//! member replaces the champion only with a *strictly* smaller cost, so
//! ties resolve to the earlier member and the result is deterministic
//! for any worker count — with the deadline disabled it equals the best
//! single member bit-for-bit.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::deadline::DeadlineTimer;
use crate::problem::{SearchConfig, SearchOutcome, SearchProblem, SearchStats, LEAF_ITER_BUCKETS};

/// One strategy in a portfolio race.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortfolioMember {
    /// Limited discrepancy search ([`crate::lds`]).
    Lds,
    /// Depth-bounded discrepancy search ([`crate::dds`]).
    Dds,
    /// Beam search ([`crate::beam`]) with the given width.
    Beam(usize),
    /// The pure heuristic probe ([`crate::greedy`]).
    Greedy,
}

impl PortfolioMember {
    /// Stable display label (`lds`, `dds`, `beam16`, `greedy`).
    pub fn label(&self) -> String {
        match self {
            PortfolioMember::Lds => "lds".to_string(),
            PortfolioMember::Dds => "dds".to_string(),
            PortfolioMember::Beam(w) => format!("beam{w}"),
            PortfolioMember::Greedy => "greedy".to_string(),
        }
    }
}

/// The default race: both discrepancy searches, a width-8 beam, and the
/// free greedy probe.
pub const DEFAULT_MEMBERS: [PortfolioMember; 4] = [
    PortfolioMember::Lds,
    PortfolioMember::Dds,
    PortfolioMember::Beam(8),
    PortfolioMember::Greedy,
];

/// Result of a portfolio race.
#[derive(Debug, Clone)]
pub struct PortfolioOutcome<B, C> {
    /// Merged outcome: the winning member's incumbent, with counters
    /// aggregated across all members (see [`portfolio`] for the rules).
    pub outcome: SearchOutcome<B, C>,
    /// Index (into the member list) of the winning member.
    pub winner: usize,
    /// Per-member label and stats, in member order.
    pub member_stats: Vec<(String, SearchStats)>,
}

/// Races `members` on the problem `factory` builds, each under the full
/// `cfg` node limit and one **shared** deadline, across `threads`
/// workers.
///
/// Merged counters: `nodes`, `leaves`, `leaf_iters`, `improvements`,
/// `pruned` and `nodes_left_at_deadline` are summed over members;
/// `budget_hit`/`deadline_hit` are true if any member hit;
/// `iterations`, `exhausted`, `best_iteration` and `best_depth` are the
/// winner's; `nodes_to_best` is the winner's local value plus the total
/// nodes of the members racing ahead of it in member order (the
/// deterministic serialization of the race).
pub fn portfolio<P, F>(
    factory: F,
    members: &[PortfolioMember],
    cfg: SearchConfig,
    threads: usize,
) -> PortfolioOutcome<P::Branch, P::Cost>
where
    P: SearchProblem,
    P::Branch: Send + Sync,
    P::Cost: Send,
    F: Fn() -> P + Sync,
{
    assert!(!members.is_empty(), "portfolio needs at least one member");
    let timer = DeadlineTimer::starting_now(cfg.deadline);
    let results = run_members(&factory, members, cfg, timer, threads);

    // First-best-wins in member order: strictly smaller cost replaces
    // the champion, ties keep the earlier member.
    let mut winner = 0usize;
    for (idx, outcome) in results.iter().enumerate() {
        let challenger = match &outcome.best {
            Some((c, _)) => c,
            None => continue,
        };
        let beats = match &results[winner].best {
            None => true,
            Some((champ, _)) => challenger < champ,
        };
        if idx != winner && beats {
            winner = idx;
        }
    }

    let member_stats: Vec<(String, SearchStats)> = members
        .iter()
        .zip(results.iter())
        .map(|(m, r)| (m.label(), r.stats))
        .collect();

    let mut merged: SearchOutcome<P::Branch, P::Cost> = SearchOutcome::new();
    let win = &results[winner];
    merged.stats.iterations = win.stats.iterations;
    merged.stats.exhausted = win.stats.exhausted;
    merged.stats.best_iteration = win.stats.best_iteration;
    merged.stats.best_depth = win.stats.best_depth;
    let mut nodes_before_winner = 0u64;
    for (idx, r) in results.iter().enumerate() {
        merged.stats.nodes += r.stats.nodes;
        merged.stats.leaves += r.stats.leaves;
        merged.stats.improvements += r.stats.improvements;
        merged.stats.pruned += r.stats.pruned;
        merged.stats.nodes_left_at_deadline += r.stats.nodes_left_at_deadline;
        merged.stats.budget_hit |= r.stats.budget_hit;
        merged.stats.deadline_hit |= r.stats.deadline_hit;
        for b in 0..LEAF_ITER_BUCKETS {
            merged.stats.leaf_iters[b] += r.stats.leaf_iters[b];
        }
        if idx < winner {
            nodes_before_winner += r.stats.nodes;
        }
    }
    merged.stats.nodes_to_best = nodes_before_winner + win.stats.nodes_to_best;
    merged.best = win.best.clone();
    if cfg.record_leaves {
        merged.leaves = win.leaves.clone();
    }

    PortfolioOutcome {
        outcome: merged,
        winner,
        member_stats,
    }
}

/// One worker-filled result slot in the member-ordered table.
type MemberSlot<B, C> = Mutex<Option<SearchOutcome<B, C>>>;

/// Runs every member across `threads` workers; results land in
/// per-member slots, so the outcome is independent of scheduling.
fn run_members<P, F>(
    factory: &F,
    members: &[PortfolioMember],
    cfg: SearchConfig,
    timer: DeadlineTimer,
    threads: usize,
) -> Vec<SearchOutcome<P::Branch, P::Cost>>
where
    P: SearchProblem,
    P::Branch: Send + Sync,
    P::Cost: Send,
    F: Fn() -> P + Sync,
{
    let threads = threads.max(1).min(rayon::max_threads()).min(members.len());
    if threads == 1 {
        return members
            .iter()
            .map(|m| run_member(&mut factory(), *m, cfg, timer))
            .collect();
    }
    let cursor = AtomicUsize::new(0);
    let slots: Vec<MemberSlot<P::Branch, P::Cost>> =
        (0..members.len()).map(|_| Mutex::new(None)).collect();
    rayon::broadcast(threads, |_worker| loop {
        let idx = cursor.fetch_add(1, Ordering::Relaxed);
        if idx >= members.len() {
            break;
        }
        let result = run_member(&mut factory(), members[idx], cfg, timer);
        *slots[idx].lock().expect("poisoned") = Some(result);
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("poisoned")
                .expect("worker filled slot")
        })
        .collect()
}

fn run_member<P: SearchProblem>(
    p: &mut P,
    member: PortfolioMember,
    cfg: SearchConfig,
    timer: DeadlineTimer,
) -> SearchOutcome<P::Branch, P::Cost> {
    match member {
        PortfolioMember::Lds => crate::lds::lds_with_timer(p, cfg, timer),
        PortfolioMember::Dds => crate::dds::dds_with_timer(p, cfg, timer),
        PortfolioMember::Beam(w) => crate::beam::beam_with_timer(p, w, cfg, timer),
        PortfolioMember::Greedy => crate::dfs::greedy_with_timer(p, cfg, timer),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::permutation::PermutationProblem;
    use crate::{beam, dds, greedy, lds};

    fn cost(perm: &[usize]) -> f64 {
        perm.iter()
            .enumerate()
            .map(|(i, &x)| (((x + 2) * (i + 1)) % 13) as f64)
            .sum()
    }

    fn mk() -> PermutationProblem {
        PermutationProblem::from_fn(6, cost)
    }

    #[test]
    fn portfolio_equals_the_best_single_member_without_a_deadline() {
        for limit in [Some(10u64), Some(100), Some(5_000), None] {
            let cfg = SearchConfig {
                node_limit: limit,
                ..Default::default()
            };
            let singles = [
                lds(&mut mk(), cfg),
                dds(&mut mk(), cfg),
                beam(&mut mk(), 8, cfg),
                greedy(&mut mk(), cfg),
            ];
            // First-best-wins over the member list.
            let mut expect = 0usize;
            for (i, s) in singles.iter().enumerate() {
                let (Some((c, _)), Some((champ, _))) = (&s.best, &singles[expect].best) else {
                    continue;
                };
                if i != expect && c < champ {
                    expect = i;
                }
            }
            for threads in [1usize, 2, 4] {
                let out = portfolio(mk, &DEFAULT_MEMBERS, cfg, threads);
                assert_eq!(out.winner, expect, "limit={limit:?} threads={threads}");
                let (wc, wp) = singles[expect].best.as_ref().expect("winner leaf");
                let (pc, pp) = out.outcome.best.as_ref().expect("portfolio leaf");
                assert_eq!(wc.to_bits(), pc.to_bits());
                assert_eq!(wp, pp);
            }
        }
    }

    #[test]
    fn aggregate_counters_follow_the_documented_rules() {
        let cfg = SearchConfig::with_limit(200);
        let out = portfolio(mk, &DEFAULT_MEMBERS, cfg, 4);
        let singles = [
            lds(&mut mk(), cfg),
            dds(&mut mk(), cfg),
            beam(&mut mk(), 8, cfg),
            greedy(&mut mk(), cfg),
        ];
        let total_nodes: u64 = singles.iter().map(|s| s.stats.nodes).sum();
        let total_leaves: u64 = singles.iter().map(|s| s.stats.leaves).sum();
        assert_eq!(out.outcome.stats.nodes, total_nodes);
        assert_eq!(out.outcome.stats.leaves, total_leaves);
        let win = &singles[out.winner];
        assert_eq!(out.outcome.stats.iterations, win.stats.iterations);
        assert_eq!(out.outcome.stats.exhausted, win.stats.exhausted);
        assert_eq!(out.outcome.stats.best_iteration, win.stats.best_iteration);
        let before: u64 = singles[..out.winner].iter().map(|s| s.stats.nodes).sum();
        assert_eq!(
            out.outcome.stats.nodes_to_best,
            before + win.stats.nodes_to_best
        );
        assert_eq!(out.member_stats.len(), 4);
        assert_eq!(out.member_stats[0].0, "lds");
        assert_eq!(out.member_stats[2].0, "beam8");
    }

    #[test]
    fn results_are_identical_across_worker_counts() {
        let cfg = SearchConfig::with_limit(1_000);
        let base = portfolio(mk, &DEFAULT_MEMBERS, cfg, 1);
        for threads in [2usize, 3, 4, 8] {
            let out = portfolio(mk, &DEFAULT_MEMBERS, cfg, threads);
            assert_eq!(out.winner, base.winner);
            assert_eq!(out.outcome.stats, base.outcome.stats, "threads={threads}");
            let (bc, bp) = base.outcome.best.as_ref().expect("base");
            let (oc, op) = out.outcome.best.as_ref().expect("out");
            assert_eq!(bc.to_bits(), oc.to_bits());
            assert_eq!(bp, op);
        }
    }

    #[test]
    fn single_member_portfolio_matches_the_plain_search() {
        // With the member list pinned to [Dds] the race *is* plain DDS:
        // same incumbent, same counters, at any worker count.
        let cfg = SearchConfig::with_limit(600);
        let plain = dds(&mut mk(), cfg);
        for threads in [1usize, 4] {
            let out = portfolio(mk, &[PortfolioMember::Dds], cfg, threads);
            assert_eq!(out.winner, 0);
            assert_eq!(out.outcome.stats, plain.stats, "threads={threads}");
            let (pc, pp) = plain.best.as_ref().expect("plain leaf");
            let (oc, op) = out.outcome.best.as_ref().expect("portfolio leaf");
            assert_eq!(pc.to_bits(), oc.to_bits());
            assert_eq!(pp, op);
        }
    }

    #[test]
    fn ties_resolve_to_the_earlier_member() {
        // Constant cost: every member finds cost 0; LDS (index 0) wins.
        let flat = || PermutationProblem::constant(5);
        let out = portfolio(flat, &DEFAULT_MEMBERS, SearchConfig::with_limit(500), 4);
        assert_eq!(out.winner, 0);
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn empty_portfolio_rejected() {
        let _ = portfolio(mk, &[], SearchConfig::default(), 2);
    }
}
