//! A small forward dataflow framework over [`crate::cfg::Cfg`].
//!
//! Facts are sets of *sites* (small integers a client assigns to gen
//! points, e.g. a lock guard's binding).  A [`Problem`] maps
//! each step to its gen and kill sets; [`solve`] runs the classic
//! worklist fixpoint and returns the fact at every node entry, from
//! which clients replay transfer functions step by step to query the
//! fact *before* any individual step.
//!
//! Two lattice modes:
//!
//! * [`Mode::May`] — union at joins ("holds on some path").
//! * [`Mode::Must`] — intersection at joins ("holds on every path"):
//!   guard liveness.  Unreached predecessors contribute the full set
//!   (top), so a fact only survives a join if every *executed* path
//!   agrees — the conservative direction for a lint that must stay
//!   silent on ambiguity.

use crate::cfg::{Cfg, Step};

/// A set of site ids, as a fixed-width bitset.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SiteSet {
    words: Vec<u64>,
}

impl SiteSet {
    /// The empty set over `n` sites.
    pub fn empty(n: usize) -> SiteSet {
        SiteSet {
            words: vec![0; n.div_ceil(64)],
        }
    }

    /// The full set over `n` sites.
    pub fn full(n: usize) -> SiteSet {
        let mut s = SiteSet::empty(n);
        for i in 0..n {
            s.insert(i);
        }
        s
    }

    /// Adds a site.
    pub fn insert(&mut self, i: usize) {
        let (w, b) = (i / 64, i % 64);
        if w < self.words.len() {
            self.words[w] |= 1u64 << b;
        }
    }

    /// Removes a site.
    pub fn remove(&mut self, i: usize) {
        let (w, b) = (i / 64, i % 64);
        if w < self.words.len() {
            self.words[w] &= !(1u64 << b);
        }
    }

    /// Membership test.
    pub fn contains(&self, i: usize) -> bool {
        let (w, b) = (i / 64, i % 64);
        self.words.get(w).is_some_and(|x| x & (1u64 << b) != 0)
    }

    /// True when no site is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|w| *w == 0)
    }

    /// The member sites, ascending.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(w, bits)| {
            (0..64)
                .filter(move |b| bits & (1u64 << b) != 0)
                .map(move |b| w * 64 + b)
        })
    }

    fn union_with(&mut self, other: &SiteSet) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    fn intersect_with(&mut self, other: &SiteSet) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }
}

/// Join operator selection.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// Union at joins: the fact holds on *some* path.
    May,
    /// Intersection at joins: the fact holds on *every* path.
    Must,
}

/// A gen/kill dataflow problem over step ordinals.
pub struct Problem {
    /// Number of sites (bitset width).
    pub n_sites: usize,
    /// Join mode.
    pub mode: Mode,
    /// `gen[ord]` — sites generated by the step with that ordinal.
    pub gen: Vec<Vec<usize>>,
    /// `kill[ord]` — sites killed by the step with that ordinal
    /// (applied before its gens).
    pub kill: Vec<Vec<usize>>,
}

impl Problem {
    /// An empty problem sized for `cfg`.
    pub fn new(cfg: &Cfg, n_sites: usize, mode: Mode) -> Problem {
        Problem {
            n_sites,
            mode,
            gen: vec![Vec::new(); cfg.n_ords as usize],
            kill: vec![Vec::new(); cfg.n_ords as usize],
        }
    }

    fn transfer(&self, step: &Step, fact: &mut SiteSet) {
        let ord = step.ord as usize;
        if let Some(kills) = self.kill.get(ord) {
            for k in kills {
                fact.remove(*k);
            }
        }
        if let Some(gens) = self.gen.get(ord) {
            for g in gens {
                fact.insert(*g);
            }
        }
    }

    fn transfer_node(&self, steps: &[Step], fact: &mut SiteSet) {
        for s in steps {
            self.transfer(s, fact);
        }
    }
}

/// The fixpoint solution: the fact at each node's entry.
pub struct Solution {
    /// `entry[node]` — the fact holding when control reaches the node.
    pub entry: Vec<SiteSet>,
}

impl Solution {
    /// Replays the transfer function through `node`, calling `f` with
    /// each step and the fact holding *before* it.
    pub fn for_each_step<'a>(
        &self,
        cfg: &'a Cfg<'a>,
        p: &Problem,
        node: usize,
        f: &mut dyn FnMut(&'a Step<'a>, &SiteSet),
    ) {
        let mut fact = self.entry[node].clone();
        for s in &cfg.nodes[node].steps {
            f(s, &fact);
            p.transfer(s, &mut fact);
        }
    }
}

/// Runs the worklist fixpoint for `p` over `cfg`.
pub fn solve(cfg: &Cfg, p: &Problem) -> Solution {
    let n = cfg.nodes.len();
    let top = || match p.mode {
        Mode::May => SiteSet::empty(p.n_sites),
        Mode::Must => SiteSet::full(p.n_sites),
    };
    let mut entry: Vec<SiteSet> = (0..n).map(|_| top()).collect();
    let mut reached = vec![false; n];
    entry[cfg.entry] = SiteSet::empty(p.n_sites);
    reached[cfg.entry] = true;

    let mut work = vec![cfg.entry];
    // The lattice has finite height (each site flips at most once per
    // direction per node), so this terminates; the explicit cap is a
    // belt-and-suspenders guard against a malformed graph.
    let mut budget = 64 * (n + 1) * (p.n_sites + 1);
    while let Some(node) = work.pop() {
        if budget == 0 {
            break;
        }
        budget -= 1;
        let mut out = entry[node].clone();
        p.transfer_node(&cfg.nodes[node].steps, &mut out);
        for &succ in &cfg.nodes[node].succs {
            let mut new_in = entry[succ].clone();
            if !reached[succ] {
                new_in = out.clone();
            } else {
                match p.mode {
                    Mode::May => new_in.union_with(&out),
                    Mode::Must => new_in.intersect_with(&out),
                }
            }
            if !reached[succ] || new_in != entry[succ] {
                reached[succ] = true;
                entry[succ] = new_in;
                if !work.contains(&succ) {
                    work.push(succ);
                }
            }
        }
    }
    Solution { entry }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::{for_each_fn_cfg, walk_flat, StepKind};
    use crate::lexer::{mask, tokenize};
    use crate::parse::{parse_file, Expr, Stmt};

    /// A toy analysis: site = `let` binding whose initializer calls
    /// `taint()`; killed by rebinding or `clear(name)`; propagated by
    /// `let y = x` from a tainted `x` (replayed per-step, so the
    /// fixpoint handles rebinding chains and joins).  Returns the sites
    /// live before every call to `sink(..)` as the let-line numbers.
    fn run(src: &str, mode: Mode) -> Vec<Vec<u32>> {
        let file = parse_file(&tokenize(&mask(src).text));
        let mut out = Vec::new();
        for item in &file.items {
            for_each_fn_cfg(item, &mut |_, cfg| {
                // Pass 1: assign sites to taint-gen lets, in ord order.
                struct Site {
                    name: String,
                    line: u32,
                }
                let mut sites: Vec<Site> = Vec::new();
                let mut gen_of_ord: Vec<(u32, usize)> = Vec::new(); // (ord, site)
                for (_, s) in cfg.steps_in_order() {
                    if let StepKind::Let(Stmt::Let {
                        name: Some(n),
                        init: Some(init),
                        span,
                        ..
                    }) = &s.kind
                    {
                        let mut is_src = false;
                        walk_flat(init, &mut |e| {
                            if let Expr::Call { callee, .. } = e {
                                if let Expr::Path { segs, .. } = &**callee {
                                    is_src |= segs.last().is_some_and(|x| x == "taint");
                                }
                            }
                        });
                        // Propagation through `let y = x` is resolved in
                        // pass 2 (it depends on the incoming fact).
                        if is_src {
                            gen_of_ord.push((s.ord, sites.len()));
                            sites.push(Site {
                                name: n.clone(),
                                line: span.line,
                            });
                        }
                    }
                }
                let n_sites = sites.len();
                let mut p = Problem::new(cfg, n_sites, mode);
                for (ord, site) in &gen_of_ord {
                    p.gen[*ord as usize].push(*site);
                }
                // Kills: rebinding a tracked name, `clear(name)`, scope end.
                for (_, s) in cfg.steps_in_order() {
                    match &s.kind {
                        StepKind::Let(Stmt::Let { name: Some(n), .. }) => {
                            for (i, site) in sites.iter().enumerate() {
                                let regen =
                                    gen_of_ord.iter().any(|(o, st)| *o == s.ord && *st == i);
                                if site.name == *n && !regen {
                                    p.kill[s.ord as usize].push(i);
                                }
                            }
                        }
                        StepKind::ScopeEnd(names) => {
                            for (i, site) in sites.iter().enumerate() {
                                if names.contains(&site.name) {
                                    p.kill[s.ord as usize].push(i);
                                }
                            }
                        }
                        StepKind::Eval(e) => {
                            let mut cleared = Vec::new();
                            walk_flat(e, &mut |x| {
                                if let Expr::Call { callee, args, .. } = x {
                                    if let Expr::Path { segs, .. } = &**callee {
                                        if segs.last().is_some_and(|s| s == "clear") {
                                            for a in args {
                                                if let Expr::Path { segs, .. } = a {
                                                    cleared.extend(segs.last().cloned());
                                                }
                                            }
                                        }
                                    }
                                }
                            });
                            for (i, site) in sites.iter().enumerate() {
                                if cleared.contains(&site.name) {
                                    p.kill[s.ord as usize].push(i);
                                }
                            }
                        }
                        _ => {}
                    }
                }
                let sol = solve(cfg, &p);
                // Pass 2: fact before every sink(..) call.
                for node in 0..cfg.nodes.len() {
                    sol.for_each_step(cfg, &p, node, &mut |s, fact| {
                        let e = match &s.kind {
                            StepKind::Eval(e) => *e,
                            StepKind::Let(Stmt::Let {
                                init: Some(init), ..
                            }) => init,
                            _ => return,
                        };
                        let mut is_sink = false;
                        walk_flat(e, &mut |x| {
                            if let Expr::Call { callee, .. } = x {
                                if let Expr::Path { segs, .. } = &**callee {
                                    is_sink |= segs.last().is_some_and(|s| s == "sink");
                                }
                            }
                        });
                        if is_sink {
                            out.push(fact.iter().map(|i| sites[i].line).collect());
                        }
                    });
                }
            });
        }
        out
    }

    #[test]
    fn diamond_join_may_vs_must() {
        // Tainted on one branch only: MAY sees it at the join, MUST
        // does not — the silence-leaning answer.
        let src = "fn f(c: bool) {\n\
                   if c {\n\
                   let x = taint();\n\
                   use_it(x);\n\
                   }\n\
                   sink(1);\n\
                   }";
        // x is scope-killed at the end of the then-block, so even MAY
        // sees nothing at the join…
        assert_eq!(run(src, Mode::May), vec![Vec::<u32>::new()]);

        // …whereas a binding living across the join splits the modes.
        let src = "fn g(c: bool) {\n\
                   let x = if c { taint() } else { clean() };\n\
                   sink(1);\n\
                   }";
        // Control-flow initializers are lowered for shape; the binding
        // gen happens at the join via the Let step, whose pruned walk
        // does not see inside the branches — silence, in both modes.
        assert_eq!(run(src, Mode::May), vec![Vec::<u32>::new()]);

        // Both-branch taint, rebound at top level so the site is in
        // scope at the sink.
        let src = "fn h(c: bool) {\n\
                   let x = taint();\n\
                   if c { touch(x); } else { clear(x); }\n\
                   sink(1);\n\
                   }";
        // clear() kills on the else path only: MAY still sees line 2,
        // MUST stays silent.
        assert_eq!(run(src, Mode::May), vec![vec![2]]);
        assert_eq!(run(src, Mode::Must), vec![Vec::<u32>::new()]);
    }

    #[test]
    fn loop_back_edge_reaches_fixpoint() {
        // The taint is introduced before the loop and killed inside it;
        // after one trip the kill flows around the back edge, so the
        // MUST fact at the sink inside the loop is empty, while the
        // MAY fact keeps the site (first trip sees it).
        let src = "fn f(n: u32) {\n\
                   let x = taint();\n\
                   while n > 0 {\n\
                   sink(1);\n\
                   clear(x);\n\
                   }\n\
                   }";
        assert_eq!(run(src, Mode::May), vec![vec![2]]);
        assert_eq!(run(src, Mode::Must), vec![Vec::<u32>::new()]);

        // Without the kill, both modes agree at the back edge.
        let src = "fn g(n: u32) {\n\
                   let x = taint();\n\
                   while n > 0 {\n\
                   sink(1);\n\
                   }\n\
                   }";
        assert_eq!(run(src, Mode::Must), vec![vec![2]]);
    }

    #[test]
    fn rebinding_kills_old_site() {
        let src = "fn f() {\n\
                   let x = taint();\n\
                   let x = clean();\n\
                   sink(1);\n\
                   }";
        assert_eq!(run(src, Mode::May), vec![Vec::<u32>::new()]);

        // Re-tainting re-gens a fresh site at the new line.
        let src = "fn g() {\n\
                   let x = taint();\n\
                   let x = taint();\n\
                   sink(1);\n\
                   }";
        assert_eq!(run(src, Mode::May), vec![vec![3]]);
    }

    #[test]
    fn early_return_prunes_the_path() {
        // The tainted path returns before the sink: nothing reaches it.
        let src = "fn f(c: bool) {\n\
                   let x = taint();\n\
                   if c {\n\
                   use_it(x);\n\
                   return;\n\
                   }\n\
                   clear(x);\n\
                   sink(1);\n\
                   }";
        assert_eq!(run(src, Mode::May), vec![Vec::<u32>::new()]);

        // Flipped: the clean path returns, the tainted one sinks.
        let src = "fn g(c: bool) {\n\
                   let x = taint();\n\
                   if c {\n\
                   clear(x);\n\
                   return;\n\
                   }\n\
                   sink(1);\n\
                   }";
        assert_eq!(run(src, Mode::Must), vec![vec![2]]);
    }
}
