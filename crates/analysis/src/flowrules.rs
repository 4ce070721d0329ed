//! The flow-sensitive lock rules, `lock-across-blocking` and
//! `double-lock`, and the nested-acquisition edges `lock-ordering`
//! reads.
//!
//! Both run the [`crate::dataflow`] fixpoint over each function's
//! [`crate::cfg::Cfg`], so they reason about *paths* — which guards are
//! live at a call — where a per-statement view cannot.  They are also
//! *interprocedural*: [`crate::summaries`] gives every function an
//! effect summary (may-block, locks acquired, guard-returning), so a
//! blocking call two hops down the call graph is found at the caller's
//! critical section, with the ultimate blocking site named in the
//! message.
//!
//! Guard liveness uses [`Mode::Must`]: a guard counts as held only when
//! every executed path agrees.  That, plus the CFG's policy of dropping
//! anything it cannot model, keeps the engine's contract: ambiguity
//! degrades to false negatives, never noise.

use crate::cfg::{for_each_fn_cfg, walk_flat, Cfg, Step, StepKind};
use crate::dataflow::{solve, Mode, Problem, SiteSet, Solution};
use crate::parse::{Expr, Stmt};
use crate::rules::{Ctx, Finding};
use crate::summaries::Interp;
use crate::workspace::{acquisition_of, ParsedFile};
use std::collections::BTreeSet;

/// One nested lock acquisition: lock `inner` taken at `file:line:col`
/// (there, or inside the callee called there) while `outer` was held.
/// `double-lock` reads the edges with `outer == inner`, `lock-ordering`
/// the rest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockEdge {
    /// The lock already held.
    pub outer: String,
    /// The lock acquired while holding it.
    pub inner: String,
    /// What holds `outer`, message-ready (``"guard `g` since line 4"``).
    pub holder: String,
    /// For an acquisition inside a callee: which callee, and where it
    /// locks, message-ready.
    pub via: Option<String>,
    /// File of the acquisition (or of the call that makes it).
    pub file: String,
    /// Line of the acquisition.
    pub line: u32,
    /// Column of the acquisition.
    pub col: u32,
}

/// Every nested acquisition in `files`, from guard liveness: a
/// `.lock()`, or a call whose summary acquires, while a guard is live
/// (or while the same lock was already taken earlier in the same
/// expression).  Unresolvable locks (`"?"`) never form an edge.
pub fn lock_edges(files: &[ParsedFile], interp: &Interp) -> Vec<LockEdge> {
    let mut out = Vec::new();
    for pf in files {
        for item in &pf.ast.items {
            for_each_fn_cfg(item, &mut |_, cfg| {
                let (sites, p, sol) = guard_analysis(&pf.rel, interp, cfg);
                for node in 0..cfg.nodes.len() {
                    sol.for_each_step(cfg, &p, node, &mut |s: &Step, fact| {
                        let Some(e) = step_expr(&s.kind) else { return };
                        let mut in_expr: Vec<String> = Vec::new();
                        walk_flat(e, &mut |x| {
                            let (Expr::Call { span, .. } | Expr::MethodCall { span, .. }) = x
                            else {
                                return;
                            };
                            let mut taken: Vec<(String, Option<String>)> = Vec::new();
                            if let Some(a) = acquisition_of(x) {
                                taken.push((a.key, None));
                            } else if let Some((idx, sum)) =
                                interp.callee_summary(&pf.rel, span.line, span.col)
                            {
                                for (key, w) in &sum.acquires {
                                    let via = format!(
                                        "`{}` acquires it at {}:{}",
                                        interp.fn_display(idx),
                                        w.file,
                                        w.line
                                    );
                                    taken.push((key.clone(), Some(via)));
                                }
                            }
                            let mut edge = |outer: &str, inner: &str, holder: String, via| {
                                out.push(LockEdge {
                                    outer: outer.to_string(),
                                    inner: inner.to_string(),
                                    holder,
                                    via,
                                    file: pf.rel.clone(),
                                    line: span.line,
                                    col: span.col,
                                });
                            };
                            for (key, via) in taken.into_iter().filter(|(k, _)| k != "?") {
                                for g in fact.iter().map(|i| &sites[i]) {
                                    if g.key != "?" {
                                        let holder =
                                            format!("guard `{}` since line {}", g.name, g.line);
                                        edge(&g.key, &key, holder, via.clone());
                                    }
                                }
                                if via.is_none() {
                                    if in_expr.contains(&key) {
                                        let holder =
                                            "by an earlier `.lock()` in this expression".into();
                                        edge(&key, &key, holder, None);
                                    }
                                    in_expr.push(key);
                                }
                            }
                        });
                    });
                }
            });
        }
    }
    out
}

/// The expression a step evaluates, if any.
fn step_expr<'a>(kind: &StepKind<'a>) -> Option<&'a Expr> {
    match kind {
        StepKind::Let(Stmt::Let {
            init: Some(init), ..
        }) => Some(init),
        StepKind::Eval(e) => Some(e),
        StepKind::Cond { expr, .. } => Some(expr),
        _ => None,
    }
}

/// One tracked lock guard: a `let`-bound acquisition.
struct GuardSite {
    /// The binding's name (kill target for rebinding / scope end).
    name: String,
    /// The lock's identity key (see [`acquisition_of`]); `"?"` when the
    /// source is unresolvable — still a guard, just unmatchable.
    key: String,
    /// Line of the acquisition (for messages).
    line: u32,
    /// The gen step's ordinal (orders guards by acquisition).
    ord: u32,
}

/// Builds the guard-liveness problem for one function: sites are
/// `let`-bound lock acquisitions, bindings of calls whose summary says
/// they return a guard, or `MutexGuard`-annotated bindings; kills are
/// rebinding, scope end, and the guard's bare name moving into a call
/// (which covers `drop(g)`).  MUST mode: a guard only counts as held
/// where every executed path holds it.
fn guard_analysis<'a>(
    rel_path: &str,
    interp: &Interp,
    cfg: &Cfg<'a>,
) -> (Vec<GuardSite>, Problem, Solution) {
    let mut sites: Vec<GuardSite> = Vec::new();
    for (_, s) in cfg.steps_in_order() {
        if let StepKind::Let(Stmt::Let {
            name: Some(n),
            ty,
            init,
            span,
            ..
        }) = &s.kind
        {
            let mut acq = None;
            let mut from_callee: Option<(String, u32)> = None;
            if let Some(init) = init {
                walk_flat(init, &mut |e| {
                    if acq.is_none() {
                        acq = acquisition_of(e);
                    }
                    if from_callee.is_none() {
                        if let Expr::Call { span, .. } | Expr::MethodCall { span, .. } = e {
                            if let Some((_, sum)) =
                                interp.callee_summary(rel_path, span.line, span.col)
                            {
                                if let Some(key) = &sum.returns_guard {
                                    from_callee = Some((key.clone(), span.line));
                                }
                            }
                        }
                    }
                });
            }
            if let Some(a) = acq {
                sites.push(GuardSite {
                    name: n.clone(),
                    key: a.key,
                    line: a.line,
                    ord: s.ord,
                });
            } else if let Some((key, line)) = from_callee {
                // `let g = self.state_guard();` — the callee's summary
                // says it hands back a live guard for `key`.
                sites.push(GuardSite {
                    name: n.clone(),
                    key,
                    line,
                    ord: s.ord,
                });
            } else if ty.as_deref().is_some_and(|t| t.contains("MutexGuard")) {
                sites.push(GuardSite {
                    name: n.clone(),
                    key: "?".to_string(),
                    line: span.line,
                    ord: s.ord,
                });
            }
        }
    }
    let mut p = Problem::new(cfg, sites.len(), Mode::Must);
    for (i, site) in sites.iter().enumerate() {
        p.gen[site.ord as usize].push(i);
    }
    for (_, s) in cfg.steps_in_order() {
        if let StepKind::ScopeEnd(names) = &s.kind {
            for (i, site) in sites.iter().enumerate() {
                if names.contains(&site.name) {
                    p.kill[s.ord as usize].push(i);
                }
            }
            continue;
        }
        if let StepKind::Let(Stmt::Let { name: Some(n), .. }) = &s.kind {
            // Rebinding ends the old guard's region (kill runs before
            // this step's own gen).
            for (i, site) in sites.iter().enumerate() {
                if site.name == *n && site.ord != s.ord {
                    p.kill[s.ord as usize].push(i);
                }
            }
        }
        if let Some(e) = step_expr(&s.kind) {
            // A guard's bare name as a call argument moves (or at
            // minimum last-uses) it: `drop(g)`, `consume(g)`.
            let mut moved: BTreeSet<String> = BTreeSet::new();
            walk_flat(e, &mut |x| {
                let args = match x {
                    Expr::Call { args, .. } | Expr::MethodCall { args, .. } => args,
                    _ => return,
                };
                for a in args {
                    if let Expr::Path { segs, .. } = a {
                        if segs.len() == 1 {
                            moved.insert(segs[0].clone());
                        }
                    }
                }
            });
            for (i, site) in sites.iter().enumerate() {
                if moved.contains(&site.name) && site.ord != s.ord {
                    p.kill[s.ord as usize].push(i);
                }
            }
        }
    }
    let sol = solve(cfg, &p);
    (sites, p, sol)
}

/// The innermost (most recently acquired) live guard.
fn innermost<'a>(sites: &'a [GuardSite], fact: &SiteSet) -> Option<&'a GuardSite> {
    fact.iter().map(|i| &sites[i]).max_by_key(|g| g.ord)
}

/// Built-in blocking-call list for `lock-across-blocking`; override
/// with the rule's `blocking_calls` key in `lint.toml`.
pub const DEFAULT_BLOCKING: &[&str] = &[
    "accept",
    "flush",
    "read",
    "read_exact",
    "read_line",
    "read_to_end",
    "read_to_string",
    "recv",
    "recv_timeout",
    "save_snapshot",
    "sleep",
    "sync_all",
    "sync_data",
    "wait",
    "write",
    "write_all",
];

pub(crate) fn check_lock_across_blocking(ctx: &Ctx) -> Vec<Finding> {
    let blocking = &ctx.interp.blocking;
    let mut out = Vec::new();
    for item in &ctx.ast.items {
        for_each_fn_cfg(item, &mut |_, cfg| {
            let (sites, p, sol) = guard_analysis(ctx.rel_path, ctx.interp, cfg);
            if sites.is_empty() {
                return;
            }
            for node in 0..cfg.nodes.len() {
                sol.for_each_step(cfg, &p, node, &mut |s: &Step, fact| {
                    let Some(g) = innermost(&sites, fact) else {
                        return;
                    };
                    let Some(e) = step_expr(&s.kind) else { return };
                    walk_flat(e, &mut |x| {
                        let (name, span) = match x {
                            Expr::MethodCall { name, span, .. } => (name.as_str(), span),
                            Expr::Call { callee, span, .. } => {
                                let Expr::Path { segs, .. } = callee.as_ref() else {
                                    return;
                                };
                                let Some(last) = segs.last() else { return };
                                (last.as_str(), span)
                            }
                            _ => return,
                        };
                        if blocking.iter().any(|b| b == name) {
                            out.push(Finding {
                                line: span.line,
                                col: span.col,
                                message: format!(
                                    "`{name}()` can block while lock guard `{}` (acquired line \
                                     {}) is held; drop the guard first or move the I/O outside \
                                     the critical section",
                                    g.name, g.line
                                ),
                            });
                            return;
                        }
                        // Interprocedural: the callee's summary may
                        // carry a blocking witness (a live guard moved
                        // into it is held for the callee's whole run).
                        let Some((idx, sum)) =
                            ctx.interp.callee_summary(ctx.rel_path, span.line, span.col)
                        else {
                            return;
                        };
                        if let Some(w) = &sum.may_block {
                            out.push(Finding {
                                line: span.line,
                                col: span.col,
                                message: format!(
                                    "`{}` can block ({} at {}:{}) and is called while lock \
                                     guard `{}` (acquired line {}) is held; drop the guard \
                                     first or move the blocking work outside the critical \
                                     section",
                                    ctx.interp.fn_display(idx),
                                    w.what,
                                    w.file,
                                    w.line,
                                    g.name,
                                    g.line
                                ),
                            });
                        }
                    });
                });
            }
        });
    }
    out
}

pub(crate) fn check_double_lock(ctx: &Ctx) -> Vec<Finding> {
    ctx.lock_edges
        .iter()
        .filter(|e| e.file == ctx.rel_path && e.outer == e.inner)
        .map(|e| Finding {
            line: e.line,
            col: e.col,
            message: match &e.via {
                None => format!(
                    "lock `{}` is already held here ({}); a second `.lock()` on the same \
                     mutex self-deadlocks",
                    e.inner, e.holder
                ),
                Some(via) => format!(
                    "{via}, but lock `{}` is already held here ({}); the nested `.lock()` \
                     self-deadlocks",
                    e.inner, e.holder
                ),
            },
        })
        .collect()
}

#[cfg(test)]
mod tests {
    /// Lints `src` as one file and returns `rule`'s findings as
    /// (line, message) pairs.
    fn run(rule: &str, src: &str) -> Vec<(u32, String)> {
        crate::engine::lint_source("x/src/lib.rs", src, &crate::LintConfig::default())
            .into_iter()
            .filter(|d| d.rule == rule)
            .map(|d| (d.line, d.message))
            .collect()
    }

    #[test]
    fn blocking_call_under_guard_fires_and_drop_silences() {
        let src = "fn f(&self) {\n\
                   let g = self.state.lock().unwrap();\n\
                   self.file.write_all(&g.bytes());\n\
                   }";
        let hits = run("lock-across-blocking", src);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].0, 3);
        assert!(hits[0].1.contains("`g`"), "{}", hits[0].1);

        let src = "fn f(&self) {\n\
                   let g = self.state.lock().unwrap();\n\
                   let b = g.bytes();\n\
                   drop(g);\n\
                   self.file.write_all(&b);\n\
                   }";
        assert!(run("lock-across-blocking", src).is_empty());
    }

    #[test]
    fn blocking_on_one_branch_only_is_must_silent_after_join() {
        // The guard is dropped on one path before the join; MUST
        // liveness stays silent at the post-join call.
        let src = "fn f(&self, c: bool) {\n\
                   let g = self.state.lock().unwrap();\n\
                   if c { drop(g); } else { drop(g); }\n\
                   self.file.flush();\n\
                   }";
        assert!(run("lock-across-blocking", src).is_empty());
    }

    #[test]
    fn double_lock_same_key_fires() {
        let src = "fn f(&self) {\n\
                   let a = self.jobs.lock().unwrap();\n\
                   let b = self.jobs.lock().unwrap();\n\
                   }";
        let hits = run("double-lock", src);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].0, 3);
        assert!(hits[0].1.contains("self-deadlock"), "{}", hits[0].1);

        // Different keys are lock-ordering's concern, not double-lock's.
        let src = "fn f(&self) {\n\
                   let a = self.jobs.lock().unwrap();\n\
                   let b = self.stats.lock().unwrap();\n\
                   }";
        assert!(run("double-lock", src).is_empty());
    }

    #[test]
    fn blocking_reached_through_a_callee_fires_with_the_witness() {
        let src = "fn save(d: &D) {\n\
                   d.file.sync_all();\n\
                   }\n\
                   fn f(&self) {\n\
                   let g = self.state.lock().unwrap();\n\
                   save(&g);\n\
                   }";
        let hits = run("lock-across-blocking", src);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].0, 6);
        assert!(hits[0].1.contains("save"), "{}", hits[0].1);
        assert!(hits[0].1.contains("sync_all"), "{}", hits[0].1);
    }

    #[test]
    fn double_lock_through_a_callee_fires() {
        let src = "struct S { jobs: Mutex<u32> }\n\
                   impl S {\n\
                   fn f(&self) {\n\
                   let a = self.jobs.lock().unwrap();\n\
                   self.relock();\n\
                   }\n\
                   fn relock(&self) {\n\
                   let b = self.jobs.lock().unwrap();\n\
                   }\n\
                   }";
        let hits = run("double-lock", src);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].0, 5);
        assert!(hits[0].1.contains("S::relock"), "{}", hits[0].1);
        assert!(hits[0].1.contains("`jobs`"), "{}", hits[0].1);
    }

    #[test]
    fn guard_returned_by_a_helper_is_tracked() {
        let src = "struct S { state: Mutex<u32>, file: F }\n\
                   impl S {\n\
                   fn hold(&self) -> MutexGuard<u32> {\n\
                   self.state.lock().unwrap()\n\
                   }\n\
                   fn f(&self) {\n\
                   let g = self.hold();\n\
                   self.file.write_all(&d);\n\
                   }\n\
                   }";
        let hits = run("lock-across-blocking", src);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].0, 8);
        assert!(hits[0].1.contains("`g`"), "{}", hits[0].1);
    }

    #[test]
    fn guard_passed_to_blocking_callee_fires_there_and_only_there() {
        let src = "struct S { state: Mutex<u32>, file: F }\n\
                   impl S {\n\
                   fn flush_under(&self, g: MutexGuard<u32>) {\n\
                   self.file.sync_all();\n\
                   }\n\
                   fn f(&self) {\n\
                   let g = self.state.lock().unwrap();\n\
                   self.flush_under(g);\n\
                   }\n\
                   }";
        let hits = run("lock-across-blocking", src);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].0, 8);
        assert!(hits[0].1.contains("flush_under"), "{}", hits[0].1);
        // An unresolvable callee stays silent.
        let src = "fn f(&self) {\n\
                   let g = self.state.lock().unwrap();\n\
                   consume(g);\n\
                   }";
        assert!(run("lock-across-blocking", src).is_empty());
    }
}
