//! Per-function effect summaries, propagated bottom-up over the call
//! graph's SCC condensation.
//!
//! A summary records what calling a function *does* that the lock rules
//! care about: can it block, and which locks does it acquire (and leave
//! to the caller via a returned guard).
//! [`Interp::build`] extracts direct facts from each body, then runs a
//! fixed-point over every SCC in callees-first order, so by the time a
//! caller is summarized its callees are final.
//!
//! Propagation crosses only *non-closure* call edges: a closure may run
//! on another thread or never, so its effects are not the spawning
//! function's effects.
//!
//! Recursive SCCs iterate to a fixed point with a per-SCC round budget
//! (mirroring the dataflow engine's budget): `2·|SCC| + 4` rounds,
//! degraded to a single round for pathological components (> 64
//! members).  All facts are monotone (options fill in, sets grow), so
//! truncation only loses facts — ambiguity degrades to false negatives,
//! never noise.

use crate::callgraph::{walk_body, CallGraph};
use crate::cfg::walk_flat;
use crate::config::LintConfig;
use crate::flowrules::DEFAULT_BLOCKING;
use crate::parse::{Block, Expr, Stmt};
use crate::workspace::{acquisition_of, ParsedFile, Workspace};
use std::collections::BTreeMap;

/// A concrete source position justifying a summary fact — the ultimate
/// blocking call, the `.lock()` site — carried through propagation so a
/// finding several call levels up can point at the real site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Witness {
    /// Workspace-relative path of the witnessing file.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based byte column.
    pub col: u32,
    /// What happens there, message-ready (e.g. ``"`recv()`"``).
    pub what: String,
}

/// What calling one function does, as far as the flow rules care.
#[derive(Debug, Clone, Default)]
pub struct FnSummary {
    /// The function (or something it transitively calls, outside
    /// closures) can block; the witness is the ultimate blocking call.
    pub may_block: Option<Witness>,
    /// Lock keys acquired by the function or its callees, keyed as in
    /// [`acquisition_of`], each with its acquisition site.
    pub acquires: BTreeMap<String, Witness>,
    /// The function returns a live lock guard; the payload is the lock
    /// key (`"?"` when the guard's lock is unresolvable).
    pub returns_guard: Option<String>,
}

/// The interprocedural analysis state shared by the lock rules: the
/// call graph, one [`FnSummary`] per node, and the blocking-call list
/// the summaries were built from.
pub struct Interp<'a> {
    /// The resolved call graph.
    pub cg: CallGraph<'a>,
    /// `summaries[i]` describes `cg.fns[i]`.
    pub summaries: Vec<FnSummary>,
    /// Call names that block (`lint.toml`'s `blocking_calls`, else
    /// [`DEFAULT_BLOCKING`]).
    pub blocking: Vec<String>,
}

impl<'a> Interp<'a> {
    /// Builds the workspace index and the call graph, and computes
    /// summaries bottom-up.
    pub fn build(files: &'a [ParsedFile], cfg: &LintConfig) -> Interp<'a> {
        let blocking: Vec<String> = cfg
            .blocking_calls
            .clone()
            .unwrap_or_else(|| DEFAULT_BLOCKING.iter().map(|s| (*s).to_string()).collect());
        let cg = CallGraph::build(files, &Workspace::build(files));
        let n = cg.fns.len();

        // Direct (intraprocedural) facts, one pass per body.
        let mut summaries: Vec<FnSummary> = Vec::with_capacity(n);
        for node in &cg.fns {
            let mut s = FnSummary::default();
            let Some(body) = &node.item.body else {
                summaries.push(s);
                continue;
            };
            walk_body(body, false, &mut |e, in_closure| {
                if in_closure {
                    return;
                }
                let called = match e {
                    Expr::MethodCall { name, span, .. } => Some((name, span)),
                    Expr::Call { callee, span, .. } => match callee.as_ref() {
                        Expr::Path { segs, .. } => segs.last().map(|last| (last, span)),
                        _ => None,
                    },
                    _ => None,
                };
                if let Some((name, span)) = called {
                    if s.may_block.is_none() && blocking.contains(name) {
                        s.may_block = Some(Witness {
                            file: node.file.to_string(),
                            line: span.line,
                            col: span.col,
                            what: format!("`{name}()`"),
                        });
                    }
                }
                if let Some(a) = acquisition_of(e) {
                    if a.key != "?" {
                        s.acquires.entry(a.key.clone()).or_insert(Witness {
                            file: node.file.to_string(),
                            line: a.line,
                            col: a.col,
                            what: format!("`.lock()` on `{}`", a.key),
                        });
                    }
                }
            });

            if node
                .item
                .ret
                .as_deref()
                .is_some_and(|r| r.contains("Guard"))
            {
                let mut key = None;
                for re in return_exprs(body) {
                    walk_flat(re, &mut |x| {
                        if key.is_none() {
                            key = acquisition_of(x).map(|a| a.key);
                        }
                    });
                }
                s.returns_guard = Some(key.unwrap_or_else(|| "?".to_string()));
            }
            summaries.push(s);
        }

        // Bottom-up propagation: sccs are callees-first, so cross-SCC
        // callees are final; within an SCC iterate under the budget.
        for scc in &cg.sccs {
            let budget = if scc.len() > 64 { 1 } else { 2 * scc.len() + 4 };
            for _ in 0..budget {
                let mut changed = false;
                for &v in scc {
                    let mut new_block: Option<Witness> = None;
                    let mut new_acq: Vec<(String, Witness)> = Vec::new();
                    {
                        let sv = &summaries[v];
                        for e in &cg.edges[v] {
                            if e.in_closure {
                                continue;
                            }
                            let cs = &summaries[e.to];
                            if sv.may_block.is_none() && new_block.is_none() {
                                new_block.clone_from(&cs.may_block);
                            }
                            for (k, w) in &cs.acquires {
                                if !sv.acquires.contains_key(k)
                                    && !new_acq.iter().any(|(nk, _)| nk == k)
                                {
                                    new_acq.push((k.clone(), w.clone()));
                                }
                            }
                        }
                    }
                    let sv = &mut summaries[v];
                    if sv.may_block.is_none() && new_block.is_some() {
                        sv.may_block = new_block;
                        changed = true;
                    }
                    for (k, w) in new_acq {
                        sv.acquires.insert(k, w);
                        changed = true;
                    }
                }
                if !changed {
                    break;
                }
            }
        }

        // A `"?"` returned-guard key can be upgraded once acquisitions
        // (own or inherited) pin the function to exactly one lock.
        for s in &mut summaries {
            if s.returns_guard.as_deref() == Some("?") && s.acquires.len() == 1 {
                if let Some(k) = s.acquires.keys().next() {
                    s.returns_guard = Some(k.clone());
                }
            }
        }

        Interp {
            cg,
            summaries,
            blocking,
        }
    }

    /// The summary of the callee resolved at a call site, if any.
    pub fn callee_summary(&self, file: &str, line: u32, col: u32) -> Option<(usize, &FnSummary)> {
        let i = self.cg.callee_at(file, line, col)?;
        Some((i, &self.summaries[i]))
    }

    /// A display name for `cg.fns[i]` (`Type::name` for methods).
    pub fn fn_display(&self, i: usize) -> String {
        let f = &self.cg.fns[i];
        match &f.owner {
            Some(o) => format!("{o}::{}", f.name),
            None => f.name.to_string(),
        }
    }
}

/// The expressions a function's value can come from: the body's tail
/// expression plus every non-closure `return` value.
fn return_exprs(body: &Block) -> Vec<&Expr> {
    let mut out = Vec::new();
    if let Some(Stmt::Expr { expr, semi: false }) = body.stmts.last() {
        out.push(expr);
    }
    walk_body(body, false, &mut |e, in_closure| {
        if in_closure {
            return;
        }
        if let Expr::Jump {
            kw, value: Some(v), ..
        } = e
        {
            if kw == "return" {
                out.push(v);
            }
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{mask, tokenize};
    use crate::parse::parse_file;

    fn pf(rel: &str, src: &str) -> ParsedFile {
        let tokens = tokenize(&mask(src).text);
        let ast = parse_file(&tokens);
        ParsedFile {
            rel: rel.to_string(),
            tokens,
            ast,
        }
    }

    fn build(files: &[ParsedFile]) -> Interp<'_> {
        Interp::build(files, &LintConfig::default())
    }

    fn s<'a, 'b>(interp: &'b Interp<'a>, name: &str) -> &'b FnSummary {
        let i = (0..interp.cg.fns.len())
            .find(|&i| interp.cg.fns[i].name == name)
            .unwrap_or_else(|| panic!("no fn {name}"));
        &interp.summaries[i]
    }

    #[test]
    fn blocking_propagates_through_calls_with_the_original_witness() {
        let files = [pf(
            "a.rs",
            "fn deep(rx: &Receiver<u32>) { let v = rx.recv(); }\n\
             fn mid() { deep(&rx()); }\n\
             fn top() { mid(); }\n",
        )];
        let interp = build(&files);
        let w = s(&interp, "top").may_block.as_ref().expect("top may block");
        assert_eq!((w.line, w.what.as_str()), (1, "`recv()`"));
        assert_eq!(w.file, "a.rs");
    }

    #[test]
    fn closure_edges_do_not_propagate_effects() {
        let files = [pf(
            "a.rs",
            "fn blocker(rx: &R) { rx.recv(); }\n\
             fn spawns() { go(move || { blocker(&r()); }); }\n",
        )];
        let interp = build(&files);
        assert!(s(&interp, "spawns").may_block.is_none());
    }

    #[test]
    fn acquisitions_are_recorded_and_flow_to_callers() {
        let files = [pf(
            "a.rs",
            "struct T;\n\
             impl T {\n\
             fn tick(&self) {\n\
             let g = self.jobs.lock().unwrap();\n\
             }\n\
             fn outer(&self) { self.tick(); }\n\
             }\n",
        )];
        let interp = build(&files);
        assert!(s(&interp, "tick").acquires.contains_key("jobs"));
        assert!(s(&interp, "outer").acquires.contains_key("jobs"));
    }

    #[test]
    fn returns_guard_resolves_the_lock_key() {
        let files = [pf(
            "a.rs",
            "impl T {\n\
             fn state(&self) -> MutexGuard<State> { self.state.lock().unwrap() }\n\
             fn opaque(&self) -> MutexGuard<State> { let g = self.state.lock().unwrap(); g }\n\
             fn plain(&self) -> u32 { 0 }\n\
             }\n",
        )];
        let interp = build(&files);
        assert_eq!(s(&interp, "state").returns_guard.as_deref(), Some("state"));
        // No acquisition in return position, but a unique acquire pins it.
        assert_eq!(s(&interp, "opaque").returns_guard.as_deref(), Some("state"));
        assert!(s(&interp, "plain").returns_guard.is_none());
    }

    #[test]
    fn recursive_scc_reaches_a_fixed_point() {
        let files = [pf(
            "a.rs",
            "fn a(n: u32) { if n > 0 { b(n - 1); } }\n\
             fn b(n: u32) { sink.recv(); a(n); }\n",
        )];
        let interp = build(&files);
        assert!(s(&interp, "a").may_block.is_some(), "a blocks via b");
        assert!(s(&interp, "b").may_block.is_some());
    }
}
