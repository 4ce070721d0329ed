//! The workspace call graph: who calls whom, resolved conservatively.
//!
//! Nodes are every function the parser sees — free functions, inherent
//! methods, and trait-impl methods (the impl's target type is the
//! owner).  Edges are added only when a call site resolves to *exactly
//! one* candidate:
//!
//! * a single-segment `f(..)` resolves to the unique free function of
//!   that name, if there is exactly one;
//! * a qualified `Type::f(..)` (or `Self::f(..)`) resolves through the
//!   `(owner, name)` index — a lowercase penultimate segment is treated
//!   as a module path and falls back to the unique free function;
//! * a method call `recv.f(..)` resolves only when the receiver's type
//!   is known (`self`, a typed parameter or local, a field with an
//!   unambiguous declared type) and that type defines exactly one `f`.
//!
//! Anything else — name clashes, unknown receiver types, std methods —
//! produces **no edge**, preserving the engine's contract: ambiguity
//! degrades to false negatives, never noise.  Edges made from inside a
//! closure body are flagged [`Edge::in_closure`]; a closure may run on
//! another thread or not at all, so effect summaries do not propagate
//! through them.
//!
//! [`CallGraph::sccs`] holds the strongly connected components in
//! reverse topological order (callees before callers) — exactly the
//! order [`crate::summaries`] needs for bottom-up propagation.

use crate::parse::{Block, Expr, Item, ItemKind, Stmt};
use crate::workspace::{normalize_ty, ParsedFile, Workspace};
use std::collections::BTreeMap;

/// One function node.
#[derive(Debug)]
pub struct FnNode<'a> {
    /// Workspace-relative path of the defining file.
    pub file: &'a str,
    /// The function's name.
    pub name: &'a str,
    /// Base name of the impl target type for methods (`None` for free
    /// functions).
    pub owner: Option<String>,
    /// The parsed item (signature and body).
    pub item: &'a Item,
}

/// One resolved call edge.
#[derive(Debug, Clone, Copy)]
pub struct Edge {
    /// Callee node index.
    pub to: usize,
    /// True when the call site is inside a closure body.
    pub in_closure: bool,
}

/// The resolved workspace call graph.
pub struct CallGraph<'a> {
    /// All function nodes.
    pub fns: Vec<FnNode<'a>>,
    /// Adjacency: `edges[i]` are the calls made by `fns[i]`.
    pub edges: Vec<Vec<Edge>>,
    /// Strongly connected components, callees-first (reverse
    /// topological order of the condensation).
    pub sccs: Vec<Vec<usize>>,
    /// `(file, line, col)` of a resolved call site → callee index, so
    /// rules can ask "who is called here" for the exact span they are
    /// looking at.
    site_callees: BTreeMap<(String, u32, u32), usize>,
}

/// Strips references and generics from a type rendering and returns its
/// base name: `&mut Arc<Pool>` → `Arc`, `shard::Shard` → `Shard`.
pub fn base_type_name(ty: &str) -> String {
    let t = normalize_ty(ty);
    let t = t.strip_prefix("dyn ").unwrap_or(&t);
    let head = t.split('<').next().unwrap_or(t).trim();
    head.rsplit("::").next().unwrap_or(head).trim().to_string()
}

impl<'a> CallGraph<'a> {
    /// Builds the graph over every parsed file.
    pub fn build(files: &'a [ParsedFile], ws: &Workspace) -> CallGraph<'a> {
        let mut cg = CallGraph {
            fns: Vec::new(),
            edges: Vec::new(),
            sccs: Vec::new(),
            site_callees: BTreeMap::new(),
        };
        for pf in files {
            for item in &pf.ast.items {
                collect_fns(&pf.rel, item, None, &mut cg.fns);
            }
        }
        cg.edges = vec![Vec::new(); cg.fns.len()];

        // Name indexes for resolution.
        let mut free: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut methods: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        for (i, f) in cg.fns.iter().enumerate() {
            match &f.owner {
                None => free.entry(f.name).or_default().push(i),
                Some(o) => methods.entry((o.as_str(), f.name)).or_default().push(i),
            }
        }

        for caller in 0..cg.fns.len() {
            let node = &cg.fns[caller];
            let item: &'a Item = node.item;
            let Some(body) = &item.body else { continue };
            let env = local_types(node, ws);
            let owner = node.owner.clone();
            let file = node.file;
            let mut add: Vec<(Edge, (String, u32, u32), usize)> = Vec::new();
            walk_body(body, false, &mut |e, in_closure| {
                let resolved = match e {
                    Expr::Call { callee, span, .. } => {
                        let Expr::Path { segs, .. } = callee.as_ref() else {
                            return;
                        };
                        resolve_path(segs, owner.as_deref(), &free, &methods).map(|to| (to, *span))
                    }
                    Expr::MethodCall {
                        recv, name, span, ..
                    } => recv_type(recv, owner.as_deref(), &env, ws)
                        .and_then(|ty| {
                            unique(
                                methods
                                    .get(&(ty.as_str(), name.as_str()))
                                    .map(Vec::as_slice),
                            )
                        })
                        .map(|to| (to, *span)),
                    _ => return,
                };
                if let Some((to, span)) = resolved {
                    let edge = Edge { to, in_closure };
                    add.push((edge, (file.to_string(), span.line, span.col), to));
                }
            });
            for (edge, site, to) in add {
                cg.edges[caller].push(edge);
                cg.site_callees.insert(site, to);
            }
        }
        cg.sccs = tarjan(&cg.edges);
        cg
    }

    /// The callee resolved at a call site, by exact span.
    pub fn callee_at(&self, file: &str, line: u32, col: u32) -> Option<usize> {
        self.site_callees
            .get(&(file.to_string(), line, col))
            .copied()
    }
}

/// Exactly-one helper: `Some(idx)` iff the candidate list has one entry.
fn unique(c: Option<&[usize]>) -> Option<usize> {
    match c {
        Some([one]) => Some(*one),
        _ => None,
    }
}

/// Resolves a `Call` path against the indexes.
fn resolve_path(
    segs: &[String],
    owner: Option<&str>,
    free: &BTreeMap<&str, Vec<usize>>,
    methods: &BTreeMap<(&str, &str), Vec<usize>>,
) -> Option<usize> {
    let name = segs.last()?;
    if segs.len() == 1 {
        return unique(free.get(name.as_str()).map(Vec::as_slice));
    }
    let qual = &segs[segs.len() - 2];
    let qual = if qual == "Self" {
        owner?
    } else {
        qual.as_str()
    };
    // Uppercase qualifier: a type's associated item.  Lowercase (or
    // `crate`/`super`): a module path to a free function.
    let mut first = qual.chars();
    if first.next().is_some_and(char::is_uppercase) {
        unique(methods.get(&(qual, name.as_str())).map(Vec::as_slice))
    } else {
        unique(free.get(name.as_str()).map(Vec::as_slice))
    }
}

/// Collects function nodes, tracking the owning impl's target type.
fn collect_fns<'a>(file: &'a str, item: &'a Item, owner: Option<&str>, out: &mut Vec<FnNode<'a>>) {
    match item.kind {
        ItemKind::Fn => {
            if let Some(name) = &item.name {
                out.push(FnNode {
                    file,
                    name,
                    owner: owner.map(str::to_string),
                    item,
                });
            }
        }
        ItemKind::Impl => {
            let base = item.impl_ty.as_deref().map(base_type_name);
            for child in &item.items {
                collect_fns(file, child, base.as_deref(), out);
            }
        }
        ItemKind::Mod => {
            for child in &item.items {
                collect_fns(file, child, owner, out);
            }
        }
        // Trait *declarations* are skipped: a default body belongs to
        // every implementor, which a single owner cannot model.
        _ => {}
    }
}

/// Builds the caller's local type environment: parameter names, typed
/// `let` bindings, and `let x = f()` initializers with a workspace-
/// unambiguous return type.  A name bound with two different types maps
/// to `None` (ambiguity → silence).
fn local_types(node: &FnNode, ws: &Workspace) -> BTreeMap<String, Option<String>> {
    let mut env: BTreeMap<String, Option<String>> = BTreeMap::new();
    let mut bind = |name: &str, ty: String| match env.get(name) {
        None => {
            env.insert(name.to_string(), Some(ty));
        }
        Some(Some(prev)) if *prev != ty => {
            env.insert(name.to_string(), None);
        }
        _ => {}
    };
    for (name, ty) in &node.item.params {
        if !name.is_empty() {
            bind(name, base_type_name(ty));
        }
    }
    if let Some(body) = &node.item.body {
        collect_lets(body, &mut |name, ty, init| {
            if let Some(t) = ty {
                bind(name, base_type_name(t));
            } else if let Some(Expr::Call { callee, .. }) = init {
                if let Expr::Path { segs, .. } = callee.as_ref() {
                    if let Some(ret) = segs.last().and_then(|n| ws.fn_ret(n)) {
                        bind(name, base_type_name(ret));
                    }
                }
            }
        });
    }
    env
}

/// Visitor over `let` bindings: name, declared type, initializer.
type LetVisitor<'a> = dyn FnMut(&str, Option<&str>, Option<&'a Expr>) + 'a;

/// Walks every `let` in a body (nested blocks included, closures and
/// nested items excluded).
fn collect_lets<'a>(b: &'a Block, f: &mut LetVisitor<'a>) {
    for stmt in &b.stmts {
        match stmt {
            Stmt::Let {
                name: Some(n),
                ty,
                init,
                else_block,
                ..
            } => {
                f(n, ty.as_deref(), init.as_ref());
                if let Some(init) = init {
                    walk_expr_blocks(init, &mut |blk| collect_lets(blk, f));
                }
                if let Some(eb) = else_block {
                    collect_lets(eb, f);
                }
            }
            Stmt::Let { init, .. } => {
                if let Some(init) = init {
                    walk_expr_blocks(init, &mut |blk| collect_lets(blk, f));
                }
            }
            Stmt::Expr { expr, .. } => walk_expr_blocks(expr, &mut |blk| collect_lets(blk, f)),
            Stmt::Item(_) => {}
        }
    }
}

/// Visits every nested non-closure block of `e`.
fn walk_expr_blocks<'a>(e: &'a Expr, f: &mut dyn FnMut(&'a Block)) {
    match e {
        Expr::Block(b) => f(b),
        Expr::Control { parts, .. } => {
            for p in parts {
                walk_expr_blocks(p, f);
            }
        }
        Expr::Call { callee, args, .. } => {
            walk_expr_blocks(callee, f);
            for a in args {
                walk_expr_blocks(a, f);
            }
        }
        Expr::MethodCall { recv, args, .. } => {
            walk_expr_blocks(recv, f);
            for a in args {
                walk_expr_blocks(a, f);
            }
        }
        Expr::Binary { lhs, rhs, .. } => {
            walk_expr_blocks(lhs, f);
            walk_expr_blocks(rhs, f);
        }
        Expr::Unary { expr, .. } | Expr::Cast { expr, .. } | Expr::Try { expr, .. } => {
            walk_expr_blocks(expr, f)
        }
        _ => {}
    }
}

/// The receiver's base type name, when determinable.  Method chains are
/// not followed — a chain's intermediate type would need return-type
/// inference, so the receiver stays unresolved (no edge).
fn recv_type(
    e: &Expr,
    owner: Option<&str>,
    env: &BTreeMap<String, Option<String>>,
    ws: &Workspace,
) -> Option<String> {
    match e {
        Expr::Path { segs, .. } if segs.len() == 1 => {
            if segs[0] == "self" {
                owner.map(str::to_string)
            } else {
                env.get(&segs[0]).cloned().flatten()
            }
        }
        Expr::Field { base, name, .. } => {
            let base_ty = recv_type(base, owner, env, ws)?;
            ws.field_type_on(&base_ty, name).map(|t| base_type_name(&t))
        }
        Expr::Unary { expr, .. } | Expr::Try { expr, .. } => recv_type(expr, owner, env, ws),
        Expr::Cast { ty, .. } => Some(base_type_name(ty)),
        Expr::Group { items, .. } if items.len() == 1 => recv_type(&items[0], owner, env, ws),
        Expr::StructLit { path, .. } => Some(base_type_name(path)),
        _ => None,
    }
}

/// Walks every expression in a body, flagging closure context.
pub(crate) fn walk_body<'a>(b: &'a Block, in_closure: bool, f: &mut dyn FnMut(&'a Expr, bool)) {
    for stmt in &b.stmts {
        match stmt {
            Stmt::Let {
                init, else_block, ..
            } => {
                if let Some(e) = init {
                    walk_expr(e, in_closure, f);
                }
                if let Some(eb) = else_block {
                    walk_body(eb, in_closure, f);
                }
            }
            Stmt::Expr { expr, .. } => walk_expr(expr, in_closure, f),
            Stmt::Item(_) => {}
        }
    }
}

pub(crate) fn walk_expr<'a>(e: &'a Expr, in_cl: bool, f: &mut dyn FnMut(&'a Expr, bool)) {
    f(e, in_cl);
    match e {
        Expr::Call { callee, args, .. } => {
            walk_expr(callee, in_cl, f);
            for a in args {
                walk_expr(a, in_cl, f);
            }
        }
        Expr::MethodCall { recv, args, .. } => {
            walk_expr(recv, in_cl, f);
            for a in args {
                walk_expr(a, in_cl, f);
            }
        }
        Expr::Field { base, .. } => walk_expr(base, in_cl, f),
        Expr::Index { base, index, .. } => {
            walk_expr(base, in_cl, f);
            walk_expr(index, in_cl, f);
        }
        Expr::Unary { expr, .. } | Expr::Cast { expr, .. } | Expr::Try { expr, .. } => {
            walk_expr(expr, in_cl, f)
        }
        Expr::Binary { lhs, rhs, .. } => {
            walk_expr(lhs, in_cl, f);
            walk_expr(rhs, in_cl, f);
        }
        Expr::Group { items, .. } => {
            for i in items {
                walk_expr(i, in_cl, f);
            }
        }
        Expr::StructLit { fields, .. } => {
            for (_, v) in fields {
                walk_expr(v, in_cl, f);
            }
        }
        Expr::Jump { value, .. } => {
            if let Some(v) = value {
                walk_expr(v, in_cl, f);
            }
        }
        Expr::Block(b) => walk_body(b, in_cl, f),
        Expr::Control { parts, .. } => {
            for p in parts {
                walk_expr(p, in_cl, f);
            }
        }
        Expr::Closure { body, .. } => walk_expr(body, true, f),
        Expr::Path { .. } | Expr::Lit { .. } | Expr::Macro { .. } | Expr::Opaque { .. } => {}
    }
}

/// Iterative Tarjan SCC.  Emission order is reverse topological: a
/// component is completed only after everything it reaches, so callees
/// come out before their callers.
fn tarjan(edges: &[Vec<Edge>]) -> Vec<Vec<usize>> {
    const UNSET: u32 = u32::MAX;
    let n = edges.len();
    let mut index = vec![UNSET; n];
    let mut low = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next = 0u32;
    let mut sccs: Vec<Vec<usize>> = Vec::new();
    // (node, next-edge-to-visit) call frames.
    let mut frames: Vec<(usize, usize)> = Vec::new();

    for root in 0..n {
        if index[root] != UNSET {
            continue;
        }
        index[root] = next;
        low[root] = next;
        next += 1;
        stack.push(root);
        on_stack[root] = true;
        frames.push((root, 0));
        while let Some(&mut (v, ref mut pi)) = frames.last_mut() {
            if *pi < edges[v].len() {
                let w = edges[v][*pi].to;
                *pi += 1;
                if index[w] == UNSET {
                    index[w] = next;
                    low[w] = next;
                    next += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    frames.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                frames.pop();
                if let Some(&(p, _)) = frames.last() {
                    low[p] = low[p].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack");
                        on_stack[w] = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    comp.sort_unstable();
                    sccs.push(comp);
                }
            }
        }
    }
    sccs
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

    fn graph(files: &[ParsedFile]) -> (CallGraph<'_>, Workspace) {
        let ws = Workspace::build(files);
        let cg = CallGraph::build(files, &ws);
        (cg, ws)
    }

    fn idx(cg: &CallGraph, name: &str) -> usize {
        (0..cg.fns.len())
            .find(|&i| cg.fns[i].name == name)
            .unwrap_or_else(|| panic!("no fn {name}"))
    }

    fn has_edge(cg: &CallGraph, from: &str, to: &str) -> bool {
        let (f, t) = (idx(cg, from), idx(cg, to));
        cg.edges[f].iter().any(|e| e.to == t)
    }

    #[test]
    fn free_fn_and_qualified_calls_resolve() {
        let files = [pf(
            "a.rs",
            "fn helper() {}\n\
             mod util { }\n\
             fn caller() { helper(); crate::helper(); }\n",
        )];
        let (cg, _) = graph(&files);
        let edges = &cg.edges[idx(&cg, "caller")];
        assert_eq!(edges.len(), 2, "{edges:?}");
        assert!(has_edge(&cg, "caller", "helper"));
    }

    #[test]
    fn method_calls_resolve_through_receiver_types() {
        let files = [pf(
            "a.rs",
            "struct Pool { size: u32 }\n\
             impl Pool { fn run(&self) { self.step(); } fn step(&self) {} }\n\
             fn drive(p: Pool) { p.run(); }\n\
             fn drive2(x: &mut Pool) { x.run(); }\n",
        )];
        let (cg, _) = graph(&files);
        assert!(has_edge(&cg, "run", "step"), "self receiver");
        assert!(has_edge(&cg, "drive", "run"), "typed param");
        assert!(has_edge(&cg, "drive2", "run"), "reference param");
    }

    #[test]
    fn trait_impl_methods_resolve_by_receiver_type() {
        let files = [pf(
            "a.rs",
            "struct A; struct B;\n\
             trait Runner { fn go(&self); }\n\
             impl Runner for A { fn go(&self) {} }\n\
             impl Runner for B { fn go(&self) {} }\n\
             fn f(a: A) { a.go(); }\n",
        )];
        let (cg, _) = graph(&files);
        let a_go = (0..cg.fns.len())
            .find(|&i| cg.fns[i].name == "go" && cg.fns[i].owner.as_deref() == Some("A"))
            .unwrap();
        let edges = &cg.edges[idx(&cg, "f")];
        assert_eq!(edges.len(), 1, "{edges:?}");
        assert_eq!(edges[0].to, a_go, "resolved to A's impl, not B's");
    }

    #[test]
    fn ambiguity_means_no_edge() {
        // Two free fns named `dup` in different files: a call cannot
        // pick one, so it resolves to neither.
        let files = [
            pf("a.rs", "pub fn dup() {}\n"),
            pf("b.rs", "pub fn dup() {}\nfn caller() { dup(); }\n"),
        ];
        let (cg, _) = graph(&files);
        assert!(cg.edges[idx(&cg, "caller")].is_empty());

        // Unknown receiver type: no edge either.
        let files = [pf(
            "a.rs",
            "struct P; impl P { fn m(&self) {} }\n\
             fn f(x: &Q) { x.m(); }\n",
        )];
        let (cg, _) = graph(&files);
        assert!(cg.edges[idx(&cg, "f")].is_empty());
    }

    #[test]
    fn recursion_forms_an_scc_and_order_is_callees_first() {
        let files = [pf(
            "a.rs",
            "fn leaf() {}\n\
             fn ping() { pong(); leaf(); }\n\
             fn pong() { ping(); }\n\
             fn top() { ping(); }\n",
        )];
        let (cg, _) = graph(&files);
        let (leaf, ping, pong, top) = (
            idx(&cg, "leaf"),
            idx(&cg, "ping"),
            idx(&cg, "pong"),
            idx(&cg, "top"),
        );
        let cycle = cg
            .sccs
            .iter()
            .position(|c| c.contains(&ping))
            .expect("ping scc");
        assert!(cg.sccs[cycle].contains(&pong), "ping/pong share an SCC");
        let leaf_pos = cg.sccs.iter().position(|c| c.contains(&leaf)).unwrap();
        let top_pos = cg.sccs.iter().position(|c| c.contains(&top)).unwrap();
        assert!(leaf_pos < cycle, "callee SCC first");
        assert!(cycle < top_pos, "caller SCC last");
    }

    #[test]
    fn closure_edges_are_flagged() {
        let files = [pf(
            "a.rs",
            "fn work() {}\n\
             fn spawn_it() { go(move || { work(); }); }\n",
        )];
        let (cg, _) = graph(&files);
        let edges = &cg.edges[idx(&cg, "spawn_it")];
        assert_eq!(edges.len(), 1, "{edges:?}");
        assert!(edges[0].in_closure);
    }

    #[test]
    fn site_lookup_finds_the_callee() {
        let files = [pf("a.rs", "fn callee() {}\nfn caller() { callee(); }\n")];
        let (cg, _) = graph(&files);
        assert_eq!(cg.callee_at("a.rs", 2, 15), Some(idx(&cg, "callee")));
        assert_eq!(cg.callee_at("a.rs", 999, 1), None);
    }
}
