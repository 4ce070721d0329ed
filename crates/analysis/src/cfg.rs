//! Intraprocedural control-flow graphs over the tolerant parse tree.
//!
//! [`Cfg::build`] lowers one function body into a graph of nodes, each
//! holding a straight-line sequence of [`Step`]s.  Branches (`if`,
//! `match`, `let .. else`), loops (`loop` / `while` / `for`, with real
//! back-edges), and jumps (`return` / `break` / `continue`, including
//! labeled targets) become edges; lexical scope ends become explicit
//! [`StepKind::ScopeEnd`] kill points so dataflow clients see where
//! `let`-bound values (lock guards in particular) die.
//!
//! The lowering inherits the parser's tolerance contract: anything it
//! cannot model — closure bodies, macro interiors, control flow nested
//! inside larger expressions, unresolvable labels — is *dropped from
//! the graph*, never guessed at.  Downstream analyses therefore degrade
//! to false negatives, matching the engine-wide silence-on-ambiguity
//! rule.

use crate::parse::{Block, Expr, Item, ItemKind, Stmt};

/// One atomic unit of a CFG node, in evaluation order.
#[derive(Debug)]
pub struct Step<'a> {
    /// Global ordinal, monotone in lowering order; indexes a dataflow
    /// problem's gen/kill tables.
    pub ord: u32,
    /// What this step does.
    pub kind: StepKind<'a>,
}

/// The payload of a [`Step`].
#[derive(Debug)]
pub enum StepKind<'a> {
    /// A `let` binding: its initializer is evaluated here (walk it with
    /// [`walk_flat`]) and the binding becomes live after this step.
    Let(&'a Stmt),
    /// An expression evaluated for effect (statement, jump value).
    Eval(&'a Expr),
    /// A branch condition / scrutinee / loop iterable, evaluated just
    /// before the branch edges leave this node.  `kw` is the owning
    /// control keyword (`"if"`, `"while"`, `"for"`, `"match"`).
    Cond {
        /// The condition/scrutinee/iterable expression.
        expr: &'a Expr,
        /// The owning control keyword.
        kw: &'a str,
    },
    /// The named `let` bindings of a block going out of scope.
    ScopeEnd(Vec<String>),
}

/// One CFG node: a straight-line step sequence plus successor edges.
#[derive(Debug, Default)]
pub struct Node<'a> {
    /// Steps in evaluation order.
    pub steps: Vec<Step<'a>>,
    /// Successor node ids.
    pub succs: Vec<usize>,
}

/// An intraprocedural control-flow graph.
#[derive(Debug)]
pub struct Cfg<'a> {
    /// The nodes; `entry` and `exit` index into this.
    pub nodes: Vec<Node<'a>>,
    /// Entry node (holds the first steps of the body).
    pub entry: usize,
    /// Synthetic exit node; `return` and the body's fall-through edge
    /// here.
    pub exit: usize,
    /// Total number of step ordinals handed out.
    pub n_ords: u32,
}

impl<'a> Cfg<'a> {
    /// Lowers one function body.
    pub fn build(body: &'a Block) -> Cfg<'a> {
        let mut b = Builder {
            nodes: vec![Node::default(), Node::default()],
            loop_stack: Vec::new(),
            next_ord: 0,
        };
        let entry = 0usize;
        let exit = 1usize;
        if let Some(tail) = b.lower_block(body, entry, exit) {
            b.edge(tail, exit);
        }
        Cfg {
            nodes: b.nodes,
            entry,
            exit,
            n_ords: b.next_ord,
        }
    }

    /// Steps of every node, in ordinal order, with their node ids.
    pub fn steps_in_order(&self) -> Vec<(usize, &Step<'a>)> {
        let mut v: Vec<(usize, &Step<'a>)> = self
            .nodes
            .iter()
            .enumerate()
            .flat_map(|(n, node)| node.steps.iter().map(move |s| (n, s)))
            .collect();
        v.sort_by_key(|(_, s)| s.ord);
        v
    }
}

/// Calls `f` for every function body in `item` (including nested fns),
/// with its CFG.
pub fn for_each_fn_cfg<'a>(item: &'a Item, f: &mut dyn FnMut(&'a Item, &Cfg<'a>)) {
    if item.kind == ItemKind::Fn {
        if let Some(body) = &item.body {
            let cfg = Cfg::build(body);
            f(item, &cfg);
        }
    }
    for child in &item.items {
        for_each_fn_cfg(child, f);
    }
}

/// Walks `e` and its subexpressions in evaluation order, *without*
/// descending into control-flow parts, closure bodies, block statements
/// or jump values — those are lowered into the CFG separately (or
/// deliberately invisible).  This is the walk dataflow clients use on a
/// step's expression.
pub fn walk_flat<'a>(e: &'a Expr, f: &mut dyn FnMut(&'a Expr)) {
    f(e);
    match e {
        Expr::Call { callee, args, .. } => {
            walk_flat(callee, f);
            for a in args {
                walk_flat(a, f);
            }
        }
        Expr::MethodCall { recv, args, .. } => {
            walk_flat(recv, f);
            for a in args {
                walk_flat(a, f);
            }
        }
        Expr::Field { base, .. } => walk_flat(base, f),
        Expr::Index { base, index, .. } => {
            walk_flat(base, f);
            walk_flat(index, f);
        }
        Expr::Unary { expr, .. } | Expr::Cast { expr, .. } | Expr::Try { expr, .. } => {
            walk_flat(expr, f)
        }
        Expr::Binary { lhs, rhs, .. } => {
            walk_flat(lhs, f);
            walk_flat(rhs, f);
        }
        Expr::Group { items, .. } => {
            for i in items {
                walk_flat(i, f);
            }
        }
        Expr::StructLit { fields, .. } => {
            for (_, e) in fields {
                walk_flat(e, f);
            }
        }
        // Lowered separately or deliberately opaque.
        Expr::Block(_)
        | Expr::Control { .. }
        | Expr::Closure { .. }
        | Expr::Jump { .. }
        | Expr::Path { .. }
        | Expr::Lit { .. }
        | Expr::Macro { .. }
        | Expr::Opaque { .. } => {}
    }
}

struct LoopFrame {
    head: usize,
    exit: usize,
    label: Option<String>,
}

struct Builder<'a> {
    nodes: Vec<Node<'a>>,
    loop_stack: Vec<LoopFrame>,
    next_ord: u32,
}

impl<'a> Builder<'a> {
    fn new_node(&mut self) -> usize {
        self.nodes.push(Node::default());
        self.nodes.len() - 1
    }

    fn edge(&mut self, from: usize, to: usize) {
        if !self.nodes[from].succs.contains(&to) {
            self.nodes[from].succs.push(to);
        }
    }

    fn push(&mut self, node: usize, kind: StepKind<'a>) {
        let ord = self.next_ord;
        self.next_ord += 1;
        self.nodes[node].steps.push(Step { ord, kind });
    }

    /// Lowers a block starting in `cur`; returns the node control falls
    /// out of, or `None` if every path diverged.  `fn_exit` is the
    /// function's exit node (`return` target).
    fn lower_block(&mut self, block: &'a Block, cur: usize, fn_exit: usize) -> Option<usize> {
        let mut cur = Some(cur);
        let mut bound: Vec<String> = Vec::new();
        for stmt in &block.stmts {
            let Some(c) = cur else { break };
            cur = self.lower_stmt(stmt, c, fn_exit, &mut bound);
        }
        if let Some(c) = cur {
            if !bound.is_empty() {
                self.push(c, StepKind::ScopeEnd(bound));
            }
        }
        cur
    }

    fn lower_stmt(
        &mut self,
        stmt: &'a Stmt,
        cur: usize,
        fn_exit: usize,
        bound: &mut Vec<String>,
    ) -> Option<usize> {
        match stmt {
            Stmt::Let {
                name,
                init,
                else_block,
                ..
            } => {
                // A top-level control-flow initializer (`let x = if ..`,
                // `let x = match ..`) is lowered for region shape; the
                // binding itself happens at the join.
                let mut cur = cur;
                if let Some(init) = init {
                    if matches!(init, Expr::Control { .. } | Expr::Block(_)) {
                        cur = self.lower_value_expr(init, cur, fn_exit)?;
                    }
                }
                if let Some(eb) = else_block {
                    // `let .. else { .. }`: the binding exists only on
                    // the fall-through path; the else block diverges.
                    let else_entry = self.new_node();
                    let cont = self.new_node();
                    self.edge(cur, else_entry);
                    self.edge(cur, cont);
                    if let Some(tail) = self.lower_block(eb, else_entry, fn_exit) {
                        // A non-diverging let-else block is not real
                        // Rust; tolerate it with a join edge.
                        self.edge(tail, cont);
                    }
                    self.push(cont, StepKind::Let(stmt));
                    if let Some(n) = name {
                        bound.push(n.clone());
                    }
                    Some(cont)
                } else {
                    self.push(cur, StepKind::Let(stmt));
                    if let Some(n) = name {
                        bound.push(n.clone());
                    }
                    Some(cur)
                }
            }
            Stmt::Expr { expr, .. } => self.lower_value_expr(expr, cur, fn_exit),
            // Nested items get their own CFGs; invisible here.
            Stmt::Item(_) => Some(cur),
        }
    }

    /// Lowers an expression in statement/value position.  Control flow
    /// becomes graph structure; everything else is one `Eval` step.
    fn lower_value_expr(&mut self, e: &'a Expr, cur: usize, fn_exit: usize) -> Option<usize> {
        match e {
            Expr::Block(b) => {
                let entry = self.new_node();
                self.edge(cur, entry);
                self.lower_block(b, entry, fn_exit)
            }
            Expr::Control {
                kw, parts, label, ..
            } => self.lower_control(kw, parts, label.as_deref(), cur, fn_exit),
            Expr::Jump {
                kw, value, label, ..
            } => {
                if let Some(v) = value {
                    self.push(cur, StepKind::Eval(v));
                }
                match kw.as_str() {
                    "return" => {
                        self.edge(cur, fn_exit);
                    }
                    "break" => {
                        let target = self.resolve_frame(label.as_deref()).map(|f| f.exit);
                        // An unresolvable label degrades to "leaves the
                        // function region entirely".
                        self.edge(cur, target.unwrap_or(fn_exit));
                    }
                    "continue" => {
                        let target = self.resolve_frame(label.as_deref()).map(|f| f.head);
                        self.edge(cur, target.unwrap_or(fn_exit));
                    }
                    _ => {}
                }
                None
            }
            _ => {
                self.push(cur, StepKind::Eval(e));
                Some(cur)
            }
        }
    }

    fn resolve_frame(&self, label: Option<&str>) -> Option<&LoopFrame> {
        match label {
            None => self.loop_stack.last(),
            Some(l) => self
                .loop_stack
                .iter()
                .rev()
                .find(|f| f.label.as_deref() == Some(l)),
        }
    }

    fn lower_control(
        &mut self,
        kw: &'a str,
        parts: &'a [Expr],
        label: Option<&str>,
        cur: usize,
        fn_exit: usize,
    ) -> Option<usize> {
        match kw {
            "if" => self.lower_if(parts, cur, fn_exit),
            "match" => {
                let mut it = parts.iter();
                let Some(scrut) = it.next() else {
                    return Some(cur);
                };
                self.push(
                    cur,
                    StepKind::Cond {
                        expr: scrut,
                        kw: "match",
                    },
                );
                let join = self.new_node();
                let mut any_arm = false;
                let mut any_falls = false;
                for arm in it {
                    any_arm = true;
                    let a0 = self.new_node();
                    self.edge(cur, a0);
                    if let Some(tail) = self.lower_value_expr(arm, a0, fn_exit) {
                        self.edge(tail, join);
                        any_falls = true;
                    }
                }
                if !any_arm {
                    // Arm-less (unparsed) match: fall through directly.
                    self.edge(cur, join);
                    any_falls = true;
                }
                if any_falls {
                    Some(join)
                } else {
                    None
                }
            }
            "while" | "for" | "loop" => self.lower_loop(kw, parts, label, cur, fn_exit),
            // `unsafe { .. }` and anything else block-like: inline.
            _ => {
                let mut cur = Some(cur);
                for p in parts {
                    let Some(c) = cur else { break };
                    cur = self.lower_value_expr(p, c, fn_exit);
                }
                cur
            }
        }
    }

    /// `if` / `else if` chains: parts are `[cond, then, else?]` where
    /// the else part is a block or a nested `if` control.
    fn lower_if(&mut self, parts: &'a [Expr], cur: usize, fn_exit: usize) -> Option<usize> {
        let mut it = parts.iter();
        let Some(cond) = it.next() else {
            return Some(cur);
        };
        self.push(
            cur,
            StepKind::Cond {
                expr: cond,
                kw: "if",
            },
        );
        let then_part = it.next();
        let else_part = it.next();
        let join = self.new_node();
        let mut any_falls = false;

        match then_part {
            Some(t) => {
                let t0 = self.new_node();
                self.edge(cur, t0);
                if let Some(tail) = self.lower_value_expr(t, t0, fn_exit) {
                    self.edge(tail, join);
                    any_falls = true;
                }
            }
            None => {
                self.edge(cur, join);
                any_falls = true;
            }
        }
        match else_part {
            Some(el) => {
                let e0 = self.new_node();
                self.edge(cur, e0);
                if let Some(tail) = self.lower_value_expr(el, e0, fn_exit) {
                    self.edge(tail, join);
                    any_falls = true;
                }
            }
            None => {
                // No else: the condition may be false.
                self.edge(cur, join);
                any_falls = true;
            }
        }
        if any_falls {
            Some(join)
        } else {
            None
        }
    }

    fn lower_loop(
        &mut self,
        kw: &'a str,
        parts: &'a [Expr],
        label: Option<&str>,
        cur: usize,
        fn_exit: usize,
    ) -> Option<usize> {
        let head = self.new_node();
        let exit = self.new_node();
        self.edge(cur, head);

        // Condition / iterable evaluates at the head on every trip.
        let (cond, body) = match kw {
            "loop" => (None, parts.first()),
            _ => match parts.len() {
                0 => (None, None),
                1 => match parts[0] {
                    // A lone block part is the body (condition was
                    // unparseable); anything else is a body-less cond.
                    Expr::Block(_) => (None, parts.first()),
                    _ => (parts.first(), None),
                },
                _ => (parts.first(), parts.get(1)),
            },
        };
        if let Some(c) = cond {
            self.push(head, StepKind::Cond { expr: c, kw });
        }
        // `while`/`for` may skip the body entirely; `loop` exits only
        // via `break`.
        if kw != "loop" {
            self.edge(head, exit);
        }

        self.loop_stack.push(LoopFrame {
            head,
            exit,
            label: label.map(str::to_string),
        });

        let tail = match body {
            Some(b) => {
                let b0 = self.new_node();
                self.edge(head, b0);
                self.lower_value_expr(b, b0, fn_exit)
            }
            None => Some(head),
        };
        if let Some(t) = tail {
            self.edge(t, head);
        }
        self.loop_stack.pop();

        // A `loop` whose exit collected no `break` edge diverges.
        let reachable = kw != "loop"
            || self
                .nodes
                .iter()
                .enumerate()
                .any(|(i, n)| i != exit && n.succs.contains(&exit));
        if reachable {
            Some(exit)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{mask, tokenize};
    use crate::parse::parse_file;

    /// Collects the CFG of the first fn in `src` and applies `f`.
    fn first_cfg<R>(src: &str, f: impl Fn(&Cfg) -> R) -> R {
        let file = parse_file(&tokenize(&mask(src).text));
        let mut out = None;
        for item in &file.items {
            for_each_fn_cfg(item, &mut |_, cfg| {
                if out.is_none() {
                    out = Some(f(cfg));
                }
            });
        }
        out.expect("no fn body")
    }

    #[test]
    fn straight_line_is_one_node() {
        first_cfg("fn f() { a(); b(); c(); }", |cfg| {
            assert_eq!(cfg.nodes[cfg.entry].steps.len(), 3);
            assert_eq!(cfg.nodes[cfg.entry].succs, vec![cfg.exit]);
        });
    }

    #[test]
    fn if_else_makes_a_diamond() {
        first_cfg(
            "fn f(c: bool) { pre(); if c { a(); } else { b(); } post(); }",
            |cfg| {
                // entry: pre + cond, two branch nodes, one join holding post.
                let entry = &cfg.nodes[cfg.entry];
                assert_eq!(entry.succs.len(), 2, "two branch edges");
                assert!(entry
                    .steps
                    .iter()
                    .any(|s| matches!(s.kind, StepKind::Cond { kw: "if", .. })));
                // Both branches reach a common successor.
                let j0 = final_join(cfg, entry.succs[0]);
                let j1 = final_join(cfg, entry.succs[1]);
                assert_eq!(j0, j1, "branches join");
            },
        );

        fn final_join(cfg: &Cfg, mut n: usize) -> usize {
            // Follow unique successors to the join.
            while cfg.nodes[n].succs.len() == 1 && cfg.nodes[n].steps.is_empty() {
                n = cfg.nodes[n].succs[0];
            }
            while cfg.nodes[n].succs.len() == 1 {
                let nx = cfg.nodes[n].succs[0];
                if nx == cfg.exit {
                    return n;
                }
                n = nx;
            }
            n
        }
    }

    #[test]
    fn while_loop_has_back_edge_and_region_ords() {
        first_cfg(
            "fn f(n: u32) { let g = pre(); while n > 0 { step(); } post(); }",
            |cfg| {
                let steps = cfg.steps_in_order();
                let find = |want: &dyn Fn(&StepKind) -> bool| {
                    let (node, step) = steps.iter().find(|(_, s)| want(&s.kind)).expect("step");
                    (*node, step.ord)
                };
                let call = |name: &'static str| {
                    move |k: &StepKind| {
                        matches!(k, StepKind::Eval(Expr::Call { callee, .. })
                            if matches!(&**callee, Expr::Path { segs, .. } if segs[0] == name))
                    }
                };
                let (head, head_ord) = find(&|k| matches!(k, StepKind::Cond { kw: "while", .. }));
                let (body, body_ord) = find(&call("step"));
                assert!(cfg.nodes[body].succs.contains(&head), "back edge lowered");
                assert_eq!(cfg.nodes[head].succs.len(), 2, "head enters body or exits");
                // Ords follow lowering order, so the loop's steps form one
                // region between the pre-loop binding and the exit.
                let (_, let_ord) = find(&|k| matches!(k, StepKind::Let(_)));
                let (_, post_ord) = find(&call("post"));
                assert!(let_ord < head_ord && head_ord < body_ord && body_ord < post_ord);
            },
        );
    }

    #[test]
    fn return_and_break_edges() {
        first_cfg(
            "fn f(c: bool) { loop { if c { break; } work(); } tail(); }",
            |cfg| {
                // The loop must be exited by the break (tail is reachable):
                // some node outside the loop-exit chain has an edge to a
                // node holding the Eval of `tail()`.
                let tail_node = cfg
                    .steps_in_order()
                    .iter()
                    .find_map(|(n, s)| match s.kind {
                        StepKind::Eval(e) => {
                            let mut hit = false;
                            walk_flat(e, &mut |x| {
                                if let Expr::Call { callee, .. } = x {
                                    if let Expr::Path { segs, .. } = &**callee {
                                        hit |= segs.last().is_some_and(|s| s == "tail");
                                    }
                                }
                            });
                            hit.then_some(*n)
                        }
                        _ => None,
                    })
                    .expect("tail() lowered");
                assert!(reachable(cfg, cfg.entry, tail_node), "break exits the loop");
            },
        );

        fn reachable(cfg: &Cfg, from: usize, to: usize) -> bool {
            let mut seen = vec![false; cfg.nodes.len()];
            let mut stack = vec![from];
            while let Some(n) = stack.pop() {
                if n == to {
                    return true;
                }
                if std::mem::replace(&mut seen[n], true) {
                    continue;
                }
                stack.extend(cfg.nodes[n].succs.iter().copied());
            }
            false
        }
    }

    #[test]
    fn labeled_break_targets_outer_loop() {
        first_cfg(
            "fn f() { 'outer: loop { loop { break 'outer; } } done(); }",
            |cfg| {
                // done() must be reachable (the labeled break leaves both
                // loops); an unlabeled break would leave only the inner.
                let done = cfg.steps_in_order().iter().any(|(_, s)| {
                    matches!(s.kind, StepKind::Eval(e) if {
                        let mut hit = false;
                        walk_flat(e, &mut |x| {
                            if let Expr::Call { callee, .. } = x {
                                if let Expr::Path { segs, .. } = &**callee {
                                    hit |= segs.last().is_some_and(|s| s == "done");
                                }
                            }
                        });
                        hit
                    })
                });
                assert!(done, "code after the labeled loop is lowered");
            },
        );
    }

    #[test]
    fn let_else_diverging_block_is_a_branch() {
        first_cfg(
            "fn f(x: Option<u32>) -> u32 { let Some(v) = x else { return 0; }; use_it(v); v }",
            |cfg| {
                // The entry must branch: one path to the else block (which
                // reaches exit via return), one to the binding node.
                assert!(cfg.nodes[cfg.entry].succs.len() >= 2);
                let has_let = cfg
                    .steps_in_order()
                    .iter()
                    .any(|(_, s)| matches!(s.kind, StepKind::Let(_)));
                assert!(has_let);
            },
        );
    }

    #[test]
    fn scope_end_kills_block_locals() {
        first_cfg(
            "fn f() { { let g = acquire(); work(); } after(); }",
            |cfg| {
                let ends: Vec<&Vec<String>> = cfg
                    .steps_in_order()
                    .iter()
                    .filter_map(|(_, s)| match &s.kind {
                        StepKind::ScopeEnd(names) => Some(names),
                        _ => None,
                    })
                    .collect();
                assert!(
                    ends.iter().any(|ns| ns.contains(&"g".to_string())),
                    "inner scope end records g: {ends:?}"
                );
            },
        );
    }
}
