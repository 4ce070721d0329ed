//! The workspace model: a cross-crate index built from every parsed
//! file *before* the rules run.
//!
//! The call graph needs answers a single file cannot give: what type
//! does `load_state()` return, what type is the field `shards`?  This
//! module walks all parsed files once and builds those indexes, and
//! names the lock an acquisition takes ([`acquisition_of`]).
//!
//! Everything here is deliberately *conservative*: a name is only
//! indexed when its meaning is unambiguous across the workspace (one
//! return type, one field type).  Consumers treat "not in the index" as
//! "unknown — stay silent", so ambiguity degrades to false negatives,
//! never false positives.

use crate::lexer::Token;
use crate::parse::{Expr, File, Item, ItemKind};
use std::collections::{BTreeMap, BTreeSet};

/// One file's parse products, as handed to [`Workspace::build`].
pub struct ParsedFile {
    /// Workspace-relative path (`/`-separated).
    pub rel: String,
    /// The masked token stream.
    pub tokens: Vec<Token>,
    /// The parse tree.
    pub ast: File,
}

/// The cross-crate index.
#[derive(Debug, Default)]
pub struct Workspace {
    /// Function name → return type, only when every workspace function
    /// of that name agrees (`()` for no return type).
    fn_returns: BTreeMap<String, Option<String>>,
    /// Struct field name → type, only when unambiguous workspace-wide.
    field_types: BTreeMap<String, Option<String>>,
    /// Struct name → its field list, only when exactly one struct of
    /// that name exists workspace-wide (`None` marks a name clash).
    struct_fields: BTreeMap<String, Option<Vec<crate::parse::FieldDef>>>,
}

impl Workspace {
    /// Builds the index from parsed files.
    pub fn build(files: &[ParsedFile]) -> Workspace {
        let mut ws = Workspace::default();
        let mut ret_sets: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for pf in files {
            for item in &pf.ast.items {
                ws.index_item(item, &mut ret_sets);
            }
        }
        // Collapse ambiguity: a name means something only if every
        // definition agrees.
        for (name, rets) in &ret_sets {
            if rets.len() == 1 {
                let r = rets.iter().next().map(String::as_str).unwrap_or("()");
                ws.fn_returns
                    .insert(name.clone(), Some(r.to_string()).filter(|r| r != "()"));
            } else {
                ws.fn_returns.insert(name.clone(), None);
            }
        }
        ws
    }

    fn index_item(&mut self, item: &Item, ret_sets: &mut BTreeMap<String, BTreeSet<String>>) {
        match item.kind {
            ItemKind::Fn => {
                if let Some(name) = &item.name {
                    ret_sets
                        .entry(name.clone())
                        .or_default()
                        .insert(normalize_ty(item.ret.as_deref().unwrap_or("()")));
                }
            }
            ItemKind::Struct => {
                if let Some(name) = &item.name {
                    match self.struct_fields.get(name) {
                        None => {
                            self.struct_fields
                                .insert(name.clone(), Some(item.fields.clone()));
                        }
                        Some(Some(prev)) if *prev != item.fields => {
                            self.struct_fields.insert(name.clone(), None);
                        }
                        _ => {}
                    }
                }
                for f in &item.fields {
                    let ty = normalize_ty(&f.ty);
                    match self.field_types.get(&f.name) {
                        None => {
                            self.field_types.insert(f.name.clone(), Some(ty));
                        }
                        Some(Some(prev)) if *prev != ty => {
                            self.field_types.insert(f.name.clone(), None);
                        }
                        _ => {}
                    }
                }
            }
            _ => {}
        }
        for child in &item.items {
            self.index_item(child, ret_sets);
        }
    }

    /// Return type of the workspace function `name`, when unambiguous.
    pub fn fn_ret(&self, name: &str) -> Option<&str> {
        self.fn_returns.get(name)?.as_deref()
    }

    /// Type of the struct field `name`, when unambiguous.
    pub fn field_type(&self, name: &str) -> Option<&str> {
        self.field_types.get(name)?.as_deref()
    }

    /// Fields of the struct `name`, when exactly one struct of that
    /// name exists workspace-wide.
    pub fn fields_of(&self, name: &str) -> Option<&[crate::parse::FieldDef]> {
        self.struct_fields.get(name)?.as_deref()
    }

    /// Type of field `field` on struct `owner`, preferring the owner's
    /// own declaration and falling back to the global unambiguous field
    /// index.
    pub fn field_type_on(&self, owner: &str, field: &str) -> Option<String> {
        if let Some(fields) = self.fields_of(owner) {
            if let Some(f) = fields.iter().find(|f| f.name == field) {
                return Some(normalize_ty(&f.ty));
            }
        }
        self.field_type(field).map(str::to_string)
    }
}

// ----- lock acquisitions ---------------------------------------------

/// A lock acquisition found in an expression.
pub(crate) struct Acquisition {
    pub(crate) key: String,
    pub(crate) line: u32,
    pub(crate) col: u32,
}

/// Recognizes a lock acquisition and names the lock: `recv.lock()` keys
/// on the receiver's last segment, `lock_foo(...)` helpers key on the
/// `foo` suffix.
pub(crate) fn acquisition_of(e: &Expr) -> Option<Acquisition> {
    match e {
        Expr::MethodCall {
            recv, name, span, ..
        } if name == "lock" => Some(Acquisition {
            key: receiver_key(recv),
            line: span.line,
            col: span.col,
        }),
        Expr::Call { callee, args, span } => {
            let Expr::Path { segs, .. } = callee.as_ref() else {
                return None;
            };
            let last = segs.last()?;
            let suffix = last.strip_prefix("lock_")?;
            let key = args
                .first()
                .map(receiver_key)
                .filter(|k| k != "?")
                .unwrap_or_else(|| suffix.to_string());
            Some(Acquisition {
                key,
                line: span.line,
                col: span.col,
            })
        }
        _ => None,
    }
}

/// Normalizes a lock receiver to its last identifier segment so
/// `self.daemon`, `&state.daemon` and `daemon` name the same lock.
pub(crate) fn receiver_key(e: &Expr) -> String {
    match e {
        Expr::Path { segs, .. } => segs
            .last()
            .filter(|s| *s != "self")
            .cloned()
            .unwrap_or_else(|| "self".to_string()),
        Expr::Field { name, .. } => name.clone(),
        Expr::Unary { expr, .. } | Expr::Try { expr, .. } | Expr::Cast { expr, .. } => {
            receiver_key(expr)
        }
        Expr::MethodCall { recv, name, .. } if name == "as_ref" || name == "clone" => {
            receiver_key(recv)
        }
        _ => "?".to_string(),
    }
}

/// Canonicalizes type text: strips references, `mut`, and whitespace so
/// `& mut Time` and `&mut Time` compare equal.
pub fn normalize_ty(ty: &str) -> String {
    let mut s = ty.trim();
    loop {
        let before = s;
        s = s.trim_start_matches('&').trim_start();
        if let Some(rest) = s.strip_prefix("mut ") {
            s = rest.trim_start();
        }
        if s == before {
            break;
        }
    }
    // Drop whitespace inside (join_tokens only inserts between idents,
    // e.g. `*const u8` — keep single spaces there).
    s.split_whitespace().collect::<Vec<_>>().join(" ")
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

    #[test]
    fn indexes_fields_and_returns() {
        let ws = Workspace::build(&[
            pf("a/src/time.rs", "pub fn hours(h: f64) -> Time { 0 }\n"),
            pf(
                "b/src/job.rs",
                "pub struct Job { pub submit: Time, pub nodes: u32 }\n\
                 pub fn load() -> Result<Job, String> { todo!() }\n",
            ),
        ]);
        assert_eq!(ws.fn_ret("hours"), Some("Time"));
        assert_eq!(ws.fn_ret("load"), Some("Result<Job,String>"));
        assert_eq!(ws.field_type("submit"), Some("Time"));
        assert_eq!(ws.field_type_on("Job", "nodes").as_deref(), Some("u32"));
    }

    #[test]
    fn ambiguous_names_drop_out_of_the_index() {
        let ws = Workspace::build(&[
            pf("a.rs", "pub fn get() -> u32 { 0 }\nstruct A { x: u32 }\n"),
            pf("b.rs", "pub fn get() -> u64 { 0 }\nstruct B { x: f64 }\n"),
        ]);
        assert_eq!(ws.fn_ret("get"), None);
        assert_eq!(ws.field_type("x"), None);
    }

    /// The nested-acquisition edges of one file: the lock keys come
    /// from [`acquisition_of`] and [`receiver_key`], the liveness from
    /// [`crate::flowrules::lock_edges`].
    fn edges_of(rel: &str, src: &str) -> Vec<crate::flowrules::LockEdge> {
        let files = [pf(rel, src)];
        let interp = crate::summaries::Interp::build(&files, &crate::LintConfig::default());
        crate::flowrules::lock_edges(&files, &interp)
    }

    #[test]
    fn nested_acquisitions_build_edges() {
        let edges = edges_of(
            "svc.rs",
            "fn f(a: M, b: M) {\n    let g1 = a.lock();\n    let g2 = b.lock();\n}\n",
        );
        assert_eq!(edges.len(), 1);
        assert_eq!(edges[0].outer, "a");
        assert_eq!(edges[0].inner, "b");
        assert_eq!(edges[0].line, 3);
    }

    #[test]
    fn guards_expire_at_block_end() {
        let edges = edges_of(
            "svc.rs",
            "fn f(a: M, b: M) {\n    { let g1 = a.lock(); }\n    let g2 = b.lock();\n}\n",
        );
        assert!(edges.is_empty(), "{:?}", edges);
    }

    #[test]
    fn lock_helper_functions_key_on_their_argument() {
        let edges = edges_of(
            "svc.rs",
            "fn f(m: M, n: M) {\n    let g = lock_daemon(&m);\n    let h = n.lock();\n}\n",
        );
        assert_eq!(edges.len(), 1);
        assert_eq!(edges[0].outer, "m");
        assert_eq!(edges[0].inner, "n");
    }

    #[test]
    fn receiver_keys_normalize_through_self() {
        let edges = edges_of(
                "svc.rs",
                "impl S { fn f(&self) {\n    let g = self.daemon.lock();\n    let h = self.jobs.lock();\n} }\n",
            );
        assert_eq!(edges.len(), 1);
        assert_eq!(edges[0].outer, "daemon");
        assert_eq!(edges[0].inner, "jobs");
    }

    #[test]
    fn an_acquisition_inside_a_callee_is_an_edge_at_the_call() {
        let edges = edges_of(
            "svc.rs",
            "struct S { a: M, b: M }\n\
             impl S {\n\
             fn f(&self) {\n    let g = self.a.lock();\n    self.take_b();\n}\n\
             fn take_b(&self) { let h = self.b.lock(); }\n\
             }\n",
        );
        assert_eq!(edges.len(), 1, "{edges:?}");
        assert_eq!(
            (edges[0].outer.as_str(), edges[0].inner.as_str()),
            ("a", "b")
        );
        assert_eq!(edges[0].line, 5, "reported at the call");
    }
}
