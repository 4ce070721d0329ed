//! A tolerant recursive-descent parser: masked token stream → parse
//! tree (items, blocks, expressions) with source spans.
//!
//! A flat token stream cannot say which lock guard is still live when a
//! call blocks or a second lock is taken.  This parser builds the tree
//! the CFG, call graph and lock rules need, under the same constraints
//! as the rest of the crate: **no rustc, no external dependencies**,
//! and **never panic** — unparseable constructs degrade to
//! [`Expr::Opaque`] spanning a balanced token run, so a syntax novelty
//! can hide a finding but can never abort the pass.
//!
//! The grammar is the pragmatic subset those consumers need:
//!
//! * items: `fn` (params, return type, body), `struct` (named fields),
//!   `enum`, `trait`, `impl` (nested items), `mod` (nested items),
//!   `use`, `type` aliases, `const`/`static` (typed, initializer expr);
//! * statements: `let` (pattern name, optional type, initializer),
//!   expression statements (with/without `;`), nested items;
//! * expressions: full operator precedence including `as` casts with a
//!   parsed target type, method/function calls, field and index access,
//!   struct literals, control flow (`if`/`match`/`while`/`for`/`loop`),
//!   closures, references, try (`?`), ranges and assignments.
//!
//! Spans are `(line, col)` of the defining token, matching the
//! diagnostics of the token-level rule byte for byte.

use crate::lexer::{Token, TokenKind};

/// A source position (1-based line and byte column).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// 1-based line.
    pub line: u32,
    /// 1-based byte column.
    pub col: u32,
}

impl Span {
    fn of(t: &Token) -> Span {
        Span {
            line: t.line,
            col: t.col,
        }
    }
}

/// What kind of item a node is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemKind {
    /// A function or method.
    Fn,
    /// A struct definition.
    Struct,
    /// An enum definition.
    Enum,
    /// A trait definition.
    Trait,
    /// An impl block (children hold its methods).
    Impl,
    /// A module (children hold its items).
    Mod,
    /// A `use` declaration.
    Use,
    /// A `type` alias.
    TypeAlias,
    /// A `const` or `static`.
    Const,
    /// Anything else (macro invocations, extern blocks, ...).
    Other,
}

/// One named field of a struct.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldDef {
    /// Field name.
    pub name: String,
    /// Field type, rendered as text.
    pub ty: String,
    /// Position of the field name in the declaration.
    pub span: Span,
}

/// One parsed item.
#[derive(Debug, Clone)]
pub struct Item {
    /// The item's kind.
    pub kind: ItemKind,
    /// Item name (`None` for impls and use declarations).
    pub name: Option<String>,
    /// Position of the item's first token.
    pub span: Span,
    /// Function parameters as `(name, type)`; `self` receivers omitted.
    pub params: Vec<(String, String)>,
    /// Function return type text (`None` = unit).
    pub ret: Option<String>,
    /// Function body / const initializer.
    pub body: Option<Block>,
    /// Nested items (mods, impls, traits).
    pub items: Vec<Item>,
    /// Struct fields (named-field structs only).
    pub fields: Vec<FieldDef>,
    /// The full path text of a `use` declaration.
    pub use_path: Option<String>,
    /// For impl blocks: the target type, rendered as text.
    pub impl_ty: Option<String>,
    /// For trait impls: the trait being implemented, rendered as text.
    pub trait_of: Option<String>,
    /// For fns: the receiver as written (`self`, `&self`, `&mut self`),
    /// `None` for free functions.
    pub self_param: Option<String>,
}

impl Item {
    fn new(kind: ItemKind, span: Span) -> Item {
        Item {
            kind,
            name: None,
            span,
            params: Vec::new(),
            ret: None,
            body: None,
            items: Vec::new(),
            fields: Vec::new(),
            use_path: None,
            impl_ty: None,
            trait_of: None,
            self_param: None,
        }
    }
}

/// A braced block of statements.
#[derive(Debug, Clone)]
pub struct Block {
    /// The statements in order.
    pub stmts: Vec<Stmt>,
    /// Position of the opening brace.
    pub span: Span,
}

/// One statement.
#[derive(Debug, Clone)]
pub enum Stmt {
    /// A `let` binding.
    Let {
        /// The bound name when the pattern is a plain identifier, or
        /// when a destructuring pattern binds exactly one identifier
        /// (`let Some(v) = ...` records `v`; `let (a, b) = ...` stays
        /// `None` — ambiguity degrades to an anonymous binding).
        name: Option<String>,
        /// True for `let _ = ...`.
        underscore: bool,
        /// Declared type, rendered as text.
        ty: Option<String>,
        /// Initializer expression.
        init: Option<Expr>,
        /// The diverging `else { .. }` block of a `let .. else`; the
        /// binding is only in scope on the fall-through path.
        else_block: Option<Block>,
        /// Position of the `let` keyword.
        span: Span,
    },
    /// An expression statement; `semi` records a trailing `;`.
    Expr {
        /// The expression.
        expr: Expr,
        /// True when terminated by `;` (its value is dropped).
        semi: bool,
    },
    /// A nested item.
    Item(Item),
}

/// One expression node.
#[derive(Debug, Clone)]
pub enum Expr {
    /// A (possibly qualified) path: `a::b::c`.
    Path {
        /// Path segments.
        segs: Vec<String>,
        /// Position of the first segment.
        span: Span,
    },
    /// A literal token (number; strings/chars are masked to nothing).
    Lit {
        /// Literal text (e.g. `42u32`).
        text: String,
        /// Position.
        span: Span,
    },
    /// A call: `callee(args)`.
    Call {
        /// The called expression (usually a path).
        callee: Box<Expr>,
        /// Arguments.
        args: Vec<Expr>,
        /// Position of the callee.
        span: Span,
    },
    /// A method call: `recv.name(args)`.
    MethodCall {
        /// Receiver.
        recv: Box<Expr>,
        /// Method name.
        name: String,
        /// Arguments.
        args: Vec<Expr>,
        /// Position of the method name.
        span: Span,
    },
    /// Field access: `base.name`.
    Field {
        /// Base expression.
        base: Box<Expr>,
        /// Field name (or tuple index).
        name: String,
        /// Position of the field name.
        span: Span,
    },
    /// Index access: `base[index]`.
    Index {
        /// Base expression.
        base: Box<Expr>,
        /// Index expression.
        index: Box<Expr>,
        /// Position of the `[`.
        span: Span,
    },
    /// A unary operator (`-`, `!`, `*`, `&`).
    Unary {
        /// Operator byte.
        op: char,
        /// Operand.
        expr: Box<Expr>,
        /// Position of the operator.
        span: Span,
    },
    /// A binary operator, including compound assignment.
    Binary {
        /// Operator text (`+`, `<=`, `+=`, ...).
        op: String,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
        /// Position of the operator.
        span: Span,
    },
    /// A cast: `expr as Type`.
    Cast {
        /// The cast operand.
        expr: Box<Expr>,
        /// Target type, rendered as text.
        ty: String,
        /// Position of the `as` keyword.
        span: Span,
    },
    /// The `?` operator.
    Try {
        /// The inner expression.
        expr: Box<Expr>,
        /// Position of the `?`.
        span: Span,
    },
    /// A braced block in expression position.
    Block(Block),
    /// Control flow; `parts` holds condition/scrutinee expressions and
    /// body blocks in source order (match arms contribute their arm
    /// expressions).
    Control {
        /// `if` / `match` / `while` / `for` / `loop` / `unsafe`.
        kw: String,
        /// Conditions, bodies and arm expressions in order.
        parts: Vec<Expr>,
        /// Loop label (`'outer: loop { .. }`), without the quote.
        label: Option<String>,
        /// Position of the keyword.
        span: Span,
    },
    /// A closure; `body` is its body expression.
    Closure {
        /// The body.
        body: Box<Expr>,
        /// Position of the opening `|`.
        span: Span,
    },
    /// A tuple or array literal / grouping parens.
    Group {
        /// Element expressions.
        items: Vec<Expr>,
        /// Position of the opening delimiter.
        span: Span,
    },
    /// A struct literal: `Path { field: expr, .. }`.
    StructLit {
        /// The struct path text.
        path: String,
        /// Field initializers.
        fields: Vec<(String, Expr)>,
        /// Position of the path.
        span: Span,
    },
    /// `return` / `break` / `continue` with optional value.
    Jump {
        /// The keyword.
        kw: String,
        /// Optional value expression.
        value: Option<Box<Expr>>,
        /// Target label of `break 'x` / `continue 'x`, without the quote.
        label: Option<String>,
        /// Position of the keyword.
        span: Span,
    },
    /// A macro invocation: `name!(...)`; inner tokens are not parsed.
    Macro {
        /// Macro name.
        name: String,
        /// Position of the name.
        span: Span,
    },
    /// Tokens the parser could not interpret (balanced-skipped).
    Opaque {
        /// Position of the first skipped token.
        span: Span,
    },
}

impl Expr {
    /// This expression's source position.
    pub fn span(&self) -> Span {
        match self {
            Expr::Path { span, .. }
            | Expr::Lit { span, .. }
            | Expr::Call { span, .. }
            | Expr::MethodCall { span, .. }
            | Expr::Field { span, .. }
            | Expr::Index { span, .. }
            | Expr::Unary { span, .. }
            | Expr::Binary { span, .. }
            | Expr::Cast { span, .. }
            | Expr::Try { span, .. }
            | Expr::Control { span, .. }
            | Expr::Closure { span, .. }
            | Expr::Group { span, .. }
            | Expr::StructLit { span, .. }
            | Expr::Jump { span, .. }
            | Expr::Macro { span, .. }
            | Expr::Opaque { span } => *span,
            Expr::Block(b) => b.span,
        }
    }
}

/// A parsed file: its top-level items.
#[derive(Debug, Clone, Default)]
pub struct File {
    /// Top-level items in source order.
    pub items: Vec<Item>,
}

/// Parses a masked token stream into a [`File`].
pub fn parse_file(tokens: &[Token]) -> File {
    let mut p = Parser {
        toks: tokens,
        pos: 0,
        depth: 0,
    };
    File {
        items: p.parse_items_until(None),
    }
}

/// Recursion ceiling: beyond this the parser degrades to balanced skips
/// rather than risking the stack.
const MAX_DEPTH: u32 = 120;

const ITEM_KEYWORDS: &[&str] = &[
    "fn",
    "struct",
    "enum",
    "trait",
    "impl",
    "mod",
    "use",
    "type",
    "const",
    "static",
    "pub",
    "extern",
    "macro_rules",
    "union",
    "unsafe",
];

struct Parser<'a> {
    toks: &'a [Token],
    pos: usize,
    depth: u32,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<&'a Token> {
        self.toks.get(self.pos)
    }

    fn peek_at(&self, n: usize) -> Option<&'a Token> {
        self.toks.get(self.pos + n)
    }

    fn bump(&mut self) -> Option<&'a Token> {
        let t = self.toks.get(self.pos);
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn is_punct(&self, n: usize, b: u8) -> bool {
        matches!(self.peek_at(n), Some(t) if t.kind == TokenKind::Punct(b))
    }

    fn is_ident(&self, n: usize, text: &str) -> bool {
        matches!(self.peek_at(n), Some(t) if t.kind == TokenKind::Ident && t.text == text)
    }

    fn ident_text(&self, n: usize) -> Option<&'a str> {
        match self.peek_at(n) {
            Some(t) if t.kind == TokenKind::Ident => Some(&t.text),
            _ => None,
        }
    }

    /// True when tokens at offsets `n` and `n + 1` are the adjacent
    /// two-byte punctuation `ab` (no space between them).
    fn is_punct2(&self, n: usize, a: u8, b: u8) -> bool {
        match (self.peek_at(n), self.peek_at(n + 1)) {
            (Some(x), Some(y)) => {
                x.kind == TokenKind::Punct(a)
                    && y.kind == TokenKind::Punct(b)
                    && y.line == x.line
                    && y.col == x.col + 1
            }
            _ => false,
        }
    }

    fn span_here(&self) -> Span {
        self.peek()
            .map(Span::of)
            .unwrap_or(Span { line: 0, col: 0 })
    }

    /// Skips one balanced token group starting at an opening delimiter,
    /// or a single token otherwise.  Guarantees progress.
    fn skip_balanced(&mut self) {
        let Some(t) = self.bump() else { return };
        let close = match t.kind {
            TokenKind::Punct(b'(') => b')',
            TokenKind::Punct(b'[') => b']',
            TokenKind::Punct(b'{') => b'}',
            _ => return,
        };
        let open = match t.kind {
            TokenKind::Punct(b) => b,
            _ => return,
        };
        let mut depth = 1usize;
        while let Some(t) = self.bump() {
            match t.kind {
                TokenKind::Punct(b) if b == open => depth += 1,
                TokenKind::Punct(b) if b == close => {
                    depth -= 1;
                    if depth == 0 {
                        return;
                    }
                }
                _ => {}
            }
        }
    }

    /// Skips attributes (`#[...]` / `#![...]`).
    fn skip_attrs(&mut self) {
        while self.is_punct(0, b'#') && (self.is_punct(1, b'[') || self.is_punct2(1, b'!', b'[')) {
            self.bump(); // '#'
            if self.is_punct(0, b'!') {
                self.bump();
            }
            self.skip_balanced(); // [...]
        }
    }

    /// Skips a balanced `<...>` generics group (the cursor is on `<`).
    /// `->` arrows inside (e.g. `Fn(A) -> B`) do not close the group.
    fn skip_generics(&mut self) {
        if !self.is_punct(0, b'<') {
            return;
        }
        let mut depth = 0i32;
        while let Some(t) = self.peek() {
            match t.kind {
                TokenKind::Punct(b'<') => depth += 1,
                TokenKind::Punct(b'>') => {
                    // `->` inside generics (closure/Fn types) is an arrow.
                    let prev = self.toks.get(self.pos.wrapping_sub(1));
                    let arrow = matches!(prev, Some(p) if p.kind == TokenKind::Punct(b'-')
                        && p.line == t.line && p.col + 1 == t.col);
                    if !arrow {
                        depth -= 1;
                    }
                }
                TokenKind::Punct(b'(') | TokenKind::Punct(b'[') => {
                    self.skip_balanced();
                    continue;
                }
                _ => {}
            }
            self.bump();
            if depth == 0 {
                return;
            }
        }
    }

    // ----- items ------------------------------------------------------

    /// Parses items until `end` (a closing brace) or EOF.
    fn parse_items_until(&mut self, end: Option<u8>) -> Vec<Item> {
        let mut out = Vec::new();
        loop {
            match self.peek() {
                None => return out,
                Some(t) => {
                    if let (Some(e), TokenKind::Punct(b)) = (end, &t.kind) {
                        if *b == e {
                            return out;
                        }
                    }
                }
            }
            let before = self.pos;
            if let Some(item) = self.parse_item() {
                out.push(item);
            }
            if self.pos == before {
                self.skip_balanced(); // guarantee progress
            }
        }
    }

    /// Parses one item if the cursor is at one; otherwise skips a token.
    fn parse_item(&mut self) -> Option<Item> {
        self.skip_attrs();
        let start = self.span_here();
        let mut item = Item::new(ItemKind::Other, start);

        // Visibility.
        if self.is_ident(0, "pub") {
            self.bump();
            if self.is_punct(0, b'(') {
                self.skip_balanced(); // pub(crate) etc.
            }
        }
        // `unsafe fn` / `unsafe impl` / `async fn` / `extern "C" fn`.
        while self.is_ident(0, "unsafe") || self.is_ident(0, "async") || self.is_ident(0, "extern")
        {
            let was_extern = self.is_ident(0, "extern");
            self.bump();
            // `extern "C"` ABI strings are masked; `extern crate x;` is
            // handled below as Other.
            if was_extern && self.is_ident(0, "crate") {
                self.skip_to_semi_or_block();
                return Some(item);
            }
        }

        let kw = self.ident_text(0)?.to_string();
        match kw.as_str() {
            "fn" => self.parse_fn(&mut item),
            "struct" => self.parse_struct(&mut item),
            "enum" | "trait" | "union" => {
                item.kind = if kw == "enum" {
                    ItemKind::Enum
                } else if kw == "trait" {
                    ItemKind::Trait
                } else {
                    ItemKind::Other
                };
                self.bump();
                item.name = self.ident_text(0).map(str::to_string);
                self.bump();
                self.skip_generics();
                if item.kind == ItemKind::Trait {
                    // Trait bodies can declare methods; parse them so the
                    // workspace index sees their signatures.
                    self.skip_until_block_or_semi();
                    if self.is_punct(0, b'{') {
                        self.bump();
                        item.items = self.parse_items_until(Some(b'}'));
                        self.bump(); // '}'
                    }
                } else {
                    self.skip_to_semi_or_block();
                }
            }
            "impl" => {
                item.kind = ItemKind::Impl;
                self.bump();
                self.skip_generics();
                // `impl Type { .. }` or `impl Trait for Type { .. }`;
                // the target type lets the call graph resolve method
                // receivers back to their defining impl.
                let first = self.parse_impl_ty();
                if self.is_ident(0, "for") {
                    self.bump();
                    item.trait_of = first;
                    item.impl_ty = self.parse_impl_ty();
                } else {
                    item.impl_ty = first;
                }
                if self.is_ident(0, "where") {
                    self.skip_until_block_or_semi();
                }
                if self.is_punct(0, b'{') {
                    self.bump();
                    item.items = self.parse_items_until(Some(b'}'));
                    self.bump();
                } else if self.is_punct(0, b';') {
                    self.bump();
                }
            }
            "mod" => {
                item.kind = ItemKind::Mod;
                self.bump();
                item.name = self.ident_text(0).map(str::to_string);
                self.bump();
                if self.is_punct(0, b'{') {
                    self.bump();
                    item.items = self.parse_items_until(Some(b'}'));
                    self.bump();
                } else {
                    self.bump(); // ';'
                }
            }
            "use" => {
                item.kind = ItemKind::Use;
                self.bump();
                let from = self.pos;
                while let Some(t) = self.peek() {
                    if t.kind == TokenKind::Punct(b';') {
                        break;
                    }
                    if t.kind == TokenKind::Punct(b'{') {
                        self.skip_balanced();
                        continue;
                    }
                    self.bump();
                }
                item.use_path = Some(join_tokens(&self.toks[from..self.pos]));
                self.bump(); // ';'
            }
            "type" => {
                item.kind = ItemKind::TypeAlias;
                self.bump();
                item.name = self.ident_text(0).map(str::to_string);
                self.bump();
                self.skip_generics();
                if self.is_punct(0, b'=') {
                    self.bump();
                    self.parse_type_text(b";");
                }
                if self.is_punct(0, b';') {
                    self.bump();
                }
            }
            "const" | "static" => {
                item.kind = ItemKind::Const;
                self.bump();
                if self.is_ident(0, "mut") {
                    self.bump();
                }
                item.name = self.ident_text(0).map(str::to_string);
                self.bump();
                if self.is_punct(0, b':') {
                    self.bump();
                    self.parse_type_text(b"=;");
                }
                if self.is_punct(0, b'=') {
                    self.bump();
                    let init = self.parse_expr(false);
                    item.body = Some(Block {
                        stmts: vec![Stmt::Expr {
                            expr: init,
                            semi: false,
                        }],
                        span: start,
                    });
                }
                if self.is_punct(0, b';') {
                    self.bump();
                }
            }
            _ => {
                // Macro invocation, stray token run: consume to `;` or a
                // balanced block.
                self.skip_to_semi_or_block();
            }
        }
        Some(item)
    }

    fn parse_fn(&mut self, item: &mut Item) {
        item.kind = ItemKind::Fn;
        self.bump(); // fn
        item.name = self.ident_text(0).map(str::to_string);
        self.bump();
        self.skip_generics();
        // Parameter list.
        if self.is_punct(0, b'(') {
            self.bump();
            item.params = self.parse_params(&mut item.self_param);
        }
        // Return type.
        if self.is_punct2(0, b'-', b'>') {
            self.bump();
            self.bump();
            item.ret = Some(self.parse_type_text(b"{;"));
        }
        // Where clause.
        if self.is_ident(0, "where") {
            self.skip_until_block_or_semi();
        }
        if self.is_punct(0, b'{') {
            item.body = Some(self.parse_block());
        } else if self.is_punct(0, b';') {
            self.bump(); // trait method declaration
        }
    }

    /// Parses `pattern: Type` pairs up to the closing `)` (already past
    /// the opening paren).  A `self` receiver is recorded into
    /// `self_param` rather than the returned list.
    fn parse_params(&mut self, self_param: &mut Option<String>) -> Vec<(String, String)> {
        let mut out = Vec::new();
        loop {
            match self.peek() {
                None => return out,
                Some(t) if t.kind == TokenKind::Punct(b')') => {
                    self.bump();
                    return out;
                }
                _ => {}
            }
            self.skip_attrs();
            // Receiver: `self`, `&self`, `&mut self`, `mut self`.
            let mut probe = 0usize;
            while self.is_punct(probe, b'&') || self.is_ident(probe, "mut") {
                probe += 1;
                if self
                    .ident_text(probe)
                    .is_some_and(|t| t != "mut" && t != "self")
                {
                    break;
                }
            }
            if self.is_ident(probe, "self") {
                let from = self.pos;
                for _ in 0..=probe {
                    self.bump();
                }
                *self_param = Some(join_tokens(&self.toks[from..self.pos]));
                if self.is_punct(0, b',') {
                    self.bump();
                }
                continue;
            }
            // Pattern: take a single (possibly `mut`-prefixed) ident if
            // that's what it is; otherwise skip tokens to the `:`.
            let mut name = String::new();
            if self.is_ident(0, "mut") {
                self.bump();
            }
            if let Some(id) = self.ident_text(0) {
                if self.is_punct(1, b':') {
                    name = id.to_string();
                    self.bump();
                }
            }
            // Find `:` at depth 0 (destructuring patterns).
            while let Some(t) = self.peek() {
                match t.kind {
                    TokenKind::Punct(b':') => break,
                    TokenKind::Punct(b'(') | TokenKind::Punct(b'[') | TokenKind::Punct(b'{') => {
                        self.skip_balanced()
                    }
                    TokenKind::Punct(b')') | TokenKind::Punct(b',') => break,
                    _ => {
                        self.bump();
                    }
                }
            }
            if self.is_punct(0, b':') {
                self.bump();
                let ty = self.parse_type_text(b",)");
                out.push((name, ty));
            }
            if self.is_punct(0, b',') {
                self.bump();
            } else if !self.is_punct(0, b')') {
                // Lost sync: bail out of the parameter list.
                while let Some(t) = self.peek() {
                    match t.kind {
                        TokenKind::Punct(b')') => {
                            self.bump();
                            return out;
                        }
                        TokenKind::Punct(b'(') | TokenKind::Punct(b'{') => self.skip_balanced(),
                        _ => {
                            self.bump();
                        }
                    }
                }
            }
        }
    }

    /// Consumes an impl target type, stopping at a depth-0 `for` /
    /// `where` keyword or at `{` / `;`.  Returns `None` when nothing
    /// was consumed (malformed input degrades to an anonymous impl).
    fn parse_impl_ty(&mut self) -> Option<String> {
        let from = self.pos;
        let mut angle = 0i32;
        while let Some(t) = self.peek() {
            if angle == 0 && (self.is_ident(0, "for") || self.is_ident(0, "where")) {
                break;
            }
            match t.kind {
                TokenKind::Punct(b'{') | TokenKind::Punct(b';') if angle == 0 => break,
                TokenKind::Punct(b'<') => {
                    angle += 1;
                    self.bump();
                }
                TokenKind::Punct(b'>') => {
                    let prev = self.toks.get(self.pos.wrapping_sub(1));
                    let arrow = matches!(prev, Some(p) if p.kind == TokenKind::Punct(b'-')
                        && p.line == t.line && p.col + 1 == t.col);
                    if !arrow && angle > 0 {
                        angle -= 1;
                    }
                    self.bump();
                }
                TokenKind::Punct(b'(') | TokenKind::Punct(b'[') => self.skip_balanced(),
                TokenKind::Punct(b'}') if angle == 0 => break,
                _ => {
                    self.bump();
                }
            }
        }
        let text = join_tokens(&self.toks[from..self.pos]);
        if text.is_empty() {
            None
        } else {
            Some(text)
        }
    }

    /// Consumes a type and renders it as text.  Stops at any of the
    /// `stop` punctuation bytes at nesting depth 0.
    fn parse_type_text(&mut self, stop: &[u8]) -> String {
        let from = self.pos;
        let mut angle = 0i32;
        while let Some(t) = self.peek() {
            match t.kind {
                TokenKind::Punct(b) if angle == 0 && stop.contains(&b) => break,
                TokenKind::Punct(b'<') => {
                    angle += 1;
                    self.bump();
                }
                TokenKind::Punct(b'>') => {
                    let prev = self.toks.get(self.pos.wrapping_sub(1));
                    let arrow = matches!(prev, Some(p) if p.kind == TokenKind::Punct(b'-')
                        && p.line == t.line && p.col + 1 == t.col);
                    if !arrow {
                        if angle == 0 {
                            break; // closing an enclosing generic list
                        }
                        angle -= 1;
                    }
                    self.bump();
                }
                TokenKind::Punct(b'(') | TokenKind::Punct(b'[') => self.skip_balanced(),
                TokenKind::Punct(b')') | TokenKind::Punct(b']') | TokenKind::Punct(b'}')
                    if angle == 0 =>
                {
                    break
                }
                _ => {
                    self.bump();
                }
            }
        }
        join_tokens(&self.toks[from..self.pos])
    }

    fn skip_to_semi_or_block(&mut self) {
        while let Some(t) = self.peek() {
            match t.kind {
                TokenKind::Punct(b';') => {
                    self.bump();
                    return;
                }
                TokenKind::Punct(b'{') => {
                    self.skip_balanced();
                    return;
                }
                TokenKind::Punct(b'(') | TokenKind::Punct(b'[') => self.skip_balanced(),
                TokenKind::Punct(b'}') => return,
                _ => {
                    self.bump();
                }
            }
        }
    }

    /// Advances to (but not past) the next `{` or `;` at depth 0.
    fn skip_until_block_or_semi(&mut self) {
        while let Some(t) = self.peek() {
            match t.kind {
                TokenKind::Punct(b'{') | TokenKind::Punct(b';') | TokenKind::Punct(b'}') => return,
                TokenKind::Punct(b'(') | TokenKind::Punct(b'[') => self.skip_balanced(),
                _ => {
                    self.bump();
                }
            }
        }
    }

    fn parse_struct(&mut self, item: &mut Item) {
        item.kind = ItemKind::Struct;
        self.bump(); // struct
        item.name = self.ident_text(0).map(str::to_string);
        self.bump();
        self.skip_generics();
        if self.is_ident(0, "where") {
            self.skip_until_block_or_semi();
        }
        if self.is_punct(0, b'{') {
            self.bump();
            // Named fields.
            loop {
                self.skip_attrs();
                if self.is_ident(0, "pub") {
                    self.bump();
                    if self.is_punct(0, b'(') {
                        self.skip_balanced();
                    }
                }
                match self.peek() {
                    None => break,
                    Some(t) if t.kind == TokenKind::Punct(b'}') => {
                        self.bump();
                        break;
                    }
                    _ => {}
                }
                let fspan = self.span_here();
                let Some(name) = self.ident_text(0).map(str::to_string) else {
                    self.skip_balanced();
                    continue;
                };
                self.bump();
                if self.is_punct(0, b':') {
                    self.bump();
                    let ty = self.parse_type_text(b",}");
                    item.fields.push(FieldDef {
                        name,
                        ty,
                        span: fspan,
                    });
                }
                if self.is_punct(0, b',') {
                    self.bump();
                }
            }
        } else {
            // Tuple struct or unit struct.
            self.skip_to_semi_or_block();
        }
    }

    // ----- statements & blocks ---------------------------------------

    /// Parses a braced block (cursor on `{`).
    fn parse_block(&mut self) -> Block {
        let span = self.span_here();
        self.bump(); // '{'
        if self.depth >= MAX_DEPTH {
            // Too deep: consume the block opaquely.
            let mut depth = 1usize;
            while let Some(t) = self.bump() {
                match t.kind {
                    TokenKind::Punct(b'{') => depth += 1,
                    TokenKind::Punct(b'}') => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
            }
            return Block {
                stmts: Vec::new(),
                span,
            };
        }
        self.depth += 1;
        let mut stmts = Vec::new();
        loop {
            match self.peek() {
                None => break,
                Some(t) if t.kind == TokenKind::Punct(b'}') => {
                    self.bump();
                    break;
                }
                _ => {}
            }
            let before = self.pos;
            if let Some(s) = self.parse_stmt() {
                stmts.push(s);
            }
            if self.pos == before {
                self.skip_balanced();
            }
        }
        self.depth -= 1;
        Block { stmts, span }
    }

    fn parse_stmt(&mut self) -> Option<Stmt> {
        self.skip_attrs();
        let t = self.peek()?;
        match &t.kind {
            TokenKind::Punct(b';') => {
                self.bump();
                None
            }
            TokenKind::Ident if t.text == "let" => Some(self.parse_let()),
            TokenKind::Ident if ITEM_KEYWORDS.contains(&t.text.as_str()) && self.starts_item() => {
                self.parse_item().map(Stmt::Item)
            }
            _ => {
                let expr = self.parse_expr(false);
                let semi = self.is_punct(0, b';');
                if semi {
                    self.bump();
                }
                Some(Stmt::Expr { expr, semi })
            }
        }
    }

    /// Distinguishes item keywords from expressions that merely start
    /// with one (`unsafe { .. }` blocks, `extern` fn types...).
    fn starts_item(&self) -> bool {
        if self.is_ident(0, "unsafe") {
            // `unsafe {` is a block expression; `unsafe fn`/`impl` items.
            return self.is_ident(1, "fn") || self.is_ident(1, "impl") || self.is_ident(1, "trait");
        }
        true
    }

    fn parse_let(&mut self) -> Stmt {
        let span = self.span_here();
        self.bump(); // let
        let mut underscore = false;
        let mut name = None;
        if self.is_ident(0, "mut") {
            self.bump();
        }
        match self.peek() {
            Some(t) if t.kind == TokenKind::Ident && t.text == "_" => {
                underscore = true;
                self.bump();
            }
            Some(t)
                if t.kind == TokenKind::Ident
                    && (self.is_punct(1, b':')
                        || self.is_punct(1, b'=')
                        || self.is_punct(1, b';')) =>
            {
                name = Some(t.text.clone());
                self.bump();
            }
            _ => {
                // Destructuring pattern: skip to `:`, `=` or `;` at depth 0.
                let pat_start = self.pos;
                while let Some(t) = self.peek() {
                    match t.kind {
                        TokenKind::Punct(b':')
                        | TokenKind::Punct(b'=')
                        | TokenKind::Punct(b';') => break,
                        TokenKind::Punct(b'(')
                        | TokenKind::Punct(b'[')
                        | TokenKind::Punct(b'{') => self.skip_balanced(),
                        TokenKind::Punct(b'}') => break,
                        _ => {
                            self.bump();
                        }
                    }
                }
                name = self.single_pattern_binding(pat_start, self.pos);
            }
        }
        let ty = if self.is_punct(0, b':') && !self.is_punct2(0, b':', b':') {
            self.bump();
            Some(self.parse_type_text(b"=;"))
        } else {
            None
        };
        let init = if self.is_punct(0, b'=') && !self.is_punct2(0, b'=', b'=') {
            self.bump();
            Some(self.parse_expr(false))
        } else {
            None
        };
        // `let ... else { }` — the diverging block is kept: it holds
        // real control flow (early returns, error paths) the CFG layer
        // needs as a branch edge.
        let mut else_block = None;
        if self.is_ident(0, "else") {
            self.bump();
            if self.is_punct(0, b'{') {
                else_block = Some(self.parse_block());
            }
        }
        if self.is_punct(0, b';') {
            self.bump();
        }
        Stmt::Let {
            name,
            underscore,
            ty,
            init,
            else_block,
            span,
        }
    }

    /// Extracts the single bound identifier of a destructuring pattern
    /// spanning `tokens[start..end]`, if there is exactly one.
    ///
    /// `Some(v)` / `Ok(mut shard)` bind one name; `(a, b)` and
    /// `Foo { x, y }` bind several and stay anonymous (`None`) — the
    /// usual degrade-to-silence contract for downstream analyses.
    fn single_pattern_binding(&self, start: usize, end: usize) -> Option<String> {
        let mut candidate: Option<String> = None;
        for i in start..end.min(self.toks.len()) {
            let t = &self.toks[i];
            if t.kind != TokenKind::Ident {
                continue;
            }
            // Keywords and the wildcard never bind.
            if matches!(t.text.as_str(), "mut" | "ref" | "box" | "_") {
                continue;
            }
            // Constructor / path segments: `Some(`, `Foo {`, `path::`.
            let next = self.toks.get(i + 1);
            if let Some(n) = next {
                if matches!(
                    n.kind,
                    TokenKind::Punct(b'(') | TokenKind::Punct(b'{') | TokenKind::Punct(b':')
                ) {
                    continue;
                }
            }
            // Second binding-like ident: ambiguous, give up.
            if candidate.is_some() {
                return None;
            }
            candidate = Some(t.text.clone());
        }
        candidate
    }

    // ----- expressions ------------------------------------------------

    /// Parses an expression.  `no_struct` suppresses struct-literal
    /// parsing (condition/scrutinee position, where `{` opens the body).
    fn parse_expr(&mut self, no_struct: bool) -> Expr {
        if self.depth >= MAX_DEPTH {
            let span = self.span_here();
            self.skip_balanced();
            return Expr::Opaque { span };
        }
        self.depth += 1;
        let e = self.parse_assign(no_struct);
        self.depth -= 1;
        e
    }

    fn parse_assign(&mut self, no_struct: bool) -> Expr {
        let lhs = self.parse_range(no_struct);
        // `=`, `+=`, `-=`, `*=`, `/=`, `%=`, `&=`, `|=`, `^=`, `<<=`, `>>=`.
        let op = if self.is_punct(0, b'=')
            && !self.is_punct2(0, b'=', b'=')
            && !self.is_punct2(0, b'=', b'>')
        {
            Some(("=".to_string(), 1))
        } else {
            let compound = [b'+', b'-', b'*', b'/', b'%', b'&', b'|', b'^'];
            match self.peek() {
                Some(t) => match t.kind {
                    TokenKind::Punct(b) if compound.contains(&b) && self.is_punct2(0, b, b'=') => {
                        Some((format!("{}=", b as char), 2))
                    }
                    _ => None,
                },
                None => None,
            }
        };
        if let Some((op, len)) = op {
            let span = self.span_here();
            for _ in 0..len {
                self.bump();
            }
            let rhs = self.parse_assign(no_struct);
            return Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                span,
            };
        }
        lhs
    }

    fn parse_range(&mut self, no_struct: bool) -> Expr {
        // Leading `..`/`..=` range.
        if self.is_punct2(0, b'.', b'.') {
            let span = self.span_here();
            self.bump();
            self.bump();
            if self.is_punct(0, b'=') {
                self.bump();
            }
            if self.range_has_end(no_struct) {
                let rhs = self.parse_binary(0, no_struct);
                return Expr::Unary {
                    op: '.',
                    expr: Box::new(rhs),
                    span,
                };
            }
            return Expr::Opaque { span };
        }
        let lhs = self.parse_binary(0, no_struct);
        if self.is_punct2(0, b'.', b'.') {
            let span = self.span_here();
            self.bump();
            self.bump();
            if self.is_punct(0, b'=') {
                self.bump();
            }
            if self.range_has_end(no_struct) {
                let rhs = self.parse_binary(0, no_struct);
                return Expr::Binary {
                    op: "..".to_string(),
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                    span,
                };
            }
            return Expr::Unary {
                op: '.',
                expr: Box::new(lhs),
                span,
            };
        }
        lhs
    }

    /// Does a range expression continue with an end bound here?
    fn range_has_end(&self, _no_struct: bool) -> bool {
        match self.peek() {
            None => false,
            Some(t) => !matches!(
                t.kind,
                TokenKind::Punct(b')')
                    | TokenKind::Punct(b']')
                    | TokenKind::Punct(b'}')
                    | TokenKind::Punct(b',')
                    | TokenKind::Punct(b';')
                    | TokenKind::Punct(b'{')
            ),
        }
    }

    /// Binary operators with precedence climbing.  `min_prec` ∈ 0..=7.
    fn parse_binary(&mut self, min_prec: u8, no_struct: bool) -> Expr {
        let mut lhs = self.parse_unary(no_struct);
        while let Some((op, prec, len)) = self.peek_binary_op() {
            if prec < min_prec {
                break;
            }
            let span = self.span_here();
            for _ in 0..len {
                self.bump();
            }
            let rhs = self.parse_binary(prec + 1, no_struct);
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                span,
            };
        }
        lhs
    }

    /// Recognizes a binary operator at the cursor: `(text, precedence,
    /// token_count)`.  Higher precedence binds tighter.
    fn peek_binary_op(&self) -> Option<(String, u8, usize)> {
        let t = self.peek()?;
        let b = match t.kind {
            TokenKind::Punct(b) => b,
            _ => return None,
        };
        // Two-byte operators first.
        if self.is_punct2(0, b'&', b'&') {
            return Some(("&&".into(), 1, 2));
        }
        if self.is_punct2(0, b'|', b'|') {
            return Some(("||".into(), 0, 2));
        }
        if self.is_punct2(0, b'=', b'=') {
            return Some(("==".into(), 2, 2));
        }
        if self.is_punct2(0, b'!', b'=') {
            return Some(("!=".into(), 2, 2));
        }
        if self.is_punct2(0, b'<', b'=') {
            return Some(("<=".into(), 2, 2));
        }
        if self.is_punct2(0, b'>', b'=') {
            return Some((">=".into(), 2, 2));
        }
        if self.is_punct2(0, b'<', b'<') {
            if self.is_punct2(1, b'<', b'=') {
                return None; // `<<=` handled as assignment-ish; stop
            }
            return Some(("<<".into(), 5, 2));
        }
        if self.is_punct2(0, b'>', b'>') {
            if self.is_punct2(1, b'>', b'=') {
                return None;
            }
            return Some((">>".into(), 5, 2));
        }
        // Compound assignment (`+=`) is not a binary op at this level.
        if matches!(b, b'+' | b'-' | b'*' | b'/' | b'%' | b'&' | b'|' | b'^')
            && self.is_punct2(0, b, b'=')
        {
            return None;
        }
        match b {
            b'*' | b'/' | b'%' => Some(((b as char).to_string(), 7, 1)),
            b'+' | b'-' => Some(((b as char).to_string(), 6, 1)),
            b'&' => Some(("&".into(), 4, 1)),
            b'^' => Some(("^".into(), 4, 1)),
            b'|' => Some(("|".into(), 3, 1)),
            b'<' | b'>' => Some(((b as char).to_string(), 2, 1)),
            _ => None,
        }
    }

    fn parse_unary(&mut self, no_struct: bool) -> Expr {
        let t = match self.peek() {
            Some(t) => t,
            None => {
                return Expr::Opaque {
                    span: Span { line: 0, col: 0 },
                }
            }
        };
        let span = Span::of(t);
        match t.kind {
            TokenKind::Punct(op @ (b'-' | b'!' | b'*')) => {
                self.bump();
                let inner = self.parse_unary(no_struct);
                Expr::Unary {
                    op: op as char,
                    expr: Box::new(inner),
                    span,
                }
            }
            TokenKind::Punct(b'&') => {
                self.bump();
                if self.is_punct(0, b'&') {
                    self.bump(); // `&&x`
                }
                if self.is_ident(0, "mut") {
                    self.bump();
                }
                let inner = self.parse_unary(no_struct);
                Expr::Unary {
                    op: '&',
                    expr: Box::new(inner),
                    span,
                }
            }
            _ => self.parse_postfix(no_struct),
        }
    }

    /// Postfix chains: calls, method calls, field access, indexing, `?`,
    /// `as` casts.
    fn parse_postfix(&mut self, no_struct: bool) -> Expr {
        let mut e = self.parse_primary(no_struct);
        loop {
            // `as Type` (binds tighter than any binary operator).
            if self.is_ident(0, "as") {
                let span = self.span_here();
                self.bump();
                let ty = self.parse_cast_type();
                e = Expr::Cast {
                    expr: Box::new(e),
                    ty,
                    span,
                };
                continue;
            }
            match self.peek() {
                Some(t) if t.kind == TokenKind::Punct(b'?') => {
                    let span = Span::of(t);
                    self.bump();
                    e = Expr::Try {
                        expr: Box::new(e),
                        span,
                    };
                }
                Some(t) if t.kind == TokenKind::Punct(b'(') => {
                    let span = e.span();
                    self.bump();
                    let args = self.parse_call_args();
                    e = Expr::Call {
                        callee: Box::new(e),
                        args,
                        span,
                    };
                }
                Some(t) if t.kind == TokenKind::Punct(b'[') => {
                    let span = Span::of(t);
                    self.bump();
                    let index = self.parse_expr(false);
                    if self.is_punct(0, b']') {
                        self.bump();
                    } else {
                        // Lost sync inside the index: rebalance.
                        let mut depth = 1usize;
                        while let Some(t) = self.bump() {
                            match t.kind {
                                TokenKind::Punct(b'[') => depth += 1,
                                TokenKind::Punct(b']') => {
                                    depth -= 1;
                                    if depth == 0 {
                                        break;
                                    }
                                }
                                _ => {}
                            }
                        }
                    }
                    e = Expr::Index {
                        base: Box::new(e),
                        index: Box::new(index),
                        span,
                    };
                }
                Some(t) if t.kind == TokenKind::Punct(b'.') && !self.is_punct2(0, b'.', b'.') => {
                    self.bump();
                    // `.await`, `.0`, `.field`, `.method(...)`.
                    match self.peek() {
                        Some(n) if n.kind == TokenKind::Ident => {
                            let name = n.text.clone();
                            let span = Span::of(n);
                            self.bump();
                            // Turbofish: `.collect::<Vec<_>>()`.
                            if self.is_punct2(0, b':', b':') {
                                self.bump();
                                self.bump();
                                self.skip_generics();
                            }
                            if self.is_punct(0, b'(') {
                                self.bump();
                                let args = self.parse_call_args();
                                e = Expr::MethodCall {
                                    recv: Box::new(e),
                                    name,
                                    args,
                                    span,
                                };
                            } else {
                                e = Expr::Field {
                                    base: Box::new(e),
                                    name,
                                    span,
                                };
                            }
                        }
                        Some(n) if n.kind == TokenKind::Number => {
                            let name = n.text.clone();
                            let span = Span::of(n);
                            self.bump();
                            e = Expr::Field {
                                base: Box::new(e),
                                name,
                                span,
                            };
                        }
                        _ => break,
                    }
                }
                _ => break,
            }
        }
        e
    }

    /// Parses the target type of an `as` cast: a type-no-bounds, which
    /// notably excludes `+` and binary operators.
    fn parse_cast_type(&mut self) -> String {
        let from = self.pos;
        // `*const T` / `*mut T` raw pointers.
        while self.is_punct(0, b'*') && (self.is_ident(1, "const") || self.is_ident(1, "mut")) {
            self.bump();
            self.bump();
        }
        while self.is_punct(0, b'&') {
            self.bump();
            if self.is_ident(0, "mut") {
                self.bump();
            }
        }
        if self.is_ident(0, "dyn") || self.is_ident(0, "impl") {
            self.bump();
        }
        if self.is_punct(0, b'(') || self.is_punct(0, b'[') {
            self.skip_balanced();
            return join_tokens(&self.toks[from..self.pos]);
        }
        // Path with optional generics: `a::b::C<T>`.
        loop {
            if self.ident_text(0).is_some() {
                self.bump();
            } else {
                break;
            }
            if self.is_punct(0, b'<') {
                self.skip_generics();
            }
            if self.is_punct2(0, b':', b':') {
                self.bump();
                self.bump();
                continue;
            }
            break;
        }
        join_tokens(&self.toks[from..self.pos])
    }

    fn parse_call_args(&mut self) -> Vec<Expr> {
        let mut args = Vec::new();
        loop {
            match self.peek() {
                None => return args,
                Some(t) if t.kind == TokenKind::Punct(b')') => {
                    self.bump();
                    return args;
                }
                _ => {}
            }
            let before = self.pos;
            args.push(self.parse_expr(false));
            if self.is_punct(0, b',') {
                self.bump();
            } else if !self.is_punct(0, b')') {
                // Lost sync: rebalance to the closing paren.
                if self.pos == before {
                    self.bump();
                }
                let mut depth = 1usize;
                while let Some(t) = self.peek() {
                    match t.kind {
                        TokenKind::Punct(b'(') => depth += 1,
                        TokenKind::Punct(b')') => {
                            depth -= 1;
                            if depth == 0 {
                                self.bump();
                                return args;
                            }
                        }
                        _ => {}
                    }
                    self.bump();
                }
                return args;
            }
        }
    }

    fn parse_primary(&mut self, no_struct: bool) -> Expr {
        let t = match self.peek() {
            Some(t) => t,
            None => {
                return Expr::Opaque {
                    span: Span { line: 0, col: 0 },
                }
            }
        };
        let span = Span::of(t);
        match &t.kind {
            TokenKind::Number => {
                let text = t.text.clone();
                self.bump();
                Expr::Lit { text, span }
            }
            TokenKind::Punct(b'(') => {
                self.bump();
                let mut items = Vec::new();
                loop {
                    match self.peek() {
                        None => break,
                        Some(t) if t.kind == TokenKind::Punct(b')') => {
                            self.bump();
                            break;
                        }
                        _ => {}
                    }
                    let before = self.pos;
                    items.push(self.parse_expr(false));
                    if self.is_punct(0, b',') {
                        self.bump();
                    } else if !self.is_punct(0, b')') && self.pos == before {
                        self.skip_balanced();
                    }
                }
                Expr::Group { items, span }
            }
            TokenKind::Punct(b'[') => {
                self.bump();
                let mut items = Vec::new();
                loop {
                    match self.peek() {
                        None => break,
                        Some(t) if t.kind == TokenKind::Punct(b']') => {
                            self.bump();
                            break;
                        }
                        _ => {}
                    }
                    let before = self.pos;
                    items.push(self.parse_expr(false));
                    if self.is_punct(0, b',') || self.is_punct(0, b';') {
                        self.bump();
                    } else if !self.is_punct(0, b']') && self.pos == before {
                        self.skip_balanced();
                    }
                }
                Expr::Group { items, span }
            }
            TokenKind::Punct(b'{') => Expr::Block(self.parse_block()),
            TokenKind::Punct(b'|') => self.parse_closure(span),
            TokenKind::Punct(b'#') => {
                // Attribute on an expression (`#[cfg(...)] expr`).
                self.skip_attrs();
                self.parse_primary(no_struct)
            }
            TokenKind::Ident => {
                let kw = t.text.clone();
                match kw.as_str() {
                    "if" => self.parse_if(span),
                    "match" => self.parse_match(span),
                    "while" => {
                        self.bump();
                        let mut parts = Vec::new();
                        if self.is_ident(0, "let") {
                            self.skip_let_pattern();
                        }
                        parts.push(self.parse_expr(true));
                        if self.is_punct(0, b'{') {
                            parts.push(Expr::Block(self.parse_block()));
                        }
                        Expr::Control {
                            kw: "while".into(),
                            parts,
                            label: None,
                            span,
                        }
                    }
                    "for" => {
                        self.bump();
                        // Pattern `in` expr block.
                        while let Some(t) = self.peek() {
                            match &t.kind {
                                TokenKind::Ident if t.text == "in" => break,
                                TokenKind::Punct(b'(')
                                | TokenKind::Punct(b'[')
                                | TokenKind::Punct(b'{') => self.skip_balanced(),
                                TokenKind::Punct(b'}') => break,
                                _ => {
                                    self.bump();
                                }
                            }
                        }
                        let mut parts = Vec::new();
                        if self.is_ident(0, "in") {
                            self.bump();
                            parts.push(self.parse_expr(true));
                        }
                        if self.is_punct(0, b'{') {
                            parts.push(Expr::Block(self.parse_block()));
                        }
                        Expr::Control {
                            kw: "for".into(),
                            parts,
                            label: None,
                            span,
                        }
                    }
                    "loop" | "unsafe" => {
                        self.bump();
                        let mut parts = Vec::new();
                        if self.is_punct(0, b'{') {
                            parts.push(Expr::Block(self.parse_block()));
                        }
                        Expr::Control {
                            kw,
                            parts,
                            label: None,
                            span,
                        }
                    }
                    "move" => {
                        self.bump();
                        if self.is_punct(0, b'|') {
                            self.parse_closure(span)
                        } else {
                            Expr::Opaque { span }
                        }
                    }
                    "return" | "break" | "continue" => {
                        self.bump();
                        // `break 'outer` / `continue 'outer`: consume the
                        // target label so it does not derail into Opaque.
                        let mut jump_label = None;
                        if kw != "return" && self.is_punct(0, b'\'') {
                            if let Some(l) = self.ident_text(1) {
                                jump_label = Some(l.to_string());
                                self.bump();
                                self.bump();
                            }
                        }
                        let value = match self.peek() {
                            Some(t)
                                if !matches!(
                                    t.kind,
                                    TokenKind::Punct(b';')
                                        | TokenKind::Punct(b'}')
                                        | TokenKind::Punct(b')')
                                        | TokenKind::Punct(b']')
                                        | TokenKind::Punct(b',')
                                ) =>
                            {
                                Some(Box::new(self.parse_expr(no_struct)))
                            }
                            _ => None,
                        };
                        Expr::Jump {
                            kw,
                            value,
                            label: jump_label,
                            span,
                        }
                    }
                    _ => self.parse_path_expr(no_struct),
                }
            }
            // `'outer: loop { .. }` — a loop (or block) label.  The
            // quote is a lone punct here because the lexer only strips
            // char literals, not lifetimes.
            TokenKind::Punct(b'\'')
                if self.ident_text(1).is_some()
                    && self.is_punct(2, b':')
                    && !self.is_punct2(2, b':', b':') =>
            {
                let name = self.ident_text(1).map(str::to_string);
                self.bump(); // '
                self.bump(); // label
                self.bump(); // :
                let inner = self.parse_primary(no_struct);
                match inner {
                    Expr::Control {
                        kw,
                        parts,
                        label: None,
                        span: ispan,
                    } => Expr::Control {
                        kw,
                        parts,
                        label: name,
                        span: ispan,
                    },
                    other => other,
                }
            }
            _ => {
                // A closing delimiter or separator here means an operand
                // is missing (e.g. a masked-out string literal as a
                // binary rhs).  Consuming it would desync every group
                // above this expression — the enclosing call would run
                // to some later `)` and swallow the rest of the file —
                // so leave it for the caller; enclosing loops guarantee
                // progress themselves.
                let closes_enclosing = matches!(
                    t.kind,
                    TokenKind::Punct(b')')
                        | TokenKind::Punct(b']')
                        | TokenKind::Punct(b'}')
                        | TokenKind::Punct(b',')
                        | TokenKind::Punct(b';')
                );
                if !closes_enclosing {
                    self.bump();
                }
                Expr::Opaque { span }
            }
        }
    }

    /// `|args| body` (cursor on the first `|`).
    fn parse_closure(&mut self, span: Span) -> Expr {
        if self.is_punct2(0, b'|', b'|') {
            self.bump();
            self.bump();
        } else {
            self.bump(); // '|'
            let mut depth = 0usize;
            while let Some(t) = self.peek() {
                match t.kind {
                    TokenKind::Punct(b'|') if depth == 0 => {
                        self.bump();
                        break;
                    }
                    TokenKind::Punct(b'(') | TokenKind::Punct(b'[') | TokenKind::Punct(b'<') => {
                        depth += 1;
                        self.bump();
                    }
                    TokenKind::Punct(b')') | TokenKind::Punct(b']') | TokenKind::Punct(b'>') => {
                        depth = depth.saturating_sub(1);
                        self.bump();
                    }
                    _ => {
                        self.bump();
                    }
                }
            }
        }
        // Optional `-> Type` before a block body.
        if self.is_punct2(0, b'-', b'>') {
            self.bump();
            self.bump();
            self.parse_type_text(b"{");
        }
        let body = self.parse_expr(false);
        Expr::Closure {
            body: Box::new(body),
            span,
        }
    }

    fn parse_if(&mut self, span: Span) -> Expr {
        self.bump(); // if
        let mut parts = Vec::new();
        if self.is_ident(0, "let") {
            self.skip_let_pattern();
        }
        parts.push(self.parse_expr(true));
        if self.is_punct(0, b'{') {
            parts.push(Expr::Block(self.parse_block()));
        }
        if self.is_ident(0, "else") {
            self.bump();
            if self.is_ident(0, "if") {
                let espan = self.span_here();
                parts.push(self.parse_if(espan));
            } else if self.is_punct(0, b'{') {
                parts.push(Expr::Block(self.parse_block()));
            }
        }
        Expr::Control {
            kw: "if".into(),
            parts,
            label: None,
            span,
        }
    }

    /// Skips `let <pattern> =` inside `if let` / `while let`.
    fn skip_let_pattern(&mut self) {
        self.bump(); // let
        while let Some(t) = self.peek() {
            match t.kind {
                TokenKind::Punct(b'=') => {
                    if self.is_punct2(0, b'=', b'=') {
                        self.bump();
                        self.bump();
                        continue;
                    }
                    self.bump();
                    return;
                }
                TokenKind::Punct(b'(') | TokenKind::Punct(b'[') | TokenKind::Punct(b'{') => {
                    self.skip_balanced()
                }
                TokenKind::Punct(b'}') | TokenKind::Punct(b';') => return,
                _ => {
                    self.bump();
                }
            }
        }
    }

    fn parse_match(&mut self, span: Span) -> Expr {
        self.bump(); // match
        let mut parts = vec![self.parse_expr(true)];
        if !self.is_punct(0, b'{') {
            return Expr::Control {
                kw: "match".into(),
                parts,
                label: None,
                span,
            };
        }
        self.bump(); // '{'
        loop {
            match self.peek() {
                None => break,
                Some(t) if t.kind == TokenKind::Punct(b'}') => {
                    self.bump();
                    break;
                }
                _ => {}
            }
            // Skip the pattern (and any `if` guard) to `=>` at depth 0.
            let mut lost = false;
            loop {
                if self.is_punct2(0, b'=', b'>') {
                    self.bump();
                    self.bump();
                    break;
                }
                match self.peek() {
                    None => {
                        lost = true;
                        break;
                    }
                    Some(t) => match t.kind {
                        TokenKind::Punct(b'(')
                        | TokenKind::Punct(b'[')
                        | TokenKind::Punct(b'{') => self.skip_balanced(),
                        TokenKind::Punct(b'}') => {
                            lost = true;
                            break;
                        }
                        _ => {
                            self.bump();
                        }
                    },
                }
            }
            if lost {
                continue;
            }
            parts.push(self.parse_expr(false));
            if self.is_punct(0, b',') {
                self.bump();
            }
        }
        Expr::Control {
            kw: "match".into(),
            parts,
            label: None,
            span,
        }
    }

    /// A path expression, possibly a macro call, call, or struct literal.
    fn parse_path_expr(&mut self, no_struct: bool) -> Expr {
        let span = self.span_here();
        let mut segs = Vec::new();
        loop {
            match self.peek() {
                Some(t) if t.kind == TokenKind::Ident => {
                    segs.push(t.text.clone());
                    self.bump();
                }
                _ => break,
            }
            // Macro invocation: `name!(...)` / `name![...]` / `name!{...}`.
            if self.is_punct(0, b'!')
                && (self.is_punct(1, b'(') || self.is_punct(1, b'[') || self.is_punct(1, b'{'))
            {
                self.bump(); // '!'
                self.skip_balanced();
                return Expr::Macro {
                    name: segs.join("::"),
                    span,
                };
            }
            if self.is_punct2(0, b':', b':') {
                self.bump();
                self.bump();
                if self.is_punct(0, b'<') {
                    self.skip_generics(); // turbofish
                    if self.is_punct2(0, b':', b':') {
                        self.bump();
                        self.bump();
                        continue;
                    }
                    break;
                }
                continue;
            }
            break;
        }
        if segs.is_empty() {
            let span = self.span_here();
            self.bump();
            return Expr::Opaque { span };
        }
        // Struct literal: `Path { field: expr, ... }`.
        if !no_struct && self.is_punct(0, b'{') && !is_keyword_path(&segs) {
            self.bump();
            let mut fields = Vec::new();
            loop {
                match self.peek() {
                    None => break,
                    Some(t) if t.kind == TokenKind::Punct(b'}') => {
                        self.bump();
                        break;
                    }
                    _ => {}
                }
                // `..base` functional update.
                if self.is_punct2(0, b'.', b'.') {
                    self.bump();
                    self.bump();
                    fields.push(("..".to_string(), self.parse_expr(false)));
                } else if let Some(name) = self.ident_text(0).map(str::to_string) {
                    self.bump();
                    if self.is_punct(0, b':') && !self.is_punct2(0, b':', b':') {
                        self.bump();
                        fields.push((name, self.parse_expr(false)));
                    } else {
                        // Shorthand `Foo { x }`.
                        fields.push((
                            name.clone(),
                            Expr::Path {
                                segs: vec![name],
                                span,
                            },
                        ));
                    }
                } else {
                    self.skip_balanced();
                }
                if self.is_punct(0, b',') {
                    self.bump();
                }
            }
            return Expr::StructLit {
                path: segs.join("::"),
                fields,
                span,
            };
        }
        Expr::Path { segs, span }
    }
}

/// True when a path is actually a keyword that cannot head a struct
/// literal.
fn is_keyword_path(segs: &[String]) -> bool {
    segs.len() == 1
        && matches!(
            segs[0].as_str(),
            "if" | "else" | "match" | "while" | "for" | "loop" | "return" | "break" | "continue"
        )
}

/// Joins tokens into readable text (idents separated by a space, `::`
/// and punctuation tight).
fn join_tokens(toks: &[Token]) -> String {
    let mut out = String::new();
    let mut prev_ident = false;
    for t in toks {
        match &t.kind {
            TokenKind::Ident | TokenKind::Number => {
                if prev_ident {
                    out.push(' ');
                }
                out.push_str(if t.text.is_empty() { "?" } else { &t.text });
                prev_ident = true;
            }
            TokenKind::Punct(b) => {
                out.push(*b as char);
                prev_ident = false;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{mask, tokenize};

    fn parse(src: &str) -> File {
        parse_file(&tokenize(&mask(src).text))
    }

    fn first_fn(file: &File) -> &Item {
        file.items
            .iter()
            .flat_map(|i| std::iter::once(i).chain(i.items.iter()))
            .find(|i| i.kind == ItemKind::Fn)
            .expect("no fn parsed")
    }

    /// Every expression in `item`'s body and nested items, closures
    /// included.
    fn walk_exprs<'a>(item: &'a Item, f: &mut dyn FnMut(&'a Expr)) {
        if let Some(b) = &item.body {
            crate::callgraph::walk_body(b, false, &mut |e, _| f(e));
        }
        for i in &item.items {
            walk_exprs(i, f);
        }
    }

    fn exprs_of(src: &str) -> Vec<String> {
        let file = parse(src);
        let mut out = Vec::new();
        for i in &file.items {
            walk_exprs(i, &mut |e| out.push(kind_name(e)));
        }
        out
    }

    fn kind_name(e: &Expr) -> String {
        match e {
            Expr::Path { segs, .. } => format!("path:{}", segs.join("::")),
            Expr::Lit { text, .. } => format!("lit:{text}"),
            Expr::Call { .. } => "call".into(),
            Expr::MethodCall { name, .. } => format!("method:{name}"),
            Expr::Field { name, .. } => format!("field:{name}"),
            Expr::Index { .. } => "index".into(),
            Expr::Unary { op, .. } => format!("unary:{op}"),
            Expr::Binary { op, .. } => format!("bin:{op}"),
            Expr::Cast { ty, .. } => format!("cast:{ty}"),
            Expr::Try { .. } => "try".into(),
            Expr::Block(_) => "block".into(),
            Expr::Control { kw, .. } => format!("ctrl:{kw}"),
            Expr::Closure { .. } => "closure".into(),
            Expr::Group { .. } => "group".into(),
            Expr::StructLit { path, .. } => format!("struct:{path}"),
            Expr::Jump { kw, .. } => format!("jump:{kw}"),
            Expr::Macro { name, .. } => format!("macro:{name}"),
            Expr::Opaque { .. } => "opaque".into(),
        }
    }

    #[test]
    fn parses_fn_signature_and_body() {
        let f = parse("pub fn add(a: u64, b: Time) -> u64 { a + b }\n");
        let item = first_fn(&f);
        assert_eq!(item.name.as_deref(), Some("add"));
        assert_eq!(
            item.params,
            vec![
                ("a".to_string(), "u64".to_string()),
                ("b".to_string(), "Time".to_string())
            ]
        );
        assert_eq!(item.ret.as_deref(), Some("u64"));
        let body = item.body.as_ref().expect("body");
        assert_eq!(body.stmts.len(), 1);
    }

    #[test]
    fn impl_blocks_capture_target_type_trait_and_receiver() {
        let f = parse(
            "struct Pool;\n\
             impl Pool { fn run(&mut self, n: u64) {} fn make() -> Pool { Pool } }\n\
             impl Drop for Pool { fn drop(&mut self) {} }\n\
             impl<T: Clone> From<Vec<T>> for Pool { fn from(v: Vec<T>) -> Pool { Pool } }\n",
        );
        let impls: Vec<&Item> = f
            .items
            .iter()
            .filter(|i| i.kind == ItemKind::Impl)
            .collect();
        assert_eq!(impls.len(), 3);
        assert_eq!(impls[0].impl_ty.as_deref(), Some("Pool"));
        assert_eq!(impls[0].trait_of, None);
        assert_eq!(impls[0].items[0].self_param.as_deref(), Some("&mut self"));
        assert_eq!(
            impls[0].items[1].self_param, None,
            "assoc fn has no receiver"
        );
        assert_eq!(impls[1].impl_ty.as_deref(), Some("Pool"));
        assert_eq!(impls[1].trait_of.as_deref(), Some("Drop"));
        assert_eq!(impls[2].impl_ty.as_deref(), Some("Pool"));
        assert_eq!(impls[2].trait_of.as_deref(), Some("From<Vec<T>>"));
    }

    #[test]
    fn cast_binds_tighter_than_binary() {
        // `a as u32 + b` must parse as `(a as u32) + b`.
        let kinds = exprs_of("fn f(a: u64, b: u32) -> u32 { a as u32 + b }");
        assert_eq!(kinds[0], "bin:+");
        assert_eq!(kinds[1], "cast:u32");
    }

    #[test]
    fn cast_to_generic_and_pointer_types() {
        let kinds = exprs_of("fn f(x: usize) { let p = x as *const u8; let q = x as f64 * 2.0; }");
        assert!(kinds.iter().any(|k| k == "cast:*const u8"), "{kinds:?}");
        assert!(kinds.iter().any(|k| k == "cast:f64"), "{kinds:?}");
        assert!(kinds.iter().any(|k| k == "bin:*"), "{kinds:?}");
    }

    #[test]
    fn method_chains_and_turbofish() {
        let kinds = exprs_of(
            "fn f(v: Vec<u64>) -> usize { v.iter().map(|x| x + 1).collect::<Vec<_>>().len() }",
        );
        assert!(kinds.iter().any(|k| k == "method:len"));
        assert!(kinds.iter().any(|k| k == "method:collect"));
        assert!(kinds.iter().any(|k| k == "closure"));
        assert!(kinds.iter().any(|k| k == "bin:+"));
    }

    #[test]
    fn let_bindings_capture_name_type_and_underscore() {
        let f = parse("fn f() { let x: Time = now(); let _ = send(); let (a, b) = pair; }");
        let body = first_fn(&f).body.as_ref().expect("body");
        let Stmt::Let { name, ty, .. } = &body.stmts[0] else {
            panic!("not let");
        };
        assert_eq!(name.as_deref(), Some("x"));
        assert_eq!(ty.as_deref(), Some("Time"));
        let Stmt::Let {
            underscore, init, ..
        } = &body.stmts[1]
        else {
            panic!("not let");
        };
        assert!(*underscore);
        assert!(init.is_some());
        let Stmt::Let { name, .. } = &body.stmts[2] else {
            panic!("not let");
        };
        assert!(name.is_none(), "destructuring pattern has no single name");
    }

    #[test]
    fn struct_fields_are_indexed() {
        let f = parse("pub struct Job { pub submit: Time, pub nodes: u32, flag: bool }");
        let s = &f.items[0];
        assert_eq!(s.kind, ItemKind::Struct);
        assert_eq!(s.name.as_deref(), Some("Job"));
        let names: Vec<_> = s
            .fields
            .iter()
            .map(|f| (f.name.as_str(), f.ty.as_str()))
            .collect();
        assert_eq!(
            names,
            vec![("submit", "Time"), ("nodes", "u32"), ("flag", "bool")]
        );
    }

    #[test]
    fn type_alias_and_const() {
        let f = parse("pub type Time = u64;\npub const HOUR: Time = 3_600;\n");
        assert_eq!(f.items[0].kind, ItemKind::TypeAlias);
        assert_eq!(f.items[0].name.as_deref(), Some("Time"));
        assert_eq!(f.items[1].kind, ItemKind::Const);
        assert_eq!(f.items[1].name.as_deref(), Some("HOUR"));
    }

    #[test]
    fn impl_blocks_nest_methods() {
        let f = parse("impl Foo { pub fn bar(&self) -> Result<(), E> { Ok(()) } fn baz() {} }");
        let imp = &f.items[0];
        assert_eq!(imp.kind, ItemKind::Impl);
        assert_eq!(imp.items.len(), 2);
        assert_eq!(imp.items[0].name.as_deref(), Some("bar"));
        assert_eq!(imp.items[0].ret.as_deref(), Some("Result<(),E>"));
        assert!(imp.items[0].params.is_empty(), "self receiver is omitted");
    }

    #[test]
    fn if_else_chains_and_struct_literal_ambiguity() {
        // `if draining {` must not parse `draining {}` as a struct literal.
        let kinds = exprs_of("fn f(draining: bool) { if draining { a() } else { b() } }");
        assert_eq!(kinds[0], "ctrl:if");
        assert!(kinds.contains(&"path:draining".to_string()));
        assert!(kinds.iter().filter(|k| *k == "block").count() >= 2);
        // ... but a real struct literal in normal position parses.
        let kinds = exprs_of("fn f() { let j = Job { submit: 1, nodes: n }; }");
        assert!(kinds.contains(&"struct:Job".to_string()), "{kinds:?}");
    }

    /// Regression: long `else if` chains must parse as *nested*
    /// conditionals — every arm a real `ctrl:if` with its block — never
    /// degrade to `Expr::Opaque`.  The CFG layer builds branch edges
    /// from this nesting.
    #[test]
    fn else_if_chains_parse_as_nested_conditionals() {
        let srcs = [
            "fn f(x: u32) -> u32 { if x == 1 { 1 } else if x == 2 { 2 } \
             else if x == 3 { 3 } else if x == 4 { 4 } else { 0 } }",
            // Tail chain without a final else.
            "fn f(x: u32) { if a() { p(); } else if b() { q(); } else if c() { r(); } }",
            // `else if let` arms.
            "fn f(x: Option<u32>, z: Option<u32>) -> u32 \
             { if let Some(a) = x { a } else if let Some(b) = z { b } \
             else if c() { 3 } else { 0 } }",
        ];
        for src in srcs {
            let f = parse(src);
            let mut ifs = 0usize;
            let mut opaques = 0usize;
            walk_exprs(&f.items[0], &mut |e| match e {
                Expr::Control { kw, parts, .. } if kw == "if" => {
                    ifs += 1;
                    assert!(parts.len() >= 2, "if without cond+block: {src}");
                }
                Expr::Opaque { .. } => opaques += 1,
                _ => {}
            });
            assert!(ifs >= 3, "chain lost arms ({ifs} ifs): {src}");
            assert_eq!(opaques, 0, "chain degraded to Opaque: {src}");
        }
    }

    /// Regression: `let .. else { .. }` keeps its diverging block (it
    /// carries early returns the CFG needs) and a single-binding
    /// destructure records its name.
    #[test]
    fn let_else_keeps_block_and_single_binding_name() {
        let f =
            parse("fn f(x: Option<u32>) -> u32 { let Some(v) = x else { log(); return 0; }; v }");
        let body = first_fn(&f).body.as_ref().expect("body");
        let Stmt::Let {
            name, else_block, ..
        } = &body.stmts[0]
        else {
            panic!("not let");
        };
        assert_eq!(name.as_deref(), Some("v"));
        let eb = else_block.as_ref().expect("else block kept");
        assert_eq!(eb.stmts.len(), 2, "else-block stmts visible");
        assert!(
            matches!(&eb.stmts[1], Stmt::Expr { expr: Expr::Jump { kw, .. }, .. } if kw == "return")
        );

        // Multi-binding patterns stay anonymous (ambiguity -> silence).
        let f = parse("fn f(p: (u32, u32)) { let (a, b) = p; g(a, b); }");
        let body = first_fn(&f).body.as_ref().expect("body");
        let Stmt::Let { name, .. } = &body.stmts[0] else {
            panic!("not let");
        };
        assert!(name.is_none());
    }

    /// Regression: labeled loops parse as labeled Controls and labeled
    /// jumps keep their target — `'outer:` must not derail into Opaque.
    #[test]
    fn labeled_loops_and_jumps_parse() {
        let f = parse(
            "fn f() { 'outer: loop { for i in 0..10 { if i == 3 { break 'outer; } \
             else if i == 5 { continue 'outer; } } } }",
        );
        let mut saw_loop_label = None;
        let mut jump_labels = Vec::new();
        let mut opaques = 0usize;
        walk_exprs(&f.items[0], &mut |e| match e {
            Expr::Control { kw, label, .. } if kw == "loop" => {
                saw_loop_label = label.clone();
            }
            Expr::Jump { kw, label, .. } if kw != "return" => {
                jump_labels.push((kw.clone(), label.clone()));
            }
            Expr::Opaque { .. } => opaques += 1,
            _ => {}
        });
        assert_eq!(saw_loop_label.as_deref(), Some("outer"));
        assert_eq!(
            jump_labels,
            vec![
                ("break".to_string(), Some("outer".to_string())),
                ("continue".to_string(), Some("outer".to_string())),
            ]
        );
        assert_eq!(opaques, 0, "label tokens must not become Opaque");
    }

    #[test]
    fn match_arms_contribute_expressions() {
        let kinds =
            exprs_of("fn f(x: Option<u32>) -> u32 { match x { Some(v) => v + 1, None => 0, } }");
        assert_eq!(kinds[0], "ctrl:match");
        assert!(kinds.contains(&"bin:+".to_string()));
        assert!(kinds.contains(&"lit:0".to_string()));
    }

    #[test]
    fn compound_assignment_is_a_binary_node() {
        let kinds = exprs_of("fn f(mut t: Time, gap: Time) { t += gap; t -= 1; t *= 2; }");
        assert!(kinds.contains(&"bin:+=".to_string()), "{kinds:?}");
        assert!(kinds.contains(&"bin:-=".to_string()));
        assert!(kinds.contains(&"bin:*=".to_string()));
    }

    #[test]
    fn ranges_do_not_capture_loop_bodies() {
        let kinds = exprs_of("fn f(n: u64) { for i in 0..n { g(i); } }");
        assert_eq!(kinds[0], "ctrl:for");
        assert!(kinds.contains(&"bin:..".to_string()));
        assert!(kinds.iter().any(|k| k == "call"));
    }

    #[test]
    fn use_items_record_their_path() {
        let f =
            parse("use std::collections::BTreeMap;\npub use crate::engine::{lint, Diagnostic};\n");
        assert_eq!(f.items[0].kind, ItemKind::Use);
        assert_eq!(
            f.items[0].use_path.as_deref(),
            Some("std::collections::BTreeMap")
        );
        assert_eq!(f.items[1].kind, ItemKind::Use);
    }

    #[test]
    fn unbalanced_input_terminates_without_panic() {
        for src in [
            "fn f( {",
            "fn f() { let x = (1 + ; }",
            "impl { fn",
            "match x { Some(",
            "fn f() { a.b.(c }",
            "let x = [1, 2",
            ")))(((",
            "fn f<'a>(x: &'a str) -> &'a str { x }",
        ] {
            let _ = parse(src); // must not hang or panic
        }
    }

    #[test]
    fn spans_point_at_defining_tokens() {
        let f = parse("fn f(t: Time) -> Time {\n    t + 1\n}\n");
        let mut cast_span = None;
        walk_exprs(&f.items[0], &mut |e| {
            if let Expr::Binary { op, span, .. } = e {
                if op == "+" {
                    cast_span = Some(*span);
                }
            }
        });
        let s = cast_span.expect("binary parsed");
        assert_eq!((s.line, s.col), (2, 7));
    }

    #[test]
    fn question_mark_and_jumps() {
        let kinds = exprs_of("fn f() -> Result<u32, E> { let v = g()?; return Ok(v); }");
        assert!(kinds.contains(&"try".to_string()));
        assert!(kinds.contains(&"jump:return".to_string()));
    }

    /// The masking lexer turns string/char literals into pure
    /// whitespace — no token remains.  A literal in operand position
    /// (`*name == "..."`) therefore reaches the parser as a *missing*
    /// operand, and the primary-expression fallback used to consume
    /// whatever came next — often the enclosing call's `)` — which
    /// desynchronized every bracket after it and silently swallowed the
    /// rest of the file into one opaque item.  These pin the fix: the
    /// fallback must never eat a closing delimiter or separator.
    #[test]
    fn masked_literal_as_operand_does_not_desync_the_parser() {
        for src in [
            // String rhs inside a closure inside a call chain (the
            // shape that swallowed half of fleet.rs).
            "fn a(v: Vec<(String, u32)>) -> bool {\n\
             \x20   v.iter().find(|(name, _)| *name == \"x\").is_some()\n\
             }\n\
             fn b() { after(); }\n",
            // Char and string literals in other operand positions.
            "fn a(s: &str) -> bool { s.starts_with('#') || s == \"y\" }\nfn b() {}\n",
            "fn a() { log(\"msg\", 1); }\nfn b() {}\n",
        ] {
            let f = parse(src);
            let fns: Vec<String> = f
                .items
                .iter()
                .filter(|i| i.kind == ItemKind::Fn)
                .map(|i| i.name.clone().unwrap_or_default())
                .collect();
            assert_eq!(fns, ["a", "b"], "item list desynced for:\n{src}");
        }
    }

    /// Statements *after* a masked literal in the same body must still
    /// be visible — a swallowed suffix would hide real findings (this
    /// is exactly how a lock-across-blocking bug went unreported).
    #[test]
    fn statements_after_masked_literal_stay_visible() {
        let f = parse(
            "fn f(m: &Mutex<u32>) {\n\
             \x20   let tag = kind == \"snapshot\";\n\
             \x20   let g = m.lock();\n\
             \x20   body();\n\
             }\n",
        );
        let body = first_fn(&f).body.as_ref().expect("body");
        assert_eq!(body.stmts.len(), 3, "suffix swallowed: {body:?}");
        let Stmt::Let { name, .. } = &body.stmts[1] else {
            panic!("lock binding lost");
        };
        assert_eq!(name.as_deref(), Some("g"));
    }
}
