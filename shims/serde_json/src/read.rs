//! The one JSON grammar: a strict recursive-descent pull reader.
//!
//! [`Reader`] walks a document token by token without building a tree:
//! each [`Reader::item`] reads one scalar whole, or opens an array or
//! object whose members the caller then pulls with [`Reader::element`]
//! or [`Reader::key`].  Strings and keys are borrowed from the input
//! when they hold no escape.  [`crate::from_str`] builds its [`Value`]
//! tree on the same routines, so both see the same syntax errors, at
//! the same byte offsets.

use crate::value::{Map, Number, Value};
use crate::Error;
use std::borrow::Cow;

/// Nesting bound: protocol inputs are adversarial (network-facing), so a
/// deep `[[[[...` must not blow the stack.  Every value counts, scalars
/// included: the top-level value is at depth 1.
const MAX_DEPTH: usize = 128;

/// The start of one value, as [`Reader::item`] reads it.
#[derive(Debug, PartialEq)]
pub enum Item<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, typed as [`Number`] types it.
    Number(Number),
    /// A string, borrowed unless it holds an escape.
    Str(Cow<'a, str>),
    /// An opened array: pull its elements with [`Reader::element`].
    Array(Seq),
    /// An opened object: pull its keys with [`Reader::key`].
    Object(Seq),
}

/// Where the reader stands inside one opened array or object.
#[derive(Debug, PartialEq, Eq)]
pub struct Seq {
    first: bool,
}

/// A pull reader over one JSON document.
#[derive(Debug)]
pub struct Reader<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Reader<'a> {
    /// A reader positioned before the document's one value.
    pub fn new(text: &'a str) -> Self {
        Reader {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    /// Reads the next value: a scalar whole, or the opening bracket of
    /// an array or object.  An opened container must be read to its end
    /// ([`Reader::element`] returning `false`, [`Reader::key`] returning
    /// `None`) or skipped with [`Reader::skip_rest`].
    pub fn item(&mut self) -> Result<Item<'a>, Error> {
        self.skip_ws();
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        let item = match self.peek() {
            Some(b'n') => self.literal("null", Item::Null)?,
            Some(b't') => self.literal("true", Item::Bool(true))?,
            Some(b'f') => self.literal("false", Item::Bool(false))?,
            Some(b'"') => Item::Str(self.string()?),
            Some(b'[') => {
                self.pos += 1;
                return Ok(Item::Array(Seq { first: true }));
            }
            Some(b'{') => {
                self.pos += 1;
                return Ok(Item::Object(Seq { first: true }));
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => Item::Number(self.number()?),
            Some(_) => return Err(self.err("unexpected character")),
            None => return Err(self.err("unexpected end of input")),
        };
        self.depth -= 1;
        Ok(item)
    }

    /// Steps to the next element of the array `seq` opened: `true` when
    /// one follows (read it with [`Reader::item`]), `false` once the
    /// closing `]` is consumed.
    pub fn element(&mut self, seq: &mut Seq) -> Result<bool, Error> {
        self.skip_ws();
        let first = std::mem::replace(&mut seq.first, false);
        match self.peek() {
            Some(b']') if first => {}
            _ if first => return Ok(true),
            Some(b',') => {
                self.pos += 1;
                return Ok(true);
            }
            Some(b']') => {}
            _ => return Err(self.err("expected ',' or ']'")),
        }
        self.pos += 1;
        self.depth -= 1;
        Ok(false)
    }

    /// Reads the next key of the object `seq` opened, and the `:` after
    /// it (read its value with [`Reader::item`]); `None` once the closing
    /// `}` is consumed.
    pub fn key(&mut self, seq: &mut Seq) -> Result<Option<Cow<'a, str>>, Error> {
        self.skip_ws();
        let first = std::mem::replace(&mut seq.first, false);
        match self.peek() {
            Some(b'}') => {
                self.pos += 1;
                self.depth -= 1;
                return Ok(None);
            }
            _ if first => {}
            Some(b',') => {
                self.pos += 1;
                self.skip_ws();
            }
            _ => return Err(self.err("expected ',' or '}'")),
        }
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':')?;
        Ok(Some(key))
    }

    /// Skips one whole value, checking its syntax and depth.
    pub fn skip(&mut self) -> Result<(), Error> {
        let item = self.item()?;
        self.skip_rest(item)
    }

    /// Skips what is left of `item`: the members of an opened container
    /// (a scalar has none).
    pub fn skip_rest(&mut self, item: Item<'a>) -> Result<(), Error> {
        match item {
            Item::Array(mut seq) => {
                while self.element(&mut seq)? {
                    self.skip()?;
                }
            }
            Item::Object(mut seq) => {
                while self.key(&mut seq)?.is_some() {
                    self.skip()?;
                }
            }
            _ => {}
        }
        Ok(())
    }

    /// Reads one whole value into a [`Value`] tree.
    pub(crate) fn value(&mut self) -> Result<Value, Error> {
        Ok(match self.item()? {
            Item::Null => Value::Null,
            Item::Bool(b) => Value::Bool(b),
            Item::Number(n) => Value::Number(n),
            Item::Str(s) => Value::String(s.into_owned()),
            Item::Array(mut seq) => {
                let mut items = Vec::new();
                while self.element(&mut seq)? {
                    items.push(self.value()?);
                }
                Value::Array(items)
            }
            Item::Object(mut seq) => {
                let mut map = Map::new();
                while let Some(key) = self.key(&mut seq)? {
                    let value = self.value()?;
                    map.insert(key.into_owned(), value);
                }
                Value::Object(map)
            }
        })
    }

    /// Checks that nothing but whitespace follows the document's value.
    pub fn finish(&mut self) -> Result<(), Error> {
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing characters after value"));
        }
        Ok(())
    }

    fn err(&self, msg: &str) -> Error {
        Error::new(msg, self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, word: &str, item: Item<'a>) -> Result<Item<'a>, Error> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(item)
        } else {
            Err(self.err(&format!("invalid literal (expected {word})")))
        }
    }

    /// Advances over bytes that stand for themselves inside a string:
    /// everything but `"`, `\` and control characters.  It stops only
    /// at ASCII bytes, so `pos` stays on a character boundary.
    fn plain_run(&mut self) {
        while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
            self.pos += 1;
        }
    }

    fn string(&mut self) -> Result<Cow<'a, str>, Error> {
        self.expect(b'"')?;
        let start = self.pos;
        self.plain_run();
        if self.peek() == Some(b'"') {
            self.pos += 1;
            return Ok(Cow::Borrowed(&self.text[start..self.pos - 1]));
        }
        let mut out = String::from(&self.text[start..self.pos]);
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            out.push(self.unicode_escape()?);
                            continue; // hex4 advanced past the digits
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("control character in string")),
                Some(_) => {
                    let run = self.pos;
                    self.plain_run();
                    out.push_str(&self.text[run..self.pos]);
                }
            }
        }
    }

    /// The character a `\u` escape names, surrogate pairs joined;
    /// `pos` is past the `u`.
    fn unicode_escape(&mut self) -> Result<char, Error> {
        let cp = self.hex4()?;
        if (0xD800..0xDC00).contains(&cp) {
            if !self.bytes[self.pos..].starts_with(b"\\u") {
                return Err(self.err("lone high surrogate"));
            }
            self.pos += 2;
            let lo = self.hex4()?;
            if !(0xDC00..0xE000).contains(&lo) {
                return Err(self.err("invalid low surrogate"));
            }
            let n = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
            char::from_u32(n).ok_or_else(|| self.err("bad code point"))
        } else if (0xDC00..0xE000).contains(&cp) {
            Err(self.err("lone low surrogate"))
        } else {
            char::from_u32(cp).ok_or_else(|| self.err("bad code point"))
        }
    }

    /// Four ASCII hex digits, exactly: no sign, as JSON spells them.
    fn hex4(&mut self) -> Result<u32, Error> {
        let chunk = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let v = chunk.iter().try_fold(0u32, |v, &b| {
            char::from(b)
                .to_digit(16)
                .map(|d| v << 4 | d)
                .ok_or_else(|| self.err("bad \\u escape"))
        })?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Number, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int_start = self.pos;
        let int_digits = self.digit_run()?;
        if int_digits > 1 && self.bytes[int_start] == b'0' {
            return Err(self.err("leading zero"));
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            self.digit_run()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digit_run()?;
        }
        if !is_float {
            // An integer is an `Int` when it fits `i64`, else a `UInt`
            // when it fits `u64`, else a float like any other number.
            let magnitude = self.bytes[int_start..self.pos]
                .iter()
                .try_fold(0u64, |m, &d| {
                    m.checked_mul(10)?.checked_add(u64::from(d - b'0'))
                });
            match (int_start > start, magnitude) {
                (false, Some(m)) => {
                    return Ok(i64::try_from(m).map_or(Number::UInt(m), Number::Int))
                }
                (true, Some(m)) if m <= i64::MIN.unsigned_abs() => {
                    return Ok(Number::Int(0i64.wrapping_sub_unsigned(m)))
                }
                _ => {}
            }
        }
        self.text[start..self.pos]
            .parse::<f64>()
            .map(Number::Float)
            .map_err(|_| self.err("invalid number"))
    }

    fn digit_run(&mut self) -> Result<usize, Error> {
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected digit"));
        }
        Ok(self.pos - start)
    }
}
