//! The workspace's one JSON layer: a strict zero-dependency parser into
//! [`JsonValue`], and the deterministic writer ([`Obj`], [`push_f64`],
//! [`push_json_string`], [`render_value`]) behind every byte-stable
//! output — trace lines, serve responses, drill reports.
//!
//! The parser accepts RFC 8259 JSON and nothing looser. Duplicate object
//! keys, raw control characters in strings, lone surrogate `\u` escapes,
//! numbers outside the grammar or the finite `f64` range (`01`, `1e999`)
//! and nesting deeper than [`MAX_DEPTH`] are all [`JsonError`]s, so one
//! hostile line fails with a typed error instead of overflowing the
//! stack. Numbers are kept as `f64`: everything the writer emits
//! round-trips exactly, and [`JsonValue::as_u64`] yields integers only up
//! to 2^53, where `f64` is still exact.
//!
//! The writer uses a fixed field order, shortest round-trip floats
//! (non-finite ones become `null`) and no whitespace, so equal inputs
//! render to equal strings.
//!
//! The parser's tests live in `analysis` and in `pipette-cli`'s
//! `jsonscan`, the writer's in `event`.

use std::fmt;
use std::fmt::Write as _;

/// Deepest array/object nesting [`parse`] accepts.
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (always finite).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, in source order (duplicate keys are a parse error).
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is a whole number no
    /// larger than 2^53 (beyond that `f64` no longer holds every integer).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(n)
                if *n >= 0.0 && n.fract() == 0.0 && *n <= 9.007_199_254_740_992e15 =>
            {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Looks up an object member; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// A short name for the value's type, for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            JsonValue::Null => "null",
            JsonValue::Bool(_) => "boolean",
            JsonValue::Number(_) => "number",
            JsonValue::String(_) => "string",
            JsonValue::Array(_) => "array",
            JsonValue::Object(_) => "object",
        }
    }
}

/// A syntax error with the byte offset where parsing stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// Parses one complete JSON document. Surrounding whitespace is allowed;
/// anything else after the value is an error.
///
/// # Errors
///
/// [`JsonError`] describing the first problem.
pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_byte(&mut self, b: u8, message: &str) -> Result<(), JsonError> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(self.err(message))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        match self.bytes.get(self.pos) {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("expected a value")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.expect_byte(b'{', "expected '{'")?;
        let mut members: Vec<(String, JsonValue)> = Vec::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(JsonValue::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if members.iter().any(|(k, _)| *k == key) {
                return Err(self.err(format!("duplicate key {key:?}")));
            }
            self.skip_ws();
            self.expect_byte(b':', "expected ':'")?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            if self.eat(b',') {
                continue;
            }
            self.expect_byte(b'}', "expected ',' or '}' in object")?;
            return Ok(JsonValue::Object(members));
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.expect_byte(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            if self.eat(b',') {
                continue;
            }
            self.expect_byte(b']', "expected ',' or ']' in array")?;
            return Ok(JsonValue::Array(items));
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect_byte(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            // Copy the run of plain characters in one go. It ends on an
            // ASCII byte, so it is whole UTF-8 characters of the input.
            let rest = &self.bytes[self.pos..];
            let len = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .unwrap_or(rest.len());
            match std::str::from_utf8(&rest[..len]) {
                Ok(s) => out.push_str(s),
                Err(_) => return Err(self.err("invalid UTF-8")),
            }
            self.pos += len;
            match self.bytes.get(self.pos) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(_) => return Err(self.err("control character in string")),
            }
        }
    }

    /// Decodes one escape sequence; the cursor is just past the backslash.
    fn escape(&mut self) -> Result<char, JsonError> {
        let c = match self.bytes.get(self.pos) {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                let high = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&high) && self.eat(b'\\') && self.eat(b'u')
                {
                    let low = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&low) {
                        return Err(self.err("lone surrogate in \\u escape"));
                    }
                    0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00)
                } else {
                    high
                };
                // `from_u32` refuses exactly the surrogates left unpaired.
                return char::from_u32(code)
                    .ok_or_else(|| self.err("lone surrogate in \\u escape"));
            }
            _ => return Err(self.err("invalid escape sequence")),
        };
        self.pos += 1;
        Ok(c)
    }

    /// Reads exactly four hex digits at the cursor.
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let Some(digits) = self.bytes.get(self.pos..self.pos + 4) else {
            return Err(self.err("truncated \\u escape"));
        };
        let mut code = 0;
        for &b in digits {
            let Some(digit) = char::from(b).to_digit(16) else {
                return Err(self.err("invalid \\u escape"));
            };
            code = code * 16 + digit;
        }
        self.pos += 4;
        Ok(code)
    }

    /// Consumes a run of ASCII digits; false when there was none.
    fn digits(&mut self) -> bool {
        let start = self.pos;
        while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos > start
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`
    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        self.eat(b'-');
        let mut well_formed = self.eat(b'0') || self.digits();
        if well_formed && self.eat(b'.') {
            well_formed = self.digits();
        }
        if well_formed && (self.eat(b'e') || self.eat(b'E')) {
            let _ = self.eat(b'+') || self.eat(b'-');
            well_formed = self.digits();
        }
        if !well_formed {
            return Err(self.err("invalid number"));
        }
        let value = std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|text| text.parse::<f64>().ok())
            .ok_or_else(|| self.err("invalid number"))?;
        if !value.is_finite() {
            return Err(self.err("number out of range"));
        }
        Ok(JsonValue::Number(value))
    }
}

/// Minimal JSON object writer with a fixed field order.
pub struct Obj<'a> {
    out: &'a mut String,
}

impl<'a> Obj<'a> {
    /// Starts an object at the end of `out`.
    pub fn open(out: &'a mut String) -> Self {
        out.push('{');
        Self { out }
    }

    fn key(&mut self, name: &str) {
        if !self.out.ends_with('{') {
            self.out.push(',');
        }
        push_json_string(self.out, name);
        self.out.push(':');
    }

    /// Writes an unsigned integer member.
    pub fn uint(&mut self, name: &str, v: u64) {
        self.key(name);
        push_uint(self.out, v);
    }

    /// Writes a float member ([`push_f64`]).
    pub fn float(&mut self, name: &str, v: f64) {
        self.key(name);
        push_f64(self.out, v);
    }

    /// Writes a boolean member.
    pub fn boolean(&mut self, name: &str, v: bool) {
        self.key(name);
        self.out.push_str(if v { "true" } else { "false" });
    }

    /// Writes a string member.
    pub fn string(&mut self, name: &str, v: &str) {
        self.key(name);
        push_json_string(self.out, v);
    }

    /// Writes a pre-rendered JSON value (object, array, `null`) verbatim.
    pub fn raw(&mut self, name: &str, v: &str) {
        self.key(name);
        self.out.push_str(v);
    }

    /// Writes a nested object member whose members `fill` writes.
    pub fn object(&mut self, name: &str, fill: impl FnOnce(&mut Obj<'_>)) {
        self.key(name);
        push_object(self.out, fill);
    }

    /// Writes an array member, each element written by `push`
    /// ([`push_array`]).
    pub fn array<I: IntoIterator>(
        &mut self,
        name: &str,
        items: I,
        push: impl FnMut(&mut String, I::Item),
    ) {
        self.key(name);
        push_array(self.out, items, push);
    }

    /// Ends the object.
    pub fn close(self) {
        self.out.push('}');
    }
}

/// Appends one object whose members `fill` writes.
pub fn push_object(out: &mut String, fill: impl FnOnce(&mut Obj<'_>)) {
    let mut o = Obj::open(out);
    fill(&mut o);
    o.close();
}

/// Appends `items` as one JSON array, each element written by `push`
/// (e.g. [`push_uint`], [`push_f64`], [`push_object`]).
pub fn push_array<I: IntoIterator>(
    out: &mut String,
    items: I,
    mut push: impl FnMut(&mut String, I::Item),
) {
    out.push('[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push(out, item);
    }
    out.push(']');
}

/// Appends an unsigned integer.
pub fn push_uint(out: &mut String, v: u64) {
    let _ = write!(out, "{v}");
}

/// Appends the shortest-round-trip form of `v`; non-finite values become
/// `null` (JSON has no NaN/Inf).
pub fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        // Rust's `Display` for f64 is the shortest decimal string that
        // parses back to the same bits, and never uses exponent notation,
        // so it is always a valid JSON number.
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Appends `s` as a quoted JSON string, escaping quotes, backslashes and
/// control characters.
pub fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Renders a parsed [`JsonValue`] back to canonical single-line JSON:
/// source key order, no whitespace, shortest round-trip numbers.
pub fn render_value(value: &JsonValue) -> String {
    let mut out = String::new();
    push_value(&mut out, value);
    out
}

fn push_value(out: &mut String, value: &JsonValue) {
    match value {
        JsonValue::Null => out.push_str("null"),
        JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        JsonValue::Number(n) => push_f64(out, *n),
        JsonValue::String(s) => push_json_string(out, s),
        JsonValue::Array(items) => push_array(out, items, push_value),
        JsonValue::Object(members) => push_object(out, |o| {
            for (k, v) in members {
                o.key(k);
                push_value(o.out, v);
            }
        }),
    }
}
