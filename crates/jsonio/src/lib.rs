//! Minimal lossless JSON for the metering stack.
//!
//! The designer's lock database and the benchmark harness's trace files
//! both need a wire format in an environment without crates.io. This crate
//! implements a small JSON value model with three properties the stack
//! depends on:
//!
//! 1. **Lossless integers.** `u64`/`i64` round-trip exactly (scramble codes
//!    and key symbols are full-width random words; an f64-backed model
//!    would corrupt them above 2⁵³).
//! 2. **Deterministic output.** Objects keep insertion order and floats
//!    print via Rust's shortest-roundtrip formatter, so equal values always
//!    produce byte-identical text — the determinism contract of the
//!    evaluation harness extends to its JSON artifacts.
//! 3. **Strict, total parsing.** The parser accepts exactly the JSON this
//!    crate writes (plus standard whitespace), never panics on malformed
//!    input, and reports positioned errors.
//!
//! On top of the value model, [`StrictObj`] is the one reader every
//! fixed-schema decoder in the workspace uses: unknown, missing,
//! ill-typed and duplicated fields are all errors. The crate also holds
//! the workspace's one FNV-1a ([`fnv1a`]), because it sits below every
//! crate that mints a hash identifier.

#![forbid(unsafe_code)]

use std::fmt;

/// FNV-1a 64-bit offset basis: the starting state of [`fnv1a`].
pub const FNV1A_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into a 64-bit FNV-1a state (start from [`FNV1A_BASIS`]).
/// Journal digests, trace and span ids, metric shard placement and ring
/// points all hash through this one function, so equal inputs give equal
/// identifiers everywhere.
#[inline]
pub fn fnv1a(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= u64::from(b);
        state = state.wrapping_mul(0x0000_0100_0000_01b3);
    }
    state
}

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Unsigned integer, written without decimal point.
    U64(u64),
    /// Negative integer, written without decimal point.
    I64(i64),
    /// Finite float (NaN/inf are rejected at write time).
    F64(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object; insertion-ordered.
    Obj(Vec<(String, Json)>),
}

/// A positioned parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the error.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

impl Json {
    /// Convenience constructor for an object.
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Looks up a field of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `u64` (accepting non-negative `I64`).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(v) => Some(*v),
            Json::I64(v) if *v >= 0 => Some(*v as u64),
            _ => None,
        }
    }

    /// The value as `f64` (accepting integers).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::F64(v) => Some(*v),
            Json::U64(v) => Some(*v as f64),
            Json::I64(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The value as `usize`.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().map(|v| v as usize)
    }

    /// The value as `bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Serializes with two-space indentation (stable, human-diffable).
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(v) => out.push_str(&v.to_string()),
            Json::I64(v) => out.push_str(&v.to_string()),
            Json::F64(v) => write_f64(*v, out),
            Json::Str(s) => write_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    out.push_str(&"  ".repeat(indent + 1));
                    item.write_pretty(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push(']');
            }
            Json::Obj(fields) if !fields.is_empty() => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    out.push_str(&"  ".repeat(indent + 1));
                    write_string(k, out);
                    out.push_str(": ");
                    v.write_pretty(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push('}');
            }
            other => other.write(out),
        }
    }

    /// Parses JSON text.
    ///
    /// # Errors
    ///
    /// Returns a positioned [`ParseError`] on malformed input or trailing
    /// garbage.
    pub fn parse(text: &str) -> Result<Json, ParseError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.parse_value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.error("trailing characters after value"));
        }
        Ok(value)
    }
}

impl fmt::Display for Json {
    /// Compact JSON text (so `to_string()` serializes).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

fn write_f64(v: f64, out: &mut String) {
    assert!(v.is_finite(), "JSON cannot represent non-finite floats");
    let s = format!("{v}");
    out.push_str(&s);
    // Keep floats distinguishable from integers on re-parse.
    if !s.contains('.') && !s.contains('e') && !s.contains('E') {
        out.push_str(".0");
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: &str) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", b as char)))
        }
    }

    fn parse_value(&mut self, depth: usize) -> Result<Json, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.parse_keyword("null", Json::Null),
            Some(b't') => self.parse_keyword("true", Json::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.parse_string()?)),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.parse_value(depth + 1)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(self.error("expected ',' or ']'")),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.parse_string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    self.skip_ws();
                    let value = self.parse_value(depth + 1)?;
                    fields.push((key, value));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(self.error("expected ',' or '}'")),
                    }
                }
            }
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    fn parse_keyword(&mut self, kw: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected '{kw}'")))
        }
    }

    fn parse_string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.error("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            if self.pos + 4 >= self.bytes.len() {
                                return Err(self.error("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                .map_err(|_| self.error("invalid \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.error("invalid \\u escape"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.error("invalid \\u code point"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.error("invalid escape")),
                    }
                    self.pos += 1;
                }
                _ => return Err(self.error("unterminated string")),
            }
        }
    }

    fn parse_number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("ASCII digits are valid UTF-8");
        if !is_float {
            if let Some(stripped) = text.strip_prefix('-') {
                if stripped.parse::<i64>().is_ok() {
                    return Ok(Json::I64(text.parse().expect("checked")));
                }
            } else if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::U64(v));
            }
        }
        text.parse::<f64>()
            .map(Json::F64)
            .map_err(|_| ParseError {
                offset: start,
                message: format!("invalid number '{text}'"),
            })
    }
}

/// A well-formed JSON value that is not the object a decoder expects.
/// Each crate converts it once into its own error type through a `From`
/// impl, so decoders apply [`StrictObj`] with `?`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldError {
    /// Human-readable description naming the object and the field.
    pub message: String,
}

impl fmt::Display for FieldError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for FieldError {}

impl From<FieldError> for std::io::Error {
    /// Decoded files (snapshots) report schema violations as
    /// `InvalidData`.
    fn from(e: FieldError) -> std::io::Error {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e.message)
    }
}

/// Strict reader over one fixed-schema JSON object.
///
/// Every field is read by name, and [`StrictObj::finish`] rejects any
/// field left unread. A key that occurs twice is an error both when it is
/// read and when `finish` finds it unread, so no decoder picks the first
/// or the last copy. A decoder that reads its schema and calls `finish`
/// therefore refuses unknown, missing, ill-typed and duplicated fields
/// alike, with messages of one shape: `"{what} missing field \"x\""`,
/// `"{what} field \"x\" must be a string"`,
/// `"{what} has unknown field \"x\""`,
/// `"{what} has duplicate field \"x\""`. Each read scans the fields
/// once, so a hostile object with many fields costs linear time.
#[derive(Debug)]
pub struct StrictObj<'a> {
    what: &'a str,
    fields: &'a [(String, Json)],
    used: Vec<bool>,
}

impl<'a> StrictObj<'a> {
    /// Opens `j` as the object named `what` in error messages.
    ///
    /// # Errors
    ///
    /// Fails when `j` is not an object.
    pub fn new(j: &'a Json, what: &'a str) -> Result<StrictObj<'a>, FieldError> {
        let Json::Obj(fields) = j else {
            return Err(field_error(format!("{what} must be a JSON object")));
        };
        Ok(StrictObj {
            what,
            fields,
            used: vec![false; fields.len()],
        })
    }

    fn duplicate(&self, name: &str) -> FieldError {
        field_error(format!("{} has duplicate field {name:?}", self.what))
    }

    /// The optional field `name`, marking it read.
    ///
    /// # Errors
    ///
    /// Fails when the key occurs more than once.
    pub fn opt(&mut self, name: &str) -> Result<Option<&'a Json>, FieldError> {
        let Some(i) = self.fields.iter().position(|(k, _)| k == name) else {
            return Ok(None);
        };
        if self.fields[i + 1..].iter().any(|(k, _)| k == name) {
            return Err(self.duplicate(name));
        }
        self.used[i] = true;
        Ok(Some(&self.fields[i].1))
    }

    /// The required field `name`.
    ///
    /// # Errors
    ///
    /// Fails when the field is absent or its key occurs more than once.
    pub fn field(&mut self, name: &str) -> Result<&'a Json, FieldError> {
        self.opt(name)?
            .ok_or_else(|| field_error(format!("{} missing field {name:?}", self.what)))
    }

    /// The error for field `name` holding the wrong kind of value;
    /// `expected` completes "must be …".
    pub fn ill_typed(&self, name: &str, expected: &str) -> FieldError {
        field_error(format!("{} field {name:?} must be {expected}", self.what))
    }

    /// The required unsigned-integer field `name`, converted to `T`
    /// (`u64`, `usize`, `u8`, …) without truncation.
    ///
    /// # Errors
    ///
    /// Fails when the field is absent, not an unsigned integer, or out of
    /// `T`'s range.
    pub fn uint<T: TryFrom<u64>>(&mut self, name: &str) -> Result<T, FieldError> {
        let v = self.field(name)?;
        let n = v
            .as_u64()
            .ok_or_else(|| self.ill_typed(name, "an unsigned integer"))?;
        T::try_from(n).map_err(|_| {
            let fits = format!(
                "an unsigned integer that fits {}",
                std::any::type_name::<T>()
            );
            self.ill_typed(name, &fits)
        })
    }

    /// The optional unsigned-integer field `name`.
    ///
    /// # Errors
    ///
    /// Fails when the field is present but not an unsigned integer.
    pub fn opt_u64(&mut self, name: &str) -> Result<Option<u64>, FieldError> {
        match self.opt(name)? {
            None => Ok(None),
            Some(v) => v
                .as_u64()
                .map(Some)
                .ok_or_else(|| self.ill_typed(name, "an unsigned integer")),
        }
    }

    /// The required boolean field `name`.
    ///
    /// # Errors
    ///
    /// Fails when the field is absent or not a boolean.
    pub fn bool(&mut self, name: &str) -> Result<bool, FieldError> {
        let v = self.field(name)?;
        v.as_bool().ok_or_else(|| self.ill_typed(name, "a boolean"))
    }

    /// The required string field `name`.
    ///
    /// # Errors
    ///
    /// Fails when the field is absent or not a string.
    pub fn string(&mut self, name: &str) -> Result<String, FieldError> {
        let v = self.field(name)?;
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| self.ill_typed(name, "a string"))
    }

    /// The optional string field `name`.
    ///
    /// # Errors
    ///
    /// Fails when the field is present but not a string.
    pub fn opt_string(&mut self, name: &str) -> Result<Option<String>, FieldError> {
        match self.opt(name)? {
            None => Ok(None),
            Some(v) => v
                .as_str()
                .map(|s| Some(s.to_string()))
                .ok_or_else(|| self.ill_typed(name, "a string")),
        }
    }

    /// The required array field `name`.
    ///
    /// # Errors
    ///
    /// Fails when the field is absent or not an array.
    pub fn arr(&mut self, name: &str) -> Result<&'a [Json], FieldError> {
        let v = self.field(name)?;
        v.as_arr().ok_or_else(|| self.ill_typed(name, "an array"))
    }

    /// The required array-of-unsigned-integers field `name`.
    ///
    /// # Errors
    ///
    /// Fails when the field is absent, not an array, or holds anything
    /// but unsigned integers.
    pub fn u64_arr(&mut self, name: &str) -> Result<Vec<u64>, FieldError> {
        self.arr(name)?
            .iter()
            .map(|v| {
                v.as_u64()
                    .ok_or_else(|| self.ill_typed(name, "an array of unsigned integers"))
            })
            .collect()
    }

    /// Ends the read: every field must have been read.
    ///
    /// # Errors
    ///
    /// Fails naming the first field no accessor asked for, as a duplicate
    /// when its key occurs more than once.
    pub fn finish(self) -> Result<(), FieldError> {
        let Some(i) = self.used.iter().position(|&used| !used) else {
            return Ok(());
        };
        let name = &self.fields[i].0;
        if self.fields.iter().filter(|(k, _)| k == name).count() > 1 {
            return Err(self.duplicate(name));
        }
        Err(field_error(format!(
            "{} has unknown field {name:?}",
            self.what
        )))
    }
}

fn field_error(message: String) -> FieldError {
    FieldError { message }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_round_trips_losslessly() {
        for v in [0u64, 1, 2u64.pow(53) + 1, u64::MAX] {
            let text = Json::U64(v).to_string();
            assert_eq!(Json::parse(&text).unwrap(), Json::U64(v), "{text}");
        }
    }

    #[test]
    fn object_round_trip_preserves_order_and_types() {
        let j = Json::obj(vec![
            ("b", Json::U64(u64::MAX)),
            ("a", Json::Arr(vec![Json::Bool(true), Json::Null, Json::F64(1.5)])),
            ("s", Json::Str("quote \" slash \\ nl \n".into())),
            ("neg", Json::I64(-42)),
        ]);
        let compact = j.to_string();
        assert_eq!(Json::parse(&compact).unwrap(), j);
        let pretty = j.to_string_pretty();
        assert_eq!(Json::parse(&pretty).unwrap(), j);
        // Deterministic output: same value, same bytes.
        assert_eq!(compact, Json::parse(&pretty).unwrap().to_string());
    }

    #[test]
    fn floats_stay_floats() {
        let text = Json::F64(2.0).to_string();
        assert_eq!(text, "2.0");
        assert_eq!(Json::parse(&text).unwrap(), Json::F64(2.0));
    }

    #[test]
    fn malformed_inputs_error_without_panicking() {
        for bad in [
            "", "{", "}", "[1,", "{\"a\":}", "nul", "01x", "\"unterminated",
            "{\"a\":1,}", "[1 2]", "1 2", "\"bad \\q escape\"",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn accessors_navigate() {
        let j = Json::parse("{\"meta\": {\"seed\": 42, \"ok\": true}, \"xs\": [1, 2]}").unwrap();
        assert_eq!(j.get("meta").and_then(|m| m.get("seed")).and_then(Json::as_u64), Some(42));
        assert_eq!(j.get("meta").and_then(|m| m.get("ok")).and_then(Json::as_bool), Some(true));
        assert_eq!(j.get("xs").and_then(Json::as_arr).map(|a| a.len()), Some(2));
    }

    fn point(j: &Json) -> Result<(u64, String, Option<u64>), FieldError> {
        let mut r = StrictObj::new(j, "point")?;
        let p = (r.uint("x")?, r.string("name")?, r.opt_u64("z")?);
        r.finish()?;
        Ok(p)
    }

    #[test]
    fn strict_obj_enforces_the_whole_policy() {
        let good = Json::parse("{\"x\":1,\"name\":\"a\"}").unwrap();
        assert_eq!(point(&good).unwrap(), (1, "a".to_string(), None));
        let with_z = Json::parse("{\"z\":3,\"name\":\"a\",\"x\":1}").unwrap();
        assert_eq!(point(&with_z).unwrap(), (1, "a".to_string(), Some(3)));
        for (text, message) in [
            ("[1]", "point must be a JSON object"),
            ("{\"name\":\"a\"}", "point missing field \"x\""),
            ("{\"x\":\"1\",\"name\":\"a\"}", "point field \"x\" must be an unsigned integer"),
            ("{\"x\":1,\"name\":2}", "point field \"name\" must be a string"),
            ("{\"x\":1,\"name\":\"a\",\"z\":-1}", "point field \"z\" must be an unsigned integer"),
            ("{\"x\":1,\"name\":\"a\",\"w\":0}", "point has unknown field \"w\""),
            ("{\"x\":1,\"name\":\"a\",\"x\":2}", "point has duplicate field \"x\""),
            ("{\"z\":1,\"x\":1,\"name\":\"a\",\"z\":1}", "point has duplicate field \"z\""),
            // An unread key that repeats is a duplicate, not an unknown.
            ("{\"x\":1,\"name\":\"a\",\"w\":0,\"w\":0}", "point has duplicate field \"w\""),
        ] {
            let j = Json::parse(text).unwrap();
            assert_eq!(point(&j).unwrap_err().message, message, "{text}");
        }
    }

    #[test]
    fn strict_obj_typed_accessors() {
        let j = Json::parse("{\"b\":true,\"xs\":[1,2],\"bad\":[1,\"2\"],\"s\":\"t\",\"g\":256}")
            .unwrap();
        let mut r = StrictObj::new(&j, "doc").unwrap();
        assert_eq!(r.bool("b"), Ok(true));
        assert_eq!(r.uint::<u16>("g"), Ok(256));
        // Narrowing never truncates.
        assert_eq!(
            r.uint::<u8>("g").unwrap_err().message,
            "doc field \"g\" must be an unsigned integer that fits u8"
        );
        assert_eq!(r.u64_arr("xs"), Ok(vec![1, 2]));
        assert_eq!(
            r.u64_arr("bad").unwrap_err().message,
            "doc field \"bad\" must be an array of unsigned integers"
        );
        assert_eq!(r.opt_string("s"), Ok(Some("t".to_string())));
        assert_eq!(r.opt_string("absent"), Ok(None));
        assert_eq!(r.opt("absent"), Ok(None));
        assert!(r.arr("b").is_err());
        r.finish().unwrap();
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a(FNV1A_BASIS, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV1A_BASIS, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV1A_BASIS, b"foobar"), 0x8594_4171_f739_67e8);
        // Folding is incremental.
        assert_eq!(
            fnv1a(fnv1a(FNV1A_BASIS, b"foo"), b"bar"),
            fnv1a(FNV1A_BASIS, b"foobar")
        );
    }
}
