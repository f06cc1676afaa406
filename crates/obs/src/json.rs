//! The workspace's hand-rolled JSON value: writer and reader.
//!
//! The workspace is hermetic (standard library only, no crates.io), so
//! every machine-readable artifact — exploration reports, bench
//! artifacts, `METRICS_*.json` snapshots — goes through this one small
//! [`Json`] type instead of a serde derive. It lives in `datareuse-obs`
//! (the dependency-free leaf crate) so both the observability registry and
//! the model crates can use it; `datareuse_core::Json` re-exports it
//! unchanged.
//!
//! The writer covers exactly what the tools need: objects, arrays,
//! strings with escaping, integers, and floats. [`Json::parse`] is the
//! matching reader, used by tests and scripts to consume the artifacts
//! the tools emit.

use std::fmt;

/// A JSON value, written out via `Display` and read back via
/// [`Json::parse`].
///
/// # Examples
///
/// ```
/// use datareuse_obs::Json;
/// let v = Json::obj([
///     ("name", Json::str("A")),
///     ("sizes", Json::arr([Json::UInt(8), Json::UInt(56)])),
/// ]);
/// assert_eq!(v.to_string(), r#"{"name":"A","sizes":[8,56]}"#);
/// assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (kept exact — no f64 round-trip).
    UInt(u64),
    /// A signed integer.
    Int(i64),
    /// A finite float; non-finite values render as `null`.
    Num(f64),
    /// A string (escaped on output).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience string constructor.
    pub fn str(s: impl Into<String>) -> Self {
        Self::Str(s.into())
    }

    /// Convenience array constructor.
    pub fn arr(items: impl IntoIterator<Item = Json>) -> Self {
        Self::Arr(items.into_iter().collect())
    }

    /// Convenience object constructor.
    pub fn obj<K: Into<String>>(entries: impl IntoIterator<Item = (K, Json)>) -> Self {
        Self::Obj(entries.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Looks up `key` in an object (first occurrence); `None` for other
    /// variants or missing keys.
    ///
    /// # Examples
    ///
    /// ```
    /// use datareuse_obs::Json;
    /// let v = Json::parse(r#"{"a":{"b":7}}"#).unwrap();
    /// assert_eq!(v.get("a").and_then(|a| a.get("b")).and_then(Json::as_u64), Some(7));
    /// assert!(v.get("missing").is_none());
    /// ```
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Self::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Indexes into an array; `None` for other variants or out of range.
    pub fn at(&self, index: usize) -> Option<&Json> {
        match self {
            Self::Arr(items) => items.get(index),
            _ => None,
        }
    }

    /// The value as a `u64` (from `UInt`, or a non-negative `Int`).
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Self::UInt(n) => Some(n),
            Self::Int(n) => u64::try_from(n).ok(),
            _ => None,
        }
    }

    /// The value as an `f64` (any numeric variant).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Self::UInt(n) => Some(n as f64),
            Self::Int(n) => Some(n as f64),
            Self::Num(x) => Some(x),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Self::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Self::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The array items, when the value is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Self::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The object entries, when the value is an object.
    pub fn entries(&self) -> Option<&[(String, Json)]> {
        match self {
            Self::Obj(entries) => Some(entries),
            _ => None,
        }
    }

    /// Maximum container nesting depth accepted by [`Json::parse`].
    ///
    /// The parser is recursive, and once the server feeds it bytes from
    /// the network a document like `[[[[…` becomes an attacker-controlled
    /// stack depth. 128 is far deeper than any artifact this workspace
    /// emits while keeping the worst-case stack usage small and
    /// platform-independent.
    pub const MAX_DEPTH: usize = 128;

    /// Parses a JSON document (the reader matching the `Display` writer).
    ///
    /// Integers without fraction/exponent parse as [`Json::UInt`] /
    /// [`Json::Int`]; everything else numeric parses as [`Json::Num`].
    /// `-0` parses as [`Json::Num`]`(-0.0)` so the sign survives a
    /// round-trip, integers beyond the 64-bit ranges fall back to `f64`
    /// (53-bit precision), and numbers whose nearest `f64` is not finite
    /// (e.g. `1e400`) are rejected rather than clamped to a value the
    /// writer would re-serialize as `null`. Trailing non-whitespace input
    /// is an error.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonParseError`] with the byte offset of the first
    /// offending character.
    ///
    /// # Examples
    ///
    /// ```
    /// use datareuse_obs::Json;
    /// let v = Json::parse(r#"{"xs":[1,-2,3.5],"ok":true,"s":"a\nb"}"#).unwrap();
    /// assert_eq!(v.get("xs").and_then(|x| x.at(0)).and_then(Json::as_u64), Some(1));
    /// assert_eq!(v.get("s").and_then(Json::as_str), Some("a\nb"));
    /// assert!(Json::parse("{oops").is_err());
    /// ```
    pub fn parse(input: &str) -> Result<Json, JsonParseError> {
        let mut p = Parser {
            text: input,
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }
}

/// Error from [`Json::parse`]: what went wrong and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// Byte offset of the offending character.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonParseError {}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Currently open containers (objects + arrays); bounded by
    /// [`Json::MAX_DEPTH`] so hostile input cannot overflow the stack.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonParseError {
        JsonParseError {
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

    fn expect(&mut self, b: u8) -> Result<(), JsonParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn enter(&mut self) -> Result<(), JsonParseError> {
        if self.depth >= Json::MAX_DEPTH {
            return Err(self.err("nesting deeper than Json::MAX_DEPTH"));
        }
        self.depth += 1;
        Ok(())
    }

    fn value(&mut self) -> Result<Json, JsonParseError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Json, JsonParseError> {
        self.expect(b'{')?;
        self.enter()?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Obj(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            entries.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Obj(entries));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonParseError> {
        self.expect(b'[')?;
        self.enter()?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u16, JsonParseError> {
        let end = self.pos + 4;
        let slice = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let s = std::str::from_utf8(slice).map_err(|_| self.err("bad \\u escape"))?;
        let v = u16::from_str_radix(s, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("truncated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: a second \uXXXX must follow.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                } else {
                                    return Err(self.err("lone high surrogate"));
                                }
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                0x10000 + ((hi as u32 - 0xD800) << 10) + (lo as u32 - 0xDC00)
                            } else {
                                hi as u32
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid \\u code point"))?,
                            );
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(b) if b < 0x20 => return Err(self.err("control character in string")),
                Some(_) => {
                    // Copy the whole run up to the next quote, backslash
                    // or control byte at once, so an unescaped string is
                    // one exact-size allocation. Those bytes are ASCII, so
                    // the run ends on a character boundary of the input.
                    let start = self.pos;
                    while self
                        .bytes
                        .get(self.pos)
                        .is_some_and(|&b| b != b'"' && b != b'\\' && b >= 0x20)
                    {
                        self.pos += 1;
                    }
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut integral = true;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    integral = false;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if integral {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::UInt(n));
            }
            if let Ok(n) = text.parse::<i64>() {
                // `-0` (only reachable here: plain `0` parses as u64)
                // must stay a float — `Int(0)` would render back as `0`,
                // silently dropping the sign on a round-trip.
                if n == 0 {
                    return Ok(Json::Num(-0.0));
                }
                return Ok(Json::Int(n));
            }
            // Integral but outside u64/i64: fall through to f64, keeping
            // the magnitude to 53 bits of precision (same policy as
            // serde_json's arbitrary-precision-off mode).
        }
        let x = text.parse::<f64>().map_err(|_| JsonParseError {
            offset: start,
            message: format!("invalid number `{text}`"),
        })?;
        if !x.is_finite() {
            // `1e400` would otherwise become `Num(inf)`, which the
            // writer renders as `null` — a silent type change the first
            // time the value passes back through the server protocol.
            return Err(JsonParseError {
                offset: start,
                message: format!("number out of range `{text}`"),
            });
        }
        Ok(Json::Num(x))
    }
}

/// Writes `s` as a JSON string literal: quoted, with `"`, `\\`, `\n`,
/// `\r`, `\t` escaped by name and the other control characters as
/// `\u00XX`. Each unescaped run is copied with one `write_str`; every
/// escaped byte is ASCII, so runs always end on a character boundary.
pub fn write_escaped<W: fmt::Write + ?Sized>(w: &mut W, s: &str) -> fmt::Result {
    w.write_char('"')?;
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b == b'"' || b == b'\\' || b < 0x20 {
            w.write_str(&s[run..i])?;
            match b {
                b'"' => w.write_str("\\\""),
                b'\\' => w.write_str("\\\\"),
                b'\n' => w.write_str("\\n"),
                b'\r' => w.write_str("\\r"),
                b'\t' => w.write_str("\\t"),
                _ => write!(w, "\\u{b:04x}"),
            }?;
            run = i + 1;
        }
    }
    w.write_str(&s[run..])?;
    w.write_char('"')
}

/// Writes a JSON number: a finite `x` as its shortest round-trip `{}`
/// form, anything else as `null` (JSON has no NaN or infinity).
pub fn write_num<W: fmt::Write + ?Sized>(w: &mut W, x: f64) -> fmt::Result {
    if x.is_finite() {
        write!(w, "{x}")
    } else {
        w.write_str("null")
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Null => f.write_str("null"),
            Self::Bool(b) => f.write_str(if *b { "true" } else { "false" }),
            Self::UInt(n) => n.fmt(f),
            Self::Int(n) => n.fmt(f),
            Self::Num(x) => write_num(f, *x),
            Self::Str(s) => write_escaped(f, s),
            Self::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    v.fmt(f)?;
                }
                f.write_str("]")
            }
            Self::Obj(entries) => {
                f.write_str("{")?;
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    f.write_str(":")?;
                    v.fmt(f)?;
                }
                f.write_str("}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_writer_escapes_and_nests() {
        let v = Json::obj([
            ("s", Json::str("a\"b\\c\nd\u{1}")),
            ("n", Json::Num(2.5)),
            ("i", Json::Int(-3)),
            ("u", Json::UInt(u64::MAX)),
            ("inf", Json::Num(f64::INFINITY)),
            ("none", Json::Null),
            ("flag", Json::Bool(true)),
            ("empty", Json::arr([])),
        ]);
        assert_eq!(
            v.to_string(),
            "{\"s\":\"a\\\"b\\\\c\\nd\\u0001\",\"n\":2.5,\"i\":-3,\
             \"u\":18446744073709551615,\"inf\":null,\"none\":null,\
             \"flag\":true,\"empty\":[]}"
        );
    }

    #[test]
    fn parse_round_trips_writer_output() {
        let v = Json::obj([
            ("s", Json::str("a\"b\\c\nd\u{1}π")),
            ("n", Json::Num(2.5)),
            ("i", Json::Int(-3)),
            ("u", Json::UInt(u64::MAX)),
            ("none", Json::Null),
            ("flag", Json::Bool(false)),
            (
                "nested",
                Json::arr([Json::UInt(1), Json::obj([("k", Json::arr([]))])]),
            ),
        ]);
        assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn parse_accepts_whitespace_and_unicode_escapes() {
        let v = Json::parse(" {\n\t\"a\" : [ 1 , 2.0 ,\r \"\\u0041\\ud83d\\ude00\" ] } ")
            .unwrap();
        let arr = v.get("a").unwrap();
        assert_eq!(arr.at(0).unwrap().as_u64(), Some(1));
        assert_eq!(arr.at(1).unwrap().as_f64(), Some(2.0));
        assert_eq!(arr.at(2).unwrap().as_str(), Some("A😀"));
    }

    #[test]
    fn parse_number_variants() {
        assert_eq!(Json::parse("42").unwrap(), Json::UInt(42));
        assert_eq!(Json::parse("-42").unwrap(), Json::Int(-42));
        assert_eq!(Json::parse("4.5e2").unwrap(), Json::Num(450.0));
        assert_eq!(
            Json::parse("18446744073709551615").unwrap(),
            Json::UInt(u64::MAX)
        );
        assert_eq!(
            Json::parse("-9223372036854775808").unwrap(),
            Json::Int(i64::MIN)
        );
    }

    #[test]
    fn regression_minus_zero_survives_a_round_trip() {
        // Fuzz seed: `-0` used to parse as `Int(0)` and re-serialize as
        // `0`, so a cost term that was exactly negative zero changed text
        // on every server/explain hop.
        let v = Json::parse("-0").unwrap();
        match v {
            Json::Num(x) => {
                assert_eq!(x, 0.0);
                assert!(x.is_sign_negative(), "sign dropped");
            }
            other => panic!("-0 parsed as {other:?}"),
        }
        assert_eq!(v.to_string(), "-0");
        assert_eq!(Json::parse(&v.to_string()).unwrap().to_string(), "-0");
    }

    #[test]
    fn regression_huge_exponents_are_rejected_not_nulled() {
        // Fuzz seed: `1e400` used to parse as `Num(inf)`, which the
        // writer renders as `null` — a silent type change through the
        // server protocol.
        for bad in ["1e400", "-1e400", "1e99999", "-2.5E+308000"] {
            let e = Json::parse(bad).unwrap_err();
            assert!(e.message.contains("out of range"), "{bad}: {e}");
        }
        // The finite extremes and underflow-to-zero still parse.
        assert_eq!(
            Json::parse("1.7976931348623157e308").unwrap(),
            Json::Num(f64::MAX)
        );
        assert_eq!(Json::parse("1e-400").unwrap(), Json::Num(0.0));
    }

    #[test]
    fn regression_integer_overflow_is_value_stable() {
        // Fuzz seeds: one past u64::MAX and one below i64::MIN. The
        // magnitude survives to f64 precision and one render/parse cycle
        // reaches a fixpoint instead of drifting every hop.
        let v = Json::parse("18446744073709551616").unwrap();
        assert_eq!(v, Json::Num(18446744073709551616.0));
        let once = v.to_string();
        assert_eq!(Json::parse(&once).unwrap().to_string(), once);

        let v = Json::parse("-9223372036854775809").unwrap();
        assert_eq!(v.as_f64(), Some(-9223372036854775808.0)); // nearest f64
        let once = v.to_string();
        assert_eq!(Json::parse(&once).unwrap().as_f64(), v.as_f64());
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in [
            "", "{", "[1,", "{\"a\"}", "{\"a\":}", "tru", "1 2", "\"\\x\"", "\"unterminated",
            "{\"a\":1,}",
            "[1]]",
            "\"\\ud800\"",
        ] {
            let e = Json::parse(bad).unwrap_err();
            assert!(!e.to_string().is_empty(), "no error for {bad:?}");
        }
    }

    #[test]
    fn parse_enforces_the_depth_limit() {
        // MAX_DEPTH containers parse; one more is an error, not a stack
        // overflow — this is the server's first line of defense against
        // hostile request bodies.
        let ok = format!(
            "{}1{}",
            "[".repeat(Json::MAX_DEPTH),
            "]".repeat(Json::MAX_DEPTH)
        );
        assert!(Json::parse(&ok).is_ok());
        let too_deep = format!(
            "{}1{}",
            "[".repeat(Json::MAX_DEPTH + 1),
            "]".repeat(Json::MAX_DEPTH + 1)
        );
        let e = Json::parse(&too_deep).unwrap_err();
        assert!(e.message.contains("MAX_DEPTH"), "{e}");
        // Mixed objects/arrays count against the same budget, and a huge
        // hostile prefix must not crash even without closers.
        let hostile = "[{\"k\":".repeat(100_000);
        assert!(Json::parse(&hostile).is_err());
    }

    #[test]
    fn accessors_are_typed_and_total() {
        let v = Json::parse(r#"{"u":3,"i":-3,"f":1.5,"s":"x","b":true,"a":[9]}"#).unwrap();
        assert_eq!(v.get("u").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("i").unwrap().as_u64(), None);
        assert_eq!(v.get("i").unwrap().as_f64(), Some(-3.0));
        assert_eq!(v.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("b").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 1);
        assert_eq!(v.entries().unwrap().len(), 6);
        assert!(v.get("u").unwrap().get("nope").is_none());
        assert!(v.at(0).is_none());
    }
}
