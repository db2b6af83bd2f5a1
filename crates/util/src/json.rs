//! The workspace's one JSON string escaper and one JSON parser.
//!
//! Several subsystems emit JSON without a serialization dependency: the
//! telemetry events and health reports (`inf2vec-obs`), the ingest
//! quarantine report (`inf2vec-ingest`), the serving layer's responses
//! and chaos reconciliation report (`inf2vec-serve`), and assorted bench
//! artifacts. They all need exactly one hard part — correct string
//! escaping — so it lives here once instead of being re-rolled (and
//! re-bugged) per crate.
//!
//! The reading side ([`Json::parse`]) serves the network front-end,
//! which accepts request bodies from the network, and the telemetry event
//! reader: it must turn *any* byte sequence into either a value or a
//! typed [`JsonError`], never a panic, with recursion depth bounded so a
//! `[[[[…` bomb cannot blow the stack. An integer literal (no fraction,
//! no exponent) that fits 64 bits stays exact and distinct from a float
//! literal: `7` is [`Json::U64`], `-7` is [`Json::I64`], and `7.0` is
//! [`Json::F64`].

use std::fmt::Write as _;

/// Appends the JSON escape of `s` (no surrounding quotes) to `out`.
///
/// Escapes the two mandatory characters (`"`, `\`), the common control
/// characters by short form (`\n`, `\r`, `\t`), and every other control
/// character as `\u00XX`. Everything else — including non-ASCII — passes
/// through verbatim, which is valid JSON (UTF-8 wire encoding).
pub fn escape_into(out: &mut String, s: &str) {
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
}

/// Appends `s` as a complete JSON string literal (quotes included) to `out`.
pub fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    escape_into(out, s);
    out.push('"');
}

/// Returns `s` as a complete JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_json_string(&mut out, s);
    out
}

/// Maximum nesting depth [`Json::parse`] accepts before rejecting the
/// document as a bomb.
pub const MAX_JSON_DEPTH: usize = 32;

/// A parsed JSON value.
///
/// Object members keep their document order in a `Vec` (the workspace
/// never needs hash-map lookup on more than a handful of keys, and a
/// `Vec` keeps this allocation-light and deterministic).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer literal that fits a `u64`.
    U64(u64),
    /// A negative integer literal that fits an `i64`.
    I64(i64),
    /// Any other number: a fraction or an exponent, `-0`, or an integer
    /// beyond 64 bits.
    F64(f64),
    /// A string (escapes already decoded).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, members in document order.
    Obj(Vec<(String, Json)>),
}

/// Why a document was rejected; `offset` is the byte position (into the
/// UTF-8 text) where parsing gave up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the rejection point.
    pub offset: usize,
    /// What the parser expected or found.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses one complete JSON document; trailing non-whitespace is an
    /// error. Depth is bounded by [`MAX_JSON_DEPTH`]; the input's size
    /// must be bounded by the caller (the HTTP layer caps body bytes).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the document"));
        }
        Ok(value)
    }

    /// The value as a boolean, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::U64(v) => Some(*v as f64),
            Json::I64(v) => Some(*v as f64),
            Json::F64(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer: any
    /// [`Json::U64`], or a float with no fractional part within the
    /// `f64`-exact range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(v) => Some(*v),
            Json::F64(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= 9e15 => Some(*x as u64),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Member `key` of an object (first occurrence), if present.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
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

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, lit: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected {lit:?}")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_JSON_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_JSON_DEPTH}")));
        }
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.eat("null", Json::Null),
            Some(b't') => self.eat("true", Json::Bool(true)),
            Some(b'f') => self.eat("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected byte 0x{c:02x}"))),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.pos += 1; // consume '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.pos += 1; // consume '{'
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected a string key"));
            }
            let key = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(self.err("expected ':' after object key"));
            }
            self.pos += 1;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.pos += 1; // consume opening quote
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
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
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
                        b'u' => out.push(self.unicode_escape()?),
                        other => {
                            self.pos -= 1;
                            return Err(self.err(format!("bad escape \\{}", other as char)));
                        }
                    }
                }
                Some(c) if c < 0x20 => {
                    return Err(self.err("raw control character in string"));
                }
                Some(_) => {
                    // Copy one UTF-8 scalar (input is &str, so boundaries
                    // are valid by construction).
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && (self.bytes[self.pos] & 0xc0) == 0x80 {
                        self.pos += 1;
                    }
                    let s = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8 in string"))?;
                    out.push_str(s);
                }
            }
        }
    }

    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let unit = self.hex4()?;
        // Surrogate pair handling: a high surrogate must be followed by
        // an escaped low surrogate; lone surrogates are rejected.
        if (0xd800..0xdc00).contains(&unit) {
            if self.bytes[self.pos..].starts_with(b"\\u") {
                self.pos += 2;
                let low = self.hex4()?;
                if (0xdc00..0xe000).contains(&low) {
                    let c = 0x10000 + ((unit as u32 - 0xd800) << 10) + (low as u32 - 0xdc00);
                    return char::from_u32(c).ok_or_else(|| self.err("bad surrogate pair"));
                }
            }
            return Err(self.err("lone high surrogate"));
        }
        if (0xdc00..0xe000).contains(&unit) {
            return Err(self.err("lone low surrogate"));
        }
        char::from_u32(unit as u32).ok_or_else(|| self.err("bad \\u escape"))
    }

    fn hex4(&mut self) -> Result<u16, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .ok()
            .and_then(|s| u16::from_str_radix(s, 16).ok())
            .ok_or_else(|| self.err("\\u needs 4 hex digits"))?;
        self.pos = end;
        Ok(hex)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        let digits_from = self.pos;
        // The integer part accumulates while it is scanned, so an integer
        // literal is never parsed a second time (`None` past 64 bits).
        let mut int = Some(0u64);
        while let Some(d @ b'0'..=b'9') = self.peek() {
            int = int.and_then(|v| v.checked_mul(10)?.checked_add(u64::from(d - b'0')));
            self.pos += 1;
        }
        if self.pos == digits_from {
            return Err(self.err("expected digits"));
        }
        if !matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            match (negative, int) {
                (false, Some(v)) => return Ok(Json::U64(v)),
                (true, Some(v)) if v > 0 => {
                    if let Ok(v) = i64::try_from(-i128::from(v)) {
                        return Ok(Json::I64(v));
                    }
                }
                // `-0` is the float -0.0; wider integers read as floats.
                _ => {}
            }
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let frac_from = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == frac_from {
                return Err(self.err("expected digits after '.'"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_from = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == exp_from {
                return Err(self.err("expected digits in exponent"));
            }
        }
        // The grammar above admits only what f64::from_str accepts, and
        // overflow parses to ±inf — reject that rather than serve it.
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid UTF-8 in number"))?;
        let x: f64 = text.parse().map_err(|_| self.err("unparseable number"))?;
        if !x.is_finite() {
            return Err(self.err("number overflows f64"));
        }
        Ok(Json::F64(x))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_strings_pass_through() {
        assert_eq!(json_string("hello"), "\"hello\"");
        assert_eq!(json_string(""), "\"\"");
        assert_eq!(json_string("π é 日本"), "\"π é 日本\"");
    }

    #[test]
    fn mandatory_escapes() {
        assert_eq!(json_string("a\"b"), r#""a\"b""#);
        assert_eq!(json_string("a\\b"), r#""a\\b""#);
        assert_eq!(json_string("a\nb\tc\rd"), r#""a\nb\tc\rd""#);
    }

    #[test]
    fn control_characters_use_u_escapes() {
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
        assert_eq!(json_string("\u{1f}"), "\"\\u001f\"");
        // 0x20 (space) and above are literal.
        assert_eq!(json_string(" ~"), "\" ~\"");
    }

    #[test]
    fn push_appends_in_place() {
        let mut s = String::from("{\"k\":");
        push_json_string(&mut s, "v\n");
        s.push('}');
        assert_eq!(s, "{\"k\":\"v\\n\"}");
    }

    #[test]
    fn parse_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("42").unwrap(), Json::U64(42));
        assert_eq!(Json::parse("-1.5e2").unwrap(), Json::F64(-150.0));
        assert_eq!(Json::parse("\"hi\"").unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn integer_literals_stay_exact_and_distinct_from_floats() {
        let parse = |text: &str| Json::parse(text).unwrap();
        assert_eq!(parse("18446744073709551615"), Json::U64(u64::MAX));
        assert_eq!(parse("-9223372036854775808"), Json::I64(i64::MIN));
        assert_eq!(parse("2.0"), Json::F64(2.0));
        assert_eq!(parse("2e0"), Json::F64(2.0));
        // Past 64 bits an integer reads as the nearest float.
        assert_eq!(
            parse("18446744073709551616"),
            Json::F64(18446744073709551616.0)
        );
        assert_eq!(
            parse("-9223372036854775809"),
            Json::F64(-9223372036854775809.0)
        );
        // `-0` keeps its sign as a float.
        assert_eq!(
            parse("-0").as_f64().map(f64::to_bits),
            Some((-0.0f64).to_bits())
        );
        assert_eq!(parse("-0").as_u64(), Some(0));
        assert_eq!(parse("-7").as_f64(), Some(-7.0));
        assert_eq!(parse("-7").as_u64(), None);
    }

    #[test]
    fn parse_request_shape() {
        let doc = r#"{"u": 3, "candidates": [1, 2, 9], "top_n": 2,
                      "deadline_ms": 50, "allow_degraded": false}"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(v.get("u").and_then(Json::as_u64), Some(3));
        let cands: Vec<u64> = v
            .get("candidates")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|c| c.as_u64().unwrap())
            .collect();
        assert_eq!(cands, [1, 2, 9]);
        assert_eq!(v.get("top_n").and_then(Json::as_u64), Some(2));
        assert_eq!(v.get("allow_degraded").and_then(Json::as_bool), Some(false));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn parse_decodes_escapes_round_trip() {
        for original in ["a\"b\\c\n", "π é 日本", "\u{1}\u{1f}", "𝄞 clef"] {
            let doc = json_string(original);
            assert_eq!(
                Json::parse(&doc).unwrap(),
                Json::Str(original.to_string()),
                "round-trip of {original:?}"
            );
        }
        // Escapes the writer never produces still decode.
        assert_eq!(Json::parse(r#""\u00e9\/\b\f""#).unwrap(), Json::Str("é/\u{8}\u{c}".into()));
        assert_eq!(Json::parse(r#""\ud834\udd1e""#).unwrap(), Json::Str("𝄞".into()));
    }

    #[test]
    fn parse_rejects_malformed() {
        for bad in [
            "", "   ", "{", "[", "\"", "{\"a\"}", "{\"a\":}", "[1,]", "{,}",
            "nul", "tru", "01x", "-", "1.", "1e", "1e+", "\"\\q\"",
            "\"\\u12\"", "\"\\ud800\"", "\"\\udc00 low first\"", "1 2",
            "{\"a\":1,}", "[1 2]", "+1", "NaN", "inf", "1e999",
            "\"raw \u{0} ctl\"",
        ] {
            let err = Json::parse(bad).unwrap_err();
            assert!(!err.to_string().is_empty(), "accepted {bad:?}");
        }
    }

    #[test]
    fn parse_depth_is_bounded() {
        let deep_ok = format!("{}1{}", "[".repeat(MAX_JSON_DEPTH), "]".repeat(MAX_JSON_DEPTH));
        assert!(Json::parse(&deep_ok).is_ok());
        let bomb = "[".repeat(100_000);
        let err = Json::parse(&bomb).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
    }

    #[test]
    fn parse_u64_rejects_fractional_and_negative() {
        assert_eq!(Json::parse("3.5").unwrap().as_u64(), None);
        assert_eq!(Json::parse("-3").unwrap().as_u64(), None);
        assert_eq!(Json::parse("3.0").unwrap().as_u64(), Some(3));
        assert_eq!(Json::parse("0").unwrap().as_u64(), Some(0));
    }

    #[test]
    fn parse_preserves_object_order_and_duplicate_first_wins() {
        let v = Json::parse(r#"{"b":1,"a":2,"b":3}"#).unwrap();
        match &v {
            Json::Obj(members) => {
                assert_eq!(members.len(), 3);
                assert_eq!(members[0].0, "b");
            }
            other => panic!("expected object, got {other:?}"),
        }
        assert_eq!(v.get("b").and_then(Json::as_u64), Some(1), "first occurrence wins");
    }
}
