//! A minimal, dependency-free JSON value model with a parser and two
//! writers (compact and pretty).
//!
//! The subset implemented here is exactly what the sweep harness requires:
//!
//! * object member order is preserved, making encoding deterministic —
//!   byte-identical reports are how the determinism tests compare runs;
//! * numbers keep their literal text, so `encode(decode(s)) == s` for any
//!   number this writer produced, and `u64` values (seeds, microsecond
//!   timestamps) round-trip exactly rather than through an `f64`;
//! * the parser returns errors, never panics, on malformed input, and is
//!   depth-limited so adversarial nesting cannot overflow the stack.

/// A parsed or constructed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its literal token (see [`Number`]).
    Num(Number),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; member order is preserved (and significant for the
    /// byte-identity guarantees the sweep harness provides).
    Obj(Vec<(String, Json)>),
}

/// A JSON number, stored as its literal token text.
///
/// Keeping the token (rather than an `f64`) means integers up to `u64::MAX`
/// survive a round-trip exactly, and re-encoding a parsed document
/// reproduces it byte-for-byte.
#[derive(Clone, Debug, PartialEq)]
pub struct Number(String);

impl Number {
    /// An exact unsigned integer.
    pub fn from_u64(v: u64) -> Self {
        Number(v.to_string())
    }

    /// An exact signed integer.
    pub fn from_i64(v: i64) -> Self {
        Number(v.to_string())
    }

    /// A finite float, formatted with Rust's shortest round-trip `Display`.
    ///
    /// # Panics
    ///
    /// Panics on NaN/infinity — JSON has no token for them; encode such
    /// values as `null` instead (the [`crate::ToJson`] impl for `f64` does).
    pub fn from_f64(v: f64) -> Self {
        assert!(v.is_finite(), "non-finite f64 has no JSON number token");
        Number(format!("{v}"))
    }

    /// The literal token text.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// The value as a `u64`, if it is one exactly (integer token in range,
    /// or a float token with zero fraction).
    pub fn as_u64(&self) -> Option<u64> {
        if let Ok(v) = self.0.parse::<u64>() {
            return Some(v);
        }
        let f = self.0.parse::<f64>().ok()?;
        // Exclusive upper bound: `u64::MAX as f64` rounds up to 2^64, which
        // `as u64` would saturate rather than represent.
        (f.fract() == 0.0 && f >= 0.0 && f < u64::MAX as f64).then_some(f as u64)
    }

    /// The value as an `f64` (lossy for huge integers, like any JSON reader).
    pub fn as_f64(&self) -> Option<f64> {
        self.0.parse::<f64>().ok()
    }
}

/// Error from parsing or from typed decoding ([`crate::FromJson`]).
#[derive(Clone, Debug, PartialEq)]
pub struct JsonError(pub String);

impl core::fmt::Display for JsonError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for JsonError {}

impl JsonError {
    pub(crate) fn msg(m: impl Into<String>) -> Self {
        JsonError(m.into())
    }
}

impl Json {
    /// Builds an object from key/value pairs, preserving order.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds an array.
    pub fn arr(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Arr(items.into_iter().collect())
    }

    /// An exact unsigned integer value.
    pub fn u64(v: u64) -> Json {
        Json::Num(Number::from_u64(v))
    }

    /// A float value; NaN and infinities become `null`.
    pub fn f64(v: f64) -> Json {
        if v.is_finite() { Json::Num(Number::from_f64(v)) } else { Json::Null }
    }

    /// A string value.
    pub fn str(v: impl Into<String>) -> Json {
        Json::Str(v.into())
    }

    /// Member lookup on objects; `None` on other variants or missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// `true` for `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// The boolean value, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string value, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The exact `u64` value, if this is a number holding one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) => n.as_u64(),
            _ => None,
        }
    }

    /// The `f64` value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => n.as_f64(),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Pretty encoding: two-space indent, one member per line, `\n` line
    /// endings, no trailing newline. Deterministic given member order.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        write_value(self, Some(0), &mut out);
        out
    }
}

/// Compact single-line encoding.
impl core::fmt::Display for Json {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let mut out = String::new();
        write_value(self, None, &mut out);
        f.write_str(&out)
    }
}

/// `indent`: `None` = compact, `Some(level)` = pretty at that depth.
fn write_value(v: &Json, indent: Option<usize>, out: &mut String) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(true) => out.push_str("true"),
        Json::Bool(false) => out.push_str("false"),
        Json::Num(n) => out.push_str(n.as_str()),
        Json::Str(s) => write_string(s, out),
        Json::Arr(items) => write_seq(items.iter().map(Item::Plain), '[', ']', indent, out),
        Json::Obj(members) => {
            write_seq(members.iter().map(|(k, v)| Item::Keyed(k, v)), '{', '}', indent, out)
        }
    }
}

enum Item<'a> {
    Plain(&'a Json),
    Keyed(&'a str, &'a Json),
}

fn write_seq<'a>(
    items: impl ExactSizeIterator<Item = Item<'a>>,
    open: char,
    close: char,
    indent: Option<usize>,
    out: &mut String,
) {
    out.push(open);
    if items.len() == 0 {
        out.push(close);
        return;
    }
    let inner = indent.map(|l| l + 1);
    for (i, item) in items.enumerate() {
        if i > 0 {
            out.push(',');
        }
        if let Some(level) = inner {
            out.push('\n');
            out.push_str(&"  ".repeat(level));
        }
        match item {
            Item::Plain(v) => write_value(v, inner, out),
            Item::Keyed(k, v) => {
                write_string(k, out);
                out.push(':');
                if inner.is_some() {
                    out.push(' ');
                }
                write_value(v, inner, out);
            }
        }
    }
    if let Some(level) = indent {
        out.push('\n');
        out.push_str(&"  ".repeat(level));
    }
    out.push(close);
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
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The canonical on-disk encoding of a JSON document: pretty-printed plus
/// a trailing newline. All report files in the workspace use this one
/// definition — byte-identity checks between runs are defined on it.
pub fn to_file_string(j: &Json) -> String {
    let mut text = j.pretty();
    text.push('\n');
    text
}

/// Writes a document in the canonical encoding, creating parent directories.
pub fn write_file(path: &std::path::Path, j: &Json) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, to_file_string(j))
}

/// Reads and parses a document, prefixing errors with the path.
pub fn read_file(path: &std::path::Path) -> std::io::Result<Json> {
    let text = std::fs::read_to_string(path)?;
    parse(&text).map_err(|e| {
        std::io::Error::new(std::io::ErrorKind::InvalidData, format!("{}: {e}", path.display()))
    })
}

/// Maximum nesting depth the parser accepts; adversarially deep documents
/// fail with an error instead of overflowing the stack.
const MAX_DEPTH: usize = 96;

/// Parses one JSON document (a single value plus optional whitespace).
///
/// Never panics: malformed input, trailing garbage, invalid escapes, and
/// over-deep nesting all return [`JsonError`] with a byte offset.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError(format!("{msg} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
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
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
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
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
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
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let c = self.unicode_escape()?;
                            out.push(c);
                            continue; // unicode_escape consumed its digits
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("control character in string")),
                Some(_) => {
                    // Consume one UTF-8 scalar; input is &str so boundaries
                    // are valid, we just need to find the char length.
                    let rest = &self.bytes[self.pos..];
                    let len = match rest[0] {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    out.push_str(
                        core::str::from_utf8(&rest[..len.min(rest.len())])
                            .map_err(|_| self.err("invalid UTF-8"))?,
                    );
                    self.pos += len;
                }
            }
        }
    }

    /// Parses the 4 hex digits after `\u` (the `u` is already consumed),
    /// plus a low-surrogate pair if needed. Leaves `pos` after the digits.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let hi = self.hex4()?;
        if (0xd800..0xdc00).contains(&hi) {
            // High surrogate: require \uXXXX low surrogate.
            if self.peek() != Some(b'\\') {
                return Err(self.err("unpaired surrogate"));
            }
            self.pos += 1;
            if self.peek() != Some(b'u') {
                return Err(self.err("unpaired surrogate"));
            }
            self.pos += 1;
            let lo = self.hex4()?;
            if !(0xdc00..0xe000).contains(&lo) {
                return Err(self.err("invalid low surrogate"));
            }
            let code = 0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00);
            char::from_u32(code).ok_or_else(|| self.err("invalid surrogate pair"))
        } else if (0xdc00..0xe000).contains(&hi) {
            Err(self.err("unpaired low surrogate"))
        } else {
            char::from_u32(hi).ok_or_else(|| self.err("invalid \\u escape"))
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(c @ b'0'..=b'9') => (c - b'0') as u32,
                Some(c @ b'a'..=b'f') => (c - b'a') as u32 + 10,
                Some(c @ b'A'..=b'F') => (c - b'A') as u32 + 10,
                _ => return Err(self.err("expected 4 hex digits")),
            };
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: 0 | [1-9][0-9]*
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => self.digits(),
            _ => return Err(self.err("invalid number")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digits required after decimal point"));
            }
            self.digits();
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digits required in exponent"));
            }
            self.digits();
        }
        let token = core::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid UTF-8 in number"))?;
        Ok(Json::Num(Number(token.to_string())))
    }

    fn digits(&mut self) {
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        for text in ["null", "true", "false", "0", "-1", "3.25", "1e3", "1.5e-7", "\"hi\""] {
            let v = parse(text).unwrap();
            assert_eq!(v.to_string(), text, "compact encoding must reproduce {text}");
        }
    }

    #[test]
    fn u64_extremes_survive_exactly() {
        let v = Json::u64(u64::MAX);
        let back = parse(&v.to_string()).unwrap();
        assert_eq!(back.as_u64(), Some(u64::MAX));
        // Above-range and negative values refuse rather than saturate —
        // including 2^64 exactly, which `u64::MAX as f64` rounds up to.
        assert_eq!(parse("18446744073709551616").unwrap().as_u64(), None);
        assert_eq!(parse("1.8446744073709552e19").unwrap().as_u64(), None);
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        // Integral float tokens in range still convert.
        assert_eq!(parse("12.0").unwrap().as_u64(), Some(12));
        assert_eq!(parse("1e3").unwrap().as_u64(), Some(1000));
    }

    #[test]
    fn f64_shortest_repr_round_trips() {
        for x in [0.1, 1.0 / 3.0, 123456.789, -0.0, 1e300] {
            let back = parse(&Json::f64(x).to_string()).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits());
        }
    }

    #[test]
    fn non_finite_floats_encode_as_null() {
        assert!(Json::f64(f64::NAN).is_null());
        assert!(Json::f64(f64::INFINITY).is_null());
    }

    #[test]
    fn object_order_is_preserved() {
        let v = parse(r#"{"b":1,"a":2}"#).unwrap();
        assert_eq!(v.to_string(), r#"{"b":1,"a":2}"#);
        assert_eq!(v.get("a").and_then(Json::as_u64), Some(2));
    }

    #[test]
    fn pretty_is_parseable_and_fixpoint() {
        let v = Json::obj([
            ("name", Json::str("sweep")),
            ("seeds", Json::arr([Json::u64(1), Json::u64(2)])),
            ("empty", Json::obj::<String>([])),
            ("note", Json::str("line\nbreak \"quoted\"")),
        ]);
        let text = v.pretty();
        let reparsed = parse(&text).unwrap();
        assert_eq!(reparsed, v);
        assert_eq!(reparsed.pretty(), text);
    }

    #[test]
    fn escapes_and_unicode() {
        let v = parse(r#""a\u0041\n\t\u00e9\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("aA\n\té😀"));
        // Re-encode and re-parse: semantic identity.
        assert_eq!(parse(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn malformed_inputs_error_not_panic() {
        for text in [
            "", "{", "[", "\"", "{\"a\"}", "[1,]", "{\"a\":1,}", "01", "1.", "1e", "nul",
            "truex", "[1 2]", "\"\\q\"", "\"\\ud800\"", "+1", "--1", "{1:2}", "[1]x",
            "\u{7}",
        ] {
            assert!(parse(text).is_err(), "{text:?} must be rejected");
        }
    }

    #[test]
    fn depth_limit_holds() {
        let deep = "[".repeat(500) + &"]".repeat(500);
        assert!(parse(&deep).is_err());
        let ok = "[".repeat(50) + &"]".repeat(50);
        assert!(parse(&ok).is_ok());
    }
}
