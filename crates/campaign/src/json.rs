//! A minimal JSON value, writer, and parser.
//!
//! The build environment has no crates registry, so `serde` is out of
//! reach; the campaign layer needs only a small, deterministic subset of
//! JSON for its wire protocol, journal records, and cache entries:
//!
//! - Numbers are **integers only** (`i128`), which losslessly carries
//!   every counter in a [`cdsspec_mc::Stats`] including the `u128`
//!   nanosecond clock. The campaign formats never need floats, and
//!   avoiding them sidesteps float-formatting non-determinism.
//! - Object keys keep their insertion order, so encoding is
//!   deterministic: the same value always serializes to the same bytes
//!   (required for CRC framing and byte-identity tests).
//! - The writer emits no insignificant whitespace and escapes every
//!   control character, so any encoded value is a single line. Framing
//!   does not depend on it ([`crate::frame`] carries a length), but the
//!   result cache's text layout keeps each payload on one line of its
//!   own.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON value (integers only; see the module docs).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An integer (JSON numbers with fractions or exponents are rejected).
    Num(i128),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Build an object from key/value pairs, preserving order.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An integer value from anything that fits in `i128`.
    pub fn num(n: impl Into<i128>) -> Json {
        Json::Num(n.into())
    }

    /// Look up a key in an object (`None` for non-objects/missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an `i128`, if it is a number.
    pub fn as_num(&self) -> Option<i128> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a number in range.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_num().and_then(|n| u64::try_from(n).ok())
    }

    /// The value as a `usize`, if it is a number in range.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_num().and_then(|n| usize::try_from(n).ok())
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serialize to a compact single-line string (no insignificant
    /// whitespace, all control characters escaped).
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Str(s) => write_escaped(out, s),
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
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parse a JSON document (must be a single value, integers only).
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing bytes at offset {pos}"));
        }
        Ok(value)
    }
}

fn write_escaped(out: &mut String, s: &str) {
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

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while let Some(&b) = bytes.get(*pos) {
        if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
            *pos += 1;
        } else {
            break;
        }
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at offset {pos}", pos = *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            let mut seen: BTreeMap<String, ()> = BTreeMap::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                if seen.insert(key.clone(), ()).is_some() {
                    return Err(format!("duplicate object key {key:?}"));
                }
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at offset {pos}", pos = *pos));
                }
                *pos += 1;
                pairs.push((key, parse_value(bytes, pos)?));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    _ => return Err(format!("expected ',' or '}}' at offset {pos}", pos = *pos)),
                }
            }
        }
        Some(b'-') | Some(b'0'..=b'9') => parse_number(bytes, pos),
        Some(&b) => Err(format!(
            "unexpected byte {:?} at offset {pos}",
            b as char,
            pos = *pos
        )),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at offset {pos}", pos = *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
        *pos += 1;
    }
    if matches!(bytes.get(*pos), Some(b'.') | Some(b'e') | Some(b'E')) {
        return Err(format!(
            "non-integer number at offset {start} (campaign JSON is integer-only)"
        ));
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("digits are ASCII");
    text.parse::<i128>()
        .map(Json::Num)
        .map_err(|e| format!("bad number {text:?}: {e}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at offset {pos}", pos = *pos));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                        let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                        // Surrogate pairs never occur in our own output
                        // (the writer only \u-escapes control chars); map
                        // lone surrogates to the replacement character.
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at offset {pos}", pos = *pos)),
                }
                *pos += 1;
            }
            Some(&b) if b < 0x20 => {
                return Err(format!(
                    "unescaped control character at offset {pos}",
                    pos = *pos
                ));
            }
            Some(_) => {
                // Copy the run up to the next quote, backslash or control
                // byte in one step: those are ASCII, so the run ends on a
                // char boundary of the source `&str`, and parsing stays
                // linear in the length of the document.
                let start = *pos;
                let plain = |b: u8| b != b'"' && b != b'\\' && b >= 0x20;
                // Sixteen bytes per test while no byte needs a look: the
                // fold compiles to vector compares.
                while let Some(chunk) = bytes.get(*pos..*pos + 16) {
                    if !chunk.iter().fold(true, |all, &b| all & plain(b)) {
                        break;
                    }
                    *pos += 16;
                }
                while matches!(bytes.get(*pos), Some(&b) if plain(b)) {
                    *pos += 1;
                }
                out.push_str(
                    std::str::from_utf8(&bytes[start..*pos]).map_err(|_| "invalid UTF-8")?,
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(v: &Json) {
        let text = v.encode();
        let back = Json::parse(&text).expect("round trip parses");
        assert_eq!(&back, v, "round trip of {text}");
    }

    #[test]
    fn scalars_round_trip() {
        round_trip(&Json::Null);
        round_trip(&Json::Bool(true));
        round_trip(&Json::Bool(false));
        round_trip(&Json::Num(0));
        round_trip(&Json::Num(-1));
        round_trip(&Json::Num(i128::MAX));
        round_trip(&Json::Num(i128::MIN));
        round_trip(&Json::str(""));
        round_trip(&Json::str("plain"));
        round_trip(&Json::str("esc \" \\ \n \r \t \u{1} \u{7f} ünïcode 🦀"));
    }

    #[test]
    fn containers_round_trip() {
        round_trip(&Json::Arr(vec![]));
        round_trip(&Json::Obj(vec![]));
        round_trip(&Json::obj(vec![
            ("a", Json::num(1u64)),
            ("b", Json::Arr(vec![Json::Null, Json::str("x")])),
            ("nested", Json::obj(vec![("k", Json::Bool(false))])),
        ]));
    }

    #[test]
    fn encoding_is_single_line_and_deterministic() {
        let v = Json::obj(vec![
            ("msg", Json::str("line1\nline2\u{0}")),
            ("n", Json::num(7u64)),
        ]);
        let a = v.encode();
        let b = v.encode();
        assert_eq!(a, b);
        assert!(!a.contains('\n'), "{a}");
        assert_eq!(a, r#"{"msg":"line1\nline2\u0000","n":7}"#);
    }

    #[test]
    fn u128_nanoseconds_survive() {
        let ns: u128 = (u64::MAX as u128) * 3;
        let v = Json::Num(ns as i128);
        let back = Json::parse(&v.encode()).unwrap();
        assert_eq!(back.as_num(), Some(ns as i128));
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("1.5").is_err(), "floats are rejected");
        assert!(Json::parse("1e3").is_err(), "exponents are rejected");
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("{\"a\":1,\"a\":2}").is_err(), "duplicate keys");
        assert!(Json::parse("nul").is_err());
        assert!(Json::parse("{} {}").is_err(), "trailing bytes");
    }

    #[test]
    fn accessors() {
        let v = Json::obj(vec![
            ("s", Json::str("x")),
            ("n", Json::num(3u64)),
            ("b", Json::Bool(true)),
            ("a", Json::Arr(vec![Json::num(1u64)])),
        ]);
        assert_eq!(v.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(3));
        assert_eq!(v.get("b").and_then(Json::as_bool), Some(true));
        assert_eq!(
            v.get("a").and_then(Json::as_arr).map(<[Json]>::len),
            Some(1)
        );
        assert!(v.get("missing").is_none());
        assert_eq!(Json::Num(-1).as_u64(), None, "negative is not u64");
    }
}
