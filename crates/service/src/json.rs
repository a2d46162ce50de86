//! Hand-rolled JSON: a value type, a recursive-descent parser, and a
//! deterministic renderer.
//!
//! The workspace builds fully offline with no registry dependencies
//! (`tests/no_registry_deps.rs`), so the daemon's wire format is
//! implemented here rather than pulled from serde. Two properties the
//! protocol layer leans on:
//!
//! * **Insertion-ordered objects** — [`Json::Obj`] is a `Vec` of pairs,
//!   not a map, so a rendered response's key order is exactly the order
//!   the handler pushed keys. Golden-transcript tests diff responses
//!   byte-for-byte; a hash map would shuffle them.
//! * **Bounded recursion** — [`parse`] caps nesting depth at
//!   [`MAX_DEPTH`], so a hostile `[[[[...` line cannot blow the daemon's
//!   stack (the framing layer already caps line length).

use std::fmt::Write as _;

/// Maximum nesting depth [`parse`] accepts.
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number without fractional part or exponent, in `i64` range.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; pairs keep insertion order (see module docs).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from key/value pairs, preserving order.
    #[must_use]
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Looks up `key` in an object; `None` for other variants.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload widened to `u64`, if nonnegative.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(n) if *n >= 0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders this value as compact JSON (no whitespace), with object
    /// keys in insertion order — deterministic for transcript diffing.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Float(x) => {
                if x.is_finite() {
                    let _ = write!(out, "{x}");
                } else {
                    // JSON has no NaN/Infinity; degrade to null rather
                    // than emit an unparsable token.
                    out.push_str("null");
                }
            }
            Json::Str(s) => render_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(key, out);
                    out.push(':');
                    value.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

fn render_string(s: &str, out: &mut String) {
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

/// Parses one JSON document, requiring it to span the whole input
/// (trailing whitespace allowed).
///
/// # Errors
///
/// A human-readable message naming the byte offset of the problem.
pub fn parse(input: &str) -> Result<Json, String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing content at byte {pos}"));
    }
    Ok(value)
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

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    if depth > MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}"));
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => parse_object(bytes, pos, depth),
        Some(b'[') => parse_array(bytes, pos, depth),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b't') => parse_keyword(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_keyword(bytes, pos, "null", Json::Null),
        Some(b'-' | b'0'..=b'9') => parse_number(bytes, pos),
        Some(&b) => Err(format!("unexpected byte {:?} at byte {}", b as char, *pos)),
    }
}

fn parse_keyword(bytes: &[u8], pos: &mut usize, word: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("malformed literal at byte {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut fractional = false;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                fractional = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ascii digits");
    if !fractional {
        if let Ok(n) = text.parse::<i64>() {
            return Ok(Json::Int(n));
        }
    }
    text.parse::<f64>()
        .map(Json::Float)
        .map_err(|_| format!("malformed number `{text}` at byte {start}"))
}

fn read_hex4(bytes: &[u8], start: usize) -> Result<u32, String> {
    let hex = bytes
        .get(start..start + 4)
        .ok_or_else(|| "truncated \\u escape".to_string())?;
    let hex = std::str::from_utf8(hex).map_err(|_| "non-ascii \\u escape".to_string())?;
    u32::from_str_radix(hex, 16).map_err(|_| format!("bad \\u escape `{hex}`"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(bytes.get(*pos), Some(&b'"'));
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
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
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let code = read_hex4(bytes, *pos + 1)?;
                        *pos += 4;
                        // A high surrogate followed by an escaped low
                        // surrogate is one astral-plane scalar (JSON
                        // strings are UTF-16 on the wire). Lone or
                        // mismatched surrogates degrade to U+FFFD; the
                        // protocol never emits them.
                        let scalar = if (0xD800..0xDC00).contains(&code)
                            && bytes.get(*pos + 1) == Some(&b'\\')
                            && bytes.get(*pos + 2) == Some(&b'u')
                        {
                            match read_hex4(bytes, *pos + 3) {
                                Ok(low) if (0xDC00..0xE000).contains(&low) => {
                                    *pos += 6;
                                    0x1_0000 + ((code - 0xD800) << 10) + (low - 0xDC00)
                                }
                                _ => code,
                            }
                        } else {
                            code
                        };
                        out.push(char::from_u32(scalar).unwrap_or('\u{fffd}'));
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the run up to the next quote or backslash in one
                // go, so a long string (an HOA payload) costs one pass.
                // Both delimiters are ASCII, so they never fall inside a
                // multi-byte scalar, and the run is valid UTF-8 because
                // the input is a &str.
                let start = *pos;
                while !matches!(bytes.get(*pos), None | Some(b'"' | b'\\')) {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&bytes[start..*pos]).expect("input is valid utf-8"));
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // consume '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth + 1)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => {
                *pos += 1;
            }
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected `,` or `]` at byte {}", *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // consume '{'
    let mut pairs = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(pairs));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {}", *pos));
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected `:` at byte {}", *pos));
        }
        *pos += 1;
        let value = parse_value(bytes, pos, depth + 1)?;
        pairs.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => {
                *pos += 1;
            }
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {}", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_representative_document() {
        let text = r#"{"verb":"define","name":"x","n":3,"neg":-7,"rate":0.5,"ok":true,"none":null,"arr":[1,"two",[]],"esc":"a\"b\\c\ndA"}"#;
        let doc = parse(text).unwrap();
        assert_eq!(doc.get("verb").and_then(Json::as_str), Some("define"));
        assert_eq!(doc.get("n").and_then(Json::as_u64), Some(3));
        assert_eq!(doc.get("neg"), Some(&Json::Int(-7)));
        assert_eq!(doc.get("rate"), Some(&Json::Float(0.5)));
        assert_eq!(doc.get("esc").and_then(Json::as_str), Some("a\"b\\c\ndA"));
        // Render → reparse is identity (render is canonical, so the
        // rendered text differs from the input only in escapes).
        assert_eq!(parse(&doc.render()).unwrap(), doc);
    }

    #[test]
    fn key_order_is_preserved_in_render() {
        let doc = Json::obj(vec![
            ("zebra", Json::Int(1)),
            ("alpha", Json::Int(2)),
            ("mid", Json::Bool(false)),
        ]);
        assert_eq!(doc.render(), r#"{"zebra":1,"alpha":2,"mid":false}"#);
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "{\"a\" 1}",
            "\"unterminated",
            "nul",
            "{\"a\":1} extra",
            "01a",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn deep_nesting_is_bounded() {
        let mut text = String::new();
        for _ in 0..(MAX_DEPTH + 2) {
            text.push('[');
        }
        for _ in 0..(MAX_DEPTH + 2) {
            text.push(']');
        }
        let err = parse(&text).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
    }

    #[test]
    fn surrogate_pair_escapes_decode_to_one_scalar() {
        assert_eq!(
            parse("\"\\ud83d\\ude00\"").unwrap(),
            Json::Str("\u{1f600}".to_string())
        );
        assert_eq!(
            parse("\"\\uD83D\\uDE00\"").unwrap(),
            Json::Str("\u{1f600}".to_string())
        );
        // Lone or mismatched surrogates degrade to U+FFFD without
        // corrupting the surrounding text.
        assert_eq!(
            parse("\"a\\ud83db\"").unwrap(),
            Json::Str("a\u{fffd}b".to_string())
        );
        assert_eq!(
            parse("\"\\ude00\"").unwrap(),
            Json::Str("\u{fffd}".to_string())
        );
        assert_eq!(
            parse("\"\\ud83d\\ud83d\"").unwrap(),
            Json::Str("\u{fffd}\u{fffd}".to_string())
        );
    }

    #[test]
    fn raw_multibyte_text_survives_between_escapes() {
        let text = "\"h\u{e9}llo \\n \u{2713}\u{1d11e}\\\"end\u{e9}\"";
        assert_eq!(
            parse(text).unwrap(),
            Json::Str("h\u{e9}llo \n \u{2713}\u{1d11e}\"end\u{e9}".to_string())
        );
    }

    #[test]
    fn control_characters_render_escaped() {
        let doc = Json::Str("a\u{1}b".to_string());
        assert_eq!(doc.render(), "\"a\\u0001b\"");
        assert_eq!(parse(&doc.render()).unwrap(), doc);
    }
}
