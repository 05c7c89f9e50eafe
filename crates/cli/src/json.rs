//! A minimal JSON parser and serializer.
//!
//! The workspace builds offline against API-subset stubs (see
//! `vendor/README.md`) and has no `serde_json`; the request bodies the
//! server accepts (`{"parent": 5}`,
//! `{"history": [[1,2],[3]], "steps": 200, "seed": 7}`) and the eval
//! harness's dataset files need only this strict, allocation-bounded
//! subset: objects, arrays, numbers, strings (no escapes beyond
//! `\" \\ \/ \n \r \t`), booleans, null. Depth is capped so hostile
//! bodies cannot blow the stack.
//!
//! [`Json::render`] is the one serializer every JSON-*emitting* CLI
//! path must go through: strings are escaped by [`json_str`] and
//! non-finite numbers become `null`, so no report can ever contain
//! invalid JSON no matter what path names or NaN metrics flow into it.

use std::fmt::Write;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (f64 — item ids and step counts fit exactly).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value as a non-negative integer, if it is one exactly.
    ///
    /// Bounded to `< 2^53`: every accepted value round-trips through
    /// the `f64` this parser stores without losing a bit. Above that,
    /// adjacent integers collapse (e.g. a large seed would decode to a
    /// *different* u64 than the client sent, and `u64::MAX` rounds up
    /// to 2^64), so those are rejected rather than silently mangled.
    pub fn as_u64(&self) -> Option<u64> {
        const EXACT_LIMIT: f64 = 9_007_199_254_740_992.0; // 2^53
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < EXACT_LIMIT => Some(*n as u64),
            _ => None,
        }
    }

    /// [`as_u64`](Self::as_u64) narrowed to `usize`.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|v| usize::try_from(v).ok())
    }

    /// Array elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The float value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// A number from an optional metric: `None` / non-finite → `null`,
    /// so a report can never emit `NaN` (invalid JSON).
    pub fn opt_num(v: Option<f64>) -> Json {
        match v {
            Some(x) if x.is_finite() => Json::Num(x),
            _ => Json::Null,
        }
    }

    /// A string value (convenience for building documents).
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Serialize to compact JSON text. Deterministic: object fields
    /// keep insertion order, floats use Rust's shortest round-trip
    /// formatting (integers valued exactly print without a fraction),
    /// and non-finite numbers render as `null`.
    pub fn render(&self) -> String {
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
                const EXACT: f64 = 9_007_199_254_740_992.0; // 2^53
                if !n.is_finite() {
                    out.push_str("null");
                } else if n.fract() == 0.0 && n.abs() < EXACT {
                    out.push_str(&format!("{}", *n as i64));
                } else {
                    out.push_str(&format!("{n}"));
                }
            }
            Json::Str(s) => out.push_str(&json_str(s)),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&json_str(k));
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Append `s` to `out` as a JSON string literal (quotes included) —
/// the one escaper every JSON-emitting path in the CLI shares.
pub fn write_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Encode `s` as a JSON string literal (quotes included).
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    write_json_str(&mut out, s);
    out
}

/// Append `s` to `out` byte for byte as `format!("{s:.4}")` writes it —
/// the f32's exact value rounded half to even at four decimals, with a
/// `-` on every negative value, `-0.0000` included — in integer
/// arithmetic instead of the formatting machinery. Every `"score"` a
/// response carries goes through here. Non-finite values and
/// `|s| ≥ 1e9` are written by `{:.4}` itself.
pub fn write_score(out: &mut String, s: f32) {
    if !s.is_finite() || s.abs() >= 1e9 {
        let _ = write!(out, "{s:.4}");
        return;
    }
    let bits = s.to_bits();
    if bits >> 31 == 1 {
        out.push('-');
    }
    // |s| = m · 2^e exactly; m < 2^24, so m · 10^4 < 2^38.
    let (biased, frac) = ((bits >> 23) & 0xff, u64::from(bits & 0x7f_ffff));
    let (m, e) = match biased {
        0 => (frac, -149),
        b => (frac | 1 << 23, b as i32 - 150),
    };
    let n = m * 10_000;
    let q = if e >= 0 {
        // |s| < 1e9 < 2^30 bounds e to 6: n · 2^e < 2^44.
        n << e
    } else if e <= -64 {
        // n < 2^38 is below half of 2^-e.
        0
    } else {
        let shift = -e;
        let (q, rem, half) = (n >> shift, n & ((1 << shift) - 1), 1 << (shift - 1));
        q + u64::from(rem > half || (rem == half && q & 1 == 1))
    };
    // Digits right to left: four decimals, the point, the integer part.
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    let (mut int, mut dec) = (q / 10_000, q % 10_000);
    for _ in 0..4 {
        at -= 1;
        buf[at] = b'0' + (dec % 10) as u8;
        dec /= 10;
    }
    at -= 1;
    buf[at] = b'.';
    loop {
        at -= 1;
        buf[at] = b'0' + (int % 10) as u8;
        int /= 10;
        if int == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[at..]).expect("ascii digits"));
}

const MAX_DEPTH: usize = 16;

/// Parse one JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while matches!(b.get(*pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    if depth > MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH}"));
    }
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = match parse_value(b, pos, depth + 1)? {
                    Json::Str(s) => s,
                    _ => return Err("object key must be a string".into()),
                };
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                fields.push((key, parse_value(b, pos, depth + 1)?));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => {
            *pos += 1;
            let mut out = String::new();
            loop {
                match b.get(*pos) {
                    None => return Err("unterminated string".into()),
                    Some(b'"') => {
                        *pos += 1;
                        return Ok(Json::Str(out));
                    }
                    Some(b'\\') => {
                        *pos += 1;
                        let esc = b.get(*pos).ok_or("unterminated escape")?;
                        out.push(match esc {
                            b'"' => '"',
                            b'\\' => '\\',
                            b'/' => '/',
                            b'n' => '\n',
                            b'r' => '\r',
                            b't' => '\t',
                            other => {
                                return Err(format!("unsupported escape \\{}", *other as char))
                            }
                        });
                        *pos += 1;
                    }
                    Some(&c) if c < 0x20 => return Err("control byte in string".into()),
                    Some(_) => {
                        // Copy one UTF-8 scalar (input is &str, so
                        // boundaries are valid).
                        let start = *pos;
                        *pos += 1;
                        while *pos < b.len() && (b[*pos] & 0xC0) == 0x80 {
                            *pos += 1;
                        }
                        out.push_str(std::str::from_utf8(&b[start..*pos]).expect("valid utf8"));
                    }
                }
            }
        }
        Some(b't') if b[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if b[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if b[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(_) => {
            let start = *pos;
            while matches!(
                b.get(*pos),
                Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            ) {
                *pos += 1;
            }
            let text = std::str::from_utf8(&b[start..*pos]).expect("ascii range");
            text.parse::<f64>()
                .map(Json::Num)
                .map_err(|_| format!("invalid number '{text}' at byte {start}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_two_request_shapes() {
        let v = parse("{\"parent\": 5}").unwrap();
        assert_eq!(v.get("parent").and_then(Json::as_usize), Some(5));

        let v = parse("{\"history\": [[1,2],[3]], \"steps\": 200, \"seed\": 7}").unwrap();
        let hist = v.get("history").and_then(Json::as_array).unwrap();
        assert_eq!(hist.len(), 2);
        assert_eq!(hist[0].as_array().unwrap()[1].as_u64(), Some(2));
        assert_eq!(v.get("steps").and_then(Json::as_usize), Some(200));
        assert_eq!(v.get("seed").and_then(Json::as_u64), Some(7));
    }

    #[test]
    fn scalars_strings_and_nesting() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(parse("-2.5e1").unwrap(), Json::Num(-25.0));
        assert_eq!(
            parse("\"a\\n\\\"b\\\" ✓\"").unwrap(),
            Json::Str("a\n\"b\" ✓".into())
        );
        assert_eq!(parse("[]").unwrap(), Json::Arr(vec![]));
        assert_eq!(parse("{}").unwrap(), Json::Obj(vec![]));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "{\"a\":}",
            "tru",
            "1 2",
            "{1: 2}",
            "\"open",
            "[1] trailing",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn depth_is_capped() {
        let deep = "[".repeat(64) + &"]".repeat(64);
        assert!(parse(&deep).is_err());
        let ok = "[".repeat(8) + &"]".repeat(8);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn render_roundtrips_and_never_emits_invalid_json() {
        let doc = Json::Obj(vec![
            ("name".into(), Json::str("a\n\"b\" ✓")),
            ("n".into(), Json::Num(3.0)),
            ("frac".into(), Json::Num(0.5)),
            ("nan".into(), Json::opt_num(Some(f64::NAN))),
            ("inf".into(), Json::Num(f64::INFINITY)),
            ("missing".into(), Json::opt_num(None)),
            ("arr".into(), Json::Arr(vec![Json::Bool(true), Json::Null])),
        ]);
        let text = doc.render();
        assert_eq!(
            text,
            "{\"name\":\"a\\n\\\"b\\\" ✓\",\"n\":3,\"frac\":0.5,\
             \"nan\":null,\"inf\":null,\"missing\":null,\"arr\":[true,null]}"
        );
        // It parses back (NaN/Inf collapsed to Null by construction).
        let back = parse(&text).unwrap();
        assert_eq!(back.get("n").and_then(Json::as_u64), Some(3));
        assert_eq!(back.get("nan"), Some(&Json::Null));
        assert_eq!(back.get("name").and_then(Json::as_str), Some("a\n\"b\" ✓"));
    }

    #[test]
    fn render_large_and_negative_numbers() {
        assert_eq!(Json::Num(-2.0).render(), "-2");
        assert_eq!(Json::Num(-2.5).render(), "-2.5");
        assert_eq!(Json::Num((1u64 << 53) as f64).render(), "9007199254740992");
        // Huge floats render as plain decimal digits (Rust's f64
        // Display never emits exponents) and still roundtrip.
        let big = Json::Num(1e300).render();
        assert_eq!(parse(&big).unwrap().as_f64(), Some(1e300));
    }

    fn score(s: f32) -> String {
        let mut out = String::new();
        write_score(&mut out, s);
        out
    }

    #[test]
    fn score_writer_matches_the_formatter_on_named_values() {
        let named = [
            0.00005f32,
            0.00015,
            -0.00005,
            0.0,
            -0.0,
            f32::from_bits(1),
            -f32::from_bits(1),
            f32::MIN_POSITIVE,
            0.5,
            -1.25,
            123.456_78,
            999_999_940.0,
            1e9,
            -1e9,
            1_000_000_060.0,
            f32::MAX,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
        ];
        for s in named {
            assert_eq!(score(s), format!("{s:.4}"), "{s:e}");
        }
        assert_eq!(score(-0.0), "-0.0000");
        assert_eq!(score(-0.00001), "-0.0000");
        assert_eq!(score(999_999_940.0), "999999936.0000");
        assert_eq!(score(f32::NAN), "NaN");
    }

    /// The only exact ties at four decimals are odd multiples of 1/32
    /// (`x · 10^4` ends in `.5` only when `5^4` divides its numerator):
    /// they round half to even, so away-from-zero rounding fails here.
    #[test]
    fn score_writer_rounds_exact_ties_half_to_even() {
        assert_eq!(score(0.031_25), "0.0312");
        assert_eq!(score(0.093_75), "0.0938");
        assert_eq!(score(-0.156_25), "-0.1562");
        for j in 0..100_000u32 {
            let s = (2 * j + 1) as f32 / 32.0;
            for s in [s, -s] {
                assert_eq!(score(s), format!("{s:.4}"), "{s}");
            }
        }
    }

    #[test]
    fn integer_extraction_is_exact() {
        assert_eq!(parse("3.5").unwrap().as_u64(), None);
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(parse("4294967295").unwrap().as_u64(), Some(4294967295));
        // Largest exactly-representable integer is accepted…
        assert_eq!(
            parse("9007199254740991").unwrap().as_u64(),
            Some((1u64 << 53) - 1)
        );
        // …but anything at or past 2^53 is not exact in f64 (2^53 + 1
        // parses to the same float as 2^53) and must be rejected, not
        // silently rounded — including u64::MAX, which rounds *up* to
        // 2^64 and used to sneak through a `<= u64::MAX as f64` bound.
        for too_big in ["9007199254740992", "9007199254740993", "1e20"] {
            assert_eq!(parse(too_big).unwrap().as_u64(), None, "{too_big}");
        }
        assert_eq!(parse("18446744073709551615").unwrap().as_u64(), None);
    }
}
