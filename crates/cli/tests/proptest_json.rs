//! Property tests for the hand-rolled JSON parser in
//! `crates/cli/src/json.rs`: arbitrary inputs never panic, valid
//! documents round-trip through `json_str`/serialisation, and the 2^53
//! exact-integer bound is enforced at every nesting depth; the response
//! score writer is byte-equal to `format!("{:.4}")` on every f32.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;
use taxrec_cli::json::{self, json_str, Json};

/// Serialise a `Json` value back to text (the inverse of `parse` for
/// the subset the round-trip property generates).
fn to_text(v: &Json) -> String {
    match v {
        Json::Null => "null".to_string(),
        Json::Bool(true) => "true".to_string(),
        Json::Bool(false) => "false".to_string(),
        Json::Num(n) => {
            // The generator only emits integers that are exact in f64.
            if *n < 0.0 {
                format!("{}", *n as i64)
            } else {
                format!("{}", *n as u64)
            }
        }
        Json::Str(s) => json_str(s),
        Json::Arr(items) => {
            let inner: Vec<String> = items.iter().map(to_text).collect();
            format!("[{}]", inner.join(","))
        }
        Json::Obj(fields) => {
            let inner: Vec<String> = fields
                .iter()
                .map(|(k, v)| format!("{}:{}", json_str(k), to_text(v)))
                .collect();
            format!("{{{}}}", inner.join(","))
        }
    }
}

/// A random `Json` document of bounded depth, drawn from `rng`. Strings
/// stay within the escape subset the parser emits/accepts; numbers are
/// integers exact in `f64`.
fn random_json(rng: &mut StdRng, depth: usize) -> Json {
    let leaf_only = depth == 0;
    match rng.gen_range(0..if leaf_only { 4u32 } else { 6 }) {
        0 => Json::Null,
        1 => Json::Bool(rng.gen::<u64>() & 1 == 1),
        2 => {
            let mag: u64 = rng.gen_range(0..(1u64 << 53));
            if rng.gen::<u64>() & 1 == 1 && mag > 0 {
                Json::Num(-((mag % (1 << 40)) as f64))
            } else {
                Json::Num(mag as f64)
            }
        }
        3 => {
            let len = rng.gen_range(0..12usize);
            let charset: Vec<char> = "abzXYZ09 _-:\\\"\n✓é{}[],".chars().collect();
            Json::Str(
                (0..len)
                    .map(|_| charset[rng.gen_range(0..charset.len())])
                    .collect(),
            )
        }
        4 => {
            let len = rng.gen_range(0..4usize);
            Json::Arr((0..len).map(|_| random_json(rng, depth - 1)).collect())
        }
        _ => {
            let len = rng.gen_range(0..4usize);
            Json::Obj(
                (0..len)
                    .map(|i| (format!("k{i}"), random_json(rng, depth - 1)))
                    .collect(),
            )
        }
    }
}

/// Wrap `inner` in `depth` alternating array/object layers.
fn nest(inner: &str, depth: usize) -> String {
    let mut out = inner.to_string();
    for d in 0..depth {
        out = if d % 2 == 0 {
            format!("[{out}]")
        } else {
            format!("{{\"k\":{out}}}")
        };
    }
    out
}

/// Walk to the innermost value of a document built by [`nest`].
fn unnest(v: &Json, depth: usize) -> &Json {
    let mut cur = v;
    for _ in 0..depth {
        cur = match cur {
            Json::Arr(items) => &items[0],
            Json::Obj(fields) => &fields[0].1,
            other => other,
        };
    }
    cur
}

proptest! {
    #[test]
    fn arbitrary_bytes_never_panic(
        bytes in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        // `parse` takes &str; lossy conversion covers every byte soup a
        // transport could hand the router after its UTF-8 check.
        let text = String::from_utf8_lossy(&bytes);
        let _ = json::parse(&text);
    }

    #[test]
    fn arbitrary_json_flavoured_text_never_panics(
        picks in proptest::collection::vec(any::<u16>(), 0..220),
    ) {
        // Dense in structural bytes so deep/broken nesting, stray
        // quotes, escapes, and number shards are actually reached.
        let charset: &[u8] = b"{}[]\",:0123456789eE.+-ntf\\ ul";
        let text: String = picks
            .iter()
            .map(|&p| charset[p as usize % charset.len()] as char)
            .collect();
        let _ = json::parse(&text);
    }

    #[test]
    fn valid_documents_round_trip(seed in any::<u64>()) {
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(seed);
        let doc = random_json(&mut rng, 4);
        let text = to_text(&doc);
        let parsed = json::parse(&text)
            .unwrap_or_else(|e| panic!("serialised doc must parse ({e}): {text}"));
        prop_assert_eq!(parsed, doc, "round-trip changed the document: {}", text);
    }

    #[test]
    fn exact_integer_bound_enforced_at_every_depth(
        depth in 0usize..15,
        below in 0u64..(1u64 << 53),
    ) {
        // 2^53 itself and anything above parses as a number but must
        // refuse exact-integer extraction, no matter how deeply nested.
        for too_big in ["9007199254740992", "9007199254740993", "18446744073709551615"] {
            let text = nest(too_big, depth);
            let v = json::parse(&text)
                .unwrap_or_else(|e| panic!("{text} must parse as f64 ({e})"));
            prop_assert_eq!(
                unnest(&v, depth).as_u64(), None,
                "{} accepted past 2^53 at depth {}", too_big, depth
            );
        }
        // Everything strictly below 2^53 is exact and accepted.
        let text = nest(&below.to_string(), depth);
        let v = json::parse(&text).unwrap();
        prop_assert_eq!(unnest(&v, depth).as_u64(), Some(below));
    }

    #[test]
    fn depth_cap_is_an_error_not_a_crash(extra in 1usize..40) {
        // 16 levels parse; anything deeper errors cleanly.
        let ok = nest("0", 16);
        prop_assert!(json::parse(&ok).is_ok());
        let deep = nest("0", 16 + extra);
        prop_assert!(json::parse(&deep).is_err());
    }

    #[test]
    fn score_writer_is_the_formatter_on_any_f32_bits(
        bits in collection::vec(any::<u32>(), 512),
    ) {
        for b in bits {
            let s = f32::from_bits(b);
            let mut out = String::new();
            json::write_score(&mut out, s);
            prop_assert_eq!(&out, &format!("{s:.4}"), "bits {:#010x}", b);
        }
    }

    #[test]
    fn score_writer_is_the_formatter_on_score_sized_f32s(
        parts in collection::vec((0u32..2, 90u32..160, 0u32..(1 << 23)), 512),
    ) {
        // Sign, exponent field and mantissa drawn so |s| spans
        // 2^-37 .. 2^33: every rounding shift, the 1e9 fallback edge
        // and the sizes real scores take.
        for (sign, exp, mant) in parts {
            let b = sign << 31 | exp << 23 | mant;
            let s = f32::from_bits(b);
            let mut out = String::new();
            json::write_score(&mut out, s);
            prop_assert_eq!(&out, &format!("{s:.4}"), "bits {:#010x}", b);
        }
    }
}
