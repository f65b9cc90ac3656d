//! Hostile-input property tests for the result store's JSON reader and
//! writer.
//!
//! A store file may be cut mid-write or edited by hand, so any text,
//! including every truncation and mutation of a valid document, must
//! parse to `Ok` or `Err` without panicking. Written values must parse
//! back equal, and writing is deterministic: the same value always gives
//! the same bytes, and the written form of any accepted document parses
//! and writes back to itself.

use itua_runner::json::Json;
use prop::sample::Index;
use proptest::prelude::*;

/// Characters edits and random text draw from: JSON's structure,
/// literals, number syntax, escapes, and multi-byte code points.
const ALPHABET: &[char] = &[
    '{', '}', '[', ']', '"', ':', ',', '\\', 'u', 't', 'r', 'n', 'f', 'a', 'l', 'e', 's', '0', '1',
    '9', '.', 'E', '+', '-', ' ', '\n', '\u{1}', 'é', '€', '😀',
];

/// String characters worth escaping or splitting: quotes, backslashes,
/// control characters, DEL, and one-, two-, three- and four-byte code
/// points.
const STRING_CHARS: &[char] = &[
    '"', '\\', '/', '\n', '\r', '\t', '\u{8}', '\u{c}', '\u{0}', '\u{1f}', '\u{7f}', 'a', 'é', '€',
    '😀',
];

/// A character: an interesting one, or any code point (surrogates map to
/// U+FFFD).
fn string_char() -> impl Strategy<Value = char> {
    prop_oneof![
        any::<Index>().prop_map(|i| STRING_CHARS[i.index(STRING_CHARS.len())]),
        (0u32..0x11_0000).prop_map(|c| char::from_u32(c).unwrap_or('\u{fffd}')),
    ]
}

/// Finite numbers over the whole `f64` range: subnormals, negative zero,
/// integers and extremes.
fn finite(bits: u64) -> f64 {
    let x = f64::from_bits(bits);
    if x.is_finite() {
        x
    } else {
        (bits >> 11) as f64
    }
}

/// JSON values, built by a stack machine: each op pushes a scalar or
/// wraps the top few values into an array or object.
fn json_value() -> impl Strategy<Value = Json> {
    prop::collection::vec(
        (
            0u8..6,
            any::<u64>(),
            prop::collection::vec(string_char(), 0..6),
        ),
        0..40,
    )
    .prop_map(|ops| {
        let mut stack: Vec<Json> = Vec::new();
        for (op, bits, chars) in ops {
            let text: String = chars.into_iter().collect();
            let take = |stack: &mut Vec<Json>| {
                let k = (bits % 4) as usize;
                stack.split_off(stack.len().saturating_sub(k))
            };
            let value = match op {
                0 => Json::Null,
                1 => Json::Bool(bits & 1 == 1),
                2 => Json::Num(finite(bits)),
                3 => Json::Str(text),
                4 => Json::Arr(take(&mut stack)),
                _ => Json::Obj(
                    take(&mut stack)
                        .into_iter()
                        .enumerate()
                        .map(|(i, v)| (format!("{text}{}", i % 2), v))
                        .collect(),
                ),
            };
            stack.push(value);
        }
        match stack.len() {
            1 => stack.pop().expect("one value"),
            _ => Json::Arr(stack),
        }
    })
}

/// `text` after each `(op, at, c)` edit: replace, delete or insert the
/// character at `at`, or truncate there (positions count characters, so
/// the result stays UTF-8).
fn mutate(text: &str, edits: &[(u8, Index, Index)]) -> String {
    let mut chars: Vec<char> = text.chars().collect();
    for &(op, at, c) in edits {
        let c = ALPHABET[c.index(ALPHABET.len())];
        match op {
            0 if !chars.is_empty() => {
                let i = at.index(chars.len());
                chars[i] = c;
            }
            1 if !chars.is_empty() => {
                chars.remove(at.index(chars.len()));
            }
            2 => chars.insert(at.index(chars.len() + 1), c),
            _ => chars.truncate(at.index(chars.len() + 1)),
        }
    }
    chars.into_iter().collect()
}

/// Parses `text`; an accepted document must write back to bytes that
/// parse and write to themselves.
fn check_parse(text: &str) {
    let Ok(v) = Json::parse(text) else {
        return;
    };
    let written = v.to_string();
    let back = Json::parse(&written)
        .unwrap_or_else(|e| panic!("written form rejected: {e}\n{written}\nfrom: {text:?}"));
    assert_eq!(back.to_string(), written, "{text:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// Written values parse back equal, and writing is deterministic.
    #[test]
    fn written_values_round_trip(v in json_value()) {
        let written = v.to_string();
        prop_assert_eq!(v.to_string(), written.clone());
        let back = Json::parse(&written).expect("written JSON parses");
        prop_assert_eq!(&back, &v);
        prop_assert_eq!(back.to_string(), written);
    }

    /// Every truncation of a written document parses or fails cleanly.
    #[test]
    fn truncated_documents_parse_or_fail_cleanly(v in json_value()) {
        let written = v.to_string();
        for i in (0..=written.len()).filter(|&i| written.is_char_boundary(i)) {
            check_parse(&written[..i]);
        }
    }

    /// Random edits to a written document parse or fail cleanly.
    #[test]
    fn mutated_documents_parse_or_fail_cleanly(
        v in json_value(),
        edits in prop::collection::vec((0u8..4, any::<Index>(), any::<Index>()), 1..8),
    ) {
        check_parse(&mutate(&v.to_string(), &edits));
    }

    /// Random text over JSON's alphabet parses or fails cleanly.
    #[test]
    fn random_text_parses_or_fails_cleanly(
        chars in prop::collection::vec(any::<Index>(), 0..48),
    ) {
        let text: String = chars.iter().map(|c| ALPHABET[c.index(ALPHABET.len())]).collect();
        check_parse(&text);
    }
}
