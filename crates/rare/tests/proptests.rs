//! Hostile-input property tests for the `--split-levels` parser.
//!
//! A spec comes straight from the command line or a `.scn` file, so any
//! string must parse to `Ok` or `Err` without panicking, and whatever is
//! accepted must be a spec [`SplitSpec::from_levels`] accepts too and must
//! round-trip through its `Display` form (which is embedded in store
//! fingerprints).

use itua_rare::{SplitLevel, SplitSpec};
use proptest::prelude::*;

/// The characters a spec is written in.
const ALPHABET: &[u8] = b"0123456789x, ";

/// Strings over [`ALPHABET`], up to 24 characters long.
fn spec_like() -> impl Strategy<Value = String> {
    prop::collection::vec(0..ALPHABET.len(), 0..24)
        .prop_map(|idx| idx.into_iter().map(|i| char::from(ALPHABET[i])).collect())
}

/// Valid specs: up to four strictly increasing positive thresholds with
/// factors of at least 2.
fn valid_spec() -> impl Strategy<Value = SplitSpec> {
    prop::collection::vec((1u32..4, 2u32..40), 0..5).prop_map(|steps| {
        let mut threshold = 0;
        let levels = steps
            .into_iter()
            .map(|(gap, factor)| {
                threshold += gap;
                SplitLevel { threshold, factor }
            })
            .collect();
        SplitSpec::from_levels(levels).expect("generated spec is valid")
    })
}

/// `s` mutated by `op`: one character replaced, deleted or inserted, or
/// the string truncated, at `at`.
fn mutate(s: &str, op: u8, at: prop::sample::Index, c: usize) -> String {
    let mut bytes = s.as_bytes().to_vec();
    let c = ALPHABET[c];
    match op {
        0 if !bytes.is_empty() => {
            let i = at.index(bytes.len());
            bytes[i] = c;
        }
        1 if !bytes.is_empty() => {
            bytes.remove(at.index(bytes.len()));
        }
        2 => bytes.insert(at.index(bytes.len() + 1), c),
        _ => bytes.truncate(at.index(bytes.len() + 1)),
    }
    String::from_utf8(bytes).expect("ASCII stays UTF-8")
}

/// Parses `s`; an accepted spec must obey `from_levels`' rules and
/// round-trip through `Display`.
fn check_parse(s: &str) {
    let Ok(spec) = s.parse::<SplitSpec>() else {
        return;
    };
    for l in spec.levels() {
        assert!(l.threshold > 0, "'{s}' accepted threshold 0");
        assert!(l.factor >= 2, "'{s}' accepted factor {}", l.factor);
    }
    for pair in spec.levels().windows(2) {
        assert!(
            pair[0].threshold < pair[1].threshold,
            "'{s}' accepted non-increasing thresholds"
        );
    }
    assert_eq!(
        SplitSpec::from_levels(spec.levels().to_vec()).as_ref(),
        Ok(&spec),
        "'{s}'"
    );
    let shown = spec.to_string();
    assert_eq!(
        shown.parse::<SplitSpec>().as_ref(),
        Ok(&spec),
        "'{s}' shows as '{shown}'"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// Random strings over the spec alphabet never panic the parser.
    #[test]
    fn random_strings_parse_or_fail_cleanly(s in spec_like()) {
        check_parse(&s);
    }

    /// Valid specs round-trip, and every mutation or truncation of their
    /// text parses or fails cleanly.
    #[test]
    fn mutated_valid_specs_parse_or_fail_cleanly(
        spec in valid_spec(),
        op in 0u8..4,
        at in any::<prop::sample::Index>(),
        c in 0..ALPHABET.len(),
    ) {
        let shown = spec.to_string();
        prop_assert_eq!(shown.parse::<SplitSpec>(), Ok(spec));
        check_parse(&mutate(&shown, op, at, c));
    }
}

#[test]
fn none_and_empty_parse_to_the_empty_spec() {
    for s in ["none", "", "  ", " none "] {
        let spec: SplitSpec = s.parse().expect("empty spec parses");
        assert!(spec.is_empty(), "'{s}'");
        assert_eq!(spec, SplitSpec::none());
    }
}
