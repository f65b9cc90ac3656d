//! Hostile-input property tests for the `.scn` parser and its `assert`
//! claims.
//!
//! Scenario files are user bytes: any text, including every truncation
//! and mutation of a valid file, must parse to `Ok` or `Err` without
//! panicking. Whatever is accepted must round-trip through the canonical
//! `Display` form to an equal value with an equal content hash, since
//! the hash is the scenario's identity in result-store fingerprints.

use itua_scenario::assert::MarkingAssert;
use itua_scenario::file::{FileScenario, MEASURE_NAMES};
use itua_scenario::keys::NUMERIC_KEYS;
use prop::sample::Index;
use proptest::prelude::*;

/// Characters edits and random text draw from: the format's structure,
/// digits, number syntax, glob and operator characters, and multi-byte
/// code points.
const ALPHABET: &[char] = &[
    '=', '#', ',', '@', '(', ')', '*', '<', '>', '!', 'x', '.', '-', '+', 'e', '0', '1', '2', '5',
    '9', ' ', '\n', '\r', '\t', 'a', 'm', 's', 'n', 'é', '€', '😀',
];

/// Every key a line may start with, plus a near miss.
const KEYWORDS: &[&str] = &[
    "name",
    "description",
    "scheme",
    "schemes",
    "sweep",
    "values",
    "horizon",
    "sample-times",
    "measures",
    "assert",
    "reps",
    "seed",
    "confidence",
    "split-levels",
    "domains",
    "apps",
    "spread-rate-domain",
    "nmae",
];

const SCHEME_LINES: &[&str] = &[
    "scheme = domain-exclusion",
    "scheme = host-exclusion",
    "schemes = domain-exclusion, host-exclusion",
    "schemes = host-exclusion, domain-exclusion",
];

const NAMES: &[&str] = &["spread-demo", "a b  c", "x=y", "µ-scénario", "0"];

const SPLITS: &[&str] = &["1x8,2x4", "none", "3 x 2", "1x2,4x40"];

const GLOBS: &[&str] = &[
    "*",
    "*/host_corrupt",
    "itua/apps[0]/*/has_started",
    "a",
    "**x*",
    "é/*",
];

const AGGS: &[&str] = &["sum", "max", "min"];

const OPS: &[&str] = &["<=", ">=", "==", "!=", "<", ">"];

/// A value for parameter `key` that every composed point accepts, from a
/// unit draw `u` in [0, 1).
fn value_for(key: &str, u: f64) -> f64 {
    let count = |n: f64| 1.0 + f64::from((u * n) as u32);
    match key {
        "domains" => count(5.0),
        "hosts-per-domain" => count(3.0),
        "apps" => count(4.0),
        "reps-per-app" => count(7.0),
        "detect-replica"
        | "detect-manager"
        | "spread-rate-system"
        | "spread-effect-domain"
        | "spread-effect-system" => u,
        "attack-weight-host" | "attack-weight-replica" | "attack-weight-manager" => 0.1 + u,
        "base-attack-rate" | "ids-rate" => 0.1 + 10.0 * u,
        "effective-rate-factor" => 0.01 + u,
        "false-alarm-rate" | "misbehave-rate" | "spread-rate-domain" => 10.0 * u,
        "host-corruption-multiplier" => 1.0 + 9.0 * u,
        other => panic!("no value generator for parameter key '{other}'"),
    }
}

fn join<T: ToString>(items: impl IntoIterator<Item = T>) -> String {
    items
        .into_iter()
        .map(|x| x.to_string())
        .collect::<Vec<_>>()
        .join(", ")
}

/// Valid scenario files: random base parameters, sweep axis, schemes,
/// horizon, measures with `@t` suffixes, sample times, claims and pinned
/// settings, with the lines shuffled and comments and blank lines mixed
/// in.
fn valid_scenario() -> impl Strategy<Value = String> {
    let params = (
        prop::collection::vec((any::<Index>(), 0.0f64..1.0), 0..6),
        any::<Index>(),
        prop::collection::vec(0.0f64..1.0, 1..5),
        (any::<bool>(), any::<Index>()),
        0.5f64..20.0,
    );
    let outputs = (
        prop::collection::vec((any::<Index>(), any::<bool>(), 0.01f64..1.0), 1..4),
        prop::collection::vec(0.01f64..1.0, 0..3),
        prop::collection::vec(
            (any::<Index>(), any::<Index>(), any::<Index>(), any::<i64>()),
            0..3,
        ),
    );
    let pinned = (
        (any::<bool>(), any::<u32>()),
        (any::<bool>(), any::<u64>()),
        (any::<bool>(), 0.5f64..0.999),
        (any::<bool>(), any::<Index>()),
        (any::<bool>(), any::<Index>(), any::<Index>()),
    );
    let layout = prop::collection::vec((any::<Index>(), any::<Index>(), 0u8..3), 0..12);
    (params, outputs, pinned, layout).prop_map(
        |(
            (base, sweep, values, scheme, horizon),
            (measures, sample_times, asserts),
            (reps, seed, confidence, split, identity),
            layout,
        )| {
            let mut lines = Vec::new();
            for (key, u) in base {
                let key = NUMERIC_KEYS[key.index(NUMERIC_KEYS.len())].0;
                lines.push(format!("{key} = {}", value_for(key, u)));
            }
            let sweep = NUMERIC_KEYS[sweep.index(NUMERIC_KEYS.len())].0;
            lines.push(format!("sweep = {sweep}"));
            lines.push(format!(
                "values = {}",
                join(values.iter().map(|&u| value_for(sweep, u)))
            ));
            if scheme.0 {
                lines.push(SCHEME_LINES[scheme.1.index(SCHEME_LINES.len())].to_owned());
            }
            lines.push(format!("horizon = {horizon}"));
            let measures = measures.into_iter().map(|(m, at, frac)| {
                let m = MEASURE_NAMES[m.index(MEASURE_NAMES.len())];
                if at {
                    format!("{m}@{}", horizon * frac)
                } else {
                    m.to_owned()
                }
            });
            lines.push(format!("measures = {}", join(measures)));
            if !sample_times.is_empty() {
                let times = sample_times.iter().map(|&frac| horizon * frac);
                lines.push(format!("sample-times = {}", join(times)));
            }
            for (agg, glob, op, bound) in asserts {
                lines.push(format!(
                    "assert = {}({}) {} {bound}",
                    AGGS[agg.index(AGGS.len())],
                    GLOBS[glob.index(GLOBS.len())],
                    OPS[op.index(OPS.len())],
                ));
            }
            if reps.0 {
                lines.push(format!("reps = {}", reps.1));
            }
            if seed.0 {
                lines.push(format!("seed = {}", seed.1));
            }
            if confidence.0 {
                lines.push(format!("confidence = {}", confidence.1));
            }
            if split.0 {
                lines.push(format!(
                    "split-levels = {}",
                    SPLITS[split.1.index(SPLITS.len())]
                ));
            }
            if identity.0 {
                lines.push(format!("name = {}", NAMES[identity.1.index(NAMES.len())]));
                lines.push(format!(
                    "description = {}",
                    NAMES[identity.2.index(NAMES.len())]
                ));
            }
            // Reorder freely: a repeated base parameter's last assignment
            // wins wherever it lands, and `assert` lines keep their new
            // file order; both survive the round trip.
            for (a, b, kind) in layout {
                let (a, b) = (a.index(lines.len()), b.index(lines.len()));
                match kind {
                    0 => lines.swap(a, b),
                    1 => lines.insert(a, "# a comment = with, structure @5".to_owned()),
                    _ => lines[a].push_str("   # trailing note"),
                }
            }
            lines.join("\n") + "\n"
        },
    )
}

/// Scenario-shaped text: lines of a known key and random characters.
fn scenario_like() -> impl Strategy<Value = String> {
    prop::collection::vec(
        (any::<Index>(), prop::collection::vec(any::<Index>(), 0..16)),
        0..12,
    )
    .prop_map(|lines| {
        lines
            .into_iter()
            .map(|(key, value)| {
                let value: String = value
                    .iter()
                    .map(|c| ALPHABET[c.index(ALPHABET.len())])
                    .collect();
                format!("{} = {value}\n", KEYWORDS[key.index(KEYWORDS.len())])
            })
            .collect()
    })
}

/// Valid `assert` claims, with free whitespace around each part.
fn valid_assert() -> impl Strategy<Value = String> {
    (
        any::<Index>(),
        any::<Index>(),
        any::<Index>(),
        any::<i64>(),
        prop::collection::vec(0usize..3, 5),
    )
        .prop_map(|(agg, glob, op, bound, pads)| {
            let pad = |i: usize| " ".repeat(pads[i]);
            format!(
                "{}{}({}{}{}){}{}{}{bound}",
                pad(0),
                AGGS[agg.index(AGGS.len())],
                pad(1),
                GLOBS[glob.index(GLOBS.len())],
                pad(2),
                pad(3),
                OPS[op.index(OPS.len())],
                pad(4),
            )
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

/// Every prefix of `text` that ends on a character boundary.
fn prefixes(text: &str) -> impl Iterator<Item = &str> {
    (0..=text.len())
        .filter(|&i| text.is_char_boundary(i))
        .map(|i| &text[..i])
}

/// Parses `text`; an accepted scenario must round-trip through its
/// canonical form to an equal value and content hash, and the canonical
/// form must be a fixed point.
fn check_scenario(text: &str) {
    let Ok(s) = FileScenario::parse(text, "fallback") else {
        return;
    };
    let shown = s.to_string();
    let back = FileScenario::parse(&shown, "other")
        .unwrap_or_else(|e| panic!("canonical form rejected: {e}\n{shown}\nfrom:\n{text}"));
    assert_eq!(back, s, "{text}");
    assert_eq!(back.content_hash(), s.content_hash(), "{text}");
    assert_eq!(back.to_string(), shown, "{text}");
}

/// Parses an `assert` claim; an accepted claim must round-trip through
/// its canonical form.
fn check_assert(text: &str) {
    let Ok(a) = MarkingAssert::parse(text) else {
        return;
    };
    let shown = a.to_string();
    assert_eq!(MarkingAssert::parse(&shown).as_ref(), Ok(&a), "'{text}'");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// Generated valid files parse, and round-trip through `Display`.
    #[test]
    fn valid_scenarios_round_trip(text in valid_scenario()) {
        if let Err(e) = FileScenario::parse(&text, "fallback") {
            panic!("valid scenario rejected: {e}\n{text}");
        }
        check_scenario(&text);
    }

    /// Every truncation of a valid file's canonical form parses or fails
    /// cleanly. (Truncations of the raw text, comments included, are among
    /// the edits below.)
    #[test]
    fn truncated_scenarios_parse_or_fail_cleanly(text in valid_scenario()) {
        let canonical = FileScenario::parse(&text, "fallback")
            .expect("generated scenario is valid")
            .to_string();
        for prefix in prefixes(&canonical) {
            let _ = FileScenario::parse(prefix, "fallback");
        }
    }

    /// Random edits to a valid file parse or fail cleanly.
    #[test]
    fn mutated_scenarios_parse_or_fail_cleanly(
        text in valid_scenario(),
        edits in prop::collection::vec((0u8..4, any::<Index>(), any::<Index>()), 1..8),
    ) {
        check_scenario(&mutate(&text, &edits));
    }

    /// Random `key = value` lines parse or fail cleanly.
    #[test]
    fn random_scenario_text_parses_or_fails_cleanly(text in scenario_like()) {
        check_scenario(&text);
    }

    /// Valid claims round-trip (the last prefix is the whole claim); their
    /// truncations and random edits parse or fail cleanly.
    #[test]
    fn assert_claims_round_trip_and_survive_edits(
        text in valid_assert(),
        edits in prop::collection::vec((0u8..4, any::<Index>(), any::<Index>()), 1..6),
    ) {
        prop_assert!(MarkingAssert::parse(&text).is_ok(), "valid claim rejected: '{text}'");
        for prefix in prefixes(&text) {
            check_assert(prefix);
        }
        check_assert(&mutate(&text, &edits));
    }
}
