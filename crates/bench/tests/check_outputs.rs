//! The machine-readable output of `itua check --exhaustive --json`: the
//! documented keys in their documented order, a clean verdict, a proved
//! `.scn` assert, and the state and transition counts of each explored
//! graph, pinned.

use itua_runner::json::Json;
use std::process::Command;

/// Runs the built `itua` binary and parses its stdout as one JSON
/// document, asserting exit code 0.
fn check_json(args: &[&str]) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_itua"))
        .args(args)
        .output()
        .expect("the itua binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    Json::parse(&stdout).unwrap_or_else(|e| panic!("{args:?}: {e}\n{stdout}"))
}

/// The keys of a JSON object, in order.
fn keys(value: &Json) -> Vec<&str> {
    match value {
        Json::Obj(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("expected an object, got {other}"),
    }
}

/// A numeric field of an object (by `/`-separated path) as an integer.
fn count(value: &Json, path: &str) -> u64 {
    path.split('/')
        .fold(value, |v, key| {
            v.get(key).unwrap_or_else(|| panic!("no key '{path}'"))
        })
        .as_u64()
        .unwrap_or_else(|| panic!("'{path}' is not a count"))
}

const MODEL_KEYS: [&str; 14] = [
    "series",
    "x",
    "quotient_states",
    "quotient_tangible",
    "full_states",
    "full_tangible",
    "transitions",
    "deadlocks",
    "families_proved",
    "max_tokens",
    "oracle",
    "cross_validation",
    "asserts",
    "findings",
];

/// Checks one model entry: its keys, its findings' keys, and its counts
/// `[quotient, quotient tangible, full, full tangible, quotient firings,
/// generated transitions]`.
fn assert_model(model: &Json, counts: [u64; 6]) {
    assert_eq!(keys(model), MODEL_KEYS);
    let [quotient, tangible, full, full_tangible, firings, generated] = counts;
    assert_eq!(count(model, "quotient_states"), quotient);
    assert_eq!(count(model, "quotient_tangible"), tangible);
    assert_eq!(count(model, "full_states"), full);
    assert_eq!(count(model, "full_tangible"), full_tangible);
    assert_eq!(count(model, "transitions"), firings);
    assert_eq!(count(model, "families_proved"), 9);
    assert_eq!(keys(model.get("max_tokens").unwrap()), ["place", "count"]);
    assert_eq!(count(model, "oracle/quotient_states"), quotient);
    assert_eq!(count(model, "oracle/full_states"), full);
    assert_eq!(
        count(model, "cross_validation/tangible_states"),
        full_tangible
    );
    assert_eq!(count(model, "cross_validation/transitions"), generated);
    let findings = model.get("findings").unwrap().as_arr().unwrap();
    assert!(!findings.is_empty());
    for f in findings {
        assert_eq!(keys(f), ["id", "severity", "subject", "detail"]);
        assert_eq!(f.get("severity").unwrap().as_str(), Some("soft"));
    }
}

fn assert_clean_exhaustive(doc: &Json, scenario: &str) {
    assert_eq!(
        keys(doc),
        ["scenario", "mode", "max_states", "models", "hard"]
    );
    assert_eq!(doc.get("scenario").unwrap().as_str(), Some(scenario));
    assert_eq!(doc.get("mode").unwrap().as_str(), Some("exhaustive"));
    assert_eq!(count(doc, "max_states"), 1 << 20);
    assert_eq!(doc.get("hard"), Some(&Json::Bool(false)));
}

#[test]
fn figure4_exhaustive_json_pins_both_micro_models() {
    let doc = check_json(&[
        "check",
        "figure4",
        "--exhaustive",
        "--backend",
        "analytic",
        "--json",
    ]);
    assert_clean_exhaustive(&doc, "figure4");
    let models = doc.get("models").unwrap().as_arr().unwrap();
    assert_eq!(models.len(), 2);
    assert_model(&models[0], [338, 162, 548, 297, 875, 1365]);
    assert_model(&models[1], [8801, 4509, 29262, 17253, 40098, 152010]);
    for model in models {
        assert_eq!(model.get("asserts"), Some(&Json::Arr(Vec::new())));
    }
}

#[test]
fn micro_scn_exhaustive_json_proves_its_assert() {
    let dir = std::env::temp_dir().join(format!("itua-check-outputs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("micro.scn");
    std::fs::write(
        &path,
        "domains = 1\nhosts-per-domain = 2\napps = 1\nreps-per-app = 2\n\
         spread-rate-domain = 0\nspread-rate-system = 0\n\
         sweep = false-alarm-rate\nvalues = 2\nhorizon = 2\n\
         measures = unavailability\n\
         assert = sum(itua/apps[0]/*/has_started) <= 2\n",
    )
    .unwrap();
    let doc = check_json(&["check", path.to_str().unwrap(), "--exhaustive", "--json"]);
    assert_clean_exhaustive(&doc, "micro");
    let models = doc.get("models").unwrap().as_arr().unwrap();
    assert_eq!(models.len(), 1);
    assert_model(&models[0], [1211, 504, 4134, 1917, 5273, 18210]);
    let asserts = models[0].get("asserts").unwrap().as_arr().unwrap();
    assert_eq!(asserts.len(), 1);
    assert_eq!(keys(&asserts[0]), ["assert", "proved"]);
    assert_eq!(
        asserts[0].get("assert").unwrap().as_str(),
        Some("sum(itua/apps[0]/*/has_started) <= 2")
    );
    assert_eq!(asserts[0].get("proved"), Some(&Json::Bool(true)));
}
