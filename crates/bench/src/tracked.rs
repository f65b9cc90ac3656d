//! The tracked `BENCH_*.json` artifacts the benches in `benches/` write
//! with `--json PATH`: one object of `schema`, `unit`, `baseline` and
//! `current`, where `current` is overwritten by every run and `baseline`
//! is kept once created, so the perf trajectory stays visible in the repo.

use itua_runner::json::Json;
use std::path::{Path, PathBuf};

/// Writes `results` as the `current` block of the tracked artifact at
/// `path` and returns the resolved path. A relative `path` is anchored at
/// the workspace root (cargo runs bench binaries with cwd =
/// `crates/bench`). The `baseline` block is kept from the existing file,
/// or seeded with `results` when the file does not exist or has none.
///
/// # Errors
///
/// Propagates the write failure.
pub fn write_tracked_json(
    path: &str,
    schema: &str,
    unit: &str,
    results: &[(String, f64)],
) -> std::io::Result<PathBuf> {
    let path = resolve(path);
    let current = Json::Obj(
        results
            .iter()
            .map(|(name, x)| (name.clone(), Json::Num(*x)))
            .collect(),
    );
    let baseline = std::fs::read_to_string(&path)
        .ok()
        .and_then(|text| Json::parse(&text).ok())
        .and_then(|doc| doc.get("baseline").cloned())
        .unwrap_or_else(|| current.clone());
    let doc = Json::Obj(vec![
        ("schema".into(), Json::Str(schema.into())),
        ("unit".into(), Json::Str(unit.into())),
        ("baseline".into(), baseline),
        ("current".into(), current),
    ]);
    std::fs::write(&path, format!("{doc}\n"))?;
    Ok(path)
}

fn resolve(path: &str) -> PathBuf {
    let p = Path::new(path);
    if p.is_absolute() {
        return p.to_owned();
    }
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench has a workspace root two levels up")
        .join(p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_the_baseline_and_overwrites_current() {
        let path = std::env::temp_dir().join("itua-tracked-json-test.json");
        let _ = std::fs::remove_file(&path);
        let path_str = path.to_str().unwrap();
        write_tracked_json(path_str, "s-v1", "u", &[("a".into(), 1.0)]).unwrap();
        let written = write_tracked_json(path_str, "s-v1", "u", &[("a".into(), 2.5)]).unwrap();
        assert_eq!(written, path);
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "{\"schema\":\"s-v1\",\"unit\":\"u\",\"baseline\":{\"a\":1.0},\"current\":{\"a\":2.5}}\n"
        );
    }
}
