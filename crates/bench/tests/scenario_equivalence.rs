//! The scenario layer's contract: thread-count-invariant stores, stable
//! `.scn` round-trips, resolvable shipped scenario files.

use itua_bench::driver;
use itua_runner::progress::NullProgress;
use itua_scenario::file::FileScenario;
use itua_scenario::registry;
use itua_studies::sweep::{RunOpts, SweepConfig};
use std::fs;
use std::path::{Path, PathBuf};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("itua-scn-eq-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn small_cfg() -> SweepConfig {
    SweepConfig {
        replications: 2,
        ..SweepConfig::default()
    }
}

fn opts_into(dir: &Path, threads: usize) -> RunOpts<'static> {
    let mut opts = RunOpts::default();
    opts.runner = opts.runner.with_threads(threads);
    opts.progress = &NullProgress;
    opts.results_dir = Some(dir.to_path_buf());
    opts
}

#[test]
fn scenario_store_is_byte_identical_across_thread_counts() {
    // CI byte-diffs `itua run` stores at 1 and 8 threads; this pins the
    // same property in-process.
    let cfg = small_cfg();
    let scenario = registry::find("sensitivity").unwrap();

    let scn_dir = temp_dir("scenario");
    scenario.run(&cfg, &opts_into(&scn_dir, 1)).unwrap();
    let scn_dir_t2 = temp_dir("scenario-t2");
    scenario.run(&cfg, &opts_into(&scn_dir_t2, 2)).unwrap();

    let scn_bytes = fs::read(scn_dir.join("sensitivity.json")).unwrap();
    let scn_bytes_t2 = fs::read(scn_dir_t2.join("sensitivity.json")).unwrap();
    assert!(!scn_bytes.is_empty());
    assert_eq!(scn_bytes, scn_bytes_t2);
}

fn example_files() -> Vec<PathBuf> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/scenarios");
    let mut files: Vec<PathBuf> = fs::read_dir(dir)
        .expect("examples/scenarios exists")
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "scn"))
        .collect();
    files.sort();
    files
}

#[test]
fn every_shipped_scenario_file_round_trips_parse_hash_parse() {
    let files = example_files();
    assert!(
        files.len() >= 3,
        "expected the shipped examples, got {files:?}"
    );
    for path in files {
        let text = fs::read_to_string(&path).unwrap();
        let parsed = FileScenario::parse(&text, "stem").unwrap_or_else(|e| {
            panic!("{}: {e}", path.display());
        });
        let reparsed = FileScenario::parse(&parsed.to_string(), "other-stem").unwrap();
        assert_eq!(parsed, reparsed, "{}", path.display());
        assert_eq!(
            parsed.content_hash(),
            reparsed.content_hash(),
            "{}",
            path.display()
        );
    }
}

#[test]
fn shipped_scenario_files_resolve_and_compose() {
    use itua_runner::backend::BackendKind;
    for path in example_files() {
        let scenario = driver::resolve(path.to_str().unwrap()).unwrap_or_else(|e| {
            panic!("{e}");
        });
        let points = scenario.points(BackendKind::Des);
        assert!(!points.is_empty(), "{}", path.display());
        for p in &points {
            p.params.validate().unwrap();
        }
        // File scenarios must contribute their identity to the store
        // fingerprint, unlike built-ins.
        let parts = scenario.fingerprint_parts();
        assert_eq!(parts.len(), 1, "{}", path.display());
        assert!(parts[0].starts_with("scn="), "{}", path.display());
    }
}

#[test]
fn tail_split_example_pins_its_execution_settings() {
    let path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/scenarios/tail-split.scn");
    let scenario = driver::resolve(path.to_str().unwrap()).unwrap();
    let mut cfg = SweepConfig::default();
    let mut split = None;
    scenario.configure(&mut cfg, &mut split);
    assert_eq!(cfg.replications, 400);
    assert_eq!(split.unwrap().to_string(), "1x8,2x4");
}
