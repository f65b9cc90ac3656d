//! Workspace maintenance tasks, invoked as `cargo xtask <command>`.
//!
//! * `bench-json` — runs the tracked benchmarks in full mode and
//!   rewrites the `current` sections of `BENCH_san.json` (SAN hot-path
//!   timing medians), `BENCH_rare.json` (rare-event splitting figures),
//!   and `BENCH_analytic.json` (symmetry-lumped analytic headline) at
//!   the workspace root; the `baseline` sections are preserved. With
//!   `--check`, afterwards applies the [`benchcheck`] rules — >15%
//!   timing regression against a baseline, a rare-event
//!   `event_reduction` below 10×, a lumping `reduction_factor` below
//!   20×, or a lumped-vs-unlumped `micro_max_rel_err` above 1e-9 — and
//!   exits 2 when any rule fails. `--only BENCH` restricts the run (and
//!   the check) to one tracked bench, so CI can gate them at different
//!   severities. See `EXPERIMENTS.md` § "Hot-path benchmark",
//!   § "Rare-event benchmark", and § "Symmetry-lumping benchmark".

mod benchcheck;

use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("bench-json") => run_bench_json(&args[1..]),
        Some(other) => {
            eprintln!(
                "unknown command '{other}'\nusage: cargo xtask bench-json [--check] [--only BENCH]"
            );
            ExitCode::from(2)
        }
        None => {
            eprintln!("usage: cargo xtask bench-json [--check] [--only BENCH]");
            ExitCode::from(2)
        }
    }
}

/// The workspace root: the binary lives in crates/xtask, so it is two
/// levels up from the manifest — independent of the invocation cwd.
fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/xtask has a workspace root two levels up")
}

/// The tracked benchmarks: (bench target, JSON file at the workspace
/// root, check rule).
type CheckFn = fn(&str) -> Result<Vec<String>, String>;
const TRACKED_BENCHES: &[(&str, &str, CheckFn)] = &[
    ("san_hotpath", "BENCH_san.json", benchcheck::check_san),
    ("rare_split", "BENCH_rare.json", benchcheck::check_rare),
    (
        "analytic",
        "BENCH_analytic.json",
        benchcheck::check_analytic,
    ),
];

fn run_bench_json(args: &[String]) -> ExitCode {
    let mut check = false;
    let mut only: Option<&str> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--check" => check = true,
            "--only" => match it.next() {
                Some(name) if TRACKED_BENCHES.iter().any(|(b, _, _)| b == name) => {
                    only = Some(name);
                }
                Some(name) => {
                    eprintln!(
                        "xtask bench-json: unknown bench '{name}' (tracked: {})",
                        TRACKED_BENCHES
                            .iter()
                            .map(|(b, _, _)| *b)
                            .collect::<Vec<_>>()
                            .join(", ")
                    );
                    return ExitCode::from(2);
                }
                None => {
                    eprintln!("xtask bench-json: --only needs a bench name");
                    return ExitCode::from(2);
                }
            },
            _ => {
                eprintln!("usage: cargo xtask bench-json [--check] [--only BENCH]");
                return ExitCode::from(2);
            }
        }
    }
    let selected = |bench: &str| only.is_none_or(|o| o == bench);
    for (bench, json, _) in TRACKED_BENCHES {
        if !selected(bench) {
            continue;
        }
        let status = std::process::Command::new(env!("CARGO"))
            .current_dir(workspace_root())
            .args([
                "bench",
                "-p",
                "itua-bench",
                "--bench",
                bench,
                "--",
                "--json",
                json,
            ])
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("xtask bench-json: {bench} exited with {s}");
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("xtask bench-json: failed to launch cargo: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if !check {
        return ExitCode::SUCCESS;
    }
    let mut failed = false;
    for (bench, json, rule) in TRACKED_BENCHES {
        if !selected(bench) {
            continue;
        }
        let path = workspace_root().join(json);
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("xtask bench-json: cannot read {}: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        match rule(&text) {
            Ok(violations) if violations.is_empty() => println!("{json}: ok"),
            Ok(violations) => {
                failed = true;
                for v in violations {
                    println!("{json}: REGRESSION: {v}");
                }
            }
            Err(e) => {
                eprintln!("xtask bench-json: {json}: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if failed {
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    }
}
