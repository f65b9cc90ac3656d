//! The tracked `BENCH_*.json` artifacts the benches in `benches/` write
//! with `--json PATH`: one object of `schema`, `unit`, `baseline` and
//! `current`, where `current` is overwritten by every run and `baseline`
//! is kept once created, so the perf trajectory stays visible in the repo.
//!
//! Recording is also the regression check: each bench passes the [`Gate`]s
//! its figures must meet, and [`record`] prints `PATH: ok` or one
//! `PATH: REGRESSION: …` line per violation, exiting 2 on any.
//!
//! Every bench reads its flags through [`BenchArgs::from_env`]: a bad
//! flag prints the usage and exits 2, like the `itua` CLI.

use itua_runner::json::Json;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// The flags of a tracked bench.
#[derive(Debug, Default, PartialEq)]
pub struct BenchArgs {
    /// `--quick` (or `--test`): a small run for CI smoke coverage.
    pub quick: bool,
    /// `--json PATH`: the tracked file to record the figures in.
    pub json: Option<String>,
    /// `--only NAME`: the one scenario to run, for a bench that has
    /// scenarios.
    pub only: Option<String>,
}

impl BenchArgs {
    /// Parses the bench's arguments (excluding `argv[0]`); see
    /// [`BenchArgs::from_env`].
    ///
    /// # Errors
    ///
    /// A one-line message for an unknown flag, a flag without its value,
    /// or an `--only` that names no scenario.
    fn try_parse(
        args: impl IntoIterator<Item = String>,
        scenarios: &[&str],
    ) -> Result<Self, String> {
        let mut parsed = BenchArgs::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--quick" | "--test" => parsed.quick = true,
                "--json" => parsed.json = Some(it.next().ok_or("--json needs a path")?),
                "--only" if !scenarios.is_empty() => {
                    let name = it.next().ok_or("--only needs a scenario name")?;
                    if !scenarios.contains(&name.as_str()) {
                        return Err(format!("--only: no scenario '{name}'"));
                    }
                    parsed.only = Some(name);
                }
                "--bench" => {}
                other => return Err(format!("unknown argument '{other}'")),
            }
        }
        Ok(parsed)
    }

    /// Parses `std::env::args` for the bench `name`. `scenarios` names
    /// what `--only` may pick; a bench without scenarios passes none and
    /// takes no `--only`. Cargo's `--bench` is accepted and ignored. An
    /// unknown flag, a flag without its value, or an `--only` that names
    /// no scenario prints the error and the usage on stderr and exits 2.
    pub fn from_env(name: &str, scenarios: &[&str]) -> Self {
        Self::try_parse(std::env::args().skip(1), scenarios).unwrap_or_else(|e| {
            let only = if scenarios.is_empty() {
                String::new()
            } else {
                format!(" [--only {}]", scenarios.join("|"))
            };
            let _ = writeln!(
                io::stderr(),
                "error: {e}\nusage: cargo bench -p itua-bench --bench {name} -- \
                 [--quick] [--json PATH]{only}"
            );
            std::process::exit(2);
        })
    }
}

/// Allowed growth of a baseline-gated figure over its baseline (15%).
const REGRESSION_FACTOR: f64 = 1.15;

/// A rule a tracked figure must meet when a run records it.
#[derive(Debug, Clone, Copy)]
pub enum Gate<'a> {
    /// Each of `names` (every figure, when empty), measured in `unit`, may
    /// exceed its baseline by at most 15%. A figure without a baseline,
    /// or with a baseline ≤ 0, is not gated.
    WithinBaseline {
        /// The unit the violation message prints after each value.
        unit: &'a str,
        /// The gated figures; empty gates every figure.
        names: &'a [&'a str],
    },
    /// The named reduction factor must be at least the floor.
    AtLeast(&'a str, f64),
    /// The named figure must be at most the ceiling.
    AtMost(&'a str, f64),
}

/// Writes `results` as the `current` block of the tracked artifact at
/// `path`, keeping the existing file's `baseline` block, and returns the
/// resolved path with the violations of `gates`. A relative `path` is
/// anchored at the workspace root (cargo runs bench binaries with cwd =
/// `crates/bench`). Only a missing file seeds `baseline` from `results`.
///
/// # Errors
///
/// A message, with the file left untouched, when an existing file cannot
/// be read or parsed or has no `baseline` object; the write failure
/// otherwise.
fn write_tracked_json(
    path: &str,
    schema: &str,
    unit: &str,
    results: &[(String, f64)],
    gates: &[Gate],
) -> Result<(PathBuf, Vec<String>), String> {
    let path = resolve(path);
    let current = Json::Obj(
        results
            .iter()
            .map(|(name, x)| (name.clone(), Json::Num(*x)))
            .collect(),
    );
    let baseline = match std::fs::read_to_string(&path) {
        Ok(text) => Json::parse(&text)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .get("baseline")
            .filter(|b| matches!(b, Json::Obj(_)))
            .cloned()
            .ok_or_else(|| format!("{}: no \"baseline\" object", path.display()))?,
        Err(e) if e.kind() == io::ErrorKind::NotFound => current.clone(),
        Err(e) => return Err(format!("cannot read {}: {e}", path.display())),
    };
    let found = violations(results, &baseline, gates);
    let doc = Json::Obj(vec![
        ("schema".into(), Json::Str(schema.into())),
        ("unit".into(), Json::Str(unit.into())),
        ("baseline".into(), baseline),
        ("current".into(), current),
    ]);
    std::fs::write(&path, format!("{doc}\n"))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok((path, found))
}

/// Records `results` at `path` for a bench's `main`: writes them as the
/// `current` block, keeps the file's `baseline` block, prints the verdict
/// of `gates`, `PATH: ok` or one `PATH: REGRESSION: …` line per
/// violation, and exits 2 on a violation or an unusable file. A relative
/// `path` is anchored at the workspace root.
pub fn record(path: &str, schema: &str, unit: &str, results: &[(String, f64)], gates: &[Gate]) {
    match write_tracked_json(path, schema, unit, results, gates) {
        Ok((written, found)) => {
            println!("wrote {}", written.display());
            if found.is_empty() {
                println!("{path}: ok");
                return;
            }
            for v in found {
                println!("{path}: REGRESSION: {v}");
            }
        }
        Err(e) => {
            let _ = writeln!(io::stderr(), "error: {e}");
        }
    }
    std::process::exit(2);
}

/// The violations of `gates` by `current` against `baseline`, in gate
/// order.
fn violations(current: &[(String, f64)], baseline: &Json, gates: &[Gate]) -> Vec<String> {
    let figure = |name: &str| current.iter().find(|(n, _)| n == name).map(|&(_, x)| x);
    let mut found = Vec::new();
    for gate in gates {
        match *gate {
            Gate::WithinBaseline { unit, names } => {
                for (name, cur) in current {
                    if !names.is_empty() && !names.contains(&name.as_str()) {
                        continue;
                    }
                    let Some(base) = baseline.get(name).and_then(Json::as_f64) else {
                        // A figure added after the baseline was recorded
                        // has nothing to regress against.
                        continue;
                    };
                    if *cur > base * REGRESSION_FACTOR && base > 0.0 {
                        found.push(format!(
                            "{name}: {cur:.0} {unit} vs baseline {base:.0} {unit} \
                             (+{:.0}%, limit +{:.0}%)",
                            (cur / base - 1.0) * 100.0,
                            (REGRESSION_FACTOR - 1.0) * 100.0,
                        ));
                    }
                }
            }
            Gate::AtLeast(name, floor) => match figure(name) {
                Some(x) if x >= floor => {}
                Some(x) => found.push(format!("{name} {x:.2}x below the {floor}x floor")),
                None => found.push(format!("no numeric \"{name}\" in \"current\"")),
            },
            Gate::AtMost(name, ceiling) => match figure(name) {
                Some(x) if x <= ceiling => {}
                Some(x) => found.push(format!("{name} {x:.3e} above the {ceiling:.0e} ceiling")),
                None => found.push(format!("no numeric \"{name}\" in \"current\"")),
            },
        }
    }
    found
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

    /// `BenchArgs::try_parse` on string literals.
    fn parse(args: &[&str], scenarios: &[&str]) -> Result<BenchArgs, String> {
        BenchArgs::try_parse(args.iter().map(|&a| a.to_owned()), scenarios)
    }

    #[test]
    fn bench_args_parse_every_flag() {
        assert_eq!(parse(&[], &[]), Ok(BenchArgs::default()));
        assert_eq!(
            parse(&["--bench", "--quick", "--json", "B.json"], &[]),
            Ok(BenchArgs {
                quick: true,
                json: Some("B.json".into()),
                only: None,
            })
        );
        assert_eq!(
            parse(&["--test", "--only", "b", "--bench"], &["a", "b"]),
            Ok(BenchArgs {
                quick: true,
                json: None,
                only: Some("b".into()),
            })
        );
    }

    #[test]
    fn bench_args_reject_bad_input() {
        for (args, scenarios, msg) in [
            (&["--bogus"][..], &[][..], "unknown argument '--bogus'"),
            (&["--quick", "-q"], &["a"], "unknown argument '-q'"),
            (&["--json"], &[], "--json needs a path"),
            (&["--only"], &["a"], "--only needs a scenario name"),
            (&["--only", "a"], &[], "unknown argument '--only'"),
            (&["--only", "c"], &["a", "b"], "--only: no scenario 'c'"),
        ] {
            assert_eq!(parse(args, scenarios), Err(msg.to_owned()), "{args:?}");
        }
    }

    /// `(name, value)` figures from literals.
    fn figures(pairs: &[(&str, f64)]) -> Vec<(String, f64)> {
        pairs.iter().map(|&(n, x)| (n.to_owned(), x)).collect()
    }

    /// A `baseline` object from literals.
    fn baseline(pairs: &[(&str, f64)]) -> Json {
        Json::Obj(
            pairs
                .iter()
                .map(|&(n, x)| (n.to_owned(), Json::Num(x)))
                .collect(),
        )
    }

    const SAN: &[Gate] = &[Gate::WithinBaseline {
        unit: "ns",
        names: &[],
    }];

    fn san(a: f64) -> Vec<String> {
        let base = baseline(&[("a", 100.0), ("b", 200.0)]);
        violations(&figures(&[("a", a), ("b", 200.0)]), &base, SAN)
    }

    #[test]
    fn within_tolerance_is_clean() {
        assert_eq!(san(110.0), Vec::<String>::new());
    }

    #[test]
    fn regression_over_15_percent_is_flagged() {
        assert_eq!(
            san(116.0),
            ["a: 116 ns vs baseline 100 ns (+16%, limit +15%)"]
        );
    }

    #[test]
    fn new_figure_without_baseline_is_ignored() {
        let base = baseline(&[("a", 100.0), ("b", 200.0), ("z", 0.0)]);
        let current = figures(&[("c", 999.0), ("a", 110.0), ("b", 200.0), ("z", 5.0)]);
        assert_eq!(violations(&current, &base, SAN), Vec::<String>::new());
    }

    const RARE: &[Gate] = &[Gate::AtLeast("event_reduction", 10.0)];

    #[test]
    fn event_reduction_floor() {
        let base = baseline(&[("event_reduction", 17.5)]);
        let ok = figures(&[("event_reduction", 12.0)]);
        assert_eq!(violations(&ok, &base, RARE), Vec::<String>::new());
        let bad = figures(&[("event_reduction", 9.99)]);
        assert_eq!(
            violations(&bad, &base, RARE),
            ["event_reduction 9.99x below the 10x floor"]
        );
    }

    const ANALYTIC: &[Gate] = &[
        Gate::AtLeast("reduction_factor", 20.0),
        Gate::AtMost("micro_max_rel_err", 1e-9),
        Gate::WithinBaseline {
            unit: "ms",
            names: &["build_ms", "solve_ms", "build_ms_2t", "solve_ms_2t"],
        },
    ];

    const ANALYTIC_BASELINE: &[(&str, f64)] = &[
        ("reduction_factor", 163.2),
        ("micro_max_rel_err", 1.0e-12),
        ("build_ms", 16000.0),
        ("solve_ms", 138000.0),
        ("build_ms_2t", 9000.0),
        ("solve_ms_2t", 80000.0),
    ];

    /// The analytic figures within every gate, with `changes` applied.
    fn analytic(changes: &[(&str, f64)]) -> Vec<(String, f64)> {
        let mut current = figures(&[
            ("reduction_factor", 163.2),
            ("micro_max_rel_err", 1.0e-12),
            ("build_ms", 16500.0),
            ("solve_ms", 139000.0),
            ("build_ms_2t", 9500.0),
            ("solve_ms_2t", 81000.0),
        ]);
        for &(name, x) in changes {
            current.iter_mut().find(|(n, _)| n == name).unwrap().1 = x;
        }
        current
    }

    fn analytic_violations(changes: &[(&str, f64)]) -> Vec<String> {
        violations(&analytic(changes), &baseline(ANALYTIC_BASELINE), ANALYTIC)
    }

    #[test]
    fn analytic_within_gates_is_clean() {
        assert_eq!(analytic_violations(&[]), Vec::<String>::new());
    }

    #[test]
    fn analytic_reduction_floor_and_exactness_ceiling() {
        assert_eq!(
            analytic_violations(&[("reduction_factor", 3.0), ("micro_max_rel_err", 1.0e-6)]),
            [
                "reduction_factor 3.00x below the 20x floor",
                "micro_max_rel_err 1.000e-6 above the 1e-9 ceiling",
            ]
        );
    }

    #[test]
    fn analytic_timing_regressions_are_flagged() {
        let found = analytic_violations(&[("solve_ms", 190000.0)]);
        assert_eq!(
            found,
            ["solve_ms: 190000 ms vs baseline 138000 ms (+38%, limit +15%)"]
        );
        let found = analytic_violations(&[("build_ms_2t", 12000.0)]);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].starts_with("build_ms_2t:"), "{found:?}");
    }

    #[test]
    fn analytic_missing_baseline_timings_are_ignored() {
        let slow = [("build_ms", 1e9), ("solve_ms_2t", 1e9)];
        let base = baseline(&ANALYTIC_BASELINE[..2]);
        assert_eq!(
            violations(&analytic(&slow), &base, ANALYTIC),
            Vec::<String>::new()
        );
        // A baseline recorded before the two-thread figures existed.
        let base = baseline(&ANALYTIC_BASELINE[..4]);
        let found = violations(&analytic(&slow), &base, ANALYTIC);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].starts_with("build_ms:"), "{found:?}");
    }

    #[test]
    fn missing_gated_figures_are_flagged() {
        let base = baseline(ANALYTIC_BASELINE);
        assert_eq!(
            violations(&figures(&[("build_ms", 1.0)]), &base, ANALYTIC),
            [
                "no numeric \"reduction_factor\" in \"current\"",
                "no numeric \"micro_max_rel_err\" in \"current\"",
            ]
        );
        assert_eq!(
            violations(&figures(&[("trees", 1.0)]), &baseline(&[]), RARE),
            ["no numeric \"event_reduction\" in \"current\""]
        );
    }

    /// A fresh path under the temp dir, with no file at it.
    fn temp_path(tag: &str) -> PathBuf {
        let path = std::env::temp_dir().join(format!(
            "itua-tracked-json-{tag}-{}.json",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn keeps_the_baseline_and_overwrites_current() {
        let path = temp_path("keep");
        let path_str = path.to_str().unwrap();
        let gates = &[Gate::AtMost("a", 2.0)];
        let (_, found) =
            write_tracked_json(path_str, "s-v1", "u", &[("a".into(), 1.0)], gates).unwrap();
        assert!(found.is_empty(), "{found:?}");
        let (written, found) =
            write_tracked_json(path_str, "s-v1", "u", &[("a".into(), 2.5)], gates).unwrap();
        assert_eq!(written, path);
        assert_eq!(found, ["a 2.500e0 above the 2e0 ceiling"]);
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "{\"schema\":\"s-v1\",\"unit\":\"u\",\"baseline\":{\"a\":1.0},\"current\":{\"a\":2.5}}\n"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_truncated_file_is_an_error_and_stays_untouched() {
        let path = temp_path("truncated");
        let text = "{\"schema\":\"s-v1\",\"unit\":\"u\",\"baseline\":{\"a\":1";
        std::fs::write(&path, text).unwrap();
        let err = write_tracked_json(path.to_str().unwrap(), "s-v1", "u", &[], &[]).unwrap_err();
        assert!(err.starts_with(&path.display().to_string()), "{err}");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), text);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_file_without_a_baseline_object_is_an_error_and_stays_untouched() {
        for text in [
            "{\"schema\":\"s-v1\",\"current\":{\"a\":1.0}}\n",
            "{\"baseline\":[1.0],\"current\":{\"a\":1.0}}\n",
        ] {
            let path = temp_path("no-baseline");
            std::fs::write(&path, text).unwrap();
            let err =
                write_tracked_json(path.to_str().unwrap(), "s-v1", "u", &[], &[]).unwrap_err();
            assert!(err.ends_with("no \"baseline\" object"), "{err}");
            assert_eq!(std::fs::read_to_string(&path).unwrap(), text);
            std::fs::remove_file(&path).unwrap();
        }
    }
}
