//! The drive path behind the `itua` CLI: resolve a scenario, fold its
//! pinned settings into the CLI flags, run, print; or model-check it
//! without running.

use crate::FigureCli;
use itua_analyzer::probe::ProbeConfig;
use itua_analyzer::{reach, Finding, Severity};
use itua_core::{analysis, san_model};
use itua_runner::json::Json;
use itua_san::marking::PlaceId;
use itua_san::model::San;
use itua_scenario::assert::MarkingAssert;
use itua_scenario::file::FileScenario;
use itua_scenario::{registry, Scenario};
use itua_studies::sweep::SweepPoint;
use itua_studies::table;
use std::fmt::Write as _;
use std::io::{self, Write as _};
use std::path::Path;

/// Resolves a scenario argument: a built-in name from the registry, or
/// a path to a user-authored `.scn` file (recognized by its extension
/// or a path separator).
///
/// # Errors
///
/// A human-readable message for an unknown name, an unreadable file, or
/// a scenario file that fails to parse/validate.
pub fn resolve(arg: &str) -> Result<Box<dyn Scenario>, String> {
    if arg.ends_with(".scn") || arg.contains('/') {
        let text = std::fs::read_to_string(arg).map_err(|e| format!("cannot read '{arg}': {e}"))?;
        let stem = Path::new(arg)
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("scenario");
        let scenario = FileScenario::parse(&text, stem).map_err(|e| format!("{arg}: {e}"))?;
        Ok(Box::new(scenario))
    } else {
        registry::find(arg).ok_or_else(|| {
            let names: Vec<String> = registry::registry()
                .iter()
                .map(|s| s.name().to_owned())
                .collect();
            format!(
                "unknown scenario '{arg}' (built-ins: {}; or a path to a .scn file)",
                names.join(", ")
            )
        })
    }
}

/// Analytic-feasibility summary for one scenario, shown by `itua list`:
/// lumped vs full tangible state counts on the scenario's smallest
/// analytic sweep point. The lumped chain is generated once under the
/// unlumped default budget
/// ([`ItuaAnalytic::DEFAULT_MAX_STATES`](itua_core::analytic::ItuaAnalytic::DEFAULT_MAX_STATES));
/// its orbit sizes sum to the full count exactly. `too large` when even
/// the symmetry quotient exceeds the budget.
pub fn analytic_feasibility(scenario: &dyn Scenario) -> String {
    use itua_core::analytic::ItuaAnalytic;
    use itua_runner::backend::BackendKind;
    use itua_san::statespace::StateSpace;

    let budget = ItuaAnalytic::DEFAULT_MAX_STATES;
    let points = scenario.points(BackendKind::Analytic);
    // Smallest point: fewest hosts, then fewest replicas — the cheapest
    // configuration the analytic backend would be asked to flatten.
    let Some(point) = points.iter().min_by_key(|p| {
        (
            p.params.num_domains * p.params.hosts_per_domain,
            p.params.num_apps * p.params.reps_per_app,
        )
    }) else {
        return "no points".to_owned();
    };
    let Ok(model) = san_model::build(&point.params) else {
        return "model build failed".to_owned();
    };
    let sym = analysis::symmetry_spec(&model);
    match StateSpace::generate_lumped(&model.san, &sym, budget) {
        Ok(ss) => format!(
            "analytic: lumped {} / full {} states",
            ss.num_states(),
            ss.full_state_total()
                .expect("a lumped chain carries orbit sizes")
        ),
        Err(_) => format!("analytic: too large (>{budget} even lumped)"),
    }
}

/// Runs `scenario` under the parsed CLI flags and writes its figures to
/// `out`. Returns the process exit code: 0 on success, 2 on a structured
/// runtime error (for example an analytic state budget or horizon the
/// backend rejects).
///
/// # Errors
///
/// A failed write to `out`.
pub fn run_scenario(
    scenario: &dyn Scenario,
    cli: &FigureCli,
    out: &mut dyn io::Write,
) -> io::Result<i32> {
    let mut cfg = cli.cfg;
    let mut split = cli.split.clone();
    scenario.configure(&mut cfg, &mut split);
    let progress = cli.progress();
    let mut opts = cli.opts(progress.as_ref());
    opts.split = split;
    match scenario.run(&cfg, &opts) {
        Ok(figures) => {
            for fig in figures {
                writeln!(out, "{}", table::render(&fig))?;
                if cli.csv {
                    writeln!(out, "{}", table::to_csv(&fig))?;
                }
            }
            Ok(0)
        }
        Err(e) => {
            let _ = writeln!(io::stderr(), "error: {e}");
            Ok(2)
        }
    }
}

/// Default exhaustive-exploration budget when `--max-states` is absent
/// (quotient states; matches `ReachConfig::default`).
const DEFAULT_CHECK_MAX_STATES: usize = 1 << 20;

/// Runs the model check over every distinct model of the scenario's
/// sweep (for `--backend`; the analytic backend selects a study's micro
/// variant, which is the exhaustive checker's natural target). Returns
/// the process exit code: 0 when clean, 2 on hard findings, budget
/// exhaustion, or a cross-validation mismatch.
///
/// Two modes:
///
/// * structural (default): the closure-probing analyzer
///   ([`analysis::full_report`]);
/// * `--exhaustive`: [`analysis::exhaustive_check`] explores the
///   reachability graph once under the model's domain/host/replica
///   symmetry, *proving* every conservation family, exact place bounds
///   and livelock freedom over every reachable marking, and once
///   unreduced, checking the quotient's orbit sums and both
///   `statespace.rs` generators against the explored graphs with their
///   vanishing states eliminated (same tangible markings, rates and
///   initial mass within 1e-12 relative). The scenario's `assert` claims
///   are proved over the unreduced graph's markings.
///
/// Each model's outcome is written to `out` as text as soon as it is
/// checked, or with `--json` as one entry of a machine-readable JSON
/// object written at the end.
///
/// # Errors
///
/// A failed write to `out`.
pub fn check_scenario(
    scenario: &dyn Scenario,
    cli: &FigureCli,
    out: &mut dyn io::Write,
) -> io::Result<i32> {
    let max_states = cli
        .backend_opts
        .analytic_max_states
        .unwrap_or(DEFAULT_CHECK_MAX_STATES);
    let asserts = scenario.asserts();
    let mode = if cli.exhaustive {
        "exhaustive"
    } else {
        "structural"
    };
    let mut models = Vec::new();
    let mut any_hard = false;
    for point in distinct_models(&scenario.points(cli.backend)) {
        let checked = if cli.exhaustive {
            check_exhaustive(point, &asserts, max_states)
        } else {
            check_structural(point)
        };
        any_hard |= checked.hard;
        if cli.json {
            let mut fields = vec![
                field("series", Json::Str(point.series.clone())),
                field("x", Json::Num(point.x)),
            ];
            fields.extend(checked.json);
            models.push(Json::Obj(fields));
        } else {
            let what = if cli.exhaustive {
                "exhaustive check"
            } else {
                "model check"
            };
            writeln!(out, "--- {what}: {} (x = {}) ---", point.series, point.x)?;
            write!(out, "{}", checked.text)?;
        }
    }
    if cli.json {
        let mut doc = vec![
            field("scenario", Json::Str(scenario.name().to_owned())),
            field("mode", Json::Str(mode.to_owned())),
        ];
        if cli.exhaustive {
            doc.push(field("max_states", Json::Num(max_states as f64)));
        }
        doc.push(field("models", Json::Arr(models)));
        doc.push(field("hard", Json::Bool(any_hard)));
        writeln!(out, "{}", Json::Obj(doc))?;
    } else if !any_hard {
        writeln!(
            out,
            "scenario '{}' passed the {mode} model check",
            scenario.name()
        )?;
    } else if cli.exhaustive {
        let _ = writeln!(io::stderr(), "exhaustive model check failed");
    } else {
        let _ = writeln!(io::stderr(), "model check failed: hard findings above");
    }
    Ok(i32::from(any_hard) * 2)
}

/// The distinct parameter sets among `points`, keeping first-seen order
/// and one representative point for labeling.
fn distinct_models(points: &[SweepPoint]) -> Vec<&SweepPoint> {
    let mut seen: Vec<String> = Vec::new();
    let mut out = Vec::new();
    for point in points {
        let key = format!("{:?}", point.params);
        if !seen.contains(&key) {
            seen.push(key);
            out.push(point);
        }
    }
    out
}

/// One model's check, rendered both ways.
struct Checked {
    /// The text report.
    text: String,
    /// The model's JSON fields after `series` and `x`.
    json: Vec<(String, Json)>,
    /// Whether the model failed the check.
    hard: bool,
}

fn field(key: &str, value: Json) -> (String, Json) {
    (key.to_owned(), value)
}

/// One finding as a JSON object.
fn finding_json(f: &Finding) -> Json {
    let severity = match f.severity {
        Severity::Hard => "hard",
        Severity::Soft => "soft",
    };
    Json::Obj(vec![
        field("id", Json::Str(f.id.clone())),
        field("severity", Json::Str(severity.to_owned())),
        field("subject", Json::Str(f.subject.clone())),
        field("detail", Json::Str(f.detail.clone())),
    ])
}

/// The structural analyzer's report on one model.
fn check_structural(point: &SweepPoint) -> Checked {
    match san_model::build(&point.params) {
        Ok(model) => {
            let report = analysis::full_report(&model, &ProbeConfig::default());
            Checked {
                text: report.render(),
                json: vec![field(
                    "findings",
                    Json::Arr(report.findings.iter().map(finding_json).collect()),
                )],
                hard: report.has_hard_findings(),
            }
        }
        Err(e) => Checked {
            text: format!("model construction failed: {e}\n"),
            json: vec![
                field("findings", Json::Arr(Vec::new())),
                field("error", Json::Str(e.to_string())),
            ],
            hard: true,
        },
    }
}

/// Evaluates the scenario's `assert` claims over every state of the
/// *unreduced* reachability graph (an arbitrary place glob need not be
/// closed under the symmetry group, so quotient representatives would
/// not be sound witnesses). Returns one `(assert, violation)` pair per
/// claim; `None` means proved.
fn prove_asserts(
    san: &San,
    asserts: &[MarkingAssert],
    states: &[Vec<i32>],
) -> Result<Vec<(MarkingAssert, Option<String>)>, String> {
    let matched: Vec<Vec<usize>> = asserts
        .iter()
        .map(|a| {
            (0..san.num_places())
                .filter(|&p| a.matches(san.place_name(PlaceId::from_index(p))))
                .collect()
        })
        .collect();
    for (a, places) in asserts.iter().zip(&matched) {
        if places.is_empty() {
            return Err(format!(
                "assert '{a}': the place glob matches no place of this model"
            ));
        }
    }
    let mut violations: Vec<Option<String>> = vec![None; asserts.len()];
    for state in states {
        for (i, (a, places)) in asserts.iter().zip(&matched).enumerate() {
            if violations[i].is_some() {
                continue;
            }
            let values: Vec<i32> = places.iter().map(|&p| state[p]).collect();
            if !a.holds(&values) {
                violations[i] = Some(format!(
                    "violated in a reachable marking: matched tokens {values:?}"
                ));
            }
        }
    }
    Ok(asserts.iter().cloned().zip(violations).collect())
}

/// `--exhaustive` on one model: the proof report, the explorer and
/// generator agreement, and the scenario's claims.
fn check_exhaustive(point: &SweepPoint, asserts: &[MarkingAssert], max_states: usize) -> Checked {
    let result = san_model::build(&point.params)
        .map_err(|e| format!("model construction failed: {e}"))
        .and_then(|model| {
            let report = analysis::exhaustive_check(&model, max_states)?;
            let proved = prove_asserts(&model.san, asserts, &report.unreduced)?;
            Ok((report, proved))
        });
    let (report, proved) = match result {
        Ok(checked) => checked,
        Err(e) => {
            return Checked {
                text: format!("FAILED: {e}\n"),
                json: vec![field("error", Json::Str(e))],
                hard: true,
            }
        }
    };
    let mut text = report.render();
    let _ = writeln!(
        text,
        "oracle: quotient {} states vs unreduced {} — orbit sums agree",
        report.states, report.full_states
    );
    let _ = writeln!(
        text,
        "cross-validation: both statespace.rs generators match the explored \
         graphs with vanishing states eliminated ({} states, {} transitions, \
         worst relative rate deviation {:.1e} ≤ {:.0e})",
        report.full_tangible,
        report.generated_transitions,
        report.max_rel_dev,
        reach::RATE_REL_TOL
    );
    let mut asserts_json = Vec::new();
    for (a, violation) in &proved {
        let mut claim = vec![
            field("assert", Json::Str(a.to_string())),
            field("proved", Json::Bool(violation.is_none())),
        ];
        match violation {
            None => {
                let _ = writeln!(text, "assert {a}: proved over every reachable marking");
            }
            Some(v) => {
                let _ = writeln!(text, "assert {a}: FAILED — {v}");
                claim.push(field("detail", Json::Str(v.clone())));
            }
        }
        asserts_json.push(Json::Obj(claim));
    }
    let count = |n: u128| Json::Num(n as f64);
    let json = vec![
        field("quotient_states", count(report.states as u128)),
        field("quotient_tangible", count(report.tangible as u128)),
        field("full_states", count(report.full_states)),
        field("full_tangible", count(report.full_tangible)),
        field("transitions", count(report.transitions as u128)),
        field("deadlocks", count(report.deadlocks as u128)),
        field("families_proved", count(report.families_proved as u128)),
        field(
            "max_tokens",
            Json::Obj(vec![
                field("place", Json::Str(report.max_tokens_place.clone())),
                field("count", Json::Num(f64::from(report.max_tokens))),
            ]),
        ),
        field(
            "oracle",
            Json::Obj(vec![
                field("quotient_states", count(report.states as u128)),
                field("full_states", count(report.full_states)),
            ]),
        ),
        field(
            "cross_validation",
            Json::Obj(vec![
                field("tangible_states", count(report.full_tangible)),
                field("transitions", count(report.generated_transitions as u128)),
            ]),
        ),
        field("asserts", Json::Arr(asserts_json)),
        field(
            "findings",
            Json::Arr(report.findings.iter().map(finding_json).collect()),
        ),
    ];
    Checked {
        text,
        hard: report.has_hard_findings() || proved.iter().any(|(_, v)| v.is_some()),
        json,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use itua_runner::backend::BackendKind;
    use itua_studies::sweep::{FigureResult, Series};

    /// `Box<dyn Scenario>` has no `Debug`, so `unwrap_err` can't be used.
    fn expect_err(r: Result<Box<dyn Scenario>, String>) -> String {
        match r {
            Ok(s) => panic!("expected an error, resolved '{}'", s.name()),
            Err(e) => e,
        }
    }

    #[test]
    fn rejected_runs_exit_with_code_2() {
        let cli = FigureCli::parse(
            [
                "--backend",
                "analytic",
                "--max-states",
                "10",
                "--no-resume",
                "--quiet",
            ]
            .map(String::from),
        );
        let scenario = resolve("figure4").unwrap();
        assert_eq!(
            run_scenario(scenario.as_ref(), &cli, &mut io::sink()).unwrap(),
            2
        );
    }

    /// A scenario whose points carry a horizon and sample time no `.scn`
    /// file can declare (the parser rejects them).
    struct Hostile {
        inner: Box<dyn Scenario>,
        horizon: f64,
        sample: f64,
    }

    impl Scenario for Hostile {
        fn name(&self) -> &str {
            "hostile"
        }
        fn description(&self) -> &str {
            "bad horizon or sample time"
        }
        fn points(&self, backend: BackendKind) -> Vec<SweepPoint> {
            let mut points = self.inner.points(backend);
            for p in &mut points {
                p.horizon = self.horizon;
                p.sample_times = vec![self.sample];
            }
            points
        }
        fn measures(&self) -> Vec<String> {
            self.inner.measures()
        }
        fn render(&self, series: &[Series]) -> FigureResult {
            self.inner.render(series)
        }
    }

    #[test]
    fn bad_horizons_and_nan_sample_times_exit_with_code_2_on_every_backend() {
        let dir = std::env::temp_dir().join("itua-driver-hostile");
        let mut scenario = Hostile {
            inner: micro_scn(&dir, "hostile.scn", "values = 0\nspread-rate-system = 0\n"),
            horizon: 0.0,
            sample: 0.0,
        };
        for (horizon, sample) in [(f64::NAN, 1.0), (f64::INFINITY, 1.0), (2.0, f64::NAN)] {
            scenario.horizon = horizon;
            scenario.sample = sample;
            for backend in ["des", "san", "analytic"] {
                let cli = FigureCli::parse(
                    [
                        "--backend",
                        backend,
                        "--reps",
                        "4",
                        "--no-resume",
                        "--quiet",
                    ]
                    .map(String::from),
                );
                assert_eq!(
                    run_scenario(&scenario, &cli, &mut io::sink()).unwrap(),
                    2,
                    "{backend}: horizon {horizon}, sample {sample}"
                );
            }
        }
    }

    #[test]
    fn resolve_finds_builtins_and_rejects_unknowns() {
        assert_eq!(resolve("figure3").unwrap().name(), "figure3");
        assert_eq!(resolve("all-figures").unwrap().name(), "all-figures");
        let err = expect_err(resolve("figure9"));
        assert!(err.contains("unknown scenario"));
        assert!(err.contains("figure3"));
    }

    #[test]
    fn resolve_parses_scn_files_and_reports_their_errors() {
        let dir = std::env::temp_dir().join("itua-driver-test");
        std::fs::create_dir_all(&dir).unwrap();
        let good = dir.join("mini.scn");
        std::fs::write(
            &good,
            "domains = 2\nhosts-per-domain = 1\napps = 1\nreps-per-app = 3\n\
             sweep = spread-rate-domain\nvalues = 0, 4\nmeasures = unavailability\n",
        )
        .unwrap();
        let s = resolve(good.to_str().unwrap()).unwrap();
        assert_eq!(s.name(), "mini"); // file stem fallback
        assert_eq!(s.points(BackendKind::Des).len(), 2);

        let bad = dir.join("bad.scn");
        std::fs::write(&bad, "sweep = nope\n").unwrap();
        let err = expect_err(resolve(bad.to_str().unwrap()));
        assert!(err.contains("bad.scn"), "{err}");
        assert!(err.contains("line 1"), "{err}");

        let err = expect_err(resolve(dir.join("absent.scn").to_str().unwrap()));
        assert!(err.contains("cannot read"));
    }

    fn micro_scn(dir: &std::path::Path, name: &str, extra: &str) -> Box<dyn Scenario> {
        std::fs::create_dir_all(dir).unwrap();
        let path = dir.join(name);
        std::fs::write(
            &path,
            format!(
                "domains = 1\nhosts-per-domain = 2\napps = 1\nreps-per-app = 2\n\
                 sweep = spread-rate-domain\nvalues = 1\nmeasures = unavailability\n{extra}"
            ),
        )
        .unwrap();
        resolve(path.to_str().unwrap()).unwrap()
    }

    #[test]
    fn exhaustive_check_proves_a_micro_scn_with_asserts() {
        let dir = std::env::temp_dir().join("itua-driver-exhaustive");
        let scenario = micro_scn(
            &dir,
            "micro.scn",
            "assert = max(*/host_corrupt) <= 1\n\
             assert = sum(itua/apps[0]/*/has_started) <= 2\n",
        );
        let mut cli = FigureCli::parse(Vec::<String>::new());
        cli.exhaustive = true;
        cli.backend_opts.analytic_max_states = Some(200_000);
        assert_eq!(
            check_scenario(scenario.as_ref(), &cli, &mut io::sink()).unwrap(),
            0
        );
        cli.json = true;
        assert_eq!(
            check_scenario(scenario.as_ref(), &cli, &mut io::sink()).unwrap(),
            0
        );
    }

    #[test]
    fn exhaustive_check_rejects_budget_bad_globs_and_false_claims() {
        let dir = std::env::temp_dir().join("itua-driver-exhaustive");
        let mut cli = FigureCli::parse(Vec::<String>::new());
        cli.exhaustive = true;
        cli.backend_opts.analytic_max_states = Some(200_000);

        // A glob matching no place is a hard refusal, not a vacuous pass.
        let bad_glob = micro_scn(&dir, "badglob.scn", "assert = sum(nope/*) <= 1\n");
        assert_eq!(
            check_scenario(bad_glob.as_ref(), &cli, &mut io::sink()).unwrap(),
            2
        );

        // A claim the reachable space violates fails the check.
        let false_claim = micro_scn(&dir, "false.scn", "assert = max(*/host_corrupt) < 1\n");
        assert_eq!(
            check_scenario(false_claim.as_ref(), &cli, &mut io::sink()).unwrap(),
            2
        );

        // An exhausted state budget is a structured failure (exit 2).
        let plain = micro_scn(&dir, "plain.scn", "");
        cli.backend_opts.analytic_max_states = Some(3);
        assert_eq!(
            check_scenario(plain.as_ref(), &cli, &mut io::sink()).unwrap(),
            2
        );
    }

    #[test]
    fn structural_check_exits_zero_on_clean_micro() {
        let dir = std::env::temp_dir().join("itua-driver-exhaustive");
        let scenario = micro_scn(&dir, "structural.scn", "");
        let mut cli = FigureCli::parse(Vec::<String>::new());
        assert_eq!(
            check_scenario(scenario.as_ref(), &cli, &mut io::sink()).unwrap(),
            0
        );
        cli.json = true;
        assert_eq!(
            check_scenario(scenario.as_ref(), &cli, &mut io::sink()).unwrap(),
            0
        );
    }

    #[test]
    fn distinct_models_analyzes_each_parameter_set_once() {
        let dir = std::env::temp_dir().join("itua-driver-distinct");
        let scenario = micro_scn(&dir, "distinct.scn", "");
        let mut points = scenario.points(BackendKind::Des);
        points.push(points[0].clone());
        assert_eq!(distinct_models(&points).len(), 1);
    }
}
