//! The drive path behind the `itua` CLI: resolve a scenario, fold its
//! pinned settings into the CLI flags, optionally pre-flight the
//! structural analyzer, run, print; or model-check it without running.

use crate::{check_models, FigureCli};
use itua_analyzer::reach::{self, ReachConfig};
use itua_analyzer::{AnalysisConfig, Finding, Severity};
use itua_core::{analysis, san_model};
use itua_scenario::assert::MarkingAssert;
use itua_scenario::file::FileScenario;
use itua_scenario::{registry, Scenario};
use itua_studies::sweep::SweepPoint;
use itua_studies::table;
use std::fmt::Write as _;
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
/// analytic sweep point, probed under the unlumped default budget
/// ([`ItuaAnalytic::DEFAULT_MAX_STATES`]), or `too large` when even the
/// symmetry quotient exceeds it.
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
    let lumped = StateSpace::generate_lumped(&model.san, &sym, budget)
        .ok()
        .map(|ss| ss.num_states());
    let full = StateSpace::generate(&model.san, budget)
        .ok()
        .map(|ss| ss.num_states());
    match (lumped, full) {
        (Some(l), Some(f)) => format!("analytic: lumped {l} / full {f} states"),
        (Some(l), None) => format!("analytic: lumped {l} states (full >{budget})"),
        (None, _) => format!("analytic: too large (>{budget} even lumped)"),
    }
}

/// Runs `scenario` under the parsed CLI flags and prints its figures.
/// Returns the process exit code: 0 on success, 2 on a structured
/// runtime error (for example an analytic state budget or horizon the
/// backend rejects) or when `--check` surfaced hard analyzer findings.
pub fn run_scenario(scenario: &dyn Scenario, cli: &FigureCli) -> i32 {
    let mut cfg = cli.cfg;
    let mut split = cli.split.clone();
    scenario.configure(&mut cfg, &mut split);
    if cli.check && check_models(&scenario.points(cli.backend)) {
        eprintln!("model check failed: hard findings above");
        return 2;
    }
    let progress = cli.progress();
    let mut opts = cli.opts(progress.as_ref());
    opts.split = split;
    match scenario.run(&cfg, &opts) {
        Ok(figures) => {
            for fig in figures {
                println!("{}", table::render(&fig));
                if cli.csv {
                    println!("{}", table::to_csv(&fig));
                }
            }
            0
        }
        Err(e) => {
            eprintln!("error: {e}");
            2
        }
    }
}

/// Default exhaustive-exploration budget when `--max-states` is absent
/// (quotient states; matches [`ReachConfig::default`]).
const DEFAULT_CHECK_MAX_STATES: usize = 1 << 20;

/// Runs the model check over every distinct model of the scenario's
/// sweep (for `--backend`; the analytic backend selects a study's micro
/// variant, which is the exhaustive checker's natural target). Returns
/// the process exit code: 0 when clean, 2 on hard findings, budget
/// exhaustion, or a cross-validation mismatch.
///
/// Two modes:
///
/// * structural (default): [`check_models`]'s closure-probing analyzer;
/// * `--exhaustive`: explore the full reachability graph under the
///   model's domain/host/replica symmetry and *prove* every
///   conservation family, exact place bounds, livelock freedom, and the
///   scenario's `assert` claims over every reachable marking — then run
///   the [`analysis::oracle`]: the quotient against the unreduced
///   explorer, and both `statespace.rs` generators against the explored
///   graphs with their vanishing states eliminated (same tangible
///   markings, rates and initial mass within 1e-12 relative).
///
/// `--json` switches either mode's report to one machine-readable JSON
/// object on stdout.
pub fn check_scenario(scenario: &dyn Scenario, cli: &FigureCli) -> i32 {
    let points = scenario.points(cli.backend);
    if cli.exhaustive {
        exhaustive_check_points(scenario, &points, cli)
    } else if cli.json {
        structural_check_json(scenario, &points)
    } else if check_models(&points) {
        eprintln!("model check failed: hard findings above");
        2
    } else {
        println!(
            "scenario '{}' passed the structural model check",
            scenario.name()
        );
        0
    }
}

/// The distinct parameter sets among `points`, keeping first-seen order
/// and one representative point for labeling.
pub(crate) fn distinct_models(points: &[SweepPoint]) -> Vec<&SweepPoint> {
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

/// Escapes a string for inclusion in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn findings_json(findings: &[Finding]) -> String {
    let items: Vec<String> = findings
        .iter()
        .map(|f| {
            format!(
                "{{\"id\":\"{}\",\"severity\":\"{}\",\"subject\":\"{}\",\"detail\":\"{}\"}}",
                json_escape(&f.id),
                match f.severity {
                    Severity::Hard => "hard",
                    Severity::Soft => "soft",
                },
                json_escape(&f.subject),
                json_escape(&f.detail)
            )
        })
        .collect();
    format!("[{}]", items.join(","))
}

/// `--json` without `--exhaustive`: the structural analyzer's findings
/// per distinct model, as one JSON object.
fn structural_check_json(scenario: &dyn Scenario, points: &[SweepPoint]) -> i32 {
    let cfg = AnalysisConfig::default();
    let mut models = Vec::new();
    let mut any_hard = false;
    for point in distinct_models(points) {
        let (findings, error) = match san_model::build(&point.params) {
            Ok(model) => (analysis::full_report(&model, &cfg).findings, String::new()),
            Err(e) => {
                any_hard = true;
                (Vec::new(), e.to_string())
            }
        };
        any_hard |= findings.iter().any(|f| f.severity == Severity::Hard);
        let mut obj = format!(
            "{{\"series\":\"{}\",\"x\":{},\"findings\":{}",
            json_escape(&point.series),
            point.x,
            findings_json(&findings)
        );
        if !error.is_empty() {
            let _ = write!(obj, ",\"error\":\"{}\"", json_escape(&error));
        }
        obj.push('}');
        models.push(obj);
    }
    println!(
        "{{\"scenario\":\"{}\",\"mode\":\"structural\",\"models\":[{}],\"hard\":{}}}",
        json_escape(scenario.name()),
        models.join(","),
        any_hard
    );
    i32::from(any_hard) * 2
}

/// A successful exhaustive run: the proof report, the explorer and
/// generator oracle, and one `(assert, violation)` pair per scenario
/// claim (`None` = proved).
type ExhaustiveProof = (
    analysis::ExhaustiveReport,
    analysis::OracleAgreement,
    Vec<(MarkingAssert, Option<String>)>,
);

/// One model's exhaustive-check outcome, for rendering.
struct ExhaustiveOutcome {
    series: String,
    x: f64,
    /// `Err`: a budget/build/validation failure (always exit 2).
    result: Result<ExhaustiveProof, String>,
}

/// Evaluates the scenario's `assert` claims over every state of the
/// *unreduced* reachability graph (an arbitrary place glob need not be
/// closed under the symmetry group, so quotient representatives would
/// not be sound witnesses). Returns one `(assert, violation)` pair per
/// claim; `None` means proved.
fn prove_asserts(
    san: &std::sync::Arc<itua_san::model::San>,
    asserts: &[MarkingAssert],
    max_states: usize,
) -> Result<Vec<(MarkingAssert, Option<String>)>, String> {
    if asserts.is_empty() {
        return Ok(Vec::new());
    }
    let matched: Vec<Vec<usize>> = asserts
        .iter()
        .map(|a| {
            (0..san.num_places())
                .filter(|&p| a.matches(san.place_name(itua_san::marking::PlaceId::from_index(p))))
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
    let graph = reach::explore(
        san,
        &ReachConfig::with_max_states(max_states),
        None,
        |_, _, _, _, _| {},
    )
    .map_err(|e| format!("assert proof: {e}"))?;
    let mut violations: Vec<Option<String>> = vec![None; asserts.len()];
    for state in &graph.states {
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

/// `--exhaustive`: prove properties over the full reachable space of
/// every distinct model, checking explorers and generators against the
/// oracle.
fn exhaustive_check_points(scenario: &dyn Scenario, points: &[SweepPoint], cli: &FigureCli) -> i32 {
    let max_states = cli
        .backend_opts
        .analytic_max_states
        .unwrap_or(DEFAULT_CHECK_MAX_STATES);
    let asserts = scenario.asserts();
    let mut outcomes = Vec::new();
    for point in distinct_models(points) {
        let result = san_model::build(&point.params)
            .map_err(|e| format!("model construction failed: {e}"))
            .and_then(|model| {
                let report =
                    analysis::exhaustive_check(&model, max_states).map_err(|e| e.to_string())?;
                let oracle = analysis::oracle(&model, max_states)?;
                let proved = prove_asserts(&model.san, &asserts, max_states)?;
                Ok((report, oracle, proved))
            });
        outcomes.push(ExhaustiveOutcome {
            series: point.series.clone(),
            x: point.x,
            result,
        });
    }
    let any_hard = outcomes.iter().any(|o| match &o.result {
        Ok((report, _, proved)) => {
            report.has_hard_findings() || proved.iter().any(|(_, v)| v.is_some())
        }
        Err(_) => true,
    });
    if cli.json {
        print_exhaustive_json(scenario, &outcomes, max_states, any_hard);
    } else {
        print_exhaustive_text(scenario, &outcomes, any_hard);
    }
    i32::from(any_hard) * 2
}

fn print_exhaustive_text(scenario: &dyn Scenario, outcomes: &[ExhaustiveOutcome], hard: bool) {
    for o in outcomes {
        println!("--- exhaustive check: {} (x = {}) ---", o.series, o.x);
        match &o.result {
            Ok((report, oracle, proved)) => {
                print!("{}", report.render());
                println!(
                    "oracle: quotient {} states vs unreduced {} — orbit sums agree",
                    oracle.quotient_states, oracle.full_states
                );
                println!(
                    "cross-validation: both statespace.rs generators match the explored \
                     graphs with vanishing states eliminated ({} states, {} transitions, \
                     worst relative rate deviation {:.1e} ≤ {:.0e})",
                    oracle.tangible_states,
                    oracle.transitions,
                    oracle.max_rel_dev,
                    reach::RATE_REL_TOL
                );
                for (a, violation) in proved {
                    match violation {
                        None => println!("assert {a}: proved over every reachable marking"),
                        Some(v) => println!("assert {a}: FAILED — {v}"),
                    }
                }
            }
            Err(e) => println!("FAILED: {e}"),
        }
    }
    if hard {
        eprintln!("exhaustive model check failed");
    } else {
        println!(
            "scenario '{}' passed the exhaustive model check",
            scenario.name()
        );
    }
}

fn print_exhaustive_json(
    scenario: &dyn Scenario,
    outcomes: &[ExhaustiveOutcome],
    max_states: usize,
    hard: bool,
) {
    let models: Vec<String> = outcomes
        .iter()
        .map(|o| {
            let mut obj = format!("{{\"series\":\"{}\",\"x\":{}", json_escape(&o.series), o.x);
            match &o.result {
                Ok((report, oracle, proved)) => {
                    let asserts: Vec<String> = proved
                        .iter()
                        .map(|(a, v)| match v {
                            None => format!(
                                "{{\"assert\":\"{}\",\"proved\":true}}",
                                json_escape(&a.to_string())
                            ),
                            Some(v) => format!(
                                "{{\"assert\":\"{}\",\"proved\":false,\"detail\":\"{}\"}}",
                                json_escape(&a.to_string()),
                                json_escape(v)
                            ),
                        })
                        .collect();
                    let _ = write!(
                        obj,
                        ",\"quotient_states\":{},\"quotient_tangible\":{},\
                         \"full_states\":{},\"full_tangible\":{},\
                         \"transitions\":{},\"deadlocks\":{},\
                         \"families_proved\":{},\
                         \"max_tokens\":{{\"place\":\"{}\",\"count\":{}}},\
                         \"oracle\":{{\"quotient_states\":{},\"full_states\":{}}},\
                         \"cross_validation\":{{\"tangible_states\":{},\"transitions\":{}}},\
                         \"asserts\":[{}],\"findings\":{}",
                        report.states,
                        report.tangible,
                        report.full_states,
                        report.full_tangible,
                        report.transitions,
                        report.deadlocks,
                        report.families_proved,
                        json_escape(&report.max_tokens_place),
                        report.max_tokens,
                        oracle.quotient_states,
                        oracle.full_states,
                        oracle.tangible_states,
                        oracle.transitions,
                        asserts.join(","),
                        findings_json(&report.findings)
                    );
                }
                Err(e) => {
                    let _ = write!(obj, ",\"error\":\"{}\"", json_escape(e));
                }
            }
            obj.push('}');
            obj
        })
        .collect();
    println!(
        "{{\"scenario\":\"{}\",\"mode\":\"exhaustive\",\"max_states\":{},\"models\":[{}],\
         \"hard\":{}}}",
        json_escape(scenario.name()),
        max_states,
        models.join(","),
        hard
    );
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
        assert_eq!(run_scenario(scenario.as_ref(), &cli), 2);
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
                    run_scenario(&scenario, &cli),
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
        assert_eq!(check_scenario(scenario.as_ref(), &cli), 0);
        cli.json = true;
        assert_eq!(check_scenario(scenario.as_ref(), &cli), 0);
    }

    #[test]
    fn exhaustive_check_rejects_budget_bad_globs_and_false_claims() {
        let dir = std::env::temp_dir().join("itua-driver-exhaustive");
        let mut cli = FigureCli::parse(Vec::<String>::new());
        cli.exhaustive = true;
        cli.backend_opts.analytic_max_states = Some(200_000);

        // A glob matching no place is a hard refusal, not a vacuous pass.
        let bad_glob = micro_scn(&dir, "badglob.scn", "assert = sum(nope/*) <= 1\n");
        assert_eq!(check_scenario(bad_glob.as_ref(), &cli), 2);

        // A claim the reachable space violates fails the check.
        let false_claim = micro_scn(&dir, "false.scn", "assert = max(*/host_corrupt) < 1\n");
        assert_eq!(check_scenario(false_claim.as_ref(), &cli), 2);

        // An exhausted state budget is a structured failure (exit 2).
        let plain = micro_scn(&dir, "plain.scn", "");
        cli.backend_opts.analytic_max_states = Some(3);
        assert_eq!(check_scenario(plain.as_ref(), &cli), 2);
    }

    #[test]
    fn structural_json_check_emits_exit_zero_on_clean_micro() {
        let dir = std::env::temp_dir().join("itua-driver-exhaustive");
        let scenario = micro_scn(&dir, "structural.scn", "");
        let mut cli = FigureCli::parse(Vec::<String>::new());
        cli.json = true;
        assert_eq!(check_scenario(scenario.as_ref(), &cli), 0);
    }
}
