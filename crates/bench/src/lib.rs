//! The `itua` CLI's flag parser and drive path, and the tracked
//! benchmarks' shared output helper.

pub mod driver;
pub mod tracked;

use itua_rare::SplitSpec;
use itua_runner::backend::{BackendKind, BackendOptions, ModelCheck};
use itua_runner::engine::RunnerConfig;
use itua_runner::progress::{ConsoleProgress, NullProgress, Progress};
use itua_studies::sweep::{RunOpts, SweepConfig};
use std::path::PathBuf;
use std::str::FromStr;

/// The flags of `itua run` and `itua check`.
///
/// Supported arguments:
///
/// * `--backend des|san|analytic` — which backend runs the study: the
///   direct discrete-event simulator (default), the composed stochastic
///   activity network, or the exact CTMC solver (small configurations
///   only; the figure studies substitute their exact-solvable micro
///   variant); all run through the same pipeline and report the same
///   measure names,
/// * `--reps N` — replications per sweep point (default 2000; the
///   simulating backends refuse fewer than 2, the analytic backend
///   ignores it),
/// * `--seed S` — base seed,
/// * `--csv` — also print the figure as CSV,
/// * `--threads N` — worker threads: the simulators' replication workers,
///   and for the analytic backend the teams that generate the state
///   space and walk the uniformization (default: one per core; results
///   are identical for every choice),
/// * `--batch N` — replications per batched backend call (default 32;
///   purely an amortisation knob, results are identical for every
///   choice),
/// * `--max-states N` — state budget: for the analytic backend, the
///   bound on generated states before a configuration is rejected
///   (default 1000000 lumped, 100000 unlumped); for `itua check
///   --exhaustive`, the exploration budget in quotient states (default
///   2^20),
/// * `--lump` / `--no-lump` — solve the analytic backend on the exact
///   symmetry-lumped chain (the default) or on the full tangible state
///   space. Lumping collapses interchangeable domains/hosts/replicas
///   into orbit representatives — same measures, orders of magnitude
///   fewer states; `--no-lump` reproduces the pre-lumping stores byte
///   for byte,
/// * `--results DIR` — result-store directory (default `results/`),
/// * `--no-resume` — disable the result store: re-simulate every point
///   and write no results file, wherever it appears among the flags
///   (a `--results DIR` does not turn the store back on),
/// * `--no-check` — skip the quick model check that `run_measures`
///   performs before every point (the full analysis is `itua check`),
/// * `--exhaustive` — `itua check` only: explore the reachability graph
///   once quotiented by the model's domain/host/replica symmetry,
///   *proving* the conservation families and exact place bounds over
///   every reachable marking, and once unreduced, proving the `.scn`
///   assertions and checking the quotient and both analytic state-space
///   generators against the explored graphs with vanishing states
///   eliminated, rates within 1e-12 relative (see
///   [`driver::check_scenario`]),
/// * `--json` — `itua check` only: machine-readable findings on stdout,
/// * `--split-levels SPEC` — run every point through RESTART importance
///   splitting on the corrupt-domain-count level. `SPEC` is
///   comma-separated `<threshold>x<factor>` pairs with strictly
///   increasing thresholds (e.g. `1x8,2x4`: split 8-for-1 when the count
///   first reaches 1, a further 4-for-1 at 2); `none` (or an empty spec)
///   selects the splitting machinery with no thresholds, which
///   reproduces the plain path bit for bit. Splitting runs checkpoint
///   into a separate `-split` store. Applies to the DES and SAN
///   backends; the analytic backend ignores it (exact, nothing to
///   simulate),
/// * `--quiet` — suppress progress output on stderr.
#[derive(Debug, Clone, PartialEq)]
pub struct FigureCli {
    /// Which backend runs the sweep.
    pub backend: BackendKind,
    /// Backend construction options (`--max-states`, `--lump`,
    /// `--no-lump`). `itua check --exhaustive` reads
    /// `analytic_max_states` as its exploration budget.
    pub backend_opts: BackendOptions,
    /// Sweep configuration assembled from the flags.
    pub cfg: SweepConfig,
    /// Whether to print CSV after the tables.
    pub csv: bool,
    /// Worker threads (`0` = one per core).
    pub threads: usize,
    /// Replications per batched backend call (`0` is treated as 1).
    pub batch_size: u32,
    /// Result-store directory; `None` disables checkpoint/resume.
    pub results_dir: Option<PathBuf>,
    /// Whether `--no-check` disabled the default quick model check.
    pub no_check: bool,
    /// Whether `itua check --exhaustive` requested the exhaustive
    /// reachability checker instead of the structural probe.
    pub exhaustive: bool,
    /// Whether `itua check --json` requested machine-readable findings.
    pub json: bool,
    /// RESTART splitting thresholds (`--split-levels`); `None` runs the
    /// plain replication loop.
    pub split: Option<SplitSpec>,
    /// Whether progress output is suppressed.
    pub quiet: bool,
}

impl FigureCli {
    /// Parses `std::env::args`-style arguments (excluding `argv[0]`).
    ///
    /// # Errors
    ///
    /// A one-line message naming the offending flag: an unknown flag, a
    /// missing or malformed value, a zero `--max-states`, or an invalid
    /// `--split-levels` spec.
    pub fn try_parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut cli = FigureCli {
            backend: BackendKind::Des,
            backend_opts: BackendOptions::default(),
            cfg: SweepConfig::default(),
            csv: false,
            threads: 0,
            batch_size: RunnerConfig::default().batch_size,
            results_dir: Some(PathBuf::from("results")),
            no_check: false,
            exhaustive: false,
            json: false,
            split: None,
            quiet: false,
        };
        let mut no_resume = false;
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--backend" => {
                    cli.backend = it
                        .next()
                        .and_then(|v| BackendKind::parse(&v))
                        .ok_or("--backend needs 'des', 'san', or 'analytic'")?;
                }
                "--reps" => cli.cfg.replications = value(&mut it, &arg, "a positive integer")?,
                "--seed" => cli.cfg.base_seed = value(&mut it, &arg, "an integer")?,
                "--max-states" => {
                    let n = value(&mut it, &arg, "a positive integer")?;
                    if n == 0 {
                        return Err("--max-states needs a positive integer".to_owned());
                    }
                    cli.backend_opts.analytic_max_states = Some(n);
                }
                "--lump" => cli.backend_opts.analytic_lump = true,
                "--no-lump" => cli.backend_opts.analytic_lump = false,
                "--csv" => cli.csv = true,
                "--threads" => cli.threads = value(&mut it, &arg, "a non-negative integer")?,
                "--batch" => cli.batch_size = value(&mut it, &arg, "a non-negative integer")?,
                "--results" => {
                    cli.results_dir = Some(value(&mut it, &arg, "a directory path")?);
                }
                "--no-resume" => no_resume = true,
                "--no-check" => cli.no_check = true,
                "--exhaustive" => cli.exhaustive = true,
                "--json" => cli.json = true,
                "--split-levels" => {
                    let spec = it
                        .next()
                        .ok_or("--split-levels needs a spec like '1x8,2x4'")?;
                    cli.split = Some(spec.parse().map_err(|e| format!("--split-levels: {e}"))?);
                }
                "--quiet" => cli.quiet = true,
                other => {
                    return Err(format!(
                        "unknown argument '{other}' (try --backend des|san|analytic, \
                         --reps N, --seed S, --csv, --max-states N, --lump, --no-lump, \
                         --threads N, --batch N, --results DIR, --no-resume, --no-check, \
                         --exhaustive, --json, --split-levels SPEC, --quiet)"
                    ))
                }
            }
        }
        if no_resume {
            cli.results_dir = None;
        }
        Ok(cli)
    }

    /// [`FigureCli::try_parse`] for fixed, known-good flags: the
    /// end-to-end benchmark (`examples/benchmark`) builds its `itua run`
    /// flags in code and calls this. User input goes through
    /// `try_parse`.
    ///
    /// # Panics
    ///
    /// Panics with `try_parse`'s message on malformed arguments.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Self {
        Self::try_parse(args).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The progress reporter these flags select.
    pub fn progress(&self) -> Box<dyn Progress> {
        if self.quiet {
            Box::new(NullProgress)
        } else {
            Box::new(ConsoleProgress::new())
        }
    }

    /// Execution options for [`itua_scenario::Scenario::run`], borrowing
    /// `progress` (obtain it from [`FigureCli::progress`]).
    pub fn opts<'a>(&self, progress: &'a dyn Progress) -> RunOpts<'a> {
        let runner = RunnerConfig::default()
            .with_threads(self.threads)
            .with_batch_size(self.batch_size);
        // The analytic generator and kernel are bit-identical at any
        // thread count, so the simulators' worker count doubles as their
        // team size.
        let mut backend_opts = self.backend_opts;
        backend_opts.analytic_threads = runner.effective_threads();
        RunOpts {
            backend: self.backend,
            backend_opts,
            runner,
            progress,
            results_dir: self.results_dir.clone(),
            check: if self.no_check {
                ModelCheck::Off
            } else {
                ModelCheck::Quick
            },
            split: self.split.clone(),
        }
    }
}

/// The value after `flag`, parsed; `what` describes it in the error.
fn value<T: FromStr>(
    it: &mut impl Iterator<Item = String>,
    flag: &str,
    what: &str,
) -> Result<T, String> {
    it.next()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("{flag} needs {what}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_defaults() {
        let cli = FigureCli::parse(Vec::<String>::new());
        assert_eq!(cli.backend, BackendKind::Des);
        assert_eq!(cli.backend_opts, BackendOptions::default());
        assert_eq!(cli.cfg.replications, 2000);
        assert_eq!(cli.batch_size, RunnerConfig::default().batch_size);
        assert!(!cli.csv);
        assert_eq!(cli.threads, 0);
        assert_eq!(cli.results_dir, Some(PathBuf::from("results")));
        assert!(!cli.no_check);
        assert!(!cli.quiet);
    }

    #[test]
    fn parses_flags() {
        let cli = FigureCli::parse(
            [
                "--backend",
                "san",
                "--reps",
                "50",
                "--seed",
                "9",
                "--csv",
                "--threads",
                "4",
                "--batch",
                "4",
                "--results",
                "out",
                "--quiet",
            ]
            .into_iter()
            .map(String::from),
        );
        assert_eq!(cli.backend, BackendKind::San);
        assert_eq!(cli.cfg.replications, 50);
        assert_eq!(cli.cfg.base_seed, 9);
        assert!(cli.csv);
        assert_eq!(cli.threads, 4);
        assert_eq!(cli.batch_size, 4);
        assert_eq!(cli.results_dir, Some(PathBuf::from("out")));
        assert!(cli.quiet);
    }

    #[test]
    fn parses_analytic_backend_and_max_states() {
        let cli = FigureCli::parse(
            ["--backend", "analytic", "--max-states", "5000"]
                .into_iter()
                .map(String::from),
        );
        assert_eq!(cli.backend, BackendKind::Analytic);
        assert_eq!(cli.backend_opts.analytic_max_states, Some(5000));
        assert!(cli.backend_opts.analytic_lump, "lumping is the default");
        let progress = cli.progress();
        let opts = cli.opts(progress.as_ref());
        assert_eq!(opts.backend, BackendKind::Analytic);
        assert_eq!(opts.backend_opts.analytic_max_states, Some(5000));
    }

    #[test]
    fn parses_lump_flags() {
        let cli = FigureCli::parse(["--no-lump".to_owned()]);
        assert!(!cli.backend_opts.analytic_lump);
        let cli = FigureCli::parse(["--no-lump".to_owned(), "--lump".to_owned()]);
        assert!(cli.backend_opts.analytic_lump, "last flag wins");
        // The runner's effective thread count feeds the analytic kernel.
        let cli = FigureCli::parse(["--threads".to_owned(), "6".to_owned()]);
        let progress = cli.progress();
        let opts = cli.opts(progress.as_ref());
        assert_eq!(opts.backend_opts.analytic_threads, 6);
    }

    #[test]
    fn parses_exhaustive_json_and_check_budget() {
        let cli = FigureCli::parse(
            ["--exhaustive", "--json", "--max-states", "50000"]
                .into_iter()
                .map(String::from),
        );
        assert!(cli.exhaustive);
        assert!(cli.json);
        assert_eq!(cli.backend_opts.analytic_max_states, Some(50000));
        // Absent --max-states leaves each reader at its own default
        // (2^20 quotient states for the exhaustive checker).
        let cli = FigureCli::parse(Vec::<String>::new());
        assert!(!cli.exhaustive);
        assert!(!cli.json);
        assert_eq!(cli.backend_opts.analytic_max_states, None);
    }

    /// `try_parse` on string literals.
    fn try_parse(args: &[&str]) -> Result<FigureCli, String> {
        FigureCli::try_parse(args.iter().map(|&a| a.to_owned()))
    }

    #[test]
    fn rejects_zero_max_states() {
        let err = try_parse(&["--max-states", "0"]).unwrap_err();
        assert_eq!(err, "--max-states needs a positive integer");
    }

    #[test]
    fn parses_split_levels() {
        let cli = FigureCli::parse(["--split-levels".to_owned(), "1x8,2x4".to_owned()]);
        let spec = cli.split.clone().unwrap();
        assert_eq!(spec.to_string(), "1x8,2x4");
        let progress = cli.progress();
        let opts = cli.opts(progress.as_ref());
        assert_eq!(opts.split, Some(spec));
        // `none` selects the splitting machinery with no thresholds.
        let cli = FigureCli::parse(["--split-levels".to_owned(), "none".to_owned()]);
        assert_eq!(cli.split, Some(SplitSpec::none()));
        // Default: plain path.
        assert_eq!(FigureCli::parse(Vec::<String>::new()).split, None);
    }

    #[test]
    fn rejects_malformed_split_levels() {
        let err = try_parse(&["--split-levels", "2x4,1x8"]).unwrap_err();
        assert!(err.starts_with("--split-levels: "), "{err}");
        assert!(try_parse(&["--split-levels"]).is_err());
    }

    #[test]
    fn no_resume_disables_the_store() {
        let cli = FigureCli::parse(["--no-resume".to_owned()]);
        assert_eq!(cli.results_dir, None);
        // In either order, `--results DIR` does not turn the store back on.
        for args in [
            ["--no-resume", "--results", "out"],
            ["--results", "out", "--no-resume"],
        ] {
            let cli = try_parse(&args).unwrap();
            assert_eq!(cli.results_dir, None, "{args:?}");
            let progress = cli.progress();
            assert_eq!(cli.opts(progress.as_ref()).results_dir, None, "{args:?}");
        }
    }

    #[test]
    fn opts_reflect_flags() {
        let cli = FigureCli::parse(["--threads".to_owned(), "3".to_owned()]);
        let progress = cli.progress();
        let opts = cli.opts(progress.as_ref());
        assert_eq!(opts.backend, BackendKind::Des);
        assert_eq!(opts.runner.effective_threads(), 3);
        assert_eq!(opts.results_dir, Some(PathBuf::from("results")));
        assert_eq!(opts.check, ModelCheck::Quick);
    }

    #[test]
    fn no_check_turns_the_quick_check_off() {
        let cli = FigureCli::parse(["--no-check".to_owned()]);
        assert!(cli.no_check);
        let progress = cli.progress();
        let opts = cli.opts(progress.as_ref());
        assert_eq!(opts.check, ModelCheck::Off);
    }

    #[test]
    fn rejects_unknown_flag() {
        let err = try_parse(&["--nope"]).unwrap_err();
        assert!(err.starts_with("unknown argument '--nope'"), "{err}");
    }

    #[test]
    fn rejects_malformed_and_missing_values() {
        for (args, msg) in [
            (&["--reps", "abc"][..], "--reps needs a positive integer"),
            (&["--seed", "-1"], "--seed needs an integer"),
            (&["--threads"], "--threads needs a non-negative integer"),
            (&["--batch", "x"], "--batch needs a non-negative integer"),
            (&["--results"], "--results needs a directory path"),
            (
                &["--backend", "mobius"],
                "--backend needs 'des', 'san', or 'analytic'",
            ),
        ] {
            assert_eq!(try_parse(args).unwrap_err(), msg, "{args:?}");
        }
    }
}
