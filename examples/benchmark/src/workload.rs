//! The workloads: which scenarios each one runs, on which backend, at
//! what size, and the flags that reproduce it with `itua run`.
//!
//! Sizes are a tenth of the full reproduction (`--reps 12000` DES,
//! `--reps 1200` SAN) and single-digit-second exact sweeps, so that one
//! benchmark run fits several sweeps and reports their median.

use itua_bench::FigureCli;
use itua_runner::backend::BackendKind;
use itua_runner::progress::Progress;
use itua_scenario::file::FileScenario;
use itua_scenario::{registry, Scenario};
use itua_studies::sweep::{RunOpts, SweepConfig, SweepPoint};
use std::path::Path;

/// One benchmark workload.
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Backend every scenario of the workload runs on.
    pub backend: BackendKind,
    /// Built-in scenario names, or `.scn` files under `workloads/`.
    scenarios: &'static [&'static str],
    /// The `--smoke` stand-ins: same backend, toy size.
    smoke_scenarios: &'static [&'static str],
    /// Replications per point (`None` for the exact backend).
    reps: Option<u32>,
}

const FIGURES: &[&str] = &["figure3", "figure4", "figure5"];

/// Replications per point under `--smoke`.
const SMOKE_REPS: u32 = 32;

/// Worker threads of every sweep: the closed loop runs one sweep at a
/// time on this many threads, never more than the machine has.
const THREADS: usize = 2;

/// The paper's Figures 3-5 on both simulators, and two exact workloads
/// that load the analytic layer in opposite ways (solve-bound vs
/// construction-bound). See the README for why each was chosen.
pub static WORKLOADS: [Workload; 4] = [
    Workload {
        name: "sim-des",
        backend: BackendKind::Des,
        scenarios: FIGURES,
        smoke_scenarios: FIGURES,
        reps: Some(1200),
    },
    Workload {
        name: "sim-san",
        backend: BackendKind::San,
        scenarios: FIGURES,
        smoke_scenarios: FIGURES,
        reps: Some(120),
    },
    Workload {
        name: "exact-stiff",
        backend: BackendKind::Analytic,
        scenarios: &["exact-stiff.scn"],
        smoke_scenarios: &["figure4"],
        reps: None,
    },
    Workload {
        name: "exact-build",
        backend: BackendKind::Analytic,
        scenarios: &["exact-build.scn"],
        smoke_scenarios: &["exact-build-smoke.scn"],
        reps: None,
    },
];

/// The workload called `name`.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The benchmark's own directory (inputs and `reference.json`).
pub fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

impl Workload {
    /// Whether the workload simulates (and so depends on the seed).
    pub fn simulates(&self) -> bool {
        self.backend != BackendKind::Analytic
    }

    /// Replications per point at this size.
    pub fn reps(&self, smoke: bool) -> Option<u32> {
        self.reps.map(|r| if smoke { SMOKE_REPS } else { r })
    }

    /// Key of this workload (at this size) in `reference.json`.
    pub fn reference_key(&self, smoke: bool) -> String {
        if smoke {
            format!("{}-smoke", self.name)
        } else {
            self.name.to_owned()
        }
    }

    /// Resolves the workload's scenarios.
    ///
    /// # Errors
    ///
    /// An unknown built-in name or an unreadable/invalid `.scn` input.
    pub fn scenarios(&self, smoke: bool) -> Result<Vec<Box<dyn Scenario>>, String> {
        let names = if smoke {
            self.smoke_scenarios
        } else {
            self.scenarios
        };
        names
            .iter()
            .map(|name| match name.strip_suffix(".scn") {
                Some(stem) => {
                    let path = bench_dir().join("workloads").join(name);
                    let text = std::fs::read_to_string(&path)
                        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
                    let scenario = FileScenario::parse(&text, stem)
                        .map_err(|e| format!("{}: {e}", path.display()))?;
                    Ok(Box::new(scenario) as Box<dyn Scenario>)
                }
                None => registry::find(name).ok_or_else(|| format!("unknown scenario '{name}'")),
            })
            .collect()
    }

    /// Every sweep point of the workload, in run order.
    pub fn points(&self, smoke: bool) -> Result<Vec<SweepPoint>, String> {
        Ok(self
            .scenarios(smoke)?
            .iter()
            .flat_map(|s| s.points(self.backend))
            .collect())
    }

    /// The `itua run` flags of one sweep: `--threads 2`, batch 32, quick
    /// model check and lumping left at their defaults, quiet, result
    /// store in `results`.
    pub fn cli(&self, seed: u64, smoke: bool, results: &Path) -> FigureCli {
        let threads = std::thread::available_parallelism()
            .map_or(1, std::num::NonZero::get)
            .min(THREADS);
        let mut args: Vec<String> = vec![
            "--backend".into(),
            self.backend.name().into(),
            "--seed".into(),
            seed.to_string(),
            "--threads".into(),
            threads.to_string(),
            "--batch".into(),
            "32".into(),
            "--quiet".into(),
            "--results".into(),
            results.display().to_string(),
        ];
        if let Some(reps) = self.reps(smoke) {
            args.extend(["--reps".into(), reps.to_string()]);
        }
        FigureCli::parse(args)
    }
}

/// What `itua run` does between parsing its flags and calling
/// [`Scenario::run`]: fold the scenario's pinned settings into the sweep
/// configuration and build the run options the way `FigureCli::opts`
/// builds them.
pub fn run_opts<'a>(
    scenario: &dyn Scenario,
    cli: &FigureCli,
    progress: &'a dyn Progress,
) -> (SweepConfig, RunOpts<'a>) {
    let mut cfg = cli.cfg;
    let mut split = cli.split.clone();
    scenario.configure(&mut cfg, &mut split);
    let mut opts = cli.opts(progress);
    opts.split = split;
    (cfg, opts)
}
