//! End-to-end study benchmark for the ITUA reproduction.
//!
//! ```text
//! benchmark --workload <sim-des|sim-san|exact-stiff|exact-build|all>
//!           [--seed S] [--seconds T] [--trace 0|1] [--smoke]
//! benchmark --write-reference
//! ```
//!
//! A run times whole sweeps the way a user waits for them: each sweep is
//! a fresh child process (this binary re-executed) driving the same
//! public path as `itua run` — `Scenario::configure`, then
//! `Scenario::run` — on 2 worker threads, one sweep at a time (closed
//! loop), until `--seconds` have passed (at least 3 sweeps). Set-up time
//! is measured in a separate child so it cannot warm a sweep. Every
//! sweep's result stores are checked against `reference.json`, must be
//! byte-identical across the run's sweeps, and must resume every point.
//! Times are scaled by a calibration kernel run around each child (see
//! [`calibrate`]), so load from other tenants of the host cancels out.
//!
//! `--trace 0` reports the end-to-end metrics (medians over the run);
//! `--trace 1` alternates untraced sweeps with traced ones and reports
//! the per-layer metrics, writing the spans of the last traced sweep to
//! `target/benchmark/trace-<workload>.json`. The last stdout line is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`; the exit
//! code is 2 when any check failed.

mod calibrate;
mod check;
mod child;
mod trace;
mod workload;

use check::{check_sweep, load_reference, read_stores, Store};
use itua_runner::json::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;
use workload::{Workload, WORKLOADS};

const USAGE: &str = "usage: benchmark --workload <sim-des|sim-san|exact-stiff|exact-build|all> \
                     [--seed S] [--seconds T] [--trace 0|1] [--smoke]\n       \
                     benchmark --write-reference";

/// `SweepConfig`'s default base seed; `reference.json` is written at it.
const DEFAULT_SEED: u64 = 20030622;
const DEFAULT_SECONDS: f64 = 20.0;
/// Sweeps per timed run, at least (the median needs a few).
const MIN_SWEEPS: usize = 3;
/// Untraced/traced pairs per traced run, at least.
const MIN_PAIRS: usize = 2;
/// Top-level spans must cover this share of the traced wall clock.
const MIN_COVERAGE: f64 = 0.95;

/// What a user of the system sees, per workload (`--trace 0`).
const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`); `BENCHMARK.json` lists the same.
const PER_LAYER: [(&str, &str); 24] = [
    ("point.build_s", "s"),
    ("point.check_s", "s"),
    ("point.compute_s", "s"),
    ("runner.busy_s", "s"),
    ("runner.idle_frac", "fraction"),
    ("runner.reduce_s", "s"),
    ("runner.reps", "count"),
    ("store.record_s", "s"),
    ("store.resume_s", "s"),
    ("store.bytes", "bytes"),
    ("estimate.ci_rel_hw", "fraction"),
    ("statespace.orbits", "count"),
    ("statespace.transitions", "count"),
    ("statespace.generate_share", "fraction"),
    ("analytic.assemble_share", "fraction"),
    ("analytic.csr_bytes", "bytes"),
    ("ctmc.passes", "count"),
    ("ctmc.steps", "count"),
    ("ctmc.reward_share", "fraction"),
    ("ctmc.absorb_share", "fraction"),
    ("ctmc.transient_share", "fraction"),
    ("replay.stale_points", "count"),
    ("trace.overhead_frac", "fraction"),
    ("trace.coverage_frac", "fraction"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => out.workload = value()?.clone(),
            "--seed" => out.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                out.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s >= 0.0)
                    .ok_or("--seconds needs a non-negative number")?;
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                }
            }
            "--smoke" => out.smoke = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if out.workload != "all" && workload::find(&out.workload).is_none() {
        return Err(format!("unknown or missing --workload '{}'", out.workload));
    }
    Ok(out)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("child") => child::main(&args[1..]),
        Some("--write-reference") => report_error(write_reference().map(|()| 0)),
        _ => match parse_args(&args) {
            Ok(args) => report_error(run(&args)),
            Err(e) => {
                eprintln!("benchmark: {e}\n{USAGE}");
                2
            }
        },
    };
    std::process::exit(code);
}

fn report_error(result: Result<i32, String>) -> i32 {
    result.unwrap_or_else(|e| {
        eprintln!("benchmark: {e}");
        1
    })
}

/// Scratch space for stores and traces, relative to the working
/// directory (the root of the checkout).
fn work_root() -> PathBuf {
    PathBuf::from("target").join("benchmark")
}

/// A fresh, empty scratch directory.
fn fresh_dir(path: PathBuf) -> Result<PathBuf, String> {
    let _ = std::fs::remove_dir_all(&path);
    std::fs::create_dir_all(&path).map_err(|e| format!("cannot create {}: {e}", path.display()))?;
    Ok(path)
}

/// Runs a child of this binary and returns the JSON object it printed.
fn spawn_child(
    kind: &str,
    w: &Workload,
    seed: u64,
    smoke: bool,
    rest: &[&Path],
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;
    let output = Command::new(exe)
        .args([
            "child",
            kind,
            w.name,
            &seed.to_string(),
            if smoke { "1" } else { "0" },
        ])
        .args(rest)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {kind} child: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{} {kind} child failed ({})",
            w.name, output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    Json::parse(line).map_err(|e| format!("{kind} child printed no result ({e})"))
}

fn num(j: &Json, key: &str) -> Result<f64, String> {
    j.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("child result lacks '{key}'"))
}

/// Samples of each metric over one run; a metric reports their median.
struct Outcome {
    attempted: usize,
    failed: usize,
    problems: Vec<String>,
    metrics: Vec<(&'static str, &'static str, Vec<f64>)>,
    /// Calibration kernel times around the run's children, seconds.
    calibrations: Vec<f64>,
}

impl Outcome {
    fn new(defs: &[(&'static str, &'static str)]) -> Self {
        Outcome {
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            metrics: defs.iter().map(|&(n, u)| (n, u, Vec::new())).collect(),
            calibrations: Vec::new(),
        }
    }

    fn push(&mut self, name: &str, value: f64) {
        let metric = self.metrics.iter_mut().find(|(n, ..)| *n == name);
        metric.expect("metric is declared").2.push(value);
    }

    /// Runs a child between two calibrations; returns its result and the
    /// factor that converts its times to calibrated seconds.
    fn calibrated_child(
        &mut self,
        kind: &str,
        w: &Workload,
        args: &Args,
        rest: &[&Path],
    ) -> Result<(Json, f64), String> {
        let before = calibrate::calibrate();
        let result = spawn_child(kind, w, args.seed, args.smoke, rest)?;
        let after = calibrate::calibrate();
        self.calibrations.extend([before, after]);
        Ok((result, 2.0 * calibrate::REFERENCE_S / (before + after)))
    }

    /// Records `points` attempted operations, `passed` of which passed.
    fn tally(&mut self, points: usize, passed: usize, problems: Vec<String>) {
        self.attempted += points;
        self.failed += points.saturating_sub(passed);
        self.problems.extend(problems);
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// The result line (`prefix` namespaces the metrics of `--workload all`).
    fn metrics_json(&self, prefix: &str) -> Vec<String> {
        self.metrics
            .iter()
            .map(|(name, unit, samples)| {
                let value = Some(median(samples))
                    .filter(|v| v.is_finite())
                    .map_or("null".to_owned(), |v| format!("{v:?}"));
                format!("\"{prefix}{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect()
    }
}

fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[String]) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

fn run(args: &Args) -> Result<i32, String> {
    let reference = load_reference()?;
    let selected: Vec<&Workload> = WORKLOADS
        .iter()
        .filter(|w| args.workload == "all" || w.name == args.workload)
        .collect();
    let mut outcomes = Vec::new();
    for w in selected {
        let root = fresh_dir(work_root().join(format!("{}-{}", w.name, std::process::id())))?;
        let outcome = if args.trace {
            traced_run(w, args, &root, &reference)
        } else {
            timed_run(w, args, &root, &reference)
        };
        let _ = std::fs::remove_dir_all(&root);
        let outcome = outcome?;
        summarize(w, &outcome);
        outcomes.push((w, outcome));
    }
    let correct = outcomes.iter().all(|(_, o)| o.correct());
    let line = match &outcomes[..] {
        [(_, o)] => result_line(correct, o.attempted, o.failed, &o.metrics_json("")),
        all => {
            for (w, o) in all {
                println!(
                    "{}: {}",
                    w.name,
                    result_line(o.correct(), o.attempted, o.failed, &o.metrics_json(""))
                );
            }
            let metrics: Vec<String> = all
                .iter()
                .flat_map(|(w, o)| o.metrics_json(&format!("{}.", w.name)))
                .collect();
            let attempted = all.iter().map(|(_, o)| o.attempted).sum();
            let failed = all.iter().map(|(_, o)| o.failed).sum();
            result_line(correct, attempted, failed, &metrics)
        }
    };
    println!("{line}");
    Ok(if correct { 0 } else { 2 })
}

/// Median, min, max and n of every metric, and every failed check, on
/// stderr.
fn summarize(w: &Workload, o: &Outcome) {
    eprintln!(
        "[{}] {} of {} points failed their checks",
        w.name, o.failed, o.attempted
    );
    for p in &o.problems {
        eprintln!("[{}] FAILED: {p}", w.name);
    }
    eprintln!(
        "[{}] calibration median {:.4} s over {} (reference {} s): times below are scaled by reference/calibration",
        w.name,
        median(&o.calibrations),
        o.calibrations.len(),
        calibrate::REFERENCE_S
    );
    for (name, unit, samples) in &o.metrics {
        let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        eprintln!(
            "[{}] {name:<26} median {:<12.6} min {min:<12.6} max {max:<12.6} n {:>3}  {unit}",
            w.name,
            median(samples),
            samples.len()
        );
    }
}

/// One timed sweep child into a fresh `dir`, with its stores checked.
/// Returns the child's result, its calibration factor and its stores; a
/// failed child counts all the workload's points as failed and returns
/// `None`.
fn checked_sweep(
    w: &Workload,
    args: &Args,
    dir: &Path,
    reference: &Json,
    points: usize,
    out: &mut Outcome,
) -> Result<Option<(Json, f64, Vec<Store>)>, String> {
    let dir = fresh_dir(dir.to_path_buf())?;
    let (result, scale) = match out.calibrated_child("sweep", w, args, &[&dir]) {
        Ok(result) => result,
        Err(e) => {
            out.tally(points, 0, vec![e]);
            return Ok(None);
        }
    };
    let stores = read_stores(&dir)?;
    let (passed, problems) = check_sweep(w, args.smoke, &stores, reference);
    out.tally(points, passed, problems);
    let not_resumed = num(&result, "not_resumed")? as usize;
    if not_resumed > 0 {
        out.problems.push(format!(
            "{not_resumed} points did not resume from the finished store"
        ));
    }
    Ok(Some((result, scale, stores)))
}

fn timed_run(w: &Workload, args: &Args, root: &Path, reference: &Json) -> Result<Outcome, String> {
    let mut out = Outcome::new(&END_TO_END);
    let points = w.points(args.smoke)?.len();
    match out.calibrated_child("setup", w, args, &[]) {
        Ok((setup, scale)) => {
            out.push("setup_s", num(&setup, "setup_s")? * scale);
            eprintln!(
                "[{}] set-up: median of {} repetitions",
                w.name,
                num(&setup, "repetitions")?
            );
        }
        Err(e) => out.problems.push(e),
    }
    let started = Instant::now();
    let mut first: Option<Vec<Store>> = None;
    let mut i = 0;
    while i < MIN_SWEEPS || started.elapsed().as_secs_f64() < args.seconds {
        let dir = root.join(format!("sweep-{i}"));
        if let Some((result, scale, stores)) =
            checked_sweep(w, args, &dir, reference, points, &mut out)?
        {
            out.push("wall_s", num(&result, "wall_s")? * scale);
            out.push("cpu_s", num(&result, "cpu_s")? * scale);
            out.push("peak_rss_mb", num(&result, "peak_rss_mb")?);
            let texts = |s: &[Store]| {
                s.iter()
                    .map(|s| (s.file.clone(), s.text.clone()))
                    .collect::<Vec<_>>()
            };
            match &first {
                Some(first) if texts(first) != texts(&stores) => out.problems.push(format!(
                    "sweep {i} wrote different stores than sweep 0 at the same seed"
                )),
                Some(_) => {}
                None => first = Some(stores),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
        eprintln!(
            "[{}] sweep {i} done ({:.1} s)",
            w.name,
            started.elapsed().as_secs_f64()
        );
        i += 1;
    }
    Ok(out)
}

fn traced_run(w: &Workload, args: &Args, root: &Path, reference: &Json) -> Result<Outcome, String> {
    let mut out = Outcome::new(&PER_LAYER);
    let points = w.points(args.smoke)?.len();
    let trace_file = work_root().join(format!("trace-{}.json", w.reference_key(args.smoke)));
    let (mut untraced_wall, mut traced_wall) = (Vec::new(), Vec::new());
    let started = Instant::now();
    let mut i = 0;
    while i < MIN_PAIRS || started.elapsed().as_secs_f64() < args.seconds {
        let plain_dir = root.join(format!("sweep-{i}"));
        let traced_dir = fresh_dir(root.join(format!("traced-{i}")))?;
        let plain = checked_sweep(w, args, &plain_dir, reference, points, &mut out)?;
        let traced = out.calibrated_child("traced", w, args, &[&traced_dir, &trace_file]);
        match (plain, traced) {
            (Some((result, scale, stores)), Ok((traced, traced_scale))) => {
                untraced_wall.push(num(&result, "wall_s")? * scale);
                traced_wall.push(num(&traced, "wall_s")? * traced_scale);
                out.push("store.resume_s", num(&result, "resume_s")? * scale);
                out.push(
                    "store.bytes",
                    stores.iter().map(|s| s.text.len()).sum::<usize>() as f64,
                );
                out.push("estimate.ci_rel_hw", check::ci_rel_hw(&stores));
                let layers = traced.get("layers").cloned().unwrap_or(Json::Null);
                if let Json::Obj(pairs) = &layers {
                    for (name, value) in pairs {
                        let is_time = PER_LAYER.iter().any(|&(n, u)| n == name && u == "s");
                        let value = value.as_f64().unwrap_or(f64::NAN);
                        out.push(name, if is_time { value * traced_scale } else { value });
                    }
                }
                // The traced walk must be the user's path: same seeds,
                // bit-identical estimates.
                let traced_stores = read_stores(&traced_dir)?;
                let same = stores.len() == traced_stores.len()
                    && stores.iter().zip(&traced_stores).all(|(a, b)| {
                        a.file == b.file && a.points.to_string() == b.points.to_string()
                    });
                let problems = if same {
                    Vec::new()
                } else {
                    vec!["traced estimates differ from the untraced store".to_owned()]
                };
                out.tally(points, if same { points } else { 0 }, problems);
                let coverage = num(&layers, "trace.coverage_frac")?;
                if coverage < MIN_COVERAGE {
                    out.problems.push(format!(
                        "top-level spans cover {:.1}% of the traced wall clock (< {:.0}%)",
                        coverage * 100.0,
                        MIN_COVERAGE * 100.0
                    ));
                }
            }
            (_, Err(e)) => out.tally(points, 0, vec![e]),
            (None, Ok(_)) => {}
        }
        let _ = std::fs::remove_dir_all(&plain_dir);
        let _ = std::fs::remove_dir_all(&traced_dir);
        eprintln!(
            "[{}] traced pair {i} done ({:.1} s)",
            w.name,
            started.elapsed().as_secs_f64()
        );
        i += 1;
    }
    out.push(
        "trace.overhead_frac",
        median(&traced_wall) / median(&untraced_wall) - 1.0,
    );
    Ok(out)
}

/// Writes `reference.json`: one sweep per workload and size at the
/// default seed, keeping the estimates the checks use.
fn write_reference() -> Result<(), String> {
    let mut entries = Vec::new();
    for w in &WORKLOADS {
        for smoke in [false, true] {
            let dir = fresh_dir(work_root().join(format!("reference-{}", std::process::id())))?;
            spawn_child("sweep", w, DEFAULT_SEED, smoke, &[&dir])?;
            let stores = read_stores(&dir)?;
            let _ = std::fs::remove_dir_all(&dir);
            let per_store = stores
                .iter()
                .map(|s| (s.file.clone(), check::reference_entry(w, s)))
                .collect();
            entries.push(format!(
                "  {}: {}",
                Json::Str(w.reference_key(smoke)),
                Json::Obj(per_store)
            ));
            eprintln!("reference: {} done", w.reference_key(smoke));
        }
    }
    let path = workload::bench_dir().join("reference.json");
    std::fs::write(&path, format!("{{\n{}\n}}\n", entries.join(",\n")))
        .map_err(|e| format!("{}: {e}", path.display()))
}
