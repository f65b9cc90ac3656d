//! The child processes. Every timed or traced sweep, and the set-up
//! timing, runs in a fresh process (this binary re-executed as
//! `benchmark child <kind> ...`), so no measurement warms another. A
//! child prints one JSON object as its last stdout line.

use crate::trace::{self, Tracer};
use crate::workload::{self, run_opts, Workload};
use itua_core::measures::MeasureSet;
use itua_runner::backend::{Backend, BackendError, BackendKind, ItuaBackend, ModelCheck};
use itua_runner::engine::replicate_batched;
use itua_runner::json::Json;
use itua_runner::progress::{NullProgress, Progress};
use itua_runner::store::{ResultStore, StoredEstimate, StoredPoint};
use itua_runner::sweep::PointSpec;
use itua_scenario::Scenario;
use itua_sim::rng::stream_seed;
use itua_studies::sweep::{RunOpts, SweepConfig, SweepPoint};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Set-up repetitions per run: at least this many, and more until the
/// set-up child has run this long, so that even microsecond set-ups
/// are sampled across the whole window.
const MIN_SETUPS: usize = 3;
const SETUP_SECONDS: f64 = 3.0;

/// Fingerprint of the traced run's own store. Its estimates are compared
/// with the untraced store's, never resumed from.
const TRACE_FINGERPRINT: &str = "benchmark-trace";

/// `child <kind> <workload> <seed> <smoke 0|1> <args...>`; returns the
/// exit code.
pub fn main(args: &[String]) -> i32 {
    match run(args) {
        Ok(json) => {
            println!("{json}");
            0
        }
        Err(e) => {
            eprintln!("benchmark child: {e}");
            1
        }
    }
}

fn run(args: &[String]) -> Result<Json, String> {
    let [kind, name, seed, smoke, rest @ ..] = args else {
        return Err(format!("malformed child arguments {args:?}"));
    };
    let w = workload::find(name).ok_or_else(|| format!("unknown workload '{name}'"))?;
    let seed: u64 = seed.parse().map_err(|_| format!("bad seed '{seed}'"))?;
    let smoke = smoke == "1";
    match (kind.as_str(), rest) {
        ("sweep", [dir]) => sweep(w, seed, smoke, Path::new(dir)),
        ("setup", []) => setup(w, smoke),
        ("traced", [dir, trace_file]) => {
            traced(w, seed, smoke, Path::new(dir), Path::new(trace_file))
        }
        _ => Err(format!("malformed child arguments {args:?}")),
    }
}

/// User + system CPU seconds of this process so far (`/proc/self/stat`).
fn cpu_seconds() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat").map_err(|e| e.to_string())?;
    // Fields after the parenthesized command name; utime and stime are
    // fields 14 and 15 of the line, in clock ticks of 1/100 s.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest.split_whitespace().collect())
        .unwrap_or_default();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(user), Some(system)) => Ok((user + system) / 100.0),
        _ => Err("unreadable /proc/self/stat".to_owned()),
    }
}

/// Peak resident set size of this process, MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

fn obj(pairs: &[(&str, f64)]) -> Json {
    Json::Obj(
        pairs
            .iter()
            .map(|&(k, v)| (k.to_owned(), Json::Num(v)))
            .collect(),
    )
}

/// Counts points a sweep simulated instead of loading from its store.
#[derive(Default)]
struct ResumeTracker {
    simulated: AtomicUsize,
}

impl Progress for ResumeTracker {
    fn on_point_done(&self, _: usize, _: usize, _: &str, _: &[StoredEstimate], resumed: bool) {
        if !resumed {
            self.simulated.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// One timed sweep on the user's path, `Scenario::configure` then
/// `Scenario::run` per scenario; then the finished stores are re-opened
/// the same way and every point must resume with identical figures.
fn sweep(w: &Workload, seed: u64, smoke: bool, dir: &Path) -> Result<Json, String> {
    let scenarios = w.scenarios(smoke)?;
    let cli = w.cli(seed, smoke, dir);
    let progress = cli.progress();
    let cpu_before = cpu_seconds()?;
    let mut wall = 0.0;
    let mut figures = Vec::new();
    for s in &scenarios {
        let (cfg, opts) = run_opts(s.as_ref(), &cli, progress.as_ref());
        let started = Instant::now();
        let out = s.run(&cfg, &opts);
        wall += started.elapsed().as_secs_f64();
        figures.push(out.map_err(|e| format!("{}: {e}", s.name()))?);
    }
    let cpu = cpu_seconds()? - cpu_before;
    let rss = peak_rss_mb()?;

    let tracker = ResumeTracker::default();
    let started = Instant::now();
    let mut not_resumed = 0;
    for (s, first) in scenarios.iter().zip(&figures) {
        let (cfg, opts) = run_opts(s.as_ref(), &cli, &tracker);
        let again = s
            .run(&cfg, &opts)
            .map_err(|e| format!("{} resume: {e}", s.name()))?;
        if &again != first {
            not_resumed += s.points(w.backend).len();
        }
    }
    let resume_s = started.elapsed().as_secs_f64();
    not_resumed += tracker.simulated.load(Ordering::Relaxed);
    Ok(obj(&[
        ("wall_s", wall),
        ("cpu_s", cpu),
        ("peak_rss_mb", rss),
        ("resume_s", resume_s),
        ("not_resumed", not_resumed as f64),
    ]))
}

/// Set-up time: the sum over the workload's points of backend
/// construction (`ItuaBackend::for_params_with`) plus its quick model
/// check, repeated; the median repetition.
fn setup(w: &Workload, smoke: bool) -> Result<Json, String> {
    let points = w.points(smoke)?;
    let cli = w.cli(0, smoke, Path::new("unused"));
    let opts = cli.opts(&NullProgress);
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < MIN_SETUPS || started.elapsed().as_secs_f64() < SETUP_SECONDS {
        let mut total = 0.0;
        for p in &points {
            let t = Instant::now();
            let backend = ItuaBackend::for_params_with(opts.backend, &p.params, &opts.backend_opts)
                .map_err(|e| e.to_string())?;
            if opts.check == ModelCheck::Quick {
                backend.self_check().map_err(|e| e.to_string())?;
            }
            total += t.elapsed().as_secs_f64();
            drop(backend);
        }
        samples.push(total);
    }
    samples.sort_by(f64::total_cmp);
    Ok(obj(&[
        ("setup_s", samples[samples.len() / 2]),
        ("repetitions", samples.len() as f64),
    ]))
}

/// Store id the sweep layer gives a scenario on `backend` (no splitting).
fn store_id(s: &dyn Scenario, backend: BackendKind) -> String {
    match backend {
        BackendKind::Des => s.sweep_id(),
        other => format!("{}-{other}", s.sweep_id()),
    }
}

/// The traced run: each point walked through the layers' public
/// functions, with the untraced run's seeds, under spans
/// `point` → `build` → `check` → `compute` (`run_batch` per batch per
/// worker, or `solve`) → `reduce` → `store`. The exact workloads then get
/// a replay that splits build and solve into sub-layers. Spans go to
/// `trace_file`; the layer metrics are returned.
fn traced(
    w: &Workload,
    seed: u64,
    smoke: bool,
    dir: &Path,
    trace_file: &Path,
) -> Result<Json, String> {
    let tracer = Tracer::new();
    let cli = w.cli(seed, smoke, dir);
    let mut timeline = 0.0;
    let mut reps = 0u64;
    let mut exact: Vec<(usize, SweepPoint, MeasureSet)> = Vec::new();
    let mut pid = 0;
    for s in &w.scenarios(smoke)? {
        let (cfg, opts) = run_opts(s.as_ref(), &cli, &NullProgress);
        if opts.split.is_some() {
            return Err("importance splitting is not traced".to_owned());
        }
        let started = Instant::now();
        let mut store =
            ResultStore::open(dir, &store_id(s.as_ref(), opts.backend), TRACE_FINGERPRINT)
                .map_err(|e| e.to_string())?;
        for (i, point) in s.points(opts.backend).iter().enumerate() {
            let ms = tracer.span("point", None, pid, |top| {
                walk_point(&tracer, top, pid, i, point, &cfg, &opts, &mut store)
            })?;
            if opts.backend == BackendKind::Analytic {
                exact.push((pid, point.clone(), ms));
            } else {
                reps += u64::from(cfg.replications);
            }
            pid += 1;
        }
        timeline += started.elapsed().as_secs_f64();
    }

    let analytic = cli.opts(&NullProgress).backend_opts.analytic_options();
    let mut replays = Vec::new();
    for (pid, point, ms) in &exact {
        replays.push((*pid, trace::replay(&tracer, *pid, point, &analytic, ms)?));
    }

    let spans = tracer.into_spans();
    let file = Json::Obj(vec![
        ("workload".into(), Json::Str(w.name.into())),
        ("timeline_s".into(), Json::Num(timeline)),
        ("spans".into(), trace::spans_json(&spans)),
        (
            "replay".into(),
            Json::Arr(replays.iter().map(|(pid, r)| r.to_json(*pid)).collect()),
        ),
    ]);
    std::fs::write(trace_file, format!("{file}\n"))
        .map_err(|e| format!("{}: {e}", trace_file.display()))?;

    let t = |name| trace::total(&spans, name);
    let share = |part: f64, whole: f64| if whole > 0.0 { part / whole } else { 0.0 };
    let replay_build = t("replay.model") + t("replay.generate") + t("replay.assemble");
    let replay_solve = t("replay.reward") + t("replay.absorb") + t("replay.transient");
    let sum =
        |f: fn(&trace::Replay) -> usize| replays.iter().map(|(_, r)| f(r)).sum::<usize>() as f64;
    Ok(Json::Obj(vec![
        ("wall_s".into(), Json::Num(timeline)),
        (
            "layers".into(),
            obj(&[
                ("point.build_s", t("build")),
                ("point.check_s", t("check")),
                ("point.compute_s", t("compute")),
                ("runner.busy_s", t("run_batch") + t("solve")),
                ("runner.idle_frac", trace::idle_fraction(&spans)),
                ("runner.reduce_s", t("reduce")),
                ("runner.reps", reps as f64),
                ("store.record_s", t("store")),
                ("statespace.orbits", sum(|r| r.orbits)),
                ("statespace.transitions", sum(|r| r.transitions)),
                (
                    "statespace.generate_share",
                    share(t("replay.generate"), replay_build),
                ),
                (
                    "analytic.assemble_share",
                    share(t("replay.assemble"), replay_build),
                ),
                ("analytic.csr_bytes", sum(|r| r.csr_bytes)),
                ("ctmc.passes", sum(|r| r.passes)),
                ("ctmc.steps", sum(|r| r.steps)),
                ("ctmc.reward_share", share(t("replay.reward"), replay_solve)),
                ("ctmc.absorb_share", share(t("replay.absorb"), replay_solve)),
                (
                    "ctmc.transient_share",
                    share(t("replay.transient"), replay_solve),
                ),
                ("replay.stale_points", sum(|r| usize::from(!r.matches))),
                ("trace.coverage_frac", share(t("point"), timeline)),
            ]),
        ),
    ]))
}

/// One point of the traced timeline, exactly as the sweep layer runs it
/// (`run_point_backend_split` without splitting, then `SweepRunner`'s
/// store write). Returns the point's measures.
#[allow(clippy::too_many_arguments)]
fn walk_point(
    tracer: &Tracer,
    top: usize,
    pid: usize,
    index: usize,
    point: &SweepPoint,
    cfg: &SweepConfig,
    opts: &RunOpts<'_>,
    store: &mut ResultStore,
) -> Result<MeasureSet, String> {
    let backend = tracer
        .span("build", Some(top), pid, |_| {
            ItuaBackend::for_params_with(opts.backend, &point.params, &opts.backend_opts)
        })
        .map_err(|e| e.to_string())?;
    if opts.check == ModelCheck::Quick {
        tracer
            .span("check", Some(top), pid, |_| backend.self_check())
            .map_err(|e| e.to_string())?;
    }
    let origin = stream_seed(cfg.base_seed, index as u64);
    let (h, times) = (point.horizon, &point.sample_times);
    let (exact, outputs) = tracer.span("compute", Some(top), pid, |compute| {
        if opts.backend == BackendKind::Analytic {
            let exact = tracer.span("solve", Some(compute), pid, |_| {
                backend.exact_measures(h, times, cfg.confidence)
            });
            (exact, Vec::new())
        } else {
            let outputs = replicate_batched(
                cfg.replications,
                &opts.runner,
                &NullProgress,
                || backend.scratch(),
                |reps, scratch, out| {
                    tracer.span("run_batch", Some(compute), pid, |_| {
                        backend.run_batch(origin, reps, h, times, scratch, out);
                    });
                },
            );
            (None, outputs)
        }
    });
    let (ms, estimates) = tracer
        .span("reduce", Some(top), pid, |_| {
            let ms = match exact {
                Some(exact) => exact?,
                None => {
                    let mut ms = MeasureSet::new(cfg.confidence);
                    for out in outputs {
                        ms.record(&out?);
                    }
                    ms
                }
            };
            let estimates: Vec<StoredEstimate> =
                ms.estimates().iter().map(StoredEstimate::from).collect();
            Ok::<_, BackendError>((ms, estimates))
        })
        .map_err(|e| e.to_string())?;
    let spec = PointSpec::new(index, &point.series, point.x);
    let stored = StoredPoint {
        key: spec.key,
        x: spec.x,
        series: spec.series,
        estimates,
    };
    tracer
        .span("store", Some(top), pid, |_| store.record(stored))
        .map_err(|e| e.to_string())?;
    Ok(ms)
}
