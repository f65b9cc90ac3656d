//! Generic sweep machinery: run the ITUA model over a list of parameter
//! points and aggregate measures with confidence intervals.
//!
//! [`run_sweep`] is the one entry point. Each point builds an
//! [`ItuaBackend`] (DES, composed SAN or exact CTMC — see
//! [`RunOpts::backend`]) and hands it to the runner's replication loop
//! ([`run_measures_split`], with the `--split-levels` spec or an empty
//! one), which spreads the replications over the [`RunnerConfig`]'s
//! worker threads with one reusable scratch state per thread
//! (bit-identical results for every thread count and batch size). The sweep adds
//! progress reporting plus checkpoint/resume through a JSON result store.
//!
//! An exact sweep over timed rates and case weights generates its state
//! space once: a point whose structure key matches the previous point's
//! re-rates that point's state space instead of generating its own
//! ([`ItuaAnalytic::reusing`]), bit for bit the chain it would have
//! generated.

use itua_core::analytic::{ItuaAnalytic, Structure};
use itua_core::measures::MeasureSet;
use itua_core::params::Params;
use itua_rare::SplitSpec;
use itua_runner::backend::{BackendError, BackendKind, BackendOptions, ItuaBackend, ModelCheck};
use itua_runner::engine::RunnerConfig;
use itua_runner::progress::{NullProgress, Progress};
use itua_runner::split::run_measures_split;
use itua_runner::store::{fingerprint_iter, ResultStore, StoredEstimate, StoredPoint};
use itua_runner::sweep::{PointSpec, SweepRunner};
use itua_sim::rng::stream_seed;
use std::io::{self, Write};
use std::path::PathBuf;

/// How much simulation to spend per sweep point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepConfig {
    /// Independent replications per point.
    pub replications: u32,
    /// Base seed. Point `j` gets its own stream origin
    /// `stream_seed(base_seed, j)`, and replication `i` of that point runs
    /// with `stream_seed(origin, i)` — so no two (point, replication)
    /// pairs share a seed, and nearby base seeds yield disjoint streams
    /// (the pre-runner `base_seed + j·1_000_003 + i` scheme overlapped).
    pub base_seed: u64,
    /// Confidence level for the reported intervals.
    pub confidence: f64,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            replications: 2000,
            base_seed: 20030622, // DSN 2003 😉 — any constant works
            confidence: 0.95,
        }
    }
}

/// One point of a sweep: an x-coordinate and the parameters to run there.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// X-axis value (e.g. hosts per domain, spread rate).
    pub x: f64,
    /// Which series this point belongs to (e.g. "4 applications").
    pub series: String,
    /// Model parameters for this point.
    pub params: Params,
    /// Simulation horizon.
    pub horizon: f64,
    /// Instant-of-time sample points.
    pub sample_times: Vec<f64>,
}

/// A single estimated value with its confidence half-width.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ValueCi {
    /// Point estimate.
    pub mean: f64,
    /// Confidence half-width (0 when degenerate).
    pub half_width: f64,
}

/// A named series of `(x, value)` points, one per sweep point.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Series label, e.g. `"4 applications"` or `"Host exclusion"`.
    pub name: String,
    /// Measure this series reports (a key from
    /// [`itua_core::measures::names`], possibly with an `@t` suffix).
    pub measure: String,
    /// `(x, estimate)` pairs in x order.
    pub points: Vec<(f64, ValueCi)>,
}

/// All the series of one figure panel (or one whole figure).
#[derive(Debug, Clone, PartialEq)]
pub struct FigureResult {
    /// Figure identifier, e.g. `"Figure 3"`.
    pub id: String,
    /// Human-readable caption.
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// Panels: `(panel id, panel title, series)`.
    pub panels: Vec<Panel>,
}

/// One panel (subfigure) of a figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Panel {
    /// Panel id, e.g. `"3a"`.
    pub id: String,
    /// Panel title, e.g. `"Unavailability for first 5 hours"`.
    pub title: String,
    /// The series plotted in this panel.
    pub series: Vec<Series>,
}

/// Execution options for a sweep: backend, threading, progress,
/// persistence.
pub struct RunOpts<'a> {
    /// Which encoding of the ITUA process runs each point: the direct
    /// discrete-event simulator ([`BackendKind::Des`], the default), the
    /// composed stochastic activity network ([`BackendKind::San`]), or
    /// the exact CTMC solver ([`BackendKind::Analytic`], small
    /// configurations only). All run through the same pipeline and
    /// report the same stored shape (the analytic backend omits the
    /// event-conditioned measures and reports zero half-widths).
    pub backend: BackendKind,
    /// Construction options for the backend. The analytic state bound
    /// and thread count stay out of the sweep fingerprint (they never
    /// change results, only whether a configuration is accepted and how
    /// fast it solves); `analytic_lump` *is* fingerprinted — the exact
    /// symmetry quotient is a different chain, so lumped and unlumped
    /// analytic runs checkpoint separately, and unlumped stores stay
    /// byte-identical to the pre-lumping scheme.
    pub backend_opts: BackendOptions,
    /// How to spread replications over worker threads. The default (auto
    /// thread count) produces exactly the same estimates as
    /// [`RunnerConfig::serial`].
    pub runner: RunnerConfig,
    /// Progress observer (e.g. [`itua_runner::ConsoleProgress`]).
    pub progress: &'a dyn Progress,
    /// Directory for the JSON result store. `Some(dir)` makes the sweep
    /// resumable: completed points are loaded from
    /// `dir/<store id>.json` instead of re-run (the store id is
    /// `<sweep_id>` for the DES backend and `<sweep_id>-san` /
    /// `<sweep_id>-analytic` for the others, so backends never clobber
    /// each other). `None` disables persistence.
    pub results_dir: Option<PathBuf>,
    /// Whether each point's model is structurally verified before
    /// simulation ([`ModelCheck::Quick`], the default) or not
    /// (`--no-check`). The check only gates: it never changes estimates.
    pub check: ModelCheck,
    /// RESTART importance-splitting thresholds (`--split-levels`). `Some`
    /// splits every point's replication trees in
    /// [`itua_runner::split::run_measures_split`] under the spec instead
    /// of running them as plain one-leaf trees, checkpoints into a
    /// separate `-split` store, and enters the sweep fingerprint (the
    /// splitting configuration changes the sampling scheme, though never
    /// the estimand). The analytic backend ignores the spec — it stays the
    /// exact oracle.
    pub split: Option<SplitSpec>,
}

impl Default for RunOpts<'static> {
    fn default() -> Self {
        RunOpts {
            backend: BackendKind::Des,
            backend_opts: BackendOptions::default(),
            runner: RunnerConfig::default(),
            progress: &NullProgress,
            results_dir: None,
            check: ModelCheck::default(),
            split: None,
        }
    }
}

/// Runs every sweep point and extracts, per `(series, measure)` pair, the
/// x-ordered estimates of the `measures` keys.
///
/// Point `j` runs the backend of `opts` with stream origin
/// `stream_seed(cfg.base_seed, j)` (see [`SweepConfig::base_seed`]), its
/// replications spread over the runner's threads and recorded in
/// replication order, so the result does not depend on the thread
/// count.
///
/// With `opts.results_dir` set the sweep checkpoints: after every point
/// the store `<results_dir>/<store id>.json` is rewritten, and a rerun
/// with the same configuration restarts at the first incomplete point.
/// The store id is `sweep_id`, suffixed `-san`/`-analytic` for those
/// backends and `-split` for splitting runs, so they never share a
/// store. A changed configuration (backend, replications, seed,
/// confidence, split spec, lumping, any point, or any `identity` part)
/// invalidates the store via its fingerprint. `identity` lists the
/// scenario's identity parts, appended to the fingerprint last:
/// built-in studies pass none, so their fingerprints are the
/// pre-scenario ones bit for bit, and a `.scn` file passes its
/// `scn=<hash>`, so editing the file re-runs its points.
///
/// An unusable results directory is not fatal: the sweep warns on
/// stderr and runs without checkpoint/resume.
///
/// # Errors
///
/// Propagates backend failures (an invalid point, a rejected
/// configuration, a simulation error) and result-store write errors;
/// points completed before the failure stay in the store, so a rerun
/// resumes after them.
pub fn run_sweep(
    sweep_id: &str,
    points: &[SweepPoint],
    cfg: &SweepConfig,
    measures: &[&str],
    identity: &[String],
    opts: &RunOpts<'_>,
) -> io::Result<Vec<Series>> {
    let specs: Vec<PointSpec> = points
        .iter()
        .enumerate()
        .map(|(i, p)| PointSpec::new(i, &p.series, p.x))
        .collect();
    let store_id = store_id(sweep_id, opts.backend, opts.split.as_ref());
    let store = opts.results_dir.as_ref().and_then(|dir| {
        match ResultStore::open(
            dir,
            &store_id,
            &sweep_fingerprint(
                points,
                cfg,
                opts.backend,
                opts.split.as_ref(),
                opts.backend == BackendKind::Analytic && opts.backend_opts.analytic_lump,
                identity,
            ),
        ) {
            Ok(store) => Some(store),
            Err(e) => {
                let _ = writeln!(
                    io::stderr(),
                    "warning: result store {} in {} is unavailable ({e}); \
                     running without checkpoint/resume",
                    store_id,
                    dir.display()
                );
                None
            }
        }
    });
    let mut runner = match store {
        Some(store) => SweepRunner::with_store(opts.progress, store),
        None => SweepRunner::new(opts.progress),
    };
    let mut kept = None;
    let stored = runner.run(&specs, |_, i| {
        let backend = point_backend(points, i, opts, &mut kept)?;
        let ms = measure_point(&backend, &points[i], cfg, i, opts)?;
        Ok(ms.estimates().iter().map(StoredEstimate::from).collect())
    })?;
    Ok(series_from(&stored, measures))
}

/// Builds the backend of sweep point `index`. An analytic point re-rates
/// the structure in `kept` when it fits ([`ItuaAnalytic::reusing`]); its
/// own structure is then kept only if a later point of the sweep fits
/// it, so a sweep holds at most one, and drops it before solving the last
/// point that uses it.
fn point_backend(
    points: &[SweepPoint],
    index: usize,
    opts: &RunOpts<'_>,
    kept: &mut Option<Structure>,
) -> Result<ItuaBackend, BackendError> {
    let params = &points[index].params;
    if opts.backend != BackendKind::Analytic {
        return ItuaBackend::for_params_with(opts.backend, params, &opts.backend_opts);
    }
    let analytic = opts.backend_opts.analytic_options();
    let (backend, structure) = ItuaAnalytic::reusing(params, &analytic, kept.take())?;
    if points[index + 1..]
        .iter()
        .any(|p| structure.fits(&p.params, &analytic))
    {
        *kept = Some(structure);
    }
    Ok(ItuaBackend::Analytic(backend))
}

/// Runs `backend`, built for sweep point `index`, through the runner's
/// replication loop: one RESTART tree per replication, split under
/// `opts.split` and plain (one-leaf trees) without it.
fn measure_point(
    backend: &ItuaBackend,
    point: &SweepPoint,
    cfg: &SweepConfig,
    index: usize,
    opts: &RunOpts<'_>,
) -> Result<MeasureSet, BackendError> {
    run_measures_split(
        backend,
        cfg.replications,
        cfg.confidence,
        stream_seed(cfg.base_seed, index as u64),
        point.horizon,
        &point.sample_times,
        opts.split.as_ref().unwrap_or(&SplitSpec::none()),
        &opts.runner,
        opts.progress,
        opts.check,
    )
    .map(|run| run.measures)
}

/// The result-store id for a sweep run with a given backend: DES keeps
/// the bare `sweep_id`, the others get a `-<backend>` suffix
/// (`-san` / `-analytic`), so backends checkpoint into separate files
/// and never clobber each other. A splitting run appends `-split` for
/// the same reason: its estimates come from a different sampling scheme
/// than the plain run's.
fn store_id(sweep_id: &str, backend: BackendKind, split: Option<&SplitSpec>) -> String {
    let base = match backend {
        BackendKind::Des => sweep_id.to_owned(),
        BackendKind::San | BackendKind::Analytic => format!("{sweep_id}-{backend}"),
    };
    match split {
        Some(_) => format!("{base}-split"),
        None => base,
    }
}

/// Fingerprints a sweep configuration for store invalidation. The
/// splitting spec and analytic lumping are part of the fingerprint (one
/// changes the sampling scheme, the other the chain being solved); the
/// thread/batch configuration is not (it never changes results). The
/// `lump=on` part is pushed only for lumped analytic runs, so every
/// pre-lumping store fingerprint is reproduced bit for bit.
/// Scenario-identity parts are appended last, so an empty list
/// reproduces the pre-scenario fingerprint bit for bit.
fn sweep_fingerprint(
    points: &[SweepPoint],
    cfg: &SweepConfig,
    backend: BackendKind,
    split: Option<&SplitSpec>,
    lump: bool,
    extra: &[String],
) -> String {
    let mut parts: Vec<String> = vec![
        format!("backend={backend}"),
        format!("reps={}", cfg.replications),
        format!("seed={}", cfg.base_seed),
        format!("conf={}", cfg.confidence),
    ];
    if let Some(spec) = split {
        parts.push(format!("split={spec}"));
    }
    if lump {
        parts.push("lump=on".to_owned());
    }
    for p in points {
        parts.push(format!(
            "{}|x={}|h={}|t={:?}|{:?}",
            p.series, p.x, p.horizon, p.sample_times, p.params
        ));
    }
    fingerprint_iter(
        parts
            .iter()
            .map(String::as_str)
            .chain(extra.iter().map(String::as_str)),
    )
}

/// Extracts x-ordered per-`(series, measure)` estimates from stored points.
fn series_from(stored: &[StoredPoint], measures: &[&str]) -> Vec<Series> {
    let mut series: Vec<Series> = Vec::new();
    for point in stored {
        for &measure in measures {
            let Some(e) = point.estimate(measure) else {
                continue;
            };
            let value = ValueCi {
                mean: e.mean,
                half_width: e.half_width,
            };
            match series
                .iter_mut()
                .find(|s| s.name == point.series && s.measure == measure)
            {
                Some(s) => s.points.push((point.x, value)),
                None => series.push(Series {
                    name: point.series.clone(),
                    measure: measure.to_owned(),
                    points: vec![(point.x, value)],
                }),
            }
        }
    }
    for s in &mut series {
        s.points
            .sort_by(|a, b| a.0.partial_cmp(&b.0).expect("x values are not NaN"));
    }
    series
}

#[cfg(test)]
mod tests {
    use super::*;
    use itua_core::measures::names;
    use itua_runner::json::Json;

    fn tiny_point(x: f64, series: &str) -> SweepPoint {
        SweepPoint {
            x,
            series: series.to_owned(),
            params: Params::default().with_domains(3, 1).with_applications(1, 3),
            horizon: 2.0,
            sample_times: vec![2.0],
        }
    }

    fn reps(replications: u32) -> SweepConfig {
        SweepConfig {
            replications,
            ..Default::default()
        }
    }

    /// A storeless sweep under `opts` with no identity parts.
    fn sweep(
        points: &[SweepPoint],
        cfg: &SweepConfig,
        measures: &[&str],
        opts: &RunOpts<'_>,
    ) -> Vec<Series> {
        run_sweep("t", points, cfg, measures, &[], opts).unwrap()
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("itua-studies-sweep-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn fingerprint_records_lumping_without_disturbing_unlumped_ids() {
        let cfg = SweepConfig::default();
        let points = vec![tiny_point(1.0, "a")];
        let fp = |backend, lump| sweep_fingerprint(&points, &cfg, backend, None, lump, &[]);
        // The unlumped analytic fingerprint carries no lump part, so it
        // is byte-identical to the pre-lumping scheme; lumping changes
        // the chain and therefore the fingerprint.
        assert_ne!(
            fp(BackendKind::Analytic, false),
            fp(BackendKind::Analytic, true)
        );
        // Simulation backends never lump.
        assert_eq!(fp(BackendKind::Des, false), fp(BackendKind::Des, false));
    }

    #[test]
    fn run_sweep_collects_ordered_series() {
        let points = vec![
            tiny_point(2.0, "a"),
            tiny_point(1.0, "a"),
            tiny_point(1.0, "b"),
        ];
        let measures = [names::UNAVAILABILITY, names::UNRELIABILITY];
        let series = sweep(&points, &reps(10), &measures, &RunOpts::default());
        // One series per (series name, measure) pair.
        assert_eq!(series.len(), 4);
        let a = series
            .iter()
            .find(|s| s.name == "a" && s.measure == names::UNAVAILABILITY)
            .unwrap();
        assert_eq!(a.points.len(), 2);
        assert!(a.points[0].0 < a.points[1].0, "points must be x-sorted");
    }

    #[test]
    fn sweep_is_reproducible() {
        let points = vec![tiny_point(1.0, "a")];
        let s1 = sweep(
            &points,
            &reps(15),
            &[names::UNAVAILABILITY],
            &RunOpts::default(),
        );
        let s2 = sweep(
            &points,
            &reps(15),
            &[names::UNAVAILABILITY],
            &RunOpts::default(),
        );
        assert_eq!(s1, s2);
    }

    #[test]
    fn sweep_is_thread_count_invariant() {
        // Several points, so nonzero point indices (and their derived
        // stream origins) are covered, and the stores must match byte
        // for byte, not just the rendered series.
        let points = vec![
            tiny_point(1.0, "a"),
            tiny_point(2.0, "a"),
            tiny_point(1.0, "b"),
        ];
        let measures = [names::UNAVAILABILITY, names::UNRELIABILITY];
        let run = |threads: usize| {
            let dir = temp_dir(&format!("threads{threads}"));
            let opts = RunOpts {
                runner: RunnerConfig::default().with_threads(threads),
                results_dir: Some(dir.clone()),
                ..Default::default()
            };
            let series = sweep(&points, &reps(24), &measures, &opts);
            let bytes = std::fs::read(dir.join("t.json")).unwrap();
            std::fs::remove_dir_all(&dir).unwrap();
            (series, bytes)
        };
        let serial = run(1);
        for threads in [2, 4, 8] {
            assert_eq!(run(threads), serial, "threads = {threads}");
        }
    }

    #[test]
    fn stored_sweep_resumes_without_resimulating() {
        let cfg = reps(8);
        let dir = temp_dir("resume");
        let tracker = ResumeTracker(std::sync::Mutex::new(Vec::new()));
        let opts = RunOpts {
            results_dir: Some(dir.clone()),
            ..Default::default()
        };
        let points = vec![tiny_point(1.0, "a"), tiny_point(2.0, "a")];
        let measures = [names::UNAVAILABILITY];

        let first = sweep(&points, &cfg, &measures, &opts);
        // Resumed run reads both points back from the store.
        let resumed = RunOpts {
            progress: &tracker,
            results_dir: Some(dir.clone()),
            ..Default::default()
        };
        assert_eq!(sweep(&points, &cfg, &measures, &resumed), first);
        assert_eq!(*tracker.0.lock().unwrap(), vec![true, true]);
        // And matches the storeless path bit for bit.
        assert_eq!(sweep(&points, &cfg, &measures, &RunOpts::default()), first);

        // A changed configuration must not resume from the stale store.
        let cfg2 = SweepConfig {
            base_seed: cfg.base_seed + 1,
            ..cfg
        };
        let third = sweep(&points, &cfg2, &measures, &opts);
        assert_ne!(third, first);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Records the `resumed` flag of every finished point.
    struct ResumeTracker(std::sync::Mutex<Vec<bool>>);

    impl Progress for ResumeTracker {
        fn on_point_done(
            &self,
            _index: usize,
            _total: usize,
            _label: &str,
            _estimates: &[itua_runner::store::StoredEstimate],
            resumed: bool,
        ) {
            self.0.lock().unwrap().push(resumed);
        }
    }

    /// `obj` with the value of `key` replaced.
    fn with_field(obj: &Json, key: &str, value: Json) -> Json {
        let Json::Obj(fields) = obj else {
            panic!("not an object: {obj}")
        };
        let replace = |(k, v): &(String, Json)| {
            let v = if k == key { value.clone() } else { v.clone() };
            (k.clone(), v)
        };
        Json::Obj(fields.iter().map(replace).collect())
    }

    #[test]
    fn interrupted_or_corrupted_store_resumes_to_the_uninterrupted_bytes() {
        let cfg = reps(6);
        let points = vec![
            tiny_point(1.0, "a"),
            tiny_point(2.0, "a"),
            tiny_point(1.0, "b"),
        ];
        let measures = [names::UNAVAILABILITY];
        // Runs the sweep into `dir`; returns the store bytes and the
        // number of points simulated rather than resumed.
        let run = |dir: &PathBuf| {
            let tracker = ResumeTracker(std::sync::Mutex::new(Vec::new()));
            let opts = RunOpts {
                progress: &tracker,
                results_dir: Some(dir.clone()),
                ..Default::default()
            };
            sweep(&points, &cfg, &measures, &opts);
            let resumed = tracker.0.into_inner().unwrap();
            let simulated = resumed.iter().filter(|&&r| !r).count();
            (std::fs::read(dir.join("t.json")).unwrap(), simulated)
        };
        let full_dir = temp_dir("interrupt-full");
        let (full, simulated) = run(&full_dir);
        assert_eq!(simulated, 3);
        std::fs::remove_dir_all(&full_dir).unwrap();

        let doc = Json::parse(std::str::from_utf8(&full).unwrap()).unwrap();
        let stored = doc.get("points").and_then(Json::as_arr).unwrap();
        let first_only = with_field(&doc, "points", Json::Arr(stored[..1].to_vec()));
        let mut gap = stored.to_vec();
        gap[1] = with_field(&gap[1], "estimates", Json::Arr(Vec::new()));
        let gap = with_field(&doc, "points", Json::Arr(gap));
        let cases = [
            ("truncated", full[..full.len() / 2].to_vec(), false, 3),
            ("nested", vec![b'['; 200_000], false, 3),
            ("first-point", first_only.to_string().into_bytes(), true, 2),
            ("empty-estimates", gap.to_string().into_bytes(), false, 1),
        ];
        for (tag, bytes, garbage_tmp, expected) in cases {
            let dir = temp_dir(&format!("interrupt-{tag}"));
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(dir.join("t.json"), bytes).unwrap();
            if garbage_tmp {
                std::fs::write(dir.join("t.json.tmp"), b"{\"points\":[\xff").unwrap();
            }
            let (resumed, simulated) = run(&dir);
            assert!(resumed == full, "{tag}: resumed store differs");
            assert_eq!(simulated, expected, "{tag}: points re-simulated");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn store_resume_is_batch_size_invariant() {
        // The batch size is an amortisation knob, not part of the sweep
        // fingerprint: a store written at one batch size must be resumed
        // (not recomputed) at another, with identical results.
        let cfg = reps(8);
        let dir = temp_dir("batch");
        let points = vec![tiny_point(1.0, "a"), tiny_point(2.0, "a")];
        let measures = [names::UNAVAILABILITY];

        let opts_batch4 = RunOpts {
            backend: BackendKind::San,
            runner: RunnerConfig::default().with_batch_size(4),
            results_dir: Some(dir.clone()),
            ..Default::default()
        };
        let first = sweep(&points, &cfg, &measures, &opts_batch4);

        let tracker = ResumeTracker(std::sync::Mutex::new(Vec::new()));
        let opts_batch32 = RunOpts {
            backend: BackendKind::San,
            runner: RunnerConfig::default().with_batch_size(32),
            progress: &tracker,
            results_dir: Some(dir.clone()),
            ..Default::default()
        };
        let second = sweep(&points, &cfg, &measures, &opts_batch32);
        assert_eq!(second, first);
        assert_eq!(
            *tracker.0.lock().unwrap(),
            vec![true, true],
            "a different batch size must resume every point from the store"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn identity_parts_key_the_store_by_scenario_identity() {
        let cfg = reps(6);
        let dir = temp_dir("identity");
        let points = vec![tiny_point(1.0, "a")];
        let measures = [names::UNAVAILABILITY];
        let v1 = vec!["scn=v1".to_owned()];
        let v2 = vec!["scn=v2".to_owned()];
        let run = |identity: &[String], tracker: &ResumeTracker| {
            let opts = RunOpts {
                results_dir: Some(dir.clone()),
                progress: tracker,
                ..Default::default()
            };
            run_sweep("t", &points, &cfg, &measures, identity, &opts).unwrap()
        };
        let first = run(&v1, &ResumeTracker(std::sync::Mutex::new(Vec::new())));

        // Same identity: the store resumes.
        let tracker = ResumeTracker(std::sync::Mutex::new(Vec::new()));
        assert_eq!(run(&v1, &tracker), first);
        assert_eq!(*tracker.0.lock().unwrap(), vec![true]);

        // An edited scenario (different identity hash) must not resume
        // the stale store, even though the points are unchanged.
        let tracker = ResumeTracker(std::sync::Mutex::new(Vec::new()));
        let third = run(&v2, &tracker);
        assert_eq!(third, first, "same points and seeds, same estimates");
        assert_eq!(
            *tracker.0.lock().unwrap(),
            vec![false],
            "a changed scenario hash must re-run the point"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn split_sweep_uses_its_own_store_and_empty_spec_matches_plain() {
        let cfg = reps(10);
        let dir = temp_dir("split");
        let points = vec![tiny_point(1.0, "a")];
        let measures = [names::UNAVAILABILITY, names::UNRELIABILITY];
        let run = |split: Option<SplitSpec>| {
            let opts = RunOpts {
                results_dir: Some(dir.clone()),
                split,
                ..Default::default()
            };
            run_sweep("fig", &points, &cfg, &measures, &[], &opts).unwrap()
        };
        let plain = run(None);

        // An empty spec runs the plain one-leaf trees, bit-identical to
        // a run without a spec, but still checkpoints separately (a
        // separate resume lineage).
        let empty = run(Some(SplitSpec::none()));
        assert_eq!(empty, plain);
        assert!(dir.join("fig.json").is_file());
        assert!(dir.join("fig-split.json").is_file());

        // A real spec changes the sampling scheme; the fingerprint keeps
        // it from resuming the empty-spec store.
        let split = run(Some("1x4".parse().unwrap()));
        assert_eq!(split.len(), plain.len());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn san_backend_runs_through_the_same_pipeline() {
        let opts = RunOpts {
            backend: BackendKind::San,
            ..Default::default()
        };
        let points = vec![tiny_point(1.0, "a")];
        let series = sweep(&points, &reps(12), &[names::UNAVAILABILITY], &opts);
        assert_eq!(series.len(), 1);
        let (_, v) = series[0].points[0];
        assert!((0.0..=1.0).contains(&v.mean));
    }

    /// A point small enough for the analytic backend even in debug
    /// builds: one domain, two hosts, attack spread disabled.
    fn micro_analytic_point(x: f64, series: &str) -> SweepPoint {
        let mut params = Params::default().with_domains(1, 2).with_applications(1, 2);
        params.spread_rate_domain = 0.0;
        params.spread_rate_system = 0.0;
        SweepPoint {
            x,
            series: series.to_owned(),
            params,
            horizon: 2.0,
            sample_times: vec![2.0],
        }
    }

    #[test]
    fn analytic_backend_runs_through_the_same_pipeline() {
        let opts = RunOpts {
            backend: BackendKind::Analytic,
            ..Default::default()
        };
        let points = vec![micro_analytic_point(1.0, "a")];
        let measures = [names::UNAVAILABILITY, names::UNRELIABILITY];
        let series = sweep(&points, &reps(12), &measures, &opts);
        assert_eq!(series.len(), 2);
        for s in &series {
            let (_, v) = s.points[0];
            assert!((0.0..=1.0).contains(&v.mean), "{}: {v:?}", s.measure);
            assert_eq!(v.half_width, 0.0, "{} must be exact", s.measure);
        }
    }

    #[test]
    fn an_analytic_sweep_matches_fresh_points_bit_for_bit() {
        // A detection probability of 1 zeroes a case weight of every
        // replica attack, so re-rating refuses into and out of point 1 and
        // those points generate afresh; point 3 re-rates point 2's chain.
        let points: Vec<SweepPoint> = [(0.8, 2.0), (1.0, 2.0), (0.8, 0.5), (0.6, 4.0)]
            .iter()
            .enumerate()
            .map(|(i, &(detect, false_alarms))| {
                let mut p = micro_analytic_point(i as f64, "a");
                p.params.detect_replica = detect;
                p.params.false_alarm_rate = false_alarms;
                p
            })
            .collect();
        let opts = RunOpts {
            backend: BackendKind::Analytic,
            ..Default::default()
        };
        let measures = [names::UNAVAILABILITY, names::UNRELIABILITY];
        let series = sweep(&points, &reps(2), &measures, &opts);
        assert_eq!(series.len(), 2);
        for s in &series {
            for &(x, v) in &s.points {
                let point = &points[x as usize];
                let fresh = ItuaAnalytic::with_options(
                    &point.params,
                    &opts.backend_opts.analytic_options(),
                )
                .unwrap()
                .solve(point.horizon, &point.sample_times, 0.95)
                .unwrap();
                let fresh = fresh.mean(&s.measure).unwrap();
                assert_eq!(v.mean.to_bits(), fresh.to_bits(), "{} at {x}", s.measure);
            }
        }
    }

    #[test]
    fn an_analytic_sweep_keeps_one_structure_while_a_later_point_fits_it() {
        let mut points: Vec<SweepPoint> = (0..4)
            .map(|i| micro_analytic_point(f64::from(i), "a"))
            .collect();
        points[1].params.false_alarm_rate = 5.0;
        points[2].params.spread_rate_domain = 1.0;
        let opts = RunOpts {
            backend: BackendKind::Analytic,
            ..Default::default()
        };
        let mut kept = None;
        let held: Vec<bool> = (0..points.len())
            .map(|i| {
                point_backend(&points, i, &opts, &mut kept).unwrap();
                kept.is_some()
            })
            .collect();
        // Points 1 and 3 fit point 0's structure; point 2 fits none.
        assert_eq!(held, [true, true, false, false]);
    }

    #[test]
    fn backends_checkpoint_into_separate_stores() {
        let dir = temp_dir("backends");
        for backend in [BackendKind::Des, BackendKind::San, BackendKind::Analytic] {
            // The analytic backend needs a state-space-tractable point;
            // the simulators are happy with it too, but keeping their
            // own point shows stores separate by backend, not by point.
            let points = vec![match backend {
                BackendKind::Analytic => micro_analytic_point(1.0, "a"),
                _ => tiny_point(1.0, "a"),
            }];
            let opts = RunOpts {
                backend,
                results_dir: Some(dir.clone()),
                ..Default::default()
            };
            run_sweep(
                "fig",
                &points,
                &reps(6),
                &[names::UNAVAILABILITY],
                &[],
                &opts,
            )
            .unwrap();
        }
        assert!(dir.join("fig.json").is_file());
        assert!(dir.join("fig-san.json").is_file());
        assert!(dir.join("fig-analytic.json").is_file());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unusable_results_dir_degrades_to_storeless_run() {
        // A file where the directory should be: the store cannot open.
        let bogus = temp_dir("bogus");
        std::fs::write(&bogus, b"not a directory").unwrap();
        let opts = RunOpts {
            results_dir: Some(bogus.clone()),
            ..Default::default()
        };
        let points = vec![tiny_point(1.0, "a")];
        let measures = [names::UNAVAILABILITY];
        let series = sweep(&points, &reps(6), &measures, &opts);
        // The run completes and matches the storeless path exactly.
        assert_eq!(
            sweep(&points, &reps(6), &measures, &RunOpts::default()),
            series
        );
        std::fs::remove_file(&bogus).unwrap();
    }
}
