//! Spans for the traced run, and the exact workloads' replay.
//!
//! Spans are recorded from the benchmark's own code around its calls
//! into each layer; the program itself carries no instrumentation. They
//! stay in memory and are written out once, after the traced sweep.

use itua_core::analytic::AnalyticOptions;
use itua_core::measures::{names, MeasureSet};
use itua_core::{analysis, san_model};
use itua_markov::ctmc::Ctmc;
use itua_markov::poisson::PoissonWeights;
use itua_runner::json::Json;
use itua_san::statespace::StateSpace;
use itua_studies::sweep::SweepPoint;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed call: `[start, end]` in seconds since the tracer started.
#[derive(Debug)]
pub struct Span {
    /// Layer name (`point`, `build`, `run_batch`, `replay.generate`, ...).
    pub name: &'static str,
    /// Start, seconds.
    pub start: f64,
    /// End, seconds.
    pub end: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Sweep point the span belongs to (running index over the workload).
    pub point: usize,
    /// Small per-thread number (0 = the first thread that recorded).
    pub thread: usize,
}

impl Span {
    /// Wall-clock duration, seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

static NEXT_THREAD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static THREAD: usize = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// In-memory span recorder, shared by the worker threads of a sweep.
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span; `f` receives the span's index so it can
    /// parent spans of its own.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        point: usize,
        f: impl FnOnce(usize) -> R,
    ) -> R {
        let id = {
            let mut spans = self.spans.lock().expect("span list poisoned");
            spans.push(Span {
                name,
                start: self.origin.elapsed().as_secs_f64(),
                end: f64::NAN,
                parent,
                point,
                thread: THREAD.with(|t| *t),
            });
            spans.len() - 1
        };
        let out = f(id);
        let end = self.origin.elapsed().as_secs_f64();
        self.spans.lock().expect("span list poisoned")[id].end = end;
        out
    }

    /// The recorded spans, in start order of their opening.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner().expect("span list poisoned")
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (children on parallel threads may overlap, so
/// their union is subtracted, not their sum).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = s.start;
            for &(lo, hi) in kids.iter() {
                let (lo, hi) = (lo.max(reach), hi.min(s.end));
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration() - covered
        })
        .collect()
}

/// Summed duration of every span called `name`.
pub fn total(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration)
        .sum()
}

/// Fraction of the compute spans' thread capacity that no backend call
/// used: `1 - busy / Σ(compute wall × threads seen in it)`. On the
/// simulators this is workers waiting on a point's last chunk; an exact
/// solve is one call on one thread, so it reads ~0 there.
pub fn idle_fraction(spans: &[Span]) -> f64 {
    let mut capacity = 0.0;
    let mut busy = 0.0;
    for (id, compute) in spans.iter().enumerate() {
        if compute.name != "compute" {
            continue;
        }
        let mut threads: Vec<usize> = Vec::new();
        for kid in spans.iter().filter(|s| s.parent == Some(id)) {
            busy += kid.duration();
            if !threads.contains(&kid.thread) {
                threads.push(kid.thread);
            }
        }
        capacity += compute.duration() * threads.len().max(1) as f64;
    }
    if capacity > 0.0 {
        1.0 - busy / capacity
    } else {
        0.0
    }
}

/// The spans as JSON, with self times.
pub fn spans_json(spans: &[Span]) -> Json {
    let self_s = self_times(spans);
    Json::Arr(
        spans
            .iter()
            .zip(self_s)
            .map(|(s, self_s)| {
                Json::Obj(vec![
                    ("name".into(), Json::Str(s.name.into())),
                    ("start_s".into(), Json::Num(s.start)),
                    ("end_s".into(), Json::Num(s.end)),
                    ("self_s".into(), Json::Num(self_s)),
                    (
                        "parent".into(),
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("point".into(), Json::Num(s.point as f64)),
                    ("thread".into(), Json::Num(s.thread as f64)),
                ])
            })
            .collect(),
    )
}

/// Truncation accuracy of every uniformization pass; must equal
/// `core::analytic`'s. If it ever differs, the replay's estimates stop
/// matching the faithful ones and the breakdown is flagged stale.
const EPSILON: f64 = 1e-10;

/// Work counts of one replayed exact point.
#[derive(Debug)]
pub struct Replay {
    /// Orbits (states of the lumped chain).
    pub orbits: usize,
    /// Nonzero off-diagonal rates of the base chain.
    pub transitions: usize,
    /// Tangible states the orbits stand for.
    pub full_states: u128,
    /// Uniformization rate of the base chain, 1/h.
    pub q: f64,
    /// Uniformization passes that step.
    pub passes: usize,
    /// Fox-Glynn right truncation points summed over the passes.
    pub steps: usize,
    /// Bytes of the CSR structures of every chain (computed from sizes).
    pub csr_bytes: usize,
    /// Whether the replayed estimates equal the faithful ones bit for bit.
    pub matches: bool,
}

impl Replay {
    /// The counts as a JSON object (for the trace file).
    pub fn to_json(&self, point: usize) -> Json {
        Json::Obj(vec![
            ("point".into(), Json::Num(point as f64)),
            ("orbits".into(), Json::Num(self.orbits as f64)),
            ("transitions".into(), Json::Num(self.transitions as f64)),
            ("full_states".into(), Json::Num(self.full_states as f64)),
            ("q_per_h".into(), Json::Num(self.q)),
            ("passes".into(), Json::Num(self.passes as f64)),
            ("steps".into(), Json::Num(self.steps as f64)),
            ("csr_bytes".into(), Json::Num(self.csr_bytes as f64)),
            ("matches".into(), Json::Bool(self.matches)),
        ])
    }
}

/// Stored bytes of one chain: two CSR matrices (rates and their
/// transpose, `usize` indices and `f64` values) plus the exit rates.
fn csr_bytes(c: &Ctmc) -> usize {
    let (n, nnz) = (c.num_states(), c.rates().nnz());
    2 * (nnz * 16 + (n + 1) * 8) + n * 8
}

fn right_point(q: f64, t: f64) -> usize {
    PoissonWeights::new(q * t, EPSILON).right
}

/// Re-runs one exact point step by step — model, state-space
/// generation, CTMC assembly, and each uniformization pass of
/// `ItuaAnalytic::solve` — under spans named `replay.*`, and compares the
/// resulting estimates with `faithful`, the point's estimates from the
/// traced timeline.
///
/// # Errors
///
/// Model, state-space or CTMC failures.
pub fn replay(
    tracer: &Tracer,
    pid: usize,
    point: &SweepPoint,
    opts: &AnalyticOptions,
    faithful: &MeasureSet,
) -> Result<Replay, String> {
    tracer.span("replay", None, pid, |top| {
        let params = &point.params;
        let model = tracer
            .span("replay.model", Some(top), pid, |_| san_model::build(params))
            .map_err(|e| format!("model build: {e}"))?;
        let ss = tracer
            .span("replay.generate", Some(top), pid, |_| {
                if opts.lump {
                    let sym = analysis::symmetry_spec(&model);
                    StateSpace::generate_lumped(&model.san, &sym, opts.max_states)
                } else {
                    StateSpace::generate(&model.san, opts.max_states)
                }
            })
            .map_err(|e| format!("generation: {e}"))?;

        // Assembly, in `ItuaAnalytic::with_options`'s order.
        let places = &model.places;
        let (improper, instants, byz, ctmc) =
            tracer.span("replay.assemble", Some(top), pid, |_| {
                let num_domains = params.num_domains as f64;
                let num_apps = params.num_apps as f64;
                let improper = ss.reward_vector(|m| places.improper_fraction(m));
                let excluded =
                    ss.reward_vector(|m| f64::from(m.get(places.excluded_domains)) / num_domains);
                let running = ss.reward_vector(|m| {
                    f64::from(places.running.iter().map(|&p| m.get(p)).sum::<i32>()) / num_apps
                });
                let load = ss.reward_vector(|m| {
                    let running: i32 = places.running.iter().map(|&p| m.get(p)).sum();
                    let alive: i32 = places.domain_active_hosts.iter().map(|&p| m.get(p)).sum();
                    if alive == 0 {
                        0.0
                    } else {
                        f64::from(running) / f64::from(alive)
                    }
                });
                let byz = (0..params.num_apps)
                    .map(|a| {
                        ss.absorbing_ctmc(|m| places.byzantine(m, a))
                            .map(|(c, flags)| (c.with_threads(opts.threads), flags))
                    })
                    .collect::<Result<Vec<_>, _>>();
                let ctmc = ss.to_ctmc().map(|c| c.with_threads(opts.threads));
                (improper, [excluded, running, load], byz, ctmc)
            });
        let byz = byz.map_err(|e| format!("assembly: {e}"))?;
        let ctmc = ctmc.map_err(|e| format!("assembly: {e}"))?;
        let initial = ss.initial_distribution();
        let horizon = point.horizon;

        // The passes of `ItuaAnalytic::solve`, one span each, with its
        // floating-point operations in its order.
        let solve_err = |e: itua_markov::ctmc::CtmcError| format!("solve: {e}");
        let improper_time = tracer
            .span("replay.reward", Some(top), pid, |_| {
                ctmc.expected_accumulated_reward(&initial, &improper, horizon, EPSILON)
            })
            .map_err(solve_err)?;
        let mut values = vec![(names::UNAVAILABILITY.to_owned(), improper_time / horizon)];
        let mut byz_total = 0.0;
        for (chain, flags) in &byz {
            let p = tracer
                .span("replay.absorb", Some(top), pid, |_| {
                    chain.transient(&initial, horizon, EPSILON)
                })
                .map_err(solve_err)?;
            byz_total += flags
                .iter()
                .zip(&p)
                .filter(|&(&absorbed, _)| absorbed)
                .map(|(_, &pi)| pi)
                .sum::<f64>();
        }
        values.push((
            names::UNRELIABILITY.to_owned(),
            byz_total / byz.len() as f64,
        ));
        let mut samples: Vec<f64> = point
            .sample_times
            .iter()
            .map(|&t| t.min(horizon))
            .filter(|&t| t > 0.0)
            .collect();
        samples.sort_by(f64::total_cmp);
        samples.dedup();
        let dists = tracer
            .span("replay.transient", Some(top), pid, |_| {
                ctmc.transient_multi(&initial, &samples, EPSILON)
            })
            .map_err(solve_err)?;
        let [excluded, running, load] = &instants;
        for (&t, dist) in samples.iter().zip(&dists) {
            let dot = |r: &[f64]| r.iter().zip(dist).map(|(ri, pi)| ri * pi).sum::<f64>();
            values.push((
                format!("{}@{t}", names::FRAC_DOMAINS_EXCLUDED),
                dot(excluded),
            ));
            values.push((format!("{}@{t}", names::REPLICAS_RUNNING), dot(running)));
            values.push((format!("{}@{t}", names::LOAD_PER_HOST), dot(load)));
        }

        let matches = values.len() == faithful.estimates().len()
            && values
                .iter()
                .all(|(name, v)| faithful.mean(name).map(f64::to_bits) == Some(v.to_bits()));
        let q = ctmc.uniformization_rate();
        let transient_steps = samples.iter().map(|&t| right_point(q, t)).max();
        Ok(Replay {
            orbits: ss.num_states(),
            transitions: ctmc.rates().nnz(),
            full_states: ss.full_state_total().unwrap_or(ss.num_states() as u128),
            q,
            passes: 1 + byz.len() + usize::from(transient_steps.is_some()),
            steps: right_point(q, horizon)
                + byz
                    .iter()
                    .map(|(c, _)| right_point(c.uniformization_rate(), horizon))
                    .sum::<usize>()
                + transient_steps.unwrap_or(0),
            csr_bytes: csr_bytes(&ctmc) + byz.iter().map(|(c, _)| csr_bytes(c)).sum::<usize>(),
            matches,
        })
    })
}
