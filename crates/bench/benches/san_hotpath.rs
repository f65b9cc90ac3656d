//! Hot-path benchmark for the SAN execution engine, with a tracked
//! baseline.
//!
//! Four scenarios isolate the costs the SAN backend pays per replication:
//!
//! * `stabilize_heavy` — a token cascades through a long chain of
//!   instantaneous activities on every timed firing, so nearly all time
//!   goes into `stabilize` (enabling checks + uniform choice).
//! * `reschedule_heavy` — many exponential activities all read one hub
//!   place that every firing mutates, so nearly all time goes into the
//!   timed reschedule loop (cancel + resample).
//! * `figure3_point_san` / `figure3_point_des` — one real figure-3 sweep
//!   point per simulation backend, through the production `Backend::run`
//!   path with per-thread scratch reuse.
//!
//! Reported numbers are the **median ns per replication** over several
//! timed rounds (first round discarded as warmup). `--json PATH` writes
//! the tracked `BENCH_san.json`: the `current` block is overwritten with
//! this run's medians while the `baseline` block (the pre-optimization
//! medians recorded when the file was first created) is preserved, so the
//! perf trajectory stays visible in the repo. `--quick` runs each
//! scenario once per round for CI smoke coverage.
//!
//! Usage: `cargo bench -p itua-bench --bench san_hotpath -- [--quick]
//! [--json PATH] [--only NAME]` (or `cargo xtask bench-json`).

use itua_bench::tracked::write_tracked_json;
use itua_core::params::Params;
use itua_runner::backend::{Backend, BackendKind, ItuaBackend};
use itua_san::model::{San, SanBuilder};
use itua_san::simulator::SanSimulator;
use itua_sim::rng::stream_seed;
use std::sync::Arc;

/// Base seed for every scenario's replication streams.
const BENCH_SEED: u64 = 0xB_E4C;

/// Instantaneous-chain length of the stabilize-heavy model.
const STAGES: usize = 48;
/// Hub-coupled exponential activities of the reschedule-heavy model.
const HUB_ACTIVITIES: usize = 64;

/// A timed activity pumps tokens into a chain of `STAGES` instantaneous
/// activities; each pump firing triggers a full cascade, so stabilization
/// dominates the run.
fn stabilize_heavy_model() -> Arc<San> {
    let mut b = SanBuilder::new("stabilize_heavy");
    let stages: Vec<_> = (0..STAGES)
        .map(|i| b.place(format!("stage{i}"), 0))
        .collect();
    b.timed_activity("pump", 100.0)
        .output_arc(stages[0], 1)
        .build()
        .unwrap();
    for i in 0..STAGES - 1 {
        b.instantaneous_activity(format!("step{i}"))
            .input_arc(stages[i], 1)
            .output_arc(stages[i + 1], 1)
            .build()
            .unwrap();
    }
    b.instantaneous_activity("drain")
        .input_arc(stages[STAGES - 1], 1)
        .build()
        .unwrap();
    b.finish().unwrap()
}

/// `HUB_ACTIVITIES` exponential activities whose marking-dependent rates
/// all read one hub place, which every firing mutates — each firing
/// forces a cancel + resample of every activity, so the timed reschedule
/// loop dominates the run.
fn reschedule_heavy_model() -> Arc<San> {
    let mut b = SanBuilder::new("reschedule_heavy");
    let hub = b.place("hub", 0);
    for i in 0..HUB_ACTIVITIES {
        let phase = i as f64;
        b.timed_activity_fn(
            format!("work{i}"),
            Arc::new(move |m| 0.5 + 0.01 * ((f64::from(m.get(hub)) + phase) % 7.0)),
            &[hub],
        )
        .output_arc(hub, 1)
        .build()
        .unwrap();
    }
    b.finish().unwrap()
}

/// The figure-3 sweep point used for the end-to-end scenarios: 12 hosts
/// as 3 domains of 4, two applications of 7 replicas, the study horizon.
fn figure3_params() -> Params {
    Params::default().with_domains(3, 4).with_applications(2, 7)
}

const FIGURE3_HORIZON: f64 = 5.0;

struct Scenario {
    name: &'static str,
    /// Replications per timed round (full mode).
    reps: u64,
    run: Box<dyn FnMut(u64)>,
}

fn raw_san_scenario(name: &'static str, reps: u64, model: Arc<San>, horizon: f64) -> Scenario {
    let sim = SanSimulator::new(model);
    let mut scratch = sim.scratch();
    Scenario {
        name,
        reps,
        run: Box::new(move |rep| {
            sim.run_with_scratch(stream_seed(BENCH_SEED, rep), horizon, &mut [], &mut scratch)
                .unwrap();
        }),
    }
}

fn backend_scenario(name: &'static str, reps: u64, kind: BackendKind) -> Scenario {
    let backend = ItuaBackend::for_params(kind, &figure3_params()).unwrap();
    let mut scratch = backend.scratch();
    Scenario {
        name,
        reps,
        run: Box::new(move |rep| {
            backend
                .run(
                    stream_seed(BENCH_SEED, rep),
                    FIGURE3_HORIZON,
                    &[FIGURE3_HORIZON],
                    &mut scratch,
                )
                .unwrap();
        }),
    }
}

fn scenarios() -> Vec<Scenario> {
    vec![
        raw_san_scenario("stabilize_heavy", 40, stabilize_heavy_model(), 10.0),
        raw_san_scenario("reschedule_heavy", 40, reschedule_heavy_model(), 20.0),
        backend_scenario("figure3_point_san", 6, BackendKind::San),
        backend_scenario("figure3_point_des", 60, BackendKind::Des),
    ]
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let n = samples.len();
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    }
}

/// Times one scenario: `rounds` rounds of `reps` replications each (after
/// one discarded warmup round), returning the median ns/replication.
#[expect(
    clippy::disallowed_types,
    reason = "a timing harness: the wall clock is what it measures, never a model input"
)]
fn measure(sc: &mut Scenario, rounds: usize, quick: bool) -> f64 {
    let reps = if quick { 1 } else { sc.reps };
    let mut rep = 0u64;
    for _ in 0..reps {
        (sc.run)(rep);
        rep += 1;
    }
    let mut samples = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let t = std::time::Instant::now();
        for _ in 0..reps {
            (sc.run)(rep);
            rep += 1;
        }
        samples.push(t.elapsed().as_nanos() as f64 / reps as f64);
    }
    median(samples)
}

fn main() {
    let mut quick = false;
    let mut json_path: Option<String> = None;
    let mut only: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" | "--test" => quick = true,
            "--json" => json_path = Some(args.next().expect("--json needs a path")),
            "--only" => only = Some(args.next().expect("--only needs a scenario name")),
            "--bench" => {} // passed by `cargo bench`
            other => panic!("unknown argument '{other}' (try --quick, --json PATH, --only NAME)"),
        }
    }
    let rounds = if quick { 1 } else { 9 };

    let mut results: Vec<(String, f64)> = Vec::new();
    for mut sc in scenarios() {
        if only.as_deref().is_some_and(|o| o != sc.name) {
            continue;
        }
        let ns = measure(&mut sc, rounds, quick);
        println!("{:<22} {:>14.0} ns/replication", sc.name, ns);
        #[expect(
            clippy::disallowed_methods,
            reason = "the tracked JSON records whole nanoseconds per replication"
        )]
        results.push((sc.name.to_owned(), ns.round()));
    }
    assert!(!results.is_empty(), "no scenario matched --only filter");

    if let Some(path) = json_path {
        let path = write_tracked_json(
            &path,
            "itua-san-hotpath-v1",
            "median ns per replication",
            &results,
        )
        .expect("writing tracked bench JSON");
        println!("wrote {}", path.display());
    }
}
