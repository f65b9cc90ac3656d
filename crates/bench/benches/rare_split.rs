//! Rare-event benchmark: RESTART importance splitting vs plain Monte
//! Carlo on a figure-4 unreliability tail point, with a tracked baseline.
//!
//! The scenario is a deliberately engineered tail configuration (see
//! [`tail_params`]): two single-host domains, one application with a
//! replica in each domain, no corruption spread, and remote attacks only
//! against host operating systems. Replica corruption — the only route to
//! a Byzantine failure and hence to unreliability mass — is then gated by
//! a prior host corruption, which is exactly the upward crossing of the
//! corrupt-domain importance level the splitting engine forks on.
//!
//! Both arms run the same number of independent trees through the one
//! replication loop (`run_measures_split`); the plain arm uses an empty
//! [`SplitSpec`], which is plain replication: one-leaf trees. The figure
//! of merit is
//!
//! ```text
//! event_reduction = (steps_plain * hw_plain²) / (steps_split * hw_split²)
//! ```
//!
//! i.e. the factor fewer simulated events splitting needs for the same
//! confidence-interval half-width on `unreliability` (work × variance is
//! asymptotically constant for a fixed method, so the ratio is the
//! work-normalized variance-reduction factor). Everything is seeded, so
//! the reported numbers are deterministic, not timings.
//!
//! `--json PATH` writes the tracked `BENCH_rare.json` (the `baseline`
//! block is preserved once created, `current` is overwritten) and gates
//! `event_reduction >= 10`: the run prints `PATH: ok`, or a
//! `PATH: REGRESSION: …` line and exits 2. `--quick` shrinks the tree
//! counts for CI smoke coverage.
//!
//! Usage: `cargo bench -p itua-bench --bench rare_split -- [--quick]
//! [--json PATH]`; CI runs it with `--json BENCH_rare.json`.

use itua_bench::tracked::{record, BenchArgs, Gate};
use itua_core::measures::names;
use itua_core::params::Params;
use itua_rare::SplitSpec;
use itua_runner::backend::{Backend, BackendKind, ItuaBackend, ModelCheck};
use itua_runner::progress::NullProgress;
use itua_runner::split::run_measures_split;
use itua_runner::RunnerConfig;

/// Origin seed for both arms' tree streams.
const BENCH_SEED: u64 = 0x4A4E;
/// Figure-4 style mission time (hours).
const HORIZON: f64 = 5.0;
/// Trees per arm. The tail probability is ~1e-3, so the plain arm needs
/// tens of thousands of trees for its CI half-width to be a meaningful
/// yardstick.
const TREES: u32 = 65_536;
/// Splitting schedule: fork at the first and second corrupt domain.
const SPEC: &str = "1x10,2x10";

/// The figure-4 tail point: a micro configuration small enough for the
/// analytic CTMC backend (so `tests/split_oracle.rs` checks this exact
/// setup against the exact solution) pushed into the unreliability tail.
///
/// * One replica per single-host domain, four domains: Byzantine failure
///   of the 4-replica group needs **two** corrupt replicas, and each
///   replica corruption needs a prior corruption of its own host (remote
///   attack weights for replicas and managers are zero). The rare path
///   therefore climbs the corrupt-domain level twice — precisely
///   the staircase RESTART multiplies effort on.
/// * All IDS channels that would *exclude* domains are disabled
///   (`false_alarm_rate = 0`, per-category attack detection
///   probabilities 0): an exclusion raises the importance level without
///   any chance of contributing unreliability mass, which would dilute
///   the splitting effort with dead branches. What remains is the pure
///   attack/escalation race the level function was designed for.
/// * A reduced attack rate makes each host corruption uncommon, the
///   local escalation (`corrupt_host_replica_rate`) is slow, and a
///   lowered `misbehave_rate` still lets the group convict a lone
///   corrupt replica before the second one usually lands — so most first
///   crossings fail to produce a Byzantine pair. That small conditional
///   probability past the first threshold is the regime where splitting
///   pays off.
///
/// Exact unreliability (analytic backend, 12 673 tangible states) is
/// ~2.0e-4 at the 5 h horizon.
fn tail_params() -> Params {
    let mut p = Params::default().with_domains(4, 1).with_applications(1, 4);
    p.spread_rate_domain = 0.0;
    p.spread_rate_system = 0.0;
    p.attack_weight_replica = 0.0;
    p.attack_weight_manager = 0.0;
    p.base_attack_rate = 0.4;
    p.host_corruption_multiplier = 12.0;
    p.misbehave_rate = 0.2;
    p.false_alarm_rate = 0.0;
    p.attack_mix.detect_script = 0.0;
    p.attack_mix.detect_exploratory = 0.0;
    p.attack_mix.detect_innovative = 0.0;
    p.detect_replica = 0.0;
    p.detect_manager = 0.0;
    p
}

/// One arm's outcome on the `unreliability` measure.
struct Arm {
    mean: f64,
    half_width: f64,
    steps: u64,
}

fn run_arm(backend: &ItuaBackend, spec: &SplitSpec, trees: u32) -> Arm {
    let run = run_measures_split(
        backend,
        trees,
        0.95,
        BENCH_SEED,
        HORIZON,
        &[HORIZON],
        spec,
        &RunnerConfig::default(),
        &NullProgress,
        ModelCheck::Off,
    )
    .expect("tail-point simulation");
    let est = run
        .measures
        .estimates()
        .into_iter()
        .find(|e| e.name == names::UNRELIABILITY)
        .expect("unreliability estimate");
    Arm {
        mean: est.ci.mean,
        half_width: est.ci.half_width,
        steps: run.totals.steps,
    }
}

/// The exact unreliability of the tail point from the analytic CTMC
/// backend — recorded alongside the simulation arms so the committed
/// artifact is self-validating (both CIs should cover it).
fn exact_unreliability() -> f64 {
    let backend = ItuaBackend::for_params(BackendKind::Analytic, &tail_params())
        .expect("analytic tail backend");
    let exact = backend
        .exact_measures(HORIZON, &[HORIZON], 0.95)
        .expect("analytic backend is exact")
        .expect("analytic tail solution");
    exact
        .estimates()
        .into_iter()
        .find(|e| e.name == names::UNRELIABILITY)
        .expect("exact unreliability")
        .ci
        .mean
}

fn main() {
    let args = BenchArgs::from_env("rare_split", &[]);
    let trees = if args.quick { 2048 } else { TREES };

    let backend =
        ItuaBackend::for_params(BackendKind::Des, &tail_params()).expect("DES tail backend");
    let spec: SplitSpec = SPEC.parse().expect("valid splitting spec");

    let plain = run_arm(&backend, &SplitSpec::none(), trees);
    let split = run_arm(&backend, &spec, trees);
    let exact = exact_unreliability();

    // Work × variance is the method-invariant cost of a target CI width;
    // the ratio is how many times fewer events splitting needs.
    let event_reduction = (plain.steps as f64 * plain.half_width.powi(2))
        / (split.steps as f64 * split.half_width.powi(2));

    println!("figure-4 tail point: {trees} trees, horizon {HORIZON} h, spec {SPEC}");
    println!("  exact unreliability    {exact:.6e}");
    println!(
        "  plain    mean {:.6e}  hw {:.3e}  events {}",
        plain.mean, plain.half_width, plain.steps
    );
    println!(
        "  split    mean {:.6e}  hw {:.3e}  events {}",
        split.mean, split.half_width, split.steps
    );
    println!("  event_reduction        {event_reduction:.2}x");

    // At full size both arms must cover the exact value; the quick smoke
    // run is far too small for the plain arm to even see a failure
    // (expected hits ≈ trees × 2e-4), so it only exercises the pipeline.
    if !args.quick {
        for (name, arm) in [("plain", &plain), ("split", &split)] {
            assert!(
                (arm.mean - exact).abs() <= arm.half_width,
                "{name} 95% CI [{:.3e} ± {:.3e}] misses the exact value {exact:.3e}",
                arm.mean,
                arm.half_width,
            );
        }
    }

    let results: Vec<(String, f64)> = vec![
        ("trees".into(), f64::from(trees)),
        ("exact_unreliability".into(), exact),
        ("plain_mean".into(), plain.mean),
        ("plain_half_width".into(), plain.half_width),
        ("plain_events".into(), plain.steps as f64),
        ("split_mean".into(), split.mean),
        ("split_half_width".into(), split.half_width),
        ("split_events".into(), split.steps as f64),
        ("event_reduction".into(), event_reduction),
    ];

    if let Some(path) = args.json {
        record(
            &path,
            "itua-rare-split-v1",
            "deterministic seeded run; events and CI half-widths",
            &results,
            &[Gate::AtLeast("event_reduction", 10.0)],
        );
    }
}
