//! Cross-backend oracle suite: the analytic backend solves small
//! configurations *exactly*, so for state-space-tractable parameter sets
//! every simulation backend must land within its own confidence interval
//! of the analytic value — not merely agree with the other simulator.
//!
//! All three backends run through the unified pipeline
//! ([`itua_repro::runner::run_measures`]), exactly the code path
//! `itua run` uses with `--backend des|san|analytic`. The analytic
//! leg short-circuits replication and returns zero-variance estimates.
//!
//! Compared measures are the ones with a marking-level reward
//! formulation: unavailability, unreliability, and the instant-of-time
//! measures. `frac_corrupt_hosts_at_exclusion` and the `time_to_first_*`
//! measures condition on events inside a replication and are not
//! produced analytically (DESIGN.md §8), so they are not compared.
//!
//! Configurations disable attack spread to keep the tangible state space
//! in the low thousands — tractable for exact solution even in debug
//! builds. Seeds are fixed, so the suite is deterministic: the
//! confidence-interval checks either always pass or always fail.

use itua_repro::itua::measures::names;
use itua_repro::itua::params::Params;
use itua_repro::runner::{run_measures, BackendKind, ItuaBackend, NullProgress, RunnerConfig};
use itua_repro::stats::replication::Estimate;

const HORIZON: f64 = 5.0;
const CONFIDENCE: f64 = 0.95;

/// Measures every backend produces for these configurations.
fn shared_measures() -> Vec<String> {
    vec![
        names::UNAVAILABILITY.to_owned(),
        names::UNRELIABILITY.to_owned(),
        format!("{}@{}", names::FRAC_DOMAINS_EXCLUDED, HORIZON),
        format!("{}@{}", names::REPLICAS_RUNNING, HORIZON),
        format!("{}@{}", names::LOAD_PER_HOST, HORIZON),
    ]
}

/// A configuration with attack spread disabled (exactly solvable).
fn no_spread(domains: usize, hosts: usize, apps: usize, reps: usize) -> Params {
    let mut p = Params::default()
        .with_domains(domains, hosts)
        .with_applications(apps, reps);
    p.spread_rate_domain = 0.0;
    p.spread_rate_system = 0.0;
    p
}

/// Runs one configuration through the unified pipeline on the given
/// backend and returns the estimates.
fn estimates(kind: BackendKind, params: &Params, reps: u32, origin_seed: u64) -> Vec<Estimate> {
    let backend = ItuaBackend::for_params(kind, params).expect("valid params");
    run_measures(
        &backend,
        reps,
        CONFIDENCE,
        origin_seed,
        HORIZON,
        &[HORIZON],
        &RunnerConfig::default(),
        &NullProgress,
    )
    .expect("backend run succeeds")
    .estimates()
}

fn value_of(ests: &[Estimate], measure: &str, tag: &str) -> Estimate {
    ests.iter()
        .find(|e| e.name == measure)
        .unwrap_or_else(|| panic!("{tag} produced no estimate for {measure}"))
        .clone()
}

/// Asserts a simulator's CI contains the exact value for every shared
/// measure. A zero-width simulator CI (a measure that is deterministic
/// under these parameters) must hit the exact value to within solver
/// truncation accuracy.
fn assert_within_ci(sim: &[Estimate], exact: &[Estimate], tag: &str) {
    for measure in shared_measures() {
        let s = value_of(sim, &measure, tag);
        let x = value_of(exact, &measure, "analytic");
        assert_eq!(x.ci.half_width, 0.0, "analytic {measure} is not exact");
        let gap = (s.ci.mean - x.ci.mean).abs();
        // 1e-7 absorbs uniformization truncation (ε = 1e-10) on measures
        // the simulation resolves exactly (zero-width CI).
        assert!(
            gap <= s.ci.half_width + 1e-7,
            "{tag} {measure}: {} not within ±{} of exact {} (gap {gap:.3e})",
            s.ci.mean,
            s.ci.half_width,
            x.ci.mean,
        );
    }
}

/// Runs all three backends on one configuration and checks both
/// simulators against the exact solution.
fn check_config(params: Params, sim_reps: u32) {
    let exact = estimates(BackendKind::Analytic, &params, 1, 0);
    let des = estimates(BackendKind::Des, &params, sim_reps, 11);
    let san = estimates(BackendKind::San, &params, sim_reps, 12);
    assert_within_ci(&des, &exact, "DES");
    assert_within_ci(&san, &exact, "SAN");
}

/// Two single-host domains: domain exclusion dynamics are live (the
/// uniformization rate is dominated by the fast exclusion decision).
#[test]
fn two_domains_agree_with_exact_solution() {
    check_config(no_spread(2, 1, 1, 2), 400);
}

/// One two-host domain, one application with two replicas: host-level
/// corruption and recovery without any domain exclusion.
#[test]
fn one_domain_two_replicas_agrees_with_exact_solution() {
    check_config(no_spread(1, 2, 1, 2), 600);
}

/// One two-host domain, two single-replica applications: per-application
/// unreliability aggregation across distinct Byzantine-absorbed chains.
#[test]
fn two_applications_agree_with_exact_solution() {
    check_config(no_spread(1, 2, 2, 1), 600);
}

/// The analytic leg is invariant in replication count and seed: the same
/// exact values come back no matter what the sweep configuration asks
/// for.
#[test]
fn analytic_oracle_ignores_replication_settings() {
    let params = no_spread(1, 2, 1, 2);
    let a = estimates(BackendKind::Analytic, &params, 1, 0);
    let b = estimates(BackendKind::Analytic, &params, 900, 424242);
    assert_eq!(a, b);
}
