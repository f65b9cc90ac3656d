//! Cross-validation: the SAN encoding (Figure 2) and the direct
//! discrete-event encoding of the ITUA model describe the same stochastic
//! process, so their measures must agree within confidence intervals.
//!
//! This is the repository's strongest internal-consistency check: the two
//! implementations share no model code (only the parameter set), so any
//! semantic divergence shows up as a statistically significant gap. Both
//! encodings run through the unified backend pipeline
//! ([`itua_repro::runner::run_measures`]), which spreads the replications
//! over worker threads with per-thread scratch reuse — so this also
//! exercises exactly the code path `itua run` uses with
//! `--backend des` / `--backend san`.
//!
//! `frac_corrupt_hosts_at_exclusion` is deliberately not compared: the
//! SAN's measure-only accumulator cannot attribute replica-only
//! corruption to its host at exclusion time (see
//! `itua_core::san_exec`), so that one measure is DES-only.

use itua_repro::itua::measures::names;
use itua_repro::itua::params::{ManagementScheme, Params};
use itua_repro::runner::{run_measures, BackendKind, ItuaBackend, NullProgress, RunnerConfig};
use itua_repro::stats::replication::Estimate;

/// Runs one configuration through the unified pipeline on the given
/// backend and returns the 99% estimates.
fn estimates(
    kind: BackendKind,
    params: &Params,
    horizon: f64,
    reps: u32,
    origin_seed: u64,
) -> Vec<Estimate> {
    let backend = ItuaBackend::for_params(kind, params).expect("valid params");
    run_measures(
        &backend,
        reps,
        0.99,
        origin_seed,
        horizon,
        &[horizon],
        &RunnerConfig::default(),
        &NullProgress,
    )
    .expect("simulation succeeds")
    .estimates()
}

/// Asserts the 99% intervals of the named measure overlap between the
/// two backends (a conservative two-sample check that keeps the
/// false-failure rate of the suite low).
fn assert_agree(san: &[Estimate], des: &[Estimate], measure: &str) {
    let find = |ests: &[Estimate], tag: &str| -> itua_repro::stats::ci::ConfidenceInterval {
        ests.iter()
            .find(|e| e.name == measure)
            .unwrap_or_else(|| panic!("{tag} produced no estimate for {measure}"))
            .ci
    };
    let cs = find(san, "SAN");
    let cd = find(des, "DES");
    assert!(
        cs.overlaps(&cd),
        "{measure}: SAN {cs} vs DES {cd} do not overlap"
    );
}

/// Runs both backends (independent seed streams) and checks the shared
/// measures agree.
fn compare(params: Params, horizon: f64, reps: u32) {
    let san = estimates(BackendKind::San, &params, horizon, reps, 1);
    let des = estimates(BackendKind::Des, &params, horizon, reps, 2);
    let excluded = format!("{}@{}", names::FRAC_DOMAINS_EXCLUDED, horizon);
    for measure in [
        names::UNAVAILABILITY,
        names::UNRELIABILITY,
        excluded.as_str(),
    ] {
        assert_agree(&san, &des, measure);
    }
}

#[test]
fn domain_exclusion_measures_agree() {
    let params = Params::default().with_domains(4, 2).with_applications(2, 3);
    compare(params, 5.0, 600);
}

#[test]
fn host_exclusion_measures_agree() {
    let params = Params::default()
        .with_domains(4, 2)
        .with_applications(2, 3)
        .with_scheme(ManagementScheme::HostExclusion);
    let san = estimates(BackendKind::San, &params, 5.0, 600, 1);
    let des = estimates(BackendKind::Des, &params, 5.0, 600, 2);
    // The host scheme never excludes whole domains, so only the
    // service-level measures are meaningful.
    assert_agree(&san, &des, names::UNAVAILABILITY);
    assert_agree(&san, &des, names::UNRELIABILITY);
}

#[test]
fn high_spread_measures_agree() {
    let params = Params::default()
        .with_domains(3, 3)
        .with_applications(2, 3)
        .with_host_corruption_multiplier(5.0)
        .with_spread_rate(10.0);
    compare(params, 5.0, 600);
}

#[test]
fn excluded_domains_fraction_agrees() {
    let params = Params::default().with_domains(5, 2).with_applications(2, 3);
    let horizon = 5.0;
    let san = estimates(BackendKind::San, &params, horizon, 500, 1);
    let des = estimates(BackendKind::Des, &params, horizon, 500, 2);
    assert_agree(
        &san,
        &des,
        &format!("{}@{}", names::FRAC_DOMAINS_EXCLUDED, horizon),
    );
}
