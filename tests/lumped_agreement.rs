//! Oracle suite for the symmetry-lumped analytic backend.
//!
//! The lumped chain is generated directly in canonical
//! (orbit-representative) form under the model's wreath-product symmetry
//! and claims to be an *exact* quotient: every measure must equal the
//! unlumped solution up to uniformization truncation. Two layers of
//! evidence here:
//!
//! * a property test over randomized micro topologies and rate
//!   parameters — lumped and unlumped `ItuaAnalytic` solutions must
//!   agree to 1e-9 relative on every measure, the orbit sizes must
//!   account for exactly the unlumped state count, and both generators
//!   must match the explored graphs with their vanishing states
//!   eliminated to 1e-12 relative (`analysis::exhaustive_check`);
//! * a configuration the *unlumped* backend rejects at its default
//!   state budget, where the lumped backend still solves exactly — both
//!   simulators' confidence intervals must cover the lumped values,
//!   mirroring `tests/backend_agreement.rs` on a previously-infeasible
//!   config.

use itua_repro::analyzer::reach::RATE_REL_TOL;
use itua_repro::itua::analytic::{AnalyticError, AnalyticOptions, ItuaAnalytic};
use itua_repro::itua::measures::names;
use itua_repro::itua::params::Params;
use itua_repro::itua::{analysis, san_model};
use itua_repro::runner::{run_measures, BackendKind, ItuaBackend, NullProgress, RunnerConfig};
use itua_repro::stats::replication::Estimate;
use proptest::prelude::*;

const CONFIDENCE: f64 = 0.95;

/// A micro configuration with attack spread disabled (exactly solvable
/// in debug builds).
fn no_spread(domains: usize, hosts: usize, apps: usize, reps: usize) -> Params {
    let mut p = Params::default()
        .with_domains(domains, hosts)
        .with_applications(apps, reps);
    p.spread_rate_domain = 0.0;
    p.spread_rate_system = 0.0;
    p
}

/// Solves `params` lumped or plain with a generous state budget.
fn solve(params: &Params, lump: bool, horizon: f64) -> Vec<Estimate> {
    let analytic = ItuaAnalytic::with_options(
        params,
        &AnalyticOptions {
            max_states: 1_000_000,
            lump,
            threads: 1,
        },
    )
    .expect("micro configuration is exactly solvable");
    analytic
        .solve(horizon, &[horizon], CONFIDENCE)
        .expect("solve succeeds")
        .estimates()
}

/// Micro topology family for the property test: every symmetry unit the
/// canonicalizer handles is non-trivial somewhere in this list (domain
/// permutations, within-domain host permutations, replica-slot
/// permutations, interchangeable single-replica applications), and every
/// shape keeps the *unreduced* tangible space in the low thousands so
/// debug builds solve both sides in seconds.
const SHAPES: &[(usize, usize, usize, usize)] = &[
    (2, 1, 1, 2), // two single-host domains, replica pair
    (1, 2, 1, 2), // one two-host domain, replica pair
    (1, 2, 2, 1), // two interchangeable single-replica apps
    (2, 1, 2, 1), // idem, across two domains
    (1, 1, 1, 3), // three replica slots on one host (S3 slot symmetry)
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Lumped and unlumped analytic solutions agree to 1e-9 relative on
    /// randomized micro topologies and rates, the quotient's orbit sizes
    /// sum to exactly the unlumped state count, and the rates of both
    /// generators match the eliminated graphs to 1e-12 relative.
    #[test]
    fn lumped_measures_match_unlumped_on_random_micro_topologies(
        shape in 0usize..5,
        attack in 0.2f64..2.0,
        misbehave in 0.2f64..2.0,
        false_alarm in 0.0f64..0.3,
    ) {
        let (domains, hosts, apps, reps) = SHAPES[shape];
        let mut params = no_spread(domains, hosts, apps, reps);
        params.base_attack_rate = attack;
        params.misbehave_rate = misbehave;
        params.false_alarm_rate = false_alarm;

        let full = ItuaAnalytic::with_options(
            &params,
            &AnalyticOptions { max_states: 1_000_000, lump: false, threads: 1 },
        ).expect("unlumped micro build");
        let lumped = ItuaAnalytic::with_options(
            &params,
            &AnalyticOptions { max_states: 1_000_000, lump: true, threads: 1 },
        ).expect("lumped micro build");
        prop_assert!(lumped.num_states() <= full.num_states());
        prop_assert_eq!(
            lumped.full_state_total(),
            Some(full.num_states() as u128),
            "orbit sizes must account for every unlumped state"
        );

        let horizon = 2.0;
        let a = full.solve(horizon, &[1.0, horizon], CONFIDENCE).expect("full solve");
        let b = lumped.solve(horizon, &[1.0, horizon], CONFIDENCE).expect("lumped solve");
        let (ea, eb) = (a.estimates(), b.estimates());
        prop_assert_eq!(ea.len(), eb.len());
        for (x, y) in ea.iter().zip(&eb) {
            prop_assert_eq!(&x.name, &y.name);
            let denom = x.ci.mean.abs().max(1e-12);
            prop_assert!(
                ((x.ci.mean - y.ci.mean) / denom).abs() < 1e-9,
                "{}: full {} vs lumped {}", x.name, x.ci.mean, y.ci.mean
            );
        }

        let model = san_model::build(&params).expect("micro model builds");
        let agreement = analysis::exhaustive_check(&model, 1_000_000)
            .unwrap_or_else(|e| panic!("generator oracle: {e}"));
        prop_assert_eq!(agreement.full_tangible, full.num_states() as u128);
        prop_assert!(
            agreement.max_rel_dev <= RATE_REL_TOL,
            "worst relative deviation {:e}", agreement.max_rel_dev
        );
    }
}

/// Runs one simulation backend through the unified pipeline.
fn estimates(
    kind: BackendKind,
    params: &Params,
    reps: u32,
    seed: u64,
    horizon: f64,
) -> Vec<Estimate> {
    let backend = ItuaBackend::for_params(kind, params).expect("valid params");
    run_measures(
        &backend,
        reps,
        CONFIDENCE,
        seed,
        horizon,
        &[horizon],
        &RunnerConfig::default(),
        &NullProgress,
    )
    .expect("backend run succeeds")
    .estimates()
}

/// Measures compared against the simulators. `load_per_host` is omitted:
/// on [`infeasible_params`] an exclusion removes a replica *and* its
/// host together, so the measure deviates from 1 with probability ~3e-4
/// — far below what a few hundred replications resolve (both simulators
/// report a zero-width CI at exactly 1). The property test above covers
/// it analytically on every shape.
fn shared_measures(horizon: f64) -> Vec<String> {
    vec![
        names::UNAVAILABILITY.to_owned(),
        names::UNRELIABILITY.to_owned(),
        format!("{}@{}", names::FRAC_DOMAINS_EXCLUDED, horizon),
        format!("{}@{}", names::REPLICAS_RUNNING, horizon),
    ]
}

/// Three interchangeable single-host domains with a three-replica
/// application: 184 491 tangible states — beyond the unlumped default
/// budget of 100 000 — but only 8 054 orbits once the domain and
/// replica-slot permutations are lumped.
fn infeasible_params() -> Params {
    no_spread(3, 1, 1, 3)
}

/// The headline property of this PR: a configuration the unlumped
/// analytic backend rejects at its default budget is solved exactly via
/// lumping, and both simulators' CIs cover the lumped values.
#[test]
fn simulators_cover_lumped_exact_values_on_unlumped_infeasible_config() {
    let params = infeasible_params();
    let horizon = 2.0;

    // Previously infeasible: the unlumped default budget rejects it and
    // the error steers to --lump with the measured lumped count.
    let err = ItuaAnalytic::new(&params, ItuaAnalytic::DEFAULT_MAX_STATES).unwrap_err();
    match &err {
        AnalyticError::TooLarge { lumped_fit, .. } => {
            assert!(lumped_fit.is_some(), "lumped probe must fit: {err}");
        }
        other => panic!("expected TooLarge, got {other}"),
    }

    let exact = solve(&params, true, horizon);
    let des = estimates(BackendKind::Des, &params, 400, 21, horizon);
    let san = estimates(BackendKind::San, &params, 400, 22, horizon);
    for measure in shared_measures(horizon) {
        let x = exact
            .iter()
            .find(|e| e.name == measure)
            .unwrap_or_else(|| panic!("no exact {measure}"));
        assert_eq!(x.ci.half_width, 0.0, "lumped {measure} is not exact");
        for (tag, sim) in [("DES", &des), ("SAN", &san)] {
            let s = sim
                .iter()
                .find(|e| e.name == measure)
                .unwrap_or_else(|| panic!("{tag} produced no {measure}"));
            let gap = (s.ci.mean - x.ci.mean).abs();
            // 1e-7 absorbs uniformization truncation on measures the
            // simulation resolves exactly (zero-width CI).
            assert!(
                gap <= s.ci.half_width + 1e-7,
                "{tag} {measure}: {} not within ±{} of lumped exact {} (gap {gap:.3e})",
                s.ci.mean,
                s.ci.half_width,
                x.ci.mean,
            );
        }
    }
}
