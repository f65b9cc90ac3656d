//! Analytic validation: models with closed-form answers are solved three
//! ways — closed form, numerical CTMC (the Möbius analytic path), and SAN
//! simulation — and all three must agree.
//!
//! The CTMC legs share their core with the analytic backend:
//! [`Ctmc::transient_multi`] is one walk through `uniformize::solve`,
//! which `ItuaAnalytic` drives with its reward vectors
//! ([`StateSpace::reward_vector`]) and absorbing chains, and
//! [`StateSpace::expected_reward`] and [`Ctmc::absorption_by`] read the
//! same generated chains. Drift in the generator or the uniformization
//! kernel fails here against closed forms, not just against another
//! implementation; the last test runs the backend itself.

use itua_repro::itua::measures::names;
use itua_repro::itua::params::Params;
use itua_repro::itua::san_model;
use itua_repro::markov::ctmc::Ctmc;
use itua_repro::runner::experiment::ExperimentConfig;
use itua_repro::runner::run_experiment_parallel;
use itua_repro::runner::{
    run_measures, BackendKind, BackendOptions, ItuaBackend, NullProgress, RunnerConfig,
};
use itua_repro::san::model::SanBuilder;
use itua_repro::san::reward::{EverTrue, TimeAveraged};
use itua_repro::san::simulator::SanSimulator;
use itua_repro::san::statespace::StateSpace;
use std::sync::Arc;

/// Two-state repairable system: closed-form transient availability.
#[test]
fn repairable_system_three_ways() {
    let (lambda, mu): (f64, f64) = (0.5, 2.0);

    // Closed form: P(down at t) = λ/(λ+μ)(1 − e^{−(λ+μ)t}).
    let t = 1.5;
    let down_at = |t: f64| lambda / (lambda + mu) * (1.0 - (-(lambda + mu) * t).exp());
    let closed = down_at(t);

    // CTMC path, solving several time points in one uniformization pass
    // (the production `transient_multi` the analytic backend uses).
    let ctmc = Ctmc::from_rates(2, &[(0, 1, lambda), (1, 0, mu)]).unwrap();
    let times = [0.5, t, 4.0];
    let dists = ctmc.transient_multi(&[1.0, 0.0], &times, 1e-12).unwrap();
    for (&ti, dist) in times.iter().zip(&dists) {
        assert!(
            (dist[1] - down_at(ti)).abs() < 1e-9,
            "CTMC at {ti}: {dist:?} vs closed {}",
            down_at(ti)
        );
    }

    // SAN-simulation path (instant-of-time estimated via many runs).
    let mut b = SanBuilder::new("repairable");
    let up = b.place("up", 1);
    let down = b.place("down", 0);
    b.timed_activity("fail", lambda)
        .input_arc(up, 1)
        .output_arc(down, 1)
        .build()
        .unwrap();
    b.timed_activity("repair", mu)
        .input_arc(down, 1)
        .output_arc(up, 1)
        .build()
        .unwrap();
    let san = b.finish().unwrap();
    let sim = SanSimulator::new(san.clone());
    let mut hits = 0u32;
    let n = 20_000;
    for seed in 0..n {
        use itua_repro::san::reward::{InstantOfTime, RewardVariable};
        let mut rv = InstantOfTime::new("down", vec![t], move |m| m.get(down) as f64);
        sim.run(seed as u64, t, &mut [&mut rv]).unwrap();
        if rv.observations()[0].value > 0.5 {
            hits += 1;
        }
    }
    let est = hits as f64 / n as f64;
    let se = (closed * (1.0 - closed) / n as f64).sqrt();
    assert!(
        (est - closed).abs() < 5.0 * se,
        "simulation {est} vs closed {closed} (5σ = {:.5})",
        5.0 * se
    );

    // State-space flattening agrees with the hand-built CTMC; the reward
    // expectation goes through the production `expected_reward`.
    let ss = StateSpace::generate(&san, 16).unwrap();
    let p2 = ss
        .to_ctmc()
        .unwrap()
        .transient(&ss.initial_distribution(), t, 1e-12)
        .unwrap();
    let down_prob = ss.expected_reward(&p2, |m| m.get(down) as f64);
    assert!((down_prob - closed).abs() < 1e-9);
}

/// M/M/1/K queue: steady-state distribution has the truncated-geometric
/// closed form; checked via state space + steady-state solver and via a
/// long simulation with a time-averaged reward.
#[test]
fn mm1k_queue_three_ways() {
    let (lambda, mu, k) = (1.0, 2.0, 4i32);
    let rho: f64 = lambda / mu;

    let mut b = SanBuilder::new("mm1k");
    let queue = b.place("queue", 0);
    b.timed_activity("arrive", lambda)
        .predicate(&[queue], move |m| m.get(queue) < k)
        .output_arc(queue, 1)
        .build()
        .unwrap();
    b.timed_activity("serve", mu)
        .input_arc(queue, 1)
        .build()
        .unwrap();
    let san = b.finish().unwrap();

    // Closed form: π_n ∝ ρⁿ.
    let z: f64 = (0..=k).map(|n| rho.powi(n)).sum();
    let mean_closed: f64 = (0..=k).map(|n| n as f64 * rho.powi(n) / z).sum();

    // CTMC steady state, reward expectation via `expected_reward`.
    let ss = StateSpace::generate(&san, 100).unwrap();
    assert_eq!(ss.num_states(), (k + 1) as usize);
    let pi = ss
        .to_ctmc()
        .unwrap()
        .steady_state(1e-13, 1_000_000)
        .unwrap();
    let mean_ctmc = ss.expected_reward(&pi, |m| m.get(queue) as f64);
    assert!(
        (mean_ctmc - mean_closed).abs() < 1e-8,
        "{mean_ctmc} vs {mean_closed}"
    );

    // Long-run simulation with a time-averaged queue length, through the
    // unified parallel pipeline.
    let sim = SanSimulator::new(san);
    let cfg = ExperimentConfig {
        horizon: 2_000.0,
        replications: 60,
        base_seed: 5,
        confidence: 0.99,
    };
    let est = run_experiment_parallel(
        &sim,
        cfg,
        &RunnerConfig::default(),
        &NullProgress,
        move || {
            use itua_repro::san::reward::RewardVariable;
            vec![
                Box::new(TimeAveraged::new("len", move |m| m.get(queue) as f64))
                    as Box<dyn RewardVariable>,
            ]
        },
    )
    .unwrap();
    assert!(
        (est[0].ci.mean - mean_closed).abs() < 0.02,
        "simulated mean {} vs closed {mean_closed}",
        est[0].ci.mean
    );
}

/// A pure-death process: unreliability (probability the system ever
/// emptied) has the closed form of an Erlang-like CDF; checked against
/// the sticky EverTrue reward variable and against the production
/// CTMC absorption path (`StateSpace` → `to_ctmc` → `absorption_by`).
#[test]
fn pure_death_unreliability() {
    let rate = 1.0;
    let n0 = 3;
    let t: f64 = 2.0;

    let mut b = SanBuilder::new("death");
    let alive = b.place("alive", n0);
    b.timed_activity_fn(
        "die",
        Arc::new(move |m| rate * m.get(alive) as f64),
        &[alive],
    )
    .input_arc(alive, 1)
    .build()
    .unwrap();
    let san = b.finish().unwrap();

    // Time to extinction = max of 3 iid Exp(1) lifetimes (death rate is
    // proportional to survivors): P(extinct by t) = (1 − e^{−t})³.
    let closed = (1.0 - (-t).exp()).powi(3);

    // Production analytic path: the extinct marking is the chain's only
    // absorbing state, so `absorption_by` is the first-passage CDF.
    let ss = StateSpace::generate(&san, 16).unwrap();
    let extinct = ss
        .to_ctmc()
        .unwrap()
        .absorption_by(&ss.initial_distribution(), t, 1e-12)
        .unwrap();
    assert!(
        (extinct - closed).abs() < 1e-9,
        "absorption {extinct} vs closed {closed}"
    );

    let sim = SanSimulator::new(san);
    let mut hits = 0;
    let n = 20_000;
    for seed in 0..n {
        use itua_repro::san::reward::RewardVariable;
        let mut rv = EverTrue::new(
            "extinct",
            move |m| if m.get(alive) == 0 { 1.0 } else { 0.0 },
        );
        sim.run(seed as u64, t, &mut [&mut rv]).unwrap();
        if rv.observations()[0].value > 0.5 {
            hits += 1;
        }
    }
    let est = hits as f64 / n as f64;
    let se = (closed * (1.0 - closed) / n as f64).sqrt();
    assert!(
        (est - closed).abs() < 5.0 * se,
        "estimate {est} vs closed {closed}"
    );
}

/// The analytic ITUA backend, driven through the unified `run_measures`
/// pipeline, matches a bespoke solve built directly from the state
/// space: flatten the composed SAN, accumulate the improper-service
/// reward, and divide by the horizon. The backend runs with `--no-lump`
/// here because the claim is bit-for-bit pipeline wiring against the
/// *unreduced* chain the direct solve builds; the lumped quotient is a
/// different (smaller) chain, checked against this one to 1e-9 in
/// `tests/lumped_agreement.rs`.
#[test]
fn analytic_backend_matches_direct_state_space_solve() {
    let mut params = Params::default().with_domains(1, 2).with_applications(1, 2);
    params.spread_rate_domain = 0.0;
    params.spread_rate_system = 0.0;
    let horizon = 5.0;

    // Direct computation from the flattened state space.
    let model = san_model::build(&params).unwrap();
    let ss = StateSpace::generate(&model.san, 100_000).unwrap();
    let improper = ss.reward_vector(|m| model.places.improper_fraction(m));
    let expected = ss
        .to_ctmc()
        .unwrap()
        .expected_accumulated_reward(&ss.initial_distribution(), &improper, horizon, 1e-10)
        .unwrap()
        / horizon;

    // Production pipeline, pinned to the unreduced chain.
    let opts = BackendOptions {
        analytic_lump: false,
        ..BackendOptions::default()
    };
    let backend = ItuaBackend::for_params_with(BackendKind::Analytic, &params, &opts).unwrap();
    let ms = run_measures(
        &backend,
        50,
        0.95,
        7,
        horizon,
        &[horizon],
        &RunnerConfig::default(),
        &NullProgress,
    )
    .unwrap();
    let unavailability = ms.mean(names::UNAVAILABILITY).unwrap();
    assert_eq!(
        unavailability, expected,
        "pipeline and direct solve must agree bit for bit"
    );
    assert!(unavailability > 0.0 && unavailability < 1.0);
}
