//! Third validation path: a micro ITUA configuration's SAN is flattened to
//! its exact CTMC (the Möbius analytic route) and the transient solution
//! is compared against discrete-event estimates from BOTH encodings.
//!
//! This exercises the full stack end to end: composed-model flattening →
//! state-space generation with vanishing-marking elimination → sparse
//! uniformization, against the SAN simulator and the independent DES.

use itua_repro::itua::des::ItuaDes;
use itua_repro::itua::params::Params;
use itua_repro::itua::san_model;
use itua_repro::markov::ctmc::Ctmc;
use itua_repro::san::statespace::StateSpace;

/// A deliberately tiny configuration so the state space stays small:
/// 2 domains × 1 host, 1 application × 2 replicas, no spread processes.
fn micro_params() -> Params {
    let mut p = Params::default().with_domains(2, 1).with_applications(1, 2);
    p.spread_rate_domain = 0.0;
    p.spread_rate_system = 0.0;
    p
}

#[test]
fn micro_itua_san_flattens_to_solvable_ctmc() {
    let model = san_model::build(&micro_params()).expect("build micro model");
    let ss = StateSpace::generate(&model.san, 2_000_000).expect("explore state space");
    assert!(ss.num_states() > 1, "nontrivial state space");
    let ctmc = ss.to_ctmc().expect("valid generator");

    // Transient unavailability at t = 5 from the exact CTMC.
    let t = 5.0;
    let p = ctmc
        .transient(&ss.initial_distribution(), t, 1e-10)
        .expect("transient solve");
    let places = &model.places;
    let improper_prob: f64 = (0..ss.num_states())
        .filter(|&s| places.improper(ss.marking(s), 0))
        .map(|s| p[s])
        .sum();
    assert!(
        (0.0..=1.0).contains(&improper_prob),
        "improper probability {improper_prob}"
    );

    let des = ItuaDes::new(micro_params()).unwrap();
    let n = 4000;

    // Expected accumulated improper time over [0, t] from the CTMC…
    let reward = ss.reward_vector(|m| if places.improper(m, 0) { 1.0 } else { 0.0 });
    let exact_unavail = ctmc
        .expected_accumulated_reward(&ss.initial_distribution(), &reward, t, 1e-10)
        .expect("accumulated reward")
        / t;

    // …against the DES unavailability estimate.
    let mut sum = 0.0;
    for seed in 0..n {
        sum += des.run(seed, t, &[]).unavailability(t);
    }
    let des_unavail = sum / n as f64;
    assert!(
        (des_unavail - exact_unavail).abs() < 0.02,
        "DES {des_unavail:.5} vs exact CTMC {exact_unavail:.5} \
         ({} states)",
        ss.num_states()
    );

    // …and against the SAN simulator's estimate on the same model.
    use itua_repro::san::reward::TimeAveraged;
    use itua_repro::san::simulator::SanSimulator;
    let sim = SanSimulator::new(model.san.clone());
    let mut sum = 0.0;
    let places = model.places.clone();
    let mut rv = TimeAveraged::new(move |m| if places.improper(m, 0) { 1.0 } else { 0.0 });
    for seed in 0..n {
        sim.run(seed, t, &mut rv).unwrap();
        sum += rv.value().unwrap();
    }
    let san_unavail = sum / n as f64;
    assert!(
        (san_unavail - exact_unavail).abs() < 0.02,
        "SAN sim {san_unavail:.5} vs exact CTMC {exact_unavail:.5}"
    );
}

#[test]
fn micro_itua_mean_time_to_service_failure() {
    // Augment the micro model's CTMC with absorption at improper states by
    // removing their outgoing transitions, then solve the MTTF.
    let model = san_model::build(&micro_params()).unwrap();
    let ss = StateSpace::generate(&model.san, 2_000_000).unwrap();
    let places = &model.places;
    let improper: Vec<bool> = (0..ss.num_states())
        .map(|s| places.improper(ss.marking(s), 0))
        .collect();
    let transitions: Vec<(usize, usize, f64)> = ss
        .transitions()
        .iter()
        .copied()
        .filter(|&(from, _, _)| !improper[from])
        .collect();
    let ctmc = Ctmc::from_rates(ss.num_states(), &transitions).unwrap();
    let mttf = ctmc
        .mean_time_to_absorption(&ss.initial_distribution(), 1e-10, 2_000_000)
        .expect("finite MTTF: every state can fail");
    assert!(mttf > 0.0 && mttf.is_finite());

    // Sanity: the probability of failing within its own MTTF should be
    // substantial (between e.g. 30% and 90% for roughly-exponential TTF).
    let p_fail = ctmc
        .absorption_by(&ss.initial_distribution(), mttf, 1e-10)
        .unwrap();
    assert!(
        (0.3..0.95).contains(&p_fail),
        "P(fail by MTTF = {mttf:.2}h) = {p_fail:.3}"
    );
}
