//! Pins the generated chains of the benchmark's exact models bit for bit.
//!
//! A store diff sees a chain only through the solver's sums, so a
//! renumbered state or a rate that moved by one ulp can hide in it. This
//! test hashes everything [`StateSpace`] hands the solver — every marking
//! in state order, every `(from, to, rate)` in transition order with the
//! rate's bits, the bits of the initial distribution and the orbit sizes —
//! and compares the digest with the one the generator produced when the
//! values below were recorded. Any change to state numbering (BFS
//! first-encounter order), to the cascade merge order or to the
//! floating-point order of a rate fails it.
//!
//! The configurations are the points the `exact-build` and `exact-stiff`
//! benchmark workloads solve, read from their scenario files. Each chain
//! is generated on one, two and four workers (capped at the machine's
//! parallelism) and must give the same digest every time.
//!
//! The solver's output is pinned the same way: the bits of every measure
//! [`ItuaAnalytic::solve`] returns for the first point of each workload,
//! as the uniformization walk produced them when the values were
//! recorded. A change to the step kernel's floating-point operations or
//! their order, to the Poisson windows or to the reward sums fails these
//! tests, with no store diff against an older build needed. Every point
//! of the `exact-build` sweep is pinned as well, as `Scenario::run`
//! solves it: the later points re-rate the first point's state space, so
//! these pins, recorded when every point generated its own, prove the
//! re-rated chains bit-identical end to end. The re-rated chains
//! themselves are compared with fresh ones by digest, for a change of
//! each parameter the structure key masks.

use itua_repro::itua::analytic::{AnalyticOptions, ItuaAnalytic};
use itua_repro::itua::params::{ManagementScheme, Params};
use itua_repro::itua::{analysis, san_model};
use itua_repro::runner::backend::BackendOptions;
use itua_repro::runner::engine::RunnerConfig;
use itua_repro::runner::BackendKind;
use itua_repro::san::statespace::StateSpace;
use itua_repro::scenario::file::FileScenario;
use itua_repro::scenario::Scenario;
use itua_repro::studies::sweep::{RunOpts, SweepConfig};

/// FNV-1a, 64 bit: a fixed, dependency-free hash, stable across Rust
/// releases (unlike `DefaultHasher`).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }
}

/// `(states, transitions, digest)` of one generated chain.
fn digest(ss: &StateSpace) -> (usize, usize, u64) {
    let mut h = Fnv::new();
    for s in 0..ss.num_states() {
        for &v in ss.marking(s).values() {
            h.bytes(&v.to_le_bytes());
        }
    }
    for (from, to, rate) in ss.transitions() {
        h.u64(from as u64);
        h.u64(to as u64);
        h.u64(rate.to_bits());
    }
    for p in ss.initial_distribution() {
        h.u64(p.to_bits());
    }
    if let Some(sizes) = ss.orbit_sizes() {
        for &o in sizes {
            h.bytes(&o.to_le_bytes());
        }
    }
    (ss.num_states(), ss.num_transitions(), h.0)
}

/// The digest of the first point of the scenario file `scn`, generated
/// lumped or not on `workers` workers.
fn generated(scn: &str, lump: bool, workers: usize) -> (usize, usize, u64) {
    let scenario = FileScenario::parse(scn, "digest").expect("benchmark scenario parses");
    let point = scenario.points(BackendKind::Analytic).remove(0);
    let model = san_model::build(&point.params).expect("model builds");
    let sym = lump.then(|| analysis::symmetry_spec(&model));
    let ss = StateSpace::explore(&model.san, sym.as_ref(), 1_000_000, workers)
        .expect("state space fits the budget");
    digest(&ss)
}

/// Asserts that `scn` generates the pinned chain on 1, 2 and 4 workers.
fn assert_pinned(scn: &str, lump: bool, pinned: (usize, usize, u64)) {
    for workers in [1, 2, 4] {
        assert_eq!(generated(scn, lump, workers), pinned, "{workers} workers");
    }
}

const EXACT_BUILD: &str = include_str!("../examples/benchmark/workloads/exact-build.scn");
const EXACT_STIFF: &str = include_str!("../examples/benchmark/workloads/exact-stiff.scn");

#[test]
fn exact_build_lumped_chain_is_pinned() {
    assert_pinned(EXACT_BUILD, true, (17_388, 153_540, 0xb150_6280_59f6_f94f));
}

#[test]
fn exact_stiff_lumped_chain_is_pinned() {
    assert_pinned(EXACT_STIFF, true, (5_823, 48_258, 0x943e_3cd2_51f0_acaa));
}

#[test]
fn exact_stiff_unlumped_chain_is_pinned() {
    assert_pinned(EXACT_STIFF, false, (20_331, 166_860, 0xac67_9bf5_982c_09b2));
}

/// `(name, value bits)` of every measure the lumped analytic backend
/// solves at the first point of `scn`, with the walk on `threads` workers.
fn solved(scn: &str, threads: usize) -> Vec<(String, u64)> {
    let scenario = FileScenario::parse(scn, "digest").expect("benchmark scenario parses");
    let point = scenario.points(BackendKind::Analytic).remove(0);
    let opts = AnalyticOptions {
        threads,
        ..AnalyticOptions::default()
    };
    let analytic = ItuaAnalytic::with_options(&point.params, &opts).expect("model solves");
    let measures = analytic
        .solve(point.horizon, &point.sample_times, 0.95)
        .expect("solve succeeds");
    measures
        .estimates()
        .into_iter()
        .map(|e| (e.name, e.ci.mean.to_bits()))
        .collect()
}

/// Asserts that the first point of `scn` solves to the pinned bits on
/// each team size in `threads`.
fn assert_solved(scn: &str, threads: &[usize], pinned: &[(&str, u64)]) {
    let pinned: Vec<(String, u64)> = pinned.iter().map(|&(n, b)| (n.to_owned(), b)).collect();
    for &t in threads {
        assert_eq!(solved(scn, t), pinned, "{t} threads");
    }
}

#[test]
fn exact_build_measures_are_pinned() {
    assert_solved(
        EXACT_BUILD,
        &[1, 2],
        &[
            ("unavailability", 0x3fae_69b4_b8ac_1ef5),
            ("unreliability", 0x3fa2_cfb9_3613_61e0),
        ],
    );
}

/// The stiff solve takes about 15 s per team size in a debug build, so it
/// is pinned on the two-worker walk only; the CI store diffs compare its
/// one-, two- and eight-thread runs.
#[test]
fn exact_stiff_measures_are_pinned() {
    assert_solved(
        EXACT_STIFF,
        &[2],
        &[
            ("frac_domains_excluded@5", 0x3fbc_d204_b0f4_cc22),
            ("load_per_host@5", 0x3fef_91b8_414f_c1f8),
            ("replicas_running@5", 0x3ffc_5fbb_1991_b29a),
            ("unavailability", 0x3f9d_b70a_8bfc_1d28),
            ("unreliability", 0x3fb2_46df_284e_2b22),
        ],
    );
}

/// `(panel, series, x, value bits)` of every point of `scn` as
/// [`Scenario::run`] renders it on the lumped analytic backend, without a
/// result store, with `threads` workers for generation and the walk.
fn swept(scn: &str, threads: usize) -> Vec<(String, String, f64, u64)> {
    let scenario = FileScenario::parse(scn, "digest").expect("benchmark scenario parses");
    let mut cfg = SweepConfig::default();
    let mut split = None;
    scenario.configure(&mut cfg, &mut split);
    let opts = RunOpts {
        backend: BackendKind::Analytic,
        backend_opts: BackendOptions {
            analytic_threads: threads,
            ..BackendOptions::default()
        },
        runner: RunnerConfig::default().with_threads(threads),
        split,
        ..RunOpts::default()
    };
    let figures = scenario.run(&cfg, &opts).expect("sweep runs");
    let mut out = Vec::new();
    for panel in figures.iter().flat_map(|f| &f.panels) {
        for series in &panel.series {
            for &(x, v) in &series.points {
                out.push((panel.id.clone(), series.name.clone(), x, v.mean.to_bits()));
            }
        }
    }
    out
}

/// Every point of the `exact-build` sweep, as the sweep layer solves it
/// one point after another, pinned to the bits the per-point fresh build
/// produced when the values were recorded: the end-to-end proof that a
/// sweep reusing one state-space structure across its points changes no
/// bit.
#[test]
fn exact_build_sweep_is_pinned_at_every_point() {
    let pinned: Vec<(String, String, f64, u64)> = [
        ("exact-build-1", 0.5, 0x3fae_69b4_b8ac_1ef5_u64),
        ("exact-build-1", 1.0, 0x3fb3_c9fe_7ff8_5269),
        ("exact-build-1", 2.0, 0x3fbc_9842_e9ae_7c38),
        ("exact-build-1", 4.0, 0x3fc6_6f06_7f5f_be2e),
        ("exact-build-1", 8.0, 0x3fd2_3075_3651_42d1),
        ("exact-build-1", 16.0, 0x3fdc_9515_9c20_9fb6),
        ("exact-build-2", 0.5, 0x3fa2_cfb9_3613_61e0),
        ("exact-build-2", 1.0, 0x3fa2_7474_be0b_d8da),
        ("exact-build-2", 2.0, 0x3fa1_c4c6_7a4f_482b),
        ("exact-build-2", 4.0, 0x3fa0_7f06_d0e8_2142),
        ("exact-build-2", 8.0, 0x3f9c_9a4c_63d6_5a01),
        ("exact-build-2", 16.0, 0x3f95_fc5a_b389_979a),
    ]
    .iter()
    .map(|&(panel, x, bits)| (panel.to_owned(), "Domain exclusion".to_owned(), x, bits))
    .collect();
    for threads in [1, 2] {
        assert_eq!(swept(EXACT_BUILD, threads), pinned, "{threads} threads");
    }
}

/// A named change to a parameter set.
type Edit = (&'static str, fn(&mut Params));

/// Every parameter [`san_model::structure_key`] masks, each changed alone
/// to a value that keeps every rate and case weight positive.
const MASKED: [Edit; 19] = [
    ("base_attack_rate", |p| p.base_attack_rate *= 1.7),
    ("attack_weight_host", |p| p.attack_weight_host *= 0.6),
    ("attack_weight_replica", |p| p.attack_weight_replica *= 2.5),
    ("attack_weight_manager", |p| p.attack_weight_manager *= 0.3),
    ("false_alarm_rate", |p| p.false_alarm_rate *= 3.0),
    ("effective_rate_factor", |p| p.effective_rate_factor *= 1.9),
    ("p_script", |p| {
        p.attack_mix.p_script -= 0.1;
        p.attack_mix.p_exploratory += 0.1;
    }),
    ("p_exploratory", |p| {
        p.attack_mix.p_exploratory -= 0.05;
        p.attack_mix.p_innovative += 0.05;
    }),
    ("p_innovative", |p| {
        p.attack_mix.p_innovative -= 0.03;
        p.attack_mix.p_script += 0.03;
    }),
    ("detect_script", |p| p.attack_mix.detect_script = 0.55),
    ("detect_exploratory", |p| {
        p.attack_mix.detect_exploratory = 0.35;
    }),
    ("detect_innovative", |p| {
        p.attack_mix.detect_innovative = 0.85;
    }),
    ("detect_replica", |p| p.detect_replica = 0.45),
    ("detect_manager", |p| p.detect_manager = 0.6),
    ("ids_rate", |p| p.ids_rate *= 4.0),
    ("misbehave_rate", |p| p.misbehave_rate *= 0.25),
    ("spread_effect_domain", |p| p.spread_effect_domain *= 2.5),
    ("spread_effect_system", |p| p.spread_effect_system *= 7.0),
    ("host_corruption_multiplier", |p| {
        p.host_corruption_multiplier *= 2.2;
    }),
];

/// The chain of `params`, lumped or not, on two workers.
fn chain(params: &Params, lump: bool) -> StateSpace {
    let model = san_model::build(params).expect("model builds");
    let sym = lump.then(|| analysis::symmetry_spec(&model));
    StateSpace::explore(&model.san, sym.as_ref(), 1_000_000, 2)
        .expect("state space fits the budget")
}

/// Asserts that re-rating `base`'s chain for a change of any masked
/// parameter gives the chain generating afresh gives, digest for digest.
fn assert_masked_rerate(base: &Params, lump: bool) {
    let structure = chain(base, lump);
    for (name, edit) in MASKED {
        let mut params = base.clone();
        edit(&mut params);
        assert_eq!(
            san_model::structure_key(&params),
            san_model::structure_key(base),
            "{name}"
        );
        let model = san_model::build(&params).expect("model builds");
        let rerated = structure
            .clone()
            .rerated(&model.san)
            .unwrap_or_else(|| panic!("{name}: re-rating refused"));
        assert_eq!(digest(&rerated), digest(&chain(&params, lump)), "{name}");
    }
}

#[test]
fn exact_build_rerates_every_masked_parameter_to_the_fresh_chain() {
    let scenario = FileScenario::parse(EXACT_BUILD, "digest").expect("benchmark scenario parses");
    let base = scenario.points(BackendKind::Analytic).remove(0).params;
    assert_masked_rerate(&base, true);
}

/// The same on a host-exclusion, one-replica-per-host configuration
/// (without system-wide spread, to keep it small), lumped and not.
#[test]
fn host_exclusion_micro_rerates_every_masked_parameter_to_the_fresh_chain() {
    let base = Params {
        spread_rate_system: 0.0,
        ..Params::default()
            .with_domains(1, 2)
            .with_applications(1, 2)
            .with_scheme(ManagementScheme::HostExclusion)
    };
    for lump in [true, false] {
        assert_masked_rerate(&base, lump);
    }
}
