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
//! tests, with no store diff against an older build needed.

use itua_repro::itua::analytic::{AnalyticOptions, ItuaAnalytic};
use itua_repro::itua::{analysis, san_model};
use itua_repro::runner::BackendKind;
use itua_repro::san::statespace::StateSpace;
use itua_repro::scenario::file::FileScenario;
use itua_repro::scenario::Scenario;

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
    for &(from, to, rate) in ss.transitions() {
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
    (ss.num_states(), ss.transitions().len(), h.0)
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
