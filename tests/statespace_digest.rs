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
//! benchmark workloads solve, read from their scenario files.

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

/// Generates the first point of the scenario file `scn`, lumped or not.
fn generate(scn: &str, lump: bool) -> StateSpace {
    let scenario = FileScenario::parse(scn, "digest").expect("benchmark scenario parses");
    let point = scenario.points(BackendKind::Analytic).remove(0);
    let model = san_model::build(&point.params).expect("model builds");
    if lump {
        StateSpace::generate_lumped(&model.san, &analysis::symmetry_spec(&model), 1_000_000)
    } else {
        StateSpace::generate(&model.san, 1_000_000)
    }
    .expect("state space fits the budget")
}

const EXACT_BUILD: &str = include_str!("../examples/benchmark/workloads/exact-build.scn");
const EXACT_STIFF: &str = include_str!("../examples/benchmark/workloads/exact-stiff.scn");

#[test]
fn exact_build_lumped_chain_is_pinned() {
    assert_eq!(
        digest(&generate(EXACT_BUILD, true)),
        (17_388, 153_540, 0xb150_6280_59f6_f94f)
    );
}

#[test]
fn exact_stiff_lumped_chain_is_pinned() {
    assert_eq!(
        digest(&generate(EXACT_STIFF, true)),
        (5_823, 48_258, 0x943e_3cd2_51f0_acaa)
    );
}

#[test]
fn exact_stiff_unlumped_chain_is_pinned() {
    assert_eq!(
        digest(&generate(EXACT_STIFF, false)),
        (20_331, 166_860, 0xac67_9bf5_982c_09b2)
    );
}
