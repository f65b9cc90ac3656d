//! Oracle check for the simulator's incremental timed-reschedule index.
//!
//! After every timed firing the simulator must decide which timed
//! activities to reschedule: newly enabled ones get a sample, disabled
//! ones are cancelled, and exponential activities with marking-dependent
//! rates are resampled. The hot path derives that set incrementally from
//! the marking's dirty-place log via the per-place timed-dependent index
//! (`TimedIndex`); the historical implementation rescanned every timed
//! activity's read set. [`SanSimulator::set_full_rescan_reschedule`]
//! keeps the rescan alive as an oracle: both paths must walk bit-identical
//! trajectories — same events at the same (bit-pattern) times, same final
//! marking — because the affected set's order feeds the RNG draw order.
//!
//! Fixed tests pin the guarantee on the paper's figure 3/4/5 models (and
//! on the combination with the stabilization oracle from PR 5); the
//! proptest drives randomized composed SANs whose marking-dependent rates
//! and instantaneous cascades make the reschedule set both dense and
//! history-dependent.

use std::sync::Arc;

use itua_repro::itua::san_model;
use itua_repro::san::marking::Marking;
use itua_repro::san::model::{ActivityId, SanBuilder};
use itua_repro::san::simulator::{Observer, SanSimulator};
use itua_repro::studies::{figure3, figure4, figure5};
use proptest::prelude::*;

/// Exact event trace: (time bits, activity index) pairs plus the final
/// marking, so any divergence — ordering, timing, or routing — fails.
#[derive(Default, PartialEq, Debug)]
struct Trace {
    events: Vec<(u64, u32)>,
    finals: Vec<i32>,
}

impl Observer for Trace {
    fn on_event(&mut self, t: f64, a: ActivityId, _m: &Marking) {
        self.events.push((t.to_bits(), a.index() as u32));
    }
    fn on_end(&mut self, _t: f64, m: &Marking) {
        self.finals = m.place_ids().map(|p| m.get(p)).collect();
    }
}

fn trace(sim: &SanSimulator, seed: u64, horizon: f64) -> Trace {
    let mut scratch = sim.scratch();
    let mut t = Trace::default();
    sim.run_with_scratch(seed, horizon, &mut t, &mut scratch)
        .expect("run succeeds");
    t
}

/// Runs replications of one study point through the incremental
/// simulator, the reschedule-rescan oracle, and the both-oracles
/// combination, asserting identical traces.
fn assert_oracle_agreement(study: &str, points: &[itua_repro::studies::sweep::SweepPoint]) {
    let point = &points[0];
    let model = san_model::build(&point.params).expect("study model builds");
    let incremental = SanSimulator::new(model.san.clone());
    let mut resched_oracle = SanSimulator::new(model.san.clone());
    resched_oracle.set_full_rescan_reschedule(true);
    let mut both_oracles = SanSimulator::new(model.san.clone());
    both_oracles.set_full_rescan_reschedule(true);
    both_oracles.set_full_rescan_stabilize(true);
    for rep in 0..4u64 {
        let seed = 0x07E5_CA1E ^ rep;
        let inc = trace(&incremental, seed, point.horizon);
        let resched = trace(&resched_oracle, seed, point.horizon);
        assert_eq!(
            inc, resched,
            "{study}: incremental timed reschedule index diverged from full rescan (seed {seed})"
        );
        let both = trace(&both_oracles, seed, point.horizon);
        assert_eq!(
            inc, both,
            "{study}: combined stabilize+reschedule oracle diverged (seed {seed})"
        );
        assert!(
            !inc.events.is_empty(),
            "{study}: trace is empty — the comparison is vacuous"
        );
    }
}

#[test]
fn figure3_model_matches_reschedule_oracle() {
    assert_oracle_agreement("figure3", &figure3::points());
}

#[test]
fn figure4_model_matches_reschedule_oracle() {
    assert_oracle_agreement("figure4", &figure4::points());
}

#[test]
fn figure5_model_matches_reschedule_oracle() {
    assert_oracle_agreement("figure5", &figure5::points());
}

/// A random SAN that stresses the reschedule path: ring movers whose
/// exponential rates read a shared hub place (every hub change forces a
/// resample of all of them), plus instantaneous routers that cascade
/// tokens between buffers, dirtying places read by further timed movers
/// mid-stabilization.
fn build_reschedule_stress(stages: usize, tokens: i32) -> Arc<itua_repro::san::model::San> {
    let mut b = SanBuilder::new("resched-stress");
    let hub = b.place("hub", 1);
    let ring: Vec<_> = (0..stages)
        .map(|i| b.place(format!("r{i}"), if i == 0 { tokens } else { 0 }))
        .collect();
    let buf: Vec<_> = (0..stages).map(|i| b.place(format!("b{i}"), 0)).collect();
    for i in 0..stages {
        // Marking-dependent rate: every activity reads the shared hub, so
        // any firing that moves hub tokens reschedules all of them.
        let rate =
            Arc::new(move |m: &Marking| 0.5 + f64::from(m.get(hub).max(0)) + i as f64 * 0.25);
        b.timed_activity_fn(format!("mv{i}"), rate, &[hub])
            .input_arc(ring[i], 1)
            .output_arc(buf[i], 1)
            .build()
            .unwrap();
        // The hub pump keeps hub tokens oscillating so rates keep moving.
        if i == 0 {
            b.timed_activity(format!("pump{i}"), 2.0)
                .input_arc(hub, 1)
                .output_arc(hub, 1)
                .output_arc(buf[i], 1)
                .build()
                .unwrap();
        }
        // Instantaneous routing: return to the ring or cascade into the
        // next buffer (possibly enabling the next router), with one case
        // also touching the hub so stabilization dirties a place that
        // every timed activity reads.
        let next_ring = ring[(i + 1) % stages];
        let next_buf = buf[(i + 1) % stages];
        b.instantaneous_activity(format!("route{i}"))
            .input_arc(buf[i], 2)
            .case(2.0, move |m| m.add(next_ring, 2))
            .case(1.0, move |m| {
                m.add(next_buf, 1);
                m.add(next_ring, 1);
            })
            .build()
            .unwrap();
    }
    b.finish().unwrap()
}

proptest! {
    /// On randomized composed SANs, the incremental reschedule index and
    /// the full-rescan oracle (alone and combined with the stabilization
    /// oracle) produce bit-identical event sequences and final markings.
    #[test]
    fn random_sans_match_reschedule_oracle(
        stages in 2usize..6,
        tokens in 1i32..5,
        seeds in prop::collection::vec(any::<u64>(), 1..8),
    ) {
        let incremental = SanSimulator::new(build_reschedule_stress(stages, tokens));
        let mut resched_oracle = SanSimulator::new(build_reschedule_stress(stages, tokens));
        resched_oracle.set_full_rescan_reschedule(true);
        let mut both_oracles = SanSimulator::new(build_reschedule_stress(stages, tokens));
        both_oracles.set_full_rescan_reschedule(true);
        both_oracles.set_full_rescan_stabilize(true);
        for seed in seeds {
            let inc = trace(&incremental, seed, 25.0);
            let resched = trace(&resched_oracle, seed, 25.0);
            prop_assert_eq!(&inc, &resched, "reschedule oracle, seed {}", seed);
            let both = trace(&both_oracles, seed, 25.0);
            prop_assert_eq!(&inc, &both, "combined oracle, seed {}", seed);
            prop_assert!(!inc.events.is_empty(), "vacuous trace, seed {}", seed);
        }
    }
}
