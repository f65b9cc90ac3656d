//! Oracle check for the simulator's incremental enabling index on the
//! paper's three study models.
//!
//! The stabilization hot path keeps a persistent, activity-id-ordered set
//! of enabled instantaneous activities, synced from the marking's
//! dirty-place log, instead of rescanning every activity per firing. The
//! randomized-SAN property test (`crates/san/tests/proptests.rs`,
//! `incremental_enabled_set_matches_full_rescan`) covers adversarial
//! structures; this test pins the same guarantee on the actual ITUA SANs
//! the figures are built from: for each study's parameter sets, the
//! default simulator and the full-rescan oracle
//! ([`SanSimulator::set_full_rescan_stabilize`]) produce bit-identical
//! event trajectories and final markings.
//!
//! The index re-tests an instantaneous activity only when a place its
//! gates declare as read changes, so a read list that missed a place
//! its predicate examines would show here as a divergence. The Figure 5
//! domain-exclusion test checks that on the cascades through the
//! conviction, placement and exclusion gates.

use std::sync::Arc;

use itua_repro::itua::params::ManagementScheme;
use itua_repro::itua::san_model;
use itua_repro::san::marking::Marking;
use itua_repro::san::model::{ActivityId, San, SanBuilder};
use itua_repro::san::simulator::{Observer, SanSimulator};
use itua_repro::studies::sweep::SweepPoint;
use itua_repro::studies::{figure3, figure4, figure5};

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

/// Runs `reps` replications of one study point through both simulators,
/// asserts identical traces, and returns the model with every compared
/// trace.
fn compare_point(study: &str, point: &SweepPoint, reps: u64) -> (Arc<San>, Vec<Trace>) {
    let model = san_model::build(&point.params).expect("study model builds");
    let incremental = SanSimulator::new(model.san.clone());
    let mut full_rescan = SanSimulator::new(model.san.clone());
    full_rescan.set_full_rescan_stabilize(true);
    let mut inc_scratch = incremental.scratch();
    let mut full_scratch = full_rescan.scratch();
    let mut traces = Vec::new();
    for rep in 0..reps {
        let seed = 0xDEC0DE ^ rep;
        let mut inc = Trace::default();
        incremental
            .run_with_scratch(seed, point.horizon, &mut inc, &mut inc_scratch)
            .expect("incremental run succeeds");
        let mut full = Trace::default();
        full_rescan
            .run_with_scratch(seed, point.horizon, &mut full, &mut full_scratch)
            .expect("full-rescan run succeeds");
        assert_eq!(
            inc, full,
            "{study}: incremental enabling index diverged from full rescan (seed {seed})"
        );
        assert!(
            !inc.events.is_empty(),
            "{study}: trace is empty — the comparison is vacuous"
        );
        traces.push(inc);
    }
    (model.san, traces)
}

/// Compares four replications of one representative parameter set per
/// study, which keeps the test fast; the first point exercises the
/// densest instantaneous structure (most hosts per domain or most
/// applications).
fn assert_oracle_agreement(study: &str, points: &[SweepPoint]) {
    compare_point(study, &points[0], 4);
}

#[test]
fn figure3_model_matches_full_rescan_oracle() {
    assert_oracle_agreement("figure3", &figure3::points());
}

#[test]
fn figure4_model_matches_full_rescan_oracle() {
    assert_oracle_agreement("figure4", &figure4::points());
}

#[test]
fn figure5_model_matches_full_rescan_oracle() {
    assert_oracle_agreement("figure5", &figure5::points());
}

/// Figure 5 under domain exclusion at spread 4, over its 10-hour
/// horizon: replica convictions (`respond_rep_detect_*`), replacement
/// placements (`start_replica_*` after time zero, which the initial
/// stabilization does not report) and domain shutdowns (`shut_host`,
/// `finish_exclusion`) all run as instantaneous cascades. Enough seeds
/// are compared that some trace fires each of them.
#[test]
fn figure5_domain_exclusion_cascades_match_full_rescan_oracle() {
    let points = figure5::points();
    let point = points
        .iter()
        .find(|p| {
            p.params.scheme == ManagementScheme::DomainExclusion && p.x == 4.0 && p.horizon == 10.0
        })
        .expect("figure 5 has a 10-hour domain-exclusion point at spread 4");
    let (san, traces) = compare_point("figure5 domain exclusion", point, 8);
    let fired = |stem: &str| {
        traces.iter().flat_map(|t| &t.events).any(|&(_, a)| {
            let name = san.activity(ActivityId::from_index(a as usize)).name();
            name.rsplit('/').next().is_some_and(|n| n.starts_with(stem))
        })
    };
    for stem in [
        "respond_rep_detect_clean_",
        "respond_rep_detect_corrupt_",
        "start_replica_",
        "shut_host",
        "finish_exclusion",
    ] {
        assert!(
            fired(stem),
            "no compared trace fired {stem}*: the comparison does not cover its cascade"
        );
    }
}

/// Crafted two-cursor interaction: a single timed firing dirties a place
/// (`shared`) read by an instantaneous dependent (`drain`) *and* by a
/// timed dependent's marking-dependent rate (`pulse`), and the resulting
/// stabilization cascade dirties another such doubly-read place
/// (`relay`). The instantaneous cursor (stabilization) and the timed
/// cursor (reschedule) therefore consume overlapping ranges of the same
/// dirty log within one step — the interaction PR 5 left untested. All
/// four combinations of the stabilize/reschedule full-rescan oracles
/// must walk bit-identical trajectories.
#[test]
fn shared_dirty_log_cascade_matches_oracles() {
    let build = || {
        let mut b = SanBuilder::new("two-cursor-cascade");
        let src = b.place("src", 3);
        let shared = b.place("shared", 0);
        let relay = b.place("relay", 0);
        let sink = b.place("sink", 0);
        let gate = b.place("gate", 1);
        // The firing under test: dirties `shared` for both dependents.
        b.timed_activity("trigger", 1.0)
            .input_arc(src, 1)
            .output_arc(shared, 2)
            .build()
            .unwrap();
        // Instantaneous dependent of `shared`; its cascade dirties
        // `relay`, which again has both kinds of dependents.
        b.instantaneous_activity("drain")
            .input_arc(shared, 2)
            .case(2.0, move |m| m.add(relay, 1))
            .case(1.0, move |m| {
                m.add(relay, 2);
                m.add(sink, 1);
            })
            .build()
            .unwrap();
        // Instantaneous dependent of `relay`: feeds tokens back so the
        // cascade can re-enable `trigger` and `drain` mid-stabilization.
        b.instantaneous_activity("spill")
            .input_arc(relay, 2)
            .case(1.0, move |m| m.add(src, 1))
            .case(1.0, move |m| m.add(shared, 1))
            .build()
            .unwrap();
        // Timed dependent of both dirty places: always enabled (gate
        // self-loop), rate reads `shared` and `relay`, so every cascade
        // above forces a resample through the timed cursor.
        let rate = Arc::new(move |m: &Marking| {
            0.3 + f64::from(m.get(shared).max(0)) + f64::from(m.get(relay).max(0))
        });
        b.timed_activity_fn("pulse", rate, &[shared, relay])
            .input_arc(gate, 1)
            .output_arc(gate, 1)
            .output_arc(sink, 1)
            .build()
            .unwrap();
        b.finish().unwrap()
    };

    let mut sims = Vec::new();
    for (stab, resched) in [(false, false), (true, false), (false, true), (true, true)] {
        let mut sim = SanSimulator::new(build());
        sim.set_full_rescan_stabilize(stab);
        sim.set_full_rescan_reschedule(resched);
        sims.push(((stab, resched), sim));
    }
    for rep in 0..16u64 {
        let seed = 0xCA5CADE ^ rep;
        let mut traces = Vec::new();
        for ((stab, resched), sim) in &sims {
            let mut scratch = sim.scratch();
            let mut t = Trace::default();
            sim.run_with_scratch(seed, 40.0, &mut t, &mut scratch)
                .expect("run succeeds");
            traces.push(((*stab, *resched), t));
        }
        let (_, baseline) = &traces[0];
        assert!(
            !baseline.events.is_empty(),
            "crafted cascade produced no events — the comparison is vacuous"
        );
        for (flags, t) in &traces[1..] {
            assert_eq!(
                baseline, t,
                "oracle combination {flags:?} diverged from the incremental path (seed {seed})"
            );
        }
    }
}
