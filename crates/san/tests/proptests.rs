//! Property-based tests for the SAN framework.

use itua_san::compose::{ComposedModel, Node, SanTemplate, SharedPlace, SubnetBuilder};
use itua_san::marking::Marking;
use itua_san::model::{SanBuilder, SanError};
use itua_san::simulator::SanSimulator;
use itua_san::statespace::StateSpace;
use itua_san::sym::{SymmetryGroup, SymmetrySpec, SymmetryUnit};
use proptest::prelude::*;
use std::sync::Arc;

proptest! {
    /// A tandem chain of places conserves tokens under simulation.
    #[test]
    fn token_conservation(stages in 2usize..8, tokens in 1i32..20, seed in any::<u64>()) {
        let mut b = SanBuilder::new("tandem");
        let places: Vec<_> = (0..stages)
            .map(|i| b.place(format!("p{i}"), if i == 0 { tokens } else { 0 }))
            .collect();
        for i in 0..stages - 1 {
            b.timed_activity(format!("move{i}"), 1.0 + i as f64)
                .input_arc(places[i], 1)
                .output_arc(places[i + 1], 1)
                .build()
                .unwrap();
        }
        let san = b.finish().unwrap();
        let sim = SanSimulator::new(san.clone());

        struct Conserve {
            places: Vec<itua_san::marking::PlaceId>,
            total: i32,
        }
        impl itua_san::simulator::Observer for Conserve {
            fn on_event(&mut self, _t: f64, _a: itua_san::model::ActivityId, m: &Marking) {
                let sum: i32 = self.places.iter().map(|&p| m.get(p)).sum();
                assert_eq!(sum, self.total, "tokens not conserved");
            }
        }
        let mut obs = Conserve { places: places.clone(), total: tokens };
        sim.run(seed, 100.0, &mut obs).unwrap();
    }

    /// A scratch reused across replications of random tandem models gives
    /// exactly the trajectory a fresh simulator state would: same event
    /// count, same final marking, for every seed in sequence.
    #[test]
    fn reused_scratch_matches_fresh_state(
        stages in 2usize..6,
        tokens in 1i32..5,
        seeds in prop::collection::vec(any::<u64>(), 1..10),
    ) {
        let mut b = SanBuilder::new("tandem");
        let places: Vec<_> = (0..stages)
            .map(|i| b.place(format!("p{i}"), if i == 0 { tokens } else { 0 }))
            .collect();
        for i in 0..stages {
            b.timed_activity(format!("mv{i}"), 1.0 + i as f64)
                .input_arc(places[i], 1)
                .output_arc(places[(i + 1) % stages], 1)
                .build()
                .unwrap();
        }
        let sim = SanSimulator::new(b.finish().unwrap());

        #[derive(Default, PartialEq, Debug, Clone)]
        struct Trace {
            events: usize,
            finals: Vec<i32>,
        }
        impl itua_san::simulator::Observer for Trace {
            fn on_event(&mut self, _t: f64, _a: itua_san::model::ActivityId, _m: &Marking) {
                self.events += 1;
            }
            fn on_end(&mut self, _t: f64, m: &Marking) {
                self.finals = m.place_ids().map(|p| m.get(p)).collect();
            }
        }

        let mut scratch = sim.scratch();
        for seed in seeds {
            let mut reused = Trace::default();
            sim.run_with_scratch(seed, 20.0, &mut reused, &mut scratch).unwrap();
            let mut fresh = Trace::default();
            sim.run(seed, 20.0, &mut fresh).unwrap();
            prop_assert_eq!(&reused, &fresh, "seed {}", seed);
        }
    }

    /// The incremental enabling index drives stabilization through
    /// exactly the trajectory the historical full marking rescan does:
    /// same events at the same (bit-identical) times, same final marking,
    /// on random SANs whose instantaneous activities cascade into each
    /// other (so the index sees insertions, removals, and chains of
    /// newly-enabled activities mid-stabilization).
    #[test]
    fn incremental_enabled_set_matches_full_rescan(
        stages in 2usize..6,
        tokens in 1i32..4,
        seeds in prop::collection::vec(any::<u64>(), 1..8),
    ) {
        let build = || {
            let mut b = SanBuilder::new("cascade");
            let ring: Vec<_> = (0..stages)
                .map(|i| b.place(format!("r{i}"), if i == 0 { tokens } else { 0 }))
                .collect();
            let buf: Vec<_> = (0..stages).map(|i| b.place(format!("b{i}"), 0)).collect();
            for i in 0..stages {
                // Timed firings feed the instantaneous layer.
                b.timed_activity(format!("mv{i}"), 1.0 + i as f64)
                    .input_arc(ring[i], 1)
                    .output_arc(buf[i], 1)
                    .build()
                    .unwrap();
                // Each instantaneous activity either returns the token to
                // the ring or cascades it into the next buffer, enabling
                // the next instantaneous activity mid-stabilization.
                let next_ring = ring[(i + 1) % stages];
                let next_buf = buf[(i + 1) % stages];
                b.instantaneous_activity(format!("route{i}"))
                    .input_arc(buf[i], 1)
                    .case(2.0, move |m| m.add(next_ring, 1))
                    .case(1.0, move |m| m.add(next_buf, 1))
                    .build()
                    .unwrap();
            }
            b.finish().unwrap()
        };

        #[derive(Default, PartialEq, Debug)]
        struct Trace {
            events: Vec<(u64, u32)>,
            finals: Vec<i32>,
        }
        impl itua_san::simulator::Observer for Trace {
            fn on_event(&mut self, t: f64, a: itua_san::model::ActivityId, _m: &Marking) {
                self.events.push((t.to_bits(), a.index() as u32));
            }
            fn on_end(&mut self, _t: f64, m: &Marking) {
                self.finals = m.place_ids().map(|p| m.get(p)).collect();
            }
        }

        let incremental = SanSimulator::new(build());
        let mut full_rescan = SanSimulator::new(build());
        full_rescan.set_full_rescan_stabilize(true);
        let mut inc_scratch = incremental.scratch();
        let mut full_scratch = full_rescan.scratch();
        for seed in seeds {
            let mut inc = Trace::default();
            incremental
                .run_with_scratch(seed, 15.0, &mut inc, &mut inc_scratch)
                .unwrap();
            let mut full = Trace::default();
            full_rescan
                .run_with_scratch(seed, 15.0, &mut full, &mut full_scratch)
                .unwrap();
            prop_assert_eq!(&inc, &full, "seed {}", seed);
        }
    }

    /// Replicate counts produce exactly count × places/activities for a
    /// template with no shared state.
    #[test]
    fn rep_multiplies_structure(count in 1usize..20) {
        let tpl: Arc<dyn SanTemplate> = Arc::new(|b: &mut SubnetBuilder<'_>| {
            let p = b.place("p", 1);
            b.timed_activity("t", 1.0).input_arc(p, 1).build()?;
            Ok::<(), SanError>(())
        });
        let model = ComposedModel::new("m", Node::rep("r", count, vec![], Node::atomic("x", tpl)));
        let san = model.flatten().unwrap();
        prop_assert_eq!(san.num_places(), count);
        prop_assert_eq!(san.num_activities(), count);
    }

    /// Shared places are allocated exactly once regardless of replication.
    #[test]
    fn shared_place_unique(count in 1usize..20, init in 0i32..100) {
        let tpl: Arc<dyn SanTemplate> = Arc::new(|b: &mut SubnetBuilder<'_>| {
            let shared = b.place("pool", 0);
            let local = b.place("local", 0);
            b.timed_activity("take", 1.0)
                .input_arc(shared, 1)
                .output_arc(local, 1)
                .build()?;
            Ok::<(), SanError>(())
        });
        let model = ComposedModel::new(
            "m",
            Node::rep("r", count, vec![SharedPlace::new("pool", init)], Node::atomic("x", tpl)),
        );
        let san = model.flatten().unwrap();
        prop_assert_eq!(san.num_places(), count + 1);
        let pool = san.place_id("r/pool").unwrap();
        prop_assert_eq!(san.initial_marking().get(pool), init);
    }

    /// State-space exploration of a bounded token ring finds exactly the
    /// compositions of tokens into places.
    #[test]
    fn state_space_size_of_token_ring(places in 2usize..5, tokens in 1i32..4) {
        let mut b = SanBuilder::new("ring");
        let ps: Vec<_> = (0..places)
            .map(|i| b.place(format!("p{i}"), if i == 0 { tokens } else { 0 }))
            .collect();
        for i in 0..places {
            b.timed_activity(format!("mv{i}"), 1.0)
                .input_arc(ps[i], 1)
                .output_arc(ps[(i + 1) % places], 1)
                .build()
                .unwrap();
        }
        let san = b.finish().unwrap();
        let ss = StateSpace::generate(&san, 100_000).unwrap();
        // Number of weak compositions of `tokens` into `places` parts:
        // C(tokens + places - 1, places - 1).
        let expected = {
            let n = (tokens as usize) + places - 1;
            let k = places - 1;
            (0..k).fold(1usize, |acc, i| acc * (n - i) / (i + 1))
        };
        prop_assert_eq!(ss.num_states(), expected);
    }

    /// `canonicalize` maps every member of an orbit to one representative
    /// in sorted form, and `orbit_size` is an orbit invariant, on random
    /// specs: 1–2 groups of 1–4 units, each with 0–2 shared places and
    /// 0–4 blocks of 1–3 places, over a shuffled place numbering with up
    /// to two ungrouped places. Values are drawn from {0, 1, 2}, so equal
    /// blocks and equal units are common. Where every group has at most 3
    /// units of at most 3 blocks, `orbit_size` must also equal the number
    /// of distinct markings found by enumerating the whole group.
    #[test]
    fn canonicalize_picks_one_sorted_member_of_the_orbit(
        shapes in prop::collection::vec((1usize..5, 0usize..3, 0usize..5, 1usize..4), 1..3),
        ungrouped in 0usize..3,
        seed in any::<u64>(),
    ) {
        let mut rng = SplitMix(seed);
        let num_places = ungrouped
            + shapes
                .iter()
                .map(|&(units, shared, blocks, len)| units * (shared + blocks * len))
                .sum::<usize>();
        let mut order: Vec<usize> = (0..num_places).collect();
        rng.shuffle(&mut order);
        let mut next = order.into_iter();
        let mut take = |n: usize| next.by_ref().take(n).collect::<Vec<usize>>();
        let groups: Vec<SymmetryGroup> = shapes
            .iter()
            .map(|&(units, shared, blocks, len)| SymmetryGroup {
                units: (0..units)
                    .map(|_| SymmetryUnit {
                        shared: take(shared),
                        blocks: (0..blocks).map(|_| take(len)).collect(),
                    })
                    .collect(),
            })
            .collect();
        let spec = SymmetrySpec::new(num_places, groups.clone()).unwrap();
        let values: Vec<i32> = (0..num_places).map(|_| rng.below(3) as i32).collect();

        let mut canon = values.clone();
        spec.canonicalize(&mut canon);
        let mut again = canon.clone();
        spec.canonicalize(&mut again);
        prop_assert_eq!(&again, &canon, "not idempotent");

        // A random group element: permute the units of every group, and
        // the blocks within every unit.
        let mut image = values.clone();
        for g in &groups {
            let mut units: Vec<usize> = (0..g.units.len()).collect();
            rng.shuffle(&mut units);
            for (from, &to) in g.units.iter().zip(&units) {
                let to = &g.units[to];
                for (&p, &q) in from.shared.iter().zip(&to.shared) {
                    image[q] = values[p];
                }
                let mut blocks: Vec<usize> = (0..from.blocks.len()).collect();
                rng.shuffle(&mut blocks);
                for (block, &b) in from.blocks.iter().zip(&blocks) {
                    for (&p, &q) in block.iter().zip(&to.blocks[b]) {
                        image[q] = values[p];
                    }
                }
            }
        }
        let mut image_canon = image.clone();
        spec.canonicalize(&mut image_canon);
        prop_assert_eq!(&image_canon, &canon, "orbit members canonicalize apart");
        prop_assert_eq!(spec.orbit_size(&image), spec.orbit_size(&values));
        prop_assert_eq!(spec.orbit_size(&canon), spec.orbit_size(&values));
        if groups.iter().all(|g| g.units.len() <= 3 && g.units[0].blocks.len() <= 3) {
            // Groups act on disjoint places, so the orbit is the product
            // of the groups' orbits.
            let enumerated: u128 = groups.iter().map(|g| orbit_by_enumeration(&values, g)).product();
            prop_assert_eq!(spec.orbit_size(&values), enumerated);
        }

        // The representative is sorted: blocks within a unit, then units
        // by their key (shared values, then block values in slot order).
        let gather = |places: &[usize]| places.iter().map(|&p| canon[p]).collect::<Vec<i32>>();
        for g in &groups {
            let mut keys = Vec::new();
            for u in &g.units {
                let blocks: Vec<Vec<i32>> = u.blocks.iter().map(|b| gather(b)).collect();
                prop_assert!(blocks.windows(2).all(|w| w[0] <= w[1]), "blocks out of order");
                let mut key = gather(&u.shared);
                key.extend(blocks.concat());
                keys.push(key);
            }
            prop_assert!(keys.windows(2).all(|w| w[0] <= w[1]), "units out of order");
        }

        // And it is a member of the orbit: every unit's shared values
        // and multiset of blocks survive, as do the ungrouped places.
        let contents = |v: &[i32], g: &SymmetryGroup| {
            let mut units: Vec<(Vec<i32>, Vec<Vec<i32>>)> = g
                .units
                .iter()
                .map(|u| {
                    let mut blocks: Vec<Vec<i32>> =
                        u.blocks.iter().map(|b| b.iter().map(|&p| v[p]).collect()).collect();
                    blocks.sort();
                    (u.shared.iter().map(|&p| v[p]).collect(), blocks)
                })
                .collect();
            units.sort();
            units
        };
        for g in &groups {
            prop_assert_eq!(contents(&canon, g), contents(&values, g));
        }
        let grouped: Vec<usize> = groups
            .iter()
            .flat_map(|g| g.units.iter())
            .flat_map(|u| u.shared.iter().chain(u.blocks.iter().flatten()))
            .copied()
            .collect();
        for p in (0..num_places).filter(|p| !grouped.contains(p)) {
            prop_assert_eq!(canon[p], values[p]);
        }
    }
}

/// The number of distinct markings of `g`'s places that `values` is
/// mapped to by every permutation of `g`'s units combined with every
/// permutation of the blocks within each unit: its orbit size, by
/// enumeration.
fn orbit_by_enumeration(values: &[i32], g: &SymmetryGroup) -> u128 {
    let unit_perms = permutations(g.units.len());
    let block_perms = permutations(g.units[0].blocks.len());
    let places: Vec<usize> = g
        .units
        .iter()
        .flat_map(|u| u.shared.iter().chain(u.blocks.iter().flatten()))
        .copied()
        .collect();
    let mut images = std::collections::BTreeSet::new();
    for units in &unit_perms {
        // The block permutation of each unit, counted like an odometer.
        let mut blocks = vec![0; g.units.len()];
        loop {
            let mut image = values.to_vec();
            for (u, from) in g.units.iter().enumerate() {
                let to = &g.units[units[u]];
                for (&p, &q) in from.shared.iter().zip(&to.shared) {
                    image[q] = values[p];
                }
                for (b, block) in from.blocks.iter().enumerate() {
                    for (&p, &q) in block.iter().zip(&to.blocks[block_perms[blocks[u]][b]]) {
                        image[q] = values[p];
                    }
                }
            }
            images.insert(places.iter().map(|&p| image[p]).collect::<Vec<i32>>());
            let Some(u) = (0..blocks.len()).find(|&u| blocks[u] + 1 < block_perms.len()) else {
                break;
            };
            blocks[u] += 1;
            blocks[..u].fill(0);
        }
    }
    images.len() as u128
}

/// Every permutation of `0..n`.
fn permutations(n: usize) -> Vec<Vec<usize>> {
    if n == 0 {
        return vec![Vec::new()];
    }
    let mut out = Vec::new();
    for p in permutations(n - 1) {
        for i in 0..n {
            let mut q = p.clone();
            q.insert(i, n - 1);
            out.push(q);
        }
    }
    out
}

/// SplitMix64, for the shuffles and values of one generated case.
struct SplitMix(u64);

impl SplitMix {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates.
    fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i + 1);
            xs.swap(i, j);
        }
    }
}
