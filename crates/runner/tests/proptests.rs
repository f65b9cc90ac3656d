//! Property tests: for arbitrary small SAN models and replication
//! settings, the engine must produce the same observations — bit for
//! bit — for every thread count and batch size, with the simulator's
//! scratch state and the reward variables reused across replications on
//! each worker.

use itua_runner::engine::{replicate_batched, RunnerConfig};
use itua_runner::progress::NullProgress;
use itua_san::marking::Marking;
use itua_san::model::SanBuilder;
use itua_san::reward::{EverTrue, TimeAveraged};
use itua_san::simulator::SanSimulator;
use itua_sim::rng::stream_seed;
use proptest::prelude::*;

/// Builds a tandem chain of `stages + 1` places where tokens flow forward
/// at the given rates and flow back from the last stage to the first, so
/// the model never deadlocks and every run exercises the full horizon.
fn tandem_chain(stages: usize, rates: &[f64], tokens: i32) -> SanSimulator {
    let mut b = SanBuilder::new("tandem");
    let places: Vec<_> = (0..=stages)
        .map(|i| b.place(format!("p{i}"), if i == 0 { tokens } else { 0 }))
        .collect();
    for i in 0..stages {
        b.timed_activity(format!("fwd{i}"), rates[i % rates.len()])
            .input_arc(places[i], 1)
            .output_arc(places[i + 1], 1)
            .build()
            .unwrap();
    }
    b.timed_activity("back", rates[stages % rates.len()])
        .input_arc(places[stages], 1)
        .output_arc(places[0], 1)
        .build()
        .unwrap();
    SanSimulator::new(b.finish().unwrap())
}

/// The time-averaged occupancy of the chain's last place and whether it
/// was ever occupied, for replications `0..replications` seeded
/// `stream_seed(base_seed, i)` and run on `runner`.
fn observe(
    sim: &SanSimulator,
    horizon: f64,
    replications: u32,
    base_seed: u64,
    runner: &RunnerConfig,
) -> Vec<(f64, f64)> {
    let last = sim.san().place_ids().last().unwrap();
    replicate_batched(
        replications,
        runner,
        &NullProgress,
        || {
            let f = move |m: &Marking| m.get(last) as f64;
            (sim.scratch(), TimeAveraged::new(f), EverTrue::new(f))
        },
        |reps, (scratch, occupancy, reached), out| {
            for i in reps {
                let seed = stream_seed(base_seed, u64::from(i));
                sim.run_with_scratch(seed, horizon, occupancy, scratch)
                    .unwrap();
                sim.run_with_scratch(seed, horizon, reached, scratch)
                    .unwrap();
                out.push((occupancy.value().unwrap(), reached.value().unwrap()));
            }
        },
    )
}

proptest! {
    #[test]
    fn parallel_experiment_is_thread_count_invariant(
        stages in 1usize..4,
        rate_a in 0.2f64..8.0,
        rate_b in 0.2f64..8.0,
        tokens in 1i32..3,
        replications in 1u32..100,
        horizon in 1.0f64..12.0,
        base_seed in proptest::prelude::any::<u64>(),
        batch_size in 1u32..9,
    ) {
        let sim = tandem_chain(stages, &[rate_a, rate_b], tokens);
        let reference = observe(&sim, horizon, replications, base_seed, &RunnerConfig::serial());
        prop_assert_eq!(reference.len(), replications as usize);

        for threads in [1usize, 2, 4, 8] {
            let rc = RunnerConfig { threads, batch_size };
            let parallel = observe(&sim, horizon, replications, base_seed, &rc);
            prop_assert_eq!(
                &parallel,
                &reference,
                "threads={} batch_size={}",
                threads,
                batch_size
            );
        }
    }
}
