//! Property tests: for arbitrary small SAN models and experiment
//! configurations, the engine must produce the same estimates — bit for
//! bit — for every thread count and batch size, with scratch state reused
//! across replications on each worker.

use itua_runner::engine::RunnerConfig;
use itua_runner::experiment::run_experiment_parallel;
use itua_runner::experiment::ExperimentConfig;
use itua_runner::progress::NullProgress;
use itua_san::model::SanBuilder;
use itua_san::reward::{EverTrue, RewardVariable, TimeAveraged};
use itua_san::simulator::SanSimulator;
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
        let last = sim.san().place_id(&format!("p{stages}")).unwrap();
        let cfg = ExperimentConfig {
            horizon,
            replications,
            base_seed,
            confidence: 0.95,
        };
        let make = || {
            vec![
                Box::new(TimeAveraged::new("occupancy", move |m| m.get(last) as f64))
                    as Box<dyn RewardVariable>,
                Box::new(EverTrue::new("reached", move |m| m.get(last) as f64)),
            ]
        };

        let reference =
            run_experiment_parallel(&sim, cfg, &RunnerConfig::serial(), &NullProgress, make)
                .unwrap();

        for threads in [1usize, 2, 4, 8] {
            let rc = RunnerConfig { threads, batch_size };
            let parallel =
                run_experiment_parallel(&sim, cfg, &rc, &NullProgress, make).unwrap();
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
