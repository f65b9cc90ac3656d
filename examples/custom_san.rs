//! Using the SAN framework directly: model a small intrusion-tolerant
//! cluster by hand, estimate a measure by simulation, and verify it
//! against the exact CTMC solution (the Möbius analytic path).
//!
//! Run with: `cargo run --release --example custom_san`

use itua_repro::runner::{replicate_batched, NullProgress, RunnerConfig};
use itua_repro::san::model::{SanBuilder, SanError};
use itua_repro::san::reward::TimeAveraged;
use itua_repro::san::simulator::SanSimulator;
use itua_repro::san::statespace::StateSpace;
use itua_repro::sim::rng::stream_seed;
use itua_repro::stats::ci::ConfidenceInterval;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 3-replica cluster: replicas fail (are corrupted) at rate 0.2/h and
    // a recovery service restores one at a time at rate 1/h. Service is
    // down when fewer than 2 replicas are up.
    let mut b = SanBuilder::new("cluster");
    let up = b.place("up", 3);
    let down = b.place("down", 0);
    b.timed_activity_fn(
        "corrupt",
        std::sync::Arc::new(move |m| 0.2 * m.get(up) as f64),
        &[up],
    )
    .input_arc(up, 1)
    .output_arc(down, 1)
    .build()?;
    b.timed_activity("recover", 1.0)
        .input_arc(down, 1)
        .output_arc(up, 1)
        .build()?;
    let san = b.finish()?;

    // Simulation estimate of unavailability over [0, 1000] from 200
    // replications, spread over worker threads by the runner's engine
    // (bit-identical for any thread count). Each worker reuses one
    // simulator scratch and one reward variable; replication `i` runs on
    // the stream `stream_seed(1, i)`.
    let sim = SanSimulator::new(san.clone());
    let per_rep = replicate_batched(
        200,
        &RunnerConfig::default(),
        &NullProgress,
        || {
            let unavailability = TimeAveraged::new(move |m| if m.get(up) < 2 { 1.0 } else { 0.0 });
            (sim.scratch(), unavailability)
        },
        |reps, (scratch, unavailability), out| {
            out.extend(reps.map(|i| {
                sim.run_with_scratch(stream_seed(1, i.into()), 1000.0, unavailability, scratch)?;
                Ok(unavailability.value().expect("a finished run has a value"))
            }));
        },
    );
    let observations = per_rep
        .into_iter()
        .collect::<Result<Vec<f64>, SanError>>()?;
    let ci = ConfidenceInterval::from_observations(&observations, 0.95)?;
    println!("simulation: {ci}");

    // Exact steady-state solution via the CTMC path.
    let ss = StateSpace::generate(&san, 1000)?;
    let ctmc = ss.to_ctmc()?;
    let pi = ctmc.steady_state(1e-12, 1_000_000)?;
    let exact: f64 = (0..ss.num_states())
        .filter(|&s| ss.marking(s).get(up) < 2)
        .map(|s| pi[s])
        .sum();
    println!("exact CTMC:  {exact:.6}");

    let err = (ci.mean - exact).abs();
    println!("difference:  {err:.6}");
    assert!(
        err < 3.0 * ci.half_width.max(1e-4),
        "simulation and analytic solution disagree"
    );
    Ok(())
}
