//! Parallel SAN experiments: the replication loop for raw SANs plus
//! reward variables, and its configuration ([`ExperimentConfig`]).
//!
//! This replaced the bespoke sequential loop that once lived in the
//! `itua-san` crate — a `threads = 1` [`RunnerConfig`] reproduces its
//! results bit for bit, so there is exactly one execution path (the
//! retired crate module is gone; its [`ExperimentConfig`] vocabulary
//! moved here, next to the loop that consumes it). Reward variables hold
//! per-run mutable state, so each replication gets a fresh set from a
//! caller-supplied factory, while the expensive simulator state (marking,
//! event queue, schedule table) is allocated once per worker thread and
//! reused via [`itua_san::simulator::SimScratch`]. The per-replication
//! observations (a few named `f64`s) are shipped back to the reducing
//! thread and recorded into one [`ReplicationEstimator`] in replication
//! order, so the estimates are bit-identical for every thread count.

use crate::engine::{replicate_batched, RunnerConfig};
use crate::progress::Progress;
use itua_san::model::SanError;
use itua_san::reward::{Observation, RewardVariable};
use itua_san::simulator::{Observer, SanSimulator, SimScratch};
use itua_sim::rng::stream_seed;
use itua_stats::replication::{Estimate, ReplicationEstimator};

/// Configuration for a replication experiment, Möbius-study style.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentConfig {
    /// Simulation horizon per replication.
    pub horizon: f64,
    /// Number of replications.
    pub replications: u32,
    /// Base seed; replication `i` runs with the stream-derived seed
    /// [`stream_seed`]`(base_seed, i)`, so experiments with nearby base
    /// seeds never share replication seeds (the historical `base_seed + i`
    /// scheme overlapped whenever two bases differed by less than the
    /// replication count).
    pub base_seed: u64,
    /// Confidence level for reported intervals.
    pub confidence: f64,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            horizon: 5.0,
            replications: 1000,
            base_seed: 1,
            confidence: 0.95,
        }
    }
}

impl ExperimentConfig {
    /// The seed replication `rep` runs with.
    pub fn seed_for(&self, rep: u32) -> u64 {
        stream_seed(self.base_seed, u64::from(rep))
    }
}

/// Runs a replication experiment across worker threads.
///
/// `make_variables` builds a fresh set of reward variables for one
/// replication; it is called once per replication, possibly concurrently
/// from several threads. Replication `i` is seeded with
/// `stream_seed(config.base_seed, i)` (see [`ExperimentConfig::seed_for`])
/// and estimates are reduced in replication order, so for any
/// [`RunnerConfig`] (1, 2, 4, … threads) this returns **bit-identical**
/// estimates.
///
/// # Errors
///
/// Propagates the simulator error of the lowest-indexed failing
/// replication (deterministic regardless of which worker hit it first).
///
/// # Example
///
/// ```
/// use itua_runner::engine::RunnerConfig;
/// use itua_runner::progress::NullProgress;
/// use itua_runner::experiment::{run_experiment_parallel, ExperimentConfig};
/// use itua_san::model::SanBuilder;
/// use itua_san::reward::{RewardVariable, TimeAveraged};
/// use itua_san::simulator::SanSimulator;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = SanBuilder::new("m");
/// let up = b.place("up", 1);
/// let down = b.place("down", 0);
/// b.timed_activity("fail", 1.0).input_arc(up, 1).output_arc(down, 1).build()?;
/// b.timed_activity("fix", 4.0).input_arc(down, 1).output_arc(up, 1).build()?;
/// let sim = SanSimulator::new(b.finish()?);
/// let cfg = ExperimentConfig { horizon: 20.0, replications: 100, ..Default::default() };
///
/// let make = || vec![Box::new(TimeAveraged::new("unavail", move |m| m.get(down) as f64))
///     as Box<dyn RewardVariable>];
/// let parallel = run_experiment_parallel(&sim, cfg, &RunnerConfig::default(), &NullProgress, make)?;
/// let serial = run_experiment_parallel(&sim, cfg, &RunnerConfig::serial(), &NullProgress, make)?;
/// assert_eq!(parallel, serial); // bit-identical for any thread count
/// # Ok(())
/// # }
/// ```
pub fn run_experiment_parallel<F>(
    sim: &SanSimulator,
    config: ExperimentConfig,
    runner: &RunnerConfig,
    progress: &dyn Progress,
    make_variables: F,
) -> Result<Vec<Estimate>, SanError>
where
    F: Fn() -> Vec<Box<dyn RewardVariable>> + Sync,
{
    let run = |rep: u32, scratch: &mut SimScratch| {
        let mut variables = make_variables();
        {
            let mut observers: Vec<&mut dyn Observer> = variables
                .iter_mut()
                .map(|v| v.as_mut() as &mut dyn Observer)
                .collect();
            sim.run_with_scratch(
                config.seed_for(rep),
                config.horizon,
                &mut observers,
                scratch,
            )?;
        }
        Ok(variables.iter().flat_map(|v| v.observations()).collect())
    };
    let per_rep: Vec<Result<Vec<Observation>, SanError>> = replicate_batched(
        config.replications,
        runner,
        progress,
        || sim.scratch(),
        |reps, scratch, out| out.extend(reps.map(|rep| run(rep, scratch))),
    );

    let mut est = ReplicationEstimator::new(config.confidence);
    for observations in per_rep {
        for o in observations? {
            est.record(&o.name, o.value);
        }
    }
    Ok(est.estimates())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::progress::NullProgress;
    use itua_san::model::SanBuilder;
    use itua_san::reward::{EverTrue, TimeAveraged};

    #[test]
    fn replication_seeds_are_distinct_streams() {
        let cfg = ExperimentConfig::default();
        assert_ne!(cfg.seed_for(0), cfg.seed_for(1));
        // Nearby base seeds must not share replication seeds.
        let other = ExperimentConfig {
            base_seed: cfg.base_seed + 1,
            ..cfg
        };
        for i in 0..100 {
            for j in 0..100 {
                assert_ne!(cfg.seed_for(i), other.seed_for(j), "overlap at {i},{j}");
            }
        }
    }

    fn repairable() -> SanSimulator {
        let mut b = SanBuilder::new("m");
        let up = b.place("up", 1);
        let down = b.place("down", 0);
        b.timed_activity("fail", 1.0)
            .input_arc(up, 1)
            .output_arc(down, 1)
            .build()
            .unwrap();
        b.timed_activity("fix", 9.0)
            .input_arc(down, 1)
            .output_arc(up, 1)
            .build()
            .unwrap();
        SanSimulator::new(b.finish().unwrap())
    }

    #[test]
    fn thread_and_batch_choices_are_bit_identical() {
        let sim = repairable();
        let down = sim.san().place_id("down").unwrap();
        let cfg = ExperimentConfig {
            horizon: 25.0,
            replications: 120,
            base_seed: 77,
            confidence: 0.95,
        };
        let make = || {
            vec![
                Box::new(TimeAveraged::new("unavail", move |m| m.get(down) as f64))
                    as Box<dyn RewardVariable>,
                Box::new(EverTrue::new("ever_down", move |m| m.get(down) as f64)),
            ]
        };
        let reference =
            run_experiment_parallel(&sim, cfg, &RunnerConfig::serial(), &NullProgress, make)
                .unwrap();
        // Sanity: the estimates themselves are reasonable (steady ≈ 0.1).
        let unavail = reference.iter().find(|e| e.name == "unavail").unwrap();
        assert!((unavail.ci.mean - 0.1).abs() < 0.05, "{unavail:?}");

        for threads in [2, 4, 8] {
            for batch_size in [1, 7, 32] {
                let rc = RunnerConfig {
                    threads,
                    batch_size,
                };
                let parallel =
                    run_experiment_parallel(&sim, cfg, &rc, &NullProgress, make).unwrap();
                assert_eq!(parallel, reference, "threads={threads} batch={batch_size}");
            }
        }
    }

    #[test]
    fn reproducible_for_same_seed() {
        let sim = repairable();
        let down = sim.san().place_id("down").unwrap();
        let cfg = ExperimentConfig {
            horizon: 10.0,
            replications: 50,
            base_seed: 3,
            confidence: 0.9,
        };
        let make = || {
            vec![
                Box::new(TimeAveraged::new("u", move |m| m.get(down) as f64))
                    as Box<dyn RewardVariable>,
            ]
        };
        let a = run_experiment_parallel(&sim, cfg, &RunnerConfig::default(), &NullProgress, make)
            .unwrap();
        let b = run_experiment_parallel(&sim, cfg, &RunnerConfig::default(), &NullProgress, make)
            .unwrap();
        assert_eq!(a[0].ci.mean, b[0].ci.mean);
    }

    #[test]
    fn empty_variable_set_yields_no_estimates() {
        let sim = repairable();
        let cfg = ExperimentConfig {
            horizon: 2.0,
            replications: 10,
            ..Default::default()
        };
        let out =
            run_experiment_parallel(&sim, cfg, &RunnerConfig::default(), &NullProgress, Vec::new)
                .unwrap();
        assert!(out.is_empty());
    }
}
