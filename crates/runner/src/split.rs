//! The replication loop: [`run_measures_split`] runs every simulated
//! replication of a point and reduces them into estimates.
//!
//! Each replication is one RESTART *tree*: the worker's scratch is the
//! root branch (see [`ItuaBackend`]), `itua-rare` steps it in place, forks
//! it at upward crossings of the corrupt-domain importance level and
//! Russian-roulettes branches that fall back below their spawn level, and
//! every surviving leaf contributes a weighted [`RunOutput`]. The
//! per-tree weighted totals go through [`MeasureSet::record_tree`], whose
//! estimator treats trees — not leaves — as the iid unit, so confidence
//! intervals stay valid. With an empty [`SplitSpec`] (plain replication,
//! [`crate::backend::run_measures`]) the level is never read, the root is
//! never reseeded, and every tree is one weight-1 leaf, which
//! [`MeasureSet::record_tree`] records exactly as [`MeasureSet::record`]
//! records a replication.
//!
//! Trees fan out through [`replicate_batched`] with one scratch per worker
//! thread and the runner's batch size. Tree `i` derives from
//! `stream_seed(origin_seed, i)`, branch `b > 0` of that tree is reseeded
//! with `stream_seed(tree_seed, b)` (the third tier of the seed
//! hierarchy), and trees are reduced in replication order, so estimates
//! are bit-identical for every thread count and batch size.
//!
//! [`RunOutput`]: itua_core::measures::RunOutput

use crate::backend::{Backend, BackendError, ItuaBackend, ModelCheck};
use crate::engine::{replicate_batched, RunnerConfig};
use crate::progress::Progress;
use itua_core::measures::MeasureSet;
use itua_rare::{SplitSpec, TreeStats};
use itua_sim::rng::stream_seed;

/// Work totals accumulated across every tree of a run; the currency the
/// rare-event benchmark compares against plain replication ("simulated
/// events per unit of CI width").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SplitTotals {
    /// Trees simulated (= replications).
    pub trees: u64,
    /// Simulated events (steps) across all branches of all trees.
    pub steps: u64,
    /// Branches started, including each tree's root.
    pub branches: u64,
    /// Branches that reached the horizon and contributed a leaf.
    pub leaves: u64,
    /// Branches killed by Russian roulette.
    pub killed: u64,
}

impl SplitTotals {
    fn absorb(&mut self, s: TreeStats) {
        self.trees += 1;
        self.steps += s.steps;
        self.branches += u64::from(s.branches);
        self.leaves += u64::from(s.leaves);
        self.killed += u64::from(s.killed);
    }
}

/// Result of [`run_measures_split`]: the estimates plus the work totals
/// behind them.
#[derive(Debug)]
pub struct SplitRun {
    /// The (weighted) measure estimates.
    pub measures: MeasureSet,
    /// Simulation work performed. Zero for an exact backend, which never
    /// simulates.
    pub totals: SplitTotals,
}

/// Runs `replications` independent RESTART trees of `backend` under
/// `spec` and reduces them into a weighted [`MeasureSet`]: the one
/// replication loop.
///
/// First a pre-flight rejects a horizon that is not finite and positive
/// and any NaN sample time, then applies the `check` policy. The
/// simulators would otherwise panic on such a horizon in a worker thread,
/// or clamp a NaN sample time to the horizon, where the analytic backend
/// rejects both; checking here gives every backend the same error.
///
/// An exact backend then short-circuits to its zero-variance measures and
/// reports no replications to `progress` — `spec` steers only the
/// simulation effort, never the estimand, so the analytic solution
/// remains the oracle for any splitting configuration. A simulating
/// backend needs at least two trees, since a confidence interval needs
/// two observations per measure. Tree `i` is seeded
/// `stream_seed(origin_seed, i)` and recorded in replication order, so
/// the result is bit-identical for every thread count and batch size.
///
/// # Errors
///
/// Returns the pre-flight failure (a bad horizon or sample time, or the
/// `check` policy's), fewer than two trees on a simulating backend, or
/// the first (in replication order) [`BackendError`] any tree produced.
#[expect(
    clippy::too_many_arguments,
    reason = "public entry point: each argument is an independent run setting"
)]
pub fn run_measures_split(
    backend: &ItuaBackend,
    replications: u32,
    confidence: f64,
    origin_seed: u64,
    horizon: f64,
    sample_times: &[f64],
    spec: &SplitSpec,
    runner: &RunnerConfig,
    progress: &dyn Progress,
    check: ModelCheck,
) -> Result<SplitRun, BackendError> {
    if !(horizon > 0.0 && horizon.is_finite()) {
        return Err(BackendError::new(format!(
            "horizon {horizon} is not finite and positive"
        )));
    }
    if let Some(t) = sample_times.iter().find(|t| t.is_nan()) {
        return Err(BackendError::new(format!(
            "sample time {t} is not a number"
        )));
    }
    match check {
        ModelCheck::Quick => backend.self_check()?,
        ModelCheck::Off => {}
    }
    if let Some(exact) = backend.exact_measures(horizon, sample_times, confidence) {
        return Ok(SplitRun {
            measures: exact?,
            totals: SplitTotals::default(),
        });
    }
    if replications < 2 {
        return Err(BackendError::new(format!(
            "a simulating backend needs at least 2 replications per point for a \
             confidence interval, got {replications}"
        )));
    }
    let trees = replicate_batched(
        replications,
        runner,
        progress,
        || backend.scratch(),
        |reps, scratch, out| {
            backend.prepare(horizon, sample_times, scratch);
            for rep in reps {
                let seed = stream_seed(origin_seed, u64::from(rep));
                // Sized for the one leaf of a tree that never splits.
                let mut leaves = Vec::with_capacity(1);
                let tree = backend.tree(seed, spec, scratch, &mut leaves);
                out.push(tree.map(|stats| (stats, leaves)));
            }
        },
    );
    let mut measures = MeasureSet::new(confidence);
    let mut totals = SplitTotals::default();
    for tree in trees {
        let (stats, leaves) = tree?;
        totals.absorb(stats);
        measures.record_tree(&leaves, horizon, sample_times);
    }
    Ok(SplitRun { measures, totals })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{run_measures, BackendKind};
    use crate::progress::NullProgress;
    use itua_core::params::Params;
    use itua_stats::replication::Estimate;
    use std::sync::Mutex;

    fn small_params() -> Params {
        Params::default().with_domains(4, 2).with_applications(2, 3)
    }

    fn micro_params() -> Params {
        let mut p = Params::default().with_domains(1, 2).with_applications(1, 2);
        p.spread_rate_domain = 0.0;
        p.spread_rate_system = 0.0;
        p
    }

    #[test]
    fn unreachable_thresholds_are_bit_identical_to_the_empty_spec() {
        // The corrupt-domain level never exceeds the 4 domains, so `5x4`
        // is armed but never fires: the trees read their level after every
        // event and still draw exactly what the empty spec draws.
        let unreachable: SplitSpec = "5x4".parse().unwrap();
        for kind in [BackendKind::Des, BackendKind::San] {
            let backend = ItuaBackend::for_params(kind, &small_params()).unwrap();
            let run = |spec: &SplitSpec| {
                run_measures_split(
                    &backend,
                    24,
                    0.95,
                    7,
                    3.0,
                    &[1.0, 3.0],
                    spec,
                    &RunnerConfig::serial(),
                    &NullProgress,
                    ModelCheck::Quick,
                )
                .unwrap()
            };
            let (empty, armed) = (run(&SplitSpec::none()), run(&unreachable));
            assert_eq!(
                armed.measures.estimates(),
                empty.measures.estimates(),
                "{kind}"
            );
            assert_eq!(armed.totals, empty.totals, "{kind}");
            assert_eq!(empty.totals.trees, 24);
            assert_eq!(empty.totals.branches, 24);
            assert_eq!(empty.totals.killed, 0);
        }
    }

    #[test]
    fn split_estimates_are_thread_count_invariant() {
        let spec: SplitSpec = "1x4,2x4".parse().unwrap();
        for kind in [BackendKind::Des, BackendKind::San] {
            let backend = ItuaBackend::for_params(kind, &small_params()).unwrap();
            let run = |threads, batch| {
                run_measures_split(
                    &backend,
                    32,
                    0.95,
                    11,
                    3.0,
                    &[3.0],
                    &spec,
                    &RunnerConfig::default()
                        .with_threads(threads)
                        .with_batch_size(batch),
                    &NullProgress,
                    ModelCheck::Off,
                )
                .unwrap()
            };
            let reference = run(1, 32);
            for (threads, batch) in [(2, 32), (8, 32), (1, 1), (8, 4)] {
                let got = run(threads, batch);
                assert_eq!(
                    got.measures.estimates(),
                    reference.measures.estimates(),
                    "{kind} threads={threads} batch={batch}"
                );
                assert_eq!(
                    got.totals, reference.totals,
                    "{kind} threads={threads} batch={batch}"
                );
            }
        }
    }

    #[test]
    fn splitting_actually_splits_on_the_small_config() {
        let backend = ItuaBackend::for_params(BackendKind::Des, &small_params()).unwrap();
        let spec: SplitSpec = "1x4".parse().unwrap();
        let run = run_measures_split(
            &backend,
            32,
            0.95,
            11,
            3.0,
            &[3.0],
            &spec,
            &RunnerConfig::serial(),
            &NullProgress,
            ModelCheck::Off,
        )
        .unwrap();
        assert!(run.totals.branches > run.totals.trees, "{:?}", run.totals);
        assert!(run
            .measures
            .mean(itua_core::measures::names::UNAVAILABILITY)
            .is_some());
    }

    #[test]
    fn analytic_backend_short_circuits_ignoring_spec() {
        let backend = ItuaBackend::for_params(BackendKind::Analytic, &micro_params()).unwrap();
        let spec: SplitSpec = "1x8".parse().unwrap();
        let run = run_measures_split(
            &backend,
            100,
            0.95,
            1,
            5.0,
            &[5.0],
            &spec,
            &RunnerConfig::serial(),
            &NullProgress,
            ModelCheck::Quick,
        )
        .unwrap();
        assert_eq!(run.totals, SplitTotals::default());
        for e in &run.measures.estimates() {
            assert_eq!(e.ci.half_width, 0.0, "{} not exact", e.name);
        }
    }

    /// Every `on_replications` call a run makes, in order.
    #[derive(Default)]
    struct Recorded(Mutex<Vec<(u32, u32)>>);

    impl Progress for Recorded {
        fn on_replications(&self, done: u32, total: u32) {
            self.0.lock().unwrap().push((done, total));
        }
    }

    fn recorded_calls(kind: BackendKind, params: &Params, replications: u32) -> Vec<(u32, u32)> {
        let backend = ItuaBackend::for_params(kind, params).unwrap();
        let progress = Recorded::default();
        run_measures(
            &backend,
            replications,
            0.95,
            1,
            2.0,
            &[2.0],
            &RunnerConfig::serial(),
            &progress,
        )
        .unwrap();
        progress.0.into_inner().unwrap()
    }

    #[test]
    fn exact_short_circuit_reports_no_replications() {
        // The analytic backend simulates nothing, so it must not tell the
        // console it ran the requested replications.
        assert_eq!(
            recorded_calls(BackendKind::Analytic, &micro_params(), 2000),
            []
        );
    }

    #[test]
    fn simulated_run_reports_its_replications_up_to_the_total() {
        let calls = recorded_calls(BackendKind::Des, &micro_params(), 70);
        assert_eq!(calls.last(), Some(&(70, 70)), "{calls:?}");
    }

    /// Runs the replication loop on the micro configuration under `kind`,
    /// returning its estimates or error message.
    fn run_loop(
        kind: BackendKind,
        replications: u32,
        horizon: f64,
        sample_times: &[f64],
    ) -> Result<Vec<Estimate>, String> {
        let backend = ItuaBackend::for_params(kind, &micro_params()).unwrap();
        run_measures(
            &backend,
            replications,
            0.95,
            1,
            horizon,
            sample_times,
            &RunnerConfig::default().with_threads(2),
            &NullProgress,
        )
        .map(|m| m.estimates())
        .map_err(|e| e.to_string())
    }

    /// Runs `horizon`/`sample_times` through the loop on every backend and
    /// returns the common error: each backend must refuse alike, without
    /// panicking.
    fn common_rejection(horizon: f64, sample_times: &[f64]) -> String {
        let mut errors: Vec<String> = BackendKind::ALL
            .into_iter()
            .map(|kind| run_loop(kind, 4, horizon, sample_times).unwrap_err())
            .collect();
        assert!(errors.windows(2).all(|w| w[0] == w[1]), "{errors:?}");
        errors.swap_remove(0)
    }

    #[test]
    fn bad_horizon_is_rejected_alike_by_every_backend() {
        for horizon in [f64::NAN, f64::INFINITY, 0.0, -1.0] {
            let err = common_rejection(horizon, &[1.0]);
            assert_eq!(err, format!("horizon {horizon} is not finite and positive"));
        }
    }

    #[test]
    fn nan_sample_time_is_rejected_alike_by_every_backend() {
        let err = common_rejection(2.0, &[1.0, f64::NAN]);
        assert_eq!(err, "sample time NaN is not a number");
    }

    #[test]
    fn fewer_than_two_replications_are_rejected_by_simulating_backends() {
        for reps in [0, 1] {
            for kind in [BackendKind::Des, BackendKind::San] {
                assert_eq!(
                    run_loop(kind, reps, 2.0, &[2.0]).unwrap_err(),
                    format!(
                        "a simulating backend needs at least 2 replications per point \
                         for a confidence interval, got {reps}"
                    ),
                    "{kind}"
                );
            }
            // The exact backend never replicates, so it ignores the count.
            assert!(!run_loop(BackendKind::Analytic, reps, 2.0, &[2.0])
                .unwrap()
                .is_empty());
        }
    }
}
