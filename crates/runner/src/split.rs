//! The importance-splitting replication loop: [`run_measures_split`] is
//! the rare-event counterpart of [`crate::backend::run_measures`].
//!
//! Each replication becomes one RESTART *tree* instead of one trajectory:
//! the backend starts a root branch ([`ItuaBackend::run_split_tree`]),
//! `itua-rare` forks it at upward crossings of the
//! [`CorruptDomainCount`] importance level and Russian-roulettes branches
//! that fall back below their spawn level, and every surviving leaf
//! contributes a weighted [`RunOutput`]. The per-tree weighted totals go
//! through [`MeasureSet::record_tree`], whose estimator treats trees —
//! not leaves — as the iid unit, so confidence intervals stay valid.
//!
//! Determinism matches the plain loop exactly: tree `i` derives from
//! `stream_seed(origin_seed, i)`, branch `b > 0` of that tree is reseeded
//! with `stream_seed(tree_seed, b)` (the third tier of the seed
//! hierarchy), and trees are reduced in replication order, so estimates
//! are bit-identical for every thread count, chunk size, and batch size.
//! With an empty [`SplitSpec`] the root branch is never reseeded and every
//! tree is one weight-1 leaf, which [`MeasureSet::record_tree`] records
//! exactly as [`MeasureSet::record`] records a plain replication, so the
//! result equals the plain replication path bit for bit.

use crate::backend::{
    check_replications, preflight, Backend, BackendError, ItuaBackend, ModelCheck,
};
use crate::engine::{replicate, RunnerConfig};
use crate::progress::Progress;
use itua_core::measures::{MeasureSet, RunOutput};
use itua_core::split::CorruptDomainCount;
use itua_rare::{run_tree, SplitSpec, TreeStats};
use itua_sim::rng::stream_seed;

/// Work totals accumulated across every tree of a splitting run; the
/// currency the rare-event benchmark compares against plain replication
/// ("simulated events per unit of CI width").
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

impl ItuaBackend {
    /// Runs one importance-splitting tree: root seeded `seed`, split
    /// according to `spec` on the [`CorruptDomainCount`] level, appending
    /// one `(weight, output)` pair per surviving leaf to `leaves`.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError`] for the analytic backend (exact, nothing
    /// to simulate) or a SAN stabilization livelock.
    ///
    /// # Panics
    ///
    /// Panics if `horizon` is not positive and finite.
    pub fn run_split_tree(
        &self,
        seed: u64,
        horizon: f64,
        sample_times: &[f64],
        spec: &SplitSpec,
        leaves: &mut Vec<(f64, RunOutput)>,
    ) -> Result<TreeStats, BackendError> {
        const LEVEL: CorruptDomainCount = CorruptDomainCount;
        match self {
            ItuaBackend::Des(b) => {
                let branch = b.split_branch(seed, horizon, sample_times, &LEVEL);
                match run_tree(branch, seed, spec, leaves) {
                    Ok(stats) => Ok(stats),
                    Err(infallible) => match infallible {},
                }
            }
            ItuaBackend::San(b) => {
                let branch = b.split_branch(seed, horizon, sample_times, &LEVEL)?;
                run_tree(branch, seed, spec, leaves).map_err(Into::into)
            }
            ItuaBackend::Analytic(_) => Err(BackendError::new(
                "analytic backend is exact and simulates nothing; importance \
                 splitting does not apply",
            )),
        }
    }
}

/// Runs `replications` independent splitting trees of `backend` and
/// reduces them into a weighted [`MeasureSet`].
///
/// Tree `i` is seeded `stream_seed(origin_seed, i)` and recorded in
/// replication order, so the result is bit-identical for every thread
/// count and chunk size. An exact backend short-circuits to its
/// zero-variance measures — `spec` steers only the simulation effort,
/// never the estimand, so the analytic solution remains the oracle for
/// any splitting configuration.
///
/// # Errors
///
/// Returns the pre-flight failure (a bad horizon or sample time, or the
/// `check` policy's), fewer than two trees on a simulating backend, or
/// the first (in replication order) [`BackendError`] any tree produced.
#[allow(clippy::too_many_arguments)]
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
    preflight(backend, horizon, sample_times, check)?;
    if let Some(exact) = backend.exact_measures(horizon, sample_times, confidence) {
        let measures = exact?;
        progress.on_replications(replications, replications);
        return Ok(SplitRun {
            measures,
            totals: SplitTotals::default(),
        });
    }
    check_replications(replications)?;
    let trees = replicate(replications, runner, progress, |rep| {
        let mut leaves = Vec::new();
        let stats = backend.run_split_tree(
            stream_seed(origin_seed, u64::from(rep)),
            horizon,
            sample_times,
            spec,
            &mut leaves,
        )?;
        Ok::<_, BackendError>((stats, leaves))
    });
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
    fn empty_spec_is_bit_identical_to_plain_loop() {
        for kind in [BackendKind::Des, BackendKind::San] {
            let backend = ItuaBackend::for_params(kind, &small_params()).unwrap();
            let plain = run_measures(
                &backend,
                24,
                0.95,
                7,
                3.0,
                &[1.0, 3.0],
                &RunnerConfig::serial(),
                &NullProgress,
            )
            .unwrap();
            let split = run_measures_split(
                &backend,
                24,
                0.95,
                7,
                3.0,
                &[1.0, 3.0],
                &SplitSpec::none(),
                &RunnerConfig::serial(),
                &NullProgress,
                ModelCheck::Quick,
            )
            .unwrap();
            assert_eq!(split.measures.estimates(), plain.estimates(), "{kind}");
            assert_eq!(split.totals.trees, 24);
            assert_eq!(split.totals.branches, 24);
            assert_eq!(split.totals.killed, 0);
        }
    }

    #[test]
    fn split_estimates_are_thread_count_invariant() {
        let spec: SplitSpec = "1x4,2x4".parse().unwrap();
        for kind in [BackendKind::Des, BackendKind::San] {
            let backend = ItuaBackend::for_params(kind, &small_params()).unwrap();
            let run = |threads| {
                run_measures_split(
                    &backend,
                    32,
                    0.95,
                    11,
                    3.0,
                    &[3.0],
                    &spec,
                    &RunnerConfig::default().with_threads(threads),
                    &NullProgress,
                    ModelCheck::Off,
                )
                .unwrap()
            };
            let reference = run(1);
            for threads in [2, 8] {
                let got = run(threads);
                assert_eq!(
                    got.measures.estimates(),
                    reference.measures.estimates(),
                    "{kind} threads={threads}"
                );
                assert_eq!(got.totals, reference.totals, "{kind} threads={threads}");
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

    /// Runs both replication loops (plain, and splitting with an empty
    /// spec) on the micro configuration under `kind`, returning each
    /// loop's estimates or error message.
    fn both_loops(
        kind: BackendKind,
        replications: u32,
        horizon: f64,
        sample_times: &[f64],
    ) -> [Result<Vec<Estimate>, String>; 2] {
        let backend = ItuaBackend::for_params(kind, &micro_params()).unwrap();
        let runner = RunnerConfig::default().with_threads(2);
        let (conf, seed) = (0.95, 1);
        let plain = run_measures(
            &backend,
            replications,
            conf,
            seed,
            horizon,
            sample_times,
            &runner,
            &NullProgress,
        );
        let split = run_measures_split(
            &backend,
            replications,
            conf,
            seed,
            horizon,
            sample_times,
            &SplitSpec::none(),
            &runner,
            &NullProgress,
            ModelCheck::Quick,
        )
        .map(|run| run.measures);
        [plain, split].map(|r| r.map(|m| m.estimates()).map_err(|e| e.to_string()))
    }

    /// Runs `horizon`/`sample_times` through both replication loops on
    /// every backend and returns the common error: each backend and loop
    /// must refuse alike, without panicking.
    fn common_rejection(horizon: f64, sample_times: &[f64]) -> String {
        let mut errors: Vec<String> = BackendKind::ALL
            .into_iter()
            .flat_map(|kind| both_loops(kind, 4, horizon, sample_times))
            .map(Result::unwrap_err)
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
    fn fewer_than_two_replications_are_rejected_by_both_simulating_loops() {
        for reps in [0, 1] {
            for kind in [BackendKind::Des, BackendKind::San] {
                for result in both_loops(kind, reps, 2.0, &[2.0]) {
                    assert_eq!(
                        result.unwrap_err(),
                        format!(
                            "a simulating backend needs at least 2 replications per point \
                             for a confidence interval, got {reps}"
                        ),
                        "{kind}"
                    );
                }
            }
            // The exact backend never replicates, so it ignores the count.
            let [plain, split] = both_loops(BackendKind::Analytic, reps, 2.0, &[2.0]);
            assert!(!plain.as_ref().unwrap().is_empty());
            assert_eq!(plain, split);
        }
    }

    #[test]
    fn deep_check_gates_the_splitting_loop() {
        let params = Params::default().with_domains(1, 2).with_applications(1, 2);
        let backend = ItuaBackend::for_params(BackendKind::San, &params).unwrap();
        let err = run_measures_split(
            &backend,
            4,
            0.95,
            1,
            2.0,
            &[2.0],
            &SplitSpec::none(),
            &RunnerConfig::serial(),
            &NullProgress,
            ModelCheck::Deep { max_states: 3 },
        )
        .unwrap_err()
        .to_string();
        assert!(err.contains("state budget"), "{err}");
    }

    #[test]
    fn run_split_tree_rejects_analytic() {
        let backend = ItuaBackend::for_params(BackendKind::Analytic, &micro_params()).unwrap();
        let mut leaves = Vec::new();
        assert!(backend
            .run_split_tree(1, 5.0, &[5.0], &SplitSpec::none(), &mut leaves)
            .is_err());
    }
}
