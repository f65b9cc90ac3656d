//! The intrusion-tolerance measures of the paper's Section 4.
//!
//! Both model encodings (SAN and direct DES) produce a [`RunOutput`] per
//! replication; [`MeasureSet`] aggregates outputs over replications into
//! named estimates (the values the figures plot).
//!
//! Measure definitions:
//!
//! * **improper service** — an application suffers a Byzantine fault (a
//!   third or more of its currently active replicas are corrupt and
//!   undetected), *or* it has no running replica at all (service cannot be
//!   delivered; this is what degrades when the system runs out of
//!   domains).
//! * **unavailability\[0,T\]** — expected fraction of `[0, T]` with
//!   improper service.
//! * **unreliability\[0,T\]** — probability that a *Byzantine fault*
//!   occurred at least once in `[0, T]` (the paper's `rep_grp_failure`
//!   sticky flag).
//! * **fraction of corrupt hosts in an excluded domain** — measured at
//!   each domain-exclusion event.
//! * **fraction of domains excluded at t**, **replicas running at t**,
//!   **load (replicas per active host) at t** — instant-of-time measures.

use itua_stats::replication::{Estimate, ReplicationEstimator};

/// Canonical measure names used by both encodings and the studies.
pub mod names {
    /// Time-averaged improper-service indicator over `[0, horizon]`.
    pub const UNAVAILABILITY: &str = "unavailability";
    /// Sticky Byzantine-fault indicator over `[0, horizon]`.
    pub const UNRELIABILITY: &str = "unreliability";
    /// Fraction of hosts corrupt in a domain when it is excluded.
    pub const FRAC_CORRUPT_AT_EXCLUSION: &str = "frac_corrupt_hosts_at_exclusion";
    /// Fraction of domains excluded at a sample time (suffix `@t`).
    pub const FRAC_DOMAINS_EXCLUDED: &str = "frac_domains_excluded";
    /// Mean replicas of an application still running at a sample time.
    pub const REPLICAS_RUNNING: &str = "replicas_running";
    /// Replicas per active host at a sample time.
    pub const LOAD_PER_HOST: &str = "load_per_host";
    /// Time of the first Byzantine fault (conditional on one occurring).
    pub const TIME_TO_FIRST_BYZANTINE: &str = "time_to_first_byzantine";
    /// Time service first became improper (conditional on it happening).
    pub const TIME_TO_FIRST_IMPROPER: &str = "time_to_first_improper";
}

/// Instant-of-time snapshot taken during a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Snapshot {
    /// Sample time.
    pub time: f64,
    /// Fraction of domains excluded.
    pub frac_domains_excluded: f64,
    /// Mean number of running replicas per application.
    pub mean_replicas_running: f64,
    /// Replicas per active host (0 if no host is active).
    pub load_per_host: f64,
}

/// Everything one replication produces.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutput {
    /// Horizon the run covered.
    pub horizon: f64,
    /// Per-application time integral of the improper-service indicator.
    pub improper_time_per_app: Vec<f64>,
    /// Per-application sticky Byzantine-fault flag.
    pub byzantine_per_app: Vec<bool>,
    /// Fraction of corrupt hosts recorded at each domain exclusion.
    pub exclusion_corrupt_fractions: Vec<f64>,
    /// Instant-of-time snapshots at the requested sample times.
    pub snapshots: Vec<Snapshot>,
    /// Time of the first Byzantine fault of any application (`None` if no
    /// application ever suffered one in this run) — the classic
    /// time-to-failure dependability measure.
    pub first_byzantine_time: Option<f64>,
    /// Time at which any application's service first became improper.
    pub first_improper_time: Option<f64>,
}

impl RunOutput {
    /// Mean unavailability over applications for the interval `[0, t]`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is not positive or exceeds the run horizon.
    pub fn unavailability(&self, t: f64) -> f64 {
        assert!(t > 0.0 && t <= self.horizon + 1e-9, "bad interval end {t}");
        let sum: f64 = self.improper_time_per_app.iter().sum();
        (sum / self.improper_time_per_app.len() as f64) / t
    }

    /// Fraction of applications that suffered a Byzantine fault (an
    /// unbiased per-replication estimate of unreliability).
    pub fn unreliability(&self) -> f64 {
        let hits = self.byzantine_per_app.iter().filter(|&&b| b).count();
        hits as f64 / self.byzantine_per_app.len() as f64
    }

    /// Mean fraction of corrupt hosts over this run's domain exclusions
    /// (`None` if no domain was excluded).
    pub fn mean_exclusion_corrupt_fraction(&self) -> Option<f64> {
        if self.exclusion_corrupt_fractions.is_empty() {
            None
        } else {
            Some(
                self.exclusion_corrupt_fractions.iter().sum::<f64>()
                    / self.exclusion_corrupt_fractions.len() as f64,
            )
        }
    }
}

/// Aggregates [`RunOutput`]s over replications into named estimates.
///
/// # Example
///
/// ```
/// use itua_core::measures::{MeasureSet, RunOutput, Snapshot};
///
/// let mut ms = MeasureSet::new(0.95);
/// for rep in 0..10 {
///     ms.record(&RunOutput {
///         horizon: 5.0,
///         improper_time_per_app: vec![0.5 + 0.01 * rep as f64],
///         byzantine_per_app: vec![rep % 2 == 0],
///         exclusion_corrupt_fractions: vec![],
///         snapshots: vec![Snapshot {
///             time: 5.0,
///             frac_domains_excluded: 0.2,
///             mean_replicas_running: 6.0,
///             load_per_host: 1.0,
///         }],
///         first_byzantine_time: None,
///         first_improper_time: None,
///     });
/// }
/// let estimates = ms.estimates();
/// assert!(estimates.iter().any(|e| e.name == "unavailability"));
/// ```
#[derive(Debug, Clone)]
pub struct MeasureSet {
    est: ReplicationEstimator,
    /// Sample schedule of the observation being recorded.
    schedule: Vec<f64>,
    /// Each time of the last recorded schedule with its three `@t`
    /// measure names, kept so that a run of observations on one schedule
    /// formats the names once.
    timed_names: Vec<(f64, [String; 3])>,
}

impl MeasureSet {
    /// Creates an empty aggregate reporting at confidence `level`.
    pub fn new(level: f64) -> Self {
        MeasureSet {
            est: ReplicationEstimator::new(level),
            schedule: Vec::new(),
            timed_names: Vec::new(),
        }
    }

    /// Records one replication's output: the one-leaf, weight-1 case of
    /// [`MeasureSet::record_tree`].
    pub fn record(&mut self, out: &RunOutput) {
        self.schedule.clear();
        self.schedule.extend(out.snapshots.iter().map(|s| s.time));
        self.record_leaves(std::iter::once((1.0, out)));
    }

    /// Records one importance-splitting tree's weighted leaves as a single
    /// replication-level observation.
    ///
    /// The weight process of RESTART splitting is a martingale, so for any
    /// *unconditional* horizon measure the per-tree total `Σ_leaves w·x` is
    /// one unbiased iid observation of the plain per-replication value —
    /// those totals are recorded with weight 1, giving an exact t-interval
    /// across trees. *Conditional* measures (observed only in some runs:
    /// exclusion fractions, first-failure times) are recorded as the
    /// weighted ratio `Σw·v / Σw` over the observing leaves, carrying
    /// weight `Σw` so the effective sample size reflects how much of the
    /// tree's probability mass observed the event; trees with no observing
    /// leaf are skipped, as are plain runs that never observe the event.
    ///
    /// A tree whose branches were all roulette-killed (`leaves` empty)
    /// still contributes `0` to every unconditional measure — dropping it
    /// would bias the estimator upward. `horizon` and `sample_times` are
    /// the run arguments, used to reconstruct the snapshot schedule for
    /// such empty trees.
    ///
    /// A single-leaf tree with weight 1 (no split fired) is exactly
    /// [`MeasureSet::record`]: every `w·x` and `Σw·v/Σw` is `x` at
    /// `w == 1.0`.
    pub fn record_tree(&mut self, leaves: &[(f64, RunOutput)], horizon: f64, sample_times: &[f64]) {
        crate::des::clamp_sample_times(sample_times, horizon, &mut self.schedule);
        debug_assert!(
            leaves
                .iter()
                .all(|(_, o)| o.snapshots.len() == self.schedule.len()),
            "leaf snapshots do not match the sample schedule"
        );
        self.record_leaves(leaves.iter().map(|(w, o)| (*w, o)));
    }

    /// Records one observation per measure from weighted leaves whose
    /// snapshots follow `self.schedule` (see [`MeasureSet::record_tree`]
    /// for the estimator).
    fn record_leaves<'a, L>(&mut self, leaves: L)
    where
        L: Iterator<Item = (f64, &'a RunOutput)> + Clone,
    {
        let named_times = self.timed_names.iter().map(|(t, _)| t.to_bits());
        if !named_times.eq(self.schedule.iter().map(|t| t.to_bits())) {
            self.timed_names.clear();
            self.timed_names.extend(self.schedule.iter().map(|&t| {
                let name = |measure| format!("{measure}@{t}");
                (
                    t,
                    [
                        name(names::FRAC_DOMAINS_EXCLUDED),
                        name(names::REPLICAS_RUNNING),
                        name(names::LOAD_PER_HOST),
                    ],
                )
            }));
        }
        // Float sums start at -0.0, the additive identity, so every `Σ w·x`
        // over one weight-1 leaf is `x` bit for bit.
        let unavailability: f64 = leaves
            .clone()
            .map(|(w, o)| w * o.unavailability(o.horizon))
            .sum();
        self.est.record(names::UNAVAILABILITY, unavailability);
        let unreliability: f64 = leaves.clone().map(|(w, o)| w * o.unreliability()).sum();
        self.est.record(names::UNRELIABILITY, unreliability);
        for (i, (_, [excluded, running, load])) in self.timed_names.iter().enumerate() {
            let total = |f: fn(&Snapshot) -> f64| -> f64 {
                leaves.clone().map(|(w, o)| w * f(&o.snapshots[i])).sum()
            };
            self.est
                .record(excluded, total(|s| s.frac_domains_excluded));
            self.est.record(running, total(|s| s.mean_replicas_running));
            self.est.record(load, total(|s| s.load_per_host));
        }

        let mut conditional = |name: &str, value: fn(&RunOutput) -> Option<f64>| {
            let observing = leaves.clone().filter_map(|(w, o)| value(o).map(|v| (w, v)));
            let wsum: f64 = observing.clone().map(|(w, _)| w).sum();
            if wsum > 0.0 {
                let vsum: f64 = observing.map(|(w, v)| w * v).sum();
                self.est.record_weighted(name, vsum / wsum, wsum);
            }
        };
        conditional(
            names::FRAC_CORRUPT_AT_EXCLUSION,
            RunOutput::mean_exclusion_corrupt_fraction,
        );
        conditional(names::TIME_TO_FIRST_BYZANTINE, |o| o.first_byzantine_time);
        conditional(names::TIME_TO_FIRST_IMPROPER, |o| o.first_improper_time);
    }

    /// Records an exact (zero-variance) value for one named measure, as
    /// produced by the analytic backend: the estimate comes out as
    /// `value ± 0` (see [`ReplicationEstimator::record_exact`]).
    pub fn record_exact(&mut self, name: &str, value: f64) {
        self.est.record_exact(name, value);
    }

    /// Point estimate for a measure (mean over replications), if at least
    /// two observations exist.
    pub fn mean(&self, name: &str) -> Option<f64> {
        self.est.estimate(name).ok().map(|e| e.ci.mean)
    }

    /// All estimates with confidence intervals.
    pub fn estimates(&self) -> Vec<Estimate> {
        self.est.estimates()
    }

    /// Underlying estimator (per-measure observation counts).
    pub fn estimator(&self) -> &ReplicationEstimator {
        &self.est
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_output() -> RunOutput {
        RunOutput {
            horizon: 5.0,
            improper_time_per_app: vec![1.0, 0.0, 0.5, 0.5],
            byzantine_per_app: vec![true, false, false, false],
            exclusion_corrupt_fractions: vec![0.5, 1.0],
            snapshots: vec![Snapshot {
                time: 5.0,
                frac_domains_excluded: 0.3,
                mean_replicas_running: 5.5,
                load_per_host: 1.2,
            }],
            first_byzantine_time: Some(1.25),
            first_improper_time: Some(1.25),
        }
    }

    #[test]
    fn unavailability_averages_apps() {
        let out = sample_output();
        // Mean improper time = 0.5 over 5 hours → 0.1.
        assert!((out.unavailability(5.0) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn unreliability_is_app_fraction() {
        assert!((sample_output().unreliability() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn exclusion_fraction_mean() {
        assert_eq!(
            sample_output().mean_exclusion_corrupt_fraction(),
            Some(0.75)
        );
        let mut out = sample_output();
        out.exclusion_corrupt_fractions.clear();
        assert_eq!(out.mean_exclusion_corrupt_fraction(), None);
    }

    #[test]
    #[should_panic]
    fn unavailability_beyond_horizon_panics() {
        let _ = sample_output().unavailability(10.0);
    }

    #[test]
    fn measure_set_aggregates() {
        let mut ms = MeasureSet::new(0.95);
        for _ in 0..5 {
            ms.record(&sample_output());
        }
        assert!((ms.mean(names::UNAVAILABILITY).unwrap() - 0.1).abs() < 1e-12);
        assert!((ms.mean(names::UNRELIABILITY).unwrap() - 0.25).abs() < 1e-12);
        assert!((ms.mean(names::FRAC_CORRUPT_AT_EXCLUSION).unwrap() - 0.75).abs() < 1e-12);
        assert!(
            (ms.mean(&format!("{}@5", names::FRAC_DOMAINS_EXCLUDED))
                .unwrap()
                - 0.3)
                .abs()
                < 1e-12
        );
        let all = ms.estimates();
        assert_eq!(all.len(), 8);
    }

    #[test]
    fn record_exact_gives_degenerate_estimate() {
        let mut ms = MeasureSet::new(0.95);
        ms.record_exact(names::UNAVAILABILITY, 0.0625);
        let e = ms
            .estimates()
            .into_iter()
            .find(|e| e.name == names::UNAVAILABILITY)
            .unwrap();
        assert_eq!(e.ci.mean, 0.0625);
        assert_eq!(e.ci.half_width, 0.0);
        assert_eq!(e.min, e.max);
    }

    #[test]
    fn record_tree_single_leaf_weight_one_matches_record() {
        let mut plain = MeasureSet::new(0.95);
        let mut split = MeasureSet::new(0.95);
        for rep in 0..6 {
            let mut out = sample_output();
            out.improper_time_per_app[0] += rep as f64 * 0.1;
            plain.record(&out);
            split.record_tree(&[(1.0, out)], 5.0, &[5.0]);
        }
        let (a, b) = (plain.estimates(), split.estimates());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.ci.mean.to_bits(), y.ci.mean.to_bits(), "{}", x.name);
            assert_eq!(
                x.ci.half_width.to_bits(),
                y.ci.half_width.to_bits(),
                "{}",
                x.name
            );
            assert_eq!(x.min, y.min);
            assert_eq!(x.max, y.max);
        }
    }

    #[test]
    fn record_tree_renames_when_the_schedule_changes() {
        // One set reused across schedules (a time added, one moved, one
        // clamped onto the horizon, all dropped) records what a set whose
        // name cache is cold on every call records.
        let schedules: [&[f64]; 6] = [
            &[5.0],
            &[1.0, 5.0],
            &[1.0, 5.0],
            &[2.0, 5.0],
            &[2.0, 9.0],
            &[],
        ];
        let mut reused = MeasureSet::new(0.95);
        let mut cold = MeasureSet::new(0.95);
        let mut calls_at = [0u64; 6];
        for (k, &times) in schedules.iter().cycle().take(12).enumerate() {
            let mut schedule = Vec::new();
            crate::des::clamp_sample_times(times, 5.0, &mut schedule);
            let mut out = sample_output();
            out.improper_time_per_app[0] += k as f64 * 0.1;
            out.snapshots = schedule
                .iter()
                .enumerate()
                .map(|(i, &time)| Snapshot {
                    time,
                    load_per_host: 1.0 + (k + i) as f64 * 0.01,
                    ..out.snapshots[0]
                })
                .collect();
            for &t in &schedule {
                calls_at[t as usize] += 1;
            }
            reused.record_tree(&[(1.0, out.clone())], 5.0, times);
            cold.timed_names.clear();
            cold.record_tree(&[(1.0, out)], 5.0, times);
        }
        assert_eq!(reused.estimates(), cold.estimates());
        for t in [1, 2, 5] {
            for measure in [
                names::FRAC_DOMAINS_EXCLUDED,
                names::REPLICAS_RUNNING,
                names::LOAD_PER_HOST,
            ] {
                assert_eq!(
                    reused.estimator().count(&format!("{measure}@{t}")),
                    calls_at[t],
                    "{measure}@{t}"
                );
            }
        }
        assert_eq!(reused.estimator().count(names::UNAVAILABILITY), 12);
    }

    #[test]
    fn record_tree_empty_tree_still_counts_for_unconditional_measures() {
        let mut ms = MeasureSet::new(0.95);
        ms.record_tree(&[], 5.0, &[5.0]);
        ms.record_tree(&[(1.0, sample_output())], 5.0, &[5.0]);
        assert_eq!(ms.estimator().count(names::UNAVAILABILITY), 2);
        assert_eq!(
            ms.estimator()
                .count(&format!("{}@5", names::FRAC_DOMAINS_EXCLUDED)),
            2
        );
        // The dead tree observed no exclusion event.
        assert_eq!(ms.estimator().count(names::FRAC_CORRUPT_AT_EXCLUSION), 1);
        assert_eq!(ms.mean(names::UNAVAILABILITY).unwrap(), 0.05);
    }

    #[test]
    fn record_tree_splits_average_with_weights() {
        let mut ms = MeasureSet::new(0.95);
        // Two half-weight leaves with byzantine flags true/false: the
        // tree's unreliability total is 0.5 * 0.25 + 0.5 * 0.25 with the
        // sample_output flags (1 of 4 apps byzantine each).
        let out = sample_output();
        ms.record_tree(&[(0.5, out.clone()), (0.5, out)], 5.0, &[5.0]);
        ms.record_tree(&[(1.0, sample_output())], 5.0, &[5.0]);
        assert!((ms.mean(names::UNRELIABILITY).unwrap() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn conditional_measure_absent_when_never_observed() {
        let mut ms = MeasureSet::new(0.95);
        let mut out = sample_output();
        out.exclusion_corrupt_fractions.clear();
        ms.record(&out);
        ms.record(&out);
        assert_eq!(ms.mean(names::FRAC_CORRUPT_AT_EXCLUSION), None);
    }
}
