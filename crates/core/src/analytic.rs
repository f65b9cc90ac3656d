//! Exact (analytic) solution of the ITUA model for small configurations.
//!
//! Möbius can solve SANs "analytically by converting them into equivalent
//! continuous time Markov chains"; this module is that path for the ITUA
//! model. The composed SAN of [`crate::san_model`] is flattened into its
//! tangible state space once, and every measure the simulators estimate by
//! replication is computed exactly by uniformized transient analysis:
//!
//! * **unavailability** — `E[∫₀ᵀ improper_fraction ds] / T`, the
//!   expected accumulated improper-service fraction reward (as
//!   [`Ctmc::expected_accumulated_reward`] computes it);
//! * **unreliability** — mean over applications of `P[app ever Byzantine
//!   by T]`, via one *byzantine-absorbed* chain per application (outgoing
//!   transitions of Byzantine states dropped, so the transient mass on
//!   them is the first-passage probability — the analytic counterpart of
//!   the simulators' sticky flag). Byzantine-ness is evaluated on tangible
//!   markings; the zero-time exclusion cascades of the model only remove
//!   replicas (never clear corruption) and recovery is a timed activity,
//!   so a fault visible mid-cascade is still visible in the tangible
//!   marking the cascade settles into.
//! * **instant-of-time measures** (`frac_domains_excluded@t`,
//!   `replicas_running@t`, `load_per_host@t`) — reward expectations under
//!   the transient distributions at the sample times (as
//!   [`Ctmc::transient_multi`] computes them).
//!
//! All of them come from **one** uniformization walk
//! ([`itua_markov::uniformize::solve`]) on a worker team spawned once per
//! solve: the base chain's iterates `π₀Pᵏ` are walked once and feed both
//! the reward's tail-weighted dot products and every sample time's
//! Poisson window, while each absorbed chain advances in the same step
//! loop on its own pruned CSR, with its own uniformization rate and step
//! count. Every value is bit-identical to the separate solver calls
//! named above.
//!
//! The event-conditioned measures (`frac_corrupt_hosts_at_exclusion`,
//! `time_to_first_*`) are deliberately *not* produced: they condition on
//! event occurrences inside a replication and have no marking-level reward
//! formulation on this chain (see DESIGN.md §8).
//!
//! Results flow into the ordinary [`MeasureSet`] as zero-variance
//! estimates (`value ± 0`), so everything downstream — stores,
//! fingerprints, figure plotting — treats the analytic backend like a
//! simulator whose every replication agrees.
//!
//! # Symmetry lumping
//!
//! By default ([`AnalyticOptions::lump`]) the chain is generated directly
//! in canonical (orbit-representative) form under the model's
//! wreath-product symmetry ([`crate::analysis::symmetry_spec`]):
//! interchangeable domains, hosts within a domain, and replica slots
//! within an application collapse into one state per orbit, shrinking the
//! paper's configurations by orders of magnitude while staying *exact* —
//! the group action is a model automorphism, and every measure above is
//! orbit-invariant (applications are not permuted, and the Byzantine
//! state sets are orbit unions, so the per-application absorbed chains
//! lump too). The unlumped path remains available and byte-identical to
//! its pre-lumping results.
//!
//! # One generation per rate sweep
//!
//! Points that differ only in timed rates and case weights share one
//! state-space structure ([`san_model::structure_key`]).
//! [`ItuaAnalytic::reusing`] re-rates a kept point's state space for the
//! next point instead of generating it again
//! ([`StateSpace::rerated`]), and falls back to generating when re-rating
//! refuses. The chains are then assembled from the space as for a fresh
//! build, so every value is bit-identical to the per-point build.

use crate::measures::{names, MeasureSet};
use crate::params::Params;
use crate::san_model::{self, BuildError, ItuaSan, StructureKey};
use itua_markov::ctmc::{Ctmc, CtmcError};
use itua_markov::uniformize::{self, Walk};
use itua_san::model::SanError;
use itua_san::statespace::StateSpace;
use std::fmt;

/// Truncation accuracy for every uniformization solve. Far below the
/// resolution of any plotted figure, far above f64 round-off.
const EPSILON: f64 = 1e-10;

/// Error from building or solving the analytic model.
#[derive(Debug)]
pub enum AnalyticError {
    /// The tangible state space exceeds the configured bound; the
    /// configuration needs symmetry lumping, a larger bound, or a
    /// simulation backend.
    TooLarge {
        /// The bound that was exceeded.
        max_states: usize,
        /// Human-readable description of the offending configuration.
        config: String,
        /// When the *unlumped* generation overflowed but the
        /// symmetry-lumped chain fits the same bound: its measured state
        /// count, so the error can steer the user to `--lump` instead of
        /// a simulator.
        lumped_fit: Option<usize>,
    },
    /// The SAN could not be built from the parameters.
    Build(BuildError),
    /// State-space generation failed for a reason other than size.
    San(SanError),
    /// CTMC construction or solving failed.
    Ctmc(CtmcError),
    /// The solve horizon was not finite and positive.
    BadHorizon(f64),
    /// A sample time was NaN.
    BadSampleTime(f64),
}

impl fmt::Display for AnalyticError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalyticError::TooLarge {
                max_states,
                config,
                lumped_fit: Some(lumped),
            } => write!(
                f,
                "analytic backend supports ≤{max_states} states; got config {config} — \
                 symmetry lumping fits it in {lumped} states: retry with --lump \
                 (or raise --max-states), or use des/san"
            ),
            AnalyticError::TooLarge {
                max_states,
                config,
                lumped_fit: None,
            } => write!(
                f,
                "analytic backend supports ≤{max_states} states; got config {config} — use des/san"
            ),
            AnalyticError::Build(e) => write!(f, "cannot build ITUA SAN: {e}"),
            AnalyticError::San(e) => write!(f, "state-space generation failed: {e}"),
            AnalyticError::Ctmc(e) => write!(f, "CTMC solve failed: {e}"),
            AnalyticError::BadHorizon(h) => {
                write!(f, "horizon {h} is not finite and positive")
            }
            AnalyticError::BadSampleTime(t) => write!(f, "sample time {t} is not a number"),
        }
    }
}

impl std::error::Error for AnalyticError {}

fn describe(params: &Params) -> String {
    format!(
        "{} domains × {} hosts/domain, {} apps × {} replicas",
        params.num_domains, params.hosts_per_domain, params.num_apps, params.reps_per_app
    )
}

/// How to build the analytic model: state budget, symmetry lumping, and
/// solver threading.
///
/// Lumping changes *which* chain is solved (the exact symmetry quotient
/// instead of the full tangible space), so it participates in sweep
/// fingerprints; the thread count only sizes the worker teams of the
/// bit-identical state-space generation and uniformization walk, and
/// never influences results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnalyticOptions {
    /// Bound on generated states (lumped: orbits) before failing fast.
    pub max_states: usize,
    /// Generate the chain in canonical orbit-representative form under
    /// [`crate::analysis::symmetry_spec`]. Exact; on by default.
    pub lump: bool,
    /// Worker-team size for state-space generation and for the
    /// uniformization walk (results are bit-identical at any count).
    pub threads: usize,
}

impl Default for AnalyticOptions {
    fn default() -> Self {
        AnalyticOptions {
            max_states: ItuaAnalytic::DEFAULT_MAX_STATES_LUMPED,
            lump: true,
            threads: 1,
        }
    }
}

/// Measures the lumped state count for `model` under the same budget, on
/// up to `threads` workers, so a [`AnalyticError::TooLarge`] from the
/// unlumped path can report whether `--lump` would have fit.
fn lumped_probe(model: &ItuaSan, max_states: usize, threads: usize) -> Option<usize> {
    let sym = crate::analysis::symmetry_spec(model);
    StateSpace::explore(&model.san, Some(&sym), max_states, threads)
        .ok()
        .map(|ss| ss.num_states())
}

/// The state space of one analytic build, with the key it was built
/// under: what a later build whose parameters [fit](Structure::fits) it
/// re-rates instead of generating its own ([`ItuaAnalytic::reusing`]).
#[derive(Debug)]
pub struct Structure {
    /// [`san_model::structure_key`], the lump flag and the state budget.
    key: (StructureKey, bool, usize),
    space: StateSpace,
}

impl Structure {
    /// The key a build of `params` under `opts` generates under. The
    /// thread count is left out: it never changes the chain.
    fn key(params: &Params, opts: &AnalyticOptions) -> (StructureKey, bool, usize) {
        (san_model::structure_key(params), opts.lump, opts.max_states)
    }

    /// Whether a build of `params` under `opts` may re-rate this
    /// structure: the same [`san_model::structure_key`], lump flag and
    /// state budget.
    pub fn fits(&self, params: &Params, opts: &AnalyticOptions) -> bool {
        self.key == Self::key(params, opts)
    }
}

/// The ITUA model solved exactly: tangible state space, reward vectors,
/// and per-application absorbing chains, built once per configuration and
/// reusable across horizons and sample-time sets.
#[derive(Debug, Clone)]
pub struct ItuaAnalytic {
    num_states: usize,
    initial: Vec<f64>,
    ctmc: Ctmc,
    /// Fraction of applications with improper service, per state.
    improper_frac: Vec<f64>,
    /// Fraction of domains excluded, per state.
    frac_domains_excluded: Vec<f64>,
    /// Mean running replicas per application, per state.
    mean_replicas_running: Vec<f64>,
    /// Replicas per active host (0 when no host is active), per state.
    load_per_host: Vec<f64>,
    /// Per application: the chain with that application's Byzantine states
    /// made absorbing, plus the absorbing flags.
    byz: Vec<(Ctmc, Vec<bool>)>,
    /// When lumped: total tangible states the quotient represents
    /// (sum of orbit sizes, saturating).
    full_states: Option<u128>,
}

impl ItuaAnalytic {
    /// Default bound on the tangible state space for the *unlumped* path.
    /// Two-domain, two-host configurations sit in the low thousands of
    /// states; figure-4-scale configurations blow through this bound
    /// within seconds of generation and fail fast.
    pub const DEFAULT_MAX_STATES: usize = 100_000;

    /// Default bound for the *lumped* path. Orbits are orders of magnitude
    /// fewer than raw states, so the budget can afford to be an order of
    /// magnitude larger and still solve in seconds.
    pub const DEFAULT_MAX_STATES_LUMPED: usize = 1_000_000;

    /// Builds the *unlumped* state space and reward structure for
    /// `params`. Byte-identical to the pre-lumping analytic backend;
    /// prefer [`ItuaAnalytic::with_options`].
    ///
    /// # Errors
    ///
    /// [`AnalyticError::TooLarge`] if more than `max_states` tangible
    /// markings are reachable; [`AnalyticError::Build`] /
    /// [`AnalyticError::San`] / [`AnalyticError::Ctmc`] for construction
    /// failures.
    pub fn new(params: &Params, max_states: usize) -> Result<Self, AnalyticError> {
        Self::with_options(
            params,
            &AnalyticOptions {
                max_states,
                lump: false,
                threads: 1,
            },
        )
    }

    /// Builds the state space and reward structure for `params`, lumped or
    /// plain per `opts`: [`ItuaAnalytic::reusing`] with nothing to reuse.
    ///
    /// # Errors
    ///
    /// As [`ItuaAnalytic::new`]; an unlumped [`AnalyticError::TooLarge`]
    /// additionally reports whether the symmetry quotient would have fit
    /// the same budget.
    pub fn with_options(params: &Params, opts: &AnalyticOptions) -> Result<Self, AnalyticError> {
        Self::reusing(params, opts, None).map(|(analytic, _)| analytic)
    }

    /// Builds the analytic model of `params` as
    /// [`ItuaAnalytic::with_options`] does, re-rating `kept`'s state space
    /// ([`StateSpace::rerated`]) instead of generating one when `kept`
    /// [fits](Structure::fits) `params`. Generates afresh when there is
    /// none, it does not fit, or re-rating refuses; `kept` is dropped
    /// before generating. Either way the chains are assembled from the
    /// space alike, so the model is bit for bit the one
    /// [`ItuaAnalytic::with_options`] builds. Returns the model and its
    /// structure, for a later point to reuse.
    ///
    /// # Errors
    ///
    /// As [`ItuaAnalytic::with_options`].
    pub fn reusing(
        params: &Params,
        opts: &AnalyticOptions,
        kept: Option<Structure>,
    ) -> Result<(Self, Structure), AnalyticError> {
        let model = san_model::build(params).map_err(AnalyticError::Build)?;
        let key = Structure::key(params, opts);
        let rerated = kept
            .filter(|s| s.key == key)
            .and_then(|s| s.space.rerated(&model.san));
        let space = match rerated {
            Some(space) => space,
            None => Self::generate(&model, opts)?,
        };
        let analytic = Self::from_state_space(&model, &space, opts)?;
        Ok((analytic, Structure { key, space }))
    }

    /// Generates the tangible state space of `model`, lumped or plain per
    /// `opts`, on `opts.threads` workers.
    ///
    /// # Errors
    ///
    /// [`AnalyticError::TooLarge`] if more than `opts.max_states` states
    /// are reachable (unlumped, with whether the symmetry quotient would
    /// have fit), [`AnalyticError::San`] for other generation failures.
    fn generate(model: &ItuaSan, opts: &AnalyticOptions) -> Result<StateSpace, AnalyticError> {
        let sym = opts.lump.then(|| crate::analysis::symmetry_spec(model));
        StateSpace::explore(&model.san, sym.as_ref(), opts.max_states, opts.threads).map_err(|e| {
            match e {
                SanError::StateSpaceTooLarge(max) => AnalyticError::TooLarge {
                    max_states: max,
                    config: describe(&model.params),
                    lumped_fit: if opts.lump {
                        None
                    } else {
                        lumped_probe(model, max, opts.threads)
                    },
                },
                other => AnalyticError::San(other),
            }
        })
    }

    /// Assembles the reward vectors and chains of `model` on `ss`, its
    /// state space, generated or re-rated. The base chain's CSR rows come
    /// straight from the space, and each per-application
    /// Byzantine-absorbed chain copies the base chain's rows
    /// ([`Ctmc::absorbing`]): bit for bit the chains
    /// [`StateSpace::to_ctmc`] and [`StateSpace::absorbing_ctmc`] build.
    ///
    /// # Errors
    ///
    /// [`AnalyticError::Ctmc`] if the chain cannot be assembled.
    fn from_state_space(
        model: &ItuaSan,
        ss: &StateSpace,
        opts: &AnalyticOptions,
    ) -> Result<Self, AnalyticError> {
        let places = &model.places;
        let improper_frac = ss.reward_vector(|m| places.improper_fraction(m));
        // The simulators' sample measures, read per state (the time stamp
        // is unused).
        let frac_domains_excluded =
            ss.reward_vector(|m| places.snapshot(0.0, m).frac_domains_excluded);
        let mean_replicas_running =
            ss.reward_vector(|m| places.snapshot(0.0, m).mean_replicas_running);
        let load_per_host = ss.reward_vector(|m| places.snapshot(0.0, m).load_per_host);
        let ctmc = ss
            .to_ctmc()
            .map_err(AnalyticError::Ctmc)?
            .with_threads(opts.threads);
        let byz = (0..model.params.num_apps)
            .map(|a| {
                let flags: Vec<bool> = (0..ss.num_states())
                    .map(|s| places.byzantine(ss.marking(s), a))
                    .collect();
                (ctmc.absorbing(&flags), flags)
            })
            .collect();
        Ok(ItuaAnalytic {
            num_states: ss.num_states(),
            initial: ss.initial_distribution(),
            ctmc,
            improper_frac,
            frac_domains_excluded,
            mean_replicas_running,
            load_per_host,
            byz,
            full_states: ss.full_state_total(),
        })
    }

    /// Number of generated states (orbits, when lumped).
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// Total tangible states the lumped chain represents (sum of orbit
    /// sizes, saturating); `None` on the unlumped path.
    pub fn full_state_total(&self) -> Option<u128> {
        self.full_states
    }

    /// Solves every analytically expressible measure over `[0, horizon]`
    /// and returns them as zero-variance estimates.
    ///
    /// Sample times get the same clamp/filter/sort/dedup normalization the
    /// simulators apply, so the `@t` measure names line up exactly.
    ///
    /// All measures come from one fused uniformization walk
    /// ([`uniformize::solve`]): the base chain is walked once for both the
    /// accumulated improper-service reward and the sample-time
    /// distributions, and every Byzantine-absorbed chain advances in the
    /// same step loop on its own pruned CSR. Results are bit-identical to
    /// separate [`Ctmc::expected_accumulated_reward`], [`Ctmc::transient`]
    /// and [`Ctmc::transient_multi`] calls.
    ///
    /// # Errors
    ///
    /// [`AnalyticError::BadHorizon`] unless `horizon` is finite and
    /// positive; [`AnalyticError::BadSampleTime`] for a NaN sample time;
    /// [`AnalyticError::Ctmc`] for solver failures.
    pub fn solve(
        &self,
        horizon: f64,
        sample_times: &[f64],
        confidence: f64,
    ) -> Result<MeasureSet, AnalyticError> {
        if !(horizon > 0.0 && horizon.is_finite()) {
            return Err(AnalyticError::BadHorizon(horizon));
        }
        if let Some(&t) = sample_times.iter().find(|t| t.is_nan()) {
            return Err(AnalyticError::BadSampleTime(t));
        }
        let mut samples = Vec::new();
        crate::des::clamp_sample_times(sample_times, horizon, &mut samples);

        let base = Walk {
            chain: &self.ctmc,
            initial: &self.initial,
            reward: Some((&self.improper_frac, horizon)),
            times: &samples,
        };
        let horizon_only = [horizon];
        let absorbed = self.byz.iter().map(|(chain, _)| Walk {
            chain,
            initial: &self.initial,
            reward: None,
            times: &horizon_only,
        });
        let walks: Vec<Walk> = std::iter::once(base).chain(absorbed).collect();
        let mut out = uniformize::solve(&walks, EPSILON, self.ctmc.threads())
            .map_err(AnalyticError::Ctmc)?
            .into_iter();
        let base_out = out.next().expect("the base walk comes first");

        let mut ms = MeasureSet::new(confidence);
        let improper_time = base_out.reward.expect("the base walk carries the reward");
        ms.record_exact(names::UNAVAILABILITY, improper_time / horizon);

        let mut byz_total = 0.0;
        for ((_, flags), walk) in self.byz.iter().zip(out) {
            byz_total += flags
                .iter()
                .zip(&walk.transients[0])
                .filter(|&(&absorbed, _)| absorbed)
                .map(|(_, &pi)| pi)
                .sum::<f64>();
        }
        ms.record_exact(names::UNRELIABILITY, byz_total / self.byz.len() as f64);

        for (&t, dist) in samples.iter().zip(&base_out.transients) {
            let dot = |r: &[f64]| r.iter().zip(dist).map(|(ri, pi)| ri * pi).sum::<f64>();
            ms.record_exact(
                &format!("{}@{}", names::FRAC_DOMAINS_EXCLUDED, t),
                dot(&self.frac_domains_excluded),
            );
            ms.record_exact(
                &format!("{}@{}", names::REPLICAS_RUNNING, t),
                dot(&self.mean_replicas_running),
            );
            ms.record_exact(
                &format!("{}@{}", names::LOAD_PER_HOST, t),
                dot(&self.load_per_host),
            );
        }
        Ok(ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Smallest interesting configuration with attack spread disabled —
    /// the state space stays in the low thousands, tractable even in
    /// debug builds.
    fn micro_params() -> Params {
        let mut p = Params::default().with_domains(1, 2).with_applications(1, 2);
        p.spread_rate_domain = 0.0;
        p.spread_rate_system = 0.0;
        p
    }

    #[test]
    fn solves_all_shared_measures_exactly() {
        let analytic = ItuaAnalytic::new(&micro_params(), 100_000).unwrap();
        assert!(analytic.num_states() > 1);
        let ms = analytic.solve(5.0, &[2.5, 5.0, 5.0, 7.0], 0.95).unwrap();
        let estimates = ms.estimates();
        // 2 interval measures + 3 instants × 2 distinct sample times
        // (7.0 clamps onto 5.0); no conditional measures.
        assert_eq!(estimates.len(), 8);
        for e in &estimates {
            assert_eq!(e.ci.half_width, 0.0, "{} is not exact", e.name);
            assert_eq!(e.min, e.max);
            assert!(e.ci.mean.is_finite());
        }
        let mean = |name: &str| ms.mean(name).unwrap();
        assert!((0.0..=1.0).contains(&mean(names::UNAVAILABILITY)));
        assert!((0.0..=1.0).contains(&mean(names::UNRELIABILITY)));
        assert!(mean(&format!("{}@5", names::REPLICAS_RUNNING)) >= 0.0);
        assert!(ms.mean(names::FRAC_CORRUPT_AT_EXCLUSION).is_none());
        assert!(ms.mean(names::TIME_TO_FIRST_BYZANTINE).is_none());
    }

    /// Two interchangeable single-host domains so the symmetry quotient
    /// is a strict reduction; spread disabled to keep debug-build
    /// generation fast.
    fn symmetric_micro_params() -> Params {
        let mut p = Params::default().with_domains(2, 1).with_applications(1, 2);
        p.spread_rate_domain = 0.0;
        p.spread_rate_system = 0.0;
        p
    }

    #[test]
    fn lumped_solution_matches_unlumped_on_micro_config() {
        let p = symmetric_micro_params();
        let full = ItuaAnalytic::new(&p, 1_000_000).unwrap();
        let lumped = ItuaAnalytic::with_options(&p, &AnalyticOptions::default()).unwrap();
        assert!(lumped.num_states() < full.num_states());
        assert_eq!(full.full_state_total(), None);
        assert_eq!(lumped.full_state_total(), Some(full.num_states() as u128));
        let a = full.solve(5.0, &[1.0, 5.0], 0.95).unwrap();
        let b = lumped.solve(5.0, &[1.0, 5.0], 0.95).unwrap();
        assert_eq!(a.estimates().len(), b.estimates().len());
        for e in &a.estimates() {
            let other = b.mean(&e.name).unwrap();
            let denom = e.ci.mean.abs().max(1e-12);
            assert!(
                ((e.ci.mean - other) / denom).abs() < 1e-9,
                "{}: full {} vs lumped {}",
                e.name,
                e.ci.mean,
                other
            );
        }
    }

    #[test]
    fn too_large_reports_lumped_fit_when_quotient_fits() {
        let p = symmetric_micro_params();
        let lumped_n = ItuaAnalytic::with_options(&p, &AnalyticOptions::default())
            .unwrap()
            .num_states();
        // A budget that admits the quotient but not the full space.
        let err = ItuaAnalytic::new(&p, lumped_n).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("--lump"), "{msg}");
        assert!(msg.contains(&format!("{lumped_n} states")), "{msg}");
        assert!(msg.contains("use des/san"), "{msg}");
    }

    #[test]
    fn too_large_error_names_the_config() {
        let params = Params::default().with_domains(4, 3).with_applications(4, 7);
        let err = ItuaAnalytic::new(&params, 500).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("≤500 states"), "{msg}");
        assert!(msg.contains("4 domains × 3 hosts/domain"), "{msg}");
        assert!(msg.contains("use des/san"), "{msg}");
    }

    #[test]
    fn bad_horizons_and_sample_times_are_errors_not_panics() {
        let analytic = ItuaAnalytic::new(&micro_params(), 100_000).unwrap();
        for h in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -1.0] {
            let err = analytic.solve(h, &[1.0], 0.95).unwrap_err();
            assert!(matches!(err, AnalyticError::BadHorizon(_)), "{h}: {err}");
            assert!(err.to_string().contains("horizon"), "{err}");
        }
        let err = analytic.solve(5.0, &[1.0, f64::NAN], 0.95).unwrap_err();
        assert!(
            matches!(err, AnalyticError::BadSampleTime(t) if t.is_nan()),
            "{err}"
        );
        // Out-of-range but well-defined sample times are still clamped or
        // dropped, as the simulators do.
        let ms = analytic
            .solve(5.0, &[-1.0, 0.0, f64::INFINITY], 0.95)
            .unwrap();
        assert!(ms.mean(&format!("{}@5", names::REPLICAS_RUNNING)).is_some());
    }
}
