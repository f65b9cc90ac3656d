//! The backend abstraction: one execution path for every encoding of the
//! ITUA process.
//!
//! [`ItuaBackend`] is the encoding chosen at runtime and the only
//! implementor of [`Backend`]. It turns `(seed, horizon, sample_times)`
//! into a [`RunOutput`] — the paper's per-replication measure record —
//! using a per-thread reusable [`ItuaScratch`], so simulation state (event
//! queues, host/place vectors) is allocated once per worker thread, not
//! once per replication. Two simulation encodings run replications:
//!
//! * the direct DES ([`itua_core::des::ItuaDes`]), and
//! * the composed SAN ([`itua_core::san_exec::ItuaSanRunner`]).
//!
//! Each one's scratch is also the root branch of a RESTART tree
//! ([`itua_rare::SplitBranch`]): a replication starts on the scratch and
//! `itua_rare::run_tree` steps it in place, so a tree with an empty
//! [`SplitSpec`] is the plain replication itself, and [`Backend::run`] is
//! exactly that one-leaf tree.
//!
//! A third, non-simulation backend solves small configurations exactly
//! ([`itua_core::analytic::ItuaAnalytic`]): it reports its measures
//! through [`Backend::exact_measures`] instead of per-replication runs,
//! and the replication loop short-circuits for it.
//!
//! The replication loop itself is [`crate::split::run_measures_split`];
//! [`run_measures`] is that loop with an empty spec and the quick model
//! check.

use crate::engine::RunnerConfig;
use crate::progress::Progress;
use crate::split::run_measures_split;
use itua_core::analytic::{AnalyticError, AnalyticOptions, ItuaAnalytic};
use itua_core::des::{DesScratch, ItuaDes};
use itua_core::measures::{MeasureSet, RunOutput};
use itua_core::params::Params;
use itua_core::san_exec::{ItuaSanRunner, SanScratch};
use itua_rare::{run_tree, SplitSpec, TreeStats};
use itua_sim::rng::stream_seed;

/// Error from a backend run (model construction or simulation failure).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackendError {
    message: String,
}

impl BackendError {
    /// Creates an error with the given message.
    pub fn new(message: impl Into<String>) -> Self {
        BackendError {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for BackendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for BackendError {}

impl From<itua_san::model::SanError> for BackendError {
    fn from(e: itua_san::model::SanError) -> Self {
        BackendError::new(format!("SAN simulation failed: {e}"))
    }
}

impl From<BackendError> for std::io::Error {
    fn from(e: BackendError) -> Self {
        std::io::Error::other(e)
    }
}

impl From<AnalyticError> for BackendError {
    fn from(e: AnalyticError) -> Self {
        // `TooLarge` already carries the full "use des/san" guidance.
        BackendError::new(e.to_string())
    }
}

/// An encoding of the ITUA process that can execute one replication.
///
/// [`ItuaBackend`] is the one implementor. Implementations must be
/// deterministic functions of the arguments: given the same
/// `(seed, horizon, sample_times)`, `run` must return the same
/// [`RunOutput`] regardless of the scratch's history. That contract is
/// what lets the replication loop reuse one scratch per worker thread
/// while keeping results bit-identical for every thread count.
pub trait Backend: Sync {
    /// Reusable per-thread simulation state.
    type Scratch: Send;

    /// Creates a scratch compatible with this backend.
    fn scratch(&self) -> Self::Scratch;

    /// Runs one replication until `horizon`, sampling instant-of-time
    /// measures at `sample_times`.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError`] if the underlying simulator fails (the DES
    /// is infallible; the SAN can report stabilization livelock) or the
    /// backend is exact and simulates nothing.
    fn run(
        &self,
        seed: u64,
        horizon: f64,
        sample_times: &[f64],
        scratch: &mut Self::Scratch,
    ) -> Result<RunOutput, BackendError>;

    /// Runs the half-open replication range `reps`, appending one result
    /// per replication (in ascending index order) to `out`.
    ///
    /// Replication `rep` is seeded `stream_seed(origin_seed, rep)` and
    /// produces exactly the output [`Backend::run`] would, so outputs are
    /// bit-identical for every batch size.
    fn run_batch(
        &self,
        origin_seed: u64,
        reps: std::ops::Range<u32>,
        horizon: f64,
        sample_times: &[f64],
        scratch: &mut Self::Scratch,
        out: &mut Vec<Result<RunOutput, BackendError>>,
    ) {
        for rep in reps {
            out.push(self.run(
                stream_seed(origin_seed, u64::from(rep)),
                horizon,
                sample_times,
                scratch,
            ));
        }
    }

    /// For deterministic (exact) backends: the full measure set, computed
    /// without replication. `Some` short-circuits the replication loop;
    /// the default `None` means "simulate".
    fn exact_measures(
        &self,
        _horizon: f64,
        _sample_times: &[f64],
        _confidence: f64,
    ) -> Option<Result<MeasureSet, BackendError>> {
        None
    }

    /// A cheap structural self-check of the model, run once before the
    /// replication loop when [`ModelCheck::Quick`] is in force. The
    /// default has nothing to verify. The SAN backend verifies its
    /// expected invariants and rate sanity at the initial marking
    /// ([`itua_core::analysis::quick_check`]).
    ///
    /// # Errors
    ///
    /// Returns [`BackendError`] describing every violation found.
    fn self_check(&self) -> Result<(), BackendError> {
        Ok(())
    }
}

/// Whether the replication loop verifies the model before simulating.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ModelCheck {
    /// Run [`Backend::self_check`] once before the replication loop and
    /// refuse to simulate a model that fails it. O(places + activities)
    /// for the SAN backend — cheap enough to be the default for every
    /// sweep point.
    #[default]
    Quick,
    /// Skip the check (`--no-check`).
    Off,
}

/// Which encoding of the ITUA process executes a study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// Direct discrete-event simulation (fast; the sweep default).
    #[default]
    Des,
    /// Composed stochastic activity network (the faithful reproduction
    /// artifact; roughly an order of magnitude slower).
    San,
    /// Exact CTMC solution of the composed SAN (small configurations
    /// only; zero-variance estimates).
    Analytic,
}

impl BackendKind {
    /// All supported kinds.
    pub const ALL: [BackendKind; 3] = [BackendKind::Des, BackendKind::San, BackendKind::Analytic];

    /// Parses a CLI name (`des` / `san` / `analytic`, case-insensitive).
    pub fn parse(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "des" => Some(BackendKind::Des),
            "san" => Some(BackendKind::San),
            "analytic" => Some(BackendKind::Analytic),
            _ => None,
        }
    }

    /// The CLI name.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Des => "des",
            BackendKind::San => "san",
            BackendKind::Analytic => "analytic",
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Options for backend construction that are not model parameters.
///
/// The state budget and thread count never influence results — only
/// whether a backend accepts a configuration and how fast it solves — so
/// they stay out of sweep fingerprints. [`BackendOptions::analytic_lump`]
/// selects the exact symmetry quotient: the measures are identical in
/// exact arithmetic but the chain differs, so the sweep fingerprint
/// records it (see `itua-studies`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackendOptions {
    /// State-space bound for the analytic backend; `None` uses the
    /// per-mode default ([`ItuaAnalytic::DEFAULT_MAX_STATES_LUMPED`] when
    /// lumping, [`ItuaAnalytic::DEFAULT_MAX_STATES`] otherwise).
    pub analytic_max_states: Option<usize>,
    /// Solve the analytic backend on the symmetry-lumped chain (exact;
    /// the default).
    pub analytic_lump: bool,
    /// Worker threads for the analytic state-space generation and
    /// uniformization kernel (results are bit-identical at any count).
    pub analytic_threads: usize,
}

impl Default for BackendOptions {
    fn default() -> Self {
        BackendOptions {
            analytic_max_states: None,
            analytic_lump: true,
            analytic_threads: 1,
        }
    }
}

impl BackendOptions {
    /// The [`AnalyticOptions`] these backend options select.
    pub fn analytic_options(&self) -> AnalyticOptions {
        AnalyticOptions {
            max_states: self.analytic_max_states.unwrap_or(if self.analytic_lump {
                ItuaAnalytic::DEFAULT_MAX_STATES_LUMPED
            } else {
                ItuaAnalytic::DEFAULT_MAX_STATES
            }),
            lump: self.analytic_lump,
            threads: self.analytic_threads.max(1),
        }
    }
}

/// The [`Backend`]: any ITUA encoding, chosen at runtime, behind one type.
pub enum ItuaBackend {
    /// Direct DES.
    Des(ItuaDes),
    /// Composed SAN.
    San(ItuaSanRunner),
    /// Exact CTMC solution.
    Analytic(ItuaAnalytic),
}

/// Scratch for [`ItuaBackend`]. The payloads are boxed: a scratch lives
/// for a whole worker thread, so one allocation per worker is free, and
/// boxing keeps the enum small. The analytic backend never runs
/// replications, so its scratch is empty.
pub enum ItuaScratch {
    /// Scratch for the DES backend.
    Des(Box<DesScratch>),
    /// Scratch for the SAN backend.
    San(Box<SanScratch>),
    /// Scratch for the analytic backend (stateless).
    Analytic,
}

impl ItuaBackend {
    /// Builds the chosen encoding for `params` with default
    /// [`BackendOptions`].
    ///
    /// # Errors
    ///
    /// Returns [`BackendError`] for invalid parameters or model
    /// construction failures.
    pub fn for_params(kind: BackendKind, params: &Params) -> Result<Self, BackendError> {
        Self::for_params_with(kind, params, &BackendOptions::default())
    }

    /// Builds the chosen encoding for `params`.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError`] for invalid parameters or model
    /// construction failures — including, for the analytic backend, a
    /// configuration whose state space exceeds
    /// [`BackendOptions::analytic_max_states`].
    pub fn for_params_with(
        kind: BackendKind,
        params: &Params,
        opts: &BackendOptions,
    ) -> Result<Self, BackendError> {
        match kind {
            BackendKind::Des => ItuaDes::new(params.clone())
                .map(ItuaBackend::Des)
                .map_err(|e| BackendError::new(format!("invalid parameters: {e}"))),
            BackendKind::San => ItuaSanRunner::new(params)
                .map(ItuaBackend::San)
                .map_err(|e| BackendError::new(format!("SAN build failed: {e}"))),
            BackendKind::Analytic => ItuaAnalytic::with_options(params, &opts.analytic_options())
                .map(ItuaBackend::Analytic)
                .map_err(Into::into),
        }
    }

    /// Which encoding this is.
    pub fn kind(&self) -> BackendKind {
        match self {
            ItuaBackend::Des(_) => BackendKind::Des,
            ItuaBackend::San(_) => BackendKind::San,
            ItuaBackend::Analytic(_) => BackendKind::Analytic,
        }
    }

    /// Sets the horizon and sample schedule of the trees `scratch` roots
    /// next; a batch of trees shares them.
    ///
    /// # Panics
    ///
    /// Panics if `scratch` belongs to another kind of backend, or if a
    /// simulator gets a horizon that is not positive and finite.
    pub(crate) fn prepare(&self, horizon: f64, sample_times: &[f64], scratch: &mut ItuaScratch) {
        match (self, scratch) {
            (ItuaBackend::Des(b), ItuaScratch::Des(s)) => b.prepare(horizon, sample_times, s),
            (ItuaBackend::San(b), ItuaScratch::San(s)) => b.prepare(horizon, sample_times, s),
            (ItuaBackend::Analytic(_), ItuaScratch::Analytic) => {}
            _ => panic!("scratch kind does not match backend kind"),
        }
    }

    /// Runs the RESTART tree of the replication seeded `seed` under
    /// `spec`, rooted in `scratch` on the schedule of the last
    /// [`ItuaBackend::prepare`], and appends one `(weight, output)` pair
    /// per surviving leaf to `leaves`. With an empty spec the tree is the
    /// plain replication: one weight-1 leaf.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError`] for the analytic backend (exact, nothing
    /// to simulate) or a SAN stabilization livelock.
    ///
    /// # Panics
    ///
    /// Panics if `scratch` belongs to another kind of backend.
    pub(crate) fn tree(
        &self,
        seed: u64,
        spec: &SplitSpec,
        scratch: &mut ItuaScratch,
        leaves: &mut Vec<(f64, RunOutput)>,
    ) -> Result<TreeStats, BackendError> {
        match (self, scratch) {
            (ItuaBackend::Des(b), ItuaScratch::Des(s)) => {
                b.begin(seed, s);
                let Ok(stats) = run_tree(&mut **s, seed, spec, leaves);
                Ok(stats)
            }
            (ItuaBackend::San(b), ItuaScratch::San(s)) => {
                b.begin(seed, s)?;
                Ok(run_tree(&mut **s, seed, spec, leaves)?)
            }
            (ItuaBackend::Analytic(_), ItuaScratch::Analytic) => Err(BackendError::new(
                "analytic backend is exact and simulates nothing; the replication \
                 loop short-circuits through exact_measures",
            )),
            _ => panic!("scratch kind does not match backend kind"),
        }
    }
}

impl Backend for ItuaBackend {
    type Scratch = ItuaScratch;

    fn scratch(&self) -> ItuaScratch {
        match self {
            ItuaBackend::Des(b) => ItuaScratch::Des(Box::new(b.scratch())),
            ItuaBackend::San(b) => ItuaScratch::San(Box::new(b.scratch())),
            ItuaBackend::Analytic(_) => ItuaScratch::Analytic,
        }
    }

    /// The one-leaf tree of [`ItuaBackend::tree`] under an empty spec.
    fn run(
        &self,
        seed: u64,
        horizon: f64,
        sample_times: &[f64],
        scratch: &mut ItuaScratch,
    ) -> Result<RunOutput, BackendError> {
        self.prepare(horizon, sample_times, scratch);
        let mut leaves = Vec::with_capacity(1);
        self.tree(seed, &SplitSpec::none(), scratch, &mut leaves)?;
        let (_, out) = leaves
            .pop()
            .expect("a tree without thresholds has one leaf");
        Ok(out)
    }

    fn exact_measures(
        &self,
        horizon: f64,
        sample_times: &[f64],
        confidence: f64,
    ) -> Option<Result<MeasureSet, BackendError>> {
        match self {
            ItuaBackend::Des(_) | ItuaBackend::San(_) => None,
            ItuaBackend::Analytic(b) => Some(
                b.solve(horizon, sample_times, confidence)
                    .map_err(Into::into),
            ),
        }
    }

    fn self_check(&self) -> Result<(), BackendError> {
        match self {
            ItuaBackend::Des(_) | ItuaBackend::Analytic(_) => Ok(()),
            ItuaBackend::San(b) => itua_core::analysis::quick_check(b.model()).map_err(|e| {
                BackendError::new(format!(
                    "SAN model failed its structural self-check (pass --no-check to \
                     simulate anyway):\n{e}"
                ))
            }),
        }
    }
}

/// Runs `replications` independent replications of `backend` and reduces
/// them into a [`MeasureSet`] at the given confidence level: the
/// replication loop ([`run_measures_split`]) with an empty spec under
/// [`ModelCheck::Quick`].
///
/// Replication `i` is seeded with `stream_seed(origin_seed, i)`; outputs
/// are recorded in replication order on the calling thread, so the result
/// is bit-identical for every thread count and batch size in `runner`.
/// Each worker thread allocates one scratch and reuses it for all its
/// replications.
///
/// An exact backend (one whose [`Backend::exact_measures`] returns `Some`)
/// skips the replication loop entirely: its zero-variance measure set is
/// returned as one deterministic "replication", independent of
/// `replications`, `origin_seed`, and thread count.
///
/// # Errors
///
/// As [`run_measures_split`]: a bad horizon or sample time, a failed
/// model check, fewer than two replications on a simulating backend, or
/// the first (in replication order) [`BackendError`] any replication
/// produced.
///
/// # Example
///
/// ```
/// use itua_core::params::Params;
/// use itua_runner::backend::{run_measures, BackendKind, ItuaBackend};
/// use itua_runner::engine::RunnerConfig;
/// use itua_runner::progress::NullProgress;
///
/// let params = Params::default().with_domains(4, 2).with_applications(2, 3);
/// let backend = ItuaBackend::for_params(BackendKind::Des, &params).unwrap();
/// let ms = run_measures(
///     &backend,
///     50,
///     0.95,
///     42,
///     5.0,
///     &[5.0],
///     &RunnerConfig::default(),
///     &NullProgress,
/// )
/// .unwrap();
/// assert!(ms.mean(itua_core::measures::names::UNAVAILABILITY).is_some());
/// ```
#[expect(
    clippy::too_many_arguments,
    reason = "public entry point: each argument is an independent run setting"
)]
pub fn run_measures(
    backend: &ItuaBackend,
    replications: u32,
    confidence: f64,
    origin_seed: u64,
    horizon: f64,
    sample_times: &[f64],
    runner: &RunnerConfig,
    progress: &dyn Progress,
) -> Result<MeasureSet, BackendError> {
    run_measures_split(
        backend,
        replications,
        confidence,
        origin_seed,
        horizon,
        sample_times,
        &SplitSpec::none(),
        runner,
        progress,
        ModelCheck::Quick,
    )
    .map(|run| run.measures)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::progress::NullProgress;

    fn small_params() -> Params {
        Params::default().with_domains(4, 2).with_applications(2, 3)
    }

    /// A configuration small enough for the analytic backend even in
    /// debug builds (spread disabled keeps the state space tiny).
    fn micro_params() -> Params {
        let mut p = Params::default().with_domains(1, 2).with_applications(1, 2);
        p.spread_rate_domain = 0.0;
        p.spread_rate_system = 0.0;
        p
    }

    #[test]
    fn kind_parses_and_prints() {
        assert_eq!(BackendKind::parse("des"), Some(BackendKind::Des));
        assert_eq!(BackendKind::parse("SAN"), Some(BackendKind::San));
        assert_eq!(BackendKind::parse("Analytic"), Some(BackendKind::Analytic));
        assert_eq!(BackendKind::parse("ctmc"), None);
        assert_eq!(BackendKind::Des.to_string(), "des");
        assert_eq!(BackendKind::San.to_string(), "san");
        assert_eq!(BackendKind::Analytic.to_string(), "analytic");
        assert_eq!(BackendKind::default(), BackendKind::Des);
    }

    #[test]
    fn des_measures_are_thread_count_invariant() {
        let backend = ItuaBackend::for_params(BackendKind::Des, &small_params()).unwrap();
        let reference = run_measures(
            &backend,
            64,
            0.95,
            7,
            5.0,
            &[5.0],
            &RunnerConfig::serial(),
            &NullProgress,
        )
        .unwrap();
        for threads in [2, 4, 8] {
            let got = run_measures(
                &backend,
                64,
                0.95,
                7,
                5.0,
                &[5.0],
                &RunnerConfig::default().with_threads(threads),
                &NullProgress,
            )
            .unwrap();
            assert_eq!(got.estimates(), reference.estimates(), "threads={threads}");
        }
    }

    #[test]
    fn san_measures_are_thread_count_invariant() {
        let backend = ItuaBackend::for_params(BackendKind::San, &small_params()).unwrap();
        let reference = run_measures(
            &backend,
            16,
            0.95,
            7,
            3.0,
            &[3.0],
            &RunnerConfig::serial(),
            &NullProgress,
        )
        .unwrap();
        let got = run_measures(
            &backend,
            16,
            0.95,
            7,
            3.0,
            &[3.0],
            &RunnerConfig::default().with_threads(4),
            &NullProgress,
        )
        .unwrap();
        assert_eq!(got.estimates(), reference.estimates());
    }

    #[test]
    fn san_measures_are_batch_size_invariant() {
        // Batching is purely an amortisation knob: for any batch size
        // (and any batch × thread combination) the estimates are
        // bit-identical to the unbatched serial run.
        let backend = ItuaBackend::for_params(BackendKind::San, &small_params()).unwrap();
        let run = |rc: &RunnerConfig| {
            run_measures(&backend, 24, 0.95, 7, 3.0, &[3.0], rc, &NullProgress)
                .unwrap()
                .estimates()
        };
        let reference = run(&RunnerConfig::serial().with_batch_size(1));
        for batch in [1, 4, 32] {
            for threads in [1, 4] {
                let rc = RunnerConfig::default()
                    .with_threads(threads)
                    .with_batch_size(batch);
                assert_eq!(run(&rc), reference, "batch={batch} threads={threads}");
            }
        }
    }

    #[test]
    fn both_simulation_backends_estimate_the_same_measures() {
        let params = small_params();
        // Only the simulation backends: this configuration's state space
        // is far beyond what the analytic backend accepts (by design —
        // see analytic_rejects_large_configs_gracefully).
        for kind in [BackendKind::Des, BackendKind::San] {
            let backend = ItuaBackend::for_params(kind, &params).unwrap();
            assert_eq!(backend.kind(), kind);
            let ms = run_measures(
                &backend,
                8,
                0.95,
                1,
                2.0,
                &[2.0],
                &RunnerConfig::serial(),
                &NullProgress,
            )
            .unwrap();
            assert!(
                ms.mean(itua_core::measures::names::UNAVAILABILITY)
                    .is_some(),
                "{kind}"
            );
        }
    }

    #[test]
    fn analytic_short_circuits_with_exact_estimates() {
        let backend = ItuaBackend::for_params(BackendKind::Analytic, &micro_params()).unwrap();
        assert_eq!(backend.kind(), BackendKind::Analytic);
        let ms = run_measures(
            &backend,
            1000, // ignored: one exact solve, not a thousand replications
            0.95,
            1,
            5.0,
            &[5.0],
            &RunnerConfig::serial(),
            &NullProgress,
        )
        .unwrap();
        let estimates = ms.estimates();
        assert!(!estimates.is_empty());
        for e in &estimates {
            assert_eq!(e.ci.half_width, 0.0, "{} is not exact", e.name);
        }
    }

    #[test]
    fn analytic_measures_are_invariant_in_threads_seed_and_replications() {
        let backend = ItuaBackend::for_params(BackendKind::Analytic, &micro_params()).unwrap();
        let run = |reps, seed, cfg: &RunnerConfig| {
            run_measures(&backend, reps, 0.95, seed, 5.0, &[5.0], cfg, &NullProgress)
                .unwrap()
                .estimates()
        };
        let reference = run(16, 7, &RunnerConfig::serial());
        assert_eq!(
            run(16, 7, &RunnerConfig::default().with_threads(8)),
            reference
        );
        assert_eq!(run(500, 99, &RunnerConfig::serial()), reference);
    }

    #[test]
    fn analytic_rejects_large_configs_gracefully() {
        // Figure-4 scale: 4 domains × 3 hosts with default spread rates is
        // far past any reasonable state bound. A small cap makes the
        // rejection fast without changing its nature.
        let params = Params::default().with_domains(4, 3).with_applications(4, 7);
        let opts = BackendOptions {
            analytic_max_states: Some(2_000),
            analytic_lump: false,
            analytic_threads: 1,
        };
        let Err(err) = ItuaBackend::for_params_with(BackendKind::Analytic, &params, &opts) else {
            panic!("figure-4-scale config must be rejected")
        };
        let msg = err.to_string();
        assert!(
            msg.contains("analytic backend supports ≤2000 states"),
            "{msg}"
        );
        assert!(msg.contains("use des/san"), "{msg}");
    }

    #[test]
    fn lumped_and_unlumped_backends_agree_on_micro_config() {
        let lumped = BackendOptions::default();
        assert!(lumped.analytic_lump);
        let unlumped = BackendOptions {
            analytic_lump: false,
            ..lumped
        };
        let run = |opts: &BackendOptions| {
            let backend =
                ItuaBackend::for_params_with(BackendKind::Analytic, &micro_params(), opts).unwrap();
            run_measures(
                &backend,
                1,
                0.95,
                0,
                5.0,
                &[2.5, 5.0],
                &RunnerConfig::serial(),
                &NullProgress,
            )
            .unwrap()
        };
        let a = run(&lumped);
        let b = run(&unlumped);
        let ea = a.estimates();
        let eb = b.estimates();
        assert_eq!(ea.len(), eb.len());
        for (x, y) in ea.iter().zip(&eb) {
            assert_eq!(x.name, y.name);
            let denom = x.ci.mean.abs().max(1e-12);
            assert!(
                ((x.ci.mean - y.ci.mean) / denom).abs() < 1e-9,
                "{}: lumped {} vs unlumped {}",
                x.name,
                x.ci.mean,
                y.ci.mean
            );
        }
    }

    #[test]
    fn san_self_check_passes_and_check_modes_agree() {
        let backend = ItuaBackend::for_params(BackendKind::San, &small_params()).unwrap();
        backend.self_check().unwrap();
        let run = |check| {
            run_measures_split(
                &backend,
                4,
                0.95,
                1,
                2.0,
                &[2.0],
                &SplitSpec::none(),
                &RunnerConfig::serial(),
                &NullProgress,
                check,
            )
            .unwrap()
            .measures
            .estimates()
        };
        // The check only gates; it must not influence the estimates.
        assert_eq!(run(ModelCheck::Quick), run(ModelCheck::Off));
    }

    #[test]
    fn run_batch_matches_per_replication_runs() {
        // `run` and `run_batch` are one-leaf trees rooted in the scratch:
        // any way of cutting the replication range into batches gives the
        // outputs of one `run` per replication with the same stream seeds.
        for kind in [BackendKind::Des, BackendKind::San] {
            let backend = ItuaBackend::for_params(kind, &small_params()).unwrap();
            let (origin, reps) = (0xABCD, 12u32);
            let mut scratch = backend.scratch();
            let reference: Vec<RunOutput> = (0..reps)
                .map(|rep| {
                    let seed = stream_seed(origin, u64::from(rep));
                    backend.run(seed, 5.0, &[1.0, 5.0], &mut scratch).unwrap()
                })
                .collect();
            for batch in [1u32, 4, 32] {
                let mut out = Vec::new();
                let mut start = 0;
                while start < reps {
                    let end = (start + batch).min(reps);
                    backend.run_batch(origin, start..end, 5.0, &[1.0, 5.0], &mut scratch, &mut out);
                    start = end;
                }
                let got: Vec<RunOutput> = out.into_iter().map(Result::unwrap).collect();
                assert_eq!(got, reference, "{kind} batch={batch}");
            }
        }
    }

    #[test]
    fn analytic_backend_refuses_to_run_a_replication() {
        let backend = ItuaBackend::for_params(BackendKind::Analytic, &micro_params()).unwrap();
        let mut scratch = backend.scratch();
        let err = backend.run(1, 5.0, &[5.0], &mut scratch).unwrap_err();
        assert!(err.to_string().contains("simulates nothing"), "{err}");
    }

    #[test]
    fn des_and_analytic_self_checks_are_trivially_ok() {
        let des = ItuaBackend::for_params(BackendKind::Des, &small_params()).unwrap();
        let analytic = ItuaBackend::for_params(BackendKind::Analytic, &micro_params()).unwrap();
        assert!(des.self_check().is_ok());
        assert!(analytic.self_check().is_ok());
    }

    #[test]
    fn invalid_params_surface_as_backend_error() {
        let bad = Params::default().with_domains(0, 1);
        for kind in BackendKind::ALL {
            assert!(ItuaBackend::for_params(kind, &bad).is_err(), "{kind}");
        }
    }
}
