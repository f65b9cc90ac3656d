//! Executes the composed ITUA SAN and reduces each run to the same
//! [`RunOutput`] record the direct DES produces.
//!
//! This is the glue that lets the SAN encoding ride the generic experiment
//! pipeline: [`ItuaSanRunner`] owns the flattened model plus a
//! [`SanSimulator`], and [`ItuaSanRunner::begin`] starts one replication
//! on a [`SanScratch`], the RESTART branch the runner steps. Every event
//! goes through a measure observer that tracks improper-service time,
//! Byzantine faults, exclusions, and instant-of-time snapshots — the exact
//! measure definitions of [`crate::measures`].
//!
//! One known semantic gap, inherent to the SAN encoding: the
//! "fraction of corrupt hosts at exclusion" measure counts host-OS and
//! manager corruption, but cannot attribute a convicted *replica*'s
//! corruption to its host (the replica submodel leaves the host before the
//! exclusion cascade reaches it). It therefore slightly undercounts
//! relative to the DES. Cross-backend validation compares the measures
//! that agree exactly in distribution (unavailability, unreliability,
//! excluded-domain fractions).

use crate::des::clamp_sample_times;
use crate::measures::{RunOutput, Snapshot};
use crate::params::Params;
use crate::san_model::{self, BuildError, ItuaSan, ItuaSanPlaces};
use itua_rare::SplitBranch;
use itua_san::marking::Marking;
use itua_san::model::{ActivityId, SanError};
use itua_san::simulator::{Observer, RunCursor, SanSimulator, SimScratch};
use itua_stats::timeweighted::TimeWeighted;

/// Runs the composed ITUA SAN as a replication backend producing
/// [`RunOutput`]s.
#[derive(Debug, Clone)]
pub struct ItuaSanRunner {
    model: ItuaSan,
    sim: SanSimulator,
}

/// Reusable per-thread state, and the root branch of a RESTART tree: the
/// simulator's [`SimScratch`] plus the measure observer, whose buffers are
/// reset (not reallocated) for every replication, and the cursor of the
/// run in flight.
///
/// Between [`ItuaSanRunner::begin`] and [`itua_rare::SplitBranch::finish`]
/// the scratch is one in-flight trajectory: `itua_rare::run_tree` steps it
/// in place, and `Clone` copies the full mid-run state when a split forks
/// it.
#[derive(Clone)]
pub struct SanScratch {
    simulator: SanSimulator,
    sim: SimScratch,
    observer: MeasureObserver,
    /// `None` until the first [`ItuaSanRunner::begin`].
    cursor: Option<RunCursor>,
    horizon: f64,
}

impl ItuaSanRunner {
    /// Builds the composed SAN for `params` and wraps it in a runner.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] for invalid parameters or construction
    /// failures.
    pub fn new(params: &Params) -> Result<Self, BuildError> {
        Ok(Self::from_model(san_model::build(params)?))
    }

    /// Wraps an already-built model.
    pub fn from_model(model: ItuaSan) -> Self {
        let sim = SanSimulator::new(model.san.clone());
        ItuaSanRunner { model, sim }
    }

    /// The parameter set the model was built from.
    pub fn params(&self) -> &Params {
        &self.model.params
    }

    /// The underlying model and its resolved measure places.
    pub fn model(&self) -> &ItuaSan {
        &self.model
    }

    /// Creates a reusable scratch for [`ItuaSanRunner::run_into`] and
    /// [`ItuaSanRunner::begin`].
    pub fn scratch(&self) -> SanScratch {
        SanScratch {
            simulator: self.sim.clone(),
            sim: self.sim.scratch(),
            observer: MeasureObserver::new(&self.model),
            cursor: None,
            horizon: 0.0,
        }
    }

    /// Runs one replication until `horizon`, sampling instant-of-time
    /// measures at `sample_times` (values beyond the horizon are clamped
    /// to it), reusing `scratch`'s allocations.
    ///
    /// # Errors
    ///
    /// Returns [`SanError::Unstabilized`] if instantaneous activities
    /// livelock (indicates a model bug, not a statistical event).
    ///
    /// # Panics
    ///
    /// Panics if `horizon` is not positive and finite.
    pub fn run_into(
        &self,
        seed: u64,
        horizon: f64,
        sample_times: &[f64],
        scratch: &mut SanScratch,
    ) -> Result<RunOutput, SanError> {
        self.prepare(horizon, sample_times, scratch);
        self.begin(seed, scratch)?;
        while scratch.step()? {}
        Ok(scratch.finish())
    }

    /// Runs one replication with a fresh scratch; see
    /// [`ItuaSanRunner::run_into`].
    ///
    /// # Errors
    ///
    /// Returns [`SanError::Unstabilized`] if instantaneous activities
    /// livelock.
    pub fn run(
        &self,
        seed: u64,
        horizon: f64,
        sample_times: &[f64],
    ) -> Result<RunOutput, SanError> {
        let mut scratch = self.scratch();
        self.run_into(seed, horizon, sample_times, &mut scratch)
    }

    /// Sets the horizon and the sample schedule of the runs `scratch`
    /// starts next, with the same clamp/filter/sort/dedup the DES applies.
    /// Every replication of a batch shares them, so a batch prepares once.
    ///
    /// # Panics
    ///
    /// Panics if `horizon` is not positive and finite.
    pub fn prepare(&self, horizon: f64, sample_times: &[f64], scratch: &mut SanScratch) {
        assert!(horizon > 0.0 && horizon.is_finite(), "bad horizon");
        // A scratch may come from another runner of the same structure
        // (other rates); its runs step under this one's model.
        scratch.simulator.clone_from(&self.sim);
        scratch.observer.prepare_samples(horizon, sample_times);
        scratch.horizon = horizon;
    }

    /// Resets `scratch` to the time-zero state of the replication seeded
    /// `seed`, on the horizon and sample schedule of the last
    /// [`ItuaSanRunner::prepare`]: initial marking stabilized, observer
    /// `on_init` delivered, initial schedule drawn, no timed event fired
    /// yet. The scratch is then the root branch of the replication's
    /// RESTART tree.
    ///
    /// # Errors
    ///
    /// Returns [`SanError::Unstabilized`] if the initial instantaneous
    /// cascade livelocks.
    ///
    /// # Panics
    ///
    /// Panics if `scratch` was created for a structurally different model.
    pub fn begin(&self, seed: u64, scratch: &mut SanScratch) -> Result<(), SanError> {
        let cursor = self.sim.begin_run(
            seed,
            scratch.horizon,
            &mut scratch.observer,
            &mut scratch.sim,
        )?;
        scratch.cursor = Some(cursor);
        Ok(())
    }
}

/// The panic message of a scratch stepped before its first
/// [`ItuaSanRunner::begin`].
const NOT_BEGUN: &str = "no run has begun on this scratch";

/// A SAN run as one RESTART branch. Its importance level is the number of
/// security domains that are excluded or currently house a compromised
/// host OS or a corrupt ITUA manager: the SAN analogue of the DES level.
/// Replica-only corruption is not attributable to a domain in the SAN
/// encoding (replica submodels are anonymous), so a domain whose only
/// corruption is an intruded replica does not raise the level here. The
/// level only steers the splitting effort: the discrepancy affects
/// variance, never the estimate's expectation.
impl SplitBranch for SanScratch {
    type Output = RunOutput;
    type Error = SanError;

    /// Advances the run by one event through the simulator's
    /// [`SanSimulator::step_run`].
    fn step(&mut self) -> Result<bool, SanError> {
        let cursor = self.cursor.as_mut().expect(NOT_BEGUN);
        self.simulator
            .step_run(self.horizon, &mut self.observer, &mut self.sim, cursor)
    }

    fn level(&self) -> u32 {
        let (p, marking) = (&self.observer.places, self.sim.marking());
        (0..p.domain_excluded.len())
            .filter(|&d| {
                marking.get(p.domain_excluded[d]) > 0
                    || marking.get(p.domain_corrupt_hosts[d]) > 0
                    || marking.get(p.domain_mgrs_corrupt[d]) > 0
            })
            .count() as u32
    }

    fn reseed(&mut self, seed: u64) {
        let cursor = self.cursor.as_mut().expect(NOT_BEGUN);
        cursor.reseed(seed);
        // Decorrelate this branch from its siblings: redraw the pending
        // completion times (memoryless, so the trajectory law given the
        // cloned marking is unchanged) from the new stream.
        self.simulator.resample_pending(&mut self.sim, cursor);
    }

    fn survives(&mut self, p: f64) -> bool {
        self.cursor.as_mut().expect(NOT_BEGUN).survives(p)
    }

    fn finish(&mut self) -> RunOutput {
        self.observer.take_output(self.horizon)
    }
}

/// Observer that evaluates the DES-equivalent measures on the SAN marking.
#[derive(Clone)]
struct MeasureObserver {
    places: ItuaSanPlaces,
    num_apps: usize,
    num_domains: usize,
    hosts_per_domain: usize,
    samples: Vec<f64>,
    improper: Vec<TimeWeighted>,
    byzantine: Vec<bool>,
    first_byzantine_time: Option<f64>,
    first_improper_time: Option<f64>,
    excluded_seen: i32,
    domain_recorded: Vec<bool>,
    exclusion_fractions: Vec<f64>,
    snapshots: Vec<Snapshot>,
}

impl MeasureObserver {
    fn new(model: &ItuaSan) -> Self {
        MeasureObserver {
            places: model.places.clone(),
            num_apps: model.params.num_apps,
            num_domains: model.params.num_domains,
            hosts_per_domain: model.params.hosts_per_domain,
            samples: Vec::new(),
            improper: Vec::new(),
            byzantine: Vec::new(),
            first_byzantine_time: None,
            first_improper_time: None,
            excluded_seen: 0,
            domain_recorded: Vec::new(),
            exclusion_fractions: Vec::new(),
            snapshots: Vec::new(),
        }
    }

    /// Prepares the sample-time schedule, shared by every replication of
    /// a batch: the DES's [`clamp_sample_times`].
    fn prepare_samples(&mut self, horizon: f64, sample_times: &[f64]) {
        clamp_sample_times(sample_times, horizon, &mut self.samples);
    }

    fn update(&mut self, time: f64, marking: &Marking) {
        for a in 0..self.improper.len() {
            let improper = self.places.improper(marking, a);
            let byz = self.places.byzantine(marking, a);
            if improper && self.first_improper_time.is_none() && time > 0.0 {
                self.first_improper_time = Some(time);
            }
            if byz && self.first_byzantine_time.is_none() {
                self.first_byzantine_time = Some(time);
            }
            self.improper[a].set(time, if improper { 1.0 } else { 0.0 });
            if byz {
                self.byzantine[a] = true;
            }
        }
        // Record newly completed domain exclusions.
        let excluded = marking.get(self.places.excluded_domains);
        if excluded > self.excluded_seen {
            self.excluded_seen = excluded;
            for d in 0..self.num_domains {
                if !self.domain_recorded[d] && marking.get(self.places.domain_excluded[d]) == 1 {
                    self.domain_recorded[d] = true;
                    let corrupt = marking.get(self.places.domain_excl_corrupt[d]);
                    self.exclusion_fractions
                        .push(corrupt as f64 / self.hosts_per_domain as f64);
                }
            }
        }
    }

    /// Extracts the run's measures. Accumulator vectors are moved out (the
    /// output owns them anyway); the next run's `on_init` rebuilds them.
    fn take_output(&mut self, horizon: f64) -> RunOutput {
        RunOutput {
            horizon,
            improper_time_per_app: self
                .improper
                .iter()
                .map(|tw| tw.integral_until(horizon))
                .collect(),
            byzantine_per_app: std::mem::take(&mut self.byzantine),
            exclusion_corrupt_fractions: std::mem::take(&mut self.exclusion_fractions),
            snapshots: std::mem::take(&mut self.snapshots),
            first_byzantine_time: self.first_byzantine_time,
            first_improper_time: self.first_improper_time,
        }
    }
}

impl Observer for MeasureObserver {
    /// Starts a replication: resets the per-replication accumulators,
    /// reusing every buffer and leaving the sample schedule in place
    /// (`take_output` may have drained some vectors; `resize` after
    /// `clear` restores their length either way), then observes the
    /// stabilized initial marking.
    fn on_init(&mut self, time: f64, marking: &Marking) {
        self.improper.clear();
        self.improper
            .resize(self.num_apps, TimeWeighted::new(0.0, 1.0));
        self.byzantine.clear();
        self.byzantine.resize(self.num_apps, false);
        self.first_byzantine_time = None;
        self.first_improper_time = None;
        self.excluded_seen = 0;
        self.domain_recorded.clear();
        self.domain_recorded.resize(self.num_domains, false);
        self.exclusion_fractions.clear();
        self.snapshots.clear();
        self.update(time, marking);
    }

    fn on_event(&mut self, time: f64, _activity: ActivityId, marking: &Marking) {
        self.update(time, marking);
    }

    fn append_sample_times(&self, out: &mut Vec<f64>) {
        out.extend_from_slice(&self.samples);
    }

    fn on_sample(&mut self, time: f64, marking: &Marking) {
        self.snapshots.push(self.places.snapshot(time, marking));
    }

    fn on_end(&mut self, time: f64, marking: &Marking) {
        self.update(time, marking);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measures::names;
    use crate::measures::MeasureSet;

    fn small_params() -> Params {
        Params::default().with_domains(3, 2).with_applications(2, 3)
    }

    #[test]
    fn run_is_reproducible_and_scratch_reuse_is_exact() {
        let runner = ItuaSanRunner::new(&small_params()).unwrap();
        let mut scratch = runner.scratch();
        for seed in 0..10 {
            let reused = runner
                .run_into(seed, 5.0, &[1.0, 5.0], &mut scratch)
                .unwrap();
            let fresh = runner.run(seed, 5.0, &[1.0, 5.0]).unwrap();
            assert_eq!(reused, fresh, "seed {seed}");
        }
    }

    #[test]
    fn scratch_reuse_is_exact_across_heterogeneous_runs() {
        // Interleave horizons and sample grids of different lengths so a
        // stale buffer from the previous replication (longer snapshot
        // list, different sample times, leftover exclusion fractions)
        // would corrupt the next output if reset missed anything.
        let runner = ItuaSanRunner::new(&small_params()).unwrap();
        let mut scratch = runner.scratch();
        let configs: [(f64, &[f64]); 3] = [
            (5.0, &[1.0, 5.0]),
            (10.0, &[2.0, 4.0, 6.0, 10.0]),
            (2.0, &[]),
        ];
        for round in 0..4 {
            for (i, &(horizon, samples)) in configs.iter().enumerate() {
                let seed = round * 100 + i as u64;
                let reused = runner
                    .run_into(seed, horizon, samples, &mut scratch)
                    .unwrap();
                let fresh = runner.run(seed, horizon, samples).unwrap();
                assert_eq!(reused, fresh, "round {round}, config {i}");
                assert_eq!(reused.snapshots.len(), samples.len());
            }
        }
    }

    /// Runs the tree seeded `seed` under `spec` rooted in `root`.
    fn tree(
        runner: &ItuaSanRunner,
        root: &mut SanScratch,
        seed: u64,
        spec: &itua_rare::SplitSpec,
    ) -> (itua_rare::TreeStats, Vec<(f64, RunOutput)>) {
        runner.begin(seed, root).unwrap();
        let mut leaves = Vec::new();
        let stats = itua_rare::run_tree(root, seed, spec, &mut leaves).unwrap();
        (stats, leaves)
    }

    #[test]
    fn scratch_root_without_splits_matches_plain_run() {
        // A tree with an empty spec rooted in a reused scratch is the
        // plain replication: one weight-1 leaf, bit-identical to
        // ItuaSanRunner::run (root branch, no reseed, no roulette draws).
        let runner = ItuaSanRunner::new(&small_params()).unwrap();
        let mut root = runner.scratch();
        runner.prepare(5.0, &[1.0, 5.0], &mut root);
        for seed in 0..15u64 {
            let plain = runner.run(seed, 5.0, &[1.0, 5.0]).unwrap();
            let (stats, leaves) = tree(&runner, &mut root, seed, &itua_rare::SplitSpec::none());
            assert_eq!(stats.branches, 1);
            assert_eq!(leaves.len(), 1);
            assert_eq!(leaves[0].0, 1.0);
            assert_eq!(leaves[0].1, plain, "seed {seed}");
        }
    }

    #[test]
    fn scratch_root_with_splits_produces_weighted_leaves() {
        // Trees rooted in one reused scratch, split or not before, match
        // trees rooted in a fresh scratch: the reset after a split is
        // complete.
        let runner = ItuaSanRunner::new(&small_params()).unwrap();
        let spec: itua_rare::SplitSpec = "1x4".parse().unwrap();
        let mut root = runner.scratch();
        runner.prepare(5.0, &[5.0], &mut root);
        let mut split_trees = 0u32;
        for seed in 0..30u64 {
            let (stats, leaves) = tree(&runner, &mut root, seed, &spec);
            let mut fresh = runner.scratch();
            runner.prepare(5.0, &[5.0], &mut fresh);
            assert_eq!(
                tree(&runner, &mut fresh, seed, &spec),
                (stats, leaves.clone()),
                "seed {seed}"
            );
            if stats.branches > 1 {
                split_trees += 1;
            }
            for &(w, ref out) in &leaves {
                assert!(w > 0.0 && w <= 1.0);
                assert!(out.unavailability(5.0) >= 0.0);
            }
            assert_eq!(leaves.len() as u32, stats.leaves);
        }
        assert!(split_trees > 0, "no tree ever crossed level 1");
    }

    #[test]
    fn outputs_are_well_formed() {
        let runner = ItuaSanRunner::new(&small_params()).unwrap();
        let mut scratch = runner.scratch();
        let mut ms = MeasureSet::new(0.95);
        for seed in 0..40 {
            let out = runner
                .run_into(seed, 5.0, &[2.0, 5.0], &mut scratch)
                .unwrap();
            assert_eq!(out.snapshots.len(), 2);
            assert_eq!(out.improper_time_per_app.len(), 2);
            let u = out.unavailability(5.0);
            assert!((0.0..=1.0).contains(&u), "seed {seed}: {u}");
            for &f in &out.exclusion_corrupt_fractions {
                assert!((0.0..=1.0).contains(&f), "seed {seed}: {f}");
            }
            for s in &out.snapshots {
                assert!((0.0..=1.0).contains(&s.frac_domains_excluded));
                assert!(s.mean_replicas_running >= 0.0);
                assert!(s.load_per_host >= 0.0);
            }
            ms.record(&out);
        }
        assert!(ms.mean(names::UNAVAILABILITY).is_some());
    }

    #[test]
    fn exclusion_fraction_counts_match_exclusions() {
        let runner = ItuaSanRunner::new(&small_params()).unwrap();
        let mut scratch = runner.scratch();
        for seed in 0..30 {
            let out = runner.run_into(seed, 10.0, &[10.0], &mut scratch).unwrap();
            #[expect(
                clippy::disallowed_methods,
                reason = "recovers the integer count of excluded domains from their fraction"
            )]
            let excluded = (out.snapshots[0].frac_domains_excluded * 3.0).round() as usize;
            assert_eq!(
                out.exclusion_corrupt_fractions.len(),
                excluded,
                "seed {seed}: one fraction per completed exclusion"
            );
        }
    }

    #[test]
    fn host_exclusion_scheme_records_no_domain_fractions() {
        let params = small_params().with_scheme(crate::params::ManagementScheme::HostExclusion);
        let runner = ItuaSanRunner::new(&params).unwrap();
        let mut scratch = runner.scratch();
        for seed in 0..20 {
            let out = runner.run_into(seed, 10.0, &[], &mut scratch).unwrap();
            assert!(out.exclusion_corrupt_fractions.is_empty());
        }
    }
}
