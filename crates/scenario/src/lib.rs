//! Declarative experiment layer for the ITUA reproduction.
//!
//! Scenario diversity is the paper's whole point — parametric validation
//! of the ITUA design space — so it should not be gated on recompiling.
//! This crate makes *configurations* first-class inputs to one
//! evaluation engine:
//!
//! * [`Scenario`] — the trait every runnable experiment implements:
//!   name, description, sweep points (including the analytic-backend
//!   micro-variant substitution), measures, renderer, and the identity
//!   parts folded into result-store fingerprints. Its provided
//!   [`Scenario::run`] is the one path from sweep points to a rendered
//!   figure.
//! * [`registry`] — the shipped studies (Figures 3–5, the sensitivity
//!   study, and the `all-figures` composite) as built-in scenarios: each
//!   [`itua_studies::study::Study`] descriptor implements [`Scenario`]
//!   directly. Built-ins contribute no identity parts, so their store
//!   fingerprints are the ones the studies have always had.
//! * [`mod@file`] — a dependency-free `key = value` parser for user-authored
//!   `.scn` scenario files (topology counts, rates, management scheme,
//!   sweep axis, replications/horizon, split levels) that compose into
//!   [`SweepPoint`]s without recompiling. A file scenario's normalized
//!   content hash enters the store fingerprint, so editing the file
//!   invalidates checkpointed results instead of silently resuming them.
//!
//! The `itua` binary (in `itua-bench`) fronts this crate:
//! `itua list`, `itua run <scenario|file.scn>`, `itua check <scenario>`.

pub mod assert;
pub mod file;
pub mod keys;
pub mod registry;

use itua_rare::SplitSpec;
use itua_runner::backend::BackendKind;
use itua_studies::sweep::{run_sweep, FigureResult, RunOpts, Series, SweepConfig, SweepPoint};
use std::io;

/// A runnable experiment: a named sweep with measures and a renderer.
///
/// The provided [`Scenario::run`] covers the common single-sweep shape
/// (one stored sweep, one rendered figure); composite scenarios such as
/// `all-figures` override it.
pub trait Scenario {
    /// Unique scenario name (`itua run <name>`).
    fn name(&self) -> &str;

    /// One-line description shown by `itua list`.
    fn description(&self) -> &str;

    /// Sweep/store identifier; defaults to the scenario name. The
    /// result store file is `<sweep id>.json` with the backend/split
    /// suffixes applied by the sweep layer.
    fn sweep_id(&self) -> String {
        self.name().to_owned()
    }

    /// The sweep points the scenario runs on `backend`. Implementations
    /// with an exact-solvable micro variant substitute it for
    /// [`BackendKind::Analytic`] (Figure 3); everything else ignores the
    /// backend.
    fn points(&self, backend: BackendKind) -> Vec<SweepPoint>;

    /// Measure keys extracted from the sweep (possibly `@t`-suffixed).
    fn measures(&self) -> Vec<String>;

    /// Renders extracted series into the scenario's figure.
    fn render(&self, series: &[Series]) -> FigureResult;

    /// Marking assertions the scenario claims hold in *every* reachable
    /// marking of its model, proved by `itua check --exhaustive`.
    /// Built-ins claim nothing beyond the analyzer's own conservation
    /// families; `.scn` files contribute their `assert =` lines.
    fn asserts(&self) -> Vec<crate::assert::MarkingAssert> {
        Vec::new()
    }

    /// Identity parts folded into the result-store fingerprint after
    /// the sweep-configuration parts. Built-ins return nothing (their
    /// identity is fully carried by their points), keeping their store
    /// fingerprints unchanged; file scenarios return their normalized
    /// content hash so resume stays sound across scenario edits.
    fn fingerprint_parts(&self) -> Vec<String> {
        Vec::new()
    }

    /// Folds the scenario's *pinned* execution settings into the
    /// CLI-derived configuration. Built-ins pin nothing; a `.scn` file
    /// that specifies `reps` / `seed` / `confidence` / `split-levels`
    /// is authoritative for those settings (the file declares the
    /// experiment; flags fill what it leaves open).
    fn configure(&self, cfg: &mut SweepConfig, split: &mut Option<SplitSpec>) {
        let _ = (cfg, split);
    }

    /// Runs the scenario: one stored sweep under [`Scenario::sweep_id`]
    /// with the scenario's [`Scenario::fingerprint_parts`] appended to
    /// the store fingerprint, rendered to one figure.
    ///
    /// # Errors
    ///
    /// Propagates backend failures and result-store write errors.
    fn run(&self, cfg: &SweepConfig, opts: &RunOpts<'_>) -> io::Result<Vec<FigureResult>> {
        let points = self.points(opts.backend);
        let measures = self.measures();
        let refs: Vec<&str> = measures.iter().map(String::as_str).collect();
        let identity = self.fingerprint_parts();
        let all = run_sweep(&self.sweep_id(), &points, cfg, &refs, &identity, opts)?;
        Ok(vec![self.render(&all)])
    }
}
