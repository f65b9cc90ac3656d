//! Umbrella crate for the ITUA reproduction workspace.
//!
//! Re-exports the full stack so examples and integration tests can depend on
//! a single crate:
//!
//! * [`sim`] — discrete-event kernel (RNG, distributions, event queue).
//! * [`stats`] — estimators, confidence intervals, replications.
//! * [`markov`] — sparse CTMC numerical solvers.
//! * [`san`] — the stochastic activity network formalism and simulator.
//! * [`itua`] — the ITUA intrusion-tolerant replication model (the paper's
//!   object of study) in both SAN and direct discrete-event form.
//! * [`rare`] — RESTART-style importance splitting for rare-event
//!   (unreliability tail) estimation.
//! * [`runner`] — parallel experiment execution with deterministic
//!   reduction, progress reporting, and a resumable result store.
//! * [`studies`] — the paper's Figure 3/4/5 studies and sweep harness.
//! * [`scenario`] — the declarative experiment layer: the scenario trait,
//!   the built-in study registry behind the `itua` CLI, and the `.scn`
//!   scenario-file parser.
//!
//! See `README.md` for a guided tour and `DESIGN.md` for the system
//! inventory.

pub use itua_analyzer as analyzer;
pub use itua_core as itua;
pub use itua_markov as markov;
pub use itua_rare as rare;
pub use itua_runner as runner;
pub use itua_san as san;
pub use itua_scenario as scenario;
pub use itua_sim as sim;
pub use itua_stats as stats;
pub use itua_studies as studies;
