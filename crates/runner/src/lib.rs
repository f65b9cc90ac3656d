//! Parallel experiment-execution engine for the ITUA reproduction.
//!
//! The paper's Möbius studies run thousands of independent replications per
//! sweep point — an embarrassingly parallel workload that the original
//! single-threaded `run_experiment` / `run_sweep` loops left on one core.
//! This crate is the execution layer that fixes that, as a subsystem the
//! rest of the stack (`itua-san` experiments, `itua-studies` sweeps, the
//! `itua` CLI) plugs into:
//!
//! * [`engine`] — shards replications across scoped worker threads in
//!   fixed-size chunks claimed from a shared counter. Replication `i` is
//!   seeded by `stream_seed(base, i)` regardless of which worker runs it,
//!   and results are reassembled in replication order before reduction, so
//!   **estimates are bit-identical for every thread count** (including the
//!   sequential path).
//! * [`backend`] — the [`backend::Backend`] trait: one execution path for
//!   both encodings of the ITUA process (direct DES and composed SAN),
//!   with per-thread reusable scratch state.
//! * [`experiment`] — the parallel replication loop for raw SANs plus
//!   reward variables, and its [`experiment::ExperimentConfig`] (the
//!   only experiment path; the old sequential loop in `itua-san` was
//!   retired in its favor and the config type moved here).
//! * [`split`] — the RESTART importance-splitting replication loop
//!   ([`split::run_measures_split`]): one splitting tree per replication,
//!   weighted leaves reduced tree-by-tree, bit-identical across thread
//!   counts and collapsing to the plain loop when no thresholds are set.
//! * [`progress`] — observer interface plus a console implementation
//!   reporting replications/second, ETA, and per-point estimates as they
//!   land.
//! * [`store`] + [`json`] — a dependency-free JSON result store under
//!   `results/`; an interrupted sweep resumes at the first incomplete
//!   point.
//! * [`sweep`] — the orchestration layer ([`sweep::SweepRunner`]) tying
//!   engine, progress, and store together for whole figure sweeps.
//!
//! See `DESIGN.md` § "Runner subsystem" for the threading and determinism
//! rationale.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod engine;
pub mod experiment;
pub mod json;
pub mod progress;
pub mod split;
pub mod store;
pub mod sweep;

pub use backend::{
    run_measures, Backend, BackendError, BackendKind, BackendOptions, ItuaBackend, ItuaScratch,
};
pub use engine::{replicate, replicate_batched, replicate_with_scratch, RunnerConfig};
pub use experiment::{run_experiment_parallel, ExperimentConfig};
pub use progress::{ConsoleProgress, NullProgress, Progress};
pub use split::{run_measures_split, SplitRun, SplitTotals};
pub use store::{fingerprint, fingerprint_iter, ResultStore, StoredEstimate, StoredPoint};
pub use sweep::{PointSpec, SweepRunner};
