//! Parallel experiment-execution engine for the ITUA reproduction.
//!
//! The paper's Möbius studies run thousands of independent replications per
//! sweep point — an embarrassingly parallel workload that the original
//! single-threaded `run_experiment` / `run_sweep` loops left on one core.
//! This crate is the execution layer that fixes that, as a subsystem the
//! rest of the stack (`itua-studies` sweeps, the `itua` CLI) plugs into:
//!
//! * [`engine`] — [`engine::replicate_batched`] shards replications
//!   across scoped worker threads in fixed-size chunks claimed from a
//!   shared counter, in batches on one scratch per worker. Replication `i`
//!   is seeded by `stream_seed(base, i)` regardless of which worker runs
//!   it, and results are reassembled in replication order before
//!   reduction, so **estimates are bit-identical for every thread count
//!   and batch size** (including the sequential path). A raw SAN with a
//!   reward variable runs through it directly: each worker's scratch
//!   holds a `SimScratch` and the variable, and replication `i` is one
//!   `SanSimulator::run_with_scratch` on `stream_seed(base, i)` (see
//!   `examples/custom_san.rs`).
//! * [`backend`] — [`backend::ItuaBackend`], the one implementor of the
//!   [`backend::Backend`] trait: one execution path for every encoding of
//!   the ITUA process (direct DES, composed SAN, exact CTMC), with
//!   per-thread reusable scratch state that is also the root branch of a
//!   replication's RESTART tree.
//! * [`split`] — the replication loop ([`split::run_measures_split`]):
//!   one RESTART tree per replication, rooted in the worker's scratch and
//!   split under an optional spec, weighted leaves reduced tree by tree
//!   in replication order. Without thresholds every tree is one
//!   plain replication ([`backend::run_measures`]).
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

pub mod backend;
pub mod engine;
pub mod json;
pub mod progress;
pub mod split;
pub mod store;
pub mod sweep;

pub use backend::{
    run_measures, Backend, BackendError, BackendKind, BackendOptions, ItuaBackend, ItuaScratch,
};
pub use engine::{replicate_batched, RunnerConfig};
pub use progress::{ConsoleProgress, NullProgress, Progress};
pub use split::{run_measures_split, SplitRun, SplitTotals};
pub use store::{fingerprint, fingerprint_iter, ResultStore, StoredEstimate, StoredPoint};
pub use sweep::{PointSpec, SweepRunner};
