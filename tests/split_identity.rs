//! Property tests for the rare-event engine's *do-no-harm* contract:
//! when splitting cannot actually split, the whole weighted pipeline must
//! collapse — bit for bit — to the plain replication path.
//!
//! Every replication is a RESTART tree rooted in the worker's scratch, and
//! the plain path ([`run_measures`]) is the loop with an empty
//! [`SplitSpec`], whose trees never read their level. Here the spec is
//! armed but **unreachable** (thresholds above the number of domains, so
//! the corrupt-domain level can never cross them): every tree reads its
//! level after every event, yet the root branch never splits, is never
//! reseeded and never plays roulette, so it replays exactly the plain
//! trajectory, and every tree contributes one weight-1 leaf, recorded
//! exactly as the plain replication is. This is checked for both
//! simulation backends (DES and SAN); `tests/replication_digest.rs` pins
//! the plain path's own bits.

use itua_repro::itua::params::Params;
use itua_repro::rare::SplitSpec;
use itua_repro::runner::backend::ModelCheck;
use itua_repro::runner::{
    run_measures, run_measures_split, BackendKind, ItuaBackend, NullProgress, RunnerConfig,
};
use proptest::prelude::*;

/// A small configuration whose state space keeps debug-mode trajectories
/// cheap while still exercising exclusions, convictions, and recovery.
fn small_params(domains: usize, reps: usize) -> Params {
    Params::default()
        .with_domains(domains, 1)
        .with_applications(1, reps)
}

/// Runs the plain replication path.
fn plain(backend: &ItuaBackend, reps: u32, seed: u64, horizon: f64) -> Vec<(String, u64, u64)> {
    let measures = run_measures(
        backend,
        reps,
        0.95,
        seed,
        horizon,
        &[horizon],
        &RunnerConfig::default(),
        &NullProgress,
    )
    .expect("plain run");
    bits(measures.estimates())
}

/// Runs the replication loop with the given spec.
fn split(
    backend: &ItuaBackend,
    spec: &SplitSpec,
    reps: u32,
    seed: u64,
    horizon: f64,
) -> Vec<(String, u64, u64)> {
    let run = run_measures_split(
        backend,
        reps,
        0.95,
        seed,
        horizon,
        &[horizon],
        spec,
        &RunnerConfig::default(),
        &NullProgress,
        ModelCheck::Off,
    )
    .expect("split run");
    assert_eq!(run.totals.branches, run.totals.trees, "a tree split");
    bits(run.measures.estimates())
}

/// Collapses estimates to exact bit patterns so "identical" means
/// identical, not approximately equal.
fn bits(ests: Vec<itua_repro::stats::replication::Estimate>) -> Vec<(String, u64, u64)> {
    ests.into_iter()
        .map(|e| (e.name, e.ci.mean.to_bits(), e.ci.half_width.to_bits()))
        .collect()
}

proptest! {
    /// Splitting with unreachable thresholds is bit-identical to the
    /// plain path on both backends.
    #[test]
    fn inert_splitting_matches_plain_path(
        domains in 1usize..3,
        reps_per_app in 1usize..3,
        replications in 2u32..16,
        horizon in 0.5f64..3.0,
        seed in any::<u64>(),
        factor in 2u32..6,
    ) {
        let params = small_params(domains, reps_per_app);
        // The corrupt-domain level is bounded by the number of domains,
        // so a threshold above it can never be crossed.
        let unreachable: SplitSpec = format!("{}x{factor}", domains + 1)
            .parse()
            .expect("valid spec");
        for kind in [BackendKind::Des, BackendKind::San] {
            let backend = ItuaBackend::for_params(kind, &params).expect("valid params");
            let reference = plain(&backend, replications, seed, horizon);
            let got = split(&backend, &unreachable, replications, seed, horizon);
            prop_assert_eq!(&got, &reference, "{} spec {}", kind, unreachable);
        }
    }
}
