//! Property tests for the rare-event engine's *do-no-harm* contract:
//! when splitting cannot actually split, the whole weighted pipeline must
//! collapse — bit for bit — to the plain replication path.
//!
//! Two ways splitting can be inert are exercised for both simulation
//! backends (DES and SAN):
//!
//! * an **empty** [`SplitSpec`], where the tree degenerates to its root
//!   branch by construction, and
//! * a spec whose thresholds are **unreachable** (above the number of
//!   domains, so `CorruptDomainCount` can never cross them), where the
//!   degeneration is dynamic: the root branch runs with forking armed but
//!   never fires it.
//!
//! In both cases the root branch is never reseeded, so it replays exactly
//! the trajectory of the corresponding plain replication, and every tree
//! contributes one weight-1 leaf. There is one estimator on both paths (a
//! plain replication is one weight-1 observation), so that leaf is
//! recorded exactly as the plain replication is.

use itua_repro::itua::params::Params;
use itua_repro::rare::SplitSpec;
use itua_repro::runner::backend::{run_measures_checked, ModelCheck};
use itua_repro::runner::{
    run_measures_split, BackendKind, ItuaBackend, NullProgress, RunnerConfig,
};
use proptest::prelude::*;

/// A small configuration whose state space keeps debug-mode trajectories
/// cheap while still exercising exclusions, convictions, and recovery.
fn small_params(domains: usize, reps: usize) -> Params {
    Params::default()
        .with_domains(domains, 1)
        .with_applications(1, reps)
}

/// Runs the *plain* unweighted replication loop.
fn plain(backend: &ItuaBackend, reps: u32, seed: u64, horizon: f64) -> Vec<(String, u64, u64)> {
    let measures = run_measures_checked(
        backend,
        reps,
        0.95,
        seed,
        horizon,
        &[horizon],
        &RunnerConfig::default(),
        &NullProgress,
        ModelCheck::Off,
    )
    .expect("plain run");
    bits(measures.estimates())
}

/// Runs the splitting loop with the given spec.
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
    /// Splitting with no possible splits — empty spec or unreachable
    /// thresholds — is bit-identical to the plain path on both backends.
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
        // `CorruptDomainCount` is bounded by the number of domains, so a
        // threshold above it can never be crossed.
        let unreachable: SplitSpec = format!("{}x{factor}", domains + 1)
            .parse()
            .expect("valid spec");
        for kind in [BackendKind::Des, BackendKind::San] {
            let backend = ItuaBackend::for_params(kind, &params).expect("valid params");
            let reference = plain(&backend, replications, seed, horizon);
            for spec in [&SplitSpec::none(), &unreachable] {
                let got = split(&backend, spec, replications, seed, horizon);
                prop_assert_eq!(&got, &reference, "{} spec {:?}", kind, spec);
            }
        }
    }
}
