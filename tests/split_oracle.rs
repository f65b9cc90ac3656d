//! Cross-backend oracle for the rare-event engine: importance splitting
//! changes *how* trajectories are sampled (forking at upward crossings of
//! the corrupt-domain level, Russian roulette below the spawn level,
//! weighted leaves), but never the estimand. On a configuration
//! small enough for the analytic CTMC backend, the splitting estimate's
//! confidence interval must therefore cover the exact value — for both
//! simulation backends — and the estimates must be bit-identical for
//! every thread count, exactly like the plain replication loop.
//!
//! The configuration mirrors `tests/backend_agreement.rs`: attack spread
//! disabled so the tangible state space stays in the low thousands. The
//! splitting spec forks at each corrupt-domain count the model can reach,
//! so the forking, reweighting, and branch-decorrelation machinery is
//! genuinely exercised (asserted via the branch totals), not just
//! bypassed.

use itua_repro::itua::measures::names;
use itua_repro::itua::params::Params;
use itua_repro::rare::SplitSpec;
use itua_repro::runner::backend::ModelCheck;
use itua_repro::runner::{
    run_measures, run_measures_split, BackendKind, ItuaBackend, NullProgress, RunnerConfig,
    SplitRun,
};

const HORIZON: f64 = 5.0;
const CONFIDENCE: f64 = 0.95;
const TREES: u32 = 1024;

/// Two single-host domains, two replicas, no attack spread: exactly
/// solvable, and a single corrupt replica already breaks the 2-replica
/// group's quorum, so unreliability mass is reachable enough for a
/// debug-build test to resolve it with ~1k trees.
fn micro_params() -> Params {
    let mut p = Params::default().with_domains(2, 1).with_applications(1, 2);
    p.spread_rate_domain = 0.0;
    p.spread_rate_system = 0.0;
    p
}

/// Forks on the first and second corrupt domain — every level this
/// 2-domain configuration can reach.
fn spec() -> SplitSpec {
    "1x4,2x4".parse().expect("valid spec")
}

fn exact_value(measure: &str) -> f64 {
    let backend = ItuaBackend::for_params(BackendKind::Analytic, &micro_params())
        .expect("analytic micro backend");
    run_measures(
        &backend,
        1,
        CONFIDENCE,
        0,
        HORIZON,
        &[HORIZON],
        &RunnerConfig::default(),
        &NullProgress,
    )
    .expect("analytic solution")
    .estimates()
    .into_iter()
    .find(|e| e.name == measure)
    .unwrap_or_else(|| panic!("analytic backend produced no {measure}"))
    .ci
    .mean
}

fn split_run(kind: BackendKind, threads: usize) -> SplitRun {
    let backend = ItuaBackend::for_params(kind, &micro_params()).expect("valid params");
    let runner = RunnerConfig {
        threads,
        ..RunnerConfig::default()
    };
    run_measures_split(
        &backend,
        TREES,
        CONFIDENCE,
        0x51C2,
        HORIZON,
        &[HORIZON],
        &spec(),
        &runner,
        &NullProgress,
        ModelCheck::Off,
    )
    .expect("splitting run")
}

/// The splitting CI covers the exact analytic unreliability on both
/// simulation backends, and the run actually split (forked branches
/// beyond the roots).
#[test]
fn splitting_ci_covers_exact_unreliability() {
    let exact = exact_value(names::UNRELIABILITY);
    assert!(exact > 0.0, "micro config has no unreliability mass");
    for kind in [BackendKind::Des, BackendKind::San] {
        let run = split_run(kind, 0);
        assert!(
            run.totals.branches > run.totals.trees,
            "{kind}: no tree ever forked — the spec never fired"
        );
        let est = run
            .measures
            .estimates()
            .into_iter()
            .find(|e| e.name == names::UNRELIABILITY)
            .expect("unreliability estimate");
        let gap = (est.ci.mean - exact).abs();
        assert!(
            gap <= est.ci.half_width,
            "{kind}: splitting 95% CI [{:.4e} ± {:.4e}] misses exact {exact:.4e} (gap {gap:.3e})",
            est.ci.mean,
            est.ci.half_width,
        );
    }
}

/// Splitting estimates (and work totals) are bit-identical across thread
/// counts: trees are seeded by replication index and reduced in
/// replication order, so the schedule cannot leak into the result.
#[test]
fn splitting_is_thread_count_invariant() {
    for kind in [BackendKind::Des, BackendKind::San] {
        let one = split_run(kind, 1);
        let eight = split_run(kind, 8);
        assert_eq!(
            one.measures.estimates(),
            eight.measures.estimates(),
            "{kind}: estimates differ across thread counts"
        );
        assert_eq!(
            one.totals, eight.totals,
            "{kind}: work totals differ across thread counts"
        );
    }
}
