//! Symmetry-lumping benchmark: exact analytic solution of a
//! configuration whose unreduced tangible state space is far beyond the
//! unlumped backend's reach, with a tracked baseline.
//!
//! The headline point (see [`headline_params`]) is five interchangeable
//! single-host domains with one two-replica application and corruption
//! spread disabled: 60 462 747 tangible states in the unreduced chain,
//! but only 370 304 orbits once the wreath-product symmetry (domain
//! permutations composed with per-domain host permutations, and
//! replica-slot permutations within each application) is lumped — a
//! ~163x reduction that turns an infeasible solve into an exact one.
//! The unreduced count is not re-generated here; it is recovered exactly
//! from the quotient's orbit sizes (`full_state_total`), which the
//! lumped generator accumulates as it interns canonical
//! representatives.
//!
//! Three figures of merit land in the tracked `BENCH_analytic.json`:
//!
//! * `reduction_factor` — full tangible states per lumped orbit on the
//!   headline point; structural, deterministic, and gated at ≥ 20.
//! * `build_ms` / `solve_ms` — wall-clock for lumped state-space +
//!   CTMC construction and for the uniformization solve at one thread;
//!   `build_ms_2t` / `solve_ms_2t` the same at two threads (generation
//!   and the solve on two-worker teams). Each is gated at 1.15x its
//!   committed baseline, the hot-path benchmark's regression factor. The
//!   two thread counts must give bit-identical orbit counts and measures.
//! * `micro_max_rel_err` — the worst relative disagreement between the
//!   lumped and unlumped solutions across every measure on a micro
//!   configuration both can solve; gated at ≤ 1e-9 (the lumping is an
//!   exact quotient, so only uniformization truncation noise remains).
//!
//! `--json PATH` writes the tracked artifact (the `baseline` block is
//! preserved once created, `current` is overwritten) and applies the
//! gates above: the run prints `PATH: ok`, or a `PATH: REGRESSION: …`
//! line per violation and exits 2. `--quick` swaps the headline for a
//! three-domain point (8 054 orbits / 184 491 states) for CI smoke
//! coverage.
//!
//! Usage: `cargo bench -p itua-bench --bench analytic -- [--quick]
//! [--json PATH]`; CI runs it with `--json BENCH_analytic.json`.

use itua_bench::tracked::{record, BenchArgs, Gate};
use itua_core::analytic::{AnalyticOptions, ItuaAnalytic};
use itua_core::params::Params;

/// Mission time (hours) for the exact solve.
const HORIZON: f64 = 5.0;
/// State budget for the lumped builds (the headline point needs ~371k).
const MAX_STATES: usize = 1_000_000;
/// Ceiling on `micro_max_rel_err`: the lumping is an exact quotient, so
/// anything above uniformization truncation noise means the
/// canonicalizer or the lumped generator broke.
const MAX_MICRO_REL_ERR: f64 = 1e-9;

/// A configuration with corruption spread disabled, so the chain stays
/// finite-rate and the symmetry group is the full wreath product.
fn no_spread(domains: usize, hosts: usize, apps: usize, reps: usize) -> Params {
    let mut p = Params::default()
        .with_domains(domains, hosts)
        .with_applications(apps, reps);
    p.spread_rate_domain = 0.0;
    p.spread_rate_system = 0.0;
    p
}

/// The headline point: 60 462 747 tangible states, 370 304 orbits.
/// Unlumped, this is ~600x over the default analytic budget and would
/// not fit in memory as an explicit CSR chain; lumped it solves exactly.
fn headline_params() -> Params {
    no_spread(5, 1, 1, 2)
}

/// The `--quick` point: 184 491 tangible states, 8 054 orbits — still
/// beyond the unlumped default budget of 100 000, but seconds to solve.
fn quick_params() -> Params {
    no_spread(3, 1, 1, 3)
}

/// A micro point both the lumped and unlumped backends solve fast, for
/// the exactness cross-check.
fn micro_params() -> Params {
    no_spread(2, 1, 1, 2)
}

fn build(params: &Params, lump: bool, threads: usize) -> ItuaAnalytic {
    ItuaAnalytic::with_options(
        params,
        &AnalyticOptions {
            max_states: MAX_STATES,
            lump,
            threads,
        },
    )
    .expect("configuration fits the lumped budget")
}

/// One timed lumped build and solve of `params` at `threads` threads.
struct Run {
    build_ms: f64,
    solve_ms: f64,
    lumped_states: usize,
    full_states: u128,
    unavailability: f64,
    unreliability: f64,
}

#[expect(
    clippy::disallowed_types,
    reason = "a timing harness: the wall clock is what it measures, never a model input"
)]
fn run(params: &Params, threads: usize) -> Run {
    let t0 = std::time::Instant::now();
    let analytic = build(params, true, threads);
    let build_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t1 = std::time::Instant::now();
    let solution = analytic
        .solve(HORIZON, &[HORIZON], 0.95)
        .expect("lumped headline solve");
    let solve_ms = t1.elapsed().as_secs_f64() * 1e3;
    Run {
        build_ms,
        solve_ms,
        lumped_states: analytic.num_states(),
        full_states: analytic
            .full_state_total()
            .expect("lumped backend records the unreduced total"),
        unavailability: solution
            .mean("unavailability")
            .expect("unavailability measure"),
        unreliability: solution
            .mean("unreliability")
            .expect("unreliability measure"),
    }
}

/// Worst relative disagreement between lumped and unlumped solutions
/// across every measure on the micro point.
fn micro_max_rel_err() -> f64 {
    let full = build(&micro_params(), false, 1);
    let lumped = build(&micro_params(), true, 1);
    let a = full
        .solve(HORIZON, &[HORIZON], 0.95)
        .expect("unlumped micro solve");
    let b = lumped
        .solve(HORIZON, &[HORIZON], 0.95)
        .expect("lumped micro solve");
    let (ea, eb) = (a.estimates(), b.estimates());
    assert_eq!(ea.len(), eb.len(), "measure sets must match");
    ea.iter()
        .zip(&eb)
        .map(|(x, y)| {
            assert_eq!(x.name, y.name);
            (x.ci.mean - y.ci.mean).abs() / x.ci.mean.abs().max(1e-12)
        })
        .fold(0.0, f64::max)
}

fn main() {
    let args = BenchArgs::from_env("analytic", &[]);
    let params = if args.quick {
        quick_params()
    } else {
        headline_params()
    };

    let one = run(&params, 1);
    let two = run(&params, 2);
    assert_eq!(
        (two.lumped_states, two.full_states),
        (one.lumped_states, one.full_states),
        "orbit counts differ between one and two threads"
    );
    assert_eq!(
        (two.unavailability.to_bits(), two.unreliability.to_bits()),
        (one.unavailability.to_bits(), one.unreliability.to_bits()),
        "measures differ between one and two threads"
    );
    let Run {
        build_ms,
        solve_ms,
        lumped_states,
        full_states,
        unavailability,
        unreliability,
    } = one;
    let reduction = full_states as f64 / lumped_states as f64;

    let micro_err = micro_max_rel_err();

    println!(
        "lumped analytic point: {lumped_states} orbits / {full_states} tangible states \
         ({reduction:.1}x), horizon {HORIZON} h"
    );
    println!("  build                  {build_ms:.0} ms");
    println!("  solve                  {solve_ms:.0} ms");
    println!("  build, 2 threads       {:.0} ms", two.build_ms);
    println!("  solve, 2 threads       {:.0} ms", two.solve_ms);
    println!("  unavailability         {unavailability:.6e}");
    println!("  unreliability          {unreliability:.6e}");
    println!("  micro_max_rel_err      {micro_err:.3e}");

    assert!(
        micro_err <= MAX_MICRO_REL_ERR,
        "lumped vs unlumped micro disagreement {micro_err:.3e} exceeds {MAX_MICRO_REL_ERR:.0e}"
    );

    let results: Vec<(String, f64)> = vec![
        ("lumped_states".into(), lumped_states as f64),
        ("full_states".into(), full_states as f64),
        ("reduction_factor".into(), reduction),
        ("build_ms".into(), build_ms),
        ("solve_ms".into(), solve_ms),
        ("build_ms_2t".into(), two.build_ms),
        ("solve_ms_2t".into(), two.solve_ms),
        ("unavailability".into(), unavailability),
        ("unreliability".into(), unreliability),
        ("micro_max_rel_err".into(), micro_err),
    ];

    if let Some(path) = args.json {
        record(
            &path,
            "itua-analytic-lumped-v1",
            "states, reduction factor, milliseconds, relative error",
            &results,
            &[
                // ~163x on the tracked point; 20x leaves room to swap the
                // point without letting the quotient silently degenerate.
                Gate::AtLeast("reduction_factor", 20.0),
                Gate::AtMost("micro_max_rel_err", MAX_MICRO_REL_ERR),
                Gate::WithinBaseline {
                    unit: "ms",
                    names: &["build_ms", "solve_ms", "build_ms_2t", "solve_ms_2t"],
                },
            ],
        );
    }
}
