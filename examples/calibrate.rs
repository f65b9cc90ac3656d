//! Calibration search over the paper's undocumented parameters.
//!
//! Evaluates each candidate against the qualitative claims of §4 (the
//! figure shapes) and prints a scorecard. Used to pick the repository's
//! defaults; see DESIGN.md §5 and EXPERIMENTS.md.
//!
//! Run with: `cargo run --release --example calibrate`

use itua_repro::itua::measures::{names, MeasureSet};
use itua_repro::itua::params::{ManagementScheme, Params};
use itua_repro::runner::backend::{run_measures, BackendKind, ItuaBackend};
use itua_repro::runner::engine::RunnerConfig;
use itua_repro::runner::progress::NullProgress;

#[derive(Clone, Copy, Debug)]
struct Candidate {
    f: f64,   // effective_rate_factor
    rw: f64,  // attack_weight_replica
    mw: f64,  // attack_weight_manager
    ids: f64, // ids_rate
}

fn apply(p: Params, c: Candidate) -> Params {
    let mut p = p;
    p.effective_rate_factor = c.f;
    p.attack_weight_replica = c.rw;
    p.attack_weight_manager = c.mw;
    p.ids_rate = c.ids;
    p
}

fn measure(p: Params, reps: u32, horizon: f64) -> MeasureSet {
    // Same pipeline as the studies: per-thread scratch reuse, worker
    // threads, quick pre-simulation model check — estimates are
    // bit-identical for every thread count.
    let backend = ItuaBackend::for_params(BackendKind::Des, &p).unwrap();
    run_measures(
        &backend,
        reps,
        0.95,
        0,
        horizon,
        &[horizon],
        &RunnerConfig::default(),
        &NullProgress,
    )
    .unwrap()
}

fn main() {
    let reps = 600;
    let grid = [
        Candidate {
            f: 0.5,
            rw: 0.5,
            mw: 2.5,
            ids: 0.15,
        },
        Candidate {
            f: 0.5,
            rw: 0.5,
            mw: 3.0,
            ids: 0.1,
        },
        Candidate {
            f: 0.6,
            rw: 0.5,
            mw: 3.0,
            ids: 0.15,
        },
        Candidate {
            f: 0.5,
            rw: 1.0,
            mw: 2.5,
            ids: 0.15,
        },
        Candidate {
            f: 0.7,
            rw: 0.7,
            mw: 4.0,
            ids: 0.1,
        },
    ];
    for c in grid {
        println!("\n===== {c:?} =====");
        // Figure 3 (A=4): unreliability shape + exclusion level.
        let mut unrel = Vec::new();
        let mut excl = Vec::new();
        for &hpd in &[1usize, 2, 3, 4, 6, 12] {
            let p = apply(
                Params::default()
                    .with_domains(12 / hpd, hpd)
                    .with_applications(4, 7),
                c,
            );
            let ms = measure(p, reps, 5.0);
            unrel.push(ms.mean(names::UNRELIABILITY).unwrap_or(0.0));
            excl.push(
                ms.mean(&format!("{}@5", names::FRAC_DOMAINS_EXCLUDED))
                    .unwrap_or(0.0),
            );
        }
        let peak = unrel
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| [1, 2, 3, 4, 6, 12][i])
            .unwrap();
        println!("fig3b unrel: {unrel:.3?} peak at x={peak}");
        println!("fig3d excl:  {excl:.3?} (paper: ~0.2 → ~0.7)");

        // Figure 5: both schemes at spread 0 and 10, horizons 5 and 10.
        let base = Params::default()
            .with_domains(10, 3)
            .with_applications(4, 7)
            .with_host_corruption_multiplier(5.0);
        let row = |scheme: ManagementScheme, tag: &str| {
            let mut us = Vec::new();
            let mut rs = Vec::new();
            for &(spread, h) in &[(0.0, 5.0), (10.0, 5.0), (0.0, 10.0), (10.0, 10.0)] {
                let p = apply(base.clone().with_scheme(scheme).with_spread_rate(spread), c);
                let ms = measure(p, reps, h);
                us.push(ms.mean(names::UNAVAILABILITY).unwrap_or(0.0));
                rs.push(ms.mean(names::UNRELIABILITY).unwrap_or(0.0));
            }
            println!(
                "fig5 {tag}: unavail (s0,5h)={:.4} (s10,5h)={:.4} (s0,10h)={:.4} (s10,10h)={:.4}",
                us[0], us[1], us[2], us[3]
            );
            println!(
                "fig5 {tag}: unrel   (s0,5h)={:.4} (s10,5h)={:.4} (s0,10h)={:.4} (s10,10h)={:.4}",
                rs[0], rs[1], rs[2], rs[3]
            );
            (us, rs)
        };
        let (hu, hr) = row(ManagementScheme::HostExclusion, "host");
        let (du, dr) = row(ManagementScheme::DomainExclusion, "dom ");
        // Paper claims:
        let c1 = hu[0] < du[0]; // 5a: host better at low spread (5h)
        let c2 = (hu[1] - du[1]).abs() < du[1].max(0.02) * 0.75; // 5a: similar at high spread
        let c3 = dr[1] < hr[1]; // 5c: domain better at high spread (5h)
        let c4 = hr[0] <= dr[0] + 0.02; // 5c: host no worse at low spread
        let c5 = du[3] < hu[3]; // 5b: domain better at 10h high spread
        let c6 = dr[3] < hr[3]; // 5d: domain better at 10h high spread
        println!("claims: host-better-low5={c1} similar-high5={c2} domRel-better-high5={c3} hostRel-ok-low5={c4} domAvail-better-10h={c5} domRel-better-10h={c6}");
    }
}
