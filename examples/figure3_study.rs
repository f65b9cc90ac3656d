//! The paper's §4.1 study: how should a fixed pool of hosts be divided
//! into security domains?
//!
//! Reproduces Figure 3 at reduced replication count through the
//! built-in `figure3` scenario (`itua run figure3` runs the same path at
//! publication grade) and prints the design-question answer the paper
//! derives from it.
//!
//! Run with: `cargo run --release --example figure3_study`

use itua_repro::scenario::registry;
use itua_repro::studies::sweep::{RunOpts, SweepConfig};
use itua_repro::studies::table;

fn main() -> std::io::Result<()> {
    let cfg = SweepConfig {
        replications: 500,
        ..SweepConfig::default()
    };
    let figure3 = registry::find("figure3").expect("figure3 is a built-in scenario");
    let fig = figure3.run(&cfg, &RunOpts::default())?.remove(0);
    println!("{}", table::render(&fig));

    // The design question of §4.1: is it better to use many small domains?
    let unavail = &fig.panels[0].series[1]; // 4 applications
    let (first, last) = (
        unavail.points.first().expect("has points"),
        unavail.points.last().expect("has points"),
    );
    println!(
        "Unavailability with 1 host/domain: {:.4}; with 12 hosts/domain: {:.4}",
        first.1.mean, last.1.mean
    );
    println!(
        "=> distribute hosts into as many domains as physical constraints allow\n   \
         (the paper's §4.1 conclusion)."
    );
    Ok(())
}
