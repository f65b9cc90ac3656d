//! Unified experiment CLI over the scenario registry.
//!
//! * `itua list` — the built-in scenarios (with their analytic
//!   feasibility: lumped vs full tangible state count on each
//!   scenario's smallest sweep point) and the `.scn` file format.
//! * `itua run <scenario|file.scn> [flags]` — run a scenario (flags: see
//!   `FigureCli`).
//! * `itua check <scenario|file.scn> [flags]` — run the full structural
//!   analyzer over the scenario's models without simulating; exit 2 on
//!   hard findings (or an invalid scenario file).
//!
//! Every user error — an unknown command or scenario, an invalid `.scn`
//! file, a malformed flag — prints a message and exits 2.

use itua_bench::{driver, FigureCli};
use itua_scenario::registry;

const USAGE: &str = "\
usage: itua <command> [arguments]

commands:
  list                         list the built-in scenarios, each with its
                               analytic feasibility (symmetry-lumped vs full
                               tangible state count on its smallest point)
  run <scenario|file.scn>      run a scenario (flags: --backend des|san|analytic,
                               --reps N, --seed S, --csv, --threads N, --batch N,
                               --max-states N, --lump, --no-lump, --results DIR,
                               --no-resume, --no-check, --split-levels SPEC,
                               --quiet)
  check <scenario|file.scn>    model check only, no simulation (--backend selects
                               which points are analyzed; --backend analytic picks
                               a study's micro variant); exit 2 on hard findings.
                               --exhaustive proves the conservation families,
                               exact place bounds, and .scn assert claims over
                               every reachable marking (symmetry-reduced, budget
                               --max-states N, default 2^20), checks the quotient
                               against the unreduced explorer, and checks both
                               analytic state-space generators against the
                               explored graphs with vanishing states eliminated
                               (rates within 1e-12 relative); --json emits
                               machine-readable findings
  help                         show this message

A scenario argument is a built-in name (see `itua list`) or a path to a
user-authored `.scn` file (`key = value` lines; see EXPERIMENTS.md).";

fn main() {
    let mut args = std::env::args().skip(1);
    let Some(cmd) = args.next() else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    match cmd.as_str() {
        "list" => {
            for scenario in registry::registry() {
                println!(
                    "{:<12} {}\n{:<12}   [{}]",
                    scenario.name(),
                    scenario.description(),
                    "",
                    driver::analytic_feasibility(scenario.as_ref()),
                );
            }
            println!("{:<12} a user-authored scenario file", "<file.scn>");
        }
        "run" | "check" => {
            let Some(target) = args.next() else {
                eprintln!("itua {cmd}: missing scenario (built-in name or .scn path)");
                std::process::exit(2);
            };
            let scenario = driver::resolve(&target).unwrap_or_else(|e| {
                eprintln!("error: {e}");
                std::process::exit(2);
            });
            let cli = FigureCli::try_parse(args).unwrap_or_else(|e| {
                eprintln!("error: {e}\n{USAGE}");
                std::process::exit(2);
            });
            let code = if cmd == "check" {
                driver::check_scenario(scenario.as_ref(), &cli)
            } else {
                driver::run_scenario(scenario.as_ref(), &cli)
            };
            std::process::exit(code);
        }
        "help" | "--help" | "-h" => println!("{USAGE}"),
        other => {
            eprintln!("itua: unknown command '{other}'\n{USAGE}");
            std::process::exit(2);
        }
    }
}
