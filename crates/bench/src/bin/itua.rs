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
//! file, a malformed flag — prints a message and exits 2. A stdout closed
//! by its reader (`itua list | head -1`) ends the process quietly with
//! status 141 (128 + SIGPIPE, what a shell reports for a tool stopped by
//! a closed pipe); any other failed write to stdout prints a message and
//! exits 2.

use itua_bench::{driver, FigureCli};
use itua_scenario::registry;
use std::io::{self, ErrorKind, Write};

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
    let mut stdout = io::stdout();
    let code = match command(&mut stdout).and_then(|code| stdout.flush().map(|()| code)) {
        Ok(code) => code,
        Err(e) if e.kind() == ErrorKind::BrokenPipe => 141,
        Err(e) => {
            let _ = writeln!(io::stderr(), "error: cannot write to stdout: {e}");
            2
        }
    };
    std::process::exit(code);
}

/// Runs the command named by the arguments, writing its output to `out`.
/// Returns the process exit code; a user error exits 2 at once.
fn command(out: &mut dyn Write) -> io::Result<i32> {
    let mut args = std::env::args().skip(1);
    let Some(cmd) = args.next() else {
        let _ = writeln!(io::stderr(), "{USAGE}");
        std::process::exit(2);
    };
    match cmd.as_str() {
        "list" => {
            for scenario in registry::registry() {
                writeln!(
                    out,
                    "{:<12} {}\n{:<12}   [{}]",
                    scenario.name(),
                    scenario.description(),
                    "",
                    driver::analytic_feasibility(scenario.as_ref()),
                )?;
            }
            writeln!(out, "{:<12} a user-authored scenario file", "<file.scn>")?;
            Ok(0)
        }
        "run" | "check" => {
            let Some(target) = args.next() else {
                let _ = writeln!(
                    io::stderr(),
                    "itua {cmd}: missing scenario (built-in name or .scn path)"
                );
                std::process::exit(2);
            };
            let scenario = driver::resolve(&target).unwrap_or_else(|e| {
                let _ = writeln!(io::stderr(), "error: {e}");
                std::process::exit(2);
            });
            let cli = FigureCli::try_parse(args).unwrap_or_else(|e| {
                let _ = writeln!(io::stderr(), "error: {e}\n{USAGE}");
                std::process::exit(2);
            });
            if cmd == "check" {
                driver::check_scenario(scenario.as_ref(), &cli, out)
            } else {
                driver::run_scenario(scenario.as_ref(), &cli, out)
            }
        }
        "help" | "--help" | "-h" => {
            writeln!(out, "{USAGE}")?;
            Ok(0)
        }
        other => {
            let _ = writeln!(io::stderr(), "itua: unknown command '{other}'\n{USAGE}");
            std::process::exit(2);
        }
    }
}
