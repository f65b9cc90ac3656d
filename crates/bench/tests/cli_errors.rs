//! User errors at the `itua` command line end in a message and exit
//! code 2, never a panic: malformed flags, replication counts too small
//! for a confidence interval, horizons too long to uniformize, and
//! layouts or rates past their bounds. A stdout closed by its reader ends the
//! process with status 141, never a panic either, and a stderr closed by
//! its reader loses the messages but keeps the exit code.

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};
use std::time::Duration;

fn itua(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_itua"))
        .args(args)
        .output()
        .expect("the itua binary runs")
}

/// Asserts exit code 2 with a clean message on stderr; returns stderr.
fn assert_user_error(args: &[&str]) -> String {
    let out = itua(args);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    stderr
}

/// A one-point micro scenario file (small enough for the analytic
/// backend in a debug build), with `extra` lines appended.
fn micro_scn(tag: &str, extra: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("itua-cli-errors-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{tag}.scn"));
    std::fs::write(
        &path,
        format!(
            "domains = 1\nhosts-per-domain = 2\napps = 1\nreps-per-app = 2\n\
             spread-rate-domain = 0\nspread-rate-system = 0\n\
             sweep = false-alarm-rate\nvalues = 2\nhorizon = 2\n\
             measures = unavailability\n{extra}"
        ),
    )
    .unwrap();
    path
}

#[test]
fn malformed_flags_exit_2_with_usage() {
    for bad in [
        &["--reps", "abc"][..],
        &["--bogus"],
        &["--split-levels", "2x4,1x8"],
        &["--max-states", "0"],
        &["--threads"],
        // Past `MAX_THREADS`: refused before any worker starts.
        &["--threads", "1025"],
    ] {
        for cmd in ["run", "check"] {
            let mut args = vec![cmd, "figure3", "--no-resume", "--quiet"];
            args.extend_from_slice(bad);
            let stderr = assert_user_error(&args);
            assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
            assert!(stderr.contains("usage: itua"), "{args:?}: {stderr}");
        }
    }
}

#[test]
fn fewer_than_two_replications_exit_2_on_the_simulators() {
    let stderr = assert_user_error(&["run", "figure3", "--reps", "1", "--no-resume", "--quiet"]);
    assert!(stderr.contains("needs at least 2 replications"), "{stderr}");

    // A scenario file pinning one replication is refused the same way.
    let pinned = micro_scn("one-rep", "reps = 1\n");
    let pinned = pinned.to_str().unwrap();
    for backend in ["des", "san"] {
        let stderr = assert_user_error(&[
            "run",
            pinned,
            "--backend",
            backend,
            "--no-resume",
            "--quiet",
        ]);
        assert!(
            stderr.contains("needs at least 2 replications"),
            "{backend}: {stderr}"
        );
    }
}

#[test]
fn the_exact_backend_ignores_the_replication_count() {
    let scn = micro_scn("exact", "");
    let out = itua(&[
        "run",
        scn.to_str().unwrap(),
        "--backend",
        "analytic",
        "--reps",
        "1",
        "--no-resume",
        "--quiet",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("±0.00000"), "{stdout}");
}

#[test]
#[expect(
    clippy::disallowed_types,
    reason = "times the CLI process for a promptness bound; no estimate reads it"
)]
fn a_horizon_too_long_to_uniformize_exits_2_promptly() {
    // Λ·t ≈ 1e300 is far past the uniformization bound: the run must fail
    // at once, naming the time, instead of building a Poisson window.
    let scn = micro_scn("huge-horizon", "horizon = 1e300\n");
    let start = std::time::Instant::now();
    let stderr = assert_user_error(&[
        "run",
        scn.to_str().unwrap(),
        "--backend",
        "analytic",
        "--no-resume",
        "--quiet",
    ]);
    assert!(start.elapsed() < Duration::from_secs(20), "{stderr}");
    assert!(stderr.contains("time 1e300"), "{stderr}");
    assert!(stderr.contains("too long to uniformize"), "{stderr}");
}

#[test]
#[expect(
    clippy::disallowed_types,
    reason = "times the CLI process for a promptness bound; no estimate reads it"
)]
fn layouts_past_the_size_bounds_exit_2_promptly() {
    // A million domains once passed validation and then simulated
    // without end; both size bounds now reject such a file up front.
    for (tag, extra, bound) in [
        ("huge-hosts", "domains = 1000000\n", "at most 1000 hosts"),
        (
            "huge-replicas",
            "reps-per-app = 29\n",
            "at most 28 replicas",
        ),
    ] {
        let scn = micro_scn(tag, extra);
        for cmd in ["run", "check"] {
            let args = [cmd, scn.to_str().unwrap(), "--no-resume", "--quiet"];
            let start = std::time::Instant::now();
            let stderr = assert_user_error(&args);
            assert!(
                start.elapsed() < Duration::from_secs(1),
                "{args:?}: {stderr}"
            );
            assert!(stderr.contains(bound), "{args:?}: {stderr}");
        }
    }
}

/// Asserts that `run` on every backend and `check` reject the micro
/// scenario with `extra` lines at once, naming the rate bound; returns
/// the last stderr.
#[expect(
    clippy::disallowed_types,
    reason = "times the CLI process for a promptness bound; no estimate reads it"
)]
fn assert_rate_rejected_everywhere(tag: &str, extra: &str) -> String {
    let scn = micro_scn(tag, extra);
    let scn = scn.to_str().unwrap();
    let runs = ["des", "san", "analytic"]
        .map(|backend| vec!["run", scn, "--backend", backend, "--no-resume", "--quiet"]);
    let mut stderr = String::new();
    for args in runs.iter().map(Vec::as_slice).chain([&["check", scn][..]]) {
        let start = std::time::Instant::now();
        stderr = assert_user_error(args);
        assert!(
            start.elapsed() < Duration::from_secs(20),
            "{args:?}: {stderr}"
        );
        assert!(
            stderr.contains("at most 10000 per hour"),
            "{args:?}: {stderr}"
        );
    }
    stderr
}

#[test]
fn a_spread_rate_past_its_bound_exits_2_everywhere() {
    // Each corrupt host adds ten times the rate to an integer spread
    // level of the SAN, which once overflowed and panicked.
    let stderr = assert_rate_rejected_everywhere(
        "huge-spread",
        "sweep = spread-rate-domain\nvalues = 1e300\n",
    );
    // The bad point is named in a few characters, not 301 digits.
    assert!(stderr.contains("invalid point (x = 1e300)"), "{stderr}");
    assert!(!stderr.contains("00000000000000000000"), "{stderr}");
}

#[test]
fn an_effective_rate_factor_overflowing_the_rates_exits_2_everywhere() {
    // Every derived rate overflowed to infinity, and the SAN's timed
    // activities panicked on it (`run --backend san|analytic`, `check`).
    assert_rate_rejected_everywhere("huge-factor", "effective-rate-factor = 1e308\n");
}

#[test]
fn a_false_alarm_rate_overflowing_exits_2_everywhere() {
    // The per-host false-alarm rate overflowed to infinity, with the
    // same panics.
    assert_rate_rejected_everywhere(
        "huge-false-alarms",
        "sweep = ids-rate\nvalues = 0.15\nfalse-alarm-rate = 1e308\n\
         effective-rate-factor = 4\n",
    );
}

#[test]
fn a_misbehave_rate_past_its_bound_exits_2_everywhere() {
    // The DES re-arms a disabled misbehaviour event at its own rate while
    // a group lacks quorum: two replications ran for longer than 40 s.
    assert_rate_rejected_everywhere(
        "huge-misbehave",
        "misbehave-rate = 1e9\neffective-rate-factor = 4\n",
    );
}

#[test]
fn a_zero_misbehave_rate_runs_everywhere() {
    // The SAN once built its group-conviction activity at rate 0 and
    // panicked; every backend and the checker now run the file.
    let scn = micro_scn("no-misbehave", "misbehave-rate = 0\n");
    let scn = scn.to_str().unwrap();
    let runs = ["des", "san", "analytic"].map(|backend| {
        vec![
            "run",
            scn,
            "--backend",
            backend,
            "--reps",
            "8",
            "--no-resume",
            "--quiet",
        ]
    });
    for args in runs.iter().map(Vec::as_slice).chain([&["check", scn][..]]) {
        let out = itua(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
    }
}

#[test]
fn a_stdout_without_a_reader_exits_141_without_a_panic() {
    // The pipe has no reader from the start, so the first write fails.
    let (reader, writer) = std::io::pipe().expect("a pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_itua"))
        .args([
            "check",
            concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/../../examples/scenarios/micro-analytic.scn"
            ),
        ])
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("the itua binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(141), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

/// Runs itua with `args`, its stderr a pipe whose reader is already
/// gone, so every message written there fails.
fn itua_without_a_stderr_reader(args: &[&str]) -> Output {
    let (reader, writer) = std::io::pipe().expect("a pipe");
    drop(reader);
    Command::new(env!("CARGO_BIN_EXE_itua"))
        .args(args)
        .stderr(writer)
        .output()
        .expect("the itua binary runs")
}

#[test]
fn a_stderr_without_a_reader_keeps_the_exit_code_and_the_output() {
    // Progress lines go to stderr on every point; losing them must not
    // change the run.
    let args = [
        "run",
        "figure3",
        "--reps",
        "8",
        "--threads",
        "2",
        "--no-resume",
    ];
    let out = itua_without_a_stderr_reader(&args);
    assert_eq!(out.status.code(), Some(0));
    let quiet = Command::new(env!("CARGO_BIN_EXE_itua"))
        .args(args)
        .stderr(Stdio::null())
        .output()
        .expect("the itua binary runs");
    assert_eq!(quiet.status.code(), Some(0));
    assert!(!quiet.stdout.is_empty());
    assert_eq!(out.stdout, quiet.stdout);

    // A user error still exits 2 when its message cannot be written.
    let out = itua_without_a_stderr_reader(&["run", "no-such-scenario"]);
    assert_eq!(out.status.code(), Some(2));
    let out = itua_without_a_stderr_reader(&["run", "figure3", "--reps", "x"]);
    assert_eq!(out.status.code(), Some(2));
}
