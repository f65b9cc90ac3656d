//! User errors at the `itua` command line end in a message and exit
//! code 2, never a panic: malformed flags, replication counts too small
//! for a confidence interval, horizons too long to uniformize, and
//! layouts past the size bounds.

use std::path::PathBuf;
use std::process::{Command, Output};
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
