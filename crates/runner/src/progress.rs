//! Progress observation for long experiment runs.
//!
//! The engine and the sweep orchestrator report through the [`Progress`]
//! trait; implementations decide what to show. [`ConsoleProgress`] prints
//! replications/second, an ETA extrapolated from the measured rate, and
//! each sweep point's estimates as they land — all on stderr, so stdout
//! stays clean for tables and CSV.
#![expect(
    clippy::disallowed_types,
    reason = "Instant throttles progress-line redraws on stderr only; estimates never see wall time"
)]

use crate::store::StoredEstimate;
use std::io::{self, Write};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Observer of a running experiment or sweep.
///
/// Implementations must be `Sync`: workers report concurrently. All
/// methods have empty defaults so implementations override only what they
/// display.
pub trait Progress: Sync {
    /// Called after each completed chunk of replications of the current
    /// work item (`done` of `total` replications finished).
    fn on_replications(&self, done: u32, total: u32) {
        let _ = (done, total);
    }

    /// Called when sweep point `index` of `total` starts.
    fn on_point_start(&self, index: usize, total: usize, label: &str) {
        let _ = (index, total, label);
    }

    /// Called when a sweep point finishes. `resumed` means the result was
    /// loaded from the result store instead of simulated.
    fn on_point_done(
        &self,
        index: usize,
        total: usize,
        label: &str,
        estimates: &[StoredEstimate],
        resumed: bool,
    ) {
        let _ = (index, total, label, estimates, resumed);
    }
}

/// Silent observer.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullProgress;

impl Progress for NullProgress {}

#[derive(Debug)]
struct ConsoleState {
    started: Instant,
    /// Replications simulated so far in *finished* points.
    reps_in_finished_points: u64,
    /// Points finished (simulated or resumed).
    points_done: usize,
    /// Points loaded from the store (excluded from the rate).
    points_resumed: usize,
    current_label: String,
    last_line: Instant,
}

/// Prints progress to stderr.
///
/// Designed for `itua run`: point lines are always printed;
/// replication lines are throttled (at most ~5/s) and carry the measured
/// simulation rate and an ETA for the current point.
#[derive(Debug)]
pub struct ConsoleProgress {
    state: Mutex<ConsoleState>,
}

impl Default for ConsoleProgress {
    fn default() -> Self {
        Self::new()
    }
}

impl ConsoleProgress {
    /// Creates a console reporter; the clock starts now.
    pub fn new() -> Self {
        ConsoleProgress {
            state: Mutex::new(ConsoleState {
                started: Instant::now(),
                reps_in_finished_points: 0,
                points_done: 0,
                points_resumed: 0,
                current_label: String::new(),
                last_line: Instant::now() - Duration::from_secs(1),
            }),
        }
    }
}

impl Progress for ConsoleProgress {
    fn on_replications(&self, done: u32, total: u32) {
        let mut s = self.state.lock().expect("progress state poisoned");
        if s.last_line.elapsed() < Duration::from_millis(200) && done < total {
            return;
        }
        s.last_line = Instant::now();
        let elapsed = s.started.elapsed().as_secs_f64();
        let overall_done = s.reps_in_finished_points + done as u64;
        let rate = overall_done as f64 / elapsed.max(1e-9);
        let eta = (total - done) as f64 / rate.max(1e-9);
        let _ = writeln!(
            io::stderr(),
            "    {done}/{total} replications of {} ({rate:.0} reps/s, point ETA {})",
            s.current_label,
            fmt_secs(eta),
        );
        if done >= total {
            // The work item is complete; fold its replications into the
            // cumulative rate for later points.
            s.reps_in_finished_points += total as u64;
        }
    }

    fn on_point_start(&self, index: usize, total: usize, label: &str) {
        let mut s = self.state.lock().expect("progress state poisoned");
        s.current_label = label.to_owned();
        let _ = writeln!(io::stderr(), "[{}/{total}] {label}", index + 1);
    }

    fn on_point_done(
        &self,
        index: usize,
        total: usize,
        label: &str,
        estimates: &[StoredEstimate],
        resumed: bool,
    ) {
        let mut s = self.state.lock().expect("progress state poisoned");
        s.points_done += 1;
        if resumed {
            s.points_resumed += 1;
            let _ = writeln!(
                io::stderr(),
                "[{}/{total}] {label}: resumed from result store",
                index + 1
            );
        } else {
            let shown: Vec<String> = estimates
                .iter()
                .map(|e| format!("{}={:.4}±{:.4}", e.name, e.mean, e.half_width))
                .collect();
            let _ = writeln!(
                io::stderr(),
                "[{}/{total}] {label}: {}",
                index + 1,
                shown.join("  ")
            );
        }
        // Sweep-level ETA from the measured per-point pace (simulated
        // points only; resumed points are free).
        let simulated = s.points_done - s.points_resumed;
        if simulated > 0 && s.points_done < total {
            let per_point = s.started.elapsed().as_secs_f64() / simulated as f64;
            let remaining = (total - s.points_done) as f64 * per_point;
            let _ = writeln!(io::stderr(), "    sweep ETA {}", fmt_secs(remaining));
        }
    }
}

#[expect(
    clippy::disallowed_methods,
    reason = "rounds elapsed seconds for the ETA display on stderr; not a measure path"
)]
fn fmt_secs(secs: f64) -> String {
    if !secs.is_finite() {
        return "?".to_owned();
    }
    let s = secs.round() as u64;
    if s >= 3600 {
        format!("{}h{:02}m", s / 3600, (s % 3600) / 60)
    } else if s >= 60 {
        format!("{}m{:02}s", s / 60, s % 60)
    } else {
        format!("{s}s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_progress_accepts_everything() {
        let p = NullProgress;
        p.on_replications(1, 10);
        p.on_point_start(0, 3, "x");
        p.on_point_done(0, 3, "x", &[], false);
    }

    #[test]
    fn console_progress_is_sync_and_counts() {
        fn assert_sync<T: Sync>(_: &T) {}
        let p = ConsoleProgress::new();
        assert_sync(&p);
        p.on_point_start(0, 2, "point a");
        p.on_replications(5, 10);
        p.on_replications(10, 10);
        p.on_point_done(0, 2, "point a", &[], false);
        p.on_point_done(1, 2, "point b", &[], true);
        let s = p.state.lock().unwrap();
        assert_eq!(s.points_done, 2);
        assert_eq!(s.points_resumed, 1);
        assert_eq!(s.reps_in_finished_points, 10);
    }

    #[test]
    fn fmt_secs_ranges() {
        assert_eq!(fmt_secs(5.2), "5s");
        assert_eq!(fmt_secs(125.0), "2m05s");
        assert_eq!(fmt_secs(7322.0), "2h02m");
        assert_eq!(fmt_secs(f64::INFINITY), "?");
    }
}
