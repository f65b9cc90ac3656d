//! A fixed calibration kernel that tracks the machine's current speed.
//!
//! The benchmark's host is shared: other tenants' load moves every
//! workload's wall clock by tens of percent within minutes, all
//! workloads at once. This kernel — integer arithmetic, a dependent-load
//! chase over 8 MB, small-allocation churn, and thread spawn/join — does
//! the same work on every commit (it calls nothing in the repository),
//! so its time measures only the machine. The parent brackets every
//! measured child with two calibrations and reports the child's times
//! scaled by `REFERENCE_S / calibration`: seconds on this machine at the
//! speed at which the kernel takes `REFERENCE_S`.

use std::hint::black_box;
use std::time::Instant;

/// Time of one calibration on the 2-vCPU VM the README's numbers come
/// from (median of 200 back-to-back calibrations: 0.070-0.072 s). Any
/// constant works: it only fixes the unit.
pub const REFERENCE_S: f64 = 0.070;

/// Runs the kernel once and returns its wall-clock seconds (~0.07 s).
pub fn calibrate() -> f64 {
    let started = Instant::now();

    let mut x = 1u64;
    for i in 0..black_box(10_000_000u64) {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(i ^ (x >> 17));
    }
    black_box(x);

    let len = (8 << 20) / 8;
    let mut cells: Vec<u64> = (0..len as u64)
        .map(|i| i.wrapping_mul(2_654_435_761) % len as u64)
        .collect();
    let mut at = 0;
    for _ in 0..black_box(1_000_000) {
        at = cells[at] as usize;
        cells[at] ^= 1;
        at = (at + 1) % len;
    }
    black_box(at);

    for i in 0..black_box(300_000usize) {
        black_box(vec![i as u64; 1 + i % 64]);
    }

    for _ in 0..black_box(400) {
        std::thread::scope(|s| {
            s.spawn(|| black_box(1));
            s.spawn(|| black_box(2));
        });
    }
    started.elapsed().as_secs_f64()
}
