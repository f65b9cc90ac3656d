//! The replication engine: deterministic chunked fan-out over threads.
//!
//! Replications are partitioned into fixed-size chunks (independent of the
//! thread count), workers claim chunks from an atomic counter, and the
//! per-chunk results are reassembled in chunk order. Because each
//! replication's work depends only on its index — seeding uses
//! [`itua_sim::rng::stream_seed`], never shared mutable state — the
//! assembled result vector is identical for 1, 2, or N threads, which
//! makes every reduction downstream (estimators, measure sets) bit-stable
//! across thread counts.

use crate::progress::Progress;
use std::sync::atomic::{AtomicU32, Ordering};

/// Replications per work unit. Results are reassembled in chunk order,
/// so the chunk size sets only the scheduling granularity and the
/// progress cadence, never a result.
const CHUNK_SIZE: u32 = 32;

/// How to spend the machine's cores on a replication workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunnerConfig {
    /// Worker threads; `0` means "one per available core".
    pub threads: usize,
    /// Replications handed to the backend per [`replicate_batched`] call
    /// within a chunk. Purely an amortisation knob: each replication's
    /// result must depend only on its index, so batching never affects
    /// results, and `batch_size` stays out of store fingerprints.
    pub batch_size: u32,
}

impl Default for RunnerConfig {
    fn default() -> Self {
        RunnerConfig {
            threads: 0,
            batch_size: 32,
        }
    }
}

impl RunnerConfig {
    /// A configuration that runs everything on the calling thread.
    pub fn serial() -> Self {
        RunnerConfig {
            threads: 1,
            ..Default::default()
        }
    }

    /// Sets an explicit thread count (`0` = auto).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the batch size (`0` is treated as 1).
    pub fn with_batch_size(mut self, batch_size: u32) -> Self {
        self.batch_size = batch_size;
        self
    }

    /// The number of worker threads this configuration resolves to.
    pub fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
        }
    }
}

/// Runs replications `0..replications` across worker threads and returns
/// one result per replication, **in replication order**.
///
/// Each worker thread owns a reusable scratch value created once by
/// `init` and hands `f` a whole half-open *range* of replication indices
/// at a time; `f` appends one result per index (in ascending order) to the
/// output buffer. A simulation backend can thus build its event queue and
/// state vectors once per thread, and perform per-run setup that is
/// identical across replications (sample-time schedules) once per batch,
/// instead of once per replication.
///
/// Replications are partitioned into fixed-size chunks; batches never
/// straddle chunk boundaries. The determinism contract: each index's
/// result must depend only on that index — derive all randomness from it
/// (e.g. `stream_seed(base, index)`), and treat the scratch as an
/// allocation cache, not a communication channel — so the output is
/// bit-identical for every thread count *and* batch size
/// ([`RunnerConfig::batch_size`]; `0` is treated as 1). Progress is
/// reported after every completed chunk via [`Progress::on_replications`].
///
/// Panics in `f` propagate to the caller once all workers have stopped.
///
/// # Example
///
/// ```
/// use itua_runner::engine::{replicate_batched, RunnerConfig};
/// use itua_runner::progress::NullProgress;
///
/// // The scratch is a reusable buffer; each result ignores its history.
/// let sums = replicate_batched(
///     4,
///     &RunnerConfig::default(),
///     &NullProgress,
///     Vec::new,
///     |reps, buf: &mut Vec<u32>, out| {
///         for i in reps {
///             buf.clear();
///             buf.extend(0..=i);
///             out.push(buf.iter().sum::<u32>());
///         }
///     },
/// );
/// assert_eq!(sums, vec![0, 1, 3, 6]);
/// ```
pub fn replicate_batched<R, S, I, F>(
    replications: u32,
    config: &RunnerConfig,
    progress: &dyn Progress,
    init: I,
    f: F,
) -> Vec<R>
where
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(std::ops::Range<u32>, &mut S, &mut Vec<R>) + Sync,
{
    if replications == 0 {
        return Vec::new();
    }
    let batch = config.batch_size.max(1);
    let num_chunks = replications.div_ceil(CHUNK_SIZE);
    let threads = config.effective_threads().min(num_chunks as usize).max(1);

    // Runs one chunk: its replications in batch-sized ranges, results
    // appended to `out` in index order.
    let run_chunk = |c: u32, scratch: &mut S, out: &mut Vec<R>| -> u32 {
        let lo = c * CHUNK_SIZE;
        let hi = (lo + CHUNK_SIZE).min(replications);
        let before = out.len();
        let mut b = lo;
        while b < hi {
            let e = (b + batch).min(hi);
            f(b..e, scratch, out);
            b = e;
        }
        assert_eq!(
            out.len() - before,
            (hi - lo) as usize,
            "batch callback must append exactly one result per replication"
        );
        hi - lo
    };

    if threads == 1 {
        let mut scratch = init();
        let mut out = Vec::with_capacity(replications as usize);
        let mut total_done = 0;
        for c in 0..num_chunks {
            total_done += run_chunk(c, &mut scratch, &mut out);
            progress.on_replications(total_done, replications);
        }
        return out;
    }

    let next_chunk = AtomicU32::new(0);
    let done = AtomicU32::new(0);
    let mut per_worker: Vec<Vec<(u32, Vec<R>)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut scratch = init();
                    let mut mine: Vec<(u32, Vec<R>)> = Vec::new();
                    loop {
                        let c = next_chunk.fetch_add(1, Ordering::Relaxed);
                        if c >= num_chunks {
                            break;
                        }
                        let mut results: Vec<R> = Vec::new();
                        let n = run_chunk(c, &mut scratch, &mut results);
                        let total_done = done.fetch_add(n, Ordering::Relaxed) + n;
                        progress.on_replications(total_done, replications);
                        mine.push((c, results));
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replication worker panicked"))
            .collect()
    });

    // Deterministic reduction: reassemble chunks in index order, which
    // recovers exactly the sequential 0..replications ordering.
    let mut chunks: Vec<(u32, Vec<R>)> = per_worker.drain(..).flatten().collect();
    chunks.sort_unstable_by_key(|(c, _)| *c);
    debug_assert_eq!(chunks.len(), num_chunks as usize);
    let mut out = Vec::with_capacity(replications as usize);
    for (_, mut part) in chunks {
        out.append(&mut part);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::progress::NullProgress;
    use std::sync::atomic::AtomicUsize;

    /// `f(0), f(1), …` through [`replicate_batched`] with a stateless
    /// scratch, each replication on its own.
    fn each<R: Send>(
        replications: u32,
        config: &RunnerConfig,
        progress: &dyn Progress,
        f: impl Fn(u32) -> R + Sync,
    ) -> Vec<R> {
        replicate_batched(
            replications,
            config,
            progress,
            || (),
            |reps, (), out| out.extend(reps.map(&f)),
        )
    }

    /// The scratch-reusing work of the scratch tests, over a range.
    fn scratch_sums(reps: std::ops::Range<u32>, buf: &mut Vec<u64>, out: &mut Vec<u64>) {
        for i in reps {
            buf.clear();
            buf.extend((0..4).map(|k| itua_sim::rng::stream_seed(u64::from(i), k)));
            out.push(buf.iter().fold(0u64, |a, b| a.wrapping_add(*b)));
        }
    }

    /// Replication counts covering a partial chunk, an exact chunk, one
    /// replication past it and many chunks.
    const COUNTS: [u32; 4] = [
        CHUNK_SIZE - 1,
        CHUNK_SIZE,
        CHUNK_SIZE + 1,
        8 * CHUNK_SIZE + 1,
    ];

    #[test]
    fn preserves_replication_order() {
        for threads in [1, 2, 4, 8] {
            for reps in COUNTS {
                let cfg = RunnerConfig::default().with_threads(threads);
                let got = each(reps, &cfg, &NullProgress, |i| i);
                assert_eq!(
                    got,
                    (0..reps).collect::<Vec<_>>(),
                    "threads={threads} reps={reps}"
                );
            }
        }
    }

    #[test]
    fn identical_results_across_thread_and_batch_choices() {
        let work = |i: u32| itua_sim::rng::stream_seed(42, u64::from(i));
        for reps in COUNTS {
            let reference = each(reps, &RunnerConfig::serial(), &NullProgress, work);
            for threads in [2, 3, 8] {
                for batch_size in [0, 1, 5, 32] {
                    let cfg = RunnerConfig {
                        threads,
                        batch_size,
                    };
                    assert_eq!(
                        each(reps, &cfg, &NullProgress, work),
                        reference,
                        "threads={threads} batch={batch_size} reps={reps}"
                    );
                }
            }
        }
    }

    #[test]
    fn zero_replications_is_empty() {
        let out: Vec<u32> = each(0, &RunnerConfig::default(), &NullProgress, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn runs_every_replication_exactly_once() {
        for reps in COUNTS {
            let calls = AtomicUsize::new(0);
            let cfg = RunnerConfig::default().with_threads(4);
            let out = each(reps, &cfg, &NullProgress, |i| {
                calls.fetch_add(1, Ordering::Relaxed);
                i
            });
            assert_eq!(out.len(), reps as usize);
            assert_eq!(calls.load(Ordering::Relaxed), reps as usize);
        }
    }

    #[test]
    fn progress_reaches_total() {
        struct Last(AtomicU32);
        impl Progress for Last {
            fn on_replications(&self, done: u32, _total: u32) {
                self.0.fetch_max(done, Ordering::Relaxed);
            }
        }
        for reps in COUNTS {
            let last = Last(AtomicU32::new(0));
            each(reps, &RunnerConfig::default().with_threads(2), &last, |i| i);
            assert_eq!(last.0.load(Ordering::Relaxed), reps);
        }
    }

    #[test]
    fn scratch_reuse_does_not_change_results() {
        // A work function that abuses its scratch as a dirty buffer still
        // yields thread-count-invariant results as long as it resets first.
        let reps = 8 * CHUNK_SIZE + 1;
        let reference = replicate_batched(
            reps,
            &RunnerConfig::serial(),
            &NullProgress,
            Vec::new,
            scratch_sums,
        );
        for threads in [2, 4, 8] {
            for batch_size in [1, 7] {
                let cfg = RunnerConfig {
                    threads,
                    batch_size,
                };
                assert_eq!(
                    replicate_batched(reps, &cfg, &NullProgress, Vec::new, scratch_sums),
                    reference,
                    "threads={threads} batch={batch_size}"
                );
            }
        }
    }

    #[test]
    fn scratch_is_created_once_per_worker() {
        let inits = AtomicUsize::new(0);
        replicate_batched(
            8 * CHUNK_SIZE + 1,
            &RunnerConfig::default().with_threads(3),
            &NullProgress,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
            },
            |reps, (), out| out.extend(reps),
        );
        // One scratch per spawned worker, never one per replication.
        assert_eq!(inits.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn auto_threads_resolves_positive() {
        assert!(RunnerConfig::default().effective_threads() >= 1);
        assert_eq!(RunnerConfig::serial().effective_threads(), 1);
        assert_eq!(
            RunnerConfig::default().with_threads(3).effective_threads(),
            3
        );
    }
}
