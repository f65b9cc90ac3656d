//! Property-based tests for the simulation kernel.

use itua_sim::queue::EventQueue;
use itua_sim::rng::Rng;
use proptest::prelude::*;

proptest! {
    /// The queue delivers events in nondecreasing time order, FIFO on ties.
    #[test]
    fn queue_is_time_ordered(times in prop::collection::vec(0.0f64..1e6, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(t, i);
        }
        let mut last_time = f64::NEG_INFINITY;
        let mut seen_at_time: Vec<usize> = vec![];
        let mut count = 0;
        while let Some((t, id)) = q.pop() {
            prop_assert!(t >= last_time, "time went backwards");
            if t == last_time {
                // FIFO: insertion indices at equal times must increase.
                prop_assert!(seen_at_time.last().is_none_or(|&p| p < id));
                seen_at_time.push(id);
            } else {
                seen_at_time = vec![id];
            }
            last_time = t;
            count += 1;
        }
        prop_assert_eq!(count, times.len());
    }

    /// Cancelling an arbitrary subset removes exactly those events.
    #[test]
    fn queue_cancellation_exact(
        times in prop::collection::vec(0.0f64..1e3, 1..100),
        cancel_mask in prop::collection::vec(any::<bool>(), 1..100),
    ) {
        let mut q = EventQueue::new();
        let keys: Vec<_> = times.iter().map(|&t| q.schedule(t, t)).collect();
        let mut expected = times.len();
        for (key, &cancel) in keys.iter().zip(cancel_mask.iter().chain(std::iter::repeat(&false))) {
            if cancel {
                prop_assert!(q.cancel(*key));
                expected -= 1;
            }
        }
        prop_assert_eq!(q.len(), expected);
        let mut delivered = 0;
        while q.pop().is_some() {
            delivered += 1;
        }
        prop_assert_eq!(delivered, expected);
    }

    /// Streams with the same seed are identical; different seeds differ.
    #[test]
    fn rng_reproducible(seed in any::<u64>()) {
        let mut a = Rng::seed_from_u64(seed);
        let mut b = Rng::seed_from_u64(seed);
        for _ in 0..64 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Rng::seed_from_u64(seed.wrapping_add(1));
        let collisions = (0..64).filter(|_| a.next_u64() == c.next_u64()).count();
        prop_assert!(collisions < 4);
    }

    /// `u64_below` respects its bound for arbitrary bounds.
    #[test]
    fn u64_below_in_range(seed in any::<u64>(), bound in 1u64..u64::MAX) {
        let mut rng = Rng::seed_from_u64(seed);
        for _ in 0..32 {
            prop_assert!(rng.u64_below(bound) < bound);
        }
    }

    /// Shuffling preserves the multiset of elements.
    #[test]
    fn shuffle_is_permutation(mut v in prop::collection::vec(any::<i32>(), 0..100), seed in any::<u64>()) {
        let mut rng = Rng::seed_from_u64(seed);
        let mut sorted_before = v.clone();
        sorted_before.sort_unstable();
        rng.shuffle(&mut v);
        v.sort_unstable();
        prop_assert_eq!(v, sorted_before);
    }

    /// Random schedule/cancel/pop interleavings: the generation-stamped
    /// queue agrees step-for-step with a naive sorted-Vec reference model.
    /// Earliest-time-first with FIFO tie-break, cancelled keys never
    /// surface, double cancels / cancels of delivered events are no-ops,
    /// and `len` tracks the live count exactly — including through the
    /// compaction sweeps that cancel-heavy interleavings trigger.
    #[test]
    fn queue_matches_sorted_vec_reference(ops in prop::collection::vec(
        prop_oneof![
            // Schedule: a coarse time grid forces plenty of ties, so the
            // FIFO tie-break actually carries the ordering.
            (0u8..40).prop_map(|t| QueueOp::Schedule(f64::from(t))),
            // Cancel the pending event scheduled at `nth` (modulo the
            // number of outstanding keys), or a long-dead key.
            any::<prop::sample::Index>().prop_map(QueueOp::Cancel),
            Just(QueueOp::Pop),
        ],
        1..300,
    )) {
        /// Reference model: a Vec of (time, seq, payload) kept sorted by
        /// (time, seq); schedule appends, cancel removes, pop takes the
        /// front. Quadratic and boring on purpose.
        #[derive(Default)]
        struct Reference {
            pending: Vec<(f64, u64, u64)>,
            next_seq: u64,
        }
        impl Reference {
            fn schedule(&mut self, time: f64, payload: u64) -> u64 {
                let seq = self.next_seq;
                self.next_seq += 1;
                self.pending.push((time, seq, payload));
                self.pending
                    .sort_by(|a, b| a.partial_cmp(b).expect("no NaN times"));
                seq
            }
            fn cancel(&mut self, seq: u64) -> bool {
                match self.pending.iter().position(|&(_, s, _)| s == seq) {
                    Some(i) => {
                        self.pending.remove(i);
                        true
                    }
                    None => false,
                }
            }
            fn pop(&mut self) -> Option<(f64, u64)> {
                if self.pending.is_empty() {
                    None
                } else {
                    let (t, _, p) = self.pending.remove(0);
                    Some((t, p))
                }
            }
        }

        let mut q = EventQueue::new();
        let mut reference = Reference::default();
        // Outstanding (key, reference-seq) pairs for not-yet-cancelled,
        // not-yet-popped schedules, plus retired keys that must stay dead.
        let mut outstanding = Vec::new();
        let mut retired = Vec::new();
        let mut payload = 0u64;
        for op in ops {
            match op {
                QueueOp::Schedule(t) => {
                    payload += 1;
                    let key = q.schedule(t, payload);
                    let seq = reference.schedule(t, payload);
                    outstanding.push((key, seq));
                }
                QueueOp::Cancel(idx) => {
                    if outstanding.is_empty() {
                        // Nothing pending: any retired key must refuse.
                        if let Some(&key) = retired.last() {
                            prop_assert!(!q.cancel(key), "retired key cancelled");
                        }
                    } else {
                        let (key, seq) = outstanding.swap_remove(idx.index(outstanding.len()));
                        prop_assert!(q.cancel(key), "live key refused to cancel");
                        prop_assert!(!q.cancel(key), "double cancel succeeded");
                        prop_assert!(reference.cancel(seq));
                        retired.push(key);
                    }
                }
                QueueOp::Pop => {
                    let got = q.pop();
                    let want = reference.pop();
                    prop_assert_eq!(got, want, "pop diverged from reference");
                    if got.is_some() {
                        // Retire the popped event's key (the outstanding
                        // entry whose seq just left the reference):
                        // cancelling a delivered event must be a no-op.
                        let i = outstanding
                            .iter()
                            .position(|&(_, seq)| reference.pending.iter().all(|&(_, s, _)| s != seq))
                            .expect("popped event was outstanding");
                        let (key, _) = outstanding.swap_remove(i);
                        prop_assert!(!q.cancel(key), "cancel after pop succeeded");
                        retired.push(key);
                    }
                }
            }
            prop_assert_eq!(q.len(), reference.pending.len(), "live count diverged");
            prop_assert_eq!(q.is_empty(), reference.pending.is_empty());
        }
        // Drain both: the full remaining sequences must agree.
        loop {
            let got = q.pop();
            let want = reference.pop();
            prop_assert_eq!(got, want, "drain diverged from reference");
            if got.is_none() {
                break;
            }
        }
        // Every key ever issued is now dead.
        for (key, _) in outstanding {
            prop_assert!(!q.cancel(key), "drained key cancelled");
        }
        for key in retired {
            prop_assert!(!q.cancel(key), "retired key cancelled after drain");
        }
    }
}

/// One step of the queue-vs-reference interleaving.
#[derive(Debug, Clone)]
enum QueueOp {
    Schedule(f64),
    Cancel(prop::sample::Index),
    Pop,
}
