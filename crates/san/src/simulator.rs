//! Discrete-event execution of a SAN.
//!
//! Implements the standard SAN execution semantics:
//!
//! * **Timed activities** race: each enabled activity holds a sampled
//!   exponential completion time; the earliest fires. An activity is
//!   resampled whenever a place it reads changes (valid by memorylessness
//!   and required for marking-dependent rates), and its sample is dropped
//!   when it is disabled.
//! * **Instantaneous activities** fire in zero time whenever enabled. When
//!   several are enabled at once, one is chosen uniformly at random — the
//!   "identical copies equally likely to fire first" rule the ITUA model
//!   uses for random replica placement. The marking must stabilize (no
//!   enabled instantaneous activity) within a bounded number of firings.
//! * **Cases** are selected with probability proportional to their
//!   (marking-dependent) weights, evaluated just before firing.

use crate::marking::Marking;
use crate::model::{Activity, ActivityId, San, SanError, Timing};
use itua_sim::queue::{EventKey, EventQueue};
use itua_sim::rng::Rng;
use std::sync::Arc;

/// Maximum instantaneous firings processed per stabilization before the
/// simulator declares a livelock.
const MAX_STABILIZATION_FIRINGS: usize = 100_000;

/// Receives simulation callbacks; reward variables implement this.
///
/// A run drives exactly one observer; `()` is the observer that observes
/// nothing.
pub trait Observer {
    /// Called once after the initial marking has stabilized.
    fn on_init(&mut self, _time: f64, _marking: &Marking) {}

    /// Called after each activity firing (timed or instantaneous) once the
    /// marking has stabilized again.
    fn on_event(&mut self, _time: f64, _activity: ActivityId, _marking: &Marking) {}

    /// Appends the extra time points at which [`Observer::on_sample`]
    /// should be called (for instant-of-time variables) to `out`. The
    /// default requests none.
    fn append_sample_times(&self, _out: &mut Vec<f64>) {}

    /// Called at each requested sample time with the marking then in force.
    fn on_sample(&mut self, _time: f64, _marking: &Marking) {}

    /// Called when the run ends (horizon reached or queue drained).
    fn on_end(&mut self, _time: f64, _marking: &Marking) {}
}

impl Observer for () {}

/// Statistics from one simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunStats {
    /// Timed activity firings.
    pub timed_firings: u64,
    /// Instantaneous activity firings.
    pub instantaneous_firings: u64,
    /// Simulation time at which the run ended.
    pub end_time: f64,
}

/// A discrete-event simulator for one [`San`].
///
/// The simulator is stateless between runs; each [`SanSimulator::run`] is an
/// independent replication determined entirely by its seed.
#[derive(Debug, Clone)]
pub struct SanSimulator {
    san: Arc<San>,
    full_rescan: bool,
    full_rescan_resched: bool,
}

/// Once the marking's dirty log holds this many entries, the simulator
/// clears it and restarts both index cursors. Clearing less often than
/// every step amortizes the log lifecycle across the two consumers (the
/// instantaneous enabling index and the timed reschedule index) while
/// keeping the log's memory bounded.
const DIRTY_LOG_CLEAR_LEN: usize = 512;

/// Persistent sorted set of the enabled instantaneous activities, kept in
/// sync with the marking's dirty log.
///
/// `enabled` is ordered by ascending [`ActivityId`] — exactly the order a
/// full scan over the model produces. That ordering is load-bearing:
/// `stabilize` draws `enabled[rng.usize_below(len)]`, so any deviation
/// would change which activity a given uniform selects and break the
/// bit-identical determinism contract. `synced` is this index's private
/// cursor into the marking's dirty log; the timed-reschedule loop reads
/// the same log with its own cursor (always 0), which is why the log is
/// cursored rather than drained.
#[derive(Clone)]
struct InstIndex {
    enabled: Vec<ActivityId>,
    synced: usize,
}

impl InstIndex {
    fn new() -> Self {
        InstIndex {
            enabled: Vec::new(),
            synced: 0,
        }
    }

    /// Recomputes the set with a full scan (run reset; dirty log empty).
    fn rebuild(&mut self, san: &San, marking: &Marking) {
        san.enabled_instantaneous_into(marking, &mut self.enabled);
        self.synced = 0;
    }

    /// Re-tests each instantaneous dependent of each place dirtied since
    /// the last sync, straight from the log, splicing it in or out of the
    /// sorted set. A dependent of several dirtied places (or of a place
    /// dirtied twice) is re-tested once per entry, with no dedup: the
    /// marking does not change during a sync, so every test of one
    /// activity gives the same answer and the set ends the same.
    fn sync(&mut self, san: &San, marking: &Marking) {
        for &p in marking.dirty_since(self.synced) {
            for &id in san.inst_dependents_of(p) {
                let enabled_now = san.activity(id).enabled(marking);
                match self.enabled.binary_search(&id) {
                    Ok(pos) if !enabled_now => {
                        self.enabled.remove(pos);
                    }
                    Err(pos) if enabled_now => {
                        self.enabled.insert(pos, id);
                    }
                    _ => {}
                }
            }
        }
        self.synced = marking.dirty_len();
    }

    /// Tells the index the dirty log is being cleared. The set itself
    /// stays valid (clearing the log does not change the marking); only
    /// the cursor must restart. Callers must be fully synced first.
    fn note_cleared(&mut self) {
        self.synced = 0;
    }
}

/// Persistent reschedule index for the timed activities, the counterpart
/// of [`InstIndex`] on the timed side of the per-place dependent split
/// (`San::timed_dependents_of`).
///
/// After each firing the simulator must re-examine exactly the timed
/// activities whose enabling or rate may have changed: the fired activity
/// plus every timed activity reading a place the firing (and its
/// instantaneous cascade) dirtied. `collect` derives that set from the
/// marking's dirty log through this index's private cursor — the
/// instantaneous index reads the same log through its own cursor, so the
/// log is cleared only when it grows past [`DIRTY_LOG_CLEAR_LEN`], not
/// per step. The `affected` set is kept in ascending [`ActivityId`]
/// order: the reschedule loop draws exponential variates in iteration
/// order, so the ordering pins the RNG stream and with it bit-identical
/// trajectories.
#[derive(Clone)]
struct TimedIndex {
    affected: Vec<ActivityId>,
    /// Cursor into the marking's dirty log (entries before it are
    /// already reflected in past reschedules).
    synced: usize,
    /// Activity bitset, one `u64` per 64 ids: `collect` marks the set
    /// here and reads it back in ascending id order. All-zero between
    /// collects.
    marked: Vec<u64>,
    /// Per-place dirt flags, scratch for the full-rescan oracle scan.
    /// All-false between uses.
    dirt: Vec<bool>,
}

impl TimedIndex {
    fn new(num_activities: usize) -> Self {
        TimedIndex {
            affected: Vec::new(),
            synced: 0,
            marked: vec![0; num_activities.div_ceil(64)],
            dirt: Vec::new(),
        }
    }

    /// Tells the index the dirty log is being cleared (see
    /// [`InstIndex::note_cleared`]).
    fn note_cleared(&mut self) {
        self.synced = 0;
    }

    /// Rebuilds `affected` for the step that fired `fired`: the fired
    /// activity plus the timed dependents of every place dirtied since
    /// the last collect, ascending and deduped. Advances the cursor.
    ///
    /// Each member sets its bit in `marked`; the words between the lowest
    /// and highest one touched are then read back, and cleared, in
    /// ascending id order, so the set needs no sort or dedup.
    ///
    /// With `full_rescan` the set is instead derived by scanning *every*
    /// timed activity's read set against the dirtied places — the same
    /// set computed from the forward (activity → reads) map instead of
    /// the inverse (place → dependents) index. Tests use that mode as
    /// the oracle; debug builds cross-check every step against it.
    fn collect(&mut self, san: &San, marking: &Marking, fired: ActivityId, full_rescan: bool) {
        let from = self.synced;
        self.synced = marking.dirty_len();
        if full_rescan {
            let mut scanned = std::mem::take(&mut self.affected);
            self.scan_into(san, marking, from, fired, &mut scanned);
            self.affected = scanned;
            return;
        }
        let marked = &mut self.marked;
        let (mut lo, mut hi) = (fired.index() / 64, fired.index() / 64);
        marked[lo] |= 1 << (fired.index() % 64);
        for &p in marking.dirty_since(from) {
            for &id in san.timed_dependents_of(p) {
                let word = id.index() / 64;
                marked[word] |= 1 << (id.index() % 64);
                lo = lo.min(word);
                hi = hi.max(word);
            }
        }
        self.affected.clear();
        for (word, bits) in marked[lo..=hi].iter_mut().enumerate() {
            let mut bits = std::mem::take(bits);
            while bits != 0 {
                let bit = bits.trailing_zeros() as usize;
                self.affected
                    .push(ActivityId::from_index((lo + word) * 64 + bit));
                bits &= bits - 1;
            }
        }
        #[cfg(debug_assertions)]
        {
            let mut check = Vec::new();
            self.scan_into(san, marking, from, fired, &mut check);
            debug_assert_eq!(
                self.affected, check,
                "incremental timed reschedule index diverged from full rescan"
            );
        }
    }

    /// The full-rescan enumeration: walks all activities in id order and
    /// collects the timed ones that are `fired` or read a dirtied place.
    fn scan_into(
        &mut self,
        san: &San,
        marking: &Marking,
        from: usize,
        fired: ActivityId,
        out: &mut Vec<ActivityId>,
    ) {
        self.dirt.resize(marking.len(), false);
        for &p in marking.dirty_since(from) {
            self.dirt[p as usize] = true;
        }
        out.clear();
        for (id, act) in san.activities() {
            if act.is_instantaneous() {
                continue;
            }
            if id == fired || act.reads().iter().any(|p| self.dirt[p.index()]) {
                out.push(id);
            }
        }
        for &p in marking.dirty_since(from) {
            self.dirt[p as usize] = false;
        }
    }
}

/// Deferred exponential-delay draws for the (re)scheduling loops.
///
/// Exponential delays within one scheduling pass are sampled as a block:
/// `schedule` records `(activity, rate)` pairs, and `flush` draws all
/// pending uniforms with one [`Rng::fill_f64_open`] call and converts
/// them with a branch-free `-ln(u)/rate` pass over the slice. The draws
/// and the event-queue insertions keep the order of the `schedule` calls,
/// so every estimate is bit-identical to unbatched scheduling.
#[derive(Clone)]
struct ExpoBatch {
    now: f64,
    pending: Vec<(ActivityId, f64)>,
    uniforms: Vec<f64>,
}

impl ExpoBatch {
    fn new() -> Self {
        ExpoBatch {
            now: 0.0,
            pending: Vec::new(),
            uniforms: Vec::new(),
        }
    }

    /// Starts a scheduling pass at simulation time `now`.
    fn begin(&mut self, now: f64) {
        self.pending.clear();
        self.now = now;
    }

    /// Defers the delay draw of a timed activity into the batch.
    fn schedule(&mut self, act: &Activity, id: ActivityId, marking: &Marking) {
        let Timing::Exponential(rate) = act.timing() else {
            unreachable!("instantaneous activities are not scheduled")
        };
        let r = rate(marking);
        assert!(
            r.is_finite() && r >= 0.0,
            "activity '{}' produced invalid rate {r}",
            act.name()
        );
        if r > 0.0 {
            // Rate 0 is effectively disabled and draws nothing.
            self.pending.push((id, r));
        }
    }

    /// Samples every pending exponential delay in one block and inserts
    /// the events in the order they were scheduled.
    fn flush(
        &mut self,
        rng: &mut Rng,
        queue: &mut EventQueue<ActivityId>,
        keys: &mut [Option<EventKey>],
    ) {
        if self.pending.is_empty() {
            return;
        }
        self.uniforms.resize(self.pending.len(), 0.0);
        rng.fill_f64_open(&mut self.uniforms);
        for (u, &(_, rate)) in self.uniforms.iter_mut().zip(&self.pending) {
            *u = -u.ln() / rate;
        }
        for (&(id, _), &delay) in self.pending.iter().zip(&self.uniforms) {
            keys[id.index()] = Some(queue.schedule(self.now + delay, id));
        }
        self.pending.clear();
    }
}

/// Reusable per-thread simulation state for [`SanSimulator::run_with_scratch`].
///
/// Owns the marking, event queue, per-activity schedule table, merged
/// sample-time buffer, the incremental enabling index, the batched
/// exponential-sampling buffers and the case-weight buffer, plus a cached
/// copy of the initial token counts, so a worker thread can run many
/// replications without reallocating any of them. Every run fully resets
/// the state; reuse never changes results.
///
/// `Clone` deep-copies the entire mid-run state (marking, queue, schedule
/// table, batching buffers); together with a cloned [`RunCursor`] the copy
/// continues the run independently — the basis of importance splitting.
#[derive(Clone)]
pub struct SimScratch {
    initial: Vec<i32>,
    marking: Marking,
    queue: EventQueue<ActivityId>,
    keys: Vec<Option<EventKey>>,
    sample_times: Vec<f64>,
    inst: InstIndex,
    timed: TimedIndex,
    expo: ExpoBatch,
    weights: Vec<f64>,
}

impl SimScratch {
    /// The current marking (importance level functions read this between
    /// [`SanSimulator::step_run`] calls; the marking is stabilized then).
    pub fn marking(&self) -> &Marking {
        &self.marking
    }
}

/// Execution cursor for a run driven stepwise through
/// [`SanSimulator::begin_run`] / [`SanSimulator::step_run`].
///
/// Owns the run-local random stream, the sample-delivery position, and the
/// firing statistics. Cloning a cursor together with its [`SimScratch`]
/// snapshots a run mid-flight; the importance-splitting scheduler clones
/// both at level crossings and reseeds the copy.
#[derive(Debug, Clone)]
pub struct RunCursor {
    rng: Rng,
    next_sample: usize,
    stats: RunStats,
    /// Simulation time of the last fired event (0 before the first).
    /// [`SanSimulator::resample_pending`] needs the current time to
    /// redraw remaining delays from "now".
    now: f64,
}

impl RunCursor {
    /// Firing statistics accumulated so far.
    pub fn stats(&self) -> RunStats {
        self.stats
    }

    /// Replaces the run's random stream with one seeded from `seed`.
    pub fn reseed(&mut self, seed: u64) {
        self.rng = Rng::seed_from_u64(seed);
    }

    /// Draws one Bernoulli(`p`) from the run's stream (Russian roulette).
    pub fn survives(&mut self, p: f64) -> bool {
        self.rng.bernoulli(p)
    }
}

impl SanSimulator {
    /// Creates a simulator for the given model.
    pub fn new(san: Arc<San>) -> Self {
        SanSimulator {
            san,
            full_rescan: false,
            full_rescan_resched: false,
        }
    }

    /// The underlying model.
    pub fn san(&self) -> &Arc<San> {
        &self.san
    }

    /// Forces `stabilize` to recompute the enabled-instantaneous set with
    /// a full scan each iteration instead of the incremental enabling
    /// index. Results are identical either way; tests use this mode as
    /// the oracle the incremental index is checked against.
    #[doc(hidden)]
    pub fn set_full_rescan_stabilize(&mut self, on: bool) {
        self.full_rescan = on;
    }

    /// Forces the timed reschedule loop to derive its affected set by
    /// scanning every timed activity's read set instead of the
    /// incremental [`TimedIndex`]. Results are identical either way;
    /// tests use this mode as the oracle the index is checked against.
    #[doc(hidden)]
    pub fn set_full_rescan_reschedule(&mut self, on: bool) {
        self.full_rescan_resched = on;
    }

    /// Creates a reusable scratch for [`SanSimulator::run_with_scratch`].
    pub fn scratch(&self) -> SimScratch {
        SimScratch {
            initial: self.san.initial.clone(),
            marking: self.san.initial_marking(),
            queue: EventQueue::new(),
            keys: vec![None; self.san.num_activities()],
            sample_times: Vec::new(),
            inst: InstIndex::new(),
            timed: TimedIndex::new(self.san.num_activities()),
            expo: ExpoBatch::new(),
            weights: Vec::new(),
        }
    }

    /// Runs one replication with the given seed until `horizon`.
    ///
    /// Equivalent to [`SanSimulator::run_with_scratch`] with a fresh
    /// scratch; use that form to amortise state allocation across
    /// replications.
    ///
    /// # Errors
    ///
    /// Returns [`SanError::Unstabilized`] if instantaneous activities
    /// livelock.
    ///
    /// # Panics
    ///
    /// Panics if `horizon` is negative or NaN.
    pub fn run(
        &self,
        seed: u64,
        horizon: f64,
        observer: &mut impl Observer,
    ) -> Result<RunStats, SanError> {
        let mut scratch = self.scratch();
        self.run_with_scratch(seed, horizon, observer, &mut scratch)
    }

    /// Runs one replication, reusing `scratch`'s allocations.
    ///
    /// The scratch is reset first, so the run is byte-identical to
    /// [`SanSimulator::run`] with the same arguments, regardless of what
    /// the scratch was previously used for.
    ///
    /// # Errors
    ///
    /// Returns [`SanError::Unstabilized`] if instantaneous activities
    /// livelock.
    ///
    /// # Panics
    ///
    /// Panics if `horizon` is negative or NaN, or if `scratch` was created
    /// for a structurally different model.
    pub fn run_with_scratch(
        &self,
        seed: u64,
        horizon: f64,
        observer: &mut impl Observer,
        scratch: &mut SimScratch,
    ) -> Result<RunStats, SanError> {
        let mut cursor = self.begin_run(seed, horizon, observer, scratch)?;
        while self.step_run(horizon, observer, scratch, &mut cursor)? {}
        Ok(cursor.stats)
    }

    /// Resets `scratch`, performs the time-zero stabilization and initial
    /// scheduling, and returns the cursor from which the run proceeds one
    /// event at a time via [`SanSimulator::step_run`].
    ///
    /// `run_with_scratch` is exactly `begin_run` followed by `step_run`
    /// until it returns `false`, so stepwise execution is bit-identical to
    /// the monolithic loop by construction.
    ///
    /// # Errors
    ///
    /// Returns [`SanError::Unstabilized`] if instantaneous activities
    /// livelock during the initial stabilization.
    ///
    /// # Panics
    ///
    /// Panics if `horizon` is negative or NaN, or if `scratch` was created
    /// for a structurally different model.
    pub fn begin_run(
        &self,
        seed: u64,
        horizon: f64,
        observer: &mut impl Observer,
        scratch: &mut SimScratch,
    ) -> Result<RunCursor, SanError> {
        assert!(horizon >= 0.0 && !horizon.is_nan(), "bad horizon");
        let san = &*self.san;
        assert!(
            scratch.keys.len() == san.num_activities() && scratch.initial == san.initial,
            "scratch does not match this model"
        );

        // Reset the scratch to the pristine time-zero state, keeping the
        // backing allocations.
        let SimScratch {
            initial,
            marking,
            queue,
            keys,
            sample_times,
            inst,
            timed,
            expo,
            weights,
        } = scratch;
        let marking = &mut *marking;
        marking.assign(initial);
        queue.clear();
        for k in keys.iter_mut() {
            *k = None;
        }

        let mut cursor = RunCursor {
            rng: Rng::seed_from_u64(seed),
            next_sample: 0,
            stats: RunStats {
                timed_firings: 0,
                instantaneous_firings: 0,
                end_time: 0.0,
            },
            now: 0.0,
        };

        // Collect the requested sample times within the horizon, in order.
        sample_times.clear();
        observer.append_sample_times(sample_times);
        sample_times.retain(|&t| t <= horizon);
        sample_times.sort_by(|a, b| a.partial_cmp(b).expect("sample times are not NaN"));
        sample_times.dedup();

        // Initial stabilization. Firings before time zero are not
        // observable events, hence the null observer.
        inst.rebuild(san, marking);
        self.stabilize(marking, &mut cursor, &mut (), inst, weights)?;
        marking.clear_dirty();
        inst.note_cleared();
        timed.note_cleared();
        observer.on_init(0.0, marking);
        // Schedule every enabled timed activity.
        expo.begin(0.0);
        for (id, act) in san.activities() {
            if !act.is_instantaneous() && act.enabled(marking) {
                expo.schedule(act, id, marking);
            }
        }
        expo.flush(&mut cursor.rng, queue, keys);
        Ok(cursor)
    }

    /// Advances the run by one event-queue entry: delivers due sample
    /// points, then pops and fires the next timed activity (with its
    /// zero-time stabilization cascade and rescheduling). Returns
    /// `Ok(false)` once the horizon is reached or the queue drains —
    /// `cursor.stats()` is final at that point.
    ///
    /// # Errors
    ///
    /// Returns [`SanError::Unstabilized`] if instantaneous activities
    /// livelock.
    pub fn step_run(
        &self,
        horizon: f64,
        observer: &mut impl Observer,
        scratch: &mut SimScratch,
        cursor: &mut RunCursor,
    ) -> Result<bool, SanError> {
        let san = &*self.san;
        let SimScratch {
            initial: _,
            marking,
            queue,
            keys,
            sample_times,
            inst,
            timed,
            expo,
            weights,
        } = scratch;
        let marking = &mut *marking;

        let next_time = queue.peek_time();
        // Deliver sample points that precede the next event (or all
        // remaining ones if the queue is drained / past horizon).
        let cutoff = next_time.map_or(horizon, |t| t.min(horizon));
        while cursor.next_sample < sample_times.len() && sample_times[cursor.next_sample] <= cutoff
        {
            observer.on_sample(sample_times[cursor.next_sample], marking);
            cursor.next_sample += 1;
        }

        // No more events (the marking is frozen, but the observation
        // interval still runs to the horizon), or the next event lies
        // beyond it: the run is over.
        if next_time.is_none_or(|t| t > horizon) {
            cursor.stats.end_time = horizon;
            observer.on_end(horizon, marking);
            return Ok(false);
        }

        let (now, act_id) = queue.pop().expect("peeked event exists");
        cursor.now = now;
        debug_assert!(
            keys[act_id.index()].is_some(),
            "popped activity must have been scheduled"
        );
        keys[act_id.index()] = None;

        let act = san.activity(act_id);
        debug_assert!(act.enabled(marking), "scheduled activity must be enabled");

        // Fire.
        let case = choose_case(act, marking, weights, &mut cursor.rng);
        act.fire(case, marking);
        cursor.stats.timed_firings += 1;

        // Zero-time stabilization of instantaneous activities.
        self.stabilize(marking, cursor, observer, inst, weights)?;

        // Incrementally update the timed activities affected by the
        // firing and its cascade: drop each one's pending sample and, if
        // it is still enabled, batch a fresh draw (memorylessness makes
        // the redraw exact, and marking-dependent rates require it).
        // `timed` consumes only the dirty-log suffix past its cursor, so
        // the log itself is cleared lazily (below) once it grows past the
        // threshold — both cursors share one log lifecycle.
        timed.collect(san, marking, act_id, self.full_rescan_resched);
        expo.begin(now);
        for &id in &timed.affected {
            Self::cancel(id, queue, keys);
            let act = san.activity(id);
            if act.enabled(marking) {
                expo.schedule(act, id, marking);
            }
        }
        expo.flush(&mut cursor.rng, queue, keys);
        if marking.dirty_len() >= DIRTY_LOG_CLEAR_LEN {
            // Every cursor is fully synced here, so dropping the log is
            // invisible to both indices.
            marking.clear_dirty();
            inst.note_cleared();
            timed.note_cleared();
        }

        observer.on_event(now, act_id, marking);
        Ok(true)
    }

    fn cancel(id: ActivityId, queue: &mut EventQueue<ActivityId>, keys: &mut [Option<EventKey>]) {
        if let Some(key) = keys[id.index()].take() {
            queue.cancel(key);
        }
    }

    /// Redraws the completion time of every scheduled activity from the
    /// cursor's stream, anchored at the current simulation time.
    ///
    /// Every timed activity is exponential and so memoryless: conditioned
    /// on the current marking the redrawn schedule has exactly the law of
    /// the old one — this changes *which* future gets sampled, never its
    /// distribution. An importance-splitting branch calls this after
    /// [`RunCursor::reseed`]: without it, sibling branches would inherit
    /// the parent's already-drawn completion times from the cloned queue
    /// and replay near-identical futures, defeating the variance
    /// reduction splitting exists for.
    ///
    /// # Panics
    ///
    /// Panics if `scratch` does not belong to this model.
    pub fn resample_pending(&self, scratch: &mut SimScratch, cursor: &mut RunCursor) {
        let san = &*self.san;
        assert!(
            scratch.keys.len() == san.num_activities(),
            "scratch does not match this model"
        );
        let SimScratch {
            marking,
            queue,
            keys,
            expo,
            ..
        } = scratch;
        expo.begin(cursor.now);
        for (id, act) in san.activities() {
            if keys[id.index()].is_some() {
                Self::cancel(id, queue, keys);
                expo.schedule(act, id, marking);
            }
        }
        expo.flush(&mut cursor.rng, queue, keys);
    }

    /// Fires enabled instantaneous activities (uniform random choice) at
    /// `cursor.now` until none is enabled, keeping `idx` in sync with the
    /// dirty log.
    ///
    /// For the initial stabilization the caller passes the null observer
    /// `()`: firings before time zero are not observable events.
    fn stabilize(
        &self,
        marking: &mut Marking,
        cursor: &mut RunCursor,
        observer: &mut impl Observer,
        idx: &mut InstIndex,
        weights: &mut Vec<f64>,
    ) -> Result<(), SanError> {
        let san = &*self.san;
        let mut firings = 0usize;
        loop {
            if self.full_rescan {
                san.enabled_instantaneous_into(marking, &mut idx.enabled);
                idx.synced = marking.dirty_len();
            } else {
                idx.sync(san, marking);
                #[cfg(debug_assertions)]
                {
                    let mut check = Vec::new();
                    san.enabled_instantaneous_into(marking, &mut check);
                    debug_assert_eq!(
                        idx.enabled, check,
                        "incremental enabling index diverged from full rescan"
                    );
                }
            }
            if idx.enabled.is_empty() {
                return Ok(());
            }
            firings += 1;
            if firings > MAX_STABILIZATION_FIRINGS {
                return Err(SanError::Unstabilized {
                    marking: marking.values().to_vec(),
                });
            }
            let id = idx.enabled[cursor.rng.usize_below(idx.enabled.len())];
            let act = san.activity(id);
            let case = choose_case(act, marking, weights, &mut cursor.rng);
            act.fire(case, marking);
            cursor.stats.instantaneous_firings += 1;
            observer.on_event(cursor.now, id, marking);
        }
    }
}

/// Chooses the case to fire with probability proportional to its weight
/// in `marking`. A one-case activity returns case 0 without evaluating
/// its weight or drawing; a multi-case one evaluates its weights into
/// the reused `weights` buffer.
fn choose_case(act: &Activity, marking: &Marking, weights: &mut Vec<f64>, rng: &mut Rng) -> usize {
    if act.num_cases() == 1 {
        return 0;
    }
    act.case_weights_into(marking, weights);
    rng.weighted_choice(weights)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SanBuilder;
    use std::sync::Arc as StdArc;

    /// Counts firings per activity.
    #[derive(Default)]
    struct FiringCounter {
        counts: std::collections::BTreeMap<u32, u64>,
        end_time: f64,
    }

    impl Observer for FiringCounter {
        fn on_event(&mut self, _time: f64, activity: ActivityId, _m: &Marking) {
            *self.counts.entry(activity.0).or_insert(0) += 1;
        }
        fn on_end(&mut self, time: f64, _m: &Marking) {
            self.end_time = time;
        }
    }

    fn poisson_model(rate: f64) -> StdArc<San> {
        let mut b = SanBuilder::new("poisson");
        let count = b.place("count", 0);
        b.timed_activity("arrive", rate)
            .output_arc(count, 1)
            .build()
            .unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn poisson_firing_count() {
        let san = poisson_model(5.0);
        let sim = SanSimulator::new(san);
        let mut obs = FiringCounter::default();
        let stats = sim.run(42, 100.0, &mut obs).unwrap();
        // ~500 firings expected; 5-sigma ≈ 112.
        assert!(
            (stats.timed_firings as f64 - 500.0).abs() < 120.0,
            "{stats:?}"
        );
        assert_eq!(stats.end_time, 100.0);
        assert_eq!(obs.end_time, 100.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let san = poisson_model(2.0);
        let sim = SanSimulator::new(san);
        let a = sim.run(7, 50.0, &mut ()).unwrap();
        let b = sim.run(7, 50.0, &mut ()).unwrap();
        assert_eq!(a, b);
        let c = sim.run(8, 50.0, &mut ()).unwrap();
        assert_ne!(a.timed_firings, c.timed_firings);
    }

    #[test]
    fn reused_scratch_matches_fresh_runs() {
        let san = poisson_model(3.0);
        let sim = SanSimulator::new(san);
        let mut scratch = sim.scratch();
        for seed in 0..30 {
            let mut obs_reused = FiringCounter::default();
            let reused = sim
                .run_with_scratch(seed, 20.0, &mut obs_reused, &mut scratch)
                .unwrap();
            let mut obs_fresh = FiringCounter::default();
            let fresh = sim.run(seed, 20.0, &mut obs_fresh).unwrap();
            assert_eq!(reused, fresh, "seed {seed}");
            assert_eq!(obs_reused.counts, obs_fresh.counts, "seed {seed}");
        }
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn scratch_from_other_model_is_rejected() {
        let sim_a = SanSimulator::new(poisson_model(3.0));
        let mut b = SanBuilder::new("other");
        let p = b.place("p", 7);
        b.timed_activity("t", 1.0).input_arc(p, 1).build().unwrap();
        let sim_b = SanSimulator::new(b.finish().unwrap());
        let mut scratch = sim_b.scratch();
        let _ = sim_a.run_with_scratch(0, 1.0, &mut (), &mut scratch);
    }

    #[test]
    fn queue_drains_when_nothing_enabled() {
        let mut b = SanBuilder::new("finite");
        let p = b.place("p", 3);
        let done = b.place("done", 0);
        b.timed_activity("consume", 10.0)
            .input_arc(p, 1)
            .output_arc(done, 1)
            .build()
            .unwrap();
        let san = b.finish().unwrap();
        let sim = SanSimulator::new(san.clone());
        let stats = sim.run(1, 1000.0, &mut ()).unwrap();
        assert_eq!(stats.timed_firings, 3);
        // The queue drained early, but the observation window is [0, 1000].
        assert_eq!(stats.end_time, 1000.0);
    }

    #[test]
    fn instantaneous_stabilization_and_uniform_choice() {
        // Two instantaneous activities race for one token; over many seeds
        // each should win about half the time.
        let mut wins_a = 0;
        for seed in 0..400 {
            let mut b = SanBuilder::new("race");
            let token = b.place("token", 1);
            let a = b.place("a", 0);
            let c = b.place("c", 0);
            b.instantaneous_activity("take_a")
                .input_arc(token, 1)
                .output_arc(a, 1)
                .build()
                .unwrap();
            b.instantaneous_activity("take_c")
                .input_arc(token, 1)
                .output_arc(c, 1)
                .build()
                .unwrap();
            // A timed activity so the model is not empty of timed events.
            let sink = b.place("sink", 0);
            b.timed_activity("tick", 1.0)
                .output_arc(sink, 1)
                .build()
                .unwrap();
            let san = b.finish().unwrap();
            let sim = SanSimulator::new(san.clone());

            struct Final(i32);
            impl Observer for Final {
                fn on_end(&mut self, _t: f64, m: &Marking) {
                    self.0 = m.get(crate::marking::PlaceId(1));
                }
            }
            let mut f = Final(-1);
            sim.run(seed, 0.5, &mut f).unwrap();
            if f.0 == 1 {
                wins_a += 1;
            }
        }
        assert!(
            (wins_a as f64 / 400.0 - 0.5).abs() < 0.1,
            "a won {wins_a}/400"
        );
    }

    #[test]
    fn livelock_detected() {
        let mut b = SanBuilder::new("livelock");
        let p = b.place("p", 1);
        // Instantaneous activity that never consumes its enabling token.
        b.instantaneous_activity("spin")
            .predicate(&[p], move |m| m.get(p) > 0)
            .input_gate(&[], |_| true, |_m| {})
            .build()
            .unwrap();
        let san = b.finish().unwrap();
        let sim = SanSimulator::new(san);
        let err = sim.run(1, 1.0, &mut ()).unwrap_err();
        assert!(matches!(err, SanError::Unstabilized { .. }));
    }

    #[test]
    fn case_probabilities_respected() {
        let mut b = SanBuilder::new("cases");
        let hit = b.place("hit", 0);
        let miss = b.place("miss", 0);
        b.timed_activity("flip", 10.0)
            .case(0.8, move |m| m.add(hit, 1))
            .case(0.2, move |m| m.add(miss, 1))
            .build()
            .unwrap();
        let san = b.finish().unwrap();
        let sim = SanSimulator::new(san.clone());
        struct Ratio {
            hit: i32,
            miss: i32,
        }
        impl Observer for Ratio {
            fn on_end(&mut self, _t: f64, m: &Marking) {
                self.hit = m.get(crate::marking::PlaceId(0));
                self.miss = m.get(crate::marking::PlaceId(1));
            }
        }
        let mut r = Ratio { hit: 0, miss: 0 };
        sim.run(3, 1000.0, &mut r).unwrap();
        let frac = r.hit as f64 / (r.hit + r.miss) as f64;
        assert!((frac - 0.8).abs() < 0.02, "hit fraction {frac}");
    }

    #[test]
    fn disabled_activity_is_cancelled() {
        // Two activities compete for a token; the loser must not fire.
        let mut b = SanBuilder::new("race2");
        let p = b.place("p", 1);
        let a_out = b.place("a_out", 0);
        let b_out = b.place("b_out", 0);
        b.timed_activity("fast", 1000.0)
            .input_arc(p, 1)
            .output_arc(a_out, 1)
            .build()
            .unwrap();
        b.timed_activity("slow", 0.001)
            .input_arc(p, 1)
            .output_arc(b_out, 1)
            .build()
            .unwrap();
        let san = b.finish().unwrap();
        let sim = SanSimulator::new(san.clone());
        struct Final(i32, i32);
        impl Observer for Final {
            fn on_end(&mut self, _t: f64, m: &Marking) {
                self.0 = m.get(crate::marking::PlaceId(1));
                self.1 = m.get(crate::marking::PlaceId(2));
            }
        }
        let mut f = Final(0, 0);
        let stats = sim.run(5, 10_000.0, &mut f).unwrap();
        assert_eq!(stats.timed_firings, 1);
        assert_eq!(f.0 + f.1, 1);
    }

    #[test]
    fn marking_dependent_rate_updates() {
        // Rate doubles when "boost" place has a token; verify the mean
        // firing count responds.
        let mut b = SanBuilder::new("mdr");
        let boost = b.place("boost", 0);
        let count = b.place("count", 0);
        let boost_c = boost;
        b.timed_activity_fn(
            "tick",
            StdArc::new(move |m| if m.get(boost_c) > 0 { 20.0 } else { 1.0 }),
            &[boost],
        )
        .output_arc(count, 1)
        .build()
        .unwrap();
        b.timed_activity("boost_on", 1000.0)
            .predicate(&[boost], move |m| m.get(boost) == 0)
            .output_arc(boost, 1)
            .build()
            .unwrap();
        let san = b.finish().unwrap();
        let sim = SanSimulator::new(san.clone());
        let stats = sim.run(11, 10.0, &mut ()).unwrap();
        // boost turns on almost immediately → ≈ 200 ticks + 1 boost firing.
        assert!(
            stats.timed_firings > 120,
            "rate did not increase: {stats:?}"
        );
    }

    #[test]
    fn sample_times_delivered_in_order() {
        struct Sampler {
            times: Vec<f64>,
        }
        impl Observer for Sampler {
            fn append_sample_times(&self, out: &mut Vec<f64>) {
                out.extend_from_slice(&[1.0, 2.0, 5.0, 50.0]);
            }
            fn on_sample(&mut self, time: f64, _m: &Marking) {
                self.times.push(time);
            }
        }
        let san = poisson_model(3.0);
        let sim = SanSimulator::new(san);
        let mut s = Sampler { times: vec![] };
        sim.run(1, 10.0, &mut s).unwrap();
        // 50.0 lies beyond the horizon and must not be delivered.
        assert_eq!(s.times, vec![1.0, 2.0, 5.0]);
    }

    #[test]
    fn zero_rate_activity_never_fires() {
        let mut b = SanBuilder::new("zr");
        let p = b.place("p", 1);
        let out = b.place("out", 0);
        let pc = p;
        b.timed_activity_fn("never", StdArc::new(move |_| 0.0), &[pc])
            .input_arc(p, 1)
            .output_arc(out, 1)
            .build()
            .unwrap();
        let san = b.finish().unwrap();
        let sim = SanSimulator::new(san);
        let stats = sim.run(1, 100.0, &mut ()).unwrap();
        assert_eq!(stats.timed_firings, 0);
    }
}
