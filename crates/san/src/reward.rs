//! Reward variables: measures defined on a raw SAN model.
//!
//! Three kinds cover the paper's state-based measures: *unavailability
//! for an interval* ([`TimeAveraged`] over an indicator), *unreliability
//! for an interval* ([`EverTrue`]: was the indicator ever 1) and *number
//! of replicas running at an instant* ([`InstantOfTime`]). Each is the
//! [`crate::simulator::Observer`] of a run and holds that run's result
//! until the next run, which it starts afresh in `on_init`, so one value
//! observes run after run. The composed ITUA model's measures, including
//! the event-triggered *fraction of corrupt hosts in an excluded domain*,
//! are observed in `itua_core::san_exec`.

use crate::marking::Marking;
use crate::model::ActivityId;
use crate::simulator::Observer;
use itua_stats::timeweighted::TimeWeighted;
use std::sync::Arc;

/// Shared-ownership reward function over a marking.
pub type RewardFn = Arc<dyn Fn(&Marking) -> f64 + Send + Sync>;

/// Interval-of-time variable: the time average of `f(marking)` over
/// `[0, horizon]` (e.g. unavailability when `f` is an indicator).
pub struct TimeAveraged {
    f: RewardFn,
    acc: Option<TimeWeighted>,
    result: Option<f64>,
}

impl TimeAveraged {
    /// Creates a time-averaged variable of `f`.
    pub fn new(f: impl Fn(&Marking) -> f64 + Send + Sync + 'static) -> Self {
        TimeAveraged {
            f: Arc::new(f),
            acc: None,
            result: None,
        }
    }

    /// The time average over the last run; `None` until a run has ended.
    pub fn value(&self) -> Option<f64> {
        self.result
    }
}

impl Observer for TimeAveraged {
    fn on_init(&mut self, time: f64, marking: &Marking) {
        self.acc = Some(TimeWeighted::new(time, (self.f)(marking)));
        self.result = None;
    }

    fn on_event(&mut self, time: f64, _activity: ActivityId, marking: &Marking) {
        if let Some(acc) = &mut self.acc {
            acc.set(time, (self.f)(marking));
        }
    }

    fn on_end(&mut self, time: f64, _marking: &Marking) {
        if let Some(acc) = &self.acc {
            self.result = Some(acc.mean_until(time));
        }
    }
}

/// Sticky indicator over an interval: 1 if `f(marking) > 0` at any point in
/// `[0, horizon]`, else 0. Averaged over replications this estimates
/// *unreliability*.
pub struct EverTrue {
    f: RewardFn,
    hit: bool,
    done: bool,
}

impl EverTrue {
    /// Creates a sticky indicator of `f`.
    pub fn new(f: impl Fn(&Marking) -> f64 + Send + Sync + 'static) -> Self {
        EverTrue {
            f: Arc::new(f),
            hit: false,
            done: false,
        }
    }

    /// 1 if the indicator was ever true during the last run, else 0;
    /// `None` until a run has ended.
    pub fn value(&self) -> Option<f64> {
        self.done.then_some(if self.hit { 1.0 } else { 0.0 })
    }
}

impl Observer for EverTrue {
    fn on_init(&mut self, _time: f64, marking: &Marking) {
        self.hit = (self.f)(marking) > 0.0;
        self.done = false;
    }

    fn on_event(&mut self, _time: f64, _activity: ActivityId, marking: &Marking) {
        if !self.hit && (self.f)(marking) > 0.0 {
            self.hit = true;
        }
    }

    fn on_end(&mut self, _time: f64, _marking: &Marking) {
        self.done = true;
    }
}

/// Instant-of-time variable: the value of `f(marking)` at each time in
/// `times`.
pub struct InstantOfTime {
    f: RewardFn,
    times: Vec<f64>,
    samples: Vec<(f64, f64)>,
}

impl InstantOfTime {
    /// Creates an instant-of-time variable sampling at `times` (sorted
    /// ascending).
    ///
    /// # Panics
    ///
    /// Panics if `times` is empty or not sorted.
    pub fn new(times: Vec<f64>, f: impl Fn(&Marking) -> f64 + Send + Sync + 'static) -> Self {
        assert!(!times.is_empty(), "need at least one sample time");
        assert!(
            times.windows(2).all(|w| w[0] <= w[1]),
            "sample times must be sorted"
        );
        InstantOfTime {
            f: Arc::new(f),
            times,
            samples: Vec::new(),
        }
    }

    /// The `(time, value)` samples of the last run, one per distinct
    /// sample time in ascending order; empty until a run has begun.
    pub fn samples(&self) -> &[(f64, f64)] {
        &self.samples
    }
}

impl Observer for InstantOfTime {
    fn on_init(&mut self, _time: f64, _marking: &Marking) {
        self.samples.clear();
    }

    fn append_sample_times(&self, out: &mut Vec<f64>) {
        out.extend_from_slice(&self.times);
    }

    fn on_sample(&mut self, time: f64, marking: &Marking) {
        // The simulator delivers only the times this variable requested.
        self.samples.push((time, (self.f)(marking)));
    }

    fn on_end(&mut self, time: f64, marking: &Marking) {
        // Sample times past the horizon are never delivered; the marking
        // at the horizon stands in for them.
        for &t in &self.times {
            if t >= time && !self.samples.iter().any(|&(st, _)| st == t) {
                self.samples.push((t, (self.f)(marking)));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SanBuilder;
    use crate::simulator::SanSimulator;

    /// p starts 1; activity moves the token to q at rate 1.
    fn flip_model() -> std::sync::Arc<crate::model::San> {
        let mut b = SanBuilder::new("flip");
        let p = b.place("p", 1);
        let q = b.place("q", 0);
        b.timed_activity("move", 1.0)
            .input_arc(p, 1)
            .output_arc(q, 1)
            .build()
            .unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn time_averaged_indicator() {
        let san = flip_model();
        let q = san.place_id("q").unwrap();
        let sim = SanSimulator::new(san);
        // E[fraction of [0,T] with q = 1] = 1 - (1 - e^{-T})/T for rate 1.
        let horizon = 2.0;
        let mut est = itua_stats::weighted::WeightedStats::new();
        for seed in 0..4000 {
            let mut rv = TimeAveraged::new(move |m| m.get(q) as f64);
            sim.run(seed, horizon, &mut rv).unwrap();
            est.push(rv.value().unwrap(), 1.0);
        }
        let expected = 1.0 - (1.0 - (-horizon).exp()) / horizon;
        assert!(
            (est.mean() - expected).abs() < 0.01,
            "{} vs {expected}",
            est.mean()
        );
    }

    #[test]
    fn ever_true_estimates_unreliability() {
        let san = flip_model();
        let q = san.place_id("q").unwrap();
        let sim = SanSimulator::new(san);
        // P[token moved by T] = 1 - e^{-T}.
        let horizon = 1.0;
        let mut hits = 0u32;
        let n = 4000;
        for seed in 0..n {
            let mut rv = EverTrue::new(move |m| m.get(q) as f64);
            sim.run(seed, horizon, &mut rv).unwrap();
            if rv.value().unwrap() > 0.5 {
                hits += 1;
            }
        }
        let expected = 1.0 - (-1.0f64).exp();
        assert!(
            (hits as f64 / n as f64 - expected).abs() < 0.02,
            "{hits}/{n}"
        );
    }

    #[test]
    fn instant_of_time_samples() {
        let san = flip_model();
        let q = san.place_id("q").unwrap();
        let sim = SanSimulator::new(san);
        let mut p_at = [0u32; 2]; // estimates at t = 0.5 and 1.5
        let n = 4000;
        for seed in 0..n {
            let mut rv = InstantOfTime::new(vec![0.5, 1.5], move |m| m.get(q) as f64);
            sim.run(seed, 2.0, &mut rv).unwrap();
            let samples = rv.samples();
            assert_eq!(samples.iter().map(|s| s.0).collect::<Vec<_>>(), [0.5, 1.5]);
            for (hits, &(_, value)) in p_at.iter_mut().zip(samples) {
                if value > 0.5 {
                    *hits += 1;
                }
            }
        }
        let p05 = p_at[0] as f64 / n as f64;
        let p15 = p_at[1] as f64 / n as f64;
        assert!((p05 - (1.0 - (-0.5f64).exp())).abs() < 0.02, "{p05}");
        assert!((p15 - (1.0 - (-1.5f64).exp())).abs() < 0.02, "{p15}");
    }

    #[test]
    fn a_reused_variable_starts_each_run_afresh() {
        let san = flip_model();
        let q = san.place_id("q").unwrap();
        let sim = SanSimulator::new(san);
        let f = move |m: &Marking| m.get(q) as f64;
        let (mut avg, mut ever) = (TimeAveraged::new(f), EverTrue::new(f));
        let mut inst = InstantOfTime::new(vec![0.25, 0.5, 9.0], f);
        let (mut hit_before, mut reset_after_hit) = (false, false);
        for seed in 0..40 {
            // Horizon 0.5: the token has moved by then in about 40% of runs.
            sim.run(seed, 0.5, &mut avg).unwrap();
            sim.run(seed, 0.5, &mut ever).unwrap();
            sim.run(seed, 0.5, &mut inst).unwrap();
            let mut fresh_avg = TimeAveraged::new(f);
            let mut fresh_ever = EverTrue::new(f);
            let mut fresh_inst = InstantOfTime::new(vec![0.25, 0.5, 9.0], f);
            sim.run(seed, 0.5, &mut fresh_avg).unwrap();
            sim.run(seed, 0.5, &mut fresh_ever).unwrap();
            sim.run(seed, 0.5, &mut fresh_inst).unwrap();
            assert_eq!(avg.value(), fresh_avg.value(), "seed {seed}");
            assert_eq!(ever.value(), fresh_ever.value(), "seed {seed}");
            assert_eq!(inst.samples(), fresh_inst.samples(), "seed {seed}");
            assert_eq!(inst.samples().len(), 3, "seed {seed}");
            let hit = ever.value() == Some(1.0);
            reset_after_hit |= hit_before && !hit;
            hit_before |= hit;
        }
        // Some run that found the token moved was followed by one that
        // did not, so the indicator was really cleared.
        assert!(reset_after_hit);
    }
}
