//! Reward variables: measures defined on a raw SAN model.
//!
//! Three kinds cover the paper's state-based measures: *unavailability
//! for an interval* ([`TimeAveraged`] over an indicator), *unreliability
//! for an interval* ([`EverTrue`]: was the indicator ever 1) and *number
//! of replicas running at an instant* ([`InstantOfTime`]). Each is an
//! [`crate::simulator::Observer`] that turns one simulation run into one
//! or more named observations. The composed ITUA model's measures,
//! including the event-triggered *fraction of corrupt hosts in an
//! excluded domain*, are observed in `itua_core::san_exec`.

use crate::marking::Marking;
use crate::model::ActivityId;
use crate::simulator::Observer;
use itua_stats::timeweighted::TimeWeighted;
use std::sync::Arc;

/// Shared-ownership reward function over a marking.
pub type RewardFn = Arc<dyn Fn(&Marking) -> f64 + Send + Sync>;

/// A named observation produced by a reward variable at the end of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct Observation {
    /// Measure name (may include a suffix such as `@5`).
    pub name: String,
    /// Observed value for this replication.
    pub value: f64,
}

/// A reward variable that can be harvested after a run.
pub trait RewardVariable: Observer {
    /// The observations this variable produced during the last run.
    fn observations(&self) -> Vec<Observation>;

    /// Resets internal state so the variable can observe another run.
    fn reset(&mut self);
}

/// Interval-of-time variable: the time average of `f(marking)` over
/// `[0, horizon]` (e.g. unavailability when `f` is an indicator).
pub struct TimeAveraged {
    name: String,
    f: RewardFn,
    acc: Option<TimeWeighted>,
    result: Option<f64>,
}

impl TimeAveraged {
    /// Creates a time-averaged variable named `name`.
    pub fn new(
        name: impl Into<String>,
        f: impl Fn(&Marking) -> f64 + Send + Sync + 'static,
    ) -> Self {
        TimeAveraged {
            name: name.into(),
            f: Arc::new(f),
            acc: None,
            result: None,
        }
    }
}

impl Observer for TimeAveraged {
    fn on_init(&mut self, time: f64, marking: &Marking) {
        self.acc = Some(TimeWeighted::new(time, (self.f)(marking)));
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

impl RewardVariable for TimeAveraged {
    fn observations(&self) -> Vec<Observation> {
        self.result
            .map(|value| Observation {
                name: self.name.clone(),
                value,
            })
            .into_iter()
            .collect()
    }

    fn reset(&mut self) {
        self.acc = None;
        self.result = None;
    }
}

/// Sticky indicator over an interval: 1 if `f(marking) > 0` at any point in
/// `[0, horizon]`, else 0. Averaged over replications this estimates
/// *unreliability*.
pub struct EverTrue {
    name: String,
    f: RewardFn,
    hit: bool,
    done: bool,
}

impl EverTrue {
    /// Creates a sticky-indicator variable named `name`.
    pub fn new(
        name: impl Into<String>,
        f: impl Fn(&Marking) -> f64 + Send + Sync + 'static,
    ) -> Self {
        EverTrue {
            name: name.into(),
            f: Arc::new(f),
            hit: false,
            done: false,
        }
    }
}

impl Observer for EverTrue {
    fn on_init(&mut self, _time: f64, marking: &Marking) {
        if (self.f)(marking) > 0.0 {
            self.hit = true;
        }
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

impl RewardVariable for EverTrue {
    fn observations(&self) -> Vec<Observation> {
        if self.done {
            vec![Observation {
                name: self.name.clone(),
                value: if self.hit { 1.0 } else { 0.0 },
            }]
        } else {
            vec![]
        }
    }

    fn reset(&mut self) {
        self.hit = false;
        self.done = false;
    }
}

/// Instant-of-time variable: the value of `f(marking)` at each time in
/// `times`; produces observations named `name@t`.
pub struct InstantOfTime {
    name: String,
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
    pub fn new(
        name: impl Into<String>,
        times: Vec<f64>,
        f: impl Fn(&Marking) -> f64 + Send + Sync + 'static,
    ) -> Self {
        assert!(!times.is_empty(), "need at least one sample time");
        assert!(
            times.windows(2).all(|w| w[0] <= w[1]),
            "sample times must be sorted"
        );
        InstantOfTime {
            name: name.into(),
            f: Arc::new(f),
            times,
            samples: Vec::new(),
        }
    }
}

impl Observer for InstantOfTime {
    fn append_sample_times(&self, out: &mut Vec<f64>) {
        out.extend_from_slice(&self.times);
    }

    fn on_sample(&mut self, time: f64, marking: &Marking) {
        if self.times.contains(&time) {
            self.samples.push((time, (self.f)(marking)));
        }
    }

    fn on_end(&mut self, time: f64, marking: &Marking) {
        // A run may end (queue drained) before later sample points; the
        // marking can no longer change, so the final value stands in.
        for &t in &self.times {
            if t >= time && !self.samples.iter().any(|&(st, _)| st == t) {
                self.samples.push((t, (self.f)(marking)));
            }
        }
    }
}

impl RewardVariable for InstantOfTime {
    fn observations(&self) -> Vec<Observation> {
        self.samples
            .iter()
            .map(|&(t, v)| Observation {
                name: format!("{}@{t}", self.name),
                value: v,
            })
            .collect()
    }

    fn reset(&mut self) {
        self.samples.clear();
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
            let mut rv = TimeAveraged::new("frac_q", move |m| m.get(q) as f64);
            sim.run(seed, horizon, &mut [&mut rv]).unwrap();
            let obs = rv.observations();
            assert_eq!(obs.len(), 1);
            est.push(obs[0].value, 1.0);
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
            let mut rv = EverTrue::new("moved", move |m| m.get(q) as f64);
            sim.run(seed, horizon, &mut [&mut rv]).unwrap();
            if rv.observations()[0].value > 0.5 {
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
            let mut rv = InstantOfTime::new("q", vec![0.5, 1.5], move |m| m.get(q) as f64);
            sim.run(seed, 2.0, &mut [&mut rv]).unwrap();
            let obs = rv.observations();
            assert_eq!(obs.len(), 2);
            for o in &obs {
                let idx = if o.name == "q@0.5" { 0 } else { 1 };
                if o.value > 0.5 {
                    p_at[idx] += 1;
                }
            }
        }
        let p05 = p_at[0] as f64 / n as f64;
        let p15 = p_at[1] as f64 / n as f64;
        assert!((p05 - (1.0 - (-0.5f64).exp())).abs() < 0.02, "{p05}");
        assert!((p15 - (1.0 - (-1.5f64).exp())).abs() < 0.02, "{p15}");
    }

    #[test]
    fn reset_clears_state() {
        let san = flip_model();
        let q = san.place_id("q").unwrap();
        let sim = SanSimulator::new(san);
        let mut rv = EverTrue::new("moved", move |m| m.get(q) as f64);
        sim.run(2, 100.0, &mut [&mut rv]).unwrap();
        assert_eq!(rv.observations()[0].value, 1.0);
        rv.reset();
        assert!(rv.observations().is_empty());
    }
}
