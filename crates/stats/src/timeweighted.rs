//! Time-weighted statistics over piecewise-constant sample paths.
//!
//! Interval-of-time reward variables ("fraction of time the service was
//! improper in `[0, T]`") are integrals of an indicator or level process.
//! [`TimeWeighted`] accumulates such an integral online as the simulation
//! reports level changes.

/// Accumulates the time integral of a piecewise-constant signal.
///
/// # Example
///
/// ```
/// use itua_stats::timeweighted::TimeWeighted;
///
/// let mut tw = TimeWeighted::new(0.0, 0.0); // value 0 from t = 0
/// tw.set(2.0, 1.0);                          // value 1 from t = 2
/// tw.set(3.0, 0.0);                          // value 0 from t = 3
/// assert_eq!(tw.integral_until(5.0), 1.0);   // one unit-time at level 1
/// assert_eq!(tw.mean_until(5.0), 0.2);       // 20 % of [0, 5]
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TimeWeighted {
    start_time: f64,
    last_time: f64,
    current: f64,
    integral: f64,
}

impl TimeWeighted {
    /// Creates an accumulator starting at `time` with initial `value`.
    ///
    /// # Panics
    ///
    /// Panics if `time` or `value` is NaN.
    pub fn new(time: f64, value: f64) -> Self {
        assert!(!time.is_nan() && !value.is_nan());
        TimeWeighted {
            start_time: time,
            last_time: time,
            current: value,
            integral: 0.0,
        }
    }

    /// Reports that the signal changed to `value` at time `time`.
    ///
    /// Idempotent for repeated sets at the same time; the last write wins
    /// (zero elapsed time accumulates nothing).
    ///
    /// # Panics
    ///
    /// Panics if `time` moves backwards or is NaN, or `value` is NaN.
    pub fn set(&mut self, time: f64, value: f64) {
        assert!(!time.is_nan() && !value.is_nan());
        assert!(
            time >= self.last_time,
            "time went backwards: {time} < {}",
            self.last_time
        );
        self.integral += self.current * (time - self.last_time);
        self.last_time = time;
        self.current = value;
    }

    /// Integral of the signal from the start time to `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` precedes the last reported change.
    pub fn integral_until(&self, time: f64) -> f64 {
        assert!(time >= self.last_time, "query before last update");
        self.integral + self.current * (time - self.last_time)
    }

    /// Time-averaged value over `[start, time]`; 0 for an empty interval.
    pub fn mean_until(&self, time: f64) -> f64 {
        let span = time - self.start_time;
        if span <= 0.0 {
            0.0
        } else {
            self.integral_until(time) / span
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_signal() {
        let tw = TimeWeighted::new(0.0, 3.0);
        assert_eq!(tw.integral_until(4.0), 12.0);
        assert_eq!(tw.mean_until(4.0), 3.0);
    }

    #[test]
    fn step_signal() {
        let mut tw = TimeWeighted::new(0.0, 0.0);
        tw.set(1.0, 2.0);
        tw.set(2.5, 0.5);
        // [0,1): 0, [1,2.5): 2 → 3.0, [2.5,4]: 0.5 → 0.75
        assert!((tw.integral_until(4.0) - 3.75).abs() < 1e-12);
        assert!((tw.mean_until(4.0) - 3.75 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn nonzero_start_time() {
        let mut tw = TimeWeighted::new(10.0, 1.0);
        tw.set(12.0, 0.0);
        assert_eq!(tw.integral_until(14.0), 2.0);
        assert_eq!(tw.mean_until(14.0), 0.5);
    }

    #[test]
    fn repeated_set_at_same_time_last_wins() {
        let mut tw = TimeWeighted::new(0.0, 0.0);
        tw.set(1.0, 5.0);
        tw.set(1.0, 1.0);
        assert_eq!(tw.integral_until(2.0), 1.0);
    }

    #[test]
    fn empty_interval_mean_is_zero() {
        let tw = TimeWeighted::new(5.0, 2.0);
        assert_eq!(tw.mean_until(5.0), 0.0);
    }

    #[test]
    #[should_panic]
    fn backwards_time_panics() {
        let mut tw = TimeWeighted::new(0.0, 0.0);
        tw.set(2.0, 1.0);
        tw.set(1.0, 0.0);
    }

    #[test]
    #[should_panic]
    fn query_before_last_update_panics() {
        let mut tw = TimeWeighted::new(0.0, 0.0);
        tw.set(2.0, 1.0);
        let _ = tw.integral_until(1.0);
    }
}
