//! Places and markings.
//!
//! A SAN's state is its *marking*: the number of tokens in each place.
//! Markings here are vectors of `i32` (the paper's "short integers"),
//! constrained to be nonnegative. Mutations are logged so the simulator can
//! incrementally re-evaluate only the activities that depend on changed
//! places.

use std::fmt;

/// Identifier of a place in a (flattened) SAN.
///
/// Obtained from [`crate::model::SanBuilder::place`] or by name lookup on a
/// built model; valid only for the model it came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PlaceId(pub(crate) u32);

impl PlaceId {
    /// The raw index of this place.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The id with the given raw index. The caller is responsible for the
    /// index being in range for the model it is used against.
    pub fn from_index(index: usize) -> PlaceId {
        PlaceId(index as u32)
    }
}

impl fmt::Display for PlaceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// The token counts of every place.
///
/// Mutating methods record which places changed in an internal dirty log,
/// drained by the simulator after each firing.
///
/// # Example
///
/// ```
/// use itua_san::marking::{Marking, PlaceId};
///
/// let mut m = Marking::new(&[1, 0, 3]);
/// let p1 = m.place_ids().nth(1).unwrap();
/// m.set(p1, 5);
/// assert_eq!(m.get(p1), 5);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Marking {
    values: Vec<i32>,
    #[doc(hidden)]
    dirty: Vec<u32>,
}

impl Marking {
    /// Creates a marking from initial token counts.
    ///
    /// # Panics
    ///
    /// Panics if any initial count is negative.
    pub fn new(initial: &[i32]) -> Self {
        assert!(
            initial.iter().all(|&v| v >= 0),
            "markings must be nonnegative"
        );
        Marking {
            values: initial.to_vec(),
            dirty: Vec::new(),
        }
    }

    /// Number of places.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the marking has no places.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Iterates over all place ids of this marking.
    pub fn place_ids(&self) -> impl Iterator<Item = PlaceId> {
        (0..self.values.len() as u32).map(PlaceId)
    }

    /// Tokens in `place`.
    ///
    /// # Panics
    ///
    /// Panics if `place` is not a place of this marking.
    #[inline]
    pub fn get(&self, place: PlaceId) -> i32 {
        self.values[place.0 as usize]
    }

    /// Sets the token count of `place`.
    ///
    /// # Panics
    ///
    /// Panics if `value < 0` or the place is out of range.
    #[inline]
    pub fn set(&mut self, place: PlaceId, value: i32) {
        assert!(value >= 0, "negative marking for {place}");
        let slot = &mut self.values[place.0 as usize];
        if *slot != value {
            *slot = value;
            self.dirty.push(place.0);
        }
    }

    /// Adds `delta` tokens (may be negative).
    ///
    /// # Panics
    ///
    /// Panics if the result would be negative.
    #[inline]
    pub fn add(&mut self, place: PlaceId, delta: i32) {
        let v = self.get(place) + delta;
        self.set(place, v);
    }

    /// Raw values, for hashing and state-space storage.
    pub fn values(&self) -> &[i32] {
        &self.values
    }

    /// Number of entries in the dirty log (monotone between clears).
    ///
    /// Together with [`Marking::dirty_since`] this lets two independent
    /// consumers (the simulator's instantaneous-enabling index and its
    /// timed-reschedule loop) each read the log with their own cursor,
    /// without draining it out from under the other.
    pub(crate) fn dirty_len(&self) -> usize {
        self.dirty.len()
    }

    /// The dirty-log entries appended since index `from` (places may
    /// repeat).
    pub(crate) fn dirty_since(&self, from: usize) -> &[u32] {
        &self.dirty[from..]
    }

    /// Clears the dirty log without returning it.
    pub(crate) fn clear_dirty(&mut self) {
        self.dirty.clear();
    }

    /// Overwrites every token count with `values` and clears the dirty
    /// log, reusing both buffers: the state-space generator resets its
    /// scratch markings with this before each firing, and the simulator
    /// its scratch marking before each run, instead of cloning.
    ///
    /// # Panics
    ///
    /// Panics if `values` does not have one entry per place.
    pub(crate) fn assign(&mut self, values: &[i32]) {
        self.values.copy_from_slice(values);
        self.dirty.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(i: u32) -> PlaceId {
        PlaceId(i)
    }

    #[test]
    fn get_set_add() {
        let mut m = Marking::new(&[1, 2]);
        assert_eq!(m.get(pid(0)), 1);
        m.set(pid(0), 7);
        assert_eq!(m.get(pid(0)), 7);
        m.add(pid(1), 3);
        assert_eq!(m.get(pid(1)), 5);
        m.add(pid(1), -5);
        assert_eq!(m.get(pid(1)), 0);
    }

    #[test]
    #[should_panic]
    fn negative_set_panics() {
        let mut m = Marking::new(&[0]);
        m.set(pid(0), -1);
    }

    #[test]
    #[should_panic]
    fn negative_add_panics() {
        let mut m = Marking::new(&[1]);
        m.add(pid(0), -2);
    }

    #[test]
    #[should_panic]
    fn negative_initial_panics() {
        let _ = Marking::new(&[-1]);
    }

    #[test]
    fn dirty_log_tracks_changes() {
        let mut m = Marking::new(&[0, 0, 0]);
        m.set(pid(1), 4);
        m.set(pid(1), 4); // no-op: value unchanged
        m.add(pid(2), 1);
        assert_eq!(m.dirty_since(0), &[1, 2]);
        assert_eq!(m.dirty_len(), 2);
        assert_eq!(m.dirty_since(1), &[2]);
        m.clear_dirty();
        assert_eq!(m.dirty_len(), 0);
        assert!(m.dirty_since(0).is_empty());
    }

    #[test]
    fn assign_copies_values_and_clears_dirty() {
        // Equality compares the dirty log too: two markings with the same
        // values are equal only once `assign` has cleared the log.
        let a = Marking::new(&[1, 2]);
        let mut b = Marking::new(&[1, 0]);
        b.set(pid(1), 2);
        assert_ne!(a, b);
        b.assign(&[1, 2]);
        assert_eq!(b.dirty_len(), 0);
        assert_eq!(a, b);
        b.assign(&[0, 5]);
        assert_eq!(b.values(), &[0, 5]);
    }
}
