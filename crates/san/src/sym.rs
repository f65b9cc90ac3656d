//! Wreath-product marking symmetries: specification, canonicalization,
//! and orbit sizes.
//!
//! A [`SymmetrySpec`] asserts that permuting whole *units* within a
//! group, and whole *blocks* within a unit, maps the model onto itself
//! (same activities, rates, and weights under the induced place
//! permutation). The ITUA composition guarantees this by construction —
//! identical templates are stamped per domain/host/replica and
//! communicate through shared places that the permutation fixes.
//!
//! Two consumers share this module so there is exactly one
//! canonicalization to trust:
//!
//! * `itua_analyzer::reach::explore` explores the quotient reachability
//!   graph (tangible *and* vanishing markings) to prove properties on
//!   orbit representatives.
//! * [`crate::statespace::StateSpace::generate_lumped`] generates the
//!   tangible CTMC directly in canonical form — the exactly-lumped chain
//!   the analytic backend solves.
//!
//! Exact lumpability holds because the group action is a model
//! automorphism: every marking in an orbit has the same total rate into
//! any *other* orbit, so summing a representative's outgoing rates by
//! target orbit yields the quotient CTMC, and any orbit-invariant reward
//! is solved exactly on it.

use std::cmp::Ordering;

// ---------------------------------------------------------------------
// Symmetry specification
// ---------------------------------------------------------------------

/// One interchangeable slot inside a [`SymmetryGroup`]: `shared` places
/// belong to the unit as a whole; `blocks` are sub-slots (all of the same
/// length) that are themselves interchangeable *within* the unit.
///
/// For ITUA's domain group, a unit is a domain (`shared` = the
/// domain-level places) and each block is one host's local places. For a
/// replica group, a single unit holds one block per replica slot.
#[derive(Debug, Clone)]
pub struct SymmetryUnit {
    /// Place indices owned by the unit as a whole.
    pub shared: Vec<usize>,
    /// Interchangeable sub-slots; every block has the same length, and
    /// position `j` of one block corresponds to position `j` of every
    /// other (same local place of a different copy).
    pub blocks: Vec<Vec<usize>>,
}

/// A set of interchangeable units. Units must be *congruent*: the same
/// shared length, block count, and block length, with position `j` of one
/// unit corresponding to position `j` of every other.
#[derive(Debug, Clone)]
pub struct SymmetryGroup {
    /// The interchangeable units.
    pub units: Vec<SymmetryUnit>,
}

/// Invalid [`SymmetrySpec`] construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SymmetryError {
    /// A group has no units.
    EmptyGroup,
    /// Units within a group (or blocks within a unit) differ in shape.
    ShapeMismatch,
    /// A place index is out of range.
    IndexOutOfRange(usize),
    /// A place index appears in more than one slot.
    Overlap(usize),
}

impl std::fmt::Display for SymmetryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SymmetryError::EmptyGroup => write!(f, "symmetry group has no units"),
            SymmetryError::ShapeMismatch => {
                write!(f, "symmetry units/blocks within a group must be congruent")
            }
            SymmetryError::IndexOutOfRange(p) => {
                write!(f, "symmetry spec references place index {p} out of range")
            }
            SymmetryError::Overlap(p) => {
                write!(f, "place index {p} appears in more than one symmetry slot")
            }
        }
    }
}

impl std::error::Error for SymmetryError {}

/// A direct product of wreath-product symmetry groups over disjoint place
/// sets, with canonicalization and orbit-size computation.
#[derive(Debug, Clone)]
pub struct SymmetrySpec {
    groups: Vec<SymmetryGroup>,
    num_places: usize,
}

impl SymmetrySpec {
    /// Validates shapes and disjointness.
    ///
    /// # Errors
    ///
    /// Returns a [`SymmetryError`] if a group is empty, units or blocks
    /// are not congruent, an index is out of range, or a place appears in
    /// more than one slot.
    pub fn new(num_places: usize, groups: Vec<SymmetryGroup>) -> Result<Self, SymmetryError> {
        let mut used = vec![false; num_places];
        let claim = |p: usize, used: &mut Vec<bool>| -> Result<(), SymmetryError> {
            if p >= num_places {
                return Err(SymmetryError::IndexOutOfRange(p));
            }
            if used[p] {
                return Err(SymmetryError::Overlap(p));
            }
            used[p] = true;
            Ok(())
        };
        for g in &groups {
            let Some(first) = g.units.first() else {
                return Err(SymmetryError::EmptyGroup);
            };
            let block_len = first.blocks.first().map_or(0, Vec::len);
            for u in &g.units {
                if u.shared.len() != first.shared.len() || u.blocks.len() != first.blocks.len() {
                    return Err(SymmetryError::ShapeMismatch);
                }
                for b in &u.blocks {
                    if b.len() != block_len {
                        return Err(SymmetryError::ShapeMismatch);
                    }
                    for &p in b {
                        claim(p, &mut used)?;
                    }
                }
                for &p in &u.shared {
                    claim(p, &mut used)?;
                }
            }
        }
        Ok(SymmetrySpec { groups, num_places })
    }

    /// Number of places the spec was built for.
    pub fn num_places(&self) -> usize {
        self.num_places
    }

    /// Rewrites `values` in place to the lexicographically least member of
    /// its orbit: blocks are sorted within each unit, then units are
    /// sorted by their full value key (shared values, then block values in
    /// slot order). Idempotent, and invariant under any permutation of
    /// units or of blocks within a unit.
    ///
    /// Both sorts are insertion sorts that compare slots through their
    /// place indices and swap whole slots in `values`, so a call allocates
    /// nothing. Slots are few (hosts per domain, domains, replicas per
    /// application), and the successors the state-space generator passes
    /// in are usually sorted already, which costs one comparison per
    /// adjacent pair.
    ///
    /// # Panics
    ///
    /// Panics if `values` is shorter than the spec's place count.
    pub fn canonicalize(&self, values: &mut [i32]) {
        assert!(
            values.len() >= self.num_places,
            "marking too short for spec"
        );
        for g in &self.groups {
            for u in &g.units {
                insertion_sort(values, &u.blocks);
            }
            insertion_sort(values, &g.units);
        }
    }

    /// The size of the orbit of `values` under the symmetry group:
    /// `Π_groups [ U!/Π cᵢ! · Π_units B!/Π kⱼ! ]` where the `cᵢ` are
    /// multiplicities of identical unit keys and the `kⱼ` multiplicities
    /// of identical blocks within a unit. Saturates at `u128::MAX` for
    /// astronomically symmetric markings.
    ///
    /// # Panics
    ///
    /// Panics if `values` is shorter than the spec's place count.
    pub fn orbit_size(&self, values: &[i32]) -> u128 {
        let mut canon = values.to_vec();
        self.canonicalize(&mut canon);
        self.canonical_orbit_size(&canon)
    }

    /// [`SymmetrySpec::orbit_size`] of a marking that
    /// [`SymmetrySpec::canonicalize`] has left in canonical form. Equal
    /// blocks of a unit, and equal units of a group, sit side by side
    /// there, so each multiplicity is a run of equal adjacent slots,
    /// counted in place without allocating.
    pub(crate) fn canonical_orbit_size(&self, canon: &[i32]) -> u128 {
        let mut orbit = 1u128;
        for g in &self.groups {
            for u in &g.units {
                orbit = orbit.saturating_mul(distinct_arrangements(canon, &u.blocks));
            }
            orbit = orbit.saturating_mul(distinct_arrangements(canon, &g.units));
        }
        orbit
    }

    /// Symmetry class of each place: places mapped onto each other by some
    /// group element share a class id (the smallest member's index);
    /// ungrouped places are singletons. Used to propagate exact per-place
    /// bounds computed on canonical representatives back to every member
    /// of the class.
    pub fn classes(&self) -> Vec<usize> {
        let mut class: Vec<usize> = (0..self.num_places).collect();
        for g in &self.groups {
            let first = &g.units[0];
            for j in 0..first.shared.len() {
                let rep = g
                    .units
                    .iter()
                    .map(|u| u.shared[j])
                    .min()
                    .expect("non-empty");
                for u in &g.units {
                    class[u.shared[j]] = rep;
                }
            }
            let block_len = first.blocks.first().map_or(0, Vec::len);
            for j in 0..block_len {
                let rep = g
                    .units
                    .iter()
                    .flat_map(|u| u.blocks.iter().map(|b| b[j]))
                    .min()
                    .expect("non-empty");
                for u in &g.units {
                    for b in &u.blocks {
                        class[b[j]] = rep;
                    }
                }
            }
        }
        class
    }
}

/// A block or a unit: a slot whose places form one sort key.
trait Slot {
    /// The slot's place indices in key order. Congruent slots list the
    /// same number of places, position for position.
    fn places(&self) -> impl Iterator<Item = usize> + '_;
}

impl Slot for Vec<usize> {
    fn places(&self) -> impl Iterator<Item = usize> + '_ {
        self.iter().copied()
    }
}

impl Slot for SymmetryUnit {
    /// Shared places, then every block's places in slot order.
    fn places(&self) -> impl Iterator<Item = usize> + '_ {
        self.shared
            .iter()
            .chain(self.blocks.iter().flatten())
            .copied()
    }
}

/// Sorts the congruent `slots` by the values at their places, in
/// lexicographic order, by swapping whole slots in `values`.
fn insertion_sort<S: Slot>(values: &mut [i32], slots: &[S]) {
    for i in 1..slots.len() {
        for j in (1..=i).rev() {
            let (a, b) = (&slots[j - 1], &slots[j]);
            let order = a
                .places()
                .map(|p| values[p])
                .cmp(b.places().map(|p| values[p]));
            if order != Ordering::Greater {
                break;
            }
            for (p, q) in a.places().zip(b.places()) {
                values.swap(p, q);
            }
        }
    }
}

/// `n! / Π(run lengths)!` for `n` sorted congruent `slots`, where a run
/// is a stretch of adjacent slots with equal values: the number of
/// distinct arrangements of the slots. Saturating.
fn distinct_arrangements<S: Slot>(values: &[i32], slots: &[S]) -> u128 {
    let same = |a: &S, b: &S| {
        a.places()
            .map(|p| values[p])
            .eq(b.places().map(|p| values[p]))
    };
    let mut out = 1u128;
    let mut i = 0;
    while i < slots.len() {
        let mut j = i + 1;
        while j < slots.len() && same(&slots[i], &slots[j]) {
            j += 1;
        }
        out = out.saturating_mul(binomial(j, j - i));
        i = j;
    }
    out
}

/// Binomial coefficient with saturating arithmetic.
fn binomial(n: usize, k: usize) -> u128 {
    let k = k.min(n - k);
    let mut res = 1u128;
    for i in 1..=k {
        res = res.saturating_mul((n - k + i) as u128) / (i as u128);
    }
    res
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Spec for `n` exchangeable two-place components.
    fn component_spec(n: usize) -> SymmetrySpec {
        let units = (0..n)
            .map(|i| SymmetryUnit {
                shared: vec![2 * i, 2 * i + 1],
                blocks: vec![],
            })
            .collect();
        SymmetrySpec::new(2 * n, vec![SymmetryGroup { units }]).unwrap()
    }

    #[test]
    fn canonicalize_is_idempotent_and_sorts_units() {
        let spec = component_spec(3);
        let mut v = vec![1, 0, 0, 1, 1, 0];
        spec.canonicalize(&mut v);
        // Keys (0,1) < (1,0): the down component sorts first.
        assert_eq!(v, vec![0, 1, 1, 0, 1, 0]);
        let again = {
            let mut w = v.clone();
            spec.canonicalize(&mut w);
            w
        };
        assert_eq!(v, again);
    }

    #[test]
    fn canonicalize_sorts_blocks_within_units_before_units() {
        // One group, two units; each unit: one shared place, two blocks of
        // one place each.
        let units = vec![
            SymmetryUnit {
                shared: vec![0],
                blocks: vec![vec![1], vec![2]],
            },
            SymmetryUnit {
                shared: vec![3],
                blocks: vec![vec![4], vec![5]],
            },
        ];
        let spec = SymmetrySpec::new(6, vec![SymmetryGroup { units }]).unwrap();
        let mut v = vec![7, 5, 2, 7, 9, 1];
        spec.canonicalize(&mut v);
        // Blocks sort within units: (2,5) and (1,9); unit keys
        // (7,2,5) > (7,1,9), so the second unit sorts first.
        assert_eq!(v, vec![7, 1, 9, 7, 2, 5]);
    }

    #[test]
    fn orbit_size_counts_distinct_arrangements() {
        let spec = component_spec(4);
        // All four units identical: orbit 1.
        assert_eq!(spec.orbit_size(&[1, 0, 1, 0, 1, 0, 1, 0]), 1);
        // One down, three up: 4 arrangements.
        assert_eq!(spec.orbit_size(&[0, 1, 1, 0, 1, 0, 1, 0]), 4);
        // Two down, two up: C(4,2) = 6.
        assert_eq!(spec.orbit_size(&[0, 1, 0, 1, 1, 0, 1, 0]), 6);
    }

    #[test]
    fn spec_validation_rejects_bad_shapes() {
        assert_eq!(
            SymmetrySpec::new(2, vec![SymmetryGroup { units: vec![] }]).unwrap_err(),
            SymmetryError::EmptyGroup
        );
        let units = vec![
            SymmetryUnit {
                shared: vec![0],
                blocks: vec![],
            },
            SymmetryUnit {
                shared: vec![1, 2],
                blocks: vec![],
            },
        ];
        assert_eq!(
            SymmetrySpec::new(3, vec![SymmetryGroup { units }]).unwrap_err(),
            SymmetryError::ShapeMismatch
        );
        let units = vec![SymmetryUnit {
            shared: vec![5],
            blocks: vec![],
        }];
        assert_eq!(
            SymmetrySpec::new(3, vec![SymmetryGroup { units }]).unwrap_err(),
            SymmetryError::IndexOutOfRange(5)
        );
        let units = vec![SymmetryUnit {
            shared: vec![0, 0],
            blocks: vec![],
        }];
        assert_eq!(
            SymmetrySpec::new(3, vec![SymmetryGroup { units }]).unwrap_err(),
            SymmetryError::Overlap(0)
        );
    }

    #[test]
    fn classes_unify_corresponding_positions() {
        let units = vec![
            SymmetryUnit {
                shared: vec![0],
                blocks: vec![vec![1], vec![2]],
            },
            SymmetryUnit {
                shared: vec![3],
                blocks: vec![vec![4], vec![5]],
            },
        ];
        let spec = SymmetrySpec::new(7, vec![SymmetryGroup { units }]).unwrap();
        let classes = spec.classes();
        assert_eq!(classes[0], classes[3]); // shared position 0
        assert_eq!(classes[1], classes[2]); // block position 0, unit 0
        assert_eq!(classes[1], classes[4]); // across units
        assert_eq!(classes[1], classes[5]);
        assert_ne!(classes[0], classes[1]);
        assert_eq!(classes[6], 6); // ungrouped singleton
    }
}
