//! Exact rational arithmetic over `i128` with overflow detection.
//!
//! Invariant computation must be exact — a floating-point null space can
//! both invent and miss conservation laws. All operations are checked:
//! overflow surfaces as [`Overflow`] and the caller reports the
//! computation as aborted instead of returning wrong invariants.

use std::fmt;

/// Arithmetic left the `i128` range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Overflow;

impl fmt::Display for Overflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("exact arithmetic overflowed i128")
    }
}

impl std::error::Error for Overflow {}

/// Greatest common divisor (always nonnegative; `gcd(0, 0) == 0`).
pub fn gcd(mut a: i128, mut b: i128) -> i128 {
    a = a.abs();
    b = b.abs();
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// A reduced fraction `num / den` with `den > 0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ratio {
    num: i128,
    den: i128,
}

#[expect(
    clippy::should_implement_trait,
    reason = "the arithmetic methods are checked (Result-returning) like `i128::checked_mul`, \
              which the `std::ops` traits, returning `Self`, cannot express"
)]
impl Ratio {
    /// Zero.
    pub const ZERO: Ratio = Ratio { num: 0, den: 1 };
    /// One.
    pub const ONE: Ratio = Ratio { num: 1, den: 1 };

    /// An integer as a ratio.
    pub fn int(n: i128) -> Ratio {
        Ratio { num: n, den: 1 }
    }

    /// A reduced fraction. `den` must be nonzero.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`.
    pub fn new(num: i128, den: i128) -> Ratio {
        assert!(den != 0, "zero denominator");
        let sign = if den < 0 { -1 } else { 1 };
        let g = gcd(num, den).max(1);
        Ratio {
            num: sign * num / g,
            den: sign * den / g,
        }
    }

    /// Numerator of the reduced form.
    pub fn numer(self) -> i128 {
        self.num
    }

    /// Denominator of the reduced form (always positive).
    pub fn denom(self) -> i128 {
        self.den
    }

    /// Whether this is exactly zero.
    pub fn is_zero(self) -> bool {
        self.num == 0
    }

    /// Checked addition.
    ///
    /// # Errors
    ///
    /// Returns [`Overflow`] if any intermediate leaves `i128`.
    pub fn add(self, rhs: Ratio) -> Result<Ratio, Overflow> {
        // a/b + c/d = (a*(d/g) + c*(b/g)) / (b*(d/g)) with g = gcd(b, d)
        // keeps intermediates small.
        let g = gcd(self.den, rhs.den).max(1);
        let lhs_scale = rhs.den / g;
        let rhs_scale = self.den / g;
        let num = self
            .num
            .checked_mul(lhs_scale)
            .and_then(|l| {
                rhs.num
                    .checked_mul(rhs_scale)
                    .and_then(|r| l.checked_add(r))
            })
            .ok_or(Overflow)?;
        let den = self.den.checked_mul(lhs_scale).ok_or(Overflow)?;
        Ok(Ratio::new(num, den))
    }

    /// Checked subtraction.
    ///
    /// # Errors
    ///
    /// Returns [`Overflow`] if any intermediate leaves `i128`.
    pub fn sub(self, rhs: Ratio) -> Result<Ratio, Overflow> {
        self.add(rhs.neg())
    }

    /// Checked multiplication.
    ///
    /// # Errors
    ///
    /// Returns [`Overflow`] if any intermediate leaves `i128`.
    pub fn mul(self, rhs: Ratio) -> Result<Ratio, Overflow> {
        // Cross-reduce before multiplying.
        let g1 = gcd(self.num, rhs.den).max(1);
        let g2 = gcd(rhs.num, self.den).max(1);
        let num = (self.num / g1).checked_mul(rhs.num / g2).ok_or(Overflow)?;
        let den = (self.den / g2).checked_mul(rhs.den / g1).ok_or(Overflow)?;
        Ok(Ratio::new(num, den))
    }

    /// Checked division.
    ///
    /// # Errors
    ///
    /// Returns [`Overflow`] on overflow.
    ///
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    pub fn div(self, rhs: Ratio) -> Result<Ratio, Overflow> {
        assert!(!rhs.is_zero(), "division by zero ratio");
        self.mul(Ratio {
            num: rhs.den * rhs.num.signum(),
            den: rhs.num.abs(),
        })
    }

    /// Negation.
    pub fn neg(self) -> Ratio {
        Ratio {
            num: -self.num,
            den: self.den,
        }
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduces_and_normalizes_sign() {
        let r = Ratio::new(4, -6);
        assert_eq!(r.numer(), -2);
        assert_eq!(r.denom(), 3);
        assert_eq!(Ratio::new(0, 5), Ratio::ZERO);
    }

    #[test]
    fn exact_field_ops() {
        let a = Ratio::new(1, 3);
        let b = Ratio::new(1, 6);
        assert_eq!(a.add(b).unwrap(), Ratio::new(1, 2));
        assert_eq!(a.sub(b).unwrap(), Ratio::new(1, 6));
        assert_eq!(a.mul(b).unwrap(), Ratio::new(1, 18));
        assert_eq!(a.div(b).unwrap(), Ratio::int(2));
        assert_eq!(a.neg(), Ratio::new(-1, 3));
    }

    #[test]
    fn overflow_is_detected_not_wrapped() {
        let big = Ratio::int(i128::MAX);
        assert_eq!(big.mul(Ratio::int(2)), Err(Overflow));
        assert_eq!(big.add(Ratio::ONE), Err(Overflow));
    }

    #[test]
    fn gcd_conventions() {
        assert_eq!(gcd(0, 0), 0);
        assert_eq!(gcd(-12, 18), 6);
        assert_eq!(gcd(7, 0), 7);
    }

    #[test]
    fn displays_integers_without_denominator() {
        assert_eq!(Ratio::int(5).to_string(), "5");
        assert_eq!(Ratio::new(1, 2).to_string(), "1/2");
    }
}
