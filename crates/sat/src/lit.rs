//! Variables and literals.

use std::fmt;
use std::ops::Not;

/// A propositional variable, identified by a zero-based index.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(u32);

impl Var {
    /// Creates a variable from its zero-based index.
    #[inline]
    pub fn from_index(index: usize) -> Var {
        Var(index as u32)
    }

    /// Returns the zero-based index of this variable.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0 + 1)
    }
}

/// A literal: a variable or its negation.
///
/// Internally encoded as `2 * var + sign` where `sign == 1` means the literal
/// is negated.  This is the classic MiniSat encoding and allows literals to be
/// used directly as indices into watch lists.  The representation is
/// `#[repr(transparent)]` over `u32` so the clause arena can expose its
/// literal words as a `&[Lit]` without copying.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(transparent)]
pub struct Lit(u32);

impl Lit {
    /// Creates the positive literal of `var`.
    #[inline]
    pub fn positive(var: Var) -> Lit {
        Lit(var.0 << 1)
    }

    /// Creates the negative literal of `var`.
    #[inline]
    pub fn negative(var: Var) -> Lit {
        Lit((var.0 << 1) | 1)
    }

    /// Creates a literal from a variable and a sign.
    ///
    /// `negated == false` yields the positive literal.
    #[inline]
    pub fn new(var: Var, negated: bool) -> Lit {
        Lit((var.0 << 1) | u32::from(negated))
    }

    /// Creates a literal from its internal code (`2 * var + sign`).
    #[inline]
    pub fn from_code(code: usize) -> Lit {
        Lit(code as u32)
    }

    /// Returns the internal code of this literal, usable as an array index.
    #[inline]
    pub fn code(self) -> usize {
        self.0 as usize
    }

    /// Returns the variable underlying this literal.
    #[inline]
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// Returns `true` if this literal is negated.
    #[inline]
    pub fn is_negative(self) -> bool {
        self.0 & 1 == 1
    }

    /// Returns `true` if this literal is not negated.
    #[inline]
    pub fn is_positive(self) -> bool {
        !self.is_negative()
    }

    /// Returns the value this literal requires its variable to take to be true.
    #[inline]
    pub fn polarity(self) -> bool {
        self.is_positive()
    }
}

impl Not for Lit {
    type Output = Lit;

    #[inline]
    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl fmt::Debug for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_negative() {
            write!(f, "!v{}", self.var().0)
        } else {
            write!(f, "v{}", self.var().0)
        }
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_negative() {
            write!(f, "-{}", self.var().0 + 1)
        } else {
            write!(f, "{}", self.var().0 + 1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_encoding_round_trips() {
        let v = Var::from_index(7);
        let p = Lit::positive(v);
        let n = Lit::negative(v);
        assert_eq!(p.var(), v);
        assert_eq!(n.var(), v);
        assert!(p.is_positive());
        assert!(n.is_negative());
        assert_eq!(!p, n);
        assert_eq!(!n, p);
        assert_eq!(Lit::from_code(p.code()), p);
    }

    #[test]
    fn new_with_sign() {
        let v = Var::from_index(3);
        assert_eq!(Lit::new(v, false), Lit::positive(v));
        assert_eq!(Lit::new(v, true), Lit::negative(v));
    }

    #[test]
    fn display_is_one_based_and_signed() {
        let v = Var::from_index(0);
        assert_eq!(Lit::positive(v).to_string(), "1");
        assert_eq!(Lit::negative(v).to_string(), "-1");
    }
}
