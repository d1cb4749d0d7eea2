//! Locking keys.

use rand::Rng;
use std::fmt;

/// A locking key: an ordered vector of key-bit values.
///
/// Bit `i` of the key is the correct value of the key input `keyinput{i}` in
/// the corresponding locked netlist.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct Key(Vec<bool>);

impl Key {
    /// Creates a key from its bit values.
    pub fn new(bits: Vec<bool>) -> Key {
        Key(bits)
    }

    /// Creates an all-zero key of the given width.
    pub fn zeros(width: usize) -> Key {
        Key(vec![false; width])
    }

    /// Creates a uniformly random key of the given width.
    pub fn random<R: Rng + ?Sized>(width: usize, rng: &mut R) -> Key {
        Key((0..width).map(|_| rng.gen()).collect())
    }

    /// Creates a key from the low `width` bits of `pattern` (bit `i` of the
    /// pattern becomes key bit `i`).
    pub fn from_pattern(pattern: u64, width: usize) -> Key {
        Key((0..width).map(|i| (pattern >> i) & 1 == 1).collect())
    }

    /// The key width in bits.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Returns `true` for the empty key.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The key bits in order.
    pub fn bits(&self) -> &[bool] {
        &self.0
    }

    /// Returns key bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn bit(&self, i: usize) -> bool {
        self.0[i]
    }

    /// Returns the bitwise complement of this key.
    pub fn complement(&self) -> Key {
        Key(self.0.iter().map(|&b| !b).collect())
    }

    /// Hamming distance to another key.
    ///
    /// # Panics
    ///
    /// Panics if the keys have different widths.
    pub fn hamming_distance(&self, other: &Key) -> usize {
        assert_eq!(self.len(), other.len(), "key widths differ");
        self.0
            .iter()
            .zip(other.bits())
            .filter(|(a, b)| a != b)
            .count()
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for &bit in &self.0 {
            write!(f, "{}", u8::from(bit))?;
        }
        Ok(())
    }
}

impl From<Vec<bool>> for Key {
    fn from(bits: Vec<bool>) -> Key {
        Key(bits)
    }
}

impl FromIterator<bool> for Key {
    fn from_iter<T: IntoIterator<Item = bool>>(iter: T) -> Key {
        Key(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn pattern_round_trip() {
        let key = Key::from_pattern(0b1011, 4);
        assert_eq!(key.bits(), &[true, true, false, true]);
        assert_eq!(key.to_string(), "1101");
        assert_eq!(key.len(), 4);
    }

    #[test]
    fn hamming_and_complement() {
        let a = Key::from_pattern(0b1010, 4);
        let b = Key::from_pattern(0b0110, 4);
        assert_eq!(a.hamming_distance(&b), 2);
        assert_eq!(a.hamming_distance(&a.complement()), 4);
        assert_eq!(Key::from_pattern(0b1011, 4).hamming_distance(&a), 1);
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let mut r1 = ChaCha8Rng::seed_from_u64(9);
        let mut r2 = ChaCha8Rng::seed_from_u64(9);
        assert_eq!(Key::random(16, &mut r1), Key::random(16, &mut r2));
    }

    #[test]
    fn zeros_is_empty_only_for_width_zero() {
        assert!(Key::zeros(0).is_empty());
        assert!(!Key::zeros(3).is_empty());
        assert_eq!(Key::zeros(3).bits(), &[false, false, false]);
    }
}
