//! Compact bitmaps — the NACK and vote fields of ConsensusBatcher packets.
//!
//! The paper's packets index bits by *instance* (the compressed O(N) NACK of
//! §IV-C1: bit `j` = "instance `j` still lacks a quorum at me") or by *node*.
//! Capacity is 64, comfortably above the paper's N = 4…16.

/// A fixed-capacity bitmap (up to 64 bits), one bit per instance or node.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Bitmap {
    bits: u64,
    len: u8,
}

impl Bitmap {
    /// Most bits a bitmap holds — and so the most nodes any committee, and
    /// the most clusters a multi-hop global tier, can have.
    pub const CAPACITY: usize = 64;

    /// An empty bitmap of logical length `len`.
    ///
    /// # Panics
    ///
    /// Panics if `len > 64`.
    #[expect(clippy::cast_possible_truncation, reason = "len asserted ≤ 64 first")]
    pub fn new(len: usize) -> Self {
        assert!(len <= Self::CAPACITY, "bitmap capacity is 64, got {len}");
        Bitmap { bits: 0, len: len as u8 }
    }

    /// A bitmap with every bit set.
    pub fn full(len: usize) -> Self {
        let mut b = Bitmap::new(len);
        for i in 0..len {
            b.set(i, true);
        }
        b
    }

    /// Logical length in bits.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// `true` iff logical length is zero.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len(), "bit {i} out of range {}", self.len);
        (self.bits >> i) & 1 == 1
    }

    /// Writes bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.len(), "bit {i} out of range {}", self.len);
        if value {
            self.bits |= 1 << i;
        } else {
            self.bits &= !(1 << i);
        }
    }

    /// Number of set bits.
    pub fn count(&self) -> usize {
        self.bits.count_ones() as usize
    }

    /// `true` iff every bit is set.
    pub fn all(&self) -> bool {
        self.count() == self.len()
    }

    /// `true` iff no bit is set.
    pub fn none(&self) -> bool {
        self.bits == 0
    }

    /// Bitwise OR (lengths must match).
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn union(&self, other: &Bitmap) -> Bitmap {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        Bitmap { bits: self.bits | other.bits, len: self.len }
    }

    /// Iterates indices of set bits, ascending.
    pub fn iter_set(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.len()).filter(move |&i| self.get(i))
    }

    /// Wire length in bytes (`ceil(len/8)`).
    pub fn wire_len(&self) -> usize {
        self.len().div_ceil(8)
    }

    /// Raw word (little-endian bit order) for encoding.
    pub fn to_raw(&self) -> u64 {
        self.bits
    }

    /// Rebuilds from a raw word; bits beyond `len` are cleared.
    #[expect(clippy::cast_possible_truncation, reason = "len asserted ≤ 64 first")]
    pub fn from_raw(bits: u64, len: usize) -> Self {
        assert!(len <= Self::CAPACITY, "bitmap capacity is 64, got {len}");
        let mask = if len == 64 { u64::MAX } else { (1u64 << len) - 1 };
        Bitmap { bits: bits & mask, len: len as u8 }
    }
}

impl core::fmt::Debug for Bitmap {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Bitmap[")?;
        for i in 0..self.len() {
            write!(f, "{}", if self.get(i) { '1' } else { '0' })?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_count() {
        let mut b = Bitmap::new(8);
        assert!(b.none());
        b.set(0, true);
        b.set(7, true);
        assert!(b.get(0) && b.get(7) && !b.get(3));
        assert_eq!(b.count(), 2);
        b.set(0, false);
        assert_eq!(b.count(), 1);
    }

    #[test]
    fn full_and_all() {
        let b = Bitmap::full(5);
        assert!(b.all());
        assert_eq!(b.count(), 5);
        assert_eq!(b.iter_set().collect::<Vec<_>>(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn union_merges() {
        let mut a = Bitmap::new(4);
        a.set(0, true);
        let mut b = Bitmap::new(4);
        b.set(3, true);
        let u = a.union(&b);
        assert_eq!(u.iter_set().collect::<Vec<_>>(), vec![0, 3]);
    }

    #[test]
    fn raw_roundtrip_masks_excess() {
        let b = Bitmap::from_raw(0b1111_1111, 4);
        assert_eq!(b.count(), 4);
        assert_eq!(b.to_raw(), 0b1111);
        let c = Bitmap::from_raw(b.to_raw(), 4);
        assert_eq!(b, c);
    }

    #[test]
    fn wire_len_rounds_up() {
        assert_eq!(Bitmap::new(1).wire_len(), 1);
        assert_eq!(Bitmap::new(8).wire_len(), 1);
        assert_eq!(Bitmap::new(9).wire_len(), 2);
        assert_eq!(Bitmap::new(64).wire_len(), 8);
    }

    #[test]
    fn capacity_64_works() {
        let mut b = Bitmap::new(64);
        b.set(63, true);
        assert!(b.get(63));
        assert_eq!(Bitmap::from_raw(u64::MAX, 64).count(), 64);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_get_panics() {
        Bitmap::new(4).get(4);
    }

    #[test]
    fn debug_shows_bits() {
        let mut b = Bitmap::new(3);
        b.set(1, true);
        assert_eq!(format!("{b:?}"), "Bitmap[010]");
    }
}
