//! Two-bit votes and binary-value sets — the "small proposals" of RBC-small
//! and the ABA vote alphabet (paper §IV-C1: "the proposal broadcast by RBC
//! has only three possible values: 1, 0, and ⊥. Thus, only two bits are
//! needed").

/// A two-bit vote value.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum Vote {
    /// No vote observed yet.
    #[default]
    Unknown,
    /// Binary 0.
    Zero,
    /// Binary 1.
    One,
    /// The distinguished "no value" ⊥ of Bracha's ABA phase 2/3.
    Bot,
}

impl Vote {
    /// Two-bit wire code.
    pub fn code(&self) -> u8 {
        match self {
            Vote::Unknown => 0,
            Vote::Zero => 1,
            Vote::One => 2,
            Vote::Bot => 3,
        }
    }

    /// Decodes a two-bit code (total: all four codes are meaningful).
    pub fn from_code(code: u8) -> Vote {
        match code & 0b11 {
            1 => Vote::Zero,
            2 => Vote::One,
            3 => Vote::Bot,
            _ => Vote::Unknown,
        }
    }

    /// Builds a binary vote.
    pub fn from_bool(b: bool) -> Vote {
        if b {
            Vote::One
        } else {
            Vote::Zero
        }
    }

    /// The boolean value, if binary.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Vote::Zero => Some(false),
            Vote::One => Some(true),
            _ => None,
        }
    }

    /// `true` for `Zero`/`One`/`Bot` — an actual vote, not absence.
    pub fn is_cast(&self) -> bool {
        !matches!(self, Vote::Unknown)
    }
}

/// The `bin_values` set of shared-coin ABA: which of {0, 1} have passed the
/// 2f+1 BVAL threshold.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct BinValues {
    /// 0 is in the set.
    pub zero: bool,
    /// 1 is in the set.
    pub one: bool,
}

impl BinValues {
    /// The empty set.
    pub fn empty() -> Self {
        BinValues::default()
    }

    /// Inserts a value.
    pub fn insert(&mut self, v: bool) {
        if v {
            self.one = true;
        } else {
            self.zero = true;
        }
    }

    /// Membership test.
    pub fn contains(&self, v: bool) -> bool {
        if v {
            self.one
        } else {
            self.zero
        }
    }

    /// `true` iff the set is empty.
    pub fn is_empty(&self) -> bool {
        !self.zero && !self.one
    }

    /// If exactly one value is present, returns it.
    pub fn single(&self) -> Option<bool> {
        match (self.zero, self.one) {
            (true, false) => Some(false),
            (false, true) => Some(true),
            _ => None,
        }
    }

    /// Two-bit wire code.
    pub fn code(&self) -> u8 {
        u8::from(self.zero) | (u8::from(self.one) << 1)
    }

    /// Decodes a two-bit code.
    pub fn from_code(code: u8) -> Self {
        BinValues { zero: code & 1 == 1, one: code & 2 == 2 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vote_codes_roundtrip() {
        for v in [Vote::Unknown, Vote::Zero, Vote::One, Vote::Bot] {
            assert_eq!(Vote::from_code(v.code()), v);
        }
    }

    #[test]
    fn vote_bool_conversions() {
        assert_eq!(Vote::from_bool(true), Vote::One);
        assert_eq!(Vote::from_bool(false), Vote::Zero);
        assert_eq!(Vote::One.as_bool(), Some(true));
        assert_eq!(Vote::Bot.as_bool(), None);
        assert!(Vote::Bot.is_cast());
        assert!(!Vote::Unknown.is_cast());
    }

    #[test]
    fn bin_values_lattice() {
        let mut bv = BinValues::empty();
        assert!(bv.is_empty());
        assert_eq!(bv.single(), None);
        bv.insert(true);
        assert_eq!(bv.single(), Some(true));
        assert!(bv.contains(true) && !bv.contains(false));
        bv.insert(false);
        assert_eq!(bv.single(), None);
        assert!(bv.contains(false));
    }

    #[test]
    fn bin_values_codes_roundtrip() {
        for code in 0..4u8 {
            assert_eq!(BinValues::from_code(code).code(), code);
        }
    }
}
