//! The prime-order discrete-log group all threshold schemes operate in.
//!
//! The group is the subgroup of quadratic residues of `Z_p^*` for the safe
//! prime `p = 2q + 1` of [`crate::field`]; it has prime order `q` and is
//! generated by `g = 4 = 2²`. Group elements are [`Fe`] values; the group
//! operation is field multiplication; exponents are [`Scalar`]s.
//!
//! ## Fast paths
//!
//! Exponentiation dominates every threshold operation, so this module
//! carries three accelerations used throughout the workspace:
//!
//! * **Fixed-base windowed exponentiation** ([`PrecomputedBase`]): a
//!   4-bit-window table (`64 windows × 16 entries`) turns a ~256-double /
//!   ~128-multiply square-and-multiply into ≤ 63 table multiplies with *no*
//!   squarings. A process-wide table for the generator, with 8-bit windows
//!   (`32 × 256 entries`, ≤ 31 multiplies), backs
//!   [`GroupElem::from_exponent`] (and therefore every signature nonce,
//!   `hash_to_group` and every share-signing operation).
//! * **Simultaneous multi-exponentiation** ([`GroupElem::multi_pow`]):
//!   Straus/Shamir interleaving for < 16 bases, a Pippenger bucket pass for
//!   ≥ 16 — one shared squaring chain for the whole product. Backs Lagrange
//!   combination, the DLEQ check and Feldman commitment evaluation.
//! * **Subgroup-membership verdicts**: [`GroupElem::from_bytes`] keeps the
//!   result of the Euler-criterion exponentiation per canonical encoding in
//!   the crate's one verdict memo ([`crate::memo`]), so re-decoding the same
//!   share/signature bytes — by every receiver of a broadcast, and again on
//!   retransmission — is a table hit instead of a 254-bit pow.

use crate::field::{Fe, Scalar};
use crate::hash::Digest32;
use crate::memo::{self, Predicate};
use std::sync::OnceLock;

/// An element of the prime-order subgroup.
///
/// The constructor validates membership, so a `GroupElem` is always a
/// quadratic residue (never zero). This matters for share verification:
/// a Byzantine node cannot smuggle a low-order element into a combine step
/// because no low-order elements exist besides 1.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct GroupElem(Fe);

/// Error returned when bytes decode to a value outside the subgroup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NotInSubgroup;

impl core::fmt::Display for NotInSubgroup {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "value is not a member of the prime-order subgroup")
    }
}

impl std::error::Error for NotInSubgroup {}

/// A fixed-base exponentiation table: `⌈256 / width⌉` windows of `width`
/// bits, each holding the `2^width` multiples `base^(d · 2^(width·w))`.
///
/// `pow` is then a product of at most one table entry per window — no
/// squarings at all — versus ~255 squarings + ~127 multiplies for
/// square-and-multiply. [`PrecomputedBase::new`] builds 4-bit windows
/// (64 × 16 entries, ~1 000 multiplies ≈ 3 plain exponentiations, so it
/// pays for itself after three uses of the same base); the process-wide
/// generator table uses 8-bit windows (32 × 256 entries, 256 KiB, built
/// once), so every `g^x` costs ≤ 31 multiplies instead of ≤ 63.
pub struct PrecomputedBase {
    /// Window width in bits.
    width: usize,
    /// `entries[(w << width) | d] = base^(d · 2^(width·w))`; entry `d = 0`
    /// of each window is unused.
    entries: Box<[Fe]>,
}

impl PrecomputedBase {
    /// Builds the 4-bit window table for `base`.
    pub fn new(base: &GroupElem) -> Self {
        Self::with_width(base, 4)
    }

    fn with_width(base: &GroupElem, width: usize) -> Self {
        let row = 1usize << width;
        let windows = 256usize.div_ceil(width);
        let mut entries = vec![Fe::ONE; windows * row];
        let mut wbase = base.0; // base^(2^(width·w))
        for window in entries.chunks_exact_mut(row) {
            window[1] = wbase;
            for d in 2..row {
                window[d] = window[d - 1].mul(&wbase);
            }
            // Next window's base: base^(2^(width·(w+1))) = window[row-1] · wbase.
            wbase = window[row - 1].mul(&wbase);
        }
        PrecomputedBase { width, entries: entries.into_boxed_slice() }
    }

    /// The base this table was built for.
    pub fn base(&self) -> GroupElem {
        GroupElem(self.entries[1])
    }

    /// `base^exp` by table lookups: one multiply per non-zero window of the
    /// exponent. Short exponents (e.g. 64-bit batch coefficients) cost
    /// proportionally less.
    pub fn pow(&self, exp: &Scalar) -> GroupElem {
        let limbs = exp.limbs();
        let mut acc: Option<Fe> = None;
        for (w, window) in self.entries.chunks_exact(1 << self.width).enumerate() {
            let d = digit_at(&limbs, w * self.width, self.width);
            if d != 0 {
                acc = Some(acc.map_or(window[d], |acc| acc.mul(&window[d])));
            }
        }
        GroupElem(acc.unwrap_or(Fe::ONE))
    }
}

impl core::fmt::Debug for PrecomputedBase {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("PrecomputedBase")
            .field("base", &self.base())
            .field("width", &self.width)
            .finish_non_exhaustive()
    }
}

/// Process-wide 8-bit window table for the generator `g = 4`, built on
/// first use.
fn generator_table() -> &'static PrecomputedBase {
    static TABLE: OnceLock<PrecomputedBase> = OnceLock::new();
    TABLE.get_or_init(|| PrecomputedBase::with_width(&GroupElem(Fe::from_u64(4)), 8))
}

/// A lazily-filled cache of precomputed tables, shared by all clones of the
/// key set it is embedded in (every node holds a clone of the same dealt
/// keys, so the tables build at most once per deal).
///
/// Deliberately inert for equality: the cached payload is a pure function
/// of the owning key set's public keys, so cache state never affects
/// key-set identity — both threshold schemes rely on this invariant.
pub(crate) struct PrecompCache<T>(pub(crate) std::sync::Arc<OnceLock<T>>);

// Manual impls: derives would demand `T: Clone` / `T: Default`, which the
// cached table payloads don't (and needn't) satisfy.
impl<T> Clone for PrecompCache<T> {
    fn clone(&self) -> Self {
        PrecompCache(self.0.clone())
    }
}

impl<T> Default for PrecompCache<T> {
    fn default() -> Self {
        PrecompCache(std::sync::Arc::new(OnceLock::new()))
    }
}

impl<T> core::fmt::Debug for PrecompCache<T> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "PrecompCache({})", if self.0.get().is_some() { "built" } else { "empty" })
    }
}

impl<T> PartialEq for PrecompCache<T> {
    fn eq(&self, _: &Self) -> bool {
        true // cache state never affects key-set identity
    }
}

impl<T> Eq for PrecompCache<T> {}

/// The 4-bit window of a scalar's limbs at window index `w` (LSB first),
/// the Pippenger pass's digit.
#[inline]
fn window_digit(limbs: &[u64; 4], w: usize) -> usize {
    ((limbs[w / 16] >> ((w % 16) * 4)) & 0xf) as usize
}

/// The `width`-bit digit of a 256-bit little-endian value starting at bit
/// `bit` (handles limb-crossing windows).
#[inline]
fn digit_at(limbs: &[u64; 4], bit: usize, width: usize) -> usize {
    let limb = bit / 64;
    let off = bit % 64;
    let mut v = (limbs[limb] >> off) as u128;
    if off + width > 64 && limb + 1 < 4 {
        v |= (limbs[limb + 1] as u128) << (64 - off);
    }
    (v as usize) & ((1usize << width) - 1)
}

/// The highest set bit across all exponents, or `None` if all are zero.
fn highest_bit(exps: &[[u64; 4]]) -> Option<usize> {
    exps.iter()
        .filter_map(|e| {
            (0..4).rev().find_map(|i| {
                if e[i] != 0 {
                    Some(i * 64 + 63 - e[i].leading_zeros() as usize)
                } else {
                    None
                }
            })
        })
        .max()
}

/// The highest window index holding a non-zero digit across all exponents,
/// or `None` if every exponent is zero.
fn highest_window(exps: &[[u64; 4]]) -> Option<usize> {
    (0..64)
        .rev()
        .find(|&w| exps.iter().any(|e| window_digit(e, w) != 0))
}

impl GroupElem {
    /// The subgroup generator `g = 4`.
    pub fn generator() -> Self {
        GroupElem(Fe::from_u64(4))
    }

    /// The identity element.
    pub fn identity() -> Self {
        GroupElem(Fe::ONE)
    }

    /// `g^exp` for the fixed generator, via the process-wide window table.
    pub fn from_exponent(exp: &Scalar) -> Self {
        generator_table().pow(exp)
    }

    /// Deterministically hash arbitrary input into the subgroup.
    ///
    /// Implemented as `g^{H(input)}`; the discrete log of the output is
    /// therefore *known* given the input. For the BLS-style threshold
    /// signatures below this is exactly what makes verification pairing-free
    /// (`h^{s_i} = vk_i^{H(m)}`), at the cost of share unforgeability — an
    /// explicitly documented simulation trade-off (see crate docs and
    /// DESIGN.md §2).
    pub fn hash_to_group(domain: &str, parts: &[&[u8]]) -> (Self, Scalar) {
        let e = crate::hash::hash_to_scalar(domain, parts);
        (Self::from_exponent(&e), e)
    }

    /// Group operation.
    pub fn mul(&self, other: &Self) -> Self {
        GroupElem(self.0.mul(&other.0))
    }

    /// Exponentiation.
    pub fn pow(&self, exp: &Scalar) -> Self {
        GroupElem(self.0.pow_scalar(exp))
    }

    /// Inverse element.
    pub fn invert(&self) -> Self {
        // Group members are nonzero, so field inversion is total here.
        GroupElem(self.0.invert().expect("group elements are nonzero"))
    }

    /// Simultaneous multi-exponentiation: `Π bases[i]^exps[i]` in one pass.
    ///
    /// Uses Straus/Shamir 4-bit interleaving below 16 bases (per-base
    /// 16-entry tables, one shared squaring chain) and a Pippenger bucket
    /// pass at 16 bases or more (no per-base tables; one 15-bucket
    /// accumulation per window). Both skip leading all-zero windows, so
    /// short exponents — like the index powers `x^k` of a Feldman commitment
    /// evaluation — cost proportionally less.
    pub fn multi_pow(pairs: &[(GroupElem, Scalar)]) -> GroupElem {
        match pairs.len() {
            0 => GroupElem::identity(),
            1 => pairs[0].0.pow(&pairs[0].1),
            2..=15 => Self::multi_pow_straus(pairs),
            _ => Self::multi_pow_pippenger(pairs),
        }
    }

    fn multi_pow_straus(pairs: &[(GroupElem, Scalar)]) -> GroupElem {
        let exps: Vec<[u64; 4]> = pairs.iter().map(|(_, e)| e.limbs()).collect();
        let Some(top_bit) = highest_bit(&exps) else {
            return GroupElem::identity();
        };
        // Window width: short exponents (the index powers of a Feldman
        // commitment evaluation) amortize per-base tables over few windows,
        // so a narrower window with its 4× smaller table wins there.
        let width = if top_bit < 72 { 3 } else { 4 };
        let table_len = 1usize << width;
        let tables: Vec<Vec<Fe>> = pairs
            .iter()
            .map(|(b, _)| {
                let mut row = Vec::with_capacity(table_len);
                row.push(Fe::ONE);
                row.push(b.0);
                for d in 2..table_len {
                    let prev = row[d - 1];
                    row.push(prev.mul(&b.0));
                }
                row
            })
            .collect();
        let top = top_bit / width;
        let mut acc = Fe::ONE;
        for w in (0..=top).rev() {
            if w != top {
                for _ in 0..width {
                    acc = acc.square();
                }
            }
            for (e, table) in exps.iter().zip(&tables) {
                let d = digit_at(e, w * width, width);
                if d != 0 {
                    acc = acc.mul(&table[d]);
                }
            }
        }
        GroupElem(acc)
    }

    fn multi_pow_pippenger(pairs: &[(GroupElem, Scalar)]) -> GroupElem {
        let exps: Vec<[u64; 4]> = pairs.iter().map(|(_, e)| e.limbs()).collect();
        let Some(top) = highest_window(&exps) else {
            return GroupElem::identity();
        };
        let mut acc = Fe::ONE;
        for w in (0..=top).rev() {
            if w != top {
                for _ in 0..4 {
                    acc = acc.square();
                }
            }
            // Sort bases into buckets by digit, then fold the buckets with
            // the standard suffix trick: Σ_d d·B_d = Σ suffix products.
            let mut buckets = [Fe::ONE; 16];
            let mut used = [false; 16];
            for ((base, _), e) in pairs.iter().zip(&exps) {
                let d = window_digit(e, w);
                if d != 0 {
                    buckets[d] = if used[d] { buckets[d].mul(&base.0) } else { base.0 };
                    used[d] = true;
                }
            }
            let mut run = Fe::ONE;
            let mut run_set = false;
            for d in (1..16).rev() {
                if used[d] {
                    run = if run_set { run.mul(&buckets[d]) } else { buckets[d] };
                    run_set = true;
                }
                if run_set {
                    acc = acc.mul(&run);
                }
            }
        }
        GroupElem(acc)
    }

    /// Canonical 32-byte encoding.
    pub fn to_bytes(&self) -> [u8; 32] {
        self.0.to_bytes()
    }

    /// Decodes and validates subgroup membership.
    ///
    /// The Euler-criterion check (a 254-bit exponentiation) goes through the
    /// verdict memo ([`crate::memo`]) under the canonical encoding, so
    /// decoding the same share or signature bytes repeatedly — the normal
    /// case under broadcast and retransmission-heavy wireless traffic —
    /// pays the exponentiation once.
    ///
    /// # Errors
    ///
    /// Returns [`NotInSubgroup`] if the bytes encode zero, a value `>= p`
    /// reduced differently, or a non-residue.
    pub fn from_bytes(bytes: &[u8; 32]) -> Result<Self, NotInSubgroup> {
        let fe = Fe::from_bytes_reduced(bytes);
        if fe.is_zero() {
            return Err(NotInSubgroup);
        }
        // Key on the canonical encoding so non-canonical inputs share the
        // entry of the value they reduce to.
        if memo::verdict(Predicate::Subgroup, fe.to_bytes(), [0; 32], || fe.is_in_subgroup()) {
            Ok(GroupElem(fe))
        } else {
            Err(NotInSubgroup)
        }
    }

    /// Records this element's subgroup membership under the key
    /// [`GroupElem::from_bytes`] asks, for the producers of signatures and
    /// shares (see [`crate::memo`]): an element built by group operations
    /// is a member by this type's invariant, so whoever decodes its bytes
    /// on this thread need not repeat the exponentiation.
    pub(crate) fn record_member(&self) {
        memo::record(Predicate::Subgroup, self.to_bytes(), [0; 32], || self.0.is_in_subgroup());
    }

    /// Digest of the canonical encoding — the source of common-coin values.
    pub fn digest(&self, domain: &str) -> Digest32 {
        Digest32::of_parts(domain, &[&self.to_bytes()])
    }
}

impl core::ops::Mul for GroupElem {
    type Output = GroupElem;
    fn mul(self, rhs: Self) -> Self {
        GroupElem::mul(&self, &rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_has_expected_encoding() {
        let g = GroupElem::generator();
        let mut expect = [0u8; 32];
        expect[0] = 4;
        assert_eq!(g.to_bytes(), expect);
    }

    #[test]
    fn exponent_laws_hold() {
        let a = Scalar::from_u64(123);
        let b = Scalar::from_u64(456);
        let g = GroupElem::generator();
        // g^a · g^b = g^(a+b)
        assert_eq!(
            g.pow(&a).mul(&g.pow(&b)),
            g.pow(&a.add(&b))
        );
        // (g^a)^b = g^(ab)
        assert_eq!(g.pow(&a).pow(&b), g.pow(&a.mul(&b)));
    }

    #[test]
    fn inverse_cancels() {
        let x = GroupElem::from_exponent(&Scalar::from_u64(987_654_321));
        assert_eq!(x.mul(&x.invert()), GroupElem::identity());
    }

    #[test]
    fn from_bytes_rejects_non_members() {
        // 0 is not a member.
        assert_eq!(GroupElem::from_bytes(&[0u8; 32]), Err(NotInSubgroup));
        // The generator round-trips.
        let g = GroupElem::generator();
        assert_eq!(GroupElem::from_bytes(&g.to_bytes()), Ok(g));
    }

    #[test]
    fn hash_to_group_consistency() {
        let (h, e) = GroupElem::hash_to_group("test", &[b"m"]);
        assert_eq!(h, GroupElem::from_exponent(&e));
        let (h2, _) = GroupElem::hash_to_group("test", &[b"m"]);
        assert_eq!(h, h2);
        let (h3, _) = GroupElem::hash_to_group("test", &[b"n"]);
        assert_ne!(h, h3);
    }

    #[test]
    fn windowed_pow_matches_square_and_multiply() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let g = GroupElem::generator();
        for _ in 0..8 {
            let e = Scalar::random(&mut rng);
            assert_eq!(GroupElem::from_exponent(&e), g.pow(&e));
        }
        // Edge exponents, among them the largest (every 8-bit window full).
        assert_eq!(GroupElem::from_exponent(&Scalar::ZERO), GroupElem::identity());
        assert_eq!(GroupElem::from_exponent(&Scalar::ONE), g);
        let top = Scalar::ZERO.sub(&Scalar::ONE);
        assert_eq!(GroupElem::from_exponent(&top), g.pow(&top));
        assert_eq!(GroupElem::from_exponent(&top).mul(&g), GroupElem::identity());
    }

    #[test]
    fn precomputed_base_matches_plain_pow() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let base = GroupElem::from_exponent(&Scalar::random(&mut rng));
        let table = PrecomputedBase::new(&base);
        assert_eq!(table.base(), base);
        for _ in 0..8 {
            let e = Scalar::random(&mut rng);
            assert_eq!(table.pow(&e), base.pow(&e));
        }
        assert_eq!(table.pow(&Scalar::ZERO), GroupElem::identity());
    }

    #[test]
    fn multi_pow_matches_naive_product_both_paths() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        // 9 bases exercises Straus, 20 exercises Pippenger.
        for k in [0usize, 1, 2, 9, 16, 20] {
            let pairs: Vec<(GroupElem, Scalar)> = (0..k)
                .map(|_| {
                    (GroupElem::from_exponent(&Scalar::random(&mut rng)), Scalar::random(&mut rng))
                })
                .collect();
            let naive = pairs
                .iter()
                .fold(GroupElem::identity(), |acc, (b, e)| acc.mul(&b.pow(e)));
            assert_eq!(GroupElem::multi_pow(&pairs), naive, "k = {k}");
        }
    }

    #[test]
    fn multi_pow_handles_zero_and_small_exponents() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(19);
        let b1 = GroupElem::from_exponent(&Scalar::random(&mut rng));
        let b2 = GroupElem::from_exponent(&Scalar::random(&mut rng));
        // All-zero exponents → identity.
        let zeros = vec![(b1, Scalar::ZERO), (b2, Scalar::ZERO)];
        assert_eq!(GroupElem::multi_pow(&zeros), GroupElem::identity());
        // Mixed small exponents.
        let pairs = vec![(b1, Scalar::from_u64(3)), (b2, Scalar::ZERO)];
        assert_eq!(GroupElem::multi_pow(&pairs), b1.pow(&Scalar::from_u64(3)));
        // ≥16 bases with tiny exponents (Pippenger path, short chain).
        let many: Vec<_> = (0..17u64)
            .map(|i| (GroupElem::from_exponent(&Scalar::from_u64(i + 2)), Scalar::from_u64(i)))
            .collect();
        let naive =
            many.iter().fold(GroupElem::identity(), |acc, (b, e)| acc.mul(&b.pow(e)));
        assert_eq!(GroupElem::multi_pow(&many), naive);
    }

    #[test]
    fn random_exponents_land_in_subgroup() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for _ in 0..8 {
            let s = Scalar::random(&mut rng);
            let x = GroupElem::from_exponent(&s);
            assert_eq!(GroupElem::from_bytes(&x.to_bytes()), Ok(x));
        }
    }
}
