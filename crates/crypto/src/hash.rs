//! Hashing utilities: digests, domain-separated hashing, and hash-to-field.

// The `.into()` after every `finalize()` is redundant against the local
// sha2 shim (which returns plain arrays) but required by the real sha2
// crate (which returns a `GenericArray`); keeping it is what makes the
// registry swap a one-line Cargo.toml change.
#![expect(clippy::useless_conversion, reason = "the real sha2 crate needs the `.into()`")]

use crate::field::Scalar;
use sha2::{Digest as _, Sha256, Sha512};

/// A 32-byte SHA-256 digest.
///
/// Used throughout the packet layer to identify proposals: the batched
/// ECHO/READY packets of ConsensusBatcher carry one digest per instance
/// (the `Hash` part of the packet structures in Fig. 4 of the paper).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest32(pub [u8; 32]);

impl Digest32 {
    /// Digest of the empty string; used as a placeholder for "no proposal".
    pub fn zero() -> Self {
        Digest32([0u8; 32])
    }

    /// `true` iff this is the all-zero placeholder digest.
    pub fn is_zero(&self) -> bool {
        self.0 == [0u8; 32]
    }

    /// Hash arbitrary bytes.
    pub fn of(data: &[u8]) -> Self {
        let mut h = Sha256::new();
        h.update(data);
        Digest32(h.finalize().into())
    }

    /// Hash under a domain-separation tag, then any number of parts.
    pub fn of_parts(domain: &str, parts: &[&[u8]]) -> Self {
        let mut h = Sha256::new();
        h.update((domain.len() as u64).to_le_bytes());
        h.update(domain.as_bytes());
        for p in parts {
            h.update((p.len() as u64).to_le_bytes());
            h.update(p);
        }
        Digest32(h.finalize().into())
    }

    /// The raw bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// First 8 bytes as a little-endian integer (convenient for seeding and
    /// for deriving the common-coin value / the Dumbo permutation π).
    pub fn to_u64(&self) -> u64 {
        let mut b = [0u8; 8];
        b.copy_from_slice(&self.0[..8]);
        u64::from_le_bytes(b)
    }
}

impl core::fmt::Debug for Digest32 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Digest32({}…)", hex::encode(&self.0[..6]))
    }
}

impl AsRef<[u8]> for Digest32 {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

/// Hash arbitrary input to a near-uniform [`Scalar`] (wide reduction of
/// SHA-512 output), under a domain tag.
pub fn hash_to_scalar(domain: &str, parts: &[&[u8]]) -> Scalar {
    let mut h = Sha512::new();
    h.update((domain.len() as u64).to_le_bytes());
    h.update(domain.as_bytes());
    for p in parts {
        h.update((p.len() as u64).to_le_bytes());
        h.update(p);
    }
    let wide: [u8; 64] = h.finalize().into();
    Scalar::from_wide_bytes_reduced(&wide)
}

/// Expandable-output keystream for the threshold-encryption hybrid layer:
/// SHA-256 in counter mode keyed by `key` and `label`. Block `c` is
/// `Digest32::of_parts("wbft/keystream", &[key, label, &c.to_le_bytes()])`;
/// everything before the counter is the same for every block, so it is
/// absorbed once and the hash state cloned per block — for the short keys
/// and labels of the hybrid layer, one compression per 32 bytes instead of
/// two.
pub fn keystream(key: &[u8], label: &[u8], len: usize) -> Vec<u8> {
    const DOMAIN: &str = "wbft/keystream";
    let mut prefix = Sha256::new();
    prefix.update((DOMAIN.len() as u64).to_le_bytes());
    prefix.update(DOMAIN.as_bytes());
    for part in [key, label] {
        prefix.update((part.len() as u64).to_le_bytes());
        prefix.update(part);
    }
    prefix.update(8u64.to_le_bytes());
    let mut out = Vec::with_capacity(len);
    let mut counter = 0u64;
    while out.len() < len {
        let mut h = prefix.clone();
        h.update(counter.to_le_bytes());
        let block: [u8; 32] = h.finalize().into();
        let take = (len - out.len()).min(32);
        out.extend_from_slice(&block[..take]);
        counter += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_deterministic_and_distinct() {
        assert_eq!(Digest32::of(b"abc"), Digest32::of(b"abc"));
        assert_ne!(Digest32::of(b"abc"), Digest32::of(b"abd"));
    }

    #[test]
    fn domain_separation_changes_digest() {
        let a = Digest32::of_parts("domain-a", &[b"x"]);
        let b = Digest32::of_parts("domain-b", &[b"x"]);
        assert_ne!(a, b);
    }

    #[test]
    fn part_boundaries_are_unambiguous() {
        // ("ab","c") must differ from ("a","bc") — length prefixing.
        let a = Digest32::of_parts("d", &[b"ab", b"c"]);
        let b = Digest32::of_parts("d", &[b"a", b"bc"]);
        assert_ne!(a, b);
    }

    #[test]
    fn hash_to_scalar_is_deterministic() {
        let s1 = hash_to_scalar("coin", &[b"round-1"]);
        let s2 = hash_to_scalar("coin", &[b"round-1"]);
        let s3 = hash_to_scalar("coin", &[b"round-2"]);
        assert_eq!(s1, s2);
        assert_ne!(s1, s3);
        assert!(!s1.is_zero());
    }

    #[test]
    fn keystream_has_requested_length_and_periodicity() {
        let ks = keystream(b"key", b"label", 100);
        assert_eq!(ks.len(), 100);
        let ks2 = keystream(b"key", b"label", 100);
        assert_eq!(ks, ks2);
        let ks3 = keystream(b"key2", b"label", 100);
        assert_ne!(ks, ks3);
    }

    #[test]
    fn xor_with_keystream_roundtrips() {
        let pt = b"attack at dawn".to_vec();
        let ks = keystream(b"k", b"l", pt.len());
        let ct: Vec<u8> = pt.iter().zip(&ks).map(|(a, b)| a ^ b).collect();
        let back: Vec<u8> = ct.iter().zip(&ks).map(|(a, b)| a ^ b).collect();
        assert_eq!(back, pt);
        assert_ne!(ct, pt);
    }
}
