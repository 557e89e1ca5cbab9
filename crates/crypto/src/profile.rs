//! Calibrated cost/size profiles for the cryptographic deployments evaluated
//! in the paper (§VI-A, Fig. 10).
//!
//! The paper benchmarks six MIRACL pairing-curve deployments of threshold
//! cryptography (BN158, BN254, BLS12383, BLS12381, FP256BN, FP512BN) and five
//! micro-ecc curves for packet signatures (secp160r1 … secp256k1) on an
//! STM32F767 (Cortex-M7 @ 216 MHz). We do not run MIRACL; instead each curve
//! is a *profile*: the byte sizes its signatures occupy in packets and the
//! virtual CPU time its operations charge inside the discrete-event
//! simulator. The numbers below are read off Fig. 10a–c (log-scale, ms) and
//! standard micro-ecc benchmarks for the Cortex-M7 class; EXPERIMENTS.md
//! records them as calibration assumptions. Shapes that matter downstream:
//! BN158 lightest, BN254 ≈ FP256BN mid, BLS12-class heavy, FP512BN heaviest;
//! threshold coin flipping strictly cheaper than threshold signatures; BN158
//! threshold signature = 21 bytes; secp160r1 packet signature = 40 bytes.

/// The six pairing-curve deployments for threshold cryptography.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ThresholdCurve {
    /// 158-bit Barreto–Naehrig curve — the lightest deployment; the paper
    /// selects it (with secp160r1) for all consensus experiments.
    Bn158,
    /// 254-bit Barreto–Naehrig curve.
    Bn254,
    /// BLS12-383.
    Bls12383,
    /// BLS12-381.
    Bls12381,
    /// 256-bit BN curve in Fp.
    Fp256Bn,
    /// 512-bit BN curve in Fp — the heaviest deployment.
    Fp512Bn,
}

impl ThresholdCurve {
    /// All curves, in the order the paper's figures list them.
    pub const ALL: [ThresholdCurve; 6] = [
        ThresholdCurve::Bn158,
        ThresholdCurve::Bn254,
        ThresholdCurve::Bls12383,
        ThresholdCurve::Bls12381,
        ThresholdCurve::Fp256Bn,
        ThresholdCurve::Fp512Bn,
    ];

    /// Human-readable name matching the paper.
    pub fn name(&self) -> &'static str {
        match self {
            ThresholdCurve::Bn158 => "BN158",
            ThresholdCurve::Bn254 => "BN254",
            ThresholdCurve::Bls12383 => "BLS12383",
            ThresholdCurve::Bls12381 => "BLS12381",
            ThresholdCurve::Fp256Bn => "FP256BN",
            ThresholdCurve::Fp512Bn => "FP512BN",
        }
    }

    /// Cost/size profile for *threshold signatures* on this curve (Fig. 10a).
    pub fn signature_profile(&self) -> ThresholdProfile {
        // (dealer, sign_share, verify_share, combine, verify_sig) in µs;
        // sizes in bytes. Fig. 10a spans 10^0–10^3 ms.
        match self {
            ThresholdCurve::Bn158 => ThresholdProfile {
                curve: *self,
                dealer_us: 42_000,
                sign_share_us: 26_000,
                verify_share_us: 58_000,
                combine_us: 34_000,
                verify_signature_us: 52_000,
                signature_bytes: 21,
                share_bytes: 21,
            },
            ThresholdCurve::Bn254 => ThresholdProfile {
                curve: *self,
                dealer_us: 105_000,
                sign_share_us: 68_000,
                verify_share_us: 148_000,
                combine_us: 88_000,
                verify_signature_us: 135_000,
                signature_bytes: 33,
                share_bytes: 33,
            },
            ThresholdCurve::Bls12383 => ThresholdProfile {
                curve: *self,
                dealer_us: 265_000,
                sign_share_us: 162_000,
                verify_share_us: 355_000,
                combine_us: 205_000,
                verify_signature_us: 330_000,
                signature_bytes: 49,
                share_bytes: 49,
            },
            ThresholdCurve::Bls12381 => ThresholdProfile {
                curve: *self,
                dealer_us: 255_000,
                sign_share_us: 157_000,
                verify_share_us: 345_000,
                combine_us: 198_000,
                verify_signature_us: 318_000,
                signature_bytes: 49,
                share_bytes: 49,
            },
            ThresholdCurve::Fp256Bn => ThresholdProfile {
                curve: *self,
                dealer_us: 118_000,
                sign_share_us: 74_000,
                verify_share_us: 158_000,
                combine_us: 94_000,
                verify_signature_us: 146_000,
                signature_bytes: 33,
                share_bytes: 33,
            },
            ThresholdCurve::Fp512Bn => ThresholdProfile {
                curve: *self,
                dealer_us: 610_000,
                sign_share_us: 385_000,
                verify_share_us: 815_000,
                combine_us: 470_000,
                verify_signature_us: 760_000,
                signature_bytes: 65,
                share_bytes: 65,
            },
        }
    }

    /// Cost/size profile for *threshold coin flipping* on this curve
    /// (Fig. 10b) — BEAT's replacement for threshold signatures. Cheaper
    /// per-operation (no pairing in share verification) but shares carry
    /// extra verification data (paper §V-A). A coin is combined, never sent
    /// or checked as a signature: its `verify_signature_us` and
    /// `signature_bytes` are the signature profile's.
    pub fn coin_profile(&self) -> ThresholdProfile {
        // Fig. 10b sits visibly below Fig. 10a on the shared log scale:
        // coin-flipping share operations avoid the pairing, costing roughly
        // a quarter of the signature ops; the share carries a small amount
        // of extra verification data (§V-A).
        let sig = self.signature_profile();
        ThresholdProfile {
            dealer_us: sig.dealer_us * 9 / 10,
            sign_share_us: sig.sign_share_us / 4,
            verify_share_us: sig.verify_share_us / 4,
            combine_us: sig.combine_us / 3,
            share_bytes: sig.share_bytes + 8, // extra verification data
            ..sig
        }
    }
}

/// Per-operation virtual CPU cost (µs) and wire sizes for threshold
/// signatures, or threshold coin flipping, on one curve.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ThresholdProfile {
    /// Which curve this profile describes.
    pub curve: ThresholdCurve,
    /// Trusted-dealer key generation (one-time, off the critical path).
    pub dealer_us: u64,
    /// Producing one signature/decryption share.
    pub sign_share_us: u64,
    /// Verifying one share from a peer.
    pub verify_share_us: u64,
    /// Lagrange combination of `f+1` (or `2f+1`) shares.
    pub combine_us: u64,
    /// Verifying a combined signature.
    pub verify_signature_us: u64,
    /// Wire size of a combined threshold signature.
    pub signature_bytes: usize,
    /// Wire size of one share.
    pub share_bytes: usize,
}

/// The five micro-ecc curves for per-packet digital signatures (Fig. 10c).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum EcdsaCurve {
    /// 160-bit — smallest signatures (40 bytes); the paper's pick.
    Secp160r1,
    /// 192-bit.
    Secp192r1,
    /// 224-bit.
    Secp224r1,
    /// NIST P-256.
    Secp256r1,
    /// The Bitcoin curve.
    Secp256k1,
}

impl EcdsaCurve {
    /// All curves, in the paper's order.
    pub const ALL: [EcdsaCurve; 5] = [
        EcdsaCurve::Secp160r1,
        EcdsaCurve::Secp192r1,
        EcdsaCurve::Secp224r1,
        EcdsaCurve::Secp256r1,
        EcdsaCurve::Secp256k1,
    ];

    /// Human-readable name matching the paper.
    pub fn name(&self) -> &'static str {
        match self {
            EcdsaCurve::Secp160r1 => "secp160r1",
            EcdsaCurve::Secp192r1 => "secp192r1",
            EcdsaCurve::Secp224r1 => "secp224r1",
            EcdsaCurve::Secp256r1 => "secp256r1",
            EcdsaCurve::Secp256k1 => "secp256k1",
        }
    }

    /// Cost/size profile for packet signatures on this curve.
    pub fn profile(&self) -> EcdsaProfile {
        match self {
            EcdsaCurve::Secp160r1 => EcdsaProfile {
                curve: *self,
                sign_us: 8_000,
                verify_us: 9_500,
                signature_bytes: 40,
            },
            EcdsaCurve::Secp192r1 => EcdsaProfile {
                curve: *self,
                sign_us: 12_000,
                verify_us: 14_000,
                signature_bytes: 48,
            },
            EcdsaCurve::Secp224r1 => EcdsaProfile {
                curve: *self,
                sign_us: 18_500,
                verify_us: 21_500,
                signature_bytes: 56,
            },
            EcdsaCurve::Secp256r1 => EcdsaProfile {
                curve: *self,
                sign_us: 26_000,
                verify_us: 30_500,
                signature_bytes: 64,
            },
            EcdsaCurve::Secp256k1 => EcdsaProfile {
                curve: *self,
                sign_us: 28_500,
                verify_us: 33_000,
                signature_bytes: 64,
            },
        }
    }
}

/// Per-operation virtual CPU cost (µs) and wire size for packet signatures.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct EcdsaProfile {
    /// Which curve this profile describes.
    pub curve: EcdsaCurve,
    /// Signing one packet.
    pub sign_us: u64,
    /// Verifying one packet signature.
    pub verify_us: u64,
    /// Wire size of a signature.
    pub signature_bytes: usize,
}

/// The pair of curve deployments a node runs with — the paper pairs
/// secp160r1+BN158 and secp192r1+BN254 in Fig. 10d and adopts the former.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CryptoSuite {
    /// Curve for per-packet digital signatures.
    pub ecdsa: EcdsaCurve,
    /// Curve for threshold signatures / coins / encryption.
    pub threshold: ThresholdCurve,
}

impl CryptoSuite {
    /// The paper's selected deployment: secp160r1 + BN158.
    pub fn light() -> Self {
        CryptoSuite { ecdsa: EcdsaCurve::Secp160r1, threshold: ThresholdCurve::Bn158 }
    }

    /// The heavier comparison point of Fig. 10d: secp192r1 + BN254.
    pub fn medium() -> Self {
        CryptoSuite { ecdsa: EcdsaCurve::Secp192r1, threshold: ThresholdCurve::Bn254 }
    }
}

impl Default for CryptoSuite {
    fn default() -> Self {
        Self::light()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bn158_is_lightest_threshold_curve() {
        let light = ThresholdCurve::Bn158.signature_profile();
        for curve in ThresholdCurve::ALL.iter().skip(1) {
            let p = curve.signature_profile();
            assert!(light.sign_share_us < p.sign_share_us, "{}", curve.name());
            assert!(light.verify_share_us < p.verify_share_us, "{}", curve.name());
            assert!(light.signature_bytes <= p.signature_bytes, "{}", curve.name());
        }
    }

    #[test]
    fn paper_headline_sizes() {
        // "BN158 produces the shortest threshold signature, measuring 21 bytes."
        assert_eq!(ThresholdCurve::Bn158.signature_profile().signature_bytes, 21);
        // "Secp160r1 generates the smallest digital signature, measuring 40 bytes."
        assert_eq!(EcdsaCurve::Secp160r1.profile().signature_bytes, 40);
    }

    #[test]
    fn coin_flipping_is_cheaper_than_threshold_signing() {
        for curve in ThresholdCurve::ALL {
            let sig = curve.signature_profile();
            let coin = curve.coin_profile();
            assert!(coin.sign_share_us < sig.sign_share_us);
            assert!(coin.verify_share_us < sig.verify_share_us);
            assert!(coin.combine_us < sig.combine_us);
        }
    }

    #[test]
    fn ecdsa_sizes_grow_with_curve_size() {
        let sizes: Vec<_> =
            EcdsaCurve::ALL.iter().map(|c| c.profile().signature_bytes).collect();
        let mut sorted = sizes.clone();
        sorted.sort_unstable();
        assert_eq!(sizes, sorted);
    }

    #[test]
    fn suites_match_fig10d_pairing() {
        let light = CryptoSuite::light();
        assert_eq!(light.ecdsa, EcdsaCurve::Secp160r1);
        assert_eq!(light.threshold, ThresholdCurve::Bn158);
        let medium = CryptoSuite::medium();
        assert_eq!(medium.ecdsa, EcdsaCurve::Secp192r1);
        assert_eq!(medium.threshold, ThresholdCurve::Bn254);
    }
}
