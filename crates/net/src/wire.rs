//! The dual-mode wire codec.
//!
//! Every packet encodes through a [`Sink`] with two implementations:
//!
//! * [`ByteSink`] writes the actual bytes exchanged in the simulation
//!   (group elements are 32 bytes — the size of *this crate's* crypto);
//! * [`CountSink`] computes the **nominal wire length**: the bytes the same
//!   packet would occupy with the paper's curve deployments (a BN158
//!   threshold signature is 21 bytes, a secp160r1 packet signature 40
//!   bytes, …). The simulator's airtime and byte counters use the nominal
//!   length, so packet-size effects match the paper's testbed, not our
//!   substitute crypto.
//!
//! Decoding reads the actual bytes back with [`WireReader`].

use crate::bitmap::Bitmap;
use bytes::{BufMut, Bytes, BytesMut};
use wbft_crypto::hash::Digest32;
use wbft_crypto::profile::CryptoSuite;
use wbft_crypto::shamir::ShareIndex;
use wbft_crypto::thresh_coin::CoinShare;
use wbft_crypto::thresh_enc::{DecShare, DleqProof};
use wbft_crypto::thresh_sig::{SigShare, ThresholdSignature};
use wbft_crypto::{GroupElem, Scalar};

/// Which coin deployment a coin share belongs to — threshold signatures
/// (ABA-SC) or threshold coin flipping (ABA-CP / BEAT). Decides the nominal
/// share size.
#[derive(Clone, Copy, PartialEq, Eq, Debug, serde::Serialize, serde::Deserialize)]
pub enum CoinFlavor {
    /// Coin from threshold signatures (Cachin's ABA).
    ThreshSig,
    /// Coin from threshold coin flipping (BEAT).
    CoinFlip,
}

/// Sizing context for nominal lengths.
#[derive(Clone, Copy, Debug)]
pub struct Sizing {
    /// Number of nodes / parallel instances.
    pub n: usize,
    /// Curve deployments in effect.
    pub suite: CryptoSuite,
}

impl Sizing {
    /// Sizing for `n` nodes under the paper's light suite.
    pub fn light(n: usize) -> Self {
        Sizing { n, suite: CryptoSuite::light() }
    }
}

/// Checks a length-prefixed byte string's length against its u16 prefix.
///
/// # Errors
///
/// [`WireError::Oversize`] for inputs longer than 65535 bytes.
pub fn checked_bytes_len(len: usize) -> Result<u16, WireError> {
    u16::try_from(len).map_err(|_| WireError::Oversize("byte string"))
}

/// Checks a bitmap's logical length against its u8 wire prefix.
///
/// (Today's [`Bitmap`] caps at 64 bits, but the wire prefix is what bounds
/// the format — a wider future bitmap must still fit the u8.)
///
/// # Errors
///
/// [`WireError::Oversize`] for lengths above 255.
pub fn checked_bitmap_len(len: usize) -> Result<u8, WireError> {
    u8::try_from(len).map_err(|_| WireError::Oversize("bitmap"))
}

/// Encoding destination; see module docs.
///
/// Variable-length fields (`bytes`, `bitmap`, `count8`) are fallible: a
/// value that does not fit its wire-format length prefix yields
/// [`WireError::Oversize`] instead of panicking or silently truncating, so
/// an oversized message can never abort a node mid-encode.
pub trait Sink {
    /// Raw byte.
    fn u8(&mut self, v: u8);
    /// Little-endian u16.
    fn u16(&mut self, v: u16);
    /// Little-endian u32.
    fn u32(&mut self, v: u32);
    /// Little-endian u64.
    fn u64(&mut self, v: u64);
    /// Length-prefixed byte string (u16 prefix).
    ///
    /// # Errors
    ///
    /// [`WireError::Oversize`] for inputs longer than 65535 bytes.
    fn bytes(&mut self, v: &[u8]) -> Result<(), WireError>;
    /// A 32-byte digest.
    fn digest(&mut self, v: &Digest32);
    /// A bitmap (length known from context).
    ///
    /// # Errors
    ///
    /// [`WireError::Oversize`] if the logical length exceeds the u8 prefix.
    fn bitmap(&mut self, v: &Bitmap) -> Result<(), WireError>;
    /// A u8 element-count prefix for a variable-length list.
    ///
    /// # Errors
    ///
    /// [`WireError::Oversize`] for counts above 255.
    fn count8(&mut self, n: usize) -> Result<(), WireError> {
        let b = u8::try_from(n).map_err(|_| WireError::Oversize("list count"))?;
        self.u8(b);
        Ok(())
    }
    /// A threshold signature share.
    fn sig_share(&mut self, v: &SigShare);
    /// A combined threshold signature.
    fn thresh_sig(&mut self, v: &ThresholdSignature);
    /// A coin share of the given flavor.
    fn coin_share(&mut self, v: &CoinShare, flavor: CoinFlavor);
    /// A threshold-decryption share.
    fn dec_share(&mut self, v: &DecShare);
}

/// Writes real bytes.
#[derive(Default)]
pub struct ByteSink {
    buf: BytesMut,
}

impl ByteSink {
    /// Fresh empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Finishes encoding.
    pub fn into_bytes(self) -> Bytes {
        self.buf.freeze()
    }

    /// Bytes written so far (for signing).
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// The buffer itself, still open for appending (a packet whose
    /// signature is added when it is transmitted).
    pub fn into_mut(self) -> BytesMut {
        self.buf
    }
}

impl Sink for ByteSink {
    fn u8(&mut self, v: u8) {
        self.buf.put_u8(v);
    }
    fn u16(&mut self, v: u16) {
        self.buf.put_u16_le(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.put_u32_le(v);
    }
    fn u64(&mut self, v: u64) {
        self.buf.put_u64_le(v);
    }
    fn bytes(&mut self, v: &[u8]) -> Result<(), WireError> {
        self.buf.put_u16_le(checked_bytes_len(v.len())?);
        self.buf.put_slice(v);
        Ok(())
    }
    fn digest(&mut self, v: &Digest32) {
        self.buf.put_slice(v.as_bytes());
    }
    fn bitmap(&mut self, v: &Bitmap) -> Result<(), WireError> {
        self.buf.put_u8(checked_bitmap_len(v.len())?);
        let raw = v.to_raw().to_le_bytes();
        let prefix = raw.get(..v.wire_len()).ok_or(WireError::Oversize("bitmap"))?;
        self.buf.put_slice(prefix);
        Ok(())
    }
    fn sig_share(&mut self, v: &SigShare) {
        self.buf.put_u16_le(v.index.value());
        self.buf.put_slice(&v.value.to_bytes());
    }
    fn thresh_sig(&mut self, v: &ThresholdSignature) {
        self.buf.put_slice(&v.to_bytes());
    }
    fn coin_share(&mut self, v: &CoinShare, _flavor: CoinFlavor) {
        self.buf.put_u16_le(v.index.value());
        self.buf.put_slice(&v.value.to_bytes());
    }
    fn dec_share(&mut self, v: &DecShare) {
        self.buf.put_u16_le(v.index.value());
        self.buf.put_slice(&v.value.to_bytes());
        self.buf.put_slice(&v.proof.c.to_bytes());
        self.buf.put_slice(&v.proof.z.to_bytes());
    }
}

/// Counts nominal bytes under a [`Sizing`].
pub struct CountSink {
    sizing: Sizing,
    total: usize,
}

impl CountSink {
    /// Fresh counter.
    pub fn new(sizing: Sizing) -> Self {
        CountSink { sizing, total: 0 }
    }

    /// The nominal byte count.
    pub fn total(&self) -> usize {
        self.total
    }
}

impl Sink for CountSink {
    fn u8(&mut self, _v: u8) {
        self.total += 1;
    }
    fn u16(&mut self, _v: u16) {
        self.total += 2;
    }
    fn u32(&mut self, _v: u32) {
        self.total += 4;
    }
    fn u64(&mut self, _v: u64) {
        self.total += 8;
    }
    fn bytes(&mut self, v: &[u8]) -> Result<(), WireError> {
        // Same bound as ByteSink, so the nominal and real paths agree on
        // which messages are encodable.
        checked_bytes_len(v.len())?;
        self.total += 2 + v.len();
        Ok(())
    }
    fn digest(&mut self, _v: &Digest32) {
        self.total += 32;
    }
    fn bitmap(&mut self, v: &Bitmap) -> Result<(), WireError> {
        checked_bitmap_len(v.len())?;
        self.total += 1 + v.wire_len();
        Ok(())
    }
    fn sig_share(&mut self, _v: &SigShare) {
        self.total += 2 + self.sizing.suite.threshold.signature_profile().share_bytes;
    }
    fn thresh_sig(&mut self, _v: &ThresholdSignature) {
        self.total += self.sizing.suite.threshold.signature_profile().signature_bytes;
    }
    fn coin_share(&mut self, _v: &CoinShare, flavor: CoinFlavor) {
        self.total += 2
            + match flavor {
                CoinFlavor::ThreshSig => {
                    self.sizing.suite.threshold.signature_profile().share_bytes
                }
                CoinFlavor::CoinFlip => self.sizing.suite.threshold.coin_profile().share_bytes,
            };
    }
    fn dec_share(&mut self, _v: &DecShare) {
        // Nominal size stays the pairing-deployment share size: the paper's
        // MIRACL curves verify decryption shares with a pairing and carry no
        // DLEQ bytes — the proof is a substitute-crypto artifact, so
        // charging it would distort the airtime model.
        self.total += 2 + self.sizing.suite.threshold.signature_profile().share_bytes;
    }
}

/// Decoding errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Ran out of bytes.
    Truncated,
    /// A group element failed subgroup validation.
    BadGroupElement,
    /// Unknown packet discriminant.
    UnknownKind(u8),
    /// A structurally invalid field (bad bitmap length, vote code, …).
    Malformed(&'static str),
    /// A value too large for its wire-format length prefix (encode side).
    Oversize(&'static str),
}

impl core::fmt::Display for WireError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "packet truncated"),
            WireError::BadGroupElement => write!(f, "invalid group element"),
            WireError::UnknownKind(k) => write!(f, "unknown packet kind {k}"),
            WireError::Malformed(what) => write!(f, "malformed field: {what}"),
            WireError::Oversize(what) => {
                write!(f, "{what} too large for its wire length prefix")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Reads real bytes back.
pub struct WireReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Reader over a byte slice.
    pub fn new(data: &'a [u8]) -> Self {
        WireReader { data, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        let s = self.data.get(self.pos..end).ok_or(WireError::Truncated)?;
        self.pos = end;
        Ok(s)
    }

    /// Reads exactly `N` bytes into an array.
    fn take_arr<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        self.take(N)?.try_into().map_err(|_| WireError::Truncated)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        let [b] = self.take_arr()?;
        Ok(b)
    }

    /// Reads a little-endian u16.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take_arr()?))
    }

    /// Reads a little-endian u32.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take_arr()?))
    }

    /// Reads a little-endian u64.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take_arr()?))
    }

    /// Reads a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<Bytes, WireError> {
        let len = self.u16()? as usize;
        Ok(Bytes::copy_from_slice(self.take(len)?))
    }

    /// Reads a digest.
    pub fn digest(&mut self) -> Result<Digest32, WireError> {
        Ok(Digest32(self.take_arr()?))
    }

    /// Reads a bitmap.
    pub fn bitmap(&mut self) -> Result<Bitmap, WireError> {
        let len = self.u8()? as usize;
        if len > 64 {
            return Err(WireError::Malformed("bitmap length"));
        }
        let nbytes = len.div_ceil(8);
        let b = self.take(nbytes)?;
        let mut raw = [0u8; 8];
        let Some(dst) = raw.get_mut(..nbytes) else {
            return Err(WireError::Malformed("bitmap length"));
        };
        dst.copy_from_slice(b);
        Ok(Bitmap::from_raw(u64::from_le_bytes(raw), len))
    }

    fn group_elem(&mut self) -> Result<GroupElem, WireError> {
        let a = self.take_arr()?;
        GroupElem::from_bytes(&a).map_err(|_| WireError::BadGroupElement)
    }

    fn share_index(&mut self) -> Result<ShareIndex, WireError> {
        ShareIndex::new(self.u16()?).map_err(|_| WireError::Malformed("zero share index"))
    }

    /// Reads a threshold signature share.
    pub fn sig_share(&mut self) -> Result<SigShare, WireError> {
        let index = self.share_index()?;
        let value = self.group_elem()?;
        Ok(SigShare { index, value })
    }

    /// Reads a combined threshold signature.
    pub fn thresh_sig(&mut self) -> Result<ThresholdSignature, WireError> {
        let value = self.group_elem()?;
        Ok(ThresholdSignature { value })
    }

    /// Reads a coin share.
    pub fn coin_share(&mut self) -> Result<CoinShare, WireError> {
        let index = self.share_index()?;
        let value = self.group_elem()?;
        Ok(CoinShare { index, value })
    }

    fn scalar(&mut self) -> Result<Scalar, WireError> {
        let b = self.take(32)?;
        let mut a = [0u8; 32];
        a.copy_from_slice(b);
        Ok(Scalar::from_bytes_reduced(&a))
    }

    /// Reads a decryption share (value plus its DLEQ proof scalars).
    pub fn dec_share(&mut self) -> Result<DecShare, WireError> {
        let index = self.share_index()?;
        let value = self.group_elem()?;
        let c = self.scalar()?;
        let z = self.scalar()?;
        Ok(DecShare { index, value, proof: DleqProof { c, z } })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use wbft_crypto::{thresh_sig, ThresholdCurve};

    #[test]
    fn primitive_roundtrip() {
        let mut w = ByteSink::new();
        w.u8(7);
        w.u16(300);
        w.u32(1 << 20);
        w.u64(1 << 40);
        w.bytes(b"hello").unwrap();
        let mut bm = Bitmap::new(10);
        bm.set(9, true);
        w.bitmap(&bm).unwrap();
        w.digest(&Digest32::of(b"d"));
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 300);
        assert_eq!(r.u32().unwrap(), 1 << 20);
        assert_eq!(r.u64().unwrap(), 1 << 40);
        assert_eq!(r.bytes().unwrap(), Bytes::from_static(b"hello"));
        assert_eq!(r.bitmap().unwrap(), bm);
        assert_eq!(r.digest().unwrap(), Digest32::of(b"d"));
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn crypto_objects_roundtrip() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let (pks, sks) = thresh_sig::deal(4, 1, ThresholdCurve::Bn158, &mut rng);
        let share = sks[0].sign_share(b"m");
        let sig = pks.combine(&[share, sks[1].sign_share(b"m")]).unwrap();
        let mut w = ByteSink::new();
        w.sig_share(&share);
        w.thresh_sig(&sig);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.sig_share().unwrap(), share);
        assert_eq!(r.thresh_sig().unwrap(), sig);
    }

    #[test]
    fn truncated_input_errors() {
        let mut r = WireReader::new(&[1, 2]);
        assert_eq!(r.u32(), Err(WireError::Truncated));
    }

    #[test]
    fn nominal_sizes_use_profiles() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let (_, sks) = thresh_sig::deal(4, 1, ThresholdCurve::Bn158, &mut rng);
        let share = sks[0].sign_share(b"m");
        // Real bytes: 2 + 32. Nominal: 2 + 21 (BN158 share).
        let mut count = CountSink::new(Sizing::light(4));
        count.sig_share(&share);
        assert_eq!(count.total(), 2 + 21);
        let mut bytes = ByteSink::new();
        bytes.sig_share(&share);
        assert_eq!(bytes.as_slice().len(), 2 + 32);
    }

    #[test]
    fn coin_flavors_size_differently() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let (_, secrets) =
            wbft_crypto::thresh_coin::deal_coin(4, 1, ThresholdCurve::Bn158, &mut rng);
        let share = secrets[0]
            .coin_share(wbft_crypto::thresh_coin::CoinName { session: 0, round: 0, domain: 0 });
        let mut a = CountSink::new(Sizing::light(4));
        a.coin_share(&share, CoinFlavor::ThreshSig);
        let mut b = CountSink::new(Sizing::light(4));
        b.coin_share(&share, CoinFlavor::CoinFlip);
        // Coin-flipping shares carry extra verification data (paper §V-A).
        assert!(b.total() > a.total());
    }

    #[test]
    fn byte_string_boundary_65535_ok_65536_errors() {
        // Exactly the u16 prefix: the maximum encodes on both sinks …
        let max = vec![0u8; u16::MAX as usize];
        let mut w = ByteSink::new();
        assert_eq!(w.bytes(&max), Ok(()));
        assert_eq!(w.as_slice().len(), 2 + 65_535);
        let mut c = CountSink::new(Sizing::light(4));
        assert_eq!(c.bytes(&max), Ok(()));
        assert_eq!(c.total(), 2 + 65_535);
        // … and one byte more is an error, not a panic, on both.
        let over = vec![0u8; u16::MAX as usize + 1];
        let mut w = ByteSink::new();
        assert_eq!(w.bytes(&over), Err(WireError::Oversize("byte string")));
        let mut c = CountSink::new(Sizing::light(4));
        assert_eq!(c.bytes(&over), Err(WireError::Oversize("byte string")));
        // A failed write leaves nothing behind the caller must undo.
        let r = WireReader::new(w.as_slice());
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn length_prefix_checks_at_exact_boundaries() {
        assert_eq!(checked_bytes_len(u16::MAX as usize), Ok(u16::MAX));
        assert_eq!(
            checked_bytes_len(u16::MAX as usize + 1),
            Err(WireError::Oversize("byte string"))
        );
        assert_eq!(checked_bitmap_len(255), Ok(255));
        assert_eq!(checked_bitmap_len(256), Err(WireError::Oversize("bitmap")));
    }

    #[test]
    fn count8_boundary_255_ok_256_errors() {
        let mut w = ByteSink::new();
        assert_eq!(w.count8(255), Ok(()));
        assert_eq!(w.as_slice(), &[255]);
        assert_eq!(w.count8(256), Err(WireError::Oversize("list count")));
        let mut c = CountSink::new(Sizing::light(4));
        assert_eq!(c.count8(255), Ok(()));
        assert_eq!(c.count8(256), Err(WireError::Oversize("list count")));
    }

    #[test]
    fn max_constructible_bitmap_still_encodes() {
        // Bitmap caps at 64 bits today; the sink bound (255) is the wire
        // format's, so the largest constructible bitmap must round-trip.
        let bm = Bitmap::full(64);
        let mut w = ByteSink::new();
        w.bitmap(&bm).unwrap();
        let mut r = WireReader::new(w.as_slice());
        assert_eq!(r.bitmap().unwrap(), bm);
    }

    #[test]
    fn invalid_group_element_rejected() {
        let mut bytes = vec![1u8, 0]; // share index 1
        bytes.extend_from_slice(&[0u8; 32]); // zero is not in the subgroup
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.sig_share(), Err(WireError::BadGroupElement));
    }
}
