//! The byte codec every wire and proposal format is written in.
//!
//! Writing goes through a [`Sink`] with two implementations:
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
//! The two differ only in how a crypto value is priced ([`Sink::priced`]);
//! every other field costs what it weighs ([`Sink::raw`]), so one encoder
//! yields both the bytes and the nominal length.
//!
//! Reading goes through [`WireReader`]: every access is length-checked, so
//! truncated or hostile input yields a [`WireError`], never a panic, and
//! a count read off the wire reserves no more than its format allows
//! ([`WireReader::list`]). A field type with one layout implements [`Wire`]
//! (its writer and its reader side by side); the packet bodies of
//! [`crate::packets`] are field lists over it. Formats outside this crate
//! — client and sync messages, deal sets, proposal batches, ciphertexts —
//! write through [`ByteSink`] and read through [`WireReader`] too.

use crate::bitmap::Bitmap;
use bytes::{BufMut, Bytes, BytesMut};
use wbft_crypto::hash::Digest32;
use wbft_crypto::profile::CryptoSuite;
use wbft_crypto::shamir::ShareIndex;
use wbft_crypto::thresh_enc::{DecShare, DleqProof};
use wbft_crypto::thresh_sig::{SigShare, ThresholdSignature};
use wbft_crypto::{GroupElem, Scalar};

/// Which coin deployment a coin share belongs to — threshold signatures
/// (ABA-SC) or threshold coin flipping (ABA-CP / BEAT). Decides the nominal
/// share size.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
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

/// What a crypto value costs in the paper's deployment.
#[derive(Clone, Copy, Debug)]
pub enum Nominal {
    /// A threshold share — signature, ABA-SC coin or decryption share: the
    /// threshold curve's share size.
    Share,
    /// A combined threshold signature.
    Signature,
    /// A coin-flipping share (ABA-CP / BEAT), which carries extra
    /// verification data.
    CoinFlipShare,
    /// Bytes the paper's curves do not carry at all.
    Free,
}

/// Encoding destination; see module docs.
///
/// An implementation supplies [`Sink::raw`] and [`Sink::priced`]; every
/// field writer is built on those two. Variable-length fields (`bytes`,
/// `bitmap`, `count8`, `count16`) are fallible: a value that does not fit
/// its wire-format length prefix yields [`WireError::Oversize`] instead of
/// panicking or silently truncating, so an oversized message can never
/// abort a node mid-encode.
pub trait Sink {
    /// Bytes whose nominal length is their real length.
    fn raw(&mut self, v: &[u8]);
    /// A crypto value: `real` is this crate's encoding, `nominal` what it
    /// costs in the paper's deployment.
    fn priced(&mut self, real: &[u8], nominal: Nominal);

    /// Raw byte.
    fn u8(&mut self, v: u8) {
        self.raw(&[v]);
    }
    /// Little-endian u16.
    fn u16(&mut self, v: u16) {
        self.raw(&v.to_le_bytes());
    }
    /// Little-endian u32.
    fn u32(&mut self, v: u32) {
        self.raw(&v.to_le_bytes());
    }
    /// Little-endian u64.
    fn u64(&mut self, v: u64) {
        self.raw(&v.to_le_bytes());
    }
    /// Length-prefixed byte string (u16 prefix).
    ///
    /// # Errors
    ///
    /// [`WireError::Oversize`] for inputs longer than 65535 bytes.
    fn bytes(&mut self, v: &[u8]) -> Result<(), WireError> {
        self.u16(checked_bytes_len(v.len())?);
        self.raw(v);
        Ok(())
    }
    /// A 32-byte digest.
    fn digest(&mut self, v: &Digest32) {
        self.raw(v.as_bytes());
    }
    /// A bitmap: its bit length, then `ceil(len / 8)` bytes.
    ///
    /// # Errors
    ///
    /// [`WireError::Oversize`] if the logical length exceeds the u8 prefix.
    fn bitmap(&mut self, v: &Bitmap) -> Result<(), WireError> {
        self.u8(checked_bitmap_len(v.len())?);
        let raw = v.to_raw().to_le_bytes();
        self.raw(raw.get(..v.wire_len()).ok_or(WireError::Oversize("bitmap"))?);
        Ok(())
    }
    /// A u8 element-count prefix for a variable-length list.
    ///
    /// # Errors
    ///
    /// [`WireError::Oversize`] for counts above 255.
    fn count8(&mut self, n: usize) -> Result<(), WireError> {
        self.u8(u8::try_from(n).map_err(|_| WireError::Oversize("list count"))?);
        Ok(())
    }
    /// A u16 element-count prefix for a variable-length list.
    ///
    /// # Errors
    ///
    /// [`WireError::Oversize`] for counts above 65535.
    fn count16(&mut self, n: usize) -> Result<(), WireError> {
        self.u16(u16::try_from(n).map_err(|_| WireError::Oversize("list count"))?);
        Ok(())
    }
    /// A threshold signature share.
    fn sig_share(&mut self, v: &SigShare) {
        self.u16(v.index.value());
        self.priced(&v.value.to_bytes(), Nominal::Share);
    }
    /// A combined threshold signature.
    fn thresh_sig(&mut self, v: &ThresholdSignature) {
        self.priced(&v.to_bytes(), Nominal::Signature);
    }
    /// A coin share (a signature share on the coin's name), priced by
    /// flavor.
    fn coin_share(&mut self, v: &SigShare, flavor: CoinFlavor) {
        self.u16(v.index.value());
        let nominal = match flavor {
            CoinFlavor::ThreshSig => Nominal::Share,
            CoinFlavor::CoinFlip => Nominal::CoinFlipShare,
        };
        self.priced(&v.value.to_bytes(), nominal);
    }
    /// A threshold-decryption share. Its nominal size stays the pairing
    /// deployment's share size: the paper's MIRACL curves verify decryption
    /// shares with a pairing and carry no DLEQ bytes — the proof is a
    /// substitute-crypto artifact, so charging it would distort the
    /// airtime model.
    fn dec_share(&mut self, v: &DecShare) {
        self.u16(v.index.value());
        self.priced(&v.value.to_bytes(), Nominal::Share);
        self.priced(&v.proof.c.to_bytes(), Nominal::Free);
        self.priced(&v.proof.z.to_bytes(), Nominal::Free);
    }
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

    /// Encodes a format whose every length prefix is bounded where its
    /// values enter the system, so an overflow is a broken invariant: it is
    /// asserted, never written truncated.
    ///
    /// # Panics
    ///
    /// If `put` fails.
    pub fn bounded(put: impl FnOnce(&mut ByteSink) -> Result<(), WireError>) -> Bytes {
        let mut s = ByteSink::new();
        let fits = put(&mut s);
        assert!(fits.is_ok(), "a bounded format overflowed its length prefix: {fits:?}");
        s.into_bytes()
    }
}

impl Sink for ByteSink {
    fn raw(&mut self, v: &[u8]) {
        self.buf.put_slice(v);
    }
    fn priced(&mut self, real: &[u8], _nominal: Nominal) {
        self.buf.put_slice(real);
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
    fn raw(&mut self, v: &[u8]) {
        self.total += v.len();
    }
    fn priced(&mut self, _real: &[u8], nominal: Nominal) {
        let threshold = self.sizing.suite.threshold;
        self.total += match nominal {
            Nominal::Share => threshold.signature_profile().share_bytes,
            Nominal::Signature => threshold.signature_profile().signature_bytes,
            Nominal::CoinFlipShare => threshold.coin_profile().share_bytes,
            Nominal::Free => 0,
        };
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

    /// Reads all of `data` with `read` and refuses any byte it leaves over:
    /// the decoder of a format that fills its carrier exactly.
    ///
    /// # Errors
    ///
    /// `read`'s error, or [`WireError::Malformed`] on trailing bytes.
    pub fn exact<T>(
        data: &'a [u8],
        read: impl FnOnce(&mut Self) -> Result<T, WireError>,
    ) -> Result<T, WireError> {
        let mut r = WireReader::new(data);
        let value = read(&mut r)?;
        if r.remaining() != 0 {
            return Err(WireError::Malformed("trailing bytes"));
        }
        Ok(value)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Reads the next `n` bytes.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] if fewer remain.
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        let s = self.data.get(self.pos..end).ok_or(WireError::Truncated)?;
        self.pos = end;
        Ok(s)
    }

    /// Reads everything left (a trailing field that runs to the end).
    pub fn rest(&mut self) -> &'a [u8] {
        let s = self.data.get(self.pos..).unwrap_or_default();
        self.pos = self.data.len();
        s
    }

    /// Reads exactly `N` bytes into an array.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] if fewer remain.
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        self.take(N)?.try_into().map_err(|_| WireError::Truncated)
    }

    /// Reads `count` items with `get`, reserving room for at most `cap` of
    /// them up front: a count read off the wire reserves no more memory
    /// than its format allows, whatever the bytes behind it hold.
    ///
    /// # Errors
    ///
    /// The first error `get` returns.
    pub fn list<T>(
        &mut self,
        count: usize,
        cap: usize,
        mut get: impl FnMut(&mut Self) -> Result<T, WireError>,
    ) -> Result<Vec<T>, WireError> {
        let mut out = Vec::with_capacity(count.min(cap));
        for _ in 0..count {
            out.push(get(self)?);
        }
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        let [b] = self.array()?;
        Ok(b)
    }

    /// Reads a little-endian u16.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian u32.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian u64.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Reads a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<Bytes, WireError> {
        let len = usize::from(self.u16()?);
        Ok(Bytes::copy_from_slice(self.take(len)?))
    }

    /// Reads a digest.
    pub fn digest(&mut self) -> Result<Digest32, WireError> {
        Ok(Digest32(self.array()?))
    }

    /// Reads a bitmap.
    pub fn bitmap(&mut self) -> Result<Bitmap, WireError> {
        let len = usize::from(self.u8()?);
        if len > Bitmap::CAPACITY {
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

    /// Reads a group element, checking subgroup membership.
    pub fn group_elem(&mut self) -> Result<GroupElem, WireError> {
        GroupElem::from_bytes(&self.array()?).map_err(|_| WireError::BadGroupElement)
    }

    /// Reads a scalar (reduced modulo the group order).
    pub fn scalar(&mut self) -> Result<Scalar, WireError> {
        Ok(Scalar::from_bytes_reduced(&self.array()?))
    }

    /// Reads a (non-zero) share index.
    pub fn share_index(&mut self) -> Result<ShareIndex, WireError> {
        ShareIndex::new(self.u16()?).map_err(|_| WireError::Malformed("zero share index"))
    }

    /// Reads a threshold signature share.
    pub fn sig_share(&mut self) -> Result<SigShare, WireError> {
        Ok(SigShare { index: self.share_index()?, value: self.group_elem()? })
    }

    /// Reads a combined threshold signature.
    pub fn thresh_sig(&mut self) -> Result<ThresholdSignature, WireError> {
        Ok(ThresholdSignature { value: self.group_elem()? })
    }

    /// Reads a decryption share (value plus its DLEQ proof scalars).
    pub fn dec_share(&mut self) -> Result<DecShare, WireError> {
        let index = self.share_index()?;
        let value = self.group_elem()?;
        let proof = DleqProof { c: self.scalar()?, z: self.scalar()? };
        Ok(DecShare { index, value, proof })
    }
}

/// A field type with one wire layout: its writer and its reader side by
/// side, so the two cannot drift apart. Writing through any [`Sink`] gives
/// the real bytes and the nominal length from the same code.
pub trait Wire: Sized {
    /// Writes the value.
    ///
    /// # Errors
    ///
    /// [`WireError::Oversize`] when a length prefix inside it overflows.
    fn put(&self, s: &mut impl Sink) -> Result<(), WireError>;
    /// Reads a value back.
    ///
    /// # Errors
    ///
    /// Any [`WireError`] on truncated or malformed bytes.
    fn get(r: &mut WireReader<'_>) -> Result<Self, WireError>;
}

macro_rules! wire_by_value {
    ($($t:ident),*) => {$(
        impl Wire for $t {
            fn put(&self, s: &mut impl Sink) -> Result<(), WireError> {
                s.$t(*self);
                Ok(())
            }
            fn get(r: &mut WireReader<'_>) -> Result<Self, WireError> {
                r.$t()
            }
        }
    )*};
}
wire_by_value!(u8, u16, u32, u64);

/// Booleans travel as one byte; any non-zero byte reads as `true`.
impl Wire for bool {
    fn put(&self, s: &mut impl Sink) -> Result<(), WireError> {
        s.u8(u8::from(*self));
        Ok(())
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(r.u8()? != 0)
    }
}

impl Wire for Digest32 {
    fn put(&self, s: &mut impl Sink) -> Result<(), WireError> {
        s.digest(self);
        Ok(())
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.digest()
    }
}

impl Wire for Bytes {
    fn put(&self, s: &mut impl Sink) -> Result<(), WireError> {
        s.bytes(self)
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.bytes()
    }
}

impl Wire for Bitmap {
    fn put(&self, s: &mut impl Sink) -> Result<(), WireError> {
        s.bitmap(self)
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.bitmap()
    }
}

impl Wire for SigShare {
    fn put(&self, s: &mut impl Sink) -> Result<(), WireError> {
        s.sig_share(self);
        Ok(())
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.sig_share()
    }
}

impl Wire for ThresholdSignature {
    fn put(&self, s: &mut impl Sink) -> Result<(), WireError> {
        s.thresh_sig(self);
        Ok(())
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.thresh_sig()
    }
}

impl Wire for DecShare {
    fn put(&self, s: &mut impl Sink) -> Result<(), WireError> {
        s.dec_share(self);
        Ok(())
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.dec_share()
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn put(&self, s: &mut impl Sink) -> Result<(), WireError> {
        self.0.put(s)?;
        self.1.put(s)
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok((A::get(r)?, B::get(r)?))
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn put(&self, s: &mut impl Sink) -> Result<(), WireError> {
        self.0.put(s)?;
        self.1.put(s)?;
        self.2.put(s)
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok((A::get(r)?, B::get(r)?, C::get(r)?))
    }
}

/// A list: a u8 count, then the items. (Votes, which are not [`Wire`]
/// themselves, pack four to a byte instead — `crate::packets`.)
impl<T: Wire> Wire for Vec<T> {
    fn put(&self, s: &mut impl Sink) -> Result<(), WireError> {
        s.count8(self.len())?;
        self.iter().try_for_each(|item| item.put(s))
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let count = usize::from(r.u8()?);
        r.list(count, count, T::get)
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
