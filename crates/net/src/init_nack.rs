//! INITIAL NACKs at fragment granularity.
//!
//! A proposal travels in up to 64 INITIAL fragments. A node that still lacks
//! an instance's proposal sets the instance's INITIAL-NACK bit and names the
//! fragments it lacks, so a holder re-airs only those.
//!
//! A fragment request is a [`Bitmap`] of the proposal's `frag_total` bits,
//! a set bit for each fragment the sender lacks. The *empty* (zero-length)
//! request asks for every fragment: its sender holds no fragment, so it does
//! not know `frag_total`. A holder whose proposal splits into another number
//! of fragments than a request's length serves all of them too ([`asked`]).
//!
//! [`InitNack`] is the combined packets' form: the instance bitmap, then one
//! request per set bit. [`FrameNack`] is a per-instance frame's: its NACK
//! bits, then the request when the INITIAL bit is set. Either encodes to
//! exactly the bitmap or byte it replaced when no INITIAL NACK is set.

use crate::bitmap::Bitmap;
use crate::wire::{Sink, Wire, WireError, WireReader};

/// The fragments of a `frag_total`-fragment proposal that `request` asks
/// for: its set bits when it has `frag_total` of them, otherwise all.
pub fn asked(request: &Bitmap, frag_total: usize) -> Bitmap {
    if request.len() == frag_total {
        *request
    } else {
        Bitmap::full(frag_total.min(Bitmap::CAPACITY))
    }
}

/// `true` when `old` asks for every fragment `new` asks for.
fn covers(old: &Bitmap, new: &Bitmap) -> bool {
    old.is_empty() || (old.len() == new.len() && new.to_raw() & !old.to_raw() == 0)
}

/// The INITIAL NACK of a combined packet (`RbcInit`, `RbcEchoReady`,
/// `CbcInit`, `CbcEchoFinish`): bit `j` = the sender still lacks instance
/// `j`'s proposal, with the fragments of it that it lacks.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct InitNack {
    nacked: Bitmap,
    /// One fragment request per set bit of `nacked`, in instance order.
    requests: Vec<Bitmap>,
}

impl InitNack {
    /// No instance NACKed, over `n` instances.
    ///
    /// # Panics
    ///
    /// Panics if `n > 64`, as [`Bitmap::new`].
    pub fn new(n: usize) -> Self {
        InitNack { nacked: Bitmap::new(n), requests: Vec::new() }
    }

    /// NACKs instance `j`, asking for the fragments `request` names
    /// (replacing an earlier request for `j`).
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range, as [`Bitmap::set`].
    pub fn ask(&mut self, j: usize, request: Bitmap) {
        let at = self.nacked.iter_set().take_while(|&i| i < j).count();
        if self.nacked.get(j) {
            if let Some(slot) = self.requests.get_mut(at) {
                *slot = request;
            }
        } else {
            self.nacked.set(j, true);
            self.requests.insert(at, request);
        }
    }

    /// Number of instances.
    pub fn len(&self) -> usize {
        self.nacked.len()
    }

    /// `true` over zero instances.
    pub fn is_empty(&self) -> bool {
        self.nacked.is_empty()
    }

    /// The fragment request of instance `j`; `None` when it is not NACKed.
    pub fn request(&self, j: usize) -> Option<&Bitmap> {
        self.iter().find(|(i, _)| *i == j).map(|(_, request)| request)
    }

    /// The NACKed instances with their fragment requests, ascending.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &Bitmap)> + '_ {
        self.nacked.iter_set().zip(&self.requests)
    }
}

/// The instance bitmap, then one fragment request per set bit.
impl Wire for InitNack {
    fn put(&self, s: &mut impl Sink) -> Result<(), WireError> {
        s.bitmap(&self.nacked)?;
        self.requests.iter().try_for_each(|request| s.bitmap(request))
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let nacked = r.bitmap()?;
        let requests = (0..nacked.count()).map(|_| r.bitmap()).collect::<Result<_, _>>()?;
        Ok(InitNack { nacked, requests })
    }
}

/// One RBC or CBC instance's NACK bits in a per-instance frame — bit 0 its
/// echo NACK, bit 1 its READY or FINISH NACK, bit 2 its INITIAL NACK — and,
/// with bit 2, the fragments of the proposal the sender lacks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FrameNack {
    bits: u8,
    /// Empty unless bit 2 is set.
    request: Bitmap,
}

impl FrameNack {
    /// The INITIAL-NACK bit.
    pub const INIT: u8 = 0b100;

    /// NACK `bits`, with the fragment `request` when they include
    /// [`FrameNack::INIT`] (dropped otherwise).
    pub fn new(bits: u8, request: Bitmap) -> Self {
        let request = if bits & Self::INIT != 0 { request } else { Bitmap::default() };
        FrameNack { bits, request }
    }

    /// The NACK bits.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// The fragment request; `None` without the INITIAL bit.
    pub fn request(&self) -> Option<&Bitmap> {
        (self.bits & Self::INIT != 0).then_some(&self.request)
    }

    /// `true` when this asks for something `older` did not: a NACK bit, or
    /// a fragment.
    pub fn asks_beyond(&self, older: &FrameNack) -> bool {
        self.bits & !older.bits != 0
            || match (self.request(), older.request()) {
                (Some(new), Some(old)) => !covers(old, new),
                _ => false,
            }
    }
}

/// NACK bits that ask for every fragment with the INITIAL bit.
impl From<u8> for FrameNack {
    fn from(bits: u8) -> Self {
        FrameNack::new(bits, Bitmap::default())
    }
}

/// The bits, then the fragment request when the INITIAL bit is set.
impl Wire for FrameNack {
    fn put(&self, s: &mut impl Sink) -> Result<(), WireError> {
        s.u8(self.bits);
        match self.request() {
            Some(request) => s.bitmap(request),
            None => Ok(()),
        }
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let bits = r.u8()?;
        let request = if bits & Self::INIT != 0 { r.bitmap()? } else { Bitmap::default() };
        Ok(FrameNack { bits, request })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::ByteSink;

    fn bytes(v: &impl Wire) -> Vec<u8> {
        let mut sink = ByteSink::new();
        v.put(&mut sink).unwrap();
        sink.into_bytes().to_vec()
    }

    #[test]
    fn without_an_initial_nack_the_encoding_is_the_bitmap_or_byte_it_replaced() {
        assert_eq!(bytes(&InitNack::new(4)), bytes(&Bitmap::new(4)));
        assert_eq!(bytes(&FrameNack::from(0b011)), [0b011]);
        // A request without the INITIAL bit is not kept, so not aired.
        assert_eq!(FrameNack::new(0b001, Bitmap::full(5)), FrameNack::from(0b001));
    }

    #[test]
    fn requests_ride_in_instance_order_and_read_back() {
        let mut nack = InitNack::new(4);
        nack.ask(3, Bitmap::from_raw(0b00100, 5));
        nack.ask(1, Bitmap::new(0));
        nack.ask(3, Bitmap::from_raw(0b00110, 5));
        let asks: Vec<_> = nack.iter().map(|(j, r)| (j, *r)).collect();
        assert_eq!(asks, [(1, Bitmap::new(0)), (3, Bitmap::from_raw(0b00110, 5))]);
        assert_eq!((nack.request(3), nack.request(2)), (Some(&Bitmap::from_raw(0b00110, 5)), None));
        // Instance bitmap, then a one-byte "all" request, then 5 bits.
        assert_eq!(bytes(&nack), [4, 0b1010, 0, 5, 0b00110]);
        let encoded = bytes(&nack);
        assert_eq!(<InitNack as Wire>::get(&mut WireReader::new(&encoded)), Ok(nack));
        let frame = FrameNack::new(0b110, Bitmap::from_raw(0b10, 2));
        assert_eq!(bytes(&frame), [0b110, 2, 0b10]);
        let encoded = bytes(&frame);
        assert_eq!(FrameNack::get(&mut WireReader::new(&encoded)), Ok(frame));
    }

    #[test]
    fn a_request_of_another_length_asks_for_every_fragment() {
        let two_of_five = Bitmap::from_raw(0b00100, 5);
        assert_eq!(asked(&two_of_five, 5), two_of_five);
        assert_eq!(asked(&Bitmap::new(0), 5), Bitmap::full(5));
        assert_eq!(asked(&two_of_five, 3), Bitmap::full(3));
    }

    #[test]
    fn a_frame_asks_beyond_an_older_one_only_for_a_new_bit_or_fragment() {
        let of5 = |raw| FrameNack::new(0b100, Bitmap::from_raw(raw, 5));
        let all = FrameNack::from(0b100);
        assert!(of5(0b110).asks_beyond(&of5(0b010)));
        assert!(!of5(0b010).asks_beyond(&of5(0b110)), "fewer fragments is no new ask");
        assert!(!of5(0b010).asks_beyond(&all) && all.asks_beyond(&of5(0b010)));
        assert!(FrameNack::from(0b101).asks_beyond(&all), "a new NACK bit");
        assert!(!FrameNack::from(0b100).asks_beyond(&FrameNack::from(0b101)));
    }
}
