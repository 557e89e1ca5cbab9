//! The one receive path of a signed packet: a frame is opened once per
//! transmission, not once per receiver.
//!
//! A simulated broadcast reaches its `n − 1` receivers on one thread as one
//! [`Bytes`], and [`Envelope::open_tagged`] is a pure function of exactly
//! two things: the frame's bytes and the verification key the receiver
//! holds for the frame's `src`. [`open_shared`] therefore keeps a small
//! per-thread table of recently opened frames in front of it. A frame is
//! served from the table only when the stored bytes equal it *byte for
//! byte* and the stored key equals `pk_of(src)`; the answer is then the very
//! value `open_tagged` would build again, shared by reference — refusals
//! (`sig_ok == false`) like acceptances. Nothing is hashed: the slot is
//! picked by the frame's last 8 bytes (the top limb of the signature's `z`,
//! uniform for an honest signer) and full equality decides. A stale,
//! evicted, foreign-cluster or deliberately colliding entry can therefore
//! only cost a recomputation, never change an answer, and nothing a
//! simulation reports can depend on what the table holds.
//!
//! Only receivers write the table. The signer could pre-fill it (it holds
//! the envelope it just encoded), but then a simulation would never run
//! the decoder on its own traffic; the first receiver of every frame still
//! decodes it in full and verifies it through the verdict memo
//! ([`wbft_crypto::memo`]).
//!
//! [`Envelope::open`] and [`Envelope::open_tagged`] stay table-free: they
//! are the reference this path is tested against, and what codec
//! benchmarks time.

use crate::packets::Envelope;
use crate::wire::WireError;
use bytes::Bytes;
use std::cell::RefCell;
use std::rc::Rc;
use wbft_crypto::schnorr::PublicKey;

/// Frames remembered per thread. A constant, sized to memory like
/// [`wbft_crypto::memo::CAP`]: the receivers of one broadcast run back to
/// back, so a few dozen slots already serve two of every three opens of a
/// four-node hop (the other third is each frame's first receiver); 256
/// slots served only a few percent more and showed up in the resident set
/// of a four-thread UDP cluster, where every frame is seen once and the
/// table can serve nothing.
const SLOTS: usize = 32;

/// A frame as [`Envelope::open_tagged`] opened it.
#[derive(Debug, PartialEq)]
pub struct Opened {
    /// The decoded packet.
    pub env: Envelope,
    /// Its key-epoch tag (`0` when it carries none).
    pub key_epoch: u64,
    /// Whether the packet signature verified under the receiver's key for
    /// `env.src`.
    pub sig_ok: bool,
}

/// This thread's counters, shaped like [`wbft_crypto::memo::Stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Stats {
    /// Opens answered from the table.
    pub served: u64,
    /// Opens computed by [`Envelope::open_tagged`] — malformed frames, which
    /// are never stored, included.
    pub computed: u64,
}

struct Entry {
    frame: Bytes,
    key: Option<PublicKey>,
    opened: Rc<Opened>,
}

struct Table {
    slots: [Option<Entry>; SLOTS],
    stats: Stats,
}

impl Table {
    const fn new() -> Self {
        Table { slots: [const { None }; SLOTS], stats: Stats { served: 0, computed: 0 } }
    }
}

thread_local! {
    /// Per thread, like the verdict memo: sweep workers and UDP node
    /// threads share nothing.
    static TABLE: RefCell<Table> = const { RefCell::new(Table::new()) };
}

/// The slot a frame maps to: its last 8 bytes, reduced. `None` for a frame
/// too short to have them (it is shorter than a signature and cannot open).
fn slot_of(frame: &[u8]) -> Option<usize> {
    let tail = frame.last_chunk::<8>()?;
    usize::try_from(u64::from_le_bytes(*tail) % SLOTS as u64).ok()
}

/// [`Envelope::open_tagged`], computed once per distinct `(frame, key)` the
/// thread has recently seen and shared among the receivers that ask.
///
/// # Errors
///
/// [`WireError`] under the same conditions as [`Envelope::open`].
pub fn open_shared(
    frame: &Bytes,
    pk_of: impl Fn(u16) -> Option<PublicKey>,
) -> Result<Rc<Opened>, WireError> {
    let slot = slot_of(frame);
    let held = TABLE.with(|table| {
        let table = table.borrow();
        let entry = table.slots.get(slot?)?.as_ref()?;
        (entry.frame == *frame).then(|| (entry.key, Rc::clone(&entry.opened)))
    });
    if let Some((key, opened)) = held {
        // Equal bytes decode to an equal `src`, so this is the key
        // `open_tagged` would ask for.
        if key == pk_of(opened.env.src) {
            TABLE.with(|table| table.borrow_mut().stats.served += 1);
            return Ok(opened);
        }
    }
    let computed = Envelope::open_tagged(frame, &pk_of).map(|(env, key_epoch, sig_ok)| {
        (pk_of(env.src), Rc::new(Opened { env, key_epoch, sig_ok }))
    });
    TABLE.with(|table| {
        let mut table = table.borrow_mut();
        table.stats.computed += 1;
        let (key, opened) = computed?;
        if let Some(entry) = slot.and_then(|i| table.slots.get_mut(i)) {
            *entry = Some(Entry { frame: frame.clone(), key, opened: Rc::clone(&opened) });
        }
        Ok(opened)
    })
}

/// This thread's table counters.
pub fn stats() -> Stats {
    TABLE.with(|table| table.borrow().stats)
}

/// Forgets every opened frame and zeroes the counters of this thread (the
/// counterpart of [`wbft_crypto::memo::clear`]; count guards start here).
pub fn clear() {
    TABLE.with(|table| *table.borrow_mut() = Table::new());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packets::Body;
    use crate::wire::Sizing;
    use rand::SeedableRng;
    use wbft_crypto::schnorr::KeyPair;
    use wbft_crypto::{Digest32, EcdsaCurve};

    fn sealed(keypair: &KeyPair, session: u64) -> Bytes {
        let body = Body::GlobalDecision { epoch: 1, digest: Digest32::of(b"block"), tx_count: 2 };
        let (bytes, _) =
            Envelope { src: 0, session, body }.seal(keypair, &Sizing::light(4)).unwrap();
        bytes
    }

    #[test]
    fn an_entry_evicted_by_a_colliding_frame_is_recomputed_to_the_same_answer() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let keypair = KeyPair::generate(EcdsaCurve::Secp160r1, &mut rng);
        let pk_of = |_| Some(keypair.public());
        let first = sealed(&keypair, 0);
        // Signatures are pseudo-random, so some other session's frame lands
        // in the same slot soon enough.
        let collider = (1..10_000)
            .map(|session| sealed(&keypair, session))
            .find(|frame| slot_of(frame) == slot_of(&first))
            .expect("a colliding frame");
        assert_ne!(first, collider);

        clear();
        let a = open_shared(&first, pk_of).unwrap();
        assert!(Rc::ptr_eq(&a, &open_shared(&first, pk_of).unwrap()));
        assert_eq!(stats(), Stats { served: 1, computed: 1 });
        let b = open_shared(&collider, pk_of).unwrap();
        assert!(b.sig_ok && b.env.session != a.env.session);
        // `first` lost its slot: computed again, equal to what was shared
        // before — and to the reference.
        let again = open_shared(&first, pk_of).unwrap();
        assert!(!Rc::ptr_eq(&a, &again));
        assert_eq!(*again, *a);
        let (env, key_epoch, sig_ok) = Envelope::open_tagged(&first, pk_of).unwrap();
        assert_eq!(*again, Opened { env, key_epoch, sig_ok });
        assert_eq!(stats(), Stats { served: 1, computed: 3 });
    }

    #[test]
    fn a_frame_too_short_for_a_slot_is_refused_like_the_reference_and_never_stored() {
        clear();
        for len in 0..8 {
            let frame = Bytes::from(vec![7u8; len]);
            assert_eq!(slot_of(&frame), None);
            assert_eq!(open_shared(&frame, |_| None).unwrap_err(), WireError::Truncated);
        }
        assert_eq!(stats(), Stats { served: 0, computed: 8 });
    }
}
