//! The one receive path of a signed packet: a frame is opened once per
//! transmission, not once per receiver.
//!
//! A simulated broadcast reaches its `n − 1` receivers on one thread as one
//! [`Bytes`], and [`Envelope::open_tagged`] is a pure function of exactly
//! two things: the frame's bytes and the verification key the receiver
//! holds for the frame's `src`. [`open_shared`] therefore keeps a small
//! per-thread table of recently opened frames in front of it, one more
//! [`AnswerTable`] of the kind the crypto memos are. A frame is served from
//! the table only when the stored bytes equal it *byte for byte* and the
//! stored key equals `pk_of(src)`; the answer is then the very value
//! `open_tagged` would build again, shared by reference — refusals
//! (`sig_ok == false`) like acceptances. Nothing is hashed: the set is
//! picked by the frame's last 8 bytes (the top limb of the signature's `z`,
//! uniform for an honest signer) and full equality decides. A stale,
//! evicted, foreign-cluster or deliberately colliding entry can therefore
//! only cost a recomputation, never change an answer, and nothing a
//! simulation reports can depend on what the table holds.
//!
//! Only receivers write the table. The signer could pre-fill it (it holds
//! the envelope it just encoded), but then a simulation would never run
//! the decoder on its own traffic; the first receiver of every frame still
//! decodes it in full and verifies it through the transcript table
//! ([`wbft_crypto::schnorr`]), which its signer filled.
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
use wbft_crypto::table::AnswerTable;
pub use wbft_crypto::table::Stats;

/// Sets of the table. With [`WAYS`] a constant sized to memory, like the
/// crypto memos: 32 frames. The receivers of one broadcast run back to
/// back, so a few dozen entries already serve two of every three opens of
/// a four-node hop (the other third is each frame's first receiver); 256
/// entries served only a few percent more and showed up in the resident
/// set of a four-thread UDP cluster, where every frame is seen once and the
/// table can serve nothing.
const SETS: usize = 8;

/// Entries per set.
const WAYS: usize = 4;

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

/// What a frame opened to, and under which key.
type Entry = (Option<PublicKey>, Rc<Opened>);

thread_local! {
    /// Per thread, like the crypto memos: sweep workers and UDP node
    /// threads share nothing.
    static TABLE: RefCell<AnswerTable<Bytes, Entry>> = RefCell::new(AnswerTable::new(SETS, WAYS));
}

/// The set hint of a frame: its last 8 bytes (`0` for a frame too short to
/// have them; it is shorter than a signature, cannot open and is never
/// stored).
fn hint_of(frame: &[u8]) -> u64 {
    frame.last_chunk::<8>().map_or(0, |tail| u64::from_le_bytes(*tail))
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
    let hint = hint_of(frame);
    // Equal bytes decode to an equal `src`, so the stored entry answers
    // when its key is the one `open_tagged` would ask for.
    let held = TABLE.with(|table| {
        table.borrow_mut().lookup(0, hint, frame, |(key, opened)| *key == pk_of(opened.env.src))
    });
    if let Some((_, opened)) = held {
        return Ok(opened);
    }
    let (env, key_epoch, sig_ok) = Envelope::open_tagged(frame, &pk_of)?;
    let key = pk_of(env.src);
    let opened = Rc::new(Opened { env, key_epoch, sig_ok });
    TABLE.with(|table| table.borrow_mut().insert(hint, frame.clone(), (key, Rc::clone(&opened))));
    Ok(opened)
}

/// This thread's table counters: `hits` are opens served from the table,
/// `misses` opens computed by [`Envelope::open_tagged`] — malformed frames,
/// which are never stored, included.
pub fn stats() -> Stats {
    TABLE.with(|table| table.borrow().stats(0))
}

/// Forgets every opened frame and zeroes the counters of this thread (the
/// counterpart of [`wbft_crypto::memo::clear`]; count guards start here).
pub fn clear() {
    TABLE.with(|table| table.borrow_mut().clear());
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
    fn an_entry_evicted_by_colliding_frames_is_recomputed_to_the_same_answer() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let keypair = KeyPair::generate(EcdsaCurve::Secp160r1, &mut rng);
        let pk_of = |_| Some(keypair.public());
        let set = |frame: &Bytes| TABLE.with(|table| table.borrow().set_of(hint_of(frame)));
        let first = sealed(&keypair, 0);
        // Signatures are pseudo-random, so other sessions' frames land in
        // the same set soon enough.
        let colliders: Vec<Bytes> = (1..10_000)
            .map(|session| sealed(&keypair, session))
            .filter(|frame| set(frame) == set(&first))
            .take(WAYS)
            .collect();
        assert_eq!(colliders.len(), WAYS);

        clear();
        let a = open_shared(&first, pk_of).unwrap();
        assert!(Rc::ptr_eq(&a, &open_shared(&first, pk_of).unwrap()));
        assert_eq!(stats(), Stats { hits: 1, misses: 1, recorded: 0 });
        for collider in &colliders {
            let b = open_shared(collider, pk_of).unwrap();
            assert!(b.sig_ok && b.env.session != a.env.session);
        }
        // `first` lost its way: computed again, equal to what was shared
        // before — and to the reference.
        let again = open_shared(&first, pk_of).unwrap();
        assert!(!Rc::ptr_eq(&a, &again));
        assert_eq!(*again, *a);
        let (env, key_epoch, sig_ok) = Envelope::open_tagged(&first, pk_of).unwrap();
        assert_eq!(*again, Opened { env, key_epoch, sig_ok });
        assert_eq!(stats(), Stats { hits: 1, misses: 2 + WAYS as u64, recorded: 0 });
    }

    #[test]
    fn a_frame_too_short_for_a_hint_is_refused_like_the_reference_and_never_stored() {
        clear();
        for len in 0..8 {
            let frame = Bytes::from(vec![7u8; len]);
            assert_eq!(hint_of(&frame), 0);
            assert_eq!(open_shared(&frame, |_| None).unwrap_err(), WireError::Truncated);
            assert_eq!(open_shared(&frame, |_| None).unwrap_err(), WireError::Truncated);
        }
        assert_eq!(stats(), Stats { hits: 0, misses: 16, recorded: 0 });
    }
}
