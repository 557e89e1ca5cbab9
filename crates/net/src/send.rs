//! The one send path of a signed packet.
//!
//! A node rebuilds its combined packet whenever its state changes, and the
//! transmit queue keeps only the latest version per slot — so most versions
//! never air. [`broadcast_signed`] therefore encodes a packet in full when
//! it is queued (its length and any [`WireError`] are known then, as they
//! always were) but leaves the signature to the runtime: the payload it
//! hands over is [`Payload::Deferred`], finished by signing at the moment
//! the frame leaves the node. Every signed frame of every node behaviour
//! goes through here, and nothing else produces a deferred payload.

use crate::packets::{append_signature, Envelope};
use crate::wire::{Sizing, WireError};
use bytes::{Bytes, BytesMut};
use std::sync::Arc;
use wbft_crypto::schnorr::KeyPair;
use wbft_wireless::{ChannelId, Finish, NodeCtx, Payload, SimDuration};

/// Signs a packet's encoded bytes when the runtime transmits it.
#[derive(Debug)]
struct SignAtTransmit(KeyPair);

impl Finish for SignAtTransmit {
    fn finish(&self, signed: BytesMut) -> Bytes {
        append_signature(&self.0, signed)
    }
}

/// Queues `env` for broadcast on `channel`, to be signed by `keypair` when
/// it is transmitted.
///
/// Charges the curve's virtual signing cost now, per queued send (also for
/// a send that turns out unencodable — the node did the work of building
/// it). The transmit-queue slot is derived from the session and the body's
/// [`slot_key`](crate::Body::slot_key): combined packets supersede their
/// own stale queued versions, and the session keeps components apart.
///
/// # Errors
///
/// [`WireError::Oversize`] when the body does not fit the wire format;
/// nothing is queued and the caller drops the send.
pub fn broadcast_signed(
    ctx: &mut NodeCtx,
    channel: ChannelId,
    keypair: &KeyPair,
    sizing: &Sizing,
    env: &Envelope,
    key_epoch: u64,
) -> Result<(), WireError> {
    ctx.charge_cpu(SimDuration::from_micros(sizing.suite.ecdsa.profile().sign_us));
    let (unfinished, nominal) = env.encode_signed_region(sizing, key_epoch)?;
    let slot = env.session.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(env.body.slot_key());
    let finisher = Arc::new(SignAtTransmit(keypair.clone()));
    ctx.transmit(channel, Payload::Deferred { unfinished, finisher }, nominal, Some(slot));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packets::Body;
    use rand::SeedableRng;
    use wbft_crypto::schnorr::{self, PublicKey, Role};
    use wbft_crypto::table::Stats;
    use wbft_crypto::{Digest32, EcdsaCurve};
    use wbft_wireless::{Frame, NodeBehavior, NodeId, SimConfig, SimTime, Simulator, Topology};

    /// Node 0 sends one signed packet at start; node 1 keeps what it hears.
    struct Node {
        keypair: KeyPair,
        heard: Vec<Bytes>,
    }

    fn packet() -> Envelope {
        let body = Body::GlobalDecision { epoch: 3, digest: Digest32::of(b"block"), tx_count: 9 };
        Envelope { src: 0, session: 55, body }
    }

    impl NodeBehavior for Node {
        fn on_start(&mut self, ctx: &mut NodeCtx) {
            if ctx.node_id().index() == 0 {
                broadcast_signed(ctx, ChannelId(0), &self.keypair, &Sizing::light(2), &packet(), 4)
                    .expect("encodes");
            }
        }
        fn on_frame(&mut self, frame: &Frame, _ctx: &mut NodeCtx) {
            self.heard.push(frame.payload.clone());
        }
        fn on_timer(&mut self, _id: u64, _ctx: &mut NodeCtx) {}
    }

    #[test]
    fn a_packet_signed_at_transmit_is_the_sealed_packet_and_answers_its_receiver() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let keypair = KeyPair::generate(EcdsaCurve::Secp160r1, &mut rng);
        let pk_of = |_| -> Option<PublicKey> { Some(keypair.public()) };
        let nodes = (0..2).map(|_| Node { keypair: keypair.clone(), heard: Vec::new() }).collect();
        let mut sim = Simulator::new(SimConfig::default(), Topology::single_hop(2), nodes);

        schnorr::clear();
        sim.run_until(SimTime::from_micros(10_000_000));
        let heard = sim.behavior(NodeId(1)).heard.clone();
        assert_eq!(heard.len(), 1);
        // Deferring the signature changes when it is made, not what is sent.
        let (sealed, nominal) = packet().seal_tagged(&keypair, &Sizing::light(2), 4).unwrap();
        assert_eq!(heard[0], sealed);
        assert_eq!(sim.metrics().node(NodeId(0)).bytes_sent, nominal as u64);
        // Signed once: the simulator's finish; `seal_tagged` reused it.
        let signs = Stats { hits: 1, misses: 1, recorded: 0 };
        assert_eq!(schnorr::stats(Role::Signer), signs);

        // The signer ran on this thread, so the receiver's question is
        // answered by its transcript, without a challenge hash …
        let (env, tag, sig_ok) = Envelope::open_tagged(&heard[0], pk_of).unwrap();
        assert!(sig_ok && env == packet() && tag == 4);
        let verifies = Stats { hits: 1, misses: 0, recorded: 0 };
        assert_eq!(schnorr::stats(Role::Verifier), verifies);

        // … but bytes altered after signing are nobody's transcript: their
        // verdict is computed, and it is a refusal.
        let mut flipped = heard[0].to_vec();
        flipped[12] ^= 1;
        let (_, _, sig_ok) = Envelope::open_tagged(&flipped, pk_of).unwrap();
        assert!(!sig_ok);
        let verifies = Stats { hits: 1, misses: 1, recorded: 0 };
        assert_eq!(schnorr::stats(Role::Verifier), verifies);
        assert_eq!(schnorr::stats(Role::Signer), signs);
    }
}
