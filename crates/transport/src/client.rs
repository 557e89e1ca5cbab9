#![cfg_attr(not(test), deny(clippy::indexing_slicing))]
//! The client-submission wire protocol: how external processes talk to a
//! consensus node over UDP.
//!
//! Clients are not consensus peers — they hold no keys, appear in no
//! [`PeerTable`](crate::PeerTable), and speak a tiny datagram protocol on
//! the reserved [`CLIENT_CHANNEL`]: submit a transaction, receive an
//! explicit admit/reject (the mempool's backpressure signal), subscribe to
//! the committed-block stream, and request a graceful stop. Messages ride
//! the standard [`Datagram`](wbft_net::datagram::Datagram) framing with
//! `src = `[`CLIENT_SRC`] (clients have no node id), so the runtime's
//! existing decode path handles them; the node side answers through a
//! [`ClientGateway`](crate::runtime::ClientGateway) implementation.
//!
//! Commit notifications carry transaction *digests*, not bodies: a client
//! matches the digests of its own submissions to measure commit latency,
//! and the block contents are already public on the consensus channel.
//!
//! Messages write through [`ByteSink`] and read through [`WireReader`]; each
//! fills its datagram payload exactly, so a decoder refuses trailing bytes
//! as firmly as missing ones.

use bytes::Bytes;
use wbft_net::datagram::MAX_DATAGRAM_PAYLOAD;
use wbft_net::wire::{ByteSink, Sink, WireReader};
use wbft_net::WireError;

/// Reserved datagram channel for client traffic (peer tables must not
/// assign it, like the control channel).
pub const CLIENT_CHANNEL: u8 = 0xfe;

/// Most digests one [`ClientMsg::Block`] may carry and still fit a single
/// datagram (senders chunk longer blocks into several messages with the
/// same epoch).
pub const MAX_BLOCK_DIGESTS: usize = (MAX_DATAGRAM_PAYLOAD - 11) / 32;

/// The `src` id clients stamp on their datagrams (never a valid node id —
/// tables are validated dense `0..n` with `n` far below this).
pub const CLIENT_SRC: u16 = u16::MAX;

/// The node's answer to one submission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitVerdict {
    /// Admitted into the mempool.
    Admitted,
    /// Dropped as a duplicate (pending, in flight, or already committed).
    Duplicate,
    /// Dropped — the mempool is full; back off and resubmit.
    Full,
    /// Refused — the transaction alone exceeds what one proposal carries;
    /// resubmitting cannot help.
    TooLarge,
}

impl SubmitVerdict {
    fn to_byte(self) -> u8 {
        match self {
            SubmitVerdict::Admitted => 0,
            SubmitVerdict::Duplicate => 1,
            SubmitVerdict::Full => 2,
            SubmitVerdict::TooLarge => 3,
        }
    }

    fn from_byte(b: u8) -> Option<Self> {
        match b {
            0 => Some(SubmitVerdict::Admitted),
            1 => Some(SubmitVerdict::Duplicate),
            2 => Some(SubmitVerdict::Full),
            3 => Some(SubmitVerdict::TooLarge),
            _ => None,
        }
    }
}

/// One message on the client channel (either direction).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClientMsg {
    /// Client → node: one transaction for the mempool.
    Submit {
        /// Transaction bytes.
        tx: Bytes,
    },
    /// Node → client: the admit/reject verdict for a submission, echoing
    /// the transaction's digest so the client can match it.
    SubmitReply {
        /// Backpressure verdict.
        verdict: SubmitVerdict,
        /// SHA-256 digest of the submitted transaction.
        digest: [u8; 32],
    },
    /// Client → node: start streaming committed blocks to this address.
    Subscribe,
    /// Node → client: one committed block, as epoch + content digests.
    Block {
        /// Epoch number.
        epoch: u64,
        /// Digest of every transaction in the block, in block order.
        digests: Vec<[u8; 32]>,
    },
    /// Client → node: request a graceful stop (finish the in-flight
    /// epoch, open no more).
    Stop,
}

const TAG_SUBMIT: u8 = 1;
const TAG_SUBMIT_REPLY: u8 = 2;
const TAG_SUBSCRIBE: u8 = 3;
const TAG_BLOCK: u8 = 4;
const TAG_STOP: u8 = 5;

impl ClientMsg {
    /// Encodes the message payload (goes inside a datagram on
    /// [`CLIENT_CHANNEL`]).
    ///
    /// # Errors
    ///
    /// [`WireError::Oversize`] for a transaction longer than a `u16` length
    /// prefix can describe or a digest list beyond [`MAX_BLOCK_DIGESTS`] —
    /// refused, never silently truncated (block senders chunk instead).
    pub fn encode(&self) -> Result<Bytes, WireError> {
        let mut s = ByteSink::new();
        match self {
            ClientMsg::Submit { tx } => {
                s.u8(TAG_SUBMIT);
                s.bytes(tx)?;
            }
            ClientMsg::SubmitReply { verdict, digest } => {
                s.u8(TAG_SUBMIT_REPLY);
                s.u8(verdict.to_byte());
                s.raw(digest);
            }
            ClientMsg::Subscribe => s.u8(TAG_SUBSCRIBE),
            ClientMsg::Block { epoch, digests } => {
                if digests.len() > MAX_BLOCK_DIGESTS {
                    return Err(WireError::Oversize("block digest list"));
                }
                s.u8(TAG_BLOCK);
                s.u64(*epoch);
                s.count16(digests.len())?;
                digests.iter().for_each(|d| s.raw(d));
            }
            ClientMsg::Stop => s.u8(TAG_STOP),
        }
        Ok(s.into_bytes())
    }

    /// Decodes one payload; `None` for anything malformed (length-checked,
    /// never a panic — clients are untrusted). Every message fills its
    /// payload exactly.
    pub fn decode(data: &[u8]) -> Option<ClientMsg> {
        WireReader::exact(data, |r| {
            Ok(match r.u8()? {
                TAG_SUBMIT => ClientMsg::Submit { tx: r.bytes()? },
                TAG_SUBMIT_REPLY => ClientMsg::SubmitReply {
                    verdict: SubmitVerdict::from_byte(r.u8()?)
                        .ok_or(WireError::Malformed("submit verdict"))?,
                    digest: r.array()?,
                },
                TAG_SUBSCRIBE => ClientMsg::Subscribe,
                TAG_BLOCK => {
                    let epoch = r.u64()?;
                    let count = usize::from(r.u16()?);
                    // A digest list reserves no more than the datagram holds.
                    let digests = r.list(count, r.remaining() / 32, WireReader::array)?;
                    ClientMsg::Block { epoch, digests }
                }
                TAG_STOP => ClientMsg::Stop,
                other => return Err(WireError::UnknownKind(other)),
            })
        })
        .ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: ClientMsg) {
        let enc = msg.encode().expect("encodes");
        assert_eq!(ClientMsg::decode(&enc), Some(msg));
    }

    #[test]
    fn all_variants_round_trip() {
        roundtrip(ClientMsg::Submit { tx: Bytes::from_static(b"pay alice 5") });
        roundtrip(ClientMsg::Submit { tx: Bytes::new() });
        roundtrip(ClientMsg::SubmitReply {
            verdict: SubmitVerdict::Admitted,
            digest: [7; 32],
        });
        roundtrip(ClientMsg::SubmitReply { verdict: SubmitVerdict::Full, digest: [0; 32] });
        roundtrip(ClientMsg::SubmitReply { verdict: SubmitVerdict::TooLarge, digest: [3; 32] });
        roundtrip(ClientMsg::Subscribe);
        roundtrip(ClientMsg::Block { epoch: 42, digests: vec![[1; 32], [2; 32]] });
        roundtrip(ClientMsg::Block { epoch: 0, digests: vec![] });
        roundtrip(ClientMsg::Stop);
    }

    #[test]
    fn malformed_payloads_decode_to_none() {
        assert_eq!(ClientMsg::decode(&[]), None);
        assert_eq!(ClientMsg::decode(&[99]), None);
        assert_eq!(ClientMsg::decode(&[TAG_SUBMIT, 5, 0, b'x']), None); // short tx
        assert_eq!(ClientMsg::decode(&[TAG_SUBMIT_REPLY, 9]), None);
        assert_eq!(ClientMsg::decode(&[TAG_SUBMIT_REPLY, 4, 0]), None); // bad verdict
        assert_eq!(ClientMsg::decode(&[TAG_SUBSCRIBE, 0]), None); // trailing byte
        let mut block =
            ClientMsg::Block { epoch: 1, digests: vec![[1; 32]] }.encode().unwrap().to_vec();
        block.pop(); // truncated digest
        assert_eq!(ClientMsg::decode(&block), None);
        assert_eq!(ClientMsg::decode(&[TAG_STOP, 1]), None);
    }

    #[test]
    fn submit_tx_bytes_survive_exactly() {
        let tx = Bytes::from((0u16..300).map(|v| v as u8).collect::<Vec<u8>>());
        let enc = ClientMsg::Submit { tx: tx.clone() }.encode().expect("encodes");
        match ClientMsg::decode(&enc) {
            Some(ClientMsg::Submit { tx: got }) => assert_eq!(got, tx),
            other => panic!("unexpected decode: {other:?}"),
        }
    }

    #[test]
    fn oversize_messages_are_refused_not_truncated() {
        let huge = ClientMsg::Submit { tx: Bytes::from(vec![0u8; u16::MAX as usize + 1]) };
        assert!(huge.encode().is_err());
        let wide = ClientMsg::Block { epoch: 0, digests: vec![[0; 32]; MAX_BLOCK_DIGESTS + 1] };
        assert!(wide.encode().is_err());
        let max = ClientMsg::Block { epoch: 0, digests: vec![[0; 32]; MAX_BLOCK_DIGESTS] };
        let enc = max.encode().expect("exact limit fits the codec");
        assert!(enc.len() <= MAX_DATAGRAM_PAYLOAD);
        assert_eq!(ClientMsg::decode(&enc), Some(max));
    }
}
