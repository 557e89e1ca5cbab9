#![cfg_attr(not(test), deny(clippy::indexing_slicing))]
//! The anti-entropy catch-up wire protocol: how a restarted or lagging node
//! recovers the committed-block suffix it is missing from its peers.
//!
//! Rides the reserved [`SYNC_CHANNEL`] with ordinary datagram framing. The
//! protocol is symmetric and pull-paced: every node periodically announces
//! its chain height ([`SyncMsg::HeadAnnounce`]); any peer whose chain is
//! longer answers with one bounded [`SyncMsg::BlockChunk`] starting at the
//! announced height. The next announce pulls the next chunk, so a node that
//! is far behind converges one datagram per round trip without any flow
//! control — replacing reliance on the post-completion NACK linger for tail
//! loss.
//!
//! Messages are *unsigned* (sync peers are inside the peer table, but UDP
//! sources are spoofable): a receiver MUST verify each block against its
//! own digest chain before adopting it. The per-block `digest` here is the
//! cumulative journal chain digest (`wbft_journal::chain_digest`) after the
//! block, so a chunk extends a local chain head verifiably or not at all —
//! corrupted payloads cannot survive the check. (The digests are not
//! authenticated: a peer that computes them can still forge an extension.)
//! The block `payload` bytes are opaque to the transport (the consensus
//! layer encodes its tx batch). Messages write through [`ByteSink`] and
//! read through [`WireReader`], and fill their payload exactly.

use bytes::Bytes;
use wbft_net::datagram::MAX_DATAGRAM_PAYLOAD;
use wbft_net::wire::{ByteSink, Sink, WireReader};
use wbft_net::WireError;

/// Reserved datagram channel for anti-entropy sync traffic (peer tables
/// must not assign it, like the control and client channels).
pub const SYNC_CHANNEL: u8 = 0xfd;

/// Per-block framing cost inside a [`SyncMsg::BlockChunk`]: u16 payload
/// length + 32-byte chain digest.
pub const SYNC_BLOCK_OVERHEAD: usize = 2 + 32;

/// Chunk header cost: tag + start epoch + block count.
const CHUNK_HEADER: usize = 1 + 8 + 1;

/// Budget for the blocks of one chunk; a responder accumulates blocks while
/// their framed size fits, so every chunk is a single datagram.
pub const SYNC_CHUNK_BUDGET: usize = MAX_DATAGRAM_PAYLOAD - CHUNK_HEADER;

/// Most blocks one chunk may carry (the count is a single byte).
pub const MAX_CHUNK_BLOCKS: usize = u8::MAX as usize;

/// One committed block in flight: the consensus layer's encoded tx batch
/// plus the cumulative journal chain digest *after* this block.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SyncBlock {
    pub payload: Bytes,
    pub digest: [u8; 32],
}

impl SyncBlock {
    /// Framed size of this block inside a chunk.
    pub fn wire_len(&self) -> usize {
        SYNC_BLOCK_OVERHEAD + self.payload.len()
    }
}

/// One message on the sync channel (either direction).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SyncMsg {
    /// Periodic advertisement: "my chain has `height` committed blocks".
    HeadAnnounce { height: u64 },
    /// Reply to a shorter peer: the committed blocks from `start_epoch`
    /// on, as many as fit one datagram, in epoch order.
    BlockChunk { start_epoch: u64, blocks: Vec<SyncBlock> },
}

const TAG_HEAD: u8 = 1;
const TAG_CHUNK: u8 = 2;

impl SyncMsg {
    /// Encodes the message payload (goes inside a datagram on
    /// [`SYNC_CHANNEL`]).
    ///
    /// # Errors
    ///
    /// [`WireError::Oversize`] when a chunk exceeds one datagram or the
    /// one-byte block count — refused, never truncated (responders budget
    /// with [`SYNC_CHUNK_BUDGET`] instead).
    pub fn encode(&self) -> Result<Bytes, WireError> {
        let mut s = ByteSink::new();
        match self {
            SyncMsg::HeadAnnounce { height } => {
                s.u8(TAG_HEAD);
                s.u64(*height);
            }
            SyncMsg::BlockChunk { start_epoch, blocks } => {
                s.u8(TAG_CHUNK);
                s.u64(*start_epoch);
                s.count8(blocks.len())?;
                for b in blocks {
                    s.bytes(&b.payload)?;
                    s.raw(&b.digest);
                }
                if s.as_slice().len() > MAX_DATAGRAM_PAYLOAD {
                    return Err(WireError::Oversize("sync chunk"));
                }
            }
        }
        Ok(s.into_bytes())
    }

    /// Decodes one payload; `None` for anything malformed (length-checked,
    /// never a panic — sync messages are unauthenticated). Every message
    /// fills its payload exactly.
    pub fn decode(data: &[u8]) -> Option<SyncMsg> {
        WireReader::exact(data, |r| {
            Ok(match r.u8()? {
                TAG_HEAD => SyncMsg::HeadAnnounce { height: r.u64()? },
                TAG_CHUNK => {
                    let start_epoch = r.u64()?;
                    let count = usize::from(r.u8()?);
                    let blocks = r.list(count, count, |r| {
                        Ok(SyncBlock { payload: r.bytes()?, digest: r.array()? })
                    })?;
                    SyncMsg::BlockChunk { start_epoch, blocks }
                }
                other => return Err(WireError::UnknownKind(other)),
            })
        })
        .ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: SyncMsg) {
        let enc = msg.encode().expect("encodes");
        assert_eq!(SyncMsg::decode(&enc), Some(msg));
    }

    #[test]
    fn variants_round_trip() {
        roundtrip(SyncMsg::HeadAnnounce { height: 0 });
        roundtrip(SyncMsg::HeadAnnounce { height: u64::MAX });
        roundtrip(SyncMsg::BlockChunk { start_epoch: 3, blocks: vec![] });
        roundtrip(SyncMsg::BlockChunk {
            start_epoch: 7,
            blocks: vec![
                SyncBlock { payload: Bytes::from_static(b"batch-a"), digest: [1; 32] },
                SyncBlock { payload: Bytes::new(), digest: [2; 32] },
            ],
        });
    }

    #[test]
    fn malformed_payloads_decode_to_none() {
        assert_eq!(SyncMsg::decode(&[]), None);
        assert_eq!(SyncMsg::decode(&[9]), None);
        assert_eq!(SyncMsg::decode(&[TAG_HEAD, 1, 2]), None); // short height
        let good = SyncMsg::BlockChunk {
            start_epoch: 1,
            blocks: vec![SyncBlock { payload: Bytes::from_static(b"x"), digest: [3; 32] }],
        }
        .encode()
        .unwrap();
        assert_eq!(SyncMsg::decode(&good[..good.len() - 1]), None); // truncated digest
        let mut trailing = good.to_vec();
        trailing.push(0);
        assert_eq!(SyncMsg::decode(&trailing), None); // trailing junk
    }

    #[test]
    fn oversize_chunks_are_refused_not_truncated() {
        let big = SyncMsg::BlockChunk {
            start_epoch: 0,
            blocks: vec![SyncBlock {
                payload: Bytes::from(vec![0u8; MAX_DATAGRAM_PAYLOAD]),
                digest: [0; 32],
            }],
        };
        assert!(big.encode().is_err());
        // A budget-respecting chunk always encodes and fits one datagram.
        let mut blocks = Vec::new();
        let mut used = 0usize;
        while blocks.len() < MAX_CHUNK_BLOCKS {
            let b = SyncBlock { payload: Bytes::from(vec![7u8; 100]), digest: [7; 32] };
            if used + b.wire_len() > SYNC_CHUNK_BUDGET {
                break;
            }
            used += b.wire_len();
            blocks.push(b);
        }
        assert!(!blocks.is_empty());
        let msg = SyncMsg::BlockChunk { start_epoch: 2, blocks };
        let enc = msg.encode().expect("budgeted chunk fits");
        assert!(enc.len() <= MAX_DATAGRAM_PAYLOAD);
        assert_eq!(SyncMsg::decode(&enc), Some(msg));
    }
}
