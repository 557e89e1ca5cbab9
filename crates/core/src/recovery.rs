#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing,
        clippy::cast_possible_truncation
    )
)]
//! Restart-from-journal: the bridge between consensus [`Block`]s and the
//! durable [`wbft_journal`] chain, plus the digest arithmetic the
//! anti-entropy sync protocol verifies chunks against.
//!
//! A node's committed chain maps onto a journal one-to-one: block `e` (the
//! chain commits strictly in epoch order, so `epoch == index`) becomes
//! journal record `e` whose payload is the block's transaction batch in the
//! existing proposal codec ([`encode_batch`]). The cumulative journal chain
//! digest after record `e` therefore commits to every committed byte up to
//! and including epoch `e` — it is the digest the sync protocol ships with
//! each block and the digest restarted nodes compare against their peers.

use crate::driver::Block;
use crate::workload::{decode_batch, encode_batch};
use wbft_journal::{chain_digest, Journal, JournalError, JournalStore, GENESIS_DIGEST};

/// The cumulative journal chain digest after each block of `blocks`,
/// starting from genesis. `digests[e]` is what the journal head would be
/// with exactly blocks `0..=e` committed — the value a sync chunk carries
/// per block and a restarted node verifies before adopting.
pub fn chain_digests(blocks: &[Block]) -> Vec<[u8; 32]> {
    let mut out = Vec::with_capacity(blocks.len());
    let mut head = GENESIS_DIGEST;
    for b in blocks {
        head = chain_digest(&head, b.epoch, &encode_batch(&b.txs));
        out.push(head);
    }
    out
}

/// A journal of committed blocks over any byte store: the durable write-side
/// used by nodes as they commit, and the recovery read-side used on restart.
pub struct BlockJournal {
    journal: Journal<Box<dyn JournalStore + Send>>,
}

impl BlockJournal {
    /// Opens a journal, returning the recovered committed-chain prefix. Torn
    /// tails are silently repaired by the journal layer; a checksum-valid
    /// record whose payload fails the batch codec means the store belongs to
    /// a different format and is a typed error, not a panic.
    ///
    /// # Errors
    ///
    /// I/O failures and digest-chain violations from [`Journal::open`], plus
    /// `ChainMismatch` for an undecodable batch payload.
    pub fn open(
        store: Box<dyn JournalStore + Send>,
    ) -> Result<(Self, Vec<Block>), JournalError> {
        let (journal, records) = Journal::open(store)?;
        let mut blocks = Vec::with_capacity(records.len());
        for r in records {
            // Journal checksums make a bad payload unreachable for records
            // we wrote, but recovery must stay total.
            let Some(txs) = decode_batch(&r.payload) else {
                return Err(JournalError::ChainMismatch { epoch: r.epoch });
            };
            blocks.push(Block { epoch: r.epoch, txs });
        }
        Ok((BlockJournal { journal }, blocks))
    }

    /// Appends one committed block; returns the new chain head.
    ///
    /// # Errors
    ///
    /// Store I/O failures, or `EpochGap` when `block.epoch` is not the next
    /// journal epoch (a driver bug, not a runtime condition).
    pub fn append(&mut self, block: &Block) -> Result<[u8; 32], JournalError> {
        self.journal.append(block.epoch, &encode_batch(&block.txs))
    }

    /// Cumulative chain digest after the last journaled block.
    pub fn head(&self) -> [u8; 32] {
        self.journal.head()
    }

    /// Number of journaled blocks (== the next expected epoch).
    pub fn len(&self) -> u64 {
        self.journal.len()
    }

    /// `true` when nothing has been journaled yet.
    pub fn is_empty(&self) -> bool {
        self.journal.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use wbft_journal::SharedMem;

    fn block(epoch: u64, tags: &[u8]) -> Block {
        Block {
            epoch,
            txs: tags.iter().map(|&t| Bytes::from(vec![t; 16])).collect(),
        }
    }

    #[test]
    fn journal_round_trips_blocks_and_matches_chain_digests() {
        let store = SharedMem::new();
        let chain = vec![block(0, &[1, 2]), block(1, &[]), block(2, &[3])];
        {
            let (mut j, recovered) =
                BlockJournal::open(Box::new(store.clone())).unwrap();
            assert!(recovered.is_empty());
            let mut heads = Vec::new();
            for b in &chain {
                heads.push(j.append(b).unwrap());
            }
            assert_eq!(heads, chain_digests(&chain));
        }
        let (j, recovered) = BlockJournal::open(Box::new(store)).unwrap();
        assert_eq!(recovered, chain);
        assert_eq!(j.len(), 3);
        assert_eq!(j.head(), *chain_digests(&chain).last().unwrap());
    }

    #[test]
    fn empty_chain_has_no_digests() {
        assert!(chain_digests(&[]).is_empty());
    }
}
