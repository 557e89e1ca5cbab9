//! Deterministic transaction workloads and batch serialization.
//!
//! The testbed measures throughput in committed transactions per minute
//! (TPM), so the workload layer both generates reproducible per-node
//! batches and defines the canonical batch encoding that travels inside
//! proposals (and, for HoneyBadger/BEAT, inside threshold ciphertexts),
//! journal records and sync blocks. It writes through `ByteSink` and reads
//! through `WireReader`, like every other byte format.

use crate::driver::Tx;
use bytes::Bytes;
use wbft_crypto::hash::Digest32;
use wbft_net::wire::{ByteSink, Sink, WireReader};
use wbft_net::WireError;

/// Deterministic per-node, per-epoch transaction source.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Transactions per proposal batch.
    pub batch_size: usize,
    /// Bytes per transaction.
    pub tx_bytes: usize,
    /// Workload seed (distinct seeds = distinct transactions).
    pub seed: u64,
}

impl Workload {
    /// A small default workload (8 × 16-byte transactions).
    pub fn small() -> Self {
        Workload { batch_size: 8, tx_bytes: 16, seed: 1 }
    }

    /// Bytes [`encode_batch`] makes of one of this workload's batches.
    pub fn encoded_len(&self) -> usize {
        BATCH_COUNT_BYTES + self.batch_size * (TX_LEN_BYTES + self.tx_bytes)
    }

    /// The batch node `me` proposes in `epoch`. Deterministic, and disjoint
    /// across nodes and epochs (each tx embeds its coordinates).
    pub fn batch(&self, epoch: u64, me: usize) -> Vec<Tx> {
        (0..self.batch_size)
            .map(|i| {
                let tag = Digest32::of_parts(
                    "wbft/workload/tx",
                    &[
                        &self.seed.to_le_bytes(),
                        &epoch.to_le_bytes(),
                        &(me as u64).to_le_bytes(),
                        &(i as u64).to_le_bytes(),
                    ],
                );
                let mut tx = Vec::with_capacity(self.tx_bytes);
                while tx.len() < self.tx_bytes {
                    let take = (self.tx_bytes - tx.len()).min(32);
                    tx.extend_from_slice(&tag.as_bytes()[..take]);
                }
                Bytes::from(tx)
            })
            .collect()
    }
}

/// Where an engine's per-epoch proposals come from: a synthetic workload,
/// fixed externally-supplied content (the multi-hop global tier proposes
/// cluster-block summaries, not generated transactions), or a live
/// client-fed mempool (the service API).
#[derive(Clone, Debug)]
pub enum BatchSource {
    /// Deterministic synthetic transactions.
    Workload(Workload),
    /// A fixed single-proposal payload per epoch, indexed by epoch; epochs
    /// without one propose empty batches.
    Fixed(Vec<Option<Tx>>),
    /// Live proposals pulled FIFO from a bounded client mempool (see
    /// [`crate::service`]); epochs finding the pool empty propose empty
    /// batches and keep the pipeline turning.
    Service {
        /// The shared service handle whose mempool feeds proposals.
        handle: crate::service::ConsensusHandle,
        /// Most transactions pulled into one proposal.
        max_batch: usize,
    },
}

impl BatchSource {
    /// The batch to propose in `epoch`.
    pub fn batch(&self, epoch: u64, me: usize) -> Vec<Tx> {
        match self {
            BatchSource::Workload(w) => w.batch(epoch, me),
            BatchSource::Fixed(slots) => slots
                .get(epoch as usize)
                .and_then(|t| t.clone())
                .map(|t| vec![t])
                .unwrap_or_default(),
            BatchSource::Service { handle, max_batch } => handle.next_batch(epoch, *max_batch),
        }
    }

    /// Whether the source has transactions worth a new epoch right now.
    /// Synthetic and fixed sources always do (their content is a function
    /// of the epoch number); a live mempool only when transactions are
    /// queued — pipelined engines use this to avoid burning a whole
    /// epoch's airtime on an empty proposal.
    pub fn has_work(&self) -> bool {
        match self {
            BatchSource::Workload(_) | BatchSource::Fixed(_) => true,
            BatchSource::Service { handle, .. } => handle.has_pending(),
        }
    }
}

impl From<Workload> for BatchSource {
    fn from(w: Workload) -> Self {
        BatchSource::Workload(w)
    }
}

/// Most transactions [`decode_batch`] accepts in one batch.
const MAX_BATCH_TXS: usize = 100_000;

/// Bytes [`encode_batch`] spends on the transaction count.
pub(crate) const BATCH_COUNT_BYTES: usize = 4;

/// Bytes [`encode_batch`] spends on each transaction's length.
pub(crate) const TX_LEN_BYTES: usize = 2;

/// Serializes a batch: `u32` count, then `u16`-length-prefixed transactions.
///
/// The prefixes are bounded where transactions enter: `Mempool::admit`
/// refuses one over [`crate::service::BATCH_BUDGET`], `TestbedConfig::check`
/// a workload whose proposal exceeds one broadcast instance, and a decoded
/// batch's transactions carry u16 lengths already.
pub fn encode_batch(txs: &[Tx]) -> Bytes {
    ByteSink::bounded(|s| {
        s.u32(u32::try_from(txs.len()).map_err(|_| WireError::Oversize("batch count"))?);
        txs.iter().try_for_each(|tx| s.bytes(tx))
    })
}

/// Inverse of [`encode_batch`]. Returns `None` on malformed input
/// (a Byzantine proposer's garbage decrypts to garbage).
pub fn decode_batch(data: &[u8]) -> Option<Vec<Tx>> {
    WireReader::exact(data, |r| {
        let count = r.u32()? as usize;
        if count > MAX_BATCH_TXS {
            return Err(WireError::Malformed("batch count"));
        }
        // Each transaction takes at least its two length bytes.
        r.list(count, r.remaining() / 2, WireReader::bytes)
    })
    .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_are_deterministic_and_distinct() {
        let w = Workload { batch_size: 4, tx_bytes: 24, seed: 7 };
        assert_eq!(w.batch(0, 1), w.batch(0, 1));
        assert_ne!(w.batch(0, 1), w.batch(0, 2));
        assert_ne!(w.batch(0, 1), w.batch(1, 1));
        assert!(w.batch(0, 0).iter().all(|tx| tx.len() == 24));
    }

    #[test]
    fn batch_roundtrip() {
        let w = Workload::small();
        let txs = w.batch(3, 2);
        let enc = encode_batch(&txs);
        assert_eq!(enc.len(), w.encoded_len());
        assert_eq!(decode_batch(&enc), Some(txs));
    }

    #[test]
    fn empty_batch_roundtrip() {
        let enc = encode_batch(&[]);
        assert_eq!(decode_batch(&enc), Some(vec![]));
    }

    #[test]
    fn malformed_batches_rejected() {
        assert_eq!(decode_batch(&[]), None);
        assert_eq!(decode_batch(&[1, 0, 0, 0]), None); // count 1, no tx
        let mut enc = encode_batch(&Workload::small().batch(0, 0)).to_vec();
        enc.push(0); // trailing byte
        assert_eq!(decode_batch(&enc), None);
    }
}
