//! Deterministic transaction workloads and batch serialization.
//!
//! The testbed measures throughput in committed transactions per minute
//! (TPM), so the workload layer both generates reproducible per-node
//! batches and defines the canonical batch encoding that travels inside
//! proposals (and, for HoneyBadger/BEAT, inside threshold ciphertexts).

use crate::driver::Tx;
use bytes::Bytes;
use wbft_crypto::hash::Digest32;

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
        4 + self.batch_size * (2 + self.tx_bytes)
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
    /// A fixed single-proposal payload per epoch, set via
    /// [`BatchSource::set_fixed`]; epochs without one propose empty batches.
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

    /// Installs the fixed proposal for an epoch.
    pub fn set_fixed(&mut self, epoch: u64, tx: Tx) {
        if let BatchSource::Fixed(slots) = self {
            while slots.len() <= epoch as usize {
                slots.push(None);
            }
            slots[epoch as usize] = Some(tx);
        }
    }
}

impl From<Workload> for BatchSource {
    fn from(w: Workload) -> Self {
        BatchSource::Workload(w)
    }
}

/// Serializes a batch: `u32` count, then `u16`-length-prefixed transactions.
pub fn encode_batch(txs: &[Tx]) -> Bytes {
    let mut out = Vec::new();
    out.extend_from_slice(&(txs.len() as u32).to_le_bytes());
    for tx in txs {
        out.extend_from_slice(&(tx.len() as u16).to_le_bytes());
        out.extend_from_slice(tx);
    }
    Bytes::from(out)
}

/// Inverse of [`encode_batch`]. Returns `None` on malformed input
/// (a Byzantine proposer's garbage decrypts to garbage).
pub fn decode_batch(data: &[u8]) -> Option<Vec<Tx>> {
    if data.len() < 4 {
        return None;
    }
    let count = u32::from_le_bytes(data[..4].try_into().ok()?) as usize;
    if count > 100_000 {
        return None;
    }
    let mut txs = Vec::with_capacity(count);
    let mut pos = 4;
    for _ in 0..count {
        if data.len() < pos + 2 {
            return None;
        }
        let len = u16::from_le_bytes(data[pos..pos + 2].try_into().ok()?) as usize;
        pos += 2;
        if data.len() < pos + len {
            return None;
        }
        txs.push(Bytes::copy_from_slice(&data[pos..pos + len]));
        pos += len;
    }
    if pos != data.len() {
        return None;
    }
    Some(txs)
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
