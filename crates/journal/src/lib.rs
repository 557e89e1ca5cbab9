// Totality and wire safety: a panic on a protocol path aborts the node
// mid-epoch, and this crate parses bytes an adversary controls, so outside
// test code nothing panics, indexes a slice directly or truncates a cast.
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
//! Append-only write-ahead journal of committed blocks.
//!
//! Each record is framed as
//!
//! ```text
//! [len: u32 LE] [prev_digest: 32B] [epoch: u64 LE] [payload: len-40 bytes] [checksum: 32B]
//! ```
//!
//! where `checksum = Sha256("wbft/journal/frame" || record_bytes)` covers the
//! record bytes (`prev_digest || epoch || payload`) and the cumulative chain
//! digest after a record is `Sha256("wbft/journal/chain" || prev || epoch ||
//! payload)`. The genesis predecessor digest is all-zero and epochs are
//! contiguous from 0, so a journal is a verifiable digest chain: any prefix
//! commits to every byte before it.
//!
//! Recovery is total and non-panicking. A truncated or bit-flipped *final*
//! record (a torn tail, the normal crash artifact) is dropped and the store
//! truncated back to the longest valid prefix. A checksum-*valid* record that
//! does not extend the chain (wrong predecessor digest or epoch) is a sign of
//! cross-run mixup, not a crash, and is rejected with a typed error.
//!
//! Storage is abstracted behind [`JournalStore`] so the deterministic
//! simulator can journal into memory ([`MemStore`], [`SharedMem`]) while real
//! nodes journal to disk ([`FileStore`]).

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

use sha2::{Digest as _, Sha256};

/// Domain-separation prefix for the per-record checksum.
const FRAME_DOMAIN: &[u8] = b"wbft/journal/frame";
/// Domain-separation prefix for the cumulative chain digest.
const CHAIN_DOMAIN: &[u8] = b"wbft/journal/chain";

/// Bytes of record header covered by the length prefix: prev digest + epoch.
const RECORD_HEADER: usize = 32 + 8;
/// Trailing checksum bytes, not covered by the length prefix.
const CHECKSUM_LEN: usize = 32;
/// Frame bytes beyond the payload: length prefix + header + checksum.
pub const FRAME_OVERHEAD: usize = 4 + RECORD_HEADER + CHECKSUM_LEN;
/// Sanity cap on a single record frame; a longer length prefix is treated as
/// corruption (torn tail), never as an allocation request.
const MAX_FRAME: usize = 64 << 20;

/// The all-zero digest that precedes the first record.
pub const GENESIS_DIGEST: [u8; 32] = [0u8; 32];

/// A decoded journal record plus the cumulative chain digest after it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalRecord {
    pub epoch: u64,
    pub payload: Vec<u8>,
    /// Chain digest *after* appending this record.
    pub digest: [u8; 32],
}

/// Journal failure. Torn tails are not errors — they are silently recovered —
/// so this only covers I/O and genuine chain violations.
#[derive(Debug)]
pub enum JournalError {
    Io(io::Error),
    /// A checksum-valid record whose predecessor digest does not match the
    /// chain head it claims to extend.
    ChainMismatch { epoch: u64 },
    /// A checksum-valid record whose epoch is not the next expected one.
    EpochGap { expected: u64, got: u64 },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal io error: {e}"),
            JournalError::ChainMismatch { epoch } => {
                write!(f, "journal chain mismatch at epoch {epoch}")
            }
            JournalError::EpochGap { expected, got } => {
                write!(f, "journal epoch gap: expected {expected}, got {got}")
            }
        }
    }
}

impl std::error::Error for JournalError {}

impl From<io::Error> for JournalError {
    fn from(e: io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// Cumulative chain digest after appending `(epoch, payload)` to a chain
/// whose head is `prev`.
pub fn chain_digest(prev: &[u8; 32], epoch: u64, payload: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(CHAIN_DOMAIN);
    h.update(prev);
    h.update(epoch.to_le_bytes());
    h.update(payload);
    h.finalize()
}

/// Encode one framed record extending the chain head `prev`.
#[expect(clippy::cast_possible_truncation, reason = "record_len asserted ≤ MAX_FRAME first")]
pub fn encode_record(prev: &[u8; 32], epoch: u64, payload: &[u8]) -> Vec<u8> {
    let record_len = RECORD_HEADER + payload.len();
    assert!(
        record_len + CHECKSUM_LEN <= MAX_FRAME,
        "journal record exceeds MAX_FRAME and could never be recovered"
    );
    let mut out = Vec::with_capacity(4 + record_len + CHECKSUM_LEN);
    out.extend_from_slice(&(record_len as u32).to_le_bytes());
    out.extend_from_slice(prev);
    out.extend_from_slice(&epoch.to_le_bytes());
    out.extend_from_slice(payload);
    let mut h = Sha256::new();
    h.update(FRAME_DOMAIN);
    h.update(out.get(4..).unwrap_or(&[]));
    let sum = h.finalize();
    out.extend_from_slice(&sum);
    out
}

/// Result of scanning raw journal bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recovered {
    /// Records of the longest valid prefix, in order.
    pub records: Vec<JournalRecord>,
    /// Byte length of that prefix; bytes past it are a torn tail.
    pub valid_len: usize,
    /// Whether any trailing bytes were dropped.
    pub torn: bool,
}

impl Recovered {
    /// Chain head after the recovered prefix.
    pub fn head(&self) -> [u8; 32] {
        self.records.last().map(|r| r.digest).unwrap_or(GENESIS_DIGEST)
    }
}

/// Scan raw bytes into the longest valid record prefix. Never panics on any
/// input: truncation and bit corruption end the scan at the last intact
/// record (`torn = true`), while a checksum-valid record that contradicts the
/// digest chain is a typed error.
pub fn parse_records(bytes: &[u8]) -> Result<Recovered, JournalError> {
    let mut records = Vec::new();
    let mut head = GENESIS_DIGEST;
    let mut offset = 0usize;
    let mut torn = false;
    while offset < bytes.len() {
        let rest = bytes.get(offset..).unwrap_or(&[]);
        let Some(len_prefix) = rest.get(..4).and_then(|b| <[u8; 4]>::try_from(b).ok()) else {
            torn = true;
            break;
        };
        let record_len = u32::from_le_bytes(len_prefix) as usize;
        if record_len < RECORD_HEADER || record_len + CHECKSUM_LEN > MAX_FRAME {
            torn = true;
            break;
        }
        let (Some(record), Some(claimed)) = (
            rest.get(4..4 + record_len),
            rest.get(4 + record_len..4 + record_len + CHECKSUM_LEN),
        ) else {
            torn = true;
            break;
        };
        let mut h = Sha256::new();
        h.update(FRAME_DOMAIN);
        h.update(record);
        if h.finalize() != claimed {
            torn = true;
            break;
        }
        // record_len ≥ RECORD_HEADER (40) was checked above, so all three
        // sub-slices exist; a miss is still a torn tail, never a panic.
        let (Some(prev), Some(epoch_le), Some(payload)) = (
            record.get(..32).and_then(|b| <[u8; 32]>::try_from(b).ok()),
            record.get(32..RECORD_HEADER).and_then(|b| <[u8; 8]>::try_from(b).ok()),
            record.get(RECORD_HEADER..),
        ) else {
            torn = true;
            break;
        };
        let epoch = u64::from_le_bytes(epoch_le);
        if prev != head {
            return Err(JournalError::ChainMismatch { epoch });
        }
        let expected = records.len() as u64;
        if epoch != expected {
            return Err(JournalError::EpochGap { expected, got: epoch });
        }
        head = chain_digest(&head, epoch, payload);
        records.push(JournalRecord { epoch, payload: payload.to_vec(), digest: head });
        offset += 4 + record_len + CHECKSUM_LEN;
    }
    Ok(Recovered { records, valid_len: offset, torn })
}

/// Byte-level storage for a journal: a readable, appendable, truncatable blob.
pub trait JournalStore: Send {
    fn read_all(&mut self) -> io::Result<Vec<u8>>;
    fn append(&mut self, bytes: &[u8]) -> io::Result<()>;
    fn truncate(&mut self, len: u64) -> io::Result<()>;
}

impl JournalStore for Box<dyn JournalStore + Send> {
    fn read_all(&mut self) -> io::Result<Vec<u8>> {
        (**self).read_all()
    }
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        (**self).append(bytes)
    }
    fn truncate(&mut self, len: u64) -> io::Result<()> {
        (**self).truncate(len)
    }
}

/// Private in-memory store; cannot fail.
#[derive(Debug, Default, Clone)]
pub struct MemStore {
    bytes: Vec<u8>,
}

impl MemStore {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        Self { bytes }
    }

    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }
}

impl JournalStore for MemStore {
    fn read_all(&mut self) -> io::Result<Vec<u8>> {
        Ok(self.bytes.clone())
    }
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.bytes.extend_from_slice(bytes);
        Ok(())
    }
    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.bytes.truncate(usize::try_from(len).unwrap_or(usize::MAX));
        Ok(())
    }
}

/// Shared in-memory store: the bytes outlive the journal handle, so a
/// simulated node can "crash" (drop its journal) and a restarted incarnation
/// can recover from the same blob — the sim's stand-in for a disk.
#[derive(Debug, Default, Clone)]
pub struct SharedMem {
    bytes: Arc<Mutex<Vec<u8>>>,
}

impl SharedMem {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn snapshot(&self) -> Vec<u8> {
        self.bytes.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clone()
    }
}

impl JournalStore for SharedMem {
    fn read_all(&mut self) -> io::Result<Vec<u8>> {
        Ok(self.snapshot())
    }
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.bytes.lock().unwrap_or_else(std::sync::PoisonError::into_inner).extend_from_slice(bytes);
        Ok(())
    }
    fn truncate(&mut self, len: u64) -> io::Result<()> {
        let len = usize::try_from(len).unwrap_or(usize::MAX);
        self.bytes.lock().unwrap_or_else(std::sync::PoisonError::into_inner).truncate(len);
        Ok(())
    }
}

/// File-backed store. Appends are flushed per record; truncation (torn-tail
/// repair) uses `set_len`.
#[derive(Debug)]
pub struct FileStore {
    file: File,
}

impl FileStore {
    pub fn open(path: &Path) -> io::Result<Self> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file =
            OpenOptions::new().read(true).write(true).create(true).truncate(false).open(path)?;
        Ok(Self { file })
    }
}

impl JournalStore for FileStore {
    fn read_all(&mut self) -> io::Result<Vec<u8>> {
        self.file.seek(SeekFrom::Start(0))?;
        let mut bytes = Vec::new();
        self.file.read_to_end(&mut bytes)?;
        Ok(bytes)
    }
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.file.seek(SeekFrom::End(0))?;
        self.file.write_all(bytes)?;
        self.file.flush()
    }
    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.file.set_len(len)
    }
}

/// An open journal: the chain head plus the store it appends to.
#[derive(Debug)]
pub struct Journal<S: JournalStore> {
    store: S,
    head: [u8; 32],
    next_epoch: u64,
}

impl<S: JournalStore> Journal<S> {
    /// Open a journal, recovering the longest valid record prefix. A torn
    /// tail is truncated away in the store; a chain violation is an error.
    pub fn open(mut store: S) -> Result<(Self, Vec<JournalRecord>), JournalError> {
        let bytes = store.read_all()?;
        let recovered = parse_records(&bytes)?;
        if recovered.torn {
            store.truncate(recovered.valid_len as u64)?;
        }
        let journal = Journal {
            store,
            head: recovered.head(),
            next_epoch: recovered.records.len() as u64,
        };
        Ok((journal, recovered.records))
    }

    /// Append one committed block payload; returns the new chain head.
    pub fn append(&mut self, epoch: u64, payload: &[u8]) -> Result<[u8; 32], JournalError> {
        if epoch != self.next_epoch {
            return Err(JournalError::EpochGap { expected: self.next_epoch, got: epoch });
        }
        let frame = encode_record(&self.head, epoch, payload);
        self.store.append(&frame)?;
        self.head = chain_digest(&self.head, epoch, payload);
        self.next_epoch += 1;
        Ok(self.head)
    }

    /// Cumulative chain digest after the last record.
    pub fn head(&self) -> [u8; 32] {
        self.head
    }

    /// Number of records (== next expected epoch).
    pub fn len(&self) -> u64 {
        self.next_epoch
    }

    pub fn is_empty(&self) -> bool {
        self.next_epoch == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_log(payloads: &[&[u8]]) -> Vec<u8> {
        let mut bytes = Vec::new();
        let mut head = GENESIS_DIGEST;
        for (i, p) in payloads.iter().enumerate() {
            bytes.extend_from_slice(&encode_record(&head, i as u64, p));
            head = chain_digest(&head, i as u64, p);
        }
        bytes
    }

    #[test]
    fn round_trip_and_head_chain() {
        let payloads: &[&[u8]] = &[b"alpha", b"", b"gamma-longer-payload"];
        let log = sample_log(payloads);
        let rec = parse_records(&log).unwrap();
        assert!(!rec.torn);
        assert_eq!(rec.valid_len, log.len());
        assert_eq!(rec.records.len(), 3);
        for (i, r) in rec.records.iter().enumerate() {
            assert_eq!(r.epoch, i as u64);
            assert_eq!(r.payload, payloads[i]);
        }
        assert_eq!(rec.head(), rec.records[2].digest);
    }

    #[test]
    fn torn_tail_recovers_prefix_at_every_cut() {
        let log = sample_log(&[b"one", b"two", b"six"]);
        let frame = FRAME_OVERHEAD + 3;
        for cut in 0..log.len() {
            let rec = parse_records(&log[..cut]).unwrap();
            let whole = cut / frame;
            assert_eq!(rec.records.len(), whole, "cut at {cut}");
            assert_eq!(rec.valid_len, whole * frame);
            assert_eq!(rec.torn, cut % frame != 0);
        }
    }

    #[test]
    fn corrupt_final_record_is_dropped_not_fatal() {
        let mut log = sample_log(&[b"one", b"two"]);
        let last = log.len() - 1;
        log[last] ^= 0x40;
        let rec = parse_records(&log).unwrap();
        assert!(rec.torn);
        assert_eq!(rec.records.len(), 1);
    }

    #[test]
    fn chain_mismatch_is_typed_error() {
        // Two checksum-valid genesis records: the second claims the zero
        // predecessor instead of extending the first.
        let mut log = encode_record(&GENESIS_DIGEST, 0, b"one");
        log.extend_from_slice(&encode_record(&GENESIS_DIGEST, 1, b"rogue"));
        match parse_records(&log) {
            Err(JournalError::ChainMismatch { epoch: 1 }) => {}
            other => panic!("expected ChainMismatch, got {other:?}"),
        }
    }

    #[test]
    fn epoch_gap_is_typed_error() {
        let head = chain_digest(&GENESIS_DIGEST, 0, b"one");
        let mut log = encode_record(&GENESIS_DIGEST, 0, b"one");
        log.extend_from_slice(&encode_record(&head, 5, b"skip"));
        match parse_records(&log) {
            Err(JournalError::EpochGap { expected: 1, got: 5 }) => {}
            other => panic!("expected EpochGap, got {other:?}"),
        }
    }

    #[test]
    fn journal_over_memstore_survives_reopen() {
        let shared = SharedMem::new();
        let head0 = {
            let (mut j, recovered) = Journal::open(shared.clone()).unwrap();
            assert!(recovered.is_empty());
            j.append(0, b"blk0").unwrap();
            j.append(1, b"blk1").unwrap()
        };
        // Torn tail: half a record appended raw.
        {
            let mut s = shared.clone();
            let junk = encode_record(&head0, 2, b"blk2");
            s.append(&junk[..junk.len() / 2]).unwrap();
        }
        let (mut j, recovered) = Journal::open(shared.clone()).unwrap();
        assert_eq!(recovered.len(), 2);
        assert_eq!(recovered[1].digest, head0);
        assert_eq!(j.head(), head0);
        // The torn bytes were truncated away, so appending epoch 2 works.
        j.append(2, b"blk2").unwrap();
        let (_, recovered) = Journal::open(shared).unwrap();
        assert_eq!(recovered.len(), 3);
    }

    #[test]
    fn journal_rejects_out_of_order_append() {
        let (mut j, _) = Journal::open(MemStore::new()).unwrap();
        j.append(0, b"x").unwrap();
        match j.append(2, b"y") {
            Err(JournalError::EpochGap { expected: 1, got: 2 }) => {}
            other => panic!("expected EpochGap, got {other:?}"),
        }
    }

    #[test]
    fn file_store_round_trip() {
        let dir = std::env::temp_dir().join(format!("wbft-journal-test-{}", std::process::id()));
        let path = dir.join("node0.journal");
        let _ = std::fs::remove_file(&path);
        {
            let (mut j, recovered) = Journal::open(FileStore::open(&path).unwrap()).unwrap();
            assert!(recovered.is_empty());
            j.append(0, b"disk0").unwrap();
            j.append(1, b"disk1").unwrap();
        }
        let (j, recovered) = Journal::open(FileStore::open(&path).unwrap()).unwrap();
        assert_eq!(recovered.len(), 2);
        assert_eq!(recovered[1].payload, b"disk1");
        assert_eq!(j.len(), 2);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }
}
