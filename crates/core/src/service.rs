#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]
//! The client-facing consensus service layer.
//!
//! The testbed's original API is a benchmark shape — engines take a
//! pre-seeded [`BatchSource`](crate::workload::BatchSource) and a fixed
//! `target_epochs` and terminate into a report. This module redesigns that
//! surface into a *service*: clients submit transactions into a bounded,
//! deterministic [`Mempool`] (digest-dedup, FIFO, explicit
//! [`AdmitOutcome`] backpressure), epochs pull their proposals from the
//! pool, committed blocks flow out through a pull-based stream, and a
//! [`StopCondition`] decides when the engine stops opening new epochs —
//! with [`StopCondition::Epochs`] kept as the compatibility mode that
//! reproduces pre-redesign runs byte-for-byte.
//!
//! A [`ConsensusHandle`] is the client's view of one node's service: it is
//! cheaply cloneable, shared between the engine (which pulls batches and
//! records commits) and whatever front-end feeds it — the in-simulator
//! arrival schedule ([`ArrivalSpec`]), the UDP client gateway
//! (`wbft_consensus::netrun`), or in-process callers.
//!
//! Everything here is deterministic: the mempool is plain FIFO state keyed
//! by ordered digests, arrival schedules are derived from seeds, and
//! latency percentiles are computed over sorted sample vectors — so
//! service scenarios inherit the sweep harness's parallel == serial
//! byte-identity guarantee.

use crate::driver::{Block, Tx};
use crate::honeybadger::CIPHERTEXT_OVERHEAD;
use crate::workload::{BATCH_COUNT_BYTES, TX_LEN_BYTES};
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex};
use wbft_components::rbc::MAX_VALUE_BYTES;
use wbft_crypto::hash::Digest32;
use wbft_wireless::{SimDuration, SimTime};

/// The digest a transaction is deduplicated by.
pub fn tx_digest(tx: &[u8]) -> Digest32 {
    Digest32::of(tx)
}

/// Digest chain over a node's committed blocks: per-block content digests,
/// used by multi-process runs to cross-check that nodes agree on block
/// *contents*, not merely on transaction counts.
pub fn block_digests(blocks: &[Block]) -> Vec<Digest32> {
    blocks
        .iter()
        .map(|b| {
            let epoch = b.epoch.to_le_bytes();
            let mut parts: Vec<&[u8]> = Vec::with_capacity(b.txs.len() + 1);
            parts.push(&epoch);
            for tx in &b.txs {
                parts.push(tx);
            }
            Digest32::of_parts("wbft/service/block", &parts)
        })
        .collect()
}

// ------------------------------------------------------------------
// Mempool.

/// The most bytes a proposal batch may encode to: what one broadcast
/// instance carries ([`MAX_VALUE_BYTES`]) less the threshold ciphertext's
/// overhead, the strictest lane (HoneyBadger and BEAT encrypt their batch,
/// Dumbo does not). A larger batch would never be aired, and no instance
/// would deliver.
pub const BATCH_BUDGET: usize = MAX_VALUE_BYTES - CIPHERTEXT_OVERHEAD;

/// The explicit backpressure answer to one submission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdmitOutcome {
    /// Queued; will be proposed in an upcoming epoch.
    Admitted,
    /// Already pending, in flight, or committed — dropped so the chain
    /// carries each transaction at most once.
    Duplicate,
    /// The pool is at capacity — the client should back off and resubmit.
    Full,
    /// The transaction alone would make a batch over [`BATCH_BUDGET`]; no
    /// proposal can ever carry it.
    TooLarge,
}

/// Where a known transaction digest currently lives.
#[derive(Clone, Copy, Debug)]
enum TxPhase {
    /// Queued, waiting to be proposed (the admission sequence rides in the
    /// queue entry). Carries the local submit time.
    Waiting(SimTime),
    /// Pulled into a proposal (the epoch rides in `in_flight`), awaiting
    /// that commit. Carries the admission sequence — a re-queue slots the
    /// transaction back at its admission-order position — and the submit
    /// time.
    Proposed(u64, SimTime),
    /// In a committed block (locally admitted or learned from a peer's
    /// proposal).
    Committed,
}

/// Per-pool counters, snapshot through [`ConsensusHandle::stats`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ServiceStats {
    /// Submissions received (admitted + rejected).
    pub submitted: u64,
    /// Submissions admitted into the pool.
    pub admitted: u64,
    /// Submissions rejected as duplicates.
    pub rejected_dup: u64,
    /// Submissions rejected because the pool was full.
    pub rejected_full: u64,
    /// In-flight transactions re-queued after their proposing epoch
    /// committed without them (lost ABA, Byzantine proposer, ...).
    pub requeued: u64,
    /// Highest pending + in-flight occupancy observed.
    pub peak_occupancy: u64,
    /// Transactions still pending (queued) right now.
    pub pending: u64,
    /// Transactions currently inside an uncommitted proposal.
    pub in_flight: u64,
    /// Locally admitted transactions that reached a committed block.
    pub committed: u64,
    /// Commit latency of every locally admitted transaction (µs, in commit
    /// order).
    pub latencies_us: Vec<u64>,
}

/// A bounded, deterministic, digest-deduplicating FIFO transaction pool.
///
/// Admission is explicit ([`AdmitOutcome`]); proposals pull from the queue
/// front; transactions pulled into an epoch that commits without them are
/// re-queued *at their admission-order position* (each queue entry carries
/// its admission sequence number), so FIFO fairness survives lost
/// proposals even when several open epochs resolve out of order — a blind
/// requeue-at-front would let a later epoch's casualty jump ahead of an
/// earlier-admitted transaction that was re-queued before it.
///
/// Commit handling is two-phase: [`Mempool::resolve`] (digest bookkeeping:
/// dedup, queue eviction, in-flight re-queue) runs inside the engine
/// *before* it pulls the next epoch's batch — otherwise a transaction just
/// committed through a peer's proposal could ride again from a stale
/// queue — and [`Mempool::finalize`] assigns the commit timestamp to the
/// staged latency samples once the driver observes the block.
#[derive(Debug)]
pub struct Mempool {
    capacity: usize,
    /// Pending transactions with their admission sequence numbers, kept in
    /// ascending sequence order (re-queues insert by sequence).
    queue: VecDeque<(u64, Tx)>,
    in_flight: Vec<(u64, Tx)>,
    phases: BTreeMap<Digest32, TxPhase>,
    /// Next admission sequence number.
    next_seq: u64,
    /// `(epoch, submit time)` of locally admitted transactions whose block
    /// is resolved but not yet timestamped.
    staged: Vec<(u64, SimTime)>,
    /// Epochs `< resolved_below` have all been resolved. The engine resolves
    /// commits in epoch order, but external replays (multi-process
    /// cross-feeds, fuzz harnesses) may not — out-of-order resolutions park
    /// in `resolved_above` until the watermark catches up.
    resolved_below: u64,
    /// Resolved epochs `>= resolved_below` (gapped commits), compacted back
    /// into the watermark as gaps fill.
    resolved_above: std::collections::BTreeSet<u64>,
    stats: ServiceStats,
}

impl Mempool {
    /// An empty pool holding at most `capacity` pending transactions.
    pub fn new(capacity: usize) -> Self {
        Mempool {
            capacity,
            queue: VecDeque::new(),
            in_flight: Vec::new(),
            phases: BTreeMap::new(),
            next_seq: 0,
            staged: Vec::new(),
            resolved_below: 0,
            resolved_above: std::collections::BTreeSet::new(),
            stats: ServiceStats::default(),
        }
    }

    /// Offers one transaction at local time `now`.
    pub fn admit(&mut self, tx: Tx, now: SimTime) -> AdmitOutcome {
        self.stats.submitted += 1;
        if BATCH_COUNT_BYTES + TX_LEN_BYTES + tx.len() > BATCH_BUDGET {
            return AdmitOutcome::TooLarge;
        }
        let d = tx_digest(&tx);
        if self.phases.contains_key(&d) {
            self.stats.rejected_dup += 1;
            return AdmitOutcome::Duplicate;
        }
        if self.queue.len() >= self.capacity {
            self.stats.rejected_full += 1;
            return AdmitOutcome::Full;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.phases.insert(d, TxPhase::Waiting(now));
        self.queue.push_back((seq, tx));
        self.stats.admitted += 1;
        self.note_occupancy();
        AdmitOutcome::Admitted
    }

    /// Pulls up to `max` transactions (FIFO) into the proposal of `epoch`,
    /// stopping before the encoded batch would exceed [`BATCH_BUDGET`]; the
    /// rest stays queued, in order, for the next proposal.
    pub fn next_batch(&mut self, epoch: u64, max: usize) -> Vec<Tx> {
        let mut out = Vec::new();
        let mut encoded = BATCH_COUNT_BYTES;
        while out.len() < max {
            let Some((_, tx)) = self.queue.front() else { break };
            let d = tx_digest(tx);
            let Some(&TxPhase::Waiting(since)) = self.phases.get(&d) else {
                // Committed meanwhile through a peer's proposal — drop.
                self.queue.pop_front();
                continue;
            };
            encoded += TX_LEN_BYTES + tx.len();
            if encoded > BATCH_BUDGET {
                break;
            }
            let Some((seq, tx)) = self.queue.pop_front() else { break };
            self.phases.insert(d, TxPhase::Proposed(seq, since));
            self.in_flight.push((epoch, tx.clone()));
            out.push(tx);
        }
        out
    }

    /// Has `epoch`'s block already been resolved?
    fn epoch_resolved(&self, epoch: u64) -> bool {
        epoch < self.resolved_below || self.resolved_above.contains(&epoch)
    }

    /// Digest-level resolution of one committed block: marks every digest
    /// committed (staging latency samples for locally admitted
    /// transactions), evicts now-stale pending duplicates, and re-queues
    /// in-flight transactions whose epoch resolved without them.
    /// Idempotent per epoch — the engine calls it before pulling the next
    /// batch, and [`Mempool::record_commit`] calls it again harmlessly.
    ///
    /// Blocks may arrive out of epoch order (the engine resolves in order,
    /// but multi-process cross-feeds and fuzz replays need not): each epoch
    /// is resolved exactly once whenever its block shows up, and in-flight
    /// transactions of an epoch whose block has *not* been seen stay in
    /// flight — a gap is pending, not lost.
    pub fn resolve(&mut self, block: &Block) {
        if self.epoch_resolved(block.epoch) {
            return;
        }
        if block.epoch == self.resolved_below {
            self.resolved_below += 1;
            while self.resolved_above.remove(&self.resolved_below) {
                self.resolved_below += 1;
            }
        } else {
            self.resolved_above.insert(block.epoch);
        }
        for tx in &block.txs {
            let d = tx_digest(tx);
            match self.phases.get(&d) {
                Some(TxPhase::Waiting(since)) | Some(TxPhase::Proposed(_, since)) => {
                    self.staged.push((block.epoch, *since));
                    self.phases.insert(d, TxPhase::Committed);
                }
                Some(TxPhase::Committed) => {}
                // A peer's transaction we never saw: remember it so a later
                // local submission is deduplicated against the chain.
                None => {
                    self.phases.insert(d, TxPhase::Committed);
                }
            }
        }
        // Evict queued transactions that just committed via a peer.
        let phases = &self.phases;
        self.queue.retain(|(_, tx)| {
            matches!(phases.get(&tx_digest(tx)), Some(TxPhase::Waiting(_)))
        });
        // Resolve in-flight entries of every epoch whose block has been
        // seen: committed ones are done; the rest ride again at their
        // admission-order queue position. Entries of unresolved (gapped)
        // epochs stay in flight — their block is still coming.
        let mut keep = Vec::with_capacity(self.in_flight.len());
        let mut requeue: Vec<(u64, Tx)> = Vec::new();
        let (below, above) = (self.resolved_below, &self.resolved_above);
        for (epoch, tx) in self.in_flight.drain(..) {
            if !(epoch < below || above.contains(&epoch)) {
                keep.push((epoch, tx));
                continue;
            }
            let d = tx_digest(&tx);
            // Anything not still `Proposed` (committed, or unknown) is
            // resolved and dropped.
            if let Some(&TxPhase::Proposed(seq, since)) = self.phases.get(&d) {
                self.phases.insert(d, TxPhase::Waiting(since));
                requeue.push((seq, tx));
            }
        }
        self.in_flight = keep;
        self.stats.requeued += requeue.len() as u64;
        // Deterministic w.r.t. admission order: each casualty slots back in
        // by its admission sequence, so a later epoch resolving first can
        // never push its transactions ahead of earlier-admitted ones.
        requeue.sort_unstable_by_key(|(seq, _)| *seq);
        for (seq, tx) in requeue {
            let at = self.queue.partition_point(|(s, _)| *s < seq);
            self.queue.insert(at, (seq, tx));
        }
        self.note_occupancy();
    }

    /// Stamps commit time `now` onto every staged latency sample of epochs
    /// `<= epoch` (the driver calls this when it observes the block, in
    /// the same event that resolved it — so the stamp is the commit time).
    pub fn finalize(&mut self, epoch: u64, now: SimTime) {
        let mut rest = Vec::new();
        for (e, since) in self.staged.drain(..) {
            if e <= epoch {
                self.stats.latencies_us.push(now.saturating_since(since).as_micros());
                self.stats.committed += 1;
            } else {
                rest.push((e, since));
            }
        }
        self.staged = rest;
    }

    /// One-call commit recording: [`Mempool::resolve`] +
    /// [`Mempool::finalize`].
    pub fn record_commit(&mut self, block: &Block, now: SimTime) {
        self.resolve(block);
        self.finalize(block.epoch, now);
    }

    /// Pending (queued, not yet proposed) transactions.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Transactions inside uncommitted proposals.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Counter snapshot (with `pending`/`in_flight` filled in).
    pub fn stats(&self) -> ServiceStats {
        let mut s = self.stats.clone();
        s.pending = self.queue.len() as u64;
        s.in_flight = self.in_flight.len() as u64;
        s
    }

    fn note_occupancy(&mut self) {
        let occ = (self.queue.len() + self.in_flight.len()) as u64;
        if occ > self.stats.peak_occupancy {
            self.stats.peak_occupancy = occ;
        }
    }
}

// ------------------------------------------------------------------
// The handle.

/// A committed block as seen on the service stream: the epoch plus the
/// content digests (the full transactions stay in [`Block`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlockSummary {
    /// Epoch number.
    pub epoch: u64,
    /// Digest of every committed transaction, in block order (the count is
    /// `digests.len()`).
    pub digests: Vec<Digest32>,
}

#[derive(Debug)]
struct ServiceCore {
    mempool: Mempool,
    /// Every committed block, in commit order (the stream's backing store).
    blocks: Vec<Block>,
    /// The local pull-consumer's position in `blocks`.
    cursor: usize,
    stop: bool,
}

/// The client-facing handle of one node's consensus service.
///
/// Cheaply cloneable; every clone shares the same state, so the engine
/// (pulling proposals, recording commits) and the submission front-end
/// (arrival timers, UDP gateway, in-process callers) stay consistent. All
/// methods take `&self` — state lives behind an uncontended mutex, which
/// keeps the handle `Send + Sync` for the parallel sweep executor.
#[derive(Clone, Debug)]
pub struct ConsensusHandle {
    core: Arc<Mutex<ServiceCore>>,
}

impl ConsensusHandle {
    /// Locks the core, recovering a poisoned mutex: `ServiceCore` holds
    /// counters and Vecs mutated one field at a time, so state left by a
    /// panicking thread is still well-formed.
    fn locked(&self) -> std::sync::MutexGuard<'_, ServiceCore> {
        self.core.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// A fresh service with a mempool of `capacity`.
    pub fn new(capacity: usize) -> Self {
        ConsensusHandle {
            core: Arc::new(Mutex::new(ServiceCore {
                mempool: Mempool::new(capacity),
                blocks: Vec::new(),
                cursor: 0,
                stop: false,
            })),
        }
    }

    /// Submits one transaction; the outcome is the backpressure signal.
    pub fn submit(&self, tx: Tx, now: SimTime) -> AdmitOutcome {
        self.locked().mempool.admit(tx, now)
    }

    /// Engine hook: whether the mempool holds queued (not yet proposed)
    /// transactions — pipelined engines only open epochs beyond the
    /// sequential cadence when there is actual work to disseminate.
    pub fn has_pending(&self) -> bool {
        self.locked().mempool.pending() > 0
    }

    /// Pulls the next committed block off the stream, if one is ready.
    /// Blocks are delivered exactly once per handle family, in epoch order.
    pub fn try_next_block(&self) -> Option<Block> {
        let mut core = self.locked();
        let block = core.blocks.get(core.cursor).cloned()?;
        core.cursor += 1;
        Some(block)
    }

    /// Requests a graceful stop: the engine finishes its in-flight epoch
    /// and opens no further ones.
    pub fn stop(&self) {
        self.locked().stop = true;
    }

    /// `true` once [`ConsensusHandle::stop`] was called.
    pub fn stop_requested(&self) -> bool {
        self.locked().stop
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ServiceStats {
        self.locked().mempool.stats()
    }

    /// Submissions received so far (admitted + rejected).
    pub fn submissions(&self) -> u64 {
        self.locked().mempool.stats.submitted
    }

    /// `true` when nothing is pending or in flight — every admitted
    /// transaction has been resolved into a block (or evicted as a peer
    /// commit).
    pub fn drained(&self) -> bool {
        let core = self.locked();
        core.mempool.pending() == 0 && core.mempool.in_flight() == 0
    }

    /// Committed blocks so far.
    pub fn block_count(&self) -> usize {
        self.locked().blocks.len()
    }

    /// Stream summaries of blocks `from..`, for subscribers keeping their
    /// own cursor (e.g. the UDP client gateway).
    pub fn block_summaries(&self, from: usize) -> Vec<BlockSummary> {
        let core = self.locked();
        core.blocks[from.min(core.blocks.len())..]
            .iter()
            .map(|b| BlockSummary {
                epoch: b.epoch,
                digests: b.txs.iter().map(|tx| tx_digest(tx)).collect(),
            })
            .collect()
    }

    /// Engine hook: pulls the proposal batch for `epoch`.
    pub fn next_batch(&self, epoch: u64, max: usize) -> Vec<Tx> {
        self.locked().mempool.next_batch(epoch, max)
    }

    /// Engine hook, called at the commit *before* the next epoch's batch
    /// is pulled: digest-level resolution (dedup, eviction, re-queue)
    /// without a timestamp. See [`Mempool::resolve`].
    pub fn resolve_commit(&self, block: &Block) {
        self.locked().mempool.resolve(block);
    }

    /// Driver hook: records one committed block at local time `now` —
    /// resolves it (idempotent if the engine already did), stamps the
    /// staged latency samples, and appends the block to the stream.
    pub fn record_commit(&self, block: &Block, now: SimTime) {
        let mut core = self.locked();
        core.mempool.resolve(block);
        core.mempool.finalize(block.epoch, now);
        core.blocks.push(block.clone());
    }

    /// Restart hook: seeds a *fresh* service with the committed prefix
    /// recovered from the durable journal, before the node starts. Each
    /// block is resolved in the mempool — so a client resubmitting a
    /// transaction that committed before the crash gets
    /// [`AdmitOutcome::Duplicate`], not a second ride — and appended to the
    /// block stream (subscribers replay the recovered chain). No latency
    /// samples are staged and no commit counters move: the service did not
    /// commit these blocks in this incarnation, it inherited them.
    pub fn recover_chain(&self, blocks: &[Block]) {
        let mut core = self.locked();
        for block in blocks {
            core.mempool.resolve(block);
            core.blocks.push(block.clone());
        }
    }
}

// ------------------------------------------------------------------
// Stop conditions.

/// When an engine stops opening new epochs.
#[derive(Clone, Debug)]
pub enum StopCondition {
    /// Run exactly this many epochs — the pre-redesign benchmark mode;
    /// fixed-epoch runs through this variant are byte-identical to the old
    /// `target_epochs` API.
    Epochs(u64),
    /// Serve the handle until it requests a stop, hard-bounded at
    /// `max_epochs` so a run is finite even if the pool never drains.
    Service {
        /// The service whose stop flag ends the run.
        handle: ConsensusHandle,
        /// Upper bound on epochs regardless of the stop flag.
        max_epochs: u64,
    },
}

impl StopCondition {
    /// May the engine open `epoch`?
    pub fn allows(&self, epoch: u64) -> bool {
        match self {
            StopCondition::Epochs(n) => epoch < *n,
            StopCondition::Service { handle, max_epochs } => {
                epoch < *max_epochs && !handle.stop_requested()
            }
        }
    }

    /// Engine completion: every opened epoch committed and no further
    /// epoch may open.
    pub fn is_done(&self, started: u64, committed: u64) -> bool {
        committed >= started && !self.allows(started)
    }
}

// ------------------------------------------------------------------
// Open-loop client arrivals.

/// A deterministic open-loop client arrival schedule: every node receives
/// `per_node` submissions at a fixed `interval_us` cadence with
/// seed-derived sub-interval jitter, independent of consensus progress —
/// the "serve live traffic" workload axis of service scenarios.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArrivalSpec {
    /// Submissions arriving at each node.
    pub per_node: u64,
    /// Inter-arrival gap in microseconds of simulated time.
    pub interval_us: u64,
    /// Bytes per transaction.
    pub tx_bytes: usize,
    /// Schedule seed (distinct seeds = distinct transactions and jitter).
    pub seed: u64,
}

impl ArrivalSpec {
    /// A small default: 8 arrivals per node, one every 2 simulated
    /// seconds, 32-byte transactions.
    pub fn small() -> Self {
        ArrivalSpec { per_node: 8, interval_us: 2_000_000, tx_bytes: 32, seed: 1 }
    }

    /// The arrival schedule of `node`: `(delay from start, transaction)`
    /// pairs in non-decreasing delay order. Transactions are globally
    /// unique across nodes and indices.
    pub fn schedule(&self, node: usize) -> Vec<(SimDuration, Tx)> {
        (0..self.per_node)
            .map(|i| {
                let tag = Digest32::of_parts(
                    "wbft/service/arrival",
                    &[
                        &self.seed.to_le_bytes(),
                        &(node as u64).to_le_bytes(),
                        &i.to_le_bytes(),
                    ],
                );
                // Deterministic jitter inside the slot keeps nodes out of
                // lockstep while preserving monotonic per-node order.
                let jitter = if self.interval_us > 0 {
                    tag.as_bytes()
                        .get(..8)
                        .and_then(|b| b.try_into().ok())
                        .map(u64::from_le_bytes)
                        .unwrap_or(0)
                        % self.interval_us
                } else {
                    0
                };
                let at = SimDuration::from_micros(i * self.interval_us + jitter);
                let mut tx = Vec::with_capacity(self.tx_bytes);
                while tx.len() < self.tx_bytes {
                    let take = (self.tx_bytes - tx.len()).min(32);
                    tx.extend_from_slice(&tag.as_bytes()[..take]);
                }
                (at, bytes::Bytes::from(tx))
            })
            .collect()
    }
}

/// The service side of a testbed experiment: the arrival load plus the
/// pool and epoch bounds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Client arrival schedule.
    pub arrivals: ArrivalSpec,
    /// Mempool capacity per node.
    pub mempool_capacity: usize,
    /// Hard epoch bound (the run also ends at the config deadline).
    pub max_epochs: u64,
}

impl ServiceConfig {
    /// Defaults matched to the single-hop LoRa testbed's epoch cadence.
    pub fn small() -> Self {
        ServiceConfig { arrivals: ArrivalSpec::small(), mempool_capacity: 256, max_epochs: 64 }
    }
}

// ------------------------------------------------------------------
// Aggregated reporting.

/// Percentile summary over per-transaction commit latencies.
#[derive(Clone, Debug, PartialEq)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: u64,
    /// Mean latency in µs (0 when there are no samples).
    pub mean_us: f64,
    /// Median.
    pub p50_us: u64,
    /// 90th percentile.
    pub p90_us: u64,
    /// 99th percentile.
    pub p99_us: u64,
    /// Slowest sample.
    pub max_us: u64,
}

impl LatencySummary {
    /// Percentiles over `samples` (sorted internally): percentile `p` is
    /// the sample at index `round(p · (len − 1))` of the sorted list, so
    /// p50 of an even count is the upper of the two middle samples.
    pub fn from_samples(samples: &[u64]) -> Self {
        if samples.is_empty() {
            return LatencySummary {
                count: 0,
                mean_us: 0.0,
                p50_us: 0,
                p90_us: 0,
                p99_us: 0,
                max_us: 0,
            };
        }
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let pick = |p: f64| -> u64 {
            let idx = ((p * (sorted.len() - 1) as f64).round()) as usize;
            sorted[idx.min(sorted.len() - 1)]
        };
        LatencySummary {
            count: sorted.len() as u64,
            mean_us: sorted.iter().sum::<u64>() as f64 / sorted.len() as f64,
            p50_us: pick(0.50),
            p90_us: pick(0.90),
            p99_us: pick(0.99),
            max_us: sorted.last().copied().unwrap_or(0),
        }
    }
}

/// The service section of a [`RunReport`](crate::testbed::RunReport):
/// submission/backpressure counters plus commit-latency percentiles,
/// aggregated over the run's (honest) nodes.
#[derive(Clone, Debug, PartialEq)]
pub struct ServiceReport {
    /// Submissions received across nodes.
    pub submitted: u64,
    /// Submissions admitted.
    pub admitted: u64,
    /// Duplicate rejections.
    pub rejected_dup: u64,
    /// Capacity rejections (the mempool drop count).
    pub rejected_full: u64,
    /// Re-queued in-flight transactions.
    pub requeued: u64,
    /// Highest per-node occupancy observed.
    pub peak_occupancy: u64,
    /// Transactions still pending or in flight when the run ended.
    pub pending_at_stop: u64,
    /// Locally admitted transactions that reached a committed block.
    pub committed_client_txs: u64,
    /// Commit latency percentiles over all nodes' samples.
    pub latency: LatencySummary,
}

impl ServiceReport {
    /// Aggregates per-node stats into the run-level report.
    pub fn aggregate(stats: &[ServiceStats]) -> Self {
        let mut samples = Vec::new();
        for s in stats {
            samples.extend_from_slice(&s.latencies_us);
        }
        samples.sort_unstable();
        ServiceReport {
            submitted: stats.iter().map(|s| s.submitted).sum(),
            admitted: stats.iter().map(|s| s.admitted).sum(),
            rejected_dup: stats.iter().map(|s| s.rejected_dup).sum(),
            rejected_full: stats.iter().map(|s| s.rejected_full).sum(),
            requeued: stats.iter().map(|s| s.requeued).sum(),
            peak_occupancy: stats.iter().map(|s| s.peak_occupancy).max().unwrap_or(0),
            pending_at_stop: stats.iter().map(|s| s.pending + s.in_flight).sum(),
            committed_client_txs: stats.iter().map(|s| s.committed).sum(),
            latency: LatencySummary::from_samples(&samples),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn tx(tag: u8) -> Tx {
        Bytes::from(vec![tag; 24])
    }

    #[test]
    fn admit_dedup_and_capacity() {
        let mut m = Mempool::new(2);
        let t0 = SimTime::ZERO;
        assert_eq!(m.admit(tx(1), t0), AdmitOutcome::Admitted);
        assert_eq!(m.admit(tx(1), t0), AdmitOutcome::Duplicate);
        assert_eq!(m.admit(tx(2), t0), AdmitOutcome::Admitted);
        assert_eq!(m.admit(tx(3), t0), AdmitOutcome::Full);
        let s = m.stats();
        assert_eq!((s.submitted, s.admitted, s.rejected_dup, s.rejected_full), (4, 2, 1, 1));
        assert_eq!(s.peak_occupancy, 2);
        // A full-rejected transaction may be retried once space frees.
        let batch = m.next_batch(0, 10);
        assert_eq!(batch.len(), 2);
        assert_eq!(m.admit(tx(3), t0), AdmitOutcome::Admitted);
    }

    #[test]
    fn batches_stay_within_the_budget_and_an_oversize_tx_is_refused() {
        use crate::workload::encode_batch;
        let mut m = Mempool::new(64);
        // The largest transaction a proposal carries alone, and one byte more.
        let max = BATCH_BUDGET - BATCH_COUNT_BYTES - TX_LEN_BYTES;
        assert_eq!(m.admit(Bytes::from(vec![0; max + 1]), SimTime::ZERO), AdmitOutcome::TooLarge);
        assert_eq!(m.admit(Bytes::from(vec![0; max]), SimTime::ZERO), AdmitOutcome::Admitted);
        let admitted: Vec<Tx> = (1..=40).map(|tag| Bytes::from(vec![tag; 400])).collect();
        for tx in &admitted {
            assert_eq!(m.admit(tx.clone(), SimTime::ZERO), AdmitOutcome::Admitted);
        }
        let (mut drained, mut sizes) = (Vec::new(), Vec::new());
        for epoch in 0.. {
            let batch = m.next_batch(epoch, 32);
            if batch.is_empty() {
                break;
            }
            assert!(encode_batch(&batch).len() <= BATCH_BUDGET, "epoch {epoch}");
            sizes.push(batch.len());
            drained.extend(batch);
        }
        // The full-size transaction rides alone; the rest follow in order,
        // 23 of 400 B to a proposal instead of 32.
        assert_eq!(sizes, [1, 23, 17]);
        assert_eq!(drained[0].len(), max);
        assert_eq!(drained[1..], admitted[..]);
        assert_eq!(m.stats().submitted, 42);
    }

    #[test]
    fn fifo_order_and_requeue_on_lost_proposal() {
        let mut m = Mempool::new(16);
        for tag in 1..=4 {
            m.admit(tx(tag), SimTime::ZERO);
        }
        let batch = m.next_batch(0, 2);
        assert_eq!(batch, vec![tx(1), tx(2)]);
        // Epoch 0 commits with only tx(2) (tx(1)'s instance lost its ABA):
        // tx(1) must ride again at the front, ahead of 3 and 4.
        m.record_commit(&Block { epoch: 0, txs: vec![tx(2)] }, SimTime::from_micros(5));
        assert_eq!(m.stats().requeued, 1);
        let batch = m.next_batch(1, 10);
        assert_eq!(batch, vec![tx(1), tx(3), tx(4)]);
    }

    #[test]
    fn out_of_order_commits_resolve_each_epoch_once() {
        // The bug this guards against: `resolve` used a single watermark and
        // silently ignored any block below it, so an out-of-order replay
        // (epoch 1 before epoch 0) never resolved epoch 0 — its lost
        // transactions stayed in flight forever.
        let mut m = Mempool::new(16);
        for tag in 1..=4 {
            m.admit(tx(tag), SimTime::ZERO);
        }
        assert_eq!(m.next_batch(0, 2), vec![tx(1), tx(2)]);
        assert_eq!(m.next_batch(1, 2), vec![tx(3), tx(4)]);
        // Epoch 1 commits first, without tx(4): tx(4) rides again, but
        // epoch 0's entries must stay in flight — their block is pending.
        m.record_commit(&Block { epoch: 1, txs: vec![tx(3)] }, SimTime::from_micros(5));
        assert_eq!(m.stats().requeued, 1);
        assert_eq!(m.in_flight(), 2, "epoch 0 still unresolved");
        assert_eq!(m.pending(), 1);
        // Epoch 0's block arrives late, without tx(2): it must still be
        // resolved (not ignored as "already past"), re-queuing tx(2).
        m.record_commit(&Block { epoch: 0, txs: vec![tx(1)] }, SimTime::from_micros(9));
        assert_eq!(m.stats().requeued, 2);
        assert_eq!(m.in_flight(), 0);
        assert_eq!(m.next_batch(2, 10), vec![tx(2), tx(4)]);
        // Idempotent in any order: replaying either block changes nothing.
        m.record_commit(&Block { epoch: 0, txs: vec![tx(1)] }, SimTime::from_micros(11));
        m.record_commit(&Block { epoch: 1, txs: vec![tx(3)] }, SimTime::from_micros(11));
        assert_eq!(m.stats().requeued, 2);
        assert_eq!(m.stats().latencies_us.len(), 2);
    }

    #[test]
    fn gapped_commits_keep_unseen_epochs_in_flight() {
        let mut m = Mempool::new(16);
        for tag in 1..=3 {
            m.admit(tx(tag), SimTime::ZERO);
        }
        assert_eq!(m.next_batch(0, 1), vec![tx(1)]);
        assert_eq!(m.next_batch(1, 1), vec![tx(2)]);
        assert_eq!(m.next_batch(2, 1), vec![tx(3)]);
        m.record_commit(&Block { epoch: 0, txs: vec![tx(1)] }, SimTime::from_micros(1));
        // Epoch 2 commits empty while epoch 1 is still a gap: tx(3) rides
        // again, tx(2) must NOT be requeued — epoch 1's block is pending,
        // and requeueing it would let it commit twice.
        m.record_commit(&Block { epoch: 2, txs: vec![] }, SimTime::from_micros(2));
        assert_eq!(m.stats().requeued, 1);
        assert_eq!(m.in_flight(), 1, "epoch 1's entry stays in flight");
        // The gap fills: epoch 1 commits its transaction normally.
        m.record_commit(&Block { epoch: 1, txs: vec![tx(2)] }, SimTime::from_micros(3));
        assert_eq!(m.in_flight(), 0);
        assert_eq!(m.stats().requeued, 1, "committed in-flight tx never requeued");
        assert_eq!(m.next_batch(3, 10), vec![tx(3)]);
        assert_eq!(m.stats().latencies_us.len(), 2);
    }

    #[test]
    fn out_of_order_requeue_keeps_admission_order() {
        // The reorder bug: with several epochs open at once (pipelined
        // runs), a blind requeue-at-front let the casualty of a *later*
        // epoch jump ahead of an earlier-admitted transaction that had
        // already been re-queued — admission-order FIFO silently broke.
        let mut m = Mempool::new(16);
        for tag in 1..=3 {
            m.admit(tx(tag), SimTime::ZERO); // seqs 0, 1, 2
        }
        assert_eq!(m.next_batch(0, 1), vec![tx(1)]);
        assert_eq!(m.next_batch(1, 1), vec![tx(2)]);
        assert_eq!(m.next_batch(2, 1), vec![tx(3)]);
        // Epoch 0 resolves first, without tx(1): it rides again.
        m.record_commit(&Block { epoch: 0, txs: vec![] }, SimTime::from_micros(1));
        // A fresh admission lands behind the requeued tx(1).
        m.admit(tx(4), SimTime::from_micros(2)); // seq 3
        // Epoch 2 resolves next, also empty. Requeue-at-front would put
        // tx(3) (seq 2) ahead of tx(1) (seq 0).
        m.record_commit(&Block { epoch: 2, txs: vec![] }, SimTime::from_micros(3));
        // Epoch 1 resolves last, empty too: tx(2) must slot between them.
        m.record_commit(&Block { epoch: 1, txs: vec![] }, SimTime::from_micros(4));
        assert_eq!(m.stats().requeued, 3);
        assert_eq!(
            m.next_batch(3, 10),
            vec![tx(1), tx(2), tx(3), tx(4)],
            "requeues must restore admission order regardless of resolution order"
        );
    }

    #[test]
    fn peer_commit_evicts_pending_duplicate_and_dedups_later_submissions() {
        let mut m = Mempool::new(16);
        m.admit(tx(7), SimTime::ZERO);
        // A peer's proposal committed the same transaction first.
        m.record_commit(&Block { epoch: 0, txs: vec![tx(7), tx(9)] }, SimTime::from_micros(3));
        assert_eq!(m.pending(), 0);
        // Latency recorded for our admitted copy; the foreign tx(9) is
        // remembered for chain-level dedup but adds no sample.
        assert_eq!(m.stats().latencies_us, vec![3]);
        assert_eq!(m.admit(tx(7), SimTime::ZERO), AdmitOutcome::Duplicate);
        assert_eq!(m.admit(tx(9), SimTime::ZERO), AdmitOutcome::Duplicate);
    }

    #[test]
    fn handle_stream_delivers_blocks_once_in_order() {
        let h = ConsensusHandle::new(8);
        assert!(h.try_next_block().is_none());
        h.record_commit(&Block { epoch: 0, txs: vec![tx(1)] }, SimTime::from_micros(1));
        h.record_commit(&Block { epoch: 1, txs: vec![] }, SimTime::from_micros(2));
        assert_eq!(h.try_next_block().map(|b| b.epoch), Some(0));
        assert_eq!(h.try_next_block().map(|b| b.epoch), Some(1));
        assert!(h.try_next_block().is_none());
        assert_eq!(h.block_count(), 2);
        let summaries = h.block_summaries(1);
        assert_eq!(summaries.len(), 1);
        assert_eq!(summaries[0].epoch, 1);
    }

    #[test]
    fn recover_chain_dedups_streams_and_stays_latency_silent() {
        let h = ConsensusHandle::new(8);
        h.recover_chain(&[
            Block { epoch: 0, txs: vec![tx(1)] },
            Block { epoch: 1, txs: vec![] },
        ]);
        // Recovered blocks reach the stream (a re-subscribing client
        // replays the chain)...
        assert_eq!(h.block_count(), 2);
        assert_eq!(h.try_next_block().map(|b| b.epoch), Some(0));
        // ...dedup survives the restart...
        assert_eq!(h.submit(tx(1), SimTime::ZERO), AdmitOutcome::Duplicate);
        assert_eq!(h.submit(tx(2), SimTime::ZERO), AdmitOutcome::Admitted);
        // ...but no commit counters or latency samples move: this
        // incarnation inherited the blocks, it did not commit them.
        let s = h.stats();
        assert_eq!(s.committed, 0);
        assert!(s.latencies_us.is_empty());
    }

    #[test]
    fn stop_condition_modes() {
        let fixed = StopCondition::Epochs(2);
        assert!(fixed.allows(0) && fixed.allows(1) && !fixed.allows(2));
        assert!(!fixed.is_done(2, 1));
        assert!(fixed.is_done(2, 2));
        let h = ConsensusHandle::new(8);
        let svc = StopCondition::Service { handle: h.clone(), max_epochs: 3 };
        assert!(svc.allows(0) && svc.allows(2) && !svc.allows(3));
        assert!(!svc.is_done(1, 1), "no stop requested, more epochs allowed");
        h.stop();
        assert!(!svc.allows(0));
        assert!(!svc.is_done(2, 1), "in-flight epoch must still finish");
        assert!(svc.is_done(2, 2));
    }

    #[test]
    fn arrival_schedules_are_deterministic_monotonic_and_distinct() {
        let spec = ArrivalSpec { per_node: 6, interval_us: 1_000, tx_bytes: 32, seed: 9 };
        let a = spec.schedule(0);
        assert_eq!(a, spec.schedule(0));
        assert_ne!(a, spec.schedule(1));
        assert!(a.windows(2).all(|w| w[0].0 <= w[1].0), "arrivals must be ordered");
        let mut digests: Vec<_> = a.iter().map(|(_, tx)| tx_digest(tx)).collect();
        digests.extend(spec.schedule(1).iter().map(|(_, tx)| tx_digest(tx)));
        digests.sort_unstable();
        digests.dedup();
        assert_eq!(digests.len(), 12, "transactions unique across nodes and slots");
    }

    #[test]
    fn latency_summary_percentiles() {
        let samples: Vec<u64> = (1..=100).collect();
        let s = LatencySummary::from_samples(&samples);
        assert_eq!(s.count, 100);
        assert_eq!(s.p50_us, 51);
        assert_eq!(s.p90_us, 90);
        assert_eq!(s.p99_us, 99);
        assert_eq!(s.max_us, 100);
        assert!((s.mean_us - 50.5).abs() < 1e-9);
        let empty = LatencySummary::from_samples(&[]);
        assert_eq!((empty.count, empty.max_us), (0, 0));
    }

    #[test]
    fn block_digests_depend_on_content_and_epoch() {
        let a = vec![Block { epoch: 0, txs: vec![tx(1)] }];
        let b = vec![Block { epoch: 0, txs: vec![tx(2)] }];
        let c = vec![Block { epoch: 1, txs: vec![tx(1)] }];
        assert_ne!(block_digests(&a), block_digests(&b));
        assert_ne!(block_digests(&a), block_digests(&c));
        assert_eq!(block_digests(&a), block_digests(&a));
    }
}
