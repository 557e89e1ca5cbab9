//! The per-layer cost account: every layer measured from outside, by timing
//! calls into its public functions.
//!
//! Two kinds of rows. *Unit costs* (`crypto.*`, `components.*`, `journal.*`,
//! `membership.*`, the two `core.mempool_*` rows) time a fixed procedure and
//! read the same on every workload. *Workload rows* (`net.*` replay,
//! `wireless.*`, the rest of `core.*`) are derived from what the traced pass
//! of this workload recorded.

use crate::metrics::MetricSet;
use crate::sim::{derive_seed, ChannelKeys};
use crate::stats;
use crate::timed::{CallKind, Recorder};
use bytes::Bytes;
use rand::SeedableRng;
use std::collections::VecDeque;
use std::time::{Duration, Instant};
use wbft_components::aba_lc::AbaLcBatch;
use wbft_components::aba_sc::AbaScBatch;
use wbft_components::cbc::CbcBatch;
use wbft_components::prbc::PrbcBatch;
use wbft_components::rbc::RbcBatch;
use wbft_components::{
    deal_node_crypto, Actions, BinaryAgreement, Broadcaster, Params, SigShareBuf,
};
use wbft_consensus::{Block, BlockJournal, Mempool};
use wbft_crypto::merkle::MerkleTree;
use wbft_crypto::thresh_coin::CoinName;
use wbft_crypto::{thresh_sig, CryptoSuite, Digest32};
use wbft_net::wire::{ByteSink, WireReader};
use wbft_net::{Body, CoinFlavor, Datagram, Envelope};
use wbft_wireless::SimTime;

/// Wall time spent measuring each unit cost.
const OP_BUDGET: Duration = Duration::from_millis(25);

/// Mean microseconds per call of `f`, measured for about [`OP_BUDGET`]
/// after one untimed call (so lazily built tables and memos are warm — the
/// state every epoch after the first runs in).
fn time_us<R>(mut f: impl FnMut() -> R) -> f64 {
    std::hint::black_box(f());
    let started = Instant::now();
    let mut calls = 0u64;
    loop {
        std::hint::black_box(f());
        calls += 1;
        let elapsed = started.elapsed();
        if elapsed >= OP_BUDGET {
            return elapsed.as_secs_f64() * 1e6 / calls as f64;
        }
    }
}

/// `len` bytes of transaction `i` of stream `seed`: distinct per `(seed, i)`.
pub fn tx_of(seed: u64, i: u64, len: usize) -> Bytes {
    let tag = Digest32::of_parts(
        "wbft/benchmark/tx",
        &[&seed.to_le_bytes(), &i.to_le_bytes()],
    );
    Bytes::from(
        tag.as_bytes()
            .iter()
            .copied()
            .cycle()
            .take(len)
            .collect::<Vec<u8>>(),
    )
}

/// `crypto.*`: the operations an epoch performs, at the quorum sizes an
/// n = 4 deployment collects (2f + 1 = 3 signature shares, f + 1 = 2 coin
/// and decryption shares), plus the n = 16 signature quorum.
pub fn crypto_account(seed: u64, out: &mut MetricSet) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(derive_seed(seed, 0xc0));
    let suite = CryptoSuite::light();
    let deal_us = time_us(|| deal_node_crypto(4, suite, &mut rng));
    out.set("crypto.deal_ms", deal_us / 1e3);
    let nodes = deal_node_crypto(4, suite, &mut rng);
    let msg = b"wbft benchmark: one message every share signs";

    let sig = nodes[0].keypair.sign(msg);
    out.set(
        "crypto.schnorr_sign_us",
        time_us(|| nodes[0].keypair.sign(msg)),
    );
    out.set(
        "crypto.schnorr_verify_us",
        time_us(|| nodes[1].peer_keys[0].verify(msg, &sig)),
    );

    let shares: Vec<_> = nodes
        .iter()
        .take(3)
        .map(|n| n.cbc_sec.sign_share(msg))
        .collect();
    let keys = &nodes[3].cbc_pub;
    let combined = keys.combine(&shares).expect("three honest shares combine");
    out.set(
        "crypto.sig_share_sign_us",
        time_us(|| nodes[0].cbc_sec.sign_share(msg)),
    );
    out.set(
        "crypto.sig_shares_verify_us",
        time_us(|| keys.verify_shares(msg, &shares)),
    );
    out.set("crypto.sig_combine_us", time_us(|| keys.combine(&shares)));
    out.set(
        "crypto.sig_verify_us",
        time_us(|| keys.verify(msg, &combined)),
    );

    let name = CoinName {
        session: 1,
        round: 0,
        domain: 0,
    };
    let coin_shares: Vec<_> = nodes
        .iter()
        .take(2)
        .map(|n| n.coin_sec.coin_share(name))
        .collect();
    let coin = &nodes[3].coin_pub;
    out.set(
        "crypto.coin_share_us",
        time_us(|| nodes[0].coin_sec.coin_share(name)),
    );
    out.set(
        "crypto.coin_shares_verify_us",
        time_us(|| coin.verify_shares(name, &coin_shares)),
    );
    out.set(
        "crypto.coin_combine_us",
        time_us(|| coin.combine(name, &coin_shares)),
    );

    let plaintext = vec![0x5au8; 4096];
    let enc = &nodes[3].enc_pub;
    let ct = enc.encrypt(b"label", &plaintext, &mut rng);
    let dec_shares: Vec<_> = nodes
        .iter()
        .take(2)
        .map(|n| n.enc_sec.dec_share(&ct))
        .collect();
    out.set(
        "crypto.enc_encrypt_us",
        time_us(|| enc.encrypt(b"label", &plaintext, &mut rng)),
    );
    out.set(
        "crypto.dec_share_us",
        time_us(|| nodes[0].enc_sec.dec_share(&ct)),
    );
    out.set(
        "crypto.dec_share_verify_us",
        time_us(|| enc.verify_share(&ct, &dec_shares[0])),
    );
    out.set(
        "crypto.dec_combine_us",
        time_us(|| enc.decrypt(b"label", &ct, &dec_shares)),
    );

    let leaves: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i; 1024]).collect();
    out.set(
        "crypto.merkle_build_us",
        time_us(|| MerkleTree::build(&leaves)),
    );
    let mib = vec![0xa5u8; 1 << 20];
    out.set(
        "crypto.hash_mib_per_s",
        1e6 / time_us(|| Digest32::of(&mib)),
    );

    let (keys16, secrets16) = thresh_sig::deal(16, 10, suite.threshold, &mut rng);
    let shares16: Vec<_> = secrets16
        .iter()
        .take(11)
        .map(|s| s.sign_share(msg))
        .collect();
    out.set(
        "crypto.sig_shares_verify_us.n16",
        time_us(|| keys16.verify_shares(msg, &shares16)),
    );
    out.set(
        "crypto.sig_combine_us.n16",
        time_us(|| keys16.combine(&shares16)),
    );
}

/// The wires of the in-memory mesh: broadcasts in flight, timers each node
/// has armed, and the broadcast count.
struct Mesh {
    queue: VecDeque<(usize, Body)>,
    timers: Vec<Vec<u32>>,
    msgs: u64,
}

impl Mesh {
    /// Takes what node `i` just emitted.
    fn absorb(&mut self, i: usize, acts: &mut Actions) {
        let (sends, timers, _) = acts.drain();
        self.msgs += sends.len() as u64;
        self.queue.extend(sends.into_iter().map(|body| (i, body)));
        for (_, id) in timers {
            if !self.timers[i].contains(&id) {
                self.timers[i].push(id);
            }
        }
    }
}

/// No n = 4 batch needs anywhere near this many broadcasts; past it the
/// instances are answering each other in a loop.
const MESH_MESSAGE_CAP: u64 = 10_000;

/// Runs one component batch across four instances wired by a zero-delay,
/// lossless in-memory mesh and returns `(messages broadcast, completed)`.
/// Timers (retransmission ticks) fire only when the mesh goes quiet before
/// completion, so the count is the loss-free message complexity.
fn run_mesh<C>(
    nodes: &mut [C],
    start: impl Fn(&mut C, usize, &mut Actions),
    handle: impl Fn(&mut C, usize, &Body, &mut Actions),
    timer: impl Fn(&mut C, u32, &mut Actions),
    done: impl Fn(&C) -> bool,
) -> (u64, bool) {
    let mut mesh = Mesh {
        queue: VecDeque::new(),
        timers: vec![Vec::new(); nodes.len()],
        msgs: 0,
    };
    let mut acts = Actions::new();
    for (i, node) in nodes.iter_mut().enumerate() {
        start(node, i, &mut acts);
        mesh.absorb(i, &mut acts);
    }
    // Bounded: a component that cannot finish on a lossless mesh is a bug
    // to report, not a loop to hang in.
    for _ in 0..64 {
        // Done is checked per delivery, not when the mesh goes quiet: a
        // decided agreement batch keeps voting for as long as peers talk.
        while let Some((src, body)) = mesh.queue.pop_front() {
            if nodes.iter().all(&done) {
                return (mesh.msgs, true);
            }
            if mesh.msgs > MESH_MESSAGE_CAP {
                return (mesh.msgs, false);
            }
            for i in (0..nodes.len()).filter(|&i| i != src) {
                handle(&mut nodes[i], src, &body, &mut acts);
                mesh.absorb(i, &mut acts);
            }
        }
        if nodes.iter().all(&done) {
            return (mesh.msgs, true);
        }
        for (i, node) in nodes.iter_mut().enumerate() {
            for id in std::mem::take(&mut mesh.timers[i]) {
                timer(node, id, &mut acts);
                mesh.absorb(i, &mut acts);
            }
        }
    }
    (mesh.msgs, false)
}

/// Times `build + run` of a component mesh minus `build` alone, so the row
/// is the protocol work and not the constructors' table precompute.
fn mesh_cost<C>(build: impl Fn() -> Vec<C>, run: impl Fn(&mut [C]) -> (u64, bool)) -> (f64, u64) {
    let (msgs, completed) = run(&mut build());
    assert!(
        completed,
        "component did not complete on a lossless mesh ({msgs} messages)"
    );
    let build_us = time_us(&build);
    let total_us = time_us(|| run(&mut build()));
    ((total_us - build_us).max(0.0), msgs)
}

/// A broadcast component run until `done` at all four nodes, each
/// proposing 512 bytes.
fn broadcast_mesh<C: Broadcaster>(
    seed: u64,
    done: impl Fn(&C) -> bool,
) -> impl Fn(&mut [C]) -> (u64, bool) {
    move |nodes| {
        run_mesh(
            nodes,
            |c, i, a| c.start(tx_of(seed, i as u64, 512), a),
            |c, from, body, a| c.handle(from, body, a),
            |c, id, a| c.on_timer(id, a),
            &done,
        )
    }
}

/// An agreement component run until all four instances decide everywhere.
/// Inputs are mixed (instances 0 and 1 get 1 from everyone, 2 and 3 split
/// by node parity) so the coin path runs too.
fn agreement_mesh<C: BinaryAgreement>(nodes: &mut [C]) -> (u64, bool) {
    run_mesh(
        nodes,
        |c, i, a| {
            for instance in 0..4 {
                c.set_input(instance, instance < 2 || i % 2 == 0, a);
            }
        },
        |c, from, body, a| c.handle(from, body, a),
        |c, id, a| c.on_timer(id, a),
        |c| c.decided_count() == 4,
    )
}

/// `components.*`: each batched component run to completion across n = 4.
pub fn components_account(seed: u64, out: &mut MetricSet) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(derive_seed(seed, 0xc1));
    let crypto = deal_node_crypto(4, CryptoSuite::light(), &mut rng);
    let params = |i: usize| Params::new(4, i, 1);

    let (us, msgs) = mesh_cost(
        || (0..4).map(|i| RbcBatch::new(params(i))).collect(),
        broadcast_mesh(seed, |c: &RbcBatch| c.delivered_count() == 4),
    );
    out.set("components.rbc_us", us);
    out.set("components.rbc_msgs", msgs as f64);
    let (us, msgs) = mesh_cost(
        || {
            crypto
                .iter()
                .enumerate()
                .map(|(i, c)| PrbcBatch::new(params(i), c.prbc_pub.clone(), c.prbc_sec.clone()))
                .collect()
        },
        broadcast_mesh(seed, |c: &PrbcBatch| {
            c.delivered_count() == 4 && c.proven_count() == 4
        }),
    );
    out.set("components.prbc_us", us);
    out.set("components.prbc_msgs", msgs as f64);
    let (us, _) = mesh_cost(
        || {
            crypto
                .iter()
                .enumerate()
                .map(|(i, c)| CbcBatch::new(params(i), c.cbc_pub.clone(), c.cbc_sec.clone()))
                .collect()
        },
        broadcast_mesh(seed, |c: &CbcBatch| c.delivered_count() == 4),
    );
    out.set("components.cbc_us", us);

    let (us, msgs) = mesh_cost(
        || {
            crypto
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    AbaScBatch::new_parallel(
                        params(i),
                        CoinFlavor::ThreshSig,
                        c.coin_pub.clone(),
                        c.coin_sec.clone(),
                    )
                })
                .collect()
        },
        agreement_mesh::<AbaScBatch>,
    );
    out.set("components.aba_sc_us", us);
    out.set("components.aba_sc_msgs", msgs as f64);
    let (us, _) = mesh_cost(
        || (0..4).map(|i| AbaLcBatch::new(params(i))).collect(),
        agreement_mesh::<AbaLcBatch>,
    );
    out.set("components.aba_lc_us", us);

    // One share buffer filled to the CBC quorum and settled (batch verify).
    let msg = b"settle";
    let shares: Vec<_> = crypto
        .iter()
        .take(3)
        .map(|c| c.cbc_sec.sign_share(msg))
        .collect();
    out.set(
        "components.sharebuf_settle_us",
        time_us(|| {
            let mut buf = SigShareBuf::default();
            for s in &shares {
                buf.insert(*s, 4);
            }
            buf.settle(&crypto[3].cbc_pub, msg, 3)
        }),
    );
}

/// `core.mempool_*`: admission alone, and the full admit → batch → commit
/// cycle per transaction, on 64-byte transactions in 32-transaction blocks.
pub fn mempool_account(seed: u64, out: &mut MetricSet) {
    const TXS: u64 = 1024;
    let txs: Vec<Bytes> = (0..TXS).map(|i| tx_of(seed, i, 64)).collect();
    let admit_all = |pool: &mut Mempool| {
        for tx in &txs {
            pool.admit(tx.clone(), SimTime::ZERO);
        }
    };
    let admit_us = time_us(|| admit_all(&mut Mempool::new(4096)));
    let cycle_us = time_us(|| {
        let mut pool = Mempool::new(4096);
        admit_all(&mut pool);
        for epoch in 0..TXS / 32 {
            let batch = pool.next_batch(epoch, 32);
            pool.record_commit(&Block { epoch, txs: batch }, SimTime::from_micros(epoch));
        }
        pool.pending()
    });
    out.set("core.mempool_admit_us", admit_us / TXS as f64);
    out.set("core.mempool_cycle_us_per_tx", cycle_us / TXS as f64);
}

/// `journal.*`: append of a 4 KiB block to a file and to memory (the
/// difference is the write syscall), and recovery of a 1000-block journal.
pub fn journal_account(seed: u64, dir: &std::path::Path, out: &mut MetricSet) {
    let block = |epoch: u64| Block {
        epoch,
        txs: (0..16).map(|i| tx_of(seed, epoch * 16 + i, 256)).collect(),
    };
    let blocks: Vec<Block> = (0..1000).map(block).collect();
    let append_all = |store: Box<dyn wbft_journal::JournalStore + Send>, count: usize| -> f64 {
        let (mut journal, _) = BlockJournal::open(store).expect("fresh journal opens");
        let started = Instant::now();
        for b in &blocks[..count] {
            journal.append(b).expect("journal append");
        }
        started.elapsed().as_secs_f64() * 1e6 / count as f64
    };
    std::fs::create_dir_all(dir).expect("create benchmark output dir");
    let path = dir.join("layer-account.journal");
    let _ = std::fs::remove_file(&path);
    let file = wbft_journal::FileStore::open(&path).expect("open journal file");
    out.set("journal.append_us", append_all(Box::new(file), 250));
    let file_bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    out.set("journal.bytes_per_block", file_bytes as f64 / 250.0);
    let _ = std::fs::remove_file(&path);

    let shared = wbft_journal::SharedMem::new();
    out.set(
        "journal.append_mem_us",
        append_all(Box::new(shared.clone()), 1000),
    );
    let image = shared.snapshot();
    let replay_us = time_us(|| {
        let store = wbft_journal::MemStore::from_bytes(image.clone());
        BlockJournal::open(Box::new(store)).map(|(_, recovered)| recovered.len())
    });
    out.set("journal.replay_blocks_per_s", 1000.0 / (replay_us / 1e6));
}

/// `membership.*`: one 4 → 4 swap resharing ceremony (node 4 joins, node 0
/// leaves) end to end, and one simulated hb-sc run with that churn.
pub fn membership_account(seed: u64, out: &mut MetricSet) {
    use wbft_membership::{CommitteeLog, DealSet, MembershipOp, ReshareCeremony};
    let mut rng = rand::rngs::StdRng::seed_from_u64(derive_seed(seed, 0xc2));
    let genesis = deal_node_crypto(4, CryptoSuite::light(), &mut rng);
    let ops = [MembershipOp::Join(4), MembershipOp::Leave(0)];
    let mut log = CommitteeLog::new(4);
    let new = log
        .on_commit(1, &ops)
        .cloned()
        .expect("swap yields a new committee");
    let old = log.config_at(0).clone();
    let ceremony_us = time_us(|| {
        let mut ceremony = ReshareCeremony::new(old.clone(), new.clone());
        for dealer in ceremony.dealers().to_vec() {
            let deal = ceremony
                .make_deal(&genesis[dealer as usize], dealer, &mut rng)
                .expect("canonical dealer deals");
            // Through the wire codec, as the engine receives it.
            let deal = DealSet::decode(&deal.encode()).expect("deal set roundtrips");
            assert!(ceremony.absorb(deal, &genesis[0]));
        }
        new.members
            .iter()
            .map(|&g| {
                ceremony
                    .rolled_crypto(&genesis[(g as usize).min(3)], g)
                    .is_some()
            })
            .filter(|rolled| *rolled)
            .count()
    });
    out.set("membership.reshare_ceremony_ms", ceremony_us / 1e3);

    let mut cfg =
        wbft_consensus::TestbedConfig::single_hop(wbft_consensus::Protocol::HoneyBadgerSc);
    cfg.epochs = 6;
    cfg.seed = derive_seed(seed, 0xc3);
    cfg.churn = Some(wbft_consensus::testbed::ChurnPlan {
        from_epoch: 1,
        ops: ops.to_vec(),
    });
    let report = wbft_consensus::run(&cfg);
    assert!(report.completed, "churn run did not complete");
    out.set("membership.churn_epoch_latency_s", report.mean_latency_s);
}

/// Every workload-independent row.
pub fn unit_costs(seed: u64, dir: &std::path::Path, out: &mut MetricSet) {
    crypto_account(seed, out);
    components_account(seed, out);
    mempool_account(seed, out);
    journal_account(seed, dir, out);
    membership_account(seed, out);
}

/// Frames replayed between two visits of the same stage. The decode memo
/// is cleared wholesale at 8192 entries, so a stage only finds it warm if
/// it follows the opens closely; a chunk of 256 frames adds about a
/// thousand entries.
const REPLAY_CHUNK: usize = 256;

/// Replays `(frame, its channel's keys, opens on one thread)` rows through
/// the codec, a chunk at a time, and returns mean microseconds per call by
/// metric name.
fn replay(
    frames: &[(&crate::timed::RecordedFrame, &ChannelKeys, usize)],
) -> Vec<(&'static str, f64)> {
    let mut open = Duration::ZERO;
    let mut opens = 0u64;
    let [mut seal, mut encode, mut decode, mut wrap, mut unwrap] = [Duration::ZERO; 5];
    for chunk in frames.chunks(REPLAY_CHUNK) {
        let started = Instant::now();
        let opened: Vec<(Envelope, u64)> = chunk
            .iter()
            .map(|(f, ring, times)| {
                let key_of = |src: u16| ring.peer_keys.get(src as usize).copied();
                for _ in 1..*times {
                    std::hint::black_box(Envelope::open_tagged(&f.payload, key_of).is_ok());
                }
                opens += *times as u64;
                let (env, tag, _) =
                    Envelope::open_tagged(&f.payload, key_of).expect("a delivered frame decodes");
                (env, tag)
            })
            .collect();
        open += started.elapsed();

        let started = Instant::now();
        for ((env, tag), (_, ring, _)) in opened.iter().zip(chunk) {
            let sealed = env.seal_tagged(&ring.keypairs[env.src as usize], &ring.sizing, *tag);
            std::hint::black_box(sealed.is_ok());
        }
        seal += started.elapsed();

        let started = Instant::now();
        let bodies: Vec<Bytes> = opened
            .iter()
            .map(|(env, _)| {
                let mut sink = ByteSink::new();
                env.body
                    .encode_into(&mut sink)
                    .expect("a decoded body re-encodes");
                sink.into_bytes()
            })
            .collect();
        encode += started.elapsed();
        let started = Instant::now();
        for bytes in &bodies {
            std::hint::black_box(Body::decode(&mut WireReader::new(bytes)).is_ok());
        }
        decode += started.elapsed();

        let started = Instant::now();
        let datagrams: Vec<Bytes> = chunk
            .iter()
            .map(|(f, _, _)| {
                Datagram {
                    src: 0,
                    channel: f.channel,
                    nominal_len: f.nominal_len as u32,
                    payload: f.payload.clone(),
                }
                .encode()
                .expect("a frame fits a datagram")
            })
            .collect();
        wrap += started.elapsed();
        let started = Instant::now();
        for bytes in &datagrams {
            std::hint::black_box(Datagram::decode(bytes).is_ok());
        }
        unwrap += started.elapsed();
    }
    let per_frame = |total: Duration| total.as_secs_f64() * 1e6 / frames.len() as f64;
    vec![
        (
            "net.envelope_open_us",
            open.as_secs_f64() * 1e6 / opens as f64,
        ),
        ("net.envelope_seal_us", per_frame(seal)),
        ("net.body_encode_us", per_frame(encode)),
        ("net.body_decode_us", per_frame(decode)),
        ("net.datagram_encode_us", per_frame(wrap)),
        ("net.datagram_decode_us", per_frame(unwrap)),
    ]
}

/// The sampled frames of one traced run and the packet keys they were
/// sealed under.
pub struct FrameGroup<'a> {
    pub recorders: Vec<&'a Recorder>,
    pub keys: &'a [ChannelKeys],
    /// How many nodes open each frame on one thread: `n − 1` in a
    /// simulation (all nodes share the simulator's thread), 1 over UDP
    /// (every node has its own).
    pub opens_per_frame: usize,
}

/// `net.*`: the sampled frames of the traced pass replayed through
/// `Envelope`, `Body` and `Datagram`, and the share of frame-callback time
/// that envelope opening (decode + signature check) accounts for.
///
/// `Envelope::open` decodes group elements through a per-thread memo of
/// the subgroup check, so what an open costs depends on whether that
/// thread has seen the bytes before. The replay therefore runs on a fresh
/// thread (empty memo) and opens each distinct frame as often as one
/// thread opened it in the run: the first open pays the check, the
/// others do not, and the mean is what the run paid per open. The other
/// rows follow on the same thread, memo-warm.
pub fn net_account(groups: &[FrameGroup], out: &mut MetricSet) {
    // Frames on channels without packet keys (the unsigned sync channel)
    // never pass through `Envelope`. Receivers of one simulated frame share
    // its buffer, so the buffer address tells copies apart from frames.
    let mut distinct = std::collections::BTreeSet::new();
    let frames: Vec<_> = groups
        .iter()
        .flat_map(|g| {
            g.recorders
                .iter()
                .flat_map(|r| &r.frames)
                .filter_map(move |f| {
                    g.keys
                        .iter()
                        .find(|k| k.channel == f.channel)
                        .map(|ring| (f, ring, g.opens_per_frame))
                })
        })
        .filter(|(f, _, _)| distinct.insert(f.payload.as_ptr() as usize))
        .collect();
    if frames.is_empty() {
        out.fill_missing(&crate::metrics::PER_LAYER, "net.");
        return;
    }
    let count = frames.len() as f64;
    let costs = std::thread::scope(|scope| {
        scope
            .spawn(|| replay(&frames))
            .join()
            .expect("replay thread")
    });
    for (name, us) in costs {
        out.set(name, us);
    }
    let open_us = out.get("net.envelope_open_us").unwrap_or(0.0);

    let total = |pick: fn(&crate::timed::RecordedFrame) -> usize| -> f64 {
        frames.iter().map(|(f, _, _)| pick(f)).sum::<usize>() as f64
    };
    out.set("net.frame_bytes_mean", total(|f| f.payload.len()) / count);
    out.set("net.nominal_bytes_mean", total(|f| f.nominal_len) / count);
    let recorders = || groups.iter().flat_map(|g| g.recorders.iter());
    let frame_calls_us: f64 = recorders()
        .flat_map(|r| &r.calls)
        .filter(|c| c.kind == CallKind::Frame)
        .map(|c| c.dur_ns as f64 / 1e3)
        .sum();
    let frames_seen: u64 = recorders().map(|r| r.frames_seen()).sum();
    out.set(
        "net.open_share_of_callback",
        if frame_calls_us > 0.0 {
            open_us * frames_seen as f64 / frame_calls_us
        } else {
            0.0
        },
    );
}

/// `core.callback*`: the timed node callbacks of the traced pass.
pub fn callback_account(recorders: &[&Recorder], epochs: u64, out: &mut MetricSet) {
    let mut durations: Vec<f64> = recorders
        .iter()
        .flat_map(|r| &r.calls)
        .map(|c| c.dur_ns as f64 / 1e3)
        .collect();
    durations.sort_by(f64::total_cmp);
    out.set("core.callback_us_mean", stats::mean(&durations));
    out.set("core.callback_us_p99", stats::percentile(&durations, 0.99));
    out.set(
        "core.callbacks_per_epoch",
        durations.len() as f64 / epochs.max(1) as f64,
    );
}
