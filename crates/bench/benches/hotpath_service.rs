//! Hotpath service microbench — the mempool and wire-codec counterpart of
//! `hotpath_crypto`.
//!
//! Times the per-transaction costs on the client-facing service path:
//! mempool admission (fresh, duplicate-reject, full-reject), the
//! pull/commit cycle, the client-channel codec, datagram framing, and the
//! consensus envelope — encode when queued, sign when transmitted, open
//! when received (the per-packet cost every submission ultimately pays n²
//! times). Prints the table and writes a JSON report to
//! `target/reports/hotpath/` so CI tracks the numbers across PRs.
//!
//! Acceptance gates are deliberately loose (shared runners are noisy):
//! admission must stay under 50µs/tx and the codecs under 100µs/op.

use rand::SeedableRng;
use std::time::Instant;
use wbft_bench::{banner, clear_tables, pass_us, report_dir, row, time_us, write_json};
use wbft_consensus::service::Mempool;
use wbft_consensus::Block;
use wbft_crypto::schnorr::{self, Role};
use wbft_crypto::CryptoSuite;
use wbft_net::{broadcast_signed, Body, Envelope, Sizing};
use wbft_report::Json;
use wbft_transport::ClientMsg;
use wbft_wireless::{ChannelId, Command, NodeCtx, NodeId, SimTime};

fn tx_of(tag: u64) -> bytes::Bytes {
    let mut v = vec![0u8; 64];
    v[..8].copy_from_slice(&tag.to_le_bytes());
    bytes::Bytes::from(v)
}

fn main() {
    let reps: u32 = std::env::var("WBFT_HOTPATH_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(256);

    // ------------------------------------------------------------ mempool
    banner(
        "Hotpath 1 — mempool admission and commit cycle (µs/tx)",
        "bounded digest-dedup FIFO pool, 64-byte transactions",
    );
    // Fresh admissions into a large pool (each rep admits a new tx).
    let mut pool = Mempool::new(1 << 20);
    let mut tag = 0u64;
    let admit_us = time_us(reps, || {
        tag += 1;
        pool.admit(tx_of(tag), SimTime::from_micros(tag))
    });
    // Duplicate rejects (same tx every time, pool already holds it).
    let dup = tx_of(1);
    let dup_reject_us = time_us(reps, || pool.admit(dup.clone(), SimTime::ZERO));
    // Full rejects against a saturated 1-slot pool.
    let mut tiny = Mempool::new(1);
    tiny.admit(tx_of(1), SimTime::ZERO);
    let mut tag2 = 1_000_000u64;
    let full_reject_us = time_us(reps, || {
        tag2 += 1;
        tiny.admit(tx_of(tag2), SimTime::ZERO)
    });
    // The full service cycle: admit a 16-tx wave, pull it, commit it.
    let mut cycle_pool = Mempool::new(1 << 20);
    let mut epoch = 0u64;
    let mut base = 2_000_000u64;
    let cycle_us = time_us(reps, || {
        for i in 0..16 {
            cycle_pool.admit(tx_of(base + i), SimTime::from_micros(base));
        }
        let batch = cycle_pool.next_batch(epoch, 16);
        cycle_pool.record_commit(
            &Block { epoch, txs: batch },
            SimTime::from_micros(base + 50),
        );
        epoch += 1;
        base += 16;
    }) / 16.0;
    println!("  admit (fresh)       {admit_us:9.2}");
    println!("  admit (dup reject)  {dup_reject_us:9.2}");
    println!("  admit (full reject) {full_reject_us:9.2}");
    println!("  pull+commit cycle   {cycle_us:9.2}  (per tx, 16-tx epochs)");

    // ------------------------------------------------------------- codecs
    banner(
        "Hotpath 2 — wire encode/decode (µs/op)",
        "client channel, datagram framing, and sealed consensus envelopes",
    );
    let widths = [30usize, 10, 10];
    println!("{}", row(&["codec".into(), "encode".into(), "decode".into()], &widths));

    let submit = ClientMsg::Submit { tx: tx_of(77) };
    let submit_bytes = submit.encode().expect("fits");
    let client_enc_us = time_us(reps, || submit.encode().expect("fits"));
    let client_dec_us = time_us(reps, || ClientMsg::decode(&submit_bytes).expect("valid"));
    println!(
        "{}",
        row(
            &[
                "client submit".into(),
                format!("{client_enc_us:.2}"),
                format!("{client_dec_us:.2}")
            ],
            &widths
        )
    );

    let datagram = wbft_net::datagram::Datagram {
        src: 2,
        channel: 0,
        nominal_len: 200,
        payload: submit_bytes.clone(),
    };
    let datagram_bytes = datagram.encode().expect("fits");
    let dgram_enc_us = time_us(reps, || datagram.encode().expect("fits"));
    let dgram_dec_us =
        time_us(reps, || wbft_net::datagram::Datagram::decode(&datagram_bytes).expect("valid"));
    println!(
        "{}",
        row(
            &["datagram".into(), format!("{dgram_enc_us:.2}"), format!("{dgram_dec_us:.2}")],
            &widths
        )
    );

    // The consensus envelope: the real per-packet cost (ECDSA-class sign
    // and verify over the body) every proposal, vote and share pays.
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x5e41);
    let crypto = wbft_components::deal_node_crypto(4, CryptoSuite::light(), &mut rng).remove(0);
    let sizing = Sizing { n: 4, suite: crypto.suite };
    let env = Envelope {
        src: 0,
        session: 16,
        body: Body::RbcEchoReady {
            roots: vec![wbft_crypto::Digest32([0; 32]); 4],
            echo: wbft_net::Bitmap::new(4),
            ready: wbft_net::Bitmap::new(4),
            echo_nack: wbft_net::Bitmap::new(4),
            ready_nack: wbft_net::Bitmap::new(4),
            init_nack: wbft_net::InitNack::new(4),
        },
    };
    // Sending a packet is two steps at two moments (`wbft_net::send`): it
    // is encoded when it is queued — every version a node builds pays this
    // — and signed when the runtime transmits it, which only the versions
    // that air pay. Timed through the same public calls the runtimes make.
    let mut ctx_rng = rand_chacha::ChaCha12Rng::seed_from_u64(1);
    let queue_one = |session: u64, rng: &mut rand_chacha::ChaCha12Rng| {
        let mut ctx = NodeCtx::external(SimTime::ZERO, NodeId(0), rng);
        let env = Envelope { session, ..env.clone() };
        broadcast_signed(&mut ctx, ChannelId(0), &crypto.keypair, &sizing, &env, 0)
            .expect("encodes");
        match ctx.finish().0.pop() {
            Some(Command::Broadcast { payload, .. }) => payload,
            other => panic!("one broadcast expected, got {other:?}"),
        }
    };
    let encode_us = time_us(reps, || queue_one(16, &mut ctx_rng));
    // Few enough frames that no set of the transcript table overflows, so
    // every frame's signature is still held when it is opened.
    let sessions = 0..(reps as u64).clamp(16, (schnorr::SETS * schnorr::WAYS / 8) as u64);
    let queued: Vec<_> = sessions.map(|session| queue_one(session, &mut ctx_rng)).collect();
    clear_tables();
    let t0 = Instant::now();
    let frames: Vec<bytes::Bytes> = queued.into_iter().map(|payload| payload.finish()).collect();
    let sign_us = t0.elapsed().as_secs_f64() * 1e6 / frames.len() as f64;
    let signs = schnorr::stats(Role::Signer);
    assert_eq!((signs.hits, signs.misses), (0, frames.len() as u64), "each frame signed afresh");

    // Opening goes through the transcript table, which the signer above
    // filled. Three passes over the same frames: as a receiver simulated on
    // the signer's thread finds them (all hits); as a receiver on its own
    // thread does (the tables cleared after signing: all computed); and
    // those again (all hits).
    let peer_keys = crypto.peer_keys.clone();
    let open = |sealed: &bytes::Bytes| {
        let opened = Envelope::open(sealed, |src| peer_keys.get(src as usize).copied());
        assert!(std::hint::black_box(opened).expect("opens").1);
    };
    let verifies = || schnorr::stats(Role::Verifier);
    let open_signed_here_us = pass_us(&frames, open);
    assert_eq!((verifies().hits, verifies().misses), (frames.len() as u64, 0));
    clear_tables();
    let open_first_us = pass_us(&frames, open);
    assert_eq!((verifies().hits, verifies().misses), (0, frames.len() as u64));
    let open_repeat_us = pass_us(&frames, open);
    println!(
        "{}",
        row(&["envelope, queue a send".into(), format!("{encode_us:.2}"), "-".into()], &widths)
    );
    println!(
        "{}",
        row(&["  sign at transmit".into(), format!("{sign_us:.2}"), "-".into()], &widths)
    );
    let signed_here = format!("{open_signed_here_us:.2}");
    println!(
        "{}",
        row(&["  open, signed on this thread".into(), "-".into(), signed_here], &widths)
    );
    println!(
        "{}",
        row(&["  open, first sight".into(), "-".into(), format!("{open_first_us:.2}")], &widths)
    );
    println!(
        "{}",
        row(&["  open, repeat".into(), "-".into(), format!("{open_repeat_us:.2}")], &widths)
    );

    // ------------------------------------------------------------- report
    let report = Json::obj([
        ("kind", Json::str("hotpath-service")),
        ("reps", Json::u64(reps as u64)),
        (
            "mempool",
            Json::obj([
                ("admit_us", Json::f64(admit_us)),
                ("dup_reject_us", Json::f64(dup_reject_us)),
                ("full_reject_us", Json::f64(full_reject_us)),
                ("cycle_per_tx_us", Json::f64(cycle_us)),
            ]),
        ),
        (
            "wire",
            Json::obj([
                ("client_encode_us", Json::f64(client_enc_us)),
                ("client_decode_us", Json::f64(client_dec_us)),
                ("datagram_encode_us", Json::f64(dgram_enc_us)),
                ("datagram_decode_us", Json::f64(dgram_dec_us)),
                ("envelope_encode_us", Json::f64(encode_us)),
                ("envelope_sign_us", Json::f64(sign_us)),
                ("envelope_open_signed_on_this_thread_us", Json::f64(open_signed_here_us)),
                ("envelope_open_first_sight_us", Json::f64(open_first_us)),
                ("envelope_open_repeat_us", Json::f64(open_repeat_us)),
            ]),
        ),
    ]);
    let path = report_dir("hotpath").join("hotpath_service.json");
    write_json(&path, &report);
    println!("\nreport: {}", path.display());

    // Loose floors; the JSON above tracks the real trajectory.
    for (name, us, floor) in [
        ("mempool admit", admit_us, 50.0),
        ("dup reject", dup_reject_us, 50.0),
        ("full reject", full_reject_us, 50.0),
        ("cycle per tx", cycle_us, 50.0),
        ("client encode", client_enc_us, 100.0),
        ("client decode", client_dec_us, 100.0),
        ("datagram encode", dgram_enc_us, 100.0),
        ("datagram decode", dgram_dec_us, 100.0),
    ] {
        assert!(us < floor, "{name} regressed to {us:.1}µs (floor {floor}µs)");
    }
    println!(
        "[hotpath_service] OK (admit {admit_us:.2}µs/tx, encode {encode_us:.2}µs, \
         sign {sign_us:.1}µs)"
    );
}
