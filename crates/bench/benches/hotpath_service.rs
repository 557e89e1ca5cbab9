//! Hotpath service microbench — the mempool and wire-codec counterpart of
//! `hotpath_crypto`.
//!
//! Times the per-transaction costs on the client-facing service path:
//! mempool admission (fresh, duplicate-reject, full-reject), the
//! pull/commit cycle, the client-channel codec, datagram framing, and
//! envelope seal/open (the per-packet consensus cost every submission
//! ultimately pays n² times). Prints the table and writes a JSON report to
//! `target/reports/hotpath/` so CI tracks the numbers across PRs.
//!
//! Acceptance gates are deliberately loose (shared runners are noisy):
//! admission must stay under 50µs/tx and the codecs under 100µs/op.

use rand::SeedableRng;
use std::time::Instant;
use wbft_bench::{banner, pass_us, report_dir, row, write_json};
use wbft_consensus::service::Mempool;
use wbft_consensus::Block;
use wbft_crypto::CryptoSuite;
use wbft_net::{Body, Envelope, Sizing};
use wbft_report::Json;
use wbft_transport::ClientMsg;
use wbft_wireless::SimTime;

/// Mean microseconds per call over `reps` calls (one warmup call first).
fn time_us<R>(reps: u32, mut f: impl FnMut() -> R) -> f64 {
    std::hint::black_box(f());
    let t0 = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(f());
    }
    t0.elapsed().as_secs_f64() * 1e6 / reps as f64
}

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
    let widths = [22usize, 10, 10];
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

    // Envelope seal/open: the real per-packet cost (ECDSA-class sign and
    // verify over the body) every proposal, vote and share pays.
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
            init_nack: wbft_net::Bitmap::new(4),
        },
    };
    let seal_us = time_us(reps, || env.seal(&crypto.keypair, &sizing).expect("seals"));
    // Opening goes through the verdict memo (`wbft_crypto::memo`): time
    // frames never seen before and the same frames again separately, or the
    // loop reports only the hit path. Fewer frames than the memo holds.
    let frames: Vec<bytes::Bytes> = (0..(reps as u64).clamp(16, 1024))
        .map(|session| {
            let env = Envelope { session, ..env.clone() };
            env.seal(&crypto.keypair, &sizing).expect("seals").0
        })
        .collect();
    let peer_keys = crypto.peer_keys.clone();
    wbft_crypto::memo::clear();
    let open = |sealed: &bytes::Bytes| {
        let opened = Envelope::open(sealed, |src| peer_keys.get(src as usize).copied());
        assert!(std::hint::black_box(opened).expect("opens").1);
    };
    let open_first_us = pass_us(&frames, open);
    let open_repeat_us = pass_us(&frames, open);
    println!(
        "{}",
        row(&["envelope (signed)".into(), format!("{seal_us:.2}"), "-".into()], &widths)
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
                ("envelope_seal_us", Json::f64(seal_us)),
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
    println!("[hotpath_service] OK (admit {admit_us:.2}µs/tx, seal {seal_us:.1}µs)");
}
