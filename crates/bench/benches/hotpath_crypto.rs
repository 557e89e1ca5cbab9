//! Hotpath crypto microbench — the repo's first perf-trajectory baseline.
//!
//! Times the exponentiation fast paths that dominate every simulated
//! deployment (fixed-base windowed pow, simultaneous multi-exponentiation,
//! share verification through the key set's window tables at the quorum
//! sizes the protocols actually collect: `f+1`/`2f+1` for n = 4, 13, 25)
//! against their naive counterparts, prints the table, and writes a JSON
//! report to `target/reports/hotpath/` so CI can track the numbers across
//! PRs.
//!
//! The predicates behind the answer tables (the verdict memo
//! `wbft_crypto::memo`, the power table `wbft_crypto::quorum` and the
//! Schnorr transcript table) are timed on inputs never seen before
//! (`first_sight`: the miss path plus the insert) and on the same inputs
//! again (`repeat`: the hit path) — one number for both would report
//! whichever the loop happened to hit. A signer's transcript answers its
//! own signatures, and a share signer's record its own shares, so the
//! first-sight passes start from tables cleared *after* the inputs were
//! signed; what a verifier sharing the signer's thread pays instead is the
//! `signed_on_this_thread` row.
//!
//! Acceptance gate: quorum-9 share verification (`verify_shares`) on first
//! sight must be ≥ 3× faster than the naive per-share square-and-multiply
//! check.

use rand::SeedableRng;
use std::time::Instant;
use wbft_bench::{banner, pass_us, report_dir, row, write_json};
use wbft_crypto::hash::hash_to_scalar;
use wbft_crypto::schnorr::{self, KeyPair, Role};
use wbft_crypto::table::Stats;
use wbft_crypto::{
    memo, quorum, thresh_enc, thresh_sig, EcdsaCurve, GroupElem, PrecomputedBase, Scalar,
    ThresholdCurve,
};
use wbft_report::Json;

/// Quorum sizes under test: the `f+1` and `2f+1` thresholds of small and
/// mid-size deployments.
const QUORUMS: [usize; 4] = [2, 5, 9, 17];

/// Mean microseconds per call over `reps` calls (one warmup call first).
fn time_us<R>(reps: u32, mut f: impl FnMut() -> R) -> f64 {
    std::hint::black_box(f());
    let t0 = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(f());
    }
    t0.elapsed().as_secs_f64() * 1e6 / reps as f64
}

/// Forgets every answer of this thread's crypto tables.
fn clear_tables() {
    memo::clear();
    schnorr::clear();
    quorum::clear();
}

fn rand_scalars(rng: &mut impl rand::RngCore, k: usize) -> Vec<Scalar> {
    (0..k).map(|_| Scalar::random(rng)).collect()
}

fn main() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xfa57);
    let reps: u32 = std::env::var("WBFT_HOTPATH_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64);

    // ---------------------------------------------------------- single pow
    banner(
        "Hotpath 1 — fixed-base exponentiation (µs/op)",
        "square-and-multiply vs the generator's 8-bit-window table; build is a 4-bit key table",
    );
    let exps = rand_scalars(&mut rng, 32);
    let g = GroupElem::generator();
    let mut i = 0usize;
    let naive_pow_us = time_us(reps, || {
        i += 1;
        g.pow(&exps[i % exps.len()])
    });
    let mut i = 0usize;
    let windowed_pow_us = time_us(reps, || {
        i += 1;
        GroupElem::from_exponent(&exps[i % exps.len()])
    });
    let base = GroupElem::from_exponent(&exps[0]);
    let table_build_us = time_us(reps.min(16), || PrecomputedBase::new(&base));
    println!("  naive pow        {naive_pow_us:9.1}");
    println!("  windowed pow     {windowed_pow_us:9.1}");
    println!("  table build      {table_build_us:9.1} (one-time per base)");
    assert!(
        windowed_pow_us < naive_pow_us,
        "windowed pow ({windowed_pow_us:.1}µs) must beat naive ({naive_pow_us:.1}µs)"
    );

    // ------------------------------------------------------ multi_pow
    banner(
        "Hotpath 2 — simultaneous multi-exponentiation (µs/op)",
        "Π bᵢ^eᵢ: naive per-base pows vs Straus/Pippenger multi_pow",
    );
    let widths = [6usize, 12, 12, 9];
    println!(
        "{}",
        row(&["k".into(), "naive".into(), "multi_pow".into(), "speedup".into()], &widths)
    );
    let mut multi_rows = Vec::new();
    for k in QUORUMS {
        let pairs: Vec<(GroupElem, Scalar)> = rand_scalars(&mut rng, k)
            .into_iter()
            .map(|e| (GroupElem::from_exponent(&e), Scalar::random(&mut rng)))
            .collect();
        let naive = pairs.iter().fold(GroupElem::identity(), |acc, (b, e)| acc.mul(&b.pow(e)));
        assert_eq!(GroupElem::multi_pow(&pairs), naive, "multi_pow disagrees at k={k}");
        let naive_us = time_us(reps, || {
            pairs.iter().fold(GroupElem::identity(), |acc, (b, e)| acc.mul(&b.pow(e)))
        });
        let multi_us = time_us(reps, || GroupElem::multi_pow(&pairs));
        let speedup = naive_us / multi_us;
        println!(
            "{}",
            row(
                &[
                    k.to_string(),
                    format!("{naive_us:.1}"),
                    format!("{multi_us:.1}"),
                    format!("{speedup:.2}x"),
                ],
                &widths
            )
        );
        multi_rows.push(Json::obj([
            ("k", Json::u64(k as u64)),
            ("naive_us", Json::f64(naive_us)),
            ("multi_pow_us", Json::f64(multi_us)),
            ("speedup", Json::f64(speedup)),
        ]));
    }

    // -------------------------------------------------- share verification
    banner(
        "Hotpath 3 — share verification at quorum size (µs/quorum)",
        "naive per-share square-and-multiply vs verify_shares on first sight (one window-table \
         pow per share) and repeated (power-table hits)",
    );
    let widths = [8usize, 12, 15, 9, 9];
    println!(
        "{}",
        row(
            &[
                "quorum".into(),
                "naive".into(),
                "verify_shares".into(),
                "repeat".into(),
                "speedup".into()
            ],
            &widths
        )
    );
    // Distinct messages, one quorum each: their signers recorded the
    // shares' powers, so the tables are cleared after signing and every
    // check of the first pass computes.
    let messages: Vec<Vec<u8>> = (0..reps as u64)
        .map(|i| [&b"hotpath: share verification "[..], &i.to_le_bytes()].concat())
        .collect();
    let mut share_rows = Vec::new();
    let mut speedup_q9 = 0.0f64;
    for q in QUORUMS {
        // A (q-1, q) deal: exactly q shares form the quorum under test.
        let (pks, sks) = thresh_sig::deal(q, q - 1, ThresholdCurve::Bn158, &mut rng);
        let quorums: Vec<_> = messages
            .iter()
            .map(|msg| (msg, sks.iter().map(|sk| sk.sign_share(msg)).collect::<Vec<_>>()))
            .collect();
        // `σ_i == vk_i^e` with `H(msg) = g^e`, exponentiating each share key
        // afresh (the exponent is hashed as `thresh_sig` hashes it).
        let naive = |(msg, shares): &(&Vec<u8>, Vec<thresh_sig::SigShare>)| {
            let e = hash_to_scalar("wbft/thresh-sig/msg", &[msg.as_slice()]);
            let ok = shares
                .iter()
                .all(|s| pks.share_keys()[s.index.value() as usize - 1].pow(&e) == s.value);
            assert!(ok, "the naive check must accept the honest quorum");
        };
        let naive_us = pass_us(&quorums, naive);
        clear_tables();
        pks.verify_shares(b"hotpath: build the window tables", &[]).unwrap();
        let verify_us = pass_us(&quorums, |(msg, shares)| pks.verify_shares(msg, shares).unwrap());
        let computed = quorum::stats(quorum::Lane::KeySet);
        let asked = (reps as usize * q) as u64;
        assert_eq!((computed.hits, computed.misses), (0, asked), "first sight");
        let (msg, shares) = &quorums[0];
        let repeat_us = time_us(reps, || pks.verify_shares(msg, shares).unwrap());
        let speedup = naive_us / verify_us;
        if q == 9 {
            speedup_q9 = speedup;
        }
        println!(
            "{}",
            row(
                &[
                    q.to_string(),
                    format!("{naive_us:.1}"),
                    format!("{verify_us:.1}"),
                    format!("{repeat_us:.1}"),
                    format!("{speedup:.2}x"),
                ],
                &widths
            )
        );
        share_rows.push(Json::obj([
            ("quorum", Json::u64(q as u64)),
            ("naive_us", Json::f64(naive_us)),
            ("verify_shares_us", Json::f64(verify_us)),
            ("repeat_us", Json::f64(repeat_us)),
            ("speedup", Json::f64(speedup)),
        ]));
    }

    // ------------------------------------------------- memoized predicates
    banner(
        "Hotpath 4 — memoized verification, first sight vs repeat (µs/op)",
        "a transcript never seen before (computed) vs the same one again (answer-table hit)",
    );
    // Distinct inputs, few enough that no set of either table overflows, so
    // a pass misses on every one or hits on every one.
    let distinct = (reps as usize).clamp(16, memo::SETS / 4);
    let signatures = distinct.min(schnorr::SETS * schnorr::WAYS / 8);
    clear_tables();
    let kp = KeyPair::generate(EcdsaCurve::Secp160r1, &mut rng);
    let pk = kp.public();
    let signed: Vec<_> = (0..signatures as u64)
        .map(|i| {
            let mut m = vec![0u8; 200];
            m[..8].copy_from_slice(&i.to_le_bytes());
            let sig = kp.sign(&m);
            (m, sig)
        })
        .collect();
    let schnorr_signed_here_us = pass_us(&signed, |(m, sig)| pk.verify(m, sig).unwrap());
    let all_hits = Stats { hits: signatures as u64, misses: 0, recorded: 0 };
    assert_eq!(schnorr::stats(Role::Verifier), all_hits, "the signer's transcripts answer");
    let (enc_pub, enc_secs) = thresh_enc::deal_enc(4, 1, ThresholdCurve::Bn158, &mut rng);
    let dec_shares: Vec<_> = (0..distinct as u64)
        .map(|i| {
            let ct = enc_pub.encrypt(&i.to_le_bytes(), b"hotpath", &mut rng);
            let share = enc_secs[0].dec_share(&ct);
            (ct, share)
        })
        .collect();
    // Forget what the signer and the share producer recorded: from here on
    // a verifier is alone.
    clear_tables();
    let schnorr_first_us = pass_us(&signed, |(m, sig)| pk.verify(m, sig).unwrap());
    let schnorr_repeat_us = pass_us(&signed, |(m, sig)| pk.verify(m, sig).unwrap());
    let dleq_first_us = pass_us(&dec_shares, |(ct, s)| enc_pub.verify_share(ct, s).unwrap());
    let dleq_repeat_us = pass_us(&dec_shares, |(ct, s)| enc_pub.verify_share(ct, s).unwrap());
    let computed_then_hit = |n: usize| Stats { hits: n as u64, misses: n as u64, recorded: 0 };
    assert_eq!(schnorr::stats(Role::Verifier), computed_then_hit(signatures), "first sight");
    assert_eq!(memo::stats(memo::Predicate::Dleq), computed_then_hit(distinct), "first sight");
    println!(
        "  schnorr verify   first {schnorr_first_us:7.2}   repeat {schnorr_repeat_us:7.2}   \
         signed on this thread {schnorr_signed_here_us:7.2}"
    );
    println!("  dleq verify      first {dleq_first_us:7.2}   repeat {dleq_repeat_us:7.2}");
    let first_vs_repeat = |first_sight: f64, repeat: f64| {
        Json::obj([("first_sight_us", Json::f64(first_sight)), ("repeat_us", Json::f64(repeat))])
    };

    // ----------------------------------------------------------- report
    let report = Json::obj([
        ("kind", Json::str("hotpath-crypto")),
        ("reps", Json::u64(reps as u64)),
        (
            "pow",
            Json::obj([
                ("naive_us", Json::f64(naive_pow_us)),
                ("windowed_us", Json::f64(windowed_pow_us)),
                ("table_build_us", Json::f64(table_build_us)),
            ]),
        ),
        ("multi_pow", Json::arr(multi_rows)),
        ("share_verify", Json::arr(share_rows)),
        ("schnorr_verify", first_vs_repeat(schnorr_first_us, schnorr_repeat_us)),
        ("schnorr_verify_signed_on_this_thread_us", Json::f64(schnorr_signed_here_us)),
        ("dleq_verify", first_vs_repeat(dleq_first_us, dleq_repeat_us)),
    ]);
    let path = report_dir("hotpath").join("hotpath_crypto.json");
    write_json(&path, &report);
    println!("\nreport: {}", path.display());

    // Acceptance floor, overridable for noisy shared runners (CI passes a
    // lower floor and tracks the real number through the JSON report).
    let floor: f64 = std::env::var("WBFT_HOTPATH_MIN_SPEEDUP")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3.0);
    assert!(
        speedup_q9 >= floor,
        "quorum-9 share verification speedup {speedup_q9:.2}x below the {floor}x floor"
    );
    println!(
        "[hotpath_crypto] OK (quorum-9 share verification speedup {speedup_q9:.2}x >= {floor}x)"
    );
}
