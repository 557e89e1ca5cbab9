//! Fig. 10 — cryptographic tools: operation latency (a, b), signature
//! sizes (c), and their end-to-end impact on HoneyBadgerBFT (d).
//!
//! (a)/(b)/(c) print the calibrated per-curve profiles the simulator
//! charges (read off the paper's measurements on STM32F767 + MIRACL /
//! micro-ecc; see EXPERIMENTS.md) next to wall-clock timings of this
//! crate's actual substitute implementations for context. (d) runs wireless
//! HoneyBadgerBFT-SC under the secp160r1+BN158 and secp192r1+BN254 suites
//! and reports latency and throughput.

use std::time::Instant;
use wbft_bench::{banner, row};
use wbft_consensus::report::{read_report, report_root, write_reports, Scenario};
use wbft_consensus::sweep::{run_sweep, sweep_threads, SweepSpec};
use wbft_consensus::Protocol;
use wbft_crypto::{thresh_coin, thresh_sig, CryptoSuite, EcdsaCurve, ThresholdCurve};

fn main() {
    fig10a();
    fig10b();
    fig10c();
    fig10d();
    println!("\n[fig10_crypto] OK");
}

fn fig10a() {
    banner(
        "Fig. 10a — threshold signature basic-operation latency (ms)",
        "calibrated virtual costs charged by the simulator, per curve",
    );
    let widths = [10usize, 8, 8, 12, 13, 11];
    println!(
        "{}",
        row(
            &[
                "curve".into(),
                "dealer".into(),
                "sign".into(),
                "verifyshare".into(),
                "combineshare".into(),
                "verifysig".into()
            ],
            &widths
        )
    );
    for curve in ThresholdCurve::ALL {
        let p = curve.signature_profile();
        println!(
            "{}",
            row(
                &[
                    curve.name().into(),
                    format!("{:.0}", p.dealer_us as f64 / 1e3),
                    format!("{:.0}", p.sign_share_us as f64 / 1e3),
                    format!("{:.0}", p.verify_share_us as f64 / 1e3),
                    format!("{:.0}", p.combine_us as f64 / 1e3),
                    format!("{:.0}", p.verify_signature_us as f64 / 1e3),
                ],
                &widths
            )
        );
    }
    // Wall-clock of the substitute implementation, for context.
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let t0 = Instant::now();
    let (pks, sks) = thresh_sig::deal(4, 1, ThresholdCurve::Bn158, &mut rng);
    let dealer = t0.elapsed();
    let t0 = Instant::now();
    let share = sks[0].sign_share(b"bench");
    let sign = t0.elapsed();
    let t0 = Instant::now();
    pks.verify_share(b"bench", &share).unwrap();
    let verify = t0.elapsed();
    let shares = [share, sks[1].sign_share(b"bench")];
    let t0 = Instant::now();
    let sig = pks.combine(&shares).unwrap();
    let combine = t0.elapsed();
    let t0 = Instant::now();
    pks.verify(b"bench", &sig).unwrap();
    let vsig = t0.elapsed();
    println!(
        "(substitute impl wall-clock: dealer {dealer:?}, sign {sign:?}, verifyshare {verify:?}, combine {combine:?}, verifysig {vsig:?})"
    );
}

fn fig10b() {
    banner(
        "Fig. 10b — threshold coin-flipping basic-operation latency (ms)",
        "cheaper than threshold signatures on every curve (BEAT's trade)",
    );
    let widths = [10usize, 8, 8, 12, 13];
    println!(
        "{}",
        row(
            &[
                "curve".into(),
                "dealer".into(),
                "sign".into(),
                "verifyshare".into(),
                "combineshare".into()
            ],
            &widths
        )
    );
    for curve in ThresholdCurve::ALL {
        let p = curve.coin_profile();
        let s = curve.signature_profile();
        assert!(p.sign_share_us < s.sign_share_us);
        println!(
            "{}",
            row(
                &[
                    curve.name().into(),
                    format!("{:.0}", p.dealer_us as f64 / 1e3),
                    format!("{:.0}", p.sign_share_us as f64 / 1e3),
                    format!("{:.0}", p.verify_share_us as f64 / 1e3),
                    format!("{:.0}", p.combine_us as f64 / 1e3),
                ],
                &widths
            )
        );
    }
    // Exercise the real coin once so the numbers describe live code.
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(2);
    let (cpub, csec) = thresh_coin::deal_coin(4, 1, ThresholdCurve::Bn158, &mut rng);
    let name = thresh_coin::CoinName { session: 1, round: 0, domain: 0 };
    let shares: Vec<_> = csec[..2].iter().map(|s| s.coin_share(name)).collect();
    let _ = cpub.combine(name, &shares).unwrap();
}

fn fig10c() {
    banner(
        "Fig. 10c — signature sizes (bytes)",
        "public-key digital signatures (micro-ecc) and threshold signatures (MIRACL)",
    );
    let widths = [12usize, 28];
    println!("{}", row(&["curve".into(), "signature bytes".into()], &widths));
    for curve in EcdsaCurve::ALL {
        println!(
            "{}",
            row(
                &[curve.name().into(), format!("{} (PK digital)", curve.profile().signature_bytes)],
                &widths
            )
        );
    }
    for curve in ThresholdCurve::ALL {
        println!(
            "{}",
            row(
                &[
                    curve.name().into(),
                    format!("{} (threshold)", curve.signature_profile().signature_bytes)
                ],
                &widths
            )
        );
    }
    assert_eq!(ThresholdCurve::Bn158.signature_profile().signature_bytes, 21);
    assert_eq!(EcdsaCurve::Secp160r1.profile().signature_bytes, 40);
}

fn fig10d() {
    banner(
        "Fig. 10d — HoneyBadgerBFT-SC latency/throughput vs crypto suite",
        "secp160r1+BN158 (light) against secp192r1+BN254 (medium); 4 nodes, 1 epoch",
    );
    // A two-point sweep along the crypto-suite axis; the table renders from
    // the decoded JSON reports in target/reports/fig10d/.
    let spec = SweepSpec {
        protocols: vec![Protocol::HoneyBadgerSc],
        suites: vec![CryptoSuite::light(), CryptoSuite::medium()],
        batch_size: 24,
        ..SweepSpec::new("fig10d")
    };
    let runs = run_sweep(&spec, sweep_threads());
    let dir = report_root().join(&spec.name);
    let paths = write_reports(&dir, &runs).expect("writing reports must succeed");
    let widths = [22usize, 12, 14];
    println!(
        "{}",
        row(&["suite".into(), "latency (s)".into(), "TPM".into()], &widths)
    );
    let mut results = Vec::new();
    for path in &paths {
        let Scenario { config: cfg, report, .. } =
            read_report(path).expect("report file must decode");
        let label = format!("{}+{}", cfg.suite.ecdsa.name(), cfg.suite.threshold.name());
        assert!(report.completed, "{label} run must finish");
        println!(
            "{}",
            row(
                &[
                    label,
                    format!("{:.1}", report.mean_latency_s),
                    format!("{:.1}", report.throughput_tpm)
                ],
                &widths
            )
        );
        results.push(report);
    }
    assert!(
        results[0].mean_latency_s < results[1].mean_latency_s,
        "paper shape: the lighter suite must have lower latency"
    );
    assert!(
        results[0].throughput_tpm > results[1].throughput_tpm,
        "paper shape: the lighter suite must have higher throughput"
    );
    println!("shape check: lighter curves improve both metrics ✓ (paper: ~20 s latency, ~4.7 TPM gap)");
}
