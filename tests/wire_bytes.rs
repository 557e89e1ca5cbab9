//! Pins the exact bytes of every wire and proposal format.
//!
//! Round-trip property tests cannot see a layout change that moves the
//! encoder and the decoder together, and simulated reports depend only on
//! nominal lengths — so nothing else notices if a refactor reorders two
//! fields. This test builds one value of every format from fixed seeds
//! (Schnorr signatures and DLEQ proofs are deterministic), encodes it, and
//! compares the length, the nominal length where the format has one, and
//! the SHA-256 of the bytes against the table below. It also decodes the
//! pinned bytes back, so the decoders are held to the same layout.
//!
//! Covered: one sealed `Envelope` per `Body` variant (both coin flavors
//! where a body carries a coin share, plus one key-epoch-tagged seal), every
//! `ClientMsg` and `SyncMsg` variant, a `DealSet`, both membership ops, a
//! proposal batch, an HB ciphertext, a Dumbo instance set (`W` and commit
//! set), a multi-hop summary and a `Datagram`.

use bytes::Bytes;
use rand::SeedableRng;
use wbft_components::deal_node_crypto;
use wbft_consensus::dumbo::{decode_commit, encode_commit};
use wbft_consensus::honeybadger::{decode_ciphertext, encode_ciphertext};
use wbft_consensus::multihop::{decode_summary, encode_summary};
use wbft_consensus::workload::{decode_batch, encode_batch, Workload};
use wbft_crypto::hash::Digest32;
use wbft_crypto::schnorr::KeyPair;
use wbft_crypto::thresh_coin::{deal_coin, CoinName};
use wbft_crypto::thresh_enc::deal_enc;
use wbft_crypto::thresh_sig::deal;
use wbft_crypto::{CryptoSuite, EcdsaCurve, ThresholdCurve};
use wbft_membership::{decode_op, encode_op, CommitteeLog, DealSet, MembershipOp, ReshareCeremony};
use wbft_net::packets::{AbaLcInst, AbaScInst};
use wbft_net::wire::Sizing;
use wbft_net::{BinValues, Bitmap, Body, CoinFlavor, Datagram, Envelope, FrameNack, InitNack, Vote};
use wbft_transport::{ClientMsg, SubmitVerdict, SyncBlock, SyncMsg};

/// One line per pinned encoding: name, byte length, nominal length under
/// the light and the medium suite (`-` where the format has no nominal
/// length of its own), SHA-256 of the bytes.
const PINNED: &str = "\
envelope.rbc_init 130 104 112 4b9183688671da32be7d6903a29c9318dc07d6e6076be16ce3fb71a2853f20cd
envelope.rbc_echo_ready 214 188 196 d6f5819e70ddbc0a10e6c85b0b89687827d3d693deec93c1e7774266f37caff2
envelope.cbc_init 125 99 107 209a869c16836d2dd45b1cbbd2a8d245ddd3a85d5954c391f345f1bee7a1cb11
envelope.cbc_echo_finish 218 159 203 ed3f34b1b2bd8b2255230eb94341e2b4251aa3794348d14c5f3e225107e3a884
envelope.prbc_done 180 121 165 339fd6ce35f49ce27d2409b15314852840e0425d395972e74eac87e2acbb58d9
envelope.rbc_small 88 62 70 2a639d55347a0828ef8cf40501132d80aca49e4565fee0214698b584224b311d
envelope.cbc_small 157 109 141 526a21b2cd6f049737fb241e066d62aae7b182949f8972d74287b2031fda3c2b
envelope.aba_lc 96 70 78 7e2dcd3fe7c0cb5eaac909c093cbc69e5369ff8e2e31f1bd3700876b1c8bd474
envelope.aba_sc.sig 160 112 144 4b719baa18b08ebffec86bf880585b85357e864fb0a8c8c6fb74ab3a6a6b159b
envelope.aba_sc.flip 160 128 160 91a369487bdc73628a6808083fcaf07bf3b8b4686a12fb7132f57a9b2a0fb2f0
envelope.base_rbc_echo 109 83 91 2f60dc886e2f7a627a3ec46cc73a7593ff3947291e5bfd101c4cd7f215364eab
envelope.base_rbc_ready 109 83 91 85bf7aa21005c6f776eb6f20a0c32de6977866e0ba2361b184ba7c74df5c1738
envelope.base_rbc_nack 111 85 93 d30abfc616734c7809332265b555daa58679266f88f01a1e43bd1e14742f22ac
envelope.base_cbc_echo 111 74 94 9224262590d1eaee8d469a564ee0734e589786833d1cc21d0a9c9d718693e094
envelope.base_cbc_finish 143 106 126 094676ffc3939b9718d5b938900cf6d1a36e21dc2d1e81e450954f79a014bb85
envelope.base_cbc_nack 78 52 60 3ce711f0c7c9c3f5b4d48a2acd4b04119c2fe94e2b2d70515b73cc810ee2aea3
envelope.base_prbc_done 111 74 94 4d96cc6dc38ac8f7b4eafef178cafb463b1932fba5732d33503f217d04f443c5
envelope.base_prbc_proof 109 72 92 9c31c05088279d9b58ea0b9697006dd34141a8c482fa6d30589caf1c7d3d8792
envelope.base_aba_vote 80 54 62 e6e97c2b9bd5717714be0951fc262ccebbad9f1f27b3cb498b04066c045b69ff
envelope.base_aba_coin.sig 114 77 97 fc779a3ea368afc3fe594737eaccfce07f838089ef89b24eafbda9300e848618
envelope.base_aba_coin.flip 114 85 105 e5b6750d0aff068e45d64392f48cb73945cff909fe9fcf7ea67d42241ee90549
envelope.dec_share_batch 276 100 132 8cb1441d88963060b6f34d6c4298348e766abb56a3e3f576927e84deaaa7234a
envelope.base_dec_share 175 74 94 d967a5ecbcaa16b0b9649d3b7867be55ba55a9e9e92f37116ee34b4baaae3931
envelope.global_decision 119 93 101 f47e46e330ecdd01c1747c2f9be6802e5a9dc40ba0d5b8acbe8f97804092554a
envelope.reshare 102 76 84 32a2e99e8c8d7e0855b62aa91b28cefffa04d6c4b975579d2ccf1385c3321407
envelope.tagged 117 91 99 0e3bafc7d4f73a86888c3df24674b73af3f48a8c46c21047239698d6dbdbc738
client.submit 14 - - 9229acbd243f546a2460860b6f5bba3cebf0d02251cee78196e38e103fbbb7eb
client.submit.empty 3 - - fb50dc0717ff266cf9baf82b1ce7a1c2ef6d9247859680b11a19fb7077f5f222
client.reply.admitted 34 - - 21be29685a48bab34995c01fbc8b777890b98002c297f6c84e8df16ebaf2725c
client.reply.duplicate 34 - - 059d468d2722ab22c530d5169b257ea687bad84b48ccc81379fc299aa70ebf7c
client.reply.full 34 - - 94aaec3fb2612dc496527728927efd33a470247110de8327b5ed5e55197b8dff
client.subscribe 1 - - 084fed08b978af4d7d196a7446a86b58009e636b611db16211b65a9aadff29c5
client.block 75 - - a281d622256bfe0e696793df1c85b1fa354bd87f6a4d2f63ae1f0f3ccc4301c8
client.block.empty 11 - - c6f378205327fa9e8eb42cfdbeff1702d60a5fbf5e1a909ba6c6ca0ecd971907
client.stop 1 - - e77b9a9ae9e30b0dbdb6f510a264ef9de781501d7b6b92ae89eb059c5ab743db
sync.head 9 - - 09b5f2034b5e934590dca0df011470ea60e7fd1456b44e4a28afdb6ada9cd436
sync.chunk 85 - - a733fd2071ff51f6f621917d35ad6605a93978ecabd4835d601852695d2d6d01
sync.chunk.empty 10 - - d04c9c422abfc5287e423c8b5e8c1c7e2f93fec3d911dff85799337199df8639
deal_set 858 - - 75361030a083765c7fb9a1b6e1fd9928190ecf38606a82082b50fee24d194fd3
op.join 11 - - 950458cd4399ccd80ce19f1a5c13e000c221ff484beba82293b9982671cc9a76
op.leave 11 - - bd86454aeab913821173c7339d9fd038ce4d59e0988022a3da87e4e96618c086
batch 214 - - 6d45e6d26976b0253f54886877b578f3ba5a7ac5ed2112276b6af905e24ebc6b
batch.empty 4 - - df3f619804a92fdb4057192dc43dd748ea778adc52bc498ce80524c014b81119
ciphertext 278 - - 9c8452e82125a00215a7acc8d35a1992c0b6b0518e577c608581c41a18f69692
dumbo.commit_set 9 - - 0e78682ccb4eaad1988975201aabe570e7f10f092e6d755c065b144f3fbf9119
multihop.summary 45 - - eea98c1337cd3a6b6c95d8654ee4fc83911e7243fded039c48bcfa51c2f9c8cb
datagram 116 - - 75eb13c534d047843a31da7c0b013bce6298a6deda6e04973b7647d56ed312aa
";

fn line(name: &str, bytes: &[u8], nominal: Option<(usize, usize)>) -> String {
    let nominal = match nominal {
        Some((light, medium)) => format!("{light} {medium}"),
        None => "- -".to_string(),
    };
    format!(
        "{name} {} {nominal} {}\n",
        bytes.len(),
        hex::encode(Digest32::of(bytes).as_bytes())
    )
}

/// Exhaustive over `Body`: a new variant does not compile until it is
/// named here, sampled below and pinned.
fn variant(body: &Body) -> &'static str {
    match body {
        Body::RbcInit { .. } => "rbc_init",
        Body::RbcEchoReady { .. } => "rbc_echo_ready",
        Body::CbcInit { .. } => "cbc_init",
        Body::CbcEchoFinish { .. } => "cbc_echo_finish",
        Body::PrbcDone { .. } => "prbc_done",
        Body::RbcSmall { .. } => "rbc_small",
        Body::CbcSmall { .. } => "cbc_small",
        Body::AbaLc { .. } => "aba_lc",
        Body::AbaSc {
            flavor: CoinFlavor::ThreshSig,
            ..
        } => "aba_sc.sig",
        Body::AbaSc {
            flavor: CoinFlavor::CoinFlip,
            ..
        } => "aba_sc.flip",
        Body::BaseRbcEcho { .. } => "base_rbc_echo",
        Body::BaseRbcReady { .. } => "base_rbc_ready",
        Body::BaseRbcNack { .. } => "base_rbc_nack",
        Body::BaseCbcEcho { .. } => "base_cbc_echo",
        Body::BaseCbcFinish { .. } => "base_cbc_finish",
        Body::BaseCbcNack { .. } => "base_cbc_nack",
        Body::BasePrbcDone { .. } => "base_prbc_done",
        Body::BasePrbcProof { .. } => "base_prbc_proof",
        Body::BaseAbaVote { .. } => "base_aba_vote",
        Body::BaseAbaCoin {
            flavor: CoinFlavor::ThreshSig,
            ..
        } => "base_aba_coin.sig",
        Body::BaseAbaCoin {
            flavor: CoinFlavor::CoinFlip,
            ..
        } => "base_aba_coin.flip",
        Body::DecShareBatch { .. } => "dec_share_batch",
        Body::BaseDecShare { .. } => "base_dec_share",
        Body::GlobalDecision { .. } => "global_decision",
        Body::Reshare { .. } => "reshare",
    }
}

fn bodies() -> Vec<Body> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let (pks, sks) = deal(4, 1, ThresholdCurve::Bn158, &mut rng);
    let share = sks[2].sign_share(b"pinned");
    let sig = pks.combine(&[sks[0].sign_share(b"pinned"), share]).unwrap();
    let (_, coins) = deal_coin(4, 1, ThresholdCurve::Bn158, &mut rng);
    let coin = coins[1].coin_share(CoinName {
        session: 5,
        round: 2,
        domain: 1,
    });
    let (enc, decs) = deal_enc(4, 1, ThresholdCurve::Bn158, &mut rng);
    let ct = enc.encrypt(b"label", b"plaintext", &mut rng);
    let dec = decs[3].dec_share(&ct);
    let d = Digest32::of(b"proposal");
    let e = Digest32::of(b"other");
    let bm = |raw: u64| Bitmap::from_raw(raw, 4);
    // INITIAL NACKs name the fragments they lack: instance `j` with its
    // request, an empty request asking for every fragment.
    let init_nack = |asks: &[(usize, Bitmap)]| {
        let mut nack = InitNack::new(4);
        asks.iter().for_each(|&(j, request)| nack.ask(j, request));
        nack
    };
    let aba_sc = |flavor| Body::AbaSc {
        flavor,
        insts: vec![
            AbaScInst {
                instance: 0,
                round: 1,
                bval: BinValues {
                    zero: true,
                    one: true,
                },
                aux: Vote::One,
                decided: Vote::Unknown,
            },
            AbaScInst {
                instance: 3,
                round: 700,
                bval: BinValues {
                    zero: false,
                    one: true,
                },
                aux: Vote::Zero,
                decided: Vote::One,
            },
        ],
        coin_shares: vec![(1, coin), (2, coin)],
        share_nack: bm(0b0011),
    };
    vec![
        Body::RbcInit {
            instance: 2,
            frag: 1,
            frag_total: 3,
            root: d,
            data: Bytes::from_static(b"fragment-data"),
            init_nack: init_nack(&[(0, Bitmap::from_raw(0b00100, 5)), (2, Bitmap::new(0))]),
        },
        Body::RbcEchoReady {
            roots: vec![d, Digest32::zero(), e, d],
            echo: bm(0b1101),
            ready: bm(0b0001),
            echo_nack: bm(0b0010),
            ready_nack: bm(0b1110),
            init_nack: InitNack::new(4),
        },
        Body::CbcInit {
            instance: 1,
            frag: 0,
            frag_total: 1,
            root: e,
            data: Bytes::from_static(b"cbc-value"),
            init_nack: init_nack(&[(3, Bitmap::from_raw(0b110, 3))]),
        },
        Body::CbcEchoFinish {
            echo_shares: vec![(0, share), (3, share)],
            finish_sigs: vec![(1, e, sig)],
            echo_nack: bm(0b0100),
            finish_nack: Bitmap::full(4),
            init_nack: InitNack::new(4),
        },
        Body::PrbcDone {
            shares: vec![(2, share)],
            proofs: vec![(0, sig), (1, sig)],
            sig_nack: bm(0b1000),
        },
        Body::RbcSmall {
            values: vec![Vote::One, Vote::Zero, Vote::Bot, Vote::Unknown, Vote::One],
            echo: bm(0b0111),
            ready: bm(0b0010),
            init_nack: bm(0b1000),
            echo_nack: Bitmap::new(4),
            ready_nack: bm(0b0001),
        },
        Body::CbcSmall {
            values: vec![bm(0b0111), Bitmap::new(4), Bitmap::new(0)],
            echo_shares: vec![(1, share)],
            finish_sigs: vec![(2, sig)],
            init_nack: bm(0b0001),
            echo_nack: bm(0b0010),
            finish_nack: bm(0b0100),
        },
        Body::AbaLc {
            insts: vec![
                AbaLcInst {
                    instance: 1,
                    round: 3,
                    reports: [
                        vec![Vote::One; 4],
                        vec![Vote::Unknown, Vote::Zero, Vote::Bot, Vote::One],
                        vec![Vote::Unknown; 4],
                    ],
                    decided: Vote::Unknown,
                },
                AbaLcInst {
                    instance: 2,
                    round: 513,
                    reports: [vec![Vote::Zero; 5], vec![], vec![Vote::Bot; 3]],
                    decided: Vote::Zero,
                },
            ],
        },
        aba_sc(CoinFlavor::ThreshSig),
        aba_sc(CoinFlavor::CoinFlip),
        Body::BaseRbcEcho {
            instance: 3,
            root: d,
            nack: 0b011.into(),
        },
        Body::BaseRbcReady {
            instance: 2,
            root: e,
            nack: 0b010.into(),
        },
        Body::BaseRbcNack {
            instance: 1,
            root: d,
            nack: FrameNack::new(0b111, Bitmap::from_raw(0b01, 2)),
        },
        Body::BaseCbcEcho {
            instance: 1,
            share,
            nack: 0b010.into(),
        },
        Body::BaseCbcFinish {
            instance: 1,
            root: e,
            sig,
            nack: FrameNack::new(0b100, Bitmap::from_raw(0b1000, 4)),
        },
        Body::BaseCbcNack {
            instance: 0,
            nack: 0b110.into(),
        },
        Body::BasePrbcDone {
            instance: 2,
            share,
            nack: 1,
        },
        Body::BasePrbcProof {
            instance: 3,
            proof: sig,
            nack: 0,
        },
        Body::BaseAbaVote {
            flavor: CoinFlavor::ThreshSig,
            inst: AbaScInst {
                instance: 3,
                round: 258,
                bval: BinValues {
                    zero: true,
                    one: false,
                },
                aux: Vote::Zero,
                decided: Vote::Unknown,
            },
        },
        Body::BaseAbaCoin {
            flavor: CoinFlavor::ThreshSig,
            coin: 2,
            share: coin,
            share_nack: bm(0b1010),
        },
        Body::BaseAbaCoin {
            flavor: CoinFlavor::CoinFlip,
            coin: 1 << 8 | 4,
            share: coin,
            share_nack: Bitmap::new(4),
        },
        Body::DecShareBatch {
            shares: vec![(0, dec), (2, dec)],
            dec_nack: bm(0b0110),
        },
        Body::BaseDecShare {
            proposer: 1,
            share: dec,
            nack: 1,
        },
        Body::GlobalDecision {
            epoch: 9,
            digest: d,
            tx_count: 120,
        },
        Body::Reshare {
            key_epoch: 3,
            dealer: 2,
            deal: Bytes::from_static(b"opaque-deal-set"),
        },
    ]
}

fn keypair() -> KeyPair {
    KeyPair::generate(
        EcdsaCurve::Secp160r1,
        &mut rand::rngs::StdRng::seed_from_u64(1),
    )
}

fn envelopes(out: &mut String) -> Bytes {
    let kp = keypair();
    let light = Sizing::light(4);
    let medium = Sizing {
        n: 4,
        suite: CryptoSuite::medium(),
    };
    let mut last = Bytes::new();
    for (i, body) in bodies().into_iter().enumerate() {
        let env = Envelope {
            src: 3,
            session: 0x0102_0304_0506 + i as u64,
            body,
        };
        let (bytes, nominal) = env.seal(&kp, &light).unwrap();
        let (_, nominal_medium) = env.seal(&kp, &medium).unwrap();
        out.push_str(&line(
            &format!("envelope.{}", variant(&env.body)),
            &bytes,
            Some((nominal, nominal_medium)),
        ));
        let (opened, sig_ok) = Envelope::open(&bytes, |_| Some(kp.public())).unwrap();
        assert!(sig_ok, "{}", variant(&env.body));
        assert_eq!(opened, env);
        last = bytes;
    }
    let tagged = Envelope {
        src: 1,
        session: 77,
        body: Body::BaseRbcReady {
            instance: 1,
            root: Digest32::zero(),
            nack: 0.into(),
        },
    };
    let (bytes, nominal) = tagged.seal_tagged(&kp, &light, 5).unwrap();
    let (_, nominal_medium) = tagged.seal_tagged(&kp, &medium, 5).unwrap();
    out.push_str(&line(
        "envelope.tagged",
        &bytes,
        Some((nominal, nominal_medium)),
    ));
    let (opened, key_epoch, sig_ok) = Envelope::open_tagged(&bytes, |_| Some(kp.public())).unwrap();
    assert!(sig_ok);
    assert_eq!((opened, key_epoch), (tagged, 5));
    last
}

fn client_and_sync(out: &mut String) {
    let client = [
        (
            "submit",
            ClientMsg::Submit {
                tx: Bytes::from_static(b"pay alice 5"),
            },
        ),
        ("submit.empty", ClientMsg::Submit { tx: Bytes::new() }),
        (
            "reply.admitted",
            ClientMsg::SubmitReply {
                verdict: SubmitVerdict::Admitted,
                digest: [7; 32],
            },
        ),
        (
            "reply.duplicate",
            ClientMsg::SubmitReply {
                verdict: SubmitVerdict::Duplicate,
                digest: [8; 32],
            },
        ),
        (
            "reply.full",
            ClientMsg::SubmitReply {
                verdict: SubmitVerdict::Full,
                digest: [9; 32],
            },
        ),
        ("subscribe", ClientMsg::Subscribe),
        (
            "block",
            ClientMsg::Block {
                epoch: 42,
                digests: vec![[1; 32], [2; 32]],
            },
        ),
        (
            "block.empty",
            ClientMsg::Block {
                epoch: 0,
                digests: vec![],
            },
        ),
        ("stop", ClientMsg::Stop),
    ];
    for (name, msg) in client {
        let bytes = msg.encode().unwrap();
        out.push_str(&line(&format!("client.{name}"), &bytes, None));
        assert_eq!(ClientMsg::decode(&bytes), Some(msg));
    }
    let sync = [
        (
            "head",
            SyncMsg::HeadAnnounce {
                height: 0x0a0b_0c0d,
            },
        ),
        (
            "chunk",
            SyncMsg::BlockChunk {
                start_epoch: 7,
                blocks: vec![
                    SyncBlock {
                        payload: Bytes::from_static(b"batch-a"),
                        digest: [1; 32],
                    },
                    SyncBlock {
                        payload: Bytes::new(),
                        digest: [2; 32],
                    },
                ],
            },
        ),
        (
            "chunk.empty",
            SyncMsg::BlockChunk {
                start_epoch: 3,
                blocks: vec![],
            },
        ),
    ];
    for (name, msg) in sync {
        let bytes = msg.encode().unwrap();
        out.push_str(&line(&format!("sync.{name}"), &bytes, None));
        assert_eq!(SyncMsg::decode(&bytes), Some(msg));
    }
}

fn membership(out: &mut String) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(42);
    let genesis = deal_node_crypto(4, CryptoSuite::light(), &mut rng);
    let mut log = CommitteeLog::new(4);
    let new = log
        .on_commit(1, &[MembershipOp::Join(4), MembershipOp::Leave(0)])
        .cloned()
        .unwrap();
    let ceremony = ReshareCeremony::new(log.config_at(0).clone(), new);
    let dealer = ceremony.dealers()[0];
    let deal = ceremony
        .make_deal(&genesis[dealer as usize], dealer, &mut rng)
        .unwrap();
    let bytes = deal.encode();
    out.push_str(&line("deal_set", &bytes, None));
    assert_eq!(DealSet::decode(&bytes), Some(deal));
    for (name, op) in [
        ("join", MembershipOp::Join(4)),
        ("leave", MembershipOp::Leave(0x0102)),
    ] {
        let bytes = encode_op(op);
        out.push_str(&line(&format!("op.{name}"), &bytes, None));
        assert_eq!(decode_op(&bytes), Some(op));
    }
}

fn proposals(out: &mut String) {
    let txs = Workload {
        batch_size: 5,
        tx_bytes: 40,
        seed: 3,
    }
    .batch(2, 1);
    let batch = encode_batch(&txs);
    out.push_str(&line("batch", &batch, None));
    assert_eq!(decode_batch(&batch), Some(txs));
    let empty = encode_batch(&[]);
    out.push_str(&line("batch.empty", &empty, None));
    assert_eq!(decode_batch(&empty), Some(vec![]));

    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let (enc, _) = deal_enc(4, 1, ThresholdCurve::Bn158, &mut rng);
    let ct = enc.encrypt(b"wbft/hb/ct", &batch, &mut rng);
    let bytes = encode_ciphertext(&ct);
    out.push_str(&line("ciphertext", &bytes, None));
    assert_eq!(decode_ciphertext(&bytes), Some(ct));

    let set = Bitmap::from_raw(0b1011, 4);
    let bytes = encode_commit(&set);
    out.push_str(&line("dumbo.commit_set", &bytes, None));
    assert_eq!(decode_commit(&bytes), Some(set));

    let digest = Digest32::of(b"cluster-block");
    let bytes = encode_summary(2, 9, digest, 384);
    out.push_str(&line("multihop.summary", &bytes, None));
    assert_eq!(decode_summary(&bytes), Some((2, 9, digest, 384)));
}

#[test]
fn every_wire_and_proposal_format_keeps_its_exact_bytes() {
    let mut actual = String::new();
    let sealed = envelopes(&mut actual);
    client_and_sync(&mut actual);
    membership(&mut actual);
    proposals(&mut actual);
    let datagram = Datagram {
        src: 3,
        channel: 1,
        nominal_len: 217,
        payload: sealed,
    };
    let bytes = datagram.encode().unwrap();
    actual.push_str(&line("datagram", &bytes, None));
    assert_eq!(Datagram::decode(&bytes), Ok(datagram));
    assert_eq!(
        actual, PINNED,
        "pinned wire bytes moved; actual table:\n{actual}"
    );
}
