//! Property tests for the UDP datagram framing layer (`wbft_net::datagram`)
//! and the wire writer's oversize hardening, mirroring the style of
//! `report_roundtrip.rs`:
//!
//! * encode → decode is a fixpoint over arbitrary src/channel/nominal
//!   lengths and payload sizes up to the UDP maximum;
//! * malformed, truncated, bit-flipped or garbage datagrams never panic —
//!   they return a `WireError` the transport counts as a drop;
//! * the `Sink` length-prefix checks hold at their exact boundaries under
//!   arbitrary inputs;
//! * the client and sync messages that ride inside datagrams decode back to
//!   what was encoded, refuse every strict prefix and a trailing byte, and
//!   never panic on garbage.

use bytes::Bytes;
use proptest::prelude::*;
use wbft_net::datagram::{Datagram, HEADER_BYTES, VERSION};
use wbft_net::wire::{ByteSink, CountSink, Sink, Sizing, WireError};
use wbft_net::Bitmap;
use wbft_transport::{ClientMsg, SubmitVerdict, SyncBlock, SyncMsg};

fn arb_datagram() -> impl Strategy<Value = Datagram> {
    (
        any::<u16>(),
        any::<u8>(),
        any::<u32>(),
        proptest::collection::vec(any::<u8>(), 0..2_000),
    )
        .prop_map(|(src, channel, nominal_len, payload)| Datagram {
            src,
            channel,
            nominal_len,
            payload: Bytes::from(payload),
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn datagram_roundtrip(d in arb_datagram()) {
        let bytes = d.encode().expect("payloads under the MTU encode");
        prop_assert_eq!(bytes.len(), HEADER_BYTES + 2 + d.payload.len());
        prop_assert_eq!(Datagram::decode(&bytes), Ok(d));
    }

    #[test]
    fn datagram_decode_never_panics_on_garbage(
        data in proptest::collection::vec(any::<u8>(), 0..300)
    ) {
        let _ = Datagram::decode(&data); // must return, never panic
    }

    #[test]
    fn datagram_decode_rejects_any_truncation(d in arb_datagram()) {
        let bytes = d.encode().unwrap();
        for cut in 0..bytes.len() {
            prop_assert!(Datagram::decode(&bytes[..cut]).is_err(), "prefix of {} bytes", cut);
        }
    }

    #[test]
    fn datagram_decode_rejects_trailing_bytes(d in arb_datagram(), extra in 1usize..8) {
        let mut bytes = d.encode().unwrap().to_vec();
        bytes.extend(std::iter::repeat_n(0xCD, extra));
        prop_assert_eq!(
            Datagram::decode(&bytes),
            Err(WireError::Malformed("datagram trailing bytes"))
        );
    }

    #[test]
    fn datagram_single_byte_flips_never_panic(d in arb_datagram(), pos in any::<u16>()) {
        // A flipped bit either still decodes (payload corruption is the
        // envelope signature's problem) or errors — but never panics.
        let mut bytes = d.encode().unwrap().to_vec();
        let i = pos as usize % bytes.len();
        bytes[i] ^= 0x40;
        let _ = Datagram::decode(&bytes);
    }

    #[test]
    fn wrong_version_always_rejected(d in arb_datagram(), v in any::<u8>()) {
        prop_assume!(v != VERSION);
        let mut bytes = d.encode().unwrap().to_vec();
        bytes[4] = v;
        prop_assert_eq!(
            Datagram::decode(&bytes),
            Err(WireError::Malformed("datagram version"))
        );
    }

    #[test]
    fn sink_bytes_boundary_is_exact(extra in 0usize..4) {
        // 65535 encodes on both sinks; 65536.. returns Oversize, and the
        // two sinks agree so nominal and real encodability never diverge.
        let v = vec![0u8; u16::MAX as usize + extra];
        let mut byte_sink = ByteSink::new();
        let mut count_sink = CountSink::new(Sizing::light(4));
        let a = byte_sink.bytes(&v);
        let b = count_sink.bytes(&v);
        prop_assert_eq!(a.clone(), b);
        prop_assert_eq!(a.is_ok(), extra == 0);
    }

    #[test]
    fn sink_count8_boundary_is_exact(n in 250usize..260) {
        let mut sink = ByteSink::new();
        prop_assert_eq!(sink.count8(n).is_ok(), n <= 255);
    }

    #[test]
    fn constructible_bitmaps_always_encode(len in 0usize..=64, raw in any::<u64>()) {
        let bm = Bitmap::from_raw(raw, len);
        let mut sink = ByteSink::new();
        prop_assert!(sink.bitmap(&bm).is_ok());
        let mut count_sink = CountSink::new(Sizing::light(4));
        prop_assert!(count_sink.bitmap(&bm).is_ok());
    }
}

/// The transport's drop accounting relies on decode errors covering every
/// non-frame input — spot-check the distinguished error classes.
#[test]
fn error_classes_are_distinguished() {
    assert_eq!(Datagram::decode(&[]), Err(WireError::Truncated));
    assert_eq!(
        Datagram::decode(&[0xde, 0xad, 0xbe, 0xef, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
        Err(WireError::Malformed("datagram magic"))
    );
    let short_payload = {
        // Valid header declaring a 100-byte payload, but only 1 byte follows.
        let d = Datagram {
            src: 0,
            channel: 0,
            nominal_len: 0,
            payload: Bytes::from_static(&[0; 100]),
        };
        let mut bytes = d.encode().unwrap().to_vec();
        bytes.truncate(HEADER_BYTES + 2 + 1);
        bytes
    };
    assert_eq!(Datagram::decode(&short_payload), Err(WireError::Truncated));
}

fn arb_client_msg() -> impl Strategy<Value = ClientMsg> {
    let verdicts = [
        SubmitVerdict::Admitted,
        SubmitVerdict::Duplicate,
        SubmitVerdict::Full,
        SubmitVerdict::TooLarge,
    ];
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 0..300)
            .prop_map(|tx| ClientMsg::Submit { tx: Bytes::from(tx) }),
        (0usize..4, any::<[u8; 32]>())
            .prop_map(move |(v, digest)| ClientMsg::SubmitReply { verdict: verdicts[v], digest }),
        Just(ClientMsg::Subscribe),
        (any::<u64>(), proptest::collection::vec(any::<[u8; 32]>(), 0..12))
            .prop_map(|(epoch, digests)| ClientMsg::Block { epoch, digests }),
        Just(ClientMsg::Stop),
    ]
}

fn arb_sync_msg() -> impl Strategy<Value = SyncMsg> {
    let block = (proptest::collection::vec(any::<u8>(), 0..200), any::<[u8; 32]>())
        .prop_map(|(payload, digest)| SyncBlock { payload: Bytes::from(payload), digest });
    prop_oneof![
        any::<u64>().prop_map(|height| SyncMsg::HeadAnnounce { height }),
        (any::<u64>(), proptest::collection::vec(block, 0..6))
            .prop_map(|(start_epoch, blocks)| SyncMsg::BlockChunk { start_epoch, blocks }),
    ]
}

/// The hostile-input battery of a format that fills its payload exactly:
/// the encoding decodes back to the value, and every strict prefix and the
/// encoding plus one byte are refused.
fn exact_format<T: PartialEq + std::fmt::Debug>(
    value: &T,
    bytes: &[u8],
    decode: impl Fn(&[u8]) -> Option<T>,
    extra: u8,
) -> Result<(), TestCaseError> {
    let decoded = decode(bytes);
    prop_assert_eq!(decoded.as_ref(), Some(value));
    for cut in 0..bytes.len() {
        prop_assert!(decode(&bytes[..cut]).is_none(), "prefix of {} bytes", cut);
    }
    let mut longer = bytes.to_vec();
    longer.push(extra);
    prop_assert!(decode(&longer).is_none(), "trailing byte accepted");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn client_msg_codec_is_exact(msg in arb_client_msg(), extra in any::<u8>()) {
        exact_format(&msg, &msg.encode().unwrap(), ClientMsg::decode, extra)?;
    }

    #[test]
    fn sync_msg_codec_is_exact(msg in arb_sync_msg(), extra in any::<u8>()) {
        exact_format(&msg, &msg.encode().unwrap(), SyncMsg::decode, extra)?;
    }

    #[test]
    fn client_and_sync_decoders_never_panic_on_garbage(
        data in proptest::collection::vec(any::<u8>(), 0..300)
    ) {
        let _ = ClientMsg::decode(&data); // must return, never panic
        let _ = SyncMsg::decode(&data);
    }
}
