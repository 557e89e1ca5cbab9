#![cfg_attr(not(test), deny(clippy::indexing_slicing))]
//! The client-submission wire protocol: how external processes talk to a
//! consensus node over UDP.
//!
//! Clients are not consensus peers — they hold no keys, appear in no
//! [`PeerTable`](crate::PeerTable), and speak a tiny datagram protocol on
//! the reserved [`CLIENT_CHANNEL`]: submit a transaction, receive an
//! explicit admit/reject (the mempool's backpressure signal), subscribe to
//! the committed-block stream, and request a graceful stop. Messages ride
//! the standard [`Datagram`] framing with
//! `src = `[`CLIENT_SRC`] (clients have no node id), so the runtime's
//! existing decode path handles them; the node side answers through a
//! [`ClientGateway`](crate::runtime::ClientGateway) implementation.
//!
//! Commit notifications carry transaction *digests*, not bodies: a client
//! matches the digests of its own submissions to measure commit latency,
//! and the block contents are already public on the consensus channel.
//!
//! [`ServiceClient`] is the protocol's client side: it submits, re-sends
//! and matches the commit streams for the service launcher and its tests.
//!
//! Messages write through [`ByteSink`] and read through [`WireReader`]; each
//! fills its datagram payload exactly, so a decoder refuses trailing bytes
//! as firmly as missing ones.

use bytes::Bytes;
use std::collections::BTreeSet;
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::time::{Duration, Instant};
use wbft_net::datagram::{Datagram, MAX_DATAGRAM_PAYLOAD};
use wbft_net::wire::{ByteSink, Sink, WireReader};
use wbft_net::WireError;

/// Reserved datagram channel for client traffic (peer tables must not
/// assign it, like the control channel).
pub const CLIENT_CHANNEL: u8 = 0xfe;

/// Most digests one [`ClientMsg::Block`] may carry and still fit a single
/// datagram (senders chunk longer blocks into several messages with the
/// same epoch).
pub const MAX_BLOCK_DIGESTS: usize = (MAX_DATAGRAM_PAYLOAD - 11) / 32;

/// The `src` id clients stamp on their datagrams (never a valid node id —
/// tables are validated dense `0..n` with `n` far below this).
pub const CLIENT_SRC: u16 = u16::MAX;

/// The node's answer to one submission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitVerdict {
    /// Admitted into the mempool.
    Admitted,
    /// Dropped as a duplicate (pending, in flight, or already committed).
    Duplicate,
    /// Dropped — the mempool is full; back off and resubmit.
    Full,
    /// Refused — the transaction alone exceeds what one proposal carries;
    /// resubmitting cannot help.
    TooLarge,
}

impl SubmitVerdict {
    fn to_byte(self) -> u8 {
        match self {
            SubmitVerdict::Admitted => 0,
            SubmitVerdict::Duplicate => 1,
            SubmitVerdict::Full => 2,
            SubmitVerdict::TooLarge => 3,
        }
    }

    fn from_byte(b: u8) -> Option<Self> {
        match b {
            0 => Some(SubmitVerdict::Admitted),
            1 => Some(SubmitVerdict::Duplicate),
            2 => Some(SubmitVerdict::Full),
            3 => Some(SubmitVerdict::TooLarge),
            _ => None,
        }
    }
}

/// One message on the client channel (either direction).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClientMsg {
    /// Client → node: one transaction for the mempool.
    Submit {
        /// Transaction bytes.
        tx: Bytes,
    },
    /// Node → client: the admit/reject verdict for a submission, echoing
    /// the transaction's digest so the client can match it.
    SubmitReply {
        /// Backpressure verdict.
        verdict: SubmitVerdict,
        /// SHA-256 digest of the submitted transaction.
        digest: [u8; 32],
    },
    /// Client → node: start streaming committed blocks to this address.
    Subscribe,
    /// Node → client: one committed block, as epoch + content digests.
    Block {
        /// Epoch number.
        epoch: u64,
        /// Digest of every transaction in the block, in block order.
        digests: Vec<[u8; 32]>,
    },
    /// Client → node: request a graceful stop (finish the in-flight
    /// epoch, open no more).
    Stop,
}

const TAG_SUBMIT: u8 = 1;
const TAG_SUBMIT_REPLY: u8 = 2;
const TAG_SUBSCRIBE: u8 = 3;
const TAG_BLOCK: u8 = 4;
const TAG_STOP: u8 = 5;

impl ClientMsg {
    /// Encodes the message payload (goes inside a datagram on
    /// [`CLIENT_CHANNEL`]).
    ///
    /// # Errors
    ///
    /// [`WireError::Oversize`] for a transaction longer than a `u16` length
    /// prefix can describe or a digest list beyond [`MAX_BLOCK_DIGESTS`] —
    /// refused, never silently truncated (block senders chunk instead).
    pub fn encode(&self) -> Result<Bytes, WireError> {
        let mut s = ByteSink::new();
        match self {
            ClientMsg::Submit { tx } => {
                s.u8(TAG_SUBMIT);
                s.bytes(tx)?;
            }
            ClientMsg::SubmitReply { verdict, digest } => {
                s.u8(TAG_SUBMIT_REPLY);
                s.u8(verdict.to_byte());
                s.raw(digest);
            }
            ClientMsg::Subscribe => s.u8(TAG_SUBSCRIBE),
            ClientMsg::Block { epoch, digests } => {
                if digests.len() > MAX_BLOCK_DIGESTS {
                    return Err(WireError::Oversize("block digest list"));
                }
                s.u8(TAG_BLOCK);
                s.u64(*epoch);
                s.count16(digests.len())?;
                digests.iter().for_each(|d| s.raw(d));
            }
            ClientMsg::Stop => s.u8(TAG_STOP),
        }
        Ok(s.into_bytes())
    }

    /// Decodes one payload; `None` for anything malformed (length-checked,
    /// never a panic — clients are untrusted). Every message fills its
    /// payload exactly.
    pub fn decode(data: &[u8]) -> Option<ClientMsg> {
        WireReader::exact(data, |r| {
            Ok(match r.u8()? {
                TAG_SUBMIT => ClientMsg::Submit { tx: r.bytes()? },
                TAG_SUBMIT_REPLY => ClientMsg::SubmitReply {
                    verdict: SubmitVerdict::from_byte(r.u8()?)
                        .ok_or(WireError::Malformed("submit verdict"))?,
                    digest: r.array()?,
                },
                TAG_SUBSCRIBE => ClientMsg::Subscribe,
                TAG_BLOCK => {
                    let epoch = r.u64()?;
                    let count = usize::from(r.u16()?);
                    // A digest list reserves no more than the datagram holds.
                    let digests = r.list(count, r.remaining() / 32, WireReader::array)?;
                    ClientMsg::Block { epoch, digests }
                }
                TAG_STOP => ClientMsg::Stop,
                other => return Err(WireError::UnknownKind(other)),
            })
        })
        .ok()
    }
}

/// How often [`ServiceClient::nudge`] re-sends at most.
const NUDGE_INTERVAL: Duration = Duration::from_millis(500);

/// What one [`ServiceClient::poll`] learned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClientEvent {
    /// Node `node` streamed back submission `tx` (its index in submit
    /// order) for the first time.
    Committed {
        /// Index of the node in the cluster's address list.
        node: usize,
        /// Index of the submission, in submit order.
        tx: usize,
    },
    /// A node refused a submission because its mempool is full.
    Full,
}

/// An external client of a service cluster: it submits transactions to
/// every node and matches the nodes' commit streams against them.
///
/// Only datagrams from the cluster's own addresses count, and each
/// (node, submission) pair counts once: a restarted node, or a
/// re-subscription after eviction, replays its whole stream.
pub struct ServiceClient {
    socket: UdpSocket,
    nodes: Vec<SocketAddr>,
    subscribe: Bytes,
    stop: Bytes,
    /// Each submission's digest and framed `Submit`, in submit order.
    submissions: Vec<([u8; 32], Bytes)>,
    /// The (submission, node) pairs streamed back so far.
    seen: BTreeSet<(usize, usize)>,
    last_nudge: Option<Instant>,
    buf: Vec<u8>,
}

/// Frames one client message as a datagram on [`CLIENT_CHANNEL`].
fn frame(msg: &ClientMsg) -> Result<Bytes, WireError> {
    Datagram { src: CLIENT_SRC, channel: CLIENT_CHANNEL, nominal_len: 0, payload: msg.encode()? }
        .encode()
}

impl ServiceClient {
    /// Binds an ephemeral loopback port for a client of the nodes at
    /// `nodes`. [`poll`](Self::poll) waits at most 20 ms for a datagram.
    ///
    /// # Errors
    ///
    /// The socket's bind or configuration error.
    pub fn bind(nodes: &[SocketAddr]) -> io::Result<ServiceClient> {
        let socket = UdpSocket::bind("127.0.0.1:0")?;
        socket.set_read_timeout(Some(Duration::from_millis(20)))?;
        Ok(ServiceClient {
            socket,
            nodes: nodes.to_vec(),
            subscribe: frame(&ClientMsg::Subscribe).map_err(io::Error::other)?,
            stop: frame(&ClientMsg::Stop).map_err(io::Error::other)?,
            submissions: Vec::new(),
            seen: BTreeSet::new(),
            last_nudge: None,
            buf: vec![0; 1 << 16],
        })
    }

    /// Sends `tx`, whose digest is `digest`, to every node (the mempools
    /// commit a transaction once across proposers). Returns its index.
    ///
    /// # Errors
    ///
    /// [`WireError::Oversize`] for a transaction one datagram cannot carry.
    pub fn submit(&mut self, tx: Bytes, digest: [u8; 32]) -> Result<usize, WireError> {
        let submit = frame(&ClientMsg::Submit { tx })?;
        self.send_all(&submit);
        self.submissions.push((digest, submit));
        Ok(self.submissions.len() - 1)
    }

    /// At most once per 500 ms: subscribes to every node again and re-sends
    /// each submission that no node has streamed back yet. The first
    /// datagrams race the nodes' socket binds and UDP is lossy; both
    /// messages are idempotent at the node.
    pub fn nudge(&mut self) {
        if self.last_nudge.is_some_and(|at| at.elapsed() < NUDGE_INTERVAL) {
            return;
        }
        self.last_nudge = Some(Instant::now());
        self.send_all(&self.subscribe);
        for (tx, (_, submit)) in self.submissions.iter().enumerate() {
            if self.seen.range((tx, 0)..(tx + 1, 0)).next().is_none() {
                self.send_all(submit);
            }
        }
    }

    /// Reads one datagram (or times out) and reports what it carried that
    /// is new. Datagrams from outside the cluster are ignored.
    pub fn poll(&mut self) -> Vec<ClientEvent> {
        let mut events = Vec::new();
        let Ok((len, from)) = self.socket.recv_from(&mut self.buf) else { return events };
        let node = self.nodes.iter().position(|&a| a == from);
        let datagram = self.buf.get(..len).and_then(|b| Datagram::decode(b).ok());
        let msg = datagram
            .filter(|d| d.channel == CLIENT_CHANNEL)
            .and_then(|d| ClientMsg::decode(&d.payload));
        match (node, msg) {
            (Some(node), Some(ClientMsg::Block { digests, .. })) => {
                for digest in digests {
                    let tx = self.submissions.iter().position(|(d, _)| *d == digest);
                    if let Some(tx) = tx.filter(|&tx| self.seen.insert((tx, node))) {
                        events.push(ClientEvent::Committed { node, tx });
                    }
                }
            }
            (Some(_), Some(ClientMsg::SubmitReply { verdict: SubmitVerdict::Full, .. })) => {
                events.push(ClientEvent::Full);
            }
            _ => {}
        }
        events
    }

    /// Whether every node has streamed back every submission.
    pub fn all_seen(&self) -> bool {
        self.seen.len() == self.submissions.len() * self.nodes.len()
    }

    /// Per node, how many submissions it has streamed back.
    pub fn seen(&self) -> Vec<usize> {
        let streamed = |node| self.seen.iter().filter(|&&(_, n)| n == node).count();
        (0..self.nodes.len()).map(streamed).collect()
    }

    /// Asks every node to stop, `times` times with `gap` between, against
    /// UDP loss.
    pub fn stop(&self, times: usize, gap: Duration) {
        for _ in 0..times {
            self.send_all(&self.stop);
            std::thread::sleep(gap);
        }
    }

    /// A failed send is a lost datagram; [`nudge`](Self::nudge) repeats.
    fn send_all(&self, datagram: &[u8]) {
        for node in &self.nodes {
            let _ = self.socket.send_to(datagram, node);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: ClientMsg) {
        let enc = msg.encode().expect("encodes");
        assert_eq!(ClientMsg::decode(&enc), Some(msg));
    }

    #[test]
    fn all_variants_round_trip() {
        roundtrip(ClientMsg::Submit { tx: Bytes::from_static(b"pay alice 5") });
        roundtrip(ClientMsg::Submit { tx: Bytes::new() });
        roundtrip(ClientMsg::SubmitReply {
            verdict: SubmitVerdict::Admitted,
            digest: [7; 32],
        });
        roundtrip(ClientMsg::SubmitReply { verdict: SubmitVerdict::Full, digest: [0; 32] });
        roundtrip(ClientMsg::SubmitReply { verdict: SubmitVerdict::TooLarge, digest: [3; 32] });
        roundtrip(ClientMsg::Subscribe);
        roundtrip(ClientMsg::Block { epoch: 42, digests: vec![[1; 32], [2; 32]] });
        roundtrip(ClientMsg::Block { epoch: 0, digests: vec![] });
        roundtrip(ClientMsg::Stop);
    }

    #[test]
    fn malformed_payloads_decode_to_none() {
        assert_eq!(ClientMsg::decode(&[]), None);
        assert_eq!(ClientMsg::decode(&[99]), None);
        assert_eq!(ClientMsg::decode(&[TAG_SUBMIT, 5, 0, b'x']), None); // short tx
        assert_eq!(ClientMsg::decode(&[TAG_SUBMIT_REPLY, 9]), None);
        assert_eq!(ClientMsg::decode(&[TAG_SUBMIT_REPLY, 4, 0]), None); // bad verdict
        assert_eq!(ClientMsg::decode(&[TAG_SUBSCRIBE, 0]), None); // trailing byte
        let mut block =
            ClientMsg::Block { epoch: 1, digests: vec![[1; 32]] }.encode().unwrap().to_vec();
        block.pop(); // truncated digest
        assert_eq!(ClientMsg::decode(&block), None);
        assert_eq!(ClientMsg::decode(&[TAG_STOP, 1]), None);
    }

    #[test]
    fn submit_tx_bytes_survive_exactly() {
        let tx = Bytes::from((0u16..300).map(|v| v as u8).collect::<Vec<u8>>());
        let enc = ClientMsg::Submit { tx: tx.clone() }.encode().expect("encodes");
        match ClientMsg::decode(&enc) {
            Some(ClientMsg::Submit { tx: got }) => assert_eq!(got, tx),
            other => panic!("unexpected decode: {other:?}"),
        }
    }

    #[test]
    fn oversize_messages_are_refused_not_truncated() {
        let huge = ClientMsg::Submit { tx: Bytes::from(vec![0u8; u16::MAX as usize + 1]) };
        assert!(huge.encode().is_err());
        let wide = ClientMsg::Block { epoch: 0, digests: vec![[0; 32]; MAX_BLOCK_DIGESTS + 1] };
        assert!(wide.encode().is_err());
        let max = ClientMsg::Block { epoch: 0, digests: vec![[0; 32]; MAX_BLOCK_DIGESTS] };
        let enc = max.encode().expect("exact limit fits the codec");
        assert!(enc.len() <= MAX_DATAGRAM_PAYLOAD);
        assert_eq!(ClientMsg::decode(&enc), Some(max));
    }

    /// Two fake nodes on loopback and a client of them.
    fn cluster() -> (Vec<UdpSocket>, ServiceClient) {
        let nodes: Vec<UdpSocket> =
            (0..2).map(|_| UdpSocket::bind("127.0.0.1:0").expect("bind node")).collect();
        for node in &nodes {
            node.set_read_timeout(Some(Duration::from_millis(100))).expect("timeout");
        }
        let addrs: Vec<SocketAddr> = nodes.iter().map(|n| n.local_addr().expect("addr")).collect();
        (nodes, ServiceClient::bind(&addrs).expect("bind client"))
    }

    /// Every client message waiting at `node`, and the last sender.
    fn drain(node: &UdpSocket) -> (Vec<ClientMsg>, Option<SocketAddr>) {
        let mut buf = [0u8; 2048];
        let (mut msgs, mut from) = (Vec::new(), None);
        while let Ok((len, addr)) = node.recv_from(&mut buf) {
            let datagram = Datagram::decode(&buf[..len]).expect("client datagram");
            msgs.push(ClientMsg::decode(&datagram.payload).expect("client message"));
            from = Some(addr);
        }
        (msgs, from)
    }

    fn stream(from: &UdpSocket, to: SocketAddr, digests: Vec<[u8; 32]>) {
        let block = frame(&ClientMsg::Block { epoch: 0, digests }).expect("frames");
        from.send_to(&block, to).expect("send");
    }

    fn submit(client: &mut ServiceClient, i: u8) -> usize {
        client.submit(Bytes::from(vec![i; 4]), [i; 32]).expect("fits")
    }

    #[test]
    fn a_block_from_outside_the_cluster_is_ignored() {
        let (nodes, mut client) = cluster();
        submit(&mut client, 1);
        let (_, at) = drain(&nodes[0]);
        let at = at.expect("the submission reached node 0");
        let stranger = UdpSocket::bind("127.0.0.1:0").expect("bind");
        stream(&stranger, at, vec![[1; 32]]);
        assert_eq!(client.poll(), vec![]);
        assert_eq!(client.seen(), vec![0, 0]);
        stream(&nodes[0], at, vec![[1; 32]]);
        assert_eq!(client.poll(), vec![ClientEvent::Committed { node: 0, tx: 0 }]);
        assert_eq!(client.seen(), vec![1, 0]);
    }

    #[test]
    fn a_replayed_block_counts_each_submission_once_per_node() {
        let (nodes, mut client) = cluster();
        submit(&mut client, 1);
        submit(&mut client, 2);
        let at = drain(&nodes[0]).1.expect("submissions reached node 0");
        drain(&nodes[1]);
        stream(&nodes[0], at, vec![[1; 32], [9; 32], [2; 32]]);
        let first = vec![
            ClientEvent::Committed { node: 0, tx: 0 },
            ClientEvent::Committed { node: 0, tx: 1 },
        ];
        assert_eq!(client.poll(), first);
        // A restarted node, or a re-subscription, replays the stream.
        stream(&nodes[0], at, vec![[1; 32], [2; 32]]);
        assert_eq!(client.poll(), vec![]);
        assert_eq!(client.seen(), vec![2, 0]);
        assert!(!client.all_seen());
        stream(&nodes[1], at, vec![[2; 32], [1; 32]]);
        assert_eq!(client.poll().len(), 2);
        assert!(client.all_seen());
    }

    #[test]
    fn nudge_resends_only_what_no_node_streamed_back_at_most_once_per_interval() {
        let (nodes, mut client) = cluster();
        let tx = Bytes::from(vec![2u8; 4]);
        submit(&mut client, 1);
        client.submit(tx.clone(), [2; 32]).expect("fits");
        let at = drain(&nodes[0]).1.expect("submissions reached node 0");
        drain(&nodes[1]);
        // Node 1 alone has streamed submission 0 back: nobody re-sends it.
        stream(&nodes[1], at, vec![[1; 32]]);
        assert_eq!(client.poll().len(), 1);
        let resent = vec![ClientMsg::Subscribe, ClientMsg::Submit { tx }];
        client.nudge();
        for node in &nodes {
            assert_eq!(drain(node).0, resent);
        }
        client.nudge();
        for node in &nodes {
            assert_eq!(drain(node).0, vec![], "a second nudge inside the interval sends nothing");
        }
        std::thread::sleep(NUDGE_INTERVAL);
        client.nudge();
        assert_eq!(drain(&nodes[0]).0, resent);
    }
}
