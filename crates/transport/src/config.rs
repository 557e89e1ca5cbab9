#![cfg_attr(not(test), deny(clippy::indexing_slicing))]
//! The peer table: who the nodes are, where their sockets live, and which
//! logical channels each one listens on.
//!
//! This is the real-network counterpart of the simulator's `Topology`:
//! channel membership becomes a *peer-address multicast set* — broadcasting
//! on channel `c` means sending one UDP datagram to every other peer whose
//! entry lists `c`. The table serializes through `wbft-report` JSON so a
//! launcher can write one file and hand it to every process:
//!
//! ```json
//! {
//!   "peers": [
//!     {"node": 0, "addr": "127.0.0.1:47001", "channels": [0]},
//!     {"node": 1, "addr": "127.0.0.1:47002", "channels": [0]}
//!   ]
//! }
//! ```

use std::net::SocketAddr;
use wbft_report::json_record;
use wbft_wireless::ChannelId;

/// One node's network identity.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PeerEntry {
    /// The node's id (dense, zero-based — the same ids protocol code uses).
    pub node: u16,
    /// UDP socket address the node binds and receives on.
    pub addr: SocketAddr,
    /// Logical channels the node listens on.
    pub channels: Vec<u8>,
}

/// The full deployment: one entry per node, indexed by node id.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct PeerTable {
    /// All peers, in node-id order.
    pub peers: Vec<PeerEntry>,
}

impl PeerTable {
    /// A loopback deployment: node `i` at `127.0.0.1:ports[i]`, everyone on
    /// channel 0 (the single-hop topology).
    pub fn loopback(ports: &[u16]) -> PeerTable {
        PeerTable {
            peers: (0u16..)
                .zip(ports)
                .map(|(node, &port)| PeerEntry {
                    node,
                    addr: SocketAddr::from(([127, 0, 0, 1], port)),
                    channels: vec![0],
                })
                .collect(),
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.peers.len()
    }

    /// `true` when the table has no peers.
    pub fn is_empty(&self) -> bool {
        self.peers.is_empty()
    }

    /// The entry of `node`, if present.
    pub fn entry(&self, node: u16) -> Option<&PeerEntry> {
        self.peers.iter().find(|p| p.node == node)
    }

    /// The socket address of `node`, if present.
    pub fn addr_of(&self, node: u16) -> Option<SocketAddr> {
        self.entry(node).map(|p| p.addr)
    }

    /// The multicast set of `channel` as seen from `me`: the addresses of
    /// every *other* peer listening on it (a node never receives its own
    /// broadcast, matching the simulator's no-self-reception rule).
    pub fn multicast_set(&self, me: u16, channel: ChannelId) -> Vec<SocketAddr> {
        self.peers
            .iter()
            .filter(|p| p.node != me && p.channels.contains(&channel.0))
            .map(|p| p.addr)
            .collect()
    }

    /// Validates the table: ids must be dense `0..n` in order (so a
    /// launcher cannot misnumber a deployment), addresses unique, and no
    /// entry may claim the transport's reserved channels — control
    /// ([`crate::runtime::CONTROL_CHANNEL`]), client submission
    /// ([`crate::client::CLIENT_CHANNEL`]) and anti-entropy sync
    /// ([`crate::sync::SYNC_CHANNEL`]).
    ///
    /// # Errors
    ///
    /// A description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        for (i, p) in self.peers.iter().enumerate() {
            if p.node as usize != i {
                return Err(format!("peer {i} has id {} — ids must be dense 0..n", p.node));
            }
            for reserved in [
                crate::runtime::CONTROL_CHANNEL,
                crate::client::CLIENT_CHANNEL,
                crate::sync::SYNC_CHANNEL,
            ] {
                if p.channels.contains(&reserved) {
                    return Err(format!(
                        "node {} claims channel {reserved} — reserved for the transport",
                        p.node,
                    ));
                }
            }
        }
        for (i, a) in self.peers.iter().enumerate() {
            for b in self.peers.iter().skip(i + 1) {
                if a.addr == b.addr {
                    return Err(format!("nodes {} and {} share address {}", a.node, b.node, a.addr));
                }
            }
        }
        Ok(())
    }
}

json_record! {
    PeerEntry { node, addr, channels }
    PeerTable { peers }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wbft_report::{FromJson, ToJson};

    #[test]
    fn loopback_table_is_valid_and_round_trips() {
        let table = PeerTable::loopback(&[47001, 47002, 47003, 47004]);
        table.validate().unwrap();
        assert_eq!(table.len(), 4);
        assert_eq!(table.addr_of(2), Some(SocketAddr::from(([127, 0, 0, 1], 47003))));
        let text = table.to_json().pretty();
        let decoded = PeerTable::from_json(&wbft_report::parse(&text).unwrap()).unwrap();
        assert_eq!(decoded, table);
        assert_eq!(decoded.to_json().pretty(), text);
    }

    #[test]
    fn multicast_set_excludes_self_and_other_channels() {
        let mut table = PeerTable::loopback(&[1, 2, 3, 4]);
        table.peers[3].channels = vec![1];
        let set = table.multicast_set(0, ChannelId(0));
        assert_eq!(
            set,
            vec![
                SocketAddr::from(([127, 0, 0, 1], 2)),
                SocketAddr::from(([127, 0, 0, 1], 3)),
            ]
        );
        assert!(table.multicast_set(3, ChannelId(1)).is_empty());
    }

    #[test]
    fn validation_rejects_sparse_ids_and_duplicate_addrs() {
        let mut table = PeerTable::loopback(&[1, 2]);
        table.peers[1].node = 5;
        assert!(table.validate().is_err());
        let mut table = PeerTable::loopback(&[1, 2]);
        table.peers[1].addr = table.peers[0].addr;
        assert!(table.validate().is_err());
    }

    #[test]
    fn validation_rejects_the_reserved_control_channel() {
        let mut table = PeerTable::loopback(&[1, 2]);
        table.peers[0].channels.push(crate::runtime::CONTROL_CHANNEL);
        assert!(table.validate().is_err());
    }

    #[test]
    fn validation_rejects_the_reserved_client_channel() {
        let mut table = PeerTable::loopback(&[1, 2]);
        table.peers[1].channels.push(crate::client::CLIENT_CHANNEL);
        assert!(table.validate().is_err());
    }

    #[test]
    fn validation_rejects_the_reserved_sync_channel() {
        let mut table = PeerTable::loopback(&[1, 2]);
        table.peers[0].channels.push(crate::sync::SYNC_CHANNEL);
        assert!(table.validate().is_err());
    }

    #[test]
    fn bad_addresses_and_ranges_fail_decode() {
        let j = wbft_report::parse(
            r#"{"peers": [{"node": 0, "addr": "not-an-addr", "channels": [0]}]}"#,
        )
        .unwrap();
        assert!(PeerTable::from_json(&j).is_err());
        let j = wbft_report::parse(
            r#"{"peers": [{"node": 0, "addr": "127.0.0.1:1", "channels": [900]}]}"#,
        )
        .unwrap();
        assert!(PeerTable::from_json(&j).is_err());
        let j = wbft_report::parse(
            r#"{"peers": [{"node": 99999, "addr": "127.0.0.1:1", "channels": [0]}]}"#,
        )
        .unwrap();
        assert!(PeerTable::from_json(&j).is_err());
    }
}
