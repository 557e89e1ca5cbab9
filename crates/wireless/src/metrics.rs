//! Measurement counters: the quantities the paper's tables and figures are
//! made of.
//!
//! *Channel accesses per node* is the statistic behind Table I (message
//! overhead); airtime, collisions and CPU time explain the latency figures.

use crate::time::SimDuration;
use crate::topology::NodeId;

/// Counters for one node.
#[derive(Clone, Debug, Default)]
pub struct NodeMetrics {
    /// Completed transmissions — each one is one channel-access contention
    /// (the "message overhead per node" of Table I).
    pub channel_accesses: u64,
    /// Bytes transmitted (nominal wire bytes, i.e. what the paper's packets
    /// would occupy).
    pub bytes_sent: u64,
    /// Airtime spent transmitting.
    pub airtime: SimDuration,
    /// Frames successfully delivered to this node's protocol.
    pub frames_received: u64,
    /// Frames this node lost to a collision.
    pub lost_collision: u64,
    /// Frames this node lost to channel noise (loss model).
    pub lost_noise: u64,
    /// Frames missed because the half-duplex radio was transmitting.
    pub lost_half_duplex: u64,
    /// Virtual CPU time charged by the protocol (crypto, parsing).
    pub cpu_time: SimDuration,
}

/// Aggregated counters for a simulation run.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    per_node: Vec<NodeMetrics>,
    /// Collision events on the medium (each counted once, not per receiver).
    pub collisions: u64,
    /// Queued frames dropped before they aired ([`crate::Command::Withdraw`]).
    /// A run-level count, not part of a run report: counters rebuilt by
    /// [`Metrics::from_parts`] read zero here.
    pub withdrawn: u64,
    /// Frames longer than the radio's maximum, aired at that maximum's
    /// airtime. Run-level like `withdrawn`.
    pub oversize: u64,
}

impl Metrics {
    /// Creates counters for `n` nodes.
    pub fn new(n: usize) -> Self {
        Metrics { per_node: vec![NodeMetrics::default(); n], collisions: 0, withdrawn: 0, oversize: 0 }
    }

    /// Reassembles counters from per-node parts (report deserialization);
    /// the run-level counts read zero.
    pub fn from_parts(per_node: Vec<NodeMetrics>, collisions: u64) -> Self {
        Metrics { per_node, collisions, withdrawn: 0, oversize: 0 }
    }

    /// Number of nodes tracked.
    pub fn node_count(&self) -> usize {
        self.per_node.len()
    }

    /// Counters of one node.
    pub fn node(&self, id: NodeId) -> &NodeMetrics {
        &self.per_node[id.index()]
    }

    /// Mutable counters of one node.
    pub fn node_mut(&mut self, id: NodeId) -> &mut NodeMetrics {
        &mut self.per_node[id.index()]
    }

    /// Iterates all per-node counters.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &NodeMetrics)> {
        self.per_node.iter().enumerate().map(|(i, m)| (NodeId(i as u16), m))
    }

    /// Total channel accesses across nodes.
    pub fn total_channel_accesses(&self) -> u64 {
        self.per_node.iter().map(|m| m.channel_accesses).sum()
    }

    /// Mean channel accesses per node.
    pub fn mean_channel_accesses(&self) -> f64 {
        if self.per_node.is_empty() {
            0.0
        } else {
            self.total_channel_accesses() as f64 / self.per_node.len() as f64
        }
    }

    /// Total bytes put on the air.
    pub fn total_bytes_sent(&self) -> u64 {
        self.per_node.iter().map(|m| m.bytes_sent).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregation() {
        let mut m = Metrics::new(3);
        m.node_mut(NodeId(0)).channel_accesses = 4;
        m.node_mut(NodeId(1)).channel_accesses = 6;
        m.node_mut(NodeId(2)).bytes_sent = 100;
        assert_eq!(m.total_channel_accesses(), 10);
        assert!((m.mean_channel_accesses() - 10.0 / 3.0).abs() < 1e-9);
        assert_eq!(m.total_bytes_sent(), 100);
        assert_eq!(m.iter().count(), 3);
    }

    #[test]
    fn empty_metrics_mean_is_zero() {
        assert_eq!(Metrics::new(0).mean_channel_accesses(), 0.0);
    }
}
