//! Node placement, radio channels, reachability, and clusters.
//!
//! Single-hop deployments place all nodes within one communication radius on
//! one channel. Multi-hop deployments (paper §V-B) partition nodes into
//! clusters, each a single-hop network on its own channel; cluster leaders
//! additionally join a global channel whose links model the
//! Byzantine-resilient routing overlay between clusters.

use crate::time::SimDuration;

/// Identifies a node in the simulation (dense, zero-based).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct NodeId(pub u16);

impl NodeId {
    /// Zero-based index.
    pub fn index(&self) -> usize {
        self.0 as usize
    }
}

impl core::fmt::Display for NodeId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifies a radio channel. Frames only reach nodes listening on the
/// same channel.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct ChannelId(pub u8);

/// A 2-D position in metres.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct Position {
    /// X coordinate (m).
    pub x: f64,
    /// Y coordinate (m).
    pub y: f64,
}

impl Position {
    /// Euclidean distance to another position.
    pub fn distance(&self, other: &Position) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }
}

/// Per-link extra latency modelling the multi-hop routing overlay on the
/// global channel (paper: leaders communicate "through a routing protocol").
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RoutingModel {
    /// Mean number of relay hops between two overlay members.
    pub mean_hops: f64,
    /// Per-hop forwarding latency.
    pub per_hop: SimDuration,
    /// Airtime stretch: each logical broadcast occupies the channel this
    /// many times longer than a single-hop frame (relays re-transmit).
    pub airtime_stretch: f64,
}

impl RoutingModel {
    /// Direct single-hop communication: no overlay.
    pub fn direct() -> Self {
        RoutingModel { mean_hops: 1.0, per_hop: SimDuration::ZERO, airtime_stretch: 1.0 }
    }

    /// A small routed overlay (cluster leaders a few hops apart).
    pub fn leader_overlay() -> Self {
        RoutingModel {
            mean_hops: 2.0,
            per_hop: SimDuration::from_millis(40),
            airtime_stretch: 1.6,
        }
    }

    /// Extra receive latency a routed frame pays beyond its airtime.
    pub fn extra_latency(&self) -> SimDuration {
        let hops = (self.mean_hops - 1.0).max(0.0);
        SimDuration::from_micros((hops * self.per_hop.as_micros() as f64) as u64)
    }
}

impl Default for RoutingModel {
    fn default() -> Self {
        Self::direct()
    }
}

/// Static description of the deployment's geometry and channel plan.
#[derive(Clone, Debug, Default)]
pub struct Topology {
    positions: Vec<Position>,
    comm_radius: f64,
    /// `channels[node]` — the channels the node's radio listens on. The
    /// radio is still half-duplex: it hears all its channels but a
    /// transmission on any of them blocks reception on all.
    channels: Vec<Vec<ChannelId>>,
    /// Cluster id per node (single-hop deployments use one cluster).
    cluster_of: Vec<usize>,
    /// Routing model per channel (global overlay channels pay extra).
    routing: Vec<(ChannelId, RoutingModel)>,
}

impl Topology {
    /// A single-hop network of `n` nodes placed within one radius on
    /// channel 0.
    pub fn single_hop(n: usize) -> Self {
        let positions = (0..n)
            .map(|i| {
                let angle = i as f64 / n as f64 * std::f64::consts::TAU;
                Position { x: angle.cos() * 0.4, y: angle.sin() * 0.4 }
            })
            .collect();
        Topology {
            positions,
            comm_radius: 1.0,
            channels: vec![vec![ChannelId(0)]; n],
            cluster_of: vec![0; n],
            routing: vec![(ChannelId(0), RoutingModel::direct())],
        }
    }

    /// A clustered multi-hop network: `clusters` single-hop clusters of
    /// `per_cluster` nodes each. Cluster `k` occupies channel `k+1`;
    /// channel 0 is the global leader-overlay channel with
    /// [`RoutingModel::leader_overlay`]. Nodes are *not* initially joined
    /// to the global channel — leaders join it at runtime via
    /// `NodeCtx::join_channel`.
    pub fn clustered(clusters: usize, per_cluster: usize) -> Self {
        let mut positions = Vec::new();
        let mut channels = Vec::new();
        let mut cluster_of = Vec::new();
        for c in 0..clusters {
            let cx = (c % 2) as f64 * 10.0;
            let cy = (c / 2) as f64 * 10.0;
            for i in 0..per_cluster {
                let angle = i as f64 / per_cluster as f64 * std::f64::consts::TAU;
                positions.push(Position { x: cx + angle.cos() * 0.4, y: cy + angle.sin() * 0.4 });
                channels.push(vec![ChannelId(c as u8 + 1)]);
                cluster_of.push(c);
            }
        }
        let mut routing = vec![(ChannelId(0), RoutingModel::leader_overlay())];
        for c in 0..clusters {
            routing.push((ChannelId(c as u8 + 1), RoutingModel::direct()));
        }
        Topology { positions, comm_radius: 1.0, channels, cluster_of, routing }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// `true` when the topology has no nodes.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Position of a node.
    pub fn position(&self, node: NodeId) -> Position {
        self.positions[node.index()]
    }

    /// Cluster id of a node.
    pub fn cluster_of(&self, node: NodeId) -> usize {
        self.cluster_of[node.index()]
    }

    /// All node ids in a cluster, ascending.
    pub fn cluster_members(&self, cluster: usize) -> Vec<NodeId> {
        (0..self.len())
            .filter(|&i| self.cluster_of[i] == cluster)
            .map(|i| NodeId(i as u16))
            .collect()
    }

    /// Channels node currently listens on (mutable at runtime through the
    /// simulator, e.g. when a leader joins the global channel).
    pub fn channels_of(&self, node: NodeId) -> &[ChannelId] {
        &self.channels[node.index()]
    }

    /// Adds a channel to a node's listen set (idempotent).
    pub fn join_channel(&mut self, node: NodeId, channel: ChannelId) {
        let chs = &mut self.channels[node.index()];
        if !chs.contains(&channel) {
            chs.push(channel);
        }
    }

    /// Removes a channel from a node's listen set.
    pub fn leave_channel(&mut self, node: NodeId, channel: ChannelId) {
        self.channels[node.index()].retain(|c| *c != channel);
    }

    /// Whether `b` can hear a transmission from `a` on `channel`:
    /// co-channel and within radius — except on *routed* channels
    /// (stretch > 1), where the overlay forwards frames regardless of
    /// geometric distance.
    pub fn reaches(&self, a: NodeId, b: NodeId, channel: ChannelId) -> bool {
        if a == b {
            return false;
        }
        if !self.channels[a.index()].contains(&channel)
            || !self.channels[b.index()].contains(&channel)
        {
            return false;
        }
        let model = self.routing_for(channel);
        if model.airtime_stretch > 1.0 {
            return true; // routed overlay: reachability by forwarding
        }
        self.positions[a.index()].distance(&self.positions[b.index()]) <= self.comm_radius
    }

    /// The routing model of a channel.
    pub fn routing_for(&self, channel: ChannelId) -> RoutingModel {
        self.routing
            .iter()
            .find(|(c, _)| *c == channel)
            .map(|(_, m)| *m)
            .unwrap_or_else(RoutingModel::direct)
    }

    /// Overrides the communication radius (defaults to 1 m, matching the
    /// paper's low-power-antenna setup).
    pub fn with_comm_radius(mut self, radius: f64) -> Self {
        self.comm_radius = radius;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_hop_all_nodes_reach_each_other() {
        let t = Topology::single_hop(4);
        for a in 0..4u16 {
            for b in 0..4u16 {
                if a != b {
                    assert!(t.reaches(NodeId(a), NodeId(b), ChannelId(0)), "{a}->{b}");
                }
            }
        }
        assert!(!t.reaches(NodeId(0), NodeId(0), ChannelId(0)), "no self-reception");
    }

    #[test]
    fn clustered_nodes_only_reach_cluster_peers() {
        let t = Topology::clustered(4, 4);
        assert_eq!(t.len(), 16);
        // Node 0 (cluster 0, channel 1) reaches node 1 but not node 4
        // (cluster 1, channel 2).
        assert!(t.reaches(NodeId(0), NodeId(1), ChannelId(1)));
        assert!(!t.reaches(NodeId(0), NodeId(4), ChannelId(1)));
        assert!(!t.reaches(NodeId(0), NodeId(4), ChannelId(2)));
        assert_eq!(t.cluster_of(NodeId(5)), 1);
        assert_eq!(t.cluster_members(2), vec![NodeId(8), NodeId(9), NodeId(10), NodeId(11)]);
    }

    #[test]
    fn leaders_reach_across_clusters_on_global_channel() {
        let mut t = Topology::clustered(4, 4);
        // Leaders of clusters 0 and 1 join the overlay channel.
        t.join_channel(NodeId(0), ChannelId(0));
        t.join_channel(NodeId(4), ChannelId(0));
        // Despite being 10 m apart (radius is 1 m), the routed overlay
        // connects them.
        assert!(t.reaches(NodeId(0), NodeId(4), ChannelId(0)));
        t.leave_channel(NodeId(4), ChannelId(0));
        assert!(!t.reaches(NodeId(0), NodeId(4), ChannelId(0)));
    }

    #[test]
    fn routing_model_latency() {
        let m = RoutingModel::leader_overlay();
        assert!(m.extra_latency().as_micros() > 0);
        assert_eq!(RoutingModel::direct().extra_latency(), SimDuration::ZERO);
    }

    #[test]
    fn join_channel_is_idempotent() {
        let mut t = Topology::single_hop(2);
        t.join_channel(NodeId(0), ChannelId(7));
        t.join_channel(NodeId(0), ChannelId(7));
        assert_eq!(t.channels_of(NodeId(0)).iter().filter(|c| c.0 == 7).count(), 1);
    }
}
