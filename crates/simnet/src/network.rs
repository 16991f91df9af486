//! Link models and message-delivery timing.
//!
//! The paper assumes asynchronous but *reliable* communication (§3.1): no
//! delivery bound, but every message eventually arrives. [`Network`]
//! models exactly that: every send arrives after its link's latency plus
//! its bytes over the link's bandwidth, with per-pair overrides for
//! heterogeneous edge connectivity. Nothing is dropped or jittered, so
//! the network holds no random state.

use std::collections::HashMap;

use crate::node::NodeId;
use crate::time::SimDuration;

/// Latency + bandwidth of one directed link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkModel {
    /// One-way propagation delay.
    pub latency: SimDuration,
    /// Sustained throughput in bytes per second.
    pub bandwidth_bps: f64,
}

impl LinkModel {
    /// A symmetric datacenter-style default: 1 ms latency, 1 Gbit/s.
    pub fn datacenter() -> Self {
        LinkModel { latency: SimDuration::from_micros(1_000), bandwidth_bps: 125_000_000.0 }
    }

    /// A constrained edge uplink: 20 ms latency, 20 Mbit/s.
    pub fn edge() -> Self {
        LinkModel { latency: SimDuration::from_micros(20_000), bandwidth_bps: 2_500_000.0 }
    }

    /// Time to push `bytes` through this link.
    ///
    /// # Panics
    ///
    /// Panics if the bandwidth is not positive.
    pub fn transfer_time(&self, bytes: usize) -> SimDuration {
        assert!(self.bandwidth_bps > 0.0, "LinkModel: non-positive bandwidth");
        self.latency + SimDuration::from_secs_f64(bytes as f64 / self.bandwidth_bps)
    }
}

/// The cluster's communication fabric.
///
/// Peer-to-peer by default (any node can message any node, as the paper's
/// testbed allows); per-pair overrides model slower links.
#[derive(Debug)]
pub struct Network {
    default_link: LinkModel,
    overrides: HashMap<(NodeId, NodeId), LinkModel>,
    bytes_delivered: u64,
}

impl Network {
    /// Creates a network where every link uses `default_link`.
    pub fn new(default_link: LinkModel) -> Self {
        Network { default_link, overrides: HashMap::new(), bytes_delivered: 0 }
    }

    /// Total payload bytes of every message sent since construction (or
    /// since the value [`Network::restore_odometer`] set) — the run's
    /// bytes-on-wire odometer.
    pub fn bytes_delivered(&self) -> u64 {
        self.bytes_delivered
    }

    /// Resets the bytes odometer to a checkpointed reading.
    pub fn restore_odometer(&mut self, bytes_delivered: u64) {
        self.bytes_delivered = bytes_delivered;
    }

    /// Overrides the link model for the directed pair `from → to`.
    pub fn set_link(&mut self, from: NodeId, to: NodeId, link: LinkModel) {
        self.overrides.insert((from, to), link);
    }

    /// The link model in effect for `from → to`.
    pub fn link(&self, from: NodeId, to: NodeId) -> LinkModel {
        self.overrides.get(&(from, to)).copied().unwrap_or(self.default_link)
    }

    /// Sends a `bytes`-sized message on `from → to`, counting it on the
    /// odometer, and returns the delay after which it arrives.
    pub fn send(&mut self, from: NodeId, to: NodeId, bytes: usize) -> SimDuration {
        self.bytes_delivered += bytes as u64;
        self.link(from, to).transfer_time(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_includes_latency_and_bandwidth() {
        let link = LinkModel { latency: SimDuration::from_micros(1000), bandwidth_bps: 1e6 };
        // 1 MB over 1 MB/s = 1 s, plus 1 ms latency.
        let t = link.transfer_time(1_000_000);
        assert_eq!(t.as_micros(), 1_001_000);
    }

    #[test]
    fn default_network_is_reliable_and_deterministic() {
        let mut net = Network::new(LinkModel::datacenter());
        // 1 ms latency plus 1 024 B at 125 MB/s (8.192 µs, rounded to 8).
        for _ in 0..100 {
            assert_eq!(net.send(NodeId(0), NodeId(1), 1024).as_micros(), 1_008);
        }
    }

    #[test]
    fn overrides_apply_per_direction() {
        let mut net = Network::new(LinkModel::datacenter());
        net.set_link(NodeId(0), NodeId(1), LinkModel::edge());
        let slow = net.link(NodeId(0), NodeId(1)).transfer_time(1_000_000);
        let fast = net.link(NodeId(1), NodeId(0)).transfer_time(1_000_000);
        assert!(slow > fast);
    }

    #[test]
    fn bytes_odometer_counts_deliveries_not_drops() {
        let mut net = Network::new(LinkModel::datacenter());
        net.send(NodeId(0), NodeId(1), 100);
        net.send(NodeId(1), NodeId(0), 23);
        assert_eq!(net.bytes_delivered(), 123);
        let mut restored = Network::new(LinkModel::datacenter());
        restored.restore_odometer(net.bytes_delivered());
        restored.send(NodeId(0), NodeId(1), 7);
        assert_eq!(restored.bytes_delivered(), 130);
    }
}
