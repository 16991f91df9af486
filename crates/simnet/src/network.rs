//! Link models and message-delivery timing with fault injection.
//!
//! The paper assumes asynchronous but *reliable* communication (§3.1): no
//! delivery bound, but every message eventually arrives. [`Network`]
//! models per-link latency and bandwidth, supports per-pair overrides
//! (heterogeneous edge connectivity) and — for robustness tests only —
//! probabilistic message drops and extra jitter, which the protocol must
//! tolerate via its round sequence numbers.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};

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

/// Verdict for one message send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// The message arrives after the returned delay.
    After(SimDuration),
    /// The message was dropped by fault injection.
    Dropped,
}

/// The cluster's communication fabric.
///
/// Peer-to-peer by default (any node can message any node, as the paper's
/// testbed allows); per-pair overrides model slower links.
#[derive(Debug)]
pub struct Network {
    default_link: LinkModel,
    overrides: HashMap<(NodeId, NodeId), LinkModel>,
    drop_prob: f64,
    jitter_max: SimDuration,
    rng: StdRng,
    bytes_delivered: u64,
}

impl Network {
    /// Creates a fault-free network where every link uses `default_link`.
    pub fn new(default_link: LinkModel) -> Self {
        Network {
            default_link,
            overrides: HashMap::new(),
            drop_prob: 0.0,
            jitter_max: SimDuration::ZERO,
            rng: StdRng::seed_from_u64(0),
            bytes_delivered: 0,
        }
    }

    /// Total payload bytes of every successfully delivered message since
    /// construction — the run's bytes-on-wire odometer. Dropped messages
    /// (fault injection) are not counted.
    pub fn bytes_delivered(&self) -> u64 {
        self.bytes_delivered
    }

    /// Captures the fault-injection state (drop probability, jitter bound,
    /// raw RNG state) for a resumable checkpoint.
    pub fn fault_state(&self) -> (f64, SimDuration, [u64; 4]) {
        (self.drop_prob, self.jitter_max, self.rng.state())
    }

    /// Restores the state captured by [`Network::fault_state`] plus the
    /// bytes odometer, continuing drop/jitter draws exactly where the
    /// snapshot left them.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= drop_prob < 1`.
    pub fn restore_fault_state(
        &mut self,
        drop_prob: f64,
        jitter_max: SimDuration,
        rng: [u64; 4],
        bytes_delivered: u64,
    ) {
        assert!((0.0..1.0).contains(&drop_prob), "Network: drop_prob {drop_prob} outside [0,1)");
        self.drop_prob = drop_prob;
        self.jitter_max = jitter_max;
        self.rng = StdRng::from_state(rng);
        self.bytes_delivered = bytes_delivered;
    }

    /// Overrides the link model for the directed pair `from → to`.
    pub fn set_link(&mut self, from: NodeId, to: NodeId, link: LinkModel) {
        self.overrides.insert((from, to), link);
    }

    /// Enables fault injection: each send is dropped with `drop_prob` and
    /// otherwise delayed by up to `jitter_max` extra (uniform), driven by
    /// a deterministic RNG seeded with `seed`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= drop_prob < 1`.
    pub fn enable_faults(&mut self, drop_prob: f64, jitter_max: SimDuration, seed: u64) {
        assert!((0.0..1.0).contains(&drop_prob), "Network: drop_prob {drop_prob} outside [0,1)");
        self.drop_prob = drop_prob;
        self.jitter_max = jitter_max;
        self.rng = StdRng::seed_from_u64(seed);
    }

    /// The link model in effect for `from → to`.
    pub fn link(&self, from: NodeId, to: NodeId) -> LinkModel {
        self.overrides.get(&(from, to)).copied().unwrap_or(self.default_link)
    }

    /// Decides the fate of a `bytes`-sized message on `from → to`.
    pub fn send(&mut self, from: NodeId, to: NodeId, bytes: usize) -> Delivery {
        if self.drop_prob > 0.0 && self.rng.random_bool(self.drop_prob) {
            return Delivery::Dropped;
        }
        let mut delay = self.link(from, to).transfer_time(bytes);
        if self.jitter_max > SimDuration::ZERO {
            let extra = self.rng.random_range(0..=self.jitter_max.as_micros());
            delay += SimDuration::from_micros(extra);
        }
        self.bytes_delivered += bytes as u64;
        Delivery::After(delay)
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
        for _ in 0..100 {
            match net.send(NodeId(0), NodeId(1), 1024) {
                Delivery::After(_) => {}
                Delivery::Dropped => panic!("fault-free network dropped a message"),
            }
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
    fn faults_drop_roughly_the_configured_fraction() {
        let mut net = Network::new(LinkModel::datacenter());
        net.enable_faults(0.3, SimDuration::ZERO, 42);
        let drops = (0..2000)
            .filter(|_| matches!(net.send(NodeId(0), NodeId(1), 10), Delivery::Dropped))
            .count();
        assert!((450..750).contains(&drops), "dropped {drops}/2000, expected ≈600");
    }

    #[test]
    fn jitter_adds_bounded_delay() {
        let mut net = Network::new(LinkModel::datacenter());
        net.enable_faults(0.0, SimDuration::from_micros(500), 7);
        let base = LinkModel::datacenter().transfer_time(10);
        for _ in 0..100 {
            match net.send(NodeId(0), NodeId(1), 10) {
                Delivery::After(d) => {
                    assert!(d >= base);
                    assert!(d.as_micros() <= base.as_micros() + 500);
                }
                Delivery::Dropped => panic!("no drops configured"),
            }
        }
    }

    #[test]
    fn bytes_odometer_counts_deliveries_not_drops() {
        let mut net = Network::new(LinkModel::datacenter());
        net.send(NodeId(0), NodeId(1), 100);
        net.send(NodeId(1), NodeId(0), 23);
        assert_eq!(net.bytes_delivered(), 123);
        net.enable_faults(0.999, SimDuration::ZERO, 1);
        for _ in 0..50 {
            net.send(NodeId(0), NodeId(1), 1_000_000);
        }
        assert!(net.bytes_delivered() < 123 + 3_000_000, "drops must not count");
    }

    #[test]
    fn fault_state_round_trip_resumes_draws() {
        let mut net = Network::new(LinkModel::datacenter());
        net.enable_faults(0.4, SimDuration::from_micros(100), 11);
        for _ in 0..25 {
            net.send(NodeId(0), NodeId(1), 5);
        }
        let (p, j, rng) = net.fault_state();
        let odometer = net.bytes_delivered();
        let tail: Vec<_> = (0..25).map(|_| net.send(NodeId(0), NodeId(1), 5)).collect();
        let mut restored = Network::new(LinkModel::datacenter());
        restored.restore_fault_state(p, j, rng, odometer);
        let replay: Vec<_> = (0..25).map(|_| restored.send(NodeId(0), NodeId(1), 5)).collect();
        assert_eq!(tail, replay);
        assert_eq!(net.bytes_delivered(), restored.bytes_delivered());
    }

    #[test]
    fn fault_injection_is_reproducible() {
        let run = |seed| {
            let mut net = Network::new(LinkModel::datacenter());
            net.enable_faults(0.5, SimDuration::from_micros(100), seed);
            (0..50)
                .map(|_| match net.send(NodeId(0), NodeId(1), 1) {
                    Delivery::After(d) => d.as_micros() as i64,
                    Delivery::Dropped => -1,
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }
}
