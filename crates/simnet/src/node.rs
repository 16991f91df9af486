//! Node identity and CPU speed models.

use std::fmt;

/// Identifies a node in the simulated cluster.
///
/// By convention the federator is [`NodeId::FEDERATOR`] and clients are
/// numbered from 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The federator's reserved identity.
    pub const FEDERATOR: NodeId = NodeId(u32::MAX);

    /// True for the federator id.
    pub(crate) fn is_federator(self) -> bool {
        self == NodeId::FEDERATOR
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_federator() {
            write!(f, "federator")
        } else {
            write!(f, "client-{}", self.0)
        }
    }
}

/// How fast a node executes compute work.
///
/// `speed` is the fraction of a reference core the node gets — the
/// simulation analogue of the paper's Docker CPU throttling (0.1–1.0).
/// A task of `W` FLOPs takes `W / (speed · BASE_FLOPS)` virtual seconds
/// (see [`BASE_FLOPS`]).
///
/// # Examples
///
/// ```
/// use aergia_simnet::CpuModel;
///
/// let mut cpu = CpuModel::new(1.0);
/// // A collocated application steals three quarters of the core.
/// cpu.set_speed(0.25);
/// assert_eq!(cpu.speed(), 0.25);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuModel {
    speed: f64,
}

/// Reference throughput of a full simulated core (FLOPs/second). The
/// absolute value only sets the unit of reported times; relative results
/// are independent of it.
pub const BASE_FLOPS: f64 = 2.0e9;

impl CpuModel {
    /// Creates a CPU model running at `speed` of a reference core.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < speed <= 1.0`.
    pub fn new(speed: f64) -> Self {
        assert!(speed > 0.0 && speed <= 1.0, "CpuModel: speed {speed} outside (0, 1]");
        CpuModel { speed }
    }

    /// The node's speed fraction.
    pub fn speed(&self) -> f64 {
        self.speed
    }

    /// Changes the node's speed (the paper's transient-load scenario where
    /// collocated applications steal cycles).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < speed <= 1.0`.
    pub fn set_speed(&mut self, speed: f64) {
        assert!(speed > 0.0 && speed <= 1.0, "CpuModel: speed {speed} outside (0, 1]");
        self.speed = speed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn federator_id_is_distinct() {
        assert!(NodeId::FEDERATOR.is_federator());
        assert!(!NodeId(0).is_federator());
        assert_eq!(NodeId::FEDERATOR.to_string(), "federator");
        assert_eq!(NodeId(3).to_string(), "client-3");
    }

    #[test]
    fn set_speed_changes_future_work_only() {
        let mut cpu = CpuModel::new(1.0);
        assert_eq!(cpu.speed(), 1.0);
        cpu.set_speed(0.1);
        assert_eq!(cpu.speed(), 0.1);
    }

    #[test]
    #[should_panic(expected = "outside (0, 1]")]
    fn zero_speed_is_rejected() {
        CpuModel::new(0.0);
    }
}
