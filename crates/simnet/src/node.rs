//! Node identity and CPU speed models.

use std::fmt;

use crate::time::SimDuration;

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
    pub fn is_federator(self) -> bool {
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
/// `base_flops` is the reference core's throughput; a task of `W` FLOPs
/// takes `W / (speed · base_flops)` virtual seconds.
///
/// # Examples
///
/// ```
/// use aergia_simnet::CpuModel;
///
/// let fast = CpuModel::new(1.0);
/// let slow = CpuModel::new(0.25);
/// let work = 1e9;
/// assert_eq!(
///     slow.work_duration(work).as_micros(),
///     fast.work_duration(work).as_micros() * 4
/// );
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuModel {
    speed: f64,
    base_flops: f64,
}

/// Reference throughput of a full simulated core (FLOPs/second). The
/// absolute value only sets the unit of reported times; relative results
/// are independent of it.
pub const BASE_FLOPS: f64 = 2.0e9;

impl CpuModel {
    /// Creates a CPU model with the default reference throughput.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < speed <= 1.0`.
    pub fn new(speed: f64) -> Self {
        Self::with_base_flops(speed, BASE_FLOPS)
    }

    /// Creates a CPU model with an explicit reference throughput.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < speed <= 1.0` and `base_flops > 0`.
    pub fn with_base_flops(speed: f64, base_flops: f64) -> Self {
        assert!(speed > 0.0 && speed <= 1.0, "CpuModel: speed {speed} outside (0, 1]");
        assert!(base_flops > 0.0, "CpuModel: non-positive base flops");
        CpuModel { speed, base_flops }
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

    /// Virtual time to execute `flops` of compute work.
    pub fn work_duration(&self, flops: f64) -> SimDuration {
        SimDuration::from_secs_f64(flops / (self.speed * self.base_flops))
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
    fn duration_is_inverse_in_speed() {
        let w = 4.0e9;
        let full = CpuModel::new(1.0).work_duration(w);
        let half = CpuModel::new(0.5).work_duration(w);
        assert_eq!(half.as_micros(), full.as_micros() * 2);
    }

    #[test]
    fn set_speed_changes_future_work_only() {
        let mut cpu = CpuModel::new(1.0);
        let before = cpu.work_duration(1e9);
        cpu.set_speed(0.1);
        assert!(cpu.work_duration(1e9) > before);
        assert_eq!(cpu.speed(), 0.1);
    }

    #[test]
    #[should_panic(expected = "outside (0, 1]")]
    fn zero_speed_is_rejected() {
        CpuModel::new(0.0);
    }

    #[test]
    fn custom_base_flops() {
        let cpu = CpuModel::with_base_flops(1.0, 1e6);
        assert_eq!(cpu.work_duration(1e6).as_secs_f64(), 1.0);
    }
}
