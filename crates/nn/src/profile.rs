//! The four training phases of a local update and their costs.
//!
//! The paper (§2.1, Figure 3) splits one mini-batch update of a CNN into:
//!
//! 1. `ff` — forward pass over the feature (convolutional) layers,
//! 2. `fc` — forward pass over the classifier (fully-connected) layers,
//! 3. `bc` — backward pass over the classifier layers,
//! 4. `bf` — backward pass over the feature layers.
//!
//! Aergia's online profiler measures these per client; the scheduler then
//! reasons about `t_{1,2,3}` (= ff + fc + bc) and `t_4` (= bf). This module
//! defines the [`Phase`] enum and [`PhaseCost`], a per-phase accumulator
//! used both for wall-clock seconds and for FLOP counts.

use std::fmt;
use std::ops::{Add, AddAssign};

/// One of the four phases of a local mini-batch update.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Forward pass over the feature layers.
    ForwardFeatures,
    /// Forward pass over the classifier layers.
    ForwardClassifier,
    /// Backward pass over the classifier layers.
    BackwardClassifier,
    /// Backward pass over the feature layers.
    BackwardFeatures,
}

impl Phase {
    /// All four phases in execution order.
    pub const ALL: [Phase; 4] = [
        Phase::ForwardFeatures,
        Phase::ForwardClassifier,
        Phase::BackwardClassifier,
        Phase::BackwardFeatures,
    ];

    /// The paper's two-letter abbreviation (`ff`, `fc`, `bc`, `bf`).
    pub(crate) fn abbrev(self) -> &'static str {
        match self {
            Phase::ForwardFeatures => "ff",
            Phase::ForwardClassifier => "fc",
            Phase::BackwardClassifier => "bc",
            Phase::BackwardFeatures => "bf",
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.abbrev())
    }
}

/// A cost (seconds, FLOPs, …) attributed to each of the four phases.
///
/// `PhaseCost` is an additive record: summing the records of consecutive
/// batches yields the cost of the whole round segment.
///
/// # Examples
///
/// ```
/// use aergia_nn::profile::PhaseCost;
///
/// let a = PhaseCost { ff: 1.0, fc: 0.5, bc: 0.5, bf: 2.0 };
/// let b = a + a;
/// assert_eq!(b.total(), 8.0);
/// assert_eq!(a.first_three(), 2.0);
/// assert_eq!(a.share(aergia_nn::Phase::BackwardFeatures), 0.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PhaseCost {
    /// Cost of the forward feature pass.
    pub ff: f64,
    /// Cost of the forward classifier pass.
    pub fc: f64,
    /// Cost of the backward classifier pass.
    pub bc: f64,
    /// Cost of the backward feature pass.
    pub bf: f64,
}

impl PhaseCost {
    /// A zero record.
    pub fn zero() -> Self {
        PhaseCost::default()
    }

    /// Total cost across all four phases.
    pub fn total(&self) -> f64 {
        self.ff + self.fc + self.bc + self.bf
    }

    /// The paper's `t_{1,2,3}`: everything except the backward feature pass.
    pub fn first_three(&self) -> f64 {
        self.ff + self.fc + self.bc
    }

    /// Cost of a single phase.
    pub fn get(&self, phase: Phase) -> f64 {
        match phase {
            Phase::ForwardFeatures => self.ff,
            Phase::ForwardClassifier => self.fc,
            Phase::BackwardClassifier => self.bc,
            Phase::BackwardFeatures => self.bf,
        }
    }

    /// Fraction of the total spent in `phase` (0 when the total is 0).
    pub fn share(&self, phase: Phase) -> f64 {
        let total = self.total();
        if total == 0.0 {
            0.0
        } else {
            self.get(phase) / total
        }
    }

    /// Scales every phase by a constant (e.g. seconds per FLOP).
    pub fn scaled(&self, k: f64) -> PhaseCost {
        PhaseCost { ff: self.ff * k, fc: self.fc * k, bc: self.bc * k, bf: self.bf * k }
    }
}

impl Add for PhaseCost {
    type Output = PhaseCost;

    fn add(self, rhs: PhaseCost) -> PhaseCost {
        PhaseCost {
            ff: self.ff + rhs.ff,
            fc: self.fc + rhs.fc,
            bc: self.bc + rhs.bc,
            bf: self.bf + rhs.bf,
        }
    }
}

impl AddAssign for PhaseCost {
    fn add_assign(&mut self, rhs: PhaseCost) {
        *self = *self + rhs;
    }
}

impl fmt::Display for PhaseCost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ff={:.3} fc={:.3} bc={:.3} bf={:.3}", self.ff, self.fc, self.bc, self.bf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_shares() {
        let c = PhaseCost { ff: 1.0, fc: 1.0, bc: 1.0, bf: 1.0 };
        assert_eq!(c.total(), 4.0);
        assert_eq!(c.first_three(), 3.0);
        for p in Phase::ALL {
            assert_eq!(c.share(p), 0.25);
            assert_eq!(c.get(p), 1.0);
        }
    }

    #[test]
    fn zero_record_has_zero_shares() {
        let z = PhaseCost::zero();
        assert_eq!(z.share(Phase::ForwardFeatures), 0.0);
        assert_eq!(z.total(), 0.0);
    }

    #[test]
    fn add_and_scale() {
        let a = PhaseCost { ff: 1.0, fc: 2.0, bc: 3.0, bf: 4.0 };
        let mut b = a;
        b += a;
        assert_eq!(b.total(), 20.0);
        assert_eq!(a.scaled(2.0), b);
    }

    #[test]
    fn abbrevs_match_paper() {
        let abbrevs: Vec<_> = Phase::ALL.iter().map(|p| p.abbrev()).collect();
        assert_eq!(abbrevs, vec!["ff", "fc", "bc", "bf"]);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!PhaseCost::zero().to_string().is_empty());
        assert_eq!(Phase::BackwardFeatures.to_string(), "bf");
    }
}
