//! Aggregation strategies: the four baselines of the paper's evaluation
//! plus the deadline variant of its motivation study and Aergia itself.

use aergia_simnet::SimDuration;

use crate::config::ConfigError;

/// The federated-learning algorithm an [`crate::Engine`] executes.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum Strategy {
    /// Plain synchronous FedAvg (McMahan et al. 2017).
    FedAvg,
    /// FedAvg with the FedProx proximal term `μ/2‖w − w_global‖²` limiting
    /// client drift (Li et al. 2020).
    FedProx {
        /// The proximal coefficient `μ`.
        mu: f32,
    },
    /// Normalized averaging (Wang et al. 2020): updates are divided by the
    /// client's local step count before aggregation.
    FedNova,
    /// Tier-based selection (Chai et al. 2020): clients are grouped by
    /// profiled speed and each round draws from a single tier, chosen by an
    /// adaptive accuracy-aware policy with per-tier credits.
    Tifl {
        /// Number of speed tiers (the TiFL paper uses 5).
        tiers: usize,
    },
    /// FedAvg with a hard per-round deadline: updates arriving after the
    /// deadline are dropped (the paper's Figure 1(b)/(c) baseline).
    DeadlineFedAvg {
        /// The per-round deadline.
        deadline: SimDuration,
    },
    /// The paper's contribution: online profiling, similarity-aware
    /// freezing/offloading scheduling, and model recombination.
    Aergia {
        /// The similarity factor `f` of Algorithm 1, line 24.
        similarity_factor: f64,
        /// Profiling window in batches (paper: 100 of 1600).
        profile_batches: u32,
        /// Which `calc_op` variant to use (see [`crate::scheduler`]).
        op_variant: crate::scheduler::OpVariant,
    },
}

impl Strategy {
    /// Aergia with the paper's defaults: `f = 1`, a 1/16 profiling window
    /// (set per-experiment) and the unimodal `calc_op`.
    pub fn aergia_default() -> Self {
        Strategy::Aergia {
            similarity_factor: 1.0,
            profile_batches: 2,
            op_variant: crate::scheduler::OpVariant::Unimodal,
        }
    }

    /// TiFL with its paper default of 5 tiers.
    pub fn tifl_default() -> Self {
        Strategy::Tifl { tiers: 5 }
    }

    /// The display name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::FedAvg => "FedAvg",
            Strategy::FedProx { .. } => "FedProx",
            Strategy::FedNova => "FedNova",
            Strategy::Tifl { .. } => "TiFL",
            Strategy::DeadlineFedAvg { .. } => "Deadline-FedAvg",
            Strategy::Aergia { .. } => "Aergia",
        }
    }

    /// Rejects parameters a run could not honour: Aergia's similarity
    /// factor must be finite and non-negative (a negative one would make
    /// line 24 reward distant data, and an infinite one turns every cost
    /// into NaN or ∞ so nothing is ever offloaded).
    ///
    /// # Errors
    ///
    /// [`ConfigError::BadStrategy`] naming the bad parameter.
    pub(crate) fn validate(&self) -> Result<(), ConfigError> {
        match *self {
            Strategy::Aergia { similarity_factor, .. }
                if !(similarity_factor.is_finite() && similarity_factor >= 0.0) =>
            {
                Err(ConfigError::BadStrategy("similarity factor must be finite and non-negative"))
            }
            _ => Ok(()),
        }
    }

    /// Whether this strategy needs offline (pre-training) speed profiling,
    /// charged to the run's pre-training time.
    pub(crate) fn profiles_offline(&self) -> bool {
        matches!(self, Strategy::Tifl { .. })
    }

    /// Qualitative feature ratings (the paper's Table 1).
    pub fn table1_row(&self) -> Table1Row {
        match self {
            Strategy::FedAvg | Strategy::DeadlineFedAvg { .. } => Table1Row {
                name: self.name(),
                data_heterogeneity: Rating::None,
                resource_heterogeneity: Rating::None,
                minimizes_training_time: matches!(self, Strategy::DeadlineFedAvg { .. }),
            },
            Strategy::FedProx { .. } => Table1Row {
                name: "FedProx",
                data_heterogeneity: Rating::Aware,
                resource_heterogeneity: Rating::None,
                minimizes_training_time: false,
            },
            Strategy::FedNova => Table1Row {
                name: "FedNova",
                data_heterogeneity: Rating::Aware,
                resource_heterogeneity: Rating::None,
                minimizes_training_time: false,
            },
            Strategy::Tifl { .. } => Table1Row {
                name: "TiFL",
                data_heterogeneity: Rating::Aware,
                resource_heterogeneity: Rating::Aware,
                minimizes_training_time: true,
            },
            Strategy::Aergia { .. } => Table1Row {
                name: "Aergia",
                data_heterogeneity: Rating::StronglyAware,
                resource_heterogeneity: Rating::StronglyAware,
                minimizes_training_time: true,
            },
        }
    }
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Qualitative awareness level used in Table 1 (`-`, `+`, `++`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rating {
    /// Not addressed (`-`).
    None,
    /// Addressed (`+`).
    Aware,
    /// Addressed with a dedicated mechanism (`++`).
    StronglyAware,
}

impl std::fmt::Display for Rating {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Rating::None => "-",
            Rating::Aware => "+",
            Rating::StronglyAware => "++",
        })
    }
}

/// One row of the paper's Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Table1Row {
    /// Algorithm name.
    pub name: &'static str,
    /// Data-heterogeneity awareness.
    pub data_heterogeneity: Rating,
    /// Resource-heterogeneity awareness.
    pub resource_heterogeneity: Rating,
    /// Whether the algorithm actively minimizes training time.
    pub minimizes_training_time: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_the_paper() {
        assert_eq!(Strategy::FedAvg.name(), "FedAvg");
        assert_eq!(Strategy::FedProx { mu: 0.1 }.name(), "FedProx");
        assert_eq!(Strategy::FedNova.name(), "FedNova");
        assert_eq!(Strategy::tifl_default().name(), "TiFL");
        assert_eq!(Strategy::aergia_default().name(), "Aergia");
    }

    #[test]
    fn only_tifl_profiles_offline() {
        assert!(Strategy::tifl_default().profiles_offline());
        assert!(!Strategy::aergia_default().profiles_offline());
    }

    #[test]
    fn table1_matches_the_paper() {
        // FedAvg: -, -, no. FedProx/FedNova: +, -, no. TiFL: +, +, yes.
        // Aergia: ++, ++, yes.
        let fedavg = Strategy::FedAvg.table1_row();
        assert_eq!(fedavg.data_heterogeneity, Rating::None);
        assert!(!fedavg.minimizes_training_time);

        let fedprox = Strategy::FedProx { mu: 0.1 }.table1_row();
        assert_eq!(fedprox.data_heterogeneity, Rating::Aware);
        assert_eq!(fedprox.resource_heterogeneity, Rating::None);

        let tifl = Strategy::tifl_default().table1_row();
        assert_eq!(tifl.resource_heterogeneity, Rating::Aware);
        assert!(tifl.minimizes_training_time);

        let aergia = Strategy::aergia_default().table1_row();
        assert_eq!(aergia.data_heterogeneity, Rating::StronglyAware);
        assert_eq!(aergia.resource_heterogeneity, Rating::StronglyAware);
        assert!(aergia.minimizes_training_time);
    }

    #[test]
    fn rating_displays_paper_symbols() {
        assert_eq!(Rating::None.to_string(), "-");
        assert_eq!(Rating::Aware.to_string(), "+");
        assert_eq!(Rating::StronglyAware.to_string(), "++");
    }
}
