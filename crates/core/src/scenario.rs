//! Scenario engine knobs: asynchrony, churn, and Byzantine behavior.
//!
//! Aergia's baseline evaluation assumes synchronous rounds over honest,
//! stable clients. This module adds the three scenario axes a production
//! FL middleware must survive — staleness, churn, and adversaries — as
//! *validated configuration*, not as separate code paths: every knob
//! rides the existing value-free plan stage of the round state machine,
//! so scenario runs keep the workspace determinism contract (serial and
//! parallel execution are bit-identical, and TCP runs match the
//! in-process simulator). The full knob × semantics × guarantee matrix
//! lives in `docs/scenarios.md`.
//!
//! The default [`ScenarioConfig`] is inert: synchronous aggregation,
//! plain mean, no churn, no adversaries — existing experiments are
//! unaffected unless a knob is set.
//!
//! ```
//! use aergia::prelude::*;
//! use aergia::scenario::{Attack, ByzantineSpec, RobustAggregation, ScenarioConfig};
//!
//! let config = ExperimentConfig {
//!     scenario: ScenarioConfig {
//!         byzantine: vec![ByzantineSpec { client: 0, attack: Attack::SignFlip }],
//!         robust: RobustAggregation::CoordinateMedian,
//!         ..ScenarioConfig::default()
//!     },
//!     mode: Mode::Timing,
//!     ..ExperimentConfig::default()
//! };
//! // Construction validates the scenario against the configuration.
//! Engine::new(config, Strategy::FedAvg).unwrap();
//! ```

use aergia_simnet::SimDuration;

use crate::config::ConfigError;
use crate::strategy::Strategy;

/// How the federator folds client updates into the global model.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum AggregationMode {
    /// Classic synchronous FL: wait for the round to finish, then fold
    /// every surviving update in one aggregation step.
    Synchronous,
    /// Buffered asynchronous aggregation (FedBuff/FedLGA style): the
    /// federator folds updates one at a time in virtual-clock arrival
    /// order, discounting each by its staleness.
    ///
    /// An update arriving `s` after round start mixes into the global
    /// model as `global ← (1−α)·global + α·update` with
    /// `α = mixing · max(0, 1 − s/max_staleness)` (see
    /// [`staleness_weight`]). Arrival order is decided by the value-free
    /// plan stage, so the fold order — and therefore the result — is
    /// bit-identical across serial/parallel execution and transports.
    BufferedAsync {
        /// Staleness at which an update's weight reaches exactly zero.
        max_staleness: SimDuration,
        /// Base mixing coefficient `α₀ ∈ (0, 1]` applied to a perfectly
        /// fresh update.
        mixing: f64,
    },
}

/// Byzantine-robust alternatives to the plain (weighted) mean.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum RobustAggregation {
    /// Sample-count-weighted mean — the strategy's native rule
    /// (FedAvg/FedProx weighting, FedNova normalization).
    Mean,
    /// Coordinate-wise median across updates: tolerates up to
    /// `⌈k/2⌉ − 1` arbitrary updates per coordinate. Ignores sample
    /// counts.
    CoordinateMedian,
    /// Coordinate-wise trimmed mean: drops the `⌊trim_ratio · k⌋`
    /// smallest and largest values per coordinate, then averages the
    /// survivors. The trim count saturates at `(k−1)/2` per side, so an
    /// aggressive ratio degenerates bit-exactly to
    /// [`RobustAggregation::CoordinateMedian`]. Ignores sample counts.
    TrimmedMean {
        /// Fraction trimmed from *each* side, in `[0, 0.5)`.
        trim_ratio: f64,
    },
}

/// What happens to a live offload when its receiver crashes mid-round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OffloadPolicy {
    /// The offload lapses silently; the straggler's own frozen update
    /// stands alone (PR 6's omitted-reply contract).
    Drop,
    /// The federator reassigns the remaining batches to the fastest
    /// alive participant not already serving an offload (lowest id on
    /// ties) and the straggler re-sends its snapshot. If no candidate
    /// exists the offload lapses as under [`OffloadPolicy::Drop`].
    Reschedule,
}

/// Seeded join/leave/crash model evaluated on the virtual clock.
///
/// Availability evolves at round boundaries (a Gilbert-Elliott-style
/// two-state chain per client); crashes strike mid-round, silencing the
/// victim from its crash point onward — exactly the censoring the
/// [`Transport`](crate::transport::Transport) contract already allows,
/// which is why churn needs no protocol changes to work over TCP.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnConfig {
    /// Probability an available client leaves before the next round.
    pub leave_prob: f64,
    /// Probability an unavailable client rejoins before the next round.
    pub rejoin_prob: f64,
    /// Probability a selected participant crashes mid-round.
    pub crash_prob: f64,
    /// Fate of an in-flight offload whose receiver crashes.
    pub offload_policy: OffloadPolicy,
}

/// Marks one client as an adversary for the whole run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ByzantineSpec {
    /// Index of the compromised client (`< num_clients`).
    pub client: usize,
    /// The perturbation it applies to every update it sends.
    pub attack: Attack,
}

/// Update perturbations applied by a Byzantine client.
///
/// Attacks perturb the *trained* update right before it is encoded for
/// the wire, so poisoned weights still cross the codec and the shape-only
/// wire sizing is untouched — the virtual clock cannot tell an honest
/// client from an adversary.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum Attack {
    /// Reflects the honest update about the round's broadcast model:
    /// `w ← base − (w − base)`, reversing the client's learning step.
    SignFlip,
    /// Replaces the update with the broadcast model plus Gaussian noise
    /// of the given standard deviation, drawn from a per-(round, client)
    /// seeded stream.
    ScaledNoise {
        /// Noise standard deviation (finite, > 0).
        scale: f32,
    },
}

/// All scenario knobs for one experiment. Inert by default.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioConfig {
    /// Synchronous vs buffered-asynchronous folding.
    pub aggregation: AggregationMode,
    /// Aggregation rule hardening (mean / median / trimmed mean).
    pub robust: RobustAggregation,
    /// Join/leave/crash injection; `None` disables churn entirely.
    pub churn: Option<ChurnConfig>,
    /// Compromised clients and their attacks.
    pub byzantine: Vec<ByzantineSpec>,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            aggregation: AggregationMode::Synchronous,
            robust: RobustAggregation::Mean,
            churn: None,
            byzantine: Vec::new(),
        }
    }
}

impl ScenarioConfig {
    /// Validates the knobs that can be checked from the config alone.
    /// Strategy-dependent interactions are checked by
    /// [`validate_with_strategy`] when the engine is built.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::BadScenario`] naming the first bad knob.
    pub(crate) fn validate(&self, num_clients: usize) -> Result<(), ConfigError> {
        if let AggregationMode::BufferedAsync { max_staleness, mixing } = self.aggregation {
            if max_staleness.as_micros() == 0 {
                return Err(ConfigError::BadScenario("max_staleness must be positive"));
            }
            if !(mixing > 0.0 && mixing <= 1.0) {
                return Err(ConfigError::BadScenario("async mixing outside (0, 1]"));
            }
            if self.robust != RobustAggregation::Mean {
                return Err(ConfigError::BadScenario(
                    "robust aggregation needs the full synchronous buffer",
                ));
            }
        }
        if let RobustAggregation::TrimmedMean { trim_ratio } = self.robust {
            if !(0.0..0.5).contains(&trim_ratio) {
                return Err(ConfigError::BadScenario("trim_ratio outside [0, 0.5)"));
            }
        }
        if let Some(churn) = &self.churn {
            for (name, p) in [
                ("leave_prob", churn.leave_prob),
                ("rejoin_prob", churn.rejoin_prob),
                ("crash_prob", churn.crash_prob),
            ] {
                if !(0.0..=1.0).contains(&p) {
                    let _ = name;
                    return Err(ConfigError::BadScenario("churn probability outside [0, 1]"));
                }
            }
        }
        let mut seen = vec![false; num_clients];
        for spec in &self.byzantine {
            if spec.client >= num_clients {
                return Err(ConfigError::BadScenario("byzantine client id out of range"));
            }
            if std::mem::replace(&mut seen[spec.client], true) {
                return Err(ConfigError::BadScenario("duplicate byzantine client"));
            }
            if let Attack::ScaledNoise { scale } = spec.attack {
                if !(scale.is_finite() && scale > 0.0) {
                    return Err(ConfigError::BadScenario("noise scale must be finite and > 0"));
                }
            }
        }
        Ok(())
    }

    /// Looks up the attack assigned to `client`, if any.
    pub(crate) fn attack_for(&self, client: usize) -> Option<Attack> {
        self.byzantine.iter().find(|s| s.client == client).map(|s| s.attack)
    }

    /// True when every knob is at its inert default — the engine skips
    /// all scenario bookkeeping in that case.
    pub fn is_inert(&self) -> bool {
        *self == ScenarioConfig::default()
    }
}

/// Rejects scenario × strategy combinations whose semantics are
/// undefined. Called by the engine constructor, where the strategy is
/// known.
///
/// # Errors
///
/// Returns [`ConfigError::BadScenario`] for: buffered-async with FedNova
/// (its normalized fold needs the whole round's buffer), robust
/// aggregation with FedNova (same reason), and churn with TiFL (tier
/// bookkeeping assumes a stable population).
pub(crate) fn validate_with_strategy(
    scenario: &ScenarioConfig,
    strategy: &Strategy,
) -> Result<(), ConfigError> {
    let fednova = matches!(strategy, Strategy::FedNova);
    if fednova && scenario.aggregation != AggregationMode::Synchronous {
        return Err(ConfigError::BadScenario(
            "buffered-async aggregation is incompatible with FedNova's normalized fold",
        ));
    }
    if fednova && scenario.robust != RobustAggregation::Mean {
        return Err(ConfigError::BadScenario(
            "robust aggregation replaces the mean; FedNova requires its normalized mean",
        ));
    }
    if scenario.churn.is_some() && matches!(strategy, Strategy::Tifl { .. }) {
        return Err(ConfigError::BadScenario(
            "churn-aware selection is not implemented for TiFL's tier state",
        ));
    }
    Ok(())
}

/// FedLGA-style linear staleness discount: `max(0, 1 − s/max)`.
///
/// Exactly `1.0` for a fresh update, exactly `0.0` at (or beyond) the
/// staleness bound — an all-stale round therefore leaves the global
/// model bit-identical to its round-start value.
///
/// ```
/// use aergia::scenario::staleness_weight;
/// use aergia_simnet::SimDuration;
///
/// let max = SimDuration::from_secs_f64(10.0);
/// assert_eq!(staleness_weight(SimDuration::from_micros(0), max), 1.0);
/// assert_eq!(staleness_weight(SimDuration::from_secs_f64(5.0), max), 0.5);
/// assert_eq!(staleness_weight(max, max), 0.0);
/// assert_eq!(staleness_weight(SimDuration::from_secs_f64(99.0), max), 0.0);
/// ```
pub fn staleness_weight(staleness: SimDuration, max_staleness: SimDuration) -> f64 {
    if max_staleness.as_micros() == 0 || staleness.as_micros() >= max_staleness.as_micros() {
        return 0.0;
    }
    1.0 - staleness.as_secs_f64() / max_staleness.as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn async_scenario(mixing: f64) -> ScenarioConfig {
        ScenarioConfig {
            aggregation: AggregationMode::BufferedAsync {
                max_staleness: SimDuration::from_secs_f64(60.0),
                mixing,
            },
            ..ScenarioConfig::default()
        }
    }

    #[test]
    fn default_is_inert_and_valid() {
        let s = ScenarioConfig::default();
        assert!(s.is_inert());
        s.validate(4).unwrap();
        for strategy in [
            Strategy::FedAvg,
            Strategy::FedNova,
            Strategy::tifl_default(),
            Strategy::aergia_default(),
        ] {
            validate_with_strategy(&s, &strategy).unwrap();
        }
    }

    #[test]
    fn async_knobs_are_range_checked() {
        async_scenario(1.0).validate(4).unwrap();
        for bad in [0.0, -0.5, 1.5] {
            assert!(matches!(async_scenario(bad).validate(4), Err(ConfigError::BadScenario(_))));
        }
        let zero_window = ScenarioConfig {
            aggregation: AggregationMode::BufferedAsync {
                max_staleness: SimDuration::from_micros(0),
                mixing: 0.5,
            },
            ..ScenarioConfig::default()
        };
        assert!(matches!(zero_window.validate(4), Err(ConfigError::BadScenario(_))));
    }

    #[test]
    fn async_excludes_robust_aggregation() {
        let s =
            ScenarioConfig { robust: RobustAggregation::CoordinateMedian, ..async_scenario(0.5) };
        assert!(matches!(s.validate(4), Err(ConfigError::BadScenario(_))));
    }

    #[test]
    fn trim_ratio_is_range_checked() {
        for (ratio, ok) in [(0.0, true), (0.25, true), (0.49, true), (0.5, false), (-0.1, false)] {
            let s = ScenarioConfig {
                robust: RobustAggregation::TrimmedMean { trim_ratio: ratio },
                ..ScenarioConfig::default()
            };
            assert_eq!(s.validate(4).is_ok(), ok, "ratio {ratio}");
        }
    }

    #[test]
    fn churn_probabilities_are_range_checked() {
        let churn = |leave, rejoin, crash| ScenarioConfig {
            churn: Some(ChurnConfig {
                leave_prob: leave,
                rejoin_prob: rejoin,
                crash_prob: crash,
                offload_policy: OffloadPolicy::Drop,
            }),
            ..ScenarioConfig::default()
        };
        churn(0.2, 0.6, 0.3).validate(4).unwrap();
        churn(0.0, 1.0, 0.0).validate(4).unwrap();
        for bad in [churn(-0.1, 0.5, 0.5), churn(0.5, 1.1, 0.5), churn(0.5, 0.5, 2.0)] {
            assert!(matches!(bad.validate(4), Err(ConfigError::BadScenario(_))));
        }
    }

    #[test]
    fn byzantine_specs_are_checked() {
        let spec = |client, attack| ScenarioConfig {
            byzantine: vec![ByzantineSpec { client, attack }],
            ..ScenarioConfig::default()
        };
        spec(3, Attack::SignFlip).validate(4).unwrap();
        assert!(matches!(spec(4, Attack::SignFlip).validate(4), Err(ConfigError::BadScenario(_))));
        assert!(matches!(
            spec(0, Attack::ScaledNoise { scale: 0.0 }).validate(4),
            Err(ConfigError::BadScenario(_))
        ));
        assert!(matches!(
            spec(0, Attack::ScaledNoise { scale: f32::NAN }).validate(4),
            Err(ConfigError::BadScenario(_))
        ));
        let dup = ScenarioConfig {
            byzantine: vec![
                ByzantineSpec { client: 1, attack: Attack::SignFlip },
                ByzantineSpec { client: 1, attack: Attack::ScaledNoise { scale: 1.0 } },
            ],
            ..ScenarioConfig::default()
        };
        assert!(matches!(dup.validate(4), Err(ConfigError::BadScenario(_))));
    }

    #[test]
    fn strategy_interactions_are_rejected() {
        assert!(validate_with_strategy(&async_scenario(0.5), &Strategy::FedNova).is_err());
        let robust = ScenarioConfig {
            robust: RobustAggregation::CoordinateMedian,
            ..ScenarioConfig::default()
        };
        assert!(validate_with_strategy(&robust, &Strategy::FedNova).is_err());
        let churn = ScenarioConfig {
            churn: Some(ChurnConfig {
                leave_prob: 0.1,
                rejoin_prob: 0.9,
                crash_prob: 0.1,
                offload_policy: OffloadPolicy::Reschedule,
            }),
            ..ScenarioConfig::default()
        };
        assert!(validate_with_strategy(&churn, &Strategy::tifl_default()).is_err());
        validate_with_strategy(&churn, &Strategy::aergia_default()).unwrap();
    }

    #[test]
    fn attack_lookup_finds_the_spec() {
        let s = ScenarioConfig {
            byzantine: vec![ByzantineSpec { client: 2, attack: Attack::SignFlip }],
            ..ScenarioConfig::default()
        };
        assert_eq!(s.attack_for(2), Some(Attack::SignFlip));
        assert_eq!(s.attack_for(1), None);
    }

    #[test]
    fn staleness_weight_is_linear_and_clamped() {
        let max = SimDuration::from_secs_f64(2.0);
        assert_eq!(staleness_weight(SimDuration::from_micros(0), max), 1.0);
        assert_eq!(staleness_weight(SimDuration::from_secs_f64(1.0), max), 0.5);
        assert_eq!(staleness_weight(max, max), 0.0);
        assert_eq!(staleness_weight(SimDuration::from_secs_f64(100.0), max), 0.0);
        assert_eq!(staleness_weight(SimDuration::from_micros(1), SimDuration::from_micros(0)), 0.0);
    }
}
