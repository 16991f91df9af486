//! Declarative cluster-topology overrides, applied at engine build time.
//!
//! [`ExperimentConfig`](crate::config::ExperimentConfig) describes the
//! cluster: one link model for every edge and each client's speed
//! fraction ([`ExperimentConfig::speeds`](crate::config::ExperimentConfig::speeds)).
//! Experiments that need more — a slow federator control path, or the
//! clients split across edge aggregators — declare it on a
//! [`TopologyBuilder`] handed to
//! [`Engine::with_topology`](crate::engine::Engine::with_topology),
//! which validates every override against the configuration before the
//! engine exists. Links are reliable, as the paper assumes (§3.1). A
//! speed change *between* rounds is
//! [`Engine::set_client_speed`](crate::engine::Engine::set_client_speed).
//!
//! ```
//! use aergia::config::{ExperimentConfig, Mode};
//! use aergia::engine::Engine;
//! use aergia::strategy::Strategy;
//! use aergia::topology::TopologyBuilder;
//! use aergia_simnet::{LinkModel, SimDuration};
//!
//! let config = ExperimentConfig { mode: Mode::Timing, ..ExperimentConfig::default() };
//! let topology = TopologyBuilder::new()
//!     .federator_link(0, LinkModel { latency: SimDuration::from_secs_f64(0.2), bandwidth_bps: 1e6 })
//!     .edge_cohorts(2, 9);
//! let engine = Engine::with_topology(config, Strategy::aergia_default(), topology).unwrap();
//! # let _ = engine;
//! ```

use aergia_simnet::{LinkModel, NodeId};

use crate::config::ConfigError;
use crate::engine::Engine;
use crate::fold::CohortLayout;

/// Accumulates validated topology overrides for [`Engine::with_topology`].
///
/// The builder is inert data: nothing is checked until it is consumed,
/// at which point every override is validated against the configuration
/// ([`ConfigError::BadTopology`] on the first violation) and applied
/// atomically to the freshly built engine.
#[derive(Debug, Clone, Default)]
#[must_use = "a TopologyBuilder does nothing until passed to Engine::with_topology"]
pub struct TopologyBuilder {
    federator_links: Vec<(usize, LinkModel)>,
    edge_cohorts: Option<(usize, u64)>,
}

impl TopologyBuilder {
    /// An empty override set (the configuration's uniform topology).
    pub fn new() -> Self {
        Self::default()
    }

    /// Overrides the federator→client downlink for `to` (e.g. to model a
    /// slow control path in robustness experiments).
    pub fn federator_link(mut self, to: usize, link: LinkModel) -> Self {
        self.federator_links.push((to, link));
        self
    }

    /// Partitions the clients across `num_edges` edge aggregators with a
    /// seeded balanced assignment (every client lands in exactly one
    /// cohort, cohort sizes differ by at most one, no edge is empty).
    /// Each edge pre-folds its cohort's updates in fixed client order and
    /// the root merges the partials in fixed edge order, so the layout
    /// *defines* the fold tree: results are bit-reproducible across
    /// serial, pooled and TCP evaluation (see [`crate::fold`]),
    /// and with `num_edges == 1` the tree reduces exactly to the legacy
    /// flat single-federator chain.
    ///
    /// Validation rejects `num_edges == 0` and `num_edges > num_clients`
    /// (an empty edge would have nothing to fold).
    pub fn edge_cohorts(mut self, num_edges: usize, seed: u64) -> Self {
        self.edge_cohorts = Some((num_edges, seed));
        self
    }

    /// Whether the builder carries no overrides at all.
    pub fn is_empty(&self) -> bool {
        self.federator_links.is_empty() && self.edge_cohorts.is_none()
    }

    /// Validates every override against a cluster of `num_clients`.
    pub(crate) fn validate(&self, num_clients: usize) -> Result<(), ConfigError> {
        for &(to, _) in &self.federator_links {
            if to >= num_clients {
                return Err(ConfigError::BadTopology("federator_link client out of range"));
            }
        }
        if let Some((num_edges, _)) = self.edge_cohorts {
            if num_edges == 0 {
                return Err(ConfigError::BadTopology("edge_cohorts needs at least one edge"));
            }
            if num_edges > num_clients {
                return Err(ConfigError::BadTopology("edge_cohorts exceed the cluster size"));
            }
        }
        Ok(())
    }

    /// Applies the (already validated) overrides to a built engine.
    pub(crate) fn apply(self, engine: &mut Engine) {
        for (to, link) in self.federator_links {
            engine.network.set_link(NodeId::FEDERATOR, NodeId(to as u32), link);
        }
        if let Some((num_edges, seed)) = self.edge_cohorts {
            engine.cohorts = CohortLayout::seeded(engine.config().num_clients, num_edges, seed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_of_range_overrides_are_rejected() {
        let cases = [
            TopologyBuilder::new().federator_link(4, LinkModel::datacenter()),
            TopologyBuilder::new().edge_cohorts(0, 7),
            TopologyBuilder::new().edge_cohorts(5, 7),
        ];
        for (i, builder) in cases.into_iter().enumerate() {
            assert!(
                matches!(builder.validate(4), Err(ConfigError::BadTopology(_))),
                "case {i} should be rejected"
            );
        }
    }

    #[test]
    fn valid_overrides_pass_and_empty_builder_is_empty() {
        assert!(TopologyBuilder::new().is_empty());
        let builder =
            TopologyBuilder::new().federator_link(3, LinkModel::datacenter()).edge_cohorts(2, 11);
        assert!(!builder.is_empty());
        builder.validate(4).unwrap();
    }
}
