//! The five paper methods as a closed enum: the keys of the registry's
//! canonical built-ins in [`crate::strategy`].

use serde::{Deserialize, Serialize};

/// One of the paper's five partitioning methods (§II-C).
///
/// The paper's Fig. 4 labels R-METIS as "P-METIS"; they are the same
/// method and [`Method::RMetis`] renders as `R-METIS`.
///
/// Outside this crate a method is named by its registry spec string
/// (`"hash"`, `"r-metis[window=7]"`, …); see
/// [`StrategyRegistry`](crate::StrategyRegistry).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub(crate) enum Method {
    /// `hash(id) mod k`: perfect static balance, no moves, heavy cut.
    Hash,
    /// Distributed Kernighan–Lin with an oracle probability matrix.
    Kl,
    /// Periodic multilevel partitioning of the full cumulative graph.
    Metis,
    /// Periodic multilevel partitioning of the two-week reduced graph.
    RMetis,
    /// Threshold-triggered multilevel partitioning of the reduced graph.
    TrMetis,
}

impl Method {
    /// All methods in the paper's presentation order.
    pub(crate) const ALL: [Method; 5] = [
        Method::Hash,
        Method::Kl,
        Method::Metis,
        Method::RMetis,
        Method::TrMetis,
    ];

    /// The display label used in tables.
    pub(crate) fn label(self) -> &'static str {
        match self {
            Method::Hash => "HASH",
            Method::Kl => "KL",
            Method::Metis => "METIS",
            Method::RMetis => "R-METIS",
            Method::TrMetis => "TR-METIS",
        }
    }
}

impl std::fmt::Display for Method {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::{CanonicalStrategy, StrategySpec};
    use blockpart_shard::{PlacementRule, RepartitionPolicy, RepartitionScope, SimulatorConfig};
    use blockpart_types::ShardCount;

    fn config(m: Method) -> SimulatorConfig {
        CanonicalStrategy::new(m).simulator_config(ShardCount::TWO)
    }

    #[test]
    fn labels_are_unique() {
        let labels: std::collections::HashSet<_> = Method::ALL.iter().map(|m| m.label()).collect();
        assert_eq!(labels.len(), 5);
    }

    #[test]
    fn hash_never_repartitions() {
        let cfg = config(Method::Hash);
        assert_eq!(cfg.policy, RepartitionPolicy::Never);
        assert_eq!(cfg.placement, PlacementRule::Hash);
    }

    #[test]
    fn metis_family_uses_min_cut_placement() {
        for m in [Method::Metis, Method::RMetis, Method::TrMetis] {
            assert_eq!(config(m).placement, PlacementRule::MinCut, "{m}");
        }
    }

    #[test]
    fn reduced_scope_for_r_and_tr() {
        assert_eq!(config(Method::Metis).scope, RepartitionScope::Full);
        for m in [Method::RMetis, Method::TrMetis] {
            assert_eq!(config(m).scope, RepartitionScope::Window, "{m}");
        }
    }

    #[test]
    fn partitioner_names() {
        for (m, name) in [
            (Method::Hash, "hash"),
            (Method::Kl, "kl"),
            (Method::Metis, "metis"),
        ] {
            assert_eq!(CanonicalStrategy::new(m).build_partitioner(0).name(), name);
        }
    }
}
