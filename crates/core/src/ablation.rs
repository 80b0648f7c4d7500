//! Ablation experiments for the design choices DESIGN.md calls out:
//! placement rules, reduced-window lengths, TR-METIS thresholds, and the
//! offline streaming-partitioner comparison.

use blockpart_graph::InteractionLog;
use blockpart_metrics::Table;
use blockpart_partition::{
    CutMetrics, Fennel, HashPartitioner, LinearGreedy, MultilevelPartitioner, PartitionRequest,
    Partitioner,
};
use blockpart_shard::{PlacementRule, ShardSimulator, SimulationResult};
use blockpart_types::{Duration, ShardCount};

use crate::methods::Method;
use crate::strategy::{CanonicalStrategy, StrategySpec};

/// Result of one ablation run.
#[derive(Clone, Debug)]
pub struct AblationRun {
    /// Human-readable variant label.
    pub label: String,
    /// Mean per-window dynamic edge-cut.
    pub dynamic_edge_cut: f64,
    /// Mean per-window dynamic balance.
    pub dynamic_balance: f64,
    /// Total vertex moves.
    pub moves: u64,
    /// Repartitions fired.
    pub repartitions: usize,
}

impl AblationRun {
    fn from_result(label: String, result: &SimulationResult) -> AblationRun {
        let (dynamic_edge_cut, dynamic_balance) = result.mean_window_metrics();
        AblationRun {
            label,
            dynamic_edge_cut,
            dynamic_balance,
            moves: result.total_moves,
            repartitions: result.repartitions,
        }
    }
}

/// Renders ablation runs as a table.
pub fn ablation_table(runs: &[AblationRun]) -> Table {
    let mut t = Table::new(vec!["variant", "dyn-cut", "dyn-bal", "moves", "reparts"]);
    for r in runs {
        t.row(vec![
            r.label.clone(),
            format!("{:.3}", r.dynamic_edge_cut),
            format!("{:.3}", r.dynamic_balance),
            r.moves.to_string(),
            r.repartitions.to_string(),
        ]);
    }
    t
}

/// Ablation 1 — the new-vertex placement rule: the paper's min-cut
/// placement (join your counterparty) versus plain hashing, everything
/// else as in the METIS method.
pub fn placement_ablation(log: &InteractionLog, k: ShardCount, seed: u64) -> Vec<AblationRun> {
    [PlacementRule::Hash, PlacementRule::MinCut]
        .into_iter()
        .map(|rule| {
            let spec = CanonicalStrategy::new(Method::Metis);
            let config = spec.simulator_config(k).with_placement(rule);
            let mut sim = ShardSimulator::new(config, spec.build_partitioner(seed));
            let result = sim.run(log);
            AblationRun::from_result(format!("{rule:?}"), &result)
        })
        .collect()
}

/// Ablation 2 — the reduced-graph window length for R-METIS (the paper
/// fixes it at two weeks; shorter windows see fresher but thinner data).
pub fn scope_window_ablation(
    log: &InteractionLog,
    k: ShardCount,
    windows: &[Duration],
    seed: u64,
) -> Vec<AblationRun> {
    windows
        .iter()
        .map(|&w| {
            let spec = CanonicalStrategy::new(Method::RMetis).with_scope_window(w);
            let mut sim =
                ShardSimulator::new(spec.simulator_config(k), spec.build_partitioner(seed));
            let result = sim.run(log);
            AblationRun::from_result(format!("window={}d", w.as_days_f64()), &result)
        })
        .collect()
}

/// Ablation 3 — TR-METIS trigger thresholds: the repartition-count versus
/// quality trade-off the paper tunes by hand. `thresholds` are
/// `(edge_cut, balance)` pairs.
pub fn threshold_ablation(
    log: &InteractionLog,
    k: ShardCount,
    thresholds: &[(f64, f64)],
    seed: u64,
) -> Vec<AblationRun> {
    thresholds
        .iter()
        .map(|&(edge_cut, balance)| {
            let spec = CanonicalStrategy::new(Method::TrMetis).with_thresholds(edge_cut, balance);
            let mut sim =
                ShardSimulator::new(spec.simulator_config(k), spec.build_partitioner(seed));
            let result = sim.run(log);
            AblationRun::from_result(format!("cut>{edge_cut}|bal>{balance}"), &result)
        })
        .collect()
}

/// Ablation 4 — offline comparison on the final cumulative graph: hash,
/// the two one-pass streaming partitioners (LDG, Fennel) and the
/// multilevel partitioner. Returns `(label, metrics)` pairs.
pub fn offline_partitioner_comparison(
    log: &InteractionLog,
    k: ShardCount,
) -> Vec<(String, CutMetrics)> {
    let Some(end) = log.last_time() else {
        return Vec::new();
    };
    let graph = log.graph_until(end);
    let csr = graph.to_csr();
    let ids: Vec<u64> = graph.nodes().map(|n| n.address.stable_hash()).collect();
    let req = PartitionRequest::new(&csr, k).with_stable_ids(&ids);

    let mut partitioners: Vec<Box<dyn Partitioner>> = vec![
        Box::new(HashPartitioner::new()),
        Box::new(LinearGreedy::default()),
        Box::new(Fennel::default()),
        Box::new(MultilevelPartitioner::default()),
    ];
    partitioners
        .iter_mut()
        .map(|p| {
            let part = p.partition(&req);
            (p.name().to_string(), CutMetrics::compute(&csr, &part))
        })
        .collect()
}

/// Renders the offline comparison as a table.
pub fn offline_table(rows: &[(String, CutMetrics)]) -> Table {
    let mut t = Table::new(vec![
        "partitioner",
        "static-cut",
        "dynamic-cut",
        "static-bal",
        "dynamic-bal",
    ]);
    for (name, m) in rows {
        t.row(vec![
            name.clone(),
            format!("{:.3}", m.static_edge_cut),
            format!("{:.3}", m.dynamic_edge_cut),
            format!("{:.3}", m.static_balance),
            format!("{:.3}", m.dynamic_balance),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockpart_graph::Interaction;
    use blockpart_types::{Address, Timestamp};

    fn log() -> InteractionLog {
        let mut log = InteractionLog::new();
        for d in 0..40u64 {
            for h in 0..24 {
                let t = Timestamp::from_secs(d * 86_400 + h * 3_600);
                let i = (d * 24 + h) % 16;
                let community = i % 2;
                log.push(Interaction::new(
                    t,
                    Address::from_index(community * 100 + i),
                    Address::from_index(community * 100 + (i + 2) % 16),
                ));
            }
        }
        log
    }

    #[test]
    fn placement_ablation_runs_both_rules() {
        let log = log();
        let runs = placement_ablation(&log, ShardCount::TWO, 1);
        assert_eq!(runs.len(), 2);
        assert_ne!(runs[0].label, runs[1].label);
        let table = ablation_table(&runs);
        assert_eq!(table.len(), 2);
    }

    #[test]
    fn scope_window_ablation_varies_window() {
        let log = log();
        let runs = scope_window_ablation(
            &log,
            ShardCount::TWO,
            &[Duration::weeks(1), Duration::weeks(2)],
            1,
        );
        assert_eq!(runs.len(), 2);
        assert!(runs[0].label.contains("7d"));
    }

    #[test]
    fn threshold_ablation_looser_fires_less() {
        let log = log();
        let runs = threshold_ablation(&log, ShardCount::TWO, &[(0.05, 1.05), (0.95, 5.0)], 1);
        assert_eq!(runs.len(), 2);
        // the near-impossible threshold repartitions no more often than
        // the hair trigger
        assert!(runs[1].repartitions <= runs[0].repartitions);
    }

    #[test]
    fn offline_comparison_covers_all_partitioners() {
        let log = log();
        let rows = offline_partitioner_comparison(&log, ShardCount::TWO);
        let names: Vec<&str> = rows.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["hash", "ldg", "fennel", "metis"]);
        // the multilevel partitioner should beat hashing on this
        // community-structured graph
        let cut = |name: &str| {
            rows.iter()
                .find(|(n, _)| n == name)
                .map(|(_, m)| m.dynamic_edge_cut)
                .expect("present")
        };
        assert!(cut("metis") <= cut("hash"));
        let table = offline_table(&rows);
        assert_eq!(table.len(), 4);
    }

    #[test]
    fn offline_comparison_empty_log() {
        let rows = offline_partitioner_comparison(&InteractionLog::new(), ShardCount::TWO);
        assert!(rows.is_empty());
    }
}
