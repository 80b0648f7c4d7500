//! Integration tests for the open strategy API: registry round-trips and
//! assignment-totality properties for every registered strategy.

use std::sync::Arc;

use blockpart::core::{Experiment, StrategyRegistry, StrategySpec};
use blockpart::ethereum::gen::{ChainGenerator, GeneratorConfig};
use blockpart::graph::Csr;
use blockpart::partition::{Partition, PartitionRequest, Partitioner};
use blockpart::shard::{PlacementRule, RepartitionPolicy, SimulatorConfig};
use blockpart::types::{Duration, ShardCount};
use proptest::prelude::*;

fn k(n: u16) -> ShardCount {
    ShardCount::new(n).expect("non-zero")
}

/// A strategy defined entirely outside the `blockpart-*` crates: round
/// robin over dense vertex indices, repartitioned daily.
struct RoundRobin;

struct RoundRobinPartitioner;

impl Partitioner for RoundRobinPartitioner {
    fn name(&self) -> &str {
        "round-robin"
    }

    fn partition(&mut self, req: &PartitionRequest<'_>) -> Partition {
        let assignment: Vec<u16> = (0..req.csr.node_count())
            .map(|v| (v % req.k.as_usize()) as u16)
            .collect();
        Partition::from_assignment(assignment, req.k).expect("shards within k")
    }
}

impl StrategySpec for RoundRobin {
    fn name(&self) -> &str {
        "ROUND-ROBIN"
    }

    fn build_partitioner(&self, _seed: u64) -> Box<dyn Partitioner> {
        Box::new(RoundRobinPartitioner)
    }

    fn simulator_config(&self, k: ShardCount) -> SimulatorConfig {
        SimulatorConfig::new(k)
            .with_placement(PlacementRule::Hash)
            .with_policy(RepartitionPolicy::Periodic {
                interval: Duration::days(1),
            })
    }
}

/// Satellite acceptance: a custom (non-paper) strategy registers and
/// runs end-to-end — offline metrics and 2PC replay — through the same
/// pipeline as the built-ins, without modifying any `blockpart-*` crate.
#[test]
fn registry_round_trip_custom_strategy_end_to_end() {
    let chain = ChainGenerator::new(GeneratorConfig::test_scale(13)).generate();
    let mut registry = StrategyRegistry::with_builtins();
    registry.register(
        "round-robin",
        "dense-index round robin",
        Arc::new(RoundRobin),
    );

    let report = Experiment::over_chain(&chain)
        .named_strategies(&registry, "hash,round-robin")
        .expect("both resolve")
        .shard_counts(vec![k(2)])
        .replay(true)
        .seed(5)
        .run();

    let offline = report
        .offline("round-robin", k(2))
        .expect("offline stage ran");
    assert!(offline.repartitions > 0, "daily policy should fire");
    let runtime = report.runtime("round-robin", k(2)).expect("replay ran");
    assert_eq!(runtime.total_txs, chain.txs.len());
    assert!(runtime.committed > 0);
    // the custom strategy flows into rendering and serialization too
    assert!(report
        .offline_table()
        .render_ascii()
        .contains("ROUND-ROBIN"));
    let json = report.to_json();
    assert!(json.contains("\"strategy\":\"ROUND-ROBIN\""), "{json}");
    assert!(json.contains("\"runtime\":"), "{json}");
}

/// Random undirected edge lists over up to `max_nodes` vertices.
fn edges_strategy(max_nodes: u32) -> impl Strategy<Value = (usize, Vec<(u32, u32, u64)>)> {
    (2..=max_nodes).prop_flat_map(move |n| {
        let edge = (0..n, 0..n, 1..50u64)
            .prop_filter("no self-loops", |(u, v, _)| u != v)
            .prop_map(|(u, v, w)| (u, v, w));
        (Just(n as usize), proptest::collection::vec(edge, 0..120))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Satellite acceptance: every registered strategy yields a *total*
    // assignment — every vertex placed, every shard id < k.
    #[test]
    fn every_registered_strategy_yields_total_assignment(
        (n, edges) in edges_strategy(48),
        kk in 2u16..=8,
        seed in 0u64..500,
    ) {
        let registry = StrategyRegistry::with_builtins();
        let csr = Csr::from_edges(n, &edges);
        let k = ShardCount::new(kk).unwrap();
        for name in registry.names() {
            let spec = registry.resolve(name).expect("registered name resolves");
            let mut partitioner = spec.build_partitioner(seed);
            let part = partitioner.partition(&PartitionRequest::new(&csr, k));
            prop_assert_eq!(part.len(), n, "{}: not total", name);
            for v in 0..n {
                prop_assert!(
                    k.contains(part.shard_of(v)),
                    "{}: vertex {} out of range", name, v
                );
            }
        }
    }
}
