//! Integration tests for the sharded execution runtime: partition
//! quality must translate into execution-level coordination cost, and
//! the whole engine must be deterministic.

use blockpart::core::{Experiment, StrategyRegistry};
use blockpart::ethereum::gen::{ChainGenerator, GeneratorConfig};
use blockpart::ethereum::SyntheticChain;
use blockpart::types::ShardCount;

fn history() -> &'static SyntheticChain {
    static H: std::sync::OnceLock<SyntheticChain> = std::sync::OnceLock::new();
    H.get_or_init(|| ChainGenerator::new(GeneratorConfig::test_scale(21)).generate())
}

/// The 2PC replay of the history on each named strategy's assignment
/// at `k` shards.
fn replay(specs: &str, k: ShardCount) -> Experiment<'static> {
    Experiment::over_chain(history())
        .named_strategies(&StrategyRegistry::with_builtins(), specs)
        .expect("built-in strategies resolve")
        .shard_counts(vec![k])
        .offline(false)
        .replay(true)
}

#[test]
fn hash_pays_more_cross_shard_coordination_than_metis() {
    let k = ShardCount::new(4).expect("non-zero");
    let result = replay("hash,metis", k).seed(7).run();
    let hash = result.runtime("hash", k).expect("hash ran");
    let metis = result.runtime("metis", k).expect("metis ran");

    // the headline: a min-cut partition keeps more transactions
    // single-shard than hashing on the same chain
    assert!(
        metis.cross_shard_ratio < hash.cross_shard_ratio,
        "metis {} !< hash {}",
        metis.cross_shard_ratio,
        hash.cross_shard_ratio
    );
    // hashing scatters: with 4 shards a substantial share of
    // transactions must coordinate
    assert!(
        hash.cross_shard_ratio > 0.25,
        "hash cross ratio suspiciously low: {}",
        hash.cross_shard_ratio
    );
    // both systems still make progress: the vast majority commits
    for (name, r) in [("hash", hash), ("metis", metis)] {
        assert!(
            r.committed as f64 >= 0.95 * r.total_txs as f64,
            "{name}: committed {} of {}",
            r.committed,
            r.total_txs
        );
        assert_eq!(r.committed + r.failed, r.total_txs as u64, "{name}");
    }
}

#[test]
fn single_shard_commits_everything_with_zero_2pc_rounds() {
    let chain = history();
    let k = ShardCount::new(1).expect("non-zero");
    let result = replay("hash", k).seed(0x52_55_4e).run();
    let report = result.runtime("hash", k).expect("ran");
    assert_eq!(report.committed as usize, chain.txs.len());
    assert_eq!(report.failed, 0);
    assert_eq!(report.cross_shard_txs, 0);
    assert_eq!(report.prepare_rounds, 0);
    assert_eq!(report.aborted_rounds, 0);
    assert_eq!(report.per_shard.len(), 1);
}

#[test]
fn runtime_reports_are_deterministic() {
    let run = || replay("hash,metis", ShardCount::TWO).seed(99).run();
    let a = run();
    let b = run();
    assert_eq!(a.runs.len(), b.runs.len());
    for (ra, rb) in a.runs.iter().zip(&b.runs) {
        assert_eq!(ra.strategy, rb.strategy);
        assert_eq!(ra.runtime, rb.runtime, "{} k={}", ra.strategy, ra.k);
    }
}

#[test]
fn latency_rises_with_network_latency() {
    let k = ShardCount::TWO;
    let run = |latency| {
        replay("hash", k)
            .seed(0x52_55_4e)
            .net_latency_us(latency)
            .run()
    };
    let fast = run(1_000);
    let slow = run(20_000);
    let fast = fast.runtime("hash", k).expect("ran");
    let slow = slow.runtime("hash", k).expect("ran");
    assert!(
        slow.p99_commit_latency_us > fast.p99_commit_latency_us,
        "p99 {} !> {}",
        slow.p99_commit_latency_us,
        fast.p99_commit_latency_us
    );
}
