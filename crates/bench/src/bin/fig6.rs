//! Regenerates **Fig. 6** (an extension beyond the paper): the
//! execution-level cost of each partitioning method — throughput,
//! cross-shard ratio, 2PC abort rate and commit latency versus shard
//! count, measured by replaying the full history through the sharded
//! two-phase-commit runtime.
//!
//! Shapes to look for: hashing's cross-shard ratio approaches `1 − 1/k`,
//! so its latency and abort rate climb with k while delivered throughput
//! stalls; the METIS family keeps most transactions single-shard and
//! converts its lower edge-cut into lower p99 latency and higher
//! throughput.

use blockpart_bench::{generate_history, seed_from_env};
use blockpart_core::{Experiment, StrategyRegistry};
use blockpart_types::ShardCount;

fn main() {
    let chain = generate_history();
    let ks: Vec<ShardCount> = [1u16, 2, 4, 8]
        .iter()
        .map(|&k| ShardCount::new(k).expect("non-zero"))
        .collect();
    let report = Experiment::over_chain(&chain)
        .named_strategies(&StrategyRegistry::with_builtins(), "hash,metis,tr-metis")
        .expect("built-in strategies resolve")
        .shard_counts(ks)
        .seed(seed_from_env())
        .offline(false)
        .replay(true)
        .run();

    println!("\n## Fig. 6 — execution cost vs shard count (2PC runtime)\n");
    println!("{}", report.runtime_table().render_ascii());

    // headline cross-checks (printed, not asserted: scales vary)
    let cross = |strategy: &str, k: u16| {
        ShardCount::new(k)
            .and_then(|k| report.runtime(strategy, k))
            .map(|r| r.cross_shard_ratio)
            .unwrap_or(f64::NAN)
    };
    let tps = |strategy: &str, k: u16| {
        ShardCount::new(k)
            .and_then(|k| report.runtime(strategy, k))
            .map(|r| r.throughput_tps)
            .unwrap_or(f64::NAN)
    };
    println!(
        "hash cross-ratio growth with k : {:.2} -> {:.2} -> {:.2}",
        cross("hash", 2),
        cross("hash", 4),
        cross("hash", 8)
    );
    println!(
        "metis advantage at k=4        : cross {:.2} vs hash {:.2}, {:.0} vs {:.0} tx/s",
        cross("metis", 4),
        cross("hash", 4),
        tps("metis", 4),
        tps("hash", 4)
    );
}
