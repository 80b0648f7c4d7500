//! Regenerates **Fig. 5**: dynamic edge-cut, normalized dynamic balance
//! ((balance − 1)/(k − 1)) and total moves for every method at k ∈
//! {2, 4, 8}, over the whole history.
//!
//! The paper's shapes to look for: edge-cut grows with k for every
//! method; METIS-family beats hashing and KL on edge-cut; hashing and KL
//! win on balance; METIS moves the most vertices, P/R-METIS and TR-METIS
//! far fewer.

use blockpart_bench::{generate_history, seed_from_env};
use blockpart_core::{Experiment, StrategyRegistry};
use blockpart_shard::SimulationResult;
use blockpart_types::ShardCount;

/// Mean dynamic edge-cut over the windows with traffic: the table's
/// `dyn-edge-cut` column.
fn mean_dynamic_cut(sim: &SimulationResult) -> f64 {
    let active: Vec<f64> = sim
        .windows
        .iter()
        .filter(|w| w.events > 0)
        .map(|w| w.dynamic_edge_cut)
        .collect();
    active.iter().sum::<f64>() / active.len().max(1) as f64
}

fn main() {
    let chain = generate_history();
    let ks: Vec<ShardCount> = [2u16, 4, 8]
        .iter()
        .map(|&k| ShardCount::new(k).expect("non-zero"))
        .collect();
    let report = Experiment::over_log(&chain.log)
        .named_strategies(&StrategyRegistry::with_builtins(), "all")
        .expect("built-in strategies resolve")
        .shard_counts(ks)
        .seed(seed_from_env())
        .run();

    println!("\n## Fig. 5 — methods vs shard count (full history)\n");
    println!("{}", report.offline_table().render_ascii());

    // headline cross-checks (printed, not asserted: scales vary)
    let cut = |strategy: &str, k: u16| {
        ShardCount::new(k)
            .and_then(|k| report.offline(strategy, k))
            .map(mean_dynamic_cut)
            .unwrap_or(f64::NAN)
    };
    println!(
        "hash cut growth with k : {:.2} -> {:.2} -> {:.2}",
        cut("hash", 2),
        cut("hash", 4),
        cut("hash", 8)
    );
    println!(
        "metis advantage at k=2 : {:.2} vs hash {:.2}",
        cut("metis", 2),
        cut("hash", 2)
    );
}
