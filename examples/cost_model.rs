//! Would sharding have helped? Convert the study's abstract metrics into
//! throughput estimates under the two cross-shard execution regimes the
//! paper names: coordinated execution (Spanner / S-SMR style) and state
//! relocation (dynamic SMR style).
//!
//! ```sh
//! cargo run --release --example cost_model
//! ```

use blockpart::core::{Experiment, StrategyRegistry};
use blockpart::ethereum::gen::{ChainGenerator, GeneratorConfig};
use blockpart::metrics::Table;
use blockpart::shard::{CostModel, CrossShardMode};
use blockpart::types::ShardCount;

fn main() {
    let chain = ChainGenerator::new(GeneratorConfig::test_scale(77)).generate();
    println!("{} interactions\n", chain.log.len());

    let k = ShardCount::new(4).expect("4 > 0");
    let report = Experiment::over_log(&chain.log)
        .named_strategies(&StrategyRegistry::with_builtins(), "all")
        .expect("built-in strategies resolve")
        .shard_counts(vec![k])
        .seed(0x5755_4459)
        .run();

    // capacity chosen so an unsharded machine is saturated: speedup > 1
    // means sharding paid off
    let mean_events = {
        let r = report.offline("hash", k).expect("ran");
        let active: Vec<_> = r.windows.iter().filter(|w| w.events > 0).collect();
        active.iter().map(|w| w.events).sum::<usize>() as f64 / active.len().max(1) as f64
    };
    let coordinate = CostModel {
        shard_capacity: mean_events / 2.0,
        mode: CrossShardMode::Coordinate {
            coordination_factor: 3.0,
        },
    };
    let relocate = CostModel {
        shard_capacity: mean_events / 2.0,
        mode: CrossShardMode::Relocate {
            relocation_cost: 4.0,
        },
    };

    let mut table = Table::new(vec![
        "method",
        "dyn-cut",
        "speedup (coordinate)",
        "speedup (relocate)",
    ]);
    for run in &report.runs {
        let sim = run.offline.as_ref().expect("offline stage ran");
        let tc = coordinate.run_summary(sim, k.as_usize());
        let tr = relocate.run_summary(sim, k.as_usize());
        let cut = sim
            .windows
            .last()
            .map(|w| w.cumulative_dynamic_edge_cut)
            .unwrap_or(0.0);
        table.row(vec![
            run.strategy.clone(),
            format!("{cut:.3}"),
            format!("{:.2}x", tc.speedup),
            format!("{:.2}x", tr.speedup),
        ]);
    }
    println!("{}", table.render_ascii());
    println!("speedup > 1.0 means {k} beat one unsharded machine of the same capacity;");
    println!("the paper's pitfall: a poorly partitioned system lands *below* 1.0.");
}
