//! Regenerates **Fig. 4**: box-and-whisker statistics (min/Q1/median/Q3/
//! max via five-number summaries, plus violin densities) of per-window
//! dynamic edge-cut and dynamic balance for all five methods over the
//! four 2017 periods, at 2 and 8 shards.

use blockpart_bench::{generate_history, seed_from_env};
use blockpart_core::experiments::{fig4_cells, fig4_periods, fig4_table};
use blockpart_core::{Experiment, StrategyRegistry};
use blockpart_metrics::ViolinDensity;
use blockpart_types::ShardCount;

fn main() {
    let chain = generate_history();
    let ks = [ShardCount::TWO, ShardCount::new(8).expect("8 > 0")];
    let report = Experiment::over_log(&chain.log)
        .named_strategies(&StrategyRegistry::with_builtins(), "all")
        .expect("built-in strategies resolve")
        .shard_counts(ks.to_vec())
        .seed(seed_from_env())
        .run();

    let periods = fig4_periods();
    let cells = fig4_cells(&report, &periods);
    for k in ks {
        println!("\n## Fig. 4 — {k} (2017 periods, per-window dynamic metrics)\n");
        println!("{}", fig4_table(&cells, k).render_ascii());
    }

    // violin densities for the first period at k = 2 (the full figure's
    // density outline, 16 bins)
    println!(
        "## violin density (dynamic edge-cut, {}, k = 2)\n",
        periods[0].2
    );
    for run in report.runs.iter().filter(|r| r.k == ShardCount::TWO) {
        let sim = run.offline.as_ref().expect("offline stage ran");
        let cuts: Vec<f64> = sim
            .windows_in(periods[0].0, periods[0].1)
            .iter()
            .filter(|w| w.events > 0)
            .map(|w| w.dynamic_edge_cut)
            .collect();
        if let Some(v) = ViolinDensity::of(&cuts, 16) {
            let max = v.density.iter().cloned().fold(0.0, f64::max).max(1e-12);
            let bars: String = v
                .density
                .iter()
                .map(|&d| match (d / max * 4.0) as usize {
                    0 => ' ',
                    1 => '.',
                    2 => ':',
                    3 => '|',
                    _ => '#',
                })
                .collect();
            println!(
                "{:<9} [{bars}]  ({:.2}..{:.2})",
                run.strategy, v.grid[0], v.grid[15]
            );
        }
    }
}
