//! Regenerates **Fig. 3**: hashing vs METIS at two shards over the whole
//! history — static/dynamic edge-cut and balance per 4-hour window,
//! aggregated monthly for the console (full-resolution CSV on request via
//! `BLOCKPART_CSV=1`).
//!
//! The paper's shapes to look for: hashing's static balance pinned at ~1
//! with static edge-cut ~0.5; METIS's much lower edge-cut but dynamic
//! balance drifting toward 2 after the attack.

use blockpart_bench::{generate_history, seed_from_env};
use blockpart_core::experiments::{fig3_run, fig3_table};
use blockpart_types::ShardCount;

fn main() {
    let chain = generate_history();
    let report = fig3_run(&chain.log, seed_from_env());

    for strategy in ["HASH", "METIS"] {
        println!("\n## Fig. 3 — {strategy} at k = 2 (monthly means of 4-hour windows)\n");
        let table = fig3_table(&report, strategy).expect("strategy was run");
        println!("{}", table.render_ascii());
    }

    if std::env::var("BLOCKPART_CSV").is_ok() {
        for strategy in ["HASH", "METIS"] {
            let run = report.offline(strategy, ShardCount::TWO).expect("ran");
            println!("\n# {strategy} per-window CSV: start_secs,static_cut,dynamic_cut,static_bal,dynamic_bal,repartitioned,moves");
            for w in &run.windows {
                println!(
                    "{},{:.4},{:.4},{:.4},{:.4},{},{}",
                    w.start.as_secs(),
                    w.static_edge_cut,
                    w.dynamic_edge_cut,
                    w.static_balance,
                    w.dynamic_balance,
                    w.repartitioned as u8,
                    w.moves
                );
            }
        }
    }
}
