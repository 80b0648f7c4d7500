//! Replay the September–October 2016 dummy-account attack and reproduce
//! the paper's METIS anomaly: the attack floods the graph with one-shot
//! vertices, METIS balances vertex *counts*, and the shard holding the
//! real accounts ends up with nearly all the activity (dynamic balance
//! approaching k) — while R-METIS, which only looks at the recent window,
//! shrugs the dead vertices off.
//!
//! ```sh
//! cargo run --release --example attack_replay
//! ```

use blockpart::core::{Experiment, StrategyRegistry};
use blockpart::ethereum::gen::{ChainGenerator, Era, EraTimeline, GeneratorConfig, TxMix};
use blockpart::metrics::Table;
use blockpart::types::{Duration, ShardCount, Timestamp, Wei};

fn main() {
    // three weeks organic, two weeks of attack spam, three weeks organic
    let day = |d: u64| Timestamp::from_secs(d * 86_400);
    let timeline = EraTimeline::new(vec![
        Era {
            name: "organic",
            start: Timestamp::EPOCH,
            end: day(21),
            rate_start: 25_000.0,
            rate_end: 25_000.0,
            mix: TxMix::homestead(),
        },
        Era {
            name: "attack",
            start: day(21),
            end: day(35),
            rate_start: 250_000.0,
            rate_end: 250_000.0,
            mix: TxMix::attack(),
        },
        Era {
            name: "aftermath",
            start: day(35),
            end: day(56),
            rate_start: 25_000.0,
            rate_end: 25_000.0,
            mix: TxMix::homestead(),
        },
    ]);
    let config = GeneratorConfig {
        seed: 2016,
        scale: 0.004,
        timeline,
        block_interval: Duration::hours(4),
        endowment: Wei::new(1_000_000_000),
    };
    println!("replaying the 2016 attack (scale {})...", config.scale);
    let chain = ChainGenerator::new(config).generate();
    println!("  {} interactions\n", chain.log.len());

    let report = Experiment::over_log(&chain.log)
        .named_strategies(&StrategyRegistry::with_builtins(), "metis,r-metis")
        .expect("built-in strategies resolve")
        .shard_counts(vec![ShardCount::TWO])
        .seed(0x5755_4459)
        .run();

    let mut table = Table::new(vec![
        "week",
        "METIS dyn-balance",
        "R-METIS dyn-balance",
        "METIS static-balance",
    ]);
    let metis = report.offline("metis", ShardCount::TWO).expect("ran");
    let rmetis = report.offline("r-metis", ShardCount::TWO).expect("ran");
    for week in 0..8u64 {
        let (lo, hi) = (day(week * 7), day((week + 1) * 7));
        let mean = |r: &blockpart::shard::SimulationResult,
                    f: &dyn Fn(&blockpart::shard::WindowRecord) -> f64| {
            let ws: Vec<_> = r
                .windows_in(lo, hi)
                .iter()
                .filter(|w| w.events > 0)
                .collect();
            if ws.is_empty() {
                f64::NAN
            } else {
                ws.iter().map(|w| f(w)).sum::<f64>() / ws.len() as f64
            }
        };
        table.row(vec![
            format!(
                "{}{}",
                week + 1,
                if (3..5).contains(&week) {
                    " (attack)"
                } else {
                    ""
                }
            ),
            format!("{:.2}", mean(metis, &|w| w.dynamic_balance)),
            format!("{:.2}", mean(rmetis, &|w| w.dynamic_balance)),
            format!("{:.2}", mean(metis, &|w| w.static_balance)),
        ]);
    }
    println!("{}", table.render_ascii());
    println!(
        "METIS moves: {}   R-METIS moves: {}",
        metis.total_moves, rmetis.total_moves
    );
}
