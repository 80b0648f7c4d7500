//! Integration tests of the figure-regeneration pipeline on a scaled-down
//! 30-month history (the same code path as the bench binaries).

use blockpart::core::experiments::{
    fig1_growth, fig1_table, fig2_dot, fig3_run, fig3_table, fig4_cells, fig4_periods, fig4_table,
};
use blockpart::core::{Experiment, StrategyRegistry};
use blockpart::ethereum::gen::{ChainGenerator, EraTimeline, GeneratorConfig};
use blockpart::metrics::calendar::month_start;
use blockpart::types::{ShardCount, Timestamp};

/// A very small full-timeline history (30 months at tiny scale), shared
/// across the tests in this file.
fn small_history() -> &'static blockpart::ethereum::SyntheticChain {
    static HISTORY: std::sync::OnceLock<blockpart::ethereum::SyntheticChain> =
        std::sync::OnceLock::new();
    HISTORY.get_or_init(|| {
        let config = GeneratorConfig::demo_scale(2024).with_scale(2.0e-4);
        ChainGenerator::new(config).generate()
    })
}

#[test]
fn fig1_shape_exponential_then_attack_spike() {
    let chain = small_history();
    let growth = fig1_growth(&chain.log);
    assert!(
        growth.len() >= 29,
        "should cover ~30 months: {}",
        growth.len()
    );

    // growth is monotone
    for pair in growth.windows(2) {
        assert!(pair[1].nodes >= pair[0].nodes);
        assert!(pair[1].edges >= pair[0].edges);
    }

    // the attack inflates the vertex count sharply between 09.16 and 11.16
    let nodes_at = |label: &str| {
        growth
            .iter()
            .find(|p| p.label == label)
            .map(|p| p.nodes)
            .unwrap_or(0)
    };
    let pre = nodes_at("09.16");
    let post = nodes_at("11.16");
    assert!(
        post as f64 > pre as f64 * 2.0,
        "attack vertex inflation missing: {pre} -> {post}"
    );

    // super-linear 2017: December 2017 well above March 2017
    let spring = nodes_at("03.17");
    let winter = nodes_at("12.17");
    assert!(winter > spring, "2017 growth: {spring} -> {winter}");

    // the table renders with markers
    let table = fig1_table(&growth, &EraTimeline::fig1_markers());
    let ascii = table.render_ascii();
    assert!(ascii.contains("Byzantium"));
    assert!(ascii.contains("08.15"));
}

#[test]
fn fig2_produces_dot_subgraph() {
    let chain = small_history();
    // look in a busy month (mid-2017)
    let dot = fig2_dot(&chain.log, month_start(22), month_start(23), 2);
    let dot = dot.expect("2017 has active contracts");
    assert!(dot.starts_with("digraph"));
    assert!(dot.contains("style=dashed"), "contracts must be dashed");
    assert!(dot.contains("->"), "subgraph must have edges");
}

#[test]
fn fig3_hash_vs_metis_tradeoff() {
    let chain = small_history();
    let result = fig3_run(&chain.log, 3);

    let hash = result.offline("hash", ShardCount::TWO).expect("ran");
    let metis = result.offline("metis", ShardCount::TWO).expect("ran");

    // hashing: optimum static balance once the population is large (the
    // first year at tiny scale has only tens of vertices, where binomial
    // noise dominates)
    let late = month_start(17);
    let max_bal = hash
        .windows
        .iter()
        .filter(|w| w.start >= late)
        .map(|w| w.static_balance)
        .fold(0.0f64, f64::max);
    assert!(
        max_bal < 1.25,
        "hash static balance stays near 1: {max_bal}"
    );

    // METIS: lower final cut than hashing, but worse dynamic balance
    let last_h = hash.windows.last().expect("windows");
    let last_m = metis.windows.last().expect("windows");
    assert!(
        last_m.cumulative_dynamic_edge_cut < last_h.cumulative_dynamic_edge_cut,
        "metis {} vs hash {}",
        last_m.cumulative_dynamic_edge_cut,
        last_h.cumulative_dynamic_edge_cut
    );
    assert!(
        last_m.cumulative_dynamic_balance >= last_h.cumulative_dynamic_balance - 0.1,
        "metis trades balance for cut: {} vs {}",
        last_m.cumulative_dynamic_balance,
        last_h.cumulative_dynamic_balance
    );

    // monthly tables render for both methods
    for m in ["HASH", "METIS"] {
        let t = fig3_table(&result, m).expect("ran");
        assert!(t.len() >= 25, "{m} table rows: {}", t.len());
    }
}

#[test]
fn fig4_and_fig5_aggregate_full_grid() {
    let chain = small_history();
    let result = Experiment::over_log(&chain.log)
        .named_strategies(&StrategyRegistry::with_builtins(), "all")
        .expect("built-in strategies resolve")
        .shard_counts(vec![ShardCount::TWO, ShardCount::new(8).expect("8")])
        .seed(5)
        .run();

    // fig 4: every method × k × 2017 period has a box
    let periods = fig4_periods();
    let cells = fig4_cells(&result, &periods);
    assert_eq!(cells.len(), 5 * 2 * 4, "cells: {}", cells.len());
    for c in &cells {
        assert!(c.edge_cut.min >= 0.0 && c.edge_cut.max <= 1.0);
        assert!(c.balance.min >= 1.0 - 1e-9);
        assert!(c.balance.max <= c.k.as_usize() as f64 + 1e-9);
    }
    let t2 = fig4_table(&cells, ShardCount::TWO);
    assert_eq!(t2.len(), 20); // 5 methods × 4 periods

    // fig 5: aggregates for the full grid
    let rows = &result.runs;
    assert_eq!(rows.len(), 10);
    let table = result.offline_table();
    assert_eq!(table.len(), 10);

    // paper shape: hashing's cut grows toward 1 - 1/k (mean dynamic
    // edge-cut over the windows with traffic, the table's column)
    let hash_cut = |kk: u16| {
        let sim = result
            .offline("hash", ShardCount::new(kk).expect("non-zero"))
            .expect("present");
        let active: Vec<f64> = sim
            .windows
            .iter()
            .filter(|w| w.events > 0)
            .map(|w| w.dynamic_edge_cut)
            .collect();
        active.iter().sum::<f64>() / active.len().max(1) as f64
    };
    assert!(hash_cut(2) < hash_cut(8));

    // paper shape: METIS moves the most; TR-METIS fewer than R-METIS
    let moves = |m: &str| {
        rows.iter()
            .filter(|r| r.strategy == m)
            .map(|r| r.offline.as_ref().expect("offline stage ran").total_moves)
            .sum::<u64>()
    };
    assert!(moves("METIS") > moves("TR-METIS"));
    assert_eq!(moves("HASH"), 0);

    // paper shape: TR-METIS repartitions no more than R-METIS
    let reparts = |m: &str| {
        rows.iter()
            .filter(|r| r.strategy == m)
            .map(|r| r.offline.as_ref().expect("offline stage ran").repartitions)
            .sum::<usize>()
    };
    assert!(reparts("TR-METIS") <= reparts("R-METIS"));
}

#[test]
fn truncated_timeline_limits_history() {
    let tl = EraTimeline::ethereum_history().truncated(month_start(6));
    let config = GeneratorConfig::demo_scale(9)
        .with_scale(5.0e-4)
        .with_timeline(tl);
    let chain = ChainGenerator::new(config).generate();
    let last = chain.log.last_time().expect("events");
    assert!(last < month_start(6));
    assert!(Timestamp::EPOCH < last);
}
