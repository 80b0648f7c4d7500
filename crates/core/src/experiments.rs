//! One entry point per paper figure, each returning renderable data.
//!
//! | figure | function | what it reproduces |
//! |--------|----------|--------------------|
//! | Fig. 1 | [`fig1_growth`] | vertex/edge growth per month |
//! | Fig. 2 | [`fig2_dot`] | an account/contract subgraph in DOT |
//! | Fig. 3 | [`fig3_run`] | hash & METIS per-window series at k=2 |
//! | Fig. 4 | [`fig4_cells`] | box/violin stats per method, k and 2017 period |
//! | Fig. 5 | [`ExperimentReport::offline_table`] | per-method aggregates vs shard count |

use std::collections::HashSet;

use blockpart_graph::{algos, GraphBuilder, InteractionLog};
use blockpart_metrics::calendar::{label_of, month_index, month_start};
use blockpart_metrics::{FiveNumber, Table};
use blockpart_types::{Address, ShardCount, Timestamp};

use crate::experiment::{Experiment, ExperimentReport};
use crate::strategy::StrategyRegistry;

/// One monthly sample of Fig. 1's growth curves.
#[derive(Clone, Debug, PartialEq)]
pub struct GrowthPoint {
    /// Month offset since genesis (0 = August 2015).
    pub month: usize,
    /// The paper's axis label (`08.15` …).
    pub label: String,
    /// Cumulative distinct vertices (accounts + contracts).
    pub nodes: usize,
    /// Cumulative distinct directed edges.
    pub edges: usize,
    /// Cumulative interactions (edge weight).
    pub interactions: u64,
}

/// Computes the cumulative vertex/edge counts at every month boundary —
/// the two curves of Fig. 1.
///
/// # Examples
///
/// ```
/// use blockpart_core::experiments::fig1_growth;
/// use blockpart_graph::{Interaction, InteractionLog};
/// use blockpart_types::{Address, Timestamp};
///
/// let mut log = InteractionLog::new();
/// log.push(Interaction::new(
///     Timestamp::from_secs(0),
///     Address::from_index(1),
///     Address::from_index(2),
/// ));
/// let growth = fig1_growth(&log);
/// assert_eq!(growth.last().unwrap().nodes, 2);
/// ```
pub fn fig1_growth(log: &InteractionLog) -> Vec<GrowthPoint> {
    let mut points = Vec::new();
    let mut nodes: HashSet<Address> = HashSet::new();
    let mut edges: HashSet<(Address, Address)> = HashSet::new();
    let mut interactions = 0u64;
    let mut current_month = 0usize;

    let mut sample = |month: usize, nodes: usize, edges: usize, interactions: u64| {
        points.push(GrowthPoint {
            month,
            label: label_of(month_start(month)),
            nodes,
            edges,
            interactions,
        });
    };

    for e in log.events() {
        let m = month_index(e.time);
        while current_month < m {
            sample(current_month, nodes.len(), edges.len(), interactions);
            current_month += 1;
        }
        nodes.insert(e.from);
        nodes.insert(e.to);
        if e.from != e.to {
            edges.insert((e.from, e.to));
        }
        interactions += e.weight;
    }
    sample(current_month, nodes.len(), edges.len(), interactions);
    points
}

/// Renders growth points (with Fig. 1's fork markers) as a table.
pub fn fig1_table(points: &[GrowthPoint], markers: &[(&str, Timestamp)]) -> Table {
    let mut t = Table::new(vec!["month", "nodes", "edges", "interactions", "event"]);
    for p in points {
        let event = markers
            .iter()
            .filter(|&&(_, at)| month_index(at) == p.month)
            .map(|&(name, _)| name)
            .collect::<Vec<_>>()
            .join("+");
        t.row(vec![
            p.label.clone(),
            p.nodes.to_string(),
            p.edges.to_string(),
            p.interactions.to_string(),
            event,
        ]);
    }
    t
}

/// Extracts a Fig. 2-style presentation subgraph: the `hops`-neighbourhood
/// of the busiest *contract* within `[start, end)`, rendered as DOT
/// (accounts solid, contracts dashed, weighted edges labelled).
///
/// Returns `None` if the window contains no contract.
pub fn fig2_dot(
    log: &InteractionLog,
    start: Timestamp,
    end: Timestamp,
    hops: usize,
) -> Option<String> {
    let graph = log.graph_window(start, end);
    let seed = graph
        .nodes()
        .filter(|n| n.kind.is_contract())
        .max_by_key(|n| (n.weight, std::cmp::Reverse(n.id)))?;
    let csr = graph.to_csr();
    let hood = algos::neighborhood(&csr, seed.id.index(), hops);
    let keep: HashSet<usize> = hood.into_iter().collect();

    // induced subgraph
    let mut b = GraphBuilder::new();
    for n in graph.nodes().filter(|n| keep.contains(&n.id.index())) {
        b.touch(n.address, n.kind);
    }
    for e in graph.edges() {
        if keep.contains(&e.source.index()) && keep.contains(&e.target.index()) {
            b.add_interaction(graph.address(e.source), graph.address(e.target), e.weight);
        }
    }
    Some(blockpart_graph::io::to_dot(&b.build()))
}

/// Runs the Fig. 3 configuration: HASH and METIS at two shards, returning
/// the full report (per-window series for both strategies).
pub fn fig3_run(log: &InteractionLog, seed: u64) -> ExperimentReport {
    Experiment::over_log(log)
        .named_strategies(&StrategyRegistry::with_builtins(), "hash,metis")
        .expect("built-in strategies resolve")
        .shard_counts(vec![ShardCount::TWO])
        .seed(seed)
        .run()
}

/// Renders one strategy's Fig. 3 series as a monthly-aggregated table
/// (means of the 4-hour samples per month, repartition count).
/// `strategy` is looked up as by [`ExperimentReport::offline`].
pub fn fig3_table(report: &ExperimentReport, strategy: &str) -> Option<Table> {
    let run = report.offline(strategy, ShardCount::TWO)?;
    let mut t = Table::new(vec![
        "month",
        "static-cut",
        "dynamic-cut",
        "static-bal",
        "dynamic-bal",
        "reparts",
    ]);
    let Some(last) = run.windows.last() else {
        return Some(t);
    };
    let last_month = month_index(last.start);
    for m in 0..=last_month {
        let (lo, hi) = (month_start(m), month_start(m + 1));
        let ws: Vec<_> = run
            .windows
            .iter()
            .filter(|w| w.start >= lo && w.start < hi)
            .collect();
        if ws.is_empty() {
            continue;
        }
        let mean = |f: &dyn Fn(&blockpart_shard::WindowRecord) -> f64| {
            ws.iter().map(|w| f(w)).sum::<f64>() / ws.len() as f64
        };
        let reparts = ws.iter().filter(|w| w.repartitioned).count();
        t.row(vec![
            label_of(lo),
            format!("{:.3}", mean(&|w| w.static_edge_cut)),
            format!("{:.3}", mean(&|w| w.dynamic_edge_cut)),
            format!("{:.3}", mean(&|w| w.static_balance)),
            format!("{:.3}", mean(&|w| w.dynamic_balance)),
            reparts.to_string(),
        ]);
    }
    Some(t)
}

/// One box of the paper's Fig. 4: a method at a shard count within one
/// 2017 period.
#[derive(Clone, Debug)]
pub struct Fig4Cell {
    /// The strategy's display name.
    pub method: String,
    /// The shard count.
    pub k: ShardCount,
    /// The period's label (`01.17 - 06.17` …).
    pub period: String,
    /// Distribution of per-window dynamic edge-cut.
    pub edge_cut: FiveNumber,
    /// Distribution of per-window dynamic balance.
    pub balance: FiveNumber,
    /// Total vertex moves in the period.
    pub moves: u64,
}

/// The paper's four 2017 evaluation periods, as `(start, end, label)`.
pub fn fig4_periods() -> Vec<(Timestamp, Timestamp, String)> {
    let p = |a: usize, b: usize| {
        (
            month_start(a),
            month_start(b),
            format!(
                "{} - {}",
                label_of(month_start(a)),
                label_of(month_start(b))
            ),
        )
    };
    // months since genesis: 01.17 = 17, 06.17 = 22, 09.17 = 25, 12.17 = 28,
    // 01.18 = 29 (the paper's data ends in early January 2018)
    vec![p(17, 22), p(22, 25), p(25, 28), p(28, 29)]
}

/// Computes every Fig. 4 box from a report's offline runs.
///
/// Windows with no events are excluded from the distributions (the paper's
/// samples are 4-hour windows with traffic).
pub fn fig4_cells(
    report: &ExperimentReport,
    periods: &[(Timestamp, Timestamp, String)],
) -> Vec<Fig4Cell> {
    let mut cells = Vec::new();
    for run in &report.runs {
        let Some(sim) = &run.offline else { continue };
        for (start, end, label) in periods {
            let windows = sim.windows_in(*start, *end);
            let cuts: Vec<f64> = windows
                .iter()
                .filter(|w| w.events > 0)
                .map(|w| w.dynamic_edge_cut)
                .collect();
            let balances: Vec<f64> = windows
                .iter()
                .filter(|w| w.events > 0)
                .map(|w| w.dynamic_balance)
                .collect();
            let (Some(edge_cut), Some(balance)) =
                (FiveNumber::of(&cuts), FiveNumber::of(&balances))
            else {
                continue;
            };
            cells.push(Fig4Cell {
                method: run.strategy.clone(),
                k: run.k,
                period: label.clone(),
                edge_cut,
                balance,
                moves: sim.moves_in(*start, *end),
            });
        }
    }
    cells
}

/// Renders Fig. 4 cells for one shard count as a table.
pub fn fig4_table(cells: &[Fig4Cell], k: ShardCount) -> Table {
    let mut t = Table::new(vec![
        "period", "method", "cut-q1", "cut-med", "cut-q3", "bal-q1", "bal-med", "bal-q3", "moves",
    ]);
    for c in cells.iter().filter(|c| c.k == k) {
        t.row(vec![
            c.period.clone(),
            c.method.clone(),
            format!("{:.3}", c.edge_cut.q1),
            format!("{:.3}", c.edge_cut.median),
            format!("{:.3}", c.edge_cut.q3),
            format!("{:.3}", c.balance.q1),
            format!("{:.3}", c.balance.median),
            format!("{:.3}", c.balance.q3),
            c.moves.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockpart_graph::Interaction;
    use blockpart_types::AccountKind;

    fn tiny_log(days: u64) -> InteractionLog {
        let mut log = InteractionLog::new();
        for h in 0..days * 24 {
            let t = Timestamp::from_secs(h * 3_600);
            let i = h % 8;
            let mut e = Interaction::new(t, Address::from_index(i), Address::from_index(50));
            e.to_kind = AccountKind::Contract;
            log.push(e);
            log.push(Interaction::new(
                t,
                Address::from_index(i),
                Address::from_index((i + 1) % 8),
            ));
        }
        log
    }

    #[test]
    fn growth_is_monotone() {
        let log = tiny_log(70); // > 2 months
        let growth = fig1_growth(&log);
        assert!(growth.len() >= 3);
        for pair in growth.windows(2) {
            assert!(pair[1].nodes >= pair[0].nodes);
            assert!(pair[1].edges >= pair[0].edges);
            assert!(pair[1].interactions >= pair[0].interactions);
        }
        assert_eq!(growth[0].label, "08.15");
        let table = fig1_table(&growth, &[("Homestead", month_start(1))]);
        assert!(table.render_ascii().contains("Homestead"));
    }

    #[test]
    fn fig2_extracts_contract_neighborhood() {
        let log = tiny_log(3);
        let dot = fig2_dot(&log, Timestamp::EPOCH, Timestamp::from_secs(86_400 * 3), 1)
            .expect("contract exists");
        assert!(dot.contains("digraph"));
        assert!(dot.contains("style=dashed")); // the contract vertex
    }

    #[test]
    fn fig2_none_without_contracts() {
        let mut log = InteractionLog::new();
        log.push(Interaction::new(
            Timestamp::EPOCH,
            Address::from_index(0),
            Address::from_index(1),
        ));
        assert!(fig2_dot(&log, Timestamp::EPOCH, Timestamp::from_secs(10), 2).is_none());
    }

    #[test]
    fn fig3_produces_both_series() {
        let log = tiny_log(20);
        let report = fig3_run(&log, 1);
        assert!(fig3_table(&report, "hash").is_some());
        let metis = fig3_table(&report, "metis").unwrap();
        assert!(!metis.is_empty());
        assert!(fig3_table(&report, "kl").is_none()); // not in the run
    }

    #[test]
    fn fig4_periods_match_paper_axis() {
        let p = fig4_periods();
        assert_eq!(p.len(), 4);
        assert_eq!(p[0].2, "01.17 - 06.17");
        assert_eq!(p[3].2, "12.17 - 01.18");
    }

    #[test]
    fn fig4_cells_cover_active_periods() {
        let log = tiny_log(30);
        let report = Experiment::over_log(&log)
            .named_strategies(&StrategyRegistry::with_builtins(), "hash")
            .unwrap()
            .shard_counts(vec![ShardCount::TWO])
            .run();
        // the tiny log lives in month 0, so use a matching period
        let periods = vec![(
            Timestamp::EPOCH,
            Timestamp::from_secs(40 * 86_400),
            "test".to_string(),
        )];
        let cells = fig4_cells(&report, &periods);
        assert_eq!(cells.len(), 1);
        assert!(cells[0].edge_cut.max <= 1.0);
        let table = fig4_table(&cells, ShardCount::TWO);
        assert_eq!(table.len(), 1);
    }
}
