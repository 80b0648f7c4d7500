//! Pinned experiment reports: fingerprints of `ExperimentReport::to_json`
//! for three fixed runs over one seeded chain, covering the offline,
//! replay and live stages. Refactors of the pipeline must keep the report
//! bytes identical; unlike the determinism tests, which only compare the
//! code with itself, this compares it with recorded values. A change that
//! alters partitions on purpose re-records them.
//!
//! Two more pins cover the virtual-clock traces of the 2PC runtime: the
//! reports only aggregate, while a trace records every prepare, vote,
//! commit and execution span in event order, so a change to the event
//! loop's ordering shows up here first.
//!
//! The last pin covers the graph layer below the reports: the graph and
//! CSR of a chain with tens of thousands of interactions, and the LDG and
//! Fennel partitions of that CSR, which no report above exercises.

use blockpart::core::{Experiment, ExperimentReport, StrategyRegistry};
use blockpart::ethereum::gen::{ChainGenerator, GeneratorConfig};
use blockpart::ethereum::SyntheticChain;
use blockpart::graph::{Csr, Graph, InteractionLog};
use blockpart::live::{LiveConfig, LiveRunner};
use blockpart::obs::{perfetto::to_perfetto, Trace};
use blockpart::partition::{Fennel, LinearGreedy, Partition, PartitionRequest, Partitioner};
use blockpart::runtime::{Assignment, RuntimeConfig, ShardedRuntime};
use blockpart::types::{Duration, ShardCount};

fn chain() -> &'static SyntheticChain {
    static CHAIN: std::sync::OnceLock<SyntheticChain> = std::sync::OnceLock::new();
    CHAIN.get_or_init(|| ChainGenerator::new(GeneratorConfig::test_scale(17)).generate())
}

fn k(n: u16) -> ShardCount {
    ShardCount::new(n).expect("non-zero")
}

fn experiment(specs: &str) -> Experiment<'static> {
    Experiment::over_chain(chain())
        .named_strategies(&StrategyRegistry::with_builtins(), specs)
        .expect("built-in strategies resolve")
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// FNV-1a over the report's compact JSON.
fn fingerprint(report: &ExperimentReport) -> u64 {
    fnv1a(report.to_json().bytes())
}

/// FNV-1a over the trace's Perfetto JSON followed by its metrics dump.
fn trace_fingerprint(trace: &Trace) -> u64 {
    let perfetto = to_perfetto(trace).render();
    let metrics = trace.metrics_text();
    fnv1a(perfetto.bytes().chain(metrics.bytes()))
}

#[test]
fn offline_report_is_pinned() {
    let report = experiment("all")
        .shard_counts(vec![k(2), k(4)])
        .seed(17)
        .run();
    assert_eq!(fingerprint(&report), 0x5b87_d924_95f7_a933);
}

#[test]
fn replay_report_is_pinned() {
    let report = experiment("hash,metis")
        .shard_counts(vec![k(2)])
        .seed(19)
        .offline(false)
        .replay(true)
        .run();
    assert_eq!(fingerprint(&report), 0x9977_28d0_44d7_f7f2);
}

#[test]
fn live_report_is_pinned() {
    let report = experiment("tr-metis")
        .shard_counts(vec![k(2)])
        .seed(23)
        .offline(false)
        .live(true)
        .run();
    assert_eq!(fingerprint(&report), 0x0ed9_d2ee_5b27_6dd6);
}

#[test]
fn replay_trace_is_pinned() {
    let chain = chain();
    let runtime = ShardedRuntime::new(RuntimeConfig::new(k(2)), Assignment::hashed(k(2)));
    let (report, trace) = runtime.run_traced(chain.chain.world(), &chain.txs);
    assert!(report.prepare_rounds > 0, "the pin must cover 2PC rounds");
    assert_eq!(trace_fingerprint(&trace), 0xae7e_ff52_b310_f024);
}

#[test]
fn live_trace_is_pinned() {
    // TR-METIS's default two-week refractory period outlasts this
    // 14-day chain; a one-day interval lets the trigger fire
    let spec = StrategyRegistry::with_builtins()
        .resolve("tr-metis[interval=1]")
        .expect("built-in strategy resolves");
    let cfg = LiveConfig::for_strategy(
        &spec.simulator_config(k(2)),
        Duration::hours(4),
        spec.runtime_config(k(2)).with_seed(23),
    )
    .with_tracing(true);
    let chain = chain();
    let run = LiveRunner::new(cfg, spec.build_partitioner(23)).run(chain.chain.world(), &chain.txs);
    // paced migration arrivals are part of what the pin covers
    assert!(run.report.migrations() >= 1, "{}", run.report.headline());
    assert_eq!(
        trace_fingerprint(&run.session.finish()),
        0x9dc9_4f3b_d0b7_6089
    );
}

/// FNV-1a over the graph's nodes (address, kind, weight) in id order,
/// then its directed edges (source, target, weight) in CSR order.
fn graph_fingerprint(g: &Graph) -> u64 {
    let nodes = g.nodes().flat_map(|n| {
        let kind = u8::from(n.kind.is_contract());
        let address = *n.address.as_bytes();
        address
            .into_iter()
            .chain([kind])
            .chain(n.weight.to_le_bytes())
    });
    let edges = g.edges().flat_map(|e| {
        let ends = [e.source.as_u32(), e.target.as_u32()];
        ends.into_iter()
            .flat_map(u32::to_le_bytes)
            .chain(e.weight.to_le_bytes())
    });
    fnv1a(nodes.chain(edges))
}

/// FNV-1a over the CSR's four arrays: `xadj`, `adjncy`, `adjwgt`, `vwgt`.
fn csr_fingerprint(csr: &Csr) -> u64 {
    let n = csr.node_count();
    let xadj = (0..=n).scan(0u64, |at, v| {
        let start = *at;
        if v < n {
            *at += csr.degree(v) as u64;
        }
        Some(start)
    });
    let rows = || (0..n).flat_map(|v| csr.neighbors(v));
    let adjncy = rows().flat_map(|(t, _)| t.to_le_bytes());
    let adjwgt = rows().flat_map(|(_, w)| w.to_le_bytes());
    let vwgt = csr.vertex_weights().iter().flat_map(|w| w.to_le_bytes());
    fnv1a(
        xadj.flat_map(u64::to_le_bytes)
            .chain(adjncy)
            .chain(adjwgt)
            .chain(vwgt),
    )
}

/// A chain of 34,752 interactions: its graph (23,667 directed edges) and
/// CSR (22,652 undirected edges) are far above the sizes in the report
/// pins, and LDG and Fennel run on nothing else that is pinned.
#[test]
fn graph_csr_and_streaming_partitions_are_pinned() {
    let config = GeneratorConfig::demo_scale(7).with_scale(0.0002);
    let chain = ChainGenerator::new(config).generate();
    let graph = InteractionLog::graph_of(chain.log.events());
    let csr = graph.to_csr();
    assert_eq!(
        (chain.log.len(), graph.edge_count(), csr.edge_count()),
        (34_752, 23_667, 22_652)
    );
    assert_eq!(graph_fingerprint(&graph), 0xe228_0688_4f4f_2a99);
    assert_eq!(csr_fingerprint(&csr), 0x0247_ba83_5893_e453);
    // the streaming partitioners' assignments, vertex by vertex
    let req = |shards| PartitionRequest::new(&csr, k(shards));
    let pin = |p: Partition| fnv1a(p.as_slice().iter().flat_map(|s| s.to_le_bytes()));
    let ldg = |shards| pin(LinearGreedy::default().partition(&req(shards)));
    let fennel = |shards| pin(Fennel::default().partition(&req(shards)));
    assert_eq!(ldg(2), 0x022b_3544_2100_62cc);
    assert_eq!(ldg(4), 0x84c2_af8c_302b_80bf);
    assert_eq!(fennel(2), 0x0201_c33e_3293_ed3c);
    assert_eq!(fennel(4), 0xa771_aa88_d08a_d00d);
}
