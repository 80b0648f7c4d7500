//! The blockpart benchmark: one workload at one seed, end to end or
//! traced, printing one JSON result line.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload study-metis --seed 1 --seconds 25 --trace 0
//! ```
//!
//! With `--trace 0` the result carries the end-to-end metrics
//! ([`END_TO_END`]), with `--trace 1` the per-layer ones ([`PER_LAYER`]).
//! Progress and check failures go to stderr; the last stdout line is
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.

mod alloc;
mod args;
mod measure;
mod timed;
mod workload;

use std::process::ExitCode;

use blockpart_metrics::Json;

use crate::measure::Measured;
use crate::workload::Plan;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// A metric's name and unit, as `BENCHMARK.json` lists them.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// The metric's name.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// The end-to-end metrics, reported by every workload.
pub const END_TO_END: &[MetricDef] = &[
    def("txs_per_s", "tx/s"),
    def("setup_s", "s"),
    def("peak_heap_mib", "MiB"),
    def("cross_shard_frac", "fraction"),
    def("norm_balance", "fraction"),
];

/// The per-layer metrics of the traced run, reported by every workload
/// (0 where the workload does not use the layer).
pub const PER_LAYER: &[MetricDef] = &[
    def("ethereum.gen.busy_s", "s"),
    def("ethereum.gen.alloc_mib", "MiB"),
    def("ethereum.gen.peak_mib", "MiB"),
    def("ethereum.gen.txs", "count"),
    def("graph.build.busy_s", "s"),
    def("graph.build.alloc_mib", "MiB"),
    def("graph.build.peak_mib", "MiB"),
    def("graph.csr.busy_s", "s"),
    def("graph.csr.alloc_mib", "MiB"),
    def("graph.csr.peak_mib", "MiB"),
    def("graph.vertices", "count"),
    def("graph.edges", "count"),
    def("partition.kway.busy_s", "s"),
    def("partition.kway.alloc_mib", "MiB"),
    def("partition.kway.peak_mib", "MiB"),
    def("partition.coarsen.busy_s", "s"),
    def("partition.initial.busy_s", "s"),
    def("partition.refine.busy_s", "s"),
    def("partition.coarsen_levels", "count"),
    def("partition.coarsest_vertices", "count"),
    def("shard.simulate.busy_s", "s"),
    def("shard.simulate.alloc_mib", "MiB"),
    def("shard.simulate.peak_mib", "MiB"),
    def("shard.graph_assembly.busy_s", "s"),
    def("shard.partition.busy_s", "s"),
    def("shard.apply_moves.busy_s", "s"),
    def("shard.repartitions", "count"),
    def("shard.moved_vertices", "count"),
    def("shard.partition.calls", "count"),
    def("shard.partition.call_ms_p50", "ms"),
    def("shard.partition.call_ms_p95", "ms"),
    def("shard.partition.mean_vertices", "count"),
    def("runtime.replay.busy_s", "s"),
    def("runtime.replay.alloc_mib", "MiB"),
    def("runtime.replay.peak_mib", "MiB"),
    def("runtime.prepare_rounds", "count"),
    def("runtime.aborted_rounds", "count"),
    def("runtime.cross_shard_txs", "count"),
    def("runtime.failed_txs", "count"),
    def("runtime.commit_p99_vclock_ms", "ms"),
    def("runtime.abort_rate", "fraction"),
    def("runtime.commit_useful_ratio", "fraction"),
    def("runtime.exec_re_executions", "count"),
    def("runtime.exec_useful_ratio", "fraction"),
    def("live.run.busy_s", "s"),
    def("live.run.alloc_mib", "MiB"),
    def("live.run.peak_mib", "MiB"),
    def("live.partition.busy_s", "s"),
    def("live.rest.busy_s", "s"),
    def("live.partition.calls", "count"),
    def("live.partition.call_ms_p50", "ms"),
    def("live.partition.call_ms_p95", "ms"),
    def("live.partition.mean_vertices", "count"),
    def("live.migrations", "count"),
    def("live.accounts_moved", "count"),
    def("live.bytes_moved", "bytes"),
    def("live.migration_vclock_s", "s"),
    def("live.failed_txs", "count"),
    def("live.commit_p99_vclock_ms", "ms"),
    def("live.abort_rate", "fraction"),
    def("core.run.busy_s", "s"),
    def("core.fanout_speedup", "ratio"),
    def("obs.coverage", "fraction"),
    def("obs.trace_overhead_frac", "fraction"),
];

/// Renders the result line: every metric of `catalogue`, 0 where the run
/// measured nothing for it.
fn result_json(measured: &Measured, catalogue: &[MetricDef]) -> String {
    let metrics = catalogue.iter().map(|m| {
        let value = measured.metrics.get(m.name).copied().unwrap_or(0.0);
        (
            m.name,
            Json::obj([("value", Json::Num(value)), ("unit", Json::from(m.unit))]),
        )
    });
    Json::obj([
        ("correct", Json::Bool(measured.failures.is_empty())),
        ("attempted", Json::from(measured.attempted)),
        ("failed", Json::from(measured.failed)),
        ("metrics", Json::obj(metrics)),
    ])
    .render()
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match args::parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let plan = Plan::new(args.workload, args.seed, args.workload.scale());
    eprintln!(
        "perfbench: {} seed {} for {} s ({}), {} worker threads",
        args.workload.name(),
        args.seed,
        args.seconds,
        if args.trace { "traced" } else { "end to end" },
        blockpart_types::resolve_workers(0),
    );
    let (measured, catalogue) = if args.trace {
        (measure::traced(&plan, args.seconds), PER_LAYER)
    } else {
        (measure::end_to_end(&plan, args.seconds), END_TO_END)
    };
    for failure in &measured.failures {
        eprintln!("check failed: {failure}");
    }
    println!("{}", result_json(&measured, catalogue));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    /// A scale small enough for a debug-build test.
    const TINY: f64 = 0.000_02;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(Json::as_str)
                        .expect("name/unit")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let doc = benchmark_json();
        let own = |c: &[MetricDef]| -> Vec<(String, String)> {
            c.iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect()
        };
        assert_eq!(listed(&doc, "end_to_end"), own(END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), own(PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect();
        let own: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, own);
    }

    /// Every workload, end to end and traced, at a tiny scale: each named
    /// metric is emitted with its unit and a finite value, and every
    /// output check passes.
    #[test]
    fn every_metric_is_emitted_with_its_unit() {
        for workload in Workload::ALL {
            let plan = Plan::new(workload, 7, TINY);
            for (measured, catalogue) in [
                (measure::end_to_end(&plan, 1), END_TO_END),
                (measure::traced(&plan, 1), PER_LAYER),
            ] {
                assert!(
                    measured.failures.is_empty(),
                    "{}: {:?}",
                    workload.name(),
                    measured.failures
                );
                let line = Json::parse(&result_json(&measured, catalogue)).expect("result parses");
                assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));
                assert!(line.get("attempted").and_then(Json::as_u64).unwrap() >= 1);
                assert_eq!(line.get("failed").and_then(Json::as_u64), Some(0));
                let metrics = line.get("metrics").expect("metrics");
                for m in catalogue {
                    let entry = metrics
                        .get(m.name)
                        .unwrap_or_else(|| panic!("{} missing", m.name));
                    assert_eq!(entry.get("unit").and_then(Json::as_str), Some(m.unit));
                    let value = entry.get("value").and_then(Json::as_f64);
                    assert!(value.is_some_and(f64::is_finite), "{}: {value:?}", m.name);
                }
            }
        }
    }
}
