//! The self-profile pipeline behind `blockpart profile`.
//!
//! Runs the full study pipeline **serially**, one stage at a time —
//! chain-gen → graph-build → csr → partition → simulate (→ replay) —
//! with every stage wrapped in a wall-clock `stage` span, so the
//! aggregated table accounts for essentially all of the wall time.
//! The parallel [`Experiment`](crate::Experiment) fan-out is
//! deliberately bypassed: overlapping pair spans would make "% of
//! total" meaningless.
//!
//! The `partition` stage runs the multilevel partitioner once over the
//! cumulative full graph (the dominant cost of the paper's METIS
//! offline simulation) and nests its `partition/coarsen`,
//! `partition/initial` and `partition/refine` phase breakdown;
//! `simulate` nests the per-repartition `simulate/graph-assembly`,
//! `simulate/partition` and `simulate/apply-moves` details recorded by
//! the [`ShardSimulator`](blockpart_shard::ShardSimulator).

use blockpart_ethereum::gen::{ChainGenerator, GeneratorConfig};
use blockpart_graph::InteractionLog;
use blockpart_metrics::Table;
use blockpart_obs::profile::{aggregate, coverage, StageRow};
use blockpart_obs::{profile, Collector, Record, Stopwatch, Trace};
use blockpart_partition::{kway_traced, MultilevelConfig};
use blockpart_runtime::{Assignment, ShardedRuntime};
use blockpart_shard::ShardSimulator;
use blockpart_types::{Duration, ShardCount};

use crate::strategy::{StrategyError, StrategyRegistry};

/// The result of one [`run_profile`] pass: the collected trace plus the
/// end-to-end wall time the stage table is normalized against.
#[derive(Clone, Debug)]
pub struct ProfileReport {
    trace: Trace,
    wall_us: u64,
}

impl ProfileReport {
    /// The collected trace (stage + detail spans, replay virtual
    /// traces, metrics).
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// End-to-end pipeline wall time in µs.
    pub fn wall_us(&self) -> u64 {
        self.wall_us
    }

    /// Aggregated top-level stages, in first-seen (pipeline) order.
    pub fn stages(&self) -> Vec<StageRow> {
        aggregate(&self.trace, "stage")
    }

    /// Fraction of wall time the top-level stages account for. The
    /// stages run serially and wrap every expensive step, so this
    /// should sit above 0.95 on any non-trivial workload.
    pub fn coverage(&self) -> f64 {
        coverage(&self.stages(), self.wall_us)
    }

    /// The `stage | calls | time (ms) | % of total` table, stages
    /// sorted by time descending with their `detail` sub-spans
    /// indented, closed by a `total (wall)` row.
    pub fn table(&self) -> Table {
        let mut t = profile::table(
            &self.stages(),
            &aggregate(&self.trace, "detail"),
            self.wall_us,
        );
        t.row(vec![
            "total (wall)".to_string(),
            String::new(),
            format!("{:.2}", self.wall_us as f64 / 1000.0),
            "100.0%".to_string(),
        ]);
        t
    }
}

/// Profiles the full pipeline for `specs` × `shard_counts` over a chain
/// generated from `gen`. With `replay`, each pair's final assignment is
/// also replayed through the 2PC runtime (its deterministic
/// virtual-clock trace lands in a per-pair Perfetto process lane).
///
/// With `instrument` false the identical pipeline runs against a
/// disabled collector — the report then carries only the wall time,
/// which is what the CI overhead gate compares an instrumented run
/// against.
///
/// # Errors
///
/// Fails when `specs` does not resolve against `registry`.
#[allow(clippy::too_many_arguments)] // a flat CLI-facing entry point
pub fn run_profile(
    registry: &StrategyRegistry,
    specs: &str,
    shard_counts: &[ShardCount],
    gen: GeneratorConfig,
    window: Duration,
    seed: u64,
    replay: bool,
    instrument: bool,
) -> Result<ProfileReport, StrategyError> {
    let strategies = registry.resolve_list_with_sources(specs)?;
    let stopwatch = Stopwatch::start();
    let mut obs = Trace::when(instrument);
    obs.name_process(0, "profile pipeline (wall µs)");
    obs.name_thread(0, 0, "pipeline");

    // ---- chain-gen ------------------------------------------------------
    let start = obs.now_us();
    let chain = ChainGenerator::new(gen).generate();
    let dur = obs.now_us() - start;
    obs.record(
        Record::span(start, dur, "stage", "chain-gen")
            .with_arg("txs", chain.txs.len())
            .with_arg("interactions", chain.log.len()),
    );

    // ---- graph-build ----------------------------------------------------
    let start = obs.now_us();
    let graph = InteractionLog::graph_of(chain.log.events());
    let dur = obs.now_us() - start;
    obs.record(
        Record::span(start, dur, "stage", "graph-build")
            .with_arg("vertices", graph.node_count())
            .with_arg("edges", graph.edge_count()),
    );

    // ---- csr ------------------------------------------------------------
    let start = obs.now_us();
    let csr = graph.to_csr();
    let dur = obs.now_us() - start;
    obs.record(Record::span(start, dur, "stage", "csr").with_arg("edges", csr.edge_count()));

    // ---- partition ------------------------------------------------------
    // One multilevel pass over the cumulative graph at the largest k —
    // the unit cost dominating the paper's METIS offline simulation.
    let k_max = shard_counts
        .iter()
        .copied()
        .max_by_key(|k| k.get())
        .unwrap_or(ShardCount::TWO);
    let start = obs.now_us();
    let part = kway_traced(
        &csr,
        k_max,
        &MultilevelConfig {
            seed,
            ..MultilevelConfig::default()
        },
        &mut obs,
    );
    let dur = obs.now_us() - start;
    obs.record(
        Record::span(start, dur, "stage", "partition")
            .with_arg("k", k_max.get())
            .with_arg("vertices", part.len()),
    );

    // ---- simulate / replay, one pair at a time --------------------------
    let mut pair = 0u32;
    for (spec, _source) in &strategies {
        for &k in shard_counts {
            let label = format!("{} k={}", spec.name(), k.get());
            obs.set_metric_prefix(format!("{}/k{}/", spec.name(), k.get()));

            let config = spec.simulator_config(k).with_window(window);
            let mut sim = ShardSimulator::new(config, spec.build_partitioner(seed));
            let start = obs.now_us();
            let result = sim.run_traced(&chain.log, &mut obs);
            let dur = obs.now_us() - start;
            obs.record(
                Record::span(start, dur, "stage", "simulate")
                    .with_arg("pair", label.clone())
                    .with_arg("repartitions", result.repartitions),
            );

            if replay {
                let assignment = Assignment::from_map(sim.into_state().assignment_map(), k);
                let mut cfg = spec.runtime_config(k).with_seed(seed);
                cfg.k = k;
                let runtime = ShardedRuntime::new(cfg, assignment);
                let start = obs.now_us();
                // an uninstrumented (`--no-obs`) profile must not pay for
                // event collection it would immediately discard
                let (rep, mut virt) = if obs.enabled() {
                    runtime.run_traced(chain.chain.world(), &chain.txs)
                } else {
                    (
                        runtime.run(chain.chain.world(), &chain.txs),
                        Trace::disabled(),
                    )
                };
                let dur = obs.now_us() - start;
                obs.record(
                    Record::span(start, dur, "stage", "replay")
                        .with_arg("pair", label.clone())
                        .with_arg("committed", rep.committed),
                );
                virt.retag_process(pair + 1);
                virt.name_process(pair + 1, format!("{label} replay (virtual µs)"));
                virt.prefix_metrics(&format!("{}/k{}/", spec.name(), k.get()));
                obs.merge(virt);
            }
            pair += 1;
        }
    }
    obs.set_metric_prefix("");

    Ok(ProfileReport {
        trace: obs,
        wall_us: stopwatch.elapsed_us(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(instrument: bool) -> ProfileReport {
        let registry = StrategyRegistry::with_builtins();
        run_profile(
            &registry,
            "hash,metis",
            &[ShardCount::TWO],
            GeneratorConfig::test_scale(5),
            Duration::hours(4),
            7,
            true,
            instrument,
        )
        .expect("built-ins resolve")
    }

    #[test]
    fn stages_cover_the_wall_time() {
        let report = quick(true);
        let stages = report.stages();
        let names: Vec<&str> = stages.iter().map(|s| s.name.as_str()).collect();
        for stage in [
            "chain-gen",
            "graph-build",
            "csr",
            "partition",
            "simulate",
            "replay",
        ] {
            assert!(names.contains(&stage), "missing {stage} in {names:?}");
        }
        assert!(
            report.coverage() >= 0.95,
            "coverage {:.3} of {} µs",
            report.coverage(),
            report.wall_us()
        );
        let rendered = report.table().render_ascii();
        assert!(rendered.contains("total (wall)"), "{rendered}");
        assert!(rendered.contains("partition/coarsen"), "{rendered}");
    }

    #[test]
    fn uninstrumented_run_keeps_nothing_but_wall_time() {
        let report = quick(false);
        assert!(report.trace().records().is_empty());
        assert!(report.trace().metrics().is_empty());
        assert!(report.wall_us() > 0);
        assert_eq!(report.coverage(), 0.0);
    }
}
