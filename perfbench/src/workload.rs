//! The three workloads, each driving a public entry point the CLI uses.
//!
//! * `study-metis` — `Experiment::run` with METIS and TR-METIS at k ∈
//!   {2, 4} over the organic chain: the offline simulation's repeated
//!   multilevel repartitioning dominates.
//! * `replay-hash` — `Experiment::run` with HASH at k ∈ {2, 4} and the
//!   2PC replay on: execution and two-phase commit dominate and no
//!   multilevel partitioner runs.
//! * `live-hub-burst` — `LiveRunner::run` with TR-METIS at k = 4 over the
//!   `hub-burst` scenario chain: windowed repartitioning of hub-heavy
//!   graphs plus migration 2PC beside foreground commits.
//!
//! A [`Plan`] fixes the workload, seed and scale. Generating the run's
//! batch of chains ([`Plan::generate`]) is set-up; [`Plan::call`] is the
//! timed call and receives only one generated chain. [`Plan::serial`]
//! makes the same calls one strategy × k pair at a time, for the traced
//! pass.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use blockpart_core::{
    Experiment, ExperimentReport, ExperimentRun, ScenarioRegistry, StrategyRegistry, StrategySpec,
};
use blockpart_ethereum::gen::{ChainGenerator, GeneratorConfig};
use blockpart_ethereum::SyntheticChain;
use blockpart_graph::InteractionLog;
use blockpart_live::{LiveConfig, LiveRunner, MigrationReport};
use blockpart_obs::{Collector, Record, Trace};
use blockpart_partition::{kway_traced, MultilevelConfig, Partitioner};
use blockpart_runtime::{Assignment, RuntimeConfig, ShardedRuntime};
use blockpart_shard::{ShardSimulator, SimulationResult};
use blockpart_types::{Duration, ShardCount};

use crate::alloc::{self, Usage};
use crate::timed::{CallLog, Timed};

/// The measurement window (the paper's four hours, `Experiment`'s
/// default).
const WINDOW: Duration = Duration::hours(4);
/// One-way inter-shard latency and arrival gap, as the CLI passes them.
const NET_LATENCY_US: u64 = 1_000;
const INTER_ARRIVAL_US: u64 = 500;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// METIS and TR-METIS offline study.
    StudyMetis,
    /// HASH with the 2PC replay.
    ReplayHash,
    /// TR-METIS live repartitioning under a hub burst.
    LiveHubBurst,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::StudyMetis,
        Workload::ReplayHash,
        Workload::LiveHubBurst,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::StudyMetis => "study-metis",
            Workload::ReplayHash => "replay-hash",
            Workload::LiveHubBurst => "live-hub-burst",
        }
    }

    /// The workload called `name`, if any.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The generator scale of each chain.
    pub fn scale(self) -> f64 {
        match self {
            Workload::StudyMetis => 0.000_1,
            Workload::ReplayHash => 0.000_6,
            Workload::LiveHubBurst => 0.000_2,
        }
    }

    /// Chains per run. The work a chain costs varies from seed to seed
    /// (on `study-metis` by up to half, with the size of the graph the
    /// multilevel partitioner's coarsening stalls at), so a run times a
    /// batch of chains and their mean steadies the figures across seeds.
    pub fn chains(self) -> usize {
        match self {
            Workload::StudyMetis => 16,
            Workload::ReplayHash => 2,
            Workload::LiveHubBurst => 5,
        }
    }

    fn strategies(self) -> &'static str {
        match self {
            Workload::StudyMetis => "metis,tr-metis",
            Workload::ReplayHash => "hash",
            Workload::LiveHubBurst => "tr-metis",
        }
    }

    fn shard_counts(self) -> &'static [u16] {
        match self {
            Workload::StudyMetis | Workload::ReplayHash => &[2, 4],
            // at k = 2 hub-burst runs split into two regimes by seed
            // (cross-shard share 0.53 or 0.65-0.74, throughput apart by
            // half); at k = 4 every seed tried lands in one
            Workload::LiveHubBurst => &[4],
        }
    }

    /// Whether the experiment replays each pair's final assignment
    /// through the 2PC runtime.
    fn replays(self) -> bool {
        self == Workload::ReplayHash
    }
}

/// What a timed or serial call produced.
pub enum Report {
    /// An `Experiment` report (`study-metis`, `replay-hash`).
    Experiment(Box<ExperimentReport>),
    /// A live run's report (`live-hub-burst`).
    Live(MigrationReport),
}

impl Report {
    /// The report's JSON, the witness that two calls computed the same
    /// result.
    pub fn json(&self) -> String {
        match self {
            Report::Experiment(r) => r.to_json(),
            Report::Live(r) => r.json().render(),
        }
    }
}

/// Wall time and heap use of one call.
#[derive(Clone, Copy, Debug)]
pub struct Timing {
    /// Wall seconds.
    pub secs: f64,
    /// Heap use between the call's start and end.
    pub mem: Usage,
}

/// Runs `f`, timing it and counting its heap use.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Timing) {
    let mark = alloc::mark();
    let start = Instant::now();
    let out = f();
    let secs = start.elapsed().as_secs_f64();
    (
        out,
        Timing {
            secs,
            mem: alloc::since(mark),
        },
    )
}

/// Runs `f` inside a layer span named `name` (category `layer`) that
/// carries the heap use as `alloc_bytes` and `peak_bytes`. Layer spans
/// must not nest (see [`alloc::mark`]).
pub fn layer<T>(obs: &mut Trace, name: &'static str, f: impl FnOnce(&mut Trace) -> T) -> T {
    let start = obs.now_us();
    let (out, timing) = timed(|| f(obs));
    if obs.enabled() {
        obs.record(
            Record::span(start, (timing.secs * 1e6) as u64, "layer", name)
                .with_arg("alloc_bytes", timing.mem.allocated)
                .with_arg("peak_bytes", timing.mem.peak_above),
        );
    }
    out
}

/// A workload at a seed and scale, with its strategies resolved.
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// The run's seed: partitioners and the runtime take it as is, chains
    /// derive theirs from it.
    pub seed: u64,
    scale: f64,
    strategies: Vec<Arc<dyn StrategySpec>>,
    shards: Vec<ShardCount>,
}

impl Plan {
    /// The plan for `workload` at `seed` and `scale`.
    pub fn new(workload: Workload, seed: u64, scale: f64) -> Plan {
        let strategies = StrategyRegistry::with_builtins()
            .resolve_list(workload.strategies())
            .expect("built-in strategies resolve");
        let shards = workload
            .shard_counts()
            .iter()
            .map(|&k| ShardCount::new(k).expect("non-zero shard count"))
            .collect();
        Plan {
            workload,
            seed,
            scale,
            strategies,
            shards,
        }
    }

    /// Generates chain `i` of the run's batch (set-up). Chain `i` of seed
    /// `s` is generated from `s · chains + i`, so the batches of two seeds
    /// never share a chain.
    pub fn generate(&self, i: usize) -> SyntheticChain {
        let chains = self.workload.chains() as u64;
        let seed = self.seed.wrapping_mul(chains).wrapping_add(i as u64);
        let config = GeneratorConfig::demo_scale(seed).with_scale(self.scale);
        match self.workload {
            Workload::LiveHubBurst => ScenarioRegistry::with_builtins()
                .compose("hub-burst")
                .expect("built-in scenario resolves")
                .build(&config),
            _ => ChainGenerator::new(config).generate(),
        }
    }

    fn runtime_config(&self, spec: &dyn StrategySpec, k: ShardCount) -> RuntimeConfig {
        let mut cfg = spec.runtime_config(k).with_seed(self.seed);
        cfg.k = k;
        cfg.with_net_latency_us(NET_LATENCY_US)
            .with_inter_arrival_us(INTER_ARRIVAL_US)
    }

    /// The live loop's configuration, built as the `live` command does.
    fn live_config(&self, spec: &dyn StrategySpec, k: ShardCount) -> LiveConfig {
        let sim = spec.simulator_config(k);
        let depth = (sim.scope_window.as_secs() / WINDOW.as_secs()).max(1) as usize;
        LiveConfig::new(k)
            .with_window(WINDOW)
            .with_depth(depth)
            .with_policy(sim.policy)
            .with_runtime(self.runtime_config(spec, k))
            .with_label(spec.name())
    }

    /// The timed call: the workload's public entry point, with the
    /// program's worker pools at their defaults and tracing off.
    pub fn call(&self, chain: &SyntheticChain) -> (Report, Timing) {
        match self.workload {
            Workload::StudyMetis | Workload::ReplayHash => {
                let experiment = Experiment::over_chain(chain)
                    .strategies(self.strategies.clone())
                    .shard_counts(self.shards.clone())
                    .seed(self.seed)
                    .replay(self.workload.replays())
                    .net_latency_us(NET_LATENCY_US)
                    .inter_arrival_us(INTER_ARRIVAL_US);
                let (report, timing) = timed(|| experiment.run());
                (Report::Experiment(Box::new(report)), timing)
            }
            Workload::LiveHubBurst => {
                let (spec, k) = (self.strategies[0].as_ref(), self.shards[0]);
                let mut runner =
                    LiveRunner::new(self.live_config(spec, k), spec.build_partitioner(self.seed));
                let (run, timing) = timed(|| runner.run(chain.chain.world(), &chain.txs));
                (Report::Live(run.report), timing)
            }
        }
    }

    /// The same calls as [`call`](Self::call), one pair at a time, each
    /// inside a layer span. `ShardSimulator::run_traced` reports into
    /// `obs`; with `calls`, every partitioner is wrapped in [`Timed`].
    pub fn serial(
        &self,
        chain: &SyntheticChain,
        obs: &mut Trace,
        calls: Option<&CallLog>,
    ) -> Report {
        let partitioner = |spec: &dyn StrategySpec| -> Box<dyn Partitioner> {
            let inner = spec.build_partitioner(self.seed);
            match calls {
                Some(log) => Timed::wrap(inner, log),
                None => inner,
            }
        };
        match self.workload {
            Workload::StudyMetis | Workload::ReplayHash => {
                let mut runs = Vec::new();
                for spec in &self.strategies {
                    for &k in &self.shards {
                        let spec = spec.as_ref();
                        let config = spec.simulator_config(k).with_window(WINDOW);
                        let mut sim = ShardSimulator::new(config, partitioner(spec));
                        let offline =
                            layer(obs, "shard.simulate", |obs| sim.run_traced(&chain.log, obs));
                        let runtime = if self.workload.replays() {
                            let assignment =
                                Assignment::from_map(sim.into_state().assignment_map(), k);
                            let runtime =
                                ShardedRuntime::new(self.runtime_config(spec, k), assignment);
                            Some(layer(obs, "runtime.replay", |_| {
                                runtime.run(chain.chain.world(), &chain.txs)
                            }))
                        } else {
                            None
                        };
                        runs.push(ExperimentRun {
                            strategy: spec.name().to_string(),
                            requested: None,
                            k,
                            offline: Some(offline),
                            runtime,
                            live: None,
                        });
                    }
                }
                Report::Experiment(Box::new(ExperimentReport {
                    seed: self.seed,
                    window: WINDOW,
                    scenario: None,
                    runs,
                    trace: None,
                }))
            }
            Workload::LiveHubBurst => {
                let (spec, k) = (self.strategies[0].as_ref(), self.shards[0]);
                let mut runner = LiveRunner::new(self.live_config(spec, k), partitioner(spec));
                let run = layer(obs, "live.run", |_| {
                    runner.run(chain.chain.world(), &chain.txs)
                });
                Report::Live(run.report)
            }
        }
    }

    /// Builds the chain's full interaction graph and its CSR, then
    /// partitions the CSR once per shard count with `kway_traced`, each
    /// step in a layer span. Returns the graph's vertex and edge counts.
    pub fn one_shot(&self, chain: &SyntheticChain, obs: &mut Trace) -> (usize, usize) {
        let graph = layer(obs, "graph.build", |_| {
            InteractionLog::graph_of(chain.log.events())
        });
        let csr = layer(obs, "graph.csr", |_| graph.to_csr());
        let config = MultilevelConfig {
            seed: self.seed,
            ..MultilevelConfig::default()
        };
        for &k in &self.shards {
            layer(obs, "partition.kway", |obs| {
                kway_traced(&csr, k, &config, obs)
            });
        }
        (graph.node_count(), graph.edge_count())
    }

    /// Checks a call's report against the chain it ran on. Returns one
    /// message per failed check.
    pub fn check(&self, chain: &SyntheticChain, report: &Report) -> Vec<String> {
        let mut failures = Vec::new();
        let submitted = chain.txs.len() as u64;
        match report {
            Report::Experiment(r) => {
                let pairs = self.strategies.len() * self.shards.len();
                if r.runs.len() != pairs {
                    failures.push(format!("{} runs, expected {pairs}", r.runs.len()));
                }
                for run in &r.runs {
                    let label = format!("{} k={}", run.strategy, run.k.get());
                    match &run.offline {
                        Some(sim) => {
                            let events: usize = sim.windows.iter().map(|w| w.events).sum();
                            if events != chain.log.len() {
                                failures.push(format!(
                                    "{label}: windows hold {events} of {} interactions",
                                    chain.log.len()
                                ));
                            }
                            if sim
                                .windows
                                .iter()
                                .any(|w| !(0.0..=1.0).contains(&w.dynamic_edge_cut))
                            {
                                failures.push(format!("{label}: edge-cut outside [0, 1]"));
                            }
                        }
                        None => failures.push(format!("{label}: no offline result")),
                    }
                    match (&run.runtime, self.workload.replays()) {
                        (Some(rep), true) => {
                            outcomes(&label, rep.committed, rep.failed, submitted, &mut failures);
                            let (lo, hi) = hash_cross_band(run.k);
                            if !(lo..=hi).contains(&rep.cross_shard_ratio) {
                                failures.push(format!(
                                    "{label}: HASH cross-shard ratio {:.3} outside [{lo:.3}, {hi:.3}]",
                                    rep.cross_shard_ratio
                                ));
                            }
                        }
                        (None, false) => {}
                        _ => failures.push(format!("{label}: replay stage mismatch")),
                    }
                }
            }
            Report::Live(r) => {
                let (committed, failed) = (r.total_committed(), r.total_failed());
                outcomes("live", committed, failed, submitted, &mut failures);
                let offered: usize = r.windows.iter().map(|w| w.txs).sum();
                if offered as u64 != submitted {
                    failures.push(format!(
                        "live: windows offered {offered} of {submitted} txs"
                    ));
                }
            }
        }
        failures
    }

    /// The deterministic figures a report yields, by metric name: the
    /// end-to-end quality metrics and the per-layer counts. Figures a
    /// workload does not produce are absent.
    pub fn figures(&self, report: &Report) -> BTreeMap<&'static str, f64> {
        let mut f = BTreeMap::new();
        match report {
            Report::Experiment(r) => {
                let sims: Vec<(&SimulationResult, ShardCount)> = r
                    .runs
                    .iter()
                    .filter_map(|run| run.offline.as_ref().map(|s| (s, run.k)))
                    .collect();
                let n = sims.len().max(1) as f64;
                let (mut cut, mut bal) = (0.0, 0.0);
                for &(sim, k) in &sims {
                    let (c, b) = mean_window_metrics(sim);
                    cut += c;
                    bal += normalized_balance(b, k);
                }
                f.insert("norm_balance", bal / n);
                f.insert(
                    "shard.repartitions",
                    sims.iter().map(|(s, _)| s.repartitions as f64).sum(),
                );
                f.insert(
                    "shard.moved_vertices",
                    sims.iter().map(|(s, _)| s.total_moves as f64).sum(),
                );
                f.insert("cross_shard_frac", cut / n);
                let reps: Vec<_> = r
                    .runs
                    .iter()
                    .filter_map(|run| run.runtime.as_ref())
                    .collect();
                if !reps.is_empty() {
                    let m = reps.len() as f64;
                    let sum = |g: &dyn Fn(&blockpart_runtime::RuntimeReport) -> f64| -> f64 {
                        reps.iter().map(|rep| g(rep)).sum()
                    };
                    let (prepared, aborted) = (
                        sum(&|r| r.prepare_rounds as f64),
                        sum(&|r| r.aborted_rounds as f64),
                    );
                    let (committed, failed) =
                        (sum(&|r| r.committed as f64), sum(&|r| r.failed as f64));
                    let re_exec = sum(&|r| r.exec_re_executions as f64);
                    // HASH's edge-cut is fixed by construction; what it
                    // costs is the share of transactions that go to 2PC
                    f.insert("cross_shard_frac", sum(&|r| r.cross_shard_ratio) / m);
                    f.insert(
                        "runtime.commit_p99_vclock_ms",
                        sum(&|r| r.p99_commit_latency_us as f64) / m / 1e3,
                    );
                    f.insert("runtime.abort_rate", ratio(aborted, prepared));
                    f.insert("runtime.prepare_rounds", prepared);
                    f.insert("runtime.aborted_rounds", aborted);
                    f.insert(
                        "runtime.cross_shard_txs",
                        sum(&|r| r.cross_shard_txs as f64),
                    );
                    f.insert("runtime.failed_txs", failed);
                    f.insert(
                        "runtime.commit_useful_ratio",
                        ratio(committed, committed + aborted),
                    );
                    f.insert("runtime.exec_re_executions", re_exec);
                    f.insert(
                        "runtime.exec_useful_ratio",
                        ratio(committed, committed + re_exec),
                    );
                }
            }
            Report::Live(r) => {
                let k = ShardCount::new(r.k).expect("live report has k >= 1");
                let active: Vec<_> = r.windows.iter().filter(|w| w.txs > 0).collect();
                let txs: usize = active.iter().map(|w| w.txs).sum();
                let cross: usize = active.iter().map(|w| w.cross_shard_txs).sum();
                let aborted: u64 = r.windows.iter().map(|w| w.aborted_rounds).sum();
                let failed = r.total_failed();
                let bal: f64 = active
                    .iter()
                    .map(|w| normalized_balance(w.window_balance, k))
                    .sum();
                f.insert("cross_shard_frac", ratio(cross as f64, txs as f64));
                f.insert("norm_balance", bal / active.len().max(1) as f64);
                f.insert(
                    "live.commit_p99_vclock_ms",
                    r.worst_during_p99_us() as f64 / 1e3,
                );
                // a live window reports no prepare-round count; every
                // cross-shard tx that commits ends in one successful round
                f.insert(
                    "live.abort_rate",
                    ratio(aborted as f64, (aborted + cross as u64) as f64),
                );
                f.insert("live.migrations", r.migrations() as f64);
                f.insert("live.accounts_moved", r.accounts_moved() as f64);
                f.insert("live.bytes_moved", r.bytes_moved() as f64);
                f.insert(
                    "live.migration_vclock_s",
                    r.migration_wall_us() as f64 / 1e6,
                );
                f.insert("live.failed_txs", failed as f64);
            }
        }
        f
    }
}

/// The band a HASH cross-shard ratio must fall in at `k` shards. An
/// edge-cut of `1 − 1/k` is HASH's expectation for a two-account
/// transaction; contract calls touch more accounts, so the ratio of
/// transactions spanning shards sits at or above it.
pub fn hash_cross_band(k: ShardCount) -> (f64, f64) {
    let expected = 1.0 - 1.0 / k.get() as f64;
    (expected - 0.05, expected + 0.30)
}

/// Every submitted transaction is either committed or reported failed,
/// and on these workloads none fails.
fn outcomes(label: &str, committed: u64, failed: u64, submitted: u64, failures: &mut Vec<String>) {
    if committed + failed != submitted {
        failures.push(format!(
            "{label}: committed {committed} + failed {failed} != submitted {submitted}"
        ));
    }
    if failed > 0 {
        failures.push(format!("{label}: {failed} transactions failed"));
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Mean dynamic edge-cut and balance over the windows that saw traffic
/// (the aggregation behind `ExperimentReport::offline_table`).
fn mean_window_metrics(sim: &SimulationResult) -> (f64, f64) {
    let active: Vec<_> = sim.windows.iter().filter(|w| w.events > 0).collect();
    let n = active.len().max(1) as f64;
    (
        active.iter().map(|w| w.dynamic_edge_cut).sum::<f64>() / n,
        active.iter().map(|w| w.dynamic_balance).sum::<f64>() / n,
    )
}

/// `(b − 1)/(k − 1)`, the paper's normalized balance.
fn normalized_balance(balance: f64, k: ShardCount) -> f64 {
    if k.get() <= 1 {
        0.0
    } else {
        ((balance - 1.0) / (k.get() as f64 - 1.0)).max(0.0)
    }
}
