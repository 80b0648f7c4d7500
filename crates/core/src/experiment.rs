//! The unified experiment pipeline: workload → windowing → strategies ×
//! shard counts → offline simulation and/or 2PC runtime replay.
//!
//! [`Experiment`] is the one builder behind every study, figure and
//! CLI command:
//!
//! 1. **Workload source** — a pre-built [`SyntheticChain`], a bare
//!    [`InteractionLog`], or a [`GeneratorConfig`] the pipeline
//!    synthesizes at run time;
//! 2. **Strategies** — any [`StrategySpec`]s, usually resolved through a
//!    [`StrategyRegistry`](crate::StrategyRegistry);
//! 3. **Stages** — the offline partitioning simulation (edge-cut /
//!    balance / moves per 4-hour window) and, when a chain is available,
//!    the 2PC runtime replay of the chain on each strategy's final
//!    assignment. One simulator pass feeds both stages.
//!
//! The output is an [`ExperimentReport`] nesting the per-run
//! [`SimulationResult`] and [`RuntimeReport`] data; it renders as ASCII
//! tables or serializes to JSON for benches and CI diffing.
//!
//! # Examples
//!
//! ```
//! use blockpart_core::{Experiment, StrategyRegistry};
//! use blockpart_ethereum::gen::{ChainGenerator, GeneratorConfig};
//! use blockpart_types::ShardCount;
//!
//! let registry = StrategyRegistry::with_builtins();
//! let chain = ChainGenerator::new(GeneratorConfig::test_scale(5)).generate();
//! let report = Experiment::over_chain(&chain)
//!     .named_strategies(&registry, "hash,metis")
//!     .unwrap()
//!     .shard_counts(vec![ShardCount::TWO])
//!     .run();
//! let hash = report.offline("hash", ShardCount::TWO).unwrap();
//! assert_eq!(hash.total_moves, 0);
//! assert!(report.to_json().starts_with('{'));
//! ```

use std::sync::{mpsc, Arc};
use std::time::Instant;

use crossbeam::deque::{Steal, Stealer, Worker};

use blockpart_ethereum::gen::{ChainGenerator, GeneratorConfig};
use blockpart_ethereum::SyntheticChain;
use blockpart_graph::InteractionLog;
use blockpart_live::{LiveConfig, LiveRunner, MigrationReport};
use blockpart_metrics::{Json, Table};
use blockpart_obs::{perfetto, Collector, Record, Trace};
use blockpart_runtime::{Assignment, RuntimeReport, ShardedRuntime};
use blockpart_shard::{ShardSimulator, SimulationResult};
use blockpart_storage::{SegmentStore, DEFAULT_SEGMENT_EVENTS};
use blockpart_types::{Duration, ShardCount, SpillSession, StorageBackend};

use crate::scenario::{ScenarioRegistry, ScenarioSpec};
use crate::strategy::{spec_lookup_key, StrategyError, StrategyRegistry, StrategySpec};

/// A configured strategy and, when it was resolved from a spec string,
/// the requested spelling (kept for report lookups).
type ConfiguredStrategy = (Arc<dyn StrategySpec>, Option<String>);

/// The paper's five canonical strategies — the default when an
/// [`Experiment`] is run without configuring strategies.
fn default_strategies() -> Vec<ConfiguredStrategy> {
    StrategyRegistry::with_builtins()
        .canonical()
        .expect("built-in strategies resolve")
        .into_iter()
        .map(|s| (s, None))
        .collect()
}

/// Where an experiment's interactions (and, for replay, transactions)
/// come from.
enum WorkloadSource<'a> {
    /// A bare interaction log: offline simulation only.
    Log(&'a InteractionLog),
    /// A pre-built chain: offline simulation and runtime replay.
    Chain(&'a SyntheticChain),
    /// A generator configuration, synthesized when the experiment runs.
    Generator(GeneratorConfig),
}

/// The event source handed to each strategy × k pair: the resident log,
/// or a disk-backed segment store each pair streams independently.
enum EventFeed<'b> {
    /// Everything resident — the classic path.
    Resident(&'b InteractionLog),
    /// A sealed on-disk segment store; each pair opens its own
    /// sequential readers, so the full log is never materialized.
    Store(&'b SegmentStore),
}

/// One completed pipeline run: a strategy at a shard count.
#[derive(Clone, Debug)]
pub struct ExperimentRun {
    /// The strategy's display name ([`StrategySpec::name`]).
    pub strategy: String,
    /// The spec string this run was configured from, when it was
    /// resolved by name (e.g. the alias `p-metis` whose display name is
    /// `R-METIS`). Report lookups match it as well as the display name.
    pub requested: Option<String>,
    /// The shard count.
    pub k: ShardCount,
    /// Offline per-window metrics (present unless offline was disabled).
    pub offline: Option<SimulationResult>,
    /// 2PC replay measurements (present when replay was enabled).
    pub runtime: Option<RuntimeReport>,
    /// Live repartitioning measurements (present when the live stage
    /// was enabled): triggered migrations executed through the 2PC
    /// runtime while the transaction stream flows.
    pub live: Option<MigrationReport>,
}

/// Results of an [`Experiment`], indexable by strategy name and shard
/// count. Name lookup uses the registry's normalization (case- and
/// `-`/`_`-insensitive).
#[derive(Clone, Debug, Default)]
pub struct ExperimentReport {
    /// The seed the experiment ran with.
    pub seed: u64,
    /// The measurement window.
    pub window: Duration,
    /// The scenario the workload was generated under, when the
    /// experiment ran a generator workload with a configured
    /// [`ScenarioSpec`] (the friendly organic chain otherwise).
    pub scenario: Option<String>,
    /// All runs, strategy-major in configuration order.
    pub runs: Vec<ExperimentRun>,
    /// Merged observability trace, present when tracing was enabled
    /// ([`Experiment::trace`]): pipeline/pair wall spans in process 0
    /// (one thread lane per pair) plus each replay's virtual-clock 2PC
    /// trace retagged into its own process lane.
    pub trace: Option<Trace>,
}

impl ExperimentReport {
    fn run_of(&self, strategy: &str, k: ShardCount) -> Option<&ExperimentRun> {
        let key = spec_lookup_key(strategy);
        self.runs.iter().find(|r| {
            r.k == k
                && (spec_lookup_key(&r.strategy) == key
                    || r.requested.as_deref().map(spec_lookup_key) == Some(key.clone()))
        })
    }

    /// The offline simulation result for `strategy` at `k`, if present.
    pub fn offline(&self, strategy: &str, k: ShardCount) -> Option<&SimulationResult> {
        self.run_of(strategy, k).and_then(|r| r.offline.as_ref())
    }

    /// The runtime replay report for `strategy` at `k`, if present.
    pub fn runtime(&self, strategy: &str, k: ShardCount) -> Option<&RuntimeReport> {
        self.run_of(strategy, k).and_then(|r| r.runtime.as_ref())
    }

    /// The live repartitioning report for `strategy` at `k`, if present.
    pub fn live(&self, strategy: &str, k: ShardCount) -> Option<&MigrationReport> {
        self.run_of(strategy, k).and_then(|r| r.live.as_ref())
    }

    /// Renders the offline stage as the per-strategy aggregate table
    /// (the Fig. 5 columns: mean dynamic edge-cut, normalized balance,
    /// moves, repartitions).
    pub fn offline_table(&self) -> Table {
        let mut t = Table::new(vec![
            "strategy",
            "k",
            "dyn-edge-cut",
            "norm-dyn-balance",
            "moves",
            "reparts",
        ]);
        for r in &self.runs {
            let Some(sim) = &r.offline else { continue };
            let (cut, bal) = mean_window_metrics(sim);
            let normalized = normalized_balance(bal, r.k.as_usize());
            t.row(vec![
                r.strategy.clone(),
                r.k.get().to_string(),
                format!("{cut:.3}"),
                format!("{normalized:.3}"),
                sim.total_moves.to_string(),
                sim.repartitions.to_string(),
            ]);
        }
        t
    }

    /// Renders the replay stage as the runtime comparison table.
    pub fn runtime_table(&self) -> Table {
        let mut t = Table::new(vec![
            "strategy",
            "k",
            "committed",
            "failed",
            "cross-%",
            "abort-%",
            "p50-ms",
            "p99-ms",
            "tx/s",
        ]);
        for r in &self.runs {
            let Some(rep) = &r.runtime else { continue };
            t.row(vec![
                r.strategy.clone(),
                r.k.get().to_string(),
                rep.committed.to_string(),
                rep.failed.to_string(),
                format!("{:.1}", rep.cross_shard_ratio * 100.0),
                format!("{:.1}", rep.abort_rate * 100.0),
                format!("{:.2}", rep.p50_commit_latency_us as f64 / 1e3),
                format!("{:.2}", rep.p99_commit_latency_us as f64 / 1e3),
                format!("{:.0}", rep.throughput_tps),
            ]);
        }
        t
    }

    /// Renders the live stage as the migration comparison table.
    pub fn live_table(&self) -> Table {
        let mut t = Table::new(vec![
            "strategy",
            "k",
            "migrations",
            "accounts",
            "bytes",
            "mig-ms",
            "during-p99-ms",
            "committed",
            "failed",
        ]);
        for r in &self.runs {
            let Some(live) = &r.live else { continue };
            t.row(vec![
                r.strategy.clone(),
                r.k.get().to_string(),
                live.migrations().to_string(),
                live.accounts_moved().to_string(),
                live.bytes_moved().to_string(),
                format!("{:.2}", live.migration_wall_us() as f64 / 1e3),
                format!("{:.2}", live.worst_during_p99_us() as f64 / 1e3),
                live.total_committed().to_string(),
                live.total_failed().to_string(),
            ]);
        }
        t
    }

    /// The trace as a Chrome/Perfetto `trace_event` JSON document, when
    /// tracing was enabled.
    pub fn trace_perfetto(&self) -> Option<Json> {
        self.trace.as_ref().map(perfetto::to_perfetto)
    }

    /// Flat text dump of the collected metrics, when tracing was
    /// enabled.
    pub fn metrics_text(&self) -> Option<String> {
        self.trace.as_ref().map(Trace::metrics_text)
    }

    /// Serializes the report as compact JSON.
    pub fn to_json(&self) -> String {
        self.json_value().render()
    }

    /// Serializes the report as indented JSON (diff-friendly).
    pub fn to_json_pretty(&self) -> String {
        self.json_value().render_pretty()
    }

    fn json_value(&self) -> Json {
        let mut pairs = vec![
            ("schema".to_string(), Json::from("blockpart.experiment/1")),
            ("seed".to_string(), Json::from(self.seed)),
            (
                "window_hours".to_string(),
                Json::from(self.window.as_secs() as f64 / 3_600.0),
            ),
        ];
        if let Some(scenario) = &self.scenario {
            pairs.push(("scenario".to_string(), Json::from(scenario.as_str())));
        }
        pairs.push((
            "runs".to_string(),
            Json::arr(self.runs.iter().map(|r| {
                let mut pairs = vec![
                    ("strategy".to_string(), Json::from(r.strategy.as_str())),
                    ("k".to_string(), Json::from(r.k.get())),
                ];
                if let Some(sim) = &r.offline {
                    pairs.push(("offline".to_string(), offline_json(sim)));
                }
                if let Some(rep) = &r.runtime {
                    pairs.push(("runtime".to_string(), runtime_json(rep)));
                }
                if let Some(live) = &r.live {
                    pairs.push(("live".to_string(), live.json()));
                }
                Json::Obj(pairs)
            })),
        ));
        Json::Obj(pairs)
    }
}

/// Finds worker `me`'s next task: its own deque first, then a stealing
/// sweep over its peers (starting just after itself, so thieves spread
/// out). Returns `None` only when every queue is drained.
fn next_task(local: &Worker<usize>, stealers: &[Stealer<usize>], me: usize) -> Option<usize> {
    if let Some(i) = local.pop() {
        return Some(i);
    }
    loop {
        let mut retry = false;
        for offset in 1..stealers.len() {
            match stealers[(me + offset) % stealers.len()].steal() {
                Steal::Success(i) => return Some(i),
                Steal::Retry => retry = true,
                Steal::Empty => {}
            }
        }
        if !retry {
            return None;
        }
    }
}

/// Mean per-window dynamic edge-cut and balance over active windows —
/// the aggregation behind the offline table (the Fig. 5 columns) and
/// the report JSON.
fn mean_window_metrics(sim: &SimulationResult) -> (f64, f64) {
    let active: Vec<_> = sim.windows.iter().filter(|w| w.events > 0).collect();
    let n = active.len().max(1) as f64;
    (
        active.iter().map(|w| w.dynamic_edge_cut).sum::<f64>() / n,
        active.iter().map(|w| w.dynamic_balance).sum::<f64>() / n,
    )
}

/// Normalizes a mean dynamic balance as `(b − 1)/(k − 1)` so different
/// shard counts are comparable (the paper's Fig. 5 y-axis).
fn normalized_balance(mean_balance: f64, k: usize) -> f64 {
    if k <= 1 {
        0.0
    } else {
        ((mean_balance - 1.0) / (k as f64 - 1.0)).max(0.0)
    }
}

fn offline_json(sim: &SimulationResult) -> Json {
    let (cut, bal) = mean_window_metrics(sim);
    let mut pairs = vec![
        ("windows".to_string(), Json::from(sim.windows.len())),
        ("total_moves".to_string(), Json::from(sim.total_moves)),
        (
            "total_relocated_units".to_string(),
            Json::from(sim.total_relocated_units),
        ),
        ("repartitions".to_string(), Json::from(sim.repartitions)),
        ("vertex_count".to_string(), Json::from(sim.vertex_count)),
        ("edge_count".to_string(), Json::from(sim.edge_count)),
        ("mean_dynamic_edge_cut".to_string(), Json::from(cut)),
        ("mean_dynamic_balance".to_string(), Json::from(bal)),
    ];
    if let Some(last) = sim.windows.last() {
        pairs.push((
            "final_static_edge_cut".to_string(),
            Json::from(last.static_edge_cut),
        ));
        pairs.push((
            "final_static_balance".to_string(),
            Json::from(last.static_balance),
        ));
        pairs.push((
            "cumulative_dynamic_edge_cut".to_string(),
            Json::from(last.cumulative_dynamic_edge_cut),
        ));
    }
    Json::Obj(pairs)
}

fn runtime_json(rep: &RuntimeReport) -> Json {
    Json::obj([
        ("k", Json::from(rep.k.get())),
        ("total_txs", Json::from(rep.total_txs)),
        ("committed", Json::from(rep.committed)),
        ("failed", Json::from(rep.failed)),
        ("cross_shard_txs", Json::from(rep.cross_shard_txs)),
        ("cross_shard_ratio", Json::from(rep.cross_shard_ratio)),
        ("prepare_rounds", Json::from(rep.prepare_rounds)),
        ("aborted_rounds", Json::from(rep.aborted_rounds)),
        ("abort_rate", Json::from(rep.abort_rate)),
        ("local_conflicts", Json::from(rep.local_conflicts)),
        ("stray_touches", Json::from(rep.stray_touches)),
        (
            "p50_commit_latency_us",
            Json::from(rep.p50_commit_latency_us),
        ),
        (
            "p99_commit_latency_us",
            Json::from(rep.p99_commit_latency_us),
        ),
        ("makespan_us", Json::from(rep.makespan_us)),
        ("throughput_tps", Json::from(rep.throughput_tps)),
        ("exec_speculated", Json::from(rep.exec_speculated)),
        ("exec_conflicts", Json::from(rep.exec_conflicts)),
        ("exec_re_executions", Json::from(rep.exec_re_executions)),
        (
            "per_shard",
            Json::arr(rep.per_shard.iter().map(|s| {
                Json::obj([
                    ("shard", Json::from(s.shard.as_u16())),
                    ("committed", Json::from(s.committed)),
                    ("cross_committed", Json::from(s.cross_committed)),
                    ("busy_us", Json::from(s.busy_us)),
                    ("utilization", Json::from(s.utilization)),
                ])
            })),
        ),
    ])
}

/// Configures and runs the unified pipeline: workload source → graph
/// windowing → strategies × shard counts → offline simulation and/or
/// 2PC runtime replay.
///
/// Strategy × shard-count pairs execute in parallel (a worker pool
/// bounded by the machine's available parallelism) and are individually
/// deterministic: the same workload, strategies, shard counts and seed
/// always produce the same report regardless of thread scheduling.
pub struct Experiment<'a> {
    workload: WorkloadSource<'a>,
    /// `None` until configured: [`run`](Experiment::run) defaults to the
    /// five canonical paper strategies (resolved lazily so the common
    /// explicitly-configured path never builds an unused registry).
    /// Each spec may carry the spec string it was resolved from.
    strategies: Option<Vec<ConfiguredStrategy>>,
    shard_counts: Vec<ShardCount>,
    /// The scenario applied to a generator workload (friendly chain
    /// when unset). One chain is generated per [`run`](Experiment::run)
    /// and shared by every strategy × k pair.
    scenario: Option<Arc<dyn ScenarioSpec>>,
    window: Duration,
    seed: u64,
    offline: bool,
    replay: bool,
    live: bool,
    trace: bool,
    net_latency_us: Option<u64>,
    inter_arrival_us: Option<u64>,
    /// Where the pipeline's heavy data lives. With
    /// [`StorageBackend::Spill`], a generator workload without replay or
    /// live stages is synthesized straight into an on-disk segment store
    /// (the full interaction log is never resident) and the offline
    /// simulation streams it back; replay and live stages route 2PC
    /// state shipping through an on-disk spool. Results are
    /// byte-identical to the in-memory backend.
    storage: StorageBackend,
}

impl std::fmt::Debug for Experiment<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Experiment")
            .field(
                "strategies",
                &self
                    .strategies
                    .iter()
                    .flatten()
                    .map(|(s, _)| s.name())
                    .collect::<Vec<_>>(),
            )
            .field("shard_counts", &self.shard_counts)
            .field("offline", &self.offline)
            .field("replay", &self.replay)
            .finish()
    }
}

impl<'a> Experiment<'a> {
    fn with_workload(workload: WorkloadSource<'a>, replay: bool) -> Self {
        Experiment {
            workload,
            strategies: None,
            shard_counts: [2u16, 4, 8]
                .iter()
                .map(|&k| ShardCount::new(k).expect("non-zero"))
                .collect(),
            scenario: None,
            window: Duration::hours(4),
            seed: 0x45_58_50, // "EXP"
            offline: true,
            replay,
            live: false,
            trace: false,
            net_latency_us: None,
            inter_arrival_us: None,
            storage: StorageBackend::InMemory,
        }
    }

    /// An experiment over a bare interaction log (offline stage only —
    /// there are no transactions to replay). Defaults: the five paper
    /// strategies, k ∈ {2, 4, 8}, 4-hour windows.
    pub fn over_log(log: &'a InteractionLog) -> Self {
        Experiment::with_workload(WorkloadSource::Log(log), false)
    }

    /// An experiment over a pre-built synthetic chain. Same defaults as
    /// [`over_log`](Self::over_log); enable the 2PC stage with
    /// [`replay`](Self::replay).
    pub fn over_chain(chain: &'a SyntheticChain) -> Self {
        Experiment::with_workload(WorkloadSource::Chain(chain), false)
    }

    /// An experiment that synthesizes its chain from `config` when run.
    pub fn from_generator(config: GeneratorConfig) -> Self {
        Experiment::with_workload(WorkloadSource::Generator(config), false)
    }

    /// Replaces the strategy list.
    pub fn strategies(mut self, strategies: Vec<Arc<dyn StrategySpec>>) -> Self {
        self.strategies = Some(strategies.into_iter().map(|s| (s, None)).collect());
        self
    }

    /// Adds one strategy (to the canonical five when none were
    /// configured yet).
    pub fn strategy(mut self, strategy: Arc<dyn StrategySpec>) -> Self {
        self.strategies
            .get_or_insert_with(default_strategies)
            .push((strategy, None));
        self
    }

    /// Replaces the strategy list by resolving a comma-separated spec
    /// string (e.g. `"hash,r-metis[window=7]"` or `"all"`) against
    /// `registry`. Each run remembers its spec string, so report
    /// lookups accept the requested spelling (aliases included) as well
    /// as the display name.
    pub fn named_strategies(
        mut self,
        registry: &StrategyRegistry,
        specs: &str,
    ) -> Result<Self, StrategyError> {
        self.strategies = Some(
            registry
                .resolve_list_with_sources(specs)?
                .into_iter()
                .map(|(spec, source)| (spec, Some(source)))
                .collect(),
        );
        Ok(self)
    }

    /// Replaces the shard counts.
    pub fn shard_counts(mut self, shard_counts: Vec<ShardCount>) -> Self {
        self.shard_counts = shard_counts;
        self
    }

    /// Applies an adversarial scenario to a generator workload: the
    /// chain is synthesized through the scenario's injectors (once per
    /// run — every strategy × k pair scores the same chain) and the
    /// report carries the scenario's name.
    ///
    /// Requires a generator workload; [`run`](Self::run) panics when a
    /// scenario is configured over a pre-built chain or bare log.
    pub fn scenario(mut self, scenario: Arc<dyn ScenarioSpec>) -> Self {
        self.scenario = Some(scenario);
        self
    }

    /// Resolves `spec` (`name` or `name[key=value;...]`, `+`-composable)
    /// against `registry` and applies it via
    /// [`scenario`](Self::scenario).
    pub fn named_scenario(
        self,
        registry: &ScenarioRegistry,
        spec: &str,
    ) -> Result<Self, StrategyError> {
        Ok(self.scenario(registry.compose(spec)?))
    }

    /// Overrides the measurement window.
    pub fn window(mut self, window: Duration) -> Self {
        self.window = window;
        self
    }

    /// Overrides the seed fed to partitioners and the replay runtime.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables or disables the offline metrics stage (on by default).
    /// The partitioning simulation itself always runs — replay needs its
    /// final assignment — but with `offline(false)` the report omits the
    /// per-window data.
    pub fn offline(mut self, offline: bool) -> Self {
        self.offline = offline;
        self
    }

    /// Enables the 2PC runtime replay stage (off by default).
    ///
    /// Requires a chain workload; [`run`](Self::run) panics on a
    /// log-only experiment with replay enabled.
    pub fn replay(mut self, replay: bool) -> Self {
        self.replay = replay;
        self
    }

    /// Enables the live repartitioning stage (off by default): the
    /// chain's transaction stream is driven through a
    /// [`LiveRunner`] — windowed graph, the strategy's trigger policy,
    /// and real 2PC state migrations — and each run carries the
    /// resulting [`MigrationReport`].
    ///
    /// Requires a chain workload, like [`replay`](Self::replay).
    pub fn live(mut self, live: bool) -> Self {
        self.live = live;
        self
    }

    /// Enables observability tracing (off by default). The report then
    /// carries a merged [`Trace`]: wall-clock stage spans per pair
    /// (`simulate`, `replay`, plus the simulator's `detail`
    /// sub-spans), each replay's deterministic virtual-clock 2PC trace
    /// in its own Perfetto process lane, and a metrics registry scoped
    /// `{strategy}/k{n}/`.
    pub fn trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    /// Overrides the replay's one-way inter-shard network latency (µs)
    /// for every strategy, on top of [`StrategySpec::runtime_config`].
    pub fn net_latency_us(mut self, latency: u64) -> Self {
        self.net_latency_us = Some(latency);
        self
    }

    /// Overrides the replay's offered-load arrival gap (µs) for every
    /// strategy.
    pub fn inter_arrival_us(mut self, gap: u64) -> Self {
        self.inter_arrival_us = Some(gap);
        self
    }

    /// Selects the storage backend (see [`Experiment::storage`]'s field
    /// docs; [`StorageBackend::InMemory`] by default). The CLI threads
    /// `--spill-dir` / `--mem-budget` (or `BLOCKPART_MEM_BUDGET` /
    /// `BLOCKPART_SPILL_DIR`) into this.
    pub fn storage(mut self, backend: StorageBackend) -> Self {
        self.storage = backend;
        self
    }

    /// Runs every strategy × shard-count pair and collects the report.
    ///
    /// # Panics
    ///
    /// Panics if replay is enabled on a log-only workload, or if the
    /// configured strategy or shard-count list is empty (a misconfigured
    /// caller should not silently run nothing).
    pub fn run(self) -> ExperimentReport {
        // One epoch for the whole pipeline so every pair's wall spans
        // line up on a single timeline.
        let epoch = self.trace.then(Instant::now);
        let mut root = match epoch {
            Some(e) => {
                let mut t = Trace::new_at(e);
                t.name_process(0, "experiment pipeline (wall µs)");
                t.name_thread(0, 0, "pipeline");
                t
            }
            None => Trace::disabled(),
        };

        assert!(
            self.scenario.is_none() || matches!(self.workload, WorkloadSource::Generator(_)),
            "a scenario requires a generator workload (use Experiment::from_generator)"
        );
        let generated;
        let streamed;
        let mut session: Option<SpillSession> = None;
        let gen_start = root.now_us();
        // A generator workload whose only consumer is the offline stage
        // can be synthesized straight to disk: the interaction log is
        // never resident. Replay/live need the chain's world and
        // transaction stream, so they keep the resident path (and route
        // state shipping through a spool instead).
        let stream_gen = self.storage.is_spill()
            && self.scenario.is_none()
            && !self.replay
            && !self.live
            && matches!(self.workload, WorkloadSource::Generator(_));
        let (feed, chain): (EventFeed<'_>, Option<&SyntheticChain>) = match &self.workload {
            WorkloadSource::Log(log) => (EventFeed::Resident(log), None),
            WorkloadSource::Chain(chain) => (EventFeed::Resident(&chain.log), Some(chain)),
            WorkloadSource::Generator(config) if stream_gen => {
                let spill_root = self.storage.spill_dir().expect("spill backend has a root");
                let s = SpillSession::create(spill_root).expect("create spill session");
                let mut writer =
                    SegmentStore::writer(s.path().join("events"), DEFAULT_SEGMENT_EVENTS)
                        .expect("open segment writer");
                ChainGenerator::new(config.clone())
                    .generate_into(&mut writer)
                    .expect("stream chain into segment store");
                let store = writer.finish().expect("seal segment store");
                if root.enabled() {
                    let dur = root.now_us() - gen_start;
                    root.record(
                        Record::span(gen_start, dur, "stage", "chain-gen")
                            .with_arg("interactions", store.event_count())
                            .with_arg("segments", store.segment_count()),
                    );
                }
                session = Some(s);
                streamed = store;
                (EventFeed::Store(&streamed), None)
            }
            WorkloadSource::Generator(config) => {
                generated = match &self.scenario {
                    Some(scenario) => scenario.build(config),
                    None => ChainGenerator::new(config.clone()).generate(),
                };
                if root.enabled() {
                    let dur = root.now_us() - gen_start;
                    let mut record = Record::span(gen_start, dur, "stage", "chain-gen")
                        .with_arg("txs", generated.txs.len())
                        .with_arg("interactions", generated.log.len());
                    if let Some(scenario) = &self.scenario {
                        record = record.with_arg("scenario", scenario.name());
                    }
                    root.record(record);
                }
                (EventFeed::Resident(&generated.log), Some(&generated))
            }
        };
        if session.is_none() && self.storage.is_spill() && (self.replay || self.live) {
            let spill_root = self.storage.spill_dir().expect("spill backend has a root");
            session = Some(SpillSession::create(spill_root).expect("create spill session"));
        }
        let spool_root = session.as_ref().map(|s| s.path().to_path_buf());
        assert!(
            !self.replay || chain.is_some(),
            "runtime replay requires a chain workload (use Experiment::over_chain or \
             Experiment::from_generator)"
        );
        assert!(
            !self.live || chain.is_some(),
            "the live stage requires a chain workload (use Experiment::over_chain or \
             Experiment::from_generator)"
        );

        let strategies = match &self.strategies {
            Some(s) => s.clone(),
            None => default_strategies(),
        };
        assert!(
            !strategies.is_empty(),
            "experiment configured with an empty strategy list"
        );
        assert!(
            !self.shard_counts.is_empty(),
            "experiment configured with an empty shard-count list"
        );
        let mut pairs: Vec<(&Arc<dyn StrategySpec>, &Option<String>, ShardCount)> = Vec::new();
        for (spec, requested) in &strategies {
            for &k in &self.shard_counts {
                pairs.push((spec, requested, k));
            }
        }

        // Work-stealing fan-out over a bounded worker set: a replay pair
        // holds a full per-shard copy of the world state, so
        // one-thread-per-pair would multiply peak memory by the pair
        // count on large grids (`BLOCKPART_THREADS` caps the bound, via
        // resolve_workers, for memory-constrained hosts). Each worker
        // owns a local deque seeded round-robin; when it drains (pair
        // costs are wildly uneven — HASH at k=2 versus a METIS replay at
        // k=8) it steals from its peers, so no thread idles while work
        // remains. Results carry their pair index, so the report order —
        // and every number in it — is independent of which thread ran
        // what.
        let workers = blockpart_types::resolve_workers(0).min(pairs.len().max(1));
        let queues: Vec<Worker<usize>> = (0..workers).map(|_| Worker::new_fifo()).collect();
        for (i, _) in pairs.iter().enumerate() {
            queues[i % workers].push(i);
        }
        let stealers: Vec<Stealer<usize>> = queues.iter().map(|q| q.stealer()).collect();
        let (tx, rx) = mpsc::channel::<(usize, ExperimentRun, Option<Trace>)>();
        let this = &self;
        let (feed, spool_root) = (&feed, spool_root.as_deref());
        crossbeam::thread::scope(|scope| {
            for (me, local) in queues.iter().enumerate() {
                let tx = tx.clone();
                let (stealers, pairs) = (&stealers, &pairs);
                scope.spawn(move |_| {
                    while let Some(i) = next_task(local, stealers, me) {
                        let (spec, requested, k) = pairs[i];
                        let (mut run, sub) = this.run_pair(
                            spec.as_ref(),
                            k,
                            feed,
                            chain,
                            spool_root,
                            i as u32,
                            epoch,
                        );
                        run.requested = requested.clone();
                        tx.send((i, run, sub)).expect("collector outlives workers");
                    }
                });
            }
        })
        .expect("experiment worker panicked");
        drop(tx);

        let mut slots: Vec<Option<(ExperimentRun, Option<Trace>)>> = Vec::new();
        slots.resize_with(pairs.len(), || None);
        for (i, run, sub) in rx {
            slots[i] = Some((run, sub));
        }
        let mut runs = Vec::with_capacity(pairs.len());
        for slot in slots {
            let (run, sub) = slot.expect("run completed");
            if let Some(sub) = sub {
                root.merge(sub);
            }
            runs.push(run);
        }
        if let Some(session) = session {
            // a panicking run never reaches this: the session's Drop
            // keeps the directory and logs its path for inspection
            session.finish().expect("remove spill session");
        }
        ExperimentReport {
            seed: self.seed,
            window: self.window,
            scenario: self.scenario.as_ref().map(|s| s.name().to_string()),
            runs,
            trace: self.trace.then_some(root),
        }
    }

    /// One strategy at one shard count: simulate, then optionally replay
    /// the chain on the simulation's final assignment.
    ///
    /// When tracing (`epoch` set), the pair collects its wall spans on
    /// thread lane `pair + 1` of process 0 (lane 0 is the pipeline
    /// itself) and slots the replay's virtual trace into process
    /// `pair + 1`.
    #[allow(clippy::too_many_arguments)]
    fn run_pair(
        &self,
        spec: &dyn StrategySpec,
        k: ShardCount,
        feed: &EventFeed<'_>,
        chain: Option<&SyntheticChain>,
        spool_root: Option<&std::path::Path>,
        pair: u32,
        epoch: Option<Instant>,
    ) -> (ExperimentRun, Option<Trace>) {
        let mut obs = match epoch {
            Some(e) => Trace::new_at(e),
            None => Trace::disabled(),
        };
        let label = format!("{} k={}", spec.name(), k.get());
        let prefix = format!("{}/k{}/", spec.name(), k.get());
        if obs.enabled() {
            obs.set_lane(0, pair + 1);
            obs.name_thread(0, pair + 1, label.clone());
            obs.set_metric_prefix(prefix.clone());
        }

        let config = spec.simulator_config(k).with_window(self.window);
        let mut sim = ShardSimulator::new(config, spec.build_partitioner(self.seed));
        let sim_start = obs.now_us();
        let result = match feed {
            EventFeed::Resident(log) => sim.run_traced(log, &mut obs),
            EventFeed::Store(store) => {
                let rows = store.iter().expect("open segment stream");
                sim.run_stream_traced(rows.map(|r| r.expect("read segment event")), &mut obs)
            }
        };
        if obs.enabled() {
            let dur = obs.now_us() - sim_start;
            obs.record(
                Record::span(sim_start, dur, "stage", "simulate").with_arg("pair", label.clone()),
            );
        }

        let runtime = if self.replay {
            let chain = chain.expect("checked in run()");
            let assignment = Assignment::from_map(sim.into_state().assignment_map(), k);
            let mut cfg = spec.runtime_config(k).with_seed(self.seed);
            cfg.k = k; // the pipeline owns the shard count
            if let Some(latency) = self.net_latency_us {
                cfg = cfg.with_net_latency_us(latency);
            }
            if let Some(gap) = self.inter_arrival_us {
                cfg = cfg.with_inter_arrival_us(gap);
            }
            if let Some(spool) = spool_root {
                cfg = cfg.with_state_spool_dir(spool.join(format!("spool-replay-{pair}")));
            }
            let runtime = ShardedRuntime::new(cfg, assignment);
            if obs.enabled() {
                let replay_start = obs.now_us();
                let (rep, mut virt) = runtime.run_traced(chain.chain.world(), &chain.txs);
                let dur = obs.now_us() - replay_start;
                obs.record(
                    Record::span(replay_start, dur, "stage", "replay")
                        .with_arg("pair", label.clone()),
                );
                virt.retag_process(pair + 1);
                virt.name_process(pair + 1, format!("{label} replay (virtual µs)"));
                virt.prefix_metrics(&prefix);
                obs.merge(virt);
                Some(rep)
            } else {
                Some(runtime.run(chain.chain.world(), &chain.txs))
            }
        } else {
            None
        };
        let live = if self.live {
            let chain = chain.expect("checked in run()");
            let live_start = obs.now_us();
            // the strategy's own trigger/scope settings drive the live
            // loop: retention depth = reduced-graph span in windows
            let sim_cfg = spec.simulator_config(k);
            let depth = (sim_cfg.scope_window.as_secs() / self.window.as_secs()).max(1) as usize;
            let mut runtime_cfg = spec.runtime_config(k).with_seed(self.seed);
            runtime_cfg.k = k;
            if let Some(latency) = self.net_latency_us {
                runtime_cfg = runtime_cfg.with_net_latency_us(latency);
            }
            if let Some(gap) = self.inter_arrival_us {
                runtime_cfg = runtime_cfg.with_inter_arrival_us(gap);
            }
            if let Some(spool) = spool_root {
                runtime_cfg =
                    runtime_cfg.with_state_spool_dir(spool.join(format!("spool-live-{pair}")));
            }
            let cfg = LiveConfig::new(k)
                .with_window(self.window)
                .with_depth(depth)
                .with_policy(sim_cfg.policy)
                .with_runtime(runtime_cfg)
                .with_label(spec.name());
            let mut runner = LiveRunner::new(cfg, spec.build_partitioner(self.seed));
            let report = runner.run(chain.chain.world(), &chain.txs).report;
            if obs.enabled() {
                let dur = obs.now_us() - live_start;
                obs.record(
                    Record::span(live_start, dur, "stage", "live")
                        .with_arg("pair", label.clone())
                        .with_arg("migrations", report.migrations()),
                );
            }
            Some(report)
        } else {
            None
        };
        let run = ExperimentRun {
            strategy: spec.name().to_string(),
            requested: None, // filled in by run() from the pair table
            k,
            offline: self.offline.then_some(result),
            runtime,
            live,
        };
        (run, epoch.map(|_| obs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockpart_graph::Interaction;
    use blockpart_types::{Address, Timestamp};

    fn log() -> InteractionLog {
        let mut log = InteractionLog::new();
        for d in 0..30u64 {
            for h in 0..24 {
                let t = Timestamp::from_secs(d * 86_400 + h * 3_600);
                let i = (d * 24 + h) % 20;
                log.push(Interaction::new(
                    t,
                    Address::from_index(i),
                    Address::from_index((i + 1) % 20),
                ));
            }
        }
        log
    }

    #[test]
    fn offline_experiment_over_log() {
        let log = log();
        let registry = StrategyRegistry::with_builtins();
        let report = Experiment::over_log(&log)
            .named_strategies(&registry, "hash,metis")
            .unwrap()
            .shard_counts(vec![ShardCount::TWO])
            .run();
        assert_eq!(report.runs.len(), 2);
        let hash = report.offline("HASH", ShardCount::TWO).expect("hash ran");
        assert_eq!(hash.total_moves, 0);
        assert!(report.runtime("hash", ShardCount::TWO).is_none());
        assert!(report.offline("kl", ShardCount::TWO).is_none());
        assert_eq!(report.offline_table().len(), 2);
        assert_eq!(report.runtime_table().len(), 0);
    }

    #[test]
    fn parallel_runs_are_deterministic() {
        let log = log();
        let registry = StrategyRegistry::with_builtins();
        let run = || {
            Experiment::over_log(&log)
                .named_strategies(&registry, "kl,metis,tr-metis")
                .unwrap()
                .shard_counts(vec![ShardCount::TWO])
                .seed(42)
                .run()
        };
        let (a, b) = (run(), run());
        for (ra, rb) in a.runs.iter().zip(&b.runs) {
            assert_eq!(ra.strategy, rb.strategy);
            let (sa, sb) = (ra.offline.as_ref().unwrap(), rb.offline.as_ref().unwrap());
            assert_eq!(sa.total_moves, sb.total_moves);
            assert_eq!(sa.windows, sb.windows);
        }
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn json_shape_is_stable() {
        let log = log();
        let registry = StrategyRegistry::with_builtins();
        let report = Experiment::over_log(&log)
            .named_strategies(&registry, "hash")
            .unwrap()
            .shard_counts(vec![ShardCount::TWO])
            .run();
        let json = report.to_json();
        for field in [
            "\"schema\":\"blockpart.experiment/1\"",
            "\"strategy\":\"HASH\"",
            "\"k\":2",
            "\"total_moves\":0",
            "\"mean_dynamic_edge_cut\":",
        ] {
            assert!(json.contains(field), "missing {field} in {json}");
        }
        let pretty = report.to_json_pretty();
        assert!(pretty.contains("\n  \"runs\": ["));
    }

    #[test]
    fn parameterized_spec_strings_round_trip_as_lookup_keys() {
        let log = log();
        let registry = StrategyRegistry::with_builtins();
        let report = Experiment::over_log(&log)
            .named_strategies(&registry, "r-metis[window=7]")
            .unwrap()
            .shard_counts(vec![ShardCount::TWO])
            .run();
        assert_eq!(report.runs[0].strategy, "R-METIS[window=7]");
        for key in [
            "r-metis[window=7]",
            "R_METIS[ window = 7 ]",
            "R-METIS[window=7]",
        ] {
            assert!(report.offline(key, ShardCount::TWO).is_some(), "{key}");
        }
        assert!(report.offline("r-metis", ShardCount::TWO).is_none());
        assert!(report
            .offline("r-metis[window=8]", ShardCount::TWO)
            .is_none());
    }

    #[test]
    fn spill_backend_matches_in_memory_backend() {
        let registry = StrategyRegistry::with_builtins();
        let cfg = GeneratorConfig::test_scale(9).with_scale(0.01);
        let run = |backend: StorageBackend| {
            Experiment::from_generator(cfg.clone())
                .named_strategies(&registry, "hash,ldg")
                .unwrap()
                .shard_counts(vec![ShardCount::TWO])
                .seed(7)
                .storage(backend)
                .run()
        };
        let resident = run(StorageBackend::InMemory);
        let spill_root = std::env::temp_dir().join("blockpart-core-test-spill");
        let spilled = run(StorageBackend::spill(&spill_root, 64 * 1024));
        assert_eq!(resident.to_json(), spilled.to_json());
        // the spill session cleaned up after itself
        let leftovers = std::fs::read_dir(&spill_root)
            .map(|d| d.count())
            .unwrap_or(0);
        assert_eq!(leftovers, 0, "spill session not removed");
        std::fs::remove_dir_all(&spill_root).ok();
    }

    #[test]
    fn spooled_replay_matches_resident_replay() {
        let chain = ChainGenerator::new(GeneratorConfig::test_scale(5)).generate();
        let registry = StrategyRegistry::with_builtins();
        let run = |backend: StorageBackend| {
            Experiment::over_chain(&chain)
                .named_strategies(&registry, "hash")
                .unwrap()
                .shard_counts(vec![ShardCount::TWO])
                .replay(true)
                .storage(backend)
                .run()
        };
        let resident = run(StorageBackend::InMemory);
        let spill_root = std::env::temp_dir().join("blockpart-core-test-spool");
        let spooled = run(StorageBackend::spill(&spill_root, 1 << 20));
        assert_eq!(resident.to_json(), spooled.to_json());
        std::fs::remove_dir_all(&spill_root).ok();
    }

    #[test]
    #[should_panic(expected = "replay requires a chain")]
    fn replay_needs_a_chain() {
        let log = log();
        let _ = Experiment::over_log(&log).replay(true).run();
    }

    #[test]
    #[should_panic(expected = "live stage requires a chain")]
    fn live_needs_a_chain() {
        let log = log();
        let _ = Experiment::over_log(&log).live(true).run();
    }

    #[test]
    fn live_stage_measures_migrations() {
        let chain = ChainGenerator::new(GeneratorConfig::test_scale(5)).generate();
        let registry = StrategyRegistry::with_builtins();
        // a 2-day cadence fires inside the 5-day toy chain; hash never
        // stages a move
        let report = Experiment::over_chain(&chain)
            .named_strategies(&registry, "hash,metis[interval=2]")
            .unwrap()
            .shard_counts(vec![ShardCount::TWO])
            .live(true)
            .run();
        let hash = report.live("hash", ShardCount::TWO).expect("live ran");
        assert_eq!(hash.migrations(), 0);
        let metis = report
            .live("metis[interval=2]", ShardCount::TWO)
            .expect("live ran");
        assert!(metis.migrations() >= 1, "{}", metis.headline());
        assert!(metis.accounts_moved() > 0);
        assert_eq!(report.live_table().len(), 2);
        assert!(report.to_json().contains("\"blockpart.live/1\""));
    }

    #[test]
    fn default_covers_paper_grid() {
        let log = log();
        let e = Experiment::over_log(&log);
        assert!(e.strategies.is_none(), "defaults resolve lazily");
        assert_eq!(e.shard_counts.len(), 3);
        assert_eq!(default_strategies().len(), 5);
        // .strategy() on an unconfigured experiment extends the five
        let e = e.strategy(default_strategies().remove(0).0);
        assert_eq!(e.strategies.as_ref().map(Vec::len), Some(6));
    }

    #[test]
    fn alias_spellings_find_their_runs() {
        let log = log();
        let registry = StrategyRegistry::with_builtins();
        let report = Experiment::over_log(&log)
            .named_strategies(&registry, "p-metis")
            .unwrap()
            .shard_counts(vec![ShardCount::TWO])
            .run();
        assert_eq!(report.runs[0].strategy, "R-METIS");
        // both the requested alias and the display name resolve
        assert!(report.offline("p-metis", ShardCount::TWO).is_some());
        assert!(report.offline("r-metis", ShardCount::TWO).is_some());
    }

    #[test]
    fn scenario_workloads_report_their_name() {
        let registry = StrategyRegistry::with_builtins();
        let scenarios = ScenarioRegistry::with_builtins();
        let cfg = GeneratorConfig::test_scale(5).with_scale(0.005);
        let report = Experiment::from_generator(cfg)
            .named_scenario(&scenarios, "hub-burst[contracts=2]")
            .unwrap()
            .named_strategies(&registry, "hash")
            .unwrap()
            .shard_counts(vec![ShardCount::TWO])
            .run();
        assert_eq!(report.scenario.as_deref(), Some("hub-burst[contracts=2]"));
        assert!(report
            .to_json()
            .contains("\"scenario\":\"hub-burst[contracts=2]\""));
        // without a scenario the field is absent
        let plain = Experiment::over_log(&log())
            .named_strategies(&registry, "hash")
            .unwrap()
            .shard_counts(vec![ShardCount::TWO])
            .run();
        assert_eq!(plain.scenario, None);
        assert!(!plain.to_json().contains("\"scenario\""));
    }

    #[test]
    #[should_panic(expected = "scenario requires a generator workload")]
    fn scenario_needs_a_generator() {
        let chain = ChainGenerator::new(GeneratorConfig::test_scale(5)).generate();
        let scenarios = ScenarioRegistry::with_builtins();
        let _ = Experiment::over_chain(&chain)
            .named_scenario(&scenarios, "friendly")
            .unwrap()
            .run();
    }

    #[test]
    #[should_panic(expected = "empty strategy list")]
    fn empty_strategies_panic_instead_of_running_nothing() {
        let log = log();
        let _ = Experiment::over_log(&log).strategies(Vec::new()).run();
    }

    #[test]
    #[should_panic(expected = "empty shard-count list")]
    fn empty_shard_counts_panic_instead_of_running_nothing() {
        let log = log();
        let _ = Experiment::over_log(&log).shard_counts(Vec::new()).run();
    }
}
