//! The measured-speed harness behind the `perf` binary.
//!
//! Runs a fixed, seeded workload matrix — chain generation → graph build
//! → CSR symmetrization → HASH/METIS/R-METIS partitioning → offline
//! simulation → 2PC replay → live repartitioning — timing every stage
//! with warmup plus repeated trials, and renders the medians as a
//! stable-schema `BENCH.json` document (see [`SCHEMA`]). A committed
//! baseline plus [`compare`] turns the harness into a CI regression
//! gate.
//!
//! The `live` stage times the online repartitioning service end to end
//! (host wall-clock, calibrated like any other stage) and additionally
//! records two virtual-clock quantities from its deterministic report —
//! `live-migration-vclock` (total migration wall-clock inside the
//! simulated timeline) and `live-during-p99-vclock` (worst p99 commit
//! latency while a migration was in flight). Virtual-clock rows are
//! bit-stable for a given seed, so the gate catches behavioral drift in
//! the migration path, not timer noise; [`compare_calibrated`] leaves
//! them unscaled (see [`is_virtual_stage`]).
//!
//! The `graph-build` and `csr` rows time `InteractionLog::graph_of` and
//! `Graph::to_csr`, and the `kway` row the multilevel partitioner's
//! default configuration; all three run on one thread.
//!
//! The `scenario-*` stages score hostile workloads from the
//! [`ScenarioRegistry`] (see
//! [`SCENARIOS`]): generation cost, TR-METIS offline simulation, and —
//! from a single deterministic live run — `scenario-live-migration-vclock`
//! and `scenario-live-during-p99-vclock` rows that gate the migration
//! path's behavior under adversarial traffic, calibration-exempt like
//! every virtual-clock row.
//!
//! Every stage row additionally records [`peak_rss_bytes`], the
//! process's resident high-water mark when the row was pushed.

use std::time::Instant;

use blockpart_core::{ScenarioRegistry, StrategyRegistry};
use blockpart_ethereum::gen::{ChainGenerator, GeneratorConfig};
use blockpart_ethereum::SyntheticChain;
use blockpart_graph::InteractionLog;
use blockpart_live::{LiveConfig, LiveRunner};
use blockpart_metrics::Json;
use blockpart_partition::{kway, MultilevelConfig, PartitionRequest};
use blockpart_runtime::{Assignment, ShardedRuntime};
use blockpart_shard::ShardSimulator;
use blockpart_types::{Duration, ShardCount};

/// Schema identifier stamped into every `BENCH.json`.
pub const SCHEMA: &str = "blockpart.bench/1";

/// The strategies the workload matrix sweeps.
pub const STRATEGIES: [&str; 3] = ["hash", "metis", "r-metis"];

/// The adversarial scenarios scored by the `scenario-*` stages.
pub const SCENARIOS: [&str; 2] = ["hub-burst", "dummy-spam"];

/// The process's peak resident set size in bytes — `VmHWM` from
/// `/proc/self/status` — or `0` on platforms without procfs. The kernel
/// reports a process-lifetime high-water mark, so a stage row records
/// the peak *up to the moment it was pushed*; the `ooc-smoke` CI job,
/// which runs the spilled pipeline in a fresh memory-capped process, is
/// where the out-of-core ceiling becomes a gated number.
pub fn peak_rss_bytes() -> u64 {
    #[cfg(target_os = "linux")]
    {
        let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
            return 0;
        };
        status
            .lines()
            .find_map(|line| line.strip_prefix("VmHWM:"))
            .and_then(|rest| {
                rest.trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<u64>()
                    .ok()
            })
            .map_or(0, |kb| kb * 1024)
    }
    #[cfg(not(target_os = "linux"))]
    {
        0
    }
}

/// Harness configuration: workload scale and timing discipline.
#[derive(Clone, Debug, PartialEq)]
pub struct PerfConfig {
    /// Generator scale (fraction of the full transaction rate), as the
    /// `fig*` binaries' `BLOCKPART_SCALE`.
    pub scale: f64,
    /// Generator and partitioner seed.
    pub seed: u64,
    /// Timed trials per stage; the reported time is their median.
    pub trials: usize,
    /// Untimed warmup runs per stage.
    pub warmup: usize,
    /// Shard counts swept by the per-strategy stages.
    pub shard_counts: Vec<u16>,
    /// Whether this is the reduced CI profile.
    pub quick: bool,
}

impl PerfConfig {
    /// The full profile: fig1-scale workload, five trials.
    pub fn full() -> Self {
        PerfConfig {
            scale: 0.0012,
            seed: 42,
            trials: 5,
            warmup: 1,
            shard_counts: vec![2, 4, 8],
            quick: false,
        }
    }

    /// The `--quick` CI profile: smaller workload, three trials, k = 2.
    pub fn quick() -> Self {
        PerfConfig {
            scale: 0.0004,
            seed: 42,
            trials: 3,
            warmup: 1,
            shard_counts: vec![2],
            quick: true,
        }
    }
}

/// One timed stage of the matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct StageResult {
    /// Stage name (`chain-gen`, `graph-build`, `partition`, …).
    pub stage: String,
    /// Strategy swept, for the per-strategy stages.
    pub strategy: Option<String>,
    /// Shard count swept, for the per-strategy stages.
    pub k: Option<u16>,
    /// Median wall-clock over the timed trials, in milliseconds.
    pub median_ms: f64,
    /// Items processed per second (transactions, interactions or
    /// vertices, depending on the stage), when the stage has a natural
    /// throughput unit.
    pub txs_per_sec: Option<f64>,
    /// Process peak RSS in bytes when the row was recorded
    /// ([`peak_rss_bytes`]; `0` where unavailable). Additive within
    /// schema 1: documents written before the field parse as `0`.
    pub peak_rss_bytes: u64,
}

impl StageResult {
    /// The `(stage, strategy, k)` identity used to match rows across
    /// reports.
    pub fn key(&self) -> String {
        format!(
            "{}/{}/{}",
            self.stage,
            self.strategy.as_deref().unwrap_or("-"),
            self.k.map_or_else(|| "-".to_string(), |k| k.to_string()),
        )
    }
}

/// A completed harness run.
#[derive(Clone, Debug, PartialEq)]
pub struct PerfReport {
    /// The configuration the run used.
    pub config: PerfConfig,
    /// All stage timings, in matrix order.
    pub stages: Vec<StageResult>,
}

impl PerfReport {
    /// Looks up a stage row by identity.
    pub fn find(
        &self,
        stage: &str,
        strategy: Option<&str>,
        k: Option<u16>,
    ) -> Option<&StageResult> {
        self.stages
            .iter()
            .find(|s| s.stage == stage && s.strategy.as_deref() == strategy && s.k == k)
    }

    /// Renders the report as the stable `BENCH.json` document.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::from(SCHEMA)),
            ("seed", Json::from(self.config.seed)),
            ("scale", Json::from(self.config.scale)),
            ("quick", Json::from(self.config.quick)),
            ("trials", Json::from(self.config.trials)),
            ("warmup", Json::from(self.config.warmup)),
            (
                "shard_counts",
                Json::arr(self.config.shard_counts.iter().map(|&k| Json::from(k))),
            ),
            (
                "stages",
                Json::arr(self.stages.iter().map(|s| {
                    Json::obj([
                        ("stage", Json::from(s.stage.as_str())),
                        (
                            "strategy",
                            s.strategy.as_deref().map_or(Json::Null, Json::from),
                        ),
                        ("k", s.k.map_or(Json::Null, Json::from)),
                        ("median_ms", Json::from(s.median_ms)),
                        ("txs_per_sec", s.txs_per_sec.map_or(Json::Null, Json::from)),
                        ("peak_rss_bytes", Json::from(s.peak_rss_bytes)),
                    ])
                })),
            ),
        ])
    }

    /// Parses a `BENCH.json` document produced by [`Self::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or malformed field.
    pub fn from_json(doc: &Json) -> Result<PerfReport, String> {
        let schema = doc
            .get("schema")
            .and_then(Json::as_str)
            .ok_or("missing schema")?;
        if schema != SCHEMA {
            return Err(format!("unsupported schema `{schema}` (want `{SCHEMA}`)"));
        }
        let f64_field = |name: &str| {
            doc.get(name)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("missing {name}"))
        };
        let u64_field = |name: &str| {
            doc.get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing {name}"))
        };
        let shard_counts = doc
            .get("shard_counts")
            .and_then(Json::as_array)
            .ok_or("missing shard_counts")?
            .iter()
            .map(|k| {
                k.as_u64()
                    .and_then(|k| u16::try_from(k).ok())
                    .ok_or("bad shard count".to_string())
            })
            .collect::<Result<Vec<u16>, String>>()?;
        let stages = doc
            .get("stages")
            .and_then(Json::as_array)
            .ok_or("missing stages")?
            .iter()
            .map(|s| {
                Ok(StageResult {
                    stage: s
                        .get("stage")
                        .and_then(Json::as_str)
                        .ok_or("stage row missing name")?
                        .to_string(),
                    strategy: s.get("strategy").and_then(Json::as_str).map(str::to_string),
                    k: s.get("k")
                        .and_then(Json::as_u64)
                        .and_then(|k| u16::try_from(k).ok()),
                    median_ms: s
                        .get("median_ms")
                        .and_then(Json::as_f64)
                        .ok_or("stage row missing median_ms")?,
                    txs_per_sec: s.get("txs_per_sec").and_then(Json::as_f64),
                    peak_rss_bytes: s.get("peak_rss_bytes").and_then(Json::as_u64).unwrap_or(0),
                })
            })
            .collect::<Result<Vec<StageResult>, String>>()?;
        Ok(PerfReport {
            config: PerfConfig {
                scale: f64_field("scale")?,
                seed: u64_field("seed")?,
                trials: u64_field("trials")? as usize,
                warmup: u64_field("warmup")? as usize,
                shard_counts,
                quick: doc
                    .get("quick")
                    .and_then(Json::as_bool)
                    .ok_or("missing quick")?,
            },
            stages,
        })
    }
}

/// One stage regression found by [`compare`].
#[derive(Clone, Debug, PartialEq)]
pub struct Regression {
    /// The stage identity ([`StageResult::key`]).
    pub key: String,
    /// Baseline median, milliseconds.
    pub baseline_ms: f64,
    /// Current median, milliseconds.
    pub current_ms: f64,
    /// `current / baseline` (always `> 1 + tolerance`).
    pub ratio: f64,
}

/// Absolute slack added on top of the relative tolerance when comparing
/// stage medians. Sub-10ms stages jitter by whole milliseconds on busy
/// hosts, which can exceed any reasonable percentage; the floor absorbs
/// that noise while leaving the relative tolerance in charge of every
/// stage large enough to measure reliably.
pub const NOISE_FLOOR_MS: f64 = 15.0;

/// Compares `current` against `baseline`: a stage regresses when its
/// median exceeds the baseline median by more than `tolerance` (`0.25`
/// = 25% slower) plus [`NOISE_FLOOR_MS`]. Returns the regressions plus
/// the baseline stage keys missing from `current` (schema drift also
/// fails the gate).
pub fn compare(
    current: &PerfReport,
    baseline: &PerfReport,
    tolerance: f64,
) -> (Vec<Regression>, Vec<String>) {
    let mut regressions = Vec::new();
    let mut missing = Vec::new();
    for base in &baseline.stages {
        let Some(cur) = current.find(&base.stage, base.strategy.as_deref(), base.k) else {
            missing.push(base.key());
            continue;
        };
        if base.median_ms > 0.0
            && cur.median_ms > base.median_ms * (1.0 + tolerance) + NOISE_FLOOR_MS
        {
            regressions.push(Regression {
                key: base.key(),
                baseline_ms: base.median_ms,
                current_ms: cur.median_ms,
                ratio: cur.median_ms / base.median_ms,
            });
        }
    }
    (regressions, missing)
}

/// One `replay`/`replay-obs` pair breaching the instrumentation
/// overhead gate ([`obs_overhead`]).
#[derive(Clone, Debug, PartialEq)]
pub struct ObsOverhead {
    /// The instrumented stage identity ([`StageResult::key`]).
    pub key: String,
    /// Uninstrumented (`replay`) median, milliseconds.
    pub base_ms: f64,
    /// Instrumented (`replay-obs`) median, milliseconds.
    pub obs_ms: f64,
    /// `obs / base` (always `> 1 + max_overhead`).
    pub ratio: f64,
}

/// Checks the instrumentation overhead gate within a single report:
/// every `replay-obs` row is compared against its uninstrumented
/// `replay` twin (same strategy, same k) and breaches the gate when it
/// exceeds `base * (1 + max_overhead) + NOISE_FLOOR_MS`. The same
/// machine and run produce both rows, so no calibration applies.
/// Returns the breaches plus the keys of `replay-obs` rows with no
/// `replay` twin (an unpaired row also fails the gate).
pub fn obs_overhead(report: &PerfReport, max_overhead: f64) -> (Vec<ObsOverhead>, Vec<String>) {
    let mut breaches = Vec::new();
    let mut unpaired = Vec::new();
    for obs in report.stages.iter().filter(|s| s.stage == "replay-obs") {
        let Some(base) = report.find("replay", obs.strategy.as_deref(), obs.k) else {
            unpaired.push(obs.key());
            continue;
        };
        if base.median_ms > 0.0
            && obs.median_ms > base.median_ms * (1.0 + max_overhead) + NOISE_FLOOR_MS
        {
            breaches.push(ObsOverhead {
                key: obs.key(),
                base_ms: base.median_ms,
                obs_ms: obs.median_ms,
                ratio: obs.median_ms / base.median_ms,
            });
        }
    }
    (breaches, unpaired)
}

/// How far machine-speed calibration may rescale a baseline. A CI
/// runner outside this envelope relative to the baseline machine is a
/// setup problem the gate should surface, not silently normalize away.
pub const CALIBRATION_CLAMP: (f64, f64) = (0.25, 4.0);

/// Whether a stage records deterministic *virtual-clock* time (the
/// runtime's simulated timeline) rather than host wall-clock. Virtual
/// rows are bit-stable for a given seed and config, so machine-speed
/// calibration must not rescale them — a change in their value is a
/// behavioral change, not a slower machine.
pub fn is_virtual_stage(stage: &str) -> bool {
    stage.ends_with("-vclock")
}

/// The relative speed of `current`'s machine versus `baseline`'s,
/// probed by the `chain-gen` stage (single-threaded, deterministic
/// work — a pure CPU-speed measurement, independent of worker counts).
/// `2.0` means the current machine took twice as long. Clamped to
/// [`CALIBRATION_CLAMP`]; `None` when either report lacks the stage.
pub fn calibration_factor(current: &PerfReport, baseline: &PerfReport) -> Option<f64> {
    let cur = current.find("chain-gen", None, None)?;
    let base = baseline.find("chain-gen", None, None)?;
    if base.median_ms <= 0.0 || cur.median_ms <= 0.0 {
        return None;
    }
    Some((cur.median_ms / base.median_ms).clamp(CALIBRATION_CLAMP.0, CALIBRATION_CLAMP.1))
}

/// [`compare`] after rescaling the baseline by [`calibration_factor`],
/// so a committed baseline recorded on different hardware still gates on
/// *relative* pipeline shape rather than absolute wall-clock. Returns
/// the factor used (`1.0` when no probe stage is available) alongside
/// the regressions and missing keys. Within the clamp envelope the probe
/// stage rescales to exactly the current measurement and so never
/// regresses — it is the yardstick, not a gated quantity; outside the
/// envelope it regresses like any other stage, flagging the machine
/// mismatch itself. Virtual-clock stages ([`is_virtual_stage`]) are
/// compared unscaled: their values are machine-independent.
pub fn compare_calibrated(
    current: &PerfReport,
    baseline: &PerfReport,
    tolerance: f64,
) -> (f64, Vec<Regression>, Vec<String>) {
    let factor = calibration_factor(current, baseline).unwrap_or(1.0);
    let scaled = PerfReport {
        config: baseline.config.clone(),
        stages: baseline
            .stages
            .iter()
            .map(|s| StageResult {
                median_ms: if is_virtual_stage(&s.stage) {
                    s.median_ms
                } else {
                    s.median_ms * factor
                },
                txs_per_sec: s.txs_per_sec,
                peak_rss_bytes: s.peak_rss_bytes,
                stage: s.stage.clone(),
                strategy: s.strategy.clone(),
                k: s.k,
            })
            .collect(),
    };
    let (regressions, missing) = compare(current, &scaled, tolerance);
    (factor, regressions, missing)
}

/// Times `f`: `warmup` untimed runs, then `trials` timed runs. Returns
/// the median milliseconds and the last run's output.
pub fn time_stage<R>(warmup: usize, trials: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    for _ in 0..warmup {
        std::hint::black_box(f());
    }
    let trials = trials.max(1);
    let mut samples = Vec::with_capacity(trials);
    let mut last = None;
    for _ in 0..trials {
        let start = Instant::now();
        last = Some(std::hint::black_box(f()));
        samples.push(start.elapsed().as_secs_f64() * 1e3);
    }
    (median(&mut samples), last.expect("at least one trial"))
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let n = samples.len();
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    }
}

fn throughput(items: usize, ms: f64) -> Option<f64> {
    (ms > 0.0).then(|| items as f64 / (ms / 1e3))
}

/// Runs the full workload matrix under `config`, printing one progress
/// line per stage to stderr.
pub fn run(config: &PerfConfig) -> PerfReport {
    let mut stages: Vec<StageResult> = Vec::new();
    let mut push =
        |stage: &str, strategy: Option<&str>, k: Option<u16>, ms: f64, tps: Option<f64>| {
            eprintln!(
                "# perf: {stage}{}{} {ms:.1} ms",
                strategy.map(|s| format!(" {s}")).unwrap_or_default(),
                k.map(|k| format!(" k={k}")).unwrap_or_default(),
            );
            stages.push(StageResult {
                stage: stage.to_string(),
                strategy: strategy.map(str::to_string),
                k,
                median_ms: ms,
                txs_per_sec: tps,
                peak_rss_bytes: peak_rss_bytes(),
            });
        };

    // ---- chain generation ----------------------------------------------
    let gen_config = GeneratorConfig::demo_scale(config.seed).with_scale(config.scale);
    let (ms, chain): (f64, SyntheticChain) = time_stage(config.warmup, config.trials, || {
        ChainGenerator::new(gen_config.clone()).generate()
    });
    push("chain-gen", None, None, ms, throughput(chain.txs.len(), ms));

    // ---- graph build and CSR symmetrization ----------------------------
    let events = chain.log.events();
    let (ms, graph) = time_stage(config.warmup, config.trials, || {
        InteractionLog::graph_of(events)
    });
    push("graph-build", None, None, ms, throughput(events.len(), ms));
    let (ms, csr) = time_stage(config.warmup, config.trials, || graph.to_csr());
    push("csr", None, None, ms, throughput(graph.edge_count(), ms));

    // ---- multilevel coarsen+partition kernel ---------------------------
    let multilevel = MultilevelConfig {
        seed: config.seed,
        ..MultilevelConfig::default()
    };
    for &k in &config.shard_counts {
        let shard_count = ShardCount::new(k).expect("non-zero shard count");
        let (ms, _) = time_stage(config.warmup, config.trials, || {
            kway(&csr, shard_count, &multilevel)
        });
        push(
            "kway",
            Some("metis"),
            Some(k),
            ms,
            throughput(csr.node_count(), ms),
        );
    }

    // ---- per-strategy pipeline stages ----------------------------------
    let registry = StrategyRegistry::with_builtins();
    for name in STRATEGIES {
        let spec = registry.resolve(name).expect("built-in strategy resolves");
        for &k in &config.shard_counts {
            let shard_count = ShardCount::new(k).expect("non-zero shard count");

            let (ms, _) = time_stage(config.warmup, config.trials, || {
                let mut partitioner = spec.build_partitioner(config.seed);
                partitioner.partition(&PartitionRequest::new(&csr, shard_count))
            });
            push(
                "partition",
                Some(name),
                Some(k),
                ms,
                throughput(csr.node_count(), ms),
            );

            let (ms, sim) = time_stage(config.warmup, config.trials, || {
                let mut sim = ShardSimulator::new(
                    spec.simulator_config(shard_count),
                    spec.build_partitioner(config.seed),
                );
                sim.run(&chain.log);
                sim
            });
            push(
                "simulate",
                Some(name),
                Some(k),
                ms,
                throughput(chain.log.len(), ms),
            );

            let assignment = Assignment::from_map(sim.into_state().assignment_map(), shard_count);
            let mut runtime_config = spec.runtime_config(shard_count).with_seed(config.seed);
            runtime_config.k = shard_count;
            let runtime = ShardedRuntime::new(runtime_config, assignment);
            let (ms, _) = time_stage(config.warmup, config.trials, || {
                runtime.run(chain.chain.world(), &chain.txs)
            });
            push(
                "replay",
                Some(name),
                Some(k),
                ms,
                throughput(chain.txs.len(), ms),
            );

            // The instrumented twin of the row above: same runtime, same
            // workload, with the always-on observability mode collecting
            // per-shard counters and latency histograms (the O(events)
            // record stream of `--trace` stays opt-in and is not part of
            // the ≤5% envelope). The `replay`/`replay-obs` pair feeds
            // the overhead gate (`obs_overhead`).
            let (ms, _) = time_stage(config.warmup, config.trials, || {
                runtime.run_metered(chain.chain.world(), &chain.txs)
            });
            push(
                "replay-obs",
                Some(name),
                Some(k),
                ms,
                throughput(chain.txs.len(), ms),
            );
        }
    }

    // ---- live repartitioning service -----------------------------------
    // The online path: windowed graph, threshold trigger, staged state
    // migration through the 2PC runtime. Timed end to end, plus the
    // deterministic virtual-clock quantities from the migration report.
    let live_spec = registry
        .resolve("tr-metis")
        .expect("built-in strategy resolves");
    for &k in &config.shard_counts {
        let shard_count = ShardCount::new(k).expect("non-zero shard count");
        let mut runtime_config = live_spec.runtime_config(shard_count).with_seed(config.seed);
        runtime_config.k = shard_count;
        let live_config = LiveConfig::for_strategy(
            &live_spec.simulator_config(shard_count),
            Duration::hours(4),
            runtime_config,
        )
        .with_label("tr-metis");
        let (ms, live) = time_stage(config.warmup, config.trials, || {
            LiveRunner::new(
                live_config.clone(),
                live_spec.build_partitioner(config.seed),
            )
            .run(chain.chain.world(), &chain.txs)
        });
        push(
            "live",
            Some("tr-metis"),
            Some(k),
            ms,
            throughput(chain.txs.len(), ms),
        );
        push(
            "live-migration-vclock",
            Some("tr-metis"),
            Some(k),
            live.report.migration_wall_us() as f64 / 1e3,
            None,
        );
        push(
            "live-during-p99-vclock",
            Some("tr-metis"),
            Some(k),
            live.report.worst_during_p99_us() as f64 / 1e3,
            None,
        );
    }

    // ---- adversarial scenarios -----------------------------------------
    // Hostile workloads from the scenario registry, scored at the
    // smallest configured shard count: generation cost, TR-METIS offline
    // simulation, and the deterministic virtual-clock quantities of one
    // live run (a single run suffices — the report is bit-stable).
    let scenarios = ScenarioRegistry::with_builtins();
    let k0 = *config
        .shard_counts
        .first()
        .expect("at least one shard count");
    let scenario_k = ShardCount::new(k0).expect("non-zero shard count");
    for name in SCENARIOS {
        let scenario = scenarios.resolve(name).expect("built-in scenario resolves");
        let (ms, hostile) =
            time_stage(config.warmup, config.trials, || scenario.build(&gen_config));
        push(
            "scenario-gen",
            Some(name),
            None,
            ms,
            throughput(hostile.txs.len(), ms),
        );

        let (ms, _) = time_stage(config.warmup, config.trials, || {
            let mut sim = ShardSimulator::new(
                live_spec.simulator_config(scenario_k),
                live_spec.build_partitioner(config.seed),
            );
            sim.run(&hostile.log);
            sim
        });
        push(
            "scenario-sim",
            Some(name),
            Some(k0),
            ms,
            throughput(hostile.log.len(), ms),
        );

        let mut runtime_config = live_spec.runtime_config(scenario_k).with_seed(config.seed);
        runtime_config.k = scenario_k;
        let live_config = LiveConfig::for_strategy(
            &live_spec.simulator_config(scenario_k),
            Duration::hours(4),
            runtime_config,
        )
        .with_label("tr-metis");
        let (_, live) = time_stage(0, 1, || {
            LiveRunner::new(
                live_config.clone(),
                live_spec.build_partitioner(config.seed),
            )
            .run(hostile.chain.world(), &hostile.txs)
        });
        push(
            "scenario-live-migration-vclock",
            Some(name),
            Some(k0),
            live.report.migration_wall_us() as f64 / 1e3,
            None,
        );
        push(
            "scenario-live-during-p99-vclock",
            Some(name),
            Some(k0),
            live.report.worst_during_p99_us() as f64 / 1e3,
            None,
        );
    }

    PerfReport {
        config: config.clone(),
        stages,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report_with(stages: Vec<StageResult>) -> PerfReport {
        PerfReport {
            config: PerfConfig::quick(),
            stages,
        }
    }

    fn stage(stage: &str, strategy: Option<&str>, k: Option<u16>, ms: f64) -> StageResult {
        StageResult {
            stage: stage.to_string(),
            strategy: strategy.map(str::to_string),
            k,
            median_ms: ms,
            txs_per_sec: Some(100.0),
            peak_rss_bytes: 0,
        }
    }

    #[test]
    fn json_roundtrip_preserves_report() {
        let report = report_with(vec![
            stage("chain-gen", None, None, 12.5),
            stage("partition", Some("metis"), Some(4), 3.25),
        ]);
        let rendered = report.to_json().render_pretty();
        let parsed = PerfReport::from_json(&Json::parse(&rendered).unwrap()).unwrap();
        assert_eq!(parsed, report);
    }

    #[test]
    fn schema_fields_are_stable() {
        let json = report_with(vec![stage("csr", None, None, 1.0)])
            .to_json()
            .render();
        for field in [
            "\"schema\":\"blockpart.bench/1\"",
            "\"seed\":42",
            "\"stages\":[",
            "\"stage\":\"csr\"",
            "\"strategy\":null",
            "\"k\":null",
            "\"median_ms\":1.0",
            "\"txs_per_sec\":100.0",
            "\"peak_rss_bytes\":0",
        ] {
            assert!(json.contains(field), "missing {field} in {json}");
        }
    }

    #[test]
    fn peak_rss_is_reported_on_linux() {
        let rss = peak_rss_bytes();
        if cfg!(target_os = "linux") {
            assert!(rss > 0, "VmHWM should be readable on linux");
        } else {
            assert_eq!(rss, 0);
        }
    }

    #[test]
    fn documents_without_peak_rss_parse_as_zero() {
        // peak_rss_bytes is additive within schema 1: a baseline written
        // before the field must still parse, with the field defaulting
        let mut report = report_with(vec![stage("csr", None, None, 1.0)]);
        report.stages[0].peak_rss_bytes = 4096;
        let stripped = report
            .to_json()
            .render()
            .replace(",\"peak_rss_bytes\":4096", "");
        let parsed = PerfReport::from_json(&Json::parse(&stripped).unwrap()).unwrap();
        assert_eq!(parsed.stages[0].peak_rss_bytes, 0);
    }

    #[test]
    fn documents_with_a_workers_header_still_parse() {
        // older schema-1 documents carry a `workers` header, which
        // parsing ignores like any other unknown field
        let report = report_with(vec![stage("csr", None, None, 1.0)]);
        let rendered = report.to_json().render();
        let older = rendered.replacen("\"warmup\":1,", "\"warmup\":1,\"workers\":2,", 1);
        assert_ne!(older, rendered);
        let parsed = PerfReport::from_json(&Json::parse(&older).unwrap()).unwrap();
        assert_eq!(parsed, report);
    }

    #[test]
    fn rejects_wrong_schema() {
        let doc = Json::parse(r#"{"schema": "other/9"}"#).unwrap();
        assert!(PerfReport::from_json(&doc).is_err());
    }

    #[test]
    fn compare_flags_regressions_and_missing() {
        let baseline = report_with(vec![
            stage("chain-gen", None, None, 100.0),
            stage("simulate", Some("hash"), Some(2), 50.0),
            stage("replay", Some("hash"), Some(2), 80.0),
        ]);
        let current = report_with(vec![
            stage("chain-gen", None, None, 110.0),          // +10%: fine
            stage("simulate", Some("hash"), Some(2), 90.0), // +80%: regression
        ]);
        let (regressions, missing) = compare(&current, &baseline, 0.25);
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].key, "simulate/hash/2");
        assert!((regressions[0].ratio - 1.8).abs() < 1e-9);
        assert_eq!(missing, vec!["replay/hash/2".to_string()]);
    }

    #[test]
    fn compare_tolerance_boundary() {
        // threshold = baseline * 1.25 + NOISE_FLOOR_MS = 125 + 15 = 140
        let baseline = report_with(vec![stage("csr", None, None, 100.0)]);
        let ok = report_with(vec![stage("csr", None, None, 139.9)]);
        let bad = report_with(vec![stage("csr", None, None, 140.1)]);
        assert!(compare(&ok, &baseline, 0.25).0.is_empty());
        assert_eq!(compare(&bad, &baseline, 0.25).0.len(), 1);
    }

    #[test]
    fn calibration_rescales_cross_machine_baselines() {
        // baseline machine is 2x faster across the board: no regression
        let baseline = report_with(vec![
            stage("chain-gen", None, None, 100.0),
            stage("simulate", Some("metis"), Some(2), 1000.0),
        ]);
        let slower_machine = report_with(vec![
            stage("chain-gen", None, None, 200.0),
            stage("simulate", Some("metis"), Some(2), 2000.0),
        ]);
        let (factor, regressions, missing) = compare_calibrated(&slower_machine, &baseline, 0.25);
        assert!((factor - 2.0).abs() < 1e-9);
        assert!(regressions.is_empty(), "{regressions:?}");
        assert!(missing.is_empty());

        // same machine speed, but the simulate stage genuinely blew up
        let regressed = report_with(vec![
            stage("chain-gen", None, None, 200.0),
            stage("simulate", Some("metis"), Some(2), 3000.0),
        ]);
        let (_, regressions, _) = compare_calibrated(&regressed, &baseline, 0.25);
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].key, "simulate/metis/2");
    }

    #[test]
    fn calibration_leaves_virtual_clock_stages_unscaled() {
        // baseline machine is 2x faster, but the virtual-clock row is
        // machine-independent: rescaling it by 0.5 would flag the
        // unchanged deterministic value as a 2x regression
        let baseline = report_with(vec![
            stage("chain-gen", None, None, 200.0),
            stage("live-migration-vclock", Some("tr-metis"), Some(2), 500.0),
        ]);
        let current = report_with(vec![
            stage("chain-gen", None, None, 100.0),
            stage("live-migration-vclock", Some("tr-metis"), Some(2), 500.0),
        ]);
        let (factor, regressions, missing) = compare_calibrated(&current, &baseline, 0.25);
        assert!((factor - 0.5).abs() < 1e-9);
        assert!(regressions.is_empty(), "{regressions:?}");
        assert!(missing.is_empty());

        // a genuine behavioral drift in the virtual quantity still gates
        let drifted = report_with(vec![
            stage("chain-gen", None, None, 100.0),
            stage("live-migration-vclock", Some("tr-metis"), Some(2), 900.0),
        ]);
        let (_, regressions, _) = compare_calibrated(&drifted, &baseline, 0.25);
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].key, "live-migration-vclock/tr-metis/2");
    }

    #[test]
    fn calibration_factor_is_clamped() {
        let baseline = report_with(vec![stage("chain-gen", None, None, 100.0)]);
        let wild = report_with(vec![stage("chain-gen", None, None, 10_000.0)]);
        assert_eq!(calibration_factor(&wild, &baseline), Some(4.0));
        let none = report_with(vec![stage("csr", None, None, 1.0)]);
        assert_eq!(calibration_factor(&none, &baseline), None);
    }

    #[test]
    fn compare_noise_floor_absorbs_tiny_stage_jitter() {
        // a 9 ms stage jumping 30% (2.7 ms) is timer noise, not a
        // regression — the absolute floor must absorb it
        let baseline = report_with(vec![stage("csr", None, None, 9.0)]);
        let noisy = report_with(vec![stage("csr", None, None, 11.7)]);
        assert!(compare(&noisy, &baseline, 0.25).0.is_empty());
        // but a genuine blow-up on a tiny stage still fails
        let blown = report_with(vec![stage("csr", None, None, 40.0)]);
        assert_eq!(compare(&blown, &baseline, 0.25).0.len(), 1);
    }

    #[test]
    fn obs_overhead_gates_replay_pairs() {
        // 500 ms base: threshold = 500 * 1.05 + 15 = 540 ms
        let report = report_with(vec![
            stage("replay", Some("hash"), Some(2), 500.0),
            stage("replay-obs", Some("hash"), Some(2), 539.0), // fine
            stage("replay", Some("metis"), Some(2), 500.0),
            stage("replay-obs", Some("metis"), Some(2), 600.0), // breach
            stage("replay-obs", Some("metis"), Some(4), 10.0),  // no twin
        ]);
        let (breaches, unpaired) = obs_overhead(&report, 0.05);
        assert_eq!(breaches.len(), 1);
        assert_eq!(breaches[0].key, "replay-obs/metis/2");
        assert!((breaches[0].ratio - 1.2).abs() < 1e-9);
        assert_eq!(unpaired, vec!["replay-obs/metis/4".to_string()]);
    }

    #[test]
    fn obs_overhead_noise_floor_absorbs_tiny_replays() {
        // 10 ms replays jitter by milliseconds; a 2x swing at this size
        // is noise, which the absolute floor must absorb
        let report = report_with(vec![
            stage("replay", Some("hash"), Some(2), 10.0),
            stage("replay-obs", Some("hash"), Some(2), 20.0),
        ]);
        assert!(obs_overhead(&report, 0.05).0.is_empty());
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn time_stage_reports_positive_median() {
        let (ms, out) = time_stage(1, 3, || std::hint::black_box((0..10_000u64).sum::<u64>()));
        assert!(ms >= 0.0);
        assert_eq!(out, (0..10_000u64).sum::<u64>());
    }
}
