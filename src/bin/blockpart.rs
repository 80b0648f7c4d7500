//! `blockpart` — command-line front end for the partitioning study.
//!
//! ```text
//! blockpart generate --scale 0.001 --seed 42 --out trace.txt
//! blockpart study    --scale 0.001 --seed 42 --strategies hash,metis --shards 2,8
//! blockpart study    --strategies "r-metis[window=7],tr-metis[cut=0.4]" --json
//! blockpart offline  --scale 0.001 --shards 2     # streaming vs multilevel
//! blockpart runtime  --scale 0.001 --shards 1,2,4 # 2PC execution replay
//! blockpart runtime  --trace out.json --metrics metrics.txt
//! blockpart live     --strategy tr-metis --k 4    # online repartitioning
//! blockpart live     --strategy tr-metis --k 4 --json --trace live.json
//! blockpart profile  --scale 0.001 --shards 2,4   # stage → time self-profile
//! blockpart study    --scenario "hub-burst[contracts=3]" --strategy tr-metis
//! blockpart live     --scenario phase-shift        # hostile workload, live
//! blockpart list-strategies
//! blockpart list-scenarios
//! blockpart help
//! ```
//!
//! Strategy names are resolved through the
//! [`StrategyRegistry`](blockpart::core::StrategyRegistry): the built-ins
//! plus anything a spec string parameterizes (`name[key=value;...]`).
//! Adversarial workloads resolve the same way through the
//! [`ScenarioRegistry`](blockpart::core::ScenarioRegistry) (`--scenario`),
//! and `+` composes scenarios: `hub-burst[contracts=2]+dummy-spam`.

use std::collections::HashMap;
use std::fs::File;
use std::io::BufWriter;
use std::process::ExitCode;

use std::sync::Arc;

use blockpart::core::ablation::{offline_partitioner_comparison, offline_table};
use blockpart::core::{
    run_profile, Experiment, ExperimentReport, ScenarioRegistry, ScenarioSpec, StrategyRegistry,
};
use blockpart::ethereum::gen::{ChainGenerator, GeneratorConfig};
use blockpart::graph::io::write_trace;
use blockpart::live::{LiveConfig, LiveRunner};
use blockpart::obs::perfetto;
use blockpart::storage::{SegmentStore, DEFAULT_SEGMENT_EVENTS};
use blockpart::types::{parse_mem_budget, Duration, ShardCount, SpillSession, StorageBackend};

const USAGE: &str = "\
blockpart — blockchain-graph sharding study (Fynn & Pedone, DSN 2018)

USAGE:
    blockpart <command> [--key value ...]

COMMANDS:
    generate   synthesize a 30-month chain and write its trace
               --scale <f64>   fraction of the full chain's rate, in
                               (0, 1]                (default 0.0012)
               --seed <u64>    generator seed        (default 42)
               --out <path>    trace file            (default trace.txt)
               --scenario <s>  overlay an adversarial workload scenario,
                               `name[key=value;...]`, `+` composes
                               (default none: the friendly chain)
               --mem-budget <size>  spill to disk under this budget
                               (e.g. 512m, 2g): the chain streams
                               block-by-block through an on-disk segment
                               store, never holding the full log
                               (default: BLOCKPART_MEM_BUDGET, else
                               everything resident)
               --spill-dir <path>   spill root (default:
                               BLOCKPART_SPILL_DIR, else system temp)
    study      run partitioning strategies over a synthetic chain
               --scale, --seed, --scenario as above
               --mem-budget, --spill-dir as above (the offline stage then
               streams the workload from disk segments)
               --strategies <s,..>  strategy specs, `all` for the paper's
                                    five; parameterize with
                                    name[key=value;...]   (default all)
               --shards <k,..>      shard counts          (default 2,4,8)
               --json               machine-readable ExperimentReport
               --trace <path>       write a Chrome/Perfetto trace_event
                                    JSON of the run
               --metrics <path>     write a flat metrics text dump
    offline    one-shot partitioner comparison on the final graph
               --scale, --seed as above
               --shards <k>     single shard count     (default 2)
    runtime    execute the chain on each strategy's assignment through the
               sharded 2PC runtime and report coordination costs
               --scale, --seed, --scenario as above
               --mem-budget, --spill-dir as above (2PC state shipping then
               serializes through an on-disk account-state spool)
               --strategies <s,..>  (default hash,metis)
               --shards <k,..>   shard counts           (default 1,2,4)
               --latency-us <n>  one-way net latency    (default 1000)
               --arrival-us <n>  arrival gap / offered load (default 500)
               --json            machine-readable ExperimentReport
               --trace <path>    Perfetto trace_event JSON (the replay's
                                 virtual-clock slice is deterministic)
               --metrics <path>  flat metrics text dump
    live       drive the chain's transaction stream through the online
               repartitioning service: windowed decaying graph, the
               strategy's trigger policy, and real 2PC state migrations,
               starting from hash placement
               --scale, --seed, --scenario as above
               --mem-budget, --spill-dir as above (migration batches then
               serialize through the on-disk spool)
               --strategy <s>    partitioner/trigger strategy spec
                                                      (default tr-metis)
               --k <n>           shard count           (default 4)
               --window-hours <n> measurement window   (default 4)
               --latency-us <n>  one-way net latency   (default 1000)
               --arrival-us <n>  arrival gap / offered load (default 500)
               --json            machine-readable MigrationReport
               --trace <path>    Perfetto trace_event JSON of the live
                                 session (virtual-clock, deterministic)
    profile    self-profile the serial pipeline (chain-gen → graph-build →
               csr → partition → simulate → replay) and print the
               stage → time table
               --scale, --seed as above
               --strategies <s,..>  (default hash,metis)
               --shards <k,..>   shard counts           (default 2,4)
               --no-replay       skip the 2PC replay stage
               --no-obs          run uninstrumented, print wall time only
                                 (for overhead comparison)
               --trace <path>    Perfetto trace_event JSON of the profile
               --metrics <path>  flat metrics text dump
    list-strategies
               print the registered strategies and their parameters
    list-scenarios
               print the registered adversarial scenarios and their
               parameters
    help       print this message

`--methods` and `--strategy` are accepted as aliases of `--strategies`.
";

/// Options that are flags (no value follows them).
const FLAG_OPTIONS: &[&str] = &["json", "no-obs", "no-replay"];

fn main() -> ExitCode {
    let registry = StrategyRegistry::with_builtins();
    let scenarios = ScenarioRegistry::with_builtins();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&registry, &scenarios, &args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{USAGE}");
            eprintln!("STRATEGIES:\n{}", registry.help_table().render_ascii());
            eprintln!("SCENARIOS:\n{}", scenarios.help_table().render_ascii());
            ExitCode::FAILURE
        }
    }
}

fn run(
    registry: &StrategyRegistry,
    scenarios: &ScenarioRegistry,
    args: &[String],
) -> Result<(), String> {
    let Some(command) = args.first() else {
        return Err("missing command".into());
    };
    let opts = parse_options(&args[1..])?;
    match command.as_str() {
        "generate" => {
            ensure_known_options(
                &opts,
                "generate",
                &[
                    "scale",
                    "seed",
                    "out",
                    "scenario",
                    "mem-budget",
                    "spill-dir",
                ],
            )?;
            cmd_generate(scenarios, &opts)
        }
        "study" => {
            ensure_known_options(
                &opts,
                "study",
                &[
                    "scale",
                    "seed",
                    "scenario",
                    "strategies",
                    "methods",
                    "strategy",
                    "shards",
                    "json",
                    "trace",
                    "metrics",
                    "mem-budget",
                    "spill-dir",
                ],
            )?;
            cmd_study(registry, scenarios, &opts)
        }
        "offline" => {
            ensure_known_options(&opts, "offline", &["scale", "seed", "shards"])?;
            cmd_offline(&opts)
        }
        "runtime" => {
            ensure_known_options(
                &opts,
                "runtime",
                &[
                    "scale",
                    "seed",
                    "scenario",
                    "strategies",
                    "methods",
                    "strategy",
                    "shards",
                    "latency-us",
                    "arrival-us",
                    "json",
                    "trace",
                    "metrics",
                    "mem-budget",
                    "spill-dir",
                ],
            )?;
            cmd_runtime(registry, scenarios, &opts)
        }
        "live" => {
            ensure_known_options(
                &opts,
                "live",
                &[
                    "scale",
                    "seed",
                    "scenario",
                    "strategy",
                    "k",
                    "shards",
                    "window-hours",
                    "latency-us",
                    "arrival-us",
                    "json",
                    "trace",
                    "mem-budget",
                    "spill-dir",
                ],
            )?;
            cmd_live(registry, scenarios, &opts)
        }
        "profile" => {
            ensure_known_options(
                &opts,
                "profile",
                &[
                    "scale",
                    "seed",
                    "strategies",
                    "methods",
                    "shards",
                    "no-replay",
                    "no-obs",
                    "trace",
                    "metrics",
                ],
            )?;
            cmd_profile(registry, &opts)
        }
        "list-strategies" => {
            ensure_known_options(&opts, "list-strategies", &[])?;
            println!("{}", registry.help_table().render_ascii());
            Ok(())
        }
        "list-scenarios" => {
            ensure_known_options(&opts, "list-scenarios", &[])?;
            println!("{}", scenarios.help_table().render_ascii());
            Ok(())
        }
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            println!("STRATEGIES:\n{}", registry.help_table().render_ascii());
            println!("SCENARIOS:\n{}", scenarios.help_table().render_ascii());
            Ok(())
        }
        other => Err(format!("unknown command `{other}`")),
    }
}

/// Parses `--key value` pairs (and bare `--flag` options).
fn parse_options(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut opts = HashMap::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let Some(name) = key.strip_prefix("--") else {
            return Err(format!("expected --option, found `{key}`"));
        };
        if FLAG_OPTIONS.contains(&name) {
            opts.insert(name.to_string(), "true".to_string());
            continue;
        }
        let Some(value) = it.next() else {
            return Err(format!("--{name} requires a value"));
        };
        opts.insert(name.to_string(), value.clone());
    }
    Ok(opts)
}

/// Rejects options the subcommand does not understand, naming the
/// offending token.
fn ensure_known_options(
    opts: &HashMap<String, String>,
    command: &str,
    allowed: &[&str],
) -> Result<(), String> {
    let mut unknown: Vec<&str> = opts
        .keys()
        .map(String::as_str)
        .filter(|k| !allowed.contains(k))
        .collect();
    unknown.sort_unstable();
    match unknown.first() {
        None => Ok(()),
        Some(token) => Err(format!(
            "unknown option `--{token}` for `{command}` (accepted: {})",
            if allowed.is_empty() {
                "none".to_string()
            } else {
                allowed
                    .iter()
                    .map(|o| format!("--{o}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            }
        )),
    }
}

/// `--scale`: a fraction of the full chain's transaction rate, so in
/// (0, 1]. Larger values would size the generator's allocations past
/// what any machine holds.
fn scale_of(opts: &HashMap<String, String>) -> Result<f64, String> {
    match opts.get("scale") {
        None => Ok(0.0012),
        Some(s) => s
            .parse::<f64>()
            .ok()
            .filter(|&v| v > 0.0 && v <= 1.0)
            .ok_or_else(|| format!("invalid --scale `{s}`")),
    }
}

fn seed_of(opts: &HashMap<String, String>) -> Result<u64, String> {
    match opts.get("seed") {
        None => Ok(42),
        Some(s) => s.parse().map_err(|_| format!("invalid --seed `{s}`")),
    }
}

fn json_of(opts: &HashMap<String, String>) -> bool {
    opts.contains_key("json")
}

/// The strategy spec string: `--strategies`, its `--methods` and
/// `--strategy` aliases, or the given default. Passing more than one of
/// the flags is an error — silently preferring one would drop the
/// other's strategies.
fn strategy_spec_of<'a>(
    opts: &'a HashMap<String, String>,
    default: &'a str,
) -> Result<&'a str, String> {
    let given: Vec<(&str, &'a String)> = ["strategies", "methods", "strategy"]
        .iter()
        .filter_map(|&flag| opts.get(flag).map(|v| (flag, v)))
        .collect();
    match given.as_slice() {
        [] => Ok(default),
        [(_, value)] => Ok(value),
        many => {
            let flags: Vec<String> = many.iter().map(|(flag, _)| format!("--{flag}")).collect();
            Err(format!(
                "{} given; use one (--methods and --strategy are aliases of --strategies)",
                flags.join(" and ")
            ))
        }
    }
}

fn shards_of(opts: &HashMap<String, String>, default: &[u16]) -> Result<Vec<ShardCount>, String> {
    let spec = match opts.get("shards") {
        None => {
            return default
                .iter()
                .map(|&k| ShardCount::new(k).ok_or_else(|| "zero shard count".to_string()))
                .collect()
        }
        Some(s) => s,
    };
    spec.split(',')
        .map(|s| {
            s.trim()
                .parse::<u16>()
                .ok()
                .and_then(ShardCount::new)
                .ok_or_else(|| format!("invalid shard count `{s}`"))
        })
        .collect()
}

/// Resolves the storage backend from `--mem-budget` / `--spill-dir`,
/// falling back to `BLOCKPART_MEM_BUDGET` / `BLOCKPART_SPILL_DIR`
/// ([`StorageBackend::from_env`]). `--spill-dir` without any budget is an
/// error — a root with nothing to spill is a misconfiguration.
fn storage_of(opts: &HashMap<String, String>) -> Result<StorageBackend, String> {
    let budget = match opts.get("mem-budget") {
        None => None,
        Some(s) => Some(parse_mem_budget(s).ok_or_else(|| format!("invalid --mem-budget `{s}`"))?),
    };
    let dir = opts.get("spill-dir").map(std::path::PathBuf::from);
    match (budget, dir) {
        (Some(budget), dir) => {
            let root = dir
                .or_else(|| std::env::var_os(blockpart::types::SPILL_DIR_ENV).map(Into::into))
                .unwrap_or_else(std::env::temp_dir);
            Ok(StorageBackend::spill(root, budget))
        }
        (None, Some(dir)) => match StorageBackend::from_env() {
            StorageBackend::Spill {
                mem_budget_bytes, ..
            } => Ok(StorageBackend::spill(dir, mem_budget_bytes)),
            StorageBackend::InMemory => {
                Err("--spill-dir requires --mem-budget (or BLOCKPART_MEM_BUDGET)".into())
            }
        },
        (None, None) => Ok(StorageBackend::from_env()),
    }
}

/// Resolves `--scenario` (a `name[key=value;...]` spec, `+`-composable)
/// through the scenario registry; `None` means the friendly chain.
fn scenario_of(
    scenarios: &ScenarioRegistry,
    opts: &HashMap<String, String>,
) -> Result<Option<Arc<dyn ScenarioSpec>>, String> {
    match opts.get("scenario") {
        None => Ok(None),
        Some(spec) => scenarios.compose(spec).map(Some).map_err(|e| e.to_string()),
    }
}

fn generate(
    opts: &HashMap<String, String>,
    scenario: Option<&Arc<dyn ScenarioSpec>>,
) -> Result<blockpart::ethereum::SyntheticChain, String> {
    let scale = scale_of(opts)?;
    let seed = seed_of(opts)?;
    match scenario {
        Some(s) => eprintln!(
            "generating 30-month history (scale {scale}, seed {seed}, scenario {})...",
            s.name()
        ),
        None => eprintln!("generating 30-month history (scale {scale}, seed {seed})..."),
    }
    let config = GeneratorConfig::demo_scale(seed).with_scale(scale);
    let chain = match scenario {
        Some(s) => s.build(&config),
        None => ChainGenerator::new(config).generate(),
    };
    eprintln!(
        "  {} transactions, {} interactions, {} contracts",
        chain.chain.tx_count(),
        chain.log.len(),
        chain.chain.world().contract_count()
    );
    Ok(chain)
}

fn cmd_generate(
    scenarios: &ScenarioRegistry,
    opts: &HashMap<String, String>,
) -> Result<(), String> {
    let scenario = scenario_of(scenarios, opts)?;
    let storage = storage_of(opts)?;
    let default_out = "trace.txt".to_string();
    let out = opts.get("out").unwrap_or(&default_out);
    let file = File::create(out).map_err(|e| format!("cannot create {out}: {e}"))?;
    // Scenario injectors need the resident chain; the plain generator can
    // stream block-by-block through an on-disk segment store, so the full
    // log is never in memory.
    if storage.is_spill() && scenario.is_none() {
        let scale = scale_of(opts)?;
        let seed = seed_of(opts)?;
        eprintln!("generating 30-month history (scale {scale}, seed {seed}, {storage})...");
        let root = storage.spill_dir().expect("spill backend has a root");
        let session = SpillSession::create(root).map_err(|e| format!("spill session: {e}"))?;
        let io = |e| format!("segment store: {e}");
        let mut writer =
            SegmentStore::writer(session.path().join("events"), DEFAULT_SEGMENT_EVENTS)
                .map_err(io)?;
        let config = GeneratorConfig::demo_scale(seed).with_scale(scale);
        ChainGenerator::new(config)
            .generate_into(&mut writer)
            .map_err(io)?;
        let store = writer.finish().map_err(io)?;
        eprintln!(
            "  {} interactions across {} segments",
            store.event_count(),
            store.segment_count()
        );
        let events = store
            .iter()
            .map_err(io)?
            .map(|r| r.expect("re-read freshly written segment"));
        blockpart::graph::io::write_trace_events(BufWriter::new(file), events)
            .map_err(|e| format!("write failed: {e}"))?;
        session
            .finish()
            .map_err(|e| format!("spill cleanup: {e}"))?;
    } else {
        let chain = generate(opts, scenario.as_ref())?;
        write_trace(BufWriter::new(file), &chain.log).map_err(|e| format!("write failed: {e}"))?;
    }
    eprintln!("wrote {out}");
    Ok(())
}

fn write_text(path: &str, content: &str) -> Result<(), String> {
    std::fs::write(path, content).map_err(|e| format!("cannot write {path}: {e}"))
}

/// Whether `--trace` or `--metrics` asked for instrumentation.
fn tracing_requested(opts: &HashMap<String, String>) -> bool {
    opts.contains_key("trace") || opts.contains_key("metrics")
}

/// Validates `trace` against the `trace_event` schema and writes it.
fn write_perfetto(path: &str, trace: &blockpart::obs::Trace) -> Result<(), String> {
    let doc = perfetto::to_perfetto(trace);
    let events = perfetto::validate(&doc)
        .map_err(|e| format!("internal: exported trace failed validation: {e}"))?;
    write_text(path, &doc.render())?;
    eprintln!("wrote {events}-event trace to {path}");
    Ok(())
}

/// Writes `--trace` / `--metrics` exports from a traced experiment.
/// With `virtual_only`, the trace export keeps only virtual-clock
/// records — the deterministic slice (same seed + config ⇒ identical
/// bytes), which is what `runtime --trace` promises.
fn export_observability(
    report: &ExperimentReport,
    opts: &HashMap<String, String>,
    virtual_only: bool,
) -> Result<(), String> {
    let trace = report.trace.as_ref().expect("tracing was enabled");
    if let Some(path) = opts.get("trace") {
        let export = if virtual_only {
            trace.virtual_only()
        } else {
            trace.clone()
        };
        write_perfetto(path, &export)?;
    }
    if let Some(path) = opts.get("metrics") {
        write_text(path, &trace.metrics_text())?;
        eprintln!("wrote metrics to {path}");
    }
    Ok(())
}

fn print_report(report: &ExperimentReport, json: bool, runtime: bool) {
    if json {
        println!("{}", report.to_json_pretty());
    } else if runtime {
        println!("{}", report.runtime_table().render_ascii());
    } else {
        println!("{}", report.offline_table().render_ascii());
    }
}

fn cmd_study(
    registry: &StrategyRegistry,
    scenarios: &ScenarioRegistry,
    opts: &HashMap<String, String>,
) -> Result<(), String> {
    // validate all options before the (expensive) generation
    let spec = strategy_spec_of(opts, "all")?;
    registry.resolve_list(spec).map_err(|e| e.to_string())?;
    let scenario = scenario_of(scenarios, opts)?;
    let storage = storage_of(opts)?;
    let shards = shards_of(opts, &[2, 4, 8])?;
    let seed = seed_of(opts)?;
    let scale = scale_of(opts)?;
    match &scenario {
        Some(s) => eprintln!(
            "study over 30-month history (scale {scale}, seed {seed}, scenario {}, {storage})...",
            s.name()
        ),
        None => {
            eprintln!("study over 30-month history (scale {scale}, seed {seed}, {storage})...")
        }
    }
    // A generator workload lets the pipeline synthesize straight into the
    // spill backend's segment store when one is configured; resident runs
    // produce the identical report.
    let mut experiment =
        Experiment::from_generator(GeneratorConfig::demo_scale(seed).with_scale(scale))
            .named_strategies(registry, spec)
            .map_err(|e| e.to_string())?
            .shard_counts(shards)
            .seed(seed)
            .storage(storage)
            .trace(tracing_requested(opts));
    if let Some(scenario) = scenario {
        experiment = experiment.scenario(scenario);
    }
    let report = experiment.run();
    print_report(&report, json_of(opts), false);
    if tracing_requested(opts) {
        export_observability(&report, opts, false)?;
    }
    Ok(())
}

fn cmd_offline(opts: &HashMap<String, String>) -> Result<(), String> {
    let shards = shards_of(opts, &[2])?;
    let k = *shards.first().ok_or("need one shard count")?;
    let chain = generate(opts, None)?;
    let rows = offline_partitioner_comparison(&chain.log, k);
    println!("{}", offline_table(&rows).render_ascii());
    Ok(())
}

fn micros_of(opts: &HashMap<String, String>, key: &str, default: u64) -> Result<u64, String> {
    match opts.get(key) {
        None => Ok(default),
        Some(s) => s.parse().map_err(|_| format!("invalid --{key} `{s}`")),
    }
}

fn cmd_runtime(
    registry: &StrategyRegistry,
    scenarios: &ScenarioRegistry,
    opts: &HashMap<String, String>,
) -> Result<(), String> {
    // validate all options before the (expensive) generation
    let spec = strategy_spec_of(opts, "hash,metis")?;
    registry.resolve_list(spec).map_err(|e| e.to_string())?;
    let scenario = scenario_of(scenarios, opts)?;
    let shards = shards_of(opts, &[1, 2, 4])?;
    let seed = seed_of(opts)?;
    let latency_us = micros_of(opts, "latency-us", 1_000)?;
    let arrival_us = micros_of(opts, "arrival-us", 500)?;
    let storage = storage_of(opts)?;
    let chain = generate(opts, scenario.as_ref())?;
    let report = Experiment::over_chain(&chain)
        .named_strategies(registry, spec)
        .map_err(|e| e.to_string())?
        .shard_counts(shards.clone())
        .seed(seed)
        .offline(false)
        .replay(true)
        .net_latency_us(latency_us)
        .inter_arrival_us(arrival_us)
        .storage(storage)
        .trace(tracing_requested(opts))
        .run();
    print_report(&report, json_of(opts), true);
    if tracing_requested(opts) {
        // virtual-only: the exported replay trace is deterministic.
        export_observability(&report, opts, true)?;
    }
    if !json_of(opts) {
        // the headline the study exists to show: a better cut means fewer
        // transactions pay the 2PC coordination tax
        for &k in &shards {
            if k.get() < 2 {
                continue;
            }
            if let (Some(hash), Some(metis)) =
                (report.runtime("hash", k), report.runtime("metis", k))
            {
                println!(
                    "k={}: cross-shard ratio hash {:.1}% vs metis {:.1}%",
                    k.get(),
                    hash.cross_shard_ratio * 100.0,
                    metis.cross_shard_ratio * 100.0
                );
            }
        }
    }
    Ok(())
}

fn cmd_live(
    registry: &StrategyRegistry,
    scenarios: &ScenarioRegistry,
    opts: &HashMap<String, String>,
) -> Result<(), String> {
    // validate all options before the (expensive) generation
    let spec_str = opts.get("strategy").map_or("tr-metis", String::as_str);
    let spec = registry.resolve(spec_str).map_err(|e| e.to_string())?;
    let scenario = scenario_of(scenarios, opts)?;
    let k = match (opts.get("k"), opts.get("shards")) {
        (Some(_), Some(_)) => return Err("both --k and --shards given; use one".into()),
        (None, None) => ShardCount::new(4).expect("non-zero"),
        (Some(s), None) | (None, Some(s)) => s
            .trim()
            .parse::<u16>()
            .ok()
            .and_then(ShardCount::new)
            .ok_or_else(|| format!("invalid shard count `{s}`"))?,
    };
    let window_hours = micros_of(opts, "window-hours", 4)?;
    if window_hours == 0 {
        return Err("--window-hours must be positive".into());
    }
    let window = window_hours
        .checked_mul(3_600)
        .map(Duration::from_secs)
        .ok_or_else(|| format!("invalid --window-hours `{window_hours}`"))?;
    let seed = seed_of(opts)?;
    let latency_us = micros_of(opts, "latency-us", 1_000)?;
    let arrival_us = micros_of(opts, "arrival-us", 500)?;
    let storage = storage_of(opts)?;
    let chain = generate(opts, scenario.as_ref())?;

    // the strategy's own trigger/scope settings drive the live loop
    let sim_cfg = spec.simulator_config(k);
    let depth = (sim_cfg.scope_window.as_secs() / window.as_secs()).max(1) as usize;
    let mut runtime_cfg = spec
        .runtime_config(k)
        .with_seed(seed)
        .with_net_latency_us(latency_us)
        .with_inter_arrival_us(arrival_us);
    runtime_cfg.k = k;
    // with a spill backend, migration batches serialize through the
    // on-disk account-state spool (removed on success, kept on failure)
    let mut session = None;
    if let Some(root) = storage.spill_dir() {
        let s = SpillSession::create(root).map_err(|e| format!("spill session: {e}"))?;
        runtime_cfg = runtime_cfg.with_state_spool_dir(s.path().join("spool-live"));
        session = Some(s);
    }
    let cfg = LiveConfig::new(k)
        .with_window(window)
        .with_depth(depth)
        .with_policy(sim_cfg.policy)
        .with_runtime(runtime_cfg)
        .with_tracing(opts.contains_key("trace"))
        .with_label(spec.name());
    eprintln!(
        "live run: {} at k={}, {}h windows × depth {}...",
        spec.name(),
        k.get(),
        window_hours,
        depth
    );
    let mut runner = LiveRunner::new(cfg, spec.build_partitioner(seed));
    let run = runner.run(chain.chain.world(), &chain.txs);
    if json_of(opts) {
        println!("{}", run.report.json().render_pretty());
    } else {
        println!("{}", run.report.headline());
        if run.report.migrations() > 0 {
            println!("\nmigration episodes (foreground before/during/after):");
            println!("{}", run.report.episode_table().render_ascii());
        }
    }
    if let Some(path) = opts.get("trace") {
        write_perfetto(path, &run.session.finish())?;
    }
    if let Some(session) = session {
        session
            .finish()
            .map_err(|e| format!("spill cleanup: {e}"))?;
    }
    Ok(())
}

fn cmd_profile(registry: &StrategyRegistry, opts: &HashMap<String, String>) -> Result<(), String> {
    let spec = strategy_spec_of(opts, "hash,metis")?;
    registry.resolve_list(spec).map_err(|e| e.to_string())?;
    let shards = shards_of(opts, &[2, 4])?;
    let seed = seed_of(opts)?;
    let scale = scale_of(opts)?;
    let replay = !opts.contains_key("no-replay");
    let instrument = !opts.contains_key("no-obs");
    if !instrument && tracing_requested(opts) {
        return Err("--no-obs collects nothing; drop --trace/--metrics".into());
    }
    eprintln!("profiling pipeline (scale {scale}, seed {seed}, strategies {spec})...");
    let gen = GeneratorConfig::demo_scale(seed).with_scale(scale);
    let report = run_profile(
        registry,
        spec,
        &shards,
        gen,
        Duration::hours(4),
        seed,
        replay,
        instrument,
    )
    .map_err(|e| e.to_string())?;
    if instrument {
        println!("{}", report.table().render_ascii());
        println!(
            "stage coverage: {:.1}% of {:.2} ms wall",
            report.coverage() * 100.0,
            report.wall_us() as f64 / 1000.0
        );
        if let Some(path) = opts.get("trace") {
            write_perfetto(path, report.trace())?;
        }
        if let Some(path) = opts.get("metrics") {
            write_text(path, &report.trace().metrics_text())?;
            eprintln!("wrote metrics to {path}");
        }
    } else {
        println!(
            "wall: {:.2} ms (instrumentation disabled)",
            report.wall_us() as f64 / 1000.0
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(pairs: &[(&str, &str)]) -> HashMap<String, String> {
        pairs
            .iter()
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn parse_options_pairs() {
        let args: Vec<String> = ["--scale", "0.5", "--seed", "7", "--json"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let o = parse_options(&args).unwrap();
        assert_eq!(o.get("scale").map(String::as_str), Some("0.5"));
        assert_eq!(o.get("seed").map(String::as_str), Some("7"));
        assert!(json_of(&o));
    }

    #[test]
    fn parse_options_rejects_bare_values() {
        let args = vec!["oops".to_string()];
        assert!(parse_options(&args).is_err());
        let dangling = vec!["--seed".to_string()];
        assert!(parse_options(&dangling).is_err());
    }

    #[test]
    fn unknown_options_name_the_token() {
        let o = opts(&[("scale", "0.5"), ("bogus", "1")]);
        let err = ensure_known_options(&o, "study", &["scale", "seed"]).unwrap_err();
        assert!(err.contains("--bogus"), "{err}");
        assert!(err.contains("study"), "{err}");
        assert!(err.contains("--scale"), "{err}");
        assert!(ensure_known_options(&o, "x", &["scale", "bogus"]).is_ok());
    }

    #[test]
    fn scale_and_seed_defaults() {
        let o = opts(&[]);
        assert_eq!(scale_of(&o).unwrap(), 0.0012);
        assert_eq!(seed_of(&o).unwrap(), 42);
        assert!(scale_of(&opts(&[("scale", "-1")])).is_err());
        assert!(seed_of(&opts(&[("seed", "x")])).is_err());
        // only a fraction of the full chain is a scale; past it the
        // generator's allocations overflow
        for bad in ["inf", "-inf", "NaN", "0", "1e300", "1e6", "1.5"] {
            let err = scale_of(&opts(&[("scale", bad)])).unwrap_err();
            assert_eq!(err, format!("invalid --scale `{bad}`"));
        }
        assert_eq!(scale_of(&opts(&[("scale", "1")])).unwrap(), 1.0);
    }

    #[test]
    fn window_hours_must_fit_in_seconds() {
        let registry = StrategyRegistry::with_builtins();
        let scenarios = ScenarioRegistry::with_builtins();
        let live = |hours: &str| {
            let args: Vec<String> = ["live", "--window-hours", hours]
                .iter()
                .map(|s| s.to_string())
                .collect();
            run(&registry, &scenarios, &args).unwrap_err()
        };
        let max = u64::MAX.to_string();
        assert_eq!(live(&max), format!("invalid --window-hours `{max}`"));
        let first_overflow = (u64::MAX / 3_600 + 1).to_string();
        assert_eq!(
            live(&first_overflow),
            format!("invalid --window-hours `{first_overflow}`")
        );
        assert_eq!(live("0"), "--window-hours must be positive");
    }

    #[test]
    fn strategy_specs_resolve_via_registry() {
        let registry = StrategyRegistry::with_builtins();
        assert_eq!(
            registry
                .resolve_list(strategy_spec_of(&opts(&[]), "all").unwrap())
                .unwrap()
                .len(),
            5
        );
        let o = opts(&[("methods", "hash,tr-metis")]);
        let specs = registry
            .resolve_list(strategy_spec_of(&o, "all").unwrap())
            .unwrap();
        let names: Vec<&str> = specs.iter().map(|s| s.name()).collect();
        assert_eq!(names, vec!["HASH", "TR-METIS"]);
        let o = opts(&[("strategies", "bogus")]);
        assert!(registry
            .resolve_list(strategy_spec_of(&o, "all").unwrap())
            .is_err());
    }

    #[test]
    fn conflicting_strategy_flags_error() {
        let o = opts(&[("strategies", "hash"), ("methods", "metis")]);
        let err = strategy_spec_of(&o, "all").unwrap_err();
        assert!(
            err.contains("--strategies") && err.contains("--methods"),
            "{err}"
        );
    }

    #[test]
    fn shards_parsing() {
        let s = shards_of(&opts(&[("shards", "2, 8")]), &[2]).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].get(), 8);
        assert!(shards_of(&opts(&[("shards", "0")]), &[2]).is_err());
        assert_eq!(shards_of(&opts(&[]), &[2, 4]).unwrap().len(), 2);
    }

    #[test]
    fn unknown_command_errors() {
        let registry = StrategyRegistry::with_builtins();
        let scenarios = ScenarioRegistry::with_builtins();
        let run_args = |args: &[&str]| {
            let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            run(&registry, &scenarios, &args).unwrap_err()
        };
        for command in ["frobnicate", "list-engines"] {
            assert_eq!(run_args(&[command]), format!("unknown command `{command}`"));
        }
        assert!(run(&registry, &scenarios, &[]).is_err());
        // unknown option on a valid command names the token
        for (command, option) in [("study", "--frob"), ("runtime", "--exec")] {
            let err = run_args(&[command, option, "serial"]);
            assert!(
                err.starts_with(&format!("unknown option `{option}` for `{command}`")),
                "{err}"
            );
        }
    }

    #[test]
    fn scenario_specs_resolve_before_generation() {
        let scenarios = ScenarioRegistry::with_builtins();
        assert!(scenario_of(&scenarios, &opts(&[])).unwrap().is_none());
        let o = opts(&[("scenario", "hub-burst[contracts=3]")]);
        let s = scenario_of(&scenarios, &o).unwrap().unwrap();
        assert_eq!(s.name(), "hub-burst[contracts=3]");
        let composed = opts(&[("scenario", "hub-burst+dummy-spam")]);
        assert!(scenario_of(&scenarios, &composed).unwrap().is_some());
        let bogus = opts(&[("scenario", "bogus")]);
        match scenario_of(&scenarios, &bogus) {
            Ok(_) => panic!("bogus scenario resolved"),
            Err(err) => assert!(err.contains("bogus"), "{err}"),
        }
    }

    #[test]
    fn strategy_alias_flag_resolves_like_strategies() {
        let o = opts(&[("strategy", "tr-metis")]);
        assert_eq!(strategy_spec_of(&o, "all").unwrap(), "tr-metis");
        let conflict = opts(&[("strategies", "hash"), ("strategy", "metis")]);
        let err = strategy_spec_of(&conflict, "all").unwrap_err();
        assert!(err.contains("--strategy"), "{err}");
        assert!(err.contains("--strategies"), "{err}");
    }
}
