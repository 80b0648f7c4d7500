//! The scenario × strategy CI matrix behind the `scenarios` binary.
//!
//! Every adversarial scenario from the
//! [`ScenarioRegistry`] is scored
//! against every requested strategy at every shard count, through all
//! three measurement paths of [`Experiment`]: offline simulation
//! (cut/balance/moves/repartitions), 2PC replay (cross-shard ratio,
//! abort rate, p99 commit latency) and the live repartitioning service
//! (migration episodes, accounts and bytes shipped, worst
//! during-migration p99). The chain for a scenario is generated once and
//! reused across its strategy × k cells.
//!
//! The report renders as a stable-schema JSON document (see [`SCHEMA`])
//! plus a flat CSV, and [`schema_drift`] turns a committed baseline into
//! a CI gate on the *shape* of the matrix — the schema string, the row
//! identity set in both directions, and the metric column names. Metric
//! *values* are deliberately not gated here: hostile workloads shift
//! them by design, and the perf harness already gates the deterministic
//! quantities that must not drift.

use blockpart_core::{Experiment, ExperimentReport, ScenarioRegistry, StrategyRegistry};
use blockpart_ethereum::gen::GeneratorConfig;
use blockpart_metrics::Json;
use blockpart_types::ShardCount;

/// Schema identifier stamped into every scenario-matrix document.
pub const SCHEMA: &str = "blockpart.scenarios/1";

/// The metric column names of a matrix row, in CSV order. Recorded in
/// the document so [`schema_drift`] catches added or renamed metrics.
pub const METRIC_KEYS: [&str; 11] = [
    "cut",
    "balance",
    "moves",
    "repartitions",
    "cross_pct",
    "abort_pct",
    "p99_ms",
    "migrations",
    "accounts_moved",
    "bytes_moved",
    "during_p99_ms",
];

/// Matrix configuration: workload scale and the swept axes.
#[derive(Clone, Debug, PartialEq)]
pub struct MatrixConfig {
    /// Generator scale (fraction of the full transaction rate).
    pub scale: f64,
    /// Generator and partitioner seed.
    pub seed: u64,
    /// Scenario spec list (`all` for every registered factory).
    pub scenarios: String,
    /// Strategy spec list.
    pub strategies: String,
    /// Shard counts swept per scenario × strategy.
    pub shard_counts: Vec<u16>,
}

impl MatrixConfig {
    /// The reduced CI profile: small workload, `hash` vs `tr-metis` at
    /// k = 2 over every registered scenario.
    pub fn ci() -> Self {
        MatrixConfig {
            scale: 0.0004,
            seed: 42,
            scenarios: "all".to_string(),
            strategies: "hash,tr-metis".to_string(),
            shard_counts: vec![2],
        }
    }
}

/// One scenario × strategy × k cell of the matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct MatrixRow {
    /// Scenario label (embeds canonical parameters).
    pub scenario: String,
    /// Strategy display name.
    pub strategy: String,
    /// Shard count.
    pub k: u16,
    /// Mean dynamic edge cut over active offline windows.
    pub cut: f64,
    /// Normalized mean dynamic balance, `(b − 1)/(k − 1)`.
    pub balance: f64,
    /// Total vertices moved by offline repartitions.
    pub moves: u64,
    /// Offline repartitions that fired.
    pub repartitions: u64,
    /// Replay cross-shard transaction percentage.
    pub cross_pct: f64,
    /// Replay 2PC abort percentage.
    pub abort_pct: f64,
    /// Replay p99 commit latency, milliseconds (virtual clock).
    pub p99_ms: f64,
    /// Live migration episodes.
    pub migrations: u64,
    /// Accounts shipped by live migrations.
    pub accounts_moved: u64,
    /// Bytes shipped by live migrations.
    pub bytes_moved: u64,
    /// Worst p99 commit latency while a migration was in flight,
    /// milliseconds (virtual clock).
    pub during_p99_ms: f64,
}

impl MatrixRow {
    /// The `scenario/strategy/k` identity used to match rows across
    /// reports.
    pub fn key(&self) -> String {
        format!("{}/{}/{}", self.scenario, self.strategy, self.k)
    }
}

/// A completed scenario-matrix run.
#[derive(Clone, Debug, PartialEq)]
pub struct MatrixReport {
    /// The configuration the run used.
    pub config: MatrixConfig,
    /// All cells, in scenario → experiment order.
    pub rows: Vec<MatrixRow>,
}

/// Mean cut/balance over the offline windows that saw traffic — the
/// same aggregation the experiment tables use.
fn mean_offline_metrics(sim: &blockpart_shard::SimulationResult) -> (f64, f64) {
    let active: Vec<_> = sim.windows.iter().filter(|w| w.events > 0).collect();
    let n = active.len().max(1) as f64;
    (
        active.iter().map(|w| w.dynamic_edge_cut).sum::<f64>() / n,
        active.iter().map(|w| w.dynamic_balance).sum::<f64>() / n,
    )
}

fn normalized_balance(mean_balance: f64, k: u16) -> f64 {
    if k <= 1 {
        0.0
    } else {
        ((mean_balance - 1.0) / (f64::from(k) - 1.0)).max(0.0)
    }
}

/// Flattens one scenario's [`ExperimentReport`] into matrix rows.
fn rows_of(scenario: &str, report: &ExperimentReport) -> Vec<MatrixRow> {
    report
        .runs
        .iter()
        .map(|run| {
            let (cut, balance) = run.offline.as_ref().map_or((0.0, 0.0), |sim| {
                let (cut, bal) = mean_offline_metrics(sim);
                (cut, normalized_balance(bal, run.k.get()))
            });
            MatrixRow {
                scenario: scenario.to_string(),
                strategy: run.strategy.clone(),
                k: run.k.get(),
                cut,
                balance,
                moves: run.offline.as_ref().map_or(0, |s| s.total_moves),
                repartitions: run.offline.as_ref().map_or(0, |s| s.repartitions as u64),
                cross_pct: run
                    .runtime
                    .as_ref()
                    .map_or(0.0, |r| r.cross_shard_ratio * 100.0),
                abort_pct: run.runtime.as_ref().map_or(0.0, |r| r.abort_rate * 100.0),
                p99_ms: run
                    .runtime
                    .as_ref()
                    .map_or(0.0, |r| r.p99_commit_latency_us as f64 / 1e3),
                migrations: run.live.as_ref().map_or(0, |l| l.migrations() as u64),
                accounts_moved: run.live.as_ref().map_or(0, |l| l.accounts_moved()),
                bytes_moved: run.live.as_ref().map_or(0, |l| l.bytes_moved()),
                during_p99_ms: run
                    .live
                    .as_ref()
                    .map_or(0.0, |l| l.worst_during_p99_us() as f64 / 1e3),
            }
        })
        .collect()
}

/// Runs the full matrix under `config`, printing one progress line per
/// scenario to stderr.
///
/// # Errors
///
/// Returns the registry error message when a scenario or strategy spec
/// does not resolve.
pub fn run(config: &MatrixConfig) -> Result<MatrixReport, String> {
    let scenarios = ScenarioRegistry::with_builtins();
    let strategies = StrategyRegistry::with_builtins();
    let specs = scenarios
        .resolve_list(&config.scenarios)
        .map_err(|e| e.to_string())?;
    strategies
        .resolve_list(&config.strategies)
        .map_err(|e| e.to_string())?;
    let shard_counts: Vec<ShardCount> = config
        .shard_counts
        .iter()
        .map(|&k| ShardCount::new(k).ok_or_else(|| "zero shard count".to_string()))
        .collect::<Result<_, _>>()?;

    let gen_config = GeneratorConfig::demo_scale(config.seed).with_scale(config.scale);
    let mut rows = Vec::new();
    for scenario in specs {
        eprintln!("# scenarios: {} ...", scenario.name());
        let report = Experiment::from_generator(gen_config.clone())
            .scenario(scenario.clone())
            .named_strategies(&strategies, &config.strategies)
            .map_err(|e| e.to_string())?
            .shard_counts(shard_counts.clone())
            .seed(config.seed)
            .offline(true)
            .replay(true)
            .live(true)
            .run();
        rows.extend(rows_of(scenario.name(), &report));
    }
    Ok(MatrixReport {
        config: config.clone(),
        rows,
    })
}

impl MatrixReport {
    /// Renders the report as the stable scenario-matrix JSON document.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::from(SCHEMA)),
            ("seed", Json::from(self.config.seed)),
            ("scale", Json::from(self.config.scale)),
            ("scenarios", Json::from(self.config.scenarios.as_str())),
            ("strategies", Json::from(self.config.strategies.as_str())),
            (
                "shard_counts",
                Json::arr(self.config.shard_counts.iter().map(|&k| Json::from(k))),
            ),
            (
                "metrics",
                Json::arr(METRIC_KEYS.iter().map(|&m| Json::from(m))),
            ),
            (
                "rows",
                Json::arr(self.rows.iter().map(|r| {
                    Json::obj([
                        ("scenario", Json::from(r.scenario.as_str())),
                        ("strategy", Json::from(r.strategy.as_str())),
                        ("k", Json::from(r.k)),
                        ("cut", Json::from(r.cut)),
                        ("balance", Json::from(r.balance)),
                        ("moves", Json::from(r.moves)),
                        ("repartitions", Json::from(r.repartitions)),
                        ("cross_pct", Json::from(r.cross_pct)),
                        ("abort_pct", Json::from(r.abort_pct)),
                        ("p99_ms", Json::from(r.p99_ms)),
                        ("migrations", Json::from(r.migrations)),
                        ("accounts_moved", Json::from(r.accounts_moved)),
                        ("bytes_moved", Json::from(r.bytes_moved)),
                        ("during_p99_ms", Json::from(r.during_p99_ms)),
                    ])
                })),
            ),
        ])
    }

    /// Parses a document produced by [`Self::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or malformed field —
    /// including any missing metric key, so a renamed metric fails the
    /// baseline load rather than passing silently.
    pub fn from_json(doc: &Json) -> Result<MatrixReport, String> {
        let schema = doc
            .get("schema")
            .and_then(Json::as_str)
            .ok_or("missing schema")?;
        if schema != SCHEMA {
            return Err(format!("unsupported schema `{schema}` (want `{SCHEMA}`)"));
        }
        let metrics: Vec<String> = doc
            .get("metrics")
            .and_then(Json::as_array)
            .ok_or("missing metrics")?
            .iter()
            .map(|m| m.as_str().map(str::to_string).ok_or("bad metric name"))
            .collect::<Result<_, _>>()?;
        if metrics != METRIC_KEYS {
            return Err(format!(
                "metric columns changed: baseline [{}] vs current [{}]",
                metrics.join(", "),
                METRIC_KEYS.join(", ")
            ));
        }
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
        let str_field = |name: &str| {
            doc.get(name)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing {name}"))
        };
        let rows = doc
            .get("rows")
            .and_then(Json::as_array)
            .ok_or("missing rows")?
            .iter()
            .map(|r| {
                let f = |name: &str| {
                    r.get(name)
                        .and_then(Json::as_f64)
                        .ok_or_else(|| format!("row missing {name}"))
                };
                let u = |name: &str| {
                    r.get(name)
                        .and_then(Json::as_u64)
                        .ok_or_else(|| format!("row missing {name}"))
                };
                Ok(MatrixRow {
                    scenario: r
                        .get("scenario")
                        .and_then(Json::as_str)
                        .ok_or("row missing scenario")?
                        .to_string(),
                    strategy: r
                        .get("strategy")
                        .and_then(Json::as_str)
                        .ok_or("row missing strategy")?
                        .to_string(),
                    k: u("k").and_then(|k| {
                        u16::try_from(k).map_err(|_| "bad row shard count".to_string())
                    })?,
                    cut: f("cut")?,
                    balance: f("balance")?,
                    moves: u("moves")?,
                    repartitions: u("repartitions")?,
                    cross_pct: f("cross_pct")?,
                    abort_pct: f("abort_pct")?,
                    p99_ms: f("p99_ms")?,
                    migrations: u("migrations")?,
                    accounts_moved: u("accounts_moved")?,
                    bytes_moved: u("bytes_moved")?,
                    during_p99_ms: f("during_p99_ms")?,
                })
            })
            .collect::<Result<Vec<MatrixRow>, String>>()?;
        Ok(MatrixReport {
            config: MatrixConfig {
                scale: doc
                    .get("scale")
                    .and_then(Json::as_f64)
                    .ok_or("missing scale")?,
                seed: doc
                    .get("seed")
                    .and_then(Json::as_u64)
                    .ok_or("missing seed")?,
                scenarios: str_field("scenarios")?,
                strategies: str_field("strategies")?,
                shard_counts,
            },
            rows,
        })
    }

    /// Renders the matrix as a flat CSV: identity columns, then
    /// [`METRIC_KEYS`] in order.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("scenario,strategy,k,");
        out.push_str(&METRIC_KEYS.join(","));
        out.push('\n');
        for r in &self.rows {
            out.push_str(&format!(
                "{},{},{},{:.4},{:.4},{},{},{:.2},{:.2},{:.3},{},{},{},{:.3}\n",
                r.scenario,
                r.strategy,
                r.k,
                r.cut,
                r.balance,
                r.moves,
                r.repartitions,
                r.cross_pct,
                r.abort_pct,
                r.p99_ms,
                r.migrations,
                r.accounts_moved,
                r.bytes_moved,
                r.during_p99_ms,
            ));
        }
        out
    }
}

/// Compares the *shape* of `current` against `baseline`: every baseline
/// row identity must still exist, and every current row must be in the
/// baseline (a new scenario or strategy means the committed baseline
/// needs a refresh). Returns human-readable drift messages; empty means
/// the gate passes. Metric values are not compared — see the module
/// docs.
pub fn schema_drift(current: &MatrixReport, baseline: &MatrixReport) -> Vec<String> {
    let current_keys: Vec<String> = current.rows.iter().map(MatrixRow::key).collect();
    let baseline_keys: Vec<String> = baseline.rows.iter().map(MatrixRow::key).collect();
    let mut drift = Vec::new();
    for key in &baseline_keys {
        if !current_keys.contains(key) {
            drift.push(format!(
                "missing row {key}: baseline cell absent from this run"
            ));
        }
    }
    for key in &current_keys {
        if !baseline_keys.contains(key) {
            drift.push(format!(
                "new row {key}: not in the baseline (refresh bench/scenarios-baseline.json)"
            ));
        }
    }
    drift
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(scenario: &str, strategy: &str, k: u16) -> MatrixRow {
        MatrixRow {
            scenario: scenario.to_string(),
            strategy: strategy.to_string(),
            k,
            cut: 0.25,
            balance: 0.5,
            moves: 10,
            repartitions: 2,
            cross_pct: 30.0,
            abort_pct: 1.5,
            p99_ms: 4.2,
            migrations: 3,
            accounts_moved: 100,
            bytes_moved: 1600,
            during_p99_ms: 9.9,
        }
    }

    fn report_with(rows: Vec<MatrixRow>) -> MatrixReport {
        MatrixReport {
            config: MatrixConfig::ci(),
            rows,
        }
    }

    #[test]
    fn json_roundtrip_preserves_report() {
        let report = report_with(vec![
            row("hub-burst", "HASH", 2),
            row("phase-shift", "TR-METIS", 4),
        ]);
        let rendered = report.to_json().render_pretty();
        let parsed = MatrixReport::from_json(&Json::parse(&rendered).unwrap()).unwrap();
        assert_eq!(parsed, report);
    }

    #[test]
    fn schema_and_metric_columns_are_gated() {
        let doc = Json::parse(r#"{"schema": "other/9"}"#).unwrap();
        assert!(MatrixReport::from_json(&doc).is_err());
        // a renamed metric column fails the load
        let mut rendered = report_with(vec![row("hub-burst", "HASH", 2)])
            .to_json()
            .render();
        rendered = rendered.replace("\"cut\"", "\"edge_cut\"");
        let err = MatrixReport::from_json(&Json::parse(&rendered).unwrap()).unwrap_err();
        assert!(err.contains("metric columns changed"), "{err}");
    }

    #[test]
    fn drift_catches_rows_in_both_directions() {
        let baseline = report_with(vec![
            row("hub-burst", "HASH", 2),
            row("dummy-spam", "HASH", 2),
        ]);
        let current = report_with(vec![
            row("hub-burst", "HASH", 2),
            row("nft-mint", "HASH", 2),
        ]);
        let drift = schema_drift(&current, &baseline);
        assert_eq!(drift.len(), 2);
        assert!(
            drift[0].contains("missing row dummy-spam/HASH/2"),
            "{drift:?}"
        );
        assert!(drift[1].contains("new row nft-mint/HASH/2"), "{drift:?}");
        assert!(schema_drift(&baseline, &baseline).is_empty());
    }

    #[test]
    fn csv_has_identity_plus_metric_columns() {
        let csv = report_with(vec![row("hub-burst", "HASH", 2)]).to_csv();
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        assert_eq!(
            header,
            "scenario,strategy,k,cut,balance,moves,repartitions,cross_pct,abort_pct,\
             p99_ms,migrations,accounts_moved,bytes_moved,during_p99_ms"
        );
        let line = lines.next().unwrap();
        assert!(line.starts_with("hub-burst,HASH,2,0.2500,"), "{line}");
        assert_eq!(line.split(',').count(), header.split(',').count());
    }

    #[test]
    fn matrix_runs_scenarios_through_all_three_paths() {
        // tiny sanity run: one hostile scenario, both CI strategies
        let config = MatrixConfig {
            scale: 0.0002,
            seed: 7,
            scenarios: "hub-burst[contracts=2]".to_string(),
            strategies: "hash,tr-metis".to_string(),
            shard_counts: vec![2],
        };
        let report = run(&config).unwrap();
        assert_eq!(report.rows.len(), 2);
        for r in &report.rows {
            assert_eq!(r.scenario, "hub-burst[contracts=2]");
            assert!(r.cut > 0.0, "offline path produced no cut: {r:?}");
            assert!(r.p99_ms > 0.0, "replay path produced no latency: {r:?}");
        }
        assert!(run(&MatrixConfig {
            scenarios: "bogus".to_string(),
            ..config
        })
        .is_err());
    }
}
