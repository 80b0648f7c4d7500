//! The scenario-matrix harness: scores every adversarial scenario
//! against the requested strategies through offline simulation, 2PC
//! replay and the live repartitioning service, and writes a
//! stable-schema JSON report plus a flat CSV.
//!
//! ```sh
//! # CI profile: all scenarios × {hash, tr-metis} at k=2
//! cargo run --release -p blockpart-bench --bin scenarios -- \
//!     --out scenarios.json --csv scenarios.csv \
//!     --check bench/scenarios-baseline.json
//! ```
//!
//! Exit codes: `0` success, `1` usage or I/O error, `2` schema-drift
//! gate failed.

use std::process::ExitCode;

use blockpart_bench::scenario_matrix::{run, schema_drift, MatrixConfig, MatrixReport};
use blockpart_metrics::Json;

const USAGE: &str = "\
usage: scenarios [options]

options:
  --scale F          generator scale, in (0, 1] (default 0.0004)
  --seed N           generator/partitioner seed (default 42)
  --scenarios LIST   comma-separated scenario specs (default all)
  --strategies LIST  comma-separated strategy specs (default hash,tr-metis)
  --k LIST           comma-separated shard counts (default 2)
  --out PATH         where to write the JSON report (default scenarios.json)
  --csv PATH         also write the matrix as CSV
  --check PATH       compare the matrix shape against a baseline document
                     and fail on schema drift (exit code 2); metric
                     values are not gated
  --help             print this help
";

struct Options {
    config: MatrixConfig,
    out: String,
    csv: Option<String>,
    check: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut config = MatrixConfig::ci();
    let mut out = "scenarios.json".to_string();
    let mut csv = None;
    let mut check = None;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--scale" => {
                config.scale = value("--scale")?
                    .parse()
                    .ok()
                    .filter(|&s: &f64| s > 0.0 && s <= 1.0)
                    .ok_or_else(|| "invalid --scale".to_string())?
            }
            "--seed" => {
                config.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "invalid --seed".to_string())?
            }
            "--scenarios" => config.scenarios = value("--scenarios")?,
            "--strategies" => config.strategies = value("--strategies")?,
            "--k" => {
                config.shard_counts = value("--k")?
                    .split(',')
                    .map(|k| k.trim().parse::<u16>())
                    .collect::<Result<Vec<u16>, _>>()
                    .map_err(|_| "invalid --k list".to_string())?;
                if config.shard_counts.is_empty() || config.shard_counts.contains(&0) {
                    return Err("--k needs positive shard counts".into());
                }
            }
            "--out" => out = value("--out")?,
            "--csv" => csv = Some(value("--csv")?),
            "--check" => check = Some(value("--check")?),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(Options {
        config,
        out,
        csv,
        check,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(options) => options,
        Err(message) => {
            if !message.is_empty() {
                eprintln!("scenarios: {message}");
            }
            eprint!("{USAGE}");
            return ExitCode::from(1);
        }
    };

    let report = match run(&options.config) {
        Ok(report) => report,
        Err(message) => {
            eprintln!("scenarios: {message}");
            return ExitCode::from(1);
        }
    };
    let json = report.to_json().render_pretty();
    if let Err(e) = std::fs::write(&options.out, format!("{json}\n")) {
        eprintln!("scenarios: cannot write {}: {e}", options.out);
        return ExitCode::from(1);
    }
    println!("wrote {} ({} rows)", options.out, report.rows.len());
    if let Some(path) = &options.csv {
        if let Err(e) = std::fs::write(path, report.to_csv()) {
            eprintln!("scenarios: cannot write {path}: {e}");
            return ExitCode::from(1);
        }
        println!("wrote {path}");
    }

    // the headline the matrix exists to show: how much each hostile
    // workload degrades each strategy's cut and coordination costs
    for row in &report.rows {
        println!(
            "{:<40} {:<10} k={} cut {:.3} cross {:>5.1}% p99 {:>8.2} ms \
             migrations {:>3} ({} accounts / {} bytes) during-p99 {:.2} ms",
            row.scenario,
            row.strategy,
            row.k,
            row.cut,
            row.cross_pct,
            row.p99_ms,
            row.migrations,
            row.accounts_moved,
            row.bytes_moved,
            row.during_p99_ms,
        );
    }

    let Some(baseline_path) = options.check else {
        return ExitCode::SUCCESS;
    };
    let baseline = match std::fs::read_to_string(&baseline_path)
        .map_err(|e| e.to_string())
        .and_then(|text| Json::parse(&text))
        .and_then(|doc| MatrixReport::from_json(&doc))
    {
        Ok(baseline) => baseline,
        Err(e) => {
            eprintln!("scenarios: cannot load baseline {baseline_path}: {e}");
            return ExitCode::from(1);
        }
    };
    let drift = schema_drift(&report, &baseline);
    for message in &drift {
        println!("SCHEMA DRIFT: {message}");
    }
    if drift.is_empty() {
        println!(
            "schema gate passed: {} matrix rows match {baseline_path}",
            report.rows.len()
        );
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}
