//! The perf harness: times the pipeline's hot stages over a fixed,
//! seeded workload matrix and writes a stable-schema `BENCH.json`.
//!
//! ```sh
//! # full profile, write BENCH.json
//! cargo run --release -p blockpart-bench --bin perf
//!
//! # CI smoke: reduced matrix, gate against the committed baseline
//! cargo run --release -p blockpart-bench --bin perf -- \
//!     --quick --check bench/baseline.json --tolerance 0.25
//! ```
//!
//! Exit codes: `0` success, `1` usage or I/O error, `2` regression gate
//! failed.

use std::process::ExitCode;

use blockpart_bench::perf::{
    compare, compare_calibrated, obs_overhead, run, PerfConfig, PerfReport,
};
use blockpart_metrics::Json;

const USAGE: &str = "\
usage: perf [options]

options:
  --quick            reduced CI profile (smaller workload, k=2, 3 trials)
  --out PATH         where to write the report (default BENCH.json)
  --check PATH       compare against a baseline BENCH.json and fail on
                     regression (exit code 2)
  --tolerance F      allowed slowdown versus the baseline, a finite
                     fraction >= 0 (default 0.25)
  --calibrate        rescale the baseline by the machines' relative speed
                     (probed by chain-gen) before comparing — use when the
                     baseline was recorded on different hardware (CI)
  --obs-gate F       fail (exit code 2) when any replay-obs stage exceeds
                     its uninstrumented replay twin by more than F, a
                     finite fraction >= 0 (e.g. 0.05 = 5% instrumentation
                     overhead)
  --scale F          override the generator scale, in (0, 1]
  --seed N           override the generator/partitioner seed
  --trials N         timed trials per stage
  --warmup N         untimed warmup runs per stage
  --k LIST           comma-separated shard counts (e.g. 2,4,8)
  --help             print this help
";

struct Options {
    config: PerfConfig,
    out: String,
    check: Option<String>,
    tolerance: f64,
    calibrate: bool,
    obs_gate: Option<f64>,
}

/// Parses a gate allowance: a finite fraction `>= 0`. Under `NaN` or an
/// infinity every gate comparison is false, so any slowdown would pass;
/// a negative allowance fails stages that got faster.
fn allowance(flag: &str, raw: &str) -> Result<f64, String> {
    raw.parse::<f64>()
        .ok()
        .filter(|v| v.is_finite() && *v >= 0.0)
        .ok_or_else(|| format!("invalid {flag} `{raw}`"))
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut config = if args.iter().any(|a| a == "--quick") {
        PerfConfig::quick()
    } else {
        PerfConfig::full()
    };
    let mut out = "BENCH.json".to_string();
    let mut check = None;
    let mut tolerance = 0.25;
    let mut calibrate = false;
    let mut obs_gate = None;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--quick" => {} // handled above so later overrides win
            "--calibrate" => calibrate = true,
            "--out" => out = value("--out")?,
            "--check" => check = Some(value("--check")?),
            "--tolerance" => tolerance = allowance("--tolerance", &value("--tolerance")?)?,
            "--obs-gate" => obs_gate = Some(allowance("--obs-gate", &value("--obs-gate")?)?),
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
            "--trials" => {
                config.trials = value("--trials")?
                    .parse()
                    .map_err(|_| "invalid --trials".to_string())?
            }
            "--warmup" => {
                config.warmup = value("--warmup")?
                    .parse()
                    .map_err(|_| "invalid --warmup".to_string())?
            }
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
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(Options {
        config,
        out,
        check,
        tolerance,
        calibrate,
        obs_gate,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(options) => options,
        Err(message) => {
            if !message.is_empty() {
                eprintln!("perf: {message}");
            }
            eprint!("{USAGE}");
            return ExitCode::from(1);
        }
    };

    let report = run(&options.config);
    let json = report.to_json().render_pretty();
    if let Err(e) = std::fs::write(&options.out, format!("{json}\n")) {
        eprintln!("perf: cannot write {}: {e}", options.out);
        return ExitCode::from(1);
    }
    println!("wrote {} ({} stages)", options.out, report.stages.len());

    let mut obs_gate_failed = false;
    if let Some(max_overhead) = options.obs_gate {
        let (breaches, unpaired) = obs_overhead(&report, max_overhead);
        for breach in &breaches {
            println!(
                "OBS OVERHEAD {}: {:.1} ms -> {:.1} ms ({:.0}% over uninstrumented, gate {:.0}%)",
                breach.key,
                breach.base_ms,
                breach.obs_ms,
                (breach.ratio - 1.0) * 100.0,
                max_overhead * 100.0,
            );
        }
        for key in &unpaired {
            println!("OBS UNPAIRED {key}: no uninstrumented replay twin in this run");
        }
        obs_gate_failed = !breaches.is_empty() || !unpaired.is_empty();
        if !obs_gate_failed {
            let pairs = report
                .stages
                .iter()
                .filter(|s| s.stage == "replay-obs")
                .count();
            println!(
                "observability gate passed: {pairs} replay pairs within {:.0}% overhead",
                max_overhead * 100.0,
            );
        }
    }

    let Some(baseline_path) = options.check else {
        return if obs_gate_failed {
            ExitCode::from(2)
        } else {
            ExitCode::SUCCESS
        };
    };
    let baseline = match std::fs::read_to_string(&baseline_path)
        .map_err(|e| e.to_string())
        .and_then(|text| Json::parse(&text))
        .and_then(|doc| PerfReport::from_json(&doc))
    {
        Ok(baseline) => baseline,
        Err(e) => {
            eprintln!("perf: cannot load baseline {baseline_path}: {e}");
            return ExitCode::from(1);
        }
    };

    let (regressions, missing) = if options.calibrate {
        let (factor, regressions, missing) =
            compare_calibrated(&report, &baseline, options.tolerance);
        println!("calibration: this machine is {factor:.2}x the baseline machine (via chain-gen)");
        (regressions, missing)
    } else {
        compare(&report, &baseline, options.tolerance)
    };
    for regression in &regressions {
        println!(
            "REGRESSION {}: {:.1} ms -> {:.1} ms ({:.0}% over baseline, tolerance {:.0}%)",
            regression.key,
            regression.baseline_ms,
            regression.current_ms,
            (regression.ratio - 1.0) * 100.0,
            options.tolerance * 100.0,
        );
    }
    for key in &missing {
        println!("MISSING {key}: baseline stage absent from this run");
    }
    if regressions.is_empty() && missing.is_empty() {
        println!(
            "regression gate passed: {} stages within {:.0}% of {baseline_path}",
            baseline.stages.len(),
            options.tolerance * 100.0,
        );
        if obs_gate_failed {
            ExitCode::from(2)
        } else {
            ExitCode::SUCCESS
        }
    } else {
        ExitCode::from(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(flag: &str, value: &str) -> Result<Options, String> {
        parse_args(&[flag.to_string(), value.to_string()])
    }

    fn assert_rejects_non_finite_and_negative(flag: &str) {
        for bad in ["NaN", "inf", "-0.1"] {
            match parse(flag, bad) {
                Ok(_) => panic!("{flag} {bad} was accepted"),
                Err(message) => assert_eq!(message, format!("invalid {flag} `{bad}`")),
            }
        }
    }

    #[test]
    fn tolerance_rejects_nan_infinite_and_negative() {
        assert_rejects_non_finite_and_negative("--tolerance");
    }

    #[test]
    fn obs_gate_rejects_nan_infinite_and_negative() {
        assert_rejects_non_finite_and_negative("--obs-gate");
    }

    #[test]
    fn gate_allowances_accept_zero_and_fractions() {
        for (raw, value) in [("0", 0.0), ("0.25", 0.25)] {
            assert_eq!(parse("--tolerance", raw).unwrap().tolerance, value);
            assert_eq!(parse("--obs-gate", raw).unwrap().obs_gate, Some(value));
        }
    }
}
