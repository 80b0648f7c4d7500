//! Command-line parsing:
//! `--workload <name> --seed <n> --seconds <n> --trace <0|1>`.
//!
//! Every malformed input is a named [`ArgError`]; nothing here panics.

use std::fmt;

use crate::workload::Workload;

/// The longest run the benchmark accepts, in seconds.
const MAX_SECONDS: u64 = 3_600;

/// A parsed command line.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Args {
    /// The workload to run.
    pub workload: Workload,
    /// Seed of the generated chain.
    pub seed: u64,
    /// How long the timed loop runs.
    pub seconds: u64,
    /// Whether to report the per-layer (traced) metrics instead of the
    /// end-to-end ones.
    pub trace: bool,
}

/// Why a command line was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ArgError {
    /// An argument that is not one of the four options.
    UnknownOption(String),
    /// An option given last, with no value after it.
    MissingValue(&'static str),
    /// A required option that was not given.
    MissingOption(&'static str),
    /// An option given twice.
    Repeated(&'static str),
    /// A `--workload` that names no workload.
    UnknownWorkload(String),
    /// A `--seed` that is not an unsigned 64-bit integer.
    BadSeed(String),
    /// A `--seconds` outside `1..=3600`.
    BadSeconds(String),
    /// A `--trace` other than `0` or `1`.
    BadTrace(String),
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::UnknownOption(o) => write!(
                f,
                "unknown option `{o}` (expected --workload, --seed, --seconds, --trace)"
            ),
            ArgError::MissingValue(o) => write!(f, "option --{o} needs a value"),
            ArgError::MissingOption(o) => write!(f, "missing required option --{o}"),
            ArgError::Repeated(o) => write!(f, "option --{o} given more than once"),
            ArgError::UnknownWorkload(w) => {
                let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                write!(
                    f,
                    "unknown workload `{w}` (expected one of: {})",
                    names.join(", ")
                )
            }
            ArgError::BadSeed(s) => {
                write!(
                    f,
                    "invalid --seed `{s}`: expected an unsigned 64-bit integer"
                )
            }
            ArgError::BadSeconds(s) => write!(
                f,
                "invalid --seconds `{s}`: expected a whole number from 1 to {MAX_SECONDS}"
            ),
            ArgError::BadTrace(s) => write!(f, "invalid --trace `{s}`: expected 0 or 1"),
        }
    }
}

impl std::error::Error for ArgError {}

const OPTIONS: [&str; 4] = ["workload", "seed", "seconds", "trace"];

/// Parses the arguments after the program name.
pub fn parse(args: &[String]) -> Result<Args, ArgError> {
    let mut values: [Option<&str>; 4] = [None; 4];
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let slot = arg
            .strip_prefix("--")
            .and_then(|name| OPTIONS.iter().position(|&o| o == name))
            .ok_or_else(|| ArgError::UnknownOption(arg.clone()))?;
        let name = OPTIONS[slot];
        let value = it.next().ok_or(ArgError::MissingValue(name))?;
        if values[slot].replace(value).is_some() {
            return Err(ArgError::Repeated(name));
        }
    }
    let [workload, seed, seconds, trace] = values;
    let workload = workload.ok_or(ArgError::MissingOption("workload"))?;
    let seed = seed.ok_or(ArgError::MissingOption("seed"))?;
    let seconds = seconds.ok_or(ArgError::MissingOption("seconds"))?;
    let trace = trace.ok_or(ArgError::MissingOption("trace"))?;
    Ok(Args {
        workload: Workload::from_name(workload)
            .ok_or_else(|| ArgError::UnknownWorkload(workload.to_string()))?,
        seed: seed
            .parse()
            .map_err(|_| ArgError::BadSeed(seed.to_string()))?,
        seconds: seconds
            .parse()
            .ok()
            .filter(|s| (1..=MAX_SECONDS).contains(s))
            .ok_or_else(|| ArgError::BadSeconds(seconds.to_string()))?,
        trace: match trace {
            "0" => false,
            "1" => true,
            _ => return Err(ArgError::BadTrace(trace.to_string())),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(line: &str) -> Result<Args, ArgError> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse(&args)
    }

    #[test]
    fn accepts_a_full_command_line_in_any_order() {
        let args = parse_str("--trace 1 --seconds 5 --seed 42 --workload replay-hash").unwrap();
        assert_eq!(
            args,
            Args {
                workload: Workload::ReplayHash,
                seed: 42,
                seconds: 5,
                trace: true,
            }
        );
    }

    #[test]
    fn rejects_bad_input_with_a_named_error() {
        let line = |workload: &str, seed: &str, seconds: &str, trace: &str| {
            format!("--workload {workload} --seed {seed} --seconds {seconds} --trace {trace}")
        };
        let base = line("study-metis", "1", "5", "0");
        let cases = [
            (
                line("nope", "1", "5", "0"),
                ArgError::UnknownWorkload("nope".into()),
            ),
            (
                line("study-metis", "-1", "5", "0"),
                ArgError::BadSeed("-1".into()),
            ),
            (
                line("study-metis", "x", "5", "0"),
                ArgError::BadSeed("x".into()),
            ),
            (
                line("study-metis", "18446744073709551616", "5", "0"),
                ArgError::BadSeed("18446744073709551616".into()),
            ),
            (
                line("study-metis", "1", "0", "0"),
                ArgError::BadSeconds("0".into()),
            ),
            (
                line("study-metis", "1", "1.5", "0"),
                ArgError::BadSeconds("1.5".into()),
            ),
            (
                line("study-metis", "1", "5", "2"),
                ArgError::BadTrace("2".into()),
            ),
            (format!("{base} --seed 2"), ArgError::Repeated("seed")),
            (
                format!("{base} --scale 1"),
                ArgError::UnknownOption("--scale".into()),
            ),
            (format!("{base} --trace"), ArgError::MissingValue("trace")),
            (
                "--workload study-metis".into(),
                ArgError::MissingOption("seed"),
            ),
            (
                "study-metis".into(),
                ArgError::UnknownOption("study-metis".into()),
            ),
        ];
        assert!(parse_str(&base).is_ok());
        for (line, expected) in cases {
            let err = parse_str(&line).unwrap_err();
            assert_eq!(err, expected, "{line}");
            assert!(!err.to_string().is_empty());
        }
        assert_eq!(parse(&[]).unwrap_err(), ArgError::MissingOption("workload"));
    }
}
