//! The `blockpart` binary end to end: a `--scale` outside (0, 1] is an
//! error that names the value, raised before any generation starts (a
//! huge scale once panicked on a capacity overflow or aborted on a
//! multi-gigabyte allocation). So is a `--latency-us` or `--arrival-us`
//! above one minute (a huge one once wrapped the virtual clock and
//! reported nonsense). So is a strategy or scenario parameter that is
//! not finite, overflows the clock, or names an absurd intensity or
//! count (each once panicked, ran out of memory or was silently wrong).
//! And the reports are the same bytes at any `BLOCKPART_THREADS`.
//!
//! A rejected `generate` option leaves an existing `--out` file as it
//! was (it was once truncated before `--scale` and `--seed` were read).
//!
//! `--spill-dir` streams `generate` and `study` through an on-disk
//! segment store: the output keeps its bytes and the directory is left
//! empty. An unusable directory, or one given with `--scenario`, is an
//! error before generation (the former once panicked), and `runtime`,
//! `live` and the retired `--mem-budget` flag refuse it as unknown.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn blockpart(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_blockpart"))
        .args(args)
        .output()
        .expect("blockpart runs")
}

/// A fresh, absent directory under the test target's scratch space.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn out_of_range_scale_is_rejected_before_generation() {
    let out = format!("{}/out-of-range-scale.txt", env!("CARGO_TARGET_TMPDIR"));
    let commands: [&[&str]; 5] = [
        &["generate", "--out", &out],
        &["study"],
        &["runtime"],
        &["live"],
        &["offline"],
    ];
    for command in commands {
        for scale in ["1e300", "1e6", "1.5", "0", "-1", "inf", "NaN"] {
            let output = Command::new(env!("CARGO_BIN_EXE_blockpart"))
                .args(command)
                .args(["--scale", scale])
                .output()
                .expect("blockpart runs");
            let stderr = String::from_utf8_lossy(&output.stderr);
            assert!(!output.status.success(), "{command:?} --scale {scale}");
            assert!(
                stderr.starts_with(&format!("error: invalid --scale `{scale}`\n")),
                "{command:?} --scale {scale}: {stderr}"
            );
        }
    }
}

#[test]
fn rejected_generate_options_keep_the_out_file() {
    let out = format!("{}/cli-keep-out.txt", env!("CARGO_TARGET_TMPDIR"));
    for bad in [["--scale", "5"], ["--seed", "x"]] {
        std::fs::write(&out, b"precious\n").unwrap();
        let output = blockpart(&[&["generate", "--out", &out][..], &bad].concat());
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{bad:?}: {stderr}");
        assert_eq!(
            std::fs::read(&out).unwrap(),
            b"precious\n",
            "{bad:?} truncated --out"
        );
    }
    std::fs::remove_file(&out).unwrap();
}

#[test]
fn out_of_range_micros_are_rejected_before_generation() {
    let max = u64::MAX.to_string();
    for command in ["runtime", "live"] {
        for flag in ["--latency-us", "--arrival-us"] {
            for value in [max.as_str(), "60000001"] {
                let output = Command::new(env!("CARGO_BIN_EXE_blockpart"))
                    .args([command, flag, value])
                    .output()
                    .expect("blockpart runs");
                let stderr = String::from_utf8_lossy(&output.stderr);
                assert!(!output.status.success(), "{command} {flag} {value}");
                assert!(
                    stderr.starts_with(&format!("error: invalid {flag} `{value}`\n")),
                    "{command} {flag} {value}: {stderr}"
                );
            }
        }
        // one minute is the largest accepted value of both flags
        let output = Command::new(env!("CARGO_BIN_EXE_blockpart"))
            .args([
                command,
                "--latency-us",
                "60000000",
                "--arrival-us",
                "60000000",
            ])
            .args(["--scale", "0.00001"])
            .args(match command {
                "runtime" => ["--strategies", "hash", "--shards", "2"],
                _ => ["--strategy", "hash", "--k", "2"],
            })
            .output()
            .expect("blockpart runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(output.status.success(), "{command} at one minute: {stderr}");
        assert!(
            stderr.starts_with("generating 30-month history"),
            "{command} at one minute: {stderr}"
        );
    }
}

#[test]
fn out_of_range_parameters_are_rejected_before_generation() {
    let cases: [(&[&str], &str); 9] = [
        (
            &["study", "--strategies", "r-metis[window=1e300]"],
            "window",
        ),
        (&["study", "--strategies", "ldg[slack=NaN]"], "slack"),
        (&["study", "--strategies", "tr-metis[cut=NaN]"], "cut"),
        (&["live", "--scenario", "hub-burst[start=1e300]"], "start"),
        (
            &["live", "--scenario", "hub-burst[intensity=inf]"],
            "intensity",
        ),
        (
            &["live", "--scenario", "dummy-spam[intensity=1e300]"],
            "intensity",
        ),
        (
            &[
                "live",
                "--scenario",
                "hub-burst[contracts=18446744073709551615]",
            ],
            "contracts",
        ),
        (&["live", "--scenario", "aa-batch[batch=1001]"], "batch"),
        (
            &["live", "--scenario", "phase-shift[phases=1001]"],
            "phases",
        ),
    ];
    for (args, key) in cases {
        let output = Command::new(env!("CARGO_BIN_EXE_blockpart"))
            .args(args)
            .output()
            .expect("blockpart runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(!output.status.success(), "{args:?}");
        assert!(
            stderr.starts_with(&format!("error: parameter `{key}`")),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn reports_are_identical_at_any_thread_count() {
    let commands: [&[&str]; 2] = [
        &[
            "runtime",
            "--json",
            "--strategies",
            "hash,metis,tr-metis",
            "--shards",
            "2,4",
            "--scale",
            "0.00002",
        ],
        &["study", "--json", "--scale", "0.00002"],
    ];
    for args in commands {
        let stdout = |threads: Option<&str>| {
            let mut command = Command::new(env!("CARGO_BIN_EXE_blockpart"));
            command.args(args);
            match threads {
                Some(n) => command.env("BLOCKPART_THREADS", n),
                None => command.env_remove("BLOCKPART_THREADS"),
            };
            let output = command.output().expect("blockpart runs");
            assert!(
                output.status.success(),
                "{args:?} at {threads:?} threads: {}",
                String::from_utf8_lossy(&output.stderr)
            );
            output.stdout
        };
        let unset = stdout(None);
        assert!(!unset.is_empty(), "{args:?} printed nothing");
        for threads in ["1", "3"] {
            assert!(
                stdout(Some(threads)) == unset,
                "{args:?}: BLOCKPART_THREADS={threads} changed the report"
            );
        }
    }
}

#[test]
fn spilled_runs_match_resident_runs_and_leave_the_spill_dir_empty() {
    let spill = scratch_dir("cli-spill-root");
    let spill_arg = spill.to_str().expect("utf-8 path");
    let study = [
        "study",
        "--json",
        "--strategies",
        "hash,ldg,r-metis",
        "--shards",
        "2",
        "--scale",
        "0.00002",
    ];
    let resident = blockpart(&study);
    let spilled = blockpart(&[&study[..], &["--spill-dir", spill_arg]].concat());
    for (name, output) in [("resident", &resident), ("spilled", &spilled)] {
        assert!(
            output.status.success(),
            "{name} study: {}",
            String::from_utf8_lossy(&output.stderr)
        );
    }
    assert!(!resident.stdout.is_empty());
    assert!(
        resident.stdout == spilled.stdout,
        "spilled study report differs"
    );

    let tmp = env!("CARGO_TARGET_TMPDIR");
    let (a, b) = (
        format!("{tmp}/cli-spill-resident.txt"),
        format!("{tmp}/cli-spill-spilled.txt"),
    );
    let generate = ["generate", "--scale", "0.00002", "--out"];
    let resident = blockpart(&[&generate[..], &[&a]].concat());
    let spilled = blockpart(&[&generate[..], &[&b, "--spill-dir", spill_arg]].concat());
    for (name, output) in [("resident", &resident), ("spilled", &spilled)] {
        assert!(
            output.status.success(),
            "{name} generate: {}",
            String::from_utf8_lossy(&output.stderr)
        );
    }
    let trace = std::fs::read(&a).expect("resident trace");
    assert!(!trace.is_empty());
    assert!(
        trace == std::fs::read(&b).expect("spilled trace"),
        "spilled trace differs"
    );

    let left: Vec<_> = std::fs::read_dir(&spill)
        .expect("spill root exists")
        .collect();
    assert!(left.is_empty(), "spill root not left empty: {left:?}");
    std::fs::remove_dir(&spill).unwrap();
}

#[test]
fn unusable_or_inapplicable_spill_dir_is_rejected_before_generation() {
    let tmp = env!("CARGO_TARGET_TMPDIR");
    let file = format!("{tmp}/cli-spill-regular-file");
    std::fs::write(&file, b"not a directory").unwrap();
    let under_file = format!("{file}/spill");
    let out = format!("{tmp}/cli-spill-unused.txt");
    let commands: [&[&str]; 2] = [&["study"], &["generate", "--out", &out]];
    for command in commands {
        let output = blockpart(&[command, &["--spill-dir", &under_file]].concat());
        let stderr = String::from_utf8_lossy(&output.stderr);
        // exit 1 is a reported error; a panic exits 101
        assert_eq!(output.status.code(), Some(1), "{command:?}: {stderr}");
        assert!(
            stderr.starts_with("error: spill session: "),
            "{command:?}: {stderr}"
        );

        let spill = scratch_dir("cli-spill-scenario");
        let args = [
            "--spill-dir",
            spill.to_str().unwrap(),
            "--scenario",
            "hub-burst",
        ];
        let output = blockpart(&[command, &args].concat());
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(!output.status.success(), "{command:?} {args:?}");
        assert!(
            stderr.starts_with("error: --spill-dir does not apply to --scenario"),
            "{command:?} {args:?}: {stderr}"
        );
    }
    std::fs::remove_file(&file).unwrap();
}

#[test]
fn retired_storage_options_are_unknown() {
    let spill = scratch_dir("cli-spill-unknown");
    let spill = spill.to_str().unwrap();
    let out = format!("{}/cli-spill-unknown.txt", env!("CARGO_TARGET_TMPDIR"));
    let cases: [(&[&str], &str); 8] = [
        (
            &["generate", "--out", &out, "--mem-budget", "64m"],
            "mem-budget",
        ),
        (&["study", "--mem-budget", "64m"], "mem-budget"),
        (&["offline", "--mem-budget", "64m"], "mem-budget"),
        (&["runtime", "--mem-budget", "64m"], "mem-budget"),
        (&["live", "--mem-budget", "64m"], "mem-budget"),
        (&["profile", "--mem-budget", "64m"], "mem-budget"),
        (&["runtime", "--spill-dir", spill], "spill-dir"),
        (&["live", "--spill-dir", spill], "spill-dir"),
    ];
    for (args, flag) in cases {
        let output = blockpart(args);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(!output.status.success(), "{args:?}");
        assert!(
            stderr.starts_with(&format!(
                "error: unknown option `--{flag}` for `{}`",
                args[0]
            )),
            "{args:?}: {stderr}"
        );
    }
    assert!(
        !Path::new(spill).exists(),
        "a refused --spill-dir was created"
    );
}
