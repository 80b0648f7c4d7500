//! The `blockpart` binary end to end: a `--scale` outside (0, 1] is an
//! error that names the value, raised before any generation starts (a
//! huge scale once panicked on a capacity overflow or aborted on a
//! multi-gigabyte allocation). So is a `--latency-us` or `--arrival-us`
//! above one minute (a huge one once wrapped the virtual clock and
//! reported nonsense). So is a strategy or scenario parameter that is
//! not finite, overflows the clock, or names an absurd intensity or
//! count (each once panicked, ran out of memory or was silently wrong).
//! And the reports are the same bytes at any `BLOCKPART_THREADS`.

use std::process::Command;

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
