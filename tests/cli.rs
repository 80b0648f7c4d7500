//! The `blockpart` binary end to end: a `--scale` outside (0, 1] is an
//! error that names the value, raised before any generation starts (a
//! huge scale once panicked on a capacity overflow or aborted on a
//! multi-gigabyte allocation).

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
