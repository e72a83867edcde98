//! `trajectory --smoke`: ten cycles of every workload, untraced and
//! traced; every declared metric present, finite and positive, no op
//! failed. Run through the binary, because the binary pins the
//! environment before its first thread.

use std::process::Command;

#[test]
fn smoke_pass_reports_every_declared_metric() {
    let out = Command::new(env!("CARGO_BIN_EXE_trajectory"))
        .arg("--smoke")
        .output()
        .expect("run trajectory --smoke");
    assert!(
        out.status.success(),
        "smoke failed:\n{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        stdout.lines().filter(|l| l.starts_with("smoke ")).count(),
        8
    );
}

#[test]
fn a_run_prints_the_result_object_last_and_appends_a_record() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("records");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let file = dir.join("runs.json");
    for seed in ["3", "4"] {
        let out = Command::new(env!("CARGO_BIN_EXE_trajectory"))
            .args([
                "--workload",
                "codec_rs",
                "--seed",
                seed,
                "--seconds",
                "0.2",
                "--trace",
                "0",
                "--out",
            ])
            .arg(&file)
            .output()
            .expect("run trajectory");
        assert!(out.status.success());
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().last().expect("output");
        for key in [
            "\"correct\": true",
            "\"attempted\": ",
            "\"failed\": 0",
            "\"metrics\": {",
            "\"setup_s\": {\"value\": ",
        ] {
            assert!(last.contains(key), "result line lacks {key}: {last}");
        }
    }
    let text = std::fs::read_to_string(&file).expect("read records");
    assert!(
        text.starts_with("[\n{") && text.ends_with("}\n]\n"),
        "a JSON array, one record per line"
    );
    assert_eq!(text.lines().count(), 4);
    // The file compares clean against itself.
    let status = Command::new(env!("CARGO_BIN_EXE_trajectory"))
        .arg("--compare")
        .args([&file, &file])
        .status()
        .expect("run compare");
    assert!(status.success());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--trace", "2"],
        &["--bogus"],
        &[],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_trajectory"))
            .args(args)
            .output()
            .expect("run");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
