//! The binary's error paths: a command line that does not parse exits
//! 2 and prints the usage text after its error; a command that parsed
//! and then failed exits 2 with just its error.

use std::process::{Command, Output};

fn vsv_cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_vsv-cli"))
        .args(args)
        .output()
        .expect("vsv-cli runs")
}

#[test]
fn a_parse_error_exits_2_with_usage() {
    let out = vsv_cli(&["sweep", "--workers", "banana"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.starts_with("error: --workers"), "{stderr}");
    assert!(stderr.contains("USAGE:"), "{stderr}");
}

#[test]
fn a_flag_the_verb_does_not_read_exits_2_with_usage() {
    for (args, want) in [
        (
            &["trace", "--twin", "gzip", "--cores", "4", "--workers", "7"][..],
            "trace does not take --cores",
        ),
        (
            &[
                "reproduce",
                "headline",
                "--twin",
                "mcf",
                "--policy",
                "always-low",
            ][..],
            "reproduce does not take --twin",
        ),
        (
            &["trace", "summarize", "--input", "x", "--json"][..],
            "trace summarize does not take --json",
        ),
        (
            &["campaign", "plan", "--shards", "2", "--out", "x"][..],
            "campaign plan does not take --out",
        ),
    ] {
        let out = vsv_cli(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} ran");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.starts_with(&format!("error: {want}\n")), "{stderr}");
        assert!(stderr.contains("USAGE:"), "{stderr}");
    }
}

#[test]
fn a_runtime_error_exits_2_without_usage() {
    // Resuming a gzip sweep from an mcf checkpoint parses fine and then
    // fails on the file's grid.
    let dir = std::env::temp_dir().join(format!("vsv-cli-usage-errors-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let checkpoint = dir.join("mcf.jsonl").display().to_string();
    let scale = ["--insts", "3000", "--warmup", "1000"];
    let out = vsv_cli(
        &[
            &["sweep", "--twin", "mcf", "--checkpoint", &checkpoint],
            &scale[..],
        ]
        .concat(),
    );
    assert_eq!(out.status.code(), Some(0));

    let out = vsv_cli(
        &[
            &["sweep", "--twin", "gzip", "--resume", &checkpoint],
            &scale[..],
        ]
        .concat(),
    );
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("grid mismatch"), "{stderr}");
    assert!(!stderr.contains("USAGE:"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}
