//! Byte-exact text of every `reproduce NAME` experiment at a tiny
//! instruction count, its `--json` report, and the usage error for an
//! unknown name. Each experiment is one grid plus one renderer; this
//! suite pins what the pair prints, byte for byte.

use std::process::Command as Process;

use vsv_cli::{execute, Command};

/// FNV-1a over the printed output.
fn fnv(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// `reproduce NAME` at 3k measured + 1k warm-up instructions.
fn reproduce(name: &str, json: bool) -> String {
    execute(Command::Reproduce {
        name: name.to_owned(),
        insts: 3_000,
        warmup: 1_000,
        workers: 1,
        json,
        svg: None,
    })
    .expect("reproduce runs")
}

/// (experiment, FNV-1a of its printed text).
const PINNED: [(&str, u64); 7] = [
    ("table2", 0x2cba_0406_d548_8067),
    ("figure4", 0x5577_8762_c8be_2270),
    ("figure5", 0x330f_b43d_1f47_8e0e),
    ("figure6", 0x2ca3_494a_320e_f374),
    ("figure7", 0xe03d_84d8_810e_baeb),
    ("headline", 0x8a49_aa4b_a331_bbc0),
    ("ablations", 0xe5c1_9d27_392f_23ae),
];

#[test]
fn every_experiment_prints_its_pinned_bytes() {
    let mut diverged = Vec::new();
    for (name, pinned) in PINNED {
        let text = reproduce(name, false);
        let seen = fnv(&text);
        if seen != pinned {
            diverged.push(format!("(\"{name}\", {seen:#x}),\n{text}"));
        }
    }
    assert!(diverged.is_empty(), "diverged:\n{}", diverged.join("\n"));
}

#[test]
fn json_prints_the_experiments_sweep_report() {
    let report: vsv::SweepReport =
        serde_json::from_str(&reproduce("figure5", true)).expect("a SweepReport");
    // Figure 5: every high-MR twin under the baseline plus four down
    // thresholds.
    let cells = vsv_workloads::high_mr_names().len() * 5;
    assert_eq!(report.jobs, cells);
    assert_eq!(report.records.len(), cells);
    assert_eq!(report.failed_jobs(), 0);
}

#[test]
fn an_unknown_experiment_is_a_usage_error() {
    let out = Process::new(env!("CARGO_BIN_EXE_vsv-cli"))
        .args(["reproduce", "figure9"])
        .output()
        .expect("vsv-cli runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown experiment 'figure9'"), "{stderr}");
    assert!(
        stderr.contains("table2, figure4, figure5, figure6, figure7, headline, ablations"),
        "{stderr}"
    );
    assert!(stderr.contains("USAGE:"), "{stderr}");
    assert!(out.stdout.is_empty());
}
