//! Byte-exact text of every paper `reproduce NAME` experiment at a
//! tiny instruction count, its `--json` report, every experiment's
//! worker-count independence, the data artifacts' JSON shape, and the
//! usage error for an unknown name. Each paper experiment is one grid
//! plus one renderer; this suite pins what the pair prints, byte for
//! byte.

use std::process::Command as Process;

use vsv_cli::{execute_with_exit, Command};

/// FNV-1a over the printed output.
fn fnv(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// `reproduce NAME` at 3k measured + 1k warm-up instructions on
/// `workers` workers; it must exit 0.
fn reproduce(name: &str, json: bool, workers: usize) -> String {
    let (out, code) = execute_with_exit(Command::Reproduce {
        name: name.to_owned(),
        insts: 3_000,
        warmup: 1_000,
        workers,
        json,
        svg: None,
    })
    .expect("reproduce runs");
    assert_eq!(code, 0, "{name}: {out}");
    out
}

/// `json` with every `"wall_ns"` and `"workers"` value set to 0: the
/// host wall-clock and the worker-count stamp are the only fields of a
/// `SweepReport` allowed to differ between worker counts.
fn scrub(json: &str) -> String {
    let mut text = json.to_owned();
    for key in ["\"wall_ns\": ", "\"workers\": "] {
        let mut out = String::with_capacity(text.len());
        let mut rest = text.as_str();
        while let Some(pos) = rest.find(key) {
            let (head, tail) = rest.split_at(pos + key.len());
            out.push_str(head);
            out.push('0');
            let digits = tail
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(tail.len());
            rest = &tail[digits..];
        }
        out.push_str(rest);
        text = out;
    }
    text
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
        let text = reproduce(name, false, 1);
        let seen = fnv(&text);
        if seen != pinned {
            diverged.push(format!("(\"{name}\", {seen:#x}),\n{text}"));
        }
    }
    assert!(diverged.is_empty(), "diverged:\n{}", diverged.join("\n"));
}

#[test]
fn paper_experiments_print_the_same_bytes_at_any_worker_count() {
    for (name, pinned) in PINNED {
        assert_eq!(
            fnv(&reproduce(name, false, 2)),
            pinned,
            "{name} text at 2 workers"
        );
        assert_eq!(
            scrub(&reproduce(name, true, 1)),
            scrub(&reproduce(name, true, 2)),
            "{name} JSON"
        );
    }
}

#[test]
fn json_prints_the_experiments_sweep_report() {
    let report: vsv::SweepReport =
        serde_json::from_str(&reproduce("figure5", true, 1)).expect("a SweepReport");
    // Figure 5: every high-MR twin under the baseline plus four down
    // thresholds.
    let cells = vsv_workloads::high_mr_names().len() * 5;
    assert_eq!(report.jobs, cells);
    assert_eq!(report.records.len(), cells);
    assert_eq!(report.failed_jobs(), 0);
}

/// The top-level keys of a JSON object, in order.
fn keys(json: &str) -> Vec<String> {
    let value: serde_json::Value = serde_json::from_str(json).expect("valid JSON");
    let map = value.as_map().expect("a JSON object");
    map.iter().map(|(key, _)| key.clone()).collect()
}

#[test]
fn data_artifacts_print_the_same_bytes_at_any_worker_count() {
    for name in ["policy", "ladder", "reliability", "traffic", "multicore"] {
        let (text, json) = (reproduce(name, false, 1), reproduce(name, true, 1));
        assert_eq!(text, reproduce(name, false, 2), "{name} text");
        assert_eq!(json, reproduce(name, true, 2), "{name} JSON");
        assert!(text.ends_with('\n') && !json.ends_with('\n'), "{name}");
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let committed = std::fs::read_to_string(format!("{path}/BENCH_{name}.json"))
            .expect("the committed artifact");
        assert_eq!(keys(&json), keys(&committed), "{name} top-level keys");
    }
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
