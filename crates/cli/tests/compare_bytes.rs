//! Byte-exact output of every `compare` form — classic, `--policies`,
//! `--ladders` and `--cores`, each as text and as `--json` — at a tiny
//! instruction count. The forms share one grid-build, run and render
//! path; this suite pins what that path prints, byte for byte.

use vsv::PolicySpec;
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

/// A `compare` on mcf at 3k measured + 1k warm-up instructions.
fn compare(
    policies: Vec<PolicySpec>,
    ladders: Vec<usize>,
    cores: Vec<usize>,
    json: bool,
) -> String {
    execute(Command::Compare {
        twin: "mcf".to_owned(),
        policies,
        ladders,
        cores,
        timekeeping: false,
        insts: 3_000,
        warmup: 1_000,
        workers: 1,
        json,
    })
    .expect("compare runs")
}

/// Every form as (label, output).
fn outputs() -> Vec<(String, String)> {
    let policies = vec![
        PolicySpec::DualFsm,
        PolicySpec::ImmediateDown,
        PolicySpec::OracleDown,
    ];
    let mut out = Vec::new();
    for json in [false, true] {
        let forms = [
            ("classic", compare(vec![], vec![], vec![], json)),
            ("policies", compare(policies.clone(), vec![], vec![], json)),
            ("ladders", compare(vec![], vec![1, 2, 4], vec![], json)),
            ("cores", compare(vec![], vec![], vec![1, 2], json)),
        ];
        for (form, text) in forms {
            out.push((
                format!("{form}/{}", if json { "json" } else { "text" }),
                text,
            ));
        }
    }
    out
}

/// (form/format, FNV-1a of the printed bytes).
const PINNED: [(&str, u64); 8] = [
    ("classic/text", 0xeee37788195ce7d),
    ("policies/text", 0xd7e23bb63d296e45),
    ("ladders/text", 0x131e597350b7100a),
    ("cores/text", 0x5c63b5b0eae8ebcd),
    ("classic/json", 0xbcbb17118c430deb),
    ("policies/json", 0x8798867fbf1564cc),
    ("ladders/json", 0xc862d43343d413c1),
    ("cores/json", 0x4c11643792f0f9e9),
];

#[test]
fn every_compare_form_prints_its_pinned_bytes() {
    let mut diverged = Vec::new();
    for ((label, text), (pinned_label, pinned)) in outputs().iter().zip(PINNED) {
        assert_eq!(label, pinned_label);
        let seen = fnv(text);
        if seen != pinned {
            diverged.push(format!("(\"{label}\", {seen:#x}),\n{text}"));
        }
    }
    assert!(diverged.is_empty(), "diverged:\n{}", diverged.join("\n"));
}
