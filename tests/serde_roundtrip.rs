//! Round-trip the records the program writes through JSON: run
//! results, comparisons and sweep records are serializable (configs
//! are not), and a record written by one tool must be readable by
//! another without loss.

use vsv::{Comparison, Experiment, SystemConfig};
use vsv_workloads::twin;

#[test]
fn run_results_serialize_for_downstream_tooling() {
    let e = Experiment {
        warmup_instructions: 5_000,
        instructions: 10_000,
    };
    let params = twin("gzip").expect("twin exists");
    let (base, vsv_run, cmp) = e
        .compare(
            &params,
            SystemConfig::baseline(),
            SystemConfig::vsv_with_fsms(),
        )
        .expect("runs");
    let json = serde_json::to_string(&vsv_run).expect("RunResult serializes");
    assert!(json.contains("avg_power_w"));
    let cmp_json = serde_json::to_string(&cmp).expect("Comparison serializes");
    let back: Comparison = serde_json::from_str(&cmp_json).expect("deserialize");
    assert_eq!(cmp, back);
    let _ = base;
}

#[test]
fn job_record_without_cores_defaults_to_one_core() {
    // Checkpoints written before the multicore axis (v6 and earlier)
    // carry no `cores` field; such a record must still parse, as a
    // single-core cell.
    let sweep = vsv::Sweep::over_grid(
        Experiment {
            warmup_instructions: 1_000,
            instructions: 2_000,
        },
        &[twin("gzip").expect("twin exists")],
        &[SystemConfig::baseline()],
    );
    let record = sweep.report(1).records.remove(0);
    assert_eq!(record.cores, 1);
    let json = serde_json::to_string(&record).expect("serialize");
    let v6 = json.replacen("\"cores\":1,", "", 1);
    assert_ne!(v6, json, "the record serializes its core count: {json}");
    let back: vsv::JobRecord = serde_json::from_str(&v6).expect("v6 record parses");
    assert_eq!(back.cores, 1);
    assert_eq!(back, record);
}
