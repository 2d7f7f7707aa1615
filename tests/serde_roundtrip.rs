//! Round-trip the public configuration and result types through JSON
//! (the optional `serde` feature): a configuration written by one tool
//! must be readable by another without loss.

use vsv::{Comparison, DownPolicy, Experiment, SystemConfig, UpPolicy, VsvConfig};
use vsv_workloads::{twin, WorkloadParams};

#[test]
fn workload_params_round_trip() {
    for params in vsv_workloads::spec2k_twins() {
        let json = serde_json::to_string(&params).expect("serialize");
        let mut back: WorkloadParams = serde_json::from_str(&json).expect("deserialize");
        // The static name is serialize-only; everything else must
        // survive the trip exactly.
        assert_eq!(back.name, "custom");
        back.name = params.name;
        assert_eq!(params, back);
    }
}

#[test]
fn vsv_config_round_trip() {
    for cfg in [
        VsvConfig::disabled(),
        VsvConfig::with_fsms(),
        VsvConfig::without_fsms(),
    ] {
        let json = serde_json::to_string(&cfg).expect("serialize");
        let back: VsvConfig = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(cfg, back);
    }
}

#[test]
fn policies_round_trip_with_field_names() {
    let down = DownPolicy::Monitor {
        threshold: 3,
        period: 10,
    };
    let json = serde_json::to_string(&down).expect("serialize");
    assert!(json.contains("threshold"), "named fields survive: {json}");
    let back: DownPolicy = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(down, back);

    let up: UpPolicy = serde_json::from_str("\"LastReturn\"").expect("unit variant");
    assert_eq!(up, UpPolicy::LastReturn);
}

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

#[test]
fn inst_serializes_its_logical_fields() {
    use vsv_isa::{Addr, ArchReg, BranchInfo, BranchKind, Inst, OpClass, Pc};
    let branch = BranchInfo {
        kind: BranchKind::Call,
        taken: true,
        target: Pc(0x400),
    };
    for inst in [
        Inst::load_dep(Pc(8), ArchReg::int(1), ArchReg::int(2), Addr(0x40)),
        Inst::store(Pc(12), Addr(0x80), ArchReg::fp(3)),
        Inst::branch(Pc(16), branch, Some(ArchReg::int(4))),
        Inst::compute(Pc(20), OpClass::FpMulDiv, ArchReg::fp(1), &[ArchReg::fp(1)]),
        Inst::nop(Pc(24)),
    ] {
        let json = serde_json::to_string(&inst).expect("serialize");
        for key in ["pc", "op", "srcs", "dst", "mem_addr", "branch"] {
            assert!(
                json.contains(&format!("\"{key}\"")),
                "{key} missing: {json}"
            );
        }
        let back: Inst = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, inst);
    }
    // A record whose fields no constructor could produce is rejected.
    let nop = serde_json::to_string(&Inst::nop(Pc(0))).expect("serialize");
    let with_addr = nop.replacen("\"mem_addr\":null", "\"mem_addr\":64", 1);
    assert_ne!(with_addr, nop);
    assert!(serde_json::from_str::<Inst>(&with_addr).is_err());
}
