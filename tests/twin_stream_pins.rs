//! Long-stream pins: the first 200 000 instructions of every built-in
//! twin, and of one parameter point per access pattern, hashed field
//! by field. `golden_workloads.rs` pins only the first 5 000; these
//! reach deep enough that every Bernoulli draw site, the far-address
//! walks and the loop-closing jump all contribute many times, so a
//! change to how the generator draws or emits (rather than to what it
//! draws) must leave them alone.
//!
//! On a mismatch the panic message prints the whole recomputed table.

use vsv_isa::{BranchKind, Inst, InstStream};
use vsv_workloads::{spec2k_twins, AccessPattern, Generator, WorkloadParams};

const N: usize = 200_000;

/// FNV-1a over a fixed little-endian encoding of each instruction's
/// logical fields (independent of `Inst`'s packing and of `Debug`).
fn stream_digest(params: WorkloadParams) -> u64 {
    let mut g = Generator::new(params);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |w: u64| {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let reg = |r: Option<vsv_isa::ArchReg>| r.map_or(u64::MAX, |r| r.index() as u64);
    for _ in 0..N {
        let inst: Inst = g.next_inst().expect("infinite");
        eat(inst.pc().0);
        eat(inst.op().index() as u64);
        let [s0, s1] = inst.srcs();
        eat(reg(s0));
        eat(reg(s1));
        eat(reg(inst.dst()));
        eat(inst.mem_addr().map_or(u64::MAX, |a| a.0));
        match inst.branch_info() {
            Some(b) => {
                let kind = match b.kind {
                    BranchKind::Conditional => 0,
                    BranchKind::Jump => 1,
                    BranchKind::Call => 2,
                    BranchKind::Return => 3,
                };
                eat(kind | u64::from(b.taken) << 8);
                eat(b.target.0);
            }
            None => eat(u64::MAX),
        }
    }
    assert_eq!(
        g.emitted(),
        N as u64,
        "emitted() counts what was handed out"
    );
    h
}

/// One parameter point per access pattern, with every draw site live:
/// bursts, chasing, miss dependences, software prefetches, FP and
/// mul/div ops and random-direction branches.
fn pattern_params(pattern: AccessPattern) -> WorkloadParams {
    let mut p = WorkloadParams::compute_bound("pattern");
    p.pattern = pattern;
    p.far_fraction = 0.3;
    p.miss_burst = 4;
    p.chase_dependency = 0.5;
    p.miss_dependency = 0.4;
    p.sw_prefetch_coverage = 0.5;
    p.sw_prefetch_distance = 16;
    p.fp_fraction = 0.3;
    p.muldiv_fraction = 0.1;
    p.branch_entropy = 0.3;
    p
}

fn check(pinned: &[(&str, u64)], got: &[(&str, u64)]) {
    if pinned != got {
        let table: String = got
            .iter()
            .map(|(name, d)| format!("    (\"{name}\", {d:#018x}),\n"))
            .collect();
        panic!("instruction streams changed; recomputed table:\n{table}");
    }
}

#[test]
fn every_built_in_twin_stream_is_pinned() {
    let got: Vec<(&str, u64)> = spec2k_twins()
        .into_iter()
        .map(|p| (p.name, stream_digest(p)))
        .collect();
    check(TWIN_PINS, &got);
}

#[test]
fn every_access_pattern_stream_is_pinned() {
    let patterns = [
        ("streaming", AccessPattern::Streaming),
        ("permutation-chase", AccessPattern::PermutationChase),
        ("random", AccessPattern::Random),
        ("strided-3", AccessPattern::Strided { blocks: 3 }),
    ];
    let got: Vec<(&str, u64)> = patterns
        .into_iter()
        .map(|(name, pat)| (name, stream_digest(pattern_params(pat))))
        .collect();
    check(PATTERN_PINS, &got);
}

const TWIN_PINS: &[(&str, u64)] = &[
    ("ammp", 0x3ea572dd18f32127),
    ("applu", 0x38b1eba54cb0a8c0),
    ("apsi", 0x4ff34a1a89ba7130),
    ("art", 0xeef8a574628f6e8b),
    ("bzip2", 0x90253b435e3f2ef9),
    ("crafty", 0x900dc9135e1e6141),
    ("eon", 0x89f2671805de3696),
    ("equake", 0x3f51ddd84a1ef303),
    ("facerec", 0x492171de113e49b2),
    ("fma3d", 0xd569404adcb09b1a),
    ("galgel", 0x3abfa879ac4a991f),
    ("gap", 0x302f2511b67ce44a),
    ("gcc", 0x6907b2d5e606968a),
    ("gzip", 0xfe4bddc3c654f636),
    ("lucas", 0x612812f795eaca8b),
    ("mcf", 0xd5a0845cb8692758),
    ("mesa", 0x34858b1d16d75d9a),
    ("mgrid", 0x96927c427a4a2e18),
    ("parser", 0x8c178f923dbb448a),
    ("perlbmk", 0xd8f8d7dcf4d8dc6c),
    ("sixtrack", 0x724a734dd61e428b),
    ("swim", 0x23bf099e51789cbe),
    ("twolf", 0xbf7a11b685400ea8),
    ("vortex", 0xe2660b9ffb602e90),
    ("vpr", 0xab9b5659858d1ff2),
    ("wupwise", 0xef6bf33aab069674),
];

const PATTERN_PINS: &[(&str, u64)] = &[
    ("streaming", 0x3e0f50e1d197eefa),
    ("permutation-chase", 0x161446774a8ff97f),
    ("random", 0xef68ee3963808a74),
    ("strided-3", 0xbfd5abcb593a9758),
];
