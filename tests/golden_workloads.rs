//! Golden-trace regression: the twins' instruction streams are part of
//! the calibration (EXPERIMENTS.md was produced against them). A
//! change to the generator or to the parameter table that alters the
//! streams must show up here as a deliberate golden update, not a
//! silent drift.

use vsv_isa::InstStream;
use vsv_workloads::{spec2k_twins, Generator};

/// FNV-1a over the debug rendering of the first `n` instructions.
fn stream_digest(name: &str, n: usize) -> u64 {
    let params = spec2k_twins()
        .into_iter()
        .find(|p| p.name == name)
        .expect("twin exists");
    let mut g = Generator::new(params);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for _ in 0..n {
        let inst = g.next_inst().expect("infinite");
        for b in format!("{inst:?}").bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[test]
fn digests_are_stable_across_construction() {
    // Same twin, two generators: identical digests (determinism).
    assert_eq!(stream_digest("mcf", 5_000), stream_digest("mcf", 5_000));
}

#[test]
fn every_twin_has_a_unique_stream() {
    let mut digests = std::collections::HashMap::new();
    for p in spec2k_twins() {
        let d = stream_digest(p.name, 2_000);
        if let Some(other) = digests.insert(d, p.name) {
            panic!("twins {} and {} generate identical streams", other, p.name);
        }
    }
}

/// The pinned digests. If a generator change is *intended* (e.g. a
/// recalibration), regenerate with:
/// `cargo test -p vsv-repro --test golden_workloads -- --nocapture print_digests --ignored`
/// and update both this table and EXPERIMENTS.md.
#[test]
fn pinned_twin_digests() {
    let pinned = pinned_table();
    for (name, expected) in pinned {
        let got = stream_digest(name, 5_000);
        assert_eq!(
            got, expected,
            "{name}'s instruction stream changed — recalibrate or revert \
             (new digest: {got:#018x})"
        );
    }
}

#[test]
#[ignore = "helper: prints the digest table for updating pinned_table()"]
fn print_digests() {
    for p in spec2k_twins() {
        println!("(\"{}\", {:#018x}),", p.name, stream_digest(p.name, 5_000));
    }
}

/// Long-stream digests. Five thousand instructions visit fewer PC
/// slots than a 32 KB or 48 KB code footprint holds (12,288 slots at
/// 48 KB), so the short table above leaves most branch sites unpinned;
/// 200,000 instructions sweep every slot of these footprints many times
/// over. Regenerate (only for an intended generator change) with
/// `cargo test --release -p vsv-repro --test golden_workloads -- --nocapture print_long_digests --ignored`.
#[test]
fn pinned_long_twin_digests() {
    for (name, expected) in long_pinned_table() {
        let got = stream_digest(name, LONG_STREAM);
        assert_eq!(
            got, expected,
            "{name}'s long instruction stream changed — recalibrate or revert \
             (new digest: {got:#018x})"
        );
    }
}

#[test]
#[ignore = "helper: prints the digest table for updating long_pinned_table()"]
fn print_long_digests() {
    for (name, _) in long_pinned_table() {
        println!("(\"{name}\", {:#018x}),", stream_digest(name, LONG_STREAM));
    }
}

/// Instructions per long-stream digest.
const LONG_STREAM: usize = 200_000;

/// crafty, gcc and vortex have 48 KB code footprints, eon and mesa
/// 32 KB; mcf is the memory-bound reference.
fn long_pinned_table() -> Vec<(&'static str, u64)> {
    vec![
        ("crafty", 0x0dc89418ab3d9b9f),
        ("gcc", 0xb6eaacbcbd826605),
        ("vortex", 0x070d620036106ad0),
        ("eon", 0x3009f04ce34c7448),
        ("mesa", 0x415c96564837d6d2),
        ("mcf", 0x819f1cf2c1004c37),
    ]
}

#[allow(clippy::vec_init_then_push)]
fn pinned_table() -> Vec<(&'static str, u64)> {
    vec![
        ("ammp", 0x790106007e470b6b),
        ("applu", 0xad9ce18813a0f70f),
        ("apsi", 0xaf5122194f9dd5f7),
        ("art", 0x91b1046d170afaf5),
        ("bzip2", 0x87ac057127259404),
        ("crafty", 0x1ba418f69c9336d2),
        ("eon", 0x5c949e0d663eacb8),
        ("equake", 0x8dfd24cc0ce8cda2),
        ("facerec", 0xe78a9ab7d2264ecc),
        ("fma3d", 0xa60dd1bd4507e3d0),
        ("galgel", 0xd8c287c49c6b0221),
        ("gap", 0xaf3287ae501e48ce),
        ("gcc", 0x7bfb72d9cd632a7d),
        ("gzip", 0xa62402957bb799e1),
        ("lucas", 0xcb5e7ec44f68188b),
        ("mcf", 0xfe54a81ce1876f90),
        ("mesa", 0x89b1170e6e1086cc),
        ("mgrid", 0x1fab3b442cf53aba),
        ("parser", 0x7d02387238a4717a),
        ("perlbmk", 0xf547b6258d5245e7),
        ("sixtrack", 0x3b683c8733ebf75c),
        ("swim", 0x04ecbf7e0c9519ad),
        ("twolf", 0x5760d86b9f8dbecd),
        ("vortex", 0x79a80afde5236ce3),
        ("vpr", 0xb5facc016733a7cb),
        ("wupwise", 0xebeeb62f9ab6f5ee),
    ]
}
