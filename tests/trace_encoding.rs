//! The JSONL trace encoder's contract (`docs/observability.md`):
//!
//! 1. for every [`TraceEvent`] variant, the bytes a [`JsonlSink`]
//!    writes equal `serde_json::to_string(event)` plus `"\n"` — the
//!    serde derive stays the reference and the parser
//!    (`trace summarize` reads lines back with it);
//! 2. the trace bytes a traced run returns are exactly sized: capacity
//!    equals length for single-core runs, multicore runs and every
//!    per-cell buffer of a traced sweep, and every line parses back.

use vsv::{
    Experiment, FsmId, JsonlSink, Mode, SharedBuf, Sweep, SystemConfig, TraceEvent, TraceLevel,
    TraceSink,
};
use vsv_workloads::twin;

/// Strings that exercise every escape the encoder must reproduce.
const STRINGS: [&str; 7] = [
    "",
    "gzip",
    "quote \" and backslash \\",
    "controls \n\r\t \u{0} \u{8} \u{c} \u{1b} \u{1f} del \u{7f}",
    "non-ASCII é ß 日本 😀",
    "\"\\\"",
    "\u{1}",
];

/// Edge-case instances of `seed`'s variant, then a seed of the next
/// variant in declaration order (`None` after the last). The match is
/// exhaustive, so a new variant does not compile until it has cases
/// here and a place in the chain.
fn cases_then_next(seed: &TraceEvent) -> (Vec<TraceEvent>, Option<TraceEvent>) {
    const MAX: u64 = u64::MAX;
    match seed {
        TraceEvent::JobStart { .. } => (
            STRINGS
                .iter()
                .enumerate()
                .flat_map(|(i, s)| {
                    [
                        TraceEvent::JobStart {
                            job: i as u64,
                            workload: (*s).to_owned(),
                            policy: "dual-fsm".to_owned(),
                            config_digest: "0123456789abcdef".to_owned(),
                        },
                        TraceEvent::JobStart {
                            job: MAX,
                            workload: "mcf".to_owned(),
                            policy: (*s).to_owned(),
                            config_digest: (*s).to_owned(),
                        },
                    ]
                })
                .collect(),
            Some(TraceEvent::CoreStart { core: 0 }),
        ),
        TraceEvent::CoreStart { .. } => (
            [0, 1, 9, 10, MAX]
                .map(|core| TraceEvent::CoreStart { core })
                .to_vec(),
            Some(TraceEvent::ModeEntered {
                at: 0,
                mode: Mode::High,
                vdd_mv: 0,
            }),
        ),
        TraceEvent::ModeEntered { .. } => (
            Mode::ALL
                .iter()
                .zip([0, 1, 1200, 1800, 4_294_967_294, u32::MAX])
                .map(|(&mode, vdd_mv)| TraceEvent::ModeEntered {
                    at: MAX,
                    mode,
                    vdd_mv,
                })
                .collect(),
            Some(TraceEvent::FsmArmed {
                at: 0,
                fsm: FsmId::Down,
            }),
        ),
        TraceEvent::FsmArmed { .. } => (
            fsm_cases(|at, fsm| TraceEvent::FsmArmed { at, fsm }),
            Some(TraceEvent::FsmFired {
                at: 0,
                fsm: FsmId::Down,
            }),
        ),
        TraceEvent::FsmFired { .. } => (
            fsm_cases(|at, fsm| TraceEvent::FsmFired { at, fsm }),
            Some(TraceEvent::FsmExpired {
                at: 0,
                fsm: FsmId::Down,
            }),
        ),
        TraceEvent::FsmExpired { .. } => (
            fsm_cases(|at, fsm| TraceEvent::FsmExpired { at, fsm }),
            Some(TraceEvent::MissDetected {
                at: 0,
                demand: false,
                earliest_return: None,
            }),
        ),
        TraceEvent::MissDetected { .. } => (
            [None, Some(0), Some(120), Some(MAX)]
                .into_iter()
                .flat_map(|earliest_return| {
                    [false, true].map(|demand| TraceEvent::MissDetected {
                        at: MAX,
                        demand,
                        earliest_return,
                    })
                })
                .collect(),
            Some(TraceEvent::MissReturned {
                at: 0,
                demand: false,
                outstanding_demand: 0,
            }),
        ),
        TraceEvent::MissReturned { .. } => (
            [false, true]
                .map(|demand| TraceEvent::MissReturned {
                    at: MAX,
                    demand,
                    outstanding_demand: MAX,
                })
                .to_vec(),
            Some(TraceEvent::FastForward {
                from: 0,
                to: 0,
                edges: 0,
            }),
        ),
        TraceEvent::FastForward { .. } => (
            vec![
                TraceEvent::FastForward {
                    from: 0,
                    to: 0,
                    edges: 0,
                },
                TraceEvent::FastForward {
                    from: 99,
                    to: MAX,
                    edges: MAX,
                },
            ],
            Some(TraceEvent::WindowClosed {
                at: 0,
                instructions: 0,
                issue_buckets: [0; 9],
            }),
        ),
        TraceEvent::WindowClosed { .. } => (
            vec![
                TraceEvent::WindowClosed {
                    at: 0,
                    instructions: 0,
                    issue_buckets: [0; 9],
                },
                TraceEvent::WindowClosed {
                    at: MAX,
                    instructions: MAX,
                    issue_buckets: [MAX, 1, 10, 100, 1000, 9, 99, 999, MAX],
                },
            ],
            Some(TraceEvent::ReadError { at: 0, attempt: 0 }),
        ),
        TraceEvent::ReadError { .. } => (
            [0, 1, u8::MAX]
                .map(|attempt| TraceEvent::ReadError { at: MAX, attempt })
                .to_vec(),
            Some(TraceEvent::RetryExhausted { at: 0, retries: 0 }),
        ),
        TraceEvent::RetryExhausted { .. } => (
            [0, 3, u8::MAX]
                .map(|retries| TraceEvent::RetryExhausted { at: MAX, retries })
                .to_vec(),
            Some(TraceEvent::BackoffEngaged { at: 0 }),
        ),
        TraceEvent::BackoffEngaged { .. } => (
            [0, MAX]
                .map(|at| TraceEvent::BackoffEngaged { at })
                .to_vec(),
            Some(TraceEvent::RequestArrived { at: 0, queued: 0 }),
        ),
        TraceEvent::RequestArrived { .. } => (
            [1, MAX]
                .map(|queued| TraceEvent::RequestArrived { at: MAX, queued })
                .to_vec(),
            Some(TraceEvent::RequestCompleted {
                at: 0,
                wait_ns: 0,
                latency_ns: 0,
            }),
        ),
        TraceEvent::RequestCompleted { .. } => (
            vec![
                TraceEvent::RequestCompleted {
                    at: 0,
                    wait_ns: 0,
                    latency_ns: 0,
                },
                TraceEvent::RequestCompleted {
                    at: MAX,
                    wait_ns: MAX,
                    latency_ns: MAX,
                },
            ],
            Some(TraceEvent::BurstStart { at: 0 }),
        ),
        TraceEvent::BurstStart { .. } => (
            [0, MAX].map(|at| TraceEvent::BurstStart { at }).to_vec(),
            Some(TraceEvent::Sample {
                at: 0,
                mode: Mode::High,
                vdd_mv: 0,
                edge: false,
            }),
        ),
        TraceEvent::Sample { .. } => (
            Mode::ALL
                .iter()
                .flat_map(|&mode| {
                    [(false, 0), (true, u32::MAX)].map(|(edge, vdd_mv)| TraceEvent::Sample {
                        at: MAX,
                        mode,
                        vdd_mv,
                        edge,
                    })
                })
                .collect(),
            None,
        ),
    }
}

/// An FSM event for both monitors at the extreme times.
fn fsm_cases(make: impl Fn(u64, FsmId) -> TraceEvent) -> Vec<TraceEvent> {
    [FsmId::Down, FsmId::Up]
        .into_iter()
        .flat_map(|fsm| [0, 7, u64::MAX].map(|at| make(at, fsm)))
        .collect()
}

/// Every case of every variant, walking the chain from `JobStart`.
fn all_cases() -> Vec<TraceEvent> {
    let mut kinds = Vec::new();
    let mut cases = Vec::new();
    let mut seed = Some(TraceEvent::JobStart {
        job: 0,
        workload: String::new(),
        policy: String::new(),
        config_digest: String::new(),
    });
    while let Some(event) = seed {
        assert!(
            !kinds.contains(&event.kind()),
            "the chain revisits {}",
            event.kind()
        );
        kinds.push(event.kind());
        let (mut of_kind, next) = cases_then_next(&event);
        assert!(!of_kind.is_empty(), "{} has no cases", event.kind());
        assert!(
            of_kind.iter().all(|c| c.kind() == event.kind()),
            "{} cases of another variant",
            event.kind()
        );
        cases.append(&mut of_kind);
        seed = next;
    }
    cases
}

/// The reference bytes: the serde derive through `serde_json`.
fn reference_line(event: &TraceEvent) -> Vec<u8> {
    let mut line = serde_json::to_string(event).expect("trace events serialize");
    line.push('\n');
    line.into_bytes()
}

#[test]
fn encoder_bytes_equal_serde_json_for_every_variant() {
    let cases = all_cases();
    let mut expected = Vec::new();
    for event in &cases {
        let buf = SharedBuf::default();
        let mut sink = JsonlSink::new(buf.clone());
        sink.record(event);
        let want = reference_line(event);
        assert_eq!(
            String::from_utf8_lossy(&buf.take()),
            String::from_utf8_lossy(&want),
            "encoder differs from serde_json on {event:?}"
        );
        expected.extend_from_slice(&want);
    }
    // One sink across every case: its reused line buffer must not leak
    // bytes from one event into the next.
    let buf = SharedBuf::default();
    let mut sink = JsonlSink::new(buf.clone());
    for event in &cases {
        sink.record(event);
    }
    sink.flush();
    assert!(sink.error().is_none());
    assert_eq!(buf.take(), expected);
}

#[test]
fn every_encoded_case_parses_back_to_itself() {
    for event in all_cases() {
        let buf = SharedBuf::default();
        JsonlSink::new(buf.clone()).record(&event);
        let bytes = buf.take();
        let line = std::str::from_utf8(&bytes).expect("UTF-8 line");
        let back: TraceEvent = serde_json::from_str(line.trim_end_matches('\n'))
            .unwrap_or_else(|err| panic!("{err:?}: {line}"));
        assert_eq!(back, event);
    }
}

fn experiment() -> Experiment {
    Experiment {
        warmup_instructions: 5_000,
        instructions: 20_000,
    }
}

/// Asserts `bytes` is exactly sized and every line parses as an event.
fn assert_exact_and_parses(what: &str, bytes: &[u8], capacity: usize) {
    assert!(!bytes.is_empty(), "{what}: no trace bytes");
    assert_eq!(capacity, bytes.len(), "{what}: capacity != length");
    let text = std::str::from_utf8(bytes).expect("trace is UTF-8");
    for (i, line) in text.lines().enumerate() {
        serde_json::from_str::<TraceEvent>(line)
            .unwrap_or_else(|err| panic!("{what} line {}: {err:?}: {line}", i + 1));
    }
}

#[test]
fn traced_runs_return_exactly_sized_bytes() {
    let params = twin("mcf").expect("mcf exists");
    for cores in [1, 2] {
        let cfg = SystemConfig::vsv_with_fsms().with_cores(cores);
        let (_, _, bytes) = experiment()
            .try_run_traced(&params, cfg, TraceLevel::Events, None)
            .expect("traced run");
        assert_exact_and_parses(&format!("{cores}-core run"), &bytes, bytes.capacity());
    }
}

#[test]
fn traced_sweep_buffers_are_exactly_sized() {
    let sweep = Sweep::over_grid(
        experiment(),
        &[
            twin("mcf").expect("mcf exists"),
            twin("gzip").expect("gzip exists"),
        ],
        &[
            SystemConfig::vsv_with_fsms(),
            SystemConfig::vsv_with_fsms().with_cores(2),
        ],
    );
    let (report, traces) = sweep.report_traced(2, TraceLevel::Events);
    assert_eq!(report.failed_jobs(), 0);
    for (i, t) in traces.iter().enumerate() {
        assert_exact_and_parses(&format!("cell {i}"), t, t.capacity());
    }
}
