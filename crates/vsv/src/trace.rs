//! Structured tracing: typed [`TraceEvent`]s delivered to a pluggable
//! [`TraceSink`].
//!
//! Tracing is off by default and costs one branch per step while off.
//! It is enabled with [`crate::System::set_event_sink`] at a chosen
//! [`TraceLevel`]. The per-nanosecond timeline behind Figure 2/3-style
//! plots is the [`TraceLevel::Full`] stream of [`TraceEvent::Sample`]s,
//! kept in a bounded [`ModeTrace`] sink. Event emission sites and the
//! full field-by-field schema are documented in `docs/observability.md`.
//!
//! Determinism contract: for a fixed configuration and experiment
//! scale, the event stream is a pure function of the simulation — the
//! JSONL a [`JsonlSink`] writes is byte-identical across runs and
//! across sweep worker counts (`tests/trace_determinism.rs` pins
//! this).

use crate::controller::Mode;

/// Verbosity of the structured event stream. Levels are cumulative:
/// each includes everything below it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceLevel {
    /// Mode entries and window closes only — enough to reconstruct a
    /// residency timeline.
    Transitions,
    /// Plus FSM arm/fire/expiry, L2 miss detect/return, and
    /// fast-forward batches (the default for `--trace`).
    Events,
    /// Plus one [`TraceEvent::Sample`] per simulated nanosecond.
    /// Expensive; for short diagnostic windows.
    Full,
}

impl TraceLevel {
    /// The stable command-line spelling.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            TraceLevel::Transitions => "transitions",
            TraceLevel::Events => "events",
            TraceLevel::Full => "full",
        }
    }

    /// Parses a command-line spelling ([`TraceLevel::name`]).
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        [
            TraceLevel::Transitions,
            TraceLevel::Events,
            TraceLevel::Full,
        ]
        .into_iter()
        .find(|l| l.name() == s)
    }
}

/// Which issue-rate monitor an FSM event refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum FsmId {
    /// The high→low monitor ([`crate::DownFsm`]).
    Down,
    /// The low→high monitor ([`crate::UpFsm`]).
    Up,
}

/// One structured trace event. All times are simulated nanoseconds;
/// voltages are millivolts (integers, so JSONL bytes are
/// float-formatting-proof). See `docs/observability.md` for the
/// emission site of every variant.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum TraceEvent {
    /// Start-of-job marker a sweep writes before a job's events, so a
    /// concatenated multi-job JSONL file is self-describing.
    JobStart {
        /// Grid index of the job.
        job: u64,
        /// Workload name.
        workload: String,
        /// DVS policy name (`"disabled"` for the baseline).
        policy: String,
        /// FNV-1a digest of the job's `SystemConfig`
        /// ([`crate::config_digest`]).
        config_digest: String,
    },
    /// Start-of-core marker heading one core's events inside a
    /// multicore job's trace: every event after it (until the next
    /// `CoreStart` or the end of the job) belongs to voltage domain
    /// `core`. Single-core traces never contain one, so their byte
    /// streams are unchanged from the pre-multicore format.
    CoreStart {
        /// Core (voltage-domain) index, `0..cores`.
        core: u64,
    },
    /// The controller entered `mode` at time `at` (every Figure 2/3
    /// sub-phase appears: distribute, ramp, steady).
    ModeEntered {
        /// Entry time (ns).
        at: u64,
        /// The mode entered.
        mode: Mode,
        /// Variable-domain supply at entry, millivolts.
        vdd_mv: u32,
    },
    /// An issue-rate monitor armed (started watching for its
    /// trigger condition).
    FsmArmed {
        /// Arm time (ns).
        at: u64,
        /// Which monitor.
        fsm: FsmId,
    },
    /// The policy fired a transition decision (maps to
    /// [`crate::PolicyStats`] trigger counters).
    FsmFired {
        /// Fire time (ns).
        at: u64,
        /// Which monitor (down = ramp-down decision, up = ramp-up).
        fsm: FsmId,
    },
    /// A monitoring opportunity expired without firing (maps to
    /// [`crate::PolicyStats`] expiry counters).
    FsmExpired {
        /// Expiry time (ns).
        at: u64,
        /// Which monitor.
        fsm: FsmId,
    },
    /// An L2 miss was detected, one hit-latency after reaching the
    /// L2 (mirrors `vsv_mem::VsvSignal::L2MissDetected`).
    MissDetected {
        /// Detection time (ns).
        at: u64,
        /// Whether a demand access waits on the miss.
        demand: bool,
        /// Provable lower bound on the return time (simulator
        /// knowledge; `None` when the L2 MSHR file was full).
        earliest_return: Option<u64>,
    },
    /// An L2 miss's data returned to the processor.
    MissReturned {
        /// Return time (ns).
        at: u64,
        /// Whether a demand access was waiting on the miss.
        demand: bool,
        /// Demand misses still outstanding after this return.
        outstanding_demand: u64,
    },
    /// A quiescent-stall fast-forward batch: time jumped from `from`
    /// to `to` with `edges` idle pipeline edges batch-applied.
    FastForward {
        /// First skipped nanosecond.
        from: u64,
        /// First nanosecond *not* skipped.
        to: u64,
        /// Idle pipeline edges in the window.
        edges: u64,
    },
    /// A measurement window closed.
    WindowClosed {
        /// Close time (ns).
        at: u64,
        /// Instructions committed in the window.
        instructions: u64,
        /// The window's per-cycle issue histogram
        /// (`vsv_uarch::IssueHistogram::buckets` delta; `[8]` = 8 or
        /// wider).
        issue_buckets: [u64; 9],
    },
    /// A low-voltage cache read erred and will retry
    /// (`vsv_mem::ReadErrorEvent` with retries remaining).
    ReadError {
        /// When the erroneous delivery was attempted (ns).
        at: u64,
        /// Zero-based attempt number that failed.
        attempt: u8,
    },
    /// A read burned its whole retry budget; the run escalates to
    /// [`crate::SimError::UnrecoverableRead`].
    RetryExhausted {
        /// When the final attempt failed (ns).
        at: u64,
        /// Retries attempted before escalation.
        retries: u8,
    },
    /// The `error-backoff` policy engaged: the windowed retry rate
    /// crossed its threshold, so the policy climbs to its engage rung
    /// (the ladder midpoint; VDDH on two rails) and clamps dives to
    /// that rung until the cool-down re-arms it.
    BackoffEngaged {
        /// Engagement time (ns).
        at: u64,
    },
    /// One open-loop request arrived (traffic scenarios only; see
    /// `vsv_workloads::TrafficSpec`).
    RequestArrived {
        /// Arrival time (ns).
        at: u64,
        /// Queue depth including this request (1 = went straight
        /// into service).
        queued: u64,
    },
    /// One open-loop request finished service.
    RequestCompleted {
        /// Completion time (ns).
        at: u64,
        /// Nanoseconds spent queued before service began.
        wait_ns: u64,
        /// Total arrival → completion latency (ns); the arrival time
        /// is `at - latency_ns`.
        latency_ns: u64,
    },
    /// An MMPP ON (burst) phase began.
    BurstStart {
        /// Phase-boundary time (ns).
        at: u64,
    },
    /// One nanosecond of controller state ([`TraceLevel::Full`]
    /// only); a [`ModeTrace`] keeps these as [`TraceSample`]s.
    Sample {
        /// Simulation time (ns).
        at: u64,
        /// Controller mode.
        mode: Mode,
        /// Effective variable-domain supply, millivolts.
        vdd_mv: u32,
        /// Whether a pipeline clock edge fired.
        edge: bool,
    },
}

impl TraceEvent {
    /// The minimum [`TraceLevel`] at which this event is emitted.
    #[must_use]
    pub fn level(&self) -> TraceLevel {
        match self {
            TraceEvent::JobStart { .. }
            | TraceEvent::CoreStart { .. }
            | TraceEvent::ModeEntered { .. }
            | TraceEvent::WindowClosed { .. } => TraceLevel::Transitions,
            TraceEvent::FsmArmed { .. }
            | TraceEvent::FsmFired { .. }
            | TraceEvent::FsmExpired { .. }
            | TraceEvent::MissDetected { .. }
            | TraceEvent::MissReturned { .. }
            | TraceEvent::FastForward { .. }
            | TraceEvent::ReadError { .. }
            | TraceEvent::RetryExhausted { .. }
            | TraceEvent::BackoffEngaged { .. }
            | TraceEvent::RequestArrived { .. }
            | TraceEvent::RequestCompleted { .. }
            | TraceEvent::BurstStart { .. } => TraceLevel::Events,
            TraceEvent::Sample { .. } => TraceLevel::Full,
        }
    }

    /// The stable variant name (the JSONL object key).
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::JobStart { .. } => "JobStart",
            TraceEvent::CoreStart { .. } => "CoreStart",
            TraceEvent::ModeEntered { .. } => "ModeEntered",
            TraceEvent::FsmArmed { .. } => "FsmArmed",
            TraceEvent::FsmFired { .. } => "FsmFired",
            TraceEvent::FsmExpired { .. } => "FsmExpired",
            TraceEvent::MissDetected { .. } => "MissDetected",
            TraceEvent::MissReturned { .. } => "MissReturned",
            TraceEvent::FastForward { .. } => "FastForward",
            TraceEvent::WindowClosed { .. } => "WindowClosed",
            TraceEvent::ReadError { .. } => "ReadError",
            TraceEvent::RetryExhausted { .. } => "RetryExhausted",
            TraceEvent::BackoffEngaged { .. } => "BackoffEngaged",
            TraceEvent::RequestArrived { .. } => "RequestArrived",
            TraceEvent::RequestCompleted { .. } => "RequestCompleted",
            TraceEvent::BurstStart { .. } => "BurstStart",
            TraceEvent::Sample { .. } => "Sample",
        }
    }
}

/// Converts a supply voltage in volts to integer millivolts (the
/// trace-schema representation).
#[must_use]
pub fn vdd_mv(vdd: f64) -> u32 {
    let mv = (vdd * 1000.0).round();
    if mv <= 0.0 {
        0
    } else if mv >= f64::from(u32::MAX) {
        u32::MAX
    } else {
        // Rounded and range-checked just above.
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        {
            mv as u32
        }
    }
}

/// A destination for [`TraceEvent`]s. Implementations must be cheap
/// per call — the simulator records events from inside its stepping
/// loop (though only at event sites, never per nanosecond below
/// [`TraceLevel::Full`]).
pub trait TraceSink: Send + std::fmt::Debug {
    /// Receives one event. Level filtering has already happened: the
    /// sink sees exactly the events at or below the configured
    /// [`TraceLevel`].
    fn record(&mut self, event: &TraceEvent);

    /// Flushes any buffered output (called when the sink is detached;
    /// a no-op for in-memory sinks).
    fn flush(&mut self) {}
}

/// Discards every event: the control sink for proving that
/// instrumentation leaves simulated results bit-identical
/// (`tests/trace_determinism.rs::null_sink_is_transparent`).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn record(&mut self, _event: &TraceEvent) {}
}

/// A shareable, unbounded in-memory [`TraceSink`] of *typed* events:
/// clones share one buffer (as [`SharedBuf`] and [`ModeTrace`] do), so
/// hand a clone to the simulator, keep one handle, and
/// [`EventBuf::take`] the events after the run. The multicore runner
/// uses one per core to capture each voltage domain's stream, then
/// replays them — each headed by a [`TraceEvent::CoreStart`] marker —
/// into the caller's single sink.
#[derive(Debug, Clone, Default)]
pub struct EventBuf(std::sync::Arc<std::sync::Mutex<Vec<TraceEvent>>>);

impl EventBuf {
    fn events(&self) -> std::sync::MutexGuard<'_, Vec<TraceEvent>> {
        self.0
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Takes the accumulated events, leaving the buffer empty.
    #[must_use]
    pub fn take(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut *self.events())
    }
}

impl TraceSink for EventBuf {
    fn record(&mut self, event: &TraceEvent) {
        self.events().push(event.clone());
    }
}

/// A shareable in-memory byte buffer implementing [`std::io::Write`]:
/// hand a clone to a [`JsonlSink`] moved into the simulator, keep one
/// handle, and [`SharedBuf::take`] the bytes after the run.
#[derive(Debug, Clone, Default)]
pub struct SharedBuf(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);

impl SharedBuf {
    /// A buffer that appends to `bytes` (reusing its capacity).
    pub(crate) fn with_buffer(bytes: Vec<u8>) -> Self {
        SharedBuf(std::sync::Arc::new(std::sync::Mutex::new(bytes)))
    }

    /// Takes the accumulated bytes, leaving the buffer empty.
    #[must_use]
    pub fn take(&self) -> Vec<u8> {
        match self.0.lock() {
            Ok(mut b) => std::mem::take(&mut *b),
            Err(poisoned) => std::mem::take(&mut *poisoned.into_inner()),
        }
    }

    /// Bytes accumulated so far.
    #[must_use]
    pub fn len(&self) -> usize {
        match self.0.lock() {
            Ok(b) => b.len(),
            Err(poisoned) => poisoned.into_inner().len(),
        }
    }

    /// Whether the buffer is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl std::io::Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self.0.lock() {
            Ok(mut b) => b.extend_from_slice(buf),
            Err(poisoned) => poisoned.into_inner().extend_from_slice(buf),
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Writes one JSON object per event, newline-terminated (JSONL). The
/// serialization is deterministic, so for a fixed configuration the
/// emitted bytes are identical across runs and worker counts.
///
/// Each event is encoded straight into a line buffer the sink reuses
/// and handed to the writer in one `write_all`: no intermediate value
/// tree and no per-event allocation. The bytes equal
/// `serde_json::to_string(event)` plus `"\n"` for every event
/// (`tests/trace_encoding.rs` pins this variant by variant), so
/// consumers parse lines back with the serde derive.
///
/// Write failures are latched into [`JsonlSink::error`] instead of
/// panicking (the simulator must not die because a trace disk filled
/// up); subsequent events are dropped.
pub struct JsonlSink<W: std::io::Write + Send> {
    writer: W,
    line: Vec<u8>,
    error: Option<String>,
}

impl<W: std::io::Write + Send> JsonlSink<W> {
    /// Builds the sink over a writer.
    #[must_use]
    pub fn new(writer: W) -> Self {
        JsonlSink {
            writer,
            line: Vec::new(),
            error: None,
        }
    }

    /// The first write error, if any occurred.
    #[must_use]
    pub fn error(&self) -> Option<&str> {
        self.error.as_deref()
    }
}

impl<W: std::io::Write + Send> std::fmt::Debug for JsonlSink<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlSink")
            .field("error", &self.error)
            .finish_non_exhaustive()
    }
}

impl<W: std::io::Write + Send> TraceSink for JsonlSink<W> {
    fn record(&mut self, event: &TraceEvent) {
        if self.error.is_some() {
            return;
        }
        self.line.clear();
        encode_line(event, &mut self.line);
        if let Err(e) = self.writer.write_all(&self.line) {
            self.error = Some(e.to_string());
        }
    }

    fn flush(&mut self) {
        if let Err(e) = self.writer.flush() {
            if self.error.is_none() {
                self.error = Some(e.to_string());
            }
        }
    }
}

/// Appends `event` as one JSONL line: the externally tagged object the
/// serde derive produces (`{"Kind":{"field":value,...}}`, fields in
/// declaration order, unit enums as their variant name), then `\n`.
fn encode_line(event: &TraceEvent, out: &mut Vec<u8>) {
    out.extend_from_slice(b"{\"");
    out.extend_from_slice(event.kind().as_bytes());
    out.extend_from_slice(b"\":{");
    let mut obj = JsonObject { out, first: true };
    match event {
        TraceEvent::JobStart {
            job,
            workload,
            policy,
            config_digest,
        } => {
            obj.u64("job", *job);
            obj.str("workload", workload);
            obj.str("policy", policy);
            obj.str("config_digest", config_digest);
        }
        TraceEvent::CoreStart { core } => obj.u64("core", *core),
        TraceEvent::ModeEntered { at, mode, vdd_mv } => {
            obj.u64("at", *at);
            obj.str("mode", mode_name(*mode));
            obj.u64("vdd_mv", u64::from(*vdd_mv));
        }
        TraceEvent::FsmArmed { at, fsm }
        | TraceEvent::FsmFired { at, fsm }
        | TraceEvent::FsmExpired { at, fsm } => {
            obj.u64("at", *at);
            obj.str("fsm", fsm_name(*fsm));
        }
        TraceEvent::MissDetected {
            at,
            demand,
            earliest_return,
        } => {
            obj.u64("at", *at);
            obj.bool("demand", *demand);
            obj.key("earliest_return");
            match earliest_return {
                Some(ns) => push_u64(obj.out, *ns),
                None => obj.out.extend_from_slice(b"null"),
            }
        }
        TraceEvent::MissReturned {
            at,
            demand,
            outstanding_demand,
        } => {
            obj.u64("at", *at);
            obj.bool("demand", *demand);
            obj.u64("outstanding_demand", *outstanding_demand);
        }
        TraceEvent::FastForward { from, to, edges } => {
            obj.u64("from", *from);
            obj.u64("to", *to);
            obj.u64("edges", *edges);
        }
        TraceEvent::WindowClosed {
            at,
            instructions,
            issue_buckets,
        } => {
            obj.u64("at", *at);
            obj.u64("instructions", *instructions);
            obj.key("issue_buckets");
            let mut sep = b'[';
            for &n in issue_buckets {
                obj.out.push(sep);
                sep = b',';
                push_u64(obj.out, n);
            }
            obj.out.push(b']');
        }
        TraceEvent::ReadError { at, attempt } => {
            obj.u64("at", *at);
            obj.u64("attempt", u64::from(*attempt));
        }
        TraceEvent::RetryExhausted { at, retries } => {
            obj.u64("at", *at);
            obj.u64("retries", u64::from(*retries));
        }
        TraceEvent::BackoffEngaged { at } | TraceEvent::BurstStart { at } => obj.u64("at", *at),
        TraceEvent::RequestArrived { at, queued } => {
            obj.u64("at", *at);
            obj.u64("queued", *queued);
        }
        TraceEvent::RequestCompleted {
            at,
            wait_ns,
            latency_ns,
        } => {
            obj.u64("at", *at);
            obj.u64("wait_ns", *wait_ns);
            obj.u64("latency_ns", *latency_ns);
        }
        TraceEvent::Sample {
            at,
            mode,
            vdd_mv,
            edge,
        } => {
            obj.u64("at", *at);
            obj.str("mode", mode_name(*mode));
            obj.u64("vdd_mv", u64::from(*vdd_mv));
            obj.bool("edge", *edge);
        }
    }
    obj.out.extend_from_slice(b"}}\n");
}

/// The fields of one JSON object being appended to a line.
struct JsonObject<'a> {
    out: &'a mut Vec<u8>,
    first: bool,
}

impl JsonObject<'_> {
    fn key(&mut self, key: &str) {
        if !self.first {
            self.out.push(b',');
        }
        self.first = false;
        push_str(self.out, key);
        self.out.push(b':');
    }

    fn u64(&mut self, key: &str, n: u64) {
        self.key(key);
        push_u64(self.out, n);
    }

    fn bool(&mut self, key: &str, b: bool) {
        self.key(key);
        self.out
            .extend_from_slice(if b { b"true" as &[u8] } else { b"false" });
    }

    fn str(&mut self, key: &str, s: &str) {
        self.key(key);
        push_str(self.out, s);
    }
}

/// Appends `n` in decimal.
fn push_u64(out: &mut Vec<u8>, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        // A decimal digit always fits a byte.
        #[allow(clippy::cast_possible_truncation)]
        {
            digits[i] = b'0' + (n % 10) as u8;
        }
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[i..]);
}

/// Appends `s` as a JSON string with the vendored `serde_json`'s
/// escapes: `\"`, `\\`, `\n`, `\r`, `\t`, `\u00xx` for the other
/// control characters, everything else verbatim. Working on bytes is
/// exact because every byte of a multi-byte UTF-8 sequence is >= 0x80.
fn push_str(out: &mut Vec<u8>, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push(b'"');
    let bytes = s.as_bytes();
    let mut plain = 0;
    for (i, &b) in bytes.iter().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.extend_from_slice(&bytes[plain..i]);
        plain = i + 1;
        match b {
            b'"' => out.extend_from_slice(b"\\\""),
            b'\\' => out.extend_from_slice(b"\\\\"),
            b'\n' => out.extend_from_slice(b"\\n"),
            b'\r' => out.extend_from_slice(b"\\r"),
            b'\t' => out.extend_from_slice(b"\\t"),
            _ => out.extend_from_slice(&[
                b'\\',
                b'u',
                b'0',
                b'0',
                HEX[usize::from(b >> 4)],
                HEX[usize::from(b & 0xf)],
            ]),
        }
    }
    out.extend_from_slice(&bytes[plain..]);
    out.push(b'"');
}

/// [`Mode`]'s serde variant name.
fn mode_name(mode: Mode) -> &'static str {
    match mode {
        Mode::High => "High",
        Mode::DownDistribute => "DownDistribute",
        Mode::RampDown => "RampDown",
        Mode::Low => "Low",
        Mode::UpDistribute => "UpDistribute",
        Mode::RampUp => "RampUp",
    }
}

/// [`FsmId`]'s serde variant name.
fn fsm_name(fsm: FsmId) -> &'static str {
    match fsm {
        FsmId::Down => "Down",
        FsmId::Up => "Up",
    }
}

/// One nanosecond of controller state, as a [`TraceEvent::Sample`]
/// carries it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSample {
    /// Simulation time, nanoseconds.
    pub ns: u64,
    /// Controller mode during this nanosecond.
    pub mode: Mode,
    /// Effective variable-domain supply, millivolts.
    pub vdd_mv: u32,
    /// Whether a pipeline clock edge fired this nanosecond.
    pub edge: bool,
}

/// A bounded ring of the [`TraceLevel::Full`] stream's
/// [`TraceEvent::Sample`]s, behind Figure 2/3-style timelines: a
/// [`TraceSink`] that keeps only samples and drops the oldest once
/// `capacity` are held. Like [`SharedBuf`], a clone is a handle on the
/// same ring: attach one clone to the simulator and read the samples
/// back through another.
///
/// # Examples
///
/// ```
/// use vsv::{Mode, ModeTrace, TraceEvent, TraceSink};
///
/// let trace = ModeTrace::new(2);
/// let mut sink = trace.clone();
/// for at in 0..3 {
///     sink.record(&TraceEvent::Sample { at, mode: Mode::High, vdd_mv: 1800, edge: true });
/// }
/// let samples: Vec<_> = trace.samples().iter().map(|s| s.ns).collect();
/// assert_eq!(samples, vec![1, 2], "oldest sample dropped");
/// ```
#[derive(Debug, Clone)]
pub struct ModeTrace(std::sync::Arc<std::sync::Mutex<SampleRing>>);

#[derive(Debug, PartialEq)]
struct SampleRing {
    samples: std::collections::VecDeque<TraceSample>,
    capacity: usize,
    dropped: u64,
}

impl ModeTrace {
    /// Creates a trace holding at most `capacity` samples. The ring
    /// grows as samples arrive.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "trace capacity must be nonzero");
        ModeTrace(std::sync::Arc::new(std::sync::Mutex::new(SampleRing {
            samples: std::collections::VecDeque::new(),
            capacity,
            dropped: 0,
        })))
    }

    fn ring(&self) -> std::sync::MutexGuard<'_, SampleRing> {
        self.0
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// The retained samples, oldest → newest.
    #[must_use]
    pub fn samples(&self) -> Vec<TraceSample> {
        self.ring().samples.iter().copied().collect()
    }

    /// Samples currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ring().samples.len()
    }

    /// Whether no samples are held.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Samples dropped off the front so far.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.ring().dropped
    }

    /// Renders the retained window as a compact one-char-per-ns strip:
    /// `H` high, `d`/`D` down-distribute/ramp-down, `L` low,
    /// `u`/`U` up-distribute/ramp-up. Useful in test failures and
    /// debugging sessions.
    #[must_use]
    pub fn strip(&self) -> String {
        self.ring()
            .samples
            .iter()
            .map(|s| s.mode.strip_char())
            .collect()
    }
}

/// Two traces are equal when they hold the same samples, capacity and
/// drop count (a trace always equals its own clones).
impl PartialEq for ModeTrace {
    fn eq(&self, other: &Self) -> bool {
        std::sync::Arc::ptr_eq(&self.0, &other.0) || *self.ring() == *other.ring()
    }
}

impl TraceSink for ModeTrace {
    fn record(&mut self, event: &TraceEvent) {
        if let TraceEvent::Sample {
            at,
            mode,
            vdd_mv,
            edge,
        } = *event
        {
            let mut ring = self.ring();
            if ring.samples.len() == ring.capacity {
                ring.samples.pop_front();
                ring.dropped += 1;
            }
            ring.samples.push_back(TraceSample {
                ns: at,
                mode,
                vdd_mv,
                edge,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(at: u64, mode: Mode) -> TraceEvent {
        TraceEvent::Sample {
            at,
            mode,
            vdd_mv: 1800,
            edge: true,
        }
    }

    #[test]
    fn mode_trace_keeps_only_samples_and_caps_with_drop_count() {
        let trace = ModeTrace::new(3);
        let mut sink = trace.clone();
        for at in 0..10 {
            sink.record(&sample(at, Mode::High));
            sink.record(&TraceEvent::FsmFired {
                at,
                fsm: FsmId::Down,
            });
        }
        assert_eq!(trace.len(), 3);
        assert_eq!(trace.dropped(), 7);
        let ns: Vec<u64> = trace.samples().iter().map(|s| s.ns).collect();
        assert_eq!(ns, vec![7, 8, 9]);
        assert_eq!(trace, sink, "a clone is a handle on the same ring");
    }

    #[test]
    fn strip_renders_one_char_per_sample() {
        let mut t = ModeTrace::new(8);
        for (at, m) in [
            (0, Mode::High),
            (1, Mode::DownDistribute),
            (2, Mode::RampDown),
            (3, Mode::Low),
            (4, Mode::UpDistribute),
            (5, Mode::RampUp),
        ] {
            t.record(&sample(at, m));
        }
        assert_eq!(t.strip(), "HdDLuU");
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_capacity_panics() {
        let _ = ModeTrace::new(0);
    }
}

#[cfg(test)]
mod event_tests {
    use super::*;

    fn fired(at: u64) -> TraceEvent {
        TraceEvent::FsmFired {
            at,
            fsm: FsmId::Down,
        }
    }

    #[test]
    fn levels_are_cumulative_and_parse_round_trips() {
        assert!(TraceLevel::Transitions < TraceLevel::Events);
        assert!(TraceLevel::Events < TraceLevel::Full);
        for l in [
            TraceLevel::Transitions,
            TraceLevel::Events,
            TraceLevel::Full,
        ] {
            assert_eq!(TraceLevel::parse(l.name()), Some(l));
        }
        assert_eq!(TraceLevel::parse("verbose"), None);
    }

    #[test]
    fn event_levels_and_kinds_are_consistent() {
        let sample = TraceEvent::Sample {
            at: 0,
            mode: Mode::High,
            vdd_mv: 1800,
            edge: true,
        };
        assert_eq!(sample.level(), TraceLevel::Full);
        assert_eq!(sample.kind(), "Sample");
        let entered = TraceEvent::ModeEntered {
            at: 4,
            mode: Mode::RampDown,
            vdd_mv: 1800,
        };
        assert_eq!(entered.level(), TraceLevel::Transitions);
        assert_eq!(fired(9).level(), TraceLevel::Events);
    }

    #[test]
    fn vdd_mv_rounds_to_millivolts() {
        assert_eq!(vdd_mv(1.8), 1800);
        assert_eq!(vdd_mv(1.2), 1200);
        assert_eq!(vdd_mv(1.2345), 1235);
        assert_eq!(vdd_mv(-0.5), 0);
    }

    #[test]
    fn null_sink_discards() {
        let mut null = NullSink;
        null.record(&fired(1));
        null.flush();
    }

    #[test]
    fn shared_buf_takes_written_bytes() {
        use std::io::Write as _;
        let buf = SharedBuf::default();
        let mut handle = buf.clone();
        handle.write_all(b"hello").expect("in-memory write");
        assert_eq!(buf.len(), 5);
        assert_eq!(buf.take(), b"hello");
        assert!(buf.is_empty());
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_event_and_round_trips() {
        let buf = SharedBuf::default();
        let mut sink = JsonlSink::new(buf.clone());
        sink.record(&fired(7));
        sink.record(&TraceEvent::MissDetected {
            at: 9,
            demand: true,
            earliest_return: Some(120),
        });
        sink.flush();
        assert!(sink.error().is_none());
        let text = String::from_utf8(buf.take()).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let back: TraceEvent = serde_json::from_str(lines[1]).expect("parses");
        assert_eq!(
            back,
            TraceEvent::MissDetected {
                at: 9,
                demand: true,
                earliest_return: Some(120),
            }
        );
    }
}
