//! Structured tracing: typed [`TraceEvent`]s delivered to a pluggable
//! [`TraceSink`], plus the original bounded per-nanosecond
//! [`ModeTrace`] ring behind Figure 2/3-style timeline plots.
//!
//! Both layers are off by default and cost nothing while off. The
//! event layer is enabled with [`crate::System::set_event_sink`] at a
//! chosen [`TraceLevel`]; the sample ring with
//! [`crate::System::enable_trace`]. Event emission sites and the full
//! field-by-field schema are documented in `docs/observability.md`.
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
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
#[derive(Debug, Clone, PartialEq)]
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
    /// only) — the event-stream twin of [`TraceSample`].
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

/// Discards every event: the zero-cost sink for proving the
/// instrumented hot loop is within noise of the uninstrumented one
/// (`crates/bench/src/bin/throughput.rs` gates this).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn record(&mut self, _event: &TraceEvent) {}
}

/// A bounded in-memory ring of events: long runs keep the most
/// recent window, like [`ModeTrace`] but for the structured stream.
#[derive(Debug, Clone)]
pub struct RingSink {
    events: std::collections::VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

impl RingSink {
    /// Creates a ring holding at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be nonzero");
        RingSink {
            events: std::collections::VecDeque::with_capacity(capacity),
            capacity,
            dropped: 0,
        }
    }

    /// Iterates oldest → newest.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Events currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events are held.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events dropped off the front so far.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl TraceSink for RingSink {
    fn record(&mut self, event: &TraceEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event.clone());
    }
}

/// A shareable, unbounded in-memory buffer of *typed* events: hand a
/// clone (as a [`CaptureSink`]) to the simulator, keep one handle, and
/// [`EventBuf::take`] the events after the run. The multicore runner
/// uses one per core to capture each voltage domain's stream, then
/// replays them — each headed by a [`TraceEvent::CoreStart`] marker —
/// into the caller's single sink.
#[derive(Debug, Clone, Default)]
pub struct EventBuf(std::sync::Arc<std::sync::Mutex<Vec<TraceEvent>>>);

impl EventBuf {
    /// Takes the accumulated events, leaving the buffer empty.
    #[must_use]
    pub fn take(&self) -> Vec<TraceEvent> {
        match self.0.lock() {
            Ok(mut b) => std::mem::take(&mut *b),
            Err(poisoned) => std::mem::take(&mut *poisoned.into_inner()),
        }
    }

    /// Events accumulated so far.
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

    fn push(&self, event: TraceEvent) {
        match self.0.lock() {
            Ok(mut b) => b.push(event),
            Err(poisoned) => poisoned.into_inner().push(event),
        }
    }
}

/// A [`TraceSink`] recording every event, in order, into a shared
/// [`EventBuf`].
#[derive(Debug, Clone, Default)]
pub struct CaptureSink(EventBuf);

impl CaptureSink {
    /// A sink writing into `buf`.
    #[must_use]
    pub fn new(buf: EventBuf) -> Self {
        CaptureSink(buf)
    }
}

impl TraceSink for CaptureSink {
    fn record(&mut self, event: &TraceEvent) {
        self.0.push(event.clone());
    }
}

/// A shareable in-memory byte buffer implementing [`std::io::Write`]:
/// hand a clone to a [`JsonlSink`] moved into the simulator, keep one
/// handle, and [`SharedBuf::take`] the bytes after the run.
#[derive(Debug, Clone, Default)]
pub struct SharedBuf(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);

impl SharedBuf {
    /// A buffer that appends to `bytes` (reusing its capacity).
    #[cfg(feature = "serde")]
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
#[cfg(feature = "serde")]
pub struct JsonlSink<W: std::io::Write + Send> {
    writer: W,
    line: Vec<u8>,
    error: Option<String>,
}

#[cfg(feature = "serde")]
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

#[cfg(feature = "serde")]
impl<W: std::io::Write + Send> std::fmt::Debug for JsonlSink<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlSink")
            .field("error", &self.error)
            .finish_non_exhaustive()
    }
}

#[cfg(feature = "serde")]
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
#[cfg(feature = "serde")]
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
#[cfg(feature = "serde")]
struct JsonObject<'a> {
    out: &'a mut Vec<u8>,
    first: bool,
}

#[cfg(feature = "serde")]
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
#[cfg(feature = "serde")]
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
#[cfg(feature = "serde")]
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
#[cfg(feature = "serde")]
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
#[cfg(feature = "serde")]
fn fsm_name(fsm: FsmId) -> &'static str {
    match fsm {
        FsmId::Down => "Down",
        FsmId::Up => "Up",
    }
}

/// One nanosecond of controller state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceSample {
    /// Simulation time, nanoseconds.
    pub ns: u64,
    /// Controller mode during this nanosecond.
    pub mode: Mode,
    /// Effective variable-domain supply voltage.
    pub vdd: f64,
    /// Whether a pipeline clock edge fired this nanosecond.
    pub edge: bool,
}

/// A bounded ring buffer of [`TraceSample`]s.
///
/// # Examples
///
/// ```
/// use vsv::{Mode, ModeTrace, TraceSample};
///
/// let mut t = ModeTrace::new(2);
/// for ns in 0..3 {
///     t.push(TraceSample { ns, mode: Mode::High, vdd: 1.8, edge: true });
/// }
/// let samples: Vec<_> = t.iter().map(|s| s.ns).collect();
/// assert_eq!(samples, vec![1, 2], "oldest sample dropped");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ModeTrace {
    samples: std::collections::VecDeque<TraceSample>,
    capacity: usize,
    dropped: u64,
}

impl ModeTrace {
    /// Creates a trace holding at most `capacity` samples.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "trace capacity must be nonzero");
        ModeTrace {
            samples: std::collections::VecDeque::with_capacity(capacity),
            capacity,
            dropped: 0,
        }
    }

    /// Appends a sample, dropping the oldest if full.
    pub fn push(&mut self, sample: TraceSample) {
        if self.samples.len() == self.capacity {
            self.samples.pop_front();
            self.dropped += 1;
        }
        self.samples.push_back(sample);
    }

    /// Iterates oldest → newest.
    pub fn iter(&self) -> impl Iterator<Item = &TraceSample> {
        self.samples.iter()
    }

    /// Samples currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples are held.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Samples dropped off the front so far.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The mode changes in the retained window, as `(ns, mode)` pairs
    /// (the first retained sample is always included).
    #[must_use]
    pub fn transitions(&self) -> Vec<(u64, Mode)> {
        let mut out = Vec::new();
        let mut last: Option<Mode> = None;
        for s in &self.samples {
            if last != Some(s.mode) {
                out.push((s.ns, s.mode));
                last = Some(s.mode);
            }
        }
        out
    }

    /// Renders the retained window as a compact one-char-per-ns strip:
    /// `H` high, `d`/`D` down-distribute/ramp-down, `L` low,
    /// `u`/`U` up-distribute/ramp-up. Useful in test failures and
    /// debugging sessions.
    #[must_use]
    pub fn strip(&self) -> String {
        self.samples.iter().map(|s| s.mode.strip_char()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(ns: u64, mode: Mode) -> TraceSample {
        TraceSample {
            ns,
            mode,
            vdd: 1.8,
            edge: true,
        }
    }

    #[test]
    fn ring_buffer_caps_and_counts_drops() {
        let mut t = ModeTrace::new(3);
        for ns in 0..10 {
            t.push(sample(ns, Mode::High));
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped(), 7);
        let first = t.iter().next().expect("nonempty");
        assert_eq!(first.ns, 7);
    }

    #[test]
    fn transitions_collapse_runs() {
        let mut t = ModeTrace::new(16);
        t.push(sample(0, Mode::High));
        t.push(sample(1, Mode::High));
        t.push(sample(2, Mode::DownDistribute));
        t.push(sample(3, Mode::RampDown));
        t.push(sample(4, Mode::RampDown));
        t.push(sample(5, Mode::Low));
        assert_eq!(
            t.transitions(),
            vec![
                (0, Mode::High),
                (2, Mode::DownDistribute),
                (3, Mode::RampDown),
                (5, Mode::Low)
            ]
        );
    }

    #[test]
    fn strip_renders_one_char_per_sample() {
        let mut t = ModeTrace::new(8);
        for (ns, m) in [
            (0, Mode::High),
            (1, Mode::DownDistribute),
            (2, Mode::RampDown),
            (3, Mode::Low),
            (4, Mode::UpDistribute),
            (5, Mode::RampUp),
        ] {
            t.push(sample(ns, m));
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
    fn ring_sink_caps_and_counts_drops() {
        let mut ring = RingSink::new(2);
        for at in 0..5 {
            ring.record(&fired(at));
        }
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.dropped(), 3);
        let ats: Vec<u64> = ring
            .events()
            .map(|e| match e {
                TraceEvent::FsmFired { at, .. } => *at,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(ats, vec![3, 4]);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_capacity_ring_panics() {
        let _ = RingSink::new(0);
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

    #[cfg(feature = "serde")]
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
