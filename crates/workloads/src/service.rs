//! Open-loop service-traffic generation.
//!
//! The paper evaluates VSV on closed-loop SPEC2K runs, but the
//! north-star deployment is a server under open-loop traffic, where a
//! DVS policy must respect p99/p999 latency SLOs, not just EDP. This
//! module synthesises deterministic request streams on top of the
//! existing twins: a *request* is a bounded slice of a twin's
//! committed-instruction stream ([`TrafficSpec::request_instructions`]
//! instructions long), and arrivals are drawn from a Poisson process
//! or a two-state MMPP (Markov-modulated Poisson process) with ON/OFF
//! burst trains.
//!
//! The stream is a pure function of ([`TrafficSpec`], seed): it never
//! observes simulator state, so the same spec yields byte-identical
//! arrival trains regardless of worker count, fast-forward mode, or
//! the policy under test. Arrival timestamps are in nanoseconds
//! relative to an arbitrary origin (the simulator aligns them to its
//! own clock).
//!
//! # Examples
//!
//! ```
//! use vsv_workloads::{TrafficEventKind, TrafficSpec, TrafficStream};
//!
//! // ~0.5 requests/µs, 400 committed instructions each.
//! let spec = TrafficSpec::poisson(0.5, 400);
//! let mut stream = TrafficStream::new(spec);
//! let first = stream.next_event();
//! assert_eq!(first.kind, TrafficEventKind::Arrival);
//! assert!(first.at >= 1);
//! ```

use crate::rng::XorShift64;

/// Arrival-process model for an open-loop request stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TrafficModel {
    /// Memoryless arrivals at a constant mean rate.
    Poisson {
        /// Mean arrival rate in requests per microsecond.
        rate_per_us: f64,
    },
    /// Two-state Markov-modulated Poisson process: exponential OFF
    /// phases at `rate_per_us` alternate with exponential-length-free
    /// (fixed-length) ON phases at `burst_rate_per_us`. Fixed phase
    /// lengths keep the burst train trivially auditable in traces; the
    /// arrivals inside each phase are still Poisson.
    Mmpp {
        /// Mean arrival rate during OFF (quiet) phases, requests/µs.
        rate_per_us: f64,
        /// Mean arrival rate during ON (burst) phases, requests/µs.
        burst_rate_per_us: f64,
        /// Length of each ON phase in nanoseconds.
        on_ns: u64,
        /// Length of each OFF phase in nanoseconds.
        off_ns: u64,
    },
}

impl TrafficModel {
    fn rates(&self) -> (f64, f64) {
        match *self {
            TrafficModel::Poisson { rate_per_us } => (rate_per_us, rate_per_us),
            TrafficModel::Mmpp {
                rate_per_us,
                burst_rate_per_us,
                ..
            } => (rate_per_us, burst_rate_per_us),
        }
    }
}

/// One open-loop traffic scenario: an arrival model plus the request
/// size, expressed in committed twin instructions per request.
///
/// A rate of zero requests is rejected by [`TrafficSpec::validate`];
/// the *absence* of a spec (the `Option` in `SystemConfig`) is how
/// "no traffic" is expressed, and keeps every non-traffic run
/// bit-identical to the subsystem being absent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficSpec {
    /// The arrival process.
    pub model: TrafficModel,
    /// Committed instructions consumed by one request.
    pub request_instructions: u64,
    /// PRNG seed for the arrival stream (0 is remapped by the PRNG).
    pub seed: u64,
}

impl TrafficSpec {
    /// A Poisson stream at `rate_per_us` requests/µs, each request
    /// `request_instructions` long.
    #[must_use]
    pub fn poisson(rate_per_us: f64, request_instructions: u64) -> Self {
        TrafficSpec {
            model: TrafficModel::Poisson { rate_per_us },
            request_instructions,
            seed: 0,
        }
    }

    /// An MMPP-2 stream: `rate_per_us` during OFF phases of `off_ns`,
    /// `burst_rate_per_us` during ON phases of `on_ns`.
    #[must_use]
    pub fn mmpp(
        rate_per_us: f64,
        burst_rate_per_us: f64,
        on_ns: u64,
        off_ns: u64,
        request_instructions: u64,
    ) -> Self {
        TrafficSpec {
            model: TrafficModel::Mmpp {
                rate_per_us,
                burst_rate_per_us,
                on_ns,
                off_ns,
            },
            request_instructions,
            seed: 0,
        }
    }

    /// Replaces the arrival-stream seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Validates ranges.
    ///
    /// # Errors
    ///
    /// Returns a description of the first out-of-range field.
    pub fn validate(&self) -> Result<(), String> {
        let (base, burst) = self.model.rates();
        for (name, rate) in [("rate", base), ("burst rate", burst)] {
            if !rate.is_finite() || rate <= 0.0 {
                return Err(format!("traffic {name} must be finite and > 0, got {rate}"));
            }
            if rate > 1000.0 {
                return Err(format!(
                    "traffic {name} {rate}/µs exceeds 1 request/ns; arrivals are ns-granular"
                ));
            }
        }
        if let TrafficModel::Mmpp { on_ns, off_ns, .. } = self.model {
            if on_ns == 0 || off_ns == 0 {
                return Err("mmpp on/off phase lengths must be nonzero".into());
            }
        }
        if self.request_instructions == 0 {
            return Err("request_instructions must be nonzero".into());
        }
        Ok(())
    }
}

/// What happened at a [`TrafficEvent`]'s timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrafficEventKind {
    /// One request arrived.
    Arrival,
    /// An MMPP ON (burst) phase began. Poisson streams never emit it.
    BurstStart,
}

/// One point of the arrival train, in stream-relative nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrafficEvent {
    /// Nanoseconds since the stream's origin.
    pub at: u64,
    /// Arrival or burst boundary.
    pub kind: TrafficEventKind,
}

/// Deterministic generator of a [`TrafficSpec`]'s event train.
///
/// [`TrafficStream::next_event`] yields events in non-decreasing time
/// order, forever. Inter-arrival gaps are exponential with the phase's
/// mean rate, rounded up to at least 1 ns. An MMPP candidate arrival
/// that falls past the current phase's end is discarded and resampled
/// from the boundary — valid because the exponential is memoryless —
/// and a [`TrafficEventKind::BurstStart`] marks each OFF→ON boundary.
#[derive(Debug, Clone)]
pub struct TrafficStream {
    spec: TrafficSpec,
    rng: XorShift64,
    /// Virtual clock: time of the last event or phase boundary.
    now: u64,
    /// Whether an MMPP stream is currently in its ON (burst) phase.
    in_burst: bool,
    /// Absolute end of the current MMPP phase (unused for Poisson).
    phase_end: u64,
}

impl TrafficStream {
    /// Starts the stream at its origin (an MMPP begins in the OFF
    /// phase, so the first burst starts after one full OFF period).
    #[must_use]
    pub fn new(spec: TrafficSpec) -> Self {
        let phase_end = match spec.model {
            TrafficModel::Poisson { .. } => u64::MAX,
            TrafficModel::Mmpp { off_ns, .. } => off_ns,
        };
        TrafficStream {
            spec,
            rng: XorShift64::new(spec.seed),
            now: 0,
            in_burst: false,
            phase_end,
        }
    }

    fn gap_ns(&mut self, rate_per_us: f64) -> u64 {
        // Exponential inter-arrival: -ln(1 - U) / rate. `unit()` is in
        // [0, 1), so the argument of ln never reaches 0.
        let mean_gap_ns = 1000.0 / rate_per_us;
        let gap = -(1.0 - self.rng.unit()).ln() * mean_gap_ns;
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let rounded = gap.ceil() as u64; // saturating cast
        rounded.max(1)
    }

    /// The next event of the train, in non-decreasing time order.
    pub fn next_event(&mut self) -> TrafficEvent {
        let (base, burst) = self.spec.model.rates();
        loop {
            let rate = if self.in_burst { burst } else { base };
            let candidate = self.now.saturating_add(self.gap_ns(rate));
            if candidate <= self.phase_end {
                self.now = candidate;
                return TrafficEvent {
                    at: candidate,
                    kind: TrafficEventKind::Arrival,
                };
            }
            // Phase boundary first: flip phases and resample from the
            // boundary (memorylessness makes the discard exact).
            let TrafficModel::Mmpp { on_ns, off_ns, .. } = self.spec.model else {
                unreachable!("poisson phase never ends");
            };
            self.now = self.phase_end;
            self.in_burst = !self.in_burst;
            let phase_len = if self.in_burst { on_ns } else { off_ns };
            self.phase_end = self.now.saturating_add(phase_len);
            if self.in_burst {
                return TrafficEvent {
                    at: self.now,
                    kind: TrafficEventKind::BurstStart,
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(spec: TrafficSpec, n: usize) -> Vec<TrafficEvent> {
        let mut s = TrafficStream::new(spec);
        (0..n).map(|_| s.next_event()).collect()
    }

    #[test]
    fn poisson_spec_is_valid_and_deterministic() {
        let spec = TrafficSpec::poisson(0.5, 400);
        assert!(spec.validate().is_ok());
        assert_eq!(drain(spec, 200), drain(spec, 200));
    }

    #[test]
    fn events_are_time_ordered_and_arrivals_strictly_advance() {
        let spec = TrafficSpec::mmpp(0.2, 2.0, 20_000, 60_000, 400).with_seed(9);
        assert!(spec.validate().is_ok());
        let events = drain(spec, 2_000);
        let mut last = 0;
        for e in &events {
            assert!(e.at >= last, "went backwards: {e:?}");
            if e.kind == TrafficEventKind::Arrival {
                assert!(e.at > 0);
            }
            last = e.at;
        }
    }

    #[test]
    fn poisson_rate_is_roughly_right() {
        let spec = TrafficSpec::poisson(1.0, 100).with_seed(3);
        let events = drain(spec, 5_000);
        let span_us = events.last().unwrap().at as f64 / 1000.0;
        let rate = 5_000.0 / span_us;
        assert!((0.9..1.1).contains(&rate), "rate {rate}/µs");
    }

    #[test]
    fn mmpp_bursts_alternate_and_are_denser() {
        let spec = TrafficSpec::mmpp(0.1, 2.0, 10_000, 40_000, 100).with_seed(7);
        let events = drain(spec, 5_000);
        let bursts: Vec<u64> = events
            .iter()
            .filter(|e| e.kind == TrafficEventKind::BurstStart)
            .map(|e| e.at)
            .collect();
        assert!(bursts.len() > 2, "expected several bursts");
        // First burst after one OFF phase; thereafter every on+off ns.
        assert_eq!(bursts[0], 40_000);
        assert_eq!(bursts[1], 90_000);
        // ON-phase arrivals (10 000 ns at 2/µs ≈ 20) outnumber
        // OFF-phase arrivals (40 000 ns at 0.1/µs ≈ 4) per cycle.
        let in_burst = |at: u64| (at % 50_000) >= 40_000;
        let on = events
            .iter()
            .filter(|e| e.kind == TrafficEventKind::Arrival && in_burst(e.at))
            .count();
        let off = events
            .iter()
            .filter(|e| e.kind == TrafficEventKind::Arrival && !in_burst(e.at))
            .count();
        assert!(on > 2 * off, "on {on} vs off {off}");
    }

    #[test]
    fn different_seeds_give_different_trains() {
        let a = drain(TrafficSpec::poisson(0.5, 100).with_seed(1), 50);
        let b = drain(TrafficSpec::poisson(0.5, 100).with_seed(2), 50);
        assert_ne!(a, b);
    }

    #[test]
    fn validate_rejects_bad_specs() {
        assert!(TrafficSpec::poisson(0.0, 100).validate().is_err());
        assert!(TrafficSpec::poisson(f64::NAN, 100).validate().is_err());
        assert!(TrafficSpec::poisson(2000.0, 100).validate().is_err());
        assert!(TrafficSpec::poisson(0.5, 0).validate().is_err());
        assert!(TrafficSpec::mmpp(0.5, 2.0, 0, 100, 10).validate().is_err());
        assert!(TrafficSpec::mmpp(0.5, 2.0, 100, 0, 10).validate().is_err());
        assert!(TrafficSpec::mmpp(0.5, 2.0, 100, 100, 10).validate().is_ok());
    }
}
