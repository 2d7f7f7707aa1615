//! Always-on, allocation-free run metrics: a fixed catalog of
//! counters plus two small histograms, owned by one simulation and
//! merged deterministically across sweep workers.
//!
//! Every [`crate::System`] carries one [`MetricsRegistry`] and bumps
//! it at event sites only (an L2 miss, a supply ramp, a fast-forward
//! batch) — never per simulated nanosecond — so the registry costs
//! nothing on the hot path. The registry is plain data: no locks, no
//! atomics. Sweep parallelism gets "lock-free" aggregation by
//! *ownership*: each worker thread owns the registries of the jobs it
//! ran, and [`crate::Sweep`] merges them single-threaded, in grid
//! order, when it assembles the [`crate::SweepReport`] — so the
//! merged totals are bit-identical for any worker count.
//!
//! The full schema (units, emission sites) is documented in
//! `docs/observability.md`.

/// The fixed counter catalog. Adding a counter is a schema change:
/// update `docs/observability.md` and regenerate
/// `tests/sweep_report_golden.rs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CounterId {
    /// High→low transitions started (measured window).
    DownTransitions,
    /// Low→high transitions started (measured window).
    UpTransitions,
    /// Supply ramps begun (each pays the 66 nJ dual-network charge);
    /// counts both ramp directions.
    SupplyRamps,
    /// L2 *demand* misses detected (one hit-latency after reaching
    /// the L2).
    DemandMissDetects,
    /// L2 misses caused purely by prefetches.
    PrefetchMissDetects,
    /// L2 miss returns delivered to the processor.
    MissReturns,
    /// Ramp-down decisions the policy emitted
    /// ([`crate::PolicyStats::down_triggers`] over the window).
    PolicyDownFires,
    /// Ramp-down opportunities the policy examined and declined
    /// ([`crate::PolicyStats::down_expiries`] over the window).
    PolicyDownDeclines,
    /// Ramp-up decisions the policy emitted.
    PolicyUpFires,
    /// Ramp-up opportunities the policy examined and declined.
    PolicyUpDeclines,
    /// Quiescent-stall fast-forward batches taken.
    FastForwardBatches,
    /// Simulated nanoseconds covered by fast-forward batches.
    FastForwardNs,
    /// Trace events delivered to the attached
    /// [`crate::trace::TraceSink`] (0 when tracing is off).
    TraceEvents,
    /// Measurement windows closed.
    Windows,
    /// Low-voltage read errors detected (every failed delivery
    /// attempt, including the final attempt of an escalated read).
    ReadErrors,
    /// Retries issued after a detected read error.
    ReadRetries,
    /// Ramp-down decisions the `error-backoff` policy suppressed while
    /// engaged (dives vetoed to protect correctness).
    BackoffVetoes,
    /// Measurement windows that violated the configured
    /// [`crate::SloSpec`].
    SloViolations,
    /// Open-loop requests that arrived (traffic scenarios only).
    RequestsArrived,
    /// Open-loop requests that completed service.
    RequestsCompleted,
    /// MMPP ON (burst) phases begun.
    BurstStarts,
}

impl CounterId {
    /// Number of counters (the array length).
    pub const COUNT: usize = 21;

    /// All counters, in [`CounterId::index`] order.
    pub const ALL: [CounterId; CounterId::COUNT] = [
        CounterId::DownTransitions,
        CounterId::UpTransitions,
        CounterId::SupplyRamps,
        CounterId::DemandMissDetects,
        CounterId::PrefetchMissDetects,
        CounterId::MissReturns,
        CounterId::PolicyDownFires,
        CounterId::PolicyDownDeclines,
        CounterId::PolicyUpFires,
        CounterId::PolicyUpDeclines,
        CounterId::FastForwardBatches,
        CounterId::FastForwardNs,
        CounterId::TraceEvents,
        CounterId::Windows,
        CounterId::ReadErrors,
        CounterId::ReadRetries,
        CounterId::BackoffVetoes,
        CounterId::SloViolations,
        CounterId::RequestsArrived,
        CounterId::RequestsCompleted,
        CounterId::BurstStarts,
    ];

    /// Dense index into the counter array (declaration-order
    /// discriminant; pinned to [`CounterId::ALL`] by a compile-time
    /// assertion).
    #[must_use]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case name, as rendered in reports and
    /// `docs/observability.md`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            CounterId::DownTransitions => "down_transitions",
            CounterId::UpTransitions => "up_transitions",
            CounterId::SupplyRamps => "supply_ramps",
            CounterId::DemandMissDetects => "demand_miss_detects",
            CounterId::PrefetchMissDetects => "prefetch_miss_detects",
            CounterId::MissReturns => "miss_returns",
            CounterId::PolicyDownFires => "policy_down_fires",
            CounterId::PolicyDownDeclines => "policy_down_declines",
            CounterId::PolicyUpFires => "policy_up_fires",
            CounterId::PolicyUpDeclines => "policy_up_declines",
            CounterId::FastForwardBatches => "fast_forward_batches",
            CounterId::FastForwardNs => "fast_forward_ns",
            CounterId::TraceEvents => "trace_events",
            CounterId::Windows => "windows",
            CounterId::ReadErrors => "read_errors",
            CounterId::ReadRetries => "read_retries",
            CounterId::BackoffVetoes => "backoff_vetoes",
            CounterId::SloViolations => "slo_violations",
            CounterId::RequestsArrived => "requests_arrived",
            CounterId::RequestsCompleted => "requests_completed",
            CounterId::BurstStarts => "burst_starts",
        }
    }
}

// `CounterId::ALL` must enumerate every counter in index order.
const _: () = {
    let mut i = 0;
    while i < CounterId::COUNT {
        assert!(
            CounterId::ALL[i].index() == i,
            "CounterId::ALL out of order"
        );
        i += 1;
    }
};

/// Number of issue-width buckets (mirrors
/// `vsv_uarch::IssueHistogram`: exactly-`n` for `n < 8`, 8-or-wider
/// in the last bucket).
pub const ISSUE_BUCKETS: usize = 9;

/// Number of log2 buckets for fast-forward span lengths: bucket `i`
/// holds spans of `[2^i, 2^(i+1))` ns, the last bucket absorbing
/// anything longer.
pub const FF_SPAN_BUCKETS: usize = 16;

/// Number of log2 buckets for open-loop request latency: bucket `i`
/// holds latencies of `[2^i, 2^(i+1))` ns (bucket 0 also takes 0 ns),
/// the last bucket absorbing anything from `2^31` ns (~2.1 s) up.
pub const REQ_LATENCY_BUCKETS: usize = 32;

/// The per-run metrics registry: counters plus two histograms, all
/// fixed-size plain data.
///
/// # Examples
///
/// ```
/// use vsv::metrics::{CounterId, MetricsRegistry};
///
/// let mut a = MetricsRegistry::default();
/// a.inc(CounterId::SupplyRamps);
/// let mut b = MetricsRegistry::default();
/// b.add(CounterId::SupplyRamps, 2);
/// a.merge(&b);
/// assert_eq!(a.get(CounterId::SupplyRamps), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct MetricsRegistry {
    /// Counter values, indexed by [`CounterId::index`].
    pub counters: [u64; CounterId::COUNT],
    /// Pipeline cycles by instructions issued (`[8]` = 8 or wider),
    /// folded from the window's issue histogram.
    pub issue_width: [u64; ISSUE_BUCKETS],
    /// Fast-forward batch lengths, log2-bucketed
    /// (see [`FF_SPAN_BUCKETS`]).
    pub ff_span_log2: [u64; FF_SPAN_BUCKETS],
    /// Open-loop request latencies (arrival → completion),
    /// log2-bucketed (see [`REQ_LATENCY_BUCKETS`]). All-zero unless a
    /// traffic scenario is configured.
    pub req_latency_log2: [u64; REQ_LATENCY_BUCKETS],
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry {
            counters: [0; CounterId::COUNT],
            issue_width: [0; ISSUE_BUCKETS],
            ff_span_log2: [0; FF_SPAN_BUCKETS],
            req_latency_log2: [0; REQ_LATENCY_BUCKETS],
        }
    }
}

impl MetricsRegistry {
    /// Increments a counter by one.
    pub fn inc(&mut self, id: CounterId) {
        self.counters[id.index()] += 1;
    }

    /// Adds `n` to a counter.
    pub fn add(&mut self, id: CounterId, n: u64) {
        self.counters[id.index()] += n;
    }

    /// Reads a counter.
    #[must_use]
    pub fn get(&self, id: CounterId) -> u64 {
        self.counters[id.index()]
    }

    /// Records one fast-forward batch of `ns` simulated nanoseconds
    /// into the log2 span histogram (and nothing else — the caller
    /// bumps the batch/ns counters).
    pub fn observe_ff_span(&mut self, ns: u64) {
        let bucket = (63 - u64::leading_zeros(ns.max(1)) as usize).min(FF_SPAN_BUCKETS - 1);
        self.ff_span_log2[bucket] += 1;
    }

    /// Records one completed request's latency (arrival → completion,
    /// in ns) into the log2 latency histogram.
    pub fn observe_request_latency(&mut self, ns: u64) {
        let bucket = (63 - u64::leading_zeros(ns.max(1)) as usize).min(REQ_LATENCY_BUCKETS - 1);
        self.req_latency_log2[bucket] += 1;
    }

    /// Exact rank extraction from the request-latency histogram: the
    /// inclusive upper edge (`2^(i+1) - 1` ns) of the bucket holding
    /// the `ceil(total * numer / denom)`-th smallest latency. p50 is
    /// `(50, 100)`, p99 `(99, 100)`, p999 `(999, 1000)`. Returns 0
    /// when no request has completed.
    ///
    /// # Panics
    ///
    /// Panics if `denom` is zero.
    #[must_use]
    pub fn request_latency_percentile(&self, numer: u64, denom: u64) -> u64 {
        assert!(denom > 0, "denom must be nonzero");
        let total: u64 = self.req_latency_log2.iter().sum();
        if total == 0 {
            return 0;
        }
        let need = (total * numer).div_ceil(denom).max(1);
        let mut cum = 0;
        for (i, &count) in self.req_latency_log2.iter().enumerate() {
            cum += count;
            if cum >= need {
                return (1u64 << (i + 1)) - 1;
            }
        }
        u64::MAX
    }

    /// Folds a window's issue-width bucket counts (the delta of
    /// `vsv_uarch::IssueHistogram::buckets` over the window) into the
    /// registry.
    pub fn fold_issue_buckets(&mut self, buckets: &[u64; ISSUE_BUCKETS]) {
        for (mine, theirs) in self.issue_width.iter_mut().zip(buckets) {
            *mine += theirs;
        }
    }

    /// Adds every counter and histogram bucket of `other` into `self`.
    /// Merging is commutative and associative, and [`crate::Sweep`]
    /// always merges in grid order, so aggregate metrics are
    /// bit-identical for any worker count.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (mine, theirs) in self.counters.iter_mut().zip(&other.counters) {
            *mine += theirs;
        }
        for (mine, theirs) in self.issue_width.iter_mut().zip(&other.issue_width) {
            *mine += theirs;
        }
        for (mine, theirs) in self.ff_span_log2.iter_mut().zip(&other.ff_span_log2) {
            *mine += theirs;
        }
        for (mine, theirs) in self
            .req_latency_log2
            .iter_mut()
            .zip(&other.req_latency_log2)
        {
            *mine += theirs;
        }
    }

    /// Whether every counter and bucket is zero (a failed job's
    /// record carries an empty registry).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.iter().all(|&c| c == 0)
            && self.issue_width.iter().all(|&c| c == 0)
            && self.ff_span_log2.iter().all(|&c| c == 0)
            && self.req_latency_log2.iter().all(|&c| c == 0)
    }

    /// The nonzero counters as `(name, value)` rows, in catalog
    /// order — the human-rendering entry point.
    #[must_use]
    pub fn rows(&self) -> Vec<(&'static str, u64)> {
        CounterId::ALL
            .into_iter()
            .filter(|id| self.get(*id) != 0)
            .map(|id| (id.name(), self.get(id)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_index_matches_all_ordering() {
        for (i, id) in CounterId::ALL.iter().enumerate() {
            assert_eq!(id.index(), i, "{id:?}");
        }
        // Names are unique.
        let names: std::collections::HashSet<_> =
            CounterId::ALL.iter().map(|id| id.name()).collect();
        assert_eq!(names.len(), CounterId::COUNT);
    }

    #[test]
    fn inc_add_get_round_trip() {
        let mut m = MetricsRegistry::default();
        assert!(m.is_empty());
        m.inc(CounterId::Windows);
        m.add(CounterId::FastForwardNs, 41);
        m.inc(CounterId::FastForwardNs);
        assert_eq!(m.get(CounterId::Windows), 1);
        assert_eq!(m.get(CounterId::FastForwardNs), 42);
        assert!(!m.is_empty());
    }

    #[test]
    fn ff_span_buckets_are_log2() {
        let mut m = MetricsRegistry::default();
        m.observe_ff_span(0); // clamped to 1 -> bucket 0
        m.observe_ff_span(1); // bucket 0
        m.observe_ff_span(2); // bucket 1
        m.observe_ff_span(3); // bucket 1
        m.observe_ff_span(1024); // bucket 10
        m.observe_ff_span(u64::MAX); // clamped to the last bucket
        assert_eq!(m.ff_span_log2[0], 2);
        assert_eq!(m.ff_span_log2[1], 2);
        assert_eq!(m.ff_span_log2[10], 1);
        assert_eq!(m.ff_span_log2[FF_SPAN_BUCKETS - 1], 1);
    }

    #[test]
    fn merge_sums_everything() {
        let mut a = MetricsRegistry::default();
        a.inc(CounterId::SupplyRamps);
        a.observe_ff_span(8);
        a.fold_issue_buckets(&[1, 0, 0, 0, 0, 0, 0, 0, 2]);
        let mut b = a.clone();
        b.add(CounterId::SupplyRamps, 10);
        a.merge(&b);
        assert_eq!(a.get(CounterId::SupplyRamps), 12);
        assert_eq!(a.issue_width[0], 2);
        assert_eq!(a.issue_width[8], 4);
        assert_eq!(a.ff_span_log2[3], 2);
    }

    #[test]
    fn request_latency_percentiles_walk_bucket_edges() {
        let mut m = MetricsRegistry::default();
        assert_eq!(m.request_latency_percentile(99, 100), 0);
        // 99 fast requests in bucket 9 (512..=1023 ns), one slow one
        // in bucket 12 (4096..=8191 ns).
        for _ in 0..99 {
            m.observe_request_latency(600);
        }
        m.observe_request_latency(5000);
        assert_eq!(m.request_latency_percentile(50, 100), 1023);
        assert_eq!(m.request_latency_percentile(99, 100), 1023);
        assert_eq!(m.request_latency_percentile(999, 1000), 8191);
        // Zero-latency completions land in bucket 0 (edge 1 ns).
        let mut z = MetricsRegistry::default();
        z.observe_request_latency(0);
        assert_eq!(z.request_latency_percentile(50, 100), 1);
    }

    #[test]
    fn rows_skip_zero_counters() {
        let mut m = MetricsRegistry::default();
        assert!(m.rows().is_empty());
        m.add(CounterId::MissReturns, 7);
        assert_eq!(m.rows(), vec![("miss_returns", 7)]);
    }

    #[test]
    fn registry_round_trips_through_json() {
        let mut m = MetricsRegistry::default();
        m.inc(CounterId::DownTransitions);
        m.observe_ff_span(100);
        let json = serde_json::to_string(&m).expect("serializes");
        let back: MetricsRegistry = serde_json::from_str(&json).expect("deserializes");
        assert_eq!(m, back);
    }
}
