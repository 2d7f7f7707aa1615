//! # VSV: L2-miss-driven variable supply-voltage scaling
//!
//! A from-scratch reproduction of *"VSV: L2-Miss-Driven Variable
//! Supply-Voltage Scaling for Low Power"* (Li, Cher, Vijaykumar, Roy —
//! MICRO-36, 2003).
//!
//! VSV observes that after an L2 miss an out-of-order pipeline almost
//! always runs out of independent work, and drops the pipeline's
//! supply voltage (1.8 V → 1.2 V) and clock (1 GHz → 500 MHz) for the
//! duration of the miss. Two issue-rate-monitoring state machines
//! ([`DownFsm`], [`UpFsm`]) gate the transitions so high-ILP programs
//! keep their speed and clustered misses keep their savings. Circuit
//! constraints are modeled throughout: 12 ns supply ramps at
//! 0.05 V/ns, 2+2 ns control/clock-tree distribution, a 66 nJ
//! dual-supply-network charge per ramp, VDDH-pinned RAM structures
//! with level-converting latches, and an asynchronous L2 interface.
//!
//! ## Crate map
//!
//! * [`fsm`] — the down/up monitors and their policies;
//! * [`policy`] — the pluggable [`DvsPolicy`] decision layer
//!   (the paper's dual FSMs, naive baselines, an oracle upper
//!   bound, and the N-level `ladder-fsm`, selectable by
//!   [`PolicySpec`]);
//! * [`controller`] — the mode state machine with the Figure 2/3
//!   transition timelines, sequencing steps along the configured
//!   [`VoltageLadder`] (the paper's two rails are the depth-2
//!   special case);
//! * [`system`] — the composed simulator (core + memory + prefetcher +
//!   power + controller on one nanosecond clock);
//! * [`runner`]/[`report`] — experiment driving and the paper's
//!   metrics (performance degradation %, power saving %);
//! * [`sweep`] — parallel deterministic in-memory execution of
//!   experiment grids (every table/figure is one [`Sweep`]), with
//!   per-cell fault isolation;
//! * [`campaign`] — the JSONL shard file and multi-process scale-out
//!   of a sweep: a grid partitioned into K interleaved shards, each
//!   appending to and resuming from its own file, stream-merged back
//!   into a report bit-identical to the single-process run with O(1)
//!   merge memory (a checkpointed sweep is a one-shard campaign);
//! * [`error`] — the typed failure taxonomy ([`SimError`]) behind
//!   the fault-tolerant sweep contract;
//! * [`trace`]/[`metrics`] — structured observability: typed
//!   [`TraceEvent`]s delivered to pluggable [`TraceSink`]s, and the
//!   always-on [`MetricsRegistry`] of counters/histograms that merges
//!   deterministically across sweep workers (schema reference:
//!   `docs/observability.md`).
//!
//! The substrates live in sibling crates: `vsv-uarch` (8-way OoO
//! core), `vsv-mem` (caches/MSHRs/bus/DRAM), `vsv-power`
//! (Wattch-style model), `vsv-prefetch` (Time-Keeping), and
//! `vsv-workloads` (synthetic SPEC2K twins).
//!
//! ## Quickstart
//!
//! ```
//! use vsv::{Experiment, SystemConfig};
//! use vsv_workloads::twin;
//!
//! let ammp = twin("ammp").expect("part of the suite");
//! let e = Experiment::quick();
//! let (base, _vsv_run, cmp) = e
//!     .compare(&ammp, SystemConfig::baseline(), SystemConfig::vsv_with_fsms())
//!     .expect("a valid configuration runs");
//! assert!(base.mpki > 1.0);           // a memory-bound twin
//! assert!(cmp.power_saving_pct > 0.0); // VSV saves power on it
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code reports failures as typed `SimError`s; `.unwrap()` and
// `.expect()` are reserved for test code. CI runs clippy with
// `-D warnings`, promoting these to errors.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod campaign;
pub mod controller;
pub mod error;
pub mod fsm;
pub mod metrics;
pub mod multicore;
pub mod policy;
pub mod report;
pub mod runner;
pub mod sweep;
pub mod system;
pub mod trace;

pub use campaign::{Campaign, CampaignError, MergeOptions, MergeSummary};
pub use controller::{Mode, ModeStats, TickPlan, VsvConfig, VsvController};
pub use error::{FaultKind, ModeTransition, SimError};
pub use fsm::{DownFsm, DownPolicy, UpFsm, UpPolicy};
pub use metrics::{CounterId, MetricsRegistry};
pub use multicore::MulticoreSystem;
pub use policy::{
    Decision, DvsPolicy, ErrorBackoffPolicy, LadderFsmPolicy, PolicySpec, PolicyStats,
    BACKOFF_COOLDOWN_NS, BACKOFF_RETRY_THRESHOLD, BACKOFF_WINDOW_NS,
};
pub use report::{mean_comparison, Comparison, RunResult, SloOutcome, SloSpec};
pub use runner::{ComparisonSpread, Experiment};
pub use sweep::{
    config_digest, default_workers, resolve_workers, JobOutcome, JobRecord, ReportAggregator,
    Sweep, SweepJob, SweepReport,
};
pub use system::{System, SystemConfig, MAX_CORES};
pub use trace::{
    vdd_mv, FsmId, JsonlSink, ModeTrace, NullSink, SharedBuf, TraceEvent, TraceLevel, TraceSample,
    TraceSink,
};
pub use vsv_power::{ErrorCurve, VoltageCurve, VoltageLadder, MAX_LADDER_DEPTH};
pub use vsv_workloads::{TrafficModel, TrafficSpec};
