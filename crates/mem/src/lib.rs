//! Memory-hierarchy substrate for the VSV simulator.
//!
//! The VSV paper evaluates on an 8-way out-of-order core with a
//! two-level cache hierarchy (Table 1):
//!
//! * 64 KB 2-way 2-cycle L1 instruction and data caches, LRU;
//! * a 2 MB 8-way 12-cycle unified L2, LRU;
//! * MSHR files of 32 (IL1), 32 (DL1) and 64 (L2) entries;
//! * a 32-byte-wide, pipelined, split-transaction memory bus with
//!   4-cycle occupancy; and
//! * infinite-capacity main memory with 100-cycle latency.
//!
//! This crate implements all of those from scratch. Timing follows the
//! paper's clocking argument (§4.3): the L1 caches are clocked *with
//! the pipeline* (their 2-cycle hit latency is applied by the core, in
//! pipeline cycles), while the L2, the bus and DRAM sit behind an
//! asynchronous interface and keep their latencies in nanoseconds
//! regardless of the pipeline's power mode. [`Hierarchy`] therefore
//! exposes L1 hits combinationally and advances everything deeper on a
//! nanosecond [`Hierarchy::tick`].
//!
//! There is one uncore model. The L2, the bus, DRAM and the L2-MSHR
//! slot pool live in a [`SharedFabric`], which every [`Hierarchy`]
//! reaches through a [`SharedHandle`]: a single-core hierarchy
//! ([`Hierarchy::new`]) is the only core on a fabric of its own, and
//! the cores of a chip ([`Hierarchy::on_fabric`]) share one.
//!
//! The hierarchy also emits the signals VSV's mode controller consumes:
//! [`VsvSignal::L2MissDetected`] (raised one L2-hit-latency after a
//! demand request reaches the L2 — the paper's conservative
//! miss-detection assumption, §5) and [`VsvSignal::L2MissReturned`].
//!
//! # Examples
//!
//! ```
//! use vsv_isa::Addr;
//! use vsv_mem::{AccessKind, Hierarchy, HierarchyConfig, L1Outcome};
//!
//! let mut mem = Hierarchy::new(HierarchyConfig::baseline());
//! // A cold access misses all the way to DRAM...
//! let outcome = mem.access_data(0, Addr(0x10_0000), AccessKind::Read);
//! let token = match outcome {
//!     L1Outcome::Miss(token) => token,
//!     other => panic!("expected a miss, got {other:?}"),
//! };
//! // ...and completes after the L2-detect + bus + DRAM round trip.
//! let mut done_at = None;
//! let mut completions = Vec::new();
//! for now in 1..400 {
//!     mem.tick(now);
//!     mem.take_completions_into(&mut completions);
//!     if let Some(c) = completions.iter().find(|c| c.token == token) {
//!         done_at = Some(c.at);
//!         break;
//!     }
//! }
//! assert!(done_at.unwrap() > 100, "must include the DRAM latency");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bus;
mod cache;
mod dram;
mod event;
mod fx;
mod hierarchy;
mod mshr;
pub mod recency;
mod shared;

pub use bus::{Bus, BusConfig};
pub use cache::{Cache, CacheConfig, CacheStats, Eviction, ReplacementPolicy};
pub use dram::{Dram, DramConfig};
pub use event::EventQueue;
pub use fx::{FxHashMap, FxHasher};
pub use hierarchy::{
    AccessKind, Completion, DataSource, Hierarchy, HierarchyConfig, HierarchyStats, L1Outcome,
    MemToken, ReadErrorEvent, StallReason, VsvSignal, MAX_READ_RETRIES, READ_ERROR_DETECT_NS,
    READ_ERROR_RETRY_NS,
};
pub use mshr::{MshrFile, MshrOutcome};
pub use shared::{FabricCoreStats, SharedFabric, SharedHandle};
