//! Synthetic SPEC2K-twin workloads for the VSV simulator.
//!
//! The paper evaluates on pre-compiled Alpha SPEC2K binaries with ref
//! inputs (§5), which cannot be redistributed or executed here.
//! Instead this crate synthesises an **instruction-stream twin** per
//! benchmark: a deterministic generator parameterised on exactly the
//! axes VSV's behaviour depends on —
//!
//! * working-set size and far-access rate (→ L2 misses / 1000 insts);
//! * pointer chasing vs. streaming vs. random far accesses
//!   (→ miss clustering and Time-Keeping learnability);
//! * how much independent work surrounds a miss
//!   (→ the down-FSM/up-FSM decision axis);
//! * software-prefetch coverage (SPEC peak binaries prefetch);
//! * branch density and entropy (→ front-end behaviour).
//!
//! [`spec2k_twins`] provides the 26 calibrated parameter points and
//! [`table2_reference`] the paper's Table 2 targets for comparison.
//!
//! # Examples
//!
//! ```
//! use vsv_isa::InstStream;
//! use vsv_workloads::{twin, Generator};
//!
//! let mut mcf = Generator::new(twin("mcf").unwrap());
//! let inst = mcf.next_inst().unwrap(); // infinite, deterministic
//! let _ = inst;
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod generator;
mod mix;
mod params;
mod rng;
mod service;
mod spec2k;

pub use generator::Generator;
pub use mix::MixSummary;
pub use params::{AccessPattern, WorkloadParams, MAX_CODE_FOOTPRINT_BYTES};
pub use rng::XorShift64;
pub use service::{TrafficEvent, TrafficEventKind, TrafficModel, TrafficSpec, TrafficStream};
pub use spec2k::{high_mr_names, spec2k_twins, table2_reference, twin, Table2Row};
