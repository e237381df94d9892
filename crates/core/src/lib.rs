#![forbid(unsafe_code)]
// A simulator library reports through stats, telemetry sinks and
// manifests; a stray print would interleave with the harness's output.
#![deny(clippy::print_stdout, clippy::print_stderr)]
//! # sdclp — the Side Data Cache + Large Predictor proposal
//!
//! From-scratch implementation of the primary contribution of *Practically
//! Tackling Memory Bottlenecks of Graph-Processing Workloads* (Jamet et
//! al., IPDPS 2024):
//!
//! * [`lp::LargePredictor`] — a 552-byte, PC-indexed stride-accumulator
//!   predictor that classifies memory accesses as cache-friendly or
//!   cache-averse;
//! * [`system::SdcCore`] — the Side Data Cache path: an 8 KiB, 1-cycle
//!   cache beside the L1D that serves cache-averse accesses and bypasses
//!   the L2C/LLC on misses, fetching straight from DRAM;
//! * [`sdcdir::SdcDir`] — the directory extension keeping SDCs coherent
//!   with the conventional hierarchy;
//! * [`router`] — the LP router, the Expert Programmer router (Fig. 13),
//!   and static routers for the design-space sweeps;
//! * [`budget::HardwareBudget`] — Table IV storage accounting.
//!
//! ## Quick start
//!
//! ```
//! use sdclp::{sdclp_system, SdcLpConfig};
//! use simcore::{Engine, SystemConfig, Tracer, Window};
//!
//! let sys = sdclp_system(&SystemConfig::baseline(1), SdcLpConfig::table1());
//! let mut engine = Engine::new(sys, 4, 224, Window::new(0, 10_000));
//! for i in 0..1000u64 {
//!     engine.load(1, 0, (i * 1_000_003 % 1_000_000) * 64); // irregular
//!     engine.bubble(3);
//! }
//! let result = engine.finish();
//! assert!(result.ipc() > 0.0);
//! ```

pub mod budget;
pub mod config;
pub mod error;
pub mod lp;
pub mod router;
pub mod sdcdir;
pub mod system;

pub use budget::HardwareBudget;
pub use config::{LpConfig, SdcConfig, SdcDirConfig, SdcLpConfig};
pub use error::SimError;
pub use lp::{LargePredictor, Route};
pub use router::{ExpertRouter, LpRouter, Router, StaticRouter};
pub use sdcdir::SdcDir;
pub use system::{
    expert_system, sdclp_system, ExpertCore, ExpertSystem, SdcCore, SdcLpCore, SdcLpSystem,
};
