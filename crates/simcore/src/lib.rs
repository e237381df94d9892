#![forbid(unsafe_code)]
// A simulator library reports through stats, telemetry sinks and
// manifests; a stray print would interleave with the harness's output.
#![deny(clippy::print_stdout, clippy::print_stderr)]
//! # simcore — timing-simulator substrate
//!
//! A ChampSim-style, trace-driven timing model of an out-of-order core and
//! its memory hierarchy, built for reproducing *Practically Tackling Memory
//! Bottlenecks of Graph-Processing Workloads* (Jamet et al., IPDPS 2024).
//!
//! The crate provides:
//!
//! * a scoreboard out-of-order core model ([`rob::RobModel`]): 4-wide,
//!   224-entry ROB, in-order retire — the mechanism that turns DRAM latency
//!   into lost IPC;
//! * set-associative caches with pluggable replacement ([`cache::Cache`],
//!   [`replacement`]), including the T-OPT oracle policy;
//! * MSHR files bounding memory-level parallelism ([`mshr::MshrFile`]);
//! * a DDR4-like DRAM model with banks and row buffers ([`dram::Dram`]);
//! * next-line and SPP prefetchers ([`prefetch`]);
//! * two-level TLBs ([`tlb::TlbHierarchy`]);
//! * the Line Distillation LLC baseline ([`distill::DistillCache`]);
//! * single- and multi-core engines ([`engine::Engine`],
//!   [`multicore::MulticoreEngine`]) that replay instrumented-kernel traces
//!   ([`trace`]).
//!
//! The paper's Baseline system is [`hierarchy::BaselineHierarchy`]; the
//! SDC+LP system lives in the `sdclp` crate and plugs into the same
//! [`hierarchy::CoreMemory`] / [`hierarchy::SharedBackend`] seams.

pub mod block;
pub mod cache;
pub mod config;
pub mod distill;
pub mod dram;
pub mod engine;
pub mod hierarchy;
pub mod mshr;
pub mod multicore;
pub mod prefetch;
pub mod replacement;
pub mod rob;
pub mod stats;
pub mod tlb;
pub mod trace;
pub mod trace_io;
pub mod victim;

pub use config::SystemConfig;
pub use engine::{Budget, Engine, Window};
pub use hierarchy::{
    AccessOutcome, BaselineHierarchy, CoreMemory, CoreSide, MemorySystem, ServedBy, SharedBackend,
    SingleCore,
};
pub use multicore::{weighted_ipc, MulticoreEngine};
pub use stats::{geomean, SimResult};
pub use trace::{CompactTrace, MemRef, NullTracer, RecordingTracer, Tracer};
