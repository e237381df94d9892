#![forbid(unsafe_code)]
//! # gpworkloads — workload definitions and the experiment runner
//!
//! The 36 single-core workloads of Section IV-C, the 50 multi-core mixes
//! of Section IV-D, the synthetic regular suite standing in for SPEC
//! (Section V-B3), the seven evaluated system designs of Section IV-E, and
//! a trace-caching [`Runner`] that makes every comparison input-identical.

pub mod configs;
mod manifest;
pub mod matrix;
pub mod multicore;
pub mod names;
pub mod regular;
pub mod runner;
pub mod singlecore;

pub use configs::{build_multicore, build_system, build_system_with_config, SystemKind};
pub use manifest::{parse_json_object, validate_json};
pub use matrix::{
    cross, MatrixOptions, MatrixPoint, PointStatus, RunManifest, RunRecord, SystemSpec, Watchdog,
};
pub use multicore::{generate_mixes, paper_mixes, Mix, MulticoreRunner, MIX_WIDTH};
pub use names::{find_scale, find_system, find_workload, norm_name};
pub use regular::{run_regular, RegularKind};
pub use runner::Runner;
pub use sdclp::SimError;
pub use singlecore::{all_workloads, cc_friendster, Workload};
