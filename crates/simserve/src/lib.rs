#![forbid(unsafe_code)]
// A simulator library reports through stats, telemetry sinks and
// manifests; a stray print would interleave with the harness's output.
#![deny(clippy::print_stdout, clippy::print_stderr)]
//! # simserve — the long-running sharded sweep daemon
//!
//! Batch harness binaries pay the same setup tax on every invocation:
//! graphs are rebuilt, traces re-recorded, warmup replayed. This crate
//! turns the sweep executor into a *service*: a persistent daemon
//! ([`daemon::Daemon`]) that accepts sweep submissions over a Unix domain
//! socket, schedules their points across a worker pool (each worker wraps
//! the fault-isolated matrix executor from `gpworkloads`), and streams
//! manifest records — plus optional simtel interval snapshots — back to
//! each client as points complete.
//!
//! What stays warm across requests, process-wide:
//!
//! * **Graphs and traces** — one [`gpworkloads::Runner`] per
//!   (scale, window, skip) class, shared by every client.
//! * **Results** — a single-flight cache keyed by the *same* identity
//!   string batch resume uses (`workload|system|config_hash|scale|warmup|
//!   measure|skip|trace_checksum`), so a point any client ever completed
//!   is never simulated again, and two clients racing on the same point
//!   simulate it exactly once.
//! * **Warmup forks** — the daemon points the matrix executor at one
//!   `simstate` checkpoint store, so even cache *misses* skip warmup
//!   replay when a fork for their class exists.
//!
//! The wire format ([`proto`], `SRV2`) is hand-rolled: messages travel in
//! the same checksummed `simstate::frame` that snapshots and the graph
//! cache use, over `SocketAddr`-free blocking I/O, because the vendored
//! serde has no deserializer and the simulator stack bans wall-clock
//! anyway (no timeouts: liveness comes from blocking reads plus a
//! self-connect wakeup on shutdown).
//!
//! Faults stay contained at three radii: a panicking point becomes a
//! `failed` record (the executor's `catch_unwind`), a runaway point is
//! cut off by the deterministic watchdog, and a client vanishing
//! mid-stream only cancels that client's session.

pub mod cache;
pub mod client;
pub mod daemon;
pub mod proto;

pub use client::Client;
pub use daemon::{Daemon, DaemonConfig, DaemonHandle};
pub use proto::{ProtoError, Request, Response};

/// Everything that can go wrong between a client and the daemon.
#[derive(Debug)]
pub enum ServeError {
    /// Socket-level I/O failed (daemon not running, connection reset...).
    Io(std::io::Error),
    /// A frame or message failed to parse or verify.
    Proto(ProtoError),
    /// The daemon rejected the request with a typed error code.
    Rejected { code: proto::ErrorCode, detail: String },
    /// The peer answered with a response type the request cannot produce
    /// — a protocol version skew, not an I/O fault.
    UnexpectedResponse { expected: &'static str, found: &'static str },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "socket i/o: {e}"),
            ServeError::Proto(e) => write!(f, "wire protocol: {e}"),
            ServeError::Rejected { code, detail } => {
                write!(f, "daemon rejected request ({}): {detail}", code.as_str())
            }
            ServeError::UnexpectedResponse { expected, found } => {
                write!(f, "protocol skew: expected {expected}, daemon sent {found}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<ProtoError> for ServeError {
    fn from(e: ProtoError) -> Self {
        match e {
            ProtoError::Io(io) => ServeError::Io(io),
            other => ServeError::Proto(other),
        }
    }
}
