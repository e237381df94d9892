#![forbid(unsafe_code)]
//! The simserve daemon binary: a persistent sweep server with warm
//! trace/graph/result caches shared across every client.
//!
//! ```text
//! cargo run --release -p gpbench --bin simserved -- \
//!     --socket results/simserve.sock --warmup-fork
//! ```
//!
//! * `--socket PATH` — Unix socket to serve on (default
//!   `results/simserve.sock`). A stale socket file left by a killed
//!   daemon is replaced automatically; a live daemon refuses the bind.
//! * `--workers N` — worker threads (default: available parallelism).
//! * `--state-dir DIR` — checkpoint directory (default
//!   `results/state/simserved`); `--no-state` disables checkpointing.
//! * `--warmup-fork` — fork points from persisted post-warmup snapshots.
//! * `--snapshot-every N` — crash snapshot cadence in trace events.
//! * `--watchdog-cpi N` / `--no-watchdog` — per-point runaway ceiling.
//! * `--queue-limit N` — largest accepted submission, in points.
//! * `--archive-limit N` — completed sweeps kept fetchable via
//!   `simctl results`.
//! * `--allow-poison` — accept the reserved `poison` system name
//!   (fault-injection testing).
//! * `--quiet` — suppress the stderr log.
//!
//! The process runs until a client sends `simctl shutdown` (graceful
//! drain) or it is killed; either way a restart recovers the socket.

use gpbench::{usage_exit, Flags};
use gpworkloads::matrix::Watchdog;
use simserve::{Daemon, DaemonConfig};
use std::process::ExitCode;
use std::sync::Arc;

const VALUED: &[&str] = &[
    "--socket",
    "--workers",
    "--state-dir",
    "--snapshot-every",
    "--watchdog-cpi",
    "--queue-limit",
    "--archive-limit",
];
const SWITCHES: &[&str] =
    &["--no-state", "--warmup-fork", "--no-watchdog", "--allow-poison", "--quiet"];

fn config(flags: &Flags) -> Result<DaemonConfig, String> {
    let d = DaemonConfig::default();
    let state = !flags.has("--no-state");
    Ok(DaemonConfig {
        socket: flags.value("--socket").unwrap_or("results/simserve.sock").into(),
        workers: flags.number("--workers", d.workers)?,
        state_dir: state
            .then(|| flags.value("--state-dir").unwrap_or("results/state/simserved").into()),
        warmup_fork: state && flags.has("--warmup-fork"),
        snapshot_every: if state { flags.number("--snapshot-every", 0)? } else { 0 },
        watchdog: match flags.value("--watchdog-cpi") {
            _ if flags.has("--no-watchdog") => Watchdog::Off,
            Some(_) => Watchdog::CyclesPerInstr(flags.number("--watchdog-cpi", 0)?),
            None => d.watchdog,
        },
        queue_limit: flags.number("--queue-limit", d.queue_limit)?,
        archive_limit: flags.number("--archive-limit", d.archive_limit)?,
        allow_poison: flags.has("--allow-poison"),
        ..d
    })
}

fn main() -> ExitCode {
    let usage = |e: String| -> ! { usage_exit(&e, &[VALUED, SWITCHES].concat()) };
    let args = std::env::args().skip(1);
    let flags = Flags::parse(args, VALUED, SWITCHES).unwrap_or_else(|e| usage(e));
    let mut cfg = config(&flags).unwrap_or_else(|e| usage(e));
    let quiet = flags.has("--quiet");
    if !quiet {
        cfg.log = Some(Arc::new(|msg: &str| eprintln!("simserved: {msg}")));
    }
    // Persist generated graphs across daemon restarts (same cache the
    // batch harness binaries use).
    gpbench::use_graph_cache();

    match Daemon::start(cfg) {
        Ok(handle) => {
            handle.join();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("simserved: failed to start: {e}");
            ExitCode::FAILURE
        }
    }
}
