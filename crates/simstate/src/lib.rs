#![forbid(unsafe_code)]
// A simulator library reports through stats, telemetry sinks and
// manifests; a stray print would interleave with the harness's output.
#![deny(clippy::print_stdout, clippy::print_stderr)]
//! # simstate — checkpointable simulator state
//!
//! The snapshot subsystem behind crash-consistent sweeps and warmup
//! forking: a versioned binary container (`SSTATEv2`), a small byte codec
//! the simulator components serialize themselves through, and a
//! file-backed [`store::CheckpointStore`] with atomic tmp+fsync+rename
//! writes. The store writes behind: one background thread per store runs
//! a coalescing queue of saves and removes, `load` reads the queue before
//! the disk, and `flush` (or dropping the last handle) waits for it to
//! land, so a simulation never waits on the disk.
//! [`frame`] is the checksummed frame snapshots, simserve wire messages
//! (`SRV2`) and the graph cache (`GPCSRv2`) share.
//!
//! Design rules, in priority order:
//!
//! 1. **Never trust a checkpoint.** Every load verifies magic, version,
//!    length echo, checksum, and the caller's config/trace identity before
//!    a single payload byte reaches a component. Failures come back as a
//!    typed [`StateError`], never a panic — a bad checkpoint degrades to a
//!    cold start.
//! 2. **Bit-identical resumption.** A component's `save_state`/`load_state`
//!    pair must capture every field that can influence future simulated
//!    behavior; anything excluded is an explicit approximation documented
//!    in DESIGN.md §9.
//! 3. **Deterministic I/O handling.** Transient write failures retry
//!    through [`retry_io`] — a bounded attempt ladder with no wall-clock
//!    backoff, so the simulator stack stays free of host-time reads. The
//!    store's writer thread waits on condvars only, and what `load`
//!    returns never depends on how far it has got.

pub mod codec;
pub mod container;
pub mod frame;
pub mod store;

pub use codec::{StateSink, StateSource};
pub use container::{read_snapshot, write_snapshot, Snapshot};
pub use frame::{Fnv1a, FrameError};
pub use store::CheckpointStore;

use std::fmt;
use std::io;

/// How many times [`retry_io`] attempts an operation before surfacing the
/// last error. Shared by the manifest writer and the checkpoint store.
pub const IO_RETRY_ATTEMPTS: usize = 3;

/// Retry `op` up to `attempts` times, returning the first success or the
/// last error. Purely count-bounded — no sleeping, no clock reads — so
/// retried I/O stays deterministic apart from the host filesystem itself.
pub fn retry_io<T>(attempts: usize, mut op: impl FnMut() -> io::Result<T>) -> io::Result<T> {
    let mut last = io::Error::other("retry_io called with zero attempts");
    for _ in 0..attempts.max(1) {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) => last = e,
        }
    }
    Err(last)
}

/// Why a snapshot failed to decode or validate. I/O faults are separated
/// from a damaged or outdated frame, and staleness (identity mismatches)
/// from both, so callers can choose to warn-and-regenerate precisely.
#[derive(Debug)]
pub enum StateError {
    /// Underlying I/O failure (not a format problem).
    Io(io::Error),
    /// The snapshot frame is damaged or from another format version.
    Frame(FrameError),
    /// The snapshot was taken under a different system configuration.
    ConfigHashMismatch { expected: u64, found: u64 },
    /// The snapshot was taken against a different input trace.
    TraceMismatch { expected: u64, found: u64 },
    /// A component section tag did not appear where expected.
    SectionMismatch { expected: [u8; 4], found: [u8; 4] },
    /// A restored collection's geometry disagrees with the live config.
    ShapeMismatch { what: &'static str, expected: u64, found: u64 },
    /// A decoded scalar is outside its legal domain (e.g. a bool byte
    /// that is neither 0 nor 1, or an unknown enum discriminant).
    BadValue { what: &'static str, found: u64 },
}

fn tag_str(tag: &[u8; 4]) -> String {
    tag.iter().map(|&b| if b.is_ascii_graphic() { b as char } else { '?' }).collect()
}

impl fmt::Display for StateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StateError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            StateError::Frame(e) => write!(f, "snapshot frame: {e}"),
            StateError::ConfigHashMismatch { expected, found } => write!(
                f,
                "snapshot config mismatch: expected {expected:#018x}, found {found:#018x}"
            ),
            StateError::TraceMismatch { expected, found } => {
                write!(f, "snapshot trace mismatch: expected {expected:#018x}, found {found:#018x}")
            }
            StateError::SectionMismatch { expected, found } => write!(
                f,
                "snapshot section mismatch: expected {:?}, found {:?}",
                tag_str(expected),
                tag_str(found)
            ),
            StateError::ShapeMismatch { what, expected, found } => write!(
                f,
                "snapshot shape mismatch in {what}: expected {expected} elements, found {found}"
            ),
            StateError::BadValue { what, found } => {
                write!(f, "snapshot carries an illegal {what} value: {found}")
            }
        }
    }
}

impl std::error::Error for StateError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StateError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FrameError> for StateError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(e) => StateError::Io(e),
            other => StateError::Frame(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn retry_io_returns_first_success() {
        let calls = AtomicUsize::new(0);
        let out = retry_io(3, || {
            calls.fetch_add(1, Ordering::Relaxed);
            Ok::<u32, io::Error>(7)
        });
        assert_eq!(out.ok(), Some(7));
        assert_eq!(calls.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn retry_io_retries_then_succeeds() {
        let calls = AtomicUsize::new(0);
        let out = retry_io(3, || {
            if calls.fetch_add(1, Ordering::Relaxed) < 2 {
                Err(io::Error::other("transient"))
            } else {
                Ok(42)
            }
        });
        assert_eq!(out.ok(), Some(42));
        assert_eq!(calls.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn retry_io_is_bounded_and_surfaces_last_error() {
        let calls = AtomicUsize::new(0);
        let out: io::Result<()> = retry_io(4, || {
            calls.fetch_add(1, Ordering::Relaxed);
            Err(io::Error::other("persistent"))
        });
        assert_eq!(calls.load(Ordering::Relaxed), 4);
        assert!(out.is_err());
    }

    #[test]
    fn errors_render_with_context() {
        let e = StateError::from(FrameError::ChecksumMismatch { stored: 1, computed: 2 });
        assert!(e.to_string().contains("checksum"));
        assert!(matches!(
            StateError::from(FrameError::from(io::Error::other("disk"))),
            StateError::Io(_)
        ));
        let e = StateError::SectionMismatch { expected: *b"ROB_", found: *b"CCH_" };
        assert!(e.to_string().contains("ROB_"));
        let e = StateError::ShapeMismatch { what: "cache tags", expected: 64, found: 32 };
        assert!(e.to_string().contains("cache tags"));
    }
}
