//! Structured error taxonomy for the sweep executor.
//!
//! The sweep executor (`gpworkloads::matrix`) previously signalled failure
//! by panicking, which meant one pathological design point aborted a
//! whole characterization campaign. [`SimError`] is the typed
//! replacement: every fault a long sweep can hit has a variant carrying
//! enough context to be reported in a manifest record and acted on by
//! `--resume`.
//!
//! Decoders of persisted files keep their own narrow error types
//! (`gpgraph::GraphIoError`, `simstate::StateError`, both carrying a
//! `simstate::FrameError` for a damaged frame). They never reach this
//! taxonomy: their callers warn, discard the file and regenerate it.

use std::fmt;
use std::path::PathBuf;

/// Everything that can go wrong while executing a sweep matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A matrix point's simulation panicked; the panic was contained and
    /// the rest of the sweep completed.
    PointPanicked {
        /// Workload name, e.g. `cc.urand`.
        workload: String,
        /// System/design label, e.g. `SDC+LP` or `tau=16`.
        system: String,
        /// The panic payload, when it was a string.
        message: String,
    },
    /// A matrix point exceeded its watchdog budget and was cut off.
    PointTimedOut {
        workload: String,
        system: String,
        /// Cycles simulated when the watchdog fired.
        cycles: u64,
        /// The configured ceiling.
        limit: u64,
    },
    /// A `fail_fast` sweep aborted on its first failure.
    Aborted {
        /// Description of the point that triggered the abort.
        point: String,
        /// The underlying failure, rendered.
        detail: String,
    },
    /// Reading or writing a run-manifest file failed.
    ManifestIo { path: PathBuf, detail: String },
    /// A run-manifest line could not be parsed during `--resume`.
    ManifestParse { path: PathBuf, line: usize, detail: String },
    /// A configuration was structurally invalid.
    InvalidConfig { detail: String },
}

impl SimError {
    /// Manifest I/O failure at `path`.
    pub fn manifest_io(path: impl Into<PathBuf>, detail: impl fmt::Display) -> Self {
        SimError::ManifestIo { path: path.into(), detail: detail.to_string() }
    }
}

impl From<simcore::config::ConfigError> for SimError {
    fn from(e: simcore::config::ConfigError) -> Self {
        SimError::InvalidConfig { detail: e.to_string() }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::PointPanicked { workload, system, message } => {
                write!(f, "point {workload} on {system} panicked: {message}")
            }
            SimError::PointTimedOut { workload, system, cycles, limit } => write!(
                f,
                "point {workload} on {system} exceeded its watchdog budget \
                 ({cycles} cycles, limit {limit})"
            ),
            SimError::Aborted { point, detail } => {
                write!(f, "sweep aborted (fail-fast) at {point}: {detail}")
            }
            SimError::ManifestIo { path, detail } => {
                write!(f, "manifest I/O failed at {}: {detail}", path.display())
            }
            SimError::ManifestParse { path, line, detail } => {
                write!(f, "manifest {}:{line}: {detail}", path.display())
            }
            SimError::InvalidConfig { detail } => write!(f, "invalid configuration: {detail}"),
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_context() {
        let e = SimError::PointPanicked {
            workload: "cc.urand".into(),
            system: "SDC+LP".into(),
            message: "boom".into(),
        };
        let s = e.to_string();
        assert!(s.contains("cc.urand") && s.contains("SDC+LP") && s.contains("boom"));

        let e = SimError::PointTimedOut {
            workload: "pr.kron".into(),
            system: "Baseline".into(),
            cycles: 1000,
            limit: 500,
        };
        assert!(e.to_string().contains("watchdog"));

        let e = SimError::manifest_io("/tmp/x.jsonl", "disk full");
        assert!(e.to_string().contains("x.jsonl") && e.to_string().contains("disk full"));
    }

    #[test]
    fn config_errors_fold_into_invalid_config() {
        let mut cfg = simcore::SystemConfig::baseline(1);
        cfg.llc.sets = 100;
        let e = SimError::from(cfg.validate().unwrap_err());
        match &e {
            SimError::InvalidConfig { detail } => {
                assert!(detail.contains("llc") && detail.contains("power of two"), "{detail}");
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }
}
