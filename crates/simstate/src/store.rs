//! File-backed checkpoint store with crash-consistent writes.
//!
//! Checkpoints are named by an opaque key string (the caller encodes
//! workload/scale/warmup-class identity into it); the store maps keys to
//! stable filenames, writes through a temporary file plus atomic rename
//! (a crash mid-write leaves the previous checkpoint intact, never a
//! half-written one), and validates every load against the caller's
//! config/trace identity before returning a payload.

use crate::container::{read_snapshot, write_snapshot, Snapshot};
use crate::frame::Fnv1a;
use crate::{retry_io, StateError, IO_RETRY_ATTEMPTS};
use std::fs;
use std::path::{Path, PathBuf};

/// A directory of `*.sstate` checkpoint files.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
}

impl CheckpointStore {
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        CheckpointStore { dir: dir.into() }
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The stable file path for `key`: a sanitized, truncated prefix of
    /// the key (for human inspection) plus its FNV-1a hash (for
    /// uniqueness), extension `.sstate`.
    pub fn path_for(&self, key: &str) -> PathBuf {
        let mut sum = Fnv1a::new();
        sum.update(key.as_bytes());
        let mut name: String = key
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() || c == '.' || c == '-' { c } else { '_' })
            .take(80)
            .collect();
        if name.is_empty() {
            name.push('_');
        }
        self.dir.join(format!("{name}-{:016x}.sstate", sum.finish()))
    }

    /// Load and fully validate the checkpoint for `key`.
    ///
    /// `Ok(None)` means no checkpoint exists (a cold start, not a fault).
    /// Any other failure — unreadable file, corrupt container, stale
    /// config/trace identity — comes back as `Err`, so the caller can
    /// warn and regenerate.
    pub fn load(
        &self,
        key: &str,
        config_hash: u64,
        trace_checksum: u64,
    ) -> Result<Option<Snapshot>, StateError> {
        let path = self.path_for(key);
        let file = match fs::File::open(&path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(StateError::Io(e)),
        };
        let snap = read_snapshot(file)?;
        snap.check_identity(config_hash, trace_checksum)?;
        Ok(Some(snap))
    }

    /// Persist a checkpoint for `key` crash-consistently: serialize to
    /// `<path>.tmp`, then atomically rename over the final path. Both the
    /// write and the rename go through the bounded deterministic
    /// [`retry_io`] ladder.
    pub fn save(&self, key: &str, snap: &Snapshot) -> Result<PathBuf, StateError> {
        let path = self.path_for(key);
        if let Some(parent) = path.parent() {
            retry_io(IO_RETRY_ATTEMPTS, || fs::create_dir_all(parent)).map_err(StateError::Io)?;
        }
        let tmp = path.with_extension("sstate.tmp");
        retry_io(IO_RETRY_ATTEMPTS, || {
            let file = fs::File::create(&tmp)?;
            write_snapshot(snap, &file)?;
            file.sync_all()
        })
        .map_err(StateError::Io)?;
        retry_io(IO_RETRY_ATTEMPTS, || fs::rename(&tmp, &path)).map_err(StateError::Io)?;
        Ok(path)
    }

    /// Delete the checkpoint for `key` (e.g. once its point completed and
    /// the mid-measurement snapshot is obsolete). Missing files are fine.
    pub fn remove(&self, key: &str) -> Result<(), StateError> {
        match fs::remove_file(self.path_for(key)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(StateError::Io(e)),
        }
    }

    /// Reap orphaned checkpoint files left behind by killed processes.
    ///
    /// Two classes of file are stale once no sweep is in flight:
    ///
    /// - `mid_*.sstate` — mid-measurement crash snapshots. A live sweep
    ///   deletes its own `mid|…` snapshot when the point completes, so
    ///   any that remain between sweeps belong to a process that died.
    ///   (Keys are sanitized by [`path_for`](Self::path_for), which maps
    ///   the `mid|` prefix to `mid_`.)
    /// - `*.sstate.tmp` — half-written staging files from a crash inside
    ///   [`save`](Self::save); the atomic rename never happened, so they
    ///   hold no checkpoint anyone can load.
    ///
    /// Warmup forks (`warm_*.sstate`) are deliberately spared: they are
    /// keyed by warmup class, stay valid across process lifetimes, and
    /// are the whole point of the persistent store. Callers must only
    /// invoke this when no sweep is using the directory (batch binaries
    /// after their sweeps finish; the daemon at startup and when its
    /// queue drains). Returns the number of files removed; a missing
    /// directory is a clean zero, and individual unlink races (another
    /// reaper got there first) are ignored.
    pub fn sweep_stale(&self) -> Result<usize, StateError> {
        let entries = match fs::read_dir(&self.dir) {
            Ok(e) => e,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
            Err(e) => return Err(StateError::Io(e)),
        };
        let mut removed = 0;
        for entry in entries {
            let entry = entry.map_err(StateError::Io)?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let stale = name.ends_with(".sstate.tmp")
                || (name.starts_with("mid_") && name.ends_with(".sstate"));
            if !stale {
                continue;
            }
            match fs::remove_file(entry.path()) {
                Ok(()) => removed += 1,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(StateError::Io(e)),
            }
        }
        Ok(removed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_store(tag: &str) -> CheckpointStore {
        let dir = std::env::temp_dir().join(format!("simstate-store-test-{tag}"));
        let _ = fs::remove_dir_all(&dir);
        CheckpointStore::new(dir)
    }

    fn snap(pos: u64) -> Snapshot {
        Snapshot {
            config_hash: 0xAB,
            trace_checksum: 0xCD,
            trace_pos: pos,
            payload: vec![1, 2, 3, 4, 5],
        }
    }

    #[test]
    fn save_load_round_trips() {
        let store = tmp_store("roundtrip");
        let key = "pr.kron|small|warmup=2000000|class=0123456789abcdef";
        assert!(matches!(store.load(key, 0xAB, 0xCD), Ok(None)), "cold start is Ok(None)");
        store.save(key, &snap(7)).expect("save");
        let back = store.load(key, 0xAB, 0xCD).expect("load").expect("present");
        assert_eq!(back, snap(7));
        // No stray tmp file left behind.
        assert!(!store.path_for(key).with_extension("sstate.tmp").exists());
    }

    #[test]
    fn keys_map_to_distinct_readable_files() {
        let store = tmp_store("names");
        let a = store.path_for("pr.kron|small|c=1");
        let b = store.path_for("pr.kron|small|c=2");
        assert_ne!(a, b);
        let name = a.file_name().and_then(|n| n.to_str()).expect("utf8 name");
        assert!(name.starts_with("pr.kron_small_c_1-"), "sanitized prefix, got {name}");
        assert!(name.ends_with(".sstate"));
    }

    #[test]
    fn stale_identity_is_rejected() {
        let store = tmp_store("stale");
        store.save("k", &snap(0)).expect("save");
        assert!(matches!(
            store.load("k", 0xAB ^ 1, 0xCD),
            Err(StateError::ConfigHashMismatch { .. })
        ));
        assert!(matches!(store.load("k", 0xAB, 0xCD ^ 1), Err(StateError::TraceMismatch { .. })));
    }

    #[test]
    fn corrupt_file_is_a_typed_error_not_a_panic() {
        let store = tmp_store("corrupt");
        store.save("k", &snap(0)).expect("save");
        let path = store.path_for("k");
        // Truncate mid-payload.
        let bytes = fs::read(&path).expect("read");
        fs::write(&path, &bytes[..bytes.len() - 10]).expect("truncate");
        assert!(store.load("k", 0xAB, 0xCD).is_err());
        // Overwrite after a save replaces it cleanly.
        store.save("k", &snap(9)).expect("re-save");
        assert_eq!(store.load("k", 0xAB, 0xCD).expect("load").expect("present").trace_pos, 9);
    }

    #[test]
    fn sweep_stale_reaps_mids_and_tmps_but_spares_warm_forks() {
        let store = tmp_store("sweep-stale");
        store.save("warm|pr.kron|small|c=1", &snap(0)).expect("save warm");
        store.save("mid|pr.kron|small|c=1", &snap(3)).expect("save mid");
        store.save("mid|cc.urand|small|c=2", &snap(5)).expect("save mid 2");
        // A crash mid-save leaves a dangling staging file behind.
        let orphan_tmp = store.path_for("warm|bfs.web|small|c=3").with_extension("sstate.tmp");
        fs::write(&orphan_tmp, b"half-written").expect("write tmp");

        let removed = store.sweep_stale().expect("sweep");
        assert_eq!(removed, 3, "two mids + one tmp");
        assert!(!orphan_tmp.exists());
        assert!(matches!(store.load("mid|pr.kron|small|c=1", 0xAB, 0xCD), Ok(None)));
        assert!(matches!(store.load("mid|cc.urand|small|c=2", 0xAB, 0xCD), Ok(None)));
        let warm = store.load("warm|pr.kron|small|c=1", 0xAB, 0xCD).expect("load").expect("kept");
        assert_eq!(warm, snap(0));

        // Idempotent: a second pass finds nothing.
        assert_eq!(store.sweep_stale().expect("sweep again"), 0);
    }

    #[test]
    fn sweep_stale_on_missing_dir_is_a_clean_zero() {
        let store = tmp_store("sweep-missing");
        assert_eq!(store.sweep_stale().expect("sweep"), 0);
    }

    #[test]
    fn remove_is_idempotent() {
        let store = tmp_store("remove");
        store.save("k", &snap(0)).expect("save");
        assert!(store.remove("k").is_ok());
        assert!(store.remove("k").is_ok(), "second remove is fine");
        assert!(matches!(store.load("k", 0xAB, 0xCD), Ok(None)));
    }
}
