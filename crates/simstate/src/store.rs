//! File-backed checkpoint store with crash-consistent, write-behind writes.
//!
//! Checkpoints are named by an opaque key string (the caller encodes
//! workload/scale/warmup-class identity into it); the store maps keys to
//! stable filenames, writes through a temporary file plus fsync and atomic
//! rename (a crash mid-write leaves the previous checkpoint intact, never a
//! half-written one), and validates every load against the caller's
//! config/trace identity before returning a payload.
//!
//! Writes are *write-behind*: [`save`](CheckpointStore::save) and
//! [`remove`](CheckpointStore::remove) queue the operation for the store's
//! one background writer thread and return at once, so a simulation never
//! waits on fsync or on a filesystem that frees blocks slowly. A queued
//! save replaces an older queued operation on the same file, and a remove
//! cancels a queued save, so a snapshot that is obsolete before it reaches
//! the disk is never written. [`load`](CheckpointStore::load) reads the
//! queue before the disk, so callers read their own writes, and
//! [`flush`](CheckpointStore::flush) waits for the queue to empty (as does
//! dropping the last handle).

use crate::container::{read_snapshot, write_snapshot, Snapshot};
use crate::frame::Fnv1a;
use crate::{retry_io, StateError, IO_RETRY_ATTEMPTS};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// Most saves a store's queue holds; a [`CheckpointStore::save`] past it
/// waits for the writer, so memory stays bounded when the disk falls
/// behind. Coalescing keeps the queue to about one entry per key in flight.
const MAX_QUEUED_SAVES: usize = 8;

/// A directory of `*.sstate` checkpoint files. Clones share one write
/// queue and one writer thread.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
    writer: Arc<Writer>,
}

/// A background save or removal that failed, and the file it was for.
#[derive(Debug)]
pub struct WriteError {
    pub path: PathBuf,
    pub error: StateError,
}

impl fmt::Display for WriteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.path.display(), self.error)
    }
}

impl std::error::Error for WriteError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// One file operation on its way to the disk.
#[derive(Debug, Clone)]
enum Op {
    Save(Arc<Snapshot>),
    Remove,
}

impl Op {
    fn apply(&self, path: &Path) -> Result<(), StateError> {
        match self {
            Op::Save(snap) => write_atomically(path, snap),
            Op::Remove => match fs::remove_file(path) {
                Ok(()) => Ok(()),
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
                Err(e) => Err(StateError::Io(e)),
            },
        }
    }
}

/// Lets [`CheckpointStore::save`] take a borrowed snapshot.
impl From<&Snapshot> for Arc<Snapshot> {
    fn from(snap: &Snapshot) -> Self {
        Arc::new(snap.clone())
    }
}

/// Serialize `snap` to `<path>.tmp`, fsync it, then atomically rename it
/// over `path`. The write and the rename each go through the bounded
/// deterministic [`retry_io`] ladder.
fn write_atomically(path: &Path, snap: &Snapshot) -> Result<(), StateError> {
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
    retry_io(IO_RETRY_ATTEMPTS, || fs::rename(&tmp, path)).map_err(StateError::Io)
}

/// Is `name` a persisted post-warmup fork? Keys are sanitized by
/// [`CheckpointStore::path_for`], which maps the `warm|` prefix to `warm_`.
fn is_warm_fork(name: &str) -> bool {
    name.starts_with("warm_") && name.ends_with(".sstate")
}

/// The write queue, under the store's one mutex.
#[derive(Debug, Default)]
struct Queue {
    /// Operations not yet started, oldest first; at most one per file.
    pending: VecDeque<(PathBuf, Op)>,
    /// The operation the writer thread is carrying out.
    active: Option<(PathBuf, Op)>,
    /// First background failure since the last flush.
    first_error: Option<WriteError>,
    /// The writer thread, spawned by the first queued operation.
    thread: Option<JoinHandle<()>>,
    /// Set when the last store handle drops: drain, then exit.
    closing: bool,
}

impl Queue {
    fn queued_saves(&self) -> usize {
        self.pending.iter().filter(|(_, op)| matches!(op, Op::Save(_))).count()
    }

    fn idle(&self) -> bool {
        self.pending.is_empty() && self.active.is_none()
    }

    /// The operation that will leave `path` in its final state: the queued
    /// one, else the one in progress.
    fn latest(&self, path: &Path) -> Option<&Op> {
        self.pending
            .iter()
            .find(|(p, _)| p == path)
            .or(self.active.as_ref().filter(|(p, _)| p == path))
            .map(|(_, op)| op)
    }
}

/// The queue the store's handles and its writer thread share.
#[derive(Debug, Default)]
struct Channel {
    queue: Mutex<Queue>,
    /// Wakes the writer thread: work arrived or the store is closing.
    work: Condvar,
    /// Wakes blocked savers and flushers: the queue shrank or went idle.
    progress: Condvar,
}

impl Channel {
    fn lock(&self) -> MutexGuard<'_, Queue> {
        // Critical sections only move queue entries; a poisoned lock
        // still guards a consistent queue.
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait_progress<'a>(&self, q: MutexGuard<'a, Queue>) -> MutexGuard<'a, Queue> {
        self.progress.wait(q).unwrap_or_else(PoisonError::into_inner)
    }

    /// Lock the queue once the writer has nothing left to do.
    fn lock_idle(&self) -> MutexGuard<'_, Queue> {
        let mut q = self.lock();
        while !q.idle() {
            q = self.wait_progress(q);
        }
        q
    }

    /// The writer thread: run queued operations in FIFO order, one at a
    /// time, until the store closes with nothing left to do.
    fn run(&self) {
        let mut q = self.lock();
        loop {
            let Some((path, op)) = q.pending.pop_front() else {
                if q.closing {
                    return;
                }
                q = self.work.wait(q).unwrap_or_else(PoisonError::into_inner);
                continue;
            };
            q.active = Some((path.clone(), op.clone()));
            self.progress.notify_all();
            drop(q);
            let result = op.apply(&path);
            q = self.lock();
            q.active = None;
            if let Err(error) = result {
                q.first_error.get_or_insert(WriteError { path, error });
            }
            self.progress.notify_all();
        }
    }
}

/// Owns the writer thread. Dropping the last store handle drops this,
/// which lets the thread drain the queue and joins it.
#[derive(Debug, Default)]
struct Writer {
    channel: Arc<Channel>,
}

impl Writer {
    /// Queue `op` on `path`, coalescing with the queued operation on the
    /// same file. Runs `op` inline (returning its result) when no writer
    /// thread can be spawned.
    fn submit(&self, path: PathBuf, op: Op) -> Result<(), StateError> {
        let channel = &self.channel;
        let mut q = channel.lock();
        if q.thread.is_none() {
            let worker = Arc::clone(channel);
            match std::thread::Builder::new()
                .name("sstate-writer".into())
                .spawn(move || worker.run())
            {
                Ok(handle) => q.thread = Some(handle),
                Err(_) => {
                    drop(q);
                    return op.apply(&path);
                }
            }
        }
        loop {
            let slot = q.pending.iter().position(|(p, _)| *p == path);
            // Only a save that adds a queued save waits for room.
            let fits = matches!(op, Op::Remove)
                || slot.is_some_and(|i| matches!(q.pending[i].1, Op::Save(_)))
                || q.queued_saves() < MAX_QUEUED_SAVES;
            if fits {
                match slot {
                    Some(i) => q.pending[i].1 = op,
                    None => q.pending.push_back((path, op)),
                }
                break;
            }
            q = channel.wait_progress(q);
        }
        channel.work.notify_one();
        Ok(())
    }
}

impl Drop for Writer {
    fn drop(&mut self) {
        let thread = {
            let mut q = self.channel.lock();
            q.closing = true;
            q.thread.take()
        };
        self.channel.work.notify_one();
        if let Some(thread) = thread {
            // The thread only exits once the queue is empty; a panic in it
            // has nothing left to report to a store nobody holds.
            let _ = thread.join();
        }
    }
}

impl CheckpointStore {
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        CheckpointStore { dir: dir.into(), writer: Arc::default() }
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

    /// Load and fully validate the checkpoint for `key`: the queued or
    /// in-progress save when there is one, else the file on disk.
    ///
    /// `Ok(None)` means no checkpoint exists (a cold start, not a fault),
    /// including one whose removal is queued. Any other failure —
    /// unreadable file, corrupt container, stale config/trace identity —
    /// comes back as `Err`, so the caller can warn and regenerate.
    pub fn load(
        &self,
        key: &str,
        config_hash: u64,
        trace_checksum: u64,
    ) -> Result<Option<Snapshot>, StateError> {
        let path = self.path_for(key);
        let pending = self.writer.channel.lock().latest(&path).cloned();
        let snap = match pending {
            Some(Op::Remove) => return Ok(None),
            Some(Op::Save(snap)) => Snapshot::clone(&snap),
            None => {
                let file = match fs::File::open(&path) {
                    Ok(f) => f,
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
                    Err(e) => return Err(StateError::Io(e)),
                };
                read_snapshot(file)?
            }
        };
        snap.check_identity(config_hash, trace_checksum)?;
        Ok(Some(snap))
    }

    /// Queue a crash-consistent write of the checkpoint for `key` and
    /// return its final path. The writer serializes it to `<path>.tmp`,
    /// fsyncs, and atomically renames it over the final path; a failure
    /// surfaces at the next [`flush`](Self::flush). Blocks only while
    /// `MAX_QUEUED_SAVES` (8) saves are already queued. An owned snapshot
    /// moves into the queue; a borrowed one is copied.
    pub fn save(&self, key: &str, snap: impl Into<Arc<Snapshot>>) -> Result<PathBuf, StateError> {
        let path = self.path_for(key);
        self.writer.submit(path.clone(), Op::Save(snap.into()))?;
        Ok(path)
    }

    /// Queue the deletion of the checkpoint for `key` (e.g. once its point
    /// completed and the mid-measurement snapshot is obsolete), cancelling
    /// a save of it that has not started. Missing files are fine.
    pub fn remove(&self, key: &str) -> Result<(), StateError> {
        self.writer.submit(self.path_for(key), Op::Remove)
    }

    /// Wait until every queued save and removal has reached the disk, and
    /// return the first failure since the last flush.
    pub fn flush(&self) -> Result<(), WriteError> {
        match self.writer.channel.lock_idle().first_error.take() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// How many post-warmup forks (`warm_*.sstate`) the store holds: files
    /// on disk plus queued saves, less queued removals.
    pub fn warm_forks(&self) -> usize {
        let q = self.writer.channel.lock();
        // The newest pending operation on a warm file decides whether it
        // counts; every other warm file counts from the disk.
        let mut pending: BTreeMap<&Path, bool> = BTreeMap::new();
        for (path, op) in q.active.iter().chain(&q.pending) {
            if path.file_name().and_then(|n| n.to_str()).is_some_and(is_warm_fork) {
                pending.insert(path, matches!(op, Op::Save(_)));
            }
        }
        let on_disk = fs::read_dir(&self.dir).map_or(0, |entries| {
            entries
                .flatten()
                .filter(|e| e.file_name().to_str().is_some_and(is_warm_fork))
                .filter(|e| !pending.contains_key(e.path().as_path()))
                .count()
        });
        on_disk + pending.values().filter(|&&saved| saved).count()
    }

    /// Reap orphaned checkpoint files left behind by killed processes.
    ///
    /// Two classes of file are stale once no sweep is in flight:
    ///
    /// - `mid_*.sstate` — mid-measurement crash snapshots. A live sweep
    ///   removes its own `mid|…` snapshot when the point completes, and
    ///   the removal has reached the disk by the sweep's next flush, so
    ///   any that remain between sweeps belong to a process that died.
    ///   (Keys are sanitized by [`path_for`](Self::path_for), which maps
    ///   the `mid|` prefix to `mid_`.)
    /// - `*.sstate.tmp` — half-written staging files from a crash inside
    ///   a save; the atomic rename never happened, so they hold no
    ///   checkpoint anyone can load.
    ///
    /// Warmup forks (`warm_*.sstate`) are deliberately spared: they are
    /// keyed by warmup class, stay valid across process lifetimes, and
    /// are the whole point of the persistent store. Callers must only
    /// invoke this when no sweep is using the directory (batch binaries
    /// after their sweeps finish; the daemon at startup and when its
    /// queue drains). The reap waits for this store's writer to go idle
    /// and keeps it idle while it scans, so it never races a staging
    /// file being written. Returns the number of files removed; a
    /// missing directory is a clean zero, and individual unlink races
    /// (another reaper got there first) are ignored.
    pub fn sweep_stale(&self) -> Result<usize, StateError> {
        let _idle = self.writer.channel.lock_idle();
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
        store.save(key, snap(7)).expect("save");
        let back = store.load(key, 0xAB, 0xCD).expect("load").expect("present");
        assert_eq!(back, snap(7));
        store.flush().expect("flush");
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
        store.save("k", snap(0)).expect("save");
        assert!(matches!(
            store.load("k", 0xAB ^ 1, 0xCD),
            Err(StateError::ConfigHashMismatch { .. })
        ));
        assert!(matches!(store.load("k", 0xAB, 0xCD ^ 1), Err(StateError::TraceMismatch { .. })));
    }

    #[test]
    fn corrupt_file_is_a_typed_error_not_a_panic() {
        let store = tmp_store("corrupt");
        store.save("k", snap(0)).expect("save");
        store.flush().expect("flush");
        let path = store.path_for("k");
        // Truncate mid-payload.
        let bytes = fs::read(&path).expect("read");
        fs::write(&path, &bytes[..bytes.len() - 10]).expect("truncate");
        assert!(store.load("k", 0xAB, 0xCD).is_err());
        // Overwrite after a save replaces it cleanly.
        store.save("k", snap(9)).expect("re-save");
        assert_eq!(store.load("k", 0xAB, 0xCD).expect("load").expect("present").trace_pos, 9);
    }

    #[test]
    fn sweep_stale_reaps_mids_and_tmps_but_spares_warm_forks() {
        let store = tmp_store("sweep-stale");
        store.save("warm|pr.kron|small|c=1", snap(0)).expect("save warm");
        store.save("mid|pr.kron|small|c=1", snap(3)).expect("save mid");
        store.save("mid|cc.urand|small|c=2", snap(5)).expect("save mid 2");
        store.flush().expect("flush");
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
        store.save("k", snap(0)).expect("save");
        assert!(store.remove("k").is_ok());
        assert!(store.remove("k").is_ok(), "second remove is fine");
        assert!(matches!(store.load("k", 0xAB, 0xCD), Ok(None)));
    }

    /// A store whose writer never runs: operations stay queued, so a test
    /// can look at the queue. Never flush it.
    fn held_store(tag: &str) -> CheckpointStore {
        let store = tmp_store(tag);
        store.writer.channel.lock().thread = Some(std::thread::spawn(|| {}));
        store
    }

    fn queued(store: &CheckpointStore) -> Vec<(PathBuf, bool)> {
        let q = store.writer.channel.lock();
        q.pending.iter().map(|(p, op)| (p.clone(), matches!(op, Op::Save(_)))).collect()
    }

    #[test]
    fn load_reads_queued_saves_and_removes() {
        let store = held_store("queued");
        store.save("k", snap(7)).expect("save");
        assert!(!store.path_for("k").exists(), "the save is still queued");
        assert_eq!(store.load("k", 0xAB, 0xCD).expect("load"), Some(snap(7)));
        assert!(matches!(
            store.load("k", 0xAB ^ 1, 0xCD),
            Err(StateError::ConfigHashMismatch { .. })
        ));

        // A newer save replaces the queued one; a remove cancels it.
        store.save("k", snap(8)).expect("re-save an owned snapshot");
        assert_eq!(queued(&store), vec![(store.path_for("k"), true)]);
        assert_eq!(store.load("k", 0xAB, 0xCD).expect("load"), Some(snap(8)));
        store.remove("k").expect("remove");
        assert_eq!(queued(&store), vec![(store.path_for("k"), false)]);
        assert!(matches!(store.load("k", 0xAB, 0xCD), Ok(None)));
    }

    #[test]
    fn save_then_remove_leaves_neither_file_nor_staging_file() {
        let store = tmp_store("save-remove");
        store.save("k", snap(1)).expect("save");
        store.remove("k").expect("remove");
        store.flush().expect("flush");
        assert!(!store.path_for("k").exists());
        assert!(!store.path_for("k").with_extension("sstate.tmp").exists());
    }

    #[test]
    fn dropping_the_last_handle_writes_queued_saves() {
        let store = tmp_store("drop");
        let clone = store.clone();
        clone.save("a", snap(1)).expect("save a");
        clone.save("b", snap(2)).expect("save b");
        drop(clone);
        let (a, b) = (store.path_for("a"), store.path_for("b"));
        drop(store);
        assert!(a.exists() && b.exists(), "the last drop drains the queue");
        assert_eq!(read_snapshot(fs::File::open(&b).expect("open")).expect("read"), snap(2));
    }

    #[test]
    fn flush_reports_a_failed_write_and_later_saves_succeed() {
        let root = std::env::temp_dir().join("simstate-store-test-flush-error");
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(&root).expect("mkdir");
        let blocker = root.join("not-a-dir");
        fs::write(&blocker, b"regular file").expect("write blocker");
        let store = CheckpointStore::new(blocker.join("state"));

        store.save("k", snap(1)).expect("a save only queues");
        let err = store.flush().expect_err("the write under a regular file fails");
        assert_eq!(err.path, store.path_for("k"));
        assert!(matches!(err.error, StateError::Io(_)));
        assert!(store.flush().is_ok(), "a flush reports an error once");

        fs::remove_file(&blocker).expect("unblock");
        store.save("k", snap(2)).expect("save");
        store.flush().expect("the writer survives a failure");
        assert_eq!(store.load("k", 0xAB, 0xCD).expect("load"), Some(snap(2)));
    }

    #[test]
    fn a_full_queue_holds_new_saves_but_not_coalesced_ones() {
        let store = held_store("bounded");
        for i in 0..MAX_QUEUED_SAVES {
            store.save(&format!("k{i}"), snap(0)).expect("save");
        }
        // At the bound, a save over a queued one and a remove still pass.
        store.save("k0", snap(1)).expect("coalesced save");
        store.remove("k1").expect("remove");
        store.save("k1", snap(1)).expect("save over a queued remove, one save below the bound");
        assert_eq!(queued(&store).len(), MAX_QUEUED_SAVES);

        // A new key waits until the writer takes an entry off the queue.
        let (started, saving) = std::sync::mpsc::channel();
        let blocked = {
            let store = store.clone();
            std::thread::spawn(move || {
                started.send(()).expect("signal");
                store.save("new", snap(2)).map(|_| ())
            })
        };
        saving.recv().expect("saver started");
        for _ in 0..10_000 {
            std::thread::yield_now();
            assert!(!queued(&store).iter().any(|(p, _)| *p == store.path_for("new")));
        }
        {
            let mut q = store.writer.channel.lock();
            q.pending.pop_front();
            store.writer.channel.progress.notify_all();
        }
        blocked.join().expect("join").expect("save");
        let q = queued(&store);
        assert_eq!(q.len(), MAX_QUEUED_SAVES);
        assert_eq!(q.last(), Some(&(store.path_for("new"), true)));
    }

    #[test]
    fn warm_forks_count_the_disk_and_the_queue() {
        let disk = tmp_store("warm-count");
        for key in ["warm|a", "warm|b", "mid|a"] {
            disk.save(key, snap(0)).expect("save");
        }
        disk.flush().expect("flush");
        assert_eq!(disk.warm_forks(), 2);

        let store =
            CheckpointStore { dir: disk.dir().to_path_buf(), ..held_store("warm-count-held") };
        store.save("warm|c", snap(0)).expect("queued warm save");
        store.save("mid|b", snap(0)).expect("queued mid save");
        assert_eq!(store.warm_forks(), 3);
        store.remove("warm|a").expect("queued warm remove");
        store.save("warm|c", snap(1)).expect("coalesced save");
        assert_eq!(store.warm_forks(), 2);
    }
}
