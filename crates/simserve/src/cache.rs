//! The daemon's warm state: a runner pool (graphs + traces) and a
//! single-flight result cache.
//!
//! ## Exactly-once simulation
//!
//! The result cache is keyed by the batch executor's resume identity
//! (`workload|system|config_hash|scale|warmup|measure|skip|
//! trace_checksum` — see `RunManifest::resume_key`), so "would batch
//! resume reuse this record?" and "does the daemon serve this from
//! cache?" are the same question. Lookup is *single-flight*: the first
//! claimant of a key gets a [`PointLease`] obliging it to simulate;
//! every concurrent claimant blocks on the cell until the lease is
//! fulfilled and then reads the finished record. Two clients racing on
//! an identical point therefore simulate it exactly once — the property
//! `cache-stats` counters expose (`points_simulated == result_misses`).
//!
//! Failures are *not* cached: a lease fulfilled with a failed record
//! serves that failure to the claimants already waiting (they should not
//! re-run a point that just panicked under them), but the cell is
//! removed, so a later resubmission retries instead of being poisoned
//! forever.

use gpgraph::SuiteScale;
use gpworkloads::matrix::RunManifest;
use gpworkloads::Runner;
use parking_lot::Mutex;
use simcore::Window;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::{Condvar, Mutex as StdMutex, MutexGuard, PoisonError};

/// One [`Runner`] per (scale, window, skip) class. Every submission in
/// the same class shares one runner. Classes share graphs at one scale,
/// and traces whose skip and window total match, through the runners'
/// process-wide cache.
#[derive(Default)]
pub struct RunnerPool {
    runners: Mutex<BTreeMap<String, Arc<Runner>>>,
}

impl RunnerPool {
    pub fn new() -> Self {
        RunnerPool::default()
    }

    /// The shared runner for a submission class (created on first use).
    pub fn get(&self, scale: SuiteScale, window: Window, skip: Option<u64>) -> Arc<Runner> {
        let key = format!("{scale:?}|w{}|m{}|s{skip:?}", window.warmup, window.measure);
        let mut guard = self.runners.lock();
        if let Some(r) = guard.get(&key) {
            return Arc::clone(r);
        }
        let mut runner = Runner::new(scale, window);
        if let Some(s) = skip {
            runner.skip = s;
        }
        let runner = Arc::new(runner);
        guard.insert(key, Arc::clone(&runner));
        runner
    }

    /// (runner classes, cached traces, cached graphs) across the pool. A
    /// graph or trace that several classes share counts once.
    pub fn stats(&self) -> (usize, usize, usize) {
        let guard = self.runners.lock();
        let (traces, graphs) = gpworkloads::runner::resident_counts(guard.values().map(|r| &**r));
        (guard.len(), traces, graphs)
    }
}

/// A completed point as the cache stores it. The manifest's `index` is
/// meaningless here (it belongs to whichever submission ran first);
/// serving code rewrites it per request.
#[derive(Clone)]
pub struct CachedPoint {
    pub manifest: RunManifest,
    /// `ok`, `failed`, or `timed_out`.
    pub status: String,
}

enum CellState {
    /// A lease holder is simulating; wait on the condvar.
    Running,
    /// Done — serve this forever.
    Ready(CachedPoint),
    /// The run failed. `Some` serves the failure record to claimants that
    /// were already waiting; the cell is unlinked from the map, so fresh
    /// claims retry. `None` means the lease was abandoned (its worker
    /// died before reporting) — waiters must retry from scratch.
    Failed(Option<CachedPoint>),
}

struct PointCell {
    state: StdMutex<CellState>,
    cv: Condvar,
}

fn lock_cell(cell: &PointCell) -> MutexGuard<'_, CellState> {
    // The simulating thread cannot panic while holding this lock (it only
    // stores finished values), so poison recovery is safe.
    cell.state.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What a cache lookup resolved to.
pub enum Claim {
    /// Warm: a finished record (possibly a just-failed one from a
    /// concurrent lease — check `status`). No simulation may run.
    /// Boxed: a `CachedPoint` carries a full manifest, dwarfing the
    /// lease variant.
    Hit(Box<CachedPoint>),
    /// Cold: the caller owns the simulation and must call
    /// [`PointLease::fulfil`] or [`PointLease::fail`].
    Lease(PointLease),
}

/// The single-flight obligation handed to the first claimant of a key.
/// Dropping it without fulfilling wakes waiters into a retry (no
/// deadlock), but well-behaved callers always report.
pub struct PointLease {
    cache: Arc<ResultCache>,
    key: String,
    cell: Arc<PointCell>,
    done: bool,
}

impl PointLease {
    /// Publish a successful record; waiters and all future claims hit.
    pub fn fulfil(mut self, point: CachedPoint) {
        self.done = true;
        *lock_cell(&self.cell) = CellState::Ready(point);
        self.cell.cv.notify_all();
    }

    /// Report a failed run: current waiters receive `point`, the cell is
    /// unlinked so future claims retry.
    pub fn fail(mut self, point: CachedPoint) {
        self.done = true;
        self.cache.unlink(&self.key, &self.cell);
        *lock_cell(&self.cell) = CellState::Failed(Some(point));
        self.cell.cv.notify_all();
    }

    fn abandon(&mut self) {
        self.done = true;
        self.cache.unlink(&self.key, &self.cell);
        *lock_cell(&self.cell) = CellState::Failed(None);
        self.cell.cv.notify_all();
    }
}

impl Drop for PointLease {
    fn drop(&mut self) {
        if !self.done {
            self.abandon();
        }
    }
}

/// The process-wide result cache plus its audit counters.
#[derive(Default)]
pub struct ResultCache {
    cells: Mutex<BTreeMap<String, Arc<PointCell>>>,
    /// Claims served from a finished cell (including waiters that piggy-
    /// backed on a concurrent lease).
    pub hits: AtomicU64,
    /// Claims that took a lease (each obliges one simulation).
    pub misses: AtomicU64,
    /// Points that actually replayed on an engine.
    pub simulated: AtomicU64,
    /// Simulated points that ended failed/timed-out.
    pub failed: AtomicU64,
}

impl ResultCache {
    pub fn new() -> Self {
        ResultCache::default()
    }

    /// Resolve `key` to a warm record or a lease (single-flight; blocks
    /// while a concurrent lease holder simulates the same key).
    pub fn claim(self: &Arc<Self>, key: &str) -> Claim {
        loop {
            let (cell, leased) = {
                let mut guard = self.cells.lock();
                match guard.get(key) {
                    Some(cell) => (Arc::clone(cell), false),
                    None => {
                        let cell = Arc::new(PointCell {
                            state: StdMutex::new(CellState::Running),
                            cv: Condvar::new(),
                        });
                        guard.insert(key.to_string(), Arc::clone(&cell));
                        (cell, true)
                    }
                }
            };
            if leased {
                self.misses.fetch_add(1, Ordering::Relaxed);
                return Claim::Lease(PointLease {
                    cache: Arc::clone(self),
                    key: key.to_string(),
                    cell,
                    done: false,
                });
            }
            let mut state = lock_cell(&cell);
            loop {
                match &*state {
                    CellState::Ready(point) => {
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        return Claim::Hit(Box::new(point.clone()));
                    }
                    CellState::Failed(Some(point)) => {
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        return Claim::Hit(Box::new(point.clone()));
                    }
                    CellState::Failed(None) => break,
                    CellState::Running => {
                        state = cell.cv.wait(state).unwrap_or_else(PoisonError::into_inner);
                    }
                }
            }
            // Abandoned lease: fall through and re-claim from scratch.
        }
    }

    /// Finished entries resident (a running lease counts until it fails).
    pub fn entries(&self) -> usize {
        self.cells.lock().len()
    }

    /// Remove `cell` from the map if it is still the one under `key`
    /// (a retry may have installed a fresh cell already).
    fn unlink(&self, key: &str, cell: &Arc<PointCell>) {
        let mut guard = self.cells.lock();
        if guard.get(key).is_some_and(|current| Arc::ptr_eq(current, cell)) {
            guard.remove(key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest(status: &str) -> RunManifest {
        RunManifest {
            index: 0,
            workload: "pr.kron".into(),
            kernel: "pr".into(),
            graph: "kron".into(),
            system: "Baseline".into(),
            config_hash: "deadbeef".into(),
            status: status.into(),
            error: String::new(),
            scale: "Tiny".into(),
            warmup: 1,
            measure: 2,
            skip: 3,
            trace_len: 4,
            trace_checksum: "5".into(),
            wall_seconds: 0.0,
            instructions: 6,
            cycles: 7,
            ipc: 0.857,
        }
    }

    fn point(status: &str) -> CachedPoint {
        CachedPoint { manifest: manifest(status), status: status.into() }
    }

    #[test]
    fn first_claim_leases_then_everyone_hits() {
        let cache = Arc::new(ResultCache::new());
        match cache.claim("k") {
            Claim::Lease(lease) => lease.fulfil(point("ok")),
            Claim::Hit(_) => panic!("cold cache cannot hit"),
        }
        match cache.claim("k") {
            Claim::Hit(p) => assert_eq!(p.status, "ok"),
            Claim::Lease(_) => panic!("warm cache cannot lease"),
        }
        assert_eq!(cache.misses.load(Ordering::Relaxed), 1);
        assert_eq!(cache.hits.load(Ordering::Relaxed), 1);
        assert_eq!(cache.entries(), 1);
    }

    #[test]
    fn concurrent_claims_on_one_key_simulate_exactly_once() {
        let cache = Arc::new(ResultCache::new());
        let lease = match cache.claim("k") {
            Claim::Lease(l) => l,
            Claim::Hit(_) => panic!("cold cache cannot hit"),
        };
        // Ten racing claimants block on the running lease.
        let waiters: Vec<_> = (0..10)
            .map(|_| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || match cache.claim("k") {
                    Claim::Hit(p) => p.status,
                    Claim::Lease(_) => "LEASED".to_string(),
                })
            })
            .collect();
        lease.fulfil(point("ok"));
        for w in waiters {
            assert_eq!(w.join().map_err(|_| "waiter panicked"), Ok("ok".to_string()));
        }
        assert_eq!(cache.misses.load(Ordering::Relaxed), 1, "one lease total");
        assert_eq!(cache.hits.load(Ordering::Relaxed), 10, "every waiter hit");
    }

    #[test]
    fn failures_serve_waiters_but_are_not_cached() {
        let cache = Arc::new(ResultCache::new());
        let lease = match cache.claim("k") {
            Claim::Lease(l) => l,
            Claim::Hit(_) => panic!("cold cache cannot hit"),
        };
        let waiter = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || match cache.claim("k") {
                Claim::Hit(p) => p.status,
                Claim::Lease(_) => "LEASED".to_string(),
            })
        };
        // Spin until the waiter's claim has cloned the cell out of the
        // map (map + lease + waiter = 3 refs). From that point the
        // interleaving is benign: whether the waiter parks before or
        // after the fail, the cell it holds shows `Failed(Some)`.
        while Arc::strong_count(&lease.cell) < 3 {
            std::thread::yield_now();
        }
        lease.fail(point("failed"));
        assert_eq!(waiter.join().map_err(|_| "waiter panicked"), Ok("failed".to_string()));
        // A fresh claim retries (the failure was not cached).
        match cache.claim("k") {
            Claim::Lease(l) => l.fulfil(point("ok")),
            Claim::Hit(_) => panic!("failure must not be cached"),
        }
        assert_eq!(cache.misses.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn abandoned_lease_wakes_waiters_into_retry() {
        let cache = Arc::new(ResultCache::new());
        let lease = match cache.claim("k") {
            Claim::Lease(l) => l,
            Claim::Hit(_) => panic!("cold cache cannot hit"),
        };
        let waiter = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || match cache.claim("k") {
                Claim::Lease(l) => {
                    l.fulfil(point("ok"));
                    "retried-and-ran".to_string()
                }
                Claim::Hit(p) => format!("hit-{}", p.status),
            })
        };
        drop(lease); // worker died without reporting
        let outcome = waiter.join().map_err(|_| "waiter panicked");
        // The waiter either re-claimed (if it was parked) or hit the
        // retried cell; both mean no deadlock and a usable record.
        assert!(
            outcome == Ok("retried-and-ran".to_string()) || outcome == Ok("hit-ok".to_string()),
            "unexpected outcome {outcome:?}"
        );
    }

    #[test]
    fn runner_pool_shares_by_class_and_separates_across_classes() {
        let pool = RunnerPool::new();
        let a = pool.get(SuiteScale::Tiny, Window::new(10, 20), None);
        let b = pool.get(SuiteScale::Tiny, Window::new(10, 20), None);
        assert!(Arc::ptr_eq(&a, &b), "same class shares one runner");
        let c = pool.get(SuiteScale::Tiny, Window::new(10, 21), None);
        assert!(!Arc::ptr_eq(&a, &c), "different window is a different class");
        let d = pool.get(SuiteScale::Tiny, Window::new(10, 20), Some(7));
        assert!(!Arc::ptr_eq(&a, &d), "explicit skip is a different class");
        assert_eq!(d.skip, 7);
        assert_eq!(pool.stats().0, 3);
    }
}
