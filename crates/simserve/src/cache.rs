//! The daemon's warm state: a runner pool (graphs + traces) and a
//! single-flight result cache.
//!
//! ## Exactly-once simulation
//!
//! The result cache is keyed by the batch executor's resume identity
//! (`workload|system|config_hash|scale|warmup|measure|skip|
//! trace_checksum` — see `RunManifest::resume_key`), so "would batch
//! resume reuse this record?" and "does the daemon serve this from
//! cache?" are the same question. Each key holds one of the runner's
//! single-flight cells (`gpworkloads::runner::Cell`): the first claimant
//! simulates inside the cell's `get_or_init`, and every concurrent
//! claimant blocks on the cell and then reads the finished record. Two
//! clients racing on an identical point therefore simulate it exactly
//! once — the property `cache-stats` counters expose
//! (`points_simulated == result_misses`). A claimant whose run panics
//! leaves the cell empty, and a waiter takes over the run.
//!
//! Failures are *not* cached: the claimant that ran a failed point
//! unlinks its cell, so the failure reaches the claimants already
//! waiting on that cell (they should not re-run a point that just failed
//! under them), while a later resubmission retries instead of being
//! poisoned forever.

use gpgraph::SuiteScale;
use gpworkloads::matrix::RunManifest;
use gpworkloads::runner::Cells;
use gpworkloads::Runner;
use parking_lot::Mutex;
use simcore::Window;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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

/// The process-wide result cache plus its audit counters.
#[derive(Default)]
pub struct ResultCache {
    /// One cell per resume key. A cell's manifest `index` belongs to
    /// whichever submission ran it first; serving code rewrites it.
    cells: Cells<String, RunManifest>,
    /// Claims served from a filled cell (including waiters that piggy-
    /// backed on a concurrent run).
    pub hits: AtomicU64,
    /// Claims that ran the point (each is one simulation).
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

    /// The record under `key`. The first claimant runs `run` (a miss);
    /// concurrent claimants block until it finishes and read its record
    /// (hits). A record whose status is not `ok` reaches those waiters but
    /// is unlinked, so the next claim runs again. If `run` panics, the
    /// panic propagates and the key stays claimable.
    pub fn get_or_run(&self, key: &str, run: impl FnOnce() -> RunManifest) -> RunManifest {
        let cell = Arc::clone(self.cells.lock().entry(key.to_string()).or_default());
        let mut ran = false;
        let manifest = cell
            .get_or_init(|| {
                self.misses.fetch_add(1, Ordering::Relaxed);
                ran = true;
                run()
            })
            .clone();
        if !ran {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else if manifest.status != "ok" {
            // Only the claimant that filled a cell unlinks it, so `key`
            // still names this one.
            self.cells.lock().remove(key);
        }
        manifest
    }

    /// Cells resident (a running point counts until it fails).
    pub fn entries(&self) -> usize {
        self.cells.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Barrier;

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

    fn counts(cache: &ResultCache) -> (u64, u64) {
        (cache.misses.load(Ordering::Relaxed), cache.hits.load(Ordering::Relaxed))
    }

    /// Spin until `holders` references to `key`'s cell exist: the map's,
    /// the running claimant's and one per claimant that has taken the cell
    /// and will block on it. Gives up after ten million yields, so a cache
    /// that hands claimants different cells fails the test's assertions
    /// instead of hanging it.
    fn wait_for_holders(cache: &ResultCache, key: &str, holders: usize) {
        for _ in 0..10_000_000 {
            if cache.cells.lock().get(key).map_or(0, Arc::strong_count) >= holders {
                return;
            }
            std::thread::yield_now();
        }
    }

    /// A run that signals `started`, then holds its cell until `release`.
    fn held_run<T>(started: &Barrier, release: &Barrier, then: impl FnOnce() -> T) -> T {
        started.wait();
        release.wait();
        then()
    }

    #[test]
    fn first_claim_simulates_then_everyone_hits() {
        let cache = ResultCache::new();
        assert_eq!(cache.get_or_run("k", || manifest("ok")).status, "ok");
        let hit = cache.get_or_run("k", || panic!("a warm key must not run"));
        assert_eq!(hit.status, "ok");
        assert_eq!(counts(&cache), (1, 1));
        assert_eq!(cache.entries(), 1);
    }

    #[test]
    fn concurrent_claims_on_one_key_simulate_exactly_once() {
        let cache = ResultCache::new();
        let runs = AtomicU64::new(0);
        let run = || {
            runs.fetch_add(1, Ordering::Relaxed);
            manifest("ok")
        };
        let (started, release) = (Barrier::new(2), Barrier::new(2));
        std::thread::scope(|s| {
            let first = s.spawn(|| cache.get_or_run("k", || held_run(&started, &release, run)));
            started.wait();
            // Ten racing claimants block on the running cell.
            let waiters: Vec<_> = (0..10).map(|_| s.spawn(|| cache.get_or_run("k", run))).collect();
            wait_for_holders(&cache, "k", 12);
            release.wait();
            for claim in std::iter::once(first).chain(waiters) {
                assert_eq!(claim.join().expect("claimant panicked").status, "ok");
            }
        });
        assert_eq!(runs.load(Ordering::Relaxed), 1, "one simulation");
        assert_eq!(counts(&cache), (1, 10), "one miss, every waiter hit");
    }

    #[test]
    fn failures_serve_waiters_but_are_not_cached() {
        let cache = ResultCache::new();
        let (started, release) = (Barrier::new(2), Barrier::new(2));
        std::thread::scope(|s| {
            let first = s.spawn(|| {
                cache.get_or_run("k", || held_run(&started, &release, || manifest("failed")))
            });
            started.wait();
            let waiter = s.spawn(|| cache.get_or_run("k", || manifest("waiter ran")));
            wait_for_holders(&cache, "k", 3);
            release.wait();
            assert_eq!(first.join().expect("claimant panicked").status, "failed");
            let waited = waiter.join().expect("waiter panicked");
            assert_eq!(waited.status, "failed", "the failure reached the blocked waiter");
        });
        assert_eq!(cache.entries(), 0, "the failure was unlinked");
        assert_eq!(cache.get_or_run("k", || manifest("ok")).status, "ok", "a later claim runs");
        assert_eq!(counts(&cache), (2, 1));
    }

    #[test]
    fn a_panicking_run_leaves_the_key_for_the_next_claimant() {
        let cache = ResultCache::new();
        let (started, release) = (Barrier::new(2), Barrier::new(2));
        std::thread::scope(|s| {
            let first = s.spawn(|| {
                catch_unwind(AssertUnwindSafe(|| {
                    cache.get_or_run("k", || held_run(&started, &release, || panic!("worker died")))
                }))
            });
            started.wait();
            let waiter = s.spawn(|| cache.get_or_run("k", || manifest("ok")));
            wait_for_holders(&cache, "k", 3);
            release.wait();
            assert!(first.join().expect("caught").is_err(), "the panic reaches its claimant");
            let waited = waiter.join().expect("waiter panicked");
            assert_eq!(waited.status, "ok", "the blocked waiter ran the point");
        });
        assert_eq!(cache.get_or_run("k", || panic!("cached")).status, "ok");
        assert_eq!(counts(&cache), (2, 1));
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
