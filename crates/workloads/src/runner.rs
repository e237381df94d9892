//! The experiment runner: builds suite graphs and kernel traces once per
//! process, caches them, and replays them through any system
//! configuration — ChampSim's trace-driven methodology, so every design
//! comparison is input-identical and deterministic.

use crate::configs::{build_system, SystemKind};
use crate::regular::{run_regular, RegularKind};
use crate::singlecore::Workload;
use gpgraph::{GraphInput, SuiteScale};
use gpkernels::{run_kernel_windowed, KernelInput};
use parking_lot::Mutex;
use sdclp::SdcLpConfig;
use simcore::hierarchy::MemorySystem;
use simcore::stats::StrideProfile;
use simcore::{CompactTrace, Engine, RecordingTracer, SimResult, SystemConfig, Window};
use std::collections::BTreeMap;
use std::sync::{Arc, LazyLock, OnceLock, Weak};

/// A single-flight cell: its value is built once, outside any map lock,
/// while racing callers for the same key wait on the cell. A build that
/// panics leaves the cell empty, so the next caller retries. Graphs,
/// traces and the simserve daemon's results all live in these cells.
pub type Cell<V> = Arc<OnceLock<V>>;

/// Cells by key (one [`Runner`]'s, or the daemon's results). Holding a
/// cell keeps its value resident.
pub type Cells<K, V> = Mutex<BTreeMap<K, Cell<V>>>;

/// The cells published for the whole process, by key. Weak: a value lives
/// as long as some runner holds its cell, not longer.
type Published<K, V> = Mutex<BTreeMap<K, Weak<OnceLock<V>>>>;

/// A suite graph depends on the input and the scale.
type GraphKey = (GraphInput, SuiteScale);

/// A recording depends on the workload, its graph's scale, the skip and the
/// recorded length `window.total()`. The warmup/measure split only matters
/// at replay.
type TraceKey = (Workload, SuiteScale, u64, u64);

/// A regular-suite recording depends on the kind and the recorded length.
type RegularKey = (RegularKind, u64);

/// The value for `key`: this runner's cell, else the cell another runner
/// published, else a fresh cell published for the others. Every runner in
/// the process that asks for one key therefore waits on one build.
fn single_flight<K: Ord + Copy, V: Clone>(
    held: &Cells<K, V>,
    published: &Published<K, V>,
    key: K,
    build: impl FnOnce() -> V,
) -> V {
    let cell = Arc::clone(held.lock().entry(key).or_insert_with(|| share(published, key)));
    cell.get_or_init(build).clone()
}

/// The live cell published under `key`, or a fresh one published in its
/// place. Entries whose every holder is gone are pruned here.
fn share<K: Ord, V>(published: &Published<K, V>, key: K) -> Cell<V> {
    let mut index = published.lock();
    if let Some(cell) = index.get(&key).and_then(Weak::upgrade) {
        return cell;
    }
    index.retain(|_, cell| cell.strong_count() > 0);
    let cell = Cell::default();
    index.insert(key, Arc::downgrade(&cell));
    cell
}

/// Drop this runner's cell for `key`, and unpublish it if it is still the
/// published one, so the next request records afresh. Other holders keep
/// their (identical) copy.
fn evict<K: Ord, V>(held: &Cells<K, V>, published: &Published<K, V>, key: &K) {
    let Some(cell) = held.lock().remove(key) else { return };
    let mut index = published.lock();
    if index.get(key).is_some_and(|p| std::ptr::eq(p.as_ptr(), Arc::as_ptr(&cell))) {
        index.remove(key);
    }
}

/// The cells that hold a value (a cell whose build is still running, or
/// panicked, holds none), by address.
fn resident<K, V>(cells: &Cells<K, V>) -> Vec<*const OnceLock<V>> {
    cells.lock().values().filter(|c| c.get().is_some()).map(Arc::as_ptr).collect()
}

/// A recorded trace plus its identity, hashed the first time a caller
/// asks for it and then shared by every holder of the cache entry.
#[derive(Clone)]
struct CachedTrace {
    trace: Arc<CompactTrace>,
    checksum: Arc<OnceLock<u64>>,
}

/// Where runners publish their cells (DESIGN §11). One per process; the
/// sharing tests give their runners a private one.
#[derive(Default)]
struct Index {
    graphs: Published<GraphKey, Arc<KernelInput>>,
    traces: Published<TraceKey, CachedTrace>,
    regular_traces: Published<RegularKey, Arc<CompactTrace>>,
    builds: Count,
    hashes: Count,
}

static PROCESS: LazyLock<Index> = LazyLock::new(Index::default);

/// Graph builds and trace recordings (`builds`) or checksum passes
/// (`hashes`) started against an [`Index`], counted for the sharing tests;
/// empty outside them.
#[derive(Default)]
struct Count(#[cfg(test)] std::sync::atomic::AtomicUsize);

impl Count {
    fn bump(&self) {
        #[cfg(test)]
        self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }
}

/// Builds inputs/traces lazily and runs simulations. Graphs and traces are
/// shared with every other runner in the process that asks for the same
/// key.
pub struct Runner {
    pub scale: SuiteScale,
    pub window: Window,
    pub sdclp: SdcLpConfig,
    /// Instructions to fast-forward before recording (the SimPoint skip
    /// into the kernel's steady-state phase). Defaults to `8 x vertices`,
    /// which puts every kernel past its initialization sweeps.
    pub skip: u64,
    graphs: Cells<GraphKey, Arc<KernelInput>>,
    traces: Cells<TraceKey, CachedTrace>,
    regular_traces: Cells<RegularKey, Arc<CompactTrace>>,
    index: &'static Index,
}

/// Distinct (traces, graphs) resident across `runners`: a graph or trace
/// that several runners share counts once (the simserve daemon reports
/// this in `cache-stats`).
pub fn resident_counts<'a>(runners: impl IntoIterator<Item = &'a Runner>) -> (usize, usize) {
    let mut traces = std::collections::BTreeSet::new();
    let mut graphs = std::collections::BTreeSet::new();
    for r in runners {
        traces.extend(resident(&r.traces));
        graphs.extend(resident(&r.graphs));
    }
    (traces.len(), graphs.len())
}

impl Runner {
    pub fn new(scale: SuiteScale, window: Window) -> Self {
        Runner::with_index(scale, window, &PROCESS)
    }

    fn with_index(scale: SuiteScale, window: Window, index: &'static Index) -> Self {
        Runner {
            scale,
            window,
            sdclp: SdcLpConfig::table1(),
            skip: 8 * scale.vertices() as u64,
            graphs: Mutex::new(BTreeMap::new()),
            traces: Mutex::new(BTreeMap::new()),
            regular_traces: Mutex::new(BTreeMap::new()),
            index,
        }
    }

    /// Fast configuration for tests and examples: small graphs, short
    /// windows.
    pub fn quick() -> Self {
        Runner::new(SuiteScale::Small, Window::new(200_000, 800_000))
    }

    /// The configuration EXPERIMENTS.md reports: full-scale graphs,
    /// 2M-instruction warmup + 8M-instruction measurement per workload.
    pub fn full() -> Self {
        Runner::new(SuiteScale::Full, Window::new(2_000_000, 8_000_000))
    }

    /// The (cached) kernel input for a suite graph.
    ///
    /// Graphs are memoized in memory and, when `GRAPH_CACHE_DIR` is set
    /// (the gpbench harness sets it to `target/graph-cache`), persisted to
    /// disk so successive harness binaries skip regeneration.
    ///
    /// Concurrent callers for the same graph and scale, in this runner or
    /// any other, share one build: it takes seconds and hundreds of MiB at
    /// Medium scale and more at Full, and already uses several host
    /// threads.
    pub fn input(&self, graph: GraphInput) -> Arc<KernelInput> {
        single_flight(&self.graphs, &self.index.graphs, (graph, self.scale), || {
            self.index.builds.bump();
            Arc::new(KernelInput::from_symmetric(self.load_or_build(graph)))
        })
    }

    fn load_or_build(&self, graph: GraphInput) -> gpgraph::Csr {
        let Some(dir) = std::env::var_os("GRAPH_CACHE_DIR") else {
            return gpgraph::build(graph, self.scale);
        };
        let dir = std::path::PathBuf::from(dir);
        let path = dir.join(format!("{}-{}.csr", graph.name(), self.scale.bits()));
        match gpgraph::io::load(&path) {
            Ok(g) => return g,
            // A missing cache entry is the common case; anything else means
            // the cache file is corrupt — say so, then regenerate over it.
            Err(gpgraph::GraphIoError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => {
                eprintln!(
                    "warning: graph cache {} is unreadable ({e}); regenerating",
                    path.display()
                );
            }
        }
        let g = gpgraph::build(graph, self.scale);
        if std::fs::create_dir_all(&dir).is_ok() {
            // Best-effort: cache misses just mean a rebuild next time.
            let _ = gpgraph::io::save(&g, &path);
        }
        g
    }

    /// Drop a cached graph once no other runner holds it: 12-73 MiB of
    /// packed arrays per Medium graph ([`gpgraph::Csr::footprint_bytes`]),
    /// over four times that at Full.
    pub fn evict_graph(&self, graph: GraphInput) {
        evict(&self.graphs, &self.index.graphs, &(graph, self.scale));
    }

    /// The (cached) recorded trace for a workload, spanning the full
    /// warmup + measurement window.
    pub fn trace(&self, w: Workload) -> Arc<CompactTrace> {
        self.cached_trace(w).trace
    }

    /// The (cached) trace plus its identity, the FNV-1a
    /// [`simcore::trace_io::trace_checksum`] that manifests, resume keys,
    /// checkpoint headers and the simserve result cache embed. The sum is
    /// computed once per recording, on the first request, and cached with
    /// the trace; callers that only replay ([`Runner::trace`]) never pay
    /// for it.
    pub fn trace_with_checksum(&self, w: Workload) -> (Arc<CompactTrace>, u64) {
        let c = self.cached_trace(w);
        let sum = *c.checksum.get_or_init(|| {
            self.index.hashes.bump();
            simcore::trace_io::trace_checksum(&c.trace)
        });
        (c.trace, sum)
    }

    fn trace_key(&self, w: Workload) -> TraceKey {
        (w, self.scale, self.skip, self.window.total())
    }

    fn cached_trace(&self, w: Workload) -> CachedTrace {
        single_flight(&self.traces, &self.index.traces, self.trace_key(w), || {
            self.index.builds.bump();
            let input = self.input(w.graph);
            let mut rec = RecordingTracer::with_skip(self.skip, self.window.total());
            run_kernel_windowed(w.kernel, &input, 0, &mut rec);
            CachedTrace { trace: Arc::new(rec.finish()), checksum: Arc::default() }
        })
    }

    /// Drop a cached trace (the sweep harnesses bound their memory by
    /// iterating workload-outer and evicting when done).
    pub fn evict_trace(&self, w: Workload) {
        evict(&self.traces, &self.index.traces, &self.trace_key(w));
    }

    pub(crate) fn engine_for(
        &self,
        sys: Box<dyn MemorySystem + Send>,
    ) -> Engine<Box<dyn MemorySystem + Send>> {
        let core = SystemConfig::baseline(1).core;
        Engine::new(sys, core.width, core.rob_entries, self.window)
    }

    /// Run one workload on one system design.
    pub fn run_one(&self, w: Workload, kind: SystemKind) -> SimResult {
        self.run_custom(w, build_system(kind, w.kernel, &self.sdclp))
    }

    /// Run one workload on an arbitrary memory system (design-space
    /// sweeps construct their own variants).
    pub fn run_custom(&self, w: Workload, sys: Box<dyn MemorySystem + Send>) -> SimResult {
        let trace = self.trace(w);
        let mut engine = self.engine_for(sys);
        engine.replay(&trace);
        engine.finish()
    }

    /// Run one workload on one system with telemetry collection enabled.
    ///
    /// Returns the usual [`SimResult`] plus the collected telemetry output
    /// (interval snapshots + event trace). The result is bit-identical to
    /// [`Runner::run_one`] on the same inputs — telemetry only observes.
    pub fn run_one_with_telemetry(
        &self,
        w: Workload,
        kind: SystemKind,
        cfg: &simtel::TelemetryConfig,
    ) -> (SimResult, simtel::TelemetryOutput) {
        self.run_custom_with_telemetry(w, build_system(kind, w.kernel, &self.sdclp), cfg)
    }

    /// Telemetry-enabled variant of [`Runner::run_custom`].
    pub fn run_custom_with_telemetry(
        &self,
        w: Workload,
        sys: Box<dyn MemorySystem + Send>,
        cfg: &simtel::TelemetryConfig,
    ) -> (SimResult, simtel::TelemetryOutput) {
        let trace = self.trace(w);
        let mut engine = self.engine_for(sys);
        let tel = simtel::TelemetryHandle::collector(cfg);
        engine.attach_telemetry(tel.clone());
        engine.replay(&trace);
        let result = engine.finish();
        (result, tel.take_output().unwrap_or_default())
    }

    /// Run with the PC-stride profiler enabled (Fig. 3).
    pub fn run_with_stride_profile(
        &self,
        w: Workload,
        kind: SystemKind,
    ) -> (SimResult, StrideProfile) {
        let trace = self.trace(w);
        let mut engine = self.engine_for(build_system(kind, w.kernel, &self.sdclp));
        engine.enable_stride_profiler();
        engine.replay(&trace);
        #[expect(
            clippy::expect_used,
            reason = "invariant — enable_stride_profiler() was called two lines up"
        )]
        let profile =
            engine.stride_profile().expect("invariant: stride profiler enabled before replay");
        (engine.finish(), profile)
    }

    /// The (cached) regular-suite (SPEC stand-in) trace. Memoized like
    /// [`Runner::trace`] — the threshold sweep replays each of these
    /// against many tau values and used to re-record per replay.
    pub fn regular_trace(&self, kind: RegularKind) -> Arc<CompactTrace> {
        let key = (kind, self.window.total());
        single_flight(&self.regular_traces, &self.index.regular_traces, key, || {
            self.index.builds.bump();
            let mut rec = RecordingTracer::new(self.window.total());
            run_regular(kind, 0, &mut rec);
            Arc::new(rec.finish())
        })
    }

    /// Drop a cached regular-suite trace.
    pub fn evict_regular_trace(&self, kind: RegularKind) {
        evict(&self.regular_traces, &self.index.regular_traces, &(kind, self.window.total()));
    }

    /// Run a regular-suite workload on an arbitrary system.
    pub fn run_regular_on(
        &self,
        kind: RegularKind,
        sys: Box<dyn MemorySystem + Send>,
    ) -> SimResult {
        let trace = self.regular_trace(kind);
        let mut engine = self.engine_for(sys);
        engine.replay(&trace);
        engine.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpkernels::Kernel;
    use std::panic::AssertUnwindSafe;

    fn tiny_runner() -> Runner {
        Runner::new(SuiteScale::Tiny, Window::new(20_000, 80_000))
    }

    /// An index of its own, so that its build counts see no other test.
    fn private_index() -> &'static Index {
        Box::leak(Box::default())
    }

    fn runner_on(index: &'static Index, window: Window) -> Runner {
        Runner::with_index(SuiteScale::Tiny, window, index)
    }

    fn builds(index: &Index) -> usize {
        index.builds.0.swap(0, std::sync::atomic::Ordering::Relaxed)
    }

    #[test]
    fn inputs_and_traces_are_cached() {
        let r = tiny_runner();
        let a = r.input(GraphInput::Kron);
        let b = r.input(GraphInput::Kron);
        assert!(Arc::ptr_eq(&a, &b));
        let w = Workload::new(Kernel::Pr, GraphInput::Kron);
        let t1 = r.trace(w);
        let t2 = r.trace(w);
        assert!(Arc::ptr_eq(&t1, &t2));
        r.evict_trace(w);
        let t3 = r.trace(w);
        assert!(!Arc::ptr_eq(&t1, &t3));
        assert_eq!(t1.events, t3.events, "regenerated trace must be identical");
    }

    /// `f`'s results on four threads released together.
    fn race<T: Send>(f: impl Fn() -> T + Sync) -> Vec<T> {
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            let racers: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        f()
                    })
                })
                .collect();
            racers.into_iter().map(|r| r.join().expect("racer panicked")).collect()
        })
    }

    #[test]
    fn racing_callers_share_one_build() {
        let index = private_index();
        let r = runner_on(index, Window::new(20_000, 80_000));
        let inputs = race(|| r.input(GraphInput::Urand));
        assert!(inputs.iter().all(|g| Arc::ptr_eq(g, &inputs[0])));
        assert_eq!(builds(index), 1, "one graph build");

        let w = Workload::new(Kernel::Pr, GraphInput::Kron);
        let traces = race(|| r.trace(w));
        assert!(traces.iter().all(|t| Arc::ptr_eq(t, &traces[0])));
        assert_eq!(builds(index), 2, "one graph build and one recording");

        let regular = race(|| r.regular_trace(RegularKind::Stream));
        assert!(regular.iter().all(|t| Arc::ptr_eq(t, &regular[0])));
        assert_eq!(builds(index), 1, "one regular recording");
        assert_eq!(resident_counts([&r]), (1, 2), "one trace and two graphs");
    }

    #[test]
    fn a_panicking_build_leaves_the_cell_for_a_retry() {
        let r = runner_on(private_index(), Window::new(20_000, 80_000));
        let key = (GraphInput::Web, SuiteScale::Tiny);
        let first = std::panic::catch_unwind(AssertUnwindSafe(|| {
            single_flight(&r.graphs, &r.index.graphs, key, || panic!("build failed"))
        }));
        assert!(first.is_err());
        assert_eq!(resident_counts([&r]), (0, 0), "a failed build caches nothing");
        let g = r.input(GraphInput::Web);
        assert!(Arc::ptr_eq(&g, &r.input(GraphInput::Web)));
    }

    #[test]
    fn runners_at_one_scale_share_a_graph() {
        let index = private_index();
        let a = runner_on(index, Window::new(20_000, 80_000));
        let b = runner_on(index, Window::new(1_000, 2_000));
        assert!(Arc::ptr_eq(&a.input(GraphInput::Kron), &b.input(GraphInput::Kron)));
        assert_eq!(builds(index), 1, "one graph build");
        assert_eq!(resident_counts([&a, &b]), (0, 1), "a shared graph counts once");
    }

    #[test]
    fn a_different_window_or_skip_shares_the_graph_but_not_the_trace() {
        let index = private_index();
        let a = runner_on(index, Window::new(20_000, 80_000));
        let longer = runner_on(index, Window::new(20_000, 90_000));
        let mut skipped = runner_on(index, Window::new(20_000, 80_000));
        skipped.skip += 1;
        let w = Workload::new(Kernel::Pr, GraphInput::Kron);
        let traces = [a.trace(w), longer.trace(w), skipped.trace(w)];
        assert!(!Arc::ptr_eq(&traces[0], &traces[1]) && !Arc::ptr_eq(&traces[0], &traces[2]));
        assert!(!Arc::ptr_eq(&traces[1], &traces[2]));
        assert_ne!(traces[0].events, traces[1].events);
        assert!(Arc::ptr_eq(&a.input(w.graph), &longer.input(w.graph)));
        assert!(Arc::ptr_eq(&a.input(w.graph), &skipped.input(w.graph)));
        assert_eq!(builds(index), 4, "one graph build and three recordings");
        assert_eq!(resident_counts([&a, &longer, &skipped]), (3, 1));
    }

    #[test]
    fn the_same_skip_and_window_total_share_the_trace_and_hash_it_once() {
        let index = private_index();
        let a = runner_on(index, Window::new(20_000, 80_000));
        let b = runner_on(index, Window::new(50_000, 50_000));
        let w = Workload::new(Kernel::Bfs, GraphInput::Urand);
        let (ta, sum_a) = a.trace_with_checksum(w);
        let (tb, sum_b) = b.trace_with_checksum(w);
        assert!(Arc::ptr_eq(&ta, &tb));
        assert_eq!(sum_a, sum_b);
        assert_eq!(builds(index), 2, "one graph build and one recording");
        assert_eq!(index.hashes.0.load(std::sync::atomic::Ordering::Relaxed), 1, "one hash");
    }

    #[test]
    fn runners_racing_on_one_key_build_once() {
        let index = private_index();
        let runners = [
            runner_on(index, Window::new(20_000, 80_000)),
            runner_on(index, Window::new(40_000, 60_000)),
        ];
        let turn = std::sync::atomic::AtomicUsize::new(0);
        let w = Workload::new(Kernel::Cc, GraphInput::Twitter);
        let traces =
            race(|| runners[turn.fetch_add(1, std::sync::atomic::Ordering::Relaxed) % 2].trace(w));
        assert!(traces.iter().all(|t| Arc::ptr_eq(t, &traces[0])));
        assert_eq!(builds(index), 2, "one graph build and one recording");
        assert_eq!(resident_counts(&runners), (1, 1));
    }

    #[test]
    fn an_index_entry_dies_with_its_last_holder() {
        let index = private_index();
        let key = (GraphInput::Road, SuiteScale::Tiny);
        let a = runner_on(index, Window::new(20_000, 80_000));
        let g = a.input(GraphInput::Road);
        let published = |i: &Index| i.graphs.lock().get(&key).and_then(Weak::upgrade);
        assert!(published(index).is_some_and(|c| c.get().is_some_and(|v| Arc::ptr_eq(v, &g))));
        drop(a);
        assert!(published(index).is_none(), "the index holds no strong reference");
        let b = runner_on(index, Window::new(20_000, 80_000));
        b.input(GraphInput::Urand);
        assert!(!index.graphs.lock().contains_key(&key), "publishing prunes dead entries");
        assert!(!Arc::ptr_eq(&g, &b.input(GraphInput::Road)), "a dropped graph is built again");
        assert_eq!(builds(index), 3);
    }

    #[test]
    fn an_evicting_runner_leaves_the_others_copy_and_records_afresh() {
        let index = private_index();
        let [a, b, c] = [(); 3].map(|()| runner_on(index, Window::new(20_000, 80_000)));
        let w = Workload::new(Kernel::Sssp, GraphInput::Kron);
        let (t1, sum1) = a.trace_with_checksum(w);
        assert!(Arc::ptr_eq(&t1, &b.trace(w)));
        a.evict_trace(w);
        assert!(Arc::ptr_eq(&t1, &b.trace(w)), "the other runner keeps its copy");
        let (t2, sum2) = a.trace_with_checksum(w);
        assert!(!Arc::ptr_eq(&t1, &t2), "eviction unpublished the old recording");
        assert_eq!(t1.events, t2.events, "the fresh recording is identical");
        assert_eq!(sum1, sum2);
        b.evict_trace(w);
        assert!(Arc::ptr_eq(&t2, &c.trace(w)), "a stale eviction leaves the new one published");
        assert_eq!(builds(index), 3, "one graph build and two recordings");
    }

    #[test]
    fn trace_checksum_is_cached_per_recording() {
        let r = tiny_runner();
        let w = Workload::new(Kernel::Bfs, GraphInput::Kron);
        let expected = simcore::trace_io::trace_checksum(&r.trace(w));
        let (t1, sum1) = r.trace_with_checksum(w);
        assert_eq!(sum1, expected);
        assert!(Arc::ptr_eq(&t1, &r.trace(w)), "the checksum rides on the cached trace");
        r.evict_trace(w);
        let (t2, sum2) = r.trace_with_checksum(w);
        assert!(!Arc::ptr_eq(&t1, &t2), "eviction forces a fresh recording");
        assert_eq!(sum2, expected, "the re-recorded trace hashes to the same identity");
    }

    #[test]
    fn regular_traces_are_cached() {
        let r = tiny_runner();
        let a = r.regular_trace(RegularKind::Stream);
        let b = r.regular_trace(RegularKind::Stream);
        assert!(Arc::ptr_eq(&a, &b));
        r.evict_regular_trace(RegularKind::Stream);
        let c = r.regular_trace(RegularKind::Stream);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(a.events, c.events, "regenerated trace must be identical");
    }

    #[test]
    fn baseline_run_produces_sane_result() {
        let r = tiny_runner();
        let w = Workload::new(Kernel::Cc, GraphInput::Urand);
        let res = r.run_one(w, SystemKind::Baseline);
        assert!(res.instructions > 0);
        assert!(res.ipc() > 0.0 && res.ipc() <= 4.0);
        // Tiny-scale footprints can be fully cache/prefetch-covered, so no
        // MPKI floor here — just confirm the L1D actually saw traffic.
        assert!(res.stats.l1d.accesses > 0);
    }

    #[test]
    fn identical_runs_are_deterministic() {
        let r = tiny_runner();
        let w = Workload::new(Kernel::Bfs, GraphInput::Kron);
        let a = r.run_one(w, SystemKind::SdcLp);
        let b = r.run_one(w, SystemKind::SdcLp);
        assert_eq!(a.cycles, b.cycles);
    }

    #[test]
    fn telemetry_run_matches_plain_run_and_yields_intervals() {
        let r = tiny_runner();
        let w = Workload::new(Kernel::Bfs, GraphInput::Kron);
        let plain = r.run_one(w, SystemKind::SdcLp);
        let cfg = simtel::TelemetryConfig { interval_instructions: 10_000, ..Default::default() };
        let (traced, out) = r.run_one_with_telemetry(w, SystemKind::SdcLp, &cfg);
        assert_eq!(plain, traced, "telemetry must not perturb results");
        assert!(!out.intervals.is_empty());
        let sum: u64 = out.intervals.iter().map(|iv| iv.instructions).sum();
        assert_eq!(sum, traced.instructions, "interval sums must reconcile");
    }

    #[test]
    fn stride_profile_collects() {
        let r = tiny_runner();
        let (_, profile) = r.run_with_stride_profile(
            Workload::new(Kernel::Cc, GraphInput::Friendster),
            SystemKind::Baseline,
        );
        let total: u64 = profile.accesses.iter().sum();
        assert!(total > 10_000);
    }

    #[test]
    fn regular_workloads_run() {
        let r = tiny_runner();
        let res = r.run_regular_on(
            RegularKind::Stream,
            crate::configs::build_system(SystemKind::Baseline, Kernel::Pr, &r.sdclp),
        );
        assert!(res.ipc() > 0.0);
    }
}
