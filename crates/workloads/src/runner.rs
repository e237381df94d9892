//! The experiment runner: builds suite graphs and kernel traces once,
//! caches them, and replays them through any system configuration —
//! ChampSim's trace-driven methodology, so every design comparison is
//! input-identical and deterministic.

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
use std::sync::{Arc, OnceLock};

/// A single-flight cache: one cell per key. The map lock is held only to
/// get or insert a cell; the value is built outside it, once, while racing
/// callers for the same key wait on the cell. A build that panics leaves
/// the cell empty, so the next caller retries.
type Cells<K, V> = Mutex<BTreeMap<K, Arc<OnceLock<V>>>>;

fn single_flight<K: Ord, V: Clone>(cells: &Cells<K, V>, key: K, build: impl FnOnce() -> V) -> V {
    let cell = Arc::clone(cells.lock().entry(key).or_default());
    cell.get_or_init(build).clone()
}

/// Cells that hold a value (a cell whose build is still running, or
/// panicked, holds none).
fn resident<K, V>(cells: &Cells<K, V>) -> usize {
    cells.lock().values().filter(|c| c.get().is_some()).count()
}

/// A recorded trace plus its identity, hashed the first time a caller
/// asks for it and then shared by every holder of the cache entry.
#[derive(Clone)]
struct CachedTrace {
    trace: Arc<CompactTrace>,
    checksum: Arc<OnceLock<u64>>,
}

/// Builds inputs/traces lazily and runs simulations.
pub struct Runner {
    pub scale: SuiteScale,
    pub window: Window,
    pub sdclp: SdcLpConfig,
    /// Instructions to fast-forward before recording (the SimPoint skip
    /// into the kernel's steady-state phase). Defaults to `8 x vertices`,
    /// which puts every kernel past its initialization sweeps.
    pub skip: u64,
    graphs: Cells<GraphInput, Arc<KernelInput>>,
    traces: Cells<Workload, CachedTrace>,
    regular_traces: Cells<RegularKind, Arc<CompactTrace>>,
    builds: BuildCount,
}

/// Graph builds and trace recordings a [`Runner`] started, counted for the
/// single-flight tests; empty outside them.
#[derive(Default)]
struct BuildCount(#[cfg(test)] std::sync::atomic::AtomicUsize);

impl BuildCount {
    fn bump(&self) {
        #[cfg(test)]
        self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }
}

impl Runner {
    pub fn new(scale: SuiteScale, window: Window) -> Self {
        Runner {
            scale,
            window,
            sdclp: SdcLpConfig::table1(),
            skip: 8 * scale.vertices() as u64,
            graphs: Mutex::new(BTreeMap::new()),
            traces: Mutex::new(BTreeMap::new()),
            regular_traces: Mutex::new(BTreeMap::new()),
            builds: Default::default(),
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
    /// Concurrent callers for the same graph share one build: it takes
    /// seconds and hundreds of MiB at Medium scale and more at Full, and
    /// already uses several host threads.
    pub fn input(&self, graph: GraphInput) -> Arc<KernelInput> {
        single_flight(&self.graphs, graph, || {
            self.builds.bump();
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

    /// Drop a cached graph (frees hundreds of MB at Full scale).
    pub fn evict_graph(&self, graph: GraphInput) {
        self.graphs.lock().remove(&graph);
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
        let sum = *c.checksum.get_or_init(|| simcore::trace_io::trace_checksum(&c.trace));
        (c.trace, sum)
    }

    fn cached_trace(&self, w: Workload) -> CachedTrace {
        single_flight(&self.traces, w, || {
            self.builds.bump();
            let input = self.input(w.graph);
            let mut rec = RecordingTracer::with_skip(self.skip, self.window.total());
            run_kernel_windowed(w.kernel, &input, 0, &mut rec);
            CachedTrace { trace: Arc::new(rec.finish()), checksum: Arc::default() }
        })
    }

    /// Drop a cached trace (the sweep harnesses bound their memory by
    /// iterating workload-outer and evicting when done).
    pub fn evict_trace(&self, w: Workload) {
        self.traces.lock().remove(&w);
    }

    /// Number of workload traces currently resident in the cache (the
    /// simserve daemon reports this in `cache-stats`).
    pub fn cached_trace_count(&self) -> usize {
        resident(&self.traces)
    }

    /// Number of suite graphs currently resident in the cache.
    pub fn cached_graph_count(&self) -> usize {
        resident(&self.graphs)
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
        single_flight(&self.regular_traces, kind, || {
            self.builds.bump();
            let mut rec = RecordingTracer::new(self.window.total());
            run_regular(kind, 0, &mut rec);
            Arc::new(rec.finish())
        })
    }

    /// Drop a cached regular-suite trace.
    pub fn evict_regular_trace(&self, kind: RegularKind) {
        self.regular_traces.lock().remove(&kind);
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
        use std::sync::atomic::Ordering::Relaxed;
        let r = tiny_runner();
        let inputs = race(|| r.input(GraphInput::Urand));
        assert!(inputs.iter().all(|g| Arc::ptr_eq(g, &inputs[0])));
        assert_eq!(r.builds.0.swap(0, Relaxed), 1, "one graph build");

        let w = Workload::new(Kernel::Pr, GraphInput::Kron);
        let traces = race(|| r.trace(w));
        assert!(traces.iter().all(|t| Arc::ptr_eq(t, &traces[0])));
        assert_eq!(r.builds.0.swap(0, Relaxed), 2, "one graph build and one recording");

        let regular = race(|| r.regular_trace(RegularKind::Stream));
        assert!(regular.iter().all(|t| Arc::ptr_eq(t, &regular[0])));
        assert_eq!(r.builds.0.load(Relaxed), 1, "one regular recording");
        assert_eq!((r.cached_graph_count(), r.cached_trace_count()), (2, 1));
    }

    #[test]
    fn a_panicking_build_leaves_the_cell_for_a_retry() {
        let r = tiny_runner();
        let first = std::panic::catch_unwind(AssertUnwindSafe(|| {
            single_flight(&r.graphs, GraphInput::Web, || panic!("build failed"))
        }));
        assert!(first.is_err());
        assert_eq!(r.cached_graph_count(), 0, "a failed build caches nothing");
        let g = r.input(GraphInput::Web);
        assert!(Arc::ptr_eq(&g, &r.input(GraphInput::Web)));
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
