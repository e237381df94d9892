//! Parallel, fault-tolerant sweep executor with run manifests.
//!
//! Every harness binary ultimately evaluates a *matrix* of (workload,
//! system) points. This module runs such a matrix on a thread pool with
//! workload-outer sharding — each workload's trace is recorded once
//! (memoized behind the [`Runner`] caches), all of its system points replay
//! serially on one worker, and the trace (plus the graph, once no other
//! workload needs it) is evicted as soon as the shard finishes, bounding
//! peak memory to roughly `threads x trace` instead of `workloads x trace`.
//!
//! Replay itself is deterministic and side-effect-free per point (each
//! point gets a fresh engine over an immutable trace), so the parallel
//! results are byte-identical to sequential [`Runner::run_one`] calls —
//! `tests` below pins that property.
//!
//! ## Fault tolerance
//!
//! A multi-hour characterization campaign must survive individual bad
//! points, so the executor contains three failure domains per point:
//!
//! * **Panic isolation** — each point (and each shard's trace recording)
//!   runs under `catch_unwind`; a panic becomes a `status: "failed"`
//!   manifest record carrying the panic message while every other point
//!   completes. Callers decide the process exit code from the statuses.
//! * **Watchdog budgets** — [`MatrixOptions::watchdog`] arms a
//!   deterministic [`simcore::Budget`] per point; a run that crosses the
//!   ceiling is cut off and recorded as `status: "timed_out"` with its
//!   partial result, instead of hanging the shard.
//! * **Checkpoint/resume** — manifest lines stream to a `.partial` file in
//!   input order as points complete (atomically renamed over the final
//!   path on success), and [`MatrixOptions::resume`] reloads a prior
//!   manifest, reuses every `ok` record whose identity (workload, system,
//!   `config_hash`, scale, window, skip, *and trace checksum*) still
//!   matches, and re-runs only missing/failed/timed-out points. The trace
//!   checksum ties each record to the exact replay input, so records from
//!   a regenerated trace are re-run, never silently reused.
//! * **Engine-state checkpoints** — with [`MatrixOptions::state_dir`] set,
//!   [`MatrixOptions::warmup_fork`] persists each point's post-warmup
//!   machine state (keyed by workload, window, trace checksum, and config
//!   hash) so later runs of the same point fork past warmup, and
//!   [`MatrixOptions::snapshot_every`] drops periodic mid-measurement
//!   snapshots so a killed process resumes a point from its last snapshot
//!   that reached the disk (the store writes behind; a sweep flushes it
//!   before returning) instead of from scratch. Snapshots are `SSTATEv2` containers
//!   (checksummed, identity-validated); a corrupt or stale one is warned
//!   about, discarded, and regenerated — restores are bit-identical, so
//!   checkpointed runs produce byte-identical manifests.
//!
//! [`MatrixOptions::fail_fast`] restores the old abort-on-first-failure
//! behaviour for CI/debug runs: the first failure aborts the sweep with a
//! typed [`SimError`].
//!
//! Each completed point yields a [`RunRecord`]: a [`PointStatus`], the
//! [`SimResult`] plus a serializable [`RunManifest`] (workload, system,
//! config hash, status, window, skip, trace length, wall-clock seconds).
//! Manifest lines are emitted in *input order*, so two identical complete
//! invocations produce byte-identical manifest files (wall-clock seconds
//! are recorded only when [`MatrixOptions::walltime`] is on — tests keep
//! it off to stay reproducible). A progress line per completed point goes
//! to stderr.

use crate::configs::{build_system, build_system_with_config, SystemKind};
use crate::manifest::{load_manifests, parse_json_object, Fields, ManifestWriter};
use crate::runner::Runner;
use crate::singlecore::Workload;
use gpgraph::GraphInput;
use gpkernels::Kernel;
use parking_lot::Mutex;
use sdclp::{SdcLpConfig, SimError};
use serde::Serialize;
use simcore::hierarchy::MemorySystem;
use simcore::{Budget, CompactTrace, Engine, SimResult, SystemConfig};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// How a matrix point's memory system is built.
#[derive(Clone)]
pub enum SystemSpec {
    /// One of the seven named designs (Section IV-E).
    Kind(SystemKind),
    /// An arbitrary design-space point (config sweeps, ablations).
    Custom {
        /// Short display label, e.g. `tau=16`.
        label: String,
        /// Full configuration description (typically a `Debug` rendering);
        /// hashed into the manifest's `config_hash`.
        config: String,
        /// Builds the system for a given kernel (the Expert design routes
        /// per-kernel, so the kernel must flow through).
        build: Arc<dyn Fn(Kernel) -> Box<dyn MemorySystem + Send> + Send + Sync>,
    },
}

impl SystemSpec {
    /// Convenience constructor for custom design points.
    pub fn custom<F>(label: impl Into<String>, config: impl Into<String>, build: F) -> Self
    where
        F: Fn(Kernel) -> Box<dyn MemorySystem + Send> + Send + Sync + 'static,
    {
        SystemSpec::Custom { label: label.into(), config: config.into(), build: Arc::new(build) }
    }

    /// An SDC+LP design point: `cfg` on top of `sys_cfg` (SDC size, LP
    /// geometry and threshold, probe latency, L1D prefetcher sweeps). The
    /// config repr is `"{cfg:?} {sys_cfg:?}"`.
    pub fn sdclp(label: impl Into<String>, sys_cfg: SystemConfig, cfg: SdcLpConfig) -> Self {
        SystemSpec::custom(label, format!("{cfg:?} {sys_cfg:?}"), move |_| {
            Box::new(sdclp::sdclp_system(&sys_cfg, cfg))
        })
    }

    /// The conventional hierarchy on a modified configuration (LLC
    /// replacement, victim cache, L1D prefetcher). The config repr is
    /// `"{cfg:?}"`.
    pub fn baseline_with(label: impl Into<String>, cfg: SystemConfig) -> Self {
        SystemSpec::custom(label, format!("{cfg:?}"), move |_| {
            Box::new(simcore::BaselineHierarchy::new(&cfg))
        })
    }

    /// A named design with its DRAM channel count overridden (the
    /// channel-count study: `figure dram_sweep` and simserve submissions with an
    /// explicit `channels` use this). The label is `{name}@{n}ch` and the
    /// config repr embeds the full overridden [`simcore::SystemConfig`],
    /// so points with different channel counts never share a
    /// `config_hash` — and a zero request clamps to one channel rather
    /// than building an unclocked DRAM.
    pub fn kind_with_channels(kind: SystemKind, channels: usize, sdclp: &SdcLpConfig) -> Self {
        let mut cfg = kind.system_config(1);
        cfg.dram.channels = channels.max(1);
        let label = format!("{}@{}ch", kind.name(), cfg.dram.channels);
        let repr = format!("{kind:?} {cfg:?} {sdclp:?} channels-override");
        let sdclp = *sdclp;
        SystemSpec::custom(label, repr, move |kernel| {
            build_system_with_config(kind, kernel, &sdclp, &cfg)
        })
    }

    pub fn label(&self) -> String {
        match self {
            SystemSpec::Kind(k) => k.name().to_string(),
            SystemSpec::Custom { label, .. } => label.clone(),
        }
    }

    /// The named design this spec wraps, if any.
    pub fn kind(&self) -> Option<SystemKind> {
        match self {
            SystemSpec::Kind(k) => Some(*k),
            SystemSpec::Custom { .. } => None,
        }
    }

    /// The manifest `config_hash` this spec produces under `runner`'s
    /// settings (hex, exactly as recorded in
    /// [`RunManifest::config_hash`]). Exposed so schedulers layered above
    /// the executor (the simserve daemon) can compute a point's cache
    /// identity without simulating it.
    pub fn config_hash(&self, runner: &Runner) -> String {
        format!("{:016x}", hash_config_u64(&self.config_repr(runner)))
    }

    fn config_repr(&self, runner: &Runner) -> String {
        match self {
            // The kind itself is part of the repr: several designs share
            // the same Table I SystemConfig and differ only structurally.
            SystemSpec::Kind(k) => format!("{k:?} {:?} {:?}", k.system_config(1), runner.sdclp),
            SystemSpec::Custom { config, .. } => config.clone(),
        }
    }

    fn build(&self, kernel: Kernel, runner: &Runner) -> Box<dyn MemorySystem + Send> {
        match self {
            SystemSpec::Kind(k) => build_system(*k, kernel, &runner.sdclp),
            SystemSpec::Custom { build, .. } => build(kernel),
        }
    }
}

/// One point of a sweep matrix.
#[derive(Clone)]
pub struct MatrixPoint {
    pub workload: Workload,
    pub system: SystemSpec,
}

impl MatrixPoint {
    pub fn new(workload: Workload, system: SystemSpec) -> Self {
        MatrixPoint { workload, system }
    }
}

/// How one matrix point ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PointStatus {
    /// Simulated to completion in this run.
    Ok,
    /// Reused from a prior manifest by a `resume` run (not re-simulated;
    /// the record carries the prior manifest's headline numbers but no
    /// component statistics).
    Resumed,
    /// The point's simulation panicked; the panic was contained.
    Failed {
        /// The panic message.
        message: String,
    },
    /// The watchdog budget fired; the result is the partial run up to the
    /// ceiling.
    TimedOut {
        /// Total simulated cycles when the watchdog fired.
        cycles: u64,
        /// The configured ceiling.
        limit: u64,
    },
}

impl PointStatus {
    /// Did the point produce a usable result?
    pub fn is_ok(&self) -> bool {
        matches!(self, PointStatus::Ok | PointStatus::Resumed)
    }

    /// The manifest `status` string: `ok`, `failed`, or `timed_out`.
    /// (Resumed records keep their original `ok`.)
    pub fn as_str(&self) -> &'static str {
        match self {
            PointStatus::Ok | PointStatus::Resumed => "ok",
            PointStatus::Failed { .. } => "failed",
            PointStatus::TimedOut { .. } => "timed_out",
        }
    }

    /// The manifest `error` string (empty for ok).
    fn error_string(&self) -> String {
        match self {
            PointStatus::Ok | PointStatus::Resumed => String::new(),
            PointStatus::Failed { message } => message.clone(),
            PointStatus::TimedOut { cycles, limit } => {
                format!("exceeded watchdog budget ({cycles} cycles, limit {limit})")
            }
        }
    }
}

/// Serializable description of one completed run — one JSONL line.
#[derive(Debug, Clone, Default, Serialize)]
pub struct RunManifest {
    /// Position of this point in the submitted matrix.
    pub index: usize,
    pub workload: String,
    pub kernel: String,
    pub graph: String,
    pub system: String,
    /// Hash of the full system configuration (and SDC+LP parameters), so
    /// result files from different design points never silently mix.
    pub config_hash: String,
    /// `ok`, `failed`, or `timed_out` — resume skips `ok` records and
    /// re-runs the rest.
    pub status: String,
    /// Failure detail: the contained panic message or the watchdog report
    /// (empty for `ok`).
    pub error: String,
    pub scale: String,
    pub warmup: u64,
    pub measure: u64,
    pub skip: u64,
    pub trace_len: usize,
    /// FNV-1a checksum of the replayed trace (hex; empty when trace
    /// recording itself failed). Part of the resume identity: a record
    /// taken against a regenerated trace must re-run.
    pub trace_checksum: String,
    pub wall_seconds: f64,
    pub instructions: u64,
    pub cycles: u64,
    pub ipc: f64,
}

impl RunManifest {
    /// The resume identity of a record: a prior `ok` line is reused only
    /// if every field of this key still matches the submitted point. The
    /// only formatter of the key: [`Runner::point_resume_key`] calls it on
    /// the manifest the point would write, and the simserve daemon keys
    /// its warm result cache with that, so batch resume and daemon cache
    /// hits cannot disagree on what "the same point" is.
    pub fn resume_key(&self) -> String {
        format!(
            "{}|{}|{}|{}|{}|{}|{}|{}",
            self.workload,
            self.system,
            self.config_hash,
            self.scale,
            self.warmup,
            self.measure,
            self.skip,
            self.trace_checksum
        )
    }

    /// Parse one manifest JSONL line (the `--resume` path; the vendored
    /// serde stand-in has no deserializer).
    pub fn from_json_line(line: &str) -> Result<RunManifest, String> {
        let f = Fields(parse_json_object(line)?);
        Ok(RunManifest {
            index: f.usize_field("index")?,
            workload: f.str_field("workload")?,
            kernel: f.str_field("kernel")?,
            graph: f.str_field("graph")?,
            system: f.str_field("system")?,
            config_hash: f.str_field("config_hash")?,
            status: f.str_field("status")?,
            error: f.str_field("error")?,
            scale: f.str_field("scale")?,
            warmup: f.u64_field("warmup")?,
            measure: f.u64_field("measure")?,
            skip: f.u64_field("skip")?,
            trace_len: f.usize_field("trace_len")?,
            trace_checksum: f.str_field("trace_checksum")?,
            wall_seconds: f.f64_field("wall_seconds")?,
            instructions: f.u64_field("instructions")?,
            cycles: f.u64_field("cycles")?,
            ipc: f.f64_field("ipc")?,
        })
    }
}

/// A completed matrix point.
#[derive(Clone)]
pub struct RunRecord {
    pub workload: Workload,
    /// The named design, when the point used one.
    pub kind: Option<SystemKind>,
    pub label: String,
    /// How the point ended. Non-ok records carry a zeroed (failed) or
    /// partial (timed-out) [`SimResult`]; aggregation code should filter
    /// on [`RunRecord::is_ok`].
    pub status: PointStatus,
    pub result: SimResult,
    pub manifest: RunManifest,
    /// Interval telemetry collected during this point's replay, when
    /// [`MatrixOptions::telemetry`] was set and the point actually
    /// simulated (`None` for resumed and failed points).
    pub telemetry: Option<simtel::TelemetryOutput>,
}

impl RunRecord {
    /// Did this point produce a usable result?
    pub fn is_ok(&self) -> bool {
        self.status.is_ok()
    }

    /// The typed error a failed or timed-out point reports to
    /// [`MatrixOptions::fail_fast`].
    fn failure(&self) -> Option<SimError> {
        let (workload, system) = (self.workload.name(), self.label.clone());
        match &self.status {
            PointStatus::Ok | PointStatus::Resumed => None,
            PointStatus::TimedOut { cycles, limit } => {
                Some(SimError::PointTimedOut { workload, system, cycles: *cycles, limit: *limit })
            }
            PointStatus::Failed { .. } => Some(SimError::PointPanicked {
                workload,
                system,
                message: self.status.error_string(),
            }),
        }
    }

    /// The tail of this point's progress line.
    fn progress_note(&self) -> String {
        let secs = self.manifest.wall_seconds;
        match &self.status {
            PointStatus::Resumed => "resumed".to_string(),
            PointStatus::Failed { message } => format!("FAILED ({message})"),
            PointStatus::TimedOut { cycles, .. } => {
                format!("TIMED OUT after {cycles} cycles ({secs:.1}s)")
            }
            PointStatus::Ok => format!("IPC {:.3} ({secs:.1}s)", self.manifest.ipc),
        }
    }
}

/// Per-point runaway-simulation watchdog policy.
///
/// Ceilings are deterministic functions of simulated state, never
/// wall-clock, so arming the watchdog cannot perturb reproducibility of
/// runs that stay under it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Watchdog {
    /// No ceiling (unit-test / library default).
    #[default]
    Off,
    /// Cycle ceiling expressed as a multiple of the instruction window:
    /// `limit = factor x (warmup + measure)`. A healthy point runs at
    /// IPC >= ~0.05 even when fully DRAM-bound, so the harness default of
    /// [`Watchdog::DEFAULT_CPI`] only fires on pathological configs.
    CyclesPerInstr(u64),
}

impl Watchdog {
    /// The harness default factor: 512 cycles per windowed instruction.
    pub const DEFAULT_CPI: u64 = 512;

    /// Resolve to an engine budget for a given instruction window.
    pub fn budget(&self, window_total: u64) -> Budget {
        match *self {
            Watchdog::Off => Budget::unlimited(),
            Watchdog::CyclesPerInstr(f) => Budget::cycles(f.saturating_mul(window_total).max(1)),
        }
    }

    /// The cycle ceiling this policy resolves to (for reporting).
    fn limit(&self, window_total: u64) -> u64 {
        self.budget(window_total).max_cycles.unwrap_or(u64::MAX)
    }
}

/// Execution options for a matrix run.
#[derive(Debug, Clone, Default)]
pub struct MatrixOptions {
    /// Write one JSON line per completed point to this file, in input
    /// order (parent directories are created). Lines stream to
    /// `<path>.partial` as points complete and the file is atomically
    /// renamed into place on success, so an interrupted run leaves a
    /// valid resumable prefix.
    pub manifest_path: Option<PathBuf>,
    /// Print a progress line per completed point to stderr.
    pub progress: bool,
    /// Evict each workload's trace (and each graph once every workload on
    /// it is done) as shards finish, bounding peak memory.
    pub evict: bool,
    /// Record wall-clock seconds into manifests. Off, every manifest field
    /// is a pure function of the inputs, so reruns are byte-identical —
    /// the determinism tests rely on that.
    pub walltime: bool,
    /// Reload `manifest_path` (or its `.partial` leftover) and skip every
    /// point whose prior record is `ok` under the same identity
    /// (workload, system, config hash, scale, window, skip). Missing,
    /// `failed`, and `timed_out` points re-run.
    pub resume: bool,
    /// Abort the sweep with a typed error on the first failing point
    /// (CI/debug semantics) instead of completing the remaining points.
    pub fail_fast: bool,
    /// Runaway-simulation ceiling per point.
    pub watchdog: Watchdog,
    /// Directory holding engine-state checkpoints (`*.sstate`). `None`
    /// disables both [`MatrixOptions::warmup_fork`] and
    /// [`MatrixOptions::snapshot_every`].
    pub state_dir: Option<PathBuf>,
    /// Persist each point's post-warmup machine state and fork from it on
    /// later runs of the same (workload, window, trace, config) class,
    /// skipping the warmup replay. Requires `state_dir`; restores are
    /// bit-identical (a stale or corrupt checkpoint is discarded and
    /// regenerated), so results and manifests do not change.
    pub warmup_fork: bool,
    /// Take a crash-recovery snapshot every N trace events during
    /// measurement (0 disables). A killed run's next invocation resumes
    /// each interrupted point from its last snapshot that reached the
    /// disk. Requires `state_dir`.
    pub snapshot_every: u64,
    /// Collect interval telemetry per simulated point (attached inside
    /// the point's fault domain; proven non-perturbing, so results and
    /// manifests do not change). Collected output lands in
    /// [`RunRecord::telemetry`].
    pub telemetry: Option<simtel::TelemetryConfig>,
    /// Reap orphaned checkpoint files (`mid_*` crash snapshots and
    /// `.sstate.tmp` staging leftovers from killed processes) out of
    /// `state_dir` once the sweep completes, via
    /// [`simstate::CheckpointStore::sweep_stale`]. On for harness runs;
    /// off for library callers and the simserve daemon, which reaps on
    /// its own startup/idle schedule because its sweeps overlap.
    pub reap_stale: bool,
}

impl MatrixOptions {
    /// The harness default: progress lines, eviction, wall-clock stamps,
    /// the default watchdog, no manifest file.
    pub fn harness() -> Self {
        MatrixOptions {
            manifest_path: None,
            progress: true,
            evict: true,
            walltime: true,
            resume: false,
            fail_fast: false,
            watchdog: Watchdog::CyclesPerInstr(Watchdog::DEFAULT_CPI),
            state_dir: None,
            warmup_fork: false,
            snapshot_every: 0,
            telemetry: None,
            reap_stale: true,
        }
    }

    /// Quiet in-memory run (unit tests, library callers): no progress, no
    /// eviction, no watchdog, and deterministic (wall-clock-free)
    /// manifests.
    pub fn quiet() -> Self {
        MatrixOptions::default()
    }

    pub fn with_manifest(mut self, path: impl Into<PathBuf>) -> Self {
        self.manifest_path = Some(path.into());
        self
    }

    /// Builder-style `resume` toggle.
    pub fn resuming(mut self, on: bool) -> Self {
        self.resume = on;
        self
    }

    /// Builder-style checkpoint directory.
    pub fn with_state_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.state_dir = Some(dir.into());
        self
    }

    /// Builder-style `warmup_fork` toggle.
    pub fn forking_warmup(mut self, on: bool) -> Self {
        self.warmup_fork = on;
        self
    }

    /// Builder-style mid-measurement snapshot cadence (trace events; 0
    /// disables).
    pub fn snapshotting_every(mut self, events: u64) -> Self {
        self.snapshot_every = events;
        self
    }

    /// Builder-style per-point telemetry collection.
    pub fn with_telemetry(mut self, cfg: simtel::TelemetryConfig) -> Self {
        self.telemetry = Some(cfg);
        self
    }
}

/// Cross product helper: every workload on every system kind, workload-major
/// (matching the sharding, so results chunk evenly by `kinds.len()`).
pub fn cross(workloads: &[Workload], kinds: &[SystemKind]) -> Vec<(Workload, SystemKind)> {
    workloads.iter().flat_map(|&w| kinds.iter().map(move |&k| (w, k))).collect()
}

/// Group `points` by workload, in first-appearance order: one shard per
/// workload, so a shard's points share one trace recording. The batch
/// executor runs each shard on one worker and evicts its trace when the
/// shard is done; the simserve daemon queues shards round-robin across
/// sweeps.
pub fn shard_by_workload<P>(
    points: impl IntoIterator<Item = P>,
    workload: impl Fn(&P) -> Workload,
) -> Vec<(Workload, Vec<P>)> {
    let mut shards: Vec<(Workload, Vec<P>)> = Vec::new();
    for p in points {
        let w = workload(&p);
        match shards.iter_mut().find(|(sw, _)| *sw == w) {
            Some((_, shard)) => shard.push(p),
            None => shards.push((w, vec![p])),
        }
    }
    shards
}

/// FNV-1a, unlike `std`'s `DefaultHasher`, is stable across toolchains.
fn hash_config_u64(repr: &str) -> u64 {
    let mut h = simstate::Fnv1a::new();
    h.update(repr.as_bytes());
    h.finish()
}

/// The engine type matrix points replay on.
type PointEngine = Engine<Box<dyn MemorySystem + Send>>;

/// Cold warmup replays run in bounded spans of this many trace events, so
/// the post-warmup fork point lands on a deterministic event boundary.
/// Replay semantics are span-size-independent (a span is just a bounded
/// walk of the same events), so this only positions the checkpoint.
const WARMUP_REPLAY_CHUNK: usize = 4096;

/// Per-point checkpoint policy: where snapshots live, what identity they
/// must carry, and which of the two layers (post-warmup fork, periodic
/// mid-measurement) are active.
struct CheckpointPlan<'a> {
    store: &'a simstate::CheckpointStore,
    /// Fork from / persist the post-warmup state.
    warm_fork: bool,
    /// Mid-measurement snapshot cadence in trace events (0 = off).
    snapshot_every: u64,
    /// The instruction window, for detecting warmup crossing / completion.
    warmup: u64,
    window_total: u64,
    /// Snapshot identity — embedded in every container and validated on
    /// every load, beneath the key-level separation.
    config_hash: u64,
    trace_checksum: u64,
    warm_key: String,
    mid_key: String,
}

impl CheckpointPlan<'_> {
    /// Has this engine consumed its whole window (or its budget)?
    fn finished(&self, engine: &PointEngine) -> bool {
        engine.timed_out() || engine.instructions() >= self.window_total
    }

    /// Queue `engine`'s state for the store under `key` (warn-and-continue
    /// on failure, here or at the sweep's flush: a checkpoint that cannot
    /// be written costs future savings, never this point's result).
    fn persist(&self, key: &str, engine: &PointEngine, pos: usize) {
        let snap = simstate::Snapshot {
            config_hash: self.config_hash,
            trace_checksum: self.trace_checksum,
            trace_pos: pos as u64,
            payload: engine.snapshot(),
        };
        if let Err(e) = self.store.save(key, snap) {
            eprintln!(
                "warning: could not write checkpoint {}: {e}",
                self.store.path_for(key).display()
            );
        }
    }

    /// Checkpoint-aware replay. Restores from the freshest valid snapshot
    /// (mid-measurement over post-warmup), discarding and regenerating
    /// corrupt or stale ones; on a cold start with `warm_fork`, replays to
    /// the warmup boundary and persists the fork point; with
    /// `snapshot_every`, drops periodic recovery snapshots through the
    /// measurement and removes the (now obsolete) one on completion.
    ///
    /// Takes and returns the engine by value: a restore that fails midway
    /// leaves partially-loaded state, so that path discards the engine and
    /// rebuilds a cold one via `rebuild`.
    fn replay(
        &self,
        mut engine: PointEngine,
        rebuild: &dyn Fn() -> PointEngine,
        trace: &CompactTrace,
    ) -> PointEngine {
        let mut pos = 0usize;
        let mut restored = false;
        let mut candidates: Vec<&String> = Vec::new();
        if self.snapshot_every > 0 {
            candidates.push(&self.mid_key);
        }
        if self.warm_fork {
            candidates.push(&self.warm_key);
        }
        for key in candidates {
            match self.store.load(key, self.config_hash, self.trace_checksum) {
                Ok(None) => {} // cold start for this layer
                Ok(Some(snap)) => match engine.restore(&snap.payload) {
                    Ok(()) => {
                        pos = usize::try_from(snap.trace_pos)
                            .unwrap_or(usize::MAX)
                            .min(trace.events.len());
                        restored = true;
                    }
                    Err(e) => {
                        eprintln!(
                            "warning: discarding checkpoint {} (restore failed: {e}); regenerating",
                            self.store.path_for(key).display()
                        );
                        let _ = self.store.remove(key);
                        engine = rebuild();
                    }
                },
                Err(e) => {
                    eprintln!(
                        "warning: discarding checkpoint {} ({e}); regenerating",
                        self.store.path_for(key).display()
                    );
                    let _ = self.store.remove(key);
                }
            }
            if restored {
                break;
            }
        }

        if !restored && self.warm_fork {
            while engine.instructions() < self.warmup
                && !engine.timed_out()
                && pos < trace.events.len()
            {
                pos = engine.replay_span(trace, pos, WARMUP_REPLAY_CHUNK);
            }
            self.persist(&self.warm_key, &engine, pos);
        }

        if self.snapshot_every > 0 {
            let span = usize::try_from(self.snapshot_every).unwrap_or(usize::MAX);
            loop {
                pos = engine.replay_span(trace, pos, span);
                if self.finished(&engine) || pos >= trace.events.len() {
                    break;
                }
                self.persist(&self.mid_key, &engine, pos);
            }
            // The point completed: its recovery snapshot is obsolete.
            let _ = self.store.remove(&self.mid_key);
        } else {
            engine.replay_from(trace, pos);
        }
        engine
    }
}

/// Render a contained panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A workload's recorded trace and its checksum, or why recording failed.
pub type MatrixTrace = Result<(Arc<CompactTrace>, u64), String>;

impl Runner {
    /// Run a matrix of (workload, system) points in parallel and return one
    /// [`RunRecord`] per point, in input order. Progress and eviction
    /// follow [`MatrixOptions::harness`]; use [`Runner::run_matrix_with`]
    /// to control them or to stream a JSONL manifest.
    ///
    /// Failing points do not abort the sweep (see [`PointStatus`]); the
    /// `Err` cases are sweep-level faults — manifest I/O and
    /// [`MatrixOptions::fail_fast`] aborts.
    pub fn run_matrix(
        &self,
        points: &[(Workload, SystemKind)],
    ) -> Result<Vec<RunRecord>, SimError> {
        self.run_matrix_with(points, &MatrixOptions::harness())
    }

    /// [`Runner::run_matrix`] with explicit options.
    pub fn run_matrix_with(
        &self,
        points: &[(Workload, SystemKind)],
        opts: &MatrixOptions,
    ) -> Result<Vec<RunRecord>, SimError> {
        let points: Vec<MatrixPoint> =
            points.iter().map(|&(w, k)| MatrixPoint::new(w, SystemSpec::Kind(k))).collect();
        self.run_matrix_points(&points, opts)
    }

    /// The general executor: arbitrary [`SystemSpec`]s per point (config
    /// sweeps and ablations build their own systems). Each point runs
    /// through [`Runner::run_matrix_point`]; this layer adds the
    /// sweep-level work — up-front validation, resume, manifest streaming,
    /// progress, fail-fast and eviction.
    pub fn run_matrix_points(
        &self,
        points: &[MatrixPoint],
        opts: &MatrixOptions,
    ) -> Result<Vec<RunRecord>, SimError> {
        let total = points.len();

        // Reject structurally invalid configurations up front with a typed
        // error: set indexing is mask-based, so a non-power-of-two set
        // count must never silently degrade a whole sweep. (Custom specs
        // validate inside their own build closures.)
        for p in points {
            if let Some(kind) = p.system.kind() {
                kind.system_config(1).validate().map_err(SimError::from)?;
            }
        }

        // Resume: index prior `ok` records by identity. Resolution happens
        // inside each shard once its trace — and thus the trace checksum
        // the identity includes — is known: a record taken against a
        // regenerated trace must re-run, not be silently reused.
        let results: Vec<Mutex<Option<RunRecord>>> =
            points.iter().map(|_| Mutex::new(None)).collect();
        let mut resume_index: BTreeMap<String, RunManifest> = BTreeMap::new();
        if opts.resume {
            if let Some(path) = &opts.manifest_path {
                for m in load_manifests(path)? {
                    if m.status == "ok" {
                        resume_index.insert(m.resume_key(), m);
                    }
                }
            }
        }

        // Engine-state checkpoints (post-warmup forks, mid-measurement
        // recovery snapshots) live in one store per sweep.
        let store: Option<simstate::CheckpointStore> =
            opts.state_dir.as_ref().map(simstate::CheckpointStore::new);

        // One shard per workload keeps its trace alive exactly as long as
        // needed.
        let shards = shard_by_workload(points.iter().enumerate(), |(_, p)| p.workload);

        // Graphs stay resident until their last workload shard completes.
        let mut graph_pending: BTreeMap<GraphInput, usize> = BTreeMap::new();
        for (w, _) in &shards {
            *graph_pending.entry(w.graph).or_insert(0) += 1;
        }
        let graph_pending = Mutex::new(graph_pending);

        // Manifest lines stream out in input order as points complete
        // (resumed records submit theirs as their shard resolves them).
        let writer: Option<ManifestWriter> = match &opts.manifest_path {
            Some(path) => Some(ManifestWriter::create(path)?),
            None => None,
        };
        let writer = Mutex::new(writer);
        // First manifest-write failure (compute continues; reported at end).
        let manifest_error: Mutex<Option<SimError>> = Mutex::new(None);
        // First point failure, for fail-fast aborts.
        let abort = AtomicBool::new(false);
        let first_failure: Mutex<Option<SimError>> = Mutex::new(None);

        let completed = AtomicUsize::new(0);

        rayon::scope(|s| {
            for (w, shard) in shards {
                let (results, completed, graph_pending) = (&results, &completed, &graph_pending);
                let (writer, manifest_error) = (&writer, &manifest_error);
                let (abort, first_failure) = (&abort, &first_failure);
                let (resume_index, store) = (&resume_index, store.as_ref());
                s.spawn(move |_| {
                    if abort.load(Ordering::Relaxed) {
                        return;
                    }
                    let trace = self.matrix_trace(w);
                    for (i, point) in shard {
                        if abort.load(Ordering::Relaxed) {
                            return;
                        }
                        let rec = match self.resumed_record(point, i, &trace, resume_index) {
                            Some(rec) => rec,
                            None => self.run_matrix_point(point, i, &trace, opts, store),
                        };
                        if let Some(err) = rec.failure() {
                            let mut slot = first_failure.lock();
                            if slot.is_none() {
                                *slot = Some(err);
                            }
                            if opts.fail_fast {
                                abort.store(true, Ordering::Relaxed);
                            }
                        }
                        let n = completed.fetch_add(1, Ordering::Relaxed) + 1;
                        if opts.progress {
                            eprintln!(
                                "[{n}/{total}] {w} on {}: {}",
                                rec.label,
                                rec.progress_note()
                            );
                        }
                        if let Some(wr) = writer.lock().as_mut() {
                            if let Err(e) = wr.submit(i, serde::to_json_string(&rec.manifest)) {
                                let mut slot = manifest_error.lock();
                                if slot.is_none() {
                                    *slot = Some(e);
                                }
                            }
                        }
                        *results[i].lock() = Some(rec);
                    }
                    drop(trace);
                    if opts.evict {
                        self.evict_trace(w);
                        let mut pending = graph_pending.lock();
                        #[expect(
                            clippy::expect_used,
                            reason = "invariant — graph_pending covers every shard's graph"
                        )]
                        let left = pending
                            .get_mut(&w.graph)
                            .expect("invariant: graph_pending tracks every shard's graph");
                        *left -= 1;
                        if *left == 0 {
                            self.evict_graph(w.graph);
                        }
                    }
                });
            }
        });

        // Let the store's queued writes land, so every `mid_*` snapshot a
        // completed point removed is gone from the disk before this sweep
        // returns or reaps. A failed write costs future savings, never a
        // record.
        if let Some(st) = &store {
            if let Err(e) = st.flush() {
                eprintln!("warning: could not write checkpoint {e}");
            }
        }

        if opts.fail_fast {
            if let Some(e) = first_failure.into_inner() {
                // The `.partial` manifest prefix is left on disk for
                // `resume`; the final path is never produced by an abort.
                return Err(SimError::Aborted {
                    point: "first failing point".into(),
                    detail: e.to_string(),
                });
            }
        }
        if let Some(e) = manifest_error.into_inner() {
            return Err(e);
        }

        #[expect(
            clippy::expect_used,
            reason = "invariant — rayon::scope joins every spawned shard (fail-fast aborts returned above)"
        )]
        let records: Vec<RunRecord> = results
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("invariant: every matrix point completes before the scope ends")
            })
            .collect();

        if let Some(wr) = writer.into_inner() {
            wr.finish(total)?;
        }

        // The sweep is complete (aborts returned above) and its writes
        // flushed, so any `mid_*` crash snapshot still in the store is an
        // orphan from a killed process — reap it. Warmup forks are spared; see
        // `CheckpointStore::sweep_stale`. Best-effort: a failed reap
        // never fails the sweep that produced valid records.
        if opts.reap_stale {
            if let Some(st) = &store {
                if let Err(e) = st.sweep_stale() {
                    eprintln!(
                        "warning: could not sweep stale checkpoints in {}: {e}",
                        st.dir().display()
                    );
                }
            }
        }
        Ok(records)
    }

    /// A workload's trace and its identity, for [`Runner::run_matrix_point`].
    /// Trace recording is itself a failure domain: a panicking kernel
    /// becomes an `Err` that fails that workload's points, not the sweep
    /// or the daemon worker.
    pub fn matrix_trace(&self, w: Workload) -> MatrixTrace {
        catch_unwind(AssertUnwindSafe(|| self.trace_with_checksum(w)))
            .map_err(|payload| format!("trace recording panicked: {}", panic_message(payload)))
    }

    /// Resume resolution: a prior `ok` record whose full identity — trace
    /// checksum included — still matches this point, re-indexed to `index`.
    fn resumed_record(
        &self,
        point: &MatrixPoint,
        index: usize,
        trace: &MatrixTrace,
        resume_index: &BTreeMap<String, RunManifest>,
    ) -> Option<RunRecord> {
        let (_, tsum) = trace.as_ref().ok()?;
        if resume_index.is_empty() {
            return None;
        }
        let key = self.point_resume_key(point, *tsum);
        let mut manifest = resume_index.get(&key)?.clone();
        manifest.index = index;
        Some(RunRecord {
            workload: point.workload,
            kind: point.system.kind(),
            label: point.system.label(),
            status: PointStatus::Resumed,
            result: SimResult {
                instructions: manifest.instructions,
                cycles: manifest.cycles,
                stats: Default::default(),
            },
            manifest,
            telemetry: None,
        })
    }

    /// Run one matrix point in its own fault domain and describe it: the
    /// per-point executor behind both [`Runner::run_matrix_points`] and
    /// the simserve daemon's workers. It covers the checkpoint plan
    /// (warmup fork, mid-measurement snapshots), panic isolation, the
    /// watchdog, telemetry and the manifest; `index` is the point's
    /// position in its sweep or submission. A failed `trace` yields a
    /// `failed` record without simulating.
    pub fn run_matrix_point(
        &self,
        point: &MatrixPoint,
        index: usize,
        trace: &MatrixTrace,
        opts: &MatrixOptions,
        store: Option<&simstate::CheckpointStore>,
    ) -> RunRecord {
        let w = point.workload;
        let config_hash = hash_config_u64(&point.system.config_repr(self));
        #[expect(
            clippy::disallowed_methods,
            clippy::disallowed_types,
            reason = "the one sanctioned host-clock read: it feeds only wall_seconds, which \
                      opts.walltime (off by default and in byte-identity runs) gates to 0.0"
        )]
        let started = std::time::Instant::now();
        let (status, result, trace_len, telemetry) = match trace {
            Err(msg) => {
                (PointStatus::Failed { message: msg.clone() }, SimResult::default(), 0, None)
            }
            Ok((trace, tsum)) => {
                let plan = store.and_then(|st| {
                    if !opts.warmup_fork && opts.snapshot_every == 0 {
                        return None;
                    }
                    // The warmup class: everything the post-warmup
                    // machine state depends on.
                    let class = format!(
                        "{}|{:?}|w{}+m{}|s{}|t{tsum:016x}|c{config_hash:016x}",
                        w.name(),
                        self.scale,
                        self.window.warmup,
                        self.window.measure,
                        self.skip,
                    );
                    Some(CheckpointPlan {
                        store: st,
                        warm_fork: opts.warmup_fork && self.window.warmup > 0,
                        snapshot_every: opts.snapshot_every,
                        warmup: self.window.warmup,
                        window_total: self.window.total(),
                        config_hash,
                        trace_checksum: *tsum,
                        warm_key: format!("warm|{class}"),
                        mid_key: format!("mid|{class}"),
                    })
                });
                // One collector per point, attached inside the same fault
                // domain as the replay. Telemetry only observes, so results
                // stay bit-identical with it on.
                let tel = opts.telemetry.as_ref().map(simtel::TelemetryHandle::collector);
                let budget = opts.watchdog.budget(self.window.total());
                let run = catch_unwind(AssertUnwindSafe(|| {
                    let build = || {
                        let sys = point.system.build(w.kernel, self);
                        let mut engine = self.engine_for(sys);
                        engine.set_budget(budget);
                        if let Some(tel) = &tel {
                            engine.attach_telemetry(tel.clone());
                        }
                        engine
                    };
                    let mut engine = build();
                    match &plan {
                        Some(plan) => engine = plan.replay(engine, &build, trace),
                        None => engine.replay(trace),
                    }
                    let timed_out = engine.timed_out();
                    let total_cycles = engine.current_cycle();
                    (engine.finish(), timed_out, total_cycles)
                }));
                let (status, result) = match run {
                    Ok((result, false, _)) => (PointStatus::Ok, result),
                    Ok((result, true, cycles)) => {
                        let limit = opts.watchdog.limit(self.window.total());
                        (PointStatus::TimedOut { cycles, limit }, result)
                    }
                    Err(payload) => (
                        PointStatus::Failed { message: panic_message(payload) },
                        SimResult::default(),
                    ),
                };
                // A panicking point's half-collected intervals describe no
                // completed run.
                let telemetry = match &status {
                    PointStatus::Failed { .. } => None,
                    _ => tel.and_then(|t| t.take_output()),
                };
                (status, result, trace.events.len(), telemetry)
            }
        };
        let wall_seconds = started.elapsed().as_secs_f64();

        let manifest = RunManifest {
            index,
            status: status.as_str().to_string(),
            error: status.error_string(),
            trace_len,
            wall_seconds: if opts.walltime { wall_seconds } else { 0.0 },
            instructions: result.instructions,
            cycles: result.cycles,
            ipc: result.ipc(),
            ..self.point_identity(point, config_hash, trace.as_ref().ok().map(|(_, tsum)| *tsum))
        };
        RunRecord {
            workload: w,
            kind: point.system.kind(),
            label: manifest.system.clone(),
            status,
            result,
            manifest,
            telemetry,
        }
    }

    /// The manifest fields a point's identity fixes before it runs: names,
    /// `config_hash`, scale, window, skip and trace checksum (empty when
    /// recording failed). Every other field is zero.
    fn point_identity(
        &self,
        p: &MatrixPoint,
        config_hash: u64,
        trace_checksum: Option<u64>,
    ) -> RunManifest {
        let w = p.workload;
        RunManifest {
            workload: w.name(),
            kernel: w.kernel.to_string(),
            graph: w.graph.name().to_string(),
            system: p.system.label(),
            config_hash: format!("{config_hash:016x}"),
            scale: format!("{:?}", self.scale),
            warmup: self.window.warmup,
            measure: self.window.measure,
            skip: self.skip,
            trace_checksum: trace_checksum.map_or_else(String::new, |t| format!("{t:016x}")),
            ..RunManifest::default()
        }
    }

    /// The resume identity of a submitted point: the
    /// [`RunManifest::resume_key`] of the manifest it would write, given the
    /// FNV-1a sum of its recorded trace. The simserve daemon keys its warm
    /// result cache with exactly this string.
    pub fn point_resume_key(&self, p: &MatrixPoint, trace_checksum: u64) -> String {
        let config_hash = hash_config_u64(&p.system.config_repr(self));
        self.point_identity(p, config_hash, Some(trace_checksum)).resume_key()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpgraph::SuiteScale;
    use gpkernels::Kernel;
    use simcore::Window;

    fn tiny_runner() -> Runner {
        Runner::new(SuiteScale::Tiny, Window::new(20_000, 80_000))
    }

    fn temp_manifest(name: &str) -> PathBuf {
        std::env::temp_dir().join("sdclp-matrix-test").join(name)
    }

    /// A spec whose build panics — the unit of fault injection.
    fn panicking_spec(tag: &str) -> SystemSpec {
        let msg = format!("injected fault: {tag}");
        SystemSpec::custom(format!("boom-{tag}"), format!("boom {tag}"), move |_| {
            panic!("{}", msg.clone())
        })
    }

    /// The acceptance property: a parallel matrix over >= 6 points matches
    /// sequential `run_one` byte for byte.
    #[test]
    fn parallel_matrix_matches_sequential_run_one() {
        let r = tiny_runner();
        let points = cross(
            &[
                Workload::new(Kernel::Pr, GraphInput::Kron),
                Workload::new(Kernel::Cc, GraphInput::Urand),
                Workload::new(Kernel::Bfs, GraphInput::Kron),
            ],
            &[SystemKind::Baseline, SystemKind::SdcLp],
        );
        assert!(points.len() >= 6);
        let records = r.run_matrix_with(&points, &MatrixOptions::quiet()).expect("sweep runs");
        assert_eq!(records.len(), points.len());

        let seq = tiny_runner();
        for (rec, &(w, k)) in records.iter().zip(&points) {
            assert_eq!(rec.workload, w);
            assert_eq!(rec.kind, Some(k));
            assert!(rec.is_ok());
            assert_eq!(rec.manifest.status, "ok");
            assert_eq!(rec.manifest.error, "");
            let expected = seq.run_one(w, k);
            assert_eq!(
                rec.result, expected,
                "matrix result for {w} on {k} diverged from sequential run_one"
            );
        }
    }

    /// The simserve daemon's path: `run_matrix_point` called directly,
    /// with warm fork and telemetry on, reproduces the point's record from
    /// a sweep — same result, same manifest apart from `index`.
    #[test]
    fn direct_point_matches_its_sweep_record() {
        let state = std::env::temp_dir().join("sdclp-matrix-test").join("direct-point");
        let _ = std::fs::remove_dir_all(&state);
        let w = Workload::new(Kernel::Pr, GraphInput::Kron);
        let points = vec![
            MatrixPoint::new(
                Workload::new(Kernel::Bfs, GraphInput::Urand),
                SystemSpec::Kind(SystemKind::Baseline),
            ),
            MatrixPoint::new(w, SystemSpec::Kind(SystemKind::SdcLp)),
        ];
        let cfg = simtel::TelemetryConfig { interval_instructions: 10_000, ..Default::default() };
        let opts =
            MatrixOptions::quiet().with_state_dir(&state).forking_warmup(true).with_telemetry(cfg);
        // The sweep runs cold and persists the fork point; the direct call
        // restores from it.
        let swept = tiny_runner().run_matrix_points(&points, &opts).expect("sweep runs");

        let r = tiny_runner();
        let store = simstate::CheckpointStore::new(&state);
        let direct = r.run_matrix_point(&points[1], 7, &r.matrix_trace(w), &opts, Some(&store));
        assert_eq!(direct.status, PointStatus::Ok);
        assert_eq!(direct.result, swept[1].result, "direct point diverged from the sweep");
        assert!(direct.telemetry.is_some(), "telemetry collected on the direct path");
        assert_eq!(direct.manifest.index, 7);
        let mut manifest = direct.manifest.clone();
        manifest.index = swept[1].manifest.index;
        assert_eq!(
            serde::to_json_string(&manifest),
            serde::to_json_string(&swept[1].manifest),
            "direct manifest diverged from the sweep's"
        );
        let _ = std::fs::remove_dir_all(&state);
    }

    #[test]
    fn telemetry_option_collects_intervals_without_perturbing_manifests() {
        let w = Workload::new(Kernel::Bfs, GraphInput::Kron);
        let points = [(w, SystemKind::SdcLp)];
        let plain =
            tiny_runner().run_matrix_with(&points, &MatrixOptions::quiet()).expect("plain sweep");
        let cfg = simtel::TelemetryConfig { interval_instructions: 10_000, ..Default::default() };
        let traced = tiny_runner()
            .run_matrix_with(&points, &MatrixOptions::quiet().with_telemetry(cfg))
            .expect("traced sweep");

        assert_eq!(plain[0].result, traced[0].result, "telemetry must not perturb results");
        assert_eq!(
            serde::to_json_string(&plain[0].manifest),
            serde::to_json_string(&traced[0].manifest),
            "telemetry must not perturb manifests"
        );
        assert!(plain[0].telemetry.is_none());
        let out = traced[0].telemetry.as_ref().expect("telemetry collected");
        assert!(!out.intervals.is_empty());
        let sum: u64 = out.intervals.iter().map(|iv| iv.instructions).sum();
        assert_eq!(sum, traced[0].result.instructions, "interval sums must reconcile");
    }

    #[test]
    fn config_hash_is_pinned_across_toolchains() {
        assert_eq!(hash_config_u64("Baseline SystemConfig { cores: 1 }"), 0xbf6d_736f_36e4_dd2a);
    }

    #[test]
    fn channel_override_specs_hash_distinctly_and_more_channels_never_hurt() {
        let r = tiny_runner();
        let w = Workload::new(Kernel::Pr, GraphInput::Urand);
        let points: Vec<MatrixPoint> = [1usize, 4]
            .iter()
            .map(|&ch| {
                MatrixPoint::new(
                    w,
                    SystemSpec::kind_with_channels(SystemKind::Baseline, ch, &r.sdclp),
                )
            })
            .collect();
        let recs = r.run_matrix_points(&points, &MatrixOptions::quiet()).expect("sweep runs");
        assert_eq!(recs[0].label, "Baseline@1ch");
        assert_eq!(recs[1].label, "Baseline@4ch");
        assert_ne!(
            recs[0].manifest.config_hash, recs[1].manifest.config_hash,
            "channel counts must not share a config hash"
        );
        assert!(recs.iter().all(RunRecord::is_ok));
        assert!(
            recs[1].result.cycles <= recs[0].result.cycles,
            "4 channels must not be slower than 1"
        );
    }

    #[test]
    fn completed_sweep_reaps_orphan_mid_snapshots_but_keeps_warm_forks() {
        let dir = std::env::temp_dir().join("sdclp-matrix-test").join("reap-stale");
        let _ = std::fs::remove_dir_all(&dir);
        let store = simstate::CheckpointStore::new(&dir);
        // Plant an orphan from a hypothetical killed process.
        let orphan = simstate::Snapshot {
            config_hash: 1,
            trace_checksum: 2,
            trace_pos: 3,
            payload: vec![0xAA; 16],
        };
        store.save("mid|orphan|from|killed|process", &orphan).expect("plant orphan");
        store.flush().expect("orphan on disk");

        let r = tiny_runner();
        let w = Workload::new(Kernel::Pr, GraphInput::Kron);
        let opts = MatrixOptions {
            state_dir: Some(dir.clone()),
            warmup_fork: true,
            reap_stale: true,
            ..MatrixOptions::quiet()
        };
        r.run_matrix_with(&[(w, SystemKind::Baseline)], &opts).expect("sweep runs");

        let names: Vec<String> = std::fs::read_dir(&dir)
            .expect("state dir exists")
            .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
            .collect();
        assert!(
            names.iter().any(|n| n.starts_with("warm_") && n.ends_with(".sstate")),
            "warmup fork survives the reap: {names:?}"
        );
        assert!(
            !names.iter().any(|n| n.starts_with("mid_")),
            "orphan mid snapshot was reaped: {names:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn eviction_drops_traces_but_preserves_results() {
        let r = tiny_runner();
        let w = Workload::new(Kernel::Pr, GraphInput::Kron);
        let opts = MatrixOptions { evict: true, ..MatrixOptions::quiet() };
        let recs = r.run_matrix_with(&[(w, SystemKind::Baseline)], &opts).expect("sweep runs");
        assert_eq!(recs.len(), 1);
        // Trace was evicted: requesting it again re-records (fresh Arc) yet
        // yields identical events.
        let t1 = r.trace(w);
        let t2 = r.trace(w);
        assert!(std::sync::Arc::ptr_eq(&t1, &t2), "fresh trace is cached again");
        assert_eq!(recs[0].manifest.trace_len, t1.events.len());
    }

    #[test]
    fn manifest_jsonl_is_written_per_point() {
        let path = temp_manifest("manifest.jsonl");
        let _ = std::fs::remove_file(&path);
        let r = tiny_runner();
        let points = cross(
            &[Workload::new(Kernel::Cc, GraphInput::Urand)],
            &[SystemKind::Baseline, SystemKind::SdcLp],
        );
        let opts = MatrixOptions::quiet().with_manifest(&path);
        let recs = r.run_matrix_with(&points, &opts).expect("sweep runs");
        let text = std::fs::read_to_string(&path).expect("manifest written");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), recs.len());
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "not JSON: {line}");
            assert!(line.contains("\"workload\":\"cc.urand\""), "line: {line}");
            assert!(line.contains("\"config_hash\":\""), "line: {line}");
            assert!(line.contains("\"status\":\"ok\""), "line: {line}");
            // And the line round-trips through the resume parser.
            let m = RunManifest::from_json_line(line).expect("parses");
            assert_eq!(m.workload, "cc.urand");
        }
        // The two design points must hash differently.
        assert_ne!(recs[0].manifest.config_hash, recs[1].manifest.config_hash);
        // Atomic publish: no partial file remains.
        assert!(!crate::manifest::partial_path(&path).exists());
        let _ = std::fs::remove_file(&path);
    }

    /// Manifest-order regression: two identical matrix
    /// invocations — fresh Runner each, parallel execution, shard maps and
    /// all — must emit byte-identical manifest files, ordering included.
    /// Hash-ordered shard or directory maps anywhere on the result path
    /// would break this intermittently.
    #[test]
    fn identical_matrix_runs_emit_byte_identical_manifests() {
        let path_a = temp_manifest("a.jsonl");
        let path_b = temp_manifest("b.jsonl");
        let points = cross(
            &[
                Workload::new(Kernel::Pr, GraphInput::Kron),
                Workload::new(Kernel::Bfs, GraphInput::Urand),
                Workload::new(Kernel::Cc, GraphInput::Kron),
            ],
            &[SystemKind::Baseline, SystemKind::SdcLp],
        );
        for (path, label) in [(&path_a, "a"), (&path_b, "b")] {
            let r = tiny_runner();
            let opts = MatrixOptions::quiet().with_manifest(path);
            let recs = r.run_matrix_with(&points, &opts).expect("sweep runs");
            assert_eq!(recs.len(), points.len(), "run {label}");
        }
        let a = std::fs::read(&path_a).expect("manifest a");
        let b = std::fs::read(&path_b).expect("manifest b");
        assert!(!a.is_empty());
        assert_eq!(a, b, "manifest files diverged between identical runs");
        // Lines come out in input order, not completion order.
        let text = String::from_utf8(a).expect("utf8 manifest");
        let indices: Vec<usize> =
            text.lines().map(|l| RunManifest::from_json_line(l).expect("parses").index).collect();
        assert_eq!(indices, (0..points.len()).collect::<Vec<_>>(), "not input order");
        let _ = std::fs::remove_file(&path_a);
        let _ = std::fs::remove_file(&path_b);
    }

    #[test]
    fn custom_specs_run_design_space_points() {
        let r = tiny_runner();
        let w = Workload::new(Kernel::Bfs, GraphInput::Kron);
        let cfg = simcore::SystemConfig::baseline(1);
        let points = vec![
            MatrixPoint::new(w, SystemSpec::Kind(SystemKind::Baseline)),
            MatrixPoint::new(
                w,
                SystemSpec::custom("baseline-clone", format!("{cfg:?}"), move |_| {
                    Box::new(simcore::BaselineHierarchy::new(&cfg))
                }),
            ),
        ];
        let recs = r.run_matrix_points(&points, &MatrixOptions::quiet()).expect("sweep runs");
        assert_eq!(recs[0].result, recs[1].result, "identical configs must agree");
        assert_eq!(recs[1].label, "baseline-clone");
        assert!(recs[1].kind.is_none());
    }

    /// Tentpole property 1: a panicking point is contained — every other
    /// point completes, the bad one carries the panic message.
    #[test]
    fn panicking_point_is_isolated() {
        let r = tiny_runner();
        let w = Workload::new(Kernel::Cc, GraphInput::Urand);
        let w2 = Workload::new(Kernel::Pr, GraphInput::Kron);
        let points = vec![
            MatrixPoint::new(w, SystemSpec::Kind(SystemKind::Baseline)),
            MatrixPoint::new(w, panicking_spec("a")),
            MatrixPoint::new(w2, SystemSpec::Kind(SystemKind::Baseline)),
        ];
        let recs = r.run_matrix_points(&points, &MatrixOptions::quiet()).expect("sweep runs");
        assert_eq!(recs.len(), 3);
        assert!(recs[0].is_ok() && recs[2].is_ok());
        assert!(!recs[1].is_ok());
        match &recs[1].status {
            PointStatus::Failed { message } => {
                assert!(message.contains("injected fault: a"), "message: {message}")
            }
            other => panic!("expected Failed, got {other:?}"),
        }
        assert_eq!(recs[1].manifest.status, "failed");
        assert!(recs[1].manifest.error.contains("injected fault"));
        // The ok points are unperturbed by their failed neighbor.
        assert_eq!(recs[0].result, tiny_runner().run_one(w, SystemKind::Baseline));
    }

    /// Tentpole property 2: the watchdog converts a runaway point into a
    /// graceful timed_out record with a partial result.
    #[test]
    fn watchdog_times_out_runaway_points() {
        let r = tiny_runner();
        let w = Workload::new(Kernel::Pr, GraphInput::Kron);
        // A zero factor clamps to a one-cycle ceiling, far below any real
        // run: everything times out.
        let opts =
            MatrixOptions { watchdog: Watchdog::CyclesPerInstr(0), ..MatrixOptions::quiet() };
        let recs = r.run_matrix_with(&[(w, SystemKind::Baseline)], &opts).expect("sweep runs");
        match &recs[0].status {
            PointStatus::TimedOut { cycles, limit } => {
                assert_eq!(*limit, 1);
                assert!(*cycles >= 1, "cycles: {cycles}");
            }
            other => panic!("expected TimedOut, got {other:?}"),
        }
        assert_eq!(recs[0].manifest.status, "timed_out");
        assert!(recs[0].manifest.error.contains("watchdog"));

        // And an unarmed (or generous) watchdog changes nothing.
        let free = r.run_matrix_with(&[(w, SystemKind::Baseline)], &MatrixOptions::quiet());
        let armed = r.run_matrix_with(
            &[(w, SystemKind::Baseline)],
            &MatrixOptions {
                watchdog: Watchdog::CyclesPerInstr(Watchdog::DEFAULT_CPI),
                ..MatrixOptions::quiet()
            },
        );
        assert_eq!(
            free.expect("free")[0].result,
            armed.expect("armed")[0].result,
            "a generous watchdog must not perturb results"
        );
    }

    /// Tentpole property 3: fail_fast restores abort-on-first-failure.
    #[test]
    fn fail_fast_aborts_with_typed_error() {
        let r = tiny_runner();
        let w = Workload::new(Kernel::Cc, GraphInput::Urand);
        let points = vec![
            MatrixPoint::new(w, panicking_spec("ff")),
            MatrixPoint::new(w, SystemSpec::Kind(SystemKind::Baseline)),
        ];
        let opts = MatrixOptions { fail_fast: true, ..MatrixOptions::quiet() };
        match r.run_matrix_points(&points, &opts) {
            Err(SimError::Aborted { detail, .. }) => {
                assert!(detail.contains("injected fault"), "detail: {detail}")
            }
            other => panic!("expected Aborted, got {:?}", other.map(|r| r.len())),
        }
    }

    /// Tentpole property 4: resume reuses ok records (no re-simulation)
    /// and re-runs failed ones; a changed config hash invalidates reuse.
    #[test]
    fn resume_skips_ok_and_reruns_failed() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let path = temp_manifest("resume.jsonl");
        let _ = std::fs::remove_file(&path);
        let w = Workload::new(Kernel::Cc, GraphInput::Urand);
        let builds = Arc::new(AtomicUsize::new(0));
        let counting_baseline = |builds: &Arc<AtomicUsize>| {
            let builds = Arc::clone(builds);
            let cfg = simcore::SystemConfig::baseline(1);
            SystemSpec::custom("counted", format!("{cfg:?}"), move |_| {
                builds.fetch_add(1, Ordering::Relaxed);
                Box::new(simcore::BaselineHierarchy::new(&cfg))
            })
        };

        let points = vec![
            MatrixPoint::new(w, counting_baseline(&builds)),
            MatrixPoint::new(w, panicking_spec("r")),
        ];
        let opts = MatrixOptions::quiet().with_manifest(&path);
        let first = tiny_runner().run_matrix_points(&points, &opts).expect("first run");
        assert!(first[0].is_ok() && !first[1].is_ok());
        assert_eq!(builds.load(Ordering::Relaxed), 1);

        // Resume: the ok point is reused (builder not called again), the
        // failed point re-runs (and fails again).
        let second = tiny_runner()
            .run_matrix_points(&points, &opts.clone().resuming(true))
            .expect("resume run");
        assert_eq!(builds.load(Ordering::Relaxed), 1, "ok point must not re-simulate");
        assert_eq!(second[0].status, PointStatus::Resumed);
        assert!(second[0].is_ok());
        assert_eq!(second[0].result.instructions, first[0].result.instructions);
        assert_eq!(second[0].result.cycles, first[0].result.cycles);
        assert!(!second[1].is_ok(), "failed point must re-run on resume");
        // The resumed manifest is complete and carries the reused line.
        let text = std::fs::read_to_string(&path).expect("manifest");
        assert_eq!(text.lines().count(), 2);

        // A changed config invalidates the hash: the point re-runs even
        // though workload and label match.
        let changed = vec![
            MatrixPoint::new(w, {
                let builds = Arc::clone(&builds);
                SystemSpec::custom("counted", "a different config repr", move |_| {
                    builds.fetch_add(1, Ordering::Relaxed);
                    Box::new(simcore::BaselineHierarchy::new(&simcore::SystemConfig::baseline(1)))
                })
            }),
            MatrixPoint::new(w, panicking_spec("r")),
        ];
        let third = tiny_runner()
            .run_matrix_points(&changed, &opts.clone().resuming(true))
            .expect("resume with changed config");
        assert_eq!(builds.load(Ordering::Relaxed), 2, "config-hash mismatch must force a re-run");
        assert_eq!(third[0].status, PointStatus::Ok);
        let _ = std::fs::remove_file(&path);
    }

    /// Tentpole (ISSUE 9): a checkpointed sweep — warmup forking plus
    /// periodic mid-measurement snapshots — emits a byte-identical
    /// manifest, persists its fork points for later invocations, and
    /// regenerates corrupt checkpoints instead of trusting them.
    #[test]
    fn checkpointed_sweep_is_bit_identical_and_survives_corruption() {
        let state = std::env::temp_dir().join("sdclp-matrix-test").join("ckpt-state");
        let _ = std::fs::remove_dir_all(&state);
        let pinned_path = temp_manifest("ckpt-pinned.jsonl");
        let forked_path = temp_manifest("ckpt-forked.jsonl");
        let points = cross(
            &[
                Workload::new(Kernel::Pr, GraphInput::Kron),
                Workload::new(Kernel::Cc, GraphInput::Urand),
            ],
            &[SystemKind::Baseline, SystemKind::SdcLp],
        );

        let pinned = tiny_runner()
            .run_matrix_with(&points, &MatrixOptions::quiet().with_manifest(&pinned_path))
            .expect("pinned sweep");

        // Cold checkpointed run: creates the post-warmup fork points.
        let opts = MatrixOptions::quiet()
            .with_manifest(&forked_path)
            .with_state_dir(&state)
            .forking_warmup(true)
            .snapshotting_every(2_000);
        let cold = tiny_runner().run_matrix_with(&points, &opts).expect("cold checkpointed sweep");
        for (a, b) in pinned.iter().zip(&cold) {
            assert_eq!(a.result, b.result, "checkpointing must not perturb results");
        }
        assert_eq!(
            std::fs::read(&pinned_path).expect("pinned manifest"),
            std::fs::read(&forked_path).expect("forked manifest"),
            "checkpointed manifest diverged from the pinned run"
        );
        // Fork points persisted; no recovery snapshots or tmp litter left
        // (a completed point removes its own mid-measurement snapshot, and
        // the sweep flushes its store's writer before returning; the reap
        // is off).
        let names: Vec<String> = std::fs::read_dir(&state)
            .expect("state dir")
            .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names.iter().filter(|n| n.starts_with("warm_")).count(), points.len());
        assert_eq!(simstate::CheckpointStore::new(&state).warm_forks(), points.len());
        assert!(names.iter().all(|n| n.ends_with(".sstate")), "litter in state dir: {names:?}");
        assert!(!names.iter().any(|n| n.starts_with("mid_")), "stale snapshots: {names:?}");

        // Warm re-run forks from the persisted checkpoints — still
        // byte-identical to the pinned run.
        let warm = tiny_runner().run_matrix_with(&points, &opts).expect("warm sweep");
        for (a, b) in pinned.iter().zip(&warm) {
            assert_eq!(a.result, b.result, "warmup fork must not perturb results");
        }
        assert_eq!(
            std::fs::read(&pinned_path).expect("pinned manifest"),
            std::fs::read(&forked_path).expect("forked manifest"),
        );

        // Corrupt every checkpoint (truncate mid-payload): the sweep must
        // discard, regenerate, and still match — never trust, never panic.
        for name in &names {
            let p = state.join(name);
            let bytes = std::fs::read(&p).expect("checkpoint");
            std::fs::write(&p, &bytes[..bytes.len() / 2]).expect("truncate");
        }
        let healed =
            tiny_runner().run_matrix_with(&points, &opts).expect("sweep despite corruption");
        for (a, b) in pinned.iter().zip(&healed) {
            assert_eq!(a.result, b.result, "corrupt checkpoints must be regenerated");
        }
        // And the regenerated fork points decode cleanly again.
        for name in &names {
            let f = std::fs::File::open(state.join(name)).expect("open");
            simstate::read_snapshot(f).expect("regenerated checkpoint decodes");
        }
        let _ = std::fs::remove_file(&pinned_path);
        let _ = std::fs::remove_file(&forked_path);
        let _ = std::fs::remove_dir_all(&state);
    }

    /// Satellite (ISSUE 9): the resume identity includes the trace
    /// checksum — a record whose trace no longer matches must re-run, not
    /// be silently reused.
    #[test]
    fn resume_reruns_points_whose_trace_checksum_changed() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let path = temp_manifest("trace-identity.jsonl");
        let _ = std::fs::remove_file(&path);
        let w = Workload::new(Kernel::Pr, GraphInput::Kron);
        let builds = Arc::new(AtomicUsize::new(0));
        let spec = {
            let builds = Arc::clone(&builds);
            let cfg = simcore::SystemConfig::baseline(1);
            SystemSpec::custom("counted", format!("{cfg:?}"), move |_| {
                builds.fetch_add(1, Ordering::Relaxed);
                Box::new(simcore::BaselineHierarchy::new(&cfg))
            })
        };
        let points = vec![MatrixPoint::new(w, spec)];
        let opts = MatrixOptions::quiet().with_manifest(&path);
        tiny_runner().run_matrix_points(&points, &opts).expect("first run");
        assert_eq!(builds.load(Ordering::Relaxed), 1);

        // Unchanged trace: the record is reused.
        let second = tiny_runner()
            .run_matrix_points(&points, &opts.clone().resuming(true))
            .expect("resume run");
        assert_eq!(second[0].status, PointStatus::Resumed);
        assert_eq!(builds.load(Ordering::Relaxed), 1);

        // Tamper with the recorded trace_checksum — the on-disk stand-in
        // for a regenerated trace. The record must not be reused.
        let text = std::fs::read_to_string(&path).expect("manifest");
        let tampered = text.replace("\"trace_checksum\":\"", "\"trace_checksum\":\"f00d");
        assert_ne!(text, tampered, "manifest must carry a trace_checksum field");
        std::fs::write(&path, tampered).expect("rewrite");
        let third = tiny_runner()
            .run_matrix_points(&points, &opts.clone().resuming(true))
            .expect("resume with changed trace identity");
        assert_eq!(third[0].status, PointStatus::Ok, "changed trace identity must re-run");
        assert_eq!(builds.load(Ordering::Relaxed), 2);
        let _ = std::fs::remove_file(&path);
    }

    /// Resume also works from a `.partial` prefix left by a killed run.
    #[test]
    fn resume_consumes_partial_prefix() {
        let path = temp_manifest("partial-resume.jsonl");
        let _ = std::fs::remove_file(&path);
        let w = Workload::new(Kernel::Bfs, GraphInput::Kron);
        let points = vec![(w, SystemKind::Baseline), (w, SystemKind::SdcLp)];
        let opts = MatrixOptions::quiet().with_manifest(&path);
        let r = tiny_runner();
        let recs = r.run_matrix_with(&points, &opts).expect("first run");
        assert_eq!(recs.len(), 2);

        // Simulate a kill: keep only the first line, as a .partial file.
        let text = std::fs::read_to_string(&path).expect("manifest");
        let first_line = text.lines().next().expect("line").to_string();
        let partial = crate::manifest::partial_path(&path);
        std::fs::write(&partial, format!("{first_line}\n")).expect("write partial");
        std::fs::remove_file(&path).expect("drop final");

        let second = tiny_runner()
            .run_matrix_with(&points, &opts.clone().resuming(true))
            .expect("resume from partial");
        assert_eq!(second[0].status, PointStatus::Resumed);
        assert_eq!(second[1].status, PointStatus::Ok, "missing point must re-run");
        assert_eq!(second[1].result, recs[1].result);
        // The resumed run publishes a complete manifest again.
        let text = std::fs::read_to_string(&path).expect("manifest republished");
        assert_eq!(text.lines().count(), 2);
        assert!(!partial.exists());
        let _ = std::fs::remove_file(&path);
    }
}
