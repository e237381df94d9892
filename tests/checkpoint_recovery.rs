//! Crash-consistent sweep recovery acceptance tests (ISSUE 9).
//!
//! Three scenarios the tentpole promises:
//!
//! 1. Restore-then-run is bit-identical to an uninterrupted run for every
//!    Fig. 7 single-core system: snapshot an engine mid-window, restore
//!    the payload into a freshly built engine, finish both, and the final
//!    machine state (full `snapshot()` bytes) and results must match.
//! 2. The same property for 4-core machines via `MulticoreRun`.
//! 3. A sweep that crashes mid-measurement — leaving a stale mid-point
//!    engine snapshot and a `.partial` manifest killed mid-line — resumes
//!    to a final manifest byte-identical to an uninterrupted sweep, and
//!    provably reuses the snapshot (the recovered point replays strictly
//!    fewer memory accesses than a cold run).

use gpworkloads::{
    build_multicore, build_system, MatrixOptions, MatrixPoint, PointStatus, Runner, SystemKind,
    SystemSpec, Workload,
};
use simcore::hierarchy::{AccessOutcome, MemorySystem};
use simcore::stats::HierStats;
use simcore::{
    BaselineHierarchy, CompactTrace, Engine, MemRef, MulticoreEngine, SystemConfig, Window,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn tiny_runner() -> Runner {
    Runner::new(gpgraph::SuiteScale::Tiny, Window::new(20_000, 80_000))
}

type DynSystem = Box<dyn MemorySystem + Send>;

/// Run `sys` over `trace` to completion and return (final machine state,
/// result) — the golden reference a restored engine must reproduce.
fn run_straight(
    sys: DynSystem,
    trace: &CompactTrace,
    window: Window,
) -> (Vec<u8>, simcore::SimResult) {
    let core = SystemConfig::baseline(1).core;
    let mut engine = Engine::new(sys, core.width, core.rob_entries, window);
    engine.replay(trace);
    let state = engine.snapshot();
    (state, engine.finish())
}

/// Fig. 7 single-core systems: run a third of the trace, snapshot, restore
/// into a fresh engine, finish — must be bit-identical to the straight run.
#[test]
fn restore_then_run_is_bit_identical_for_all_fig7_systems() {
    let runner = tiny_runner();
    let w = Workload::new(gpkernels::Kernel::Pr, gpgraph::GraphInput::Kron);
    let trace = runner.trace(w);
    let core = SystemConfig::baseline(1).core;
    let cut = trace.events.len() / 3;
    assert!(cut > 0, "trace too short to split");

    for kind in SystemKind::FIG7 {
        let (want_state, want_result) =
            run_straight(build_system(kind, w.kernel, &runner.sdclp), &trace, runner.window);

        // Donor: replay a prefix, then photograph the machine.
        let sys = build_system(kind, w.kernel, &runner.sdclp);
        let mut donor = Engine::new(sys, core.width, core.rob_entries, runner.window);
        let pos = donor.replay_span(&trace, 0, cut);
        let payload = donor.snapshot();

        // Heir: a *freshly built* engine adopts the snapshot and finishes.
        let sys = build_system(kind, w.kernel, &runner.sdclp);
        let mut heir = Engine::new(sys, core.width, core.rob_entries, runner.window);
        heir.restore(&payload).unwrap_or_else(|e| panic!("{kind:?}: restore failed: {e}"));
        heir.replay_from(&trace, pos);

        assert_eq!(heir.snapshot(), want_state, "{kind:?}: final machine state diverged");
        assert_eq!(heir.finish(), want_result, "{kind:?}: results diverged");
    }
}

/// The 4-core machine: same snapshot/restore round-trip through
/// `MulticoreRun`, for both the baseline and the paper's SDC+LP system.
#[test]
fn restore_then_run_is_bit_identical_for_four_core_machines() {
    let runner = Runner::new(gpgraph::SuiteScale::Tiny, Window::new(5_000, 20_000));
    let w = Workload::new(gpkernels::Kernel::Cc, gpgraph::GraphInput::Urand);
    let trace = runner.trace(w);
    let traces: Vec<&CompactTrace> = vec![&trace; 4];
    let offsets: Vec<u64> = (0..4u64).map(|c| c << 30).collect();
    let core = SystemConfig::baseline(1).core;
    let kernels = vec![w.kernel; 4];

    for kind in [SystemKind::Baseline, SystemKind::SdcLp] {
        let start = |kind| {
            let (cores, backend) = build_multicore(kind, &kernels, 4, &runner.sdclp);
            MulticoreEngine::new(cores, backend, runner.window).start(
                &offsets,
                core.width,
                core.rob_entries,
            )
        };

        let mut reference = start(kind);
        reference.run_to_completion(&traces);
        let want_state = reference.snapshot();
        let want = reference.finish();

        let mut donor = start(kind);
        let still_running = donor.step_span(&traces, trace.events.len() as u64);
        assert!(still_running && !donor.done(), "{kind:?}: snapshot point must be mid-run");
        let payload = donor.snapshot();

        let mut heir = start(kind);
        heir.restore(&payload).unwrap_or_else(|e| panic!("{kind:?}: restore failed: {e}"));
        heir.run_to_completion(&traces);
        assert_eq!(heir.snapshot(), want_state, "{kind:?}: final machine state diverged");
        assert_eq!(heir.finish(), want, "{kind:?}: per-core results diverged");
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = simstate::Fnv1a::new();
    h.update(bytes);
    h.finish()
}

/// The `ENG_` and `MC__` state layouts carry no version of their own, so a
/// checkpoint already on disk restores correctly only while every field
/// keeps its place. These hashes pin the exact bytes of one
/// mid-measurement snapshot of each engine on SDC+LP. A deliberate layout
/// change must bump the `SSTATE` container version, then re-pin here.
#[test]
fn engine_and_multicore_snapshot_layouts_are_pinned() {
    let runner = tiny_runner();
    let w = Workload::new(gpkernels::Kernel::Pr, gpgraph::GraphInput::Kron);
    let trace = runner.trace(w);
    let core = SystemConfig::baseline(1).core;
    let sys = build_system(SystemKind::SdcLp, w.kernel, &runner.sdclp);
    let mut engine = Engine::new(sys, core.width, core.rob_entries, runner.window);
    engine.replay_span(&trace, 0, trace.events.len() / 2);
    assert!(engine.instructions() > runner.window.warmup, "snapshot must be mid-measurement");
    assert_eq!(fnv1a(&engine.snapshot()), 0x36ef283207fba882, "ENG_ snapshot bytes moved");

    let runner = Runner::new(gpgraph::SuiteScale::Tiny, Window::new(5_000, 20_000));
    let w = Workload::new(gpkernels::Kernel::Cc, gpgraph::GraphInput::Urand);
    let trace = runner.trace(w);
    let offsets: Vec<u64> = (0..4u64).map(|c| c << 30).collect();
    let (cores, backend) = build_multicore(SystemKind::SdcLp, &[w.kernel; 4], 4, &runner.sdclp);
    let mut run = MulticoreEngine::new(cores, backend, runner.window).start(
        &offsets,
        core.width,
        core.rob_entries,
    );
    // Each core runs one pass over its trace; two passes' worth of steps
    // over four cores leaves every core about halfway through.
    let traces: Vec<&CompactTrace> = vec![&trace; 4];
    assert!(run.step_span(&traces, 2 * trace.events.len() as u64), "must be mid-run");
    assert_eq!(fnv1a(&run.snapshot()), 0xefee5f69d7c13f8e, "MC__ snapshot bytes moved");
}

/// A baseline hierarchy that counts every access and optionally panics at
/// the N-th one — the deterministic stand-in for a process killed
/// mid-measurement. The counter is an observer, not machine state, so
/// save/load forward to the inner hierarchy only.
struct Counting {
    inner: BaselineHierarchy,
    accesses: Arc<AtomicU64>,
    panic_at: Option<u64>,
}

impl MemorySystem for Counting {
    fn access(&mut self, r: &MemRef, now: u64) -> AccessOutcome {
        let n = self.accesses.fetch_add(1, Ordering::Relaxed) + 1;
        if Some(n) == self.panic_at {
            panic!("injected crash at access {n}");
        }
        self.inner.access(r, now)
    }

    fn collect_stats(&self) -> HierStats {
        self.inner.collect_stats()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats();
    }

    fn save_state(&self, w: &mut simstate::StateSink) {
        self.inner.save_state(w);
    }

    fn load_state(&mut self, r: &mut simstate::StateSource) -> Result<(), simstate::StateError> {
        self.inner.load_state(r)
    }
}

/// A counting-baseline spec. Every call site uses the same label and
/// config repr, so the crashed run, the recovery run, and the reference
/// run all share one resume identity and one checkpoint class.
fn counting_spec(accesses: &Arc<AtomicU64>, panic_at: Option<u64>) -> SystemSpec {
    let accesses = Arc::clone(accesses);
    let cfg = SystemConfig::baseline(1);
    SystemSpec::custom("counted-baseline", format!("counting {cfg:?}"), move |_| {
        Box::new(Counting {
            inner: BaselineHierarchy::new(&cfg),
            accesses: Arc::clone(&accesses),
            panic_at,
        })
    })
}

fn sweep_points(accesses: &Arc<AtomicU64>, panic_at: Option<u64>) -> Vec<MatrixPoint> {
    let healthy = Workload::new(gpkernels::Kernel::Bfs, gpgraph::GraphInput::Kron);
    let crashy = Workload::new(gpkernels::Kernel::Pr, gpgraph::GraphInput::Urand);
    vec![
        MatrixPoint::new(healthy, SystemSpec::Kind(SystemKind::Baseline)),
        MatrixPoint::new(crashy, counting_spec(accesses, panic_at)),
    ]
}

fn state_files(dir: &Path, prefix: &str) -> Vec<PathBuf> {
    let Ok(entries) = std::fs::read_dir(dir) else { return Vec::new() };
    let mut files: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.file_name().and_then(|n| n.to_str()).is_some_and(|n| n.starts_with(prefix)))
        .collect();
    files.sort();
    files
}

#[test]
fn crashed_sweep_resumes_from_snapshot_to_byte_identical_manifest() {
    let dir = std::env::temp_dir().join("sdclp-checkpoint-recovery");
    let state = dir.join("state");
    let manifest = dir.join("sweep.jsonl");
    let reference_manifest = dir.join("reference.jsonl");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("test dir");

    // --- Reference: the uninterrupted sweep, and the full access count. --
    let full = Arc::new(AtomicU64::new(0));
    let points = sweep_points(&full, None);
    let opts = MatrixOptions::quiet().with_manifest(&reference_manifest);
    let want = tiny_runner().run_matrix_points(&points, &opts).expect("reference sweep");
    assert!(want.iter().all(|r| r.status == PointStatus::Ok));
    let full_count = full.load(Ordering::Relaxed);
    assert!(full_count > 10_000, "expected a real measurement window, got {full_count}");
    let reference_bytes = std::fs::read(&reference_manifest).expect("reference manifest");

    // --- Crash: die at the 3/4 mark, well past warmup, with several mid
    // snapshots already persisted (every ~5% of the trace). ---------------
    let crashy_trace =
        tiny_runner().trace(Workload::new(gpkernels::Kernel::Pr, gpgraph::GraphInput::Urand));
    let snapshot_every = (crashy_trace.events.len() / 20).max(1) as u64;
    let crash = Arc::new(AtomicU64::new(0));
    let points = sweep_points(&crash, Some(full_count * 3 / 4));
    let opts = MatrixOptions::quiet()
        .with_manifest(&manifest)
        .with_state_dir(&state)
        .forking_warmup(true)
        .snapshotting_every(snapshot_every);
    let crashed = tiny_runner().run_matrix_points(&points, &opts).expect("crashed sweep records");
    assert_eq!(crashed[0].status, PointStatus::Ok);
    assert!(
        matches!(&crashed[1].status, PointStatus::Failed { message } if message.contains("injected crash")),
        "expected the injected crash, got {:?}",
        crashed[1].status
    );
    // The aborted point leaves its mid-measurement snapshot behind — the
    // whole reason recovery has something to restore.
    assert_eq!(state_files(&state, "mid_").len(), 1, "crash must leave one mid snapshot");

    // Re-shape the filesystem into what a killed *process* leaves: no
    // final manifest, a .partial staging file cut mid-line.
    let text = std::fs::read_to_string(&manifest).expect("crashed manifest");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2);
    let partial = manifest.with_file_name("sweep.jsonl.partial");
    let truncated = &lines[1][..lines[1].len() / 2];
    std::fs::write(&partial, format!("{}\n{truncated}", lines[0])).expect("stage partial");
    std::fs::remove_file(&manifest).expect("kill final manifest");

    // --- Recover: resume the sweep with a healthy build. -----------------
    let recovery = Arc::new(AtomicU64::new(0));
    let points = sweep_points(&recovery, None);
    let records =
        tiny_runner().run_matrix_points(&points, &opts.clone().resuming(true)).expect("recovery");
    assert_eq!(records[0].status, PointStatus::Resumed, "intact partial line is reused");
    assert_eq!(records[1].status, PointStatus::Ok, "killed line re-runs");

    // The snapshot was genuinely used: the recovered point replayed only
    // the post-snapshot tail, not the whole window.
    let recovery_count = recovery.load(Ordering::Relaxed);
    assert!(recovery_count > 0, "recovered point must actually replay");
    assert!(
        recovery_count < full_count / 2,
        "recovery replayed {recovery_count} of {full_count} accesses — snapshot unused?"
    );
    // Its result is bit-identical to the uninterrupted run's.
    assert_eq!(records[1].result, want[1].result);

    // Completion cleans up the recovery snapshot and republishes a final
    // manifest byte-identical to the uninterrupted sweep's.
    assert!(state_files(&state, "mid_").is_empty(), "mid snapshot must be removed on completion");
    let healed_bytes = std::fs::read(&manifest).expect("healed manifest");
    assert_eq!(healed_bytes, reference_bytes, "healed manifest must be byte-identical");

    let _ = std::fs::remove_dir_all(&dir);
}
