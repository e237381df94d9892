//! Set-up steps and per-layer probes shared by the workloads.

use crate::pace::Pace;
use crate::report::{median, stall_cpi, Outcome};
use crate::spans::Spans;
use gpgraph::GraphInput;
use gpworkloads::{build_system, MatrixOptions, Runner, SystemKind, Workload};
use simcore::cache::{Cache, LookupResult};
use simcore::dram::Dram;
use simcore::hierarchy::MemorySystem;
use simcore::replacement::ReplCtx;
use simcore::{CompactTrace, Engine, SimResult, SystemConfig};
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

/// What every workload receives from the command line.
pub struct Ctx<'a> {
    pub seed: u64,
    /// Minimum host seconds of the timed phase.
    pub seconds: f64,
    /// Tiny scale and short windows, for the smoke test.
    pub smoke: bool,
    pub spans: &'a Spans,
    pub pace: &'a Pace,
    /// Scratch directory of this run (manifests, checkpoints, socket).
    pub workdir: PathBuf,
}

/// Repetitions of each isolated probe; the median is reported.
const PROBE_REPS: usize = 5;

/// Memory references the isolated component probes replay.
const PROBE_REFS: usize = 1 << 20;

/// Build (and cache in `runner`) the kernel input of every graph.
pub fn build_inputs(runner: &Runner, graphs: &[GraphInput], ctx: &Ctx, out: &mut Outcome) {
    let mut edges = 0usize;
    ctx.pace.sample();
    for (i, &g) in graphs.iter().enumerate() {
        let input = ctx.spans.run("gpgraph", "Runner::input", i as u64, || runner.input(g));
        edges += input.num_edges();
        ctx.pace.sample();
    }
    out.set("gpgraph.edges", edges as f64);
    out.set("gpgraph.build_s", ctx.spans.total("gpgraph", "Runner::input"));
}

/// Record (and cache in `runner`) the trace of every workload.
pub fn record_traces(runner: &Runner, workloads: &[Workload], ctx: &Ctx, out: &mut Outcome) {
    let mut events = 0usize;
    let mut bytes = 0usize;
    for (i, &w) in workloads.iter().enumerate() {
        let trace = ctx.spans.run("gpkernels", "Runner::trace", i as u64, || runner.trace(w));
        events += trace.len();
        bytes += trace.footprint_bytes();
        if i % 4 == 3 {
            ctx.pace.sample();
        }
    }
    ctx.pace.sample();
    out.set("gpkernels.trace_events", events as f64);
    out.set("gpkernels.trace_mib", bytes as f64 / (1024.0 * 1024.0));
    out.set("gpkernels.record_s", ctx.spans.total("gpkernels", "Runner::trace"));
}

/// One point replayed through the public calls `Runner::run_one` makes,
/// with a span around each.
pub fn replay_point(
    runner: &Runner,
    w: Workload,
    kind: SystemKind,
    spans: &Spans,
    request: u64,
) -> (SimResult, usize) {
    let trace = runner.trace(w);
    let mut engine = spans.run("simcore", "build_system", request, || {
        let sys: Box<dyn MemorySystem + Send> = build_system(kind, w.kernel, &runner.sdclp);
        let core = SystemConfig::baseline(1).core;
        Engine::new(sys, core.width, core.rob_entries, runner.window)
    });
    spans.run("simcore", "Engine::replay", request, || engine.replay(&trace));
    let result = spans.run("simcore", "Engine::finish", request, || engine.finish());
    (result, trace.len())
}

/// Replay cost per trace event and mean system build time, from the
/// replay spans recorded so far over `events` replayed events.
pub fn replay_layer_metrics(ctx: &Ctx, out: &mut Outcome, events: usize, points: usize) {
    let replay_s = ctx.spans.total("simcore", "Engine::replay")
        + ctx.spans.total("simcore", "MulticoreEngine::run_with_offsets");
    out.set("simcore.replay_s", replay_s);
    out.set("simcore.replay_ns_per_event", replay_s * 1e9 / events.max(1) as f64);
    let build_s =
        ctx.spans.total("simcore", "build_system") + ctx.spans.total("simcore", "build_multicore");
    out.set("simcore.system_build_ms", build_s * 1e3 / points.max(1) as f64);
}

fn timed_median(reps: usize, mut f: impl FnMut() -> f64) -> f64 {
    let v: Vec<f64> = (0..reps).map(|_| f()).collect();
    median(&v)
}

/// Isolated host cost of the L1D cache, the DRAM model and the large
/// predictor, driven with `trace`'s own memory references.
pub fn component_probe(trace: &CompactTrace, ctx: &Ctx, out: &mut Outcome) {
    let refs: Vec<_> = trace
        .events
        .iter()
        .filter(|e| e.is_mem())
        .take(PROBE_REFS)
        .map(|e| e.as_mem_ref())
        .collect();
    let cfg = SystemConfig::baseline(1);
    let n = refs.len().max(1) as f64;

    let mut misses: Vec<(u64, bool)> = Vec::new();
    let cache_ns = timed_median(PROBE_REPS, || {
        ctx.spans.run("simcore", "Cache::access", 0, || {
            let mut cache = Cache::new(&cfg.l1d);
            misses.clear();
            let t = Instant::now();
            for r in &refs {
                let block = simcore::block::block_of(r.addr);
                let cx = ReplCtx { next_use: r.next_use, pos: 0, sid: r.sid };
                if let LookupResult::Miss = cache.access(r.addr, block, r.is_write, cx) {
                    black_box(cache.fill(r.addr, block, r.is_write, false, cx));
                    misses.push((block, r.is_write));
                }
            }
            t.elapsed().as_secs_f64() * 1e9 / n
        })
    });
    out.set("simcore.cache_access_ns", cache_ns);

    let dram_ns = timed_median(PROBE_REPS, || {
        ctx.spans.run("simcore", "Dram::access", 0, || {
            let mut dram = Dram::new(&cfg.dram);
            let t = Instant::now();
            for (i, &(block, is_write)) in misses.iter().enumerate() {
                black_box(dram.access(block, is_write, i as u64 * 8));
            }
            t.elapsed().as_secs_f64() * 1e9 / misses.len().max(1) as f64
        })
    });
    out.set("simcore.dram_access_ns", dram_ns);

    let lp_ns = timed_median(PROBE_REPS, || {
        ctx.spans.run("sdclp", "LargePredictor::predict_and_train", 0, || {
            let mut lp = sdclp::LargePredictor::new(sdclp::SdcLpConfig::table1().lp);
            let t = Instant::now();
            for r in &refs {
                black_box(lp.predict_and_train(u64::from(r.pc), simcore::block::block_of(r.addr)));
            }
            t.elapsed().as_secs_f64() * 1e9 / n
        })
    });
    out.set("sdclp.lp_predict_ns", lp_ns);
}

/// Snapshot and restore cost of an engine that has replayed `w` on
/// `kind`, in memory and through a checkpoint store. A restore that does
/// not reproduce the snapshot bytes fails an output check.
pub fn state_probe(runner: &Runner, w: Workload, kind: SystemKind, ctx: &Ctx, out: &mut Outcome) {
    let trace = runner.trace(w);
    let core = SystemConfig::baseline(1).core;
    let engine_for = || {
        Engine::new(
            build_system(kind, w.kernel, &runner.sdclp),
            core.width,
            core.rob_entries,
            runner.window,
        )
    };
    let mut engine = engine_for();
    engine.replay(&trace);
    let snap = engine.snapshot();
    out.set("simstate.snapshot_kib", snap.len() as f64 / 1024.0);

    let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
    let snapshot_ms = timed_median(PROBE_REPS, || {
        let t = Instant::now();
        black_box(ctx.spans.run("simstate", "Engine::snapshot", 0, || engine.snapshot()));
        ms(t)
    });
    out.set("simstate.snapshot_ms", snapshot_ms);

    let mut restored_ok = true;
    let restore_ms = timed_median(PROBE_REPS, || {
        let mut fresh = engine_for();
        let t = Instant::now();
        let r = ctx.spans.run("simstate", "Engine::restore", 0, || fresh.restore(&snap));
        let elapsed = ms(t);
        restored_ok &= r.is_ok() && fresh.snapshot() == snap;
        elapsed
    });
    out.check(restored_ok, || format!("restore of {w} on {kind} did not reproduce its snapshot"));
    out.set("simstate.restore_ms", restore_ms);

    let store = simstate::CheckpointStore::new(ctx.workdir.join("probe-state"));
    let sealed = simstate::Snapshot {
        config_hash: 1,
        trace_checksum: simcore::trace_io::trace_checksum(&trace),
        trace_pos: trace.len() as u64,
        payload: snap.clone(),
    };
    let mut stored_ok = true;
    let save_ms = timed_median(PROBE_REPS, || {
        let t = Instant::now();
        let r =
            ctx.spans.run("simstate", "CheckpointStore::save", 0, || store.save("probe", &sealed));
        stored_ok &= r.is_ok();
        ms(t)
    });
    let load_ms = timed_median(PROBE_REPS, || {
        let t = Instant::now();
        let r = ctx.spans.run("simstate", "CheckpointStore::load", 0, || {
            store.load("probe", sealed.config_hash, sealed.trace_checksum)
        });
        stored_ok &= matches!(r, Ok(Some(ref s)) if s.payload == snap);
        ms(t)
    });
    out.check(stored_ok, || "checkpoint store did not return the saved snapshot".to_string());
    out.set("simstate.store_save_ms", save_ms);
    out.set("simstate.store_load_ms", load_ms);
}

/// Telemetry cost and stall attribution on `points`: each point is
/// replayed plainly and with a collector attached; the two results must be
/// identical. Returns the plain replay seconds and the results.
pub fn telemetry_probe(
    runner: &Runner,
    points: &[(Workload, SystemKind)],
    ctx: &Ctx,
    out: &mut Outcome,
) -> (f64, Vec<(SystemKind, SimResult)>) {
    let cfg = simtel::TelemetryConfig { event_capacity: 0, ..Default::default() };
    let mut plain_s = 0.0;
    let mut tel_s = 0.0;
    let mut intervals = Vec::new();
    let mut results = Vec::new();
    for (i, &(w, kind)) in points.iter().enumerate() {
        let t = Instant::now();
        let (plain, _) = replay_point(runner, w, kind, ctx.spans, i as u64);
        plain_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let (traced, tel) =
            ctx.spans.run("simtel", "Runner::run_one_with_telemetry", i as u64, || {
                runner.run_one_with_telemetry(w, kind, &cfg)
            });
        tel_s += t.elapsed().as_secs_f64();
        out.check(plain == traced, || format!("telemetry changed the result of {w} on {kind}"));
        intervals.extend(tel.intervals);
        results.push((kind, plain));
    }
    out.set("simtel.overhead_frac", tel_s / plain_s.max(1e-9) - 1.0);
    stall_cpi(out, &intervals);
    (plain_s, results)
}

/// Executor overhead on `points`: `run_matrix_with` (one thread, manifest
/// on) against the plain replay loop that took `plain_s` seconds.
pub fn matrix_probe(
    runner: &Runner,
    points: &[(Workload, SystemKind)],
    plain_s: f64,
    ctx: &Ctx,
    out: &mut Outcome,
) {
    let manifest = ctx.workdir.join("probe-manifest.jsonl");
    let opts = matrix_options(manifest.clone());
    let t = Instant::now();
    let records = ctx
        .spans
        .run("gpworkloads", "Runner::run_matrix_with", 0, || runner.run_matrix_with(points, &opts));
    let matrix_s = t.elapsed().as_secs_f64();
    out.check(records.as_ref().is_ok_and(|r| r.iter().all(|r| r.is_ok())), || {
        "probe matrix did not complete".to_string()
    });
    out.set("gpworkloads.matrix_overhead_frac", matrix_s / plain_s.max(1e-9) - 1.0);
    out.set("gpworkloads.manifest_bytes", file_len(&manifest));
}

/// The executor options of the batch workloads: harness defaults (the
/// watchdog, wall-clock stamps), a manifest, no progress lines, and no
/// eviction, since traces stay cached across passes.
pub fn matrix_options(manifest: PathBuf) -> MatrixOptions {
    MatrixOptions {
        manifest_path: Some(manifest),
        progress: false,
        evict: false,
        reap_stale: false,
        ..MatrixOptions::harness()
    }
}

pub fn file_len(path: &std::path::Path) -> f64 {
    std::fs::metadata(path).map_or(0.0, |m| m.len() as f64)
}
