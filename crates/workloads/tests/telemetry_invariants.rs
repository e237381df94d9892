//! CI telemetry invariants: a tiny telemetry-enabled sweep must produce
//! interval snapshots whose cycle spans are strictly monotone, whose
//! per-interval counter sums reconcile exactly with the end-of-window
//! stats, and whose Chrome trace-event export parses with the vendored
//! JSON parser — all without perturbing the simulation itself.

use gpgraph::{GraphInput, SuiteScale};
use gpkernels::Kernel;
use gpworkloads::{build_multicore, validate_json, Runner, SystemKind, Workload};
use simcore::{CompactTrace, MulticoreEngine, SystemConfig, Window};

fn tiny_runner() -> Runner {
    Runner::new(SuiteScale::Tiny, Window::new(20_000, 120_000))
}

fn sweep_points() -> Vec<(Workload, SystemKind)> {
    let workloads = [
        Workload::new(Kernel::Bfs, GraphInput::Kron),
        Workload::new(Kernel::Cc, GraphInput::Urand),
        Workload::new(Kernel::Pr, GraphInput::Web),
    ];
    let kinds = [SystemKind::Baseline, SystemKind::SdcLp];
    workloads.iter().flat_map(|&w| kinds.iter().map(move |&k| (w, k))).collect()
}

#[test]
fn telemetry_sweep_holds_all_invariants() {
    let runner = tiny_runner();
    let cfg = simtel::TelemetryConfig { interval_instructions: 10_000, ..Default::default() };

    for (w, kind) in sweep_points() {
        let point = format!("{} on {}", w.name(), kind.name());
        let plain = runner.run_one(w, kind);
        let (traced, out) = runner.run_one_with_telemetry(w, kind, &cfg);

        // Telemetry must observe, never perturb.
        assert_eq!(plain, traced, "{point}: telemetry changed the simulation");
        assert!(!out.intervals.is_empty(), "{point}: no intervals collected");

        // Interval cycle spans: strictly monotone, contiguous, indexed.
        for (i, iv) in out.intervals.iter().enumerate() {
            assert_eq!(iv.index, i as u64, "{point}: interval index gap");
            assert!(
                iv.end_cycle > iv.start_cycle,
                "{point}: interval {i} spans no cycles ({}..{})",
                iv.start_cycle,
                iv.end_cycle
            );
            if i > 0 {
                assert_eq!(
                    iv.start_cycle,
                    out.intervals[i - 1].end_cycle,
                    "{point}: interval {i} not contiguous"
                );
            }
        }

        // Per-interval counter sums reconcile exactly with the final stats.
        let sum = |f: &dyn Fn(&simtel::TelemetryInterval) -> u64| -> u64 {
            out.intervals.iter().map(f).sum()
        };
        let s = &traced.stats;
        assert_eq!(sum(&|iv| iv.instructions), traced.instructions, "{point}: instructions");
        assert_eq!(sum(&|iv| iv.l1d.accesses), s.l1d.accesses, "{point}: l1d accesses");
        assert_eq!(sum(&|iv| iv.l1d.misses), s.l1d.misses, "{point}: l1d misses");
        assert_eq!(sum(&|iv| iv.l1d.hits), s.l1d.hits, "{point}: l1d hits");
        assert_eq!(sum(&|iv| iv.l2c.misses), s.l2c.misses, "{point}: l2c misses");
        assert_eq!(sum(&|iv| iv.llc.misses), s.llc.misses, "{point}: llc misses");
        assert_eq!(sum(&|iv| iv.sdc.accesses), s.sdc.accesses, "{point}: sdc accesses");
        assert_eq!(sum(&|iv| iv.dram.reads), s.dram.reads, "{point}: dram reads");
        assert_eq!(sum(&|iv| iv.dram.row_hits), s.dram.row_hits, "{point}: dram row hits");
        assert_eq!(
            sum(&|iv| iv.dram.row_conflicts),
            s.dram.row_conflicts,
            "{point}: dram row conflicts"
        );
        assert_eq!(sum(&|iv| iv.sdc_bypasses), s.routed_to_sdc, "{point}: sdc bypasses");

        // Both exports stay parseable: every JSONL line is a flat record
        // and the Chrome trace is one nested document.
        let jsonl = simtel::export::intervals_jsonl(&out.intervals);
        assert_eq!(jsonl.lines().count(), out.intervals.len());
        for line in jsonl.lines() {
            validate_json(line).unwrap_or_else(|e| panic!("{point}: bad JSONL line: {e}"));
        }
        let trace = simtel::export::chrome_trace(&out);
        validate_json(&trace).unwrap_or_else(|e| panic!("{point}: bad Chrome trace: {e}"));
    }
}

#[test]
fn telemetry_timeline_renders_for_bfs_on_sdclp() {
    let runner = tiny_runner();
    let cfg = simtel::TelemetryConfig { interval_instructions: 20_000, ..Default::default() };
    let w = Workload::new(Kernel::Bfs, GraphInput::Kron);
    let (_, out) = runner.run_one_with_telemetry(w, SystemKind::SdcLp, &cfg);
    let ascii = simtel::render::ascii_timeline(&out.intervals);
    assert!(ascii.lines().count() > out.intervals.len(), "header + one row per interval");
    assert!(ascii.contains('#'), "bars must render");
    let csv = simtel::render::csv_timeline(&out.intervals);
    assert_eq!(csv.lines().count(), out.intervals.len() + 1, "header + rows");
}

/// FNV-1a of both exports, the JSONL intervals then the Chrome trace.
fn export_hash(out: &simtel::TelemetryOutput) -> u64 {
    let mut h = simstate::Fnv1a::new();
    h.update(simtel::export::intervals_jsonl(&out.intervals).as_bytes());
    h.update(simtel::export::chrome_trace(out).as_bytes());
    h.finish()
}

/// Pins the exact telemetry of one single-core and one 4-core run: the
/// interval cadence, the warmup boundary, the tail flush and event order
/// all show up in these bytes, which the end-of-window results alone do
/// not cover.
#[test]
fn telemetry_exports_are_pinned() {
    let runner = tiny_runner();
    let cfg = simtel::TelemetryConfig { interval_instructions: 10_000, ..Default::default() };
    let w = Workload::new(Kernel::Cc, GraphInput::Urand);
    let (_, out) = runner.run_one_with_telemetry(w, SystemKind::SdcLp, &cfg);
    assert_eq!(export_hash(&out), 0x20ca2feb173ec908, "single-core telemetry export moved");

    let mix = [
        Workload::new(Kernel::Bfs, GraphInput::Kron),
        Workload::new(Kernel::Cc, GraphInput::Urand),
        Workload::new(Kernel::Pr, GraphInput::Web),
        Workload::new(Kernel::Cc, GraphInput::Urand),
    ];
    let traces: Vec<_> = mix.iter().map(|&w| runner.trace(w)).collect();
    let refs: Vec<&CompactTrace> = traces.iter().map(|t| t.as_ref()).collect();
    let offsets: Vec<u64> = (0..4u64).map(|c| c << 40).collect();
    let kernels: Vec<_> = mix.iter().map(|w| w.kernel).collect();
    let (cores, backend) = build_multicore(SystemKind::SdcLp, &kernels, 4, &runner.sdclp);
    let mut engine = MulticoreEngine::new(cores, backend, runner.window);
    let tel = simtel::TelemetryHandle::collector(&cfg);
    engine.attach_telemetry(tel.clone());
    let core = SystemConfig::baseline(1).core;
    engine.run_with_offsets(&refs, &offsets, core.width, core.rob_entries);
    let out = tel.take_output().unwrap_or_default();
    assert!(out.intervals.iter().any(|iv| iv.core == 3), "every core emits intervals");
    assert_eq!(export_hash(&out), 0x90b811529c3b30f4, "4-core telemetry export moved");
}
