//! Replay of a packed trace whose events carry T-OPT hints is
//! bit-identical however the replay is cut: `replay_span` chunks that
//! start anywhere inside a 64-event rank block, snapshot restores at
//! arbitrary `trace_pos` values, and multicore wrap-around.

use gpworkloads::{build_system, Runner, SystemKind, Workload};
use simcore::hierarchy::{CoreSide, MemorySystem, SharedBackend};
use simcore::trace::{TraceEvent, Tracer};
use simcore::{CompactTrace, Engine, MulticoreEngine, SimResult, SystemConfig, Window};

fn pr_trace() -> (Runner, Workload, CompactTrace) {
    let runner = Runner::new(gpgraph::SuiteScale::Tiny, Window::new(20_000, 80_000));
    let w = Workload::new(gpkernels::Kernel::Pr, gpgraph::GraphInput::Kron);
    let trace = runner.trace(w).as_ref().clone();
    let hinted = trace.events.iter().filter(|e| e.is_mem() && e.next_use != u32::MAX).count();
    assert!(hinted > trace.len() / 10, "a pr trace is hint-heavy ({hinted} of {})", trace.len());
    (runner, w, trace)
}

type DynEngine = Engine<Box<dyn MemorySystem + Send>>;

fn engine(runner: &Runner, kind: SystemKind, w: Workload) -> DynEngine {
    let core = SystemConfig::baseline(1).core;
    Engine::new(
        build_system(kind, w.kernel, &runner.sdclp),
        core.width,
        core.rob_entries,
        runner.window,
    )
}

fn finish(e: DynEngine) -> (Vec<u8>, SimResult) {
    let state = e.snapshot();
    (state, e.finish())
}

#[test]
fn single_core_replay_is_bit_identical_across_spans_and_restores() {
    let (runner, w, trace) = pr_trace();
    for kind in [SystemKind::TOpt, SystemKind::SdcLp] {
        let mut straight = engine(&runner, kind, w);
        straight.replay(&trace);
        let want = finish(straight);

        for chunk in [1, 63, 64, 65, 1_000] {
            let mut e = engine(&runner, kind, w);
            let mut pos = 0;
            while pos < trace.len() && !e.done() {
                pos = e.replay_span(&trace, pos, chunk);
            }
            assert!(finish(e) == want, "{kind:?}: replay in {chunk}-event spans diverged");
        }

        for cut in [1, 63, 64, 65, 4_097, trace.len() / 3 + 17] {
            let mut donor = engine(&runner, kind, w);
            let pos = donor.replay_span(&trace, 0, cut);
            assert_eq!(pos, cut);
            let mut heir = engine(&runner, kind, w);
            heir.restore(&donor.snapshot()).expect("restore");
            heir.replay_from(&trace, pos);
            assert!(finish(heir) == want, "{kind:?}: restore at trace_pos {cut} diverged");
        }
    }
}

#[test]
fn multicore_wraparound_equals_replaying_an_unrolled_trace() {
    let (_, _, trace) = pr_trace();
    // A window three times the trace: every core wraps twice.
    let window = Window::new(trace.instructions, 2 * trace.instructions);
    let unrolled = CompactTrace {
        events: (0..4).flat_map(|_| trace.events.iter()).collect(),
        instructions: 4 * trace.instructions,
    };
    // T-OPT with every cache cut to 16 sets, so the Tiny footprint misses
    // the LLC and its replacement decisions read the hints.
    let mut cfg = SystemConfig::topt(2);
    for cache in [&mut cfg.l1d, &mut cfg.l2c, &mut cfg.llc] {
        cache.sets = 16;
    }
    let start = || {
        let cores = vec![CoreSide::new(&cfg), CoreSide::new(&cfg)];
        MulticoreEngine::new(cores, SharedBackend::new(&cfg), window).start(
            &[0, 1 << 36],
            cfg.core.width,
            cfg.core.rob_entries,
        )
    };
    let run = |t: &CompactTrace| {
        let mut run = start();
        run.run_to_completion(&[t, t]);
        run.finish()
    };
    let want = run(&unrolled);
    assert_eq!(run(&trace), want, "wrapped replay differs from the unrolled trace");
    let unhinted = CompactTrace {
        events: unrolled
            .events
            .iter()
            .map(|e| if e.is_mem() { TraceEvent { next_use: u32::MAX, ..e } } else { e })
            .collect(),
        instructions: unrolled.instructions,
    };
    assert_ne!(run(&unhinted), want, "the machine must read the hints for this test to bite");

    // Restore past a wrap, mid-rank-block, and finish.
    let traces = [&trace, &trace];
    let mut reference = start();
    reference.run_to_completion(&traces);
    let want_state = reference.snapshot();
    let mut donor = start();
    assert!(donor.step_span(&traces, 2 * trace.len() as u64 + 2 * 64 + 37));
    let mut heir = start();
    heir.restore(&donor.snapshot()).expect("restore");
    heir.run_to_completion(&traces);
    assert_eq!(heir.snapshot(), want_state, "restore after a wrap diverged");
    assert_eq!(heir.finish(), reference.finish());
}
