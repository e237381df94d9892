//! `mix4-medium`: seeded 4-core mixes through `MulticoreRunner::run_mix` on
//! Baseline and SDC+LP. The same replay code runs through the multicore
//! engine with a shared LLC and DRAM and SDCDir coherence, where DRAM
//! queueing and coherence matter.

use crate::common::{
    build_inputs, component_probe, matrix_probe, record_traces, replay_layer_metrics, replay_point,
    state_probe, Ctx,
};
use crate::report::{fingerprint, shuffle, simulated_counts, stall_cpi, Outcome};
use gpgraph::{GraphInput, SuiteScale};
use gpworkloads::{
    all_workloads, build_multicore, cross, Mix, MulticoreRunner, Runner, SystemKind, Workload,
    MIX_WIDTH,
};
use simcore::{geomean, CompactTrace, MulticoreEngine, SimResult, SystemConfig, Window};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

const SYSTEMS: [SystemKind; 2] = [SystemKind::Baseline, SystemKind::SdcLp];

/// One timed point: a mix on one design.
struct MixRun {
    mix: usize,
    kind: SystemKind,
    results: Vec<SimResult>,
}

pub fn run(ctx: &Ctx) -> Outcome {
    // A 0.25M+1M window per core keeps a pass near 18 s on one thread.
    let (scale, window) = if ctx.smoke {
        (SuiteScale::Tiny, Window::new(10_000, 40_000))
    } else {
        (SuiteScale::Medium, Window::new(250_000, 1_000_000))
    };
    let mut out = Outcome::default();

    let setup = Instant::now();
    let runner = Runner::new(scale, window);
    let mixes = balanced_mixes(ctx.seed);
    build_inputs(&runner, &GraphInput::ALL, ctx, &mut out);
    record_traces(&runner, &all_workloads(), ctx, &mut out);
    out.setup = Some((setup, Instant::now()));

    let timed = Instant::now();
    let mut passes: Vec<Vec<MixRun>> = Vec::new();
    let mut weighted: Vec<[f64; 2]> = Vec::new();
    loop {
        // A fresh runner per pass: isolated IPCs are memoized inside it.
        let mc = MulticoreRunner::new(&runner);
        let mut singles_run = BTreeSet::new();
        let mut runs = Vec::new();
        weighted.clear();
        for (m, mix) in mixes.iter().enumerate() {
            let mut w = [0.0; 2];
            for (s, &kind) in SYSTEMS.iter().enumerate() {
                ctx.pace.sample();
                let t = Instant::now();
                let results =
                    ctx.spans.run("gpworkloads", "MulticoreRunner::run_mix", m as u64, || {
                        mc.run_mix(mix, kind)
                    });
                out.points.push(t.elapsed().as_secs_f64() * 1e3);
                for (thread, r) in mix.iter().zip(&results) {
                    let single = ctx.spans.run(
                        "gpworkloads",
                        "MulticoreRunner::single_ipc",
                        m as u64,
                        || mc.single_ipc(*thread, kind),
                    );
                    if singles_run.insert((*thread, kind)) {
                        out.delivered_instr += window.total();
                    }
                    w[s] += if single > 0.0 { r.ipc() / single } else { 0.0 };
                }
                runs.push(MixRun { mix: m, kind, results });
            }
            weighted.push(w);
        }
        ctx.pace.sample();
        passes.push(runs);
        if timed.elapsed().as_secs_f64() >= ctx.seconds {
            break;
        }
    }
    out.timed.push((timed, Instant::now()));
    out.passes = passes.len() as u64;

    let first = &passes[0];
    for runs in &passes {
        for (run, base) in runs.iter().zip(first) {
            out.attempted += 1;
            let full = run.results.iter().all(|r| r.instructions >= window.measure);
            let good = full && run.results.len() == MIX_WIDTH && run.results == base.results;
            if out.check(good, || {
                format!("mix {} on {}: short window or differs between passes", run.mix, run.kind)
            }) {
                out.delivered_instr +=
                    run.results.iter().map(|r| window.warmup + r.instructions).sum::<u64>();
            }
        }
    }
    let again = MulticoreRunner::new(&runner).run_mix(&mixes[0], SYSTEMS[0]);
    out.check(again == first[0].results, || "mix 0: a second run_mix differs".to_string());

    out.sdclp_speedup = geomean(&weighted.iter().map(|w| w[1] / w[0]).collect::<Vec<_>>());
    out.fingerprint = fingerprint(
        first
            .iter()
            .map(|r| {
                (format!("{}|{}", mix_name(&mixes[r.mix]), r.kind), format!("{:?}", r.results))
            })
            .collect(),
    );

    if ctx.spans.on() {
        attribute(&runner, &mixes[0], &first[..SYSTEMS.len()], ctx, &mut out);
        let all: Vec<_> = first.iter().flat_map(|r| &r.results).collect();
        let sdc: Vec<_> =
            first.iter().filter(|r| r.kind == SystemKind::SdcLp).flat_map(|r| &r.results).collect();
        simulated_counts(&mut out, &all, &sdc);

        let probe = cross(&mixes[0][..2], &SYSTEMS);
        let t = Instant::now();
        for (i, &(w, kind)) in probe.iter().enumerate() {
            replay_point(&runner, w, kind, ctx.spans, i as u64);
        }
        matrix_probe(&runner, &probe, t.elapsed().as_secs_f64(), ctx, &mut out);
        component_probe(&runner.trace(mixes[0][0]), ctx, &mut out);
        state_probe(&runner, mixes[0][0], SystemKind::SdcLp, ctx, &mut out);
    }
    out
}

/// 18 seeded mixes in which each of the 36 workloads fills exactly two
/// of the 72 thread slots. The seed chooses which workloads share a mix;
/// the pass's total work does not depend on it. (Mixes sampled with
/// replacement, as `generate_mixes` draws them, vary so much in host cost
/// that sim_mips spread 26% across seeds.)
fn balanced_mixes(seed: u64) -> Vec<Mix> {
    let mut slots: Vec<Workload> = all_workloads().into_iter().flat_map(|w| [w, w]).collect();
    shuffle(&mut slots, seed);
    slots.chunks_exact(MIX_WIDTH).map(|c| std::array::from_fn(|i| c[i])).collect()
}

fn mix_name(mix: &Mix) -> String {
    mix.iter().map(|w| w.name()).collect::<Vec<_>>().join("+")
}

/// Attribution on the first mix: the multicore engine driven through its
/// public calls, plainly and with a telemetry collector; both must match
/// the timed `run_mix` results.
fn attribute(runner: &Runner, mix: &Mix, timed: &[MixRun], ctx: &Ctx, out: &mut Outcome) {
    let traces: Vec<Arc<CompactTrace>> = mix.iter().map(|&w| runner.trace(w)).collect();
    let refs: Vec<&CompactTrace> = traces.iter().map(|t| t.as_ref()).collect();
    // Disjoint per-core address spaces, as `run_mix` lays them out.
    let offsets: Vec<u64> = (0..MIX_WIDTH as u64).map(|c| c << 40).collect();
    let kernels: Vec<_> = mix.iter().map(|w| w.kernel).collect();
    let core = SystemConfig::baseline(1).core;
    let cfg = simtel::TelemetryConfig { event_capacity: 0, ..Default::default() };
    let engine = |kind| {
        ctx.spans.run("simcore", "build_multicore", 0, || {
            let (cores, backend) = build_multicore(kind, &kernels, MIX_WIDTH, &runner.sdclp);
            MulticoreEngine::new(cores, backend, runner.window)
        })
    };
    let mut plain_s = 0.0;
    let mut tel_s = 0.0;
    let mut intervals = Vec::new();
    for run in timed {
        let e = engine(run.kind);
        let t = Instant::now();
        let plain = ctx.spans.run("simcore", "MulticoreEngine::run_with_offsets", 0, || {
            e.run_with_offsets(&refs, &offsets, core.width, core.rob_entries)
        });
        plain_s += t.elapsed().as_secs_f64();
        out.check(plain == run.results, || format!("mix 0 on {}: plain replay differs", run.kind));

        let mut e = engine(run.kind);
        let tel = simtel::TelemetryHandle::collector(&cfg);
        e.attach_telemetry(tel.clone());
        let t = Instant::now();
        let traced = ctx.spans.run("simtel", "MulticoreEngine::run_with_offsets", 0, || {
            e.run_with_offsets(&refs, &offsets, core.width, core.rob_entries)
        });
        tel_s += t.elapsed().as_secs_f64();
        out.check(traced == run.results, || format!("mix 0 on {}: telemetry changed it", run.kind));
        let output = tel.take_output().unwrap_or_default();
        intervals.extend(output.intervals.into_iter().filter(|iv| iv.core != simtel::SHARED_CORE));
    }
    let events: usize = refs.iter().map(|t| t.len()).sum::<usize>() * timed.len();
    replay_layer_metrics(ctx, out, events, timed.len());
    out.set("simtel.overhead_frac", tel_s / plain_s.max(1e-9) - 1.0);
    stall_cpi(out, &intervals);
}
