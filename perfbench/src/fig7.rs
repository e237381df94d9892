//! `fig7-medium`: a batch single-core Fig. 7 sweep at Medium scale, where
//! the property arrays exceed the LLC. Replay is nearly all of the timed
//! work, so the simulator's replay path shows here undiluted.

use crate::common::{
    build_inputs, component_probe, file_len, matrix_options, record_traces, replay_layer_metrics,
    replay_point, state_probe, telemetry_probe, Ctx,
};
use crate::report::{fingerprint, shuffle, simulated_counts, Outcome};
use gpgraph::{GraphInput, SuiteScale};
use gpkernels::Kernel;
use gpworkloads::{cross, RunRecord, Runner, SystemKind, Workload};
use simcore::{geomean, Window};
use std::collections::BTreeMap;
use std::time::Instant;

/// Three kernels with different access patterns (frontier, all-vertex
/// pull, priority-ordered relaxation) on all six graphs, across the six
/// Fig. 7 designs: 108 points.
const KERNELS: [Kernel; 3] = [Kernel::Bfs, Kernel::Pr, Kernel::Sssp];

pub fn run(ctx: &Ctx) -> Outcome {
    // A quarter of the default 2M+8M window keeps one pass of 108 points
    // near 17 s on one host thread while the scale keeps the paper's regime.
    let (scale, window) = if ctx.smoke {
        (SuiteScale::Tiny, Window::new(20_000, 80_000))
    } else {
        (SuiteScale::Medium, Window::new(500_000, 2_000_000))
    };
    let mut out = Outcome::default();
    let workloads: Vec<Workload> =
        KERNELS.iter().flat_map(|&k| GraphInput::ALL.map(|g| Workload::new(k, g))).collect();

    let setup = Instant::now();
    let runner = Runner::new(scale, window);
    build_inputs(&runner, &GraphInput::ALL, ctx, &mut out);
    record_traces(&runner, &workloads, ctx, &mut out);
    out.setup = Some((setup, Instant::now()));

    let mut points = cross(&workloads, &SystemKind::FIG7);
    shuffle(&mut points, ctx.seed);
    // One executor call per workload, in seeded order (the executor groups
    // a call's points by workload anyway), so the host-speed kernel can
    // run between calls on the executor's thread.
    let mut shards: Vec<Vec<(Workload, SystemKind)>> = Vec::new();
    for &(w, k) in &points {
        match shards.iter_mut().find(|s| s[0].0 == w) {
            Some(s) => s.push((w, k)),
            None => shards.push(vec![(w, k)]),
        }
    }
    let points = shards.concat();

    let timed = Instant::now();
    let mut passes: Vec<Vec<(RunRecord, Instant, Instant)>> = Vec::new();
    'passes: loop {
        let pass = passes.len();
        let mut records = Vec::with_capacity(points.len());
        for (i, shard) in shards.iter().enumerate() {
            ctx.pace.sample();
            let manifest = ctx.workdir.join(format!("fig7-pass{pass}-shard{i}.jsonl"));
            let t0 = Instant::now();
            let done = ctx.spans.run("gpworkloads", "Runner::run_matrix_with", i as u64, || {
                runner.run_matrix_with(shard, &matrix_options(manifest))
            });
            let t1 = Instant::now();
            match done {
                Ok(r) => records.extend(r.into_iter().map(|r| (r, t0, t1))),
                Err(e) => {
                    eprintln!("perfbench: fig7 sweep aborted: {e}");
                    out.attempted += points.len() as u64;
                    out.failed += points.len() as u64;
                    break 'passes;
                }
            }
        }
        ctx.pace.sample();
        passes.push(records);
        if timed.elapsed().as_secs_f64() >= ctx.seconds {
            break;
        }
    }
    out.timed.push((timed, Instant::now()));
    out.passes = passes.len() as u64;
    let Some(first) = passes.first() else { return out };
    let matrix_s: f64 = shards
        .iter()
        .map(|s| {
            first.iter().find(|r| r.0.workload == s[0].0).map_or(0.0, |r| (r.2 - r.1).as_secs_f64())
        })
        .sum();
    let first: Vec<&RunRecord> = first.iter().map(|r| &r.0).collect();

    for records in &passes {
        for ((rec, ..), (base, &(w, kind))) in records.iter().zip(first.iter().zip(&points)) {
            out.attempted += 1;
            out.points.push(rec.manifest.wall_seconds * 1e3);
            let good = rec.is_ok()
                && rec.result.instructions >= window.measure
                && rec.result == base.result;
            if out.check(good, || {
                format!("{w} on {kind}: {:?}, or differs between passes", rec.status)
            }) {
                out.delivered_instr += window.warmup + rec.result.instructions;
            }
        }
    }
    // A fresh sequential run of one point must match the executor's.
    let (w, kind) = points[0];
    let again = runner.run_one(w, kind);
    out.check(again == first[0].result, || {
        format!("{w} on {kind}: run_one differs from the matrix")
    });

    let ipc: BTreeMap<(Workload, SystemKind), f64> =
        first.iter().zip(&points).map(|(r, &p)| (p, r.result.ipc())).collect();
    let speedups: Vec<f64> = workloads
        .iter()
        .map(|&w| ipc[&(w, SystemKind::SdcLp)] / ipc[&(w, SystemKind::Baseline)])
        .collect();
    out.sdclp_speedup = geomean(&speedups);
    out.fingerprint = fingerprint(
        first
            .iter()
            .zip(&points)
            .map(|(r, (w, k))| (format!("{w}|{k}"), format!("{:?}", r.result)))
            .collect(),
    );
    let manifests = (0..shards.len())
        .map(|i| file_len(&ctx.workdir.join(format!("fig7-pass0-shard{i}.jsonl"))));
    out.set("gpworkloads.manifest_bytes", manifests.sum());

    if ctx.spans.on() {
        // Attribution pass: the same points through the plain public calls,
        // so replay and system build get spans of their own.
        let t = Instant::now();
        let mut events = 0;
        for (i, (&(w, kind), rec)) in points.iter().zip(&first).enumerate() {
            let (result, n) = replay_point(&runner, w, kind, ctx.spans, i as u64);
            events += n;
            out.check(result == rec.result, || format!("{w} on {kind}: plain replay differs"));
        }
        let plain_s = t.elapsed().as_secs_f64();
        replay_layer_metrics(ctx, &mut out, events, points.len());
        out.set("gpworkloads.matrix_overhead_frac", matrix_s / plain_s - 1.0);

        let all: Vec<_> = first.iter().map(|r| &r.result).collect();
        let sdc: Vec<_> =
            first.iter().filter(|r| r.kind == Some(SystemKind::SdcLp)).map(|r| &r.result).collect();
        simulated_counts(&mut out, &all, &sdc);

        let probe_w = [
            Workload::new(Kernel::Pr, GraphInput::Kron),
            Workload::new(Kernel::Bfs, GraphInput::Urand),
        ];
        let probe = cross(&probe_w, &[SystemKind::Baseline, SystemKind::SdcLp]);
        // Stall attribution comes from the probe: the timed sweep runs
        // with telemetry off.
        telemetry_probe(&runner, &probe, ctx, &mut out);
        component_probe(&runner.trace(probe_w[0]), ctx, &mut out);
        state_probe(&runner, probe_w[0], SystemKind::SdcLp, ctx, &mut out);
    }
    out
}
