#![forbid(unsafe_code)]
//! DRAM channel sweep: how much of the graph suite's memory bottleneck
//! is raw DRAM bandwidth? Sweeps one system design across 1/2/4/8 DRAM
//! channels and reports, per workload and channel count, the speedup
//! over the 1-channel configuration and the dram-wait share of
//! attributed stall cycles (from interval telemetry).
//!
//! The paper's premise (Section III) is that graph workloads stall on
//! memory *latency*, not bandwidth: adding channels helps far less than
//! its cost suggests, which is why SDC+LP attacks dead blocks and
//! location prediction instead. This sweep makes that argument
//! quantitative on the simulator.
//!
//! ```text
//! cargo run --release -p gpbench --bin dram_sweep -- --scale tiny --only kron
//! ```
//!
//! * `--channels LIST` — channel counts to sweep (default `1,2,4,8`);
//!   the first entry is the speedup baseline.
//! * `--system NAME` — the design to sweep (default `baseline`).
//! * All shared harness flags apply (`--scale`, `--only`, `--warmup`,
//!   `--measure`, `--manifest`, `--resume`, ...). The same sweep can be
//!   submitted to a running daemon instead:
//!   `simctl submit --systems baseline --channels 1,2,4,8 --workloads ...`

use gpbench::sweep::{render_table, run_sweep, Column, Footer, Value};
use gpbench::{finish_sweeps, usage_exit, HarnessOpts};
use gpworkloads::find_system;
use gpworkloads::matrix::{MatrixPoint, SystemSpec};
use std::process::ExitCode;

const FLAGS: &[&str] = &["--channels", "--system"];

/// Dram-wait share of attributed stall cycles across a point's intervals.
fn dram_wait_share(tel: &simtel::TelemetryOutput) -> Option<f64> {
    let mut dram_wait = 0u64;
    let mut total = 0u64;
    for iv in &tel.intervals {
        dram_wait += iv.stalls.dram_wait;
        total += iv.stalls.attributed();
    }
    (total > 0).then(|| dram_wait as f64 / total as f64)
}

fn main() -> ExitCode {
    let (opts, flags) = HarnessOpts::parse_args(FLAGS);
    let parsed = flags.list("--channels", vec![1usize, 2, 4, 8]).and_then(|channels| {
        Ok((channels, find_system(flags.value("--system").unwrap_or("baseline"))?))
    });
    let (channels, kind) = parsed.unwrap_or_else(|e| usage_exit(&e, &HarnessOpts::flags(FLAGS)));

    let runner = opts.runner();
    // Chunk layout: every workload's channel counts are adjacent, first
    // entry = speedup baseline.
    let points: Vec<MatrixPoint> = opts
        .workloads()
        .into_iter()
        .flat_map(|w| channels.iter().map(move |&ch| (w, ch)).collect::<Vec<_>>())
        .map(|(w, ch)| MatrixPoint::new(w, SystemSpec::kind_with_channels(kind, ch, &runner.sdclp)))
        .collect();

    // Interval telemetry is the point of this binary (the dram-wait
    // column), so it is always collected; --telemetry only adds files.
    let mut mopts = opts.matrix_options("dram_sweep");
    mopts.telemetry.get_or_insert(simtel::TelemetryConfig {
        interval_instructions: opts.interval.max(1),
        event_capacity: 0,
        ..Default::default()
    });
    let records =
        run_sweep(&opts, &runner, "dram_sweep", &points, &mopts, opts.bench_out.as_deref());

    // Headers live as long as the process, like the rows' static ones.
    let columns: Vec<Column> = (channels.iter().enumerate())
        .flat_map(|(i, ch)| {
            let speedup = format!("{ch}ch speedup").leak();
            let wait = format!("{ch}ch dram-wait").leak();
            [
                Column::new(speedup, i, Value::Ratio, Footer::Geomean),
                Column::new(wait, i, Value::Telemetry(dram_wait_share), Footer::Blank),
            ]
        })
        .collect();
    println!(
        "DRAM channel sweep: {} across {:?} channels ({:?} scale, {} workload(s))",
        kind.name(),
        channels,
        opts.scale,
        records.len() / channels.len(),
    );
    print!("{}", render_table(&columns, channels.len(), &records));
    println!();
    println!(
        "Reading: if adding channels barely moves the speedup while dram-wait stays the \
         dominant stall, the bottleneck is memory latency, not bandwidth (Section III)."
    );
    finish_sweeps(&[&records])
}
