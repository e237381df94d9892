//! perfbench: the repository benchmark.
//!
//! ```text
//! perfbench --workload <fig7-medium|mix4-medium|serve-overlap> --seed <n>
//!           --seconds <s> --trace <0|1> [--smoke] [--out <dir>]
//! ```
//!
//! Builds the workload's inputs from the seed (timed as `setup_s`), runs
//! whole passes of its timed phase until `--seconds` have elapsed, checks
//! the outputs, and prints one JSON object as the last line of stdout:
//! the end-to-end metrics with `--trace 0`, or, with `--trace 1`, the
//! per-layer metrics of a run that records spans around every public call
//! it makes into a layer (written to `<out>/spans-<workload>-seed<n>.jsonl`).
//! `--smoke` runs the same code at Tiny scale with short windows.

mod common;
mod fig7;
mod mix4;
mod pace;
mod report;
mod serve;
mod spans;

use common::Ctx;
use pace::Pace;
use report::{peak_rss_mib, quantile, Outcome, END_TO_END, PER_LAYER};
use spans::{self_seconds, Spans};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

const WORKLOADS: [&str; 3] = ["fig7-medium", "mix4-medium", "serve-overlap"];

/// The paper's Fig. 7 geomean SDC+LP speedup over Baseline, printed beside
/// the simulated one for reference. The simulator is not validated
/// against hardware.
const PAPER_FIG7_SPEEDUP: f64 = 1.203;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
        out: PathBuf::from(".bench_out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => args.smoke = true,
            "--out" => args.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {}", WORKLOADS.join(", ")));
    }
    if !(args.seconds.is_finite() && args.seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // One executor thread, and graphs built cold: no on-disk graph cache
    // may shorten set-up. Nothing else runs yet, so changing the
    // environment is safe.
    std::env::set_var("RAYON_NUM_THREADS", "1");
    std::env::remove_var("GRAPH_CACHE_DIR");

    let workdir = args.out.join(format!("run-{}-{}", args.workload, std::process::id()));
    let _ = std::fs::remove_dir_all(&workdir);
    if let Err(e) = std::fs::create_dir_all(&workdir) {
        eprintln!("perfbench: cannot create {}: {e}", workdir.display());
        return ExitCode::from(1);
    }
    let pace = Pace::default();
    let spans = Spans::new(args.trace);
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        smoke: args.smoke,
        spans: &spans,
        pace: &pace,
        workdir: workdir.clone(),
    };
    let mut out = match args.workload.as_str() {
        "fig7-medium" => fig7::run(&ctx),
        "mix4-medium" => mix4::run(&ctx),
        _ => serve::run(&ctx),
    };
    let _ = std::fs::remove_dir_all(&workdir);

    // Host times in seconds at the reference speed (see `pace`). Point
    // times take the whole timed phase's slowdown: the few samples around
    // one point are too noisy to correct it alone.
    let slow_setup = out.setup.map_or(1.0, |(a, b)| pace.slowdown(a, b));
    let slow_timed = if out.timed.is_empty() {
        1.0
    } else {
        let weighted: f64 =
            out.timed.iter().map(|&(a, b)| pace.slowdown(a, b) * (b - a).as_secs_f64()).sum();
        weighted / out.timed_s().max(1e-9)
    };
    let timed = Timed {
        setup_s: out.setup_s() / slow_setup,
        timed_s: out.timed_s() / slow_timed,
        point_ms: out.points.iter().map(|ms| ms / slow_timed).collect(),
    };
    let sim_mips = out.delivered_instr as f64 / timed.timed_s.max(1e-9) / 1e6;
    let ok_frac = 1.0 - out.failed as f64 / out.attempted.max(1) as f64;
    eprintln!(
        "perfbench: {} seed {}: {} pass(es), {} points, {} samples for p50/p90, failed_frac {:.4}; \
         measured setup {:.3}s, timed {:.3}s; host slowdown {:.3} (setup), {:.3} (timed)",
        args.workload,
        args.seed,
        out.passes,
        out.attempted,
        timed.point_ms.len(),
        1.0 - ok_frac,
        out.setup_s(),
        out.timed_s(),
        slow_setup,
        slow_timed
    );
    eprintln!(
        "perfbench: {} simulated fingerprint {:016x}; SDC+LP speedup geomean {:.6} \
         (paper Fig. 7: {PAPER_FIG7_SPEEDUP}; simulated, not validated against hardware)",
        args.workload, out.fingerprint, out.sdclp_speedup
    );

    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        finish_traced(&args, &spans, &mut out, &timed, sim_mips, start);
        PER_LAYER.iter().map(|&(n, u)| (n, out.layers.get(n).copied().unwrap_or(0.0), u)).collect()
    } else {
        let values = [
            timed.setup_s,
            sim_mips,
            quantile(&timed.point_ms, 0.5),
            quantile(&timed.point_ms, 0.9),
            out.peak_rss_mib.unwrap_or_else(peak_rss_mib),
            ok_frac,
            out.sdclp_speedup,
        ];
        END_TO_END.iter().zip(values).map(|(&(n, u), v)| (n, v, u)).collect()
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0 && out.attempted > 0,
        out.attempted,
        out.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}

/// Host times of a run at the reference speed.
struct Timed {
    setup_s: f64,
    timed_s: f64,
    point_ms: Vec<f64>,
}

/// Per-layer self times, the traced run's own end-to-end figures (compare
/// them with an untraced run of the same seed for the tracing overhead),
/// and the span file.
fn finish_traced(
    args: &Args,
    spans: &Spans,
    out: &mut Outcome,
    timed: &Timed,
    sim_mips: f64,
    start: Instant,
) {
    for (layer, secs) in self_seconds(&spans.finished()) {
        let name = PER_LAYER
            .iter()
            .map(|(n, _)| *n)
            .find(|n| n.strip_suffix(".self_s") == Some(layer))
            .expect("every layer has a self_s metric");
        out.set(name, secs);
    }
    out.set("tracing.timed_s", timed.timed_s);
    out.set("tracing.sim_mips", sim_mips);
    out.set("tracing.point_ms_p50", quantile(&timed.point_ms, 0.5));
    out.set("tracing.spans", spans.count() as f64);
    // Cost of recording one span, measured on a throwaway recorder.
    let probe = Spans::new(true);
    let t = Instant::now();
    for i in 0..10_000 {
        probe.run("simcore", "calibration", i, || ());
    }
    let per_span = t.elapsed().as_secs_f64() / 10_000.0;
    let wall = start.elapsed().as_secs_f64();
    out.set("tracing.span_cost_frac", spans.count() as f64 * per_span / wall);
    let path = args.out.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    match spans.write_jsonl(&path) {
        Ok(()) => eprintln!("perfbench: {} spans written to {}", spans.count(), path.display()),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
}
